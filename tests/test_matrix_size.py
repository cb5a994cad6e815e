"""Every public matrix-size parameter goes through one integer check."""

import inspect

import numpy as np
import pytest

import hankelfh as hf
from hankelfh.errors import DomainError

V = hf.Potential.gue()
MEASURE = hf.equilibrium_measure(V)
CFG = hf.SingularityConfig((hf.Singularity(0.2, alpha=0.5),))
W = hf.ChebSeries([0.0, 0.1])
WS = hf.WeightSpec(V, None, CFG, 2)
THINS_NOTHING = hf.ThinningSpec((0.0,), {})
THINS = hf.ThinningSpec((0.0,), {1: 0.5})
COEFFS = hf.expansion_coefficients(V, MEASURE, None, CFG)
RESCALED = hf.rescale(hf.Potential([0.0, 0.0, 0.5]), -2.0, 2.0)

# (entry point, label, call at a given size); the entry point names the
# exported function or "Class.method" that the tooling guard looks for
ENTRY_POINTS = [
    ("WeightSpec", "", lambda n: hf.WeightSpec(V, None, CFG, n)),
    ("default_precision_bits", "", lambda n: hf.default_precision_bits(n)),
    ("compute_moments", "", lambda n: hf.compute_moments(WS, n, 128)),
    ("hankel_log_det", "", lambda n: hf.hankel_log_det([1.0, 0.0, 0.25], n, 128)),
    ("mc_gap_probability", "", lambda n: hf.mc_gap_probability(THINS, n, 10_000, 0)),
    ("ExpansionCoefficients.predict", "", lambda n: COEFFS.predict(n)),
    ("predict_log_hankel", "", lambda n: hf.predict_log_hankel(V, MEASURE, None, CFG, n)),
    ("correlation_log", "",
     lambda n: hf.correlation_log(V, MEASURE, None, CFG, (0.0,), n)),
    ("gue_exact_log", "", lambda n: hf.gue_exact_log(n)),
    ("krasovsky_log_ratio", "", lambda n: hf.krasovsky_log_ratio(CFG, n)),
    ("ratio_beta", "", lambda n: hf.ratio_beta(CFG, n)),
    ("ratio_potential", "", lambda n: hf.ratio_potential(V, MEASURE, CFG, n)),
    ("ratio_field", "", lambda n: hf.ratio_field(V, MEASURE, W, CFG, n)),
    ("gap_probability_log", "thins",
     lambda n: hf.gap_probability_log(V, MEASURE, THINS, n)),
    ("gap_probability_log", "thins nothing",
     lambda n: hf.gap_probability_log(V, MEASURE, THINS_NOTHING, n)),
    ("gap_probability_log_exact", "thins",
     lambda n: hf.gap_probability_log_exact(V, THINS, n)),
    ("gap_probability_log_exact", "thins nothing",
     lambda n: hf.gap_probability_log_exact(V, THINS_NOTHING, n)),
    ("RescaledProblem.log_det_correction", "", lambda n: RESCALED.log_det_correction(n)),
]
SIZE_PARAMETERS = {"n", "count", "k"}


@pytest.mark.parametrize("bad", [0, -2, 2.5, 3.0, True], ids=repr)
@pytest.mark.parametrize(
    "call", [row[2] for row in ENTRY_POINTS],
    ids=[f"{name}[{label}]" if label else name for name, label, _ in ENTRY_POINTS],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_size_must_be_an_integer_at_least_1(call, bad):
    with pytest.raises(DomainError, match="need an integer"):
        call(bad)


def _public_callables():
    """(name, callable) of hankelfh's exported functions and of the public
    methods of its exported classes."""
    for name, obj in vars(hf).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for method, member in inspect.getmembers(obj, inspect.isroutine):
                if not method.startswith("_"):
                    yield f"{name}.{method}", member


def test_every_size_parameter_has_a_row():
    checked = {name for name, _, _ in ENTRY_POINTS}
    missing = []
    for name, member in _public_callables():
        try:
            params = inspect.signature(member).parameters
        except ValueError:  # builtins such as Exception.add_note
            continue
        if SIZE_PARAMETERS & set(params) and name not in checked:
            missing.append(name)
    assert not missing, f"size parameters without a test row: {missing}"


def test_numpy_integers_are_sizes():
    assert COEFFS.predict(np.int64(8)) == COEFFS.predict(8)
    assert hf.gue_exact_log(np.uint8(8)) == hf.gue_exact_log(8)
    assert type(hf.WeightSpec(V, None, CFG, np.int32(3)).n) is int
