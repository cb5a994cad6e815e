"""Extended-precision moments and determinants against closed forms."""

import dataclasses
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hankelfh as hf
from hankelfh.chebyshev import ChebSeries
import hankelfh.oracle as oracle_mod
from hankelfh.errors import ConvergenceError, DomainError, HankelFHError
from hankelfh.oracle import MOMENT_DETERMINANT, OP_RECURRENCE, wrap_phase


def gue_weight(n):
    return hf.WeightSpec(hf.Potential.gue(), None, hf.SingularityConfig(), n)


def gue_product_log_hp(n, dps=60):
    with mp.workdps(dps):
        return (
            mp.mpf(n) / 2 * mp.log(2 * mp.pi)
            - n * n * mp.log(2)
            - mp.mpf(n * n) / 2 * mp.log(n)
            + mp.fsum(mp.loggamma(j + 1) for j in range(1, n))
        )


# ------------------------------------------------------------ compute_moments


def test_gaussian_moments_closed_form():
    # int x^{2k} e^{-2x^2} dx: w_0 = sqrt(pi/2), w_2 = w_0/4, odd zero
    moments = hf.compute_moments(gue_weight(1), 3, 256)
    with mp.workdps(90):
        w0 = mp.sqrt(mp.pi / 2)
        assert abs(moments[0] - w0) < mp.mpf(10) ** -70
        assert abs(moments[2] - w0 / 4) < mp.mpf(10) ** -70
        assert abs(moments[1]) < mp.mpf(10) ** -70
        assert abs(moments[3]) < mp.mpf(10) ** -70


def test_moments_odd_vanish_for_symmetric_weight():
    cfg = hf.SingularityConfig(
        (hf.Singularity(-0.4, 0.5, 0.0), hf.Singularity(0.4, 0.5, 0.0))
    )
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 2)
    moments = hf.compute_moments(ws, 4, 256)
    scale = abs(moments[0])
    for j in (1, 3, 5):
        assert abs(moments[j]) < mp.mpf(10) ** -60 * scale


def test_moment_with_root_singularity_at_origin():
    # |x| e^{-2x^2}: w_0 = 1/2 by the substitution u = x^2
    cfg = hf.SingularityConfig((hf.Singularity(0.0, 1.0, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 1)
    moments = hf.compute_moments(ws, 1, 256)
    with mp.workdps(90):
        assert abs(moments[0] - mp.mpf(1) / 2) < mp.mpf(10) ** -70


def test_moments_precision_validation():
    with pytest.raises(DomainError):
        hf.compute_moments(gue_weight(1), 2, 64)


# ------------------------------------------------------------ hankel_log_det


def test_single_moment_determinant():
    res = hf.hankel_log_det([mp.sqrt(mp.pi / 2)], 1, 256)
    assert abs(res.log_abs - 0.5 * np.log(np.pi / 2)) < 1e-15
    assert res.phase == 0.0
    assert res.method == MOMENT_DETERMINANT


def test_hand_determinant_2x2():
    res = hf.hankel_log_det([mp.mpf(1), mp.mpf(0), mp.mpf(1)], 2, 256)
    assert abs(res.log_abs) < 1e-15  # det = 1


def test_zero_determinant_reported_not_raised():
    res = hf.hankel_log_det([mp.mpf(1), mp.mpf(1), mp.mpf(1)], 2, 256)
    assert res.is_zero
    assert res.log_abs == float("-inf")


def test_gue_determinants_match_product_formula_tightly():
    # the A1-level closed form, at 1e-20 resolution via the hp field
    for n in range(1, 7):
        res = hf.oracle_log_det(gue_weight(n), 256)
        with mp.workdps(60):
            diff = abs(res.log_abs_hp - gue_product_log_hp(n))
        assert diff < mp.mpf(10) ** -20, n
        assert res.phase == 0.0
        assert res.converged


def test_moment_count_validation():
    with pytest.raises(DomainError):
        hf.hankel_log_det([mp.mpf(1)] * 3, 3, 256)


# ------------------------------------------------------ op_recurrence_log_det


def test_method_agreement_gue():
    a = hf.oracle_log_det(gue_weight(4), 256)
    b = hf.op_recurrence_log_det(gue_weight(4))
    assert b.method == OP_RECURRENCE
    assert abs(a.log_abs - b.log_abs) < 1e-10
    assert abs(b.log_abs - hf.gue_exact_log(4)) < 1e-12


def test_method_agreement_with_root_singularities():
    cfg = hf.SingularityConfig((hf.Singularity(0.3, 2.0, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 6)
    a = hf.oracle_log_det(ws, 384)
    b = hf.op_recurrence_log_det(ws)
    assert abs(a.log_abs - b.log_abs) < 1e-10


def test_method_agreement_moderate_n():
    cfg = hf.SingularityConfig((hf.Singularity(-0.2, 0.6, 0.0),))
    weights = [hf.WeightSpec(hf.Potential.gue(), ChebSeries([0.0, 0.2]), cfg, 12)]
    # the thinned weights of the benchmark's exact gap probabilities
    for boundaries, s, n in (
        ((0.0,), {1: 0.5}, 6),
        ((-0.3, 0.4), {1: 0.8, 3: 0.35}, 8),
        ((0.0,), {1: 0.9}, 8),
    ):
        betas = hf.thinning_to_betas(hf.ThinningSpec(boundaries, s)).betas
        sings = tuple(hf.Singularity(t, 0.0, b) for t, b in zip(boundaries, betas))
        weights.append(hf.WeightSpec(hf.Potential.gue(), None, hf.SingularityConfig(sings), n))
    for ws in weights:
        a = hf.oracle_log_det(ws)
        b = hf.op_recurrence_log_det(ws)
        assert abs(a.log_abs - b.log_abs) < 1e-10, ws.cfg


def test_recurrence_sees_under_resolved_moments(monkeypatch):
    # a moment-route cutoff of 1.2 drops about 4e-3 of log D_4, which the
    # half-precision recheck cannot see; the recurrence keeps its own cutoff
    # and nodes, so the two routes disagree and converged says so
    find_cutoff = oracle_mod._find_cutoff

    def short_cutoff(ws, max_power, precision_bits):
        if precision_bits >= 128:
            return 1.2
        return find_cutoff(ws, max_power, precision_bits)

    monkeypatch.setattr(oracle_mod, "_find_cutoff", short_cutoff)
    a = hf.oracle_log_det(gue_weight(4))
    b = hf.op_recurrence_log_det(gue_weight(4))
    assert not a.converged
    assert abs(a.log_abs - b.log_abs) > 1e-6
    assert abs(b.log_abs - hf.gue_exact_log(4)) < 1e-12


@pytest.mark.parametrize("n", [48, 64])
def test_gue_converges_at_default_precision(n):
    # at the fixed max(256, 48 n) bits the moment quadrature stalled at level
    # 11 from n = 48; the ladder's 128-bit rung already agrees with the
    # recurrence
    res = hf.oracle_log_det(gue_weight(n))
    assert res.converged
    assert abs(res.log_abs - hf.gue_exact_log(n)) < 1e-9


@pytest.fixture
def rung_bits(monkeypatch):
    """The precision_bits of every compute_moments call, in order."""
    bits = []
    compute_moments = oracle_mod.compute_moments

    def spy(ws, count, precision_bits):
        bits.append(precision_bits)
        return compute_moments(ws, count, precision_bits)

    monkeypatch.setattr(oracle_mod, "compute_moments", spy)
    return bits


def test_ladder_stops_at_the_first_agreeing_rung(rung_bits):
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.0, 0.1j),))
    res = hf.oracle_log_det(hf.WeightSpec(hf.Potential.gue(), None, cfg, 8))
    assert rung_bits == [128]
    assert res.precision_bits == 128 and res.converged


def test_ladder_runs_the_cap_once_without_a_reference(rung_bits):
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.5 + 0.3j, 0.0),))
    res = hf.oracle_log_det(hf.WeightSpec(hf.Potential.gue(), None, cfg, 6))
    assert rung_bits == [hf.default_precision_bits(6)] == [288]
    assert res.precision_bits == 288 and res.converged


def test_no_reference_check_sees_the_phase(monkeypatch):
    # complex alpha has no recurrence reference, so the same moments
    # factorised at half the bits are the reference; a difference in phase
    # alone, of 1e-6, must refuse the result
    factor = oracle_mod.hankel_log_det

    def half_off_in_phase(moments, k, precision_bits):
        res = factor(moments, k, precision_bits)
        if precision_bits < hf.default_precision_bits(k):
            res = dataclasses.replace(res, phase=res.phase + 1e-6)
        return res

    monkeypatch.setattr(oracle_mod, "hankel_log_det", half_off_in_phase)
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.5 + 0.3j, 0.0),))
    res = hf.oracle_log_det(hf.WeightSpec(hf.Potential.gue(), None, cfg, 6))
    assert res.precision_bits == 288
    assert not res.converged


def test_explicit_precision_is_a_single_rung(rung_bits):
    res = hf.oracle_log_det(gue_weight(4), 320)
    assert rung_bits == [320]
    assert res.precision_bits == 320 and res.converged


def test_ladder_climbs_to_the_cap_on_disagreement(monkeypatch, rung_bits):
    recurrence = oracle_mod.op_recurrence_log_det

    def shifted(ws):
        ref = recurrence(ws)
        return dataclasses.replace(ref, log_abs=ref.log_abs + 1e-6)

    monkeypatch.setattr(oracle_mod, "op_recurrence_log_det", shifted)
    res = hf.oracle_log_det(gue_weight(8))
    assert rung_bits == [128, 256, 384]
    assert res.precision_bits == 384
    assert not res.converged
    assert abs(res.log_abs - hf.gue_exact_log(8)) < 1e-12


def test_recurrence_takes_complex_beta_and_refuses_complex_alpha():
    # a real beta makes the jump factor e^{+-i pi beta} complex; the
    # recurrence runs in the bilinear form and must match the moment route
    for sings, n in (
        (((0.0, 0.0, 0.1),), 8),
        (((-0.4, 1.0, 0.05 + 0.05j), (0.5, 0.6, -0.08j)), 8),  # jump_compare's pair
    ):
        cfg = hf.SingularityConfig(tuple(hf.Singularity(*s) for s in sings))
        ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, n)
        a = hf.oracle_log_det(ws)
        b = hf.op_recurrence_log_det(ws)
        assert abs(a.log_abs - b.log_abs) < 1e-12, sings
        assert abs(wrap_phase(a.phase - b.phase)) < 1e-12, sings
    # Gauss-Jacobi resolves |x - t|^{i Im alpha} only algebraically
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.5 + 0.3j, 0.0),))
    with pytest.raises(DomainError, match=r"^t = 0\.2: .* real alpha, got \(0\.5\+0\.3j\)$"):
        hf.op_recurrence_log_det(hf.WeightSpec(hf.Potential.gue(), None, cfg, 3))


def test_gauss_jacobi_rules_are_cached_and_read_only():
    nodes, log_weights = oracle_mod._gauss_jacobi(40, 0.3, -0.5)
    again = oracle_mod._gauss_jacobi(40, 0.3, -0.5)
    assert again[0] is nodes and again[1] is log_weights
    for arr in (nodes, log_weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@st.composite
def weights(draw, max_n):
    """A weight from the whole hypothesis domain: the Gaussian potential or
    an even quartic with support [-1, 1], a 4-term field (no T_3 term under
    the Gaussian, where e^W would outgrow e^{-nV}), 1-3 singularities in
    [-0.9, 0.9] at least 0.05 apart with Re alpha in (-1, 3], Im alpha 0 or
    in [-1, 1], |Re beta| < 1/4 and |Im beta| <= 0.3, and n <= max_n."""
    c4 = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
    V = hf.Potential([0.0, 0.0, 2.0 - 1.5 * c4, 0.0, c4])
    w = draw(st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4))
    W = ChebSeries(w[:3] + [w[3] if c4 else 0.0])
    ts = sorted(draw(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=3)))
    assume(all(b - a >= 0.05 for a, b in zip(ts, ts[1:])))
    sings = tuple(
        hf.Singularity(
            t,
            complex(draw(st.floats(-1.0, 3.0, exclude_min=True)),
                    draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))),
            complex(draw(st.floats(-0.25, 0.25, exclude_min=True, exclude_max=True)),
                    draw(st.floats(-0.3, 0.3))),
        )
        for t in ts
    )
    return hf.WeightSpec(V, W, hf.SingularityConfig(sings), draw(st.integers(1, max_n)))


def reflected(ws):
    """x -> -x: (W(x), t, alpha, beta) -> (W(-x), -t, alpha, -beta), which
    leaves D_n of an even V unchanged."""
    W = ChebSeries(ws.W.coeffs * (-1.0) ** np.arange(len(ws.W.coeffs)))
    cfg = hf.SingularityConfig(tuple(
        hf.Singularity(-s.t, s.alpha, -s.beta) for s in reversed(ws.cfg.singularities)
    ))
    return hf.WeightSpec(ws.V, W, cfg, ws.n)


@settings(max_examples=100, deadline=None)
@given(weights(max_n=12))
def test_recurrence_over_the_whole_domain(ws):
    # a finite, reflection-invariant value or a typed error (complex alpha,
    # an unresolved discretisation), never anything else
    try:
        value = hf.op_recurrence_log_det(ws)
    except HankelFHError:
        return
    assert np.isfinite(value.log_abs)
    mirror = hf.op_recurrence_log_det(reflected(ws))
    assert abs(mirror.log_abs - value.log_abs) <= 1e-10
    assert abs(wrap_phase(mirror.phase - value.phase)) <= 1e-10


@settings(max_examples=10, deadline=None)
@given(weights(max_n=3))
def test_recurrence_matches_moment_determinant_over_the_whole_domain(ws):
    try:
        value = hf.op_recurrence_log_det(ws)
    except HankelFHError:  # a typed refusal, allowed by the test above
        return
    det = hf.oracle_log_det(ws, 256)
    assert det.converged
    assert abs(value.log_abs - det.log_abs) <= 1e-10
    assert abs(wrap_phase(value.phase - det.phase)) <= 1e-10


# ------------------------------------------------------------------ invariants


def test_precision_robustness_doubling():
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.7, 0.05j),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 6)
    r1 = hf.oracle_log_det(ws, 256)
    r2 = hf.oracle_log_det(ws, 512)
    assert abs(r1.log_abs - r2.log_abs) < 1e-10
    assert abs(r1.phase - r2.phase) < 1e-10
    assert r1.converged and r2.converged


def test_positive_weight_phase_zero():
    cfg = hf.SingularityConfig((hf.Singularity(0.1, 1.5, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), ChebSeries([0.3, 0.1]), cfg, 5)
    res = hf.oracle_log_det(ws, 256)
    assert res.phase == 0.0
    assert np.isfinite(res.log_abs)


def test_weight_scaling_covariance():
    # multiplying the weight by c shifts log D_n by n log c
    n, c = 5, 1.7
    base = hf.oracle_log_det(gue_weight(n), 256)
    scaled_ws = hf.WeightSpec(
        hf.Potential.gue(), ChebSeries([np.log(c)]), hf.SingularityConfig(), n
    )
    scaled = hf.oracle_log_det(scaled_ws, 256)
    assert abs(scaled.log_abs - base.log_abs - n * np.log(c)) < 1e-12


def test_jump_weight_with_imaginary_beta_is_positive():
    # purely imaginary jump exponents (every thinning weight) give a positive
    # weight: phase 0, and the recurrence route applies
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.0, 0.1j),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 4)
    assert ws.is_positive
    res = hf.oracle_log_det(ws, 256)
    assert res.phase == 0.0
    rec = hf.op_recurrence_log_det(ws)
    assert abs(res.log_abs - rec.log_abs) < 1e-10


def test_complex_alpha_gives_complex_determinant():
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.5 + 0.3j, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 3)
    res = hf.oracle_log_det(ws, 256)
    assert res.phase != 0.0
    assert res.converged


# ------------------------------------------------------- negative root exponents


@pytest.mark.parametrize(
    "alpha, reference",
    # log D_4 at GUE, t = 0, from an independent float64 route (Gauss-Jacobi
    # panels and Lanczos)
    [(-0.3, -14.4989042808910), (-0.5, -13.3397402250119)],
)
def test_negative_alpha_converges_at_default_precision(alpha, reference):
    cfg = hf.SingularityConfig((hf.Singularity(0.0, alpha, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 4)
    res = hf.oracle_log_det(ws)
    assert res.converged
    assert abs(res.log_abs - reference) < 1e-9
    rec = hf.op_recurrence_log_det(ws)
    assert abs(res.log_abs - rec.log_abs) < 1e-10


# ------------------------------------------- fixed-point moment accumulation


def mpf_reference_moments(monkeypatch, ws, count, precision_bits):
    """compute_moments' result with plain mpf sums of q w(x) x^j, and of
    q |w(x)| |x|^j (the tolerance scale), over the same converged nodes,
    which a spy on the node generator records."""
    levels, points = [], []
    generate = oracle_mod._nodes

    def spy(level, *args):
        levels.append(level)
        for point in generate(level, *args):
            points.append(point)
            yield point

    monkeypatch.setattr(oracle_mod, "_nodes", spy)
    moments = hf.compute_moments(ws, count, precision_bits)
    n_mom = 2 * count - 1
    with mp.workprec(precision_bits + oracle_mod._GUARD_BITS):
        evaluator = oracle_mod._WeightEvaluator(ws)
        units = [mp.expj(evaluator.panel_constants(p)[1])
                 for p in range(len(ws.cfg) + 1)]
        h = mp.mpf(2) ** -max(levels)
        sums = [mp.mpf(0)] * n_mom
        abs_sums = [mp.mpf(0)] * n_mom
        for p, x, m, theta in points:
            d = h * m
            if not ws.is_positive:
                d *= units[p] * (1 if theta is None else mp.expj(theta))
            ap, ax = abs(d), abs(x)
            for j in range(n_mom):
                sums[j] += d
                abs_sums[j] += ap
                d *= x
                ap *= ax
    return moments, sums, abs_sums


@pytest.mark.parametrize(
    "sings, n, precision_bits",
    [
        # positive weight with 47 moments (at 1152 bits the mpf reference
        # alone takes about 25 s)
        ((), 24, 256),
        # the complex-beta pair of the benchmark's compare workload
        (((-0.4, 1.0, 0.05 + 0.05j), (0.5, 0.6, -0.08j)), 6, 384),
        (((0.2, 0.5 + 0.3j, 0.0),), 3, 256),  # complex alpha
    ],
    ids=["positive-n24", "complex-beta-pair", "complex-alpha"],
)
def test_integer_moments_match_mpf_sums(monkeypatch, sings, n, precision_bits):
    cfg = hf.SingularityConfig(tuple(hf.Singularity(*s) for s in sings))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, n)
    moments, sums, abs_sums = mpf_reference_moments(
        monkeypatch, ws, n, precision_bits
    )
    assert {type(m) for m in moments} == {mp.mpf if ws.is_positive else mp.mpc}
    rel_tol = mp.mpf(2) ** -(precision_bits + 16)
    for m, s, a in zip(moments, sums, abs_sums):
        assert abs(m - s) <= rel_tol * a


def test_fixed_point_scale_below_its_bound_raises(monkeypatch):
    # G is set from the start level's own sums, which the final sums only
    # exceed, so the post-convergence check needs a scale cut below the
    # bound to fire; it must raise instead of returning rounded moments
    monkeypatch.setattr(oracle_mod, "_HEADROOM_BITS", -16)
    with pytest.raises(ConvergenceError, match="fractional bits"):
        hf.compute_moments(gue_weight(6), 6, 256)


def test_stall_names_the_worst_moment_and_by_how_much(monkeypatch):
    # one refinement step cannot converge; the error must say where (moment
    # index, cutoff, working bits, determinant size), by how much (bits over
    # tolerance) and, for real alpha, that the float64 route exists
    monkeypatch.setattr(oracle_mod, "_MAX_LEVEL", oracle_mod._START_LEVEL + 1)
    with pytest.raises(ConvergenceError) as info:
        hf.compute_moments(gue_weight(6), 6, 256)
    message = str(info.value)
    assert message.startswith(
        f"moment quadrature stalled at level {oracle_mod._START_LEVEL + 1}: "
    )
    match = re.search(
        r"moment j = (\d+) last changed by 2\^([\d.e+]+) times its tolerance "
        r"\(cutoff X = ([\d.e+]+), (\d+) working bits\)",
        message,
    )
    assert match, message
    j, bits, X, workprec = match.groups()
    assert 0 <= int(j) <= 10
    assert float(bits) > 0
    assert float(X) >= 2.0
    assert int(workprec) == 256 + oracle_mod._GUARD_BITS
    assert message.endswith(
        "working bits) for the 6 x 6 determinant; every alpha is real, "
        "so op_recurrence_log_det computes this determinant in float64"
    )

    # a jump makes the weight complex but keeps alpha real: the float64
    # route still applies; complex alpha leaves none to point to
    for alpha, beta, route in ((0.0, 0.1, True), (0.5 + 0.3j, 0.0, False)):
        cfg = hf.SingularityConfig((hf.Singularity(0.0, alpha, beta),))
        ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 3)
        with pytest.raises(ConvergenceError) as info:
            hf.compute_moments(ws, 3, 256)
        assert str(info.value).endswith(
            "computes this determinant in float64" if route
            else "working bits) for the 3 x 3 determinant"
        )


def test_cutoff_search_failure_names_the_last_cutoff():
    # a field growing like x^4 outweighs n V = 2 x^2: the weight is not
    # integrable and the tail search must stop with a typed, quantified error
    ws = hf.WeightSpec(hf.Potential.gue(), ChebSeries([0, 0, 0, 0, 1.0]),
                       hf.SingularityConfig(), 2)
    with pytest.raises(ConvergenceError, match=(
        r"tail cutoff search did not terminate: at the last X = [\d.e+]+, "
        r"x\^2 \|w\(x\)\| still exceeds its target by 2\^[\d.e+]+$"
    )):
        hf.oracle_log_det(ws, 256)
