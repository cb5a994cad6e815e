"""Thinning maps, gap probabilities and conditional correlations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankelfh as hf
from hankelfh.errors import DomainError, HypothesisError

TWO_PI = 2.0 * np.pi


# --------------------------------------------------------- thinning_to_betas


def test_single_sector_jump_exponent():
    spec = hf.ThinningSpec((0.0,), {1: 0.5})
    tmap = hf.thinning_to_betas(spec)
    assert abs(tmap.betas[0] - 1j * np.log(2.0) / TWO_PI) < 1e-15
    assert abs(tmap.log_prefactor - 0.5 * np.log(0.5)) < 1e-15


def test_uniform_removal_probability_gives_zero_exponents():
    spec = hf.ThinningSpec((-0.4, 0.2), {1: 0.7, 2: 0.7, 3: 0.7})
    tmap = hf.thinning_to_betas(spec)
    assert all(abs(b) < 1e-15 for b in tmap.betas)
    # uniform thinning still scales the gap probability through the
    # unbounded sectors
    assert abs(tmap.log_prefactor - np.log(0.7)) < 1e-15


def test_interior_sector_sign_and_m1_reduction():
    # thinning only the middle sector: exponents telescope, no prefactor
    spec = hf.ThinningSpec((-0.3, 0.4), {2: 0.25})
    tmap = hf.thinning_to_betas(spec)
    assert abs(tmap.betas[0] - np.log(1 / 0.25) / (2j * np.pi)) < 1e-15
    assert abs(tmap.betas[0] - (-1j) * np.log(4.0) / TWO_PI) < 1e-15
    assert abs(tmap.betas[1] + tmap.betas[0]) < 1e-15
    assert tmap.log_prefactor == 0.0
    # consistency with the single-boundary identity: a sector (t, +inf)
    # thinned at rate s must reproduce beta_1 = log(s)/(2 pi i) mirrored
    one = hf.thinning_to_betas(hf.ThinningSpec((0.1,), {2: 0.25}))
    assert abs(one.betas[0] - np.log(1 / 0.25) / (2j * np.pi)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
)
def test_telescoping_and_imaginarity(s_values):
    m = len(s_values) - 1
    boundaries = tuple(np.linspace(-0.6, 0.6, m)) if m else ()
    spec = hf.ThinningSpec(
        boundaries, {k + 1: s for k, s in enumerate(s_values)}
    )
    tmap = hf.thinning_to_betas(spec)
    st_ = spec.s_tilde()
    telescoped = sum(tmap.betas) * 2j * np.pi
    assert abs(telescoped - np.log(st_[0] / st_[-1])) < 1e-12
    for b in tmap.betas:
        assert abs(b.real) < 1e-15


# ------------------------------------------------------- gap_probability_log


def test_gap_no_thinned_sector(gue_potential, gue_measure):
    spec = hf.ThinningSpec((0.0,), {})
    pred = hf.gap_probability_log(gue_potential, gue_measure, spec, 12)
    assert pred.value == 0.0


def test_gap_removal_probability_one(gue_potential, gue_measure):
    spec = hf.ThinningSpec((0.0,), {1: 1.0})
    pred = hf.gap_probability_log(gue_potential, gue_measure, spec, 12)
    assert abs(pred.value) < 1e-13


def test_gap_log_probability_nonpositive(gue_potential, gue_measure):
    for s in (0.2, 0.5, 0.9):
        spec = hf.ThinningSpec((0.1,), {1: s})
        pred = hf.gap_probability_log(gue_potential, gue_measure, spec, 20)
        assert pred.value <= pred.error_scale


def test_gap_monotone_in_each_removal_probability(gue_potential, gue_measure):
    # lowering any removal probability keeps more eigenvalues and can only
    # shrink the void probability
    n = 30
    grid = (0.9, 0.7, 0.5, 0.3)
    for sector, other in ((1, 3), (2, 1), (3, 2)):
        previous = None
        for s in grid:
            spec = hf.ThinningSpec((-0.3, 0.35), {sector: s, other: 0.6})
            pred = hf.gap_probability_log(gue_potential, gue_measure, spec, n)
            if previous is not None:
                assert pred.value < previous + 1e-12, (sector, s)
            previous = pred.value


def test_gap_asymptotic_matches_leading_order(gue_potential, gue_measure):
    # log P ~ n * sum_k mu(sector_k) log s_k at leading order
    spec = hf.ThinningSpec((0.0,), {1: 0.5})
    n = 200
    pred = hf.gap_probability_log(gue_potential, gue_measure, spec, n)
    assert abs(pred.value / n - 0.5 * np.log(0.5)) < 0.01


def test_gap_exact_finite_n_identity(gue_potential):
    # the n-fold prefactor: P = (s~_1 s~_{m+1})^{n/2} D(beta~)/D(0); checked
    # against brute-force sector sums at n = 1 where everything is explicit
    from scipy.integrate import quad
    from scipy.stats import norm

    t, s = 0.3, 0.4
    spec = hf.ThinningSpec((t,), {1: s})
    exact = hf.gap_probability_log_exact(gue_potential, spec, 1)
    # single eigenvalue density ~ e^{-2x^2}: P = s*P(x<t) + P(x>t)
    mass = norm.cdf(t, scale=0.5)
    assert abs(np.exp(exact) - (s * mass + (1 - mass))) < 1e-10


def test_gap_exact_at_large_n_leaves_a_1_over_n_residual(gue_potential, gue_measure):
    # mu([0, 1]) = 1/2, so even n hide the oscillatory term and the expansion
    # misses the exact value by c/n; an error of 1e-4 in C4 moves the ratio
    # of n * residual at n = 64 and n = 30 by about 13%
    spec = hf.ThinningSpec((0.0,), {1: 0.5})
    scaled = [
        n * abs(hf.gap_probability_log_exact(gue_potential, spec, n)
                - hf.gap_probability_log(gue_potential, gue_measure, spec, n).value)
        for n in (30, 64)
    ]
    assert abs(scaled[1] / scaled[0] - 1) < 0.1, scaled


# ------------------------------------------------------------ correlation_log


def test_correlation_trivial_zero(gue_potential, gue_measure):
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.0, 0.0),))
    pred = hf.correlation_log(
        gue_potential, gue_measure, None, cfg, [0.0], 5
    )
    assert abs(pred.value) < 1e-14


def test_correlation_root_type_reduces_to_moment_ratio(gue_potential, gue_measure):
    # beta = 0, no conditioning: log E = log D(alpha) - log D(0)
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.9, 0.0),))
    pred = hf.correlation_log(gue_potential, gue_measure, None, cfg, [0.0], 9)
    a = hf.predict_log_hankel(gue_potential, gue_measure, None, cfg, 9)
    b = hf.predict_log_hankel(
        gue_potential, gue_measure, None,
        hf.SingularityConfig((hf.Singularity(0.2, 0.0, 0.0),)), 9,
    )
    assert abs(pred.value - (a.value - b.value)) < 1e-13


def test_correlation_against_oracle_ratio(gue_potential, gue_measure):
    # imaginary jump exponent at n = 8: compare with exact determinants
    n = 8
    beta = 0.09j
    cfg = hf.SingularityConfig((hf.Singularity(0.25, 0.0, beta),))
    pred = hf.correlation_log(gue_potential, gue_measure, None, cfg, [0.0], n)
    base = hf.SingularityConfig((hf.Singularity(0.25, 0.0, 0.0),))
    num, den = (
        hf.oracle_log_det(hf.WeightSpec(gue_potential, None, c, n), 512)
        for c in (cfg, base)
    )
    # both weights are positive, so both phases are 0
    oracle = num.log_abs - den.log_abs - 1j * np.pi * beta
    assert abs(pred.value - oracle) < 0.02


def test_correlation_validates_combined_betas(gue_potential, gue_measure):
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.0, 0.2 + 0.0j),))
    with pytest.raises(HypothesisError):
        hf.correlation_log(
            gue_potential, gue_measure, None, cfg, [0.1 + 0.0j], 5
        )
    with pytest.raises(HypothesisError):
        hf.correlation_log(gue_potential, gue_measure, None, cfg, [0.0, 0.0], 5)


# ---------------------------------------------------------------- spec typing


def test_thinning_spec_validation():
    with pytest.raises(DomainError):
        hf.ThinningSpec((0.5, 0.1), {})
    with pytest.raises(DomainError):
        hf.ThinningSpec((0.0,), {5: 0.5})
    with pytest.raises(DomainError):
        hf.ThinningSpec((0.0,), {1: 0.0})
    with pytest.raises(DomainError):
        hf.ThinningSpec((1.2,), {})
