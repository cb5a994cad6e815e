"""Monte Carlo thinning experiments against exact determinant identities."""

import numpy as np
import pytest

import hankelfh as hf
from hankelfh.errors import DomainError


def test_no_thinned_sector_certain_gap():
    spec = hf.ThinningSpec((0.0,), {})
    est = hf.mc_gap_probability(spec, 4, 10_000, seed=1)
    assert est.estimate == 1.0
    assert est.stderr == 0.0


def test_removal_probability_one_everywhere():
    spec = hf.ThinningSpec((0.0,), {1: 1.0, 2: 1.0})
    est = hf.mc_gap_probability(spec, 4, 10_000, seed=1)
    assert est.estimate == 1.0
    assert est.stderr == 0.0


def test_deterministic_given_seed():
    spec = hf.ThinningSpec((0.1,), {1: 0.6})
    a = hf.mc_gap_probability(spec, 5, 20_000, seed=42)
    b = hf.mc_gap_probability(spec, 5, 20_000, seed=42)
    assert a == b
    c = hf.mc_gap_probability(spec, 5, 20_000, seed=43)
    assert c.estimate != a.estimate


def test_sampler_matches_semicircle_scale():
    # with density e^{-2n tr M^2} the spectrum concentrates on [-1, 1]
    spec = hf.ThinningSpec((0.0,), {})
    from hankelfh.montecarlo import _sample_gue_eigenvalues

    rng = np.random.default_rng(7)
    eigs = _sample_gue_eigenvalues(rng, 30, 200)
    assert np.max(np.abs(eigs)) < 1.3
    assert np.percentile(np.abs(eigs), 90) > 0.5


def test_finite_n_thinning_identity_within_3_sigma(gue_potential):
    # the algebraic sector-sum identity behind the jump-weight representation
    for n, t, s in ((4, 0.0, 0.5), (6, 0.3, 0.7)):
        spec = hf.ThinningSpec((t,), {1: s})
        exact = np.exp(hf.gap_probability_log_exact(gue_potential, spec, n))
        est = hf.mc_gap_probability(spec, n, 50_000, seed=1234)
        assert abs(est.estimate - exact) < 3.0 * est.stderr, (n, t, s)


def test_interior_sector_identity(gue_potential):
    spec = hf.ThinningSpec((-0.2, 0.25), {2: 0.4})
    exact = np.exp(hf.gap_probability_log_exact(gue_potential, spec, 5))
    est = hf.mc_gap_probability(spec, 5, 50_000, seed=99)
    assert abs(est.estimate - exact) < 3.0 * est.stderr


def test_zero_hits_report_a_nonzero_stderr(gue_potential, gue_measure):
    # at n=30 the gap probability is about 3.3e-5: no sample hits the gap
    spec = hf.ThinningSpec((0.0,), {1: 0.5})
    est = hf.mc_gap_probability(spec, 30, 20_000, seed=7)
    assert est.estimate == 0.0
    assert est.stderr > 0.0
    pred = np.exp(hf.gap_probability_log(gue_potential, gue_measure, spec, 30).value)
    assert abs(est.estimate - pred) < 3.0 * est.stderr


def test_all_hits_report_a_nonzero_stderr(gue_potential):
    # the gap probability is 0.9999964: every sample hits the gap, yet 1.0 is
    # not certain while a thinned sector keeps eigenvalues with probability
    # 1 - s_k > 0
    spec = hf.ThinningSpec((0.95,), {2: 0.9999})
    est = hf.mc_gap_probability(spec, 2, 20_000, seed=7)
    assert est.estimate == 1.0
    assert est.stderr > 0.0
    exact = np.exp(hf.gap_probability_log_exact(gue_potential, spec, 2))
    assert abs(est.estimate - exact) < 3.0 * est.stderr


def test_validation():
    spec = hf.ThinningSpec((0.0,), {1: 0.5})
    with pytest.raises(DomainError):
        hf.mc_gap_probability(spec, 51, 10_000, seed=0)
    with pytest.raises(DomainError):
        hf.mc_gap_probability(spec, 5, 999, seed=0)
