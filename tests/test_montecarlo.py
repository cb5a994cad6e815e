"""Monte Carlo thinning experiments against exact determinant identities."""

import numpy as np
import pytest

import hankelfh as hf
from hankelfh.errors import DomainError
from hankelfh.montecarlo import _count_below, _sample_tridiagonal


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


def _dense(diag, off_sq):
    """The (batch, n, n) matrices of _sample_tridiagonal's output."""
    n, batch = diag.shape
    t = np.zeros((batch, n, n))
    i = np.arange(n)
    t[:, i, i] = diag.T
    t[:, i[:-1], i[1:]] = t[:, i[1:], i[:-1]] = np.sqrt(off_sq.T)
    return t


def test_sturm_counts_match_eigvalsh():
    rng = np.random.default_rng(3)
    x = np.array([-np.inf, -0.8, -0.25, 0.0, 0.4, 0.95, np.inf])
    for n in (1, 2, 12, 40):
        diag, off_sq = _sample_tridiagonal(rng, n, 400)
        eigs = np.linalg.eigvalsh(_dense(diag, off_sq))
        expected = (eigs[None, :, :] < x[:, None, None]).sum(axis=2)
        np.testing.assert_array_equal(_count_below(diag, off_sq, x), expected, err_msg=f"n={n}")


def test_zero_pivot_counts_a_boundary_eigenvalue_as_not_below():
    # a boundary equal to the first diagonal entry makes the first pivot 0
    rng = np.random.default_rng(5)
    for n in (1, 2):
        diag, off_sq = _sample_tridiagonal(rng, n, 50)
        eigs = np.linalg.eigvalsh(_dense(diag, off_sq))
        for row in range(n):
            for j in range(50):
                x = np.array([diag[row, j]])
                got = _count_below(diag[:, j:j + 1], off_sq[:, j:j + 1], x)
                assert got[0, 0] == (eigs[j] < x[0]).sum(), (n, row, j)


def test_tridiagonal_trace_matches_gaussian_closed_form():
    # E tr M^2 = n/4 under e^{-2n tr M^2}; tr T^2 = sum diag^2 + 2 sum off^2
    rng = np.random.default_rng(11)
    for n in (1, 2, 12, 40):
        diag, off_sq = _sample_tridiagonal(rng, n, 20_000)
        tr = (diag ** 2).sum(axis=0) + 2.0 * off_sq.sum(axis=0)
        stderr = tr.std(ddof=1) / np.sqrt(tr.size)
        assert abs(tr.mean() - n / 4) < 4.0 * stderr, n


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


def test_rare_gap_at_n30_within_3_sigma_of_exact(gue_potential):
    # the gap probability is about 3.3e-5: the gap indicator expects 0.7 hits
    # in 20000 samples, the conditional estimator resolves it
    spec = hf.ThinningSpec((0.0,), {1: 0.5})
    est = hf.mc_gap_probability(spec, 30, 20_000, seed=7)
    assert est.stderr > 0.0
    exact = np.exp(hf.gap_probability_log_exact(gue_potential, spec, 30))
    assert abs(est.estimate - exact) < 3.0 * est.stderr


def test_gap_at_n64_within_3_sigma_of_exact(gue_potential):
    spec = hf.ThinningSpec((0.0,), {1: 0.5})
    est = hf.mc_gap_probability(spec, 64, 20_000, seed=64)
    exact = np.exp(hf.gap_probability_log_exact(gue_potential, spec, 64))
    assert abs(est.estimate - exact) < 3.0 * est.stderr


def test_gap_at_n400_within_3_sigma_of_the_expansion(gue_potential, gue_measure):
    # past n = 100 a batch holds fewer than 20000 samples
    spec = hf.ThinningSpec((0.0,), {1: 0.5})
    est = hf.mc_gap_probability(spec, 400, 10_000, seed=400)
    pred = hf.gap_probability_log(gue_potential, gue_measure, spec, 400)
    lo, hi = np.exp(pred.value - pred.error_scale), np.exp(pred.value + pred.error_scale)
    assert max(lo - est.estimate, est.estimate - hi, 0.0) < 3.0 * est.stderr


def test_near_certain_gap_reports_a_nonzero_stderr(gue_potential):
    # the gap probability is 0.9999964: most samples have no eigenvalue in
    # the thinned sector, yet 1.0 is not certain while the sector keeps
    # eigenvalues with probability 1 - s_k > 0
    spec = hf.ThinningSpec((0.95,), {2: 0.9999})
    est = hf.mc_gap_probability(spec, 2, 20_000, seed=7)
    assert est.estimate < 1.0
    assert est.stderr > 0.0
    exact = np.exp(hf.gap_probability_log_exact(gue_potential, spec, 2))
    assert abs(est.estimate - exact) < 3.0 * est.stderr


def test_underflowing_products_report_the_one_sigma_bound():
    # (1e-200)^{N_1} underflows to 0 for every N_1 >= 2, and at n=8 almost
    # every eigenvalue lies below 0.9: every product is 0, the variance too
    spec = hf.ThinningSpec((0.9,), {1: 1e-200})
    est = hf.mc_gap_probability(spec, 8, 20_000, seed=3)
    assert est.estimate == 0.0
    assert est.stderr == 1.0 / (20_000 + 1)


def test_validation():
    spec = hf.ThinningSpec((0.0,), {1: 0.5})
    with pytest.raises(DomainError):
        hf.mc_gap_probability(spec, 0, 10_000, seed=0)
    with pytest.raises(DomainError):
        hf.mc_gap_probability(spec, 5, 999, seed=0)
    for n in (2.5, 3.0, True, "4"):
        with pytest.raises(DomainError, match="need an integer n >= 1"):
            hf.mc_gap_probability(spec, n, 10_000, seed=0)
    for samples in (20000.0, True, 9_999):
        with pytest.raises(DomainError, match="need an integer samples >= 10000"):
            hf.mc_gap_probability(spec, 8, samples, 1)
    for seed in (1.5, -1, None):
        with pytest.raises(DomainError, match="need an integer seed >= 0"):
            hf.mc_gap_probability(spec, 8, 20_000, seed)
