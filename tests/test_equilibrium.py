"""Equilibrium measures: densities, constants, certificates, rescaling."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import hankelfh as hf
from hankelfh.equilibrium import density_transform
from hankelfh.errors import (
    DomainError,
    EquilibriumConsistencyError,
    RegularityError,
    SupportError,
)

GUE_ELL = 1.0 + 2.0 * np.log(2.0)


def variational_residuals(V, measure, points):
    return [
        abs(V(x) - measure.ell - hf.log_kernel_integral(measure.psi, x))
        for x in points
    ]


# -------------------------------------------------------------- compute_density


def test_density_gue_is_semicircle_factor(gue_potential):
    psi = hf.compute_density(gue_potential)
    x = np.linspace(-1, 1, 11)
    assert np.allclose(psi(x), 2.0 / np.pi, atol=1e-15)


def test_density_pure_quartic_solved_by_bisection():
    # c x^4 has unit mass on [-1, 1] iff 3c = 4 (found numerically, then
    # certified by the variational residual)
    def mass_minus_one(c):
        return hf.cheb_weighted_integrals(
            density_transform(hf.Potential([0, 0, 0, 0, c]))
        )[1] - 1.0

    c = brentq(mass_minus_one, 0.1, 10.0, xtol=1e-13)
    assert abs(c - 4.0 / 3.0) < 1e-12
    V = hf.Potential([0, 0, 0, 0, c])
    psi = hf.compute_density(V)
    assert psi.degree == 2
    ell = hf.compute_ell(V, psi)
    measure = hf.EquilibriumMeasure(psi=psi, ell=ell, regularity=None)
    assert max(variational_residuals(V, measure, np.linspace(-0.99, 0.99, 21))) < 1e-10


def test_density_with_odd_component():
    # the cubic term skews the density; the linear term -0.15x restores the
    # centering condition int V'/sqrt(1-y^2) dy = 0 so the support stays
    # [-1, 1] (and the x^2 weight keeps unit mass)
    V = hf.Potential([0, -0.15, 1.85, 0.1, 0.1])
    psi = hf.compute_density(V)
    odd_part = psi(0.5) - psi(-0.5)
    assert abs(odd_part) > 1e-3
    ell = hf.compute_ell(V, psi)
    measure = hf.EquilibriumMeasure(psi=psi, ell=ell, regularity=None)
    assert max(variational_residuals(V, measure, np.linspace(-0.99, 0.99, 21))) < 1e-10


def test_density_rejects_wrong_support():
    with pytest.raises(SupportError):
        hf.compute_density(hf.Potential([0, 0, 2.0, 0, 0.2]))


def test_density_rejects_off_centre_support():
    # unit mass but int V'/sqrt(1-y^2) != 0: equilibrium support is shifted
    with pytest.raises(SupportError):
        hf.compute_density(hf.Potential([0, 0, 1.85, 0.1, 0.1]))


def test_density_linearity_of_transform():
    V1 = hf.Potential([0, 0, 2.0])
    V2 = hf.Potential([0, 0, 1.0, 0, 0.4])
    V12 = hf.Potential([0, 0, 3.0, 0, 0.4])
    x = np.linspace(-1, 1, 17)
    combined = density_transform(V12)(x)
    separate = density_transform(V1)(x) + density_transform(V2)(x)
    assert np.max(np.abs(combined - separate)) < 1e-12


def test_density_normalisation_invariant(quartic_problem):
    _, measure = quartic_problem
    _, mass = hf.cheb_weighted_integrals(measure.psi)
    assert abs(mass - 1.0) < 1e-10


# ------------------------------------------------------------------ compute_ell


def test_ell_gue(gue_potential):
    psi = hf.compute_density(gue_potential)
    assert abs(hf.compute_ell(gue_potential, psi) - GUE_ELL) < 1e-12


def test_ell_consistency_across_points(quartic_problem):
    rescaled, measure = quartic_problem
    V = rescaled.V
    values = [
        V(x) - hf.log_kernel_integral(measure.psi, x) for x in (0.0, 0.5, -0.5)
    ]
    assert max(values) - min(values) < 1e-8


def test_ell_even_potential_symmetric(gue_potential, gue_measure):
    psi = gue_measure.psi
    for x0 in (0.25, 0.6):
        lp = gue_potential(x0) - hf.log_kernel_integral(psi, x0)
        lm = gue_potential(-x0) - hf.log_kernel_integral(psi, -x0)
        assert abs(lp - lm) < 1e-13


def test_ell_rescaled_gaussian_on_wide_interval():
    # V~ = x^2/2 on [-2, 2] maps to 2x^2; ell~ = ell - 2 log 2 = 1
    res = hf.rescale(hf.Potential([0, 0, 0.5]), -2.0, 2.0)
    assert np.allclose(res.V.coeffs, [0, 0, 2.0], atol=1e-15)
    psi = hf.compute_density(res.V)
    ell = hf.compute_ell(res.V, psi)
    assert abs(ell - GUE_ELL) < 1e-12
    ell_tilde = ell - 2.0 * np.log((2.0 - (-2.0)) / 2.0)
    assert abs(ell_tilde - 1.0) < 1e-12
    # direct variational check on the original interval with the semicircle
    val, _ = quad(
        lambda s: np.log(abs(s)) * np.sqrt(4 - s * s) / (2 * np.pi), -2, 2,
        points=[0.0], limit=300,
    )
    assert abs(2 * val - (0.0 - ell_tilde)) < 1e-9


def test_ell_detects_mismatched_density(gue_potential):
    bad_psi = hf.ChebSeries([2.0 / np.pi, 0.0, 0.3])
    with pytest.raises(EquilibriumConsistencyError):
        hf.compute_ell(gue_potential, bad_psi)


# ---------------------------------------------------------- regularity checking


def test_certificate_gue(gue_potential, gue_measure):
    cert = gue_measure.regularity
    assert abs(cert.psi_min_on_support - 2.0 / np.pi) < 1e-14
    assert cert.exterior_margin < 0.0
    assert cert.tail_increasing
    assert cert.grid_size == 201


def test_double_well_fails_condition_4():
    # 2 v2 + 3 v4 = 4 keeps unit mass; v4 > 4 drives psi(0) negative
    V = hf.Potential([0, 0, -7.0, 0, 6.0])
    psi = hf.compute_density(V)
    measure = hf.EquilibriumMeasure(psi=psi, ell=0.0, regularity=None)
    with pytest.raises(RegularityError) as err:
        hf.check_one_cut_regular(V, measure)
    assert err.value.condition == 4


def test_sextic_fails_condition_3():
    # unit mass, centred, psi > 0 on [-1, 1], yet the exterior slack turns
    # negative just outside the support
    V = hf.Potential([0, 0, 77 / 16, 0, -5 / 2, 0, 1 / 2])
    psi = hf.compute_density(V)
    assert np.min(psi(np.linspace(-1, 1, 201))) > 0
    with pytest.raises(RegularityError) as err:
        hf.equilibrium_measure(V)
    assert err.value.condition == 3
    assert abs(err.value.location - (-1.3059)) < 1e-3


def test_exterior_margin_symmetric_for_even_potential(gue_potential, gue_measure):
    from hankelfh.equilibrium import _exterior_slack

    psi, ell = gue_measure.psi, gue_measure.ell
    for x in (1.2, 2.0, 4.5):
        assert abs(
            _exterior_slack(gue_potential, psi, ell, x)
            - _exterior_slack(gue_potential, psi, ell, -x)
        ) < 1e-12


def test_exterior_inequality_strict(quartic_problem):
    _, measure = quartic_problem
    assert measure.regularity.exterior_margin < 0.0


# ----------------------------------------------------------------------- rescale


def test_rescale_gaussian_example():
    res = hf.rescale(hf.Potential([0, 0, 0.5]), -2.0, 2.0, t_tilde=[1.0])
    assert np.allclose(res.V.coeffs, [0, 0, 2.0])
    assert res.t == (0.5,)
    n, A = 7, 1.5
    assert abs(res.log_det_correction(n, A) - (n * n + n * A) * np.log(2.0)) < 1e-14


def test_rescale_identity_interval():
    res = hf.rescale(hf.Potential.gue(), -1.0, 1.0, t_tilde=[0.3])
    assert np.allclose(res.V.coeffs, hf.Potential.gue().coeffs)
    assert res.t == (0.3,)
    assert res.log_det_correction(5, 0.0) == 0.0


def test_rescale_density_transformation_semicircle():
    # semicircle on [-2, 2]: psi~ = 1/(2 pi); gamma^2 psi~ = 2/pi
    res = hf.rescale(hf.Potential([0, 0, 0.5]), -2.0, 2.0)
    psi = hf.compute_density(res.V)
    assert abs(psi(0.2) - 2.0 / np.pi) < 1e-14
    gamma = 2.0
    assert abs(gamma ** 2 * (1.0 / (2 * np.pi)) - psi(0.0)) < 1e-14


def test_rescale_round_trip_values():
    rng = np.random.default_rng(23)
    V_tilde = hf.Potential([0.3, -0.1, 0.7, 0.05, 0.12])
    a, b = -1.7, 2.4
    res = hf.rescale(V_tilde, a, b)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    for x_tilde in rng.uniform(a, b, size=20):
        x = (x_tilde - mid) / half
        assert abs(res.V(x) - V_tilde(x_tilde)) < 1e-12


def test_rescale_field_keeps_chebyshev_coefficients():
    W = hf.ChebSeries([0.2, -0.4, 0.1])
    res = hf.rescale(hf.Potential([0, 0, 0.5]), -2.0, 2.0, W_tilde=W)
    assert np.allclose(res.W.coeffs, W.coeffs)


def test_rescale_rejects_outside_singularity():
    with pytest.raises(DomainError):
        hf.rescale(hf.Potential([0, 0, 0.5]), -2.0, 2.0, t_tilde=[2.5])


def test_rescale_determinant_identity_small_n():
    # D(V~ on [a,b]) = gamma^(n^2 + nA) D(V on [-1,1]) checked with the oracle
    res = hf.rescale(hf.Potential([0, 0, 0.5]), -2.0, 2.0)
    cfg = hf.SingularityConfig()
    n = 3
    orig = hf.oracle_log_det(hf.WeightSpec(hf.Potential([0, 0, 0.5]), None, cfg, n), 256)
    resc = hf.oracle_log_det(hf.WeightSpec(res.V, None, cfg, n), 256)
    assert abs(orig.log_abs - (resc.log_abs + res.log_det_correction(n))) < 1e-12


# ---------------------------------------------------------------- type contracts


def test_potential_validation():
    with pytest.raises(DomainError):
        hf.Potential([1.0, 2.0])  # degree 1
    with pytest.raises(DomainError):
        hf.Potential([0, 0, 0, 1.0])  # odd degree
    with pytest.raises(DomainError):
        hf.Potential([0, 0, -2.0])  # negative leading coefficient
    nan, inf = float("nan"), float("inf")
    for coeffs in ([0, 0, inf], [0, nan, 2.0], [-inf, 0, 2.0]):
        with pytest.raises(DomainError, match="^potential coefficients must be finite"):
            hf.Potential(coeffs)


def test_compute_density_converts_the_derivative_once(monkeypatch):
    from hankelfh.chebyshev import ChebSeries

    calls = []
    convert = ChebSeries.from_monomials

    def counting(coeffs):
        calls.append(coeffs)
        return convert(coeffs)

    monkeypatch.setattr(ChebSeries, "from_monomials", staticmethod(counting))
    V = hf.Potential([0, 0, 1.0, 0, 2.0 / 3.0])
    psi = hf.compute_density(V)
    assert len(calls) == 1
    assert np.array_equal(psi.coeffs, density_transform(V).coeffs)
