"""Chebyshev primitives against independent quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import hankelfh as hf
from hankelfh.chebyshev import ChebSeries, t_to_u, u_to_t
from hankelfh.errors import DomainError


def basis(k, length=None):
    c = np.zeros((length or k + 1), dtype=float)
    c[k] = 1.0
    return ChebSeries(c)


# ------------------------------------------------- weighted integral closed forms


def quad_weighted(f, weight):
    val, _ = quad(lambda x: f(x) * weight(x), -1, 1, limit=200)
    return val


def test_weighted_integrals_t0():
    # oracle: direct integration of 1/sqrt(1-x^2) and sqrt(1-x^2)
    i_minus, i_plus = hf.cheb_weighted_integrals(basis(0))
    oracle_minus = quad_weighted(lambda x: 1.0, lambda x: 1 / np.sqrt(1 - x * x))
    oracle_plus = quad_weighted(lambda x: 1.0, lambda x: np.sqrt(1 - x * x))
    assert abs(i_minus - oracle_minus) < 1e-9
    assert abs(i_plus - oracle_plus) < 1e-12
    assert abs(i_minus - np.pi) < 1e-14
    assert abs(i_plus - np.pi / 2) < 1e-14


def test_weighted_integrals_t1_odd():
    i_minus, i_plus = hf.cheb_weighted_integrals(basis(1))
    assert i_minus == 0.0
    assert i_plus == 0.0


def test_weighted_integrals_t2():
    # verified against adaptive quadrature before freezing -pi/4
    oracle = quad_weighted(
        lambda x: 2 * x * x - 1, lambda x: np.sqrt(1 - x * x)
    )
    i_minus, i_plus = hf.cheb_weighted_integrals(basis(2))
    assert abs(oracle - (-np.pi / 4)) < 1e-12
    assert i_minus == 0.0
    assert abs(i_plus - (-np.pi / 4)) < 1e-14


def test_weighted_integrals_even_polynomials_match_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = np.zeros(9)
        c[0::2] = rng.uniform(-2, 2, size=5)
        series = ChebSeries(c)
        i_minus, i_plus = hf.cheb_weighted_integrals(series)
        assert abs(i_minus - quad_weighted(series, lambda x: 1 / np.sqrt(1 - x * x))) < 1e-9
        assert abs(i_plus - quad_weighted(series, lambda x: np.sqrt(1 - x * x))) < 1e-12


# --------------------------------------------------- Hilbert transform identities


def _difference_quotient_cheb(cheb_coeffs, y):
    """Quotient q with p(x) - p(y) = (x - y) q(x), divided in the T basis
    (monomial-basis division loses digits at degree ~12)."""
    npc = np.polynomial.chebyshev
    py = npc.chebval(y, cheb_coeffs)
    quotient, remainder = npc.chebdiv(
        npc.chebsub(cheb_coeffs, [py]), [-y, 1.0]
    )
    assert np.allclose(remainder, 0.0, atol=1e-11)
    return quotient


def pv_oracle_T_direct(f, y):
    """pv int f/(sqrt(1-x^2)(x-y)) dx by singularity subtraction.

    Substituting x = cos(theta) removes the endpoint weight; the subtracted
    kernel integrates to zero exactly (pv int d(theta)/(cos(theta)-y) = 0
    for |y| < 1), and the remaining difference quotient is a polynomial
    obtained by exact division - fully independent of the basis identities.
    """
    import warnings
    from scipy.integrate import IntegrationWarning

    q = _difference_quotient_cheb(f.coeffs, y)
    with warnings.catch_warnings():
        # requesting near-eps tolerance trips the roundoff detector
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda theta: np.polynomial.chebyshev.chebval(np.cos(theta), q),
            0, np.pi, epsabs=1e-13, epsrel=1e-13, limit=300,
        )
    return val


@pytest.mark.parametrize("y", [-0.9, -0.5, 0.1, 0.5, 0.9])
def test_hilbert_T_basis_identities(y):
    for k in range(13):
        f = basis(k)
        oracle = pv_oracle_T_direct(f, y)
        assert abs(hf.hilbert_T(f, y) - oracle) < 1e-12, (k, y)


def test_hilbert_T_named_values():
    assert hf.hilbert_T(basis(0), 0.7) == 0.0
    assert abs(hf.hilbert_T(basis(1), 0.3) - np.pi) < 1e-14
    assert abs(hf.hilbert_T(basis(3), 0.5)) < 1e-13  # pi*U_2(0.5) = 0


def test_hilbert_domain_errors():
    with pytest.raises(DomainError):
        hf.hilbert_T(basis(1), 1.0)
    with pytest.raises(DomainError):
        hf.hilbert_T(basis(1), -1.5)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-2, 2), min_size=2, max_size=8),
    st.floats(-0.95, 0.95),
)
def test_hilbert_T_linearity(coeffs, y):
    series = ChebSeries(coeffs)
    doubled = ChebSeries(2 * np.asarray(coeffs))
    assert abs(hf.hilbert_T(doubled, y) - 2 * hf.hilbert_T(series, y)) < 1e-10


# --------------------------------------------------------- logarithmic kernel


def test_log_kernel_gue_variational_identity(gue_measure):
    # psi = 2/pi: the potential identity 2 int log|x-s| dmu = 2x^2 - ell
    psi = gue_measure.psi
    ell = 1 + 2 * np.log(2)
    for x in np.linspace(-1, 1, 21):
        lhs = hf.log_kernel_integral(psi, x)
        assert abs(lhs - (2 * x * x - ell)) < 1e-9


def test_log_kernel_named_values(gue_measure):
    psi = gue_measure.psi
    assert abs(hf.log_kernel_integral(psi, 0.0) - (-1 - 2 * np.log(2))) < 1e-12
    assert abs(hf.log_kernel_integral(psi, 1.0) - (1 - 2 * np.log(2))) < 1e-12


def test_log_kernel_even_symmetry():
    psi = ChebSeries([0.5, 0.0, 0.2, 0.0, 0.05])
    for x in (0.2, 0.55, 0.83):
        assert abs(
            hf.log_kernel_integral(psi, x) - hf.log_kernel_integral(psi, -x)
        ) < 1e-13


def test_log_kernel_against_quadrature():
    psi = ChebSeries([0.4, 0.1, 0.2, -0.05])
    for x in (-0.6, 0.0, 0.35, 0.8):
        def integrand(s):
            return np.log(abs(x - s)) * psi(s) * np.sqrt(1 - s * s)

        oracle, err = quad(integrand, -1, 1, points=[x], limit=400)
        # quad's own error estimate on the log singularity is the bound here
        assert abs(hf.log_kernel_integral(psi, x) - 2 * oracle) < max(5e-9, 4 * err)


def test_log_kernel_exterior_matches_interior_at_edge():
    psi = ChebSeries([0.4, 0.1, 0.2, -0.05])
    inner = hf.log_kernel_integral(psi, 1.0)
    outer = hf.log_potential_exterior(psi, 1.0 + 1e-12)
    assert abs(inner - outer) < 1e-9


def test_log_kernel_exterior_quadrature():
    psi = ChebSeries([0.4, 0.1, 0.2, -0.05])
    for x in (-2.5, 1.3, 4.0):
        def integrand(s):
            return np.log(abs(x - s)) * psi(s) * np.sqrt(1 - s * s)

        oracle, _ = quad(integrand, -1, 1, limit=200)
        assert abs(hf.log_potential_exterior(psi, x) - 2 * oracle) < 1e-10


def test_log_kernel_domain_errors():
    psi = ChebSeries([1.0])
    with pytest.raises(DomainError):
        hf.log_kernel_integral(psi, 1.5)
    with pytest.raises(DomainError):
        hf.log_potential_exterior(psi, 0.5)


# ----------------------------------------------------------- basis conversions


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=9), st.floats(-1, 1))
def test_t_u_roundtrip_pointwise(coeffs, x):
    c = np.asarray(coeffs)
    back = u_to_t(t_to_u(c))
    a = np.polynomial.chebyshev.chebval(x, c)
    b = np.polynomial.chebyshev.chebval(x, back)
    assert abs(a - b) < 1e-10 * (1 + np.abs(c).max())

