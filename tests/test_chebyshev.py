"""Chebyshev primitives against independent quadrature oracles."""

import warnings

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
    for edge in (-1.0, 1.0):  # both edges, each from just outside
        inner = hf.log_kernel_integral(psi, edge)
        outer = hf.log_kernel_integral(psi, edge * (1.0 + 1e-12))
        assert abs(inner - outer) < 1e-9


def test_log_kernel_exterior_quadrature():
    psi = ChebSeries([0.4, 0.1, 0.2, -0.05])
    for x in (-2.5, 1.3, 4.0):
        def integrand(s):
            return np.log(abs(x - s)) * psi(s) * np.sqrt(1 - s * s)

        oracle, _ = quad(integrand, -1, 1, limit=200)
        assert abs(hf.log_kernel_integral(psi, x) - 2 * oracle) < 1e-10


def test_log_kernel_far_exterior_is_finite(gue_measure):
    # x * x overflows beyond about 1.3e154; the potential is 2 log|x| there
    psi = gue_measure.psi
    x = np.array([1e160, -1e160, 1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = hf.log_kernel_integral(psi, x)
    expected = 2 * np.log(np.abs(x))
    assert np.all(np.abs(values - expected) <= 1e-15 * expected)


@pytest.mark.parametrize("coeffs", [
    [0.4, 0.1, 0.2, -0.05],
    [0.4 + 0.1j, -0.2j, 0.2, 0.0, -0.05 + 0.03j],
])
def test_log_kernel_array_matches_scalar_calls_across_the_edges(coeffs):
    # the array call routes each entry to the interior or exterior formula;
    # it must give exactly what one call per point gives, on both sides of
    # both edges
    psi = ChebSeries(coeffs)
    x = np.array([
        -3.0, -1.0 - 1e-12, -1.0, -1.0 + 1e-12, -0.4, 0.0, 0.7,
        1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5, 4.0,
    ])
    values = hf.log_kernel_integral(psi, x)
    assert values.shape == x.shape
    assert np.iscomplexobj(values) == np.iscomplexobj(psi.coeffs)
    scalars = np.array([hf.log_kernel_integral(psi, xi) for xi in x])
    assert np.array_equal(values, scalars)
    grid = hf.log_kernel_integral(psi, x.reshape(3, 4))
    assert np.array_equal(grid, values.reshape(3, 4))


def test_log_kernel_domain_errors():
    # every finite real x is in the domain; NaN and +-inf are not
    psi = ChebSeries([1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite"):
            hf.log_kernel_integral(psi, bad)
        with pytest.raises(DomainError, match="finite"):
            hf.log_kernel_integral(psi, np.array([0.5, bad, 2.0]))


# ----------------------------------------------------------- basis conversions


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=9), st.floats(-1, 1))
def test_t_u_roundtrip_pointwise(coeffs, x):
    c = np.asarray(coeffs)
    back = u_to_t(t_to_u(c))
    a = np.polynomial.chebyshev.chebval(x, c)
    b = np.polynomial.chebyshev.chebval(x, back)
    assert abs(a - b) < 1e-10 * (1 + np.abs(c).max())



# ------------------------------------------- series arithmetic against numpy


# normal floats only: below 2^-1022 the monomial conversion's single
# rounding and numpy's repeated halving may round a coefficient differently
_coefficient = st.floats(-10, 10, allow_subnormal=False)
_complex_coefficient = st.builds(complex, _coefficient, _coefficient)


@st.composite
def coefficient_arrays(draw):
    element = draw(st.sampled_from([_coefficient, _complex_coefficient]))
    values = draw(st.lists(element, min_size=1, max_size=9))  # degree <= 8
    return np.array(values)


def assert_matches(mine, reference, inputs=()):
    # relative to the largest coefficient of the result or of its inputs
    assert mine.shape == reference.shape
    scale = max([1.0, float(np.abs(reference).max())]
                + [float(np.abs(c).max()) for c in inputs])
    assert np.all(np.abs(mine - reference) <= 1e-14 * scale)


@settings(max_examples=200, deadline=None)
@given(coefficient_arrays(), coefficient_arrays())
def test_series_arithmetic_matches_numpy_polynomial(a, b):
    npc = np.polynomial.chebyshev
    sa, sb = ChebSeries(a), ChebSeries(b)
    assert_matches((sa + sb).coeffs, npc.chebadd(a, b))
    assert_matches((sa - sb).coeffs, npc.chebsub(a, b))
    assert_matches((sa * sb).coeffs, npc.chebmul(a, b))
    assert_matches((sa + b[0]).coeffs, npc.chebadd(a, [b[0]]))
    assert_matches((sa - b[0]).coeffs, npc.chebsub(a, [b[0]]))
    assert_matches(ChebSeries.from_monomials(a).coeffs, npc.poly2cheb(a), [a])


def test_series_arithmetic_drops_trailing_zeros_as_numpy_does():
    a = ChebSeries([1.0, 2.0, 3.0])
    assert (a - ChebSeries([0.0, 0.0, 3.0])).degree == 1
    assert (a - a).coeffs.tolist() == [0.0]
    assert (ChebSeries([1.0, 0.0, 0.0]) * ChebSeries([0.0, 1.0, 0.0])).degree == 1
    assert ChebSeries.from_monomials([0, 0, 2, 0, 0]).coeffs.tolist() == [1.0, 0.0, 1.0]
    assert ChebSeries.from_monomials([0, 0, 0, 0, 8]).coeffs.tolist() == [3.0, 0.0, 4.0, 0.0, 1.0]
