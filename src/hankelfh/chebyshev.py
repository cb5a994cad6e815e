"""Chebyshev spectral primitives on [-1, 1].

Everything downstream (equilibrium densities, principal-value transforms,
logarithmic potentials) is expressed in the T_k / U_k bases, where the
weighted integrals and finite Hilbert transforms have closed forms:

    int T_k(x)/sqrt(1-x^2) dx            = pi * delta_{k0}
    int T_k(x)*sqrt(1-x^2) dx            = pi/2 * delta_{k0} - pi/4 * delta_{k2}
    pv int T_k(x)/(sqrt(1-x^2)(x-y)) dx  = pi * U_{k-1}(y)      (k >= 1, else 0)
    pv int U_{k-1}(x)sqrt(1-x^2)/(x-y)dx = -pi * T_k(y)

These identities make every integral appearing in the expansion coefficients
exact for polynomial data.

Series arithmetic is plain numpy on the coefficient arrays: sums pad the
shorter series, products use T_i T_j = (T_{i+j} + T_{|i-j|})/2 through one
convolution, and monomials convert through a cached exact basis matrix.
Results drop trailing exact zeros, so lengths and values match
numpy.polynomial.chebyshev's chebadd, chebsub, chebmul and poly2cheb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import DomainError


def _trim(c):
    """c without its trailing exact zeros, keeping at least one entry."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _padded_sum(a, b, sign):
    """Coefficients of a + sign * b, the shorter series padded with zeros."""
    out = np.zeros(max(len(a), len(b)), dtype=np.result_type(a, b, 1.0))
    out[:len(a)] = a
    if sign > 0:
        out[:len(b)] += b
    else:
        out[:len(b)] -= b
    return _trim(out)


def _symmetric(c):
    """(c_n/2, .., c_1/2, c_0, c_1/2, .., c_n/2): the series as a Laurent
    polynomial in w, x = (w + 1/w)/2 and T_k = (w^k + w^-k)/2."""
    half = 0.5 * c
    half[0] = c[0]
    return np.concatenate((half[:0:-1], half))


def _product(a, b):
    """Coefficients of the product of two T-series: the Laurent polynomials
    multiply by convolution, and T_i T_j = (T_{i+j} + T_{|i-j|})/2 folds
    the result back."""
    a, b = _trim(a), _trim(b)  # as numpy does: padding reorders the sums
    full = np.convolve(_symmetric(a), _symmetric(b))
    c = full[len(a) + len(b) - 2:]
    c[1:] *= 2.0
    return _trim(c)


@lru_cache(maxsize=32)
def _monomial_to_cheb(length):
    """M with x^k = sum_j M[j, k] T_j(x) for k < length: M[j, k] =
    2^(1-k) C(k, (k-j)/2) for j = k, k-2, .. >= 1, and half that at j = 0.
    Every entry is a dyadic rational, exact in float64."""
    m = np.zeros((length, length))
    for k in range(length):
        for j in range(k % 2, k + 1, 2):
            m[j, k] = math.comb(k, (k - j) // 2) * 2.0 ** (1 - k)
        if k % 2 == 0:
            m[0, k] *= 0.5
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class ChebSeries:
    """A truncated Chebyshev expansion f(x) = sum_k c_k T_k(x) on [-1, 1].

    Coefficients may be real or complex; they are stored as a read-only
    1-D numpy array.
    """

    coeffs: np.ndarray = field()

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim == 0:
            c = c.reshape(1)
        if c.ndim != 1 or c.size == 0:
            raise DomainError("ChebSeries needs a non-empty 1-D coefficient array")
        if not np.isfinite(c).all():
            raise DomainError("ChebSeries coefficients must be finite")
        c = c.astype(c.dtype if c.dtype.kind == "c" else float)  # a copy
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        return npcheb.chebval(x, self.coeffs)

    def __mul__(self, other):
        if isinstance(other, ChebSeries):
            return ChebSeries(_product(self.coeffs, other.coeffs))
        return ChebSeries(self.coeffs * other)

    __rmul__ = __mul__

    def __add__(self, other):
        return ChebSeries(_padded_sum(self.coeffs, _as_coeffs(other), 1))

    def __sub__(self, other):
        return ChebSeries(_padded_sum(self.coeffs, _as_coeffs(other), -1))

    def coeff(self, k):
        """c_k, with zeros past the stored length."""
        return self.coeffs[k] if k < len(self.coeffs) else 0.0

    @staticmethod
    def zero():
        return ChebSeries(np.zeros(1))

    @staticmethod
    def from_monomials(poly_coeffs):
        """Conversion from ascending monomial coefficients (exact basis
        matrix; the products and sums round)."""
        p = _trim(np.atleast_1d(np.asarray(poly_coeffs)))
        return ChebSeries(_monomial_to_cheb(len(p)) @ p)


def _as_coeffs(other):
    """The coefficients of a series, or a scalar as the constant series."""
    if isinstance(other, ChebSeries):
        return other.coeffs
    return np.atleast_1d(np.asarray(other))


def cheb_weighted_integrals(f):
    """Both Chebyshev-weighted integrals of a series, in closed form.

    Returns
    -------
    (I_minus, I_plus) : tuple
        I_minus = int_{-1}^{1} f(x)/sqrt(1-x^2) dx = pi*c_0
        I_plus  = int_{-1}^{1} f(x)*sqrt(1-x^2) dx = pi/2*c_0 - pi/4*c_2
    """
    c0 = f.coeff(0)
    c2 = f.coeff(2)
    return np.pi * c0, 0.5 * np.pi * c0 - 0.25 * np.pi * c2


def _cheb_values(y, count, first):
    """P_0(y) .. P_{count-1}(y), stacked along a new first axis, for P_0 = 1,
    P_1 = first * y and the three-term recurrence P_k = 2 y P_{k-1} - P_{k-2}:
    first = 1 gives T_k, first = 2 gives U_k."""
    y = np.asarray(y)
    vals = np.empty((count,) + y.shape, dtype=np.result_type(y, 1.0))
    if count >= 1:
        vals[0] = 1.0
    if count >= 2:
        vals[1] = first * y
    for k in range(2, count):
        vals[k] = 2.0 * y * vals[k - 1] - vals[k - 2]
    return vals


def hilbert_T(f, y):
    """Finite Hilbert transform of a T-series against the 1/sqrt weight.

    Computes pv int_{-1}^{1} f(x) / (sqrt(1-x^2)(x-y)) dx for y in (-1, 1)
    through the basis identity pv int T_k/(sqrt(1-x^2)(x-y)) = pi*U_{k-1}(y)
    (zero for k = 0).
    """
    if not -1.0 < y < 1.0:
        raise DomainError(f"hilbert_T needs y strictly inside (-1, 1), got {y}")
    c = f.coeffs
    if len(c) == 1:
        return 0.0 * c[0]
    u = _cheb_values(y, len(c) - 1, 2.0)
    return np.pi * np.dot(c[1:], u)


def t_to_u(coeffs):
    """Rewrite sum c_k T_k as sum g_l U_l (same polynomial).

    Uses T_0 = U_0, T_1 = U_1/2 and T_k = (U_k - U_{k-2})/2 for k >= 2.
    """
    c = np.atleast_1d(np.asarray(coeffs))
    g = np.zeros(len(c), dtype=c.dtype)
    g[0] = c[0]
    if len(c) > 1:
        g[1] += 0.5 * c[1]
    for k in range(2, len(c)):
        g[k] += 0.5 * c[k]
        g[k - 2] -= 0.5 * c[k]
    return g


def u_to_t(g):
    """Rewrite sum g_l U_l as a T-series (inverse of t_to_u).

    Uses U_l = 2*(T_l + T_{l-2} + ...) with the trailing T_0 counted once.
    """
    g = np.atleast_1d(np.asarray(g))
    t = np.zeros(len(g), dtype=g.dtype)
    for l, gl in enumerate(g):
        if gl == 0:
            continue
        for j in range(l, -1, -2):
            t[j] += 2.0 * gl
        if l % 2 == 0:
            t[0] -= gl
    return t


def _log_kernel_interior(g, x):
    """2 * sum_l g_l * int log|x-s| sqrt(1-s^2) U_l(s) ds for |x| <= 1.

    Per-mode antiderivatives (checked against the Hilbert identities):
        l = 0 : pi*T_2(x)/4 - (pi/2) log 2
        l >= 1: (pi/2) * (T_{l+2}(x)/(l+2) - T_l(x)/l)
    """
    t = _cheb_values(x, len(g) + 2, 1.0)
    total = g[0] * (0.25 * np.pi * t[2] - 0.5 * np.pi * np.log(2.0))
    for l in range(1, len(g)):
        total += g[l] * 0.5 * np.pi * (t[l + 2] / (l + 2) - t[l] / l)
    return 2.0 * total


def _log_kernel_exterior(g, x):
    """Same integral for |x| > 1, via the exterior map phi = |x|+sqrt(x^2-1)
    (as sqrt(x-1) sqrt(x+1): no overflow at large x, no cancellation near 1).
    The parity J_l(-x) = (-1)^l J_l(x) reduces x < -1 to the x > 1 case.
    """
    sign = np.sign(x)
    x = np.abs(x)
    phi = x + np.sqrt(x - 1.0) * np.sqrt(x + 1.0)
    total = g[0] * (0.5 * np.pi * np.log(0.5 * phi) + 0.25 * np.pi * phi ** -2)
    for l in range(1, len(g)):
        term = phi ** -(l + 2) / (l + 2) - phi ** -l / l
        total += g[l] * sign ** l * 0.5 * np.pi * term
    return 2.0 * total


def log_kernel_integral(rho_psi, x):
    """Logarithmic potential 2 * int log|x-s| psi(s) sqrt(1-s^2) ds.

    rho_psi is the analytic factor psi as a T-series; the sqrt(1-s^2) weight
    is part of the operation. x is a finite real scalar or array: entries
    with |x| <= 1 take the interior antiderivatives, the rest the exterior
    map. Returns a scalar for scalar x, else an array of x's shape.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        bad = x[~np.isfinite(x)][0]
        raise DomainError(f"log_kernel_integral needs finite x, got {bad}")
    g = t_to_u(rho_psi.coeffs)
    inside = np.abs(x) <= 1.0
    out = np.empty(x.shape, dtype=np.result_type(g, x))
    out[inside] = _log_kernel_interior(g, x[inside])
    out[~inside] = _log_kernel_exterior(g, x[~inside])
    return out[()]
