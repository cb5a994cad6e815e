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

Evaluation is one Clenshaw loop over the coefficients as Python numbers, in
numpy.polynomial.chebyshev.chebval's order of operations: a scalar x costs a
few float operations per coefficient, and scalars and arrays give chebval's
values bit for bit. The finite Hilbert transform sums its U-series at a
scalar point by the same recurrence.

Series arithmetic is plain numpy on the coefficient arrays: sums pad the
shorter series, products use T_i T_j = (T_{i+j} + T_{|i-j|})/2 through one
convolution, and monomials convert through a cached exact basis matrix.
Results drop trailing exact zeros, so lengths and values match
numpy.polynomial.chebyshev's chebadd, chebsub, chebmul and poly2cheb. The
weighted integrals of a product need only its coefficients 0 and 2, which
cheb_product_integrals forms from the two factors without the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

import numpy as np

from .errors import DomainError


def _clenshaw(c, x):
    """sum_k c[k] T_k(x) for a list c, by Clenshaw's recurrence in
    numpy.polynomial.chebyshev.chebval's order of operations; x is a scalar
    or an array."""
    if isinstance(x, (tuple, list)):
        x = np.asarray(x)
    if len(c) == 1:
        c0, c1 = c[0], 0
    elif len(c) == 2:
        c0, c1 = c
    else:
        x2 = 2 * x
        c0, c1 = c[-2], c[-1]
        for ck in c[-3::-1]:
            c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


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
        return _clenshaw(self.coeffs.tolist(), x)

    def __mul__(self, other):
        if isinstance(other, ChebSeries):
            return ChebSeries(_product(self.coeffs, other.coeffs))
        return ChebSeries(self.coeffs * other)

    __rmul__ = __mul__

    def __add__(self, other):
        return ChebSeries(_padded_sum(self.coeffs, _as_coeffs(other), 1))

    def __sub__(self, other):
        return ChebSeries(_padded_sum(self.coeffs, _as_coeffs(other), -1))

    def coeff(self, j):
        """c_j, with zeros past the stored length."""
        return self.coeffs[j] if j < len(self.coeffs) else 0.0

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

    f is a ChebSeries or a list of its T-coefficients.

    Returns
    -------
    (I_minus, I_plus) : tuple
        I_minus = int_{-1}^{1} f(x)/sqrt(1-x^2) dx = pi*c_0
        I_plus  = int_{-1}^{1} f(x)*sqrt(1-x^2) dx = pi/2*c_0 - pi/4*c_2
    """
    c = f.coeffs if isinstance(f, ChebSeries) else f
    c0 = c[0]
    c2 = c[2] if len(c) > 2 else 0.0
    return math.pi * c0, 0.5 * math.pi * c0 - 0.25 * math.pi * c2


def cheb_product_integrals(a, b):
    """cheb_weighted_integrals of the product of the T-series with
    coefficient sequences a and b, from the product's coefficients 0 and 2
    alone. By T_i T_j = (T_{i+j} + T_{|i-j|})/2 these are

        c_0 = (a_0 b_0 + sum_i a_i b_i) / 2
        c_2 = (a_0 b_2 + a_1 b_1 + a_2 b_0 + sum_i (a_i b_{i+2} + a_{i+2} b_i)) / 2

    with a and b padded by zeros to length 3.
    """
    a = list(a) + [0.0] * (3 - len(a))
    b = list(b) + [0.0] * (3 - len(b))
    c0 = 0.5 * (a[0] * b[0] + sum(map(mul, a, b)))
    c2 = 0.5 * (a[0] * b[2] + a[1] * b[1] + a[2] * b[0]
                + sum(map(mul, a, b[2:])) + sum(map(mul, a[2:], b)))
    return cheb_weighted_integrals([c0, 0.0, c2])


def _cheb_values(x, count):
    """T_0(x) .. T_{count-1}(x), stacked along a new first axis, by the
    three-term recurrence T_k = 2 x T_{k-1} - T_{k-2}."""
    x = np.asarray(x)
    vals = np.empty((count,) + x.shape, dtype=np.result_type(x, 1.0))
    if count >= 1:
        vals[0] = 1.0
    if count >= 2:
        vals[1] = x
    for k in range(2, count):
        vals[k] = 2.0 * x * vals[k - 1] - vals[k - 2]
    return vals


def hilbert_T(f, y):
    """Finite Hilbert transform of a T-series against the 1/sqrt weight.

    Computes pv int_{-1}^{1} f(x) / (sqrt(1-x^2)(x-y)) dx for y in (-1, 1)
    through the basis identity pv int T_k/(sqrt(1-x^2)(x-y)) = pi*U_{k-1}(y)
    (zero for k = 0). The U-series sum_k c_k U_{k-1}(y) is summed by
    Clenshaw's recurrence, whose last step for the U basis is the plain one.
    """
    if not -1.0 < y < 1.0:
        raise DomainError(f"hilbert_T needs y strictly inside (-1, 1), got {y}")
    c = f.coeffs.tolist()
    b1 = b2 = 0.0 * c[0]
    for ck in c[:0:-1]:
        b1, b2 = ck + 2.0 * y * b1 - b2, b1
    return math.pi * b1


def t_to_u(coeffs):
    """Rewrite sum c_k T_k as sum g_l U_l (same polynomial).

    Uses T_0 = U_0, T_1 = U_1/2 and T_k = (U_k - U_{k-2})/2 for k >= 2.
    Returns the g_l as a list.
    """
    c = np.atleast_1d(coeffs).tolist()
    g = [c[0]] + [0.5 * ck for ck in c[1:]]
    for k in range(2, len(c)):
        g[k - 2] -= 0.5 * c[k]
    return g


def u_to_t(g):
    """Rewrite sum g_l U_l as a T-series (inverse of t_to_u).

    Uses U_l = 2*(T_l + T_{l-2} + ...) with the trailing T_0 counted once.
    Returns the T-coefficients as a list.
    """
    g = np.atleast_1d(g).tolist()
    t = [0.0 * g[0]] * len(g)
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
    t = _cheb_values(x, len(g) + 2)
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
    out = np.empty(x.shape, dtype=np.result_type(rho_psi.coeffs, x))
    out[inside] = _log_kernel_interior(g, x[inside])
    out[~inside] = _log_kernel_exterior(g, x[~inside])
    return out[()]
