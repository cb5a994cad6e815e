"""Equilibrium measures of one-cut regular polynomial potentials on [-1, 1].

A potential V is one-cut regular when

    1. V is real analytic (here: a real polynomial),
    2. V(x)/log|x| -> +infinity as |x| -> infinity,
    3. the exterior variational inequality
       2 int log|x-s| dmu(s) < V(x) - ell holds strictly off the support,
    4. the equilibrium measure is dmu = psi(x) sqrt(1-x^2) dx on [-1, 1]
       with psi > 0 on the closed interval.

For a polynomial potential the density factor is itself a polynomial,

    psi(x) = (1/(2 pi^2)) pv int_{-1}^{1} V'(y) / (sqrt(1-y^2)(y-x)) dy,

which the Chebyshev basis identities evaluate exactly: with
V'(y) = sum_k d_k T_k(y) one gets psi = (1/(2 pi)) sum_{k>=1} d_k U_{k-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as nppoly

from .chebyshev import (
    ChebSeries,
    cheb_weighted_integrals,
    log_kernel_integral,
    u_to_t,
)
from .errors import (
    DomainError,
    EquilibriumConsistencyError,
    RegularityError,
    SupportError,
)

#: normalisation slack beyond which the support cannot be [-1, 1]
NORMALIZATION_TOL = 1e-8
#: spread of ell over interior points beyond which (V, psi) is no equilibrium pair
ELL_SPREAD_TOL = 1e-6

#: exterior inequality is certified on |x| <= X_MAX plus a growth argument
X_MAX = 5.0
EXTERIOR_GRID = 400
SUPPORT_GRID = 201


@dataclass(frozen=True)
class Potential:
    """Real polynomial potential, stored by ascending monomial coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if not np.all(np.isfinite(c)):
            raise DomainError(f"potential coefficients must be finite, got {c}")
        c = np.trim_zeros(c, "b")
        if c.size == 0:
            raise DomainError("potential is identically zero")
        deg = len(c) - 1
        if deg < 2 or deg % 2 != 0:
            raise DomainError(f"potential must have even degree >= 2, got {deg}")
        if c[-1] <= 0:
            raise DomainError("potential needs a positive leading coefficient")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        return nppoly.polyval(x, self.coeffs)

    def derivative_coeffs(self):
        return nppoly.polyder(self.coeffs)

    def cheb(self):
        """The potential as a T-series on [-1, 1] (exact conversion)."""
        return ChebSeries.from_monomials(self.coeffs)

    @staticmethod
    def gue():
        """The Gaussian potential 2 x^2 (psi = 2/pi, ell = 1 + 2 log 2)."""
        return Potential(np.array([0.0, 0.0, 2.0]))


@dataclass(frozen=True)
class RegularityCertificate:
    """Grid evidence that a potential is one-cut regular.

    ``exterior_margin`` is the largest value of
    2 int log|x-s| dmu + ell - V(x) over the exterior grid; certification
    requires it to be strictly negative. Endpoint densities are certified
    explicitly since a grid cannot see the closed-interval condition.
    """

    psi_min_on_support: float
    psi_min_location: float
    psi_at_endpoints: tuple
    exterior_margin: float
    exterior_margin_location: float
    grid_size: int
    exterior_grid_size: int
    x_max: float
    tail_increasing: bool


@dataclass(frozen=True)
class EquilibriumMeasure:
    """Density factor psi, Euler-Lagrange constant ell, and the regularity
    certificate of a one-cut regular potential normalised to [-1, 1]."""

    psi: ChebSeries
    ell: float
    regularity: RegularityCertificate


def density_transform(V):
    """The linear map V -> (1/(2 pi^2)) pv int V'(y)/(sqrt(1-y^2)(y-x)) dy.

    Returns the density-factor candidate without any normalisation check;
    compute_density is this plus the unit-mass contract.
    """
    d = ChebSeries.from_monomials(V.derivative_coeffs()).coeffs
    return _density_from_derivative(d)


def _density_from_derivative(d):
    """density_transform given the T-coefficients d of V'."""
    if len(d) < 2:
        raise SupportError("constant V' cannot produce a unit measure on [-1,1]")
    g = d[1:] / (2.0 * np.pi)  # U-basis coefficients of psi
    return ChebSeries(u_to_t(g))


def compute_density(V):
    """Density factor psi of the equilibrium measure of V as a T-series.

    Exact for polynomial V. Raises SupportError when [-1, 1] cannot be the
    support of V's equilibrium measure: either the mass int psi sqrt(1-x^2)
    deviates from 1, or the centering condition
    int V'(y)/sqrt(1-y^2) dy = 0 fails (the support then sits off-centre).
    In both cases the problem must be rescaled first.
    """
    d = ChebSeries.from_monomials(V.derivative_coeffs()).coeffs
    scale = max(1.0, float(np.max(np.abs(d))))
    if abs(d[0]) > NORMALIZATION_TOL * scale:
        raise SupportError(
            "endpoint condition int V'/sqrt(1-y^2) dy = 0 fails "
            f"(value {np.pi * d[0]:.6g}); the equilibrium support of V is "
            "not centred on [-1, 1] (rescale the problem first)"
        )
    psi = _density_from_derivative(d)
    _, mass = cheb_weighted_integrals(psi)
    if abs(mass - 1.0) > NORMALIZATION_TOL:
        raise SupportError(
            f"equilibrium measure of V has mass {mass:.12g} on [-1, 1]; "
            "its support is not [-1, 1] (rescale the problem first)"
        )
    if mass != 1.0:
        psi = ChebSeries(psi.coeffs / mass)
    return psi


def compute_ell(V, psi):
    """Euler-Lagrange constant ell = V(x0) - 2 int log|x0-s| dmu(s).

    Evaluated at x0 = 0 and cross-checked at x0 = +/- 1/2; a spread above
    ELL_SPREAD_TOL means (V, psi) is not an equilibrium pair.
    """
    points = np.array([0.0, 0.5, -0.5])
    values = V(points) - log_kernel_integral(psi, points)
    spread = float(values.max() - values.min())
    if spread > ELL_SPREAD_TOL:
        raise EquilibriumConsistencyError(
            f"Euler-Lagrange constant varies by {spread:.3e} across interior "
            "points; density does not match the potential"
        )
    return float(values[0])


def _exterior_slack(V, psi, ell, x):
    """V(x) - ell - 2 int log|x-s| dmu(s); positive where the strict
    exterior inequality holds. Scalar or array x."""
    return V(x) - ell - log_kernel_integral(psi, x)


def check_one_cut_regular(V, measure):
    """Certify one-cut regularity of (V, measure) on finite grids.

    Returns a RegularityCertificate, or raises RegularityError naming the
    failing condition: condition 4 when the density is not strictly positive
    on [-1, 1], condition 3 when the exterior inequality is not strict.
    Conditions 1 and 2 hold by construction for Potential instances.
    """
    psi, ell = measure.psi, measure.ell

    grid = np.linspace(-1.0, 1.0, SUPPORT_GRID)
    psi_vals = np.real(psi(grid))
    i_min = int(np.argmin(psi_vals))
    psi_min, psi_loc = float(psi_vals[i_min]), float(grid[i_min])
    psi_ends = (float(np.real(psi(-1.0))), float(np.real(psi(1.0))))
    if psi_min <= 0.0 or min(psi_ends) <= 0.0:
        loc = psi_loc if psi_min <= 0 else (-1.0 if psi_ends[0] <= 0 else 1.0)
        raise RegularityError(
            f"density positivity (condition 4) violated at x = {loc:.6g}",
            condition=4,
            location=loc,
        )

    half = np.geomspace(1.0 + 1e-6, X_MAX, EXTERIOR_GRID // 2)
    ext = np.concatenate([-half[::-1], half])
    slack = _exterior_slack(V, psi, ell, ext)
    i_worst = int(np.argmin(slack))
    margin = float(-slack[i_worst])  # largest value of ell + 2U - V
    margin_loc = float(ext[i_worst])
    if margin >= 0.0:
        raise RegularityError(
            "strict exterior variational inequality (condition 3) violated "
            f"at x = {margin_loc:.6g}",
            condition=3,
            location=margin_loc,
        )

    # Beyond X_MAX the polynomial growth of V beats the 2 log|x| potential;
    # record that the slack is already increasing at the grid edge.
    tail = _exterior_slack(
        V, psi, ell, np.array([X_MAX, 0.9 * X_MAX, -X_MAX, -0.9 * X_MAX])
    )
    tail_ok = tail[0] > tail[1] and tail[2] > tail[3]

    return RegularityCertificate(
        psi_min_on_support=psi_min,
        psi_min_location=psi_loc,
        psi_at_endpoints=psi_ends,
        exterior_margin=margin,
        exterior_margin_location=margin_loc,
        grid_size=SUPPORT_GRID,
        exterior_grid_size=len(ext),
        x_max=X_MAX,
        tail_increasing=bool(tail_ok),
    )


def equilibrium_measure(V):
    """compute_density + compute_ell + check_one_cut_regular in one call."""
    psi = compute_density(V)
    ell = compute_ell(V, psi)
    probe = EquilibriumMeasure(psi=psi, ell=ell, regularity=None)
    cert = check_one_cut_regular(V, probe)
    return EquilibriumMeasure(psi=psi, ell=ell, regularity=cert)


@dataclass(frozen=True)
class RescaledProblem:
    """Result of transporting a problem from support [a, b] to [-1, 1].

    ``log_det_correction(n, A)`` returns (n^2 + n*A) * log((b-a)/2), the
    amount to add to the rescaled log-determinant to recover the original
    one (A = sum of the root-type exponents).
    """

    V: Potential
    W: Optional[ChebSeries]
    t: tuple
    a: float
    b: float

    @property
    def log_half_width(self):
        return float(np.log(0.5 * (self.b - self.a)))

    def log_det_correction(self, n, A=0.0):
        return (n * n + n * A) * self.log_half_width

    def to_unit(self, x):
        """The point of [-1, 1] that x in [a, b] maps to."""
        return float((x - 0.5 * (self.a + self.b)) / (0.5 * (self.b - self.a)))


def rescale(V_tilde, a, b, W_tilde=None, t_tilde=()):
    """Map a problem posed on [a, b] to the normalised interval [-1, 1].

    V(x) = V~((a+b)/2 + x (b-a)/2), singularity locations map affinely, and
    a W~ given as a Chebyshev series on [a, b] keeps its coefficients (the
    affine maps compose to the identity). Equals the identity when
    [a, b] = [-1, 1].
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    if not np.isfinite(half):
        raise DomainError(f"support [{a}, {b}] is too wide: (b - a)/2 overflows a float")
    for tt in t_tilde:
        if not a < tt < b:
            raise DomainError(f"singularity location {tt} outside ({a}, {b})")

    affine = nppoly.Polynomial([mid, half])
    with np.errstate(over="ignore", invalid="ignore"):
        composed = nppoly.Polynomial(V_tilde.coeffs)(affine)
    if not np.all(np.isfinite(composed.coef)):
        raise DomainError(
            f"support [{a}, {b}] is too wide: the potential rescaled to "
            "[-1, 1] has coefficients that overflow a float"
        )
    V = Potential(composed.coef)

    W = None
    if W_tilde is not None:
        W = W_tilde if isinstance(W_tilde, ChebSeries) else ChebSeries(W_tilde)

    res = RescaledProblem(V=V, W=W, t=(), a=float(a), b=float(b))
    return replace(res, t=tuple(map(res.to_unit, t_tilde)))
