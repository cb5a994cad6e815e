"""The large-n expansion of the log Hankel determinant.

For a one-cut regular potential V normalised to [-1, 1], an analytic field W
and Fisher-Hartwig singularities (t_j, alpha_j, beta_j),

    log D_n = C1 n^2 + C2 n + C3 log n + C4 + O(log n / n^{1-4 beta_max}),

with beta_max = max_j |Re beta_j|. The four constants are assembled here from
Chebyshev closed forms; every additive contribution is kept in a labelled
breakdown so downstream consumers (CLI tables, sensitivity tests) can inspect
individual terms.

The module also exposes the three intermediate ratio expansions the full
formula decomposes into (jump exponents at the Gaussian potential, potential
deformation at fixed singularities, field deformation), the exact Gaussian
product formula, and the classical root-type correlation asymptotics. Their
coefficient-level sum reproduces (C1, C2, C3, C4) - a key consistency test.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .chebyshev import ChebSeries, cheb_weighted_integrals, hilbert_T, t_to_u
from .errors import DomainError
from .singularities import as_field
from .special import log_barnes_g, zeta_prime_minus_one

_LOG2 = float(np.log(2.0))
_LOG_2PI = float(np.log(2.0 * np.pi))
#: the Gaussian potential 2 x^2 as a T-series
_GAUSSIAN_V = ChebSeries.from_monomials([0.0, 0.0, 2.0])


@dataclass(frozen=True)
class ExpansionCoefficients:
    """The constants of the expansion plus a per-term breakdown.

    ``term_breakdown`` maps "C1".."C4" to {label: complex contribution};
    each constant equals the sum of its labelled contributions.
    """

    C1: complex
    C2: complex
    C3: complex
    C4: complex
    beta_max: float
    term_breakdown: dict

    def as_tuple(self):
        return (self.C1, self.C2, self.C3, self.C4)

    def predict(self, n):
        """The expansion at matrix size n, with the magnitude of the
        neglected error term, log n / n^{1 - 4 beta_max} (reported, never
        added)."""
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        logn = np.log(float(n))
        value = self.C1 * n * n + self.C2 * n + self.C3 * logn + self.C4
        error_scale = logn / float(n) ** (1.0 - 4.0 * self.beta_max)
        return PredictionResult(
            value=complex(value), error_scale=float(error_scale), coefficients=self
        )


@dataclass(frozen=True)
class PredictionResult:
    value: complex
    error_scale: float
    coefficients: ExpansionCoefficients


def cumulative_measure(measure, t):
    """Tail mass int_t^1 psi(x) sqrt(1-x^2) dx of the equilibrium measure."""
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"cumulative_measure needs t in [-1, 1], got {t}")
    g = t_to_u(measure.psi.coeffs)
    theta = np.arccos(t)
    total = g[0] * (0.5 * theta - 0.25 * np.sin(2.0 * theta))
    for l in range(1, len(g)):
        total += g[l] * 0.5 * (
            np.sin(l * theta) / l - np.sin((l + 2) * theta) / (l + 2)
        )
    return float(np.real(total)) if not np.iscomplexobj(g) else total


def _gue_cumulative(t):
    """int_t^1 (2/pi) sqrt(1-x^2) dx for the semicircle density."""
    return (np.arccos(t) - t * np.sqrt(1.0 - t * t)) / np.pi


def _dV_cheb(V):
    """V - 2x^2 as a T-series (the deviation from the Gaussian potential)."""
    return V.cheb() - _GAUSSIAN_V


def _potential_quadratic_term(dV, measure):
    """-1/2 * int sqrt(1-x^2) dV (2/pi + psi) dx for dV = V - 2x^2, exactly."""
    integrand = dV * (measure.psi + 2.0 / np.pi)
    _, i_plus = cheb_weighted_integrals(integrand)
    return -0.5 * i_plus


def _pairwise_terms(cfg):
    """C4 interaction between distinct singularities j < k."""
    out = {}
    sings = cfg.singularities
    for j in range(len(sings)):
        for k in range(j + 1, len(sings)):
            sj, sk = sings[j], sings[k]
            dt = abs(sj.t - sk.t)
            cross = 1.0 - sj.t * sk.t - np.sqrt(
                (1.0 - sj.t ** 2) * (1.0 - sk.t ** 2)
            )
            aa = sj.alpha * sk.alpha
            bb = sj.beta * sk.beta
            val = (
                2.0 * bb * np.log(cross)
                - 0.5 * aa * _LOG2
                - (0.5 * aa + 2.0 * bb) * np.log(dt)
            )
            out[f"pair_{j + 1}{k + 1}"] = complex(val)
    return out


def _field_pair_term(W):
    """The double principal-value contribution (1/8) sum_k k c_k^2.

    This is the closed form of
    -(1/(4 pi^2)) int W(y)/sqrt(1-y^2) [pv int W'(x) sqrt(1-x^2)/(x-y) dx] dy
    obtained from the U-basis Hilbert identity plus T-orthogonality.
    """
    c = W.coeffs
    ks = np.arange(1, len(c))
    return 0.125 * float(np.dot(ks, np.real(c[1:]) ** 2))


def _field_hilbert_at(W, t):
    """pv int W(x) / (sqrt(1-x^2)(t - x)) dx (note the t-x orientation)."""
    return -hilbert_T(W, t)


def expansion_coefficients(V, measure, W, cfg):
    """Assemble C1..C4 for (V, W, cfg) with the given equilibrium measure."""
    W = as_field(W)
    psi = measure.psi
    A = cfg.alpha_sum
    zp = zeta_prime_minus_one()
    dV = _dV_cheb(V)

    c1 = {
        "gaussian": complex(-_LOG2 - 0.75),
        "potential": complex(_potential_quadratic_term(dV, measure)),
    }

    dv_half, _ = cheb_weighted_integrals(dV)
    _, psiW_plus = cheb_weighted_integrals(psi * W)
    c2 = {
        "gaussian": complex(_LOG_2PI),
        "alpha_log2": complex(-A * _LOG2),
        "potential": complex(-A / (2.0 * np.pi) * dv_half),
        "field": complex(psiW_plus),
    }
    for idx, s in enumerate(cfg, start=1):
        c2[f"alpha_{idx}"] = complex(0.5 * s.alpha * (V(s.t) - 1.0))
        tail = cumulative_measure(measure, s.t)
        c2[f"beta_{idx}"] = complex(np.pi * 1j * s.beta * (1.0 - 2.0 * tail))

    c3 = {"gaussian": complex(-1.0 / 12.0)}
    for idx, s in enumerate(cfg, start=1):
        try:
            c3[f"sing_{idx}"] = complex(0.25 * s.alpha ** 2 - s.beta ** 2)
        except OverflowError:
            raise DomainError(
                f"singularity {idx}: alpha^2/4 - beta^2 overflows a float "
                f"(alpha = {s.alpha}, beta = {s.beta})"
            ) from None

    w_half, _ = cheb_weighted_integrals(W)
    psi_p1 = float(np.real(psi(1.0)))
    psi_m1 = float(np.real(psi(-1.0)))
    c4 = {
        "zeta": complex(zp),
        "field_mean": complex(A / (2.0 * np.pi) * w_half),
        "field_pair": complex(_field_pair_term(W)),
        "edge": complex(
            -np.log(np.pi ** 2 / 4.0 * psi_p1 * psi_m1) / 24.0
        ),
    }
    # overflow for huge alpha or beta leaves inf/nan terms, which the
    # finite check below names
    with np.errstate(over="ignore", invalid="ignore"):
        c4.update(_pairwise_terms(cfg))
        for idx, s in enumerate(cfg, start=1):
            j0 = idx - 1
            half_alpha = 0.5 * s.alpha
            root = np.sqrt(1.0 - s.t ** 2)
            barnes = (
                log_barnes_g(1.0 + half_alpha + s.beta)
                + log_barnes_g(1.0 + half_alpha - s.beta)
                - log_barnes_g(1.0 + s.alpha)
            )
            c4[f"arc_{idx}"] = complex(1j * A * s.beta * np.arcsin(s.t))
            c4[f"signed_alpha_{idx}"] = complex(
                -0.5j * np.pi * s.beta * cfg.alpha_signed_partial(j0)
            )
            c4[f"barnes_{idx}"] = complex(barnes)
            c4[f"density_{idx}"] = complex(
                (0.25 * s.alpha ** 2 - s.beta ** 2)
                * np.log(0.5 * np.pi * float(np.real(psi(s.t))))
            )
            c4[f"field_at_{idx}"] = complex(-half_alpha * W(s.t))
            c4[f"field_hilbert_{idx}"] = complex(
                1j * s.beta / np.pi * root * _field_hilbert_at(W, s.t)
            )
            c4[f"halfwidth_{idx}"] = complex(
                (0.25 * s.alpha ** 2 - 3.0 * s.beta ** 2) * np.log(2.0 * root)
            )

    breakdown = {"C1": c1, "C2": c2, "C3": c3, "C4": c4}
    totals = {name: sum(terms.values()) for name, terms in breakdown.items()}
    overflowed = [name for name, total in totals.items() if not cmath.isfinite(total)]
    if overflowed:
        terms = [
            f"{name}.{term}"
            for name in overflowed
            for term, value in breakdown[name].items()
            if not cmath.isfinite(value)
        ]
        raise DomainError(
            f"expansion terms {', '.join(terms or overflowed)} are not finite: "
            "a singularity's alpha or beta is too large for float arithmetic"
        )
    return ExpansionCoefficients(
        C1=totals["C1"],
        C2=totals["C2"],
        C3=totals["C3"],
        C4=totals["C4"],
        beta_max=cfg.beta_max,
        term_breakdown=breakdown,
    )


def predict_log_hankel(V, measure, W, cfg, n):
    """Evaluate the expansion at a given matrix size n (see
    ExpansionCoefficients.predict)."""
    return expansion_coefficients(V, measure, W, cfg).predict(n)


def gue_exact_log(n):
    """log of the Gaussian partition-function product formula,

        (2 pi)^{n/2} 2^{-n^2} n^{-n^2/2} prod_{j=1}^{n-1} j!,

    computed in log space."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    log_factorials = float(np.sum(gammaln(np.arange(2, n + 1))))
    return (
        0.5 * n * _LOG_2PI
        - n * n * _LOG2
        - 0.5 * n * n * np.log(float(n))
        + log_factorials
    )


def gue_asymptotic_constants():
    """(C1, C2, C3, C4) of the pure Gaussian case."""
    return (
        complex(-_LOG2 - 0.75),
        complex(_LOG_2PI),
        complex(-1.0 / 12.0),
        complex(zeta_prime_minus_one()),
    )


def _krasovsky_coefficients(cfg):
    """(n^2, n, log n, 1) coefficients of the root-type correlation ratio
    log D_n(alpha, 0, 2x^2, 0) - log D_n(0, 0, 2x^2, 0)."""
    A = cfg.alpha_sum
    c_n = -A * _LOG2
    c_log = 0.0 + 0.0j
    c_0 = 0.0 + 0.0j
    sings = cfg.singularities
    for j in range(len(sings)):
        for k in range(j + 1, len(sings)):
            c_0 += (
                -0.5
                * sings[j].alpha
                * sings[k].alpha
                * np.log(2.0 * abs(sings[j].t - sings[k].t))
            )
    for s in sings:
        c_n += 0.5 * s.alpha * (2.0 * s.t ** 2 - 1.0)
        c_log += 0.25 * s.alpha ** 2
        c_0 += 2.0 * log_barnes_g(1.0 + 0.5 * s.alpha) - log_barnes_g(1.0 + s.alpha)
        c_0 += 0.25 * s.alpha ** 2 * np.log(2.0 * np.sqrt(1.0 - s.t ** 2))
    return 0.0 + 0.0j, complex(c_n), complex(c_log), complex(c_0)


def krasovsky_log_ratio(cfg, n):
    """Root-type correlation asymptotics at the Gaussian potential.

    Requires every jump exponent to vanish.
    """
    if any(s.beta != 0 for s in cfg):
        raise DomainError("krasovsky_log_ratio requires all beta = 0")
    _, c_n, c_log, c_0 = _krasovsky_coefficients(cfg)
    return complex(c_n * n + c_log * np.log(float(n)) + c_0)


def _ratio_beta_coefficients(cfg):
    """Coefficients of log D_n(alpha, beta, 2x^2, 0) - log D_n(alpha, 0, ...)."""
    A = cfg.alpha_sum
    c_n = 0.0 + 0.0j
    c_log = 0.0 + 0.0j
    c_0 = 0.0 + 0.0j
    sings = cfg.singularities
    for j, s in enumerate(sings):
        root = np.sqrt(1.0 - s.t ** 2)
        c_n += 2.0j * s.beta * (np.arcsin(s.t) + s.t * root)
        c_log += -s.beta ** 2
        c_0 += 1j * A * s.beta * np.arcsin(s.t)
        c_0 += -0.5j * np.pi * s.beta * cfg.alpha_signed_partial(j)
        c_0 += -s.beta ** 2 * np.log(8.0 * (1.0 - s.t ** 2) ** 1.5)
        c_0 += (
            log_barnes_g(1.0 + 0.5 * s.alpha + s.beta)
            + log_barnes_g(1.0 + 0.5 * s.alpha - s.beta)
            - 2.0 * log_barnes_g(1.0 + 0.5 * s.alpha)
        )
    for j in range(len(sings)):
        for k in range(j + 1, len(sings)):
            sj, sk = sings[j], sings[k]
            t_jk = (
                1.0
                - sj.t * sk.t
                - np.sqrt((1.0 - sj.t ** 2) * (1.0 - sk.t ** 2))
            ) / abs(sj.t - sk.t)
            c_0 += 2.0 * sj.beta * sk.beta * np.log(t_jk)
    return 0.0 + 0.0j, complex(c_n), complex(c_log), complex(c_0)


def ratio_beta(cfg, n):
    """Jump-exponent deformation ratio at the Gaussian potential."""
    _, c_n, c_log, c_0 = _ratio_beta_coefficients(cfg)
    return complex(c_n * n + c_log * np.log(float(n)) + c_0)


def _ratio_potential_coefficients(V, measure, cfg):
    """Coefficients of log D_n(V) - log D_n(2x^2) at fixed singularities."""
    psi = measure.psi
    A = cfg.alpha_sum
    dV = _dV_cheb(V)
    c_2 = complex(_potential_quadratic_term(dV, measure))
    dv_half, _ = cheb_weighted_integrals(dV)
    c_n = -A / (2.0 * np.pi) * dv_half
    c_0 = -np.log(
        np.pi ** 2 / 4.0 * float(np.real(psi(1.0))) * float(np.real(psi(-1.0)))
    ) / 24.0
    for s in cfg:
        c_n += 0.5 * s.alpha * (V(s.t) - 2.0 * s.t ** 2)
        c_n += (
            -2.0j
            * np.pi
            * s.beta
            * (cumulative_measure(measure, s.t) - _gue_cumulative(s.t))
        )
        c_0 += (0.25 * s.alpha ** 2 - s.beta ** 2) * np.log(
            0.5 * np.pi * float(np.real(psi(s.t)))
        )
    return complex(c_2), complex(c_n), 0.0 + 0.0j, complex(c_0)


def ratio_potential(V, measure, cfg, n):
    """Potential deformation ratio at fixed singularities (no field)."""
    c_2, c_n, _, c_0 = _ratio_potential_coefficients(V, measure, cfg)
    return complex(c_2 * n * n + c_n * n + c_0)


def _ratio_field_coefficients(measure, W, cfg):
    """Coefficients of log D_n(V, W) - log D_n(V, 0)."""
    W = as_field(W)
    A = cfg.alpha_sum
    _, c_n = cheb_weighted_integrals(measure.psi * W)
    w_half, _ = cheb_weighted_integrals(W)
    c_0 = A / (2.0 * np.pi) * w_half + _field_pair_term(W)
    for s in cfg:
        root = np.sqrt(1.0 - s.t ** 2)
        c_0 += -0.5 * s.alpha * W(s.t)
        c_0 += 1j * s.beta / np.pi * root * _field_hilbert_at(W, s.t)
    return 0.0 + 0.0j, complex(c_n), 0.0 + 0.0j, complex(c_0)


def ratio_field(V, measure, W, cfg, n):
    """Field deformation ratio log D_n(V, W) - log D_n(V, 0)."""
    _, c_n, _, c_0 = _ratio_field_coefficients(measure, W, cfg)
    return complex(c_n * n + c_0)


def composed_constants(V, measure, W, cfg):
    """(C1, C2, C3, C4) rebuilt from the Gaussian formula plus the three
    deformation ratios and the root-type correlation coefficients.

    Should agree with expansion_coefficients to rounding; exercised by the
    composition-identity tests.
    """
    parts = [
        gue_asymptotic_constants(),
        _krasovsky_coefficients(cfg),
        _ratio_beta_coefficients(cfg),
        _ratio_potential_coefficients(V, measure, cfg),
        _ratio_field_coefficients(measure, W, cfg),
    ]
    return tuple(sum(p[i] for p in parts) for i in range(4))
