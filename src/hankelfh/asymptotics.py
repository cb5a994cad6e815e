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
import math
from dataclasses import dataclass

from .chebyshev import cheb_product_integrals, cheb_weighted_integrals, hilbert_T, t_to_u
from .errors import DomainError, RegularityError
from .singularities import as_field, as_integer
from .special import log_barnes_g, zeta_prime_minus_one

_LOG2 = math.log(2.0)
_LOG_2PI = math.log(2.0 * math.pi)


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
        value, logn = _at_n(self.C1, self.C2, self.C3, self.C4, n)
        error_scale = logn / float(n) ** (1.0 - 4.0 * self.beta_max)
        return PredictionResult(
            value=complex(value), error_scale=float(error_scale), coefficients=self
        )


def _at_n(c1, c2, c3, c4, n):
    """(c1 n^2 + c2 n + c3 log n + c4, log n) at an integer matrix size n >= 1."""
    n = as_integer(n)
    logn = math.log(n)
    return c1 * n * n + c2 * n + c3 * logn + c4, logn


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
    theta = math.acos(t)
    total = g[0] * (0.5 * theta - 0.25 * math.sin(2.0 * theta))
    for l in range(1, len(g)):
        total += g[l] * 0.5 * (
            math.sin(l * theta) / l - math.sin((l + 2) * theta) / (l + 2)
        )
    return total


def _gue_cumulative(t):
    """int_t^1 (2/pi) sqrt(1-x^2) dx for the semicircle density."""
    return (math.acos(t) - t * math.sqrt(1.0 - t * t)) / math.pi


def _dV_coeffs(V):
    """V - 2x^2 = V - T_0 - T_2 as a list of T-coefficients (the deviation
    from the Gaussian potential)."""
    dv = V.cheb().coeffs.tolist()
    dv[0] -= 1.0
    dv[2] -= 1.0
    return dv


def _potential_quadratic_term(dv, measure):
    """-1/2 * int sqrt(1-x^2) dV (2/pi + psi) dx for the T-coefficients dv
    of dV = V - 2x^2, exactly."""
    shifted = measure.psi.coeffs.tolist()
    shifted[0] += 2.0 / math.pi
    _, i_plus = cheb_product_integrals(dv, shifted)
    return -0.5 * i_plus


def _density_at(psi, points):
    """Re psi at each point (floats), or RegularityError (condition 4) at the
    first point where it is not positive, before any logarithm sees it."""
    values = []
    for x in points:
        value = psi(x).real
        if not value > 0.0:
            raise RegularityError(
                f"density positivity (condition 4) violated at x = {x:.6g}",
                condition=4,
                location=x,
            )
        values.append(value)
    return values


def _pairwise_terms(cfg):
    """C4 interaction between distinct singularities j < k."""
    out = {}
    sings = cfg.singularities
    for j in range(len(sings)):
        for k in range(j + 1, len(sings)):
            sj, sk = sings[j], sings[k]
            log_dt = math.log(abs(sj.t - sk.t))
            # log of cross = 1 - t_j t_k - sqrt((1 - t_j^2)(1 - t_k^2)),
            # written as (t_j - t_k)^2 / (1 - t_j t_k + sqrt(..)) so that
            # nearby t_j, t_k lose no digits to cancellation
            log_cross = 2.0 * log_dt - math.log(
                1.0 - sj.t * sk.t + math.sqrt((1.0 - sj.t ** 2) * (1.0 - sk.t ** 2))
            )
            aa = sj.alpha * sk.alpha
            bb = sj.beta * sk.beta
            val = (
                2.0 * bb * log_cross
                - 0.5 * aa * _LOG2
                - (0.5 * aa + 2.0 * bb) * log_dt
            )
            out[f"pair_{j + 1}{k + 1}"] = val
    return out


def _field_pair_term(W):
    """The double principal-value contribution (1/8) sum_k k c_k^2.

    This is the closed form of
    -(1/(4 pi^2)) int W(y)/sqrt(1-y^2) [pv int W'(x) sqrt(1-x^2)/(x-y) dx] dy
    obtained from the U-basis Hilbert identity plus T-orthogonality.
    """
    c = W.coeffs.real.tolist()
    return 0.125 * sum(k * (c[k] * c[k]) for k in range(1, len(c)))


def _field_hilbert_at(W, t):
    """pv int W(x) / (sqrt(1-x^2)(t - x)) dx (note the t-x orientation)."""
    return -hilbert_T(W, t)


def expansion_coefficients(V, measure, W, cfg):
    """Assemble C1..C4 for (V, W, cfg) with the given equilibrium measure.

    Raises RegularityError (condition 4) when psi is not positive at +-1 or
    at a singularity, and DomainError when a term overflows a float."""
    W = as_field(W)
    psi = measure.psi
    psi_p1, psi_m1, *psi_at = _density_at(psi, [1.0, -1.0] + [s.t for s in cfg])
    A = cfg.alpha_sum
    g1, g2, g3, g4 = gue_asymptotic_constants()
    dv = _dV_coeffs(V)

    c1 = {
        "gaussian": g1,
        "potential": complex(_potential_quadratic_term(dv, measure)),
    }

    dv_half, _ = cheb_weighted_integrals(dv)
    _, psiW_plus = cheb_product_integrals(psi.coeffs.tolist(), W.coeffs.tolist())
    c2 = {
        "gaussian": g2,
        "alpha_log2": complex(-A * _LOG2),
        "potential": complex(-A / (2.0 * math.pi) * dv_half),
        "field": complex(psiW_plus),
    }
    for idx, s in enumerate(cfg, start=1):
        c2[f"alpha_{idx}"] = complex(0.5 * s.alpha * (V(s.t) - 1.0))
        tail = cumulative_measure(measure, s.t)
        c2[f"beta_{idx}"] = complex(math.pi * 1j * s.beta * (1.0 - 2.0 * tail))

    c3 = {"gaussian": g3}
    for idx, s in enumerate(cfg, start=1):
        try:
            c3[f"sing_{idx}"] = complex(0.25 * s.alpha ** 2 - s.beta ** 2)
        except OverflowError:
            raise DomainError(
                f"singularity {idx}: alpha^2/4 - beta^2 overflows a float "
                f"(alpha = {s.alpha}, beta = {s.beta})"
            ) from None

    w_half, _ = cheb_weighted_integrals(W)
    c4 = {
        "zeta": g4,
        "field_mean": complex(A / (2.0 * math.pi) * w_half),
        "field_pair": complex(_field_pair_term(W)),
        "edge": complex(
            -math.log(math.pi ** 2 / 4.0 * psi_p1 * psi_m1) / 24.0
        ),
    }
    # overflow for huge alpha or beta leaves inf/nan terms (Python floats
    # do not warn), which the finite check below names
    c4.update(_pairwise_terms(cfg))
    for idx, (s, psi_t) in enumerate(zip(cfg, psi_at), start=1):
        j0 = idx - 1
        half_alpha = 0.5 * s.alpha
        root = math.sqrt(1.0 - s.t ** 2)
        barnes = (
            log_barnes_g(1.0 + half_alpha + s.beta)
            + log_barnes_g(1.0 + half_alpha - s.beta)
            - log_barnes_g(1.0 + s.alpha)
        )
        c4[f"arc_{idx}"] = complex(1j * A * s.beta * math.asin(s.t))
        c4[f"signed_alpha_{idx}"] = complex(
            -0.5j * math.pi * s.beta * cfg.alpha_signed_partial(j0)
        )
        c4[f"barnes_{idx}"] = complex(barnes)
        c4[f"density_{idx}"] = complex(
            (0.25 * s.alpha ** 2 - s.beta ** 2) * math.log(0.5 * math.pi * psi_t)
        )
        c4[f"field_at_{idx}"] = complex(-half_alpha * W(s.t))
        c4[f"field_hilbert_{idx}"] = complex(
            1j * s.beta / math.pi * root * _field_hilbert_at(W, s.t)
        )
        c4[f"halfwidth_{idx}"] = complex(
            (0.25 * s.alpha ** 2 - 3.0 * s.beta ** 2) * math.log(2.0 * root)
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
    n = as_integer(n)
    log_factorials = math.fsum(math.lgamma(j) for j in range(2, n + 1))
    return (
        0.5 * n * _LOG_2PI
        - n * n * _LOG2
        - 0.5 * n * n * math.log(n)
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
                * math.log(2.0 * abs(sings[j].t - sings[k].t))
            )
    for s in sings:
        c_n += 0.5 * s.alpha * (2.0 * s.t ** 2 - 1.0)
        c_log += 0.25 * s.alpha ** 2
        c_0 += 2.0 * log_barnes_g(1.0 + 0.5 * s.alpha) - log_barnes_g(1.0 + s.alpha)
        c_0 += 0.25 * s.alpha ** 2 * math.log(2.0 * math.sqrt(1.0 - s.t ** 2))
    return 0.0 + 0.0j, complex(c_n), complex(c_log), complex(c_0)


def krasovsky_log_ratio(cfg, n):
    """Root-type correlation asymptotics at the Gaussian potential.

    Requires every jump exponent to vanish.
    """
    if any(s.beta != 0 for s in cfg):
        raise DomainError("krasovsky_log_ratio requires all beta = 0")
    return complex(_at_n(*_krasovsky_coefficients(cfg), n)[0])


def _ratio_beta_coefficients(cfg):
    """Coefficients of log D_n(alpha, beta, 2x^2, 0) - log D_n(alpha, 0, ...)."""
    A = cfg.alpha_sum
    c_n = 0.0 + 0.0j
    c_log = 0.0 + 0.0j
    c_0 = 0.0 + 0.0j
    sings = cfg.singularities
    for j, s in enumerate(sings):
        root = math.sqrt(1.0 - s.t ** 2)
        c_n += 2.0j * s.beta * (math.asin(s.t) + s.t * root)
        c_log += -s.beta ** 2
        c_0 += 1j * A * s.beta * math.asin(s.t)
        c_0 += -0.5j * math.pi * s.beta * cfg.alpha_signed_partial(j)
        c_0 += -s.beta ** 2 * math.log(8.0 * (1.0 - s.t ** 2) ** 1.5)
        c_0 += (
            log_barnes_g(1.0 + 0.5 * s.alpha + s.beta)
            + log_barnes_g(1.0 + 0.5 * s.alpha - s.beta)
            - 2.0 * log_barnes_g(1.0 + 0.5 * s.alpha)
        )
    for j in range(len(sings)):
        for k in range(j + 1, len(sings)):
            sj, sk = sings[j], sings[k]
            # t_jk = (1 - t_j t_k - sqrt((1 - t_j^2)(1 - t_k^2))) / |t_j - t_k|
            # = |t_j - t_k| / (1 - t_j t_k + sqrt(..)), free of cancellation
            log_t_jk = math.log(abs(sj.t - sk.t)) - math.log(
                1.0 - sj.t * sk.t + math.sqrt((1.0 - sj.t ** 2) * (1.0 - sk.t ** 2))
            )
            c_0 += 2.0 * sj.beta * sk.beta * log_t_jk
    return 0.0 + 0.0j, complex(c_n), complex(c_log), complex(c_0)


def ratio_beta(cfg, n):
    """Jump-exponent deformation ratio at the Gaussian potential."""
    return complex(_at_n(*_ratio_beta_coefficients(cfg), n)[0])


def _ratio_potential_coefficients(V, measure, cfg):
    """Coefficients of log D_n(V) - log D_n(2x^2) at fixed singularities."""
    psi_p1, psi_m1, *psi_at = _density_at(measure.psi, [1.0, -1.0] + [s.t for s in cfg])
    A = cfg.alpha_sum
    dv = _dV_coeffs(V)
    c_2 = complex(_potential_quadratic_term(dv, measure))
    dv_half, _ = cheb_weighted_integrals(dv)
    c_n = -A / (2.0 * math.pi) * dv_half
    c_0 = -math.log(math.pi ** 2 / 4.0 * psi_p1 * psi_m1) / 24.0
    for s, psi_t in zip(cfg, psi_at):
        c_n += 0.5 * s.alpha * (V(s.t) - 2.0 * s.t ** 2)
        c_n += (
            -2.0j
            * math.pi
            * s.beta
            * (cumulative_measure(measure, s.t) - _gue_cumulative(s.t))
        )
        c_0 += (0.25 * s.alpha ** 2 - s.beta ** 2) * math.log(0.5 * math.pi * psi_t)
    return complex(c_2), complex(c_n), 0.0 + 0.0j, complex(c_0)


def ratio_potential(V, measure, cfg, n):
    """Potential deformation ratio at fixed singularities (no field)."""
    return complex(_at_n(*_ratio_potential_coefficients(V, measure, cfg), n)[0])


def _ratio_field_coefficients(measure, W, cfg):
    """Coefficients of log D_n(V, W) - log D_n(V, 0)."""
    W = as_field(W)
    A = cfg.alpha_sum
    _, c_n = cheb_product_integrals(measure.psi.coeffs.tolist(), W.coeffs.tolist())
    w_half, _ = cheb_weighted_integrals(W)
    c_0 = A / (2.0 * math.pi) * w_half + _field_pair_term(W)
    for s in cfg:
        root = math.sqrt(1.0 - s.t ** 2)
        c_0 += -0.5 * s.alpha * W(s.t)
        c_0 += 1j * s.beta / math.pi * root * _field_hilbert_at(W, s.t)
    return 0.0 + 0.0j, complex(c_n), 0.0 + 0.0j, complex(c_0)


def ratio_field(V, measure, W, cfg, n):
    """Field deformation ratio log D_n(V, W) - log D_n(V, 0)."""
    return complex(_at_n(*_ratio_field_coefficients(measure, W, cfg), n)[0])


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
