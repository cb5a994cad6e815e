"""Correctness checks applied to every output the benchmark collects.

Each check raises CheckFailure with a message naming the offending values;
it returns nothing when the output passes. The tolerances are fixed here,
before any run, from what each method must satisfy:

- two routes computed at the working precision max(256, 48 n) bits agree to
  far better than 1e-10 in log_abs, so a looser gap is a defect;
- a Monte Carlo estimate lies within K_SIGMA binomial standard errors of a
  reference except with probability ~6e-5 per comparison.
"""

from __future__ import annotations

import math

#: mirror configs (t, alpha, beta) -> (-t, alpha, -beta) give the same D_n
MIRROR_TOL = 1e-8
#: moment determinant vs orthogonal-polynomial recurrence, in log_abs
ROUTE_TOL = 1e-10
#: oracle vs the closed Gaussian product formula, in log_abs
CLOSED_FORM_TOL = 1e-9
#: expansion constants compared between two assemblies of the same formula
CONSTANTS_TOL = 1e-10
#: Monte Carlo acceptance half-width in standard errors
K_SIGMA = 4.0


class CheckFailure(Exception):
    """An output of the program failed one of the benchmark's checks."""


def wrap_phase(p):
    """Phase difference mapped to (-pi, pi]."""
    w = (p + math.pi) % (2.0 * math.pi) - math.pi
    return w + 2.0 * math.pi if w <= -math.pi else w


def mirror_agrees(a, b, tol=MIRROR_TOL):
    """a and b are {"log_abs", "phase"} of a config and of its mirror."""
    d_abs = abs(a["log_abs"] - b["log_abs"])
    d_phase = abs(wrap_phase(a["phase"] - b["phase"]))
    if not (d_abs <= tol and d_phase <= tol):
        raise CheckFailure(
            f"mirror disagrees: |d log_abs| = {d_abs:.3e}, "
            f"|d phase| = {d_phase:.3e} (tol {tol:.0e})"
        )


def compare_row_valid(row):
    """One `hankel-fh compare` row: converged, non-zero, and each residual
    below the expansion's error scale log n / n^(1 - 4 beta_max)."""
    if not row["converged"] or row["is_zero"]:
        raise CheckFailure(
            f"n={row['n']}: converged={row['converged']}, is_zero={row['is_zero']}"
        )
    scale = row["error_scale"]
    for key in ("log_abs", "phase"):
        r = row["residual"][key]
        if not r <= scale:
            raise CheckFailure(
                f"n={row['n']}: residual {key} = {r:.3e} above error scale {scale:.3e}"
            )


def close(value, expected, tol, what):
    if not abs(value - expected) <= tol:
        raise CheckFailure(
            f"{what}: {value!r} vs {expected!r}, gap {abs(value - expected):.3e} "
            f"(tol {tol:.0e})"
        )


def routes_agree(det, rec, tol=ROUTE_TOL):
    """Moment-determinant and OP-recurrence HankelResults of one weight."""
    if not det.converged or det.is_zero:
        raise CheckFailure(f"moment determinant converged={det.converged}, "
                           f"is_zero={det.is_zero}")
    close(det.log_abs, rec.log_abs, tol, "moment determinant vs recurrence")


def constants_equal(a, b, tol=CONSTANTS_TOL, what="constants"):
    """Two (C1, C2, C3, C4) tuples of complex numbers."""
    for i, (x, y) in enumerate(zip(a, b), start=1):
        close(complex(x), complex(y), tol, f"{what} C{i}")


def mc_within(est, lo, hi, k=K_SIGMA):
    """Monte Carlo estimate within k standard errors of the interval [lo, hi].

    A point reference has lo == hi. An estimate with zero standard error
    (no hits, or all hits) certifies nothing and is rejected.
    """
    if not est.stderr > 0.0:
        raise CheckFailure(
            f"MC estimate {est.estimate} has stderr {est.stderr}; nothing to compare"
        )
    dist = max(lo - est.estimate, est.estimate - hi, 0.0)
    if not dist <= k * est.stderr:
        raise CheckFailure(
            f"MC {est.estimate:.5f} +- {est.stderr:.5f} is {dist / est.stderr:.2f} "
            f"sigma from [{lo:.5f}, {hi:.5f}] (limit {k} sigma)"
        )


def expansion_interval(pred):
    """[exp(v - e), exp(v + e)] for a gap prediction with log value v and
    stated error scale e."""
    return math.exp(pred.value - pred.error_scale), math.exp(pred.value + pred.error_scale)
