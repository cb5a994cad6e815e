"""Log Barnes-G and the zeta derivative constant.

log Barnes-G has no scipy counterpart and is built from

    int_0^z log Gamma(1+x) dx
        = z/2 log(2 pi) - z(z+1)/2 + z log Gamma(z+1) - log G(z+1),

combined with the recurrence G(z+1) = Gamma(z) G(z) to shift the argument
into the half-plane where the straight integration path stays clear of the
log-Gamma branch cut; log Gamma is scipy's principal branch.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
import numpy as np
import scipy.special as sp

from .errors import PoleError

_LOG_2PI = np.log(2.0 * np.pi)
#: Gauss-Legendre points for the log-Gamma integral on [0, 1]
_GL_POINTS = 120


def _is_nonpositive_integer(z):
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


@lru_cache(maxsize=1)
def _gauss_legendre_01():
    nodes, weights = np.polynomial.legendre.leggauss(_GL_POINTS)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _int_log_gamma1p(u):
    """int_0^u log Gamma(1+x) dx along the straight segment, Re(u) > -1.

    The integrand is analytic in a neighbourhood of the segment whenever the
    segment avoids (-inf, -1]; callers arrange Re(u) >= 0.5.
    """
    t, w = _gauss_legendre_01()
    return u * np.sum(w * sp.loggamma(1.0 + u * t))


def _log_barnes_g_shifted(z):
    """log G(z) for Re(z) >= 1.5 via the integral identity."""
    u = z - 1.0
    return (
        0.5 * u * _LOG_2PI
        - 0.5 * u * (u + 1.0)
        + u * sp.loggamma(1.0 + u)
        - _int_log_gamma1p(u)
    )


def log_barnes_g(z):
    """log of Barnes' G-function, continuous along rays from the real axis.

    G satisfies G(1) = 1 and G(z+1) = Gamma(z) G(z); the returned branch is
    real on (0, inf) and satisfies the recurrence up to multiples of 2 pi i.
    Non-positive integers are zeros of G (log pole) and raise PoleError.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"Barnes G vanishes at z = {z}")
    shift = max(0, int(np.ceil(1.5 - z.real)))
    value = _log_barnes_g_shifted(z + shift)
    for j in range(shift):
        zj = z + j
        if _is_nonpositive_integer(zj):
            raise PoleError(f"Barnes G recurrence chain hits a pole at {zj}")
        value -= sp.loggamma(zj)
    return complex(value)


@lru_cache(maxsize=1)
def zeta_prime_minus_one():
    """zeta'(-1) = 1/12 - log A (A the Glaisher-Kinkelin constant).

    Evaluated once in 30-digit arithmetic and cached; memoisation makes the
    first concurrent call safe (worst case the constant is computed twice).
    """
    with mp.workdps(30):
        return float(mp.mpf(1) / 12 - mp.log(mp.glaisher))
