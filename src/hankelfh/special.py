"""Log Gamma, log Barnes-G and the zeta derivative constant.

Both logarithms are evaluated in scalar arithmetic on math and cmath:

* _log_gamma is the principal branch of log Gamma: math.lgamma on the real
  axis; elsewhere Stirling's series (DLMF 5.11.1) at Re z >= _ASYMPTOTIC_RE,
  less principal logs of the factors that shift the argument there;
* within _TAYLOR_RADIUS of z = 1, log G(z) is the Taylor series of
  log G(1+u) (DLMF 5.17.3) with its leading singularity log(1+u) = log z
  split off, so the remaining coefficients (-1)^k (zeta(k) - 1)/(k+1)
  shrink like 2^-k; it is exactly 0 at z = 1. The disks of the same radius
  around 2 .. 5 reach it by steps of the recurrence G(z+1) = Gamma(z) G(z)
  downwards, which add one log Gamma(1+u) and principal logs (real z stays
  in float arithmetic, with math.lgamma);
* elsewhere, the recurrence upwards shifts the argument to
  Re z >= _ASYMPTOTIC_RE, where the asymptotic series of log G(v+1)
  (DLMF 5.17) converges to rounding; the steps take one log Gamma value
  there and principal logs.

Every path sums principal logs of arguments that the recurrence links to
z, so the branch is the one the recurrence carries from the positive real
axis. All coefficients are literals, so nothing is computed at import.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError

_LOG_2PI = math.log(2.0 * math.pi)
#: zeta'(-1) = 1/12 - log A (A the Glaisher-Kinkelin constant)
_ZETA_PRIME_M1 = -0.16542114370045094

#: Taylor disk |z - 1| <= _TAYLOR_RADIUS; the disks around 2 .. _MAX_DOWN + 1
#: reach it by recurrence steps down (more accurate near the real axis than
#: the steps up to the asymptotic series, whose sums reach log G(8) ~ 17)
_TAYLOR_RADIUS = 0.75
_MAX_DOWN = 4
#: log G(1+u) = _T1 u + _T2 u^2 + log(1+u) + sum_k _TAYLOR[k-2] u^(k+1), with
#: _T1 = (log 2 pi - 1)/2 - 1, _T2 = 1/2 - (1 + gamma)/2 and
#: _TAYLOR[k-2] = (-1)^k (zeta(k) - 1)/(k+1) for k = 2..36 (truncation
#: below 1e-17 on the disk)
_T1 = -0.5810614667953272
_T2 = -0.28860783245076643
_TAYLOR = (
    0.21497802228274215, -0.05051422578989857, 0.01646464674222764,
    -0.006154625857228321, 0.002477580283492734, -0.0010436596727403534,
    0.00045303957754937104, -0.00020083928260822143, 9.041592071073504e-05,
    -4.118238367662205e-05, 1.892973486984987e-05, -8.765239112749225e-06,
    4.083209003913655e-06, -1.911764769188781e-06, 8.989564358030513e-07,
    -4.242887576610979e-07, 2.0091017184209684e-07, -9.541063582769695e-08,
    4.54267635177522e-08, -2.1678772126718477e-08, 1.0367413162075348e-08,
    -4.967496915221295e-09, 2.3843275620503794e-09, -1.1462885967173953e-09,
    5.519094380875941e-10, -2.660968496369796e-10, 1.2845979395822266e-10,
    -6.208865745043497e-11, 3.004282040063446e-11, -1.4551965828230574e-11,
    7.05549040508032e-12, -3.4239853449119175e-12, 1.6630777394007717e-12,
    -8.084402901380832e-13, 3.9329518624437795e-13,
)[::-1]

#: the series of log G(v+1) and log Gamma(v+1) are summed at Re z >=
#: _ASYMPTOTIC_RE, i.e. |v| >= 7; those of log G fall below 1e-17 by k = 14
_ASYMPTOTIC_RE = 8.0
#: B_{2k+2} / (4 k (k+1)) for k = 1..14, the coefficients of v^(-2k)
_ASYMPTOTIC = (
    -0.004166666666666667, 0.000992063492063492, -0.0006944444444444445,
    0.000946969696969697, -0.0021092796092796093, 0.006944444444444444,
    -0.03166141456582633, 0.19087214564188248, -1.4697895622895623,
    14.073007246376811, -163.9777521090021, 2284.4826388888887,
    -37497.570148099025, 716167.7070245743,
)[::-1]
#: B_2k / (2k (2k-1)) for k = 1..11, the coefficients of v^(1-2k) in
#: Stirling's series of log Gamma(v+1); at |v| >= 7 the first omitted term
#: is below 1e-17
_STIRLING = (
    0.08333333333333333, -0.002777777777777778, 0.0007936507936507937,
    -0.0005952380952380953, 0.0008417508417508417, -0.0019175269175269176,
    0.00641025641025641, -0.029550653594771242, 0.17964437236883057,
    -1.3924322169059011, 13.402864044168393,
)[::-1]


def _is_nonpositive_integer(z):
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def _log_gamma_stirling(v):
    """log Gamma(v+1) for Re v >= _ASYMPTOTIC_RE - 1 by Stirling's series
    (DLMF 5.11.1 plus log v): (v + 1/2) log v - v + (1/2) log 2 pi
    + sum_k B_2k / (2k (2k-1) v^(2k-1))."""
    r = 1.0 / (v * v)
    acc = 0.0
    for c in _STIRLING:
        acc = acc * r + c
    return (v + 0.5) * cmath.log(v) - v + 0.5 * _LOG_2PI + acc / v


def _log_gamma(z):
    """Principal-branch log Gamma of a complex z that is not a pole: real on
    (0, inf), continuous on C minus (-inf, 0], and on (-inf, 0) the limit
    from above, as cmath.log takes it.

    The real axis goes through math.lgamma (so log Gamma(1) = log Gamma(2)
    = 0 exactly), each negative factor of the recurrence adding -pi i;
    elsewhere Stirling's series at z + shift, Re z + shift >= _ASYMPTOTIC_RE,
    less the logs of z .. z + shift - 1.
    """
    if z.imag == 0.0:
        x = z.real
        return complex(math.lgamma(x), -math.pi * math.ceil(-x) if x < 0.0 else 0.0)
    shift = max(0, math.ceil(_ASYMPTOTIC_RE - z.real))
    value = _log_gamma_stirling(z + (shift - 1))
    for i in range(shift):
        value -= cmath.log(z + i)
    return value


def _log_barnes_g_taylor(z):
    """log G(z) for |z - 1| <= _TAYLOR_RADIUS; exactly 0 at z = 1."""
    u = z - 1.0
    acc = 0.0
    for c in _TAYLOR:
        acc = acc * u + c
    return ((acc * u + _T2) * u + _T1) * u + cmath.log(z)


def _log_barnes_g_asymptotic(v):
    """log G(v+1) for Re v >= _ASYMPTOTIC_RE - 1:
    (v^2/2 - 1/12) log v - 3 v^2/4 + (v/2) log 2 pi + zeta'(-1)
    + sum_k B_{2k+2} / (4 k (k+1) v^(2k))."""
    v2 = v * v
    r = 1.0 / v2
    acc = 0.0
    for c in _ASYMPTOTIC:
        acc = acc * r + c
    return ((0.5 * v2 - 1.0 / 12.0) * cmath.log(v) - 0.75 * v2
            + 0.5 * _LOG_2PI * v + _ZETA_PRIME_M1 + acc * r)


def log_barnes_g(z):
    """log of Barnes' G-function, continuous along rays from the real axis.

    G satisfies G(1) = 1 and G(z+1) = Gamma(z) G(z); the returned branch is
    real on (0, inf) and satisfies the recurrence up to multiples of 2 pi i.
    Non-positive integers are zeros of G (log pole) and raise PoleError.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"Barnes G vanishes at z = {z}")
    down = max(0, round(z.real) - 1)
    if down <= _MAX_DOWN and abs(z - (down + 1)) <= _TAYLOR_RADIUS:
        # log G(z) = log G(z - down) + sum_{j=1..down} log Gamma(z - j)
        if z.imag == 0.0:
            x = z.real
            return _log_barnes_g_taylor(x - down) + sum(
                math.lgamma(x - j) for j in range(1, down + 1))
        value = _log_barnes_g_taylor(z - down)
        if down:
            # the sum is down log Gamma(1+u) + sum_{i<down} (down-i) log(u+i),
            # u = z - down - 1; log Gamma(1+u) = log Gamma(u+9) less one log
            # of (u+1) ... (u+8), whose arguments sum to less than 2.2 < pi
            # for |u| <= _TAYLOR_RADIUS
            u = z - (down + 1)
            value += down * (_log_gamma_stirling(u + 8.0) - cmath.log(
                (u + 1.0) * (u + 2.0) * (u + 3.0) * (u + 4.0)
                * (u + 5.0) * (u + 6.0) * (u + 7.0) * (u + 8.0)))
            for i in range(1, down):
                value += (down - i) * cmath.log(u + i)
        return value
    # log G(z) = log G(v) - sum_{i<shift} log Gamma(z+i), v = z + shift, each
    # log Gamma(z+i) = log Gamma(z+i+1) - log(z+i) from one log Gamma(v)
    shift = max(0, math.ceil(_ASYMPTOTIC_RE - z.real))
    v = z + shift
    value = _log_barnes_g_asymptotic(v - 1.0)
    if shift:
        log_gamma = _log_gamma(v)
        for i in range(shift - 1, -1, -1):
            log_gamma -= cmath.log(z + i)
            value -= log_gamma
    return value


def zeta_prime_minus_one():
    """zeta'(-1) = 1/12 - log A (A the Glaisher-Kinkelin constant), to
    double precision."""
    return _ZETA_PRIME_M1
