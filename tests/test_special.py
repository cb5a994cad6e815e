"""Barnes-G / zeta-derivative against independent oracles."""

import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.special

import hankelfh as hf
import hankelfh.special as special
from hankelfh.errors import PoleError

# --------------------------------------------------------------- log_barnes_g


def test_barnes_g_trivial_zeros_of_log():
    assert abs(hf.log_barnes_g(1.0)) < 1e-14
    assert abs(hf.log_barnes_g(2.0)) < 1e-14
    assert abs(hf.log_barnes_g(3.0)) < 1e-13  # G(3) = Gamma(2) G(2) = 1


def test_barnes_g_against_mpmath():
    # independent oracle: mpmath's Barnes G evaluation
    for z in (1.5 + 0.25j, 0.7, 2.25 - 0.5j, 4.0 + 1.0j):
        with mp.workdps(30):
            oracle = complex(mp.log(mp.barnesg(z)))
        value = hf.log_barnes_g(z)
        mismatch = (value - oracle) / (2j * np.pi)
        assert abs(value.real - oracle.real) < 1e-12
        assert abs(mismatch - round(mismatch.real)) < 1e-12


def test_barnes_g_integral_formula_quadrature_oracle():
    # quadrature of int_0^{z-1} log Gamma(1+x) dx with mpmath's tanh-sinh
    z = 1.5 + 0.25j
    u = z - 1
    with mp.workdps(30):
        integral = mp.quad(lambda t: mp.loggamma(1 + u * t) * u, [0, 1])
        oracle = complex(
            u / 2 * mp.log(2 * mp.pi)
            - u * (u + 1) / 2
            + u * mp.loggamma(1 + u)
            - integral
        )
    assert abs(hf.log_barnes_g(z) - oracle) < 1e-12


def test_barnes_g_recurrence_grid():
    # G(z+1) = Gamma(z) G(z) on 50 complex points, |z| <= 5, modulo 2 pi i
    rng = np.random.default_rng(5)
    count = 0
    while count < 50:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) > 5 or abs(z.imag) < 0.05:
            continue  # stay clear of the real-axis pole chain
        lhs = hf.log_barnes_g(z + 1)
        rhs = complex(scipy.special.loggamma(z)) + hf.log_barnes_g(z)
        mismatch = (lhs - rhs) / (2j * np.pi)
        assert abs(lhs.real - rhs.real) < 1e-12 * max(1.0, abs(rhs))
        assert abs(mismatch - round(mismatch.real)) < 1e-10
        count += 1


def test_barnes_g_real_positive_axis_is_real():
    for z in (0.3, 1.7, 4.2, 9.5):
        assert abs(hf.log_barnes_g(z).imag) < 1e-13


def test_barnes_g_poles():
    for z in (0.0, -2.0):
        with pytest.raises(PoleError):
            hf.log_barnes_g(z)


# --------------------------------------------------------- zeta_prime_minus_one


def glaisher_log_euler_maclaurin(N=400):
    """log A from the hyperfactorial expansion
    sum k log k = (N^2/2 + N/2 + 1/12) log N - N^2/4 + log A + 1/(720 N^2) + ...
    evaluated in 40-digit arithmetic (float64 cancellation floors at ~1e-9)."""
    with mp.workdps(40):
        s = mp.fsum(k * mp.log(k) for k in range(1, N + 1))
        raw = (
            s
            - (mp.mpf(N) ** 2 / 2 + mp.mpf(N) / 2 + mp.mpf(1) / 12) * mp.log(N)
            + mp.mpf(N) ** 2 / 4
        )
        return float(raw - 1 / (mp.mpf(720) * N * N))


def test_zeta_prime_value_against_euler_maclaurin():
    oracle = 1.0 / 12 - glaisher_log_euler_maclaurin()
    value = hf.zeta_prime_minus_one()
    assert abs(value - oracle) < 1e-12
    assert abs(value - (-0.16542114370045092)) < 1e-12


def test_zeta_prime_sign_and_cache():
    assert hf.zeta_prime_minus_one() < 0
    assert hf.zeta_prime_minus_one() is hf.zeta_prime_minus_one() or (
        hf.zeta_prime_minus_one() == hf.zeta_prime_minus_one()
    )


# ------------------------------------------------ series kernel of log_barnes_g


def _barnes_grid():
    """Seeded points with Re z in [-3, 4] and 0.05 <= |Im z| <= 6, then real
    z in (0, 6]."""
    rng = np.random.default_rng(23)
    points = [
        complex(rng.uniform(-3, 4), rng.choice([-1, 1]) * rng.uniform(0.05, 6))
        for _ in range(160)
    ]
    return points + list(rng.uniform(0, 6, 40)) + [0.25, 1.75, 2.5, 6.0]


def test_barnes_g_grid_against_mpmath():
    # independent oracle: mpmath's Barnes G, compared modulo 2 pi i
    for z in _barnes_grid():
        with mp.workdps(30):
            oracle = complex(mp.log(mp.barnesg(z)))
        diff = hf.log_barnes_g(z) - oracle
        diff -= 2j * np.pi * round(diff.imag / (2 * np.pi))
        assert abs(diff) < 5e-14 * max(1.0, abs(oracle)), z


def test_barnes_g_branch_is_continuous_along_rays():
    # consecutive points 0.01 apart on rays leaving the real axis: log G
    # changes by far less than 1 there, so a difference near 2 pi would be
    # a jump of branch
    for x in np.linspace(-3.3, 4.1, 38):
        for sign in (1, -1):
            values = [hf.log_barnes_g(complex(x, sign * y))
                      for y in np.arange(0.05, 6.0, 0.01)]
            assert np.max(np.abs(np.diff(values))) < 1.0, (x, sign)


def test_barnes_g_is_exactly_zero_at_one_and_two():
    assert hf.log_barnes_g(1.0) == 0
    assert hf.log_barnes_g(2.0) == 0


def test_barnes_g_overflow_is_not_finite_and_silent():
    # alpha ~ 1e154 overflows the expansion; the kernel returns a
    # non-finite value (named by expansion_coefficients), without warnings
    import cmath
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (1e154, 1 + 5e153 + 0.1j, 1e300):
            assert not cmath.isfinite(hf.log_barnes_g(z))


# ------------------------------------------------------ log Gamma kernel


def test_log_gamma_grid_against_mpmath_on_the_principal_branch():
    # mpmath's loggamma is the principal branch too: no 2 pi i reduction
    rng = np.random.default_rng(31)
    for _ in range(400):
        z = complex(rng.uniform(-3, 8), rng.uniform(-6, 6))
        with mp.workdps(30):
            oracle = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        assert abs(special._log_gamma(z) - oracle) < 2e-14 * max(1.0, abs(oracle)), z


def test_log_gamma_on_the_negative_axis_matches_scipy():
    # with a +0.0 imaginary part both take the limit from above:
    # 1.2655 - pi i at -0.5 and -0.0562 - 3 pi i at -2.5
    for x in (-0.5, -1.3, -2.5, -7.9):
        z = complex(x, 0.0)
        value = special._log_gamma(z)
        assert abs(value - complex(scipy.special.loggamma(z))) < 1e-14, x
    assert abs(special._log_gamma(complex(-0.5, 0.0)) - (1.2655121234846454 - math.pi * 1j)) < 1e-14
    assert special._log_gamma(complex(-2.5, 0.0)).imag == -3 * math.pi


def test_log_gamma_is_real_on_the_positive_axis():
    for x in (0.1, 1.0, 1.5, 2.0, 7.25, 30.0):
        value = special._log_gamma(complex(x, 0.0))
        assert value.imag == 0.0
        assert value.real == math.lgamma(x)
    assert special._log_gamma(1 + 0j) == special._log_gamma(2 + 0j) == 0


def _scipy_log_barnes_g(z):
    """log G by the same series, with every recurrence step a scipy
    principal-branch loggamma value."""
    z = complex(z)
    down = max(0, round(z.real) - 1)
    if down <= special._MAX_DOWN and abs(z - (down + 1)) <= special._TAYLOR_RADIUS:
        return special._log_barnes_g_taylor(z - down) + sum(
            complex(scipy.special.loggamma(z - j)) for j in range(1, down + 1))
    shift = max(0, math.ceil(special._ASYMPTOTIC_RE - z.real))
    return special._log_barnes_g_asymptotic(z + (shift - 1)) - sum(
        complex(scipy.special.loggamma(z + j)) for j in range(shift))


def test_barnes_g_matches_the_scipy_recurrence_on_the_same_branch():
    # the log Gamma values of the recurrence, combined from one Stirling or
    # Taylor-disk value and principal logs, against one scipy loggamma per
    # step: equal without any 2 pi i reduction
    for z in _barnes_grid():
        reference = _scipy_log_barnes_g(z)
        assert abs(hf.log_barnes_g(z) - reference) < 5e-14 * max(1.0, abs(reference)), z


def test_runtime_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hankelfh, hankelfh.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
