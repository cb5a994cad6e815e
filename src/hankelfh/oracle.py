"""Exact reference computation of Hankel determinants in extended precision.

The moments w_j = int x^j e^{-nV(x)} e^{W(x)} omega(x) dx are evaluated with
panel-wise tanh-sinh quadrature, the panels split at every singularity
location so that the algebraic factors |x - t_j|^{alpha_j} sit at panel
endpoints where the doubly-exponential transform absorbs them for any
Re(alpha) > -1. Tails are truncated where the integrand falls below the
precision floor. Determinants come from a pivoted triangular factorisation
carried in mpmath arithmetic; for positive weights an independent
orthogonal-polynomial (Stieltjes) recurrence provides a second route.

Hankel moment matrices are exponentially ill-conditioned in n, hence the
default working precision of max(256, 48 n) bits; the factor is validated by
the precision-robustness tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import mpmath as mp
import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .equilibrium import Potential
from .errors import (
    ConvergenceError,
    DomainError,
    PositivityError,
    ZeroDeterminantError,
)
from .singularities import SingularityConfig, as_field

MOMENT_DETERMINANT = "moment_determinant"
OP_RECURRENCE = "op_recurrence"

_GUARD_BITS = 64
_START_LEVEL = 3
_MAX_LEVEL = 11


def default_precision_bits(n):
    return max(256, 48 * int(n))


def wrap_phase(p):
    """A phase in radians mapped to (-pi, pi]."""
    w = (p + np.pi) % (2.0 * np.pi) - np.pi
    return w + 2.0 * np.pi if w <= -np.pi else w


@dataclass(frozen=True)
class WeightSpec:
    """The weight e^{-nV(x)} e^{W(x)} prod_j |x-t_j|^{alpha_j} omega_beta(x).

    n enters the exponential factor; the singularity structure comes from a
    SingularityConfig (integrability needs Re(alpha_j) > -1, enforced by the
    Singularity type).
    """

    V: Potential
    W: Optional[object]
    cfg: SingularityConfig
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        object.__setattr__(self, "W", as_field(self.W))

    @property
    def is_positive(self):
        """True when the weight is a positive function: every alpha real and
        every beta purely imaginary, so each jump factor e^{+-i pi beta} is a
        positive constant (this covers every thinning weight)."""
        return all(s.alpha.imag == 0.0 and s.beta.real == 0.0 for s in self.cfg)


@dataclass(frozen=True)
class HankelResult:
    """Log-determinant of a Hankel moment matrix with precision metadata.

    log_abs/phase are float views; log_abs_hp retains the full-precision
    mpmath value. ``converged`` records whether a recomputation at half the
    working precision reproduced log_abs to 1e-8. A determinant that is
    exactly zero is reported with is_zero=True rather than as an error.
    """

    log_abs: float
    phase: float
    n: int
    precision_bits: int
    method: str
    converged: bool = True
    is_zero: bool = False
    log_abs_hp: object = None


def _clenshaw_cheb(coeffs, x):
    """Chebyshev series evaluation in mpmath arithmetic."""
    b1 = b2 = mp.mpf(0)
    for c in coeffs[:0:-1]:
        b1, b2 = 2 * x * b1 - b2 + c, b1
    return x * b1 - b2 + coeffs[0]


class _WeightEvaluator:
    """Evaluates the weight at mpmath nodes, panel by panel.

    Stable endpoint distances (supplied by the tanh-sinh transform) are used
    for the singular factors anchored at the panel ends, so no precision is
    lost where |x - t_j| underflows the naive difference.
    """

    def __init__(self, ws):
        self.n = ws.n
        self.v_coeffs = [mp.mpf(c) for c in ws.V.coeffs]
        w = ws.W.coeffs
        self.w_coeffs = None if np.all(w == 0) else [mp.mpf(c) for c in w]
        self.sings = list(ws.cfg)
        self.ts = [mp.mpf(s.t) for s in self.sings]
        self.positive = ws.is_positive

    def _exponent_smooth(self, x):
        acc = self.v_coeffs[-1]
        for c in self.v_coeffs[-2::-1]:
            acc = acc * x + c
        e = -self.n * acc
        if self.w_coeffs is not None:
            e += _clenshaw_cheb(self.w_coeffs, x)
        return e

    def panel_constants(self, panel_index):
        """(left singularity index, right singularity index, jump exponents).

        In the panel between t_p and t_{p+1} every singularity with index
        <= p lies left of x and contributes e^{-i pi beta}; the rest
        contribute e^{+i pi beta}.
        """
        m = len(self.sings)
        left = panel_index - 1 if panel_index >= 1 else None
        right = panel_index if panel_index < m else None
        jump = sum((s.beta for s in self.sings[panel_index:]), 0j) - sum(
            (s.beta for s in self.sings[:panel_index]), 0j
        )
        jump_re = -mp.pi * mp.mpf(jump.imag)
        jump_im = mp.pi * mp.mpf(jump.real)
        return left, right, jump_re, jump_im

    def value(self, x, dist_left, dist_right, consts):
        left, right, jump_re, jump_im = consts
        e_re = self._exponent_smooth(x) + jump_re
        e_im = jump_im
        for j, s in enumerate(self.sings):
            if s.alpha == 0:
                continue
            if j == left:
                d = dist_left
            elif j == right:
                d = dist_right
            else:
                d = abs(x - self.ts[j])
            ld = mp.log(d)
            e_re += s.alpha.real * ld
            if s.alpha.imag != 0.0:
                e_im += s.alpha.imag * ld
        if self.positive:
            return mp.exp(e_re)
        return mp.exp(mp.mpc(e_re, e_im))


@lru_cache(maxsize=64)
def _tanh_sinh_nodes(level, only_odd, prec):
    """Standard tanh-sinh nodes on (-1, 1) with step h = 2^-level.

    Returns tuples (u, 1-u, 1+u, w') where w' excludes the step factor h
    (the progressive scheme rescales it at every refinement). The endpoint
    gaps 1 -/+ u are computed through 2/(exp(+/-2s)+1), free of
    cancellation. Enumeration stops once w' underflows the precision floor.
    ``only_odd`` yields just the nodes new to this level.
    """
    with mp.workprec(prec):
        h = mp.mpf(1) / (1 << level)
        floor = mp.mpf(2) ** (-(prec + 16))
        half_pi = mp.pi / 2
        nodes = []
        j = 1 if only_odd else 0
        step = 2 if only_odd else 1
        while True:
            t = j * h
            s = half_pi * mp.sinh(t)
            w = half_pi * mp.cosh(t) / mp.cosh(s) ** 2
            if w < floor and j > 0:
                break
            e2s = mp.exp(2 * s)
            one_minus = 2 / (e2s + 1)
            u = 1 - one_minus
            one_plus = 2 * e2s / (e2s + 1)
            nodes.append((u, one_minus, one_plus, w))
            if j > 0:
                nodes.append((-u, one_plus, one_minus, w))
            j += step
    return tuple(nodes)


def _find_cutoff(ws, max_power, precision_bits):
    """Half-width X beyond which x^max_power * w(x) is below the precision
    floor relative to the integrand's peak (float estimate; V dominates)."""
    V, W, cfg, n = ws.V, ws.W, ws.cfg, ws.n
    ts = {s.t for s in cfg}

    def exponent(x):
        e = -n * V(x) + float(npcheb.chebval(x, W.coeffs))
        for s in cfg:
            if x != s.t:
                e += s.alpha.real * np.log(abs(x - s.t))
        if x != 0.0:
            e += max_power * np.log(abs(x))
        return e

    grid = np.linspace(-1.5, 1.5, 201)
    peak = max(exponent(float(x)) for x in grid if float(x) not in ts)
    target = peak - (precision_bits + _GUARD_BITS) * np.log(2.0)
    X = max(2.0, 1.0 + max((abs(s.t) for s in cfg), default=0.0))
    for _ in range(400):
        if exponent(X) < target and exponent(-X) < target:
            return X
        X *= 1.25
    raise ConvergenceError("tail cutoff search did not terminate")


def _quadrature(ws, count, precision_bits, keep_nodes=False):
    """All moments w_0 .. w_{2 count - 2} by progressive tanh-sinh panels.

    Refinement doubles the node density until every moment is stable
    relative to its absolute-value integral (the scale at which the
    determinant feels cancellation). Raises ConvergenceError if the level
    cap is hit first. With keep_nodes=True also returns the converged
    discrete measure as node and weighted-value lists (x_i, q_i w(x_i)).
    """
    if precision_bits < 128:
        raise DomainError("precision_bits must be >= 128")
    if count < 1:
        raise DomainError("need count >= 1")
    n_mom = 2 * count - 1
    X = _find_cutoff(ws, n_mom - 1, precision_bits)
    workprec = precision_bits + _GUARD_BITS

    with mp.workprec(workprec):
        evaluator = _WeightEvaluator(ws)
        bounds = [mp.mpf(-X)] + [mp.mpf(s.t) for s in ws.cfg] + [mp.mpf(X)]
        panels = []
        for p in range(len(bounds) - 1):
            a, b = bounds[p], bounds[p + 1]
            panels.append(((a + b) / 2, (b - a) / 2, evaluator.panel_constants(p)))

        complex_weight = not evaluator.positive
        zero = mp.mpc(0) if complex_weight else mp.mpf(0)
        sums = [zero] * n_mom
        abs_sums = [mp.mpf(0)] * n_mom
        xs, ds = [], []

        def add_nodes(level, only_odd):
            std = _tanh_sinh_nodes(level, only_odd, workprec)
            for mid, half, consts in panels:
                for u, um, up, w in std:
                    x = mid + half * u
                    fv = evaluator.value(x, half * up, half * um, consts)
                    q = half * w
                    pw = q * fv
                    apw = q * abs(fv)
                    if keep_nodes:
                        xs.append(x)
                        ds.append(pw)
                    ax = abs(x)
                    for jm in range(n_mom):
                        sums[jm] += pw
                        abs_sums[jm] += apw
                        if jm < n_mom - 1:
                            pw = pw * x
                            apw = apw * ax

        rel_tol = mp.mpf(2) ** (-(precision_bits + 16))
        add_nodes(_START_LEVEL, only_odd=False)
        h = mp.mpf(1) / (1 << _START_LEVEL)
        prev = [h * s for s in sums]
        level = _START_LEVEL
        while True:
            level += 1
            if level > _MAX_LEVEL:
                raise ConvergenceError(
                    f"moment quadrature stalled at level {_MAX_LEVEL}"
                )
            add_nodes(level, only_odd=True)
            h = mp.mpf(1) / (1 << level)
            cur = [h * s for s in sums]
            ok = True
            for jm in range(n_mom):
                scale = h * abs_sums[jm]
                if scale == 0:
                    continue
                if abs(cur[jm] - prev[jm]) > rel_tol * scale:
                    ok = False
                    break
            if ok:
                break
            prev = cur

        if keep_nodes:
            return cur, (xs, [h * d for d in ds])
        return cur, None


def compute_moments(ws, count, precision_bits):
    """Moments w_0 .. w_{2 count - 2} of the weight, in mpmath arithmetic.

    precision_bits must be at least 128; the working precision carries an
    extra guard of 64 bits.
    """
    moments, _ = _quadrature(ws, count, precision_bits)
    return moments


def hankel_log_det(moments, k, precision_bits):
    """log-determinant of the k x k Hankel matrix (w_{i+j-2}) by pivoted
    triangular factorisation in mpmath arithmetic.

    A vanishing pivot is reported as an explicit zero-determinant result
    (complex weights may produce isolated zeros), never as an exception.
    The factorisation is repeated at half the working precision;
    disagreement beyond 1e-8 in log_abs flags the result as unconverged.
    """
    if len(moments) < 2 * k - 1:
        raise DomainError(f"need {2 * k - 1} moments for a {k}x{k} determinant")

    def factor(prec):
        with mp.workprec(prec):
            # unary + rounds each moment to the working precision
            a = [[+mp.mpmathify(moments[i + j]) for j in range(k)] for i in range(k)]
            log_abs = mp.mpf(0)
            phase = mp.mpf(0)
            swaps = 0
            for col in range(k):
                piv_row = max(range(col, k), key=lambda r: abs(a[r][col]))
                piv = a[piv_row][col]
                if piv == 0:
                    return None, None
                if piv_row != col:
                    a[piv_row], a[col] = a[col], a[piv_row]
                    swaps += 1
                log_abs += mp.log(abs(piv))
                phase += mp.arg(piv)  # 0 or pi for a real pivot
                for r in range(col + 1, k):
                    fac = a[r][col] / piv
                    if fac == 0:
                        continue
                    row_r, row_c = a[r], a[col]
                    for cc in range(col, k):
                        row_r[cc] -= fac * row_c[cc]
            if swaps % 2:
                phase += mp.pi
            return log_abs, phase

    work = precision_bits + _GUARD_BITS
    log_abs, phase = factor(work)
    if log_abs is None:
        return HankelResult(
            log_abs=float("-inf"),
            phase=0.0,
            n=k,
            precision_bits=precision_bits,
            method=MOMENT_DETERMINANT,
            converged=True,
            is_zero=True,
        )
    half_log_abs, _ = factor(max(128, work // 2))
    converged = half_log_abs is not None and abs(float(log_abs - half_log_abs)) <= 1e-8
    return HankelResult(
        log_abs=float(log_abs),
        phase=wrap_phase(float(phase)),
        n=k,
        precision_bits=precision_bits,
        method=MOMENT_DETERMINANT,
        converged=bool(converged),
        is_zero=False,
        log_abs_hp=log_abs,
    )


def oracle_log_det(ws, precision_bits=None):
    """compute_moments + hankel_log_det for the k = n determinant of ws."""
    pb = default_precision_bits(ws.n) if precision_bits is None else precision_bits
    moments = compute_moments(ws, ws.n, pb)
    return hankel_log_det(moments, ws.n, pb)


def op_recurrence_log_det(ws, precision_bits=None):
    """log D_n as the product of squared norms from the Stieltjes procedure.

    Restricted to positive weights (all alpha real, all beta purely
    imaginary), where the discretised three-term recurrence is numerically
    stable. Serves as an independent cross-check of the moment-determinant
    path.
    """
    if not ws.is_positive:
        raise PositivityError(
            "orthogonal-polynomial recurrence requires a positive weight "
            "(real alpha, purely imaginary beta)"
        )
    pb = default_precision_bits(ws.n) if precision_bits is None else precision_bits
    _, (xs, ds) = _quadrature(ws, ws.n, pb, keep_nodes=True)
    n = ws.n
    with mp.workprec(pb + _GUARD_BITS):
        p_prev = [mp.mpf(0)] * len(xs)
        p_cur = [mp.mpf(1)] * len(xs)
        log_det = mp.mpf(0)
        h_prev = None
        for kk in range(n):
            h_k = mp.fsum(d * p * p for d, p in zip(ds, p_cur))
            if h_k <= 0:
                raise ConvergenceError(
                    f"squared norm h_{kk} not positive; discretisation too coarse"
                )
            log_det += mp.log(h_k)
            if kk == n - 1:
                break
            a_k = mp.fsum(d * x * p * p for d, x, p in zip(ds, xs, p_cur)) / h_k
            b_k = h_k / h_prev if h_prev is not None else mp.mpf(0)
            p_next = [
                (x - a_k) * pc - b_k * pp for x, pc, pp in zip(xs, p_cur, p_prev)
            ]
            p_prev, p_cur, h_prev = p_cur, p_next, h_k
        return HankelResult(
            log_abs=float(log_det),
            phase=0.0,
            n=n,
            precision_bits=pb,
            method=OP_RECURRENCE,
            converged=True,
            is_zero=False,
            log_abs_hp=log_det,
        )


def log_det_ratio(ws_num, ws_den, precision_bits=None):
    """log D_n(numerator weight) - log D_n(denominator weight).

    Both weights must share the same n. The imaginary part is the phase
    difference wrapped to (-pi, pi]; a vanishing denominator determinant
    raises ZeroDeterminantError, a vanishing numerator returns -inf.
    """
    if ws_num.n != ws_den.n:
        raise DomainError("log_det_ratio requires the same n in both weights")
    num = oracle_log_det(ws_num, precision_bits)
    den = oracle_log_det(ws_den, precision_bits)
    if den.is_zero:
        raise ZeroDeterminantError("denominator Hankel determinant vanishes")
    if num.is_zero:
        return complex(float("-inf"), 0.0)
    return complex(num.log_abs - den.log_abs, wrap_phase(num.phase - den.phase))
