"""Exact reference computation of Hankel determinants in extended precision.

The moments w_j = int x^j e^{-nV(x)} e^{W(x)} omega(x) dx are evaluated with
panel-wise tanh-sinh quadrature, the panels split at every singularity
location so that the algebraic factors |x - t_j|^{alpha_j} sit at panel
endpoints where the doubly-exponential transform absorbs them for any
Re(alpha) > -1. Tails are truncated where the integrand falls below the
precision floor; at a panel end with Re(alpha) < 0 the node enumeration runs
correspondingly further (_floor_bits).

The moment sums are Python integers in fixed point with G fractional bits:
per node, q |w(x)| and |x| are truncated to integers once and x^j q |w(x)|
follows by integer multiply and shift. G comes from a written bound
(_fraction_bits): the truncation error, amplified by X^j through that
recursion, must stay below the rounding bound of mpf sums at the working
precision. It is judged from the first level's sums plus spare bits and
checked again on the converged sums; a miss raises ConvergenceError. Sums
are split by panel and by the sign of x, which gives the tolerance scale
sum q |w| |x|^j exactly; each panel's constant jump phase multiplies its
sums once, and only complex alpha adds per-node cos/sin sums. Everything
becomes mpf only at each level's convergence test.

Determinants come from a pivoted triangular factorisation
carried in mpmath arithmetic; for positive weights an independent
orthogonal-polynomial (Stieltjes) recurrence provides a second route.

Hankel moment matrices are exponentially ill-conditioned in n, hence the
default working precision of max(256, 48 n) bits; the factor is validated by
the precision-robustness tests rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import mpmath as mp
import numpy as np
from mpmath.libmp import to_fixed
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
# spare fractional bits of the fixed-point moment sums (see _fraction_bits)
_HEADROOM_BITS = 32


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
        self.complex_alpha = any(s.alpha.imag != 0.0 for s in self.sings)

    def _exponent_smooth(self, x):
        acc = self.v_coeffs[-1]
        for c in self.v_coeffs[-2::-1]:
            acc = acc * x + c
        e = -self.n * acc
        if self.w_coeffs is not None:
            e += _clenshaw_cheb(self.w_coeffs, x)
        return e

    def panel_constants(self, panel_index):
        """((left singularity index, right singularity index, log of the jump
        modulus), jump phase) on one panel.

        In the panel between t_p and t_{p+1} every singularity with index
        <= p lies left of x and contributes e^{-i pi beta}; the rest
        contribute e^{+i pi beta}. Their product is the panel's constant
        e^{jump_re + i jump_im}.
        """
        m = len(self.sings)
        left = panel_index - 1 if panel_index >= 1 else None
        right = panel_index if panel_index < m else None
        jump = sum((s.beta for s in self.sings[panel_index:]), 0j) - sum(
            (s.beta for s in self.sings[:panel_index]), 0j
        )
        jump_re = -mp.pi * mp.mpf(jump.imag)
        jump_im = mp.pi * mp.mpf(jump.real)
        return (left, right, jump_re), jump_im

    def value(self, x, dist_left, dist_right, consts):
        """(|w(x)|, theta): the weight is |w(x)| e^{i theta} times the panel's
        constant jump phase, with theta = sum_j Im(alpha_j) log|x - t_j|,
        or None when every alpha is real."""
        left, right, jump_re = consts
        e = self._exponent_smooth(x) + jump_re
        theta = mp.mpf(0) if self.complex_alpha else None
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
            e += s.alpha.real * ld
            if s.alpha.imag != 0.0:
                theta += s.alpha.imag * ld
        return mp.exp(e), theta


def _floor_bits(prec, sing):
    """Exponent b of the transform-weight floor 2^-b at a panel end.

    Near a singularity |x - t|^alpha the integrand on a node of transform
    weight w' is about w'^(1 + Re alpha), so the tail dropped below the floor
    stays under 2^-(prec + 16) only if b = (prec + 16) / (1 + min(0, Re alpha)).
    Ends without a singularity, or with Re alpha >= 0, keep b = prec + 16.
    """
    re_alpha = 0.0 if sing is None else min(0.0, sing.alpha.real)
    return math.ceil((prec + 16) / (1.0 + re_alpha))


@lru_cache(maxsize=64)
def _tanh_sinh_nodes(level, only_odd, prec, left_bits, right_bits):
    """Standard tanh-sinh nodes on (-1, 1) with step h = 2^-level.

    Returns tuples (u, 1-u, 1+u, w') where w' excludes the step factor h
    (the progressive scheme rescales it at every refinement). The endpoint
    gaps 1 -/+ u are computed through 2/(exp(+/-2s)+1), free of
    cancellation. Enumeration towards -1 stops once w' falls below
    2^-left_bits, towards +1 below 2^-right_bits (see _floor_bits).
    ``only_odd`` yields just the nodes new to this level.
    """
    with mp.workprec(prec):
        h = mp.mpf(1) / (1 << level)
        left_floor = mp.mpf(2) ** -left_bits
        right_floor = mp.mpf(2) ** -right_bits
        half_pi = mp.pi / 2
        nodes = []
        j = 1 if only_odd else 0
        step = 2 if only_odd else 1
        while True:
            sinh_t = mp.sinh(j * h)
            s = half_pi * sinh_t
            e2s = mp.exp(2 * s)
            # cosh(t) / cosh(s)^2 with cosh(s)^2 = (e2s + 1)^2 / (4 e2s)
            w = 2 * mp.pi * mp.sqrt(1 + sinh_t * sinh_t) * e2s / (e2s + 1) ** 2
            keep_right = w >= right_floor or j == 0
            keep_left = w >= left_floor and j > 0
            if not (keep_right or keep_left):
                break
            one_minus = 2 / (e2s + 1)
            u = 1 - one_minus
            one_plus = 2 * e2s / (e2s + 1)
            if keep_right:
                nodes.append((u, one_minus, one_plus, w))
            if keep_left:
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
        last, X = X, X * 1.25
    excess = (max(exponent(last), exponent(-last)) - target) / np.log(2.0)
    raise ConvergenceError(
        f"tail cutoff search did not terminate: at the last X = {last:.6g}, "
        f"x^{max_power} |w(x)| still exceeds its target by 2^{excess:.4g}"
    )


def _log2(v):
    """log2 |v| of an mpf as a float (-inf for zero)."""
    _, man, exp, _ = v._mpf_
    return math.log2(man) + exp if man else -math.inf


def _fixed_abs(v, bits):
    """floor(|v| 2^bits) of an mpf v, as a Python int."""
    _, man, exp, _ = v._mpf_
    shift = exp + bits
    return man << shift if shift >= 0 else man >> -shift


def _add_powers(acc, a, xi, bits):
    """acc[j] += a (xi 2^-bits)^j for every j, each product truncated to an
    integer; stops once the product vanishes."""
    for j in range(len(acc)):
        acc[j] += a
        a = (a * xi) >> bits
        if not a:
            return


def _fraction_bits(workprec, n_mom, X, log2_abs_sums, log2_m_max):
    """Fractional bits G at which fixed-point moment sums round no worse than
    sums of workprec-bit mpf terms.

    With m = q |w(x)| and xi = |x| both truncated to multiples of 2^-G and
    a_{j+1} = floor(a_j xi 2^-G), the error of a_j 2^-G against m |x|^j is,
    to first order, at most 2^-G X'^j (j + 1 + j m_max) per node, X' =
    max(1, X): the j + 1 truncations grow by at most X'^j, the truncation of
    |x| by j m |x|^(j-1). Over N nodes this stays below the mpf rounding bound
    N n_mom 2^-workprec T_j, T_j = sum m |x|^j, when G is at least the value
    returned (moments with T_j = 0 have no error to bound).
    """
    lx = math.log2(max(1.0, X))
    spread = max(0.0, log2_m_max) + 1.0 - math.log2(n_mom)
    return workprec + max(
        (j * lx + math.log2(j + 1) + spread - t
         for j, t in enumerate(log2_abs_sums) if t > -math.inf),
        default=0.0,
    )


def _estimate_abs_sums(points, n_mom):
    """Float log2 of T_j = sum m |x|^j (j < n_mom) and of max m over the
    nodes (p, x, m, theta)."""
    lm = np.array([_log2(m) for _, _, m, _ in points])
    lx = np.array([_log2(x) for _, x, _, _ in points])
    with np.errstate(invalid="ignore"):
        e = lm + np.arange(n_mom)[:, None] * lx
    e[0] = lm  # |x|^0 = 1, also at x = 0
    top = e.max(axis=1)
    log2_t = top + np.log2(np.exp2(e - top[:, None]).sum(axis=1))
    return [float(t) for t in log2_t], float(lm.max())


def _stall_message(cur, prev, abs_sums, tol_exp, X, workprec):
    """Name the moment whose last change overshot its tolerance the most."""
    def overshoot(j):  # log2 of |change| / tolerance
        t = abs_sums[j]
        tol = math.log2(t) + tol_exp if t else -math.inf
        return _log2(abs(cur[j] - prev[j])) - tol

    failed = [j for j, t in enumerate(abs_sums)
              if abs(cur[j] - prev[j]) > mp.mpf((t, tol_exp))]
    j = max(failed, key=overshoot)
    return (
        f"moment quadrature stalled at level {_MAX_LEVEL}: moment j = {j} "
        f"last changed by 2^{overshoot(j):.4g} times its tolerance "
        f"(cutoff X = {X:.6g}, {workprec} working bits)"
    )


def _quadrature(ws, count, precision_bits, keep_nodes=False):
    """All moments w_0 .. w_{2 count - 2} by progressive tanh-sinh panels.

    Refinement doubles the node density until every moment is stable
    relative to its absolute-value integral (the scale at which the
    determinant feels cancellation). Raises ConvergenceError if the level
    cap is hit first, or if the fixed-point sums could not meet their
    rounding bound. With keep_nodes=True also returns the converged discrete
    measure as node and weighted-value lists (x_i, q_i w(x_i)).

    The sums are Python integers in units of 2^-G (see _fraction_bits): each
    node adds floor(q |w(x)| |x|^j 2^G), by integer multiply and shift, to
    its panel's sums for x >= 0 or x < 0. The panel's sums of q |w| x^j are
    then S+_j + (-1)^j S-_j and those of q |w| |x|^j (the tolerance scale)
    S+_j + S-_j. Each panel's constant jump phase multiplies its sums once
    per level; only complex alpha adds per-node sums of q |w| cos(theta)
    and q |w| sin(theta).
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
        sings = list(ws.cfg)
        bounds = [mp.mpf(-X)] + [mp.mpf(s.t) for s in sings] + [mp.mpf(X)]
        panels, phases = [], []
        for p in range(len(bounds) - 1):
            a, b = bounds[p], bounds[p + 1]
            consts, jump_im = evaluator.panel_constants(p)
            left, right, _ = consts
            ends = (
                _floor_bits(workprec, None if left is None else sings[left]),
                _floor_bits(workprec, None if right is None else sings[right]),
            )
            panels.append(((a + b) / 2, (b - a) / 2, consts, ends))
            phases.append(jump_im)
        units = None if ws.is_positive else [mp.expj(p) for p in phases]
        n_parts = 3 if evaluator.complex_alpha else 1
        # acc[panel][x < 0][part][j]; parts: q|w|, q|w| cos(theta), q|w| sin(theta)
        acc = [
            [[[0] * n_mom for _ in range(n_parts)] for _ in range(2)] for _ in panels
        ]
        a_max = 0
        xs, ds = [], []

        def nodes(level, only_odd):
            for p, (mid, half, consts, ends) in enumerate(panels):
                for u, um, up, w in _tanh_sinh_nodes(level, only_odd, workprec, *ends):
                    x = mid + half * u
                    mod, theta = evaluator.value(x, half * up, half * um, consts)
                    yield p, x, half * w * mod, theta

        def accumulate(points, G):
            nonlocal a_max
            for p, x, m, theta in points:
                xi = _fixed_abs(x, G)
                a = _fixed_abs(m, G)
                a_max = max(a_max, a)
                parts = acc[p][x._mpf_[0]]
                _add_powers(parts[0], a, xi, G)
                if theta is not None:
                    c, s = mp.cos_sin(theta)
                    _add_powers(parts[1], to_fixed((m * c)._mpf_, G), xi, G)
                    _add_powers(parts[2], to_fixed((m * s)._mpf_, G), xi, G)
                if keep_nodes:
                    xs.append(x)
                    if units is not None:
                        m = m * units[p] * (1 if theta is None else mp.expj(theta))
                    ds.append(m)

        def level_sums(level, G):
            """h-scaled moments of the nodes so far, and their integer sums of
            q |w| |x|^j."""
            e = -(G + level)

            def panel_sum(parts):  # without the panel's jump phase
                if n_parts == 1:
                    return mp.mpf((parts[0], e))
                return mp.mpc(mp.mpf((parts[1], e)), mp.mpf((parts[2], e)))

            moments, abs_sums = [], []
            for j in range(n_mom):
                sign = -1 if j % 2 else 1
                signed = [[pos[j] + sign * neg[j] for pos, neg in zip(*sides)]
                          for sides in acc]
                abs_sums.append(sum(pos[0][j] + neg[0][j] for pos, neg in acc))
                if units is None:
                    moments.append(mp.mpf((sum(parts[0] for parts in signed), e)))
                else:
                    moments.append(sum(
                        (u * panel_sum(parts) for u, parts in zip(units, signed)),
                        mp.mpc(0),
                    ))
            return moments, abs_sums

        start = list(nodes(_START_LEVEL, only_odd=False))
        log2_t, log2_m_max = _estimate_abs_sums(start, n_mom)
        G = _HEADROOM_BITS + math.ceil(
            _fraction_bits(workprec, n_mom, X, log2_t, log2_m_max)
        )
        accumulate(start, G)
        prev, _ = level_sums(_START_LEVEL, G)
        level = _START_LEVEL
        while True:
            level += 1
            accumulate(nodes(level, only_odd=True), G)
            cur, abs_sums = level_sums(level, G)
            # |change| <= 2^-(precision_bits + 16) times the h-scaled abs sum
            tol_exp = -(G + level + precision_bits + 16)
            if all(abs(c - p) <= mp.mpf((t, tol_exp))
                   for c, p, t in zip(cur, prev, abs_sums)):
                break
            if level == _MAX_LEVEL:
                raise ConvergenceError(
                    _stall_message(cur, prev, abs_sums, tol_exp, X, workprec)
                )
            prev = cur

        need = _fraction_bits(
            workprec, n_mom, X,
            [math.log2(t) - G if t else -math.inf for t in abs_sums],
            math.log2(a_max + 1) - G,
        )
        if G < need:
            raise ConvergenceError(
                f"fixed-point moment sums carry {G} fractional bits; their "
                f"rounding bound needs {math.ceil(need)}"
            )
        h = mp.mpf(1) / (1 << level)
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
