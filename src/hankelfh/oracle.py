"""Exact reference computation of Hankel determinants, by two routes.

The moment determinant, in extended precision: the moments
w_j = int x^j e^{-nV(x)} e^{W(x)} omega(x) dx come from panel-wise tanh-sinh
quadrature, the panels split at every singularity so that the factors
|x - t_j|^{alpha_j} sit at panel endpoints, where the doubly-exponential
transform absorbs them for any Re(alpha) > -1. Tails are truncated where the
integrand falls below the precision floor; at a panel end with
Re(alpha) < 0 the node enumeration runs correspondingly further
(_floor_bits). The moment sums are Python integers in fixed point, split by
panel and by the sign of x, with fractional bits from a written rounding
bound (_fraction_bits). A pivoted triangular factorisation in mpmath gives
the determinant. Hankel moment matrices are exponentially ill-conditioned in
n, hence the working-precision cap of max(256, 48 n) bits; the factor is
validated by the precision-robustness tests rather than assumed.

The orthogonal-polynomial recurrence, in float64 for real alpha: the
Stieltjes procedure in the bilinear form sum w p q on one Gauss-Jacobi panel
per interval between -X, the t_j and X, the Jacobi weight carrying the ends'
|x - t_j|^alpha_j, the log-weights the panel's jump factor; 2N nodes per
panel must reproduce the value at N = 8n + 200 to AGREEMENT_TOL in log_abs
and phase. It shares no nodes, cutoff or arithmetic with the moment route:
each checks the other.

oracle_log_det runs the moment route and alone judges it: its reference is
the recurrence's certified value where there is one, and otherwise the same
moments factorised at half the bits. By default it climbs a ladder of 128,
256, 512, ... bits up to the cap and stops at the first rung that agrees with
the recurrence to AGREEMENT_TOL (without the recurrence only the cap runs);
``converged`` is that agreement, in log_abs and phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import mpmath as mp
import numpy as np
from mpmath.libmp import to_fixed
from numpy.polynomial import chebyshev as npcheb
from scipy.special import betaln

from .equilibrium import Potential
from .errors import ConvergenceError, DomainError
from .singularities import SingularityConfig, as_field

MOMENT_DETERMINANT = "moment_determinant"
OP_RECURRENCE = "op_recurrence"

_GUARD_BITS = 64
_START_LEVEL = 3
_MAX_LEVEL = 11
# spare fractional bits of the fixed-point moment sums (see _fraction_bits)
_HEADROOM_BITS = 32
_FLOAT_BITS = 53  # the recurrence route runs in float64
MIN_PRECISION_BITS = 128  # of the moment route, and its ladder's first rung
# log_abs and phase (mod 2 pi) agreement of the recurrence's N/2N certificate
# and of the moment route with its reference
AGREEMENT_TOL = 1e-10
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def default_precision_bits(n):
    """The moment route's working bits without a reference, and the cap of
    the precision ladder (see oracle_log_det)."""
    return max(256, 48 * int(n))


def wrap_phase(p):
    """A phase in radians mapped to (-pi, pi]."""
    w = (p + np.pi) % (2.0 * np.pi) - np.pi
    return w + 2.0 * np.pi if w <= -np.pi else w


def _agree(log_abs_a, phase_a, log_abs_b, phase_b):
    """Two log-determinants within AGREEMENT_TOL in log_abs and in phase mod 2 pi."""
    return (abs(log_abs_a - log_abs_b) <= AGREEMENT_TOL
            and abs(wrap_phase(phase_a - phase_b)) <= AGREEMENT_TOL)


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
        for s in self.cfg:
            if math.pi * abs(s.beta.imag) > _LOG_FLOAT_MAX:
                raise DomainError(f"singularity at t = {s.t}: its jump factor e^(pi "
                                  f"|Im beta|) overflows a float (beta = {s.beta})")
        object.__setattr__(self, "W", as_field(self.W))

    @property
    def is_positive(self):
        """True when every alpha is real and every beta purely imaginary (as
        in every thinning weight): each jump factor e^{+-i pi beta} is then a
        positive constant, and both routes run in real arithmetic."""
        return all(s.alpha.imag == 0.0 and s.beta.real == 0.0 for s in self.cfg)


@dataclass(frozen=True)
class HankelResult:
    """Log-determinant of a Hankel moment matrix with precision metadata.

    log_abs/phase are float views; log_abs_hp retains the full-precision
    mpmath value. Only oracle_log_det sets ``converged`` (agreement with its
    reference, see there) and reports the precision_bits of the rung it
    stopped at; hankel_log_det judges nothing and leaves it True. A
    determinant that is exactly zero is reported with is_zero=True rather
    than as an error. The float64 recurrence route reports precision_bits =
    53 and log_abs_hp = None, and a phase that is 0 for a positive weight;
    it returns only once its node-doubling check passes in log_abs and
    phase.
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


def _panel_jump(sings, p):
    """e^{i pi jump} is the jump factor on panel p (from t_{p-1} to t_p, with
    -X and X): each t_j left of it gives e^{-i pi beta_j}, the rest e^{+i pi beta_j}."""
    return sum(s.beta for s in sings[p:]) - sum(s.beta for s in sings[:p])


def _log_abs_weight(ws, x, skip=()):
    """log |w(x)| without the jump factors, vectorised in float64:
    -n V(x) + W(x) + sum_j Re(alpha_j) log|x - t_j| over the singularities
    whose index is not in ``skip``. x must avoid the remaining t_j."""
    e = -ws.n * ws.V(x) + npcheb.chebval(x, ws.W.coeffs)
    for j, s in enumerate(ws.cfg):
        if j not in skip:
            e = e + s.alpha.real * np.log(np.abs(x - s.t))
    return e


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
        modulus), jump phase) on one panel: its constant jump factor is
        e^{jump_re + i jump_im} (see _panel_jump)."""
        m = len(self.sings)
        left = panel_index - 1 if panel_index >= 1 else None
        right = panel_index if panel_index < m else None
        jump = _panel_jump(self.sings, panel_index)
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

    def exponent(x):
        return _log_abs_weight(ws, x) + max_power * np.log(
            np.abs(x), out=np.zeros_like(x), where=x != 0.0)

    grid = np.linspace(-1.5, 1.5, 201)
    for s in ws.cfg:  # skip t_j, and half a step around it where |w| blows up
        grid = grid[np.abs(grid - s.t) > (0.0075 if s.alpha.real < 0 else 0.0)]
    peak = exponent(grid).max()
    target = peak - (precision_bits + _GUARD_BITS) * np.log(2.0)
    X = max(2.0, 1.0 + max((abs(s.t) for s in ws.cfg), default=0.0))
    for _ in range(400):
        tails = exponent(np.array([X, -X]))
        if tails.max() < target:
            return X
        last, X = X, X * 1.25
    excess = (tails.max() - target) / np.log(2.0)
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


def _stall_message(cur, prev, abs_sums, tol_exp, X, workprec, count, real_alpha):
    """Name the moment whose last change overshot its tolerance the most,
    the determinant size, and for real alpha the float64 route."""
    def overshoot(j):  # log2 of |change| / tolerance
        t = abs_sums[j]
        tol = math.log2(t) + tol_exp if t else -math.inf
        return _log2(abs(cur[j] - prev[j])) - tol

    failed = [j for j, t in enumerate(abs_sums)
              if abs(cur[j] - prev[j]) > mp.mpf((t, tol_exp))]
    j = max(failed, key=overshoot)
    route = ("; every alpha is real, so op_recurrence_log_det computes this "
             "determinant in float64") if real_alpha else ""
    return (
        f"moment quadrature stalled at level {_MAX_LEVEL}: moment j = {j} "
        f"last changed by 2^{overshoot(j):.4g} times its tolerance "
        f"(cutoff X = {X:.6g}, {workprec} working bits) for the "
        f"{count} x {count} determinant{route}"
    )


def _nodes(level, only_odd, panels, evaluator, workprec):
    """Tanh-sinh nodes of one level on every panel, as (panel index, x,
    q |w(x)|, theta), with q the node's transform weight times the panel's
    half-width (the step h = 2^-level is applied to the sums)."""
    for p, (mid, half, consts, ends) in enumerate(panels):
        for u, um, up, w in _tanh_sinh_nodes(level, only_odd, workprec, *ends):
            x = mid + half * u
            mod, theta = evaluator.value(x, half * up, half * um, consts)
            yield p, x, half * w * mod, theta


def compute_moments(ws, count, precision_bits):
    """Moments w_0 .. w_{2 count - 2} by progressive tanh-sinh panels, in
    mpmath arithmetic at precision_bits >= MIN_PRECISION_BITS plus 64 guard
    bits.

    Refinement doubles the node density until every moment is stable
    relative to its absolute-value integral (the scale at which the
    determinant feels cancellation); ConvergenceError if the level cap is
    hit first or the fixed-point sums miss their rounding bound. Each node
    adds floor(q |w(x)| |x|^j 2^G) (see _fraction_bits) to its panel's
    integer sums for x >= 0 or x < 0, S+_j and S-_j: then sum q |w| x^j =
    S+_j + (-1)^j S-_j and the tolerance scale sum q |w| |x|^j = S+_j + S-_j.
    A panel's constant jump phase multiplies its sums once per level; only
    complex alpha adds per-node sums of q |w| cos(theta), q |w| sin(theta).
    """
    if precision_bits < MIN_PRECISION_BITS:
        raise DomainError(f"precision_bits must be >= {MIN_PRECISION_BITS}")
    if count < 1:
        raise DomainError("need count >= 1")
    n_mom = 2 * count - 1
    X = _find_cutoff(ws, n_mom - 1, precision_bits)
    workprec = precision_bits + _GUARD_BITS

    with mp.workprec(workprec):
        evaluator = _WeightEvaluator(ws)
        sings = list(ws.cfg)
        bounds = [mp.mpf(-X)] + [mp.mpf(s.t) for s in sings] + [mp.mpf(X)]
        panels, units = [], []
        for p in range(len(bounds) - 1):
            a, b = bounds[p], bounds[p + 1]
            consts, jump_im = evaluator.panel_constants(p)
            ends = tuple(_floor_bits(workprec, None if i is None else sings[i])
                         for i in consts[:2])
            panels.append(((a + b) / 2, (b - a) / 2, consts, ends))
            units.append(mp.expj(jump_im))
        n_parts = 3 if evaluator.complex_alpha else 1
        # acc[panel][x < 0][part][j]; parts: q|w|, q|w| cos(theta), q|w| sin(theta)
        acc = [[[[0] * n_mom for _ in range(n_parts)] for _ in range(2)]
               for _ in panels]
        a_max = 0

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
                if ws.is_positive:
                    moments.append(mp.mpf((sum(parts[0] for parts in signed), e)))
                else:
                    moments.append(sum(
                        (u * panel_sum(parts) for u, parts in zip(units, signed)),
                        mp.mpc(0),
                    ))
            return moments, abs_sums

        start = list(_nodes(_START_LEVEL, False, panels, evaluator, workprec))
        log2_t, log2_m_max = _estimate_abs_sums(start, n_mom)
        G = _HEADROOM_BITS + math.ceil(
            _fraction_bits(workprec, n_mom, X, log2_t, log2_m_max)
        )
        accumulate(start, G)
        prev, _ = level_sums(_START_LEVEL, G)
        level = _START_LEVEL
        while True:
            level += 1
            accumulate(_nodes(level, True, panels, evaluator, workprec), G)
            cur, abs_sums = level_sums(level, G)
            # |change| <= 2^-(precision_bits + 16) times the h-scaled abs sum
            tol_exp = -(G + level + precision_bits + 16)
            if all(abs(c - p) <= mp.mpf((t, tol_exp))
                   for c, p, t in zip(cur, prev, abs_sums)):
                break
            if level == _MAX_LEVEL:
                raise ConvergenceError(_stall_message(
                    cur, prev, abs_sums, tol_exp, X, workprec, count,
                    not evaluator.complex_alpha))
            prev = cur

        log2_t = [math.log2(t) - G if t else -math.inf for t in abs_sums]
        need = _fraction_bits(workprec, n_mom, X, log2_t, math.log2(a_max + 1) - G)
        if G < need:
            raise ConvergenceError(
                f"fixed-point moment sums carry {G} fractional bits; their "
                f"rounding bound needs {math.ceil(need)}"
            )
        return cur


def hankel_log_det(moments, k, precision_bits):
    """log-determinant of the k x k Hankel matrix (w_{i+j-2}) by one pivoted
    triangular factorisation in mpmath arithmetic at precision_bits plus 64
    guard bits. It judges nothing: oracle_log_det checks the result.

    A vanishing pivot is reported as an explicit zero-determinant result
    (complex weights may produce isolated zeros), never as an exception.
    """
    if len(moments) < 2 * k - 1:
        raise DomainError(f"need {2 * k - 1} moments for a {k}x{k} determinant")
    with mp.workprec(precision_bits + _GUARD_BITS):
        # unary + rounds each moment to the working precision
        a = [[+mp.mpmathify(moments[i + j]) for j in range(k)] for i in range(k)]
        log_abs = mp.mpf(0)
        phase = mp.mpf(0)
        swaps = 0
        for col in range(k):
            piv_row = max(range(col, k), key=lambda r: abs(a[r][col]))
            piv = a[piv_row][col]
            if piv == 0:
                return HankelResult(float("-inf"), 0.0, k, precision_bits,
                                    MOMENT_DETERMINANT, is_zero=True)
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
    return HankelResult(float(log_abs), wrap_phase(float(phase)), k,
                        precision_bits, MOMENT_DETERMINANT, log_abs_hp=log_abs)


def _precision_ladder(cap):
    """MIN_PRECISION_BITS, twice that, four times, ... below cap, then cap."""
    bits = MIN_PRECISION_BITS
    while bits < cap:
        yield bits
        bits *= 2
    yield cap


def oracle_log_det(ws, precision_bits=None):
    """compute_moments + hankel_log_det for the k = n determinant of ws,
    judged against a reference.

    The reference is op_recurrence_log_det(ws), independent of the moment
    route; there is none for complex alpha (DomainError) or where its
    certificate fails (ConvergenceError). With no precision_bits given and a
    reference, the moment route runs at 128, 256, 512, ... bits up to
    default_precision_bits(n) and stops at the first rung that agrees with
    the reference; without a reference it runs at that cap only, and its
    reference is the same moments factorised at half the bits, which checks
    the factorisation but not the moments. An explicit precision_bits is a
    single rung. ``converged`` is agreement with the reference to
    AGREEMENT_TOL in log_abs and phase mod 2 pi (never for a zero
    determinant); precision_bits is the rung returned. A ConvergenceError of
    the moment quadrature propagates: more bits only need more quadrature
    levels.
    """
    try:
        ref = op_recurrence_log_det(ws)
    except (DomainError, ConvergenceError):
        ref = None
    if precision_bits is not None:
        rungs = (precision_bits,)
    elif ref is None:
        rungs = (default_precision_bits(ws.n),)
    else:
        rungs = _precision_ladder(default_precision_bits(ws.n))
    for pb in rungs:
        moments = compute_moments(ws, ws.n, pb)
        result = hankel_log_det(moments, ws.n, pb)
        check = ref if ref is not None else hankel_log_det(moments, ws.n, pb // 2)
        converged = _agree(result.log_abs, result.phase, check.log_abs, check.phase)
        if converged:
            break
    return replace(result, converged=converged)


@lru_cache(maxsize=64)
def _gauss_jacobi(N, a, b):
    """N-point Gauss rule for (1-u)^a (1+u)^b on (-1, 1): read-only nodes, log-weights.

    Jacobi-matrix eigenvalues polished by Newton steps on the orthonormal p_N
    in long double, and Christoffel weights mu_0 / sum_k p_k^2. The weights
    near an end with a or b near -1 hinge on the node's distance to it, which
    float64 resolves to ~1e-16 N^2 (roots_jacobi: 3e-8 in log D_12 at -0.9)."""
    a, b = np.longdouble(a), np.longdouble(b)
    k = np.arange(1, N + 1, dtype=np.longdouble)
    s = 2 * k + a + b
    diag = np.append((b - a) / (a + b + 2), (b * b - a * a) / (s * (s + 2)))
    ratio = np.append(1, k[1:] * (k[1:] + a + b) / (s[1:] - 1))
    off = 2 / s * np.sqrt((k + a) * (k + b) / (s + 1) * ratio)
    T = np.diag(diag[:N].astype(float))
    T[range(N - 1), range(1, N)] = off[:-1]
    u = np.linalg.eigvalsh(T, UPLO="U").astype(np.longdouble)
    for _ in range(2):  # the weights come from the last pass's nodes x
        p_prev, p, dp_prev, dp, total = 0, 1, 0, 0, 0
        for j in range(N):
            total, c, lag = total + p * p, u - diag[j], off[j - 1] if j else 0
            dp_prev, dp = dp, (p + c * dp - lag * dp_prev) / off[j]
            p_prev, p = p, (c * p - lag * p_prev) / off[j]
        u, x = u - p / dp, u
    log_mu0 = (a + b + 1) * np.log(2.0) + betaln(float(a) + 1, float(b) + 1)
    nodes, log_w = x.astype(float), (log_mu0 - np.log(total)).astype(float)
    nodes.flags.writeable = log_w.flags.writeable = False
    return nodes, log_w


def _recurrence_log_det(ws, X, N):
    """Complex log D_n of w on one N-point Gauss-Jacobi panel per interval
    between -X, the t_j and X (the Jacobi weight carries the ends'
    |x - t|^alpha), by the Stieltjes procedure in sum w p q (np.dot does not
    conjugate), weights shifted by their largest modulus:
    log D_n = n log h_0 + sum_k 2(n - k) log b_k."""
    n, sings = ws.n, list(ws.cfg)
    bounds = [-X] + [s.t for s in sings] + [X]
    xs, logs = [], []
    for p in range(len(bounds) - 1):
        alpha_left = sings[p - 1].alpha.real if p > 0 else 0.0
        alpha_right = sings[p].alpha.real if p < len(sings) else 0.0
        u, log_q = _gauss_jacobi(N, alpha_right, alpha_left)
        jump = _panel_jump(sings, p)
        half = (bounds[p + 1] - bounds[p]) / 2
        xs.append(bounds[p] + half * (1 + u))
        logs.append(
            _log_abs_weight(ws, xs[-1], skip=(p - 1, p)) + log_q
            + (1 + alpha_left + alpha_right) * np.log(half)
            + (-np.pi * jump.imag if ws.is_positive else 1j * np.pi * jump)
        )
    x, log_w = np.concatenate(xs), np.concatenate(logs)
    shift = log_w.real.max()
    d = np.exp(log_w - shift)
    log_det = n * (np.log(d.sum()) + shift)
    q_prev, q, b = 0.0, np.full_like(d, 1 / np.sqrt(d.sum())), 0.0
    for k in range(1, n):
        r = (x - np.dot(d * q, x * q)) * q - b * q_prev
        b = np.sqrt(np.dot(d * r, r))
        if b == 0 or not np.isfinite(b):
            raise ConvergenceError(f"squared norm h_{k} zero or not finite")
        log_det += 2 * (n - k) * np.log(b)
        q_prev, q = q, r / b
    return complex(log_det)


def op_recurrence_log_det(ws):
    """log D_n of a weight with real alpha by the Stieltjes procedure on a
    float64 Gauss-Jacobi discretisation, sharing no nodes, cutoff or
    arithmetic with the moment determinant. The value at N = 8n + 200 nodes
    per panel is returned once 2N nodes reproduce it to AGREEMENT_TOL in
    log_abs and in phase mod 2 pi; otherwise ConvergenceError names both.
    Complex alpha raises DomainError: Gauss-Jacobi resolves
    |x - t|^{i Im alpha} at a panel end only algebraically, so the N/2N gap
    would understate the error."""
    for s in ws.cfg:
        if s.alpha.imag != 0.0:
            raise DomainError(f"t = {s.t}: the recurrence needs real alpha, got {s.alpha}")
    n, N = ws.n, 8 * ws.n + 200
    X = _find_cutoff(ws, 2 * n - 2, _FLOAT_BITS)
    coarse, fine = (_recurrence_log_det(ws, X, m) for m in (N, 2 * N))
    phase = wrap_phase(coarse.imag)
    if not _agree(coarse.real, coarse.imag, fine.real, fine.imag):
        raise ConvergenceError(
            f"Gauss-Jacobi recurrence unresolved: log D_{n} = {coarse.real!r}, phase "
            f"{phase!r} at {N} nodes per panel, {fine.real!r}, "
            f"{wrap_phase(fine.imag)!r} at {2 * N}"
        )
    return HankelResult(coarse.real, phase, n, _FLOAT_BITS, OP_RECURRENCE)
