"""Exact reference computation of Hankel determinants, by two routes.

The moment determinant, in extended precision: the moments
w_j = int x^j e^{-nV(x)} e^{W(x)} omega(x) dx come from panel-wise tanh-sinh
quadrature, the panels split at every singularity so that the factors
|x - t_j|^{alpha_j} sit at panel endpoints, where the doubly-exponential
transform absorbs them for any Re(alpha) > -1. Tails are truncated where the
integrand falls below the precision floor; at a panel end with
Re(alpha) < 0 the node enumeration runs correspondingly further
(_floor_bits). One cache of nodes u in [0, 1) per level serves both ends
of every panel, u towards the right end and -u towards the left
(_panel_run). The weight is evaluated on raw mpf tuples in libmp
arithmetic, bit for bit what mpf objects would give, and stays in raw
tuples down to the moment sums: Python integers in fixed point, split by
panel and by the sign of x, with fractional bits G from a written rounding
bound (_fraction_bits). A float64 estimate of every node's size sets G
before any node is evaluated, and on every level screens out the nodes
whose q |w(x)| lies below 2^-G by a margin, which would add exactly 0
(_can_count). A pivoted triangular factorisation in mpmath gives the
determinant. Hankel moment matrices are exponentially ill-conditioned in
n, hence the working-precision cap of max(256, 48 n) bits; the factor is
validated by the precision-robustness tests rather than assumed.

The orthogonal-polynomial recurrence, in float64 for every admitted
weight: Lanczos in the bilinear form sum w p q on a graded Gauss-Legendre
discretisation. Each interval between -X, the t_j and X is halved; a half
ending at a t_j with alpha_j != 0 has geometric layers towards it (Schwab,
p- and hp-FEM, 3.3) and a product-integration rule below them that carries
|x - t_j|^alpha_j exactly (Atkinson 1997, 4.2), every other half plain
Gauss-Legendre nodes. m = n + 25 doubled must reproduce the value to
AGREEMENT_TOL in log_abs and phase, else m doubles while that shrinks the
gap between them. It shares no nodes, cutoff or arithmetic with the moment
route: each checks the other.

oracle_log_det runs the moment route and alone judges it against the
recurrence's certified value. By default it climbs a ladder of 128, 256,
512, ... bits up to the cap and stops at the first rung that agrees with
the recurrence to AGREEMENT_TOL (where the recurrence raises, only the cap
runs, unconverged); ``converged`` is that agreement, in log_abs and phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    from_float, fzero, mpf_abs, mpf_add, mpf_cos_sin, mpf_exp, mpf_log, mpf_mul,
    mpf_mul_int, mpf_neg, mpf_sub, round_nearest, to_fixed, to_float,
)

from .equilibrium import Potential
from .errors import ConvergenceError, DomainError
from .singularities import Singularity, SingularityConfig, as_field, as_integer

MOMENT_DETERMINANT = "moment_determinant"
OP_RECURRENCE = "op_recurrence"

_GUARD_BITS = 64
_START_LEVEL = 3
_MAX_LEVEL = 11
# spare fractional bits of the fixed-point moment sums (see _fraction_bits)
_HEADROOM_BITS = 32
_FLOAT_BITS = 53  # the recurrence route runs in float64
MIN_PRECISION_BITS = 128  # of the moment route, and its ladder's first rung
# log_abs and phase (mod 2 pi) agreement of the recurrence's m/2m certificate
# and of the moment route with its reference
AGREEMENT_TOL = 1e-10
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def default_precision_bits(n):
    """The moment route's working bits without a reference, and the cap of
    the precision ladder (see oracle_log_det)."""
    return max(256, 48 * as_integer(n))


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
        object.__setattr__(self, "n", as_integer(self.n))
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
    53 and log_abs_hp = None, and a phase that is exactly 0 for a positive
    weight; it returns only once its node-doubling check passes in log_abs
    and phase.
    """

    log_abs: float
    phase: float
    n: int
    precision_bits: int
    method: str
    converged: bool = True
    is_zero: bool = False
    log_abs_hp: object = None


def _clenshaw_cheb(coeffs, x, prec):
    """Chebyshev series at x, in raw mpf tuples rounded to nearest at prec."""
    rnd = round_nearest
    x2 = mpf_mul_int(x, 2, prec, rnd)
    b1 = b2 = fzero
    for c in coeffs[:0:-1]:
        b1, b2 = mpf_add(mpf_sub(mpf_mul(x2, b1, prec, rnd), b2, prec, rnd), c,
                         prec, rnd), b1
    return mpf_add(mpf_sub(mpf_mul(x, b1, prec, rnd), b2, prec, rnd), coeffs[0],
                   prec, rnd)


def _log_weight(ws, x, own=None, log_s=None):
    """log w(x) without the jump factors, vectorised in float64:
    -n V(x) + W(x) + sum_j alpha_j log|x - t_j|, complex where some alpha
    is. Where own == j, log_s stands for log|x - t_j|; x must avoid the
    other t_j."""
    e = -ws.n * ws.V(x) + ws.W(x)
    for j, s in enumerate(ws.cfg):
        if s.alpha != 0:
            d = np.log(np.abs(x - s.t))
            if own is not None:
                d = np.where(own == j, log_s, d)
            e = e + (s.alpha if s.alpha.imag else s.alpha.real) * d
    return e


class _WeightEvaluator:
    """Evaluates the weight at nodes given as raw mpf tuples (mpmath's
    ``_mpf_``), panel by panel, in libmp arithmetic rounded to nearest at
    the working precision current when it is made: the operations of mpf
    arithmetic in the same order, without the cost of its objects, so the
    values are the same bit for bit.

    Stable endpoint distances (supplied by the tanh-sinh transform) are used
    for the singular factors anchored at the panel ends, so no precision is
    lost where |x - t_j| underflows the naive difference. ``evaluated`` and
    ``skipped`` count the nodes that _nodes evaluated and screened out.
    """

    def __init__(self, ws):
        self.ws, self.prec = ws, mp.mp.prec
        self.v_coeffs = [from_float(c) for c in ws.V.coeffs]
        w = ws.W.coeffs
        self.w_coeffs = None if np.all(w == 0) else [from_float(c) for c in w]
        self.sings = list(ws.cfg)
        self.ts = [from_float(s.t) for s in self.sings]
        # (j, Re alpha_j, Im alpha_j or None) of every root factor
        self.factors = [
            (j, from_float(s.alpha.real),
             from_float(s.alpha.imag) if s.alpha.imag else None)
            for j, s in enumerate(self.sings) if s.alpha != 0
        ]
        self.complex_alpha = any(s.alpha.imag != 0.0 for s in self.sings)
        self.evaluated = self.skipped = 0

    def _exponent_smooth(self, x):
        prec, rnd = self.prec, round_nearest
        acc = self.v_coeffs[-1]
        for c in self.v_coeffs[-2::-1]:
            acc = mpf_add(mpf_mul(acc, x, prec, rnd), c, prec, rnd)
        e = mpf_mul_int(acc, -self.ws.n, prec, rnd)
        if self.w_coeffs is not None:
            e = mpf_add(e, _clenshaw_cheb(self.w_coeffs, x, prec), prec, rnd)
        return e

    def panel_constants(self, panel_index):
        """((left singularity index, right singularity index, log of the jump
        modulus as a raw mpf), jump phase) on one panel: its constant jump
        factor is e^{jump_re + i jump_im} = e^{i pi jump}, each t_j left of
        the panel giving e^{-i pi beta_j}, the rest e^{+i pi beta_j}."""
        m, p = len(self.sings), panel_index
        left = p - 1 if p >= 1 else None
        right = p if p < m else None
        jump = sum(s.beta for s in self.sings[p:]) - sum(s.beta for s in self.sings[:p])
        jump_re = -mp.pi * mp.mpf(jump.imag)
        jump_im = mp.pi * mp.mpf(jump.real)
        return (left, right, jump_re._mpf_), jump_im

    def value(self, x, half, up, um, consts):
        """(|w(x)|, theta) as raw mpf tuples at x = mid + half u, whose
        distances to the panel's ends are half up and half um (up = 1 + u,
        um = 1 - u): the weight is |w(x)| e^{i theta} times the panel's
        constant jump phase, with theta = sum_j Im(alpha_j) log|x - t_j|,
        or None when every alpha is real."""
        prec, rnd = self.prec, round_nearest
        left, right, jump_re = consts
        e = mpf_add(self._exponent_smooth(x), jump_re, prec, rnd)
        theta = fzero if self.complex_alpha else None
        for j, a_re, a_im in self.factors:
            if j == left:
                d = mpf_mul(half, up, prec, rnd)
            elif j == right:
                d = mpf_mul(half, um, prec, rnd)
            else:
                d = mpf_abs(mpf_sub(x, self.ts[j], prec, rnd), prec, rnd)
            ld = mpf_log(d, prec, rnd)
            e = mpf_add(e, mpf_mul(ld, a_re, prec, rnd), prec, rnd)
            if a_im is not None:
                theta = mpf_add(theta, mpf_mul(ld, a_im, prec, rnd), prec, rnd)
        return mpf_exp(e, prec, rnd), theta


def _floor_bits(prec, sing):
    """Exponent b of the transform-weight floor 2^-b at a panel end.

    Near a singularity |x - t|^alpha the integrand on a node of transform
    weight w' is about w'^(1 + Re alpha), so the tail dropped below the floor
    stays under 2^-(prec + 16) only if b = (prec + 16) / (1 + min(0, Re alpha)).
    Ends without a singularity, or with Re alpha >= 0, keep b = prec + 16.
    """
    re_alpha = 0.0 if sing is None else min(0.0, sing.alpha.real)
    return math.ceil((prec + 16) / (1.0 + re_alpha))


class _Run(NamedTuple):
    """Tanh-sinh nodes u in [0, 1) as raw mpf tuples (u, 1-u, 1+u, w'), and
    read-only float arrays of need, the least b with w' >= 2^-b, of u, and
    of log2 (1-u) and log2 w' from the mpf exponents (w' and 1-u underflow
    float64 at high precision)."""

    nodes: tuple
    need: np.ndarray
    u: np.ndarray
    log2_um: np.ndarray
    log2_w: np.ndarray


@lru_cache(maxsize=64)
def _tanh_sinh_run(level, only_odd, prec, floor_bits):
    """Tanh-sinh nodes of (0, 1) with step h = 2^-level, in order of j, for
    every j whose transform weight w' is at least 2^-floor_bits (always
    j = 0), as a _Run.

    w' excludes the step factor h (the progressive scheme rescales it at
    every refinement). The endpoint gaps 1 -/+ u are computed through
    2/(exp(+/-2s)+1), free of cancellation. ``only_odd`` yields just the j
    new to this level. The node -u of each j mirrors u, so one run serves
    both ends of every panel (_panel_run).
    """
    with mp.workprec(prec):
        h = mp.mpf(1) / (1 << level)
        half_pi = mp.pi / 2
        nodes, views = [], []
        j = 1 if only_odd else 0
        step = 2 if only_odd else 1
        while True:
            sinh_t = mp.sinh(j * h)
            s = half_pi * sinh_t
            e2s = mp.exp(2 * s)
            # cosh(t) / cosh(s)^2 with cosh(s)^2 = (e2s + 1)^2 / (4 e2s)
            w = 2 * mp.pi * mp.sqrt(1 + sinh_t * sinh_t) * e2s / (e2s + 1) ** 2
            _, man, exp, bc = w._mpf_
            need = 1 - exp - bc  # 2^(exp + bc - 1) <= w' < 2^(exp + bc)
            if need > floor_bits and j > 0:
                break
            one_minus = 2 / (e2s + 1)
            u = 1 - one_minus
            one_plus = 2 * e2s / (e2s + 1)
            nodes.append((u._mpf_, one_minus._mpf_, one_plus._mpf_, w._mpf_))
            views.append((need, float(u), _log2(one_minus._mpf_), _log2(w._mpf_)))
            j += step
    need, *cols = (np.array(c) for c in zip(*views))
    for c in (need, *cols):
        c.flags.writeable = False
    return _Run(tuple(nodes), need, *cols)


def _panel_run(level, prec, ends):
    """One level's tanh-sinh nodes on a panel whose ends have the floors
    (left bits, right bits) of _floor_bits: the run, the indices into it of
    the nodes towards the right end, u for every j whose w' reaches that
    end's floor, then of those towards the left end, -u for every such
    j > 0, and the count of the former. Levels after _START_LEVEL add the
    odd j only. Either way a node's distance to its own end is half (1 - u).
    """
    only_odd = level > _START_LEVEL
    run = _tanh_sinh_run(level, only_odd, prec, max(ends))
    n_left, n_right = (int(np.searchsorted(run.need, b, side="right")) for b in ends)
    return run, np.r_[0:n_right, (0 if only_odd else 1):n_left], n_right


def _find_cutoff(ws, max_power, precision_bits):
    """Half-width X beyond which x^max_power * w(x) is below the precision
    floor relative to the integrand's peak (float estimate; V dominates)."""

    def exponent(x):
        return _log_weight(ws, x).real + max_power * np.log(
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
    """log2 |v| of a raw mpf tuple as a float (-inf for zero)."""
    _, man, exp, _ = v
    return math.log2(man) + exp if man else -math.inf


def _fixed_abs(v, bits):
    """floor(|v| 2^bits) of a raw mpf tuple v, as a Python int."""
    _, man, exp, _ = v
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


def _estimate_abs_sums(lx, lm, n_mom):
    """Float log2 of T_j = sum m |x|^j (j < n_mom) and of max m over nodes
    with log2 |x| = lx and log2 m = lm."""
    with np.errstate(invalid="ignore"):
        e = lm + np.arange(n_mom)[:, None] * lx
    e[0] = lm  # |x|^0 = 1, also at x = 0
    top = e.max(axis=1)
    log2_t = top + np.log2(np.exp2(e - top[:, None]).sum(axis=1))
    return [float(t) for t in log2_t], float(lm.max())


def _stall_message(cur, prev, abs_sums, tol_exp, X, workprec, count, evaluator):
    """Name the moment whose last change overshot its tolerance the most,
    the nodes evaluated and screened out, the determinant size, and the
    float64 route."""
    def overshoot(j):  # log2 of |change| / tolerance
        t = abs_sums[j]
        tol = math.log2(t) + tol_exp if t else -math.inf
        return _log2(abs(cur[j] - prev[j])._mpf_) - tol

    failed = [j for j, t in enumerate(abs_sums)
              if abs(cur[j] - prev[j]) > mp.mpf((t, tol_exp))]
    j = max(failed, key=overshoot)
    return (
        f"moment quadrature stalled at level {_MAX_LEVEL}: moment j = {j} "
        f"last changed by 2^{overshoot(j):.4g} times its tolerance "
        f"(cutoff X = {X:.6g}, {workprec} working bits, {evaluator.evaluated} "
        f"nodes evaluated, {evaluator.skipped} screened out) for the "
        f"{count} x {count} determinant; op_recurrence_log_det computes this "
        f"determinant in float64"
    )


_SCREEN_MARGIN_BITS = 8  # of the zero-contribution screen's float estimate


def _log2_sizes(ws, panel, level, prec):
    """Float64 log2 |x| and log2 q |w(x)| at a panel's nodes of one level
    (_panel_run), and a bound of the latter's rounding: _log_weight at x =
    mid + half u, with the node's own end distance half (1 - |u|) from the
    run's log2 view, plus the panel's jump modulus and log(half w'). Its
    float64 rounding grows with the size of the logs it adds (log2 |x - t|
    reaches -(prec + 16)/(1 + Re alpha), near 1e18 for Re alpha = -1 +
    2^-53): the bound is 2^-48 times their total, above that of its
    roundings."""
    mid, half, (left, right, jump_re), ends = panel
    run, idx, n_right = _panel_run(level, prec, ends)
    mid, half = to_float(mid), to_float(half)
    log2_half, ln2 = math.log2(half), math.log(2)
    towards_right = np.arange(idx.size) < n_right
    own = np.where(towards_right, -1 if right is None else right,
                   -1 if left is None else left)
    log2_s = log2_half + run.log2_um[idx]
    log2_w = run.log2_w[idx]
    x = mid + half * np.where(towards_right, run.u[idx], -run.u[idx])
    with np.errstate(divide="ignore"):  # x may round onto its own end, or 0
        log_w = _log_weight(ws, x, own, log2_s * ln2).real
        log2_x = np.log2(np.abs(x))
    log2_q = (log_w + to_float(jump_re)) / ln2 + log2_half + log2_w
    alpha_sum = sum(abs(s.alpha) for s in ws.cfg)
    rounding = 2.0 ** -48 * (np.abs(log2_s) * (1.0 + alpha_sum)
                             + np.abs(log2_w) + np.abs(log2_q))
    return log2_x, log2_q, rounding


def _can_count(ws, panel, level, prec, G):
    """Mask of a panel's nodes of one level whose q |w(x)| may reach
    2^-(G + _SCREEN_MARGIN_BITS) by the float64 estimate of _log2_sizes,
    lowered by its rounding bound: the rest give floor(q |w(x)| 2^G) = 0
    and add nothing to any fixed-point sum (see compute_moments)."""
    _, log2_q, rounding = _log2_sizes(ws, panel, level, prec)
    return log2_q >= -(G + _SCREEN_MARGIN_BITS) - rounding


def _nodes(level, panels, evaluator, workprec, G):
    """Tanh-sinh nodes of one level on every panel that _can_count keeps,
    as raw mpf tuples (panel index, x, q |w(x)|, theta), with q the node's
    transform weight times the panel's half-width (the step h = 2^-level is
    applied to the sums); the others are skipped, unevaluated."""
    prec, rnd = workprec, round_nearest
    for p, panel in enumerate(panels):
        mid, half, consts, ends = panel
        run, idx, n_right = _panel_run(level, prec, ends)
        keep = np.flatnonzero(_can_count(evaluator.ws, panel, level, prec, G))
        evaluator.skipped += idx.size - keep.size
        evaluator.evaluated += keep.size
        for k, i in zip(keep.tolist(), idx[keep].tolist()):
            u, um, up, w = run.nodes[i]
            if k >= n_right:  # the mirror -u, towards the left end
                u, um, up = mpf_neg(u), up, um
            x = mpf_add(mid, mpf_mul(half, u, prec, rnd), prec, rnd)
            mod, theta = evaluator.value(x, half, up, um, consts)
            yield p, x, mpf_mul(mpf_mul(half, w, prec, rnd), mod, prec, rnd), theta


def compute_moments(ws, count, precision_bits):
    """Moments w_0 .. w_{2 count - 2} by progressive tanh-sinh panels, in
    mpmath arithmetic at precision_bits >= MIN_PRECISION_BITS plus 64 guard
    bits. The panels end at -X, X and every t_j; a weight without
    singularities is split at x = 0, since one panel [-X, X] would put its
    sparsest nodes at the weight's peak.

    Refinement doubles the node density until every moment is stable
    relative to its absolute-value integral (the scale at which the
    determinant feels cancellation); ConvergenceError if the level cap is
    hit first or the fixed-point sums miss their rounding bound, and before
    any node where the phase Im(alpha_j) log|x - t_j| would turn by more
    than pi per node of the finest level at the depth where |x -
    t_j|^(1 + Re alpha_j) meets 2^-(workprec + 16). Each node
    adds floor(q |w(x)| |x|^j 2^G) (see _fraction_bits) to its panel's
    integer sums for x >= 0 or x < 0, S+_j and S-_j: then sum q |w| x^j =
    S+_j + (-1)^j S-_j and the tolerance scale sum q |w| |x|^j = S+_j + S-_j.
    A panel's constant jump phase multiplies its sums once per level; only
    complex alpha adds per-node sums of q |w| cos(theta), q |w| sin(theta).

    The weight is evaluated in libmp arithmetic on raw mpf tuples
    (_WeightEvaluator), the same operations in the same order as mpf
    objects, and the nodes reach the integer sums as raw tuples. G comes
    from the float64 estimates of log2(q |w(x)|) and log2 |x| that
    _log2_sizes makes at level _START_LEVEL's nodes, before any node is
    evaluated. Every level, that one included, runs alike: _can_count
    skips every node whose estimate lies below -G - _SCREEN_MARGIN_BITS.
    Such a node adds floor(q |w| 2^G) = 0 to every sum and leaves max q |w|
    alone, so the sums, the level of convergence, the rounding-bound check
    and the moments are those of the unscreened nodes, bit for bit, for
    every weight with real alpha. With complex alpha a skipped node's
    negative q |w| cos(theta) or q |w| sin(theta) would have added
    floor(...) = -1 and its integer powers, at most (j + 1) X'^j units of
    2^-(G + level) at moment j: inside the per-node truncation budget of
    _fraction_bits.
    """
    if precision_bits < MIN_PRECISION_BITS:
        raise DomainError(f"precision_bits must be >= {MIN_PRECISION_BITS}")
    count = as_integer(count, "count")
    n_mom = 2 * count - 1
    X = _find_cutoff(ws, n_mom - 1, precision_bits)
    workprec = precision_bits + _GUARD_BITS
    if not ws.cfg:
        ws = replace(ws, cfg=SingularityConfig((Singularity(0.0),)))
    for s in ws.cfg:
        turn = (abs(s.alpha.imag) * (workprec + 16) * math.log(2)
                / ((1 + s.alpha.real) * (1 << _MAX_LEVEL)))
        if turn > math.pi:
            raise ConvergenceError(
                f"moment quadrature cannot resolve |x - t|^(i Im alpha) at t = {s.t}, "
                f"alpha = {s.alpha}: its phase turns by {turn:.3g} rad per node at "
                f"level {_MAX_LEVEL}; op_recurrence_log_det computes this "
                f"determinant in float64")

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
            panels.append((((a + b) / 2)._mpf_, ((b - a) / 2)._mpf_, consts, ends))
            units.append(mp.expj(jump_im))
        n_parts = 3 if evaluator.complex_alpha else 1
        # acc[panel][x < 0][part][j]; parts: q|w|, q|w| cos(theta), q|w| sin(theta)
        acc = [[[[0] * n_mom for _ in range(n_parts)] for _ in range(2)]
               for _ in panels]
        log2_x, log2_q = (np.concatenate(a) for a in zip(*(
            _log2_sizes(ws, panel, _START_LEVEL, workprec)[:2] for panel in panels)))
        G = _HEADROOM_BITS + math.ceil(_fraction_bits(
            workprec, n_mom, X, *_estimate_abs_sums(log2_x, log2_q, n_mom)))

        def level_sums(level):
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

        a_max, rnd = 0, round_nearest
        for level in range(_START_LEVEL, _MAX_LEVEL + 1):
            for p, x, m, theta in _nodes(level, panels, evaluator, workprec, G):
                xi = _fixed_abs(x, G)
                a = _fixed_abs(m, G)
                a_max = max(a_max, a)
                parts = acc[p][x[0]]  # the sign bit: x < 0
                _add_powers(parts[0], a, xi, G)
                if theta is not None:
                    for part, f in zip(parts[1:], mpf_cos_sin(theta, workprec, rnd)):
                        _add_powers(part, to_fixed(mpf_mul(m, f, workprec, rnd), G), xi, G)
            cur, abs_sums = level_sums(level)
            # |change| <= 2^-(precision_bits + 16) times the h-scaled abs sum
            tol_exp = -(G + level + precision_bits + 16)
            if level > _START_LEVEL and all(abs(c - p) <= mp.mpf((t, tol_exp))
                                            for c, p, t in zip(cur, prev, abs_sums)):
                break
            if level == _MAX_LEVEL:
                raise ConvergenceError(_stall_message(
                    cur, prev, abs_sums, tol_exp, X, workprec, count, evaluator))
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
    k = as_integer(k, "k")
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
    route. With no precision_bits given, the moment route runs at 128, 256,
    512, ... bits up to default_precision_bits(n) and stops at the first
    rung that agrees with the reference; where the recurrence raises
    ConvergenceError there is no reference, the cap runs once and the result
    is not converged. An explicit precision_bits is a single rung.
    ``converged`` is agreement with the reference to AGREEMENT_TOL in
    log_abs and phase mod 2 pi (never for a zero determinant);
    precision_bits is the rung returned. A ConvergenceError of the moment
    quadrature propagates: more bits only need more quadrature levels.
    """
    try:
        ref = op_recurrence_log_det(ws)
    except ConvergenceError:
        ref = None
    cap = default_precision_bits(ws.n)
    rungs = ((precision_bits,) if precision_bits is not None
             else (cap,) if ref is None else _precision_ladder(cap))
    for pb in rungs:
        result = hankel_log_det(compute_moments(ws, ws.n, pb), ws.n, pb)
        converged = ref is not None and _agree(result.log_abs, result.phase,
                                               ref.log_abs, ref.phase)
        if converged:
            break
    return replace(result, converged=converged)


_LAYERS, _GRADING = 12, 0.15  # geometric layers towards a singular end, and their ratio
_END_NODES = 10  # of the product rule below the layers
_MAX_DOUBLINGS = 3  # of m in the recurrence's certificate


@lru_cache(maxsize=64)
def _gauss_legendre(m):
    """m-point Gauss-Legendre rule on (0, 1): read-only nodes and weights
    summing to 1, by Newton's method on the three-term recurrence from
    Tricomi's guesses for the roots of P_m; the last pass takes P_m' at the
    converged roots."""
    x = (1 - (m - 1) / (8.0 * m ** 3)) * np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    step = 1.0  # of Newton's method, on all roots at once
    while True:
        p_prev, p = np.ones_like(x), x
        for j in range(2, m + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = m * (x * p - p_prev) / (x * x - 1)
        if np.abs(step).max() < 1e-14:
            break
        step = p / dp
        x = x - step
    nodes, weights = (1 - x) / 2, 1 / ((1 - x * x) * dp * dp)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _end_weights(alpha):
    """Gauss-Legendre nodes v_i on (0, 1) and product weights c_i v_i^-alpha:
    sum c_i f(v_i) = int_0^1 v^alpha f(v) dv for f of degree < _END_NODES,
    with c_i = lambda_i sum_k (2k + 1) P_k(2 v_i - 1) mu_k and the moments
    mu_k = int_0^1 v^alpha P_k(2v - 1) dv
         = prod_{i<k} (alpha - i) / prod_{i=1}^{k+1} (alpha + i).
    Real for real alpha, and negative at some nodes as alpha nears -1."""
    v, lam = _gauss_legendre(_END_NODES)
    u, p_prev, p = 2 * v - 1, 0.0, 1.0
    mu, total = 1 / (alpha + 1), 0.0
    for k in range(_END_NODES):
        total = total + (2 * k + 1) * mu * p
        mu = mu * (alpha - k) / (alpha + k + 2)
        p_prev, p = p, ((2 * k + 1) * u * p - k * p_prev) / (k + 1)
    return v, lam * total * v ** -alpha


def _discretise(ws, X, m):
    """Nodes x of w's float64 discretisation, the logs of their weights
    (complex unless w is positive) and where they are negative.

    Each panel between -X, the t_j and X is halved. A half of width h that
    ends at a t_j with alpha_j != 0 has _LAYERS layers s = |x - t_j| in
    [h sigma^(k+1), h sigma^k], sigma = _GRADING, of m Gauss-Legendre nodes
    each, and on [0, h sigma^_LAYERS] the product rule of _end_weights;
    every other half has 4m Gauss-Legendre nodes. Each node carries the
    whole weight, |x - t_j| at its half's own end taken as its s. A
    positive w keeps real logarithms, and its negative weights apart.
    """
    sings, positive = list(ws.cfg), ws.is_positive
    bounds = [-X] + [s.t for s in sings] + [X]
    xs, qs, own, log_s = [], [], [], []
    for p in range(len(bounds) - 1):
        h = (bounds[p + 1] - bounds[p]) / 2
        for j, end, side in ((p - 1, bounds[p], 1.0), (p, bounds[p + 1], -1.0)):
            alpha = sings[j].alpha if 0 <= j < len(sings) else 0
            if alpha == 0:
                v, lam = _gauss_legendre(4 * m)
                s, q = h * v, h * lam
            else:
                v, lam = _gauss_legendre(m)
                v_end, c = _end_weights(alpha if alpha.imag else alpha.real)
                top = h * _GRADING ** np.arange(_LAYERS)[:, None]
                delta = h * _GRADING ** _LAYERS
                s = np.append(top * (_GRADING + (1 - _GRADING) * v), delta * v_end)
                q = np.append(top * (1 - _GRADING) * lam, delta * c)
            xs.append(end + side * s)
            qs.append(q)
            own.append(np.full(s.size, j))
            log_s.append(np.log(s) if alpha else np.zeros(s.size))  # used if alpha
    x, q = np.concatenate(xs), np.concatenate(qs)
    log_w = _log_weight(ws, x, np.concatenate(own), np.concatenate(log_s))
    for sing in sings:  # the jump factor e^{+-i pi beta}, + left of t
        if sing.beta:
            log_w = log_w + (1j * np.pi * sing.beta if not positive
                             else -np.pi * sing.beta.imag) * np.sign(sing.t - x)
    if not positive:
        return x, log_w + np.log(q + 0j), False
    return x, log_w + np.log(np.abs(q)), q < 0


def _lanczos_log_det(n, x, log_w, negative):
    """Complex log D_n of the weights e^log_w, negated where ``negative``, at
    the nodes x, by Lanczos on diag(x) in the bilinear form sum f g (np.dot
    does not conjugate) from f = e^{(log_w - shift) / 2}, times i where
    negative: halving the log before exp keeps the support's edge from
    underflowing, and the Lanczos vectors stay normalised. A real weight
    with negative entries runs in complex arithmetic whose imaginary parts
    stay exactly 0. log D_n = n log h_0 + sum_k 2(n - k) log b_k."""
    shift, real = log_w.real.max(), not np.iscomplexobj(log_w)
    r, f, b = np.exp((log_w - shift) / 2), 0.0, 0.0
    if np.any(negative):
        r = np.where(negative, 1j * r, r)
    log_det = n * shift
    for k in range(n):
        norm = np.dot(r, r)  # h_0, then b_k^2 = h_k / h_{k-1}
        if not abs(norm) < math.inf or norm == 0 or (real and norm.real < 0):
            raise ConvergenceError(f"squared norm h_{k} zero, negative or not finite")
        log_det += (n - k) * np.log(norm)
        f_prev, b = f, np.sqrt(norm)
        f = r / b
        if k < n - 1:
            r = (x - np.dot(f, x * f)) * f - b * f_prev
    return complex(log_det)


def op_recurrence_log_det(ws):
    """log D_n by Lanczos on a float64 graded Gauss-Legendre discretisation
    of every admitted weight, sharing no nodes, cutoff or arithmetic with
    the moment determinant. The value at m = n + 25 is returned once 2m
    reproduces it to AGREEMENT_TOL in log_abs and phase mod 2 pi, else m
    doubles, at most _MAX_DOUBLINGS times; then ConvergenceError names m,
    both values and the gap. Each doubling must shrink the gap (the larger
    of the log_abs and phase gaps): past the reach of float64 the gap is
    rounding, about eps |log D_n|, which more nodes cannot shrink, and
    ConvergenceError names m, the last two gaps and that scale at once. A
    positive weight reports phase 0."""
    n, m = ws.n, ws.n + 25
    X = _find_cutoff(ws, 2 * n - 2, _FLOAT_BITS)
    coarse = _lanczos_log_det(n, *_discretise(ws, X, m))
    gap = math.inf
    while True:
        fine = _lanczos_log_det(n, *_discretise(ws, X, 2 * m))
        if _agree(coarse.real, coarse.imag, fine.real, fine.imag):
            return HankelResult(coarse.real, wrap_phase(coarse.imag), n,
                                _FLOAT_BITS, OP_RECURRENCE)
        last, gap = gap, max(abs(fine.real - coarse.real),
                             abs(wrap_phase(fine.imag - coarse.imag)))
        if gap >= last:
            raise ConvergenceError(
                f"graded Gauss-Legendre recurrence stopped converging at m = {m}: "
                f"doubling m moved log D_{n} by {gap:.3g} after {last:.3g}, against "
                f"a float64 rounding scale eps |log D_{n}| = "
                f"{np.finfo(float).eps * abs(fine.real):.3g}")
        if m == (n + 25) << _MAX_DOUBLINGS:
            raise ConvergenceError(
                f"graded Gauss-Legendre recurrence unresolved at m = {m}: log D_{n} "
                f"= {coarse.real!r}, phase {wrap_phase(coarse.imag)!r}; at 2m "
                f"{fine.real!r}, {wrap_phase(fine.imag)!r}; gaps "
                f"{abs(fine.real - coarse.real):.3g} in log_abs, "
                f"{abs(wrap_phase(fine.imag - coarse.imag)):.3g} in phase")
        m, coarse = 2 * m, fine
