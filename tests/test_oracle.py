"""Extended-precision moments and determinants against closed forms."""

import dataclasses
import hashlib
import math
import re
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hankelfh as hf
from hankelfh.chebyshev import ChebSeries
import hankelfh.oracle as oracle_mod
from hankelfh.errors import ConvergenceError, DomainError
from hankelfh.oracle import MOMENT_DETERMINANT, OP_RECURRENCE, wrap_phase


def gue_weight(n):
    return hf.WeightSpec(hf.Potential.gue(), None, hf.SingularityConfig(), n)


def gue_product_log_hp(n, dps=60):
    with mp.workdps(dps):
        return (
            mp.mpf(n) / 2 * mp.log(2 * mp.pi)
            - n * n * mp.log(2)
            - mp.mpf(n * n) / 2 * mp.log(n)
            + mp.fsum(mp.loggamma(j + 1) for j in range(1, n))
        )


# ------------------------------------------------------------ compute_moments


def test_gaussian_moments_closed_form():
    # int x^{2k} e^{-2x^2} dx: w_0 = sqrt(pi/2), w_2 = w_0/4, odd zero
    moments = hf.compute_moments(gue_weight(1), 3, 256)
    with mp.workdps(90):
        w0 = mp.sqrt(mp.pi / 2)
        assert abs(moments[0] - w0) < mp.mpf(10) ** -70
        assert abs(moments[2] - w0 / 4) < mp.mpf(10) ** -70
        assert abs(moments[1]) < mp.mpf(10) ** -70
        assert abs(moments[3]) < mp.mpf(10) ** -70


def test_moments_odd_vanish_for_symmetric_weight():
    cfg = hf.SingularityConfig(
        (hf.Singularity(-0.4, 0.5, 0.0), hf.Singularity(0.4, 0.5, 0.0))
    )
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 2)
    moments = hf.compute_moments(ws, 4, 256)
    scale = abs(moments[0])
    for j in (1, 3, 5):
        assert abs(moments[j]) < mp.mpf(10) ** -60 * scale


def test_moment_with_root_singularity_at_origin():
    # |x| e^{-2x^2}: w_0 = 1/2 by the substitution u = x^2
    cfg = hf.SingularityConfig((hf.Singularity(0.0, 1.0, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 1)
    moments = hf.compute_moments(ws, 1, 256)
    with mp.workdps(90):
        assert abs(moments[0] - mp.mpf(1) / 2) < mp.mpf(10) ** -70


def test_moments_precision_validation():
    with pytest.raises(DomainError):
        hf.compute_moments(gue_weight(1), 2, 64)


# ------------------------------------------------------------ hankel_log_det


def test_single_moment_determinant():
    res = hf.hankel_log_det([mp.sqrt(mp.pi / 2)], 1, 256)
    assert abs(res.log_abs - 0.5 * np.log(np.pi / 2)) < 1e-15
    assert res.phase == 0.0
    assert res.method == MOMENT_DETERMINANT


def test_hand_determinant_2x2():
    res = hf.hankel_log_det([mp.mpf(1), mp.mpf(0), mp.mpf(1)], 2, 256)
    assert abs(res.log_abs) < 1e-15  # det = 1


def test_zero_determinant_reported_not_raised():
    res = hf.hankel_log_det([mp.mpf(1), mp.mpf(1), mp.mpf(1)], 2, 256)
    assert res.is_zero
    assert res.log_abs == float("-inf")


def test_gue_determinants_match_product_formula_tightly():
    # the A1-level closed form, at 1e-20 resolution via the hp field
    for n in range(1, 7):
        res = hf.oracle_log_det(gue_weight(n), 256)
        with mp.workdps(60):
            diff = abs(res.log_abs_hp - gue_product_log_hp(n))
        assert diff < mp.mpf(10) ** -20, n
        assert res.phase == 0.0
        assert res.converged


@pytest.mark.parametrize("n", [2.5, 3.0, True, 0, -2])
def test_weight_needs_an_integer_n(n):
    with pytest.raises(DomainError, match="need an integer n >= 1"):
        gue_weight(n)


def test_moment_count_validation():
    with pytest.raises(DomainError):
        hf.hankel_log_det([mp.mpf(1)] * 3, 3, 256)


# ------------------------------------------------------ op_recurrence_log_det


def test_method_agreement_gue():
    a = hf.oracle_log_det(gue_weight(4), 256)
    b = hf.op_recurrence_log_det(gue_weight(4))
    assert b.method == OP_RECURRENCE
    assert abs(a.log_abs - b.log_abs) < 1e-10
    assert abs(b.log_abs - hf.gue_exact_log(4)) < 1e-12


def test_method_agreement_with_root_singularities():
    cfg = hf.SingularityConfig((hf.Singularity(0.3, 2.0, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 6)
    a = hf.oracle_log_det(ws, 384)
    b = hf.op_recurrence_log_det(ws)
    assert abs(a.log_abs - b.log_abs) < 1e-10


def test_method_agreement_moderate_n():
    cfg = hf.SingularityConfig((hf.Singularity(-0.2, 0.6, 0.0),))
    weights = [hf.WeightSpec(hf.Potential.gue(), ChebSeries([0.0, 0.2]), cfg, 12)]
    # the thinned weights of the benchmark's exact gap probabilities
    for boundaries, s, n in (
        ((0.0,), {1: 0.5}, 6),
        ((-0.3, 0.4), {1: 0.8, 3: 0.35}, 8),
        ((0.0,), {1: 0.9}, 8),
    ):
        betas = hf.thinning_to_betas(hf.ThinningSpec(boundaries, s)).betas
        sings = tuple(hf.Singularity(t, 0.0, b) for t, b in zip(boundaries, betas))
        weights.append(hf.WeightSpec(hf.Potential.gue(), None, hf.SingularityConfig(sings), n))
    for ws in weights:
        a = hf.oracle_log_det(ws)
        b = hf.op_recurrence_log_det(ws)
        assert abs(a.log_abs - b.log_abs) < 1e-10, ws.cfg


def test_recurrence_sees_under_resolved_moments(monkeypatch):
    # a moment-route cutoff of 1.2 drops about 4e-3 of log D_4, which the
    # half-precision recheck cannot see; the recurrence keeps its own cutoff
    # and nodes, so the two routes disagree and converged says so
    find_cutoff = oracle_mod._find_cutoff

    def short_cutoff(ws, max_power, precision_bits):
        if precision_bits >= 128:
            return 1.2
        return find_cutoff(ws, max_power, precision_bits)

    monkeypatch.setattr(oracle_mod, "_find_cutoff", short_cutoff)
    a = hf.oracle_log_det(gue_weight(4))
    b = hf.op_recurrence_log_det(gue_weight(4))
    assert not a.converged
    assert abs(a.log_abs - b.log_abs) > 1e-6
    assert abs(b.log_abs - hf.gue_exact_log(4)) < 1e-12


@pytest.mark.parametrize("n", [48, 64])
def test_gue_converges_at_default_precision(n):
    # at the fixed max(256, 48 n) bits the moment quadrature stalled at level
    # 11 from n = 48; the ladder's 128-bit rung already agrees with the
    # recurrence
    res = hf.oracle_log_det(gue_weight(n))
    assert res.converged
    assert abs(res.log_abs - hf.gue_exact_log(n)) < 1e-9


def test_weight_without_singularities_is_split_at_zero(monkeypatch):
    # one panel [-X, X] put its sparsest nodes at the GUE weight's peak and
    # converged only at level 11 = _MAX_LEVEL here; split at 0 it converges
    # a level earlier
    levels, generate = [], oracle_mod._nodes

    def spy(level, panels, *args):
        levels.append((level, len(panels)))
        return generate(level, panels, *args)

    monkeypatch.setattr(oracle_mod, "_nodes", spy)
    moments = hf.compute_moments(gue_weight(24), 24, 1152)
    assert {count for _, count in levels} == {2}
    assert max(level for level, _ in levels) < oracle_mod._MAX_LEVEL
    det = hf.hankel_log_det(moments, 24, 1152)
    assert abs(det.log_abs - hf.gue_exact_log(24)) < 1e-9


@pytest.fixture
def rung_bits(monkeypatch):
    """The precision_bits of every compute_moments call, in order."""
    bits = []
    compute_moments = oracle_mod.compute_moments

    def spy(ws, count, precision_bits):
        bits.append(precision_bits)
        return compute_moments(ws, count, precision_bits)

    monkeypatch.setattr(oracle_mod, "compute_moments", spy)
    return bits


def test_ladder_stops_at_the_first_agreeing_rung(rung_bits):
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.0, 0.1j),))
    res = hf.oracle_log_det(hf.WeightSpec(hf.Potential.gue(), None, cfg, 8))
    assert rung_bits == [128]
    assert res.precision_bits == 128 and res.converged


def test_ladder_runs_the_cap_once_without_a_reference(monkeypatch, rung_bits):
    # where the recurrence raises there is no reference: the cap runs once and
    # nothing has checked the moments, so the result is not converged
    def unresolved(ws):
        raise ConvergenceError("recurrence unresolved")

    monkeypatch.setattr(oracle_mod, "op_recurrence_log_det", unresolved)
    res = hf.oracle_log_det(gue_weight(6))
    assert rung_bits == [hf.default_precision_bits(6)] == [288]
    assert res.precision_bits == 288 and not res.converged
    assert abs(res.log_abs - hf.gue_exact_log(6)) < 1e-12


def test_no_reference_check_sees_the_phase(monkeypatch, rung_bits):
    # complex alpha is checked against the recurrence like any weight; a
    # difference in phase alone, of 1e-6, must refuse every rung
    recurrence = oracle_mod.op_recurrence_log_det

    def off_in_phase(ws):
        ref = recurrence(ws)
        return dataclasses.replace(ref, phase=ref.phase + 1e-6)

    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.5 + 0.3j, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 6)
    assert hf.oracle_log_det(ws).converged
    rung_bits.clear()
    monkeypatch.setattr(oracle_mod, "op_recurrence_log_det", off_in_phase)
    res = hf.oracle_log_det(ws)
    assert rung_bits == [128, 256, 288]
    assert res.precision_bits == 288
    assert not res.converged


def test_explicit_precision_is_a_single_rung(rung_bits):
    res = hf.oracle_log_det(gue_weight(4), 320)
    assert rung_bits == [320]
    assert res.precision_bits == 320 and res.converged


def test_ladder_climbs_to_the_cap_on_disagreement(monkeypatch, rung_bits):
    recurrence = oracle_mod.op_recurrence_log_det

    def shifted(ws):
        ref = recurrence(ws)
        return dataclasses.replace(ref, log_abs=ref.log_abs + 1e-6)

    monkeypatch.setattr(oracle_mod, "op_recurrence_log_det", shifted)
    res = hf.oracle_log_det(gue_weight(8))
    assert rung_bits == [128, 256, 384]
    assert res.precision_bits == 384
    assert not res.converged
    assert abs(res.log_abs - hf.gue_exact_log(8)) < 1e-12


def test_recurrence_takes_complex_beta_and_complex_alpha():
    # a real beta makes the jump factor e^{+-i pi beta} complex, a complex
    # alpha the factor |x - t|^{i Im alpha}; the recurrence runs in the
    # bilinear form and must match the moment route
    for sings, n in (
        (((0.0, 0.0, 0.1),), 8),
        (((-0.4, 1.0, 0.05 + 0.05j), (0.5, 0.6, -0.08j)), 8),  # jump_compare's pair
        (((0.2, 0.5 + 0.3j, 0.0),), 6),
        (((-0.3, -0.4 + 0.5j, 0.2 + 0.1j), (0.6, 1.2 - 0.7j, -0.15)), 6),
        (((0.0, -0.9 + 0.2j, 0.0),), 6),
        # a rule resolving |x - t|^{i Im alpha} at t only algebraically
        # missed this one by 1.1e-10 inside its certificate
        (((0.2, 0.5 + 3.5e-5j, 0.0),), 3),
    ):
        cfg = hf.SingularityConfig(tuple(hf.Singularity(*s) for s in sings))
        ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, n)
        a = hf.oracle_log_det(ws, 256)
        b = hf.op_recurrence_log_det(ws)
        assert a.converged, sings
        assert abs(a.log_abs - b.log_abs) < 1e-12, sings
        assert abs(wrap_phase(a.phase - b.phase)) < 1e-12, sings


def test_gauss_legendre_rules_are_cached_read_only_and_sum_to_one():
    nodes, weights = oracle_mod._gauss_legendre(41)
    again = oracle_mod._gauss_legendre(41)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert abs(weights.sum() - 1.0) < 1e-14
    assert 0.0 < nodes.min() and nodes.max() < 1.0


@pytest.mark.parametrize("n", [4, 12, 40])
@pytest.mark.parametrize("alpha", [1.0, -0.5, -0.9, -0.999, -1 + 1e-9])
def test_recurrence_matches_generalised_hermite_norms(alpha, n):
    # |x|^alpha e^{-2n x^2} is |y|^alpha e^{-y^2} in y = sqrt(2n) x, whose
    # monic norms are h_{2j} = j! Gamma(j + alpha/2 + 1/2) and h_{2j+1} =
    # j! Gamma(j + alpha/2 + 3/2); near alpha = -1 the product rule at t = 0
    # has negative weights, and a positive weight must still report phase 0
    cfg = hf.SingularityConfig((hf.Singularity(0.0, alpha, 0.0),))
    res = hf.op_recurrence_log_det(hf.WeightSpec(hf.Potential.gue(), None, cfg, n))
    exact = sum(
        math.lgamma(k // 2 + 1) + math.lgamma(k // 2 + alpha / 2 + (0.5 if k % 2 == 0 else 1.5))
        for k in range(n)
    ) - (n * n + n * alpha) / 2 * math.log(2 * n)
    assert abs(res.log_abs - exact) < 1e-11
    assert res.phase == 0.0


def far_mass_weight():
    """Quartic c4 = 0.05 with a T_3 field of 0.358 and alpha = 0.5 at 0, n = 1:
    e^{-V + W} peaks near x = 21, far out on [-X, X]."""
    V = hf.Potential([0.0, 0.0, 2.0 - 1.5 * 0.05, 0.0, 0.05])
    cfg = hf.SingularityConfig((hf.Singularity(0.0, 0.5, 0.0),))
    return hf.WeightSpec(V, ChebSeries([0.0, 0.0, 0.0, 0.358]), cfg, 1)


def discretised_m(monkeypatch):
    """The m of every discretisation the recurrence builds, in order."""
    ms, discretise = [], oracle_mod._discretise
    monkeypatch.setattr(oracle_mod, "_discretise",
                        lambda ws, X, m: ms.append(m) or discretise(ws, X, m))
    return ms


def test_recurrence_certifies_mass_far_outside_the_support(monkeypatch):
    # m = n + 25 is far from resolving the far peak; the certificate doubles
    # m until it is
    ws = far_mass_weight()
    ms = discretised_m(monkeypatch)
    rec = hf.op_recurrence_log_det(ws)
    assert ms[0] == 26 and max(ms) > 2 * 26
    det = hf.oracle_log_det(ws, 256)
    assert det.converged
    assert abs(rec.log_abs - det.log_abs) < 1e-10


def test_recurrence_names_m_both_values_and_the_gap_when_unresolved(monkeypatch):
    # with no doubling allowed, the far-mass weight stays unresolved
    monkeypatch.setattr(oracle_mod, "_MAX_DOUBLINGS", 0)
    with pytest.raises(ConvergenceError, match=(
        r"^graded Gauss-Legendre recurrence unresolved at m = 26: log D_1 = [\d.]+, "
        r"phase 0\.0; at 2m [\d.]+, 0\.0; gaps [\d.e-]+ in log_abs, 0 in phase$"
    )):
        hf.op_recurrence_log_det(far_mass_weight())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recurrence_certifies_a_jump_at_n_400():
    # where the weight underflows, orthonormal polynomial values grow like
    # (X + sqrt(X^2 - 1))^k and overflow before n = 400; Lanczos vectors carry
    # the weight's square root and stay normalised
    ws = hf.WeightSpec(hf.Potential.gue(), None,
                       hf.SingularityConfig((hf.Singularity(0.2, 0.0, 0.1j),)), 400)
    value = hf.op_recurrence_log_det(ws)
    mirror = hf.op_recurrence_log_det(reflected(ws))
    assert np.isfinite(value.log_abs) and value.phase == 0.0
    assert abs(mirror.log_abs - value.log_abs) <= 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recurrence_refuses_a_jump_past_its_reach(monkeypatch):
    # at n = 700 the m/2m gap is float64 rounding: doubling m from 1450 moves
    # log D_n more than doubling from 725 did, so the certificate refuses
    # then, instead of doubling m to the cap and passing by chance
    ws = hf.WeightSpec(hf.Potential.gue(), None,
                       hf.SingularityConfig((hf.Singularity(0.2, 0.0, 0.1j),)), 700)
    ms = discretised_m(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=(
        r"^graded Gauss-Legendre recurrence stopped converging at m = 1450: doubling "
        r"m moved log D_700 by [\d.e-]+ after [\d.e-]+, against a float64 rounding "
        r"scale eps \|log D_700\| = [\d.e-]+$"
    )):
        hf.op_recurrence_log_det(ws)
    assert time.perf_counter() - start < 3.0
    assert ms == [725, 1450, 2900]


@st.composite
def weights(draw, max_n):
    """A weight from the whole hypothesis domain: the Gaussian potential or
    an even quartic with support [-1, 1], a 4-term field (no T_3 term under
    the Gaussian, where e^W would outgrow e^{-nV}), 1-3 singularities in
    [-0.9, 0.9] at least 0.05 apart with Re alpha in (-1, 3], Im alpha 0 or
    in [-1, 1], |Re beta| < 1/4 and |Im beta| <= 0.3, and n <= max_n."""
    c4 = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
    V = hf.Potential([0.0, 0.0, 2.0 - 1.5 * c4, 0.0, c4])
    w = draw(st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4))
    W = ChebSeries(w[:3] + [w[3] if c4 else 0.0])
    ts = sorted(draw(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=3)))
    assume(all(b - a >= 0.05 for a, b in zip(ts, ts[1:])))
    sings = tuple(
        hf.Singularity(
            t,
            complex(draw(st.floats(-1.0, 3.0, exclude_min=True)),
                    draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))),
            complex(draw(st.floats(-0.25, 0.25, exclude_min=True, exclude_max=True)),
                    draw(st.floats(-0.3, 0.3))),
        )
        for t in ts
    )
    return hf.WeightSpec(V, W, hf.SingularityConfig(sings), draw(st.integers(1, max_n)))


def reflected(ws):
    """x -> -x: (W(x), t, alpha, beta) -> (W(-x), -t, alpha, -beta), which
    leaves D_n of an even V unchanged."""
    W = ChebSeries(ws.W.coeffs * (-1.0) ** np.arange(len(ws.W.coeffs)))
    cfg = hf.SingularityConfig(tuple(
        hf.Singularity(-s.t, s.alpha, -s.beta) for s in reversed(ws.cfg.singularities)
    ))
    return hf.WeightSpec(ws.V, W, cfg, ws.n)


@settings(max_examples=100, deadline=None)
@given(weights(max_n=12))
def test_recurrence_over_the_whole_domain(ws):
    # a finite, reflection-invariant value or an unresolved discretisation,
    # never anything else
    try:
        value = hf.op_recurrence_log_det(ws)
    except ConvergenceError:
        return
    assert np.isfinite(value.log_abs)
    mirror = hf.op_recurrence_log_det(reflected(ws))
    assert abs(mirror.log_abs - value.log_abs) <= 1e-10
    assert abs(wrap_phase(mirror.phase - value.phase)) <= 1e-10


@settings(max_examples=10, deadline=None)
@given(weights(max_n=3))
def test_recurrence_matches_moment_determinant_over_the_whole_domain(ws):
    try:
        value = hf.op_recurrence_log_det(ws)
    except ConvergenceError:  # allowed by the test above
        return
    try:
        det = hf.oracle_log_det(ws, 256)
    except ConvergenceError as err:
        # as Re alpha nears -1, |x - t|^(i Im alpha) turns too fast for the
        # moment route near t: a typed refusal up front, never a stall
        assert "cannot resolve |x - t|^(i Im alpha)" in str(err)
        return
    assert det.converged
    assert abs(value.log_abs - det.log_abs) <= 1e-10
    assert abs(wrap_phase(value.phase - det.phase)) <= 1e-10


# ------------------------------------------------------------------ invariants


def test_precision_robustness_doubling():
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.7, 0.05j),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 6)
    r1 = hf.oracle_log_det(ws, 256)
    r2 = hf.oracle_log_det(ws, 512)
    assert abs(r1.log_abs - r2.log_abs) < 1e-10
    assert abs(r1.phase - r2.phase) < 1e-10
    assert r1.converged and r2.converged


def test_positive_weight_phase_zero():
    cfg = hf.SingularityConfig((hf.Singularity(0.1, 1.5, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), ChebSeries([0.3, 0.1]), cfg, 5)
    res = hf.oracle_log_det(ws, 256)
    assert res.phase == 0.0
    assert np.isfinite(res.log_abs)


def test_weight_scaling_covariance():
    # multiplying the weight by c shifts log D_n by n log c
    n, c = 5, 1.7
    base = hf.oracle_log_det(gue_weight(n), 256)
    scaled_ws = hf.WeightSpec(
        hf.Potential.gue(), ChebSeries([np.log(c)]), hf.SingularityConfig(), n
    )
    scaled = hf.oracle_log_det(scaled_ws, 256)
    assert abs(scaled.log_abs - base.log_abs - n * np.log(c)) < 1e-12


def test_jump_weight_with_imaginary_beta_is_positive():
    # purely imaginary jump exponents (every thinning weight) give a positive
    # weight: phase 0, and the recurrence route applies
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.0, 0.1j),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 4)
    assert ws.is_positive
    res = hf.oracle_log_det(ws, 256)
    assert res.phase == 0.0
    rec = hf.op_recurrence_log_det(ws)
    assert abs(res.log_abs - rec.log_abs) < 1e-10


def test_complex_alpha_gives_complex_determinant():
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.5 + 0.3j, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 3)
    res = hf.oracle_log_det(ws, 256)
    assert res.phase != 0.0
    assert res.converged


# ------------------------------------------------------- negative root exponents


@pytest.mark.parametrize(
    "alpha, reference",
    # log D_4 at GUE, t = 0, from an independent float64 route (Gauss-Jacobi
    # panels and Lanczos)
    [(-0.3, -14.4989042808910), (-0.5, -13.3397402250119)],
)
def test_negative_alpha_converges_at_default_precision(alpha, reference):
    cfg = hf.SingularityConfig((hf.Singularity(0.0, alpha, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 4)
    res = hf.oracle_log_det(ws)
    assert res.converged
    assert abs(res.log_abs - reference) < 1e-9
    rec = hf.op_recurrence_log_det(ws)
    assert abs(res.log_abs - rec.log_abs) < 1e-10


# ------------------------------------------- fixed-point moment accumulation


def mpf_reference_moments(monkeypatch, ws, count, precision_bits):
    """compute_moments' result with plain mpf sums of q w(x) x^j, and of
    q |w(x)| |x|^j (the tolerance scale), over the same converged nodes,
    which a spy on the node generator records."""
    levels, points = [], []
    generate = oracle_mod._nodes

    def spy(level, *args):
        levels.append(level)
        for p, *raw_values in generate(level, *args):
            points.append((p, *(None if v is None else mp.make_mpf(v)
                                for v in raw_values)))
            yield (p, *raw_values)

    monkeypatch.setattr(oracle_mod, "_nodes", spy)
    moments = hf.compute_moments(ws, count, precision_bits)
    n_mom = 2 * count - 1
    with mp.workprec(precision_bits + oracle_mod._GUARD_BITS):
        evaluator = oracle_mod._WeightEvaluator(ws)
        units = [mp.expj(evaluator.panel_constants(p)[1])
                 for p in range(len(ws.cfg) + 1)]
        h = mp.mpf(2) ** -max(levels)
        sums = [mp.mpf(0)] * n_mom
        abs_sums = [mp.mpf(0)] * n_mom
        for p, x, m, theta in points:
            d = h * m
            if not ws.is_positive:
                d *= units[p] * (1 if theta is None else mp.expj(theta))
            ap, ax = abs(d), abs(x)
            for j in range(n_mom):
                sums[j] += d
                abs_sums[j] += ap
                d *= x
                ap *= ax
    return moments, sums, abs_sums


@pytest.mark.parametrize(
    "sings, n, precision_bits",
    [
        # positive weight with 47 moments (at 1152 bits the mpf reference
        # alone takes about 25 s)
        ((), 24, 256),
        # the complex-beta pair of the benchmark's compare workload
        (((-0.4, 1.0, 0.05 + 0.05j), (0.5, 0.6, -0.08j)), 6, 384),
        (((0.2, 0.5 + 0.3j, 0.0),), 3, 256),  # complex alpha
    ],
    ids=["positive-n24", "complex-beta-pair", "complex-alpha"],
)
def test_integer_moments_match_mpf_sums(monkeypatch, sings, n, precision_bits):
    cfg = hf.SingularityConfig(tuple(hf.Singularity(*s) for s in sings))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, n)
    moments, sums, abs_sums = mpf_reference_moments(
        monkeypatch, ws, n, precision_bits
    )
    assert {type(m) for m in moments} == {mp.mpf if ws.is_positive else mp.mpc}
    rel_tol = mp.mpf(2) ** -(precision_bits + 16)
    for m, s, a in zip(moments, sums, abs_sums):
        assert abs(m - s) <= rel_tol * a


def raw(value):
    return getattr(value, "_mpf_", None) or value._mpc_


@pytest.mark.parametrize(
    "V, W, sings, n, precision_bits",
    [
        (hf.Potential.gue(), None, ((0.2, 0.0, 0.1j),), 8, 128),
        (hf.Potential.gue(), None, ((-0.4, 1.0, 0.05 + 0.05j), (0.5, 0.6, -0.08j)),
         12, 256),
        (hf.Potential([0.0, 0.0, 2.0 - 1.5 * 0.4, 0.0, 0.4]),
         ChebSeries([0.0, 0.5, 0.25]), ((0.0, 0.8),), 8, 256),
        # w' and 1 -/+ u underflow float64 here (w' near 2^-3100): the
        # screen's float views must come from the mpf exponents
        pytest.param(hf.Potential.gue(), None, ((0.0, -0.5),), 4, 1536,
                     marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
        (hf.Potential.gue(), None, ((0.2, 0.5 + 0.3j, 0.0),), 3, 256),
    ],
    ids=["jump", "complex-beta-pair", "quartic-field", "alpha-neg-half-1536",
         "complex-alpha"],
)
def test_screen_skips_only_nodes_that_add_nothing(monkeypatch, V, W, sings, n,
                                                  precision_bits):
    # with every node kept the moments are the same bit for bit; complex
    # alpha may move its cos/sin sums by the per-node truncation budget of
    # _fraction_bits for each skipped node, a floor(negative) = -1 at the
    # step h = 2^-level of the node's own level, the start level included
    ws = hf.WeightSpec(V, W, hf.SingularityConfig(tuple(hf.Singularity(*s) for s in sings)), n)
    screen, skipped, bits = oracle_mod._can_count, {}, set()

    def counting(ws, panel, level, prec, G):
        keep = screen(ws, panel, level, prec, G)
        skipped[level] = skipped.get(level, 0) + int(keep.size - keep.sum())
        bits.add(G)
        return keep

    def keep_all(ws, panel, level, prec, G):
        return np.ones(oracle_mod._panel_run(level, prec, panel[3])[1].size, bool)

    monkeypatch.setattr(oracle_mod, "_can_count", counting)
    screened = hf.compute_moments(ws, n, precision_bits)
    monkeypatch.setattr(oracle_mod, "_can_count", keep_all)
    full = hf.compute_moments(ws, n, precision_bits)
    assert sum(skipped.values()) > 0
    if ws.cfg.singularities[0].alpha.imag == 0:
        assert [raw(m) for m in screened] == [raw(m) for m in full]
        return
    (G,) = bits
    x_max = max(1.0, oracle_mod._find_cutoff(ws, 2 * n - 2, precision_bits))
    with mp.workprec(precision_bits + oracle_mod._GUARD_BITS):
        steps = sum(k * mp.mpf(2) ** -(G + level) for level, k in skipped.items())
        for j, (a, b) in enumerate(zip(screened, full)):
            # re and im parts
            assert abs(a - b) <= 2 * steps * (j + 1) * mp.mpf(x_max) ** j


def test_fixed_point_scale_below_its_bound_raises(monkeypatch):
    # G is set from the start level's own sums, which the final sums only
    # exceed, so the post-convergence check needs a scale cut below the
    # bound to fire; it must raise instead of returning rounded moments
    monkeypatch.setattr(oracle_mod, "_HEADROOM_BITS", -16)
    with pytest.raises(ConvergenceError, match="fractional bits"):
        hf.compute_moments(gue_weight(6), 6, 256)


def test_stall_names_the_worst_moment_and_by_how_much(monkeypatch):
    # one refinement step cannot converge; the error must say where (moment
    # index, cutoff, working bits, determinant size), by how much (bits over
    # tolerance), how many nodes it evaluated and screened out, and that the
    # float64 route exists
    monkeypatch.setattr(oracle_mod, "_MAX_LEVEL", oracle_mod._START_LEVEL + 1)
    with pytest.raises(ConvergenceError) as info:
        hf.compute_moments(gue_weight(6), 6, 256)
    message = str(info.value)
    assert message.startswith(
        f"moment quadrature stalled at level {oracle_mod._START_LEVEL + 1}: "
    )
    match = re.search(
        r"moment j = (\d+) last changed by 2\^([\d.e+]+) times its tolerance "
        r"\(cutoff X = ([\d.e+]+), (\d+) working bits, (\d+) nodes evaluated, "
        r"(\d+) screened out\)",
        message,
    )
    assert match, message
    j, bits, X, workprec, evaluated, skipped = match.groups()
    assert 0 <= int(j) <= 10
    assert float(bits) > 0
    assert float(X) >= 2.0
    assert int(workprec) == 256 + oracle_mod._GUARD_BITS
    # the two panels split at 0: every node within the floor of both ends
    # of each at both levels, evaluated or screened out; j = 0 once a panel
    prec = int(workprec)
    floor = oracle_mod._floor_bits(prec, None)
    nodes = 0
    for level in (oracle_mod._START_LEVEL, oracle_mod._START_LEVEL + 1):
        run = oracle_mod._tanh_sinh_run(level, level > oracle_mod._START_LEVEL, prec, floor)
        nodes += 2 * (2 * int((run.need <= floor).sum()) - (level == oracle_mod._START_LEVEL))
    assert int(evaluated) + int(skipped) == nodes
    assert int(skipped) > 0
    assert message.endswith(
        "screened out) for the 6 x 6 determinant; op_recurrence_log_det "
        "computes this determinant in float64"
    )

    # a complex jump and a complex alpha: the float64 route takes both
    for alpha, beta in ((0.0, 0.1), (0.5 + 0.3j, 0.0)):
        cfg = hf.SingularityConfig((hf.Singularity(0.0, alpha, beta),))
        ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 3)
        with pytest.raises(ConvergenceError) as info:
            hf.compute_moments(ws, 3, 256)
        assert str(info.value).endswith(
            "for the 3 x 3 determinant; op_recurrence_log_det computes this "
            "determinant in float64"
        )


def test_moment_route_refuses_an_oscillation_it_cannot_resolve():
    # near t the phase Im(alpha) log|x - t| must be followed down to where
    # |x - t|^(1 + Re alpha) reaches the precision floor; at alpha = -0.99 +
    # 0.3i that takes it past what level 11 resolves, which the moment route
    # says before it runs, while the float64 route takes the weight
    cfg = hf.SingularityConfig((hf.Singularity(0.2, -0.99 + 0.3j, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 3)
    with pytest.raises(ConvergenceError, match=(
        r"^moment quadrature cannot resolve \|x - t\|\^\(i Im alpha\) at t = 0\.2, "
        r"alpha = \(-0\.99\+0\.3j\): its phase turns by [\d.]+ rad per node at "
        r"level 11; op_recurrence_log_det computes this determinant in float64$"
    )):
        hf.compute_moments(ws, 3, 256)
    assert np.isfinite(hf.op_recurrence_log_det(ws).log_abs)


def test_cutoff_search_failure_names_the_last_cutoff():
    # a field growing like x^4 outweighs n V = 2 x^2: the weight is not
    # integrable and the tail search must stop with a typed, quantified error
    ws = hf.WeightSpec(hf.Potential.gue(), ChebSeries([0, 0, 0, 0, 1.0]),
                       hf.SingularityConfig(), 2)
    with pytest.raises(ConvergenceError, match=(
        r"tail cutoff search did not terminate: at the last X = [\d.e+]+, "
        r"x\^2 \|w\(x\)\| still exceeds its target by 2\^[\d.e+]+$"
    )):
        hf.oracle_log_det(ws, 256)


def moment_digest(moments):
    """sha256 of the raw mpf tuples of the moments (both parts of an mpc)."""
    def exact(v):
        s, man, e, bc = v
        return s, int(man), e, bc

    raw = [tuple(map(exact, m._mpc_)) if hasattr(m, "_mpc_") else exact(m._mpf_)
           for m in moments]
    return hashlib.sha256(repr(raw).encode()).hexdigest()


JUMP = ((0.2, 0.0, 0.1j),)
PAIR = ((-0.4, 1.0, 0.05 + 0.05j), (0.5, 0.6, -0.08j))


@pytest.mark.parametrize(
    "V, W, sings, n, digest",
    [
        # the weights of the benchmark's jump_compare and positive_crosscheck
        # workloads at their first rung, 128 bits
        (hf.Potential.gue(), None, JUMP, 8,
         "42b09f74fd756af29d32199a2d722364d568f14f331463fcb96e11dd4ba054f9"),
        (hf.Potential.gue(), None, JUMP, 16,
         "3350c602989f1e798913750e441d55350cc6431e5a81928686808b7f324d480f"),
        (hf.Potential.gue(), None, PAIR, 8,
         "0fe09d62f57e95d479a751d809ca2dc5ca1a7f92454c08033171987b2e0a1001"),
        (hf.Potential.gue(), None, PAIR, 12,
         "2670dafde3cf9f66dbc31bc0f7af13e65974075f76a6c62fe4526febd0e5e3b0"),
        (hf.Potential.gue(), None, (), 8,
         "fde78c2042cbc7fd0fb666eea36f701b21c15cf1986e98dee1018722af759a46"),
        (hf.Potential.gue(), None, ((0.3, 2.0),), 8,
         "274678146430edb688dcc5ed415073ab8e53ece769c9945afa4125394c9af113"),
        (hf.Potential([0.0, 0.0, 1.4, 0.0, 0.4]), ChebSeries([0.0, 0.5, 0.25]),
         ((0.0, 0.8),), 8,
         "e48fa78931a95b08de77476c44757f27c9831b33154f665f098e743ffa72856a"),
        (hf.Potential.gue(), None, ((0.0, -0.5),), 4,
         "3a4a0b57cb94b32be84c683864a6d50e9ea59ca8a65987fb3ecbd9d6b5352c61"),
    ],
    ids=["jump-8", "jump-16", "pair-8", "pair-12", "gue-8", "alpha2-8",
         "quartic-field-8", "alpha-neg-half-4"],
)
def test_benchmark_moments_are_pinned(V, W, sings, n, digest):
    # the moments of the benchmark's weights, bit for bit: any change to the
    # node cache, the screen or the fixed-point sums that moves a bit shows
    cfg = hf.SingularityConfig(tuple(hf.Singularity(*s) for s in sings))
    moments = hf.compute_moments(hf.WeightSpec(V, W, cfg, n), n, 128)
    assert moment_digest(moments) == digest


def test_both_panel_orientations_come_from_one_tanh_sinh_run(monkeypatch):
    # alpha < 0 gives the panels [-X, 0] and [0, X] different floors at 0,
    # so each level needs the nodes towards 0 to two floors. One enumeration
    # per level serves both ends of both panels, and the moments are those
    # of two separate enumerations bit for bit (digest of the moments that
    # enumerating each orientation on its own gave at 512 bits)
    cfg = hf.SingularityConfig((hf.Singularity(0.0, -0.5, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 4)
    levels, generate = [], oracle_mod._nodes

    def spy(level, *args):
        levels.append(level)
        return generate(level, *args)

    monkeypatch.setattr(oracle_mod, "_nodes", spy)
    oracle_mod._tanh_sinh_run.cache_clear()
    moments = oracle_mod.compute_moments(ws, 4, 512)
    assert oracle_mod._tanh_sinh_run.cache_info().misses == len(levels) > 1
    assert moment_digest(moments) == (
        "95635a01a3e69fc7c45bfbdcb0d861d3a9c62013df8fefd97c8dbb157a369b11")


@pytest.mark.parametrize("left_bits, right_bits", [(400, 900), (900, 400), (600, 600)])
def test_tanh_sinh_orientations_mirror_each_other(left_bits, right_bits):
    # the nodes towards each end are the run's j whose transform weight
    # reaches that end's floor, j = 0 (the start level's midpoint) once;
    # swapping the floors swaps the two ends' nodes within the same run
    for level in (oracle_mod._START_LEVEL, 5):
        run, idx, n_right = oracle_mod._panel_run(level, 640, (left_bits, right_bits))
        right, left = idx[:n_right].tolist(), idx[n_right:].tolist()
        first = 0 if level > oracle_mod._START_LEVEL else 1  # run index 0 is j = 0
        assert right == np.flatnonzero(run.need <= right_bits).tolist()
        assert left == (first + np.flatnonzero(run.need[first:] <= left_bits)).tolist()
        assert idx.tolist().count(0) == 2 - first
        assert np.all(run.log2_w[right] >= -right_bits)
        assert np.all(run.log2_w[left] >= -left_bits)
        assert (len(left) > len(right)) == (left_bits > right_bits)
        assert run.need.max() <= max(left_bits, right_bits)
        mirror, mirror_idx, mirror_right = oracle_mod._panel_run(
            level, 640, (right_bits, left_bits))
        assert mirror is run
        assert mirror_idx[:mirror_right].tolist()[first:] == left
        assert mirror_idx[mirror_right:].tolist() == right[first:]


def test_screen_keeps_the_nodes_of_alpha_within_one_ulp_of_minus_one():
    # 1 + alpha = 2^-53: log2 |x - t| at the panel's floor is near -3e18,
    # where float64 rounding of the screen's estimate exceeds the tail's
    # weight; the screen must still keep every node that counts (it used to
    # skip them, and the moment route stalled at level 11)
    cfg = hf.SingularityConfig((hf.Singularity(-0.87, -1 + 2.0 ** -53, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 1)
    res = hf.oracle_log_det(ws, 256)
    assert res.converged
    assert abs(res.log_abs - hf.op_recurrence_log_det(ws).log_abs) < 1e-10
