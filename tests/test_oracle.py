"""Extended-precision moments and determinants against closed forms."""

import mpmath as mp
import numpy as np
import pytest

import hankelfh as hf
from hankelfh.chebyshev import ChebSeries
from hankelfh.errors import DomainError, PositivityError, ZeroDeterminantError
from hankelfh.oracle import MOMENT_DETERMINANT, OP_RECURRENCE


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
    with pytest.raises(DomainError):
        hf.op_recurrence_log_det(gue_weight(1), 64)


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


def test_moment_count_validation():
    with pytest.raises(DomainError):
        hf.hankel_log_det([mp.mpf(1)] * 3, 3, 256)


# ------------------------------------------------------ op_recurrence_log_det


def test_method_agreement_gue():
    a = hf.oracle_log_det(gue_weight(4), 256)
    b = hf.op_recurrence_log_det(gue_weight(4), 256)
    assert b.method == OP_RECURRENCE
    assert abs(a.log_abs - b.log_abs) < 1e-10
    assert abs(b.log_abs - hf.gue_exact_log(4)) < 1e-12


def test_method_agreement_with_root_singularities():
    cfg = hf.SingularityConfig((hf.Singularity(0.3, 2.0, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 6)
    a = hf.oracle_log_det(ws, 384)
    b = hf.op_recurrence_log_det(ws, 384)
    assert abs(a.log_abs - b.log_abs) < 1e-10


def test_method_agreement_moderate_n():
    cfg = hf.SingularityConfig((hf.Singularity(-0.2, 0.6, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), ChebSeries([0.0, 0.2]), cfg, 12)
    a = hf.oracle_log_det(ws)
    b = hf.op_recurrence_log_det(ws)
    assert abs(a.log_abs - b.log_abs) < 1e-10


def test_recurrence_requires_positive_weight():
    # a real beta makes the jump factor e^{+-i pi beta} complex
    cfg = hf.SingularityConfig((hf.Singularity(0.0, 0.0, 0.1),))
    with pytest.raises(PositivityError):
        hf.op_recurrence_log_det(
            hf.WeightSpec(hf.Potential.gue(), None, cfg, 3), 256
        )


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
    rec = hf.op_recurrence_log_det(ws, 256)
    assert abs(res.log_abs - rec.log_abs) < 1e-10


def test_complex_alpha_gives_complex_determinant():
    cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.5 + 0.3j, 0.0),))
    ws = hf.WeightSpec(hf.Potential.gue(), None, cfg, 3)
    res = hf.oracle_log_det(ws, 256)
    assert res.phase != 0.0
    assert res.converged


# --------------------------------------------------------------- log_det_ratio


def test_ratio_identical_weights_is_zero():
    ratio = hf.log_det_ratio(gue_weight(3), gue_weight(3), 256)
    assert ratio == 0


def test_ratio_beta_perturbation_for_small_gue():
    cfg_b = hf.SingularityConfig((hf.Singularity(0.0, 0.0, 0.1j),))
    cfg_0 = hf.SingularityConfig((hf.Singularity(0.0, 0.0, 0.0),))
    num = hf.WeightSpec(hf.Potential.gue(), None, cfg_b, 3)
    den = hf.WeightSpec(hf.Potential.gue(), None, cfg_0, 3)
    ratio = hf.log_det_ratio(num, den, 256)
    assert np.isfinite(ratio.real)
    assert abs(ratio.imag) < 1e-12  # both weights positive


def test_ratio_mismatched_n_rejected():
    with pytest.raises(DomainError):
        hf.log_det_ratio(gue_weight(3), gue_weight(4), 256)


def test_ratio_zero_denominator_raises(monkeypatch):
    # route the denominator to a synthetic vanishing determinant
    import hankelfh.oracle as oracle_mod

    def fake_oracle(ws, precision_bits=None):
        if len(ws.cfg):
            return hf.hankel_log_det([mp.mpf(1), mp.mpf(1), mp.mpf(1)], 2, 256)
        return hf.hankel_log_det([mp.sqrt(mp.pi / 2)], 1, 256)

    monkeypatch.setattr(oracle_mod, "oracle_log_det", fake_oracle)
    ws_num = gue_weight(2)
    ws_den = hf.WeightSpec(
        hf.Potential.gue(), None,
        hf.SingularityConfig((hf.Singularity(0.0, 1.0, 0.0),)), 2,
    )
    with pytest.raises(ZeroDeterminantError):
        oracle_mod.log_det_ratio(ws_num, ws_den, 256)
