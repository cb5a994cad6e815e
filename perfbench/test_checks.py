"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench

Every check must reject a wrong value of the size a defect would produce and
accept the right one.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hankelfh import asymptotics, equilibrium, oracle  # noqa: E402
from hankelfh.montecarlo import McEstimate  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402


def result(log_abs, method=oracle.MOMENT_DETERMINANT, converged=True):
    return oracle.HankelResult(log_abs=log_abs, phase=0.0, n=8, precision_bits=384,
                               method=method, converged=converged)


def row(residual=1e-3, error_scale=0.26, phase_residual=0.0):
    return {"n": 8, "converged": True, "is_zero": False, "error_scale": error_scale,
            "residual": {"log_abs": residual, "phase": phase_residual}}


def test_mirror_rejects_log_abs_off_by_1e_6():
    a = {"log_abs": -341.6453652192556, "phase": 0.3}
    checks.mirror_agrees(a, dict(a))
    with pytest.raises(CheckFailure):
        checks.mirror_agrees(a, dict(a, log_abs=a["log_abs"] + 1e-6))


def test_mirror_compares_phases_modulo_2pi():
    a = {"log_abs": -88.0, "phase": math.pi - 1e-12}
    checks.mirror_agrees(a, dict(a, phase=-math.pi + 1e-12))
    with pytest.raises(CheckFailure):
        checks.mirror_agrees(a, dict(a, phase=a["phase"] - 1e-6))


def test_compare_row_rejects_residual_above_error_scale():
    checks.compare_row_valid(row())
    with pytest.raises(CheckFailure):
        checks.compare_row_valid(row(residual=0.3))
    with pytest.raises(CheckFailure):
        checks.compare_row_valid(row(phase_residual=0.3))
    with pytest.raises(CheckFailure):
        checks.compare_row_valid(dict(row(), converged=False))


def test_routes_agree_rejects_moment_vs_recurrence_gap():
    det = result(-77.99717582796036)
    checks.routes_agree(det, result(det.log_abs + 1e-13, oracle.OP_RECURRENCE))
    with pytest.raises(CheckFailure):
        checks.routes_agree(det, result(det.log_abs + 1e-8, oracle.OP_RECURRENCE))
    with pytest.raises(CheckFailure):
        checks.routes_agree(result(det.log_abs, converged=False), det)


def test_mc_within_rejects_estimate_5_sigma_away():
    p, se = 0.1330586, 0.0024
    checks.mc_within(McEstimate(p + 1.0 * se, se, 20_000, 1), p, p)
    for off in (5.0, -5.0):
        with pytest.raises(CheckFailure):
            checks.mc_within(McEstimate(p + off * se, se, 20_000, 1), p, p)


def test_mc_within_rejects_zero_stderr():
    with pytest.raises(CheckFailure):
        checks.mc_within(McEstimate(0.0, 0.0, 20_000, 7), 3.3e-5, 3.3e-5)


def test_mc_within_interval_widens_by_expansion_error():
    lo, hi = checks.expansion_interval(type("P", (), {"value": math.log(0.12), "error_scale": 0.09})())
    se = 0.0023
    checks.mc_within(McEstimate(hi + 3.0 * se, se, 20_000, 1), lo, hi)
    with pytest.raises(CheckFailure):
        checks.mc_within(McEstimate(hi + 5.0 * se, se, 20_000, 1), lo, hi)


def test_constants_equal_rejects_one_perturbed_constant():
    c = asymptotics.gue_asymptotic_constants()
    checks.constants_equal(c, c)
    with pytest.raises(CheckFailure):
        checks.constants_equal(c, (c[0], c[1], c[2], c[3] + 1e-8j))


def test_workload_check_records_a_bad_recurrence():
    load = workloads.PositiveCrosscheck.__new__(workloads.PositiveCrosscheck)
    good = result(asymptotics.gue_exact_log(8))
    problems = []

    def expect(label, fn, *args):
        try:
            fn(*args)
        except CheckFailure:
            problems.append(label)

    load.check({"gue": (good, good)}, expect)
    assert problems == []
    load.check({"gue": (good, result(good.log_abs + 1e-6))}, expect)
    assert problems == ["gue"]


def test_reflection_leaves_constants_unchanged():
    V, W, cfg = workloads.sweep_configs(seed=3, count=3)[2]
    measure = equilibrium.equilibrium_measure(V)
    W_ref, cfg_ref = workloads._reflect(W, cfg)
    a = asymptotics.expansion_coefficients(V, measure, W, cfg).as_tuple()
    b = asymptotics.expansion_coefficients(V, measure, W_ref, cfg_ref).as_tuple()
    checks.constants_equal(a, b)
    with pytest.raises(CheckFailure):
        unreflected = asymptotics.expansion_coefficients(V, measure, W_ref, cfg).as_tuple()
        checks.constants_equal(a, unreflected)


def test_self_time_subtracts_direct_children_only():
    S = tracing.Span
    spans = [S("cli.main", 0.0, 10.0, None, "op"),
             S("oracle.compute_moments", 1.0, 7.0, 0, "op"),
             S("special.log_barnes_g", 2.0, 3.0, 1, "op"),
             S("oracle.hankel_log_det", 7.0, 9.0, 0, "op")]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"cli.main": 2.0, "oracle.compute_moments": 5.0,
                                 "special.log_barnes_g": 1.0, "oracle.hankel_log_det": 2.0})


def test_tracer_nests_spans_and_restores_functions():
    V = equilibrium.Potential.gue()
    measure = equilibrium.equilibrium_measure(V)
    cfg = workloads.SingularityConfig((workloads.Singularity(0.2, 0.5, 0.1j),))
    original = asymptotics.expansion_coefficients
    tracer = tracing.Tracer()
    with tracer.installed():
        asymptotics.predict_log_hankel(V, measure, None, cfg, 8)
    assert asymptotics.expansion_coefficients is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["asymptotics.predict_log_hankel", "asymptotics.expansion_coefficients"]
    assert tracer.spans[1].parent == 0
    assert tracer.counts["special.log_barnes_g_calls"] == 3
    assert all(s.parent == 1 for s in tracer.spans[2:])


def test_tracer_sees_calls_bound_at_set_up():
    load = workloads.ThinningMc(seed=1, work_dir=None)
    tracer = tracing.Tracer()
    with tracer.installed():
        for name, call in load.ops:
            if name.endswith("/expansion"):
                call()
    assert tracer.counts["thinning.gap_probability_log_calls"] == len(workloads.THINNING_CASES)
