"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Tolerances are fixed here; nothing is calibrated at test time.
"""

import time

import mpmath as mp
import numpy as np
import scipy.special

import hankelfh as hf
from hankelfh.chebyshev import ChebSeries


def _report(name, fn):
    t0 = time.time()
    try:
        detail = fn() or ""
    except AssertionError as exc:
        print(f"ACCEPTANCE {name}: FAIL ({exc})", flush=True)
        raise
    print(f"ACCEPTANCE {name}: PASS {detail}[{time.time() - t0:.1f}s]", flush=True)


def _residuals(V, measure, W, cfg, ns, bits):
    """|predicted - oracle| in log_abs for each n, the oracle at bits(n)."""
    out = []
    for n in ns:
        orc = hf.oracle_log_det(hf.WeightSpec(V, W, cfg, n), bits(n))
        pred = hf.predict_log_hankel(V, measure, W, cfg, n)
        assert orc.converged, f"oracle unconverged at n={n}"
        out.append(abs(pred.value.real - orc.log_abs))
    return out


def _fit_exponent(ns, residuals):
    return -np.polyfit(np.log(ns), np.log(residuals), 1)[0]


# -----------------------------------------------------------------------------


def test_A1_gue_exactness_and_reduction(gue_potential, gue_measure):
    def body():
        t0 = time.time()
        coeffs = hf.expansion_coefficients(
            gue_potential, gue_measure, None, hf.SingularityConfig()
        )
        expected = hf.gue_asymptotic_constants()
        for got, want in zip(coeffs.as_tuple(), expected):
            assert abs(got - want) < 1e-12, "constant mismatch"
        diffs = []
        for n in (5, 10, 20, 40):
            pred = hf.predict_log_hankel(
                gue_potential, gue_measure, None, hf.SingularityConfig(), n
            )
            diffs.append(abs(pred.value.real - hf.gue_exact_log(n)))
        assert all(a > b for a, b in zip(diffs, diffs[1:])), "not decreasing"
        assert diffs[-1] < 0.01, f"final diff {diffs[-1]}"
        elapsed = time.time() - t0
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
        return f"(diff@40 = {diffs[-1]:.2e}) "

    _report("A1", body)


def test_A2_krasovsky_consistency(gue_potential, gue_measure):
    def body():
        from hankelfh.asymptotics import _krasovsky_coefficients

        t0 = time.time()
        cfg = hf.SingularityConfig((hf.Singularity(0.3, 1.0, 0.0),))
        coeffs = hf.expansion_coefficients(gue_potential, gue_measure, None, cfg)
        gue = hf.gue_asymptotic_constants()
        kras = _krasovsky_coefficients(cfg)
        slots = ("n^2", "n", "log n", "1")
        for slot, got, base, want in zip(slots, coeffs.as_tuple(), gue, kras):
            assert abs(got - base - want) < 1e-12, f"slot {slot}"
        elapsed = time.time() - t0
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s"

    _report("A2", body)


def test_A3_jump_singularity_convergence(gue_potential, gue_measure):
    def body():
        cfg = hf.SingularityConfig((hf.Singularity(0.2, 0.0, 0.1j),))
        ns = (8, 16, 32)
        res = _residuals(gue_potential, gue_measure, None, cfg, ns, lambda n: 48 * 32)
        assert res[0] > res[1] > res[2], f"not decreasing: {res}"
        p = _fit_exponent(ns, res)
        assert p >= 0.7, f"decay exponent {p:.3f} < 0.7"
        assert res[-1] < 0.05, f"final residual {res[-1]}"
        return f"(p = {p:.2f}, residual@32 = {res[-1]:.1e}) "

    _report("A3", body)


def test_A4_general_pair_with_pairwise_sensitivity(gue_potential, gue_measure):
    def body():
        cfg = hf.SingularityConfig(
            (
                hf.Singularity(-0.4, 1.0, 0.05j),
                hf.Singularity(0.5, 0.6, -0.08j),
            )
        )
        ns = (8, 16, 24)
        # A4 to A6 pass the ladder's cap, the fixed bits they used before it,
        # so that their oracle is no less precise than it was
        oracle = {
            n: hf.oracle_log_det(hf.WeightSpec(gue_potential, None, cfg, n),
                                 hf.default_precision_bits(n))
            for n in ns
        }
        res = []
        for n in ns:
            pred = hf.predict_log_hankel(gue_potential, gue_measure, None, cfg, n)
            res.append(abs(pred.value.real - oracle[n].log_abs))
        assert res[0] > res[1] > res[2], f"not decreasing: {res}"
        assert res[-1] < 0.1, f"final residual {res[-1]}"

        # sensitivity: dropping the pairwise interaction must break the gate
        coeffs = hf.predict_log_hankel(
            gue_potential, gue_measure, None, cfg, ns[-1]
        ).coefficients
        pair_total = sum(
            v for k, v in coeffs.term_breakdown["C4"].items() if k.startswith("pair_")
        )
        broken = (
            coeffs.C1 * ns[-1] ** 2
            + coeffs.C2 * ns[-1]
            + coeffs.C3 * np.log(ns[-1])
            + coeffs.C4
            - pair_total
        )
        broken_res = abs(broken.real - oracle[ns[-1]].log_abs)
        assert broken_res > 0.1, (
            f"removing the pairwise term did not break the test ({broken_res})"
        )
        return f"(residual@24 = {res[-1]:.1e}, broken = {broken_res:.2f}) "

    _report("A4", body)


def test_A5_potential_deformation(quartic_problem):
    def body():
        rescaled, measure = quartic_problem
        V = rescaled.V
        cfg = hf.SingularityConfig()
        ns = (8, 16, 32)
        res = _residuals(V, measure, None, cfg, ns, hf.default_precision_bits)
        assert res[0] > res[1] > res[2], f"not decreasing: {res}"
        assert res[-1] < 0.05, f"final residual {res[-1]}"
        direct = hf.expansion_coefficients(V, measure, None, cfg).as_tuple()
        composed = hf.composed_constants(V, measure, None, cfg)
        for a, b in zip(direct, composed):
            assert abs(a - b) < 1e-10, "composition identity"
        return f"(residual@32 = {res[-1]:.1e}) "

    _report("A5", body)


def test_A6_field_deformation(gue_potential, gue_measure):
    def body():
        from test_asymptotics import tensor_double_pv

        W = ChebSeries([0.0, 0.5, 0.25])
        cfg = hf.SingularityConfig((hf.Singularity(0.0, 0.8, 0.0),))
        ns = (8, 16, 32)
        res = _residuals(gue_potential, gue_measure, W, cfg, ns, hf.default_precision_bits)
        assert res[0] > res[1] > res[2], f"not decreasing: {res}"
        coeffs = hf.expansion_coefficients(gue_potential, gue_measure, W, cfg)
        pair = coeffs.term_breakdown["C4"]["field_pair"].real
        expected = (1 * 0.5 ** 2 + 2 * 0.25 ** 2) / 8
        assert abs(pair - expected) < 1e-14
        assert abs(pair - tensor_double_pv(W)) < 1e-10, "tensor quadrature"
        return f"(residual@32 = {res[-1]:.1e}) "

    _report("A6", body)


def test_A7_thinning(gue_potential, gue_measure):
    def body():
        spec = hf.ThinningSpec((0.0,), {1: 0.5})
        exact5 = hf.gap_probability_log_exact(gue_potential, spec, 5)
        mc = hf.mc_gap_probability(spec, 5, 100_000, seed=20260810)
        gap = abs(np.exp(exact5) - mc.estimate)
        assert gap < 3.0 * mc.stderr, (
            f"MC vs exact: {gap:.2e} > 3 sigma = {3 * mc.stderr:.2e}"
        )
        exact30 = hf.gap_probability_log_exact(gue_potential, spec, 30)
        asym30 = hf.gap_probability_log(gue_potential, gue_measure, spec, 30)
        drift = abs(asym30.value - exact30)
        assert drift < 0.05, f"asymptotic vs exact at n=30: {drift}"
        return f"(MC gap = {gap / mc.stderr:.2f} sigma, n=30 drift = {drift:.1e}) "

    _report("A7", body)


def test_A8_invariant_suites(gue_potential, gue_measure, quartic_problem):
    def body():
        from test_chebyshev import pv_oracle_T_direct

        t0 = time.time()

        # Hilbert basis identities against direct PV quadrature
        for y in (-0.9, -0.5, 0.1):
            for k in (0, 3, 7, 12):
                f = ChebSeries(np.eye(k + 1)[k])
                assert abs(hf.hilbert_T(f, y) - pv_oracle_T_direct(f, y)) < 1e-12

        # Barnes-G recurrence on a complex grid (mod 2 pi i)
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 50:
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z) > 5 or abs(z.imag) < 0.05:
                continue
            lhs = hf.log_barnes_g(z + 1)
            rhs = complex(scipy.special.loggamma(z)) + hf.log_barnes_g(z)
            frac = (lhs - rhs) / (2j * np.pi)
            assert abs(frac - round(frac.real)) < 1e-10
            checked += 1

        # normalisation of certified measures
        rescaled, q_measure = quartic_problem
        for measure in (gue_measure, q_measure):
            _, mass = hf.cheb_weighted_integrals(measure.psi)
            assert abs(mass - 1.0) < 1e-10

        # realness of the constants for real alpha / imaginary beta
        cfg = hf.SingularityConfig(
            (hf.Singularity(-0.5, 0.7, 0.05j), hf.Singularity(0.2, 1.3, -0.11j))
        )
        coeffs = hf.expansion_coefficients(
            gue_potential, gue_measure, ChebSeries([0.1, 0.2]), cfg
        )
        assert all(abs(c.imag) < 1e-10 for c in coeffs.as_tuple())

        # rescale round trip
        V_tilde = hf.Potential([0.3, -0.1, 0.7, 0.05, 0.12])
        res = hf.rescale(V_tilde, -1.7, 2.4)
        mid, half = 0.35, 2.05
        for x_tilde in np.linspace(-1.6, 2.3, 20):
            x = (x_tilde - mid) / half
            assert abs(res.V(x) - V_tilde(x_tilde)) < 1e-12

        # precision robustness and method agreement
        cfg1 = hf.SingularityConfig((hf.Singularity(0.3, 2.0, 0.0),))
        ws = hf.WeightSpec(gue_potential, None, cfg1, 6)
        r1 = hf.oracle_log_det(ws, 256)
        r2 = hf.oracle_log_det(ws, 512)
        assert abs(r1.log_abs - r2.log_abs) < 1e-10
        r3 = hf.op_recurrence_log_det(ws)
        assert abs(r1.log_abs - r3.log_abs) < 1e-10
        assert r1.phase == 0.0 and r3.phase == 0.0

        # thinning telescoping + gap monotonicity at the formula level
        spec = hf.ThinningSpec((-0.3, 0.4), {1: 0.8, 2: 0.35})
        tmap = hf.thinning_to_betas(spec)
        st_ = spec.s_tilde()
        assert abs(
            sum(tmap.betas) * 2j * np.pi - np.log(st_[0] / st_[-1])
        ) < 1e-12
        assert all(abs(b.real) < 1e-14 for b in tmap.betas)
        previous = None
        for s in (0.9, 0.6, 0.3):
            pred = hf.gap_probability_log(
                gue_potential, gue_measure, hf.ThinningSpec((0.1,), {1: s}), 25
            )
            if previous is not None:
                assert pred.value < previous
            previous = pred.value

        elapsed = time.time() - t0
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s"

    _report("A8", body)
