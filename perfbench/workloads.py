"""The four benchmark workloads: inputs, operations and output checks.

A workload is built once per process (the set-up: imports, equilibrium
measures, input generation) and then runs whole rounds. A round calls every
operation once, in a fixed order, through the public functions of hankelfh;
its outputs are checked after the round, outside the timed region. Inputs
depend only on the seed, and the work of a round does not depend on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from hankelfh import asymptotics, cli, equilibrium, montecarlo, oracle, thinning
from hankelfh.chebyshev import ChebSeries
from hankelfh.equilibrium import Potential
from hankelfh.singularities import Singularity, SingularityConfig, ThinningSpec

import checks


class Workload:
    """Named operations of one round plus the check of a round's outputs.

    ``nominal_round_s`` is the round time measured when the benchmark was
    written (2-CPU x86 machine); a run makes round(seconds / nominal_round_s)
    rounds, at least one, so its work depends on --seconds only.
    """

    name = ""
    nominal_round_s = 1.0

    def __init__(self):
        self.ops = []

    def add(self, name, call):
        self.ops.append((name, call))

    def rounds_for(self, seconds):
        return max(1, round(seconds / self.nominal_round_s))

    def check(self, outputs, expect):
        """Run this workload's checks; ``expect(label, fn, *args)`` calls one."""
        raise NotImplementedError


def later(module, attr, *args):
    """A call of module.attr(*args) that looks the function up when it runs,
    so that a tracer installed after set-up sees it."""
    return lambda: getattr(module, attr)(*args)


def quartic(c4):
    """c2 x^2 + c4 x^4 with 2 c2 + 3 c4 = 4, whose equilibrium support is [-1, 1]."""
    return Potential([0.0, 0.0, (4.0 - 3.0 * c4) / 2.0, 0.0, c4])


# -------------------------------------------------------------- jump_compare


def _mirror(sings):
    return [dict(s, t=-s["t"], beta_re=-s["beta_re"], beta_im=-s["beta_im"]) for s in sings]


def _sing(t, alpha=0.0, beta=0j):
    return {"t": t, "alpha_re": alpha, "alpha_im": 0.0,
            "beta_re": complex(beta).real, "beta_im": complex(beta).imag}


JUMP_CONFIGS = (
    ("jump", [_sing(0.2, beta=0.1j)], (8, 16)),
    ("pair", [_sing(-0.4, 1.0, 0.05 + 0.05j), _sing(0.5, 0.6, -0.08j)], (8, 12)),
)


class JumpCompare(Workload):
    """`hankel-fh compare` in-process, one n per call, default precision."""

    name = "jump_compare"
    nominal_round_s = 30.0

    def __init__(self, seed, work_dir):
        super().__init__()
        self.pairs = []
        for label, sings, ns in JUMP_CONFIGS:
            paths = {}
            for side, ss in (("+", sings), ("-", _mirror(sings))):
                path = work_dir / f"{label}{side}.json"
                path.write_text(json.dumps({"potential": [0.0, 0.0, 2.0], "singularities": ss}))
                paths[side] = str(path)
            for n in ns:
                names = []
                for side in "+-":
                    name = f"{label}{side}/n={n}"
                    self.add(name, self._compare(paths[side], n))
                    names.append(name)
                self.pairs.append(tuple(names))

    @staticmethod
    def _compare(path, n):
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["compare", "--config", path, "--n", str(n)])
            if code != 0:
                raise RuntimeError(f"hankel-fh compare exited with {code}")
            (row,) = json.loads(out.getvalue())["rows"]
            return row

        return call

    def check(self, outputs, expect):
        for name, row in outputs.items():
            expect(name, checks.compare_row_valid, row)
        for a, b in self.pairs:
            if a in outputs and b in outputs:
                for key in ("oracle", "predicted"):
                    expect(f"{a} vs {b} {key}", checks.mirror_agrees,
                           outputs[a][key], outputs[b][key])


# ------------------------------------------------------- positive_crosscheck


class PositiveCrosscheck(Workload):
    """oracle_log_det and op_recurrence_log_det on positive weights.

    The alpha = -0.5 weight stalls in the oracle quadrature today and is
    counted as a failed operation; once it converges it is checked like the
    others.
    """

    name = "positive_crosscheck"
    nominal_round_s = 10.0

    def __init__(self, seed, work_dir):
        super().__init__()
        gue = Potential.gue()
        weights = (
            ("gue", gue, None, SingularityConfig(), 8),
            ("alpha2", gue, None, SingularityConfig((Singularity(0.3, 2.0),)), 8),
            ("quartic_field", quartic(0.4), ChebSeries([0.0, 0.5, 0.25]),
             SingularityConfig((Singularity(0.0, 0.8),)), 8),
            ("alpha_neg_half", gue, None, SingularityConfig((Singularity(0.0, -0.5),)), 4),
        )
        for name, V, W, cfg, n in weights:
            self.add(name, self._crosscheck(oracle.WeightSpec(V, W, cfg, n)))

    @staticmethod
    def _crosscheck(ws):
        def call():
            return oracle.oracle_log_det(ws), oracle.op_recurrence_log_det(ws)

        return call

    def check(self, outputs, expect):
        for name, (det, rec) in outputs.items():
            expect(name, checks.routes_agree, det, rec)
        if "gue" in outputs:
            det = outputs["gue"][0]
            expect("gue closed form", checks.close, det.log_abs,
                   asymptotics.gue_exact_log(det.n), checks.CLOSED_FORM_TOL,
                   "GUE oracle vs gue_exact_log")


# ---------------------------------------------------------------- thinning_mc

MC_SAMPLES = 20_000

#: (label, spec, n, reference): "exact" compares Monte Carlo with the exact
#: Hankel ratio and the expansion, "expansion" with the expansion only
#: (there the exact ratio would cost minutes and the hit rate stays high).
THINNING_CASES = (
    ("half", ThinningSpec((0.0,), {1: 0.5}), 6, "exact"),
    ("two_sector", ThinningSpec((-0.3, 0.4), {1: 0.8, 3: 0.35}), 8, "exact"),
    ("light", ThinningSpec((0.0,), {1: 0.9}), 8, "exact"),
    ("two_sector", ThinningSpec((-0.3, 0.4), {1: 0.8, 3: 0.35}), 16, "expansion"),
    ("light", ThinningSpec((0.0,), {1: 0.9}), 24, "expansion"),
    ("light", ThinningSpec((0.0,), {1: 0.9}), 40, "expansion"),
)


class ThinningMc(Workload):
    """Monte Carlo gap probabilities against the exact ratio and the expansion."""

    name = "thinning_mc"
    nominal_round_s = 11.0

    def __init__(self, seed, work_dir):
        super().__init__()
        V = Potential.gue()
        measure = equilibrium.equilibrium_measure(V)
        mc_seeds = np.random.SeedSequence(seed).generate_state(len(THINNING_CASES))
        self.cases = []
        for (label, spec, n, ref), mc_seed in zip(THINNING_CASES, mc_seeds):
            key = f"{label}/n={n}"
            if ref == "exact":
                self.add(key + "/exact", later(thinning, "gap_probability_log_exact", V, spec, n))
            self.add(key + "/mc", later(montecarlo, "mc_gap_probability", spec, n,
                                        MC_SAMPLES, int(mc_seed)))
            self.add(key + "/expansion", later(thinning, "gap_probability_log", V, measure, spec, n))
            self.cases.append((key, ref))

    def check(self, outputs, expect):
        for key, ref in self.cases:
            mc = outputs.get(key + "/mc")
            pred = outputs.get(key + "/expansion")
            exact = outputs.get(key + "/exact")
            if mc is not None and pred is not None:
                expect(key + " mc vs expansion", checks.mc_within, mc,
                       *checks.expansion_interval(pred))
            if mc is not None and exact is not None:
                p = math.exp(exact)
                expect(key + " mc vs exact", checks.mc_within, mc, p, p)
            if exact is not None and pred is not None:
                expect(key + " exact vs expansion", checks.close, exact, pred.value,
                       pred.error_scale, "exact log gap vs expansion")


# -------------------------------------------------------------- predict_sweep

SWEEP_CONFIGS = 300
SWEEP_NS = (8, 16, 32, 64, 128)


def _reflect(W, cfg):
    """x -> -x: T_k(-x) = (-1)^k T_k(x), (t, alpha, beta) -> (-t, alpha, -beta).

    Both potential families are even, so V and its measure stay as they are.
    """
    signs = (-1.0) ** np.arange(len(W.coeffs))
    sings = tuple(Singularity(-s.t, s.alpha, -s.beta) for s in reversed(cfg.singularities))
    return ChebSeries(W.coeffs * signs), SingularityConfig(sings)


def sweep_configs(seed, count=SWEEP_CONFIGS):
    """Seeded (V, W, cfg) triples. Even indices use the Gaussian potential,
    odd ones the quartic family with c4 in [0.05, 2]; index mod 3 sets the
    number of singularities (1-3), so the mix is the same for every seed."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        V = Potential.gue() if i % 2 == 0 else quartic(rng.uniform(0.05, 2.0))
        W = ChebSeries(np.concatenate([[0.0], rng.uniform(-0.3, 0.3, 3)]))
        m = 1 + i % 3
        while True:
            ts = np.sort(rng.uniform(-0.8, 0.8, m))
            if m == 1 or np.min(np.diff(ts)) > 0.2:
                break
        sings = tuple(
            Singularity(float(t), rng.uniform(-0.5, 1.5),
                        complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3)))
            for t in ts
        )
        out.append((V, W, SingularityConfig(sings)))
    return out


class PredictSweep(Workload):
    """Equilibrium measure, predictions over SWEEP_NS and both assemblies of
    the constants for hundreds of seeded configs; one config per operation."""

    name = "predict_sweep"
    nominal_round_s = 2.5

    def __init__(self, seed, work_dir):
        super().__init__()
        for i, (V, W, cfg) in enumerate(sweep_configs(seed)):
            self.add(f"config{i}", self._sweep(V, W, cfg))

    @staticmethod
    def _sweep(V, W, cfg):
        W_ref, cfg_ref = _reflect(W, cfg)

        def call():
            measure = equilibrium.equilibrium_measure(V)
            preds = [asymptotics.predict_log_hankel(V, measure, W, cfg, n) for n in SWEEP_NS]
            coeffs = asymptotics.expansion_coefficients(V, measure, W, cfg)
            composed = asymptotics.composed_constants(V, measure, W, cfg)
            reflected = asymptotics.expansion_coefficients(V, measure, W_ref, cfg_ref)
            plain = None
            if V.degree == 2:
                plain = asymptotics.expansion_coefficients(V, measure, None, SingularityConfig())
            return preds, coeffs, composed, reflected, plain

        return call

    def check(self, outputs, expect):
        gue = asymptotics.gue_asymptotic_constants()
        for name, (preds, coeffs, composed, reflected, plain) in outputs.items():
            c = coeffs.as_tuple()
            for p in preds:
                expect(name, checks.constants_equal, p.coefficients.as_tuple(), c,
                       checks.CONSTANTS_TOL, "predict_log_hankel coefficients")
            expect(name, checks.constants_equal, c, composed,
                   checks.CONSTANTS_TOL, "composition identity")
            expect(name, checks.constants_equal, c, reflected.as_tuple(),
                   checks.CONSTANTS_TOL, "reflection")
            if plain is not None:
                expect(name, checks.constants_equal, plain.as_tuple(), gue,
                       checks.CONSTANTS_TOL, "GUE constants")


WORKLOADS = {w.name: w for w in (JumpCompare, PositiveCrosscheck, ThinningMc, PredictSweep)}
