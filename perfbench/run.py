"""Benchmark of hankelfh's oracle, Monte Carlo and expansion layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from spans recorded
around the package's public functions (see perfbench/README.md).
"""

import os
import time

# Before numpy is imported: one BLAS thread, and the oracle's default
# precision max(256, 48 n) rather than one inherited from the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HANKEL_FH_PRECISION", None)

import argparse
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

import checks
import tracing

_SCRIPT_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def process_age():
    """Seconds since this process started, from /proc when it is readable,
    else since this script began (which misses interpreter start-up)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _SCRIPT_START


def run_round(workload, tracer=None):
    """Call every operation once. Returns (outputs, latencies of successful
    operations, wall seconds, CPU seconds, failures)."""
    outputs, latencies, failures = {}, [], []
    wall = cpu = 0.0
    for name, call in workload.ops:
        if tracer is not None:
            tracer.op = name
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            outputs[name] = call()
        except Exception as exc:  # the run goes on; the operation counts as failed
            failures.append((name, exc))
        else:
            latencies.append(time.perf_counter() - w0)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
    return outputs, latencies, wall, cpu, failures


class Tally:
    """Attempted/failed counts, timings and check results over a run's rounds."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems = []
        self.reported = set()
        self.walls, self.cpus, self.latencies = [], [], []

    def add(self, outputs, latencies, wall, cpu, failures):
        self.attempted += len(self.workload.ops)
        self.failed += len(failures)
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.latencies.extend(latencies)
        for name, exc in failures:
            if name not in self.reported:
                self.reported.add(name)
                print(f"{self.workload.name}: {name} failed: {exc!r}", file=sys.stderr)

        def expect(label, fn, *args):
            try:
                fn(*args)
            except checks.CheckFailure as exc:
                self.problems.append(f"{label}: {exc}")

        self.workload.check(outputs, expect)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, rounds, setup_s):
    tally = Tally(workload)
    for _ in range(rounds):
        tally.add(*run_round(workload))
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(tally.walls), "s"),
        "cpu_s": metric(statistics.median(tally.cpus), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_p50_s": metric(statistics.median(tally.latencies), "s"),
    }
    return tally, metrics


def per_layer(workload, rounds, seed):
    """A warm-up round, then `rounds` pairs of an untraced and a traced round.

    The warm-up fills the package's node caches, so the traced and untraced
    rounds that are compared both run warm.
    """
    tracer = tracing.Tracer()
    tally = Tally(workload)
    tally.add(*run_round(workload))
    untraced, traced = [], []
    for _ in range(rounds):
        result = run_round(workload)
        untraced.append(result[2])
        tally.add(*result)
        with tracer.installed():
            result = run_round(workload, tracer)
        traced.append(result[2])
        tally.add(*result)

    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json",
                 workload=workload.name, seed=seed, traced_rounds=rounds)

    spans, counts = tracer.spans, tracer.counts
    total, own = tracing.totals(spans), tracing.self_times(spans)
    metrics = {}
    for module, attr, _ in tracing.LAYERS:
        name = tracing.layer_name(module, attr)
        metrics[name + "_s"] = metric(total.get(name, 0.0) / rounds, "s")
        metrics[name + "_calls"] = metric(counts[name + "_calls"] / rounds, "count")
    metrics["cli.self_s"] = metric(own.get("cli.main", 0.0) / rounds, "s")
    metrics["oracle.moments"] = metric(counts["oracle.moments"] / rounds, "count")
    metrics["oracle.precision_bits_sum"] = metric(counts["oracle.precision_bits_sum"] / rounds, "bit")
    samples = counts["montecarlo.samples"]
    mc_s = total.get("montecarlo.mc_gap_probability", 0.0)
    metrics["montecarlo.samples"] = metric(samples / rounds, "count")
    metrics["montecarlo.samples_per_s"] = metric(samples / mc_s if mc_s else 0.0, "1/s")
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced) - statistics.median(untraced), "s")
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hankelfh" / "__init__.py").is_file():
        print(f"error: no hankelfh sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(work_dir))
        setup_s = process_age()
        rounds = workload.rounds_for(args.seconds)
        if args.trace:
            tally, metrics = per_layer(workload, rounds, args.seed)
        else:
            tally, metrics = end_to_end(workload, rounds, setup_s)

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
