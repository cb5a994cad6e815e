"""Span tracing around hankelfh's public functions, installed from outside.

While a Tracer is installed, each function in LAYERS is replaced, in every
hankelfh module that holds a reference to it, by a wrapper that records a
span (name, start, end, parent span, operation) and updates work counters.
Spans stay in memory; `write` stores them when the run ends. Nothing inside
the package is edited, so calls a module makes through a private helper
(for instance op_recurrence_log_det's own quadrature) are inside the span of
the public function that made them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, namedtuple
from contextlib import contextmanager
from time import perf_counter

Span = namedtuple("Span", "name start end parent op")


def _moments(counts, bound, result):
    counts["oracle.moments"] += 2 * bound.arguments["count"] - 1


def _precision_bits(counts, bound, result):
    if result is not None:
        counts["oracle.precision_bits_sum"] += result.precision_bits


def _samples(counts, bound, result):
    if result is not None:
        counts["montecarlo.samples"] += result.samples


#: (module, public function, counter hook or None)
LAYERS = (
    ("hankelfh.cli", "main", None),
    ("hankelfh.oracle", "compute_moments", _moments),
    ("hankelfh.oracle", "hankel_log_det", _precision_bits),
    ("hankelfh.oracle", "op_recurrence_log_det", _precision_bits),
    ("hankelfh.thinning", "gap_probability_log_exact", None),
    ("hankelfh.thinning", "gap_probability_log", None),
    ("hankelfh.montecarlo", "mc_gap_probability", _samples),
    ("hankelfh.equilibrium", "equilibrium_measure", None),
    ("hankelfh.asymptotics", "predict_log_hankel", None),
    ("hankelfh.asymptotics", "expansion_coefficients", None),
    ("hankelfh.special", "log_barnes_g", None),
)


def layer_name(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
                counts[name + "_calls"] += 1
                if hook is not None:
                    hook(counts, signature.bind(*args, **kwargs), result)

        return traced

    @contextmanager
    def installed(self):
        """Patch every hankelfh reference to each LAYERS function."""
        patched = []
        try:
            for module_name, attr, hook in LAYERS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(layer_name(module_name, attr), original, hook)
                for name, module in list(sys.modules.items()):
                    if name.split(".")[0] != "hankelfh":
                        continue
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path, **meta):
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0].start if self.spans else 0.0
        payload = dict(
            meta,
            span_fields=["name", "start_s", "end_s", "parent", "op"],
            names=names,
            self_s=self_times(self.spans),
            spans=[
                [index[s.name], round(s.start - t0, 7), round(s.end - t0, 7), s.parent, s.op]
                for s in self.spans
            ],
        )
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def totals(spans):
    """{name: summed inclusive seconds}."""
    out = Counter()
    for s in spans:
        out[s.name] += s.end - s.start
    return out


def self_times(spans):
    """{name: summed self seconds}: each span's duration minus the time its
    direct children cover (children run one after another in one thread)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out = Counter()
    for i, s in enumerate(spans):
        out[s.name] += s.end - s.start - child[i]
    return dict(out)
