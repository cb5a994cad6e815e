"""Command-line front end.

Subcommands
-----------
eqmeasure   equilibrium density, Euler-Lagrange constant, regularity check
predict     expansion values per n with the full constant breakdown
oracle      exact extended-precision log-determinants per n
compare     prediction vs oracle with residual decay fit
thinning    thinned-spectrum gap probabilities (optional Monte Carlo)

Configuration is a flat JSON object whose keys are declared on the fields of
ExperimentConfig; command-line flags override file values. Complex numbers
are serialised as {"re":, "im":} and phases are radians in (-pi, pi]. Exit
codes: 0 success, 2 invalid or hypothesis-violating input, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .asymptotics import expansion_coefficients
from .chebyshev import ChebSeries
from .equilibrium import Potential, RescaledProblem, equilibrium_measure, rescale
from .errors import ConvergenceError, HankelFHError, RegularityError
from .montecarlo import MIN_SAMPLES, mc_gap_probability
from .oracle import MIN_PRECISION_BITS, WeightSpec, oracle_log_det, wrap_phase
from .singularities import Singularity, SingularityConfig, ThinningSpec
from .thinning import gap_probability_log, thinning_to_betas

_SINGULARITY_FIELDS = ("t", "alpha_re", "alpha_im", "beta_re", "beta_im")


class ConfigError(HankelFHError, ValueError):
    pass


def _is_number(v):
    """A finite JSON number that float() can hold; true/false are not numbers."""
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _list_of(check, min_len=0):
    return lambda v: isinstance(v, list) and len(v) >= min_len and all(map(check, v))


def _is_singularity(e):
    return (
        isinstance(e, dict)
        and "t" in e
        and set(e) <= set(_SINGULARITY_FIELDS)
        and all(map(_is_number, e.values()))
    )


def _floats(v):
    return [float(x) for x in v]


def _key(check, valid, convert, flag=None, **default):
    """Declare a config key on its ExperimentConfig field.

    ``check`` tests the JSON value, ``valid`` says in the error what a valid
    value is, ``convert`` makes the field's value from it, and ``default`` is
    the field's default or default_factory.
    ``flag`` = (name, add_argument keywords) declares the command-line flag
    that overrides the key; a "parse" keyword turns the flag's string into
    the JSON value after argparse has read it.
    """
    meta = {"check": check, "valid": valid, "convert": convert, "flag": flag}
    return field(metadata=meta, **default)


def _numbers_key():
    return _key(
        _list_of(_is_number), "a list of numbers", _floats, default_factory=list
    )


def _count_key(flag, helptext, minimum=0):
    """A non-negative integer, 0 by default; any other value at least
    ``minimum``."""
    return _key(
        lambda v: _is_int(v) and (v == 0 or v >= minimum),
        f"0 or an integer >= {minimum}" if minimum else "a non-negative integer",
        int, flag=(flag, {"type": int, "help": helptext}), default=0,
    )


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError("--n needs a comma-separated integer list")


@dataclass
class ExperimentConfig:
    """The flat JSON config; each field declares one key, in check order."""

    potential: list = _key(
        _list_of(_is_number, 3), "a list of at least 3 numbers", _floats,
        default_factory=lambda: [0.0, 0.0, 2.0],
    )
    support: list = _key(
        lambda v: _list_of(_is_number)(v) and len(v) == 2 and v[0] < v[1],
        "[a, b] with numbers a < b", _floats, default_factory=lambda: [-1.0, 1.0],
    )
    field_cheb: list = _numbers_key()
    field_poly: list = _numbers_key()
    singularities: list = _key(
        _list_of(_is_singularity),
        "a list of objects with a number 't' and optional numbers "
        "'alpha_re', 'alpha_im', 'beta_re', 'beta_im'",
        lambda v: [{k: float(e.get(k, 0.0)) for k in _SINGULARITY_FIELDS} for e in v],
        default_factory=list,
    )
    n_list: list = _key(
        _list_of(lambda x: _is_int(x) and x >= 1), "a list of integers >= 1",
        lambda v: sorted(set(v)), default_factory=list,
        flag=("--n", {"help": "comma-separated list of matrix sizes", "parse": _int_list}),
    )
    precision_bits: int = _count_key(
        "--precision", "oracle precision bits (0: the precision ladder)",
        MIN_PRECISION_BITS,
    )
    output_format: str = _key(
        lambda v: v in ("json", "csv"), "'json' or 'csv'", str, default="json",
        flag=("--format", {"choices": ("json", "csv"), "help": "output format"}),
    )
    seed: int = _count_key("--seed", "RNG seed")
    mc_samples: int = _count_key(
        "--mc-samples", "Monte Carlo samples (0: none)", MIN_SAMPLES
    )
    thinning_boundaries: list = _numbers_key()
    thinning_sectors: list = _key(
        lambda v: _list_of(_is_int)(v) and len(set(v)) == len(v),
        "a list of distinct integer sector indices", list, default_factory=list,
    )
    thinning_s: list = _numbers_key()


def _require(cond, key, message):
    if not cond:
        raise ConfigError(f"config key '{key}': {message}")


def parse_config(data) -> ExperimentConfig:
    """Check and convert a flat config mapping, key by key in declaration
    order, with errors that name the key."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    keys = fields(ExperimentConfig)
    unknown = set(data) - {k.name for k in keys}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key in (k for k in keys if k.name in data):
        spec, value = key.metadata, data[key.name]
        _require(spec["check"](value), key.name, f"needs {spec['valid']}")
        values[key.name] = spec["convert"](value)
    cfg = ExperimentConfig(**values)
    _require(
        not (cfg.field_cheb and cfg.field_poly),
        "field_poly",
        "give the field as Chebyshev or monomial coefficients, not both",
    )
    _require(
        len(cfg.thinning_sectors) == len(cfg.thinning_s),
        "thinning_s",
        "needs one removal probability per thinned sector",
    )
    return cfg


def _c(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


@dataclass
class _Problem:
    """Domain objects built from a config, rescaled to [-1, 1]."""

    V: Potential
    W: ChebSeries | None
    cfg: SingularityConfig
    rescaled: RescaledProblem

    @cached_property
    def measure(self):  # built on first use: the oracle never needs it
        return equilibrium_measure(self.V)

    def correction(self, n):
        # + 0j keeps the [-1, 1] correction an exact 0j: it turns the signed
        # zeros of (n^2 + nA) * 0.0 into +0.0
        return self.rescaled.log_det_correction(n, self.cfg.alpha_sum) + 0j


def _build_problem(cfg: ExperimentConfig) -> _Problem:
    a, b = cfg.support
    W = cfg.field_cheb or None
    if cfg.field_poly:  # rescale composes it with the map onto [-1, 1]
        W = np.polynomial.Polynomial(cfg.field_poly)
    res = rescale(Potential(cfg.potential), a, b, W, [s["t"] for s in cfg.singularities])
    order = np.argsort(res.t) if res.t else []
    sings = tuple(
        Singularity(
            res.t[i],
            complex(cfg.singularities[i]["alpha_re"], cfg.singularities[i]["alpha_im"]),
            complex(cfg.singularities[i]["beta_re"], cfg.singularities[i]["beta_im"]),
        )
        for i in order
    )
    return _Problem(V=res.V, W=res.W, cfg=SingularityConfig(sings), rescaled=res)


# ----------------------------------------------------------------- commands


def cmd_eqmeasure(cfg: ExperimentConfig):
    prob = _build_problem(cfg)
    cert = prob.measure.regularity
    report = {
        "psi_coeffs": [float(c) for c in np.real(prob.measure.psi.coeffs)],
        "ell": prob.measure.ell,
        # a list, not a tuple, keeps the CSV output as [a, b]
        "certificate": {
            **asdict(cert), "psi_at_endpoints": list(cert.psi_at_endpoints)
        },
    }
    if cfg.support != [-1.0, 1.0]:
        report["rescale"] = {
            "support": list(cfg.support),
            "log_half_width": prob.rescaled.log_half_width,
        }
    return {"config": asdict(cfg), "rows": [], "summary": report}, 0


def _predict_rows(cfg: ExperimentConfig, prob: _Problem):
    """One row per n of cfg.n_list, from one evaluation of the constants."""
    rows = []
    coeffs = expansion_coefficients(prob.V, prob.measure, prob.W, prob.cfg)
    for n in cfg.n_list:
        pred = coeffs.predict(n)
        value = pred.value + prob.correction(n)
        rows.append(
            {
                "n": n,
                "log_abs": value.real,
                "phase": wrap_phase(value.imag),
                "error_scale": pred.error_scale,
                "terms": {
                    "C1": _c(coeffs.C1),
                    "C2": _c(coeffs.C2),
                    "C3": _c(coeffs.C3),
                    "C4": _c(coeffs.C4),
                },
                "rescale_correction": _c(prob.correction(n)),
            }
        )
    return rows


def cmd_predict(cfg: ExperimentConfig):
    prob = _build_problem(cfg)
    rows = _predict_rows(cfg, prob)
    summary = {"beta_max": prob.cfg.beta_max}
    return {"config": asdict(cfg), "rows": rows, "summary": summary}, 0


def _run_oracle_rows(cfg: ExperimentConfig, prob: _Problem):
    """One exact determinant per n of cfg.n_list, in order and in this
    process, so that cached quadrature rules carry over from one n to the
    next; each row includes the rescaling correction."""
    rows = []
    for n in cfg.n_list:
        result = oracle_log_det(
            WeightSpec(prob.V, prob.W, prob.cfg, n), cfg.precision_bits or None
        )
        corr = prob.correction(n)
        rows.append(
            {
                "n": n,
                "log_abs": result.log_abs + corr.real,
                "phase": wrap_phase(result.phase + corr.imag),
                "precision_bits": result.precision_bits,
                "method": result.method,
                "converged": result.converged,
                "is_zero": result.is_zero,
                "rescale_correction": _c(corr),
            }
        )
    return rows


def cmd_oracle(cfg: ExperimentConfig):
    prob = _build_problem(cfg)
    rows = _run_oracle_rows(cfg, prob)
    code = 3 if any(not r["converged"] for r in rows) else 0
    return {"config": asdict(cfg), "rows": rows, "summary": {}}, code


def _fit_decay(ns, residuals):
    """Least-squares slope of log residual against log n: residual ~ c n^-p."""
    pairs = [(n, r) for n, r in zip(ns, residuals) if r > 0]
    if len(pairs) < 3:
        return None
    x = np.log([p[0] for p in pairs])
    y = np.log([p[1] for p in pairs])
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)


def cmd_compare(cfg: ExperimentConfig):
    prob = _build_problem(cfg)
    pred_rows = {r["n"]: r for r in _predict_rows(cfg, prob)}
    oracle_rows = _run_oracle_rows(cfg, prob)
    rows = []
    for orc in oracle_rows:
        n = orc["n"]
        pred = pred_rows[n]
        res_abs = abs(pred["log_abs"] - orc["log_abs"])
        res_phase = abs(wrap_phase(pred["phase"] - orc["phase"]))
        rows.append(
            {
                "n": n,
                "predicted": {"log_abs": pred["log_abs"], "phase": pred["phase"]},
                "oracle": {"log_abs": orc["log_abs"], "phase": orc["phase"]},
                "residual": {"log_abs": res_abs, "phase": res_phase},
                "error_scale": pred["error_scale"],
                "converged": orc["converged"],
                "is_zero": orc["is_zero"],
                "terms": pred["terms"],
            }
        )
    ns = [r["n"] for r in rows]
    fit = _fit_decay(ns, [r["residual"]["log_abs"] for r in rows])
    summary = {
        "decay_exponent": fit,
        "theoretical_exponent": 1.0 - 4.0 * prob.cfg.beta_max,
        "beta_max": prob.cfg.beta_max,
    }
    code = 3 if any(not r["converged"] for r in rows) else 0
    return {"config": asdict(cfg), "rows": rows, "summary": summary}, code


def cmd_thinning(cfg: ExperimentConfig):
    a, b = cfg.support
    _require(
        all(a < t < b for t in cfg.thinning_boundaries),
        "thinning_boundaries",
        f"needs points inside the support ({a}, {b})",
    )
    prob = _build_problem(cfg)
    measure = prob.measure  # checks V's regularity even when n_list is empty
    spec = ThinningSpec(
        tuple(map(prob.rescaled.to_unit, cfg.thinning_boundaries)),
        dict(zip(cfg.thinning_sectors, cfg.thinning_s)),
    )
    is_gaussian = prob.V.degree == 2 and np.allclose(prob.V.coeffs, [0.0, 0.0, 2.0])
    if cfg.mc_samples > 0 and not is_gaussian:
        raise ConfigError(
            "the Monte Carlo reference samples the Gaussian ensemble only; "
            "drop --mc-samples for other potentials"
        )
    tmap = thinning_to_betas(spec)
    rows = []
    for n in cfg.n_list:
        pred = gap_probability_log(prob.V, measure, spec, n)
        row = {
            "n": n,
            "gap_log_probability": pred.value,
            "gap_probability": float(np.exp(pred.value)),
            "error_scale": pred.error_scale,
        }
        if cfg.mc_samples > 0:
            est = mc_gap_probability(spec, n, cfg.mc_samples, cfg.seed)
            row["mc"] = {"estimate": est.estimate, "stderr": est.stderr}
        rows.append(row)
    summary = {
        "betas": [_c(b) for b in tmap.betas],
        "log_prefactor_per_point": tmap.log_prefactor,
    }
    return {"config": asdict(cfg), "rows": rows, "summary": summary}, 0


# ------------------------------------------------------------------- output


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in sorted(value.items()):
            _flatten(f"{prefix}{k}." if prefix else f"{k}.", v, out)
        return
    out[prefix.rstrip(".")] = value


def _to_csv(result):
    rows = result["rows"]
    buf = io.StringIO()
    if not rows:
        flat = {}
        _flatten("", result.get("summary", {}), flat)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for k in sorted(flat):
            writer.writerow([k, flat[k]])
        return buf.getvalue()
    flat_rows = []
    for row in rows:
        flat = {}
        _flatten("", row, flat)
        flat_rows.append(flat)
    headers = sorted({k for fr in flat_rows for k in fr})
    writer = csv.DictWriter(buf, fieldnames=headers, lineterminator="\n")
    writer.writeheader()
    for fr in flat_rows:
        writer.writerow(fr)
    return buf.getvalue()


def _emit(result, cfg, out_path):
    if cfg.output_format == "csv":
        text = _to_csv(result)
    else:
        text = json.dumps(result, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------- main


def _flags():
    """(config key, flag, add_argument keywords, parse) of each flag."""
    for key in fields(ExperimentConfig):
        if key.metadata["flag"]:
            flag, kwargs = key.metadata["flag"]
            kwargs = dict(kwargs)
            yield key.name, flag, kwargs, kwargs.pop("parse", None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hankel-fh",
        description="Hankel determinant asymptotics with Fisher-Hartwig "
        "singularities: predictions, exact oracles, and thinning "
        "experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("eqmeasure", "equilibrium measure and regularity certificate"),
        ("predict", "asymptotic log-determinants"),
        ("oracle", "exact log-determinants"),
        ("compare", "prediction vs oracle residuals"),
        ("thinning", "thinned-spectrum gap probabilities"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="path to a JSON config file")
        for _, flag, kwargs, _ in _flags():
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", help="output path (default stdout)")
    return parser


def _load_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config}:{exc.lineno}: {exc.msg}")
    flags = {}
    for key, flag, _, parse in _flags():
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest
        if value not in (None, ""):  # an empty --n overrides nothing
            flags[key] = parse(value) if parse else value
    if isinstance(data, dict):  # anything else is parse_config's error
        data = {**data, **flags}
    return parse_config(data)


_COMMANDS = {
    "eqmeasure": cmd_eqmeasure,
    "predict": cmd_predict,
    "oracle": cmd_oracle,
    "compare": cmd_compare,
    "thinning": cmd_thinning,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        result, code = _COMMANDS[args.command](cfg)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RegularityError as exc:
        print(f"error: condition {exc.condition} violated: {exc}", file=sys.stderr)
        return 2
    except (HankelFHError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(result, cfg, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
