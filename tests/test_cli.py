"""CLI: config parsing, round-trips, determinism, exit codes, formats."""

import json
import math
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankelfh.oracle as oracle_mod
from hankelfh.cli import ConfigError, ExperimentConfig, main, parse_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


BASE = {
    "potential": [0.0, 0.0, 2.0],
    "n_list": [3, 4],
}


# ----------------------------------------------------------------- config I/O


def test_parse_config_round_trip():
    cfg = parse_config(
        {
            "potential": [0, 0, 2.0],
            "singularities": [{"t": 0.3, "alpha_re": 1.0, "beta_im": 0.1}],
            "n_list": [4, 8],
            "seed": 7,
        }
    )
    again = parse_config(asdict(cfg))
    assert again == cfg


# values that were read unchecked: tracebacks, errors naming no key, or
# silently accepted (n_list [true]; a repeated sector kept its last s only);
# precision_bits and mc_samples below their minimum failed only deep in the
# oracle or the sampler, without naming the key
UNCHECKED_BEFORE = [
    ("support", ["a", 1]),
    ("support", [-1, float("inf")]),
    ("singularities", [{"t": 0.1, "alpha_re": None}]),
    ("singularities", [{"t": "x"}]),
    ("n_list", [True]),
    ("thinning_sectors", [1, 1]),
    ("precision_bits", 64),
    ("mc_samples", 5000),
]


def test_parse_config_field_precise_errors():
    with pytest.raises(Exception, match="potential"):
        parse_config({"potential": [1.0]})
    with pytest.raises(Exception, match="n_list"):
        parse_config({"potential": [0, 0, 2.0], "n_list": [0]})
    with pytest.raises(Exception, match="unknown config keys"):
        parse_config({"potential": [0, 0, 2.0], "bogus": 1})
    with pytest.raises(Exception, match="singularities"):
        parse_config({"potential": [0, 0, 2.0], "singularities": [{"x": 1}]})
    with pytest.raises(Exception, match="thinning_boundaries"):
        parse_config({"potential": [0, 0, 2.0], "thinning_boundaries": 0.5})
    with pytest.raises(Exception, match="thinning_sectors"):
        parse_config({"potential": [0, 0, 2.0], "thinning_sectors": ["a"]})
    with pytest.raises(Exception, match="thinning_s"):
        parse_config({"potential": [0, 0, 2.0], "thinning_s": "0.5"})
    for key, value in UNCHECKED_BEFORE:
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            parse_config({"potential": [0, 0, 2.0], key: value})


def test_parse_config_defaults_to_the_gaussian_potential():
    # every key has a default; without "potential" V is 2 x^2
    assert parse_config({}).potential == [0.0, 0.0, 2.0]


@pytest.mark.parametrize(
    "key, value",
    UNCHECKED_BEFORE,
    ids=["support-text", "support-inf", "alpha-null", "t-text", "n_list-true",
         "sectors-repeated", "precision-below-128", "mc-samples-below-10000"],
)
def test_unchecked_inputs_exit_2_naming_the_key(tmp_path, capsys, key, value):
    path = write_config(tmp_path, {key: value})
    code, out, err = run_cli(capsys, "predict", "--config", path)
    assert code == 2
    assert out == ""
    assert f"config key '{key}'" in err


@pytest.mark.parametrize(
    "field, value, cause",
    [
        ("alpha_re", 1e300, "alpha^2/4 - beta^2 overflows"),
        ("beta_im", 1e300, "alpha^2/4 - beta^2 overflows"),
        ("alpha_re", 1e154, "C4.barnes_1"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_singularity_exponent_exits_2_naming_the_cause(
    tmp_path, capsys, field, value, cause
):
    # finite config values that pass every key check, but whose squares (or
    # Barnes G terms) overflow the float expansion; the overflow must surface
    # as the named error alone, without a numpy RuntimeWarning on the way.
    # The oracle computes no expansion: there the jump factor e^(pi |Im beta|)
    # is what overflows, and the error names beta
    path = write_config(
        tmp_path, {"singularities": [{"t": 0.2, field: value}], "n_list": [3]}
    )
    runs = [("predict", cause)]
    if field == "beta_im":
        runs.append(("oracle", f"overflows a float (beta = {complex(0, value)})"))
    for command, expected in runs:
        code, out, err = run_cli(capsys, command, "--config", path)
        assert code == 2, command
        assert out == ""
        assert expected in err


@pytest.mark.parametrize(
    "support, cause",
    [
        ([-1e308, 1e308], "(b - a)/2 overflows"),
        ([-1e200, 1e200], "coefficients that overflow"),
    ],
)
def test_overflowing_support_exits_2_naming_it(tmp_path, capsys, support, cause):
    path = write_config(tmp_path, {"support": support, "n_list": [3]})
    code, out, err = run_cli(capsys, "predict", "--config", path)
    assert code == 2
    assert out == ""
    assert "is too wide" in err and cause in err


NUMBER_LIKE = (
    st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf])
)
SCALARS = st.none() | st.text(max_size=4) | NUMBER_LIKE
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# arbitrary JSON values plus near-valid shapes: lists of scalars, lists of
# number-like values, and lists of singularity-like entries
SINGULARITY_LIKE = st.fixed_dictionaries(
    {"t": SCALARS}, optional={"alpha_re": SCALARS, "beta_im": SCALARS, "x": SCALARS}
)
CONFIG_VALUES = (
    JSON_VALUES
    | st.lists(SCALARS, max_size=4)
    | st.lists(NUMBER_LIKE, max_size=4)
    | st.lists(SINGULARITY_LIKE, max_size=3)
)


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
@settings(max_examples=50, deadline=None)
@given(value=CONFIG_VALUES)
def test_parse_config_returns_or_names_the_key(key, value):
    data = {"potential": [0, 0, 2.0], key: value}
    try:
        cfg = parse_config(data)
    except ConfigError as exc:
        message = str(exc)
        assert (
            f"config key '{key}'" in message
            or "not both" in message  # field_cheb with field_poly
            or "one removal probability per thinned sector" in message
        ), message
    else:
        # an accepted value holds no booleans, NaN or infinities, in or out
        for leaf in [*json_leaves(value), *json_leaves(asdict(cfg))]:
            assert type(leaf) in (str, int) or (
                type(leaf) is float and math.isfinite(leaf)
            ), leaf
        assert parse_config(asdict(cfg)) == cfg


def json_leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from json_leaves(item)
    else:
        yield value


def test_emitted_json_config_reparses(tmp_path, capsys):
    path = write_config(tmp_path, dict(BASE, singularities=[{"t": 0.2, "alpha_re": 0.5}]))
    code, out, _ = run_cli(capsys, "predict", "--config", path)
    assert code == 0
    blob = json.loads(out)
    cfg = parse_config(blob["config"])
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.n_list == [3, 4]


# -------------------------------------------------------------------- commands


def test_eqmeasure_gue(capsys, tmp_path):
    path = write_config(tmp_path, {"potential": [0, 0, 2.0]})
    code, out, _ = run_cli(capsys, "eqmeasure", "--config", path)
    assert code == 0
    blob = json.loads(out)
    assert abs(blob["summary"]["psi_coeffs"][0] - 2 / 3.141592653589793) < 1e-12
    assert abs(blob["summary"]["ell"] - 2.386294361119891) < 1e-12


def test_eqmeasure_double_well_exits_2(capsys, tmp_path):
    path = write_config(tmp_path, {"potential": [0, 0, -7.0, 0, 6.0]})
    code, _, err = run_cli(capsys, "eqmeasure", "--config", path)
    assert code == 2
    assert "condition 4" in err


def test_eqmeasure_sextic_exits_2_naming_condition_3(capsys, tmp_path):
    path = write_config(tmp_path, {"potential": [0, 0, 77 / 16, 0, -2.5, 0, 0.5]})
    code, _, err = run_cli(capsys, "eqmeasure", "--config", path)
    assert code == 2
    assert "condition 3" in err


def test_eqmeasure_rescaled_support_reports_correction(capsys, tmp_path):
    path = write_config(
        tmp_path, {"potential": [0, 0, 0.5], "support": [-2.0, 2.0]}
    )
    code, out, _ = run_cli(capsys, "eqmeasure", "--config", path)
    assert code == 0
    blob = json.loads(out)
    assert abs(blob["summary"]["rescale"]["log_half_width"] - 0.6931471805599453) < 1e-12


def test_predict_gue_rows(capsys, tmp_path):
    path = write_config(tmp_path, BASE)
    code, out, _ = run_cli(capsys, "predict", "--config", path)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [3, 4]
    assert abs(rows[0]["terms"]["C2"]["re"] - 1.8378770664093453) < 1e-12


def test_predict_empty_n_list(capsys, tmp_path):
    path = write_config(tmp_path, {"potential": [0, 0, 2.0]})
    code, out, _ = run_cli(capsys, "predict", "--config", path)
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_predict_hypothesis_violation_exits_2(capsys, tmp_path):
    path = write_config(
        tmp_path,
        dict(BASE, singularities=[{"t": 0.2, "beta_re": 0.3}]),
    )
    code, _, err = run_cli(capsys, "predict", "--config", path)
    assert code == 2
    assert "beta" in err.lower()


def test_oracle_rows_match_product_formula(capsys, tmp_path):
    import hankelfh as hf

    path = write_config(tmp_path, dict(BASE, precision_bits=256))
    code, out, _ = run_cli(capsys, "oracle", "--config", path)
    assert code == 0
    rows = json.loads(out)["rows"]
    for row in rows:
        assert abs(row["log_abs"] - hf.gue_exact_log(row["n"])) < 1e-12
        assert row["phase"] == 0.0
        assert row["converged"]


def test_compare_joins_and_fits(capsys, tmp_path):
    path = write_config(
        tmp_path,
        {
            "potential": [0, 0, 2.0],
            "n_list": [3, 4, 6],
            "precision_bits": 256,
            "singularities": [{"t": 0.3, "alpha_re": 1.0}],
        },
    )
    code, out, _ = run_cli(capsys, "compare", "--config", path)
    assert code == 0
    blob = json.loads(out)
    assert blob["summary"]["decay_exponent"] is not None
    assert blob["summary"]["theoretical_exponent"] == 1.0
    for row in blob["rows"]:
        assert row["residual"]["log_abs"] < 0.5


def test_rescaled_support_matches_hand_rescaled_problem(capsys, tmp_path):
    # V~(y) = y^2/2, W~(y) = 0.3 y, t~ = 1 on [-2, 2] is V = 2x^2,
    # W = 0.6 x, t = 0.5 on [-1, 1], plus (n^2 + nA) log 2 in log D_n
    sing = {"t": 1.0, "alpha_re": 0.5, "alpha_im": -0.2}
    original = {"potential": [0, 0, 0.5], "support": [-2, 2],
                "field_poly": [0, 0.3], "singularities": [sing], "n_list": [3, 5]}
    by_hand = {"potential": [0, 0, 2.0], "field_poly": [0, 0.6],
               "singularities": [dict(sing, t=0.5)], "n_list": [3, 5]}
    for command in ("predict", "oracle"):
        rows = {}
        for name, data in (("original", original), ("by_hand", by_hand)):
            if command == "oracle":
                data = dict(data, n_list=[3], precision_bits=128)
            path = write_config(tmp_path, data, name=f"{name}.json")
            code, out, _ = run_cli(capsys, command, "--config", path)
            assert code == 0
            rows[name] = json.loads(out)["rows"]
        for got, ref in zip(rows["original"], rows["by_hand"]):
            n = got["n"]
            corr = (n * n + n * complex(0.5, -0.2)) * np.log(2.0)
            assert abs(got["log_abs"] - ref["log_abs"] - corr.real) < 1e-10
            dphase = got["phase"] - ref["phase"] - corr.imag
            assert abs((dphase + np.pi) % (2 * np.pi) - np.pi) < 1e-10
            rc = got["rescale_correction"]
            assert abs(complex(rc["re"], rc["im"]) - corr) < 1e-12
            assert ref["rescale_correction"] == {"re": 0.0, "im": 0.0}
            if command == "predict":
                assert got["terms"] == ref["terms"]


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_multi_n_rows_equal_single_n_rows(tmp_path, capsys, command):
    # one call evaluates its n in order in one process, sharing quadrature
    # caches across n; that must change no value of any row. Each single-n
    # call starts from empty caches, as in a fresh process
    path = write_config(
        tmp_path, {"singularities": [{"t": 0.2, "beta_im": 0.1}], "n_list": [4, 6, 8]}
    )
    code, out, _ = run_cli(capsys, command, "--config", path)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [4, 6, 8]
    for row in rows:
        oracle_mod._tanh_sinh_run.cache_clear()
        oracle_mod._gauss_legendre.cache_clear()
        code, out, _ = run_cli(capsys, command, "--config", path, "--n", str(row["n"]))
        assert code == 0
        assert json.loads(out)["rows"] == [row]


def test_compare_single_n_no_fit(capsys, tmp_path):
    path = write_config(tmp_path, dict(BASE, n_list=[4], precision_bits=256))
    code, out, _ = run_cli(capsys, "compare", "--config", path)
    assert code == 0
    assert json.loads(out)["summary"]["decay_exponent"] is None


def test_thinning_report(capsys, tmp_path):
    path = write_config(
        tmp_path,
        {
            "potential": [0, 0, 2.0],
            "n_list": [5],
            "thinning_boundaries": [0.0],
            "thinning_sectors": [1],
            "thinning_s": [0.5],
            "seed": 11,
            "mc_samples": 10000,
        },
    )
    code, out, _ = run_cli(capsys, "thinning", "--config", path)
    assert code == 0
    blob = json.loads(out)
    beta = blob["summary"]["betas"][0]
    assert abs(beta["im"] - 0.1103178000763258) < 1e-12
    row = blob["rows"][0]
    assert row["gap_probability"] < 1.0
    assert abs(row["mc"]["estimate"] - row["gap_probability"]) < 0.05


def test_thinning_mc_requires_gaussian_potential(capsys, tmp_path):
    path = write_config(
        tmp_path,
        {
            "potential": [0, 0, 1.7, 0, 0.2],
            "n_list": [5],
            "thinning_boundaries": [0.0],
            "thinning_sectors": [1],
            "thinning_s": [0.5],
            "mc_samples": 10000,
        },
    )
    code, _, err = run_cli(capsys, "thinning", "--config", path)
    assert code == 2
    assert "Gaussian" in err


def test_thinning_mc_reaches_n64(capsys, tmp_path):
    path = write_config(
        tmp_path,
        {
            "potential": [0, 0, 2.0],
            "n_list": [64],
            "thinning_boundaries": [0.0],
            "thinning_sectors": [1],
            "thinning_s": [0.5],
            "seed": 2,
        },
    )
    code, out, _ = run_cli(capsys, "thinning", "--config", path, "--mc-samples", "20000")
    assert code == 0
    mc = json.loads(out)["rows"][0]["mc"]
    assert isinstance(mc["estimate"], float) and 0.0 < mc["estimate"] < 1e-9
    assert mc["stderr"] > 0.0


def test_thinning_all_kept_probability_one(capsys, tmp_path):
    path = write_config(
        tmp_path,
        {
            "potential": [0, 0, 2.0],
            "n_list": [5],
            "thinning_boundaries": [0.0],
            "thinning_sectors": [1],
            "thinning_s": [1.0],
        },
    )
    code, out, _ = run_cli(capsys, "thinning", "--config", path)
    assert code == 0
    assert abs(json.loads(out)["rows"][0]["gap_probability"] - 1.0) < 1e-10


def test_thinning_boundaries_map_with_the_support(capsys, tmp_path):
    # on [0, 2], [2, -4, 2] rescales to 2x^2 and the boundary 1.3 to 0.3
    unit = {
        "potential": [0, 0, 2.0],
        "n_list": [4, 8],
        "thinning_boundaries": [0.3],
        "thinning_sectors": [1],
        "thinning_s": [0.5],
        "seed": 3,
        "mc_samples": 10000,
    }
    shifted = dict(unit, potential=[2, -4, 2.0], support=[0, 2], thinning_boundaries=[1.3])
    blobs = []
    for data in (unit, shifted):
        code, out, _ = run_cli(capsys, "thinning", "--config", write_config(tmp_path, data))
        assert code == 0
        blobs.append(json.loads(out))
    assert blobs[0]["rows"] == blobs[1]["rows"]
    assert blobs[0]["summary"] == blobs[1]["summary"]
    outside = write_config(tmp_path, dict(shifted, thinning_boundaries=[2.3]))
    code, _, err = run_cli(capsys, "thinning", "--config", outside)
    assert code == 2
    assert "thinning_boundaries" in err


# ----------------------------------------------------------- output mechanics


def test_byte_identical_output_for_same_seed(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "potential": [0, 0, 2.0],
            "n_list": [4],
            "thinning_boundaries": [0.0],
            "thinning_sectors": [1],
            "thinning_s": [0.6],
            "seed": 5,
            "mc_samples": 10000,
        },
    )
    _, out1, _ = run_cli(capsys, "thinning", "--config", path)
    _, out2, _ = run_cli(capsys, "thinning", "--config", path)
    assert out1 == out2


def test_csv_output(capsys, tmp_path):
    path = write_config(tmp_path, dict(BASE, precision_bits=256))
    code, out, _ = run_cli(
        capsys, "oracle", "--config", path, "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("converged")
    assert len(lines) == 3


def test_out_file(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "predict", "--config", path, "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["rows"]


def test_flag_overrides(capsys, tmp_path):
    path = write_config(tmp_path, BASE)
    code, out, _ = run_cli(capsys, "predict", "--config", path, "--n", "2")
    assert code == 0
    assert [r["n"] for r in json.loads(out)["rows"]] == [2]


def test_bad_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text, cause in (("{not json", "bad.json"), ("[1, 2]", "JSON object")):
        bad.write_text(text)
        code, _, err = run_cli(capsys, "predict", "--config", str(bad), "--n", "3")
        assert code == 2
        assert cause in err


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hankelfh.cli"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2


@pytest.mark.parametrize("command", ["predict", "compare"])
def test_rows_share_one_evaluation_of_the_constants(capsys, tmp_path, monkeypatch, command):
    # the constants do not depend on n: each call evaluates them once, and
    # every row is ExpansionCoefficients.predict at its n
    import hankelfh.cli as cli_mod

    calls = []
    original = cli_mod.expansion_coefficients

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli_mod, "expansion_coefficients", counting)
    data = {"singularities": [{"t": 0.2, "alpha_re": 0.5, "beta_im": 0.1}],
            "n_list": [3, 4, 6], "precision_bits": 256}
    code, out, _ = run_cli(capsys, command, "--config", write_config(tmp_path, data))
    assert code == 0
    assert len(calls) == 1
    coeffs = original(*calls[0])
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [3, 4, 6]
    for row in rows:
        pred = coeffs.predict(row["n"])
        if command == "predict":
            assert row["log_abs"] == pred.value.real
            assert row["error_scale"] == pred.error_scale
        else:
            assert row["predicted"]["log_abs"] == pred.value.real
