"""CLI: config parsing, round-trips, determinism, exit codes, formats."""

import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from hankelfh.cli import ExperimentConfig, main, parse_config


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
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "predict", "--config", str(bad))
    assert code == 2
    assert "bad.json" in err


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hankelfh.cli"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
