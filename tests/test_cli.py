import json
import os
from pathlib import Path
import subprocess
import sys

import jsonschema
import pytest

import catpop
from catpop.cli import main

ESTIMATE_SCHEMA = {
    "type": "object",
    "required": [
        "command", "params", "T", "x", "n", "method", "tilt",
        "p_hat", "log_rate", "std_err", "ci95", "ess", "seed", "ess_warning",
    ],
    "properties": {
        "command": {"const": "estimate"},
        "params": {
            "type": "object",
            "required": ["lambda", "mu", "alpha"],
            "properties": {k: {"type": "number"} for k in ("lambda", "mu", "alpha")},
        },
        "T": {"type": "number"},
        "x": {"type": "number"},
        "n": {"type": "integer"},
        "method": {"enum": ["naive", "is"]},
        "tilt": {"type": ["object", "null"]},
        "p_hat": {"type": "number"},
        "log_rate": {"type": "number"},
        "std_err": {"type": "number"},
        "ci95": {"type": "array", "items": {"type": "number"}},
        "ess": {"type": "number"},
        "seed": {"type": "integer"},
        "ess_warning": {"type": "boolean"},
    },
}

EXACT_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "T", "M", "K", "masses", "truncation_error"],
    "properties": {
        "command": {"const": "exact"},
        "masses": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "truncation_error": {"type": "number", "minimum": 0},
    },
}


def _run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    rc = main([*argv, "--out", str(out)])
    return rc, (out.read_text() if out.exists() else "")


def test_simulate_events_csv(tmp_path):
    rc, text = _run(tmp_path, "simulate", "--T", "4", "--seed", "5")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "time,kind,post_state"
    for line in lines[1:]:
        time_s, kind, state = line.split(",")
        assert kind in ("birth", "catastrophe")
        assert 0 < float(time_s) <= 4.0
        assert int(state) >= 0


def test_simulate_scaled_grid(tmp_path):
    rc, text = _run(tmp_path, "simulate", "--T", "4", "--seed", "5", "--grid", "8")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 10
    assert lines[1].startswith("0,")


def test_exact_json_schema_and_roundtrip(tmp_path):
    rc, text = _run(tmp_path, "exact", "--T", "4", "--x", "0.5", "--format", "json")
    assert rc == 0
    doc = json.loads(text)
    jsonschema.validate(doc, EXACT_SCHEMA)
    assert abs(sum(doc["masses"]) + doc["truncation_error"] - 1.0) < 1e-12
    assert doc["tail_probability"] == pytest.approx(0.364847004572957, abs=1e-14)
    # 17-significant-digit serialization re-parses to the same double
    assert json.loads(json.dumps(doc)) == doc


def test_exact_truncation_budget_exit_code(tmp_path):
    rc, _ = _run(tmp_path, "exact", "--T", "4", "--K", "3")
    assert rc == 3


def test_exact_tail_event_is_k_over_T_at_least_x(tmp_path):
    # 0.28 * 25 rounds to 7.000000000000001; the event k/T >= 0.28 starts at 7
    rc, text = _run(tmp_path, "exact", "--T", "25", "--x", "0.28")
    assert rc == 0
    doc = json.loads(text)
    assert doc["tail_probability"] == pytest.approx(sum(doc["masses"][7:]), rel=1e-12)
    assert doc["tail_probability"] == pytest.approx(0.0202, abs=1e-4)


def test_rate_variational_column_agrees(tmp_path):
    rc, text = _run(tmp_path, "rate", "--grid", "12", "--x", "3")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "x,rate_closed_form,rate_variational,argmax_y,argmax_z"
    for line in lines[1:]:
        _, closed, variational, _, _ = map(float, line.split(","))
        assert abs(closed - variational) <= 1e-6


def test_estimate_json_schema(tmp_path):
    rc, text = _run(
        tmp_path, "estimate", "--T", "4", "--x", "0.5", "--n", "2000", "--method", "is"
    )
    assert rc == 0
    doc = json.loads(text)
    jsonschema.validate(doc, ESTIMATE_SCHEMA)
    assert doc["tilt"]["theta1"] == 2.0


def test_estimate_zero_level_is_certain(tmp_path):
    for method in ("naive", "is"):
        rc, text = _run(
            tmp_path, "estimate", "--T", "4", "--x", "0", "--n", "500", "--method", method
        )
        assert rc == 0
        assert json.loads(text)["p_hat"] == 1.0


def test_byte_determinism_and_worker_invariance(tmp_path):
    argv = ["estimate", "--T", "4", "--x", "0.5", "--n", "3000", "--method", "is", "--seed", "9"]
    _, first = _run(tmp_path, *argv)
    _, second = _run(tmp_path, *argv)
    assert first == second
    _, third = _run(tmp_path, *argv, "--workers", "3")
    assert first == third


def test_simulate_byte_determinism(tmp_path):
    argv = ["simulate", "--T", "6", "--seed", "21", "--method", "decomposed"]
    _, first = _run(tmp_path, *argv)
    _, second = _run(tmp_path, *argv)
    assert first == second


def test_lln_csv(tmp_path):
    rc, text = _run(tmp_path, "lln", "--T-list", "4,8", "--eps", "0.5", "--n", "400")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "T,fraction,ci_lo,ci_hi,n"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert 0.0 <= float(fields[1]) <= 1.0


def test_sweep_csv_with_failure_row(tmp_path):
    import csv
    import io

    rc, text = _run(
        tmp_path, "sweep", "--T-list", "4,-1", "--x", "0.5", "--n", "500",
        "--method", "naive",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["T", "log_rate", "log_rate_lo", "log_rate_hi", "p_hat", "std_err", "ess", "error"]
    assert rows[1][-1] == ""
    assert rows[2][0] == "-1" and "ValueError" in rows[2][-1]
    assert all(cell == "" for cell in rows[2][1:-1])


def test_sweep_order_independence(tmp_path):
    _, forward = _run(tmp_path, "sweep", "--T-list", "4,8", "--x", "0.5", "--n", "500")
    _, backward = _run(tmp_path, "sweep", "--T-list", "8,4", "--x", "0.5", "--n", "500")
    f_lines = forward.splitlines()
    b_lines = backward.splitlines()
    assert f_lines[1] == b_lines[2]
    assert f_lines[2] == b_lines[1]


def test_paths_csv_and_distance(tmp_path):
    rc, text = _run(
        tmp_path, "paths", "--T", "40", "--x", "0.5", "--n", "4000", "--grid", "20"
    )
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "t,conditioned_mean,optimal,abs_error"
    assert len(lines) == 22
    terminal = lines[-1].split(",")
    assert float(terminal[1]) >= 0.5


def test_paths_statistical_failure(tmp_path, capsys):
    rc, _ = _run(
        tmp_path, "paths", "--T", "4", "--x", "40", "--n", "50",
        "--tilt-s", "0", "--tilt-theta1", "1", "--tilt-theta2", "1",
    )
    assert rc == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "statistical"


@pytest.mark.parametrize("x", ["0", "-1"])
def test_paths_rejects_nonpositive_level_before_simulating(tmp_path, capsys, monkeypatch, x):
    def no_simulation(*args, **kwargs):
        raise AssertionError("paths must reject the level before simulating")

    monkeypatch.setattr("catpop.cli.collect_weighted_paths", no_simulation)
    rc, text = _run(tmp_path, "paths", "--T", "20", "--x", x, "--n", "3000")
    assert rc == 2
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == "x"


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["estimate", "--T", "160", "--x", "0.5", "--method", "is", "--tilt-theta1", "1e300"],
         "tilt multiplier theta1"),
        (["estimate", "--T", "1e300", "--x", "0.5", "--n", "10"], "horizon T"),
    ],
)
def test_poisson_mean_out_of_range_names_its_cause(tmp_path, capsys, argv, cause):
    rc, _ = _run(tmp_path, *argv)
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert cause in record["message"]
    assert "lam value too large" not in record["message"]


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# experiment defaults\n"
        "T = 2\n"
        "x = 0.25\n"
        "n = 400\n"
        "seed = 11\n"
    )
    rc, text = _run(tmp_path, "estimate", "--config", str(config), "--x", "0.5")
    assert rc == 0
    doc = json.loads(text)
    assert doc["T"] == 2.0      # from file
    assert doc["x"] == 0.5      # flag beats file
    assert doc["n"] == 400
    assert doc["seed"] == 11


def test_config_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("T = 2\nx = 0.5\nbogus = 1\n")
    rc, _ = _run(tmp_path, "estimate", "--config", str(config))
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == "bogus"


def test_config_bad_value_rejected(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("T = abc\nx = 0.5\n")
    rc, _ = _run(tmp_path, "estimate", "--config", str(config))
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["key"] == "T"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_rejected(tmp_path, capsys, workers):
    rc, _ = _run(tmp_path, "estimate", "--T", "4", "--x", "0.5", "--n", "100", "--workers", workers)
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == "workers"


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_rate_grid_below_one_rejected(tmp_path, capsys, grid):
    rc, text = _run(tmp_path, "rate", "--grid", grid, "--x", "2")
    assert rc == 2
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == "grid"


@pytest.mark.parametrize("flag, value", [("--tilt-theta1", "nan"), ("--tilt-theta2", "inf")])
def test_non_finite_tilt_multiplier_rejected(tmp_path, capsys, flag, value):
    rc, _ = _run(tmp_path, "estimate", "--T", "4", "--x", "0.5", "--method", "is", flag, value)
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert flag.removeprefix("--tilt-") in record["message"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["exact", "--T", "800"], 3),
        (["estimate", "--T", "4", "--x", "0.5", "--n", "100", "--workers", "0"], 2),
    ],
)
def test_error_record_is_one_json_line(tmp_path, capsys, argv, code):
    rc, _ = _run(tmp_path, *argv)
    assert rc == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["message"]


def test_missing_required_key_rejected(tmp_path, capsys):
    rc, _ = _run(tmp_path, "estimate", "--x", "0.5")
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == "T"


def test_invalid_model_parameter_rejected(tmp_path):
    rc, _ = _run(tmp_path, "estimate", "--T", "4", "--x", "0.5", "--lambda", "-1")
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--T", "4", "--seed", "5"],
        ["simulate", "--T", "4", "--seed", "5", "--grid", "6"],
        ["exact", "--T", "4", "--x", "0.5"],
        ["rate", "--grid", "4", "--x", "2"],
        ["estimate", "--T", "4", "--x", "0.5", "--n", "800", "--method", "is"],
        ["lln", "--T-list", "4,8", "--eps", "0.5", "--n", "300"],
        ["sweep", "--T-list", "4,8", "--x", "0.5", "--n", "300"],
        ["paths", "--T", "20", "--x", "0.5", "--n", "1500"],
    ],
)
def test_every_json_output_reparses_to_equal_value(tmp_path, argv):
    from catpop.cli import _render_json

    rc, text = _run(tmp_path, *argv, "--format", "json")
    assert rc == 0
    doc = json.loads(text)
    # 17-significant-digit floats round-trip bit for bit
    assert _render_json(doc) + "\n" == text


def test_console_entry_point_runs():
    # the child imports the catpop under test, also when only pytest's pythonpath finds it
    src = str(Path(catpop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "catpop.cli", "rate", "--grid", "3", "--x", "1"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,rate_closed_form")
