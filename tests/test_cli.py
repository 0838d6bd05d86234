import json
import math
import os
from pathlib import Path
import re
import shlex
import subprocess
import sys

import jsonschema
import pytest

import catpop
from catpop import cli, montecarlo
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
    # shortest round-trip floats re-parse to the same double
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


@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "1e200", "--x", "1e-200"],
        ["--x", "1e-12"],
        ["--mu", "1e-4", "--x", "0.5"],
        ["--mu", "1e-3", "--x", "0.06"],
    ],
)
def test_rate_far_from_the_clock_rate_agrees_with_the_closed_form(tmp_path, argv):
    # x/alpha underflowed the old linear search's z range (exit 2), at 1e-12 an absolute
    # tolerance on z read a rate 3.6 times too large, and at mu << lambda the objective is
    # nearly flat along the ridge y = b*z, where an ascent in y and z in turn exits 3
    rc, text = _run(tmp_path, "rate", "--grid", "1", *argv)
    assert rc == 0
    _, closed, variational, _, _ = map(float, text.splitlines()[1].split(","))
    assert math.isclose(variational, closed, rel_tol=1e-9)


@pytest.mark.parametrize(
    "argv, entry", [(["rate", "--grid", "1"], "terminal_rate_variational"), (["exact", "--T", "4"], "exact_state_distribution")]
)
def test_a_failure_of_ours_that_is_not_a_refusal_exits_numerical(tmp_path, capsys, monkeypatch, argv, entry):
    def fails(*args, **kwargs):
        raise ValueError("not an input refusal")

    monkeypatch.setattr(cli, entry, fails)
    rc, text = _run(tmp_path, *argv)
    assert rc == 3
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "numerical", "message": "not an input refusal"}


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
    # x = 0.5 runs merged two-stream blocks, x = 2 sparse ones
    for x in ("0.5", "2"):
        argv = ["estimate", "--T", "4", "--x", x, "--n", "3000", "--method", "is", "--seed", "9"]
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
    assert lines[0] == "T,fraction,ci_lo,ci_hi,n,error"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert 0.0 <= float(fields[1]) <= 1.0


@pytest.mark.parametrize(
    "argv, header",
    [
        (["lln", "--eps", "0.5", "--n", "500"], ["T", "fraction", "ci_lo", "ci_hi", "n", "error"]),
        (["sweep", "--x", "0.5", "--n", "500", "--method", "naive"],
         ["T", "log_rate", "log_rate_lo", "log_rate_hi", "p_hat", "std_err", "ess", "error"]),
    ],
    ids=["lln", "sweep"],
)
def test_sweep_csv_with_failure_row(tmp_path, argv, header):
    import csv
    import io

    _, good = _run(tmp_path, *argv, "--T-list", "4")
    for bad in ("-1", "nan", "inf"):
        rc, text = _run(tmp_path, *argv, "--T-list", f"4,{bad}")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == header
        # the good horizon's row is the one it has on its own
        assert text.splitlines()[1] == good.splitlines()[1]
        assert rows[1][-1] == ""
        assert rows[2][0] == bad
        assert len(rows[2]) == len(header)
        assert rows[2][-1].startswith("InputError: horizon T must be finite and > 0")
        assert all(cell == "" for cell in rows[2][1:-1])


def test_lln_horizon_whose_eps_T_overflows_is_a_failure_row(tmp_path):
    rc, text = _run(tmp_path, "lln", "--T-list", "4,1e300", "--eps", "1e10", "--n", "10")
    assert rc == 0
    rows = text.splitlines()
    assert rows[1].endswith(",")
    assert rows[2].startswith('1.0000000000000001e+300,,,,,"InputError: eps must be finite and > 0 with eps*T finite')


@pytest.mark.parametrize(
    "argv",
    [["lln", "--eps", "0.5", "--n", "500"], ["sweep", "--x", "0.5", "--n", "500"]],
    ids=["lln", "sweep"],
)
def test_sweep_order_independence(tmp_path, argv):
    _, forward = _run(tmp_path, *argv, "--T-list", "4,8")
    _, backward = _run(tmp_path, *argv, "--T-list", "8,4")
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


def test_estimate_with_every_weight_underflowing_exits_statistical(tmp_path, capsys):
    rc, text = _run(
        tmp_path, "estimate", "--T", "4", "--x", "0.5", "--method", "is", "--n", "100",
        "--tilt-theta1", "300",
    )
    assert rc == 4
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "statistical"
    assert "theta1=300.0" in record["message"]


@pytest.mark.parametrize("T", ["240", "200"])
def test_estimate_whose_squared_hit_weights_underflow_exits_statistical(tmp_path, capsys, T):
    # at T = 240 the hit weights sum to about 2e-183 and their squares to 0, which would
    # read as a standard error of 0; at T = 200 the squares still carry the error
    rc, text = _run(tmp_path, "estimate", "--T", T, "--x", "2", "--method", "is", "--n", "4000", "--seed", "11")
    if T == "240":
        assert rc == 4
        assert text == ""
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "statistical"
        assert "squares of the hit weights" in record["message"]
    else:
        assert rc == 0
        doc = json.loads(text)
        assert 0 < doc["p_hat"] < doc["std_err"] < 1e-150


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
    "argv",
    [
        ["sweep", "--T-list", "4,8", "--x", "0.5", "--n", "0"],
        ["sweep", "--T-list", "4,8", "--x", "-1"],
        ["sweep", "--T-list", "4,8", "--x", "nan", "--method", "naive"],
        ["lln", "--T-list", "4,8", "--eps", "-1"],
        ["lln", "--T-list", "4,8", "--eps", "0.5", "--n", "0"],
    ],
)
def test_sweep_rejects_horizon_independent_input_before_any_horizon(capsys, monkeypatch, argv):
    calls = []
    for name in ("estimate_tail_naive", "estimate_tail_is", "sup_exceedance_fraction"):
        monkeypatch.setattr(montecarlo, name, lambda *args, **kwargs: calls.append(args))
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert calls == []
    record = json.loads(captured.err)
    assert record["error"] == "config"
    if "-1" in argv:
        assert record["key"] == {"sweep": "x", "lln": "eps"}[argv[0]]


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["estimate", "--T", "160", "--x", "0.5", "--method", "is", "--tilt-theta1", "1e300"],
         "tilt multiplier theta1"),
        (["estimate", "--T", "1e300", "--x", "0.5", "--n", "10"], "horizon T"),
        (["simulate", "--T", "1e300"], "horizon T"),
    ],
)
def test_poisson_mean_out_of_range_names_its_cause(tmp_path, capsys, argv, cause):
    rc, _ = _run(tmp_path, *argv)
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert cause in record["message"]
    assert "lam value too large" not in record["message"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["exact", "--T", "1e7"], "T"),
        (["estimate", "--T", "1e300", "--x", "0.5", "--n", "10"], "T"),
        (["estimate", "--T", "1e300", "--x", "0.5", "--n", "10", "--method", "is"], "T"),
        (["estimate", "--T", "1e300", "--x", "0.5", "--n", "3000", "--workers", "2"], "T"),
        (["paths", "--T", "1e300", "--x", "0.5", "--n", "10"], "T"),
        (["simulate", "--T", "1e300"], "T"),
        (["estimate", "--T", "160", "--x", "0.5", "--n", "10", "--method", "is", "--tilt-theta1", "1e6"],
         "tilt-theta1"),
        (["paths", "--T", "160", "--x", "0.5", "--n", "10", "--tilt-theta2", "1e6"], "tilt-theta2"),
        (["paths", "--T", "160", "--x", "1e6", "--n", "10"], "x"),
        (["estimate", "--T", "160", "--x", "1e307", "--n", "10"], "x"),
        (["estimate", "--T", "160", "--x", "1e307", "--n", "10", "--method", "is"], "x"),
        (["paths", "--T", "160", "--x", "1e307", "--n", "10"], "x"),
        (["exact", "--T", "1e6", "--x", "1e303"], "x"),
        (["estimate", "--T", "4", "--x", "1e10", "--n", "10", "--method", "is", "--lambda", "1e-300",
          "--tilt-theta1", "2"], "x"),
        (["estimate", "--T", "1e300", "--x", "0.5", "--n", "10", "--method", "is", "--alpha", "1e10",
          "--tilt-s", "0"], "T"),
    ],
)
def test_budget_refusal_is_keyed_by_the_input_that_set_it(tmp_path, capsys, argv, key):
    # the oracle's Poisson window, the per-block event budget and the tail level x*T name the
    # flag at fault; a multiplier the default tilt derived from the level names x, even where a
    # flag replaces it, and a horizon-matched theta2 the catastrophes of T overflow names T
    rc, _ = _run(tmp_path, *argv)
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == key


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


@pytest.mark.parametrize("case", ["unreadable", "line-without-equals", "not-utf8"])
def test_config_file_errors_are_keyed_config(tmp_path, capsys, case):
    config = tmp_path / "run.cfg"  # left unwritten in the unreadable case
    if case == "line-without-equals":
        config.write_text("T = 2\nx 0.5\n")
    if case == "not-utf8":
        config.write_bytes(b"T = 2\nx = \xff\n")
    rc, text = _run(tmp_path, "estimate", "--config", str(config))
    assert rc == 2
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == "config"
    expected = {
        "unreadable": "cannot read config file",
        "line-without-equals": "run.cfg:2: expected 'key = value'",
        "not-utf8": f"cannot read config file {config}: 'utf-8' codec can't decode byte 0xff",
    }
    assert expected[case] in record["message"]


@pytest.mark.parametrize("case", ["missing-directory", "directory"])
def test_unwritable_out_is_keyed_out(tmp_path, capsys, case):
    out = tmp_path / "missing" / "file" if case == "missing-directory" else tmp_path
    rc = main(["estimate", "--T", "4", "--x", "0.5", "--n", "10", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "config"
    assert record["key"] == "out"
    assert record["message"].startswith(f"cannot write output file {out}")


@pytest.mark.parametrize("case", ["missing-directory", "directory"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_unwritable_out_is_refused_before_the_run(tmp_path, capsys, monkeypatch, case, source):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "estimate_tail_naive", reached)
    out = tmp_path / "missing" / "file" if case == "missing-directory" else tmp_path
    argv = ["estimate", "--T", "4", "--x", "0.5", "--n", "10"]
    if source == "flag":
        argv += ["--out", str(out)]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"out = {out}\n")
        argv += ["--config", str(config)]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == "out"


def test_failed_run_leaves_an_existing_out_file_as_it_was(tmp_path, capsys):
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier result\n")
    rc = main([
        "paths", "--T", "4", "--x", "40", "--n", "50", "--tilt-s", "0", "--tilt-theta1", "1", "--tilt-theta2", "1",
        "--out", str(out),
    ])
    assert rc == 4
    assert json.loads(capsys.readouterr().err)["error"] == "statistical"
    assert out.read_bytes() == b"earlier result\n"


@pytest.mark.parametrize("argv", [
    ["estimate", "--T", "4", "--x", "0.5", "--n", "2000", "--seed", "7", "--method", "is", "--format", "csv"],
    ["exact", "--T", "4", "--x", "0.5"],
])
def test_stdout_carries_the_bytes_out_writes(tmp_path, capsysbinary, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


@pytest.mark.parametrize(
    "command, required, key, bad",
    [
        ("estimate", ["--x", "0.5"], "T", "abc"),
        ("estimate", ["--T", "4", "--x", "0.5"], "format", "xml"),
        ("estimate", ["--T", "4", "--x", "0.5"], "n", "1.5"),
        ("lln", ["--eps", "0.5"], "T-list", "4,a"),
    ],
)
def test_bad_flag_value_fails_like_the_same_bad_file_value(tmp_path, capsys, command, required, key, bad):
    rc_flag = main([command, *required, f"--{key}", bad])
    flag_err = capsys.readouterr().err
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = {bad}\n")
    rc_file = main([command, *required, "--config", str(config)])
    file_err = capsys.readouterr().err
    assert rc_flag == rc_file == 2
    assert len(flag_err.splitlines()) == 1
    record = json.loads(flag_err)
    assert record["error"] == "config"
    assert record["key"] == key
    assert record == json.loads(file_err)


def test_bad_file_value_fails_where_a_flag_overrides_it(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("T = abc\n")
    rc, text = _run(tmp_path, "estimate", "--config", str(config), "--T", "4", "--x", "0.5")
    assert rc == 2
    assert text == ""
    assert json.loads(capsys.readouterr().err)["key"] == "T"


@pytest.mark.parametrize(
    "command, choices",
    [
        ("simulate", ["csv or json", "subordinated or decomposed"]),
        ("exact", ["csv or json"]),
        ("rate", ["csv or json"]),
        ("estimate", ["csv or json", "naive or is"]),
        ("lln", ["csv or json"]),
        ("sweep", ["csv or json", "naive or is"]),
        ("paths", ["csv or json"]),
    ],
)
def test_help_lists_choices(capsys, command, choices):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for choice in choices:
        assert choice in text


@pytest.mark.parametrize("x", ["nan", "inf", "-inf", "-1", "0"])
def test_rate_rejects_a_level_not_finite_and_positive(tmp_path, capsys, x):
    rc, text = _run(tmp_path, "rate", f"--x={x}", "--grid", "3")
    assert rc == 2
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == "x"


def test_rate_level_whose_grid_overflows_is_keyed(tmp_path, capsys):
    # x itself is finite; its grid point x*i/grid is not
    rc, text = _run(tmp_path, "rate", "--x=1e308", "--grid", "50")
    assert rc == 2
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == "x"


def test_rate_level_whose_rate_overflows_is_keyed(tmp_path, capsys):
    # x and x*grid are finite; the closed-form rate at x is not
    rc, text = _run(tmp_path, "rate", "--x=1e306", "--grid", "5")
    assert rc == 2
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "config"
    assert record["key"] == "x"


@pytest.mark.parametrize("flag, value", [("tilt-s", "1"), ("tilt-theta1", "0"), ("tilt-theta2", "inf")])
@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--T", "4", "--x", "0.5", "--n", "10", "--method", "is"],
        ["paths", "--T", "4", "--x", "0.5", "--n", "10"],
    ],
    ids=["estimate", "paths"],
)
def test_bad_tilt_value_is_keyed_by_its_flag(tmp_path, capsys, argv, flag, value):
    rc, text = _run(tmp_path, *argv, f"--{flag}", value)
    assert rc == 2
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == flag


@pytest.mark.parametrize("key", ["tilt-s", "tilt-theta1", "tilt-theta2"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_naive_estimate_refuses_a_tilt(tmp_path, capsys, monkeypatch, key, source):
    def no_simulation(*args, **kwargs):
        raise AssertionError("a tilt given to the naive estimator must be refused before simulating")

    monkeypatch.setattr("catpop.cli.estimate_tail_naive", no_simulation)
    argv = ["estimate", "--T", "4", "--x", "0.5", "--n", "100"]
    if source == "flag":
        argv += [f"--{key}", "0.5"]
    else:
        config = tmp_path / "tilt.cfg"
        config.write_text(f"{key} = 0.5\n")
        argv += ["--config", str(config)]
    rc, text = _run(tmp_path, *argv)
    assert rc == 2
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == key


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_config_is_keyed_by_option_names(tmp_path, capsys, command):
    # one name per option: flag, config-file key, error key and cfg key
    required = {"T": "4", "x": "0.5", "eps": "0.5", "T-list": "4,8"}
    argv = [command]
    for opt in cli._COMMANDS[command]["opts"]:
        if opt.key in required:
            argv += [f"--{opt.key}", required[opt.key]]
    args = cli._parse_args(argv)
    cfg = cli._merge_config(command, args)
    assert set(cfg) == {opt.key for opt in cli._COMMON + cli._COMMANDS[command]["opts"]}
    # another command's option is refused under its own name, as a flag and as a file key
    config = tmp_path / "other.cfg"
    for key in sorted({o.key for spec in cli._COMMANDS.values() for o in spec["opts"]} - set(cfg)):
        config.write_text(f"{key} = 1\n")
        for extra in ([f"--{key}", "1"], ["--config", str(config)]):
            assert main([*argv, *extra]) == 2
            assert json.loads(capsys.readouterr().err)["key"] == key


_SHARED = {"lambda", "mu", "alpha", "out", "format"}
_TILT_KEYS = {"tilt-s", "tilt-theta1", "tilt-theta2"}


@pytest.mark.parametrize(
    "command, keys",
    [
        ("simulate", {"T", "method", "grid", "seed"}),
        ("exact", {"T", "M", "K", "x"}),
        ("rate", {"x", "grid"}),
        ("estimate", {"T", "x", "n", "method", *_TILT_KEYS, "seed", "workers"}),
        ("lln", {"T-list", "eps", "n", "seed", "workers"}),
        ("sweep", {"T-list", "x", "n", "method", "seed", "workers"}),
        ("paths", {"T", "x", "n", "grid", *_TILT_KEYS, "seed", "workers"}),
    ],
)
def test_each_command_takes_exactly_the_options_it_reads(command, keys):
    # a command that draws nothing at random takes no seed, and one that runs no replica blocks no workers
    assert {opt.key for opt in cli._COMMON + cli._COMMANDS[command]["opts"]} == _SHARED | keys
    assert not {"seed", "workers"} & {opt.key for opt in cli._COMMON}


@pytest.mark.parametrize(
    "argv, key",
    [
        (["exact", "--T", "-1"], "T"),
        (["simulate", "--T", "-1"], "T"),
        (["estimate", "--T", "-1", "--x", "0.5", "--n", "10"], "T"),
        (["estimate", "--T", "inf", "--x", "0.5", "--n", "10"], "T"),
        (["paths", "--T", "-2", "--x", "0.5", "--n", "10"], "T"),
        (["simulate", "--T", "nan"], "T"),
        (["estimate", "--T", "4", "--x", "0.5", "--n", "10", "--seed", "-1"], "seed"),
        (["estimate", "--T", "4", "--x", "0.5", "--n", "10", "--seed", str(2**64)], "seed"),
        (["simulate", "--T", "4", "--seed", "-1"], "seed"),
        (["estimate", "--T", "4", "--x", "inf", "--n", "10"], "x"),
        (["sweep", "--T-list", "4", "--x", "nan", "--n", "10"], "x"),
        (["exact", "--T", "4", "--x", "inf"], "x"),
        (["exact", "--T", "4", "--seed", "9"], "seed"),
        (["rate", "--grid", "2", "--seed", "5"], "seed"),
        (["exact", "--T", "4", "--workers", "3"], "workers"),
        (["simulate", "--T", "4", "--workers", "1"], "workers"),
        (["rate", "--grid", "2", "--workers", "5"], "workers"),
    ],
)
def test_horizon_seed_level_and_ignored_flags_are_keyed(tmp_path, capsys, argv, key):
    # each is refused by its cast, before any library call, with the flag named
    rc, text = _run(tmp_path, *argv)
    assert rc == 2
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == key


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--T", "0"],
        ["estimate", "--T", "4", "--x", "0.5", "--n", "10", "--seed", str(2**64 - 1)],
    ],
    ids=["exact-at-T-0", "largest-seed"],
)
def test_the_ends_of_the_horizon_and_seed_ranges_run(tmp_path, argv):
    rc, text = _run(tmp_path, *argv)
    assert rc == 0
    assert text


def test_exact_refuses_a_level_at_T_0_before_computing_the_law(tmp_path, capsys, monkeypatch):
    laws = []
    monkeypatch.setattr(cli, "exact_state_distribution", lambda *args: laws.append(args))
    rc, text = _run(tmp_path, "exact", "--T", "0", "--x", "0.5")
    assert rc == 2
    assert text == ""
    assert laws == []
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == "T"
    monkeypatch.undo()
    # the law alone is defined at T = 0: all its mass sits at state 0
    rc, text = _run(tmp_path, "exact", "--T", "0")
    assert rc == 0
    assert json.loads(text)["masses"][0] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--T", "4", "--n", "500", "--method", "is"],
        ["paths", "--T", "4", "--n", "500", "--grid", "10"],
        ["sweep", "--T-list", "4,8", "--n", "500", "--method", "is"],
    ],
    ids=["estimate", "paths", "sweep"],
)
def test_level_below_rounding_runs(tmp_path, argv):
    # 1 - x/alpha rounds to 1.0 at x = 1e-17
    rc, text = _run(tmp_path, *argv, "--x", "1e-17")
    assert rc == 0
    assert text


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


@pytest.mark.parametrize(
    "argv, key",
    [
        (["rate", "--x", "-inf"], "x"),
        (["estimate", "--T", "4", "--x", "0.5", "--bogus", "1"], "bogus"),
        (["estimate", "--T"], "T"),
        ([], "command"),
        (["estimate", "--T", "4", "--x", "0.5", "--tilt", "3"], "tilt"),
        (["estimate", "--T", "4", "--x", "0.5", "--theta1", "5"], "theta1"),
    ],
    ids=["value-read-as-flag", "unknown-flag", "flag-without-value", "no-command", "prefix-of-flags",
         "unknown-flag-named-like-a-tilt-field"],
)
def test_argument_argparse_cannot_take_is_a_keyed_record(capsys, argv, key):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "config"
    assert record["key"] == key


class _Reached(Exception):
    """Raised by a stand-in for a library entry point, so that nothing is simulated or allocated."""


@pytest.mark.parametrize(
    "argv, cap, entry",
    [
        (["estimate", "--T", "4", "--x", "0.5", "--n"], cli.MAX_REPLICAS, "estimate_tail_naive"),
        (["lln", "--T-list", "4", "--eps", "0.5", "--n"], cli.MAX_REPLICAS, "sup_fraction_sweep"),
        (["sweep", "--T-list", "4", "--x", "0.5", "--n"], cli.MAX_REPLICAS, "rate_curve_sweep"),
        (["paths", "--T", "4", "--x", "0.5", "--n"], cli.MAX_REPLICAS, "collect_weighted_paths"),
        (["paths", "--T", "4", "--x", "0.5", "--grid"], cli.MAX_GRID, "collect_weighted_paths"),
        (["exact", "--T", "4", "--M"], cli.MAX_TRUNCATION, "exact_state_distribution"),
        (["exact", "--T", "4", "--K"], cli.MAX_TRUNCATION, "exact_state_distribution"),
        (["rate", "--grid"], cli.MAX_GRID, "terminal_rate"),
        (["simulate", "--T", "4", "--grid"], cli.MAX_GRID, "scale_path"),
    ],
    ids=["estimate-n", "lln-n", "sweep-n", "paths-n", "paths-grid", "exact-M", "exact-K", "rate-grid",
         "simulate-grid"],
)
def test_resource_knob_above_its_cap_is_rejected(capsys, monkeypatch, argv, cap, entry):
    calls = []

    def reached(*args, **kwargs):
        calls.append(args)
        raise _Reached

    monkeypatch.setattr(cli, entry, reached)
    with pytest.raises(_Reached):
        main([*argv, str(cap)])
    rc = main([*argv, str(cap + 1)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(calls) == 1
    record = json.loads(captured.err)
    assert record["error"] == "config"
    assert record["key"] == argv[-1].removeprefix("--")



@pytest.mark.parametrize(
    "argv, low, entry",
    [
        (["estimate", "--T", "4", "--x", "0.5", "--n"], 1, "estimate_tail_naive"),
        (["lln", "--T-list", "4", "--eps", "0.5", "--n"], 1, "sup_fraction_sweep"),
        (["sweep", "--T-list", "4", "--x", "0.5", "--n"], 1, "rate_curve_sweep"),
        (["paths", "--T", "4", "--x", "0.5", "--n"], 1, "collect_weighted_paths"),
        (["paths", "--T", "4", "--x", "0.5", "--grid"], 1, "collect_weighted_paths"),
        (["exact", "--T", "4", "--M"], 1, "exact_state_distribution"),
        (["exact", "--T", "4", "--K"], 0, "exact_state_distribution"),
        (["rate", "--grid"], 1, "terminal_rate"),
        (["simulate", "--T", "4", "--grid"], 1, "scale_path"),
        (["estimate", "--T", "4", "--x", "0.5", "--workers"], 1, "estimate_tail_naive"),
    ],
    ids=["estimate-n", "lln-n", "sweep-n", "paths-n", "paths-grid", "exact-M", "exact-K", "rate-grid",
         "simulate-grid", "estimate-workers"],
)
def test_resource_knob_below_its_range_is_rejected(capsys, monkeypatch, argv, low, entry):
    calls = []

    def reached(*args, **kwargs):
        calls.append(args)
        raise _Reached

    monkeypatch.setattr(cli, entry, reached)
    with pytest.raises(_Reached):
        main([*argv, str(low)])
    rc = main([*argv, str(low - 1)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(calls) == 1
    record = json.loads(captured.err)
    assert record["error"] == "config"
    assert record["key"] == argv[-1].removeprefix("--")


def _readme_commands() -> list[str]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme.read_text(encoding="utf-8"), flags=re.M | re.S)
    # the "catpop {simulate | ...} [flags]" synopsis is not a command
    return [line for block in blocks for line in block.splitlines() if line.startswith("catpop ") and "{" not in line]


def test_readme_examples_parse():
    # every documented command passes the same argument and configuration checks as a real run
    commands = _readme_commands()
    assert len(commands) >= 8
    for line in commands:
        try:
            args = cli._parse_args(shlex.split(line)[1:])
            cli._merge_config(args.command, args)
        except cli.InputError as exc:
            pytest.fail(f"{line}: {exc}")

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
    "argv, cause",
    [
        (["exact", "--T", "4", "--x", "0.5", "--lambda", "1e308", "--mu", "1e308"], "lam + mu"),
        (["rate", "--lambda", "1e-320", "--mu", "1e10"], "birth_rate"),
        (["rate", "--lambda", "1e300", "--mu", "1e-300", "--x", "3", "--grid", "2"], "catastrophe_rate"),
    ],
    ids=["sum-overflows", "birth-rate-vanishes", "catastrophe-rate-vanishes"],
)
def test_weights_whose_stream_rates_overflow_or_vanish_are_a_config_error(tmp_path, capsys, argv, cause):
    rc, text = _run(tmp_path, *argv)
    assert rc == 2
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "config"
    assert record["message"].startswith(f"{cause} must be finite and > 0")
    assert "key" not in record  # no single flag is at fault


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["estimate", "--T", "4", "--x", "0.5"], "lambda", "-1"),
        (["estimate", "--T", "4", "--x", "0.5"], "mu", "0"),
        (["simulate", "--T", "4"], "alpha", "inf"),
        (["lln", "--T-list", "4", "--n", "10"], "eps", "-1"),
    ],
    ids=["lambda", "mu", "alpha", "eps"],
)
def test_model_parameter_or_eps_not_finite_and_positive_is_keyed_by_its_flag(tmp_path, capsys, argv, flag, value):
    rc, text = _run(tmp_path, *argv, f"--{flag}={value}")
    assert rc == 2
    assert text == ""
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["key"] == flag
    assert "finite and > 0" in record["message"]


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
        ["lln", "--T-list", "4,-1", "--eps", "0.5", "--n", "300"],
        ["estimate", "--T", "4", "--x", "0", "--n", "500", "--method", "is"],
    ],
)
def test_every_json_output_reparses_to_equal_value(tmp_path, argv):
    rc, text = _run(tmp_path, *argv, "--format", "json")
    assert rc == 0
    doc = json.loads(text)
    # shortest round-trip floats read back bit for bit, whole and signed zero ones as floats
    assert json.dumps(doc, indent=2) + "\n" == text
    if argv[:5] == ["estimate", "--T", "4", "--x", "0"]:
        # every replica reaches x = 0, so log_rate = -ln(1)/T = -0.0
        assert type(doc["T"]) is float
        assert math.copysign(1.0, doc["log_rate"]) == -1.0 and doc["log_rate"] == 0.0


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
