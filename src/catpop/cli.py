"""Command-line interface: every experiment as a scriptable subcommand.

Configuration comes from flat ``key = value`` files and command-line flags
of the same names, with precedence flag > file > built-in default.  Both
arrive as raw strings and pass the same checks (known key, cast, allowed
choices), so a malformed value fails with the same keyed record wherever
it came from.  Each command builds its JSON document and its CSV rows
once; ``main`` adds the shared ``command``/``params`` head.  Output is CSV
(fixed, documented columns with a header row, floats to 17 significant
digits) or JSON (floats as Python's shortest round-trip ``repr``), so every
float reads back bit for bit and files are bit-stable regression
fixtures.  All randomness derives from the single ``--seed`` value; the
worker count never changes an output byte.

``estimate --method is`` and ``paths`` sample under the default tilt for
the level (:func:`montecarlo.default_tilt`), so a tilt field the library
refuses is keyed by ``x``.  Another measure is set from Python, through
the library's ``tilt`` argument.

Exit codes: 0 success, 2 refused input (a :class:`model.InputError`, the
CLI's own or the library's), 3 numerical failure (optimizer, truncation
budget or any other ``ValueError`` of ours), 4 statistical failure (no
qualifying samples).  Failures print a machine-readable JSON record to
stderr.
"""

from __future__ import annotations

import argparse
import csv
from dataclasses import asdict, dataclass
from functools import cache
import io
import json
import math
import os
import sys

import numpy as np

from .exact import TruncationBudgetExceeded, exact_state_distribution, tail_level
from .model import (
    EventKind,
    InputError,
    ModelParams,
    SimSpec,
    TiltConfig,
    optimal_path,
    scale_path,
    simulate_decomposed,
    simulate_subordinated,
)
from .montecarlo import (
    collect_weighted_paths,
    default_tilt,
    estimate_tail_is,
    estimate_tail_naive,
    rate_curve_sweep,
    sup_fraction_sweep,
)
from .paths import NoQualifyingSamplesError, conditioned_mean_path, path_distance
from .rates import (
    OptimizerConvergenceError,
    terminal_rate,
    terminal_rate_variational,
)


_REQUIRED = object()

# Upper bounds on the resource knobs, so that a typo fails as a config error
# instead of exhausting memory: each keeps what it sizes well under 1 GB.
MAX_REPLICAS = 10**8  # n: one argument tuple and one result per 1024 replicas
MAX_TRUNCATION = 10**6  # M and K: the state vector and the Poisson terms of the oracle
MAX_GRID = 10**4  # grid: rows x (grid + 1) integers per block of sampled paths


def _int_in(low: int, cap: int | None = None):
    """An integer cast that refuses values below ``low`` or above ``cap``."""

    def cast(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        if cap is not None and value > cap:
            raise ValueError(f"must be <= {cap}, got {value}")
        return value

    return cast


def _finite_float(rule: str = "", ok=lambda value: True):
    """A float cast that refuses values that are not finite, or fail ``ok``; ``rule`` says what ``ok`` asks."""

    def cast(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and ok(value)):
            raise ValueError(f"must be finite{rule}, got {value}")
        return value

    return cast


_finite = _finite_float()
_positive = _finite_float(" and > 0", lambda value: value > 0)


def _writable(path: str) -> str:
    """The ``out`` cast: refuses, before any work, a path that cannot be written; creates and truncates nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.basename(path):
        cause = "it names no file"
    elif not os.path.isdir(parent):
        cause = f"no directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        cause = "permission denied"
    else:
        return path
    raise InputError(f"cannot write output file {path}: {cause}", "out")


def _parse_T_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from exc


@dataclass(frozen=True)
class Opt:
    key: str
    cast: type | object
    default: object
    help: str
    choices: tuple | None = None


_COMMON = [
    Opt("lambda", _positive, 1.0, "growth weight, finite and > 0"),
    Opt("mu", _positive, 1.0, "catastrophe weight, finite and > 0"),
    Opt("alpha", _positive, 1.0, "event-clock rate, finite and > 0"),
    Opt("out", _writable, None, "output file (default: stdout)"),
    Opt("format", str, None, "output format", choices=("csv", "json")),
]

# only the commands that draw at random take a seed
_SEED = Opt("seed", _int_in(0, 2**64 - 1), 0, "base seed, an integer in [0, 2**64)")
# only the commands that run replicas in blocks spread them over worker processes
_WORKERS = Opt("workers", _int_in(1), 1, "worker processes for replica fan-out, >= 1")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _render_csv(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) if cell is not None else "" for cell in row])
    return buf.getvalue()


def _plain(value):
    """The JSON writer's fallback: numpy arrays and scalars become Python lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def _tilt(cfg: dict, params: ModelParams) -> TiltConfig:
    """The importance-sampling measure: the default tilt for the level, untilted where x <= 0."""
    tilt = default_tilt(cfg["x"], params) if cfg["x"] > 0 else TiltConfig()
    return tilt.at_horizon(params, cfg["T"])


def _cmd_simulate(cfg: dict, params: ModelParams):
    spec = SimSpec(horizon_T=cfg["T"], seed=cfg["seed"])
    simulate = simulate_subordinated if cfg["method"] == "subordinated" else simulate_decomposed
    path = simulate(params, spec)
    doc = {"T": cfg["T"], "seed": cfg["seed"], "method": cfg["method"]}
    if cfg["grid"] is not None:
        scaled = scale_path(path, cfg["T"], cfg["grid"])
        doc["grid"] = scaled.grid
        doc["values"] = scaled.values
        return doc, ["t", "value"], list(zip(scaled.grid.tolist(), scaled.values.tolist()))
    header = ["time", "kind", "post_state"]
    kinds = ["birth" if k == EventKind.BIRTH else "catastrophe" for k in path.kinds]
    rows = list(zip(path.times.tolist(), kinds, path.post_states.tolist()))
    doc["events"] = [dict(zip(header, row)) for row in rows]
    return doc, header, rows


def _cmd_exact(cfg: dict, params: ModelParams):
    if cfg["x"] is not None:
        tail_level(cfg["x"], cfg["T"])  # refuses a level the horizon cannot carry before the law is computed
    pmf = exact_state_distribution(params, cfg["T"], cfg["M"], cfg["K"])
    doc = {
        "T": cfg["T"],
        "M": cfg["M"],
        "K": cfg["K"],
        "masses": pmf.masses,
        "truncation_error": pmf.truncation_error,
    }
    if cfg["x"] is not None:
        value, uncertainty = pmf.tail(cfg["x"], cfg["T"])
        doc["x"] = cfg["x"]
        doc["tail_probability"] = value
        doc["tail_uncertainty"] = uncertainty
    return doc, ["state", "mass"], list(enumerate(pmf.masses.tolist()))


def _cmd_rate(cfg: dict, params: ModelParams):
    x_max = cfg["x"] if cfg["x"] is not None else 3.0 * params.alpha
    # the rate increases with x, so a finite rate at x_max bounds the whole grid
    if not (math.isfinite(x_max * cfg["grid"]) and x_max > 0 and math.isfinite(terminal_rate(x_max, params))):
        raise InputError(f"x must be > 0 with finite x*grid and rate, got x={x_max}, grid={cfg['grid']}", "x")
    rows = []
    for i in range(1, cfg["grid"] + 1):
        x = x_max * i / cfg["grid"]
        closed = terminal_rate(x, params)
        variational, argmax = terminal_rate_variational(x, params)
        rows.append((x, closed, variational, argmax.y, argmax.z))
    header = ["x", "rate_closed_form", "rate_variational", "argmax_y", "argmax_z"]
    return {"points": [dict(zip(header, row)) for row in rows]}, header, rows


def _cmd_estimate(cfg: dict, params: ModelParams):
    doc = {"T": cfg["T"], "x": cfg["x"], "n": cfg["n"], "method": cfg["method"]}
    if cfg["method"] == "naive":
        result = estimate_tail_naive(params, cfg["T"], cfg["x"], cfg["n"], cfg["seed"], cfg["workers"])
        doc["tilt"] = None
    else:
        tilt = _tilt(cfg, params)
        result = estimate_tail_is(params, cfg["T"], cfg["x"], tilt, cfg["n"], cfg["seed"], cfg["workers"])
        doc["tilt"] = asdict(tilt)
    doc.update(asdict(result))
    header = ["p_hat", "log_rate", "std_err", "ci_lo", "ci_hi", "n", "ess", "ess_warning"]
    fields = {**doc, "ci_lo": doc["ci95"][0], "ci_hi": doc["ci95"][1]}
    return doc, header, [[fields[name] for name in header]]


def _sweep_output(doc: dict, points, columns: list[str], values):
    doc["points"] = [asdict(pt) for pt in points]
    blank = [None] * len(columns)
    rows = [(pt.T, *(values(pt.result, pt.T) if pt.result else blank), pt.error) for pt in points]
    return doc, ["T", *columns, "error"], rows


def _cmd_lln(cfg: dict, params: ModelParams):
    points = sup_fraction_sweep(params, cfg["eps"], cfg["T-list"], cfg["n"], cfg["seed"], cfg["workers"])
    columns = ["fraction", "ci_lo", "ci_hi", "n"]
    return _sweep_output({"eps": cfg["eps"]}, points, columns, lambda r, T: (r.p_hat, *r.ci95, r.n))


def _log_rate_values(result, T: float) -> tuple:
    lo_p, hi_p = result.ci95
    lo = -math.log(hi_p) / T if hi_p > 0 else math.inf
    hi = -math.log(lo_p) / T if lo_p > 0 else math.inf
    return result.log_rate, lo, hi, result.p_hat, result.std_err, result.ess


def _cmd_sweep(cfg: dict, params: ModelParams):
    points = rate_curve_sweep(
        params, cfg["x"], cfg["T-list"], cfg["method"], cfg["n"], cfg["seed"], cfg["workers"]
    )
    doc = {"x": cfg["x"], "method": cfg["method"], "n": cfg["n"]}
    columns = ["log_rate", "log_rate_lo", "log_rate_hi", "p_hat", "std_err", "ess"]
    return _sweep_output(doc, points, columns, _log_rate_values)


def _cmd_paths(cfg: dict, params: ModelParams):
    tilt = _tilt(cfg, params)
    samples = collect_weighted_paths(
        params, cfg["T"], cfg["x"], tilt, cfg["n"], cfg["seed"], cfg["grid"], cfg["workers"]
    )
    mean = conditioned_mean_path(samples, grid_size=cfg["grid"])
    reference = optimal_path(cfg["x"], params)
    ref_values = reference.values(mean.grid)
    doc = {
        "T": cfg["T"],
        "x": cfg["x"],
        "n": cfg["n"],
        "tilt": asdict(tilt),
        "total_weight": mean.total_weight,
        "sup_distance": path_distance(mean, reference),
        "breakpoint": reference.breakpoint,
        "slope": reference.slope,
        "grid": mean.grid,
        "conditioned_mean": mean.mean_values,
        "optimal": ref_values,
    }
    rows = list(zip(mean.grid, mean.mean_values, ref_values, np.abs(mean.mean_values - ref_values)))
    return doc, ["t", "conditioned_mean", "optimal", "abs_error"], rows


_COMMANDS: dict[str, dict] = {
    "simulate": {
        "run": _cmd_simulate,
        "help": "simulate one path and dump its events or its scaled grid",
        "default_format": "csv",
        "opts": [
            Opt("T", _positive, _REQUIRED, "time horizon, finite and > 0"),
            Opt("method", str, "subordinated", "path construction",
                choices=("subordinated", "decomposed")),
            Opt("grid", _int_in(1, MAX_GRID), None, "if set, emit the scaled path on this many steps"),
            _SEED,
        ],
    },
    "exact": {
        "run": _cmd_exact,
        "help": "exact truncated law of the population at time T",
        "default_format": "json",
        "opts": [
            Opt("T", _finite_float(" and >= 0", lambda value: value >= 0), _REQUIRED, "time horizon, finite and >= 0"),
            Opt("M", _int_in(1, MAX_TRUNCATION), 64, "state truncation cap"),
            Opt("K", _int_in(0, MAX_TRUNCATION), 60, "event-count truncation cap"),
            Opt("x", _finite, None, "if set, also report P(state/T >= x), finite"),
        ],
    },
    "rate": {
        "run": _cmd_rate,
        "help": "closed-form and variational decay rates on an x-grid",
        "default_format": "csv",
        "opts": [
            Opt("x", float, None, "largest deviation level (default 3*alpha)"),
            Opt("grid", _int_in(1, MAX_GRID), 50, "number of grid points in (0, x]"),
        ],
    },
    "estimate": {
        "run": _cmd_estimate,
        "help": "estimate P(scaled terminal value >= x) at one horizon",
        "default_format": "json",
        "opts": [
            Opt("T", _positive, _REQUIRED, "time horizon, finite and > 0"),
            Opt("x", _finite, _REQUIRED, "deviation level, finite"),
            Opt("n", _int_in(1, MAX_REPLICAS), 10000, "replica count"),
            Opt("method", str, "naive", "estimator", choices=("naive", "is")),
            _SEED,
            _WORKERS,
        ],
    },
    "lln": {
        "run": _cmd_lln,
        "help": "sup-exceedance fraction over a sweep of horizons",
        "default_format": "csv",
        "opts": [
            Opt("T-list", _parse_T_list, _REQUIRED, "comma-separated horizons"),
            Opt("eps", _positive, _REQUIRED, "exceedance level, finite and > 0"),
            Opt("n", _int_in(1, MAX_REPLICAS), 10000, "replica count per horizon"),
            _SEED,
            _WORKERS,
        ],
    },
    "sweep": {
        "run": _cmd_sweep,
        "help": "decay-exponent curve over a sweep of horizons",
        "default_format": "csv",
        "opts": [
            Opt("T-list", _parse_T_list, _REQUIRED, "comma-separated horizons"),
            Opt("x", _finite, _REQUIRED, "deviation level, finite"),
            Opt("n", _int_in(1, MAX_REPLICAS), 10000, "replica count per horizon"),
            Opt("method", str, "is", "estimator", choices=("naive", "is")),
            _SEED,
            _WORKERS,
        ],
    },
    "paths": {
        "run": _cmd_paths,
        "help": "conditioned mean path against the predicted trajectory",
        "default_format": "csv",
        "opts": [
            Opt("T", _positive, _REQUIRED, "time horizon, finite and > 0"),
            Opt("x", _positive, _REQUIRED, "deviation level, finite and > 0"),
            Opt("n", _int_in(1, MAX_REPLICAS), 10000, "replica count"),
            Opt("grid", _int_in(1, MAX_GRID), 100, "scaled-path grid steps"),
            _SEED,
            _WORKERS,
        ],
    },
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: the parser keeps no per-call state, each parse_known_args
    # returns a fresh namespace; argparse raises its errors (exit_on_error=False) for
    # _parse_args to key; a flag is only its exact name, as a config-file key is
    strict = {"exit_on_error": False, "allow_abbrev": False}
    parser = argparse.ArgumentParser(
        prog="catpop",
        description="growth-catastrophe population process toolkit",
        **strict,
    )
    sub = parser.add_subparsers(dest="command")
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec["help"], **strict)
        p.add_argument("--config", default=None, help="flat key = value configuration file")
        for opt in _COMMON + spec["opts"]:
            # values stay raw strings here; _merge_config checks them like file values
            choices = f": {' or '.join(opt.choices)}" if opt.choices else ""
            p.add_argument(f"--{opt.key}", dest=opt.key, default=None, help=opt.help + choices)
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The command and the raw flag values; any argument argparse cannot take is a keyed InputError."""
    try:
        args, extra = _build_parser().parse_known_args(argv)
    except argparse.ArgumentError as exc:
        # argument_name is the flag ("--x") or the subcommand's "command"
        raise InputError(str(exc), exc.argument_name.lstrip("-")) from exc
    if args.command is None:
        raise InputError(f"missing command, one of {', '.join(_COMMANDS)}", "command")
    if extra:
        # an unknown flag such as --bogus, or a stray value
        raise InputError(f"unknown argument {extra[0]!r}", extra[0].lstrip("-").partition("=")[0])
    return args


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}", "config") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {line!r}", "config")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    """Apply precedence flag > config file > default; check every given value alike.

    File entries come first and flags after them, so a flag overrides the
    file, but a malformed file value still fails even where a flag overrides it.
    """
    opts = {o.key: o for o in _COMMON + _COMMANDS[command]["opts"]}
    cfg = {key: (None if o.default is _REQUIRED else o.default) for key, o in opts.items()}

    given = list(_read_config_file(args.config).items()) if args.config is not None else []
    given += [(key, getattr(args, key)) for key in opts if getattr(args, key) is not None]
    for key, raw in given:
        if key not in opts:
            raise InputError(f"unknown configuration key {key!r}", key)
        opt = opts[key]
        try:
            value = opt.cast(raw)
        except InputError:
            raise  # a cast that words its own refusal
        except ValueError as exc:
            raise InputError(f"bad value for {key!r}: {exc}", key) from exc
        if opt.choices and value not in opt.choices:
            raise InputError(f"bad value for {key!r}: expected one of {opt.choices}, got {value!r}", key)
        cfg[key] = value

    for key, opt in opts.items():
        if opt.default is _REQUIRED and cfg[key] is None:
            raise InputError(f"missing required key {key!r}", key)

    if cfg["format"] is None:
        cfg["format"] = _COMMANDS[command]["default_format"]
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file {out}: {exc}", "out") from exc


def _error_record(category: str, exc: Exception) -> None:
    record = {"error": category, "message": str(exc)}
    key = getattr(exc, "field", None)
    if key is not None:
        record["key"] = key
    sys.stderr.write(json.dumps(record) + "\n")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        cfg = _merge_config(args.command, args)
        try:
            params = ModelParams(lam=cfg["lambda"], mu=cfg["mu"], alpha=cfg["alpha"])
            body, header, rows = _COMMANDS[args.command]["run"](cfg, params)
        except InputError as exc:
            # the library names its own argument; a tilt field was set by the default tilt, from the level
            key = "x" if exc.field in ("switch_time_s", "theta1", "theta2") else exc.field
            raise InputError(str(exc), key) from exc
        if cfg["format"] == "json":
            params_doc = {"lambda": params.lam, "mu": params.mu, "alpha": params.alpha}
            doc = {"command": args.command, "params": params_doc, **body}
            text = json.dumps(doc, indent=2, default=_plain) + "\n"
        else:
            text = _render_csv(header, rows)
        _emit(text, cfg["out"])
        return 0
    except InputError as exc:
        _error_record("config", exc)
        return 2
    except (TruncationBudgetExceeded, OptimizerConvergenceError, ValueError) as exc:
        _error_record("numerical", exc)
        return 3
    except NoQualifyingSamplesError as exc:
        _error_record("statistical", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
