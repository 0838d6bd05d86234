"""Command-line interface: every experiment as a scriptable subcommand.

Configuration comes from flat ``key = value`` files and command-line flags
of the same names, with precedence flag > file > built-in default.  Both
arrive as raw strings and pass the same checks (known key, cast, allowed
choices), so a malformed value fails with the same keyed record wherever
it came from.  Each command builds its JSON document and its CSV rows
once; ``main`` adds the shared ``command``/``params`` head.  Output is CSV
(fixed, documented columns with a header row) or JSON, with floats
serialized to 17 significant digits so files are bit-stable regression
fixtures.  All randomness derives from the single ``--seed`` value; the
worker count never changes an output byte.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(optimizer or truncation budget), 4 statistical failure (no qualifying
samples).  Failures print a machine-readable JSON record to stderr.
"""

from __future__ import annotations

import argparse
import csv
from dataclasses import asdict, dataclass, replace
import io
import json
import math
import sys

import numpy as np

from .exact import TruncationBudgetExceeded, exact_state_distribution
from .model import (
    EventKind,
    ModelParams,
    SimSpec,
    optimal_path,
    scale_path,
    simulate_decomposed,
    simulate_subordinated,
)
from .montecarlo import (
    TiltConfig,
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


class ConfigError(Exception):
    """Invalid or missing configuration; carries the offending key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


_REQUIRED = object()

# Upper bounds on the resource knobs, so that a typo fails as a config error
# instead of exhausting memory: each keeps what it sizes well under 1 GB.
MAX_REPLICAS = 10**8  # n: one argument tuple and one result per 1024 replicas
MAX_TRUNCATION = 10**6  # M and K: the state vector and the Poisson terms of the oracle
MAX_GRID = 10**4  # grid: rows x (grid + 1) integers per block of sampled paths


def _at_most(cap: int):
    """An integer cast that refuses values above ``cap``."""

    def cast(text: str) -> int:
        value = int(text)
        if value > cap:
            raise ValueError(f"must be <= {cap}, got {value}")
        return value

    return cast


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

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_").replace("lambda", "lam")


_COMMON = [
    Opt("lambda", float, 1.0, "growth weight"),
    Opt("mu", float, 1.0, "catastrophe weight"),
    Opt("alpha", float, 1.0, "event-clock rate"),
    Opt("seed", int, 0, "base seed, 64-bit unsigned"),
    Opt("workers", int, 1, "worker processes for replica fan-out, >= 1"),
    Opt("out", str, None, "output file (default: stdout)"),
    Opt("format", str, None, "output format", choices=("csv", "json")),
]

_TILT = [
    Opt("tilt-s", float, None, "override: scaled time where tilting begins"),
    Opt("tilt-theta1", float, None, "override: birth-stream intensity multiplier"),
    Opt("tilt-theta2", float, None, "override: catastrophe-stream intensity multiplier"),
]


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


def _render_json(value, level: int = 0) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return format(v, ".17g")
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [_render_json(v, level + 1) for v in value]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(value, dict):
        items = [f'{inner}"{k}": {_render_json(v, level + 1)}' for k, v in value.items()]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


_TILT_FIELDS = {"tilt_s": "switch_time_s", "tilt_theta1": "theta1", "tilt_theta2": "theta2"}


def _resolve_tilt(cfg: dict, params: ModelParams) -> TiltConfig:
    base = default_tilt(cfg["x"], params) if cfg["x"] > 0 else TiltConfig.identity()
    overrides = {field: cfg[dest] for dest, field in _TILT_FIELDS.items() if cfg[dest] is not None}
    return replace(base, **overrides).at_horizon(params, cfg["T"])


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
    if not (math.isfinite(x_max) and x_max > 0):
        raise ConfigError(f"x must be finite and > 0, got {x_max}", key="x")
    if cfg["grid"] < 1:
        raise ConfigError(f"grid must be >= 1, got {cfg['grid']}", key="grid")
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
        tilt = _resolve_tilt(cfg, params)
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
    points = sup_fraction_sweep(params, cfg["eps"], cfg["T_list"], cfg["n"], cfg["seed"], cfg["workers"])
    columns = ["fraction", "ci_lo", "ci_hi", "n"]
    return _sweep_output({"eps": cfg["eps"]}, points, columns, lambda r, T: (r.p_hat, *r.ci95, r.n))


def _log_rate_values(result, T: float) -> tuple:
    lo_p, hi_p = result.ci95
    lo = -math.log(hi_p) / T if hi_p > 0 else math.inf
    hi = -math.log(lo_p) / T if lo_p > 0 else math.inf
    return result.log_rate, lo, hi, result.p_hat, result.std_err, result.ess


def _cmd_sweep(cfg: dict, params: ModelParams):
    points = rate_curve_sweep(
        params, cfg["x"], cfg["T_list"], cfg["method"], cfg["n"], cfg["seed"], cfg["workers"]
    )
    doc = {"x": cfg["x"], "method": cfg["method"], "n": cfg["n"]}
    columns = ["log_rate", "log_rate_lo", "log_rate_hi", "p_hat", "std_err", "ess"]
    return _sweep_output(doc, points, columns, _log_rate_values)


def _cmd_paths(cfg: dict, params: ModelParams):
    if not (math.isfinite(cfg["x"]) and cfg["x"] > 0):
        raise ConfigError(f"deviation level x must be finite and > 0, got {cfg['x']}", key="x")
    tilt = _resolve_tilt(cfg, params)
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
            Opt("T", float, _REQUIRED, "time horizon"),
            Opt("method", str, "subordinated", "path construction",
                choices=("subordinated", "decomposed")),
            Opt("grid", _at_most(MAX_GRID), None, "if set, emit the scaled path on this many steps"),
        ],
    },
    "exact": {
        "run": _cmd_exact,
        "help": "exact truncated law of the population at time T",
        "default_format": "json",
        "opts": [
            Opt("T", float, _REQUIRED, "time horizon"),
            Opt("M", _at_most(MAX_TRUNCATION), 64, "state truncation cap"),
            Opt("K", _at_most(MAX_TRUNCATION), 60, "event-count truncation cap"),
            Opt("x", float, None, "if set, also report P(state/T >= x)"),
        ],
    },
    "rate": {
        "run": _cmd_rate,
        "help": "closed-form and variational decay rates on an x-grid",
        "default_format": "csv",
        "opts": [
            Opt("x", float, None, "largest deviation level (default 3*alpha)"),
            Opt("grid", _at_most(MAX_GRID), 50, "number of grid points in (0, x]"),
        ],
    },
    "estimate": {
        "run": _cmd_estimate,
        "help": "estimate P(scaled terminal value >= x) at one horizon",
        "default_format": "json",
        "opts": [
            Opt("T", float, _REQUIRED, "time horizon"),
            Opt("x", float, _REQUIRED, "deviation level"),
            Opt("n", _at_most(MAX_REPLICAS), 10000, "replica count"),
            Opt("method", str, "naive", "estimator", choices=("naive", "is")),
            *_TILT,
        ],
    },
    "lln": {
        "run": _cmd_lln,
        "help": "sup-exceedance fraction over a sweep of horizons",
        "default_format": "csv",
        "opts": [
            Opt("T-list", _parse_T_list, _REQUIRED, "comma-separated horizons"),
            Opt("eps", float, _REQUIRED, "exceedance level"),
            Opt("n", _at_most(MAX_REPLICAS), 10000, "replica count per horizon"),
        ],
    },
    "sweep": {
        "run": _cmd_sweep,
        "help": "decay-exponent curve over a sweep of horizons",
        "default_format": "csv",
        "opts": [
            Opt("T-list", _parse_T_list, _REQUIRED, "comma-separated horizons"),
            Opt("x", float, _REQUIRED, "deviation level"),
            Opt("n", _at_most(MAX_REPLICAS), 10000, "replica count per horizon"),
            Opt("method", str, "is", "estimator", choices=("naive", "is")),
        ],
    },
    "paths": {
        "run": _cmd_paths,
        "help": "conditioned mean path against the predicted trajectory",
        "default_format": "csv",
        "opts": [
            Opt("T", float, _REQUIRED, "time horizon"),
            Opt("x", float, _REQUIRED, "deviation level"),
            Opt("n", _at_most(MAX_REPLICAS), 10000, "replica count"),
            Opt("grid", _at_most(MAX_GRID), 100, "scaled-path grid steps"),
            *_TILT,
        ],
    },
}


def _build_parser() -> argparse.ArgumentParser:
    # argparse raises its errors (exit_on_error=False) for _parse_args to key;
    # a flag is only its exact name, as a config-file key is
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
            p.add_argument(f"--{opt.key}", dest=opt.dest, default=None, help=opt.help + choices)
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The command and the raw flag values; any argument argparse cannot take is a keyed ConfigError."""
    try:
        args, extra = _build_parser().parse_known_args(argv)
    except argparse.ArgumentError as exc:
        # argument_name is the flag ("--x") or the subcommand's "command"
        raise ConfigError(str(exc), key=exc.argument_name.lstrip("-")) from exc
    if args.command is None:
        raise ConfigError(f"missing command, one of {', '.join(_COMMANDS)}", key="command")
    if extra:
        # an unknown flag such as --bogus, or a stray value
        raise ConfigError(f"unknown argument {extra[0]!r}", key=extra[0].lstrip("-").partition("=")[0])
    return args


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}", key="config") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    """Apply precedence flag > config file > default; check every given value alike.

    File entries come first and flags after them, so a flag overrides the
    file, but a malformed file value still fails even where a flag overrides it.
    """
    opts = {o.key: o for o in _COMMON + _COMMANDS[command]["opts"]}
    cfg = {o.dest: (None if o.default is _REQUIRED else o.default) for o in opts.values()}

    given = list(_read_config_file(args.config).items()) if args.config is not None else []
    given += [(o.key, getattr(args, o.dest)) for o in opts.values() if getattr(args, o.dest) is not None]
    for key, raw in given:
        if key not in opts:
            raise ConfigError(f"unknown configuration key {key!r}", key=key)
        opt = opts[key]
        try:
            value = opt.cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", key=key) from exc
        if opt.choices and value not in opt.choices:
            raise ConfigError(
                f"bad value for {key!r}: expected one of {opt.choices}, got {value!r}",
                key=key,
            )
        cfg[opt.dest] = value

    for opt in opts.values():
        if opt.default is _REQUIRED and cfg[opt.dest] is None:
            raise ConfigError(f"missing required key {opt.key!r}", key=opt.key)

    if cfg["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg['workers']}", key="workers")
    if cfg["format"] is None:
        cfg["format"] = _COMMANDS[command]["default_format"]
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _error_record(category: str, exc: Exception) -> None:
    record = {"error": category, "message": str(exc)}
    key = getattr(exc, "key", None)
    if key is not None:
        record["key"] = key
    sys.stderr.write(json.dumps(record) + "\n")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        cfg = _merge_config(args.command, args)
        params = ModelParams(lam=cfg["lam"], mu=cfg["mu"], alpha=cfg["alpha"])
        body, header, rows = _COMMANDS[args.command]["run"](cfg, params)
        if cfg["format"] == "json":
            params_doc = {"lambda": params.lam, "mu": params.mu, "alpha": params.alpha}
            text = _render_json({"command": args.command, "params": params_doc, **body}) + "\n"
        else:
            text = _render_csv(header, rows)
        _emit(text, cfg["out"])
        return 0
    except ConfigError as exc:
        _error_record("config", exc)
        return 2
    except (TruncationBudgetExceeded, OptimizerConvergenceError) as exc:
        _error_record("numerical", exc)
        return 3
    except NoQualifyingSamplesError as exc:
        _error_record("statistical", exc)
        return 4
    except ValueError as exc:
        _error_record("config", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
