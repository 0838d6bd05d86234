"""Command-line interface: every experiment as a scriptable subcommand.

Configuration comes from flat ``key = value`` files and command-line flags
of the same names, with precedence flag > file > built-in default.  Output
is CSV (fixed, documented columns with a header row) or JSON, with floats
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
    sup_exceedance_fraction,
)
from .paths import NoQualifyingSamplesError, conditioned_mean_path, path_distance
from .rates import (
    OptimizerConvergenceError,
    terminal_rate,
    terminal_rate_variational,
)
from .streams import derive_seed, float_key


class ConfigError(Exception):
    """Invalid or missing configuration; carries the offending key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


_REQUIRED = object()


def _parse_T_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in str(text).split(","))
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

_COMMANDS: dict[str, dict] = {
    "simulate": {
        "help": "simulate one path and dump its events or its scaled grid",
        "default_format": "csv",
        "opts": [
            Opt("T", float, _REQUIRED, "time horizon"),
            Opt("method", str, "subordinated", "path construction",
                choices=("subordinated", "decomposed")),
            Opt("grid", int, None, "if set, emit the scaled path on this many steps"),
        ],
    },
    "exact": {
        "help": "exact truncated law of the population at time T",
        "default_format": "json",
        "opts": [
            Opt("T", float, _REQUIRED, "time horizon"),
            Opt("M", int, 64, "state truncation cap"),
            Opt("K", int, 60, "event-count truncation cap"),
            Opt("x", float, None, "if set, also report P(state/T >= x)"),
        ],
    },
    "rate": {
        "help": "closed-form and variational decay rates on an x-grid",
        "default_format": "csv",
        "opts": [
            Opt("x", float, None, "largest deviation level (default 3*alpha)"),
            Opt("grid", int, 50, "number of grid points in (0, x]"),
        ],
    },
    "estimate": {
        "help": "estimate P(scaled terminal value >= x) at one horizon",
        "default_format": "json",
        "opts": [
            Opt("T", float, _REQUIRED, "time horizon"),
            Opt("x", float, _REQUIRED, "deviation level"),
            Opt("n", int, 10000, "replica count"),
            Opt("method", str, "naive", "estimator", choices=("naive", "is")),
            *_TILT,
        ],
    },
    "lln": {
        "help": "sup-exceedance fraction over a sweep of horizons",
        "default_format": "csv",
        "opts": [
            Opt("T-list", _parse_T_list, _REQUIRED, "comma-separated horizons"),
            Opt("eps", float, _REQUIRED, "exceedance level"),
            Opt("n", int, 10000, "replica count per horizon"),
        ],
    },
    "sweep": {
        "help": "decay-exponent curve over a sweep of horizons",
        "default_format": "csv",
        "opts": [
            Opt("T-list", _parse_T_list, _REQUIRED, "comma-separated horizons"),
            Opt("x", float, _REQUIRED, "deviation level"),
            Opt("n", int, 10000, "replica count per horizon"),
            Opt("method", str, "is", "estimator", choices=("naive", "is")),
        ],
    },
    "paths": {
        "help": "conditioned mean path against the predicted trajectory",
        "default_format": "csv",
        "opts": [
            Opt("T", float, _REQUIRED, "time horizon"),
            Opt("x", float, _REQUIRED, "deviation level"),
            Opt("n", int, 10000, "replica count"),
            Opt("grid", int, 100, "scaled-path grid steps"),
            *_TILT,
        ],
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catpop",
        description="growth-catastrophe population process toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec["help"])
        p.add_argument("--config", default=None, help="flat key = value configuration file")
        for opt in _COMMON + spec["opts"]:
            kwargs = {"dest": opt.dest, "default": None, "help": opt.help}
            if opt.choices:
                kwargs["choices"] = opt.choices
            if opt.cast is not str:
                kwargs["type"] = opt.cast
            p.add_argument(f"--{opt.key}", **kwargs)
    return parser


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
    """Apply precedence flag > config file > default; validate every key."""
    opts = {o.key: o for o in _COMMON + _COMMANDS[command]["opts"]}
    cfg = {o.dest: (None if o.default is _REQUIRED else o.default) for o in opts.values()}

    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in opts:
                raise ConfigError(f"unknown configuration key {key!r}", key=key)
            opt = opts[key]
            try:
                value = opt.cast(raw) if opt.cast is not str else raw
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}", key=key) from exc
            if opt.choices and value not in opt.choices:
                raise ConfigError(
                    f"bad value for {key!r}: expected one of {opt.choices}, got {value!r}",
                    key=key,
                )
            cfg[opt.dest] = value

    for opt in opts.values():
        flag_value = getattr(args, opt.dest)
        if flag_value is not None:
            cfg[opt.dest] = flag_value

    for opt in opts.values():
        if opt.default is _REQUIRED and cfg[opt.dest] is None:
            raise ConfigError(f"missing required key {opt.key!r}", key=opt.key)

    if cfg["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg['workers']}", key="workers")
    if cfg["format"] is None:
        cfg["format"] = _COMMANDS[command]["default_format"]
    return cfg


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


def _params_doc(params: ModelParams) -> dict:
    return {"lambda": params.lam, "mu": params.mu, "alpha": params.alpha}


def _resolve_tilt(cfg: dict, params: ModelParams) -> TiltConfig:
    base = default_tilt(cfg["x"], params) if cfg["x"] > 0 else TiltConfig.identity()
    overrides = {}
    if cfg.get("tilt_s") is not None:
        overrides["switch_time_s"] = cfg["tilt_s"]
    if cfg.get("tilt_theta1") is not None:
        overrides["theta1"] = cfg["tilt_theta1"]
    if cfg.get("tilt_theta2") is not None:
        overrides["theta2"] = cfg["tilt_theta2"]
    tilt = replace(base, **overrides) if overrides else base
    return tilt.at_horizon(params, cfg["T"])


def _cmd_simulate(cfg: dict, params: ModelParams):
    spec = SimSpec(horizon_T=cfg["T"], seed=cfg["seed"])
    simulate = simulate_subordinated if cfg["method"] == "subordinated" else simulate_decomposed
    path = simulate(params, spec)
    doc = {
        "command": "simulate",
        "params": _params_doc(params),
        "T": cfg["T"],
        "seed": cfg["seed"],
        "method": cfg["method"],
    }
    if cfg["grid"] is not None:
        scaled = scale_path(path, cfg["T"], cfg["grid"])
        doc["grid"] = scaled.grid
        doc["values"] = scaled.values
        rows = list(zip(scaled.grid.tolist(), scaled.values.tolist()))
        return doc, ["t", "value"], rows
    kinds = ["birth" if k == EventKind.BIRTH else "catastrophe" for k in path.kinds]
    doc["events"] = [
        {"time": float(t), "kind": kind, "post_state": int(s)}
        for t, kind, s in zip(path.times, kinds, path.post_states)
    ]
    rows = list(zip(path.times.tolist(), kinds, path.post_states.tolist()))
    return doc, ["time", "kind", "post_state"], rows


def _cmd_exact(cfg: dict, params: ModelParams):
    pmf = exact_state_distribution(params, cfg["T"], cfg["M"], cfg["K"])
    doc = {
        "command": "exact",
        "params": _params_doc(params),
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
    rows = list(enumerate(pmf.masses.tolist()))
    return doc, ["state", "mass"], rows


def _cmd_rate(cfg: dict, params: ModelParams):
    x_max = cfg["x"] if cfg["x"] is not None else 3.0 * params.alpha
    if x_max <= 0:
        raise ConfigError("x must be > 0", key="x")
    if cfg["grid"] < 1:
        raise ConfigError(f"grid must be >= 1, got {cfg['grid']}", key="grid")
    points = []
    for i in range(1, cfg["grid"] + 1):
        x = x_max * i / cfg["grid"]
        closed = terminal_rate(x, params)
        variational, argmax = terminal_rate_variational(x, params)
        points.append((x, closed, variational, argmax.y, argmax.z))
    doc = {
        "command": "rate",
        "params": _params_doc(params),
        "points": [
            {
                "x": x,
                "rate_closed_form": c,
                "rate_variational": v,
                "argmax_y": y,
                "argmax_z": z,
            }
            for x, c, v, y, z in points
        ],
    }
    return doc, ["x", "rate_closed_form", "rate_variational", "argmax_y", "argmax_z"], points


def _cmd_estimate(cfg: dict, params: ModelParams):
    doc = {
        "command": "estimate",
        "params": _params_doc(params),
        "T": cfg["T"],
        "x": cfg["x"],
        "n": cfg["n"],
        "method": cfg["method"],
    }
    if cfg["method"] == "naive":
        result = estimate_tail_naive(params, cfg["T"], cfg["x"], cfg["n"], cfg["seed"], cfg["workers"])
        doc["tilt"] = None
    else:
        tilt = _resolve_tilt(cfg, params)
        result = estimate_tail_is(params, cfg["T"], cfg["x"], tilt, cfg["n"], cfg["seed"], cfg["workers"])
        doc["tilt"] = asdict(tilt)
    doc.update(asdict(result))
    row = (
        result.p_hat, result.log_rate, result.std_err,
        result.ci95[0], result.ci95[1], result.n, result.ess, result.ess_warning,
    )
    header = ["p_hat", "log_rate", "std_err", "ci_lo", "ci_hi", "n", "ess", "ess_warning"]
    return doc, header, [row]


def _cmd_lln(cfg: dict, params: ModelParams):
    rows = []
    points = []
    for T in cfg["T_list"]:
        sub_seed = derive_seed(cfg["seed"], float_key(T))
        result = sup_exceedance_fraction(params, T, cfg["eps"], cfg["n"], sub_seed, cfg["workers"])
        rows.append((T, result.p_hat, result.ci95[0], result.ci95[1], result.n))
        points.append({"T": T, "fraction": result.p_hat, "ci95": list(result.ci95), "n": result.n})
    doc = {
        "command": "lln",
        "params": _params_doc(params),
        "eps": cfg["eps"],
        "points": points,
    }
    return doc, ["T", "fraction", "ci_lo", "ci_hi", "n"], rows


def _log_rate_interval(result, T: float) -> tuple[float, float]:
    lo_p, hi_p = result.ci95
    lo = -math.log(hi_p) / T if hi_p > 0 else math.inf
    hi = -math.log(lo_p) / T if lo_p > 0 else math.inf
    return lo, hi


def _cmd_sweep(cfg: dict, params: ModelParams):
    points = rate_curve_sweep(
        params, cfg["x"], list(cfg["T_list"]), cfg["method"], cfg["n"], cfg["seed"], cfg["workers"]
    )
    rows = []
    docs = []
    for pt in points:
        if pt.result is None:
            rows.append((pt.T, None, None, None, None, None, None, pt.error))
            docs.append({"T": pt.T, "result": None, "error": pt.error})
        else:
            lo, hi = _log_rate_interval(pt.result, pt.T)
            rows.append((
                pt.T, pt.result.log_rate, lo, hi,
                pt.result.p_hat, pt.result.std_err, pt.result.ess, None,
            ))
            docs.append({"T": pt.T, "result": asdict(pt.result), "error": None})
    doc = {
        "command": "sweep",
        "params": _params_doc(params),
        "x": cfg["x"],
        "method": cfg["method"],
        "n": cfg["n"],
        "points": docs,
    }
    header = ["T", "log_rate", "log_rate_lo", "log_rate_hi", "p_hat", "std_err", "ess", "error"]
    return doc, header, rows


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
    distance = path_distance(mean, reference)
    rows = [
        (float(t), float(v), float(r), float(abs(v - r)))
        for t, v, r in zip(mean.grid, mean.mean_values, ref_values)
    ]
    doc = {
        "command": "paths",
        "params": _params_doc(params),
        "T": cfg["T"],
        "x": cfg["x"],
        "n": cfg["n"],
        "tilt": asdict(tilt),
        "total_weight": mean.total_weight,
        "sup_distance": distance,
        "breakpoint": reference.breakpoint,
        "slope": reference.slope,
        "grid": mean.grid,
        "conditioned_mean": mean.mean_values,
        "optimal": ref_values,
    }
    return doc, ["t", "conditioned_mean", "optimal", "abs_error"], rows


_RUNNERS = {
    "simulate": _cmd_simulate,
    "exact": _cmd_exact,
    "rate": _cmd_rate,
    "estimate": _cmd_estimate,
    "lln": _cmd_lln,
    "sweep": _cmd_sweep,
    "paths": _cmd_paths,
}


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
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args.command, args)
        params = ModelParams(lam=cfg["lam"], mu=cfg["mu"], alpha=cfg["alpha"])
        doc, header, rows = _RUNNERS[args.command](cfg, params)
        if cfg["format"] == "json":
            _emit(_render_json(doc) + "\n", cfg["out"])
        else:
            _emit(_render_csv(header, rows), cfg["out"])
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
