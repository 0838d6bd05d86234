"""Per-layer measurements for the traced run.

Spans and counts are recorded from the benchmark's own code, around the
calls it makes into each catpop module; nothing inside catpop is
instrumented.  They are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from catpop.cli import main as cli_main
from catpop.exact import exact_state_distribution, exact_tail_probability
from catpop.model import SimSpec, optimal_path, simulate_decomposed, simulate_subordinated
from catpop.montecarlo import collect_weighted_paths, default_tilt, estimate_tail_is
from catpop.paths import conditioned_mean_path, path_distance
from catpop.rates import terminal_rate_variational
from catpop.streams import replica_rng

from .workloads import PARAMS, derive


# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
UNITS = {
    "streams.replica_rng_us": "us",
    "model.subordinated_us.T4": "us",
    "model.subordinated_us.T40": "us",
    "model.subordinated_us.T160": "us",
    "model.decomposed_us.T4": "us",
    "model.decomposed_us.T40": "us",
    "model.decomposed_us.T160": "us",
    "model.events_per_replica.T160": "count",
    "model.catastrophes_per_replica.T160": "count",
    "montecarlo.is_us_per_replica.T160": "us",
    "montecarlo.pool_start_s": "s",
    "montecarlo.is_ess.T160": "count",
    "montecarlo.is_rel_err.T160": "ratio",
    "montecarlo.is_work_rel_var_s.T160": "s",
    "paths.collect_us_per_replica": "us",
    "paths.collect_peak_mb": "MB",
    "paths.mean_path_s": "s",
    "exact.state_distribution_ms.M64K60": "ms",
    "exact.state_distribution_ms.M400K400": "ms",
    "exact.state_distribution_ms.M1000K1000": "ms",
    "exact.tail_ms.T160": "ms",
    "rates.variational_us_per_point": "us",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans (name, start, end, parent) and counts of one run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                  "trace": self.trace_id, "name": name, "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def write(self, path: Path) -> None:
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        spans = [{**s, "self_s": s["end"] - s["start"] - children.get(s["id"], 0.0)} for s in self.spans]
        path.write_text(json.dumps({"trace": self.trace_id, "spans": spans, "counts": self.counts}, indent=1))


def _duration(record: dict) -> float:
    return record["end"] - record["start"]


# Probe sizes: "full" for the traced run, "tiny" for the fast test.
PROBES = {
    "full": {"rng": 20_000, "T4": 4000, "T40": 1000, "T160": 500, "is": 2000, "pool": 200,
             "quality": 20_000, "collect": 4000, "cli": 2000, "repeat": 3},
    "tiny": {"rng": 200, "T4": 50, "T40": 20, "T160": 10, "is": 100, "pool": 20,
             "quality": 200, "collect": 100, "cli": 100, "repeat": 1},
}


def _median_time(tracer: Tracer, name: str, repeat: int, fn) -> float:
    times = []
    for _ in range(repeat):
        with tracer.span(name) as s:
            fn()
        times.append(_duration(s))
    return statistics.median(times)


def probe_layers(tracer: Tracer, seed: int, size: dict, outdir: Path) -> dict[str, float]:
    """Run every per-layer probe under a span; return the per-layer metrics."""
    m: dict[str, float] = {}
    P = PARAMS
    seed = derive(seed, 100)

    n = size["rng"]
    with tracer.span("streams.replica_rng", replicas=n) as s:
        for i in range(n):
            replica_rng(seed, i)
    rng_us = _duration(s) / n * 1e6
    m["streams.replica_rng_us"] = rng_us

    for label, T in (("T4", 4.0), ("T40", 40.0), ("T160", 160.0)):
        n = size[label]
        for name, simulate in (("subordinated", simulate_subordinated), ("decomposed", simulate_decomposed)):
            with tracer.span(f"model.simulate_{name}", T=T, replicas=n) as s:
                paths = [simulate(P, SimSpec(T, seed, i)) for i in range(n)]
            m[f"model.{name}_us.{label}"] = _duration(s) / n * 1e6 - rng_us
            if name == "decomposed" and label == "T160":
                events = sum(p.n_events for p in paths)
                cats = sum(int(np.count_nonzero(p.kinds)) for p in paths)
                tracer.count("model.events.T160", events)
                tracer.count("model.catastrophes.T160", cats)
                m["model.events_per_replica.T160"] = events / n
                m["model.catastrophes_per_replica.T160"] = cats / n

    x = 0.5
    tilt = default_tilt(x, P)
    n = size["is"]
    with tracer.span("montecarlo.estimate_tail_is", T=160, replicas=n, workers=1) as s:
        estimate_tail_is(P, 160.0, x, tilt, n, seed, workers=1)
    m["montecarlo.is_us_per_replica.T160"] = _duration(s) / n * 1e6

    n = size["pool"]
    one = _median_time(tracer, "montecarlo.pool_w1", size["repeat"] * 2 - 1,
                       lambda: estimate_tail_is(P, 4.0, x, tilt, n, seed, workers=1))
    two = _median_time(tracer, "montecarlo.pool_w2", size["repeat"] * 2 - 1,
                       lambda: estimate_tail_is(P, 4.0, x, tilt, n, seed, workers=2))
    m["montecarlo.pool_start_s"] = two - one

    n = size["quality"]
    with tracer.span("montecarlo.estimate_tail_is", T=160, replicas=n, workers=2) as s:
        result = estimate_tail_is(P, 160.0, x, tilt, n, seed, workers=2)
    rel_err = result.std_err / result.p_hat
    m["montecarlo.is_ess.T160"] = result.ess
    m["montecarlo.is_rel_err.T160"] = rel_err
    m["montecarlo.is_work_rel_var_s.T160"] = _duration(s) * rel_err**2

    n = size["collect"]
    with tracer.span("paths.collect_weighted_paths", replicas=n, workers=1) as s:
        samples = collect_weighted_paths(P, 160.0, x, tilt, n, seed, 100, workers=1)
    m["paths.collect_us_per_replica"] = _duration(s) / n * 1e6
    with tracer.span("paths.conditioned_mean_path", samples=n) as s:
        mean = conditioned_mean_path(samples, 100)
        path_distance(mean, optimal_path(x, P))
    m["paths.mean_path_s"] = _duration(s)
    del samples
    with tracer.span("paths.collect_weighted_paths.tracemalloc", replicas=n):
        tracemalloc.start()
        try:
            collect_weighted_paths(P, 160.0, x, tilt, n, seed, 100, workers=1)
            m["paths.collect_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    for label, T, M, K, repeat in (("M64K60", 4.0, 64, 60, 30), ("M400K400", 40.0, 400, 400, 5),
                                   ("M1000K1000", 160.0, 1000, 1000, size["repeat"])):
        m[f"exact.state_distribution_ms.{label}"] = 1e3 * _median_time(
            tracer, f"exact.state_distribution.{label}", repeat,
            lambda: exact_state_distribution(P, T, M, K))
    m["exact.tail_ms.T160"] = 1e3 * _median_time(
        tracer, "exact.tail_probability.T160", size["repeat"],
        lambda: exact_tail_probability(P, 160.0, x, 1000, 1000))

    xs = np.linspace(0.06, 3.0, 150)
    with tracer.span("rates.terminal_rate_variational", points=xs.size) as s:
        for xi in xs:
            terminal_rate_variational(float(xi), P, tol=1e-6)
    m["rates.variational_us_per_point"] = _duration(s) / xs.size * 1e6

    m["cli.overhead_s"] = _cli_overhead(tracer, seed, size, outdir)
    return m


def _cli_overhead(tracer: Tracer, seed: int, size: dict, outdir: Path) -> float:
    """``cli.main`` time minus the time of the library calls it needs, summed over three commands."""
    P, x, n, repeat = PARAMS, 0.5, size["cli"], size["repeat"]
    tilt = default_tilt(x, P)
    out = str(outdir / "probe.out")
    common = ["--T", "160", "--x", "0.5", "--seed", str(seed)]

    def paths_lib():
        samples = collect_weighted_paths(P, 160.0, x, tilt, n, seed, 100, workers=1)
        path_distance(conditioned_mean_path(samples, 100), optimal_path(x, P))

    pairs = (
        ("exact", ["exact", "--T", "160", "--M", "1000", "--K", "1000", "--x", "0.5"],
         lambda: exact_tail_probability(P, 160.0, x, 1000, 1000)),
        ("estimate", ["estimate", *common, "--n", str(n), "--method", "is"],
         lambda: estimate_tail_is(P, 160.0, x, tilt, n, seed, workers=1)),
        ("paths", ["paths", *common, "--n", str(n)], paths_lib),
    )
    total = 0.0
    for name, argv, lib in pairs:
        cli = _median_time(tracer, f"cli.{name}", repeat, lambda: cli_main([*argv, "--out", out]))
        total += cli - _median_time(tracer, f"cli.{name}.library", repeat, lib)
    return total


def baseline_table(m: dict[str, float]) -> str:
    """The ROADMAP baseline table rebuilt from the per-layer metrics."""
    def us(*keys):
        return " / ".join(f"{m[k]:.0f}" for k in keys)

    rows = [
        ("`replica_rng` (SeedSequence + PCG64 per replica)", f"{m['streams.replica_rng_us']:.1f} µs / replica"),
        ("`simulate_decomposed` without the stream, T = 4 / 40 / 160",
         us("model.decomposed_us.T4", "model.decomposed_us.T40", "model.decomposed_us.T160") + " µs / replica"),
        ("`simulate_subordinated` without the stream, T = 4 / 40 / 160",
         us("model.subordinated_us.T4", "model.subordinated_us.T40", "model.subordinated_us.T160") + " µs / replica"),
        ("`estimate_tail_is` workers=1, T = 160", f"{m['montecarlo.is_us_per_replica.T160']:.0f} µs / replica"),
        ("`exact_state_distribution` M=64 K=60 / M=K=400 / M=K=1000",
         " / ".join(f"{m[k]:.3g}" for k in ("exact.state_distribution_ms.M64K60", "exact.state_distribution_ms.M400K400",
                                            "exact.state_distribution_ms.M1000K1000")) + " ms"),
        ("`exact_tail_probability` T=160, M=K=1000", f"{m['exact.tail_ms.T160']:.0f} ms"),
        ("`terminal_rate_variational`", f"{m['rates.variational_us_per_point']:.0f} µs / point"),
    ]
    return "| layer | measured |\n|---|---|\n" + "\n".join(f"| {a} | {b} |" for a, b in rows)
