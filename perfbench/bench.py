"""The benchmark's runner: timed rounds, checks, the traced run and the result record.

:mod:`perfbench.run` is the command; it pins the BLAS threads and puts the
checkout's ``src/`` first on the path before this module imports catpop.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import layers, workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
SETUP_CHILDREN = 4
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _cpu() -> float:
    """User+system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def setup(workload: str, seed: int, size: dict, outdir: Path) -> list[workloads.Op]:
    """Build the workload's operations and warm up every path they take."""
    make_ops, warmup = workloads.WORKLOADS[workload]
    ops = make_ops(seed, size, outdir)
    warmup(size, outdir)
    return ops


def run_round(ops: list[workloads.Op], tracer: layers.Tracer | None = None):
    """Run every operation once; return (wall, cpu, outputs).

    Only the operations themselves are timed.  A raised exception is kept
    as that operation's output and counts as its failure.
    """
    wall = cpu = 0.0
    outputs = []
    for op in ops:
        c0, w0 = _cpu(), time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span(op.name):
                    out = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            out = exc
        wall += time.perf_counter() - w0
        cpu += _cpu() - c0
        outputs.append(out)
    return wall, cpu, outputs


class Tally:
    """Checks round outputs: the first round in full, later ones against it."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.first: list | None = None
        self.verdicts: list[tuple[bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0

    def _check(self, op: workloads.Op, out) -> tuple[bool, str]:
        if isinstance(out, Exception):
            return False, f"{type(out).__name__}: {out}"
        try:
            return True, op.check(out)
        except Exception as exc:  # noqa: BLE001 - a failed check is a failed operation
            return False, f"{type(exc).__name__}: {exc}"

    def add(self, outputs: list) -> None:
        if self.first is None:
            self.first = outputs
            self.verdicts = [self._check(op, out) for op, out in zip(self.ops, outputs)]
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            ok, _ = self.verdicts[i]
            if ok and not _same(out, self.first[i]):
                ok = False
                self.verdicts[i] = (False, "output differs between rounds with the same inputs")
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.unexpected += op.known_fault is None

    def report(self) -> list[str]:
        lines = []
        for op, (ok, msg) in zip(self.ops, self.verdicts):
            status = "ok" if ok else ("FAIL (known fault)" if op.known_fault else "FAIL")
            lines.append(f"check {status}: {op.name}: {msg}")
            if not ok and op.known_fault:
                lines.append(f"  known fault: {op.known_fault}")
        return lines


def _setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters doing this run's set-up."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(RUN_SCRIPT), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(workload: str, seed: int, seconds: float, ops, setup_s: float, setup_children: bool) -> dict:
    """Timed rounds with tracing off; returns the run's result record."""
    tally = Tally(ops)
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        wall, cpu, outputs = run_round(ops)
        walls.append(wall)
        cpus.append(cpu)
        tally.add(outputs)
    peak = _peak_rss_mb()
    setups = [setup_s] + (_setup_samples(workload, seed) if setup_children else [])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
    }
    lines = tally.report() + [
        f"rounds {len(walls)}: wall_s {['%.3f' % w for w in walls]}, cpu_s {['%.3f' % c for c in cpus]}",
        f"setup_s samples {['%.3f' % s for s in setups]}",
    ]
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return _result(tally, metrics, lines)


def traced(workload: str, seed: int, seconds: float, size_name: str, ops, outdir: Path) -> dict:
    """Per-layer probes, then traced and untraced rounds alternated for the overhead."""
    tracer = layers.Tracer(f"{workload}-seed{seed}")
    with tracer.span("probes"):
        values = layers.probe_layers(tracer, seed, layers.PROBES[size_name], outdir)
    tally = Tally(ops)
    plain, spanned = [], []
    start = time.perf_counter()
    while len(plain) < 2 or time.perf_counter() - start < seconds:
        wall, _, outputs = run_round(ops)
        plain.append(wall)
        tally.add(outputs)
        with tracer.span("round", workload=workload):
            wall, _, outputs = run_round(ops, tracer)
        spanned.append(wall)
        tally.add(outputs)
    tracer.count("ops.attempted", tally.attempted)
    tracer.count("ops.failed", tally.failed)
    values["trace.overhead_s"] = statistics.median(spanned) - statistics.median(plain)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.write(trace_file)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in layers.UNITS.items()}
    lines = tally.report() + [layers.baseline_table(values), f"trace written to {trace_file.relative_to(ROOT)}"]
    return _result(tally, metrics, lines)


def _result(tally: Tally, metrics: dict, lines: list[str]) -> dict:
    for name, m in metrics.items():
        lines.append(f"metric {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"operations attempted {tally.attempted}, failed {tally.failed}")
    record = {"correct": tally.unexpected == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return {"lines": lines, "record": record}


@contextmanager
def _scratch_dir(name: str):
    """A directory for the run's ``--out`` files, removed afterwards."""
    path = OUT / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full",
        setup_children: bool = True, started: float | None = None) -> dict:
    """One benchmark run; returns {"lines": [...], "record": {...}}.

    ``started`` is when set-up began, if earlier than this call (the
    script passes its start, so ``setup_s`` includes the imports).
    """
    with _scratch_dir(f"run-{workload}") as outdir:
        started = time.perf_counter() if started is None else started
        ops = setup(workload, seed, workloads.SIZES[size_name], outdir)
        setup_s = time.perf_counter() - started
        if trace:
            return traced(workload, seed, seconds, size_name, ops, outdir)
        return measure(workload, seed, seconds, ops, setup_s, setup_children)


def main(started: float, argv: list[str] | None = None) -> int:
    """The command line of :mod:`perfbench.run`; ``started`` is when the script began."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="Benchmark for catpop: one workload per run.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only:
        with _scratch_dir(f"setup-{args.workload}") as outdir:
            setup(args.workload, args.seed, workloads.SIZES["full"], outdir)
            print(time.perf_counter() - started)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), started=started)
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result["record"])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(f"workload {args.workload} seed {args.seed}")
    print("\n".join(result["lines"]))
    print(line, flush=True)
    return 0

