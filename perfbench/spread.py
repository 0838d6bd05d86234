"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

Runs the benchmark ``--runs`` times per workload, each with its own seed,
and prints for every end-to-end metric the median and the quartile spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json; a
spread under a third of the bound reads "ok"::

    python3 perfbench/spread.py --runs 10 --first-seed 1000

Raw results go to ``.perfbench_out/spread-<workload>-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    for workload in args.workload or names:
        records = []
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
            )
            records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        (out / f"spread-{workload}-{args.first_seed}.json").write_text(json.dumps(records, indent=1))
        shares = {r["failed"] / r["attempted"] for r in records}
        print(f"{workload}: {args.runs} runs, correct {all(r['correct'] for r in records)}, "
              f"failed share {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in records]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            # setup_s is judged on its median only, not on its spread
            verdict = "median only" if name == "setup_s" else ("ok" if spread < bound / 3 else "WIDE")
            print(f"  {name:12s} median {med:10.4f}  spread {spread:6.3f}  bound {bound}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
