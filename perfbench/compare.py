"""Compare a parent checkout with a changed one on every end-to-end metric.

Runs ``run.py`` (this benchmark's copy, so both sides are measured by
identical benchmark code) in alternating pairs: pair ``i`` uses seed
``--seed + i``, runs the parent first when ``i`` is even and the change
first when it is odd, and rotates the workload order.  Then, for every
workload and every end-to-end metric of ``BENCHMARK.json``:

* **gain** — the change wins at least 9 of every 10 pairs (ties count
  for neither side) and its median beats the parent's by more than the
  parent's interquartile range, with no more failed tasks;
* **unresolved** — the parent's own spread (IQR / median) is wider than
  the metric's bound, so a regression within the noise cannot be ruled
  out (unless every change run beats every parent run: **better**);
* **REGRESSION** — the change's median is worse than the parent's by
  more than the bound;
* **ok** — none of the above.

Usage::

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = HERE.parent / "BENCHMARK.json"


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    command = [
        sys.executable, str(RUN),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run.py failed in {tree} on {workload} (seed {seed})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> List[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def verdict(parent: List[float], change: List[float], better: str, bound: float,
            more_failures: bool) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gap = sign * (c_med - p_med)
    if not more_failures and wins >= 0.9 * len(parent) and gap > q3 - q1:
        return "gain"
    if p_med and (q3 - q1) / abs(p_med) > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "better"
        return "unresolved"
    if p_med and -gap / abs(p_med) > bound:
        return "REGRESSION"
    return "ok"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout root")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [w for w in names if w in args.workloads.split(",")]
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        side: {w: [] for w in names} for side in sides
    }
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        shift = pair % len(names)
        for workload in names[shift:] + names[:shift]:
            for side in order:
                result = run_once(sides[side], workload, args.seed + pair, spec["run_seconds"])
                runs[side][workload].append(result)
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    for workload in names:
        parent_runs, change_runs = runs["parent"][workload], runs["change"][workload]
        failed = {side: sum(r["failed"] for r in runs[side][workload]) for side in sides}
        cells = []
        for metric in metrics:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in parent_runs]
            change = [r["metrics"][name]["value"] for r in change_runs]
            result = verdict(
                parent, change, metric["better"], metric["bound"],
                failed["change"] > failed["parent"],
            )
            p_med, c_med = statistics.median(parent), statistics.median(change)
            delta = (c_med - p_med) / p_med * 100.0 if p_med else 0.0
            cells.append(
                f"{name} {result} ({p_med:.5g} -> {c_med:.5g} {metric['unit']}, {delta:+.1f}%)"
            )
        print(
            f"{workload}: failed {failed['parent']} -> {failed['change']}; " + "; ".join(cells)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
