"""Host write throughput of the VCC reproduction, end to end and per layer.

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) as
several trials, each a fresh interpreter (``trial.py``) with its own
set-up and untimed warm-up pass, and prints the medians over the trials.
Run it from the root of a checkout whose ``src/`` holds the program::

    python3 perfbench/run.py --workload lifetime --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
(tracing off); ``--trace 1`` reports the per-layer metrics, from passes
that alternate untraced and traced inside each trial.

A task *fails* if it becomes a campaign failure row, if its warm-up rows
(figure-default seed) miss the digest pinned in ``pinned.json``, or if
its rows at the requested seed differ between passes or trials.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from layers import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: Fresh interpreters per run, one after another.  The throughput is the
#: median over every timed pass of all of them.
TRIALS = 3
#: Extra set-up-only interpreters after each untraced trial: set-up time
#: is the median over these and the trials' own set-ups.
SETUPS_PER_TRIAL = 2
TRIAL_TIMEOUT_S = 100.0

END_TO_END_UNITS = {
    "writes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
    "sim_vcc_gain": "x",
}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def run_trial(
    workload: str, seed: str, budget: float, trace: int, setup_only: bool = False
) -> Dict[str, Any]:
    """Start one trial process, wait for it, and return its record."""
    command = [
        sys.executable,
        str(HERE / "trial.py"),
        "--workload", workload,
        "--seed", seed,
        "--budget", repr(budget),
        "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    started = time.monotonic()
    process = subprocess.Popen(
        command + ["--started", repr(started)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"trial of {workload} exceeded {TRIAL_TIMEOUT_S:.0f}s")
    if process.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"trial of {workload} exited with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def untraced_rates(records: List[Dict[str, Any]]) -> List[float]:
    """Writes per host second of every untraced timed pass."""
    return [p["writes"] / p["seconds"] for r in records for p in r["passes"] if not p["traced"]]


def measure(workload: str, seed: str, seconds: float, trace: int) -> Dict[str, Any]:
    """Run every trial of one workload and reduce them to one result."""
    records, setups = [], []
    try:
        for _ in range(TRIALS):
            records.append(run_trial(workload, seed, seconds / TRIALS, trace))
            if not trace:
                setups += [
                    run_trial(workload, seed, 0.0, trace, setup_only=True)["setup_s"]
                    for _ in range(SETUPS_PER_TRIAL)
                ]
    finally:
        shutil.rmtree(".perfbench-tmp", ignore_errors=True)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    # Cross-trial check: every task's rows must agree with the majority.
    for position in range(len(records[0]["digests"])):
        votes = Counter(r["digests"][position] for r in records)
        majority, _ = votes.most_common(1)[0]
        failed += sum(n for digest, n in votes.items() if digest != majority)
    if trace:
        layers = [layer for r in records for layer in r["layers"]]
        values = {name: median([layer[name] for layer in layers]) for name in layers[0]}
        # Passes alternate untraced, traced: compare each traced pass with
        # the untraced pass just before it, so slow drift of the host cancels.
        values["obs.trace_overhead_frac"] = median(
            [
                traced["seconds"] / plain["seconds"] - 1.0
                for r in records
                for plain, traced in zip(r["passes"][0::2], r["passes"][1::2])
            ]
        )
        units = {name: PER_LAYER[name][0] for name in PER_LAYER}
    else:
        values = {
            "writes_per_s": median(untraced_rates(records)),
            "setup_s": median(setups + [r["setup_s"] for r in records]),
            "peak_rss_mb": median([r["rss_self_mb"] for r in records]),
            # At jobs=1 the tasks run in the coordinator, its own largest worker.
            "worker_peak_rss_mb": median(
                [r["rss_children_mb"] or r["rss_self_mb"] for r in records]
            ),
            "sim_vcc_gain": median([r["vcc_gain_pinned"] for r in records]),
        }
        units = END_TO_END_UNITS
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "vcc_gain_seed": records[0]["vcc_gain_seed"],
        "rows_sha256": _combined(records[0]["digests"]),
    }


def _combined(digests: List[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def describe(result: Dict[str, Any]) -> List[str]:
    """Human-readable lines: every metric by name, with its unit."""
    workload = result["workload"]
    lines = []
    for name, metric in result["metrics"].items():
        lines.append(f"{workload:15s} {name:28s} {metric['value']:.6g} {metric['unit']}")
    gain = result["metrics"].get("sim_vcc_gain")
    if gain is not None:
        if workload == "lifetime":
            lines.append(f"{workload:15s} {'sim_lifetime_gain':28s} {gain['value']:.6g} x")
        else:
            saving = 100.0 * (1.0 - 1.0 / gain["value"])
            lines.append(f"{workload:15s} {'sim_energy_saving_pct':28s} {saving:.6g} %")
    frac = result["failed"] / result["attempted"]
    lines.append(
        f"{workload:15s} {'failed_frac':28s} {frac:.6g} "
        f"({result['failed']} of {result['attempted']} tasks)"
    )
    lines.append(
        f"{workload:15s} {'rows_sha256':28s} {result['rows_sha256']} "
        f"(seed-run sim_vcc_gain {result['vcc_gain_seed']:.12g})"
    )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument(
        "--seed", default="default", help="workload seed (default: the figure defaults)"
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed != "default":
        args.seed = str(int(args.seed))
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit("run from the root of a checkout: src/repro is missing")

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(describe(result)))
        summary = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
        print(json.dumps(summary))
        return 0

    # Rotate the workload order with the seed, so repeated invocations
    # do not always run one workload first.
    shift = 0 if args.seed == "default" else int(args.seed) % len(WORKLOADS)
    order = WORKLOADS[shift:] + WORKLOADS[:shift]
    results = {w: measure(w, args.seed, args.seconds, args.trace) for w in order}
    for workload in WORKLOADS:
        print("\n".join(describe(results[workload])))
    print(json.dumps({w: results[w] for w in WORKLOADS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
