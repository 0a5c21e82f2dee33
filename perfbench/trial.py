"""One trial of a workload in a fresh interpreter (started by ``run.py``).

A trial sets up (``--setup-only`` stops there), runs one untimed warm-up pass at the figure-default
seed (checked against the pinned row digests), then runs timed passes
at the requested seed until its time budget is spent, and prints one
JSON record as its last line of output.  With ``--trace 1`` the timed
passes alternate between untraced and traced (:mod:`layers`), so the
tracing overhead is measured inside the same process.

Usage (from the root of a checkout, whose ``src/`` holds the program)::

    python3 perfbench/trial.py --workload lifetime --seed 3 --budget 5 \
        --trace 0 --started <time.monotonic() before the process started>
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"
#: Scratch area for the per-pass result stores, inside the checkout.
SCRATCH = Path(".perfbench-tmp")


def import_program() -> None:
    """Import ``repro`` from ``./src`` of the checkout and nowhere else."""
    source = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(source))
    import repro

    if source not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {source}")


class Trial:
    """State of one trial: the workload's tasks and its checks so far."""

    def __init__(self, workload: str, seed: Optional[int]) -> None:
        import workloads

        self.workload = workload
        self.tasks, self.jobs = workloads.build_tasks(workload, seed)
        self.pinned_tasks, _ = workloads.build_tasks(workload, None)
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[List[str]] = None
        self.pass_index = 0

    def run_pass(self, tasks: list) -> Any:
        """One campaign pass; failed tasks become failure rows, not errors."""
        from repro.campaign import ResultStore, run_campaign

        store = None
        if self.jobs > 1:
            store = ResultStore(SCRATCH / f"store-{os.getpid()}-{self.pass_index}")
        self.pass_index += 1
        result = run_campaign(tasks, store=store, jobs=self.jobs, degrade=True)
        self.attempted += len(result.tasks)
        self.failed += len(result.failures)
        return result

    def digests(self, result: Any, tasks: list) -> List[str]:
        import workloads

        failed = {failure.task.task_hash for failure in result.failures}
        return [
            "failed" if task.task_hash in failed else workloads.rows_digest(result.rows_for(task))
            for task in tasks
        ]

    def check_pinned(self, result: Any) -> None:
        """Count every warm-up task whose rows miss the pinned digest."""
        pinned = json.loads(PINNED.read_text())["workloads"][self.workload]["tasks"]
        digests = self.digests(result, self.pinned_tasks)
        for task, digest in zip(self.pinned_tasks, digests):
            if digest != "failed" and pinned.get(task.task_hash) != digest:
                self.failed += 1

    def check_repeat(self, result: Any) -> List[str]:
        """Count every task whose rows differ from the first timed pass."""
        digests = self.digests(result, self.tasks)
        if self.reference is None:
            self.reference = digests
        else:
            self.failed += sum(
                1
                for now, first in zip(digests, self.reference)
                if now != first and now != "failed"
            )
        return digests


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, help="an integer, or 'default'")
    parser.add_argument("--budget", type=float, required=True, help="timed seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true", help="report set-up time only")
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from layers import LayerTracer, layer_metrics

    import repro.obs as obs
    from repro.campaign import last_campaign_telemetry

    seed = None if args.seed == "default" else int(args.seed)
    trial = Trial(args.workload, seed)
    workloads.pregenerate_inputs(trial.tasks)
    tracer = LayerTracer()
    warm_begin = time.monotonic()
    setup_s = warm_begin - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warm = trial.run_pass(trial.pinned_tasks)
    trial.check_pinned(warm)
    pinned_gain = workloads.vcc_gain(args.workload, warm.rows())

    passes: List[Dict[str, Any]] = []
    layers: List[Dict[str, float]] = []
    first_timed = time.monotonic()
    minimum = 4 if args.trace else 2
    # Start another pass while it should end less than half a pass past the budget.
    while len(passes) < minimum or (
        time.monotonic() - first_timed + passes[-1]["seconds"] / 2 < args.budget
    ):
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        obs.reset_metrics()
        begin = time.perf_counter()
        result = trial.run_pass(trial.tasks)
        seconds = time.perf_counter() - begin
        if traced:
            tracer.uninstall()
            layers.append(layer_metrics(obs.metrics_snapshot(), last_campaign_telemetry()))
        digests = trial.check_repeat(result)
        writes = sum(
            workloads.task_writes(task, result.rows_for(task))
            for task, digest in zip(trial.tasks, digests)
            if digest != "failed"
        )
        passes.append({"traced": traced, "seconds": seconds, "writes": writes})
        shutil.rmtree(SCRATCH, ignore_errors=True)

    record = {
        "setup_s": setup_s,
        "passes": passes,
        "layers": layers,
        "attempted": trial.attempted,
        "failed": trial.failed,
        "digests": trial.reference,
        "vcc_gain_pinned": pinned_gain,
        "vcc_gain_seed": workloads.vcc_gain(args.workload, result.rows()),
        "rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
