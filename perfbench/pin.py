"""Regenerate ``pinned.json``: row digests at the figure-default seed.

Runs every workload once at the figure-default seed, records the sha256
of each task's canonical rows, and cross-checks a slice of the rows
against the program's scalar oracles before writing anything:

* ``drive_random_lines_scalar`` (one ``write_line`` per random line) on
  the Fig. 7 cells of ``sweep-parallel`` at 16 and 256 cosets;
* a ``write_line`` loop against ``ReplayResult.line_results()`` on one
  replayed Fig. 9 trace of ``energy-trace``.

Run from the root of a checkout::

    python3 perfbench/pin.py            # check, then write pinned.json
    python3 perfbench/pin.py --check    # check only; compare with pinned.json

Re-pinning changes what every later run counts as correct, so do it
only for a deliberate change of the simulated results.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

import workloads
from trial import PINNED, import_program

ORACLE_COSETS = (16, 256)
REPLAY_CELL = ("lbm", "VCC Opt. Energy")


def check_random_lines(tasks: list, rows_for: Any) -> List[str]:
    """Fig. 7 cells re-driven through the scalar random-line oracle."""
    from repro.pcm.cell import CellTechnology
    from repro.sim.harness import TechniqueSpec, build_controller, drive_random_lines_scalar
    from repro.utils.rng import derive_seed

    checked = []
    for task in tasks:
        params = task.params
        if task.kind != "fig7-energy-cell" or params["cosets"] not in ORACLE_COSETS:
            continue
        cosets, seed = params["cosets"], params["seed"]
        spec = TechniqueSpec(
            encoder=params["encoder"], cost=params["cost"], num_cosets=cosets, label=params["label"]
        )
        controller = build_controller(
            spec,
            rows=params["rows"],
            technology=CellTechnology(params["technology"]),
            word_bits=params["word_bits"],
            line_bits=params["line_bits"],
            seed=derive_seed(seed, f"fig7-{spec.label}-{cosets}"),
            encrypt=True,
        )
        stats = drive_random_lines_scalar(
            controller, params["num_writes"], seed=derive_seed(seed, f"fig7-writes-{cosets}")
        )
        (row,) = rows_for(task)
        if float(stats.total_energy_pj) != row["total_energy_pj"]:
            raise SystemExit(f"scalar oracle disagrees on {task.describe()}")
        checked.append(f"{task.describe()} at {cosets} cosets")
    return checked


def check_replay(tasks: list, rows_for: Any) -> str:
    """One Fig. 9 trace: ``write_line`` loop against ``line_results()``."""
    from repro.pcm.cell import CellTechnology
    from repro.sim.harness import (
        TechniqueSpec,
        build_controller,
        cached_fault_map,
        cached_trace,
        drive_trace,
    )
    from repro.utils.rng import derive_seed

    benchmark, label = REPLAY_CELL
    (task,) = [
        t for t in tasks if t.params["benchmark"] == benchmark and t.params["label"] == label
    ]
    params = task.params
    technology = CellTechnology(params["technology"])
    spec = TechniqueSpec(
        encoder=params["encoder"],
        cost=params["cost"],
        num_cosets=params["num_cosets"],
        label=label,
    )
    trace = cached_trace(
        benchmark,
        num_writebacks=params["writebacks"],
        memory_lines=params["rows"],
        line_bits=params["line_bits"],
        word_bits=params["word_bits"],
        seed=derive_seed(params["seed"], f"fig9-trace-{benchmark}"),
    )

    def controller() -> Any:
        return build_controller(
            spec,
            rows=params["rows"],
            technology=technology,
            word_bits=params["word_bits"],
            line_bits=params["line_bits"],
            fault_map=cached_fault_map(
                rows=params["rows"],
                cells_per_row=params["line_bits"] // technology.bits_per_cell,
                technology=technology,
                fault_rate=params["fault_rate"],
                seed=derive_seed(params["seed"], f"fig9-faults-{benchmark}"),
            ),
            seed=derive_seed(params["seed"], f"fig9-{benchmark}-{label}"),
            encrypt=True,
        )

    replay = drive_trace(controller(), trace)
    scalar_controller = controller()
    scalar = [scalar_controller.write_line(r.address, list(r.words)) for r in trace]
    if replay.line_results() != scalar:
        raise SystemExit(f"write_line loop disagrees with the replay on {task.describe()}")
    (row,) = rows_for(task)
    if replay.total_energy_pj() != row["total_energy_pj"]:
        raise SystemExit(f"replayed energy differs from the campaign row of {task.describe()}")
    return f"{task.describe()}: {len(scalar)} writes"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare, do not write")
    args = parser.parse_args(argv)
    import_program()
    from repro.campaign import run_campaign

    pinned: Dict[str, Any] = {"seed": "figure defaults", "workloads": {}}
    oracle: Dict[str, Any] = {}
    for workload in workloads.WORKLOADS:
        tasks, jobs = workloads.build_tasks(workload, None)
        result = run_campaign(tasks, jobs=jobs)
        serial = run_campaign(tasks, jobs=1) if jobs > 1 else result
        if serial.rows() != result.rows():
            raise SystemExit(f"{workload}: rows differ between jobs=1 and jobs={jobs}")
        pinned["workloads"][workload] = {
            "tasks": {
                task.task_hash: workloads.rows_digest(result.rows_for(task)) for task in tasks
            },
            "sim_vcc_gain": workloads.vcc_gain(workload, result.rows()),
        }
        if workload == "sweep-parallel":
            oracle["drive_random_lines_scalar"] = check_random_lines(tasks, result.rows_for)
        if workload == "energy-trace":
            oracle["write_line_vs_line_results"] = check_replay(tasks, result.rows_for)
        agree = f", rows agree at jobs=1 and jobs={jobs}" if jobs > 1 else ""
        print(f"{workload}: {len(tasks)} tasks pinned{agree}")
    pinned["oracle_check"] = dict(oracle, result="all checked rows match the scalar oracles")
    print(json.dumps(oracle, indent=2))
    if args.check:
        stored = json.loads(PINNED.read_text())
        if stored["workloads"] != pinned["workloads"]:
            raise SystemExit("rows differ from pinned.json")
        print("rows match pinned.json")
        return 0
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
