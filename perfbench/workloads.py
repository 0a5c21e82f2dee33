"""The benchmark's three workloads, built from the public task builders.

Each workload is a list of campaign tasks plus the ``jobs`` it runs at.
``seed=None`` selects the figure defaults (the configs the experiments
ship with); that is the seed the pinned row digests were taken at.  Any
other seed replaces every config's ``seed`` and nothing else, so the
program only ever receives the generated task lists.

Imports of :mod:`repro` happen inside the functions: the orchestrator
imports this module without loading the program under test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

WORKLOADS: Tuple[str, ...] = ("lifetime", "energy-trace", "sweep-parallel")

#: Fig. 7/8 coset axis of ``sweep-parallel``: 16-256 in powers of two.
SWEEP_COSETS = (16, 32, 64, 128, 256)
LIFETIME_BENCHMARKS = ("lbm", "mcf")


def build_tasks(workload: str, seed: Optional[int]) -> Tuple[list, int]:
    """``(tasks, jobs)`` of one workload at one seed."""
    if workload == "lifetime":
        from repro.sim.lifetime_sim import (
            DEFAULT_LIFETIME_TECHNIQUES,
            LifetimeStudyConfig,
            lifetime_study_tasks,
        )

        config = _seeded(LifetimeStudyConfig(), seed)
        tasks = lifetime_study_tasks(
            LIFETIME_BENCHMARKS, DEFAULT_LIFETIME_TECHNIQUES, num_cosets=256, config=config
        )
        return tasks, 1
    if workload == "energy-trace":
        from repro.sim.energy_sim import EnergyStudyConfig, benchmark_energy_tasks

        return benchmark_energy_tasks(config=_seeded(EnergyStudyConfig(), seed)), 1
    if workload == "sweep-parallel":
        from repro.sim.energy_sim import EnergyStudyConfig, random_energy_tasks
        from repro.sim.saw_sim import SawStudyConfig, saw_vs_coset_count_tasks

        tasks = random_energy_tasks(SWEEP_COSETS, _seeded(EnergyStudyConfig(), seed))
        tasks += saw_vs_coset_count_tasks(SWEEP_COSETS, _seeded(SawStudyConfig(), seed))
        return tasks, 2
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _seeded(config: Any, seed: Optional[int]) -> Any:
    return config if seed is None else replace(config, seed=seed)


def pregenerate_inputs(tasks: Sequence[Any]) -> None:
    """Fill the per-process trace and fault-map memos the tasks will hit.

    This is the up-front input generation that ``setup_s`` covers.  The
    calls mirror the task kinds' own ``cached_trace`` /
    ``cached_fault_map`` calls argument for argument (``lru_cache`` keys
    on the call form), so the timed passes find every input in the memo.
    Lifetime cells synthesise their trace inside the cell, uncached, so
    they have nothing to pre-generate.
    """
    from repro.pcm.cell import CellTechnology
    from repro.sim.harness import cached_fault_map, cached_trace
    from repro.utils.rng import derive_seed

    for task in tasks:
        params = task.params
        if task.kind == "fig9-energy-cell":
            benchmark = params["benchmark"]
            technology = CellTechnology(params["technology"])
            cached_trace(
                benchmark,
                num_writebacks=params["writebacks"],
                memory_lines=params["rows"],
                line_bits=params["line_bits"],
                word_bits=params["word_bits"],
                seed=derive_seed(params["seed"], f"fig9-trace-{benchmark}"),
            )
            cached_fault_map(
                rows=params["rows"],
                cells_per_row=params["line_bits"] // technology.bits_per_cell,
                technology=technology,
                fault_rate=params["fault_rate"],
                seed=derive_seed(params["seed"], f"fig9-faults-{benchmark}"),
            )
        elif task.kind == "fig8-saw-cell":
            technology = CellTechnology(params["technology"])
            cached_fault_map(
                rows=params["rows"],
                cells_per_row=params["line_bits"] // technology.bits_per_cell,
                technology=technology,
                fault_rate=params["fault_rate"],
                seed=derive_seed(params["seed"], "fig8-faults"),
            )


def task_writes(task: Any, rows: List[Dict[str, Any]]) -> int:
    """Simulated line writes one task performed.

    Lifetime cells write until the memory fails, so their count is the
    row's ``writes_to_failure``; the other cells write a fixed number of
    lines named in their parameters.
    """
    if task.kind == "fig11-lifetime-cell":
        return sum(int(row["writes_to_failure"]) for row in rows)
    if task.kind == "fig9-energy-cell":
        return int(task.params["writebacks"])
    if task.kind in ("fig7-energy-cell", "fig8-saw-cell"):
        return int(task.params["num_writes"])
    raise ValueError(f"no write count for task kind {task.kind!r}")


def vcc_gain(workload: str, rows: List[Dict[str, Any]]) -> float:
    """VCC-256's improvement factor over Unencoded on the workload's rows.

    ``lifetime``: mean writes-to-failure of VCC over Unencoded (the
    ``sim_lifetime_gain`` of Fig. 11).  ``energy-trace`` and
    ``sweep-parallel``: unencoded write energy over VCC write energy at
    256 cosets, i.e. ``1 / (1 - sim_energy_saving_pct / 100)``.
    """
    if workload == "lifetime":
        vcc = [row["writes_to_failure"] for row in rows if row["technique"] == "VCC"]
        base = [row["writes_to_failure"] for row in rows if row["technique"] == "Unencoded"]
        return sum(vcc) / sum(base)
    if workload == "energy-trace":
        vcc = sum(r["total_energy_pj"] for r in rows if r["technique"] == "VCC Opt. Energy")
        base = sum(r["total_energy_pj"] for r in rows if r["technique"] == "Unencoded")
        return base / vcc
    energy = {
        row["technique"]: row["total_energy_pj"]
        for row in rows
        if row.get("cosets") == 256 and "total_energy_pj" in row
    }
    return energy["Unencoded"] / energy["VCC-Generated"]


def rows_digest(rows: List[Dict[str, Any]]) -> str:
    """sha256 of the canonical JSON of one task's result rows."""
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
