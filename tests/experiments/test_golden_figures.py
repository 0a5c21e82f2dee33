"""Pinned figure digests: every figure and table at a small fixed scale.

Each case regenerates one figure or table of the paper through its
registered entry point, with small pinned arguments, and hashes the
canonical JSON of the resulting :class:`repro.sim.results.ResultTable`
(sha256 of ``json.dumps(..., sort_keys=True)``).  The digests are
compared with ``tests/golden/digests.json`` for an in-process run
(``jobs=1``) and a two-worker campaign (``jobs=2``), so a refactor of any
layer under the figures — traces, pads, encoders, the replay loop, the
campaign executor — must leave every table bit-identical.

Regenerate the record only for a deliberate change of the figures,
naming the figures that moved and why in CHANGES.md, with::

    PYTHONPATH=src python tests/experiments/test_golden_figures.py
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

from repro.experiments.registry import available_experiments, get_experiment
from repro.sim.lifetime_sim import LifetimeStudyConfig

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "digests.json"

#: A lifetime configuration that fails rows within a few hundred writes.
_LIFETIME = LifetimeStudyConfig(rows=24, mean_endurance_writes=24.0, trace_writebacks=120)

#: case -> (experiment, pinned keyword arguments).
CASES: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "fig1": ("fig1", {"coset_counts": (2, 4, 16)}),
    "fig2": ("fig2", {"coset_counts": (1, 4, 32), "rows": 24, "num_writes": 20, "seed": 9}),
    "fig3": ("fig3", {}),
    "fig6": ("fig6", {"coset_counts": (32, 256)}),
    "fig7": ("fig7", {"coset_counts": (32,), "rows": 24, "num_writes": 20, "seed": 5}),
    "fig8": ("fig8", {"coset_counts": (32,), "rows": 24, "num_writes": 20, "seed": 9}),
    "fig9": (
        "fig9",
        {"benchmarks": ("lbm", "mcf"), "num_cosets": 32, "writebacks_per_benchmark": 40, "rows": 24},
    ),
    "fig10": (
        "fig10",
        {"benchmarks": ("lbm", "mcf"), "num_cosets": 32, "writebacks_per_benchmark": 40, "rows": 24},
    ),
    "fig11": ("fig11", {"benchmarks": ("lbm",), "num_cosets": 32, "config": _LIFETIME}),
    "fig11-transient": (
        "fig11",
        {"benchmarks": ("mcf",), "num_cosets": 32, "config": _LIFETIME, "fault_model": "transient"},
    ),
    "fig12": (
        "fig12",
        {"coset_counts": (32,), "benchmarks": ("mcf",), "config": _LIFETIME},
    ),
    "fig13": ("fig13", {"benchmarks": ("lbm", "mcf"), "num_cosets": 32}),
    "table1": ("table1", {}),
    "table2": ("table2", {}),
}

#: Experiments whose entry point fans cells out over campaign workers.
PARALLEL = sorted(
    case
    for case, (name, _) in CASES.items()
    if "jobs" in inspect.signature(get_experiment(name)).parameters
)


def _digest(case: str, jobs: int = 1) -> str:
    name, kwargs = CASES[case]
    if jobs != 1:
        kwargs = dict(kwargs, jobs=jobs)
    table = get_experiment(name)(**kwargs)
    canonical = json.dumps(json.loads(table.to_json()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_every_experiment_is_pinned(golden):
    assert {name for name, _ in CASES.values()} == set(available_experiments())
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_figure_matches_golden_in_process(case, golden):
    assert _digest(case) == golden[case]


@pytest.mark.parametrize("case", PARALLEL)
def test_figure_matches_golden_two_workers(case, golden):
    assert _digest(case, jobs=2) == golden[case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps({case: _digest(case) for case in CASES}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(CASES)} digests to {GOLDEN}")
