"""The replay path moves arrays from the trace to the PCM apply.

A lifetime cell synthesises its trace, encrypts it in pad chunks,
encodes every wave through one ``encode_lines`` call and applies it to
the array.  None of that should build a per-line Python object: no
``WritebackRecord`` (the trace is columnar), no ``LineContext`` (waves
are gathered into a :class:`~repro.coding.base.LineBatch`) and no
``EncodedLine`` (kernels return an :class:`~repro.coding.base.EncodedBatch`).
"""

from collections import Counter

import pytest

from repro.campaign.tasks import run_task
from repro.coding.base import EncodedLine, LineContext
from repro.sim.lifetime_sim import (
    DEFAULT_LIFETIME_TECHNIQUES,
    LifetimeStudyConfig,
    lifetime_study_tasks,
)
from repro.traces.trace import WritebackRecord

#: The per-line objects the array-native replay path must not build.
PER_LINE_CLASSES = (WritebackRecord, LineContext, EncodedLine)


@pytest.fixture()
def constructions(monkeypatch):
    """Count every constructor call of the per-line classes."""
    counts: Counter = Counter()
    for cls in PER_LINE_CLASSES:
        original = cls.__init__

        def counting_init(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


def test_counting_sees_per_line_objects(constructions):
    """The fixture really counts: the scalar write path builds them."""
    WritebackRecord(address=1, words=(2,))
    LineContext.blank(words_per_line=2)
    assert constructions == Counter({"WritebackRecord": 1, "LineContext": 1})


@pytest.mark.parametrize("spec", DEFAULT_LIFETIME_TECHNIQUES, ids=lambda spec: spec.label)
def test_lifetime_cell_builds_no_per_line_objects(spec, constructions):
    config = LifetimeStudyConfig(rows=24, mean_endurance_writes=24.0, trace_writebacks=120)
    (task,) = lifetime_study_tasks(("mcf",), (spec,), num_cosets=32, config=config)
    rows = run_task(task)
    assert rows and rows[0]["writes_to_failure"] > 0
    assert constructions == Counter()
