"""Unified fault-injection subsystem with two faces.

**Device face** — :mod:`repro.faults.models`: a decorator registry of
:class:`~repro.faults.models.FaultModel` classes describing how PCM cells
fail (static stuck-at snapshots, row-correlated weak rows, transient
sensing flips corrected by :mod:`repro.ecc`, wear-drift mid-replay).
Experiments select a model by name through ``TechniqueSpec.fault_model``
or the ``--fault-model`` CLI flag.

**Runtime face** — :mod:`repro.faults.chaos`: a seeded
:class:`~repro.faults.chaos.ChaosPlan` injecting worker crashes,
slow tasks, and store corruption into the campaign executor, used to
test the retry / timeout / graceful-degradation machinery in
:mod:`repro.campaign`.

Both faces share the determinism contract: every injected fault — in the
simulated device or in the real process pool — derives from
:func:`repro.utils.rng.make_rng` labels, so runs are bit-reproducible.
"""

from repro.faults.chaos import ChaosPlan
from repro.faults.models import (
    FaultModel,
    RowCorrelatedFaults,
    StaticStuckAtFaults,
    TransientReadFaults,
    WearDriftFaults,
)
from repro.faults.registry import (
    available_fault_models,
    get_fault_model_class,
    make_fault_model,
    register_fault_model,
    unregister_fault_model,
)

__all__ = [
    "ChaosPlan",
    "FaultModel",
    "RowCorrelatedFaults",
    "StaticStuckAtFaults",
    "TransientReadFaults",
    "WearDriftFaults",
    "available_fault_models",
    "get_fault_model_class",
    "make_fault_model",
    "register_fault_model",
    "unregister_fault_model",
]
