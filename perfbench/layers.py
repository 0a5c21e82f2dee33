"""Per-layer timing for the traced run, recorded around public calls.

:class:`LayerTracer` wraps the public entry points of each ``repro``
layer from outside the program (nothing under ``src/`` changes) and
records, per layer, the time of the outermost call, the part of it that
nested calls into other layers covered, and a work amount.  The records
go into the program's own :mod:`repro.obs` histograms, so at ``jobs=2``
the pool workers (forked after :meth:`LayerTracer.install`, hence
wrapped too) ship them back with every task's metric snapshot and the
coordinator's registry holds the totals of the whole pass.

The per-layer metric names follow the ``repro`` modules: ``traces``,
``crypto``, ``coding``, ``pcm``, ``memctrl``, ``sim`` and ``campaign``.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Prefix of the histograms this module records into.
PREFIX = "perfbench."

#: Every per-layer metric: name -> (unit, which direction is better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "traces.generate_s": ("s", "lower"),
    "traces.writebacks": ("count", "lower"),
    "crypto.pad_s": ("s", "lower"),
    "crypto.pads": ("count", "lower"),
    "crypto.rollback_frac": ("frac", "lower"),
    "coding.encode_s": ("s", "lower"),
    "coding.lines": ("count", "lower"),
    "coding.candidates": ("count", "lower"),
    "coding.candidates_per_s": ("1/s", "higher"),
    "coding.fallback_lines": ("count", "lower"),
    "pcm.apply_s": ("s", "lower"),
    "pcm.rows_written": ("count", "lower"),
    "pcm.rows_per_call": ("rows/call", "higher"),
    "memctrl.replay_s": ("s", "lower"),
    "memctrl.self_s": ("s", "lower"),
    "memctrl.waves": ("count", "lower"),
    "memctrl.lines_per_wave": ("lines/wave", "higher"),
    "memctrl.conflict_cut_frac": ("frac", "lower"),
    "sim.build_s": ("s", "lower"),
    "sim.self_s": ("s", "lower"),
    "campaign.tasks": ("count", "lower"),
    "campaign.batches": ("count", "lower"),
    "campaign.compute_s": ("s", "lower"),
    "campaign.queue_wait_s": ("s", "lower"),
    "campaign.exec_overhead_frac": ("frac", "lower"),
    "campaign.retries": ("count", "lower"),
    "campaign.store_put_s": ("s", "lower"),
    "obs.trace_overhead_frac": ("frac", "lower"),
}

# layer -> amount(args, result), the work units of one call (args[0] is
# ``self`` for the wrapped methods).
_AMOUNTS: Dict[str, Callable[[tuple, Any], int]] = {
    "traces": lambda args, result: len(result),
    "coding": lambda args, result: len(args[2]),
    "pcm": lambda args, result: len(args[1]),
}


class LayerTracer:
    """Installs and removes the per-layer wrappers of one process."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` undoes it."""
        import repro.campaign.tasks as tasks
        import repro.sim.harness as harness
        import repro.traces.synthetic as synthetic
        from repro.coding.base import Encoder
        from repro.coding.registry import available_encoders
        from repro.crypto.counter_mode import CounterModeEngine
        from repro.memctrl.controller import MemoryController
        from repro.pcm.array import PCMArray

        available_encoders()  # import every builtin encoder class
        self._patch_function(tasks.run_task, "task")
        self._patch_function(synthetic.generate_trace, "traces")
        self._patch_function(harness.build_controller, "build")
        # The lifetime stop rule runs inside the replay but belongs to sim.
        self._patch_method(MemoryController, "replay_trace", "memctrl", callback="stop")
        self._patch_method(MemoryController, "write_random_lines", "memctrl")
        self._patch_method(CounterModeEngine, "encrypt_lines", "crypto")
        self._patch_method(PCMArray, "write_rows_fast", "pcm")
        self._patch_method(PCMArray, "write_row_fast", "pcm", amount=lambda args, result: 1)
        pending = [Encoder]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "encode_lines" in cls.__dict__:
                self._patch_method(cls, "encode_lines", "coding")

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------ internals
    def _patch_function(self, function: Callable, layer: str) -> None:
        """Wrap ``function`` under every module name that binds it."""
        wrapper = self._wrap(function, layer, _AMOUNTS.get(layer))
        name = function.__name__
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, name, None) is function:
                self._patched.append((module, name, function))
                setattr(module, name, wrapper)

    def _patch_method(
        self,
        cls: type,
        name: str,
        layer: str,
        amount: Optional[Callable] = None,
        callback: Optional[str] = None,
    ) -> None:
        original = cls.__dict__[name]
        self._patched.append((cls, name, original))
        wrapper = self._wrap(original, layer, amount or _AMOUNTS.get(layer), callback)
        setattr(cls, name, wrapper)

    def _wrap(
        self,
        function: Callable,
        layer: str,
        amount: Optional[Callable],
        callback: Optional[str] = None,
    ) -> Callable:
        from repro import obs

        total = obs.histogram(f"{PREFIX}{layer}.s", f"seconds in outermost {layer} calls")
        nested = obs.histogram(f"{PREFIX}{layer}.child_s", f"seconds of other layers inside {layer}")
        work = obs.histogram(f"{PREFIX}{layer}.amount", f"work units of {layer} calls")
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)  # nested call of the same layer
            if callback is not None and kwargs.get(callback) is not None:
                kwargs[callback] = self._wrap(kwargs[callback], callback, None)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                total.observe(elapsed)
                nested.observe(frame[1])
            if amount is not None:
                work.observe(amount(args, result))
            return result

        return wrapper


def layer_metrics(snapshot: Dict[str, Dict[str, Any]], telemetry: Any) -> Dict[str, float]:
    """One traced pass's per-layer metrics from the merged obs snapshot.

    Times are seconds summed over every process of the pass (at
    ``jobs=2`` both workers' busy time adds up).  ``telemetry`` is the
    pass's :class:`~repro.campaign.engine.CampaignTelemetry`.
    """

    def hist(name: str, field: str = "total") -> float:
        return float(snapshot.get(name, {}).get(field) or 0)

    def counter(name: str) -> float:
        return float(snapshot.get(name, {}).get("value") or 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def self_s(name: str) -> float:
        return hist(f"{PREFIX}{name}.s") - hist(f"{PREFIX}{name}.child_s")

    encode_s = hist(f"{PREFIX}coding.s")
    candidates = counter("encode.candidates")
    pads = counter("crypto.pads")
    rows_written = hist(f"{PREFIX}pcm.amount")
    waves = counter("replay.waves")
    task_wall = telemetry.task_wall_s
    return {
        "traces.generate_s": hist(f"{PREFIX}traces.s"),
        "traces.writebacks": hist(f"{PREFIX}traces.amount"),
        "crypto.pad_s": hist(f"{PREFIX}crypto.s"),
        "crypto.pads": pads,
        "crypto.rollback_frac": ratio(counter("crypto.rolled_back_counters"), pads),
        "coding.encode_s": encode_s,
        "coding.lines": hist(f"{PREFIX}coding.amount"),
        "coding.candidates": candidates,
        "coding.candidates_per_s": ratio(candidates, encode_s),
        "coding.fallback_lines": counter("encode.fallback_lines"),
        "pcm.apply_s": hist(f"{PREFIX}pcm.s"),
        "pcm.rows_written": rows_written,
        "pcm.rows_per_call": ratio(rows_written, hist(f"{PREFIX}pcm.amount", "count")),
        "memctrl.replay_s": hist(f"{PREFIX}memctrl.s"),
        "memctrl.self_s": self_s("memctrl"),
        "memctrl.waves": waves,
        "memctrl.lines_per_wave": ratio(
            hist("replay.wave_lines"), hist("replay.wave_lines", "count")
        ),
        "memctrl.conflict_cut_frac": ratio(counter("replay.conflict_cuts"), waves),
        "sim.build_s": hist(f"{PREFIX}build.s"),
        "sim.self_s": self_s("task") + hist(f"{PREFIX}stop.s"),
        "campaign.tasks": counter("campaign.tasks_run"),
        "campaign.batches": float(telemetry.batches),
        "campaign.compute_s": telemetry.compute_s,
        "campaign.queue_wait_s": telemetry.queue_wait_s,
        "campaign.exec_overhead_frac": ratio(
            telemetry.dispatch_s + telemetry.transfer_s, task_wall
        ),
        "campaign.retries": float(telemetry.retried),
        "campaign.store_put_s": hist("store.put_s"),
    }
