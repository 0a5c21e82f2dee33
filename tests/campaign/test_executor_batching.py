"""Batched-executor contracts: determinism, telemetry, crash recovery.

The determinism matrix drives a real (scaled-down) fig7 sweep through
every batching shape that matters — size 1 (the old one-round-trip-per
-task behaviour), an uneven tail, and a single batch larger than the
task list — under both the ``fork`` and ``spawn`` start methods, and
checks the rows against the serial oracle bit for bit.  A bulky-batch
test sends rows far larger than any real cell's through the pool's
pickle pipe, and the crash tests check that an aborted run leaves the
executor and the store usable.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.executor import (
    BATCHES_PER_WORKER,
    ProcessExecutor,
    SerialExecutor,
    TaskBatch,
    make_executor,
)
from repro.campaign.spec import SweepSpec, Task
from repro.campaign.store import ResultStore
from repro.campaign.tasks import register_task, unregister_task
from repro.errors import ConfigurationError, SimulationError
from repro.utils.blas import blas_threads

START_METHODS = multiprocessing.get_all_start_methods()


def _fig7_tasks(cells=4):
    """A tiny fig7 grid over a builtin kind (importable under spawn)."""
    spec = SweepSpec(
        kind="fig7-energy-cell",
        base={
            "rows": 32,
            "word_bits": 64,
            "line_bits": 512,
            "num_writes": 30,
            "technology": "mlc",
            "encoder": "rcc",
            "cost": "energy-then-saw",
            "label": "RCC",
        },
        grid={"cosets": [4, 8]},
        seeds=tuple(range(3, 3 + (cells + 1) // 2)),
    )
    return spec.expand()[:cells]


def _collect(executor, tasks):
    results = {}
    telemetry = []

    def on_result(task, rows, task_telemetry):
        results[task.task_hash] = rows
        telemetry.append(task_telemetry)

    executor.run(tasks, on_result)
    return results, telemetry


class TestConfiguration:
    def test_max_in_flight_is_four_per_worker(self):
        assert ProcessExecutor(3).max_in_flight == 12

    @pytest.mark.skipif("fork" not in START_METHODS, reason="fork start method required")
    def test_in_flight_batches_reach_but_never_pass_the_bound(self, monkeypatch):
        import repro.campaign.executor as executor_module

        waited = []
        real_wait = executor_module.wait

        def counting_wait(futures, **kwargs):
            waited.append(len(futures))
            return real_wait(futures, **kwargs)

        @register_task("test-batch-bound-cell")
        def _cell(params):
            return [{"index": params["index"]}]

        monkeypatch.setattr(executor_module, "wait", counting_wait)
        tasks = [Task(kind="test-batch-bound-cell", params={"index": i}) for i in range(10)]
        try:
            results, _ = _collect(ProcessExecutor(1, batch_size=1, start_method="fork"), tasks)
        finally:
            unregister_task("test-batch-bound-cell")
        assert results == {task.task_hash: [{"index": i}] for i, task in enumerate(tasks)}
        assert max(waited) == 4

    def test_non_positive_batch_size_rejected(self):
        with pytest.raises(ConfigurationError, match="batch_size"):
            ProcessExecutor(2, batch_size=0)

    def test_unavailable_start_method_rejected(self):
        with pytest.raises(ConfigurationError, match="start method"):
            ProcessExecutor(2, start_method="no-such-method")._context()

    def test_make_executor_dispatch(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(2), ProcessExecutor)
        assert make_executor(2, batch_size=5).batch_size == 5


class TestSharding:
    def test_derived_size_targets_batches_per_worker(self):
        tasks = [Task(kind="k", params={"i": i}) for i in range(64)]
        batches = ProcessExecutor(2).shard(tasks)
        # ceil(64 / (BATCHES_PER_WORKER * 2)) tasks per batch
        expected = -(-64 // (BATCHES_PER_WORKER * 2))
        assert all(len(batch) == expected for batch in batches[:-1])
        assert sum(len(batch) for batch in batches) == 64

    def test_batches_preserve_submission_order(self):
        tasks = [Task(kind="k", params={"i": i}) for i in range(10)]
        batches = ProcessExecutor(4, batch_size=3).shard(tasks)
        flattened = [task for batch in batches for task in batch.tasks]
        assert flattened == tasks
        assert [batch.index for batch in batches] == [0, 1, 2, 3]
        assert [len(batch) for batch in batches] == [3, 3, 3, 1]  # uneven tail

    def test_oversized_batch_is_one_round_trip(self):
        tasks = [Task(kind="k", params={"i": i}) for i in range(4)]
        batches = ProcessExecutor(2, batch_size=99).shard(tasks)
        assert len(batches) == 1 and len(batches[0]) == 4

    def test_empty_task_list(self):
        assert ProcessExecutor(2).shard([]) == []


class TestDeterminismMatrix:
    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("batch_size", [1, 3, 99])
    def test_rows_bit_identical_to_serial(self, start_method, batch_size):
        """jobs=4 x {fork, spawn} x {size 1, uneven tail, > n_tasks}."""
        tasks = _fig7_tasks(4)
        serial, _ = _collect(SerialExecutor(), tasks)
        executor = ProcessExecutor(4, batch_size=batch_size, start_method=start_method)
        parallel, telemetry = _collect(executor, tasks)
        assert parallel == serial
        assert len(telemetry) == len(tasks)
        sizes = {entry.batch_size for entry in telemetry}
        if batch_size == 1:
            assert sizes == {1}
        elif batch_size == 3:
            assert sizes == {3, 1}  # uneven tail batch
        else:
            assert sizes == {len(tasks)}  # one oversized batch

    @pytest.mark.skipif("fork" not in START_METHODS, reason="fork start method required")
    def test_bulky_batch_rows_identical(self):
        """Batches far larger than any real cell's still ride the pickle pipe."""

        @register_task("test-batch-bulky-cell")
        def _cell(params):
            return [{"index": params["index"], "blob": f"{params['index']:x}" * 40000}]

        tasks = [Task(kind="test-batch-bulky-cell", params={"index": i}) for i in range(4)]
        try:
            serial, _ = _collect(SerialExecutor(), tasks)
            batch_rows = [serial[task.task_hash] for task in tasks[:2]]
            assert len(pickle.dumps(batch_rows)) > 64 * 1024
            executor = ProcessExecutor(2, batch_size=2, start_method="fork")
            parallel, _ = _collect(executor, tasks)
            assert parallel == serial
        finally:
            unregister_task("test-batch-bulky-cell")

    def test_run_campaign_batch_size_knob(self):
        tasks = _fig7_tasks(4)
        serial = run_campaign(tasks, jobs=1)
        batched = run_campaign(tasks, jobs=2, batch_size=2)
        assert batched.rows() == serial.rows()
        assert batched.telemetry.batches == 2


class TestTelemetryTiling:
    def test_phases_tile_each_task_wall_exactly(self):
        tasks = _fig7_tasks(4)
        _, telemetry = _collect(ProcessExecutor(2, batch_size=2), tasks)
        for entry in telemetry:
            covered = (
                entry.dispatch_s + entry.queue_wait_s + entry.compute_s + entry.transfer_s
            )
            assert covered == pytest.approx(entry.wall_s, abs=1e-9)
            assert entry.compute_s > 0.0
            assert entry.batch_size == 2

    def test_batch_overheads_amortise_evenly(self):
        """Batch-level dispatch/transfer split into equal per-task shares,
        and every phase stays non-negative (time is never minted)."""
        tasks = _fig7_tasks(4)
        _, telemetry = _collect(ProcessExecutor(2, batch_size=4), tasks)
        assert len({entry.batch_index for entry in telemetry}) == 1
        dispatch_shares = {round(entry.dispatch_s, 12) for entry in telemetry}
        transfer_shares = {round(entry.transfer_s, 12) for entry in telemetry}
        assert len(dispatch_shares) == 1 and len(transfer_shares) == 1
        for entry in telemetry:
            assert entry.dispatch_s >= 0.0
            assert entry.queue_wait_s >= 0.0
            assert entry.compute_s > 0.0
            assert entry.transfer_s >= 0.0

    def test_serial_tasks_are_their_own_batches(self):
        tasks = _fig7_tasks(2)
        _, telemetry = _collect(SerialExecutor(), tasks)
        assert [entry.batch_index for entry in telemetry] == [0, 1]
        assert all(entry.batch_size == 1 for entry in telemetry)


@pytest.mark.skipif("fork" not in START_METHODS, reason="fork start method required")
class TestCrashRecovery:
    """Satellite regression: a worker crash mid-sweep must leave the
    pool shut down, the stamp map drained, a reusable executor, and a
    store that resumes cleanly."""

    def test_worker_exception_propagates_and_store_resumes(self, tmp_path):
        flag = tmp_path / "explode"
        flag.write_text("armed")

        @register_task("test-batch-crash-cell")
        def _cell(params):
            if params["index"] == 7 and os.path.exists(params["flag"]):
                raise SimulationError("worker crash")
            return [{"index": params["index"], "value": params["index"] * 3}]

        spec = SweepSpec(
            kind="test-batch-crash-cell",
            base={"flag": str(flag)},
            grid={"index": list(range(8))},
        )
        store = ResultStore(tmp_path / "store")
        try:
            with pytest.raises(SimulationError, match="worker crash"):
                run_campaign(spec, store=store, jobs=2, batch_size=1)
            persisted = len(store)
            flag.unlink()  # disarm and resume
            resumed = run_campaign(spec, store=store, jobs=2, batch_size=1)
            assert resumed.cached == persisted
            assert resumed.executed == 8 - persisted
            assert [row["value"] for row in resumed.rows()] == [i * 3 for i in range(8)]
        finally:
            unregister_task("test-batch-crash-cell")

    def test_executor_reusable_after_abort(self):
        """An aborted run leaves the executor ready for a fresh run."""

        @register_task("test-batch-abort-cell")
        def _cell(params):
            if params["index"] == 0:
                raise SimulationError("first batch dies")
            return [{"index": params["index"], "value": params["index"] * 5}]

        tasks = [Task(kind="test-batch-abort-cell", params={"index": i}) for i in range(6)]
        executor = ProcessExecutor(2, batch_size=1, start_method="fork")
        try:
            with pytest.raises(SimulationError, match="first batch dies"):
                executor.run(tasks, lambda task, rows, telemetry: None)
            survivors = tasks[1:]
            results, _ = _collect(executor, survivors)
            assert results == {
                task.task_hash: [{"index": i, "value": i * 5}]
                for i, task in enumerate(survivors, start=1)
            }
        finally:
            unregister_task("test-batch-abort-cell")


@pytest.mark.skipif("fork" not in START_METHODS, reason="fork start method required")
@pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS is not controllable")
class TestWorkerBlasBudget:
    def test_workers_split_the_cores(self):
        @register_task("test-blas-threads-cell")
        def _cell(params):
            return [{"index": params["index"], "threads": blas_threads()}]

        spec = SweepSpec(kind="test-blas-threads-cell", grid={"index": list(range(4))})
        coordinator_threads = blas_threads()
        try:
            result = run_campaign(spec, jobs=2, batch_size=1)
        finally:
            unregister_task("test-blas-threads-cell")
        budget = max(1, (os.cpu_count() or 1) // 2)
        assert [row["threads"] for row in result.rows()] == [budget] * 4
        # The cap applies inside the workers only.
        assert blas_threads() == coordinator_threads
