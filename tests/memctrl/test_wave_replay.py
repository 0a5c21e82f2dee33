"""Wave-partitioned replay: conflicts, gap flushes, batch shapes.

The wave loop of :meth:`MemoryController._replay_waves` batches queued
writes targeting distinct rows into one ``encode_lines`` call, hopping
writes whose row has an earlier queued write.  These tests pin the
scheduling contracts the parity suite alone would not catch red-handed:
a wave never holds two writes to one row, every row sees its writes in
order, a wave never spans a Start-Gap migration, and the batches the
encoder sees follow exactly those rules.
"""

from typing import List

import numpy as np
import pytest

from repro.coding.registry import make_encoder
from repro.memctrl.controller import MemoryController
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.faultmap import FaultMap
from repro.pcm.wearlevel import StartGapWearLeveler
from repro.sim.harness import TechniqueSpec, build_controller
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace, WritebackRecord
from repro.utils.rng import make_rng

ROWS = 12


def _conflict_trace(addresses, seed=3):
    """A trace with a hand-picked address sequence and random payloads."""
    rng = make_rng(seed, "wave-conflicts")
    records = [
        WritebackRecord(
            address=int(address),
            words=tuple(int(w) for w in rng.integers(0, 2**62, size=8)),
        )
        for address in addresses
    ]
    return Trace(name="wave-conflicts", records=records, line_bits=512, word_bits=64)


def _controller(name="rcc", seed=3, **kwargs):
    return build_controller(
        TechniqueSpec(encoder=name, cost="saw-then-energy", num_cosets=16),
        rows=ROWS,
        fault_map=FaultMap(
            rows=ROWS, cells_per_row=256, technology=CellTechnology.MLC,
            fault_rate=2e-2, seed=seed,
        ),
        endurance_model=EnduranceModel(mean_writes=25, coefficient_of_variation=0.2),
        seed=seed,
        encrypt=True,
        **kwargs,
    )


def _drive_scalar(controller, trace, repetitions):
    results = []
    for _ in range(repetitions):
        for record in trace:
            results.append(controller.write_line(record.address, list(record.words)))
    return results


def assert_parity(scalar_results, replay):
    assert replay.writes == len(scalar_results)
    for index, line in enumerate(scalar_results):
        assert line.address == replay.addresses[index]
        assert line.row_index == replay.row_indices[index]
        assert line.data_energy_pj == replay.data_energy_pj[index]
        assert line.aux_energy_pj == replay.aux_energy_pj[index]
        assert line.cells_changed == replay.cells_changed[index]
        assert line.bits_changed == replay.bits_changed[index]
        assert line.saw_cells == replay.saw_cells[index]
        assert list(line.saw_bits_per_word) == list(replay.saw_bits_per_word[index])
        assert line.newly_stuck_cells == replay.newly_stuck_cells[index]


def _spy_batches(controller) -> List[int]:
    """Record the line count of every encode_lines call the replay makes."""
    batches: List[int] = []
    original = controller.encoder.encode_lines

    def spy(words_matrix, contexts):
        batches.append(len(contexts))
        return original(words_matrix, contexts)

    controller.encoder.encode_lines = spy
    return batches


def _spy_wave_applies(controller):
    """Record the rows and intended cells of every wave apply, in order."""
    applies = []
    original = controller.array.write_rows_fast

    def spy(rows, intended):
        applies.append((np.asarray(rows).tolist(), np.array(intended)))
        return original(rows, intended)

    controller.array.write_rows_fast = spy
    return applies


def _spy_row_writes(controller):
    """Map each row to the intended cells of its scalar writes, in order."""
    per_row = {}
    original = controller.array.write_row

    def spy(row, intended):
        per_row.setdefault(int(row), []).append(np.array(intended))
        return original(row, intended)

    controller.array.write_row = spy
    return per_row


class TestRowConflicts:
    def test_same_row_trace_parity(self):
        """Every write hits one row: waves must degrade to single writes."""
        trace = _conflict_trace([5] * 20)
        scalar = _drive_scalar(_controller(), trace, repetitions=2)
        replayed = _controller()
        batches = _spy_batches(replayed)
        replay = replayed.replay_trace(trace, repetitions=2)
        assert_parity(scalar, replay)
        assert batches and all(size == 1 for size in batches)

    def test_rewrite_heavy_trace_parity(self):
        """Adjacent rewrites and aliased addresses split waves correctly."""
        # 3 and 3 + ROWS alias to the same row; back-to-back repeats force
        # one-line waves in between longer runs.
        addresses = [0, 1, 2, 2, 3, 3 + ROWS, 4, 5, 4, 6, 7, 8, 9, 10, 11, 0, 0, 1]
        trace = _conflict_trace(addresses)
        scalar = _drive_scalar(_controller(), trace, repetitions=3)
        replay = _controller().replay_trace(trace, repetitions=3)
        assert_parity(scalar, replay)

    def test_wave_batches_respect_conflicts(self):
        addresses = [0, 1, 2, 3, 1, 4, 5, 6, 7, 8]
        trace = _conflict_trace(addresses)
        scalar = _controller()
        scalar_per_row = _spy_row_writes(scalar)
        _drive_scalar(scalar, trace, repetitions=1)
        controller = _controller()
        batches = _spy_batches(controller)
        applies = _spy_wave_applies(controller)
        controller.replay_trace(trace, repetitions=1)
        assert sum(batches) == len(addresses)
        # The first wave hops the repeated row 1 instead of ending before it.
        assert batches[0] > 4
        per_row = {}
        for rows, intended in applies:
            # A wave never holds two writes to one row ...
            assert len(set(rows)) == len(rows)
            for row, cells in zip(rows, intended):
                per_row.setdefault(row, []).append(cells)
        # ... and every row receives its writes in trace order.
        assert per_row.keys() == scalar_per_row.keys()
        for row, writes in scalar_per_row.items():
            assert len(per_row[row]) == len(writes)
            assert all(np.array_equal(a, b) for a, b in zip(per_row[row], writes))

    def test_distinct_rows_form_one_wave(self):
        addresses = list(range(ROWS))
        trace = _conflict_trace(addresses)
        controller = _controller()
        batches = _spy_batches(controller)
        controller.replay_trace(trace, repetitions=1)
        assert batches[0] == ROWS


class TestWearLevelingWaves:
    @pytest.mark.parametrize("name", ["rcc", "vcc", "bcc"])
    def test_gap_migration_flushes_wave(self, name):
        """With Start-Gap active, waves stop at every gap migration and the
        mapping evolves exactly as in the scalar sequence."""
        trace = generate_trace(
            "mcf", num_writebacks=18, memory_lines=ROWS, line_bits=512,
            word_bits=64, seed=9,
        )

        def build():
            leveler = StartGapWearLeveler(rows=ROWS, gap_write_interval=4)
            array = PCMArray(
                rows=leveler.physical_rows_required,
                row_bits=512,
                technology=CellTechnology.MLC,
                endurance_model=EnduranceModel(mean_writes=30, coefficient_of_variation=0.2),
                seed=11,
            )
            encoder = make_encoder(name, word_bits=64, num_cosets=16,
                                   technology=CellTechnology.MLC)
            return MemoryController(array=array, encoder=encoder, wear_leveler=leveler)

        first = build()
        scalar = _drive_scalar(first, trace, repetitions=3)
        second = build()
        batches = _spy_batches(second)
        replay = second.replay_trace(trace, repetitions=3)
        assert_parity(scalar, replay)
        assert first.wear_leveler.gap_moves == second.wear_leveler.gap_moves
        assert first.wear_leveler.mapping_snapshot() == second.wear_leveler.mapping_snapshot()
        # No wave may span a gap movement: with an interval of 4, batches
        # of more than 4 lines would have carried a migration mid-wave.
        assert batches and max(batches) <= 4

    def test_writes_until_gap_move_counts_down(self):
        leveler = StartGapWearLeveler(rows=4, gap_write_interval=3)
        assert leveler.writes_until_gap_move == 3
        leveler.record_write()
        assert leveler.writes_until_gap_move == 2
        leveler.record_write()
        assert leveler.record_write() is not None  # the move fires here
        assert leveler.writes_until_gap_move == 3


class TestFaultKnowledgeWaves:
    @pytest.mark.parametrize("fault_knowledge", ["oracle", "discovered", "none"])
    def test_coset_encoder_parity(self, fault_knowledge):
        trace = _conflict_trace([0, 1, 2, 3, 4, 2, 5, 6, 0, 7, 8, 9])

        def build():
            array = PCMArray(
                rows=ROWS,
                row_bits=512,
                technology=CellTechnology.MLC,
                fault_map=FaultMap(
                    rows=ROWS, cells_per_row=256, technology=CellTechnology.MLC,
                    fault_rate=2e-2, seed=5,
                ),
                seed=5,
            )
            encoder = make_encoder("rcc", word_bits=64, num_cosets=16,
                                   technology=CellTechnology.MLC)
            return MemoryController(array=array, encoder=encoder,
                                    fault_knowledge=fault_knowledge)

        scalar = _drive_scalar(build(), trace, repetitions=3)
        replay = build().replay_trace(trace, repetitions=3)
        assert_parity(scalar, replay)


class TestStopMidWave:
    def test_stop_inside_a_wave_leaves_exact_state(self):
        """Stopping at write k must not let the wave's later lines land."""
        addresses = list(range(ROWS))
        trace = _conflict_trace(addresses)
        cut = 5  # mid-wave: the first wave would cover all 12 rows
        scalar = _controller()
        for record in list(trace)[:cut]:
            scalar.write_line(record.address, list(record.words))
        replayed = _controller()
        replay = replayed.replay_trace(
            trace,
            repetitions=2,
            stop=lambda lo, rows, saw, bits: cut - 1 if lo <= cut - 1 < lo + len(rows) else None,
        )
        assert replay.writes == cut
        assert replay.stopped_early
        for record in trace:
            assert scalar.encryption.counter_for(record.address) == (
                replayed.encryption.counter_for(record.address)
            )
            assert scalar.read_line(record.address) == replayed.read_line(record.address)
        follow_up = trace[0]
        a = scalar.write_line(follow_up.address, list(follow_up.words))
        b = replayed.write_line(follow_up.address, list(follow_up.words))
        assert a == b

    def test_wave_cap_bounds_batches(self):
        addresses = list(range(ROWS))
        trace = _conflict_trace(addresses)
        controller = _controller()
        controller.replay_wave_lines = 3
        batches = _spy_batches(controller)
        replay = controller.replay_trace(trace, repetitions=2)
        assert replay.writes == 2 * ROWS
        assert batches and max(batches) <= 3
        scalar = _drive_scalar(_controller(), trace, repetitions=2)
        assert_parity(scalar, replay)


class TestBatchedArrayHelpers:
    def test_read_rows_matches_read_row(self):
        array = PCMArray(rows=6, row_bits=512, technology=CellTechnology.MLC, seed=1)
        rows = np.array([4, 0, 2])
        gathered = array.read_rows(rows)
        for position, row in enumerate(rows):
            assert np.array_equal(gathered[position], array.read_row(int(row)))
        with pytest.raises(Exception):
            array.read_rows(np.array([0, 6]))

    def test_write_rows_fast_matches_sequential(self):
        def build():
            return PCMArray(
                rows=6, row_bits=512, technology=CellTechnology.MLC,
                endurance_model=EnduranceModel(mean_writes=3, coefficient_of_variation=0.3),
                seed=2,
            )

        rng = make_rng(3, "write-rows")
        rows = np.array([5, 1, 3])
        intended = rng.integers(0, 4, size=(3, 256)).astype(np.uint8)
        sequential = build()
        expected = [sequential.write_row_fast(int(row), intended[k]) for k, row in enumerate(rows)]
        batched_array = build()
        old, stored, changed, saw, newly = batched_array.write_rows_fast(rows, intended)
        for k, (e_old, e_stored, e_changed, e_saw, e_newly) in enumerate(expected):
            assert np.array_equal(old[k], e_old)
            assert np.array_equal(stored[k], e_stored)
            assert np.array_equal(changed[k], e_changed)
            assert np.array_equal(saw[k], e_saw)
            assert newly[k] == e_newly
        assert np.array_equal(batched_array._cells, sequential._cells)
        assert np.array_equal(batched_array._stuck, sequential._stuck)
        assert np.array_equal(batched_array._wear, sequential._wear)
