"""Hopping waves and exact rollback: replay_trace against the write_line oracle.

The wave loop applies writes out of index order (a write hops ahead of an
earlier write to another row) and an early stop undoes every applied write
past the stop point from its wave's snapshot.  These property tests drive
conflict-heavy, aliased address sequences with a stop rule that fires at a
random write, and check that the replay's per-write accounting and the
whole controller state afterwards — array cells, stuck masks and wear,
auxiliary bits, encryption counters, sense counts, discovered faults and
Start-Gap mapping — equal the scalar ``write_line`` sequence of the same
writes, including the outcome of one more write.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.coding.registry import make_encoder
from repro.errors import ConfigurationError
from repro.faults.registry import make_fault_model
from repro.memctrl.controller import MemoryController, ReplayResult
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.faultmap import FaultMap
from repro.pcm.wearlevel import StartGapWearLeveler
from repro.sim.harness import make_cost
from repro.traces.trace import Trace, WritebackRecord
from repro.utils.rng import make_rng

ROWS = 6
ENCODERS = ("unencoded", "rcc", "vcc", "dbi/fnw")
TECHNOLOGIES = (CellTechnology.MLC, CellTechnology.SLC)
REPLAY_ARRAYS = (
    "addresses",
    "row_indices",
    "data_energy_pj",
    "aux_energy_pj",
    "cells_changed",
    "bits_changed",
    "saw_cells",
    "saw_bits_per_word",
    "newly_stuck_cells",
)


@dataclass(frozen=True)
class Case:
    addresses: List[int]
    repetitions: int
    stop_at: Optional[int]
    wave_lines: int
    gap_interval: Optional[int]
    knowledge: str
    transient: bool
    seed: int


@st.composite
def _cases(draw):
    length = draw(st.integers(1, 36))
    # Addresses over three aliases of a few rows: repeats, back-to-back
    # rewrites and aliased rows make conflicts (and hops) the common case.
    addresses = draw(
        st.lists(st.integers(0, 3 * ROWS - 1), min_size=length, max_size=length)
    )
    repetitions = draw(st.integers(1, 2))
    # Past the end of the replay the rule never fires.
    stop_at = draw(st.one_of(st.none(), st.integers(0, length * repetitions + 3)))
    return Case(
        addresses=addresses,
        repetitions=repetitions,
        stop_at=stop_at,
        wave_lines=draw(st.sampled_from([1, 2, 3, 5, 32])),
        gap_interval=draw(st.one_of(st.none(), st.integers(2, 7))),
        knowledge=draw(st.sampled_from(["oracle", "discovered", "none"])),
        transient=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def _trace(case: Case) -> Trace:
    rng = make_rng(case.seed, "rollback-payloads")
    records = [
        WritebackRecord(
            address=address, words=tuple(int(w) for w in rng.integers(0, 2**63, size=8))
        )
        for address in case.addresses
    ]
    return Trace(name="rollback", records=records, line_bits=512, word_bits=64)


def _controller(name: str, technology: CellTechnology, case: Case) -> MemoryController:
    leveler = (
        None
        if case.gap_interval is None
        else StartGapWearLeveler(rows=ROWS, gap_write_interval=case.gap_interval)
    )
    rows = ROWS if leveler is None else leveler.physical_rows_required
    fault_model = make_fault_model("transient", rate=0.02) if case.transient else None
    array = PCMArray(
        rows=rows,
        row_bits=512,
        technology=technology,
        fault_map=FaultMap(
            rows=rows,
            cells_per_row=512 // technology.bits_per_cell,
            technology=technology,
            fault_rate=2e-2,
            seed=case.seed,
        ),
        # A few state changes wear a cell out, so cells stick mid-replay.
        endurance_model=EnduranceModel(mean_writes=4, coefficient_of_variation=0.3),
        seed=case.seed,
        fault_model=fault_model,
    )
    encoder = make_encoder(
        name,
        word_bits=64,
        num_cosets=16,
        technology=technology,
        cost_function=make_cost("saw-then-energy", technology),
        seed=case.seed,
    )
    controller = MemoryController(
        array=array,
        encoder=encoder,
        fault_knowledge=case.knowledge,
        wear_leveler=leveler,
        fault_model=fault_model,
    )
    controller.replay_wave_lines = case.wave_lines
    return controller


def _stop_at(last: Optional[int], blocks: list):
    """Stop rule ending the replay after write ``last``; records its blocks."""

    def stop(lo, rows, saw, bits):
        blocks.append((lo, len(rows)))
        if last is not None and lo <= last < lo + len(rows):
            return last
        return None

    return stop


def assert_same_controller_state(scalar: MemoryController, replayed: MemoryController, trace):
    assert np.array_equal(scalar.array._cells, replayed.array._cells)
    assert np.array_equal(scalar.array._stuck, replayed.array._stuck)
    assert np.array_equal(scalar.array._wear, replayed.array._wear)
    assert np.array_equal(scalar._aux_store, replayed._aux_store)
    for record in trace:
        assert scalar.encryption.counter_for(record.address) == (
            replayed.encryption.counter_for(record.address)
        )
    if scalar._sense_counts is None:
        assert replayed._sense_counts is None
    else:
        assert np.array_equal(scalar._sense_counts, replayed._sense_counts)
    if scalar.fault_repository is None:
        assert replayed.fault_repository is None
    else:
        assert scalar.fault_repository._known == replayed.fault_repository._known
    if scalar.wear_leveler is not None:
        assert scalar.wear_leveler.gap_moves == replayed.wear_leveler.gap_moves
        assert scalar.wear_leveler.gap_position == replayed.wear_leveler.gap_position
        assert scalar.wear_leveler.mapping_snapshot() == (
            replayed.wear_leveler.mapping_snapshot()
        )
        assert scalar.wear_leveler.writes_until_gap_move == (
            replayed.wear_leveler.writes_until_gap_move
        )
    scalar_stats = scalar.stats.as_dict()
    for key, value in replayed.stats.as_dict().items():
        if isinstance(value, int):
            assert value == scalar_stats[key], key


def _check_against_scalar(name: str, technology: CellTechnology, case: Case) -> None:
    trace = _trace(case)
    total = len(trace) * case.repetitions
    performed = total if case.stop_at is None else min(case.stop_at + 1, total)

    scalar = _controller(name, technology, case)
    scalar_results = [
        scalar.write_line(trace[index % len(trace)].address, list(trace[index % len(trace)].words))
        for index in range(performed)
    ]

    replayed = _controller(name, technology, case)
    blocks: list = []
    replay = replayed.replay_trace(
        trace, repetitions=case.repetitions, stop=_stop_at(case.stop_at, blocks)
    )

    # The stop rule saw contiguous blocks, in order, up to the stop point.
    assert blocks and blocks[0][0] == 0
    for (lo, size), (next_lo, _) in zip(blocks, blocks[1:]):
        assert size > 0 and next_lo == lo + size
    assert replay.writes == performed
    # The rule firing marks the replay stopped, even on its last write.
    assert replay.stopped_early == (case.stop_at is not None and case.stop_at < total)

    expected = ReplayResult.empty(performed, replayed.config.words_per_line)
    for index, line in enumerate(scalar_results):
        expected.addresses[index] = line.address
        expected.row_indices[index] = line.row_index
        expected.data_energy_pj[index] = line.data_energy_pj
        expected.aux_energy_pj[index] = line.aux_energy_pj
        expected.cells_changed[index] = line.cells_changed
        expected.bits_changed[index] = line.bits_changed
        expected.saw_cells[index] = line.saw_cells
        expected.saw_bits_per_word[index] = line.saw_bits_per_word
        expected.newly_stuck_cells[index] = line.newly_stuck_cells
    for field_name in REPLAY_ARRAYS:
        assert np.array_equal(getattr(replay, field_name), getattr(expected, field_name)), (
            field_name
        )

    assert_same_controller_state(scalar, replayed, trace)
    follow_up = trace[-1]
    assert scalar.write_line(follow_up.address, list(follow_up.words)) == (
        replayed.write_line(follow_up.address, list(follow_up.words))
    )
    assert_same_controller_state(scalar, replayed, trace)


class TestHopAndRollbackParity:
    @pytest.mark.parametrize("technology", TECHNOLOGIES, ids=lambda t: t.value)
    @pytest.mark.parametrize("name", ENCODERS)
    @settings(max_examples=25, deadline=None)
    @given(case=_cases())
    def test_replay_matches_write_line(self, name, technology, case):
        _check_against_scalar(name, technology, case)

    @pytest.mark.parametrize("name", ENCODERS)
    def test_stop_mid_hop_rolls_back_hopped_writes(self, name):
        """Row 1's second write waits while later rows are applied; a stop
        right after the first write must undo every hopped-ahead write."""
        case = Case(
            addresses=[1, 1, 2, 3, 4, 5, 0, 1],
            repetitions=2,
            stop_at=0,
            wave_lines=32,
            gap_interval=None,
            knowledge="discovered",
            transient=True,
            seed=5,
        )
        for technology in TECHNOLOGIES:
            _check_against_scalar(name, technology, case)


class TestHopWindow:
    @pytest.mark.parametrize("stop_at", [6, 9, 11])
    def test_writes_past_a_stop_stay_within_one_window(self, stop_at):
        """A run of writes to one row holds the frontier back, one write
        per wave; later writes hop ahead of it only inside the 2W-write
        scan window, so a stop rolls back fewer than 2W applied writes."""
        wave_lines = 4
        case = Case(
            addresses=[0] * 12 + [1, 2, 3, 4, 5] * 6,
            repetitions=1,
            stop_at=stop_at,
            wave_lines=wave_lines,
            gap_interval=None,
            knowledge="discovered",
            transient=False,
            seed=8,
        )
        counter = obs.counter("replay.rolled_back_writes")
        before = counter.value
        _check_against_scalar("rcc", CellTechnology.MLC, case)
        assert 0 < counter.value - before < 2 * wave_lines


class TestStopContract:
    def _replay(self, stop, wave_lines=32):
        case = Case(
            addresses=[0, 1, 0, 2, 3, 0, 4, 5],
            repetitions=3,
            stop_at=None,
            wave_lines=wave_lines,
            gap_interval=None,
            knowledge="oracle",
            transient=False,
            seed=2,
        )
        controller = _controller("rcc", CellTechnology.MLC, case)
        return controller.replay_trace(_trace(case), repetitions=case.repetitions, stop=stop)

    def test_blocks_tile_the_replay_and_carry_its_accounting(self):
        seen = []

        def record(lo, rows, saw, bits):
            seen.append((lo, rows.copy(), saw.copy(), bits.copy()))
            return None

        replay = self._replay(record)
        assert sum(len(rows) for _, rows, _, _ in seen) == replay.writes == 24
        for lo, rows, saw, bits in seen:
            assert np.array_equal(rows, replay.row_indices[lo: lo + len(rows)])
            assert np.array_equal(saw, replay.saw_cells[lo: lo + len(rows)])
            assert np.array_equal(bits, replay.saw_bits_per_word[lo: lo + len(rows)])

    @pytest.mark.parametrize("verdict", [-1, 10**6])
    def test_verdict_outside_the_block_is_rejected(self, verdict):
        with pytest.raises(ConfigurationError, match="outside the committed block"):
            self._replay(lambda lo, rows, saw, bits: verdict)

    def test_result_arrays_grow_with_the_chunks(self, monkeypatch):
        """A replay that stops early allocates for the chunks it ran, not
        for its max_writes cap."""
        capacities = []
        original = ReplayResult.empty.__func__

        def spy(cls, capacity, words_per_line):
            capacities.append(capacity)
            return original(cls, capacity, words_per_line)

        monkeypatch.setattr(ReplayResult, "empty", classmethod(spy))
        case = Case(
            addresses=list(range(ROWS)),
            repetitions=1,
            stop_at=None,
            wave_lines=32,
            gap_interval=None,
            knowledge="oracle",
            transient=False,
            seed=3,
        )
        controller = _controller("unencoded", CellTechnology.MLC, case)
        replay = controller.replay_trace(
            _trace(case),
            repetitions=40_000,
            max_writes=200_000,
            stop=lambda lo, rows, saw, bits: 700 if lo <= 700 < lo + len(rows) else None,
        )
        assert replay.writes == 701
        assert max(capacities) <= 1536
