"""The memory controller: encrypt, encode, write, and the inverse read path.

The controller owns the per-line write counters (via the counter-mode
engine), the per-word auxiliary bits produced by the encoder, and the
accounting of write energy / bit changes / stuck-at-wrong cells.  It is the
single integration point the simulators drive — either one
:meth:`MemoryController.write_line` call per trace record, a whole
trace at once through the batched :meth:`MemoryController.replay_trace`
engine, or a stream of uniformly random lines through
:meth:`MemoryController.write_random_lines` (both batched drivers share
the same internals: bit-identical accounting, per-write results
accumulated into the arrays of a :class:`ReplayResult`).

The write path is line-granular end to end: each write issues a single
:meth:`repro.coding.base.Encoder.encode_line` call (the encoder's
``encode_lines`` kernel on one line), auxiliary bits live in a preallocated
``(rows, words_per_line)`` array, and the energy / SAW accounting is
computed with NumPy over the whole row.

The batched drivers go one level further with one wave loop
(:meth:`MemoryController._replay_waves`).  Each wave takes queued writes
whose row has no earlier queued write — hopping past row conflicts —
gathers their rows in one :meth:`repro.pcm.array.PCMArray.read_rows`
call, encodes every line through a single
:meth:`repro.coding.base.Encoder.encode_lines` call, applies them with one
:meth:`repro.pcm.array.PCMArray.write_rows_fast` and flushes their
accounting with row-wise NumPy reductions.  Per-row order is the only true
dependency between writes, so all of it is bit-identical to the scalar
:meth:`MemoryController.write_line` sequence; an early stop undoes the
writes applied past it from the snapshots their waves gathered (see
DESIGN.md, "Replay schedule").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # runtime import would be circular via repro.traces
    from repro.faults.models import FaultModel
    from repro.traces.trace import Trace

import numpy as np

import repro.obs as obs
from repro.coding.base import (
    EncodedLine,
    Encoder,
    LineContext,
    cells_matrix_to_words,
    words_matrix_to_cells,
)
from repro.crypto.counter_mode import CounterModeEngine
from repro.ecc.base import ErrorCorrector
from repro.errors import ConfigurationError, MemoryModelError
from repro.memctrl.config import ControllerConfig
from repro.pcm.array import PCMArray, RowSnapshot
from repro.pcm.cell import CellTechnology
from repro.pcm.energy import DEFAULT_MLC_ENERGY, DEFAULT_SLC_ENERGY, MLCEnergyModel, SLCEnergyModel
from repro.pcm.faultrepo import FaultRepository
from repro.pcm.stats import WriteStats
from repro.pcm.wearlevel import StartGapWearLeveler
from repro.utils.bitops import popcount64_array, random_word
from repro.utils.rng import derive_seed, make_rng

__all__ = ["LineWriteResult", "ReplayResult", "MemoryController"]

#: Accepted values for the controller's ``fault_knowledge`` parameter.
FAULT_KNOWLEDGE_MODES = ("oracle", "discovered", "none")

#: Default cap on the lines encoded per replay wave.  Bounds the candidate
#: tensors of wide searches (RCC-256 evaluates candidates × words × cells
#: floats per line) while keeping enough lines in flight to amortise the
#: per-call overhead of the batched encode kernels.
REPLAY_WAVE_LINES = 32

#: Early-stop rule for :meth:`MemoryController.replay_trace`.  The replay
#: calls it once per newly committed contiguous block of writes ``[lo, hi)``
#: as ``stop(lo, row_indices, saw_cells, saw_bits_per_word)``, the arrays
#: holding the block's per-write accounting in index order.  It returns the
#: global index of the write after which the replay ends (one inside the
#: block), or ``None`` to go on.  Blocks arrive in order and tile the replay.
ReplayStop = Callable[[int, np.ndarray, np.ndarray, np.ndarray], Optional[int]]

# Replay-engine telemetry.  Metric updates happen at wave/chunk (never
# per-write) granularity; bench_obs_overhead.py swaps these handles for
# null stand-ins to prove the whole layer costs <2% when tracing is off.
_OBS_WAVES = obs.counter("replay.waves", "encode waves executed by the replay wave loop")
_OBS_WAVE_LINES = obs.histogram("replay.wave_lines", "lines encoded per replay wave")
_OBS_CONFLICT_CUTS = obs.counter(
    "replay.conflict_cuts",
    "waves held below the line cap because writes in their scan window "
    "waited on an earlier write to the same row",
)
_OBS_GAP_FLUSHES = obs.counter(
    "replay.gap_flushes",
    "waves held below the line cap because their scan window ended at "
    "the next Start-Gap gap move",
)
_OBS_IDENTITY_CHUNKS = obs.counter(
    "replay.identity_chunks",
    "replay chunks whose waves skipped the encode (identity encoder)",
)
_OBS_SCALAR_FALLBACKS = obs.counter(
    "replay.scalar_fallbacks", "chunk ranges replayed by the scalar (odd-width) fallback"
)
_OBS_EARLY_STOPS = obs.counter(
    "replay.early_stops", "replays ended early by the stop rule"
)
_OBS_EARLY_STOP_INDEX = obs.gauge(
    "replay.early_stop_index", "write index at which the latest replay stopped early"
)
_OBS_ROLLED_BACK = obs.counter(
    "replay.rolled_back_writes",
    "applied writes past an early stop undone from their wave snapshots",
)
_OBS_TRANSIENT_FLIPS = obs.counter(
    "faults.transient_flips", "cells sensed wrongly by the transient fault model"
)
_OBS_TRANSIENT_CORRECTED = obs.counter(
    "faults.transient_corrected", "sensed reads fully repaired by the ECC read path"
)
_OBS_TRANSIENT_ESCAPED = obs.counter(
    "faults.transient_escaped", "sensed reads whose flips escaped ECC into the encoder"
)
_OBS_SPAN = obs.span


@dataclass(frozen=True)
class LineWriteResult:
    """Accounting for one cache-line write.

    Attributes
    ----------
    address:
        Line address written.
    row_index:
        Array row the line mapped to.
    data_energy_pj / aux_energy_pj:
        Write energy spent on the data cells and on the auxiliary bits.
    cells_changed / bits_changed:
        How many cells (and bits) actually changed state in the array.
    saw_cells:
        Stuck-at-wrong cells left after encoding (cells whose stored value
        differs from the intended codeword value).
    saw_bits_per_word:
        Per-word count of wrong *bits*, used by the ECC substrates to judge
        whether the row is still recoverable.
    newly_stuck_cells:
        Cells that exceeded their endurance during this write.
    """

    address: int
    row_index: int
    data_energy_pj: float
    aux_energy_pj: float
    cells_changed: int
    bits_changed: int
    saw_cells: int
    saw_bits_per_word: Tuple[int, ...]
    newly_stuck_cells: int

    @property
    def total_energy_pj(self) -> float:
        """Total energy of the line write including auxiliary bits."""
        return self.data_energy_pj + self.aux_energy_pj


@dataclass
class ReplayResult:
    """Per-write accounting of one :meth:`MemoryController.replay_trace` call.

    Each attribute is an array with one entry per performed write, in
    replay order; every value is bit-identical to what the
    corresponding :class:`LineWriteResult` of a scalar
    :meth:`MemoryController.write_line` sequence would carry.

    Attributes
    ----------
    addresses / row_indices:
        Line address written and the physical row it mapped to.
    data_energy_pj / aux_energy_pj:
        Write energy spent on the data cells and the auxiliary bits.
    cells_changed / bits_changed:
        Cells (and bits) that actually changed state in the array.
    saw_cells:
        Stuck-at-wrong cells left by each write.
    saw_bits_per_word:
        ``(writes, words_per_line)`` matrix of residual wrong bits per word.
    newly_stuck_cells:
        Cells that exceeded their endurance during each write.
    writes:
        Number of writes performed (the common length of the arrays).
    stopped_early:
        True when the ``stop`` rule ended the replay before the
        requested repetitions (or ``max_writes``) were exhausted.
    """

    addresses: np.ndarray
    row_indices: np.ndarray
    data_energy_pj: np.ndarray
    aux_energy_pj: np.ndarray
    cells_changed: np.ndarray
    bits_changed: np.ndarray
    saw_cells: np.ndarray
    saw_bits_per_word: np.ndarray
    newly_stuck_cells: np.ndarray
    words_per_line: int
    writes: int = 0
    stopped_early: bool = False

    # ------------------------------------------------------- aggregation
    def total_energy_pj(self) -> float:
        """Total write energy of the replay including auxiliary bits."""
        return float(self.data_energy_pj.sum() + self.aux_energy_pj.sum())

    def saw_words(self) -> int:
        """Number of written words left with at least one wrong bit."""
        return int(np.count_nonzero(self.saw_bits_per_word))

    def write_stats(self) -> WriteStats:
        """Aggregate the replay into a :class:`repro.pcm.stats.WriteStats`.

        Integer counters match :meth:`WriteStats.from_line_results` over
        :meth:`line_results` exactly; the float energy totals are computed
        with vectorised sums (same values up to floating-point summation
        order).
        """
        return WriteStats(
            words_written=self.writes * self.words_per_line,
            rows_written=self.writes,
            bits_changed=int(self.bits_changed.sum()),
            cells_changed=int(self.cells_changed.sum()),
            data_energy_pj=float(self.data_energy_pj.sum()),
            aux_energy_pj=float(self.aux_energy_pj.sum()),
            saw_cells=int(self.saw_cells.sum()),
            saw_words=self.saw_words(),
        )

    # ------------------------------------------------------ scalar views
    def line_result(self, index: int) -> LineWriteResult:
        """The :class:`LineWriteResult` view of one write of the replay."""
        if not 0 <= index < self.writes:
            raise MemoryModelError(f"write index {index} out of range [0, {self.writes})")
        return LineWriteResult(
            address=int(self.addresses[index]),
            row_index=int(self.row_indices[index]),
            data_energy_pj=float(self.data_energy_pj[index]),
            aux_energy_pj=float(self.aux_energy_pj[index]),
            cells_changed=int(self.cells_changed[index]),
            bits_changed=int(self.bits_changed[index]),
            saw_cells=int(self.saw_cells[index]),
            saw_bits_per_word=tuple(int(b) for b in self.saw_bits_per_word[index]),
            newly_stuck_cells=int(self.newly_stuck_cells[index]),
        )

    def line_results(self) -> List[LineWriteResult]:
        """All writes as scalar :class:`LineWriteResult` objects (slow path)."""
        return [self.line_result(index) for index in range(self.writes)]

    @classmethod
    def empty(cls, capacity: int, words_per_line: int) -> "ReplayResult":
        """Allocate zeroed accounting arrays for up to ``capacity`` writes."""
        return cls(
            addresses=np.zeros(capacity, dtype=np.int64),
            row_indices=np.zeros(capacity, dtype=np.int64),
            data_energy_pj=np.zeros(capacity, dtype=np.float64),
            aux_energy_pj=np.zeros(capacity, dtype=np.float64),
            cells_changed=np.zeros(capacity, dtype=np.int64),
            bits_changed=np.zeros(capacity, dtype=np.int64),
            saw_cells=np.zeros(capacity, dtype=np.int64),
            saw_bits_per_word=np.zeros((capacity, words_per_line), dtype=np.int64),
            newly_stuck_cells=np.zeros(capacity, dtype=np.int64),
            words_per_line=words_per_line,
        )

    def _reserve(self, needed: int, limit: int) -> None:
        """Grow the arrays to hold ``needed`` writes, at most ``limit``.

        Capacity at least doubles on each growth, so a replay pays for
        arrays sized by the chunks it actually ran (a lifetime cell that
        stops after a few hundred of its 200k allowed writes allocates
        ~1.5k rows), at an amortised one copy per write.
        """
        capacity = len(self.addresses)
        if needed <= capacity:
            return
        grown = ReplayResult.empty(min(limit, max(needed, 2 * capacity)), self.words_per_line)
        for name in _REPLAY_ARRAYS:
            getattr(grown, name)[:capacity] = getattr(self, name)
            setattr(self, name, getattr(grown, name))

    def _trim(self, writes: int, stopped_early: bool) -> "ReplayResult":
        """Shrink every array down to the writes actually performed.

        A copy (not a view) when capacity was left over, so the result
        does not pin the larger arrays in memory.
        """
        if writes < len(self.addresses):
            for name in _REPLAY_ARRAYS:
                setattr(self, name, getattr(self, name)[:writes].copy())
        self.writes = writes
        self.stopped_early = stopped_early
        return self


#: The per-write array attributes of :class:`ReplayResult`.
_REPLAY_ARRAYS = (
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


def _ask_stop(
    stop: Optional[ReplayStop], replay: ReplayResult, lo: int, hi: int
) -> Optional[int]:
    """Show the committed block ``[lo, hi)`` to ``stop``; its verdict or None."""
    if stop is None:
        return None
    verdict = stop(
        lo, replay.row_indices[lo:hi], replay.saw_cells[lo:hi], replay.saw_bits_per_word[lo:hi]
    )
    if verdict is None:
        return None
    if not lo <= verdict < hi:
        raise ConfigurationError(
            f"stop rule returned write {verdict} outside the committed block [{lo}, {hi})"
        )
    return int(verdict)


@dataclass
class _WaveUndo:
    """What one applied replay wave overwrote, kept until its writes commit.

    ``indices`` (ascending global write indices) and ``rows`` name the
    wave's writes; the other fields hold each row's state from before the
    wave: the array's cells/stuck/wear, the auxiliary bits, the sense
    count, and — for rows whose write reported mismatching cells — the
    fault repository's table.
    """

    indices: np.ndarray
    rows: np.ndarray
    array_rows: RowSnapshot
    auxes: np.ndarray
    sense_counts: Optional[np.ndarray]
    faults: Dict[int, Optional[Dict[int, int]]] = field(default_factory=dict)


class MemoryController:
    """Drives the encrypt -> encode -> write pipeline against a PCM array.

    Parameters
    ----------
    array:
        Target :class:`repro.pcm.array.PCMArray`.
    encoder:
        Word-level encoding technique (any :class:`repro.coding.base.Encoder`).
    config:
        Line/word geometry and whether encryption is enabled.
    encryption:
        Counter-mode engine; created on demand when ``config.encrypt`` and
        none is supplied.
    mlc_energy / slc_energy:
        Energy models used for *accounting* the writes that actually happen
        (independent of whatever cost function the encoder optimises).
    use_fault_context:
        Backwards-compatible switch: ``False`` is equivalent to
        ``fault_knowledge="none"``.
    fault_knowledge:
        How the encoder learns about stuck cells: ``"oracle"`` (the array's
        ground truth, the paper's assumption of an ideal fault repository),
        ``"discovered"`` (a :class:`repro.pcm.faultrepo.FaultRepository`
        populated by write-verify mismatches), or ``"none"``.
    wear_leveler:
        Optional Start-Gap wear leveler.  When present, line addresses are
        first mapped to logical rows and then rotated onto physical rows;
        the array must provide ``wear_leveler.physical_rows_required`` rows.
    fault_model:
        Optional :class:`repro.faults.models.FaultModel` whose *sensing*
        effects attach here: a model with a nonzero ``read_flip_rate``
        (e.g. ``transient``) perturbs the old-row view the encoder sees on
        each read-before-write.  Energy/bit accounting always uses the
        true array state — only the encoder's context is perturbed.
    read_corrector:
        Optional :class:`repro.ecc.base.ErrorCorrector` adjudicating
        sensed reads: flips within its budget are repaired before the
        encoder observes them, the rest escape into the line context.
    """

    def __init__(
        self,
        array: PCMArray,
        encoder: Encoder,
        config: Optional[ControllerConfig] = None,
        encryption: Optional[CounterModeEngine] = None,
        mlc_energy: MLCEnergyModel = DEFAULT_MLC_ENERGY,
        slc_energy: SLCEnergyModel = DEFAULT_SLC_ENERGY,
        use_fault_context: bool = True,
        fault_knowledge: Optional[str] = None,
        wear_leveler: Optional[StartGapWearLeveler] = None,
        fault_model: Optional["FaultModel"] = None,
        read_corrector: Optional[ErrorCorrector] = None,
    ):
        self.config = config or ControllerConfig()
        if array.word_bits != self.config.word_bits:
            raise ConfigurationError("array word size does not match controller config")
        if array.row_bits != self.config.line_bits:
            raise ConfigurationError(
                "controller assumes one cache line per array row "
                f"(line {self.config.line_bits} bits vs row {array.row_bits} bits)"
            )
        if encoder.word_bits != self.config.word_bits:
            raise ConfigurationError("encoder word size does not match controller config")
        if encoder.technology is not array.technology:
            raise ConfigurationError("encoder and array cell technologies differ")
        self.array = array
        self.encoder = encoder
        self.mlc_energy = mlc_energy
        self.slc_energy = slc_energy
        if fault_knowledge is None:
            fault_knowledge = "oracle" if use_fault_context else "none"
        if fault_knowledge not in FAULT_KNOWLEDGE_MODES:
            raise ConfigurationError(
                f"fault_knowledge must be one of {FAULT_KNOWLEDGE_MODES}, got {fault_knowledge!r}"
            )
        self.fault_knowledge = fault_knowledge
        self.use_fault_context = fault_knowledge != "none"
        self.fault_repository = (
            FaultRepository(array.rows, array.cells_per_row)
            if fault_knowledge == "discovered"
            else None
        )
        self.wear_leveler = wear_leveler
        if wear_leveler is not None and array.rows < wear_leveler.physical_rows_required:
            raise ConfigurationError(
                "the array must provide at least "
                f"{wear_leveler.physical_rows_required} rows for Start-Gap "
                f"wear leveling, got {array.rows}"
            )
        if self.config.encrypt:
            self.encryption = encryption or CounterModeEngine(
                line_bits=self.config.line_bits, word_bits=self.config.word_bits
            )
        else:
            self.encryption = None
        self.stats = WriteStats()
        # Auxiliary bits stored per (row, word); modelled as living in a
        # dedicated side region (the SECDED-budget bits of Section V).
        # Techniques with >= 64 auxiliary bits per word don't fit int64 and
        # fall back to Python ints in an object array.
        self._wide_aux = encoder.aux_bits >= 64
        if self._wide_aux:
            self._aux_store = np.zeros(
                (array.rows, self.config.words_per_line), dtype=object
            )
        else:
            self._aux_store = np.zeros(
                (array.rows, self.config.words_per_line), dtype=np.int64
            )
        self._bit_popcount = np.array([0, 1, 1, 2], dtype=np.int64)
        self._energy_lut = (
            self.mlc_energy.lut()
            if array.technology is CellTechnology.MLC
            else np.array(
                [
                    [0.0, self.slc_energy.set_energy_pj],
                    [self.slc_energy.reset_energy_pj, 0.0],
                ]
            )
        )
        self._aux_bit_energy = (
            self.mlc_energy.aux_bit_energy_pj
            if array.technology is CellTechnology.MLC
            else self.slc_energy.aux_bit_energy_pj
        )
        #: Cap on the lines encoded per replay wave (see REPLAY_WAVE_LINES);
        #: exposed as an attribute so studies with huge candidate sets can
        #: trade peak memory against batching.
        self.replay_wave_lines = REPLAY_WAVE_LINES
        self.fault_model = fault_model
        self.read_corrector = read_corrector
        self._read_flip_rate = float(fault_model.read_flip_rate) if fault_model else 0.0
        if self._read_flip_rate > 0.0:
            # Sensed-read bookkeeping: one seeded stream per (row, nth read
            # of that row), so scalar replays and wave gathers perturb the
            # same reads identically regardless of batching.
            self._sense_seed: Optional[int] = derive_seed(
                array.seed if array.seed is not None else 0, "transient-sense"
            )
            self._sense_counts: Optional[np.ndarray] = np.zeros(array.rows, dtype=np.int64)
        else:
            self._sense_seed = None
            self._sense_counts = None

    # ------------------------------------------------------------- mapping
    def row_for_address(self, address: int) -> int:
        """Map a line address onto a physical array row.

        Without wear leveling this is a direct modulo mapping; with
        Start-Gap enabled the logical row is additionally rotated onto its
        current physical position.
        """
        if address < 0:
            raise MemoryModelError("addresses must be non-negative")
        if self.wear_leveler is None:
            return address % self.array.rows
        logical = address % self.wear_leveler.rows
        return self.wear_leveler.physical_row(logical)

    # --------------------------------------------------------------- write
    def write_line(self, address: int, plaintext_words: Sequence[int]) -> LineWriteResult:
        """Encrypt, encode, and write one cache line."""
        if address < 0:
            raise MemoryModelError("addresses must be non-negative")
        words = list(plaintext_words)
        if len(words) != self.config.words_per_line:
            raise ConfigurationError(
                f"expected {self.config.words_per_line} words per line, got {len(words)}"
            )
        if self.encryption is not None:
            encrypted = list(self.encryption.encrypt_line(address, words).words)
        else:
            encrypted = [int(w) for w in words]

        (
            row_index,
            data_energy,
            aux_energy,
            cells_changed,
            bits_changed,
            saw_count,
            saw_bits,
            newly_stuck,
        ) = self._apply_line_write(address, encrypted)

        line_result = LineWriteResult(
            address=address,
            row_index=row_index,
            data_energy_pj=data_energy,
            aux_energy_pj=aux_energy,
            cells_changed=cells_changed,
            bits_changed=bits_changed,
            saw_cells=saw_count,
            saw_bits_per_word=tuple(int(count) for count in saw_bits),
            newly_stuck_cells=newly_stuck,
        )
        self._accumulate(line_result)
        return line_result

    def _apply_line_write(self, address: int, encrypted: Sequence[int]):
        """Encode and store one already-encrypted line; return raw accounting.

        The shared core of :meth:`write_line` and the generic path of
        :meth:`replay_trace`: both produce bit-identical accounting because
        both run exactly this code.  Returns the tuple ``(row_index,
        data_energy_pj, aux_energy_pj, cells_changed, bits_changed,
        saw_cells, saw_bits_per_word, newly_stuck)`` with
        ``saw_bits_per_word`` as an ``int64`` array.
        """
        row_index = self.row_for_address(address)
        old_row = self.array.read_row(row_index)
        stuck_row = self._stuck_knowledge(row_index)
        words_per_line = self.config.words_per_line

        old_auxes = self._aux_store[row_index].copy()
        context = LineContext.from_row(
            self._sensed_view(old_row, row_index),
            words_per_line,
            bits_per_cell=self.array.bits_per_cell,
            stuck_mask=stuck_row,
            old_auxes=old_auxes,
        )
        encoded = self.encoder.encode_line(encrypted, context)
        intended_row = words_matrix_to_cells(
            np.array(encoded.codewords, dtype=np.uint64)
            if self.config.word_bits <= 64
            else list(encoded.codewords),
            self.config.word_bits,
            self.array.bits_per_cell,
        ).reshape(-1)
        if self._wide_aux:
            new_auxes = np.array(encoded.auxes, dtype=object)
            changed_aux_bits = sum(
                bin(int(new) ^ int(old)).count("1")
                for new, old in zip(encoded.auxes, old_auxes)
            )
        else:
            new_auxes = np.array(encoded.auxes, dtype=np.int64)
            changed_aux_bits = int(
                popcount64_array(
                    new_auxes.astype(np.uint64) ^ old_auxes.astype(np.uint64)
                ).sum()
            )
        aux_energy = self._aux_bit_energy * changed_aux_bits

        result = self.array.write_row(row_index, intended_row)
        data_energy = float(
            self._energy_lut[old_row.astype(np.int64), intended_row.astype(np.int64)].sum()  # repro: allow[NUM001] reason=this IS the scalar oracle; the gather materialises a fresh C-contiguous row, and test_replay_parity locks the batched paths to it
        )
        bits_changed = self._count_changed_bits(result.old_cells, result.stored_cells)
        saw_bits = self._saw_bits_per_word(result.stored_cells, intended_row)

        self._aux_store[row_index] = new_auxes

        if self.fault_repository is not None:
            # The write-verify step exposes cells that did not take the
            # intended value; record them for the next write to this row.
            self.fault_repository.observe_write(row_index, intended_row, result.stored_cells)
        if self.wear_leveler is not None:
            movement = self.wear_leveler.record_write()
            if movement is not None:
                self._migrate_row(*movement)

        return (
            row_index,
            data_energy,
            aux_energy,
            result.cells_changed,
            bits_changed,
            result.saw_count,
            saw_bits,
            result.newly_stuck,
        )

    # -------------------------------------------------------------- replay
    def replay_trace(
        self,
        trace: "Trace",
        repetitions: int = 1,
        stop: Optional[ReplayStop] = None,
        max_writes: Optional[int] = None,
    ) -> ReplayResult:
        """Replay a writeback trace ``repetitions`` times through the write path.

        The batched sibling of a :meth:`write_line` loop: the whole replay
        runs inside the controller, accumulating per-write accounting into
        the arrays of a :class:`ReplayResult` instead of one
        :class:`LineWriteResult` (plus several lists and tuples) per write.
        Every accounting value, and the controller state afterwards, is
        bit-identical to the scalar path (see :meth:`_replay_waves`).  The
        controller's running :attr:`stats` are updated once at the end with
        the batch totals.

        Parameters
        ----------
        trace:
            A :class:`repro.traces.trace.Trace` whose geometry matches the
            controller configuration.
        repetitions:
            How many times to replay the trace end to end.
        stop:
            Optional early-stop rule (see :data:`ReplayStop`), called once
            per newly committed block of writes as ``stop(lo, row_indices,
            saw_cells, saw_bits_per_word)``; returning a write index ends
            the replay after that write (lifetime studies stop on the Nth
            failed row instead of paying for the remaining writes).
        max_writes:
            Optional hard cap on the total number of writes, applied on
            top of ``repetitions`` (the last repetition may be partial).
        """
        if repetitions < 0:
            raise ConfigurationError("repetitions must be non-negative")
        if trace.word_bits != self.config.word_bits:
            raise ConfigurationError(
                f"trace word size ({trace.word_bits} bits) does not match "
                f"the controller ({self.config.word_bits} bits)"
            )
        if trace.words_per_line != self.config.words_per_line:
            raise ConfigurationError(
                f"trace geometry ({trace.words_per_line} words per line) does not "
                f"match the controller ({self.config.words_per_line} words per line)"
            )
        if max_writes is not None and max_writes < 0:
            raise ConfigurationError("max_writes must be non-negative")

        num_records = len(trace)
        total = num_records * repetitions
        if max_writes is not None:
            total = min(total, max_writes)
        words_per_line = self.config.words_per_line
        replay = ReplayResult.empty(0, words_per_line)
        if total == 0:
            return replay._trim(0, False)

        reps_needed = -(-total // num_records)
        addresses = np.tile(trace.addresses_array(), reps_needed)[:total]
        words = trace.words_array()

        def plaintext_for(index: int) -> List[int]:
            # Wide/odd word sizes: per-record scalar fallback.
            return list(trace[index % num_records].words)

        # Chunked execution: pads, cell conversions and result arrays are
        # produced only for writes about to be performed.  The geometric
        # chunk ramp bounds the work wasted when an early stop ends the
        # replay after a few hundred writes (lifetime cells stop at a tiny
        # fraction of their max_writes cap) without costing long replays
        # anything, and an early stop rolls the encryption counters of the
        # unused chunk tail back so controller state matches the scalar
        # path exactly.
        chunk = 512
        start = 0
        performed = 0
        stopped = False
        batch_capable = words is not None
        with _OBS_SPAN("replay.trace", total_writes=total) as trace_span:
            while start < total and not stopped:
                end = min(start + chunk, total)
                chunk = min(chunk * 2, 8192)
                replay._reserve(end, total)
                encrypted_chunk: Optional[np.ndarray] = None
                if batch_capable:
                    record_indices = np.arange(start, end, dtype=np.int64) % num_records
                    chunk_words = words[record_indices]
                    if self.encryption is None:
                        encrypted_chunk = chunk_words
                    else:
                        encrypted_chunk = self.encryption.encrypt_lines(
                            addresses[start:end], chunk_words
                        )
                        if encrypted_chunk is None:
                            batch_capable = False
                if encrypted_chunk is not None:
                    performed, stopped = self._replay_waves(
                        replay, addresses, encrypted_chunk, start, end, stop
                    )
                else:
                    performed, stopped = self._replay_scalar(
                        replay, plaintext_for, addresses, start, end, stop
                    )
                if (
                    stopped
                    and performed < end
                    and encrypted_chunk is not None
                    and self.encryption is not None
                ):
                    self.encryption.rollback_counters(addresses[performed:end])
                start = end
            if stopped:
                _OBS_EARLY_STOPS.inc()
                _OBS_EARLY_STOP_INDEX.set(performed)
            trace_span.set(performed=performed, stopped=stopped)
        replay._trim(performed, stopped)
        self.stats.absorb(replay.write_stats())
        return replay

    def _replay_waves(
        self,
        replay: ReplayResult,
        addresses: np.ndarray,
        encrypted_chunk: np.ndarray,
        start: int,
        end: int,
        stop: Optional[ReplayStop],
    ) -> Tuple[int, bool]:
        """The replay wave loop over writes ``[start, end)``.

        Each wave takes up to :attr:`replay_wave_lines` pending writes, in
        index order, whose row has no earlier pending write, from a scan
        window of ``2 * replay_wave_lines`` writes that starts at the lowest
        pending one and ends at the write triggering the next Start-Gap gap
        move.  Such a
        write sees exactly the row, stuck knowledge, auxiliary bits and
        sense count its scalar turn would, so the wave is gathered once,
        encoded once through :meth:`repro.coding.base.Encoder.encode_lines`
        (identity encoders skip the encode: they store the ciphertext
        unchanged), applied with one
        :meth:`repro.pcm.array.PCMArray.write_rows_fast` and its accounting
        flushed by index array.

        Writes below the lowest pending index are *committed*, so at most
        one window of applied writes is uncommitted.  Every time that
        frontier moves, the ``stop`` rule sees the new block and
        Start-Gap is told of its kept writes (a gap move fires only once
        every write up to its trigger is in).  When the rule
        ends the replay at write ``s``, every applied write past ``s`` is
        undone from the snapshot its wave gathered (see
        :meth:`_rollback_waves`).  Returns ``(performed, stopped)`` with
        ``performed`` the global write count.
        """
        count = end - start
        array = self.array
        leveler = self.wear_leveler
        repository = self.fault_repository
        identity = self.encoder.is_identity
        words_per_line = self.config.words_per_line
        bits_per_cell = array.bits_per_cell
        chunk_addresses = addresses[start:end]
        replay.addresses[start:end] = chunk_addresses
        if identity:
            _OBS_IDENTITY_CHUNKS.inc()
        # Without wear leveling the address-to-row mapping is fixed; with
        # it, a write's row is looked up when the write first enters a scan
        # window, which never reaches past the next gap move.
        row_of: List[int] = (
            [0] * count if leveler is not None else (chunk_addresses % array.rows).tolist()
        )
        cap = self.replay_wave_lines
        window = 2 * cap
        waiting: List[int] = []  # scanned, not yet applied (ascending local indices)
        fresh = 0  # lowest local index no window has scanned
        frontier = 0  # lowest local index not yet applied
        undo: List[_WaveUndo] = []  # applied waves holding uncommitted writes

        while frontier < count:
            # ---- wave selection over the scan window.
            bound = count
            if leveler is not None:
                bound = min(count, frontier + leveler.writes_until_gap_move)
            scan_end = min(bound, frontier + window)
            if leveler is not None:
                for local in range(fresh, scan_end):
                    row_of[local] = self.row_for_address(int(chunk_addresses[local]))
            scan = waiting + list(range(fresh, scan_end))
            fresh = scan_end
            selected: List[int] = []
            waiting = []
            seen = set()
            for position, local in enumerate(scan):
                row_index = row_of[local]
                if row_index in seen:
                    waiting.append(local)
                    continue
                seen.add(row_index)
                selected.append(local)
                if len(selected) == cap:
                    waiting.extend(scan[position + 1:])
                    break
            lines = len(selected)
            _OBS_WAVES.inc()
            _OBS_WAVE_LINES.observe(lines)
            if lines < cap:
                if waiting:
                    _OBS_CONFLICT_CUTS.inc()
                if fresh == bound < count:
                    _OBS_GAP_FLUSHES.inc()

            local_indices = np.array(selected, dtype=np.intp)
            indices = local_indices + start
            rows = np.array([row_of[local] for local in selected], dtype=np.intp)
            with _OBS_SPAN("replay.wave", lines=lines):
                # ---- one gather per wave: rows, stuck knowledge, aux bits.
                old_auxes = self._aux_store[rows]
                wave_undo = None
                if stop is not None:
                    wave_undo = _WaveUndo(
                        indices=indices,
                        rows=rows,
                        array_rows=array.snapshot_rows(rows),
                        auxes=old_auxes,
                        sense_counts=(
                            None if self._sense_counts is None else self._sense_counts[rows]
                        ),
                    )
                    undo.append(wave_undo)
                if identity:
                    # The stored values are the ciphertext itself whatever
                    # the context, so only the sense count of the skipped
                    # read-before-write advances.
                    if self._sense_counts is not None:
                        self._sense_counts[rows] += 1
                    intended_rows = words_matrix_to_cells(
                        encrypted_chunk[local_indices], self.config.word_bits, bits_per_cell
                    ).reshape(lines, array.cells_per_row)
                    new_auxes = None
                else:
                    old_rows = array.read_rows(rows)
                    stuck_rows = self._stuck_rows(rows)
                    sensed_rows = self._sensed_rows(old_rows, rows)
                    contexts = [
                        LineContext.from_rows(
                            sensed_rows, words_per_line, bits_per_cell, stuck_rows, old_auxes, line
                        )
                        for line in range(lines)
                    ]
                    encoded = self.encoder.encode_lines(
                        encrypted_chunk[local_indices], contexts
                    )
                    intended_rows = words_matrix_to_cells(
                        np.array([line.codewords for line in encoded], dtype=np.uint64),
                        self.config.word_bits,
                        bits_per_cell,
                    ).reshape(lines, array.cells_per_row)
                    new_auxes = self._wave_aux_values(encoded)

                # ---- one apply per wave; rows are distinct, so it commutes.
                old_rows, stored_rows, _changed, _saw, newly = array.write_rows_fast(
                    rows, intended_rows
                )
                replay.row_indices[indices] = rows
                replay.newly_stuck_cells[indices] = newly
                if new_auxes is not None:
                    self._aux_store[rows] = new_auxes
                if repository is not None:
                    # observe_write is a no-op for rows whose stored cells
                    # all match; only mismatching rows carry discoveries.
                    for line in np.flatnonzero((stored_rows != intended_rows).any(axis=1)):
                        row_index = int(rows[line])
                        if wave_undo is not None:
                            wave_undo.faults[row_index] = repository.snapshot_row(row_index)
                        repository.observe_write(
                            row_index, intended_rows[line], stored_rows[line]
                        )
                self._flush_replay_accounting(
                    replay, indices, old_rows, stored_rows, intended_rows
                )
                if new_auxes is not None:
                    self._flush_aux_energy(replay, indices, new_auxes, old_auxes)

            # ---- commit the writes below the new frontier.
            lo = frontier
            frontier = waiting[0] if waiting else fresh
            verdict = _ask_stop(stop, replay, start + lo, start + frontier)
            kept = frontier if verdict is None else verdict - start + 1
            if leveler is not None:
                # The window never passes the next gap move, so only the
                # last committed write can trigger it.
                for _ in range(kept - lo):
                    movement = leveler.record_write()
                    if movement is not None:
                        self._migrate_row(*movement)
            if verdict is not None:
                self._rollback_waves(undo, start + kept)
                return start + kept, True
            if undo:
                # A wave's indices ascend; drop waves now fully committed.
                undo = [wave for wave in undo if wave.indices[-1] >= start + frontier]
        return end, False

    def _rollback_waves(self, undo: List["_WaveUndo"], performed: int) -> None:
        """Undo every applied write with global index ``>= performed``.

        Waves are undone newest first, each restoring its rolled-back rows
        from the state it gathered before applying them: array cells,
        stuck masks and wear, auxiliary bits, sense counts and discovered
        faults.  A row written by several rolled-back waves thus ends at
        the snapshot of the oldest, i.e. right after its last kept write —
        per-row order is the only order the wave loop keeps, and the only
        one the row's state depends on.
        """
        repository = self.fault_repository
        rolled_back = 0
        for wave in reversed(undo):
            lines = wave.indices >= performed
            if not lines.any():
                continue
            rows = wave.rows[lines]
            rolled_back += len(rows)
            self.array.restore_rows(rows, wave.array_rows, lines)
            self._aux_store[rows] = wave.auxes[lines]
            if wave.sense_counts is not None:
                self._sense_counts[rows] = wave.sense_counts[lines]
            if repository is not None and wave.faults:
                undone = set(rows.tolist())
                for row_index, table in wave.faults.items():
                    if row_index in undone:
                        repository.restore_row(row_index, table)
        _OBS_ROLLED_BACK.inc(rolled_back)

    def _flush_replay_accounting(
        self,
        replay: ReplayResult,
        indices: np.ndarray,
        old_rows: np.ndarray,
        stored_rows: np.ndarray,
        intended_rows: np.ndarray,
    ) -> None:
        """Vectorised accounting flush for the applied writes ``indices``.

        Energy, changed bits/cells, and SAW counts are pure functions of
        the (old, stored, intended) cell rows; row-wise NumPy reductions
        over the wave's rows are bit-identical to the scalar path's
        per-row reductions.  A stored cell differs from the intended value
        exactly at the stuck-at-wrong positions, so SAW counts fall out of
        the xor.  Entries are written once per replay into zeroed arrays.
        """
        bits_per_cell = self.array.bits_per_cell
        # One flat np.take per quantity: each gathered block is C-contiguous.
        replay.data_energy_pj[indices] = np.take(
            self._energy_lut.ravel(), (old_rows << bits_per_cell) | intended_rows
        ).sum(axis=1)
        flips = old_rows ^ stored_rows
        cells_changed = np.count_nonzero(flips, axis=1)
        replay.cells_changed[indices] = cells_changed
        replay.bits_changed[indices] = (
            cells_changed
            if bits_per_cell == 1
            else np.take(self._bit_popcount, flips).sum(axis=1)
        )
        wrong = stored_rows ^ intended_rows
        saw_cells = np.count_nonzero(wrong, axis=1)
        replay.saw_cells[indices] = saw_cells
        # Per-word wrong bits stay at their zeroed entries unless the
        # write left a stuck-at-wrong cell.
        hit = np.flatnonzero(saw_cells)
        if hit.size:
            wrong = wrong[hit]
            wrong_bits = (
                np.take(self._bit_popcount, wrong)
                if bits_per_cell == 2
                else (wrong != 0).astype(np.int64)
            )
            replay.saw_bits_per_word[indices[hit]] = wrong_bits.reshape(
                len(hit), self.config.words_per_line, -1
            ).sum(axis=2)

    def _wave_aux_values(self, encoded_lines: List[EncodedLine]) -> np.ndarray:
        """The wave's auxiliary values as a ``(lines, words)`` aux-store block."""
        rows = [encoded.auxes for encoded in encoded_lines]
        if self._wide_aux:
            return np.array(rows, dtype=object)
        return np.array(rows, dtype=np.int64)

    def _flush_aux_energy(
        self,
        replay: ReplayResult,
        indices: np.ndarray,
        new_auxes: np.ndarray,
        old_auxes: np.ndarray,
    ) -> None:
        """Auxiliary-bit write energy for the applied writes ``indices``.

        Charges the bits that changed between the stored and the new
        auxiliary values, exactly as :meth:`_apply_line_write` does per
        write (same popcounts, same float multiply).
        """
        if self._wide_aux:
            for line, index in enumerate(indices):
                changed = sum(
                    bin(int(new) ^ int(old)).count("1")
                    for new, old in zip(new_auxes[line], old_auxes[line])
                )
                replay.aux_energy_pj[index] = self._aux_bit_energy * changed
            return
        changed = popcount64_array(
            new_auxes.astype(np.uint64) ^ old_auxes.astype(np.uint64)
        ).sum(axis=1)
        replay.aux_energy_pj[indices] = self._aux_bit_energy * changed

    def _sensed_view(self, old_row: np.ndarray, row_index: int) -> np.ndarray:
        """The old-row state the encoder observes for one read-before-write.

        With no fault model (or a zero flip rate) this is ``old_row``
        itself.  Under a transient model each read of a row draws its own
        seeded stream keyed by ``(row, nth-read-of-row)``: the number of
        mis-sensed cells is binomial in the flip rate, the read corrector
        (when present) repairs reads within its budget, and only escaped
        flips reach the returned copy.  The true ``old_row`` is never
        mutated — accounting stays on the real array state.
        """
        if self._sense_counts is None or self._sense_seed is None:
            return old_row
        count = int(self._sense_counts[row_index])
        self._sense_counts[row_index] = count + 1
        rng = make_rng(derive_seed(self._sense_seed, f"{row_index}:{count}"), "sense")
        cells = old_row.shape[0]
        flips = int(rng.binomial(cells, self._read_flip_rate))
        if flips == 0:
            return old_row
        positions = rng.choice(cells, size=flips, replace=False)
        _OBS_TRANSIENT_FLIPS.inc(flips)
        if self.read_corrector is not None:
            # Each mis-sensed cell is one wrong bit (the flip toggles the
            # low bit of the cell's symbol); bucket them per word and ask
            # the corrector whether its budget covers the read.
            cells_per_word = cells // self.config.words_per_line
            wrong_bits_per_word = np.bincount(
                positions // cells_per_word, minlength=self.config.words_per_line
            )
            if self.read_corrector.row_outcome(wrong_bits_per_word.tolist()).correctable:
                _OBS_TRANSIENT_CORRECTED.inc()
                return old_row
        _OBS_TRANSIENT_ESCAPED.inc()
        sensed = old_row.copy()
        sensed[positions] ^= 1
        return sensed

    def _sensed_rows(self, old_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Wave sibling of :meth:`_sensed_view` over distinct rows.

        Rows within a wave are pairwise distinct, so perturbing each
        gathered row once — in wave order — consumes exactly the per-row
        streams a sequential scalar replay of the same writes would, which
        keeps wave and scalar encoder inputs bit-identical.
        """
        if self._sense_counts is None:
            return old_rows
        sensed = old_rows.copy()
        for line, row_index in enumerate(rows.tolist()):
            sensed[line] = self._sensed_view(old_rows[line], row_index)
        return sensed

    def _stuck_rows(self, row_indices: np.ndarray) -> Optional[np.ndarray]:
        """The stuck masks the encoder may see for a wave of rows."""
        if self.fault_knowledge == "oracle":
            return self.array.stuck_rows(row_indices)
        if self.fault_knowledge == "discovered":
            return np.stack(
                [self.fault_repository.stuck_mask(int(row)) for row in row_indices]
            )
        return None

    def _replay_scalar(
        self,
        replay: ReplayResult,
        plaintext_for: Callable[[int], List[int]],
        addresses: np.ndarray,
        start: int,
        end: int,
        stop: Optional[ReplayStop],
    ) -> Tuple[int, bool]:
        """Per-write fallback of :meth:`_replay_waves` (odd word widths).

        Runs when no batched ciphertext chunk exists; each write encrypts
        scalar-wise, runs the identical :meth:`_apply_line_write` core and
        commits at once, so the ``stop`` rule sees one-write blocks.
        """
        _OBS_SCALAR_FALLBACKS.inc()
        encryption = self.encryption
        for index in range(start, end):
            words = plaintext_for(index)
            if encryption is not None:
                encrypted = list(
                    encryption.encrypt_line(int(addresses[index]), words).words
                )
            else:
                encrypted = [int(w) for w in words]
            (
                row_index,
                data_energy,
                aux_energy,
                cells_changed,
                bits_changed,
                saw_count,
                saw_bits,
                newly_stuck,
            ) = self._apply_line_write(int(addresses[index]), encrypted)
            replay.addresses[index] = addresses[index]
            replay.row_indices[index] = row_index
            replay.data_energy_pj[index] = data_energy
            replay.aux_energy_pj[index] = aux_energy
            replay.cells_changed[index] = cells_changed
            replay.bits_changed[index] = bits_changed
            replay.saw_cells[index] = saw_count
            replay.saw_bits_per_word[index] = saw_bits
            replay.newly_stuck_cells[index] = newly_stuck
            if _ask_stop(stop, replay, index, index + 1) is not None:
                return index + 1, True
        return end, False

    # -------------------------------------------------------- random lines
    def write_random_lines(
        self,
        num_lines: int,
        rng: np.random.Generator,
        address_space: Optional[int] = None,
    ) -> ReplayResult:
        """Write ``num_lines`` uniformly random lines to random addresses.

        The batched sibling of the scalar random-line loop (one
        ``rng.integers`` address draw plus one :func:`repro.utils.bitops.random_word`
        per word, then :meth:`write_line`): line data is drawn in chunks
        with the *exact same generator call sequence* — so the addresses
        and words are bit-identical to the scalar loop's — and driven
        through :meth:`replay_trace`'s internals: chunked counter-mode
        pads, the wave loop, and per-write accounting in the arrays of a
        :class:`ReplayResult`.  Controller state (array contents,
        encryption counters, auxiliary bits, wear) after the call matches
        the scalar sequence exactly, so scalar and batched drives can
        interleave.

        Parameters
        ----------
        num_lines:
            Number of random lines to write.
        rng:
            Source generator for addresses and line data (the caller owns
            the seeding; pass a fresh ``make_rng(seed, label)`` stream for
            reproducible studies).
        address_space:
            Addresses are drawn uniformly from ``[0, address_space)``;
            defaults to the array's row count.
        """
        if num_lines < 0:
            raise ConfigurationError("num_lines must be non-negative")
        if address_space is None:
            address_space = self.array.rows
        if address_space <= 0:
            raise ConfigurationError("address_space must be positive")
        words_per_line = self.config.words_per_line
        replay = ReplayResult.empty(0, words_per_line)
        if num_lines == 0:
            return replay._trim(0, False)

        # Chunked like replay_trace: pads, cell conversions and result
        # arrays are only produced for a bounded window of writes at a
        # time, with the same geometric ramp.  There is no early-stop rule
        # here (the random-line studies always run to completion), so no
        # rollback is ever needed.
        addresses = np.empty(num_lines, dtype=np.int64)
        chunk = 512
        start = 0
        performed = 0
        while start < num_lines:
            end = min(start + chunk, num_lines)
            chunk = min(chunk * 2, 8192)
            replay._reserve(end, num_lines)
            chunk_addresses, plaintext = self._draw_random_lines(
                rng, end - start, address_space
            )
            addresses[start:end] = chunk_addresses
            encrypted_chunk: Optional[np.ndarray] = None
            if isinstance(plaintext, np.ndarray):
                if self.encryption is None:
                    encrypted_chunk = plaintext
                else:
                    encrypted_chunk = self.encryption.encrypt_lines(
                        chunk_addresses, plaintext
                    )
            if encrypted_chunk is not None:
                performed, _ = self._replay_waves(
                    replay, addresses, encrypted_chunk, start, end, None
                )
            else:
                def plaintext_for(index: int, _base=start, _rows=plaintext) -> List[int]:
                    return [int(word) for word in _rows[index - _base]]

                performed, _ = self._replay_scalar(
                    replay, plaintext_for, addresses, start, end, None
                )
            start = end
        replay._trim(performed, False)
        self.stats.absorb(replay.write_stats())
        return replay

    def _draw_random_lines(
        self, rng: np.random.Generator, count: int, address_space: int
    ):
        """Draw ``count`` random (address, line) pairs from ``rng``.

        Consumes the generator with the exact call sequence of the scalar
        oracle loop — per line one ``integers(0, address_space)`` draw
        followed by the per-word chunk draws of
        :func:`repro.utils.bitops.random_word` — so a batched drive sees
        the same addresses and words a :meth:`write_line` loop would.  The
        word-chunk draws are vectorised per line (one ``integers`` call
        covering all words), which numpy fills sequentially and therefore
        stream-identically to the scalar calls.

        Returns ``(addresses, words)`` with ``words`` a
        ``(count, words_per_line)`` ``uint64`` matrix when the word width
        fits, else a list of per-line Python-int word lists.
        """
        word_bits = self.config.word_bits
        words_per_line = self.config.words_per_line
        chunk_widths = []
        remaining = word_bits
        while remaining > 0:
            width = min(remaining, 32)
            chunk_widths.append(width)
            remaining -= width
        addresses = np.empty(count, dtype=np.int64)
        if word_bits <= 64 and len(set(chunk_widths)) == 1:
            width = chunk_widths[0]
            chunks_per_word = len(chunk_widths)
            draws_per_line = words_per_line * chunks_per_word
            high = 1 << width
            draws = np.empty((count, draws_per_line), dtype=np.uint64)
            for line in range(count):
                addresses[line] = rng.integers(0, address_space)
                draws[line] = rng.integers(0, high, size=draws_per_line)
            if chunks_per_word == 1:
                return addresses, draws
            # random_word draws the most significant chunk first.
            shaped = draws.reshape(count, words_per_line, chunks_per_word)
            words = np.zeros((count, words_per_line), dtype=np.uint64)
            for position in range(chunks_per_word):
                words = (words << np.uint64(width)) | shaped[:, :, position]
            return addresses, words
        # Mixed chunk widths (word_bits not a multiple of 32) or words
        # wider than uint64: fall back to the scalar word generator.
        lines = []
        for line in range(count):
            addresses[line] = rng.integers(0, address_space)
            lines.append([random_word(rng, word_bits) for _ in range(words_per_line)])
        if word_bits <= 64:
            return addresses, np.array(lines, dtype=np.uint64)
        return addresses, lines

    # ---------------------------------------------------------------- read
    def read_line(self, address: int) -> List[int]:
        """Read, decode, and decrypt one cache line.

        Stuck-at-wrong cells propagate into the returned plaintext exactly
        as they would in hardware; callers compare against the written data
        to measure residual corruption.
        """
        row_index = self.row_for_address(address)
        row_cells = self.array.read_row(row_index)
        codewords = cells_matrix_to_words(
            row_cells.reshape(self.config.words_per_line, -1), self.array.bits_per_cell
        )
        decoded_words = self.encoder.decode_line(codewords, self._aux_store[row_index])
        if self.encryption is None:
            return decoded_words
        counter = self.encryption.counter_for(address)
        pad = self.encryption.pad_words(address, counter)
        mask = (1 << self.config.word_bits) - 1
        return [(w ^ p) & mask for w, p in zip(decoded_words, pad)]

    # ------------------------------------------------------------ internals
    def _stuck_knowledge(self, row_index: int) -> Optional[np.ndarray]:
        """The stuck-cell mask the encoder is allowed to see for this row."""
        if self.fault_knowledge == "oracle":
            return self.array.stuck_info(row_index)
        if self.fault_knowledge == "discovered":
            return self.fault_repository.stuck_mask(row_index)
        return None

    def _migrate_row(self, source_row: int, destination_row: int) -> None:
        """Copy one row for a Start-Gap movement (a genuine, wearing write)."""
        contents = self.array.read_row(source_row)
        result = self.array.write_row(destination_row, contents)
        self.stats.rows_written += 1
        self.stats.cells_changed += result.cells_changed
        self.stats.bits_changed += self._count_changed_bits(result.old_cells, result.stored_cells)
        self.stats.data_energy_pj += float(
            self._energy_lut[  # repro: allow[NUM001] reason=migration writes reuse the scalar-oracle gather above; fresh C-contiguous result, parity-locked by the Start-Gap integration tests
                result.old_cells.astype(np.int64), result.intended_cells.astype(np.int64)
            ].sum()
        )
        # The migration write can itself land on stuck destination cells;
        # its SAW outcome counts like any other row write.
        saw_bits = self._saw_bits_per_word(result.stored_cells, result.intended_cells)
        self.stats.saw_cells += result.saw_count
        self.stats.saw_words += int(np.count_nonzero(saw_bits))
        # The auxiliary bits of the migrated row travel with the data and
        # are rewritten in the side region: charge the bits that change.
        old_dest_auxes = self._aux_store[destination_row]
        moved_auxes = self._aux_store[source_row]
        if self._wide_aux:
            changed_aux_bits = sum(
                bin(int(new) ^ int(old)).count("1")
                for new, old in zip(moved_auxes, old_dest_auxes)
            )
        else:
            changed_aux_bits = int(
                popcount64_array(
                    moved_auxes.astype(np.uint64) ^ old_dest_auxes.astype(np.uint64)
                ).sum()
            )
        self.stats.aux_energy_pj += self._aux_bit_energy * changed_aux_bits
        self._aux_store[destination_row] = moved_auxes
        if self.fault_repository is not None:
            self.fault_repository.observe_write(
                destination_row, result.intended_cells, result.stored_cells
            )

    def _count_changed_bits(self, old_cells: np.ndarray, new_cells: np.ndarray) -> int:
        xor = old_cells ^ new_cells
        if self.array.bits_per_cell == 1:
            return int(np.count_nonzero(xor))
        return int(self._bit_popcount[xor].sum())  # repro: allow[NUM001] reason=integer popcount accumulation is exact at any reduction order

    def _saw_bits_per_word(
        self, stored_cells: np.ndarray, intended_cells: np.ndarray
    ) -> np.ndarray:
        """Residual wrong bits per word of a row write, as an int64 vector."""
        xor = stored_cells ^ intended_cells
        wrong_bits = (
            self._bit_popcount[xor]
            if self.array.bits_per_cell == 2
            else (xor != 0).astype(np.int64)
        )
        return wrong_bits.reshape(self.config.words_per_line, -1).sum(axis=1)

    def _accumulate(self, line: LineWriteResult) -> None:
        self.stats.add_line(line, self.config.words_per_line)
