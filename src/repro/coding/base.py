"""Encoder and write-context interfaces shared by every technique.

All techniques in this repository — the baselines in :mod:`repro.coding`
and Virtual Coset Coding in :mod:`repro.core` — expose the same tiny
interface so the simulators can iterate over them uniformly:

* :class:`WordContext` describes what the memory controller knows about
  the target location at write time (the current cell values read back by
  the read-modify-write step and, when a fault-tracking mechanism is
  assumed, which of those cells are stuck);
* :class:`Encoder.encode` maps an n-bit data word plus its context to an
  :class:`EncodedWord` (codeword + auxiliary bits + achieved cost);
* :class:`Encoder.decode` recovers the original data from the codeword and
  auxiliary bits alone (faults aside, ``decode(encode(d)) == d``).

The memory controller's natural unit is the cache *line* (8 words of 64
bits), so the interface also exposes line-granularity batch paths:

* :class:`LineContext` stacks the per-word write-time knowledge of a whole
  line into ``(words, cells)`` matrices plus an auxiliary-bit vector, and
  :class:`LineBatch` stacks the contexts of many lines into ``(lines,
  words, cells)`` arrays;
* :meth:`Encoder.encode_lines` encodes a whole chunk of queued writes (one
  :class:`LineBatch`, or one :class:`LineContext` per line, stacked once)
  in one call and returns an :class:`EncodedBatch` of codeword, auxiliary
  and cost arrays.  It is the one array kernel of every builtin
  technique, scoring the candidate×word costs of all lines from the cost
  function's per-cell transition tables
  (:meth:`repro.coding.cost.CostFunction.transition_tables`).  The base
  implementation is the reference loop over :meth:`Encoder.encode`, so
  third-party encoders keep working unchanged;
* :meth:`Encoder.encode_line` is :meth:`Encoder.encode_lines` on one line,
  and :meth:`Encoder.encode_line_scalar` the word-at-a-time reference
  every kernel must match bit for bit;
* :class:`Encoder.decode_line` is the inverse batch operation.

Costs are evaluated through the :class:`repro.coding.cost.CostFunction`
interface at *cell* granularity, which lets the same encoder minimise
written '1's, bit changes, MLC write energy, stuck-at-wrong cells, or
lexicographic combinations of those.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.errors import ConfigurationError, EncodingError
from repro.pcm.array import cells_to_word, word_to_cells
from repro.pcm.cell import CellTechnology

# Lines encoded through the reference word-level loop instead of a builtin
# vectorised override — the replay engine's "fallback path taken" signal.
_OBS_FALLBACK_LINES = obs.counter(
    "encode.fallback_lines",
    "lines encoded by the reference encode_line_scalar loop (no batched override)",
)
# Every builtin encode_lines bumps this once per call, by lines x the
# candidates it scores per word, so the count does not move with wave shape.
_OBS_CANDIDATES = obs.counter(
    "encode.candidates", "candidate lines scored by the batched encode_lines kernels"
)

__all__ = [
    "WordContext",
    "LineContext",
    "LineBatch",
    "EncodedWord",
    "EncodedLine",
    "EncodedBatch",
    "Encoder",
    "WordsMatrix",
    "words_to_cell_matrix",
    "words_matrix_to_cells",
    "cells_matrix_to_words",
]

#: Accepted shapes for a multi-line batch of data words: a
#: ``(lines, words_per_line)`` integer ndarray or per-line sequences.
WordsMatrix = Union[np.ndarray, Sequence[Sequence[int]]]


@functools.lru_cache(maxsize=None)
def _cell_shifts(cells: int, bits_per_cell: int) -> np.ndarray:
    """Right shifts that bring each cell of a word to the low bits, cell 0 first."""
    shifts = np.arange(cells - 1, -1, -1, dtype=np.uint64) * np.uint64(bits_per_cell)
    shifts.flags.writeable = False
    return shifts


def words_to_cell_matrix(words: Sequence[int], word_bits: int, bits_per_cell: int) -> np.ndarray:
    """Convert candidate words to a ``(len(words), cells)`` cell-value matrix.

    Used by encoders to evaluate many candidate codewords against a cost
    function in one vectorised call.  Cell 0 holds the most significant
    bits of each word, matching :func:`repro.pcm.array.word_to_cells`.
    """
    cells = word_bits // bits_per_cell
    mask = (1 << bits_per_cell) - 1
    if word_bits <= 64:
        values = np.fromiter((int(w) for w in words), dtype=np.uint64, count=len(words))
        matrix = (values[:, None] >> _cell_shifts(cells, bits_per_cell)) & np.uint64(mask)
        return matrix.astype(np.uint8)
    matrix = np.empty((len(words), cells), dtype=np.uint8)
    for row, word in enumerate(words):
        for index in range(cells):
            shift = bits_per_cell * (cells - 1 - index)
            matrix[row, index] = (word >> shift) & mask
    return matrix


def words_matrix_to_cells(words: np.ndarray, word_bits: int, bits_per_cell: int) -> np.ndarray:
    """Convert an n-D array of word values to cell values along a new last axis.

    The batched sibling of :func:`words_to_cell_matrix`: an input of shape
    ``(...,)`` becomes ``(..., cells)`` with cell 0 holding the most
    significant bits, matching :func:`repro.pcm.array.word_to_cells`.
    """
    cells = word_bits // bits_per_cell
    mask = (1 << bits_per_cell) - 1
    if word_bits <= 64:
        values = np.asarray(words, dtype=np.uint64)
        matrix = (values[..., None] >> _cell_shifts(cells, bits_per_cell)) & np.uint64(mask)
        return matrix.astype(np.uint8)
    values = np.asarray(words, dtype=object)
    out = np.empty(values.shape + (cells,), dtype=np.uint8)
    for position in np.ndindex(values.shape):
        out[position] = word_to_cells(int(values[position]), word_bits, bits_per_cell)
    return out


def cells_matrix_to_words(cells: np.ndarray, bits_per_cell: int) -> List[int]:
    """Convert a ``(words, cells)`` cell matrix back to a list of word ints.

    Inverse of :func:`words_matrix_to_cells` for the 2-D case; used by the
    memory controller's read path to recover all codewords of a row at once.
    """
    matrix = np.asarray(cells, dtype=np.uint64)
    if matrix.ndim != 2:
        raise ConfigurationError("cells_matrix_to_words expects a (words, cells) matrix")
    num_cells = matrix.shape[1]
    word_bits = num_cells * bits_per_cell
    if word_bits <= 64:
        packed = (matrix << _cell_shifts(num_cells, bits_per_cell)).sum(axis=1, dtype=np.uint64)
        return [int(value) for value in packed]
    return [cells_to_word(row, bits_per_cell) for row in matrix]


@dataclass(frozen=True)
class WordContext:
    """Write-time knowledge about the target word location.

    Attributes
    ----------
    old_cells:
        Current cell values at the target location (read-modify-write).
        Length is ``word_bits // bits_per_cell``.
    stuck_mask:
        Optional boolean mask aligned with ``old_cells``; True marks cells
        that are stuck (their value cannot be changed).  A stuck cell's
        value is its entry in ``old_cells``.
    bits_per_cell:
        1 for SLC, 2 for MLC.
    old_aux:
        Previously stored auxiliary bits for this word (used to charge the
        energy of updating them).
    """

    old_cells: np.ndarray
    stuck_mask: Optional[np.ndarray] = None
    bits_per_cell: int = 2
    old_aux: int = 0

    def __post_init__(self) -> None:
        old = np.asarray(self.old_cells, dtype=np.uint8)
        object.__setattr__(self, "old_cells", old)
        if self.stuck_mask is not None:
            mask = np.asarray(self.stuck_mask, dtype=bool)
            if mask.shape != old.shape:
                raise ConfigurationError("stuck_mask must match old_cells shape")
            object.__setattr__(self, "stuck_mask", mask)
        if self.bits_per_cell not in (1, 2):
            raise ConfigurationError("bits_per_cell must be 1 (SLC) or 2 (MLC)")

    @property
    def word_bits(self) -> int:
        """Width of the word covered by this context, in bits."""
        return len(self.old_cells) * self.bits_per_cell

    @property
    def technology(self) -> CellTechnology:
        """Cell technology implied by ``bits_per_cell``."""
        return CellTechnology.SLC if self.bits_per_cell == 1 else CellTechnology.MLC

    @property
    def old_word(self) -> int:
        """The current contents of the location as a word integer."""
        word = 0
        for value in self.old_cells:
            word = (word << self.bits_per_cell) | int(value)
        return word

    @classmethod
    def blank(cls, word_bits: int = 64, bits_per_cell: int = 2) -> "WordContext":
        """Context for a location whose cells are all zero and fault-free."""
        cells = word_bits // bits_per_cell
        return cls(old_cells=np.zeros(cells, dtype=np.uint8), bits_per_cell=bits_per_cell)

    @classmethod
    def from_word(
        cls,
        old_word: int,
        word_bits: int = 64,
        bits_per_cell: int = 2,
        stuck_mask: Optional[np.ndarray] = None,
        old_aux: int = 0,
    ) -> "WordContext":
        """Build a context from the old word value."""
        cells = word_to_cells(old_word, word_bits, bits_per_cell)
        return cls(
            old_cells=cells,
            stuck_mask=stuck_mask,
            bits_per_cell=bits_per_cell,
            old_aux=old_aux,
        )


@dataclass(frozen=True)
class LineContext:
    """Write-time knowledge about a whole cache line, stacked per word.

    Attributes
    ----------
    old_cells:
        ``(words, cells_per_word)`` matrix of the current cell values at
        the target row (read-modify-write), one row per word.
    stuck_mask:
        Optional boolean matrix aligned with ``old_cells``; True marks
        cells that are stuck at their ``old_cells`` value.
    bits_per_cell:
        1 for SLC, 2 for MLC.
    old_auxes:
        ``(words,)`` vector of the previously stored auxiliary bits, used
        to charge the energy of updating them.  Defaults to all zeros.
    """

    old_cells: np.ndarray
    stuck_mask: Optional[np.ndarray] = None
    bits_per_cell: int = 2
    old_auxes: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        old = np.asarray(self.old_cells, dtype=np.uint8)
        if old.ndim != 2:
            raise ConfigurationError("old_cells must be a (words, cells) matrix")
        object.__setattr__(self, "old_cells", old)
        if self.stuck_mask is not None:
            mask = np.asarray(self.stuck_mask, dtype=bool)
            if mask.shape != old.shape:
                raise ConfigurationError("stuck_mask must match old_cells shape")
            object.__setattr__(self, "stuck_mask", mask)
        if self.bits_per_cell not in (1, 2):
            raise ConfigurationError("bits_per_cell must be 1 (SLC) or 2 (MLC)")
        if self.old_auxes is None:
            auxes = np.zeros(old.shape[0], dtype=np.int64)
        else:
            try:
                auxes = np.asarray(self.old_auxes, dtype=np.int64)
            except OverflowError:
                # Techniques with >= 64 auxiliary bits per word (e.g. FNW
                # over wide words) carry Python ints instead.
                auxes = np.array([int(a) for a in self.old_auxes], dtype=object)
            if auxes.shape != (old.shape[0],):
                raise ConfigurationError("old_auxes must hold one value per word")
            negative = (
                bool((auxes < 0).any())
                if auxes.dtype != object
                else any(int(a) < 0 for a in auxes)
            )
            if negative:
                raise ConfigurationError("auxiliary values must be non-negative")
        object.__setattr__(self, "old_auxes", auxes)

    @property
    def words_per_line(self) -> int:
        """Number of words covered by this context."""
        return self.old_cells.shape[0]

    @property
    def word_bits(self) -> int:
        """Width of each word covered by this context, in bits."""
        return self.old_cells.shape[1] * self.bits_per_cell

    @property
    def technology(self) -> CellTechnology:
        """Cell technology implied by ``bits_per_cell``."""
        return CellTechnology.SLC if self.bits_per_cell == 1 else CellTechnology.MLC

    def word_context(self, word_index: int) -> WordContext:
        """The scalar :class:`WordContext` of one word of the line."""
        if not 0 <= word_index < self.words_per_line:
            raise ConfigurationError(
                f"word index {word_index} out of range [0, {self.words_per_line})"
            )
        stuck = None if self.stuck_mask is None else self.stuck_mask[word_index]
        return WordContext(
            old_cells=self.old_cells[word_index],
            stuck_mask=stuck,
            bits_per_cell=self.bits_per_cell,
            old_aux=int(self.old_auxes[word_index]),
        )

    @classmethod
    def blank(
        cls, words_per_line: int = 8, word_bits: int = 64, bits_per_cell: int = 2
    ) -> "LineContext":
        """Context for a line whose cells are all zero and fault-free."""
        cells = word_bits // bits_per_cell
        return cls(
            old_cells=np.zeros((words_per_line, cells), dtype=np.uint8),
            bits_per_cell=bits_per_cell,
        )

    @classmethod
    def from_row(
        cls,
        row_cells: np.ndarray,
        words_per_line: int,
        bits_per_cell: int = 2,
        stuck_mask: Optional[np.ndarray] = None,
        old_auxes: Optional[np.ndarray] = None,
    ) -> "LineContext":
        """Build a context from a flat row of cells as stored in a PCM array."""
        row = np.asarray(row_cells, dtype=np.uint8)
        if row.ndim != 1 or row.size % words_per_line != 0:
            raise ConfigurationError(
                "row_cells must be a flat row divisible into words_per_line words"
            )
        stuck = (
            None
            if stuck_mask is None
            else np.asarray(stuck_mask, dtype=bool).reshape(words_per_line, -1)
        )
        return cls(
            old_cells=row.reshape(words_per_line, -1),
            stuck_mask=stuck,
            bits_per_cell=bits_per_cell,
            old_auxes=old_auxes,
        )

    @classmethod
    def from_contexts(cls, contexts: Sequence[WordContext]) -> "LineContext":
        """Stack per-word contexts (all sharing a geometry) into a line context."""
        if not contexts:
            raise ConfigurationError("at least one word context is required")
        bits_per_cell = contexts[0].bits_per_cell
        if any(c.bits_per_cell != bits_per_cell for c in contexts):
            raise ConfigurationError("word contexts must share bits_per_cell")
        if any(c.old_cells.shape != contexts[0].old_cells.shape for c in contexts):
            raise ConfigurationError("word contexts must share the word geometry")
        stuck = None
        if any(c.stuck_mask is not None for c in contexts):
            stuck = np.stack(
                [
                    c.stuck_mask
                    if c.stuck_mask is not None
                    else np.zeros_like(c.old_cells, dtype=bool)
                    for c in contexts
                ]
            )
        return cls(
            old_cells=np.stack([c.old_cells for c in contexts]),
            stuck_mask=stuck,
            bits_per_cell=bits_per_cell,
            old_auxes=np.array([c.old_aux for c in contexts], dtype=np.int64),
        )


def _int_matrix(rows: Any, dtype: type) -> np.ndarray:
    """``rows`` as a ``dtype`` integer array, or Python ints where they overflow it."""
    try:
        return np.asarray(rows, dtype=dtype)
    except OverflowError:
        # Words wider than 64 bits, or 64 and more auxiliary bits per word.
        return np.array([[int(v) for v in row] for row in rows], dtype=object)


@dataclass(frozen=True)
class LineBatch:
    """Write-time knowledge about a batch of lines, stacked per line.

    The array form of a sequence of :class:`LineContext` objects: what
    every builtin :meth:`Encoder.encode_lines` kernel reads, and what the
    memory controller's replay waves gather in one go.

    Attributes
    ----------
    old_cells:
        ``(lines, words, cells_per_word)`` uint8 current cell values.
    stuck_mask:
        Optional boolean array aligned with ``old_cells`` (True marks a cell
        stuck at its old value), or None when no fault information is known
        for any line.
    bits_per_cell:
        1 for SLC, 2 for MLC.
    old_auxes:
        ``(lines, words)`` previously stored auxiliary values (``int64``, or
        Python ints for techniques with 64 or more auxiliary bits per word).
        Defaults to all zeros.

    ``len(batch)`` is the number of lines.
    """

    old_cells: np.ndarray
    stuck_mask: Optional[np.ndarray] = None
    bits_per_cell: int = 2
    old_auxes: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        old = np.asarray(self.old_cells, dtype=np.uint8)
        if old.ndim != 3:
            raise ConfigurationError("old_cells must be a (lines, words, cells) array")
        object.__setattr__(self, "old_cells", old)
        if self.stuck_mask is not None:
            mask = np.asarray(self.stuck_mask, dtype=bool)
            if mask.shape != old.shape:
                raise ConfigurationError("stuck_mask must match old_cells shape")
            object.__setattr__(self, "stuck_mask", mask)
        if self.bits_per_cell not in (1, 2):
            raise ConfigurationError("bits_per_cell must be 1 (SLC) or 2 (MLC)")
        if self.old_auxes is None:
            auxes = np.zeros(old.shape[:2], dtype=np.int64)
        else:
            auxes = _int_matrix(self.old_auxes, np.int64)
            if auxes.shape != old.shape[:2]:
                raise ConfigurationError("old_auxes must hold one value per word of each line")
            if auxes.size and int(auxes.min()) < 0:
                raise ConfigurationError("auxiliary values must be non-negative")
        object.__setattr__(self, "old_auxes", auxes)

    def __len__(self) -> int:
        return self.old_cells.shape[0]

    @property
    def words_per_line(self) -> int:
        """Number of words of each line."""
        return self.old_cells.shape[1]

    @property
    def word_bits(self) -> int:
        """Width of each word, in bits."""
        return self.old_cells.shape[2] * self.bits_per_cell

    def line_context(self, line: int) -> LineContext:
        """The :class:`LineContext` of one line of the batch."""
        return LineContext(
            old_cells=self.old_cells[line],
            stuck_mask=None if self.stuck_mask is None else self.stuck_mask[line],
            bits_per_cell=self.bits_per_cell,
            old_auxes=self.old_auxes[line],
        )

    @classmethod
    def from_contexts(cls, contexts: Sequence[LineContext]) -> "LineBatch":
        """Stack per-line contexts (all sharing a geometry) into a batch."""
        if not contexts:
            raise ConfigurationError("at least one line context is required")
        first = contexts[0]
        if any(
            c.bits_per_cell != first.bits_per_cell or c.old_cells.shape != first.old_cells.shape
            for c in contexts
        ):
            raise ConfigurationError("line contexts must share the line geometry")
        stuck = None
        if any(c.stuck_mask is not None for c in contexts):
            stuck = np.stack(
                [
                    c.stuck_mask
                    if c.stuck_mask is not None
                    else np.zeros_like(c.old_cells, dtype=bool)
                    for c in contexts
                ]
            )
        return cls(
            old_cells=np.stack([c.old_cells for c in contexts]),
            stuck_mask=stuck,
            bits_per_cell=first.bits_per_cell,
            old_auxes=_int_matrix([c.old_auxes for c in contexts], np.int64),
        )

    @classmethod
    def of(cls, contexts: Union["LineBatch", Sequence[LineContext]]) -> "LineBatch":
        """``contexts`` itself when already a batch, else the stacked contexts."""
        return contexts if isinstance(contexts, LineBatch) else cls.from_contexts(contexts)


#: What :meth:`Encoder.encode_lines` accepts as the per-line write contexts.
LineContexts = Union[LineBatch, Sequence[LineContext]]


@dataclass(frozen=True)
class EncodedWord:
    """Result of encoding one data word.

    Attributes
    ----------
    codeword:
        The n-bit value to store in the data cells.
    aux:
        Value of the auxiliary bits (coset / inversion selector).
    aux_bits:
        Number of auxiliary bits used by the technique.
    cost:
        Cost of the selected candidate under the cost function used at
        encode time (includes the auxiliary-bit cost).
    technique:
        Name of the encoder that produced this word.
    """

    codeword: int
    aux: int
    aux_bits: int
    cost: float
    technique: str

    def __post_init__(self) -> None:
        _validate_aux(self.aux, self.aux_bits)


def _validate_aux(aux: int, aux_bits: int) -> None:
    """Reject auxiliary values that do not fit in ``aux_bits`` bits.

    In particular ``aux_bits == 0`` admits only ``aux == 0``: a technique
    that stores no auxiliary bits cannot smuggle information through them.
    """
    if aux_bits < 0:
        raise ConfigurationError("aux_bits must be non-negative")
    if aux < 0 or aux >= (1 << aux_bits):
        raise ConfigurationError(
            f"aux value {aux} does not fit in {aux_bits} bits"
        )


@dataclass(frozen=True)
class EncodedLine:
    """Result of encoding one cache line (a batch of words).

    Attributes
    ----------
    codewords:
        Per-word values to store in the data cells, in line order.
    auxes:
        Per-word auxiliary values (coset / inversion selectors).
    aux_bits:
        Number of auxiliary bits per word used by the technique.
    costs:
        Per-word cost of the selected candidates under the cost function
        used at encode time (each includes its auxiliary-bit cost).
    technique:
        Name of the encoder that produced this line.
    """

    codewords: Tuple[int, ...]
    auxes: Tuple[int, ...]
    aux_bits: int
    costs: Tuple[float, ...]
    technique: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "codewords", tuple(map(int, self.codewords)))
        object.__setattr__(self, "auxes", tuple(map(int, self.auxes)))
        object.__setattr__(self, "costs", tuple(map(float, self.costs)))
        if not (len(self.codewords) == len(self.auxes) == len(self.costs)):
            raise ConfigurationError(
                "codewords, auxes, and costs must have one entry per word"
            )
        if not self.codewords:
            raise ConfigurationError("an encoded line must hold at least one word")
        if self.aux_bits < 0:
            raise ConfigurationError("aux_bits must be non-negative")
        limit = 1 << self.aux_bits
        for aux in self.auxes:
            if aux < 0 or aux >= limit:
                raise ConfigurationError(
                    f"aux value {aux} does not fit in {self.aux_bits} bits"
                )

    @property
    def words_per_line(self) -> int:
        """Number of words in the line."""
        return len(self.codewords)

    @property
    def cost(self) -> float:
        """Total cost of the line (sum of the per-word costs)."""
        return float(sum(self.costs))

    def word(self, word_index: int) -> EncodedWord:
        """The :class:`EncodedWord` view of one word of the line."""
        return EncodedWord(
            codeword=self.codewords[word_index],
            aux=self.auxes[word_index],
            aux_bits=self.aux_bits,
            cost=self.costs[word_index],
            technique=self.technique,
        )

    @classmethod
    def from_words(cls, words: Sequence[EncodedWord]) -> "EncodedLine":
        """Gather per-word encode results into a line result."""
        if not words:
            raise ConfigurationError("an encoded line must hold at least one word")
        return cls(
            codewords=tuple(w.codeword for w in words),
            auxes=tuple(w.aux for w in words),
            aux_bits=words[0].aux_bits,
            costs=tuple(w.cost for w in words),
            technique=words[0].technique,
        )


@dataclass(frozen=True)
class EncodedBatch:
    """Result of encoding a batch of lines, as arrays.

    Attributes
    ----------
    codewords:
        ``(lines, words)`` values to store in the data cells (``uint64``,
        or Python ints for words wider than 64 bits).
    auxes:
        ``(lines, words)`` auxiliary values (``int64``, or Python ints for
        64 and more auxiliary bits per word).
    costs:
        ``(lines, words)`` float64 cost of each selected candidate under
        the cost function used at encode time (auxiliary bits included).
    aux_bits:
        Number of auxiliary bits per word used by the technique.
    technique:
        Name of the encoder that produced the batch.

    ``len(batch)`` is the number of lines; indexing and iteration give
    the :class:`EncodedLine` of each line.
    """

    codewords: np.ndarray
    auxes: np.ndarray
    costs: np.ndarray
    aux_bits: int
    technique: str

    def __post_init__(self) -> None:
        shape = np.shape(self.codewords)
        if len(shape) != 2 or 0 in shape:
            raise ConfigurationError("an encoded batch needs a non-empty (lines, words) shape")
        if np.shape(self.auxes) != shape or np.shape(self.costs) != shape:
            raise ConfigurationError(
                "codewords, auxes, and costs must have one entry per word of each line"
            )
        if self.aux_bits < 0:
            raise ConfigurationError("aux_bits must be non-negative")
        low, high = int(self.auxes.min()), int(self.auxes.max())
        if low < 0 or high >= (1 << self.aux_bits):
            bad = low if low < 0 else high
            raise ConfigurationError(f"aux value {bad} does not fit in {self.aux_bits} bits")

    def __len__(self) -> int:
        return len(self.codewords)

    def __getitem__(self, line: int) -> EncodedLine:
        return EncodedLine(
            codewords=self.codewords[line].tolist(),
            auxes=self.auxes[line].tolist(),
            aux_bits=self.aux_bits,
            costs=self.costs[line].tolist(),
            technique=self.technique,
        )

    def __iter__(self) -> Iterator[EncodedLine]:
        return (self[line] for line in range(len(self)))

    @classmethod
    def from_lines(cls, lines: Sequence[EncodedLine]) -> "EncodedBatch":
        """Stack per-line encode results into a batch."""
        if not lines:
            raise ConfigurationError("an encoded batch must hold at least one line")
        return cls(
            codewords=_int_matrix([line.codewords for line in lines], np.uint64),
            auxes=_int_matrix([line.auxes for line in lines], np.int64),
            costs=np.array([line.costs for line in lines], dtype=np.float64),
            aux_bits=lines[0].aux_bits,
            technique=lines[0].technique,
        )


class Encoder(abc.ABC):
    """Common interface of every write-encoding technique.

    Concrete encoders are constructed with a word width, a cell technology,
    and a :class:`repro.coding.cost.CostFunction`; ``encode`` then selects
    the candidate codeword minimising that cost for each write.
    """

    #: Human-readable technique name (overridden by subclasses).
    name: str = "encoder"

    #: True when the encoder always stores the data word unchanged with no
    #: auxiliary bits, regardless of context (the unencoded baseline).
    #: Batch drivers use this to skip the per-write encode call entirely —
    #: the stored values and every accounting number are unaffected.
    is_identity: bool = False

    def __init__(self, word_bits: int, technology: CellTechnology, cost_function) -> None:
        if word_bits <= 0:
            raise ConfigurationError("word_bits must be positive")
        if word_bits % technology.bits_per_cell != 0:
            raise ConfigurationError("word_bits must hold an integer number of cells")
        self.word_bits = word_bits
        self.technology = technology
        self.bits_per_cell = technology.bits_per_cell
        self.cells_per_word = word_bits // self.bits_per_cell
        self.cost_function = cost_function

    # ------------------------------------------------------------ interface
    @property
    @abc.abstractmethod
    def aux_bits(self) -> int:
        """Number of auxiliary bits stored alongside each codeword."""

    @abc.abstractmethod
    def encode(self, data: int, context: WordContext) -> EncodedWord:
        """Encode ``data`` for the location described by ``context``."""

    @abc.abstractmethod
    def decode(self, codeword: int, aux: int) -> int:
        """Recover the original data from ``codeword`` and its aux bits."""

    # ---------------------------------------------------------- line batch
    def encode_line(self, words: Sequence[int], context: LineContext) -> EncodedLine:
        """Encode a whole cache line: :meth:`encode_lines` on one line."""
        return self.encode_lines([words], [context])[0]

    def encode_line_scalar(self, words: Sequence[int], context: LineContext) -> EncodedLine:
        """Reference word-at-a-time encoding of one line through :meth:`encode`.

        Kept callable on every encoder so parity tests and benchmarks can
        compare the vectorised :meth:`encode_lines` kernel against the
        paper's word-level algorithm directly.
        """
        self._check_line_context(context, len(words))
        return EncodedLine.from_words(
            [
                self.encode(int(word), context.word_context(index))
                for index, word in enumerate(words)
            ]
        )

    def decode_line(self, codewords: Sequence[int], auxes: Sequence[int]) -> List[int]:
        """Recover the line's data words from codewords and auxiliary bits."""
        codewords = list(codewords)
        auxes = list(auxes)
        if len(codewords) != len(auxes):
            raise EncodingError("decode_line needs one aux value per codeword")
        return [self.decode(int(c), int(a)) for c, a in zip(codewords, auxes)]

    # ----------------------------------------------------- multi-line batch
    def encode_lines(
        self, words_matrix: WordsMatrix, contexts: LineContexts
    ) -> EncodedBatch:
        """Encode a chunk of queued line writes in one call.

        ``words_matrix`` is a ``(lines, words_per_line)`` matrix of data
        words (an integer ndarray or a sequence of per-line sequences) and
        ``contexts`` describes the target rows: a :class:`LineBatch`, or
        one :class:`LineContext` per line, which is stacked into a batch
        once.  The base implementation is the reference loop over
        :meth:`encode_line_scalar`, so any third-party encoder works on the
        multi-line path unchanged; every builtin technique overrides it
        with one vectorised kernel scored from the cost function's
        transition tables.  Results are bit-identical to encoding each
        word through :meth:`encode` — the memory controller's replay waves
        rely on that contract.
        """
        rows = self._line_batch_rows(words_matrix, contexts)
        batch = self._checked_batch(contexts, len(rows[0]))
        _OBS_FALLBACK_LINES.inc(len(batch))
        return EncodedBatch.from_lines(
            [
                self.encode_line_scalar(words, batch.line_context(line))
                for line, words in enumerate(rows)
            ]
        )

    # ------------------------------------------------------------- helpers
    def _check_data(self, data: int) -> None:
        if data < 0 or data >= (1 << self.word_bits):
            raise EncodingError(
                f"data word {data:#x} does not fit in {self.word_bits} bits"
            )

    def _check_context(self, context: WordContext) -> None:
        if context.word_bits != self.word_bits or context.bits_per_cell != self.bits_per_cell:
            raise EncodingError(
                "context geometry does not match the encoder "
                f"(context: {context.word_bits} bits / {context.bits_per_cell} bpc, "
                f"encoder: {self.word_bits} bits / {self.bits_per_cell} bpc)"
            )

    def _check_line_context(
        self, context: Union[LineContext, LineBatch], num_words: int
    ) -> None:
        if context.word_bits != self.word_bits or context.bits_per_cell != self.bits_per_cell:
            raise EncodingError(
                "line context geometry does not match the encoder "
                f"(context: {context.word_bits} bits / {context.bits_per_cell} bpc, "
                f"encoder: {self.word_bits} bits / {self.bits_per_cell} bpc)"
            )
        if context.words_per_line != num_words:
            raise EncodingError(
                f"line context covers {context.words_per_line} words, "
                f"but {num_words} words were supplied"
            )

    def _line_batch_rows(
        self, words_matrix: WordsMatrix, contexts: LineContexts
    ) -> List[List[int]]:
        """Normalise a multi-line word matrix to per-line Python-int lists."""
        if isinstance(words_matrix, np.ndarray) and words_matrix.ndim != 2:
            raise EncodingError(
                "encode_lines expects a (lines, words_per_line) word matrix"
            )
        rows = [[int(word) for word in row] for row in words_matrix]
        if not rows:
            raise EncodingError("encode_lines needs at least one line")
        if len(rows) != len(contexts):
            raise EncodingError(
                f"encode_lines got {len(rows)} lines but {len(contexts)} contexts"
            )
        return rows

    def _checked_batch(self, contexts: LineContexts, num_words: int) -> LineBatch:
        """The contexts as one :class:`LineBatch`, checked against the encoder.

        A batch is checked once; a sequence of contexts is checked line by
        line (so a mismatching line is named by its own geometry) and then
        stacked.
        """
        if isinstance(contexts, LineBatch):
            self._check_line_context(contexts, num_words)
            return contexts
        for context in contexts:
            self._check_line_context(context, num_words)
        return LineBatch.from_contexts(contexts)

    def _line_batch(
        self, words_matrix: WordsMatrix, contexts: LineContexts
    ) -> Tuple[np.ndarray, LineBatch]:
        """Validate a multi-line batch; return its words as uint64 and its contexts.

        Every builtin ``encode_lines`` kernel reads its inputs through this
        helper.  Python ints and signed arrays are range-checked before the
        uint64 conversion, which would otherwise overflow or silently wrap
        negative and over-wide words.
        """
        if isinstance(words_matrix, np.ndarray) and words_matrix.dtype.kind in "ui":
            if words_matrix.dtype.kind == "i" and bool((words_matrix < 0).any()):
                bad = int(words_matrix[words_matrix < 0].flat[0])
                raise EncodingError(f"data word {bad} does not fit in {self.word_bits} bits")
            values = np.asarray(words_matrix, dtype=np.uint64)
        else:
            raw = np.asarray(words_matrix, dtype=object)
            for word in raw.flat if raw.ndim == 2 else ():
                self._check_data(int(word))
            values = raw.astype(np.uint64) if raw.ndim == 2 else raw
        if values.ndim != 2 or values.size == 0:
            raise EncodingError(
                "encode_lines expects a non-empty (lines, words_per_line) word matrix"
            )
        if len(contexts) != values.shape[0]:
            raise EncodingError(
                f"encode_lines got {values.shape[0]} lines but {len(contexts)} contexts"
            )
        if self.word_bits < 64 and bool((values >> np.uint64(self.word_bits)).any()):
            bad = values[(values >> np.uint64(self.word_bits)) != 0].flat[0]
            raise EncodingError(
                f"data word {int(bad):#x} does not fit in {self.word_bits} bits"
            )
        return values, self._checked_batch(contexts, values.shape[1])

    def _select_best(self, candidates, auxes, context: WordContext) -> EncodedWord:
        """Pick the lowest-cost candidate from parallel candidate/aux lists."""
        if len(candidates) != len(auxes) or not candidates:
            raise EncodingError("candidate and aux lists must be non-empty and equal length")
        matrix = words_to_cell_matrix(candidates, self.word_bits, self.bits_per_cell)
        cell_costs = self.cost_function.cell_costs_matrix(matrix, context)
        totals = cell_costs.sum(axis=1)
        totals = totals + np.array(
            [
                self.cost_function.aux_cost(aux, context.old_aux, self.aux_bits)
                for aux in auxes
            ]
        )
        best = int(np.argmin(totals))
        return EncodedWord(
            codeword=int(candidates[best]),
            aux=int(auxes[best]),
            aux_bits=self.aux_bits,
            cost=float(totals[best]),
            technique=self.name,
        )

    def _select_best_lines(
        self,
        candidates: np.ndarray,
        auxes: np.ndarray,
        batch: LineBatch,
        tables: np.ndarray,
        cells: Optional[np.ndarray] = None,
    ) -> EncodedBatch:
        """Vectorised per-word argmin over a ``(lines, candidates, words)`` batch.

        One gather from the cost function's transition tables scores every
        candidate of every word of every line; the selected codewords,
        auxiliary values, and costs are bit-identical to :meth:`_select_best`
        per word.

        Parameters
        ----------
        candidates:
            ``(lines, num_candidates, words)`` candidate codeword values.
        auxes:
            ``(num_candidates,)`` auxiliary values shared by all words.
        batch:
            The lines' contexts; ``old_auxes`` is charged per word.
        tables:
            ``cost_function.transition_tables(batch)``, built once by the
            caller.
        cells:
            Optional precomputed ``(lines, num_candidates, words, cells)``
            candidate cell values.
        """
        cand = np.asarray(candidates, dtype=np.uint64)
        if cand.ndim != 3 or cand.size == 0:
            raise EncodingError(
                "candidates must form a non-empty (lines, candidates, words) batch"
            )
        lines, num_candidates, words = cand.shape
        aux = np.asarray(auxes, dtype=np.int64)
        if aux.shape != (num_candidates,):
            raise EncodingError("aux values must align with the candidate axis")
        if cells is None:
            cells = words_matrix_to_cells(cand, self.word_bits, self.bits_per_cell)
        data_costs = self.cost_function.gather_costs(tables, cells).sum(axis=3)
        _OBS_CANDIDATES.inc(lines * num_candidates)
        aux_costs = self.cost_function.aux_costs_matrix(
            np.broadcast_to(aux[:, None], (num_candidates, lines * words)),
            batch.old_auxes.reshape(lines * words),
            self.aux_bits,
        )
        totals = data_costs + aux_costs.reshape(num_candidates, lines, words).transpose(1, 0, 2)
        best = np.argmin(totals, axis=1)
        line_index = np.arange(lines)[:, None]
        word_index = np.arange(words)[None, :]
        return EncodedBatch(
            codewords=cand[line_index, best, word_index],
            auxes=aux[best],
            costs=totals[line_index, best, word_index],
            aux_bits=self.aux_bits,
            technique=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.__class__.__name__}(word_bits={self.word_bits}, "
            f"technology={self.technology.value}, aux_bits={self.aux_bits})"
        )
