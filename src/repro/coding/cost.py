"""Cost functions used to select among candidate codewords.

Every encoder in this repository optimises a :class:`CostFunction`.  The
paper exercises several:

* minimising written '1's (:class:`OnesCost`, the running example of
  Fig. 3, relevant when the old contents are unknown or all-zero);
* minimising changed bits (:class:`BitChangeCost`) or changed cells
  (:class:`CellChangeCost`), the classic Flip-N-Write objective;
* minimising MLC/SLC write energy against the current cell contents
  (:class:`EnergyCost`, Table I);
* minimising stuck-at-wrong cells (:class:`SawCost`);
* lexicographic combinations — "optimise energy first, SAW second" and
  vice versa — via :class:`LexicographicCost` (Section VI-B).

The cost of a data cell depends only on that cell's new value and its
write-time context (old value, stuck flag), so a cost is defined by one
per-cell transition table, :meth:`CostFunction.cell_table`: entry ``[...,
c, v]`` is the cost of writing value ``v`` to cell ``c``.  The base class
derives every scorer from it:

* :meth:`CostFunction.transition_tables` builds the table rows of the few
  possible (old value, stuck) cell states once and gathers them for every
  cell of a batch of line contexts;
* :meth:`CostFunction.gather_costs` scores materialised candidate cells
  with one gather from those tables;
* :meth:`CostFunction.cell_costs_matrix` (and the ``cell_costs`` /
  ``word_cost`` wrappers) scores the candidates of one word, the path the
  word-level ``encode`` oracles take.

Encoders whose candidates are the data XORed with fixed masks (RCC cosets,
VCC kernels) go one step further with :func:`xor_candidate_costs`: when
the table entries are small integers (:func:`sums_exactly`, true of every
builtin cost) a candidate's cost is a 0/1 dot product, so all candidates
are scored by one matrix product with results bit-identical to the gather.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.coding.base import LineContext, WordContext
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.pcm.energy import MLCEnergyModel, SLCEnergyModel, DEFAULT_MLC_ENERGY, DEFAULT_SLC_ENERGY
from repro.utils.bitops import popcount64_array

__all__ = [
    "CostFunction",
    "OnesCost",
    "BitChangeCost",
    "CellChangeCost",
    "EnergyCost",
    "SawCost",
    "LexicographicCost",
    "saw_then_energy",
    "energy_then_saw",
    "sums_exactly",
    "xor_candidate_costs",
    "xor_one_hot",
]

#: Popcount of every possible cell value (cells hold at most 2 bits).
_CELL_POPCOUNT = np.array([0, 1, 1, 2], dtype=np.float64)


def _levels(bits_per_cell: int) -> np.ndarray:
    """The cell values ``0 .. 2**bits_per_cell - 1``, for table broadcasts."""
    return np.arange(1 << bits_per_cell, dtype=np.uint8)


def sums_exactly(tables: np.ndarray, cells: int) -> bool:
    """True when any sum of ``cells`` entries of ``tables`` is exact in float64.

    Holds when every entry is a finite integer and ``max|entry| * cells <
    2**53``: every partial sum is then an integer float64 represents
    exactly, so the total is the same in any summation order.
    """
    values = np.asarray(tables, dtype=np.float64)
    # A NaN or infinite entry makes the largest magnitude fail the bound.
    largest = float(np.abs(values).max(initial=0.0))
    return largest * cells < 2.0**53 and bool(np.array_equal(values, np.trunc(values)))


def xor_one_hot(masks: np.ndarray, levels: int) -> np.ndarray:
    """The 0/1 operand :func:`xor_candidate_costs` multiplies by.

    ``masks`` of shape ``(..., K, C)`` gives a float64 ``(..., K, C *
    levels)`` array whose entry ``[..., k, c * levels + v]`` is 1 exactly
    when ``masks[..., k, c] == v``.
    """
    masks = np.asarray(masks, dtype=np.intp)
    # Row-gathering an identity matrix beats comparing against every
    # level, whose broadcast inner loop is only ``levels`` long.
    one_hot = np.take(np.eye(levels), masks, axis=0)
    return one_hot.reshape(*masks.shape[:-1], masks.shape[-1] * levels)


def xor_candidate_costs(
    tables: np.ndarray,
    data_cells: np.ndarray,
    masks: np.ndarray,
    one_hot: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Costs of XOR-mask candidates, ``sum_c tables[r, c, data[r, c] ^ masks[k, c]]``.

    ``tables`` is ``(rows, C, levels)`` (one transition table per scored
    cell group), ``data_cells`` the ``(rows, C)`` data cells, and the
    result is ``(rows, K)``.  Folding the data into the table
    (``F[r, c, v] = tables[r, c, v ^ data[r, c]]``) leaves a candidate's
    cost a dot product of ``F[r]`` with the one-hot of its mask cells, so
    every candidate of every row is one matrix product:

    * shared masks ``(K, C)`` score all rows with one 2-D GEMM; pass
      ``one_hot=xor_one_hot(masks, levels)`` to build that operand once;
    * grouped masks ``(G, K, C)`` split the rows into ``G`` equal
      consecutive blocks, block ``g`` scored against ``masks[g]`` by a
      batched ``np.matmul`` (``G == rows`` gives per-row masks).

    The products are exact only when :func:`sums_exactly` holds for the
    tables; callers check that first and otherwise materialise the
    candidates.  Under it the result is bit-identical to gathering each
    candidate's cells and summing them.
    """
    rows, cells, levels = tables.shape
    if one_hot is None:
        # Fold and multiply only the mask values that occur (e.g. the 0/1
        # right-digit masks of right-plane VCC on 4-level cells).
        used = int(masks.max()) + 1
        one_hot = xor_one_hot(masks, used)
    else:
        used = one_hot.shape[-1] // cells
    # Fold level-major, so the index arithmetic and the gather run along
    # the long rows * cells axis rather than the short level axis.
    index = (np.arange(used, dtype=np.uint8)[:, None] ^ data_cells.reshape(1, -1)).astype(np.intp)
    index += np.arange(0, rows * cells * levels, levels, dtype=np.intp)
    folded = np.take(tables.reshape(-1), index).astype(np.float64, copy=False)
    folded = folded.reshape(used, rows, cells)
    scores: np.ndarray
    if masks.ndim == 2:
        scores = folded.transpose(1, 2, 0).reshape(rows, cells * used) @ one_hot.T
    else:
        groups = masks.shape[0]
        # (G, K, C*used) @ (G, C*used, R) with both operands contiguous.
        features = folded.reshape(used, groups, rows // groups, cells).transpose(1, 3, 0, 2)
        scores = np.matmul(
            one_hot, features.reshape(groups, cells * used, rows // groups)
        ).transpose(0, 2, 1).reshape(rows, masks.shape[1])
    return scores


class CostFunction(abc.ABC):
    """Scores candidate cell values against the write-time context.

    A cost is defined by its per-cell transition table
    (:meth:`cell_table`); every data-cell score — a word's candidates, a
    batch of materialised candidate lines, or an XOR-mask GEMM — is read
    from that table.
    """

    #: Short name used in result tables.
    name: str = "cost"

    @abc.abstractmethod
    def cell_table(
        self, old_cells: np.ndarray, stuck_mask: Optional[np.ndarray], bits_per_cell: int
    ) -> np.ndarray:
        """Per-cell write-cost table.

        A cell's row may depend only on that cell's old value and stuck
        flag (:meth:`transition_tables` builds one row per such state and
        gathers them).

        Parameters
        ----------
        old_cells:
            ``(..., C)`` uint8 array of the current cell values.
        stuck_mask:
            Boolean array aligned with ``old_cells`` (True marks a cell
            stuck at its old value), or None when no fault information is
            known.
        bits_per_cell:
            1 for SLC, 2 for MLC.

        Returns
        -------
        numpy.ndarray
            A fresh float64 ``(..., C, levels)`` array, ``levels = 2 **
            bits_per_cell``, whose entry ``[..., c, v]`` is the cost of
            writing value ``v`` to cell ``c``.
        """

    def transition_tables(self, contexts: Sequence[LineContext]) -> np.ndarray:
        """The ``(lines, words, cells, levels)`` tables of a batch of lines.

        Entry ``[l, w, c, v]`` is the cost of writing value ``v`` to cell
        ``c`` of word ``w`` of line ``l``.
        """
        bits_per_cell = contexts[0].bits_per_cell
        levels = 1 << bits_per_cell
        old = np.stack([context.old_cells for context in contexts])
        if all(context.stuck_mask is None for context in contexts):
            rows = self.cell_table(np.arange(levels, dtype=np.uint8), None, bits_per_cell)
            return np.take(rows, old, axis=0)
        stuck = np.stack(
            [
                context.stuck_mask
                if context.stuck_mask is not None
                else np.zeros_like(context.old_cells, dtype=bool)
                for context in contexts
            ]
        )
        # A cell's table row depends only on its (stuck, old) state, so the
        # rows of the 2 * levels states are built once and gathered.
        states = np.arange(2 * levels, dtype=np.uint8)
        rows = self.cell_table(states % levels, states >= levels, bits_per_cell)
        return np.take(rows, old | (stuck.astype(np.uint8) << bits_per_cell), axis=0)

    @staticmethod
    def gather_costs(tables: np.ndarray, new_cells: np.ndarray) -> np.ndarray:
        """Per-cell costs of a ``(lines, candidates, words, cells)`` batch.

        ``tables`` is a ``(lines, words, cells, levels)`` output of
        :meth:`transition_tables`; entry ``[l, k, w, c]`` of the result is
        ``tables[l, w, c, new_cells[l, k, w, c]]``.
        """
        lines, words, cells, levels = tables.shape
        base = np.arange(lines * words * cells, dtype=np.intp).reshape(lines, 1, words, cells)
        base *= levels
        # A flat 1-D take hits numpy's fast contiguous-gather path.
        return np.take(tables.reshape(-1), (base + new_cells).ravel()).reshape(new_cells.shape)

    def cell_costs_matrix(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        """Per-cell costs for a batch of candidates.

        Parameters
        ----------
        new_cells:
            ``(num_candidates, num_cells)`` array of candidate cell values.
        context:
            The write-time context (old cell values, stuck mask).  Only the
            last ``num_cells`` entries of the context are used when the
            candidate covers a sub-block rather than a whole word; callers
            slice the context themselves via :meth:`slice_context`.
        """
        new = np.asarray(new_cells, dtype=np.uint8)
        cells = new.shape[1]
        stuck = None if context.stuck_mask is None else context.stuck_mask[-cells:]
        table = self.cell_table(context.old_cells[-cells:], stuck, context.bits_per_cell)
        return self.gather_costs(table[None, None], new[None, :, None, :])[0, :, 0]

    def cell_costs(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        """Per-cell costs for a single candidate (1-D convenience wrapper)."""
        new_cells = np.asarray(new_cells, dtype=np.uint8)
        return self.cell_costs_matrix(new_cells[None, :], context)[0]

    def word_cost(self, new_cells: np.ndarray, context: WordContext) -> float:
        """Total data-cell cost of a single candidate."""
        return float(self.cell_costs(new_cells, context).sum())

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        """Cost of storing the auxiliary bits.

        The default charges the Hamming weight of the auxiliary value,
        matching line 19 of Algorithm 1 (the paper's ones-minimisation
        example); subclasses override this to charge bit changes or energy.
        """
        del old_aux, aux_bits
        return float(bin(new_aux).count("1"))

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        """Auxiliary-bit costs for a ``(candidates, words)`` batch.

        ``old_auxes`` holds one previous value per word and broadcasts
        against the candidate axis.  The default loops over
        :meth:`aux_cost` so subclasses that only override the scalar hook
        stay correct; builtins override this with vectorised popcounts.
        """
        new = np.asarray(new_auxes, dtype=np.int64)
        old = np.broadcast_to(np.asarray(old_auxes, dtype=np.int64), new.shape[-1:])
        out = np.empty(new.shape, dtype=np.float64)
        for position in np.ndindex(new.shape):
            out[position] = self.aux_cost(int(new[position]), int(old[position[-1]]), aux_bits)
        return out

    @staticmethod
    def slice_context(context: WordContext, start: int, stop: int) -> WordContext:
        """Restrict a context to the cells ``[start, stop)`` of the word."""
        stuck = context.stuck_mask[start:stop] if context.stuck_mask is not None else None
        return WordContext(
            old_cells=context.old_cells[start:stop],
            stuck_mask=stuck,
            bits_per_cell=context.bits_per_cell,
            old_aux=context.old_aux,
        )


def _changed_aux_bits(new_auxes: np.ndarray, old_auxes: np.ndarray) -> np.ndarray:
    """Vectorised popcount of ``new ^ old`` over a (candidates, words) batch."""
    new = np.asarray(new_auxes)
    old = np.broadcast_to(np.asarray(old_auxes, dtype=np.uint64), new.shape[-1:])
    # One uint64 block for the xor (no converted copy of ``new``), freed
    # as soon as it is counted.
    counts = popcount64_array(np.bitwise_xor(new, old, dtype=np.uint64, casting="unsafe"))
    return counts.astype(np.float64)


class OnesCost(CostFunction):
    """Number of '1' bits written (the Fig. 3 objective)."""

    name = "ones"

    def cell_table(
        self, old_cells: np.ndarray, stuck_mask: Optional[np.ndarray], bits_per_cell: int
    ) -> np.ndarray:
        del stuck_mask
        popcounts = _CELL_POPCOUNT[: 1 << bits_per_cell]
        return np.broadcast_to(popcounts, old_cells.shape + popcounts.shape).copy()

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del old_auxes, aux_bits
        return popcount64_array(np.asarray(new_auxes, dtype=np.uint64)).astype(np.float64)


class BitChangeCost(CostFunction):
    """Number of bits that differ from the current cell contents."""

    name = "bit-changes"

    def cell_table(
        self, old_cells: np.ndarray, stuck_mask: Optional[np.ndarray], bits_per_cell: int
    ) -> np.ndarray:
        del stuck_mask
        return _CELL_POPCOUNT[old_cells[..., None] ^ _levels(bits_per_cell)]

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        del aux_bits
        return float(bin(new_aux ^ old_aux).count("1"))

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del aux_bits
        return _changed_aux_bits(new_auxes, old_auxes)


class CellChangeCost(CostFunction):
    """Number of cells (symbols) that must be reprogrammed."""

    name = "cell-changes"

    def cell_table(
        self, old_cells: np.ndarray, stuck_mask: Optional[np.ndarray], bits_per_cell: int
    ) -> np.ndarray:
        del stuck_mask
        return (old_cells[..., None] != _levels(bits_per_cell)).astype(np.float64)

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        del aux_bits
        return float(bin(new_aux ^ old_aux).count("1"))

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del aux_bits
        return _changed_aux_bits(new_auxes, old_auxes)


class EnergyCost(CostFunction):
    """Write energy of the transition from the current to the new cell values."""

    name = "energy"

    def __init__(
        self,
        technology: CellTechnology = CellTechnology.MLC,
        mlc_model: MLCEnergyModel = DEFAULT_MLC_ENERGY,
        slc_model: SLCEnergyModel = DEFAULT_SLC_ENERGY,
    ):
        self.technology = technology
        self.mlc_model = mlc_model
        self.slc_model = slc_model
        if technology is CellTechnology.MLC:
            self._lut = mlc_model.lut()
            self._aux_bit_energy = mlc_model.aux_bit_energy_pj
        else:
            self._lut = np.array(
                [
                    [0.0, slc_model.set_energy_pj],
                    [slc_model.reset_energy_pj, 0.0],
                ]
            )
            self._aux_bit_energy = slc_model.aux_bit_energy_pj

    def cell_table(
        self, old_cells: np.ndarray, stuck_mask: Optional[np.ndarray], bits_per_cell: int
    ) -> np.ndarray:
        del stuck_mask
        if bits_per_cell != self.technology.bits_per_cell:
            raise ConfigurationError(
                "EnergyCost technology does not match the context's cell technology"
            )
        # Row ``old`` of the (old, new) LUT is the table of a cell at ``old``.
        return self._lut[old_cells]

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        del aux_bits
        changed = bin(new_aux ^ old_aux).count("1")
        return changed * self._aux_bit_energy

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del aux_bits
        costs = _changed_aux_bits(new_auxes, old_auxes)
        costs *= self._aux_bit_energy
        return costs


class SawCost(CostFunction):
    """Number of stuck cells whose intended value differs from the stuck value.

    A location without fault information (``context.stuck_mask is None``)
    costs zero everywhere, so SAW-aware optimisation degrades gracefully to
    a no-op on healthy rows.
    """

    name = "saw"

    def cell_table(
        self, old_cells: np.ndarray, stuck_mask: Optional[np.ndarray], bits_per_cell: int
    ) -> np.ndarray:
        levels = _levels(bits_per_cell)
        if stuck_mask is None:
            return np.zeros(old_cells.shape + levels.shape, dtype=np.float64)
        mismatch = (old_cells[..., None] != levels) & stuck_mask[..., None]
        return mismatch.astype(np.float64)

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        del new_aux, old_aux, aux_bits
        return 0.0

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del old_auxes, aux_bits
        return np.zeros(np.asarray(new_auxes).shape, dtype=np.float64)


class LexicographicCost(CostFunction):
    """Combine two cost functions lexicographically (primary, then secondary).

    The combination is realised as ``primary * scale + secondary`` with a
    ``scale`` chosen large enough that any difference in the primary
    objective dominates every achievable secondary cost.  The default scale
    of 1e6 comfortably exceeds the worst-case per-word energy or bit count.
    """

    def __init__(self, primary: CostFunction, secondary: CostFunction, scale: float = 1.0e6):
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        self.primary = primary
        self.secondary = secondary
        self.scale = scale
        self.name = f"{primary.name}>{secondary.name}"

    def cell_table(
        self, old_cells: np.ndarray, stuck_mask: Optional[np.ndarray], bits_per_cell: int
    ) -> np.ndarray:
        table = self.primary.cell_table(old_cells, stuck_mask, bits_per_cell)
        table *= self.scale
        table += self.secondary.cell_table(old_cells, stuck_mask, bits_per_cell)
        return table

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        return (
            self.primary.aux_cost(new_aux, old_aux, aux_bits) * self.scale
            + self.secondary.aux_cost(new_aux, old_aux, aux_bits)
        )

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        # Secondary first: its temporaries are gone before the primary's
        # (often all-zero) block is allocated.
        secondary = self.secondary.aux_costs_matrix(new_auxes, old_auxes, aux_bits)
        primary = self.primary.aux_costs_matrix(new_auxes, old_auxes, aux_bits)
        if not primary.any():
            # 0 * scale + x == x bit-for-bit, so an all-zero primary (e.g.
            # SawCost, which never charges auxiliary bits) short-circuits
            # the scale-multiply-accumulate over the candidate matrix.
            return secondary
        return primary * self.scale + secondary


def saw_then_energy(
    technology: CellTechnology = CellTechnology.MLC,
    mlc_model: MLCEnergyModel = DEFAULT_MLC_ENERGY,
    slc_model: SLCEnergyModel = DEFAULT_SLC_ENERGY,
) -> LexicographicCost:
    """The paper's "Opt. SAW" objective: SAW cells first, energy second."""
    return LexicographicCost(
        SawCost(), EnergyCost(technology, mlc_model=mlc_model, slc_model=slc_model)
    )


def energy_then_saw(
    technology: CellTechnology = CellTechnology.MLC,
    mlc_model: MLCEnergyModel = DEFAULT_MLC_ENERGY,
    slc_model: SLCEnergyModel = DEFAULT_SLC_ENERGY,
) -> LexicographicCost:
    """The paper's "Opt. Energy" objective: energy first, SAW cells second."""
    return LexicographicCost(
        EnergyCost(technology, mlc_model=mlc_model, slc_model=slc_model), SawCost()
    )
