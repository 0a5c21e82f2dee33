"""Flip-N-Write (FNW): per-partition conditional inversion.

FNW divides the data word into ``partitions`` equal sub-blocks and writes
each either directly or bitwise inverted, whichever is cheaper under the
configured cost function, at the price of one auxiliary bit per partition.
In coset terms each partition uses the two biased candidates
``V0 = 0...0`` and ``V1 = 1...1``.

The classic formulation minimises changed bits; because this implementation
scores candidates through the shared cost-function interface it can just as
well minimise MLC write energy or stuck-at-wrong cells, which is how the
DBI/FNW baseline is driven in the lifetime experiments (Figs. 11/12).
"""

from __future__ import annotations

import numpy as np

from repro.coding.base import (
    _OBS_CANDIDATES,
    EncodedBatch,
    EncodedWord,
    Encoder,
    LineContexts,
    WordContext,
    WordsMatrix,
    words_matrix_to_cells,
    words_to_cell_matrix,
)
from repro.coding.cost import BitChangeCost, CostFunction
from repro.coding.registry import register_encoder
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.utils.validation import require, require_divisible

__all__ = ["FNWEncoder"]

@register_encoder(
    "fnw",
    aliases=("dbi/fnw",),
    description="Flip-N-Write over 16-bit sub-blocks (the paper's DBI/FNW baseline)",
    params=("word_bits", "technology", "cost_function"),
    defaults={"partitions": 4},
)
class FNWEncoder(Encoder):
    """Flip-N-Write with a configurable number of partitions.

    Parameters
    ----------
    word_bits:
        Width of the data word (64 in the paper's evaluation).
    partitions:
        Number of independently-invertible sub-blocks.  The paper's
        "DBI/FNW" baseline uses 16-bit sub-blocks, i.e. 4 partitions of a
        64-bit word.
    technology:
        Cell technology of the target memory.
    cost_function:
        Objective minimised when choosing direct vs. inverted.
    """

    name = "fnw"

    def __init__(
        self,
        word_bits: int = 64,
        partitions: int = 4,
        technology: CellTechnology = CellTechnology.MLC,
        cost_function: CostFunction = None,
    ):
        super().__init__(word_bits, technology, cost_function or BitChangeCost())
        require(partitions > 0, "partitions must be positive")
        require_divisible(word_bits, partitions, "word_bits must be divisible by partitions")
        self.partitions = partitions
        self.sub_bits = word_bits // partitions
        require_divisible(
            self.sub_bits, self.bits_per_cell, "partition width must hold whole cells"
        )
        self.cells_per_partition = self.sub_bits // self.bits_per_cell
        self._sub_mask = (1 << self.sub_bits) - 1

    @property
    def aux_bits(self) -> int:
        return self.partitions

    # ---------------------------------------------------------------- encode
    def encode(self, data: int, context: WordContext) -> EncodedWord:
        self._check_data(data)
        self._check_context(context)
        codeword = 0
        flags = 0
        total_cost = 0.0
        for index in range(self.partitions):
            shift = self.sub_bits * (self.partitions - 1 - index)
            sub = (data >> shift) & self._sub_mask
            inverted = sub ^ self._sub_mask
            start = index * self.cells_per_partition
            stop = start + self.cells_per_partition
            sub_context = self.cost_function.slice_context(context, start, stop)
            matrix = words_to_cell_matrix([sub, inverted], self.sub_bits, self.bits_per_cell)
            costs = self.cost_function.cell_costs_matrix(matrix, sub_context).sum(axis=1)
            if costs[1] < costs[0]:
                chosen, flag, cost = inverted, 1, costs[1]
            else:
                chosen, flag, cost = sub, 0, costs[0]
            codeword = (codeword << self.sub_bits) | chosen
            flags = (flags << 1) | flag
            total_cost += float(cost)
        total_cost += self.cost_function.aux_cost(flags, context.old_aux, self.aux_bits)
        return EncodedWord(
            codeword=codeword,
            aux=flags,
            aux_bits=self.aux_bits,
            cost=total_cost,
            technique=self.name,
        )

    def encode_lines(self, words_matrix: WordsMatrix, contexts: LineContexts) -> EncodedBatch:
        # One gather from the cost tables scores the direct and inverted
        # form of every partition of every word of every queued write.  The
        # kernel packs codewords and flag vectors into 64-bit lanes; wider
        # configurations use the reference loop.
        if self.word_bits > 64 or self.aux_bits >= 64:
            return super().encode_lines(words_matrix, contexts)
        values, batch = self._line_batch(words_matrix, contexts)
        lines, num_words = values.shape
        p = self.partitions
        sub_mask = np.uint64(self._sub_mask)
        shifts = np.array(
            [self.sub_bits * (p - 1 - j) for j in range(p)], dtype=np.uint64
        )
        subs = (values[:, :, None] >> shifts) & sub_mask
        subs_flat = subs.reshape(1, lines * num_words * p)
        candidates = np.stack([subs_flat, subs_flat ^ sub_mask], axis=1)
        cells = words_matrix_to_cells(candidates, self.sub_bits, self.bits_per_cell)
        # The batch views all lines as one stacked line of partitions:
        # partition j of word w of line l is row (l * words_per_line + w) * p
        # + j of the reshaped tables.
        tables = self.cost_function.transition_tables(batch).reshape(
            1, lines * num_words * p, self.cells_per_partition, -1
        )
        costs = (
            self.cost_function.gather_costs(tables, cells)
            .reshape(2, lines * num_words * p, -1)
            .sum(axis=2)
            .reshape(2, lines, num_words, p)
            .swapaxes(0, 1)
        )
        _OBS_CANDIDATES.inc(lines * 2)
        flags_matrix = costs[:, 1] < costs[:, 0]
        chosen_costs = np.where(flags_matrix, costs[:, 1], costs[:, 0])
        # Accumulate partitions left to right, matching the scalar loop's
        # float association exactly (bit-for-bit cost parity).
        totals = np.zeros((lines, num_words), dtype=np.float64)
        for j in range(p):
            totals += chosen_costs[:, :, j]
        chosen_subs = np.where(flags_matrix, subs ^ sub_mask, subs)
        codewords = np.zeros((lines, num_words), dtype=np.uint64)
        flags = np.zeros((lines, num_words), dtype=np.int64)
        for j in range(p):
            codewords |= chosen_subs[:, :, j] << shifts[j]
            flags = (flags << 1) | flags_matrix[:, :, j]
        totals += self.cost_function.aux_costs_matrix(
            flags.reshape(1, lines * num_words),
            batch.old_auxes.reshape(lines * num_words),
            self.aux_bits,
        )[0].reshape(lines, num_words)
        return EncodedBatch(
            codewords=codewords,
            auxes=flags,
            costs=totals,
            aux_bits=self.aux_bits,
            technique=self.name,
        )

    # ---------------------------------------------------------------- decode
    def decode(self, codeword: int, aux: int) -> int:
        if aux < 0 or aux >= (1 << self.partitions):
            raise ConfigurationError(
                f"aux value {aux} does not fit in {self.partitions} flag bits"
            )
        data = 0
        for index in range(self.partitions):
            shift = self.sub_bits * (self.partitions - 1 - index)
            sub = (codeword >> shift) & self._sub_mask
            flag = (aux >> (self.partitions - 1 - index)) & 1
            if flag:
                sub ^= self._sub_mask
            data = (data << self.sub_bits) | sub
        return data
