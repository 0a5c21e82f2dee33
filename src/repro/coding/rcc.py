"""Random Coset Coding (RCC) with stored full-length random cosets.

RCC(n, N) XORs the n-bit data block with each of N independent random
n-bit coset candidates, evaluates all N transformed blocks against the
cost function, and stores the cheapest along with a ``log2 N``-bit index.
The candidates are generated once (from a seed) and held in a ROM, exactly
like the hardware baseline the paper synthesises; decoding XORs the stored
candidate back out.

RCC is the quality ceiling the paper measures VCC against: it achieves the
best energy/SAW results but its encoder area, energy, and latency grow
linearly with N (Fig. 6), which is what motivates VCC.
"""

from __future__ import annotations

from typing import List, Optional

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
from repro.coding.cost import BitChangeCost, CostFunction, xor_candidate_costs, xor_one_hot
from repro.coding.registry import register_encoder
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.utils.bitops import random_word
from repro.utils.rng import make_rng
from repro.utils.validation import require_power_of_two

__all__ = ["RCCEncoder"]

@register_encoder(
    "rcc",
    description="Random coset coding with N stored full-length random cosets",
    params=("word_bits", "num_cosets", "technology", "cost_function", "seed"),
)
class RCCEncoder(Encoder):
    """Random coset coding with ``N`` stored random candidates.

    Parameters
    ----------
    word_bits:
        Width of the data block.
    num_cosets:
        Number of stored random coset candidates (power of two).  Candidate
        index 0 is forced to the all-zeros vector so RCC never does worse
        than the unencoded write on the chosen objective.
    technology:
        Target cell technology.
    cost_function:
        Objective minimised when selecting the candidate.
    seed:
        Seed used to generate the candidate ROM.
    """

    name = "rcc"

    def __init__(
        self,
        word_bits: int = 64,
        num_cosets: int = 256,
        technology: CellTechnology = CellTechnology.MLC,
        cost_function: CostFunction = None,
        seed: Optional[int] = 12345,
    ):
        super().__init__(word_bits, technology, cost_function or BitChangeCost())
        require_power_of_two(num_cosets, "num_cosets")
        if num_cosets < 2:
            raise ConfigurationError("RCC needs at least 2 coset candidates")
        self.num_cosets = num_cosets
        self.seed = seed
        rng = make_rng(seed, "rcc-cosets")
        cosets: List[int] = [0]
        seen = {0}
        while len(cosets) < num_cosets:
            candidate = random_word(rng, word_bits)
            if candidate in seen:
                continue
            seen.add(candidate)
            cosets.append(candidate)
        self.cosets: List[int] = cosets
        if word_bits <= 64:
            self._coset_array = np.array(cosets, dtype=np.uint64)
            # Cell decomposition distributes over XOR, so candidate cells
            # are data_cells ^ coset_cells — precompute the latter once.
            self._coset_cells = words_to_cell_matrix(
                cosets, word_bits, self.bits_per_cell
            )
            # The shared GEMM operand of the multi-line path, built once.
            self._coset_one_hot = xor_one_hot(self._coset_cells, 1 << self.bits_per_cell)
        else:
            self._coset_array = None
            self._coset_cells = None
            self._coset_one_hot = None

    @property
    def aux_bits(self) -> int:
        return self.num_cosets.bit_length() - 1

    def encode(self, data: int, context: WordContext) -> EncodedWord:
        self._check_data(data)
        self._check_context(context)
        candidates = [data ^ coset for coset in self.cosets]
        auxes = list(range(self.num_cosets))
        return self._select_best(candidates, auxes, context)

    def encode_lines(self, words_matrix: WordsMatrix, contexts: LineContexts) -> EncodedBatch:
        if self._coset_array is None:
            return super().encode_lines(words_matrix, contexts)
        values, batch = self._line_batch(words_matrix, contexts)
        lines, words = values.shape
        total_words = lines * words
        flat = values.reshape(total_words)
        auxes = np.arange(self.num_cosets, dtype=np.int64)
        data_cells = words_matrix_to_cells(flat, self.word_bits, self.bits_per_cell)
        tables = self.cost_function.transition_tables(batch)
        if not self.cost_function.sums_exactly(self.cells_per_word, self.bits_per_cell):
            # Tables whose sums float64 may round: materialise every
            # candidate cell and gather its cost from the tables.
            candidates = (
                (flat[None, :] ^ self._coset_array[:, None])
                .reshape(self.num_cosets, lines, words)
                .transpose(1, 0, 2)
            )
            candidate_cells = (
                data_cells.reshape(lines, 1, words, -1)
                ^ self._coset_cells[None, :, None, :]
            )
            return self._select_best_lines(
                candidates, auxes, batch, tables, cells=candidate_cells
            )
        # Exact path: every coset of every word is one GEMM against the
        # coset one-hot, with sums bit-identical to the gather's.
        totals = xor_candidate_costs(
            tables.reshape(total_words, self.cells_per_word, -1),
            data_cells,
            self._coset_cells,
            one_hot=self._coset_one_hot,
        )
        # A wave's peak memory is a few (words, cosets) float blocks, so
        # the tables go first and the aux costs are added in place.
        del tables
        _OBS_CANDIDATES.inc(lines * self.num_cosets)
        # Selection inline (the (words, cosets) layout of the GEMM path
        # saves transposing into _select_best_lines): totals, the argmin,
        # and the tie-breaking order are element-for-element those of
        # _select_best_lines, and only the winning candidates are built.
        totals += self.cost_function.aux_costs_matrix(
            np.broadcast_to(auxes[:, None], (self.num_cosets, total_words)),
            batch.old_auxes.reshape(total_words),
            self.aux_bits,
        ).T
        best = np.argmin(totals, axis=1)
        return EncodedBatch(
            codewords=(flat ^ self._coset_array[best]).reshape(lines, words),
            auxes=best.reshape(lines, words),
            costs=np.take_along_axis(totals, best[:, None], axis=1).reshape(lines, words),
            aux_bits=self.aux_bits,
            technique=self.name,
        )

    def decode(self, codeword: int, aux: int) -> int:
        if not 0 <= aux < self.num_cosets:
            raise ConfigurationError(
                f"coset index {aux} out of range [0, {self.num_cosets})"
            )
        return codeword ^ self.cosets[aux]
