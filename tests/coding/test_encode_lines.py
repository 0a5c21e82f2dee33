"""Multi-line batch encoding: encode_lines vs. the word-level reference.

The contract of :meth:`repro.coding.base.Encoder.encode_lines` is that the
returned codewords, auxiliary values, and costs are *bit-identical* to
calling :meth:`encode_line_scalar` (the loop over the word-level
:meth:`encode`) once per line — for every registry encoder,
both cell technologies, with stuck cells and non-trivial stored auxiliary
bits in play.  One layer down, every cost's transition tables and the
:meth:`repro.coding.cost.CostFunction.gather_costs` scores read from them
must equal the cost's elementwise definition.
"""

import numpy as np
import pytest

from repro.coding.base import EncodedWord, Encoder, LineContext
from repro.coding.cost import (
    BitChangeCost,
    CellChangeCost,
    EnergyCost,
    LexicographicCost,
    OnesCost,
    SawCost,
    energy_then_saw,
    saw_then_energy,
)
from repro.coding.registry import available_encoders, make_encoder
from repro.errors import EncodingError
from repro.pcm.cell import CellTechnology
from repro.utils.bitops import random_word
from repro.utils.rng import make_rng

WORDS_PER_LINE = 8
WORD_BITS = 64
LINES = 5


def _contexts(rng, technology, encoder, lines=LINES):
    cells = encoder.cells_per_word
    levels = technology.levels
    aux_limit = 1 << min(encoder.aux_bits, 62)
    contexts = []
    for _ in range(lines):
        contexts.append(
            LineContext(
                old_cells=rng.integers(0, levels, size=(WORDS_PER_LINE, cells)).astype(
                    np.uint8
                ),
                stuck_mask=rng.random((WORDS_PER_LINE, cells)) < 0.02,
                bits_per_cell=technology.bits_per_cell,
                old_auxes=rng.integers(0, aux_limit, size=WORDS_PER_LINE),
            )
        )
    return contexts


def _lines(rng, lines=LINES):
    return [
        [random_word(rng, WORD_BITS) for _ in range(WORDS_PER_LINE)]
        for _ in range(lines)
    ]


class TestEncodeLinesParity:
    @pytest.mark.parametrize("name", available_encoders())
    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    @pytest.mark.parametrize("cost", ["saw-then-energy", "energy-then-saw"])
    def test_matches_per_line_scalar_reference(self, name, technology, cost):
        from repro.sim.harness import make_cost

        rng = make_rng(5, f"encode-lines-{name}-{technology.value}-{cost}")
        encoder = make_encoder(
            name,
            word_bits=WORD_BITS,
            num_cosets=16,
            technology=technology,
            cost_function=make_cost(cost, technology),
        )
        contexts = _contexts(rng, technology, encoder)
        lines = _lines(rng)
        batched = encoder.encode_lines(lines, contexts)
        assert len(batched) == LINES
        for line, context, encoded in zip(lines, contexts, batched):
            reference = encoder.encode_line_scalar(line, context)
            assert encoded.codewords == reference.codewords
            assert encoded.auxes == reference.auxes
            assert encoded.aux_bits == reference.aux_bits
            assert encoded.costs == reference.costs  # bit-identical floats
            assert encoded.technique == reference.technique

    @pytest.mark.parametrize("name", available_encoders())
    def test_decodes_back_to_data(self, name):
        rng = make_rng(6, f"decode-lines-{name}")
        encoder = make_encoder(name, word_bits=WORD_BITS, num_cosets=16)
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=2)
        lines = _lines(rng, lines=2)
        for line, encoded in zip(lines, encoder.encode_lines(lines, contexts)):
            assert encoder.decode_line(encoded.codewords, encoded.auxes) == line

    def test_accepts_ndarray_word_matrix(self):
        rng = make_rng(7, "ndarray-words")
        encoder = make_encoder("rcc", word_bits=WORD_BITS, num_cosets=16)
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=3)
        lines = _lines(rng, lines=3)
        matrix = np.array(lines, dtype=np.uint64)
        from_list = encoder.encode_lines(lines, contexts)
        from_array = encoder.encode_lines(matrix, contexts)
        assert [e.codewords for e in from_list] == [e.codewords for e in from_array]

    def test_third_party_encoder_uses_reference_loop(self):
        class XorEncoder(Encoder):
            """Minimal word-level-only encoder (no batch overrides)."""

            name = "xor-third-party"

            @property
            def aux_bits(self):
                return 0

            def encode(self, data, context):
                self._check_data(data)
                return EncodedWord(
                    codeword=data ^ 0x5A5A, aux=0, aux_bits=0, cost=1.0,
                    technique=self.name,
                )

            def decode(self, codeword, aux):
                return codeword ^ 0x5A5A

        encoder = XorEncoder(WORD_BITS, CellTechnology.MLC, BitChangeCost())
        rng = make_rng(8, "third-party")
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=2)
        lines = _lines(rng, lines=2)
        batched = encoder.encode_lines(lines, contexts)
        for line, encoded in zip(lines, batched):
            assert list(encoded.codewords) == [w ^ 0x5A5A for w in line]

    def test_line_count_mismatch_rejected(self):
        rng = make_rng(9, "mismatch")
        encoder = make_encoder("flipcy", word_bits=WORD_BITS)
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=2)
        with pytest.raises(EncodingError):
            encoder.encode_lines(_lines(rng, lines=3), contexts)
        with pytest.raises(EncodingError):
            encoder.encode_lines([], [])


ALL_COSTS = [
    OnesCost(),
    BitChangeCost(),
    CellChangeCost(),
    EnergyCost(CellTechnology.MLC),
    SawCost(),
    saw_then_energy(CellTechnology.MLC),
    energy_then_saw(CellTechnology.MLC),
]


_POPCOUNT = np.array([0, 1, 1, 2], dtype=np.float64)


def _elementwise_costs(cost, new, old, stuck):
    """Each builtin cost's definition, cell by cell, on broadcast arrays.

    ``new`` and ``old`` hold MLC cell values; ``stuck`` is a boolean array
    aligned with ``old``, or None when no fault information is known.
    """
    if isinstance(cost, LexicographicCost):
        return (
            _elementwise_costs(cost.primary, new, old, stuck) * cost.scale
            + _elementwise_costs(cost.secondary, new, old, stuck)
        )
    if isinstance(cost, OnesCost):
        return _POPCOUNT[new] + np.zeros(old.shape)
    if isinstance(cost, BitChangeCost):
        return _POPCOUNT[new ^ old]
    if isinstance(cost, CellChangeCost):
        return (new != old).astype(np.float64)
    if isinstance(cost, EnergyCost):
        return cost.mlc_model.lut()[old, new]
    if isinstance(cost, SawCost):
        if stuck is None:
            return np.zeros(np.broadcast(new, old).shape)
        return ((new != old) & stuck).astype(np.float64)
    raise AssertionError(f"no elementwise reference for {cost.name}")


class TestTransitionTables:
    @pytest.mark.parametrize("cost", ALL_COSTS, ids=lambda c: c.name)
    @pytest.mark.parametrize("stuck_lines", ["all", "some", "none"])
    def test_gather_matches_elementwise_costs(self, cost, stuck_lines):
        rng = make_rng(11, f"batch-costs-{cost.name}-{stuck_lines}")
        lines, candidates, words, cells = 4, 6, 8, 32
        new_cells = rng.integers(0, 4, size=(lines, candidates, words, cells)).astype(
            np.uint8
        )
        with_stuck = {"all": [True] * lines, "some": [True, False] * 2, "none": [False] * lines}
        contexts = [
            LineContext(
                old_cells=rng.integers(0, 4, size=(words, cells)).astype(np.uint8),
                stuck_mask=(rng.random((words, cells)) < 0.05) if stuck else None,
                bits_per_cell=2,
            )
            for stuck in with_stuck[stuck_lines]
        ]
        batched = cost.gather_costs(cost.transition_tables(contexts), new_cells)
        assert batched.shape == new_cells.shape
        assert batched.dtype == np.float64
        for index, context in enumerate(contexts):
            stuck = None if context.stuck_mask is None else context.stuck_mask[None]
            expected = _elementwise_costs(cost, new_cells[index], context.old_cells[None], stuck)
            assert np.array_equal(batched[index], expected)

    @pytest.mark.parametrize("cost", ALL_COSTS, ids=lambda c: c.name)
    def test_word_costs_match_elementwise_costs(self, cost):
        rng = make_rng(12, f"word-costs-{cost.name}")
        context = LineContext(
            old_cells=rng.integers(0, 4, size=(1, 32)).astype(np.uint8),
            stuck_mask=rng.random((1, 32)) < 0.1,
            bits_per_cell=2,
        ).word_context(0)
        new_cells = rng.integers(0, 4, size=(5, 32)).astype(np.uint8)
        expected = _elementwise_costs(
            cost, new_cells, context.old_cells[None], context.stuck_mask[None]
        )
        assert np.array_equal(cost.cell_costs_matrix(new_cells, context), expected)

    def test_transition_tables_match_elementwise_pipeline(self):
        cost = saw_then_energy(CellTechnology.MLC)
        rng = make_rng(13, "tables")
        contexts = [
            LineContext(
                old_cells=rng.integers(0, 4, size=(8, 32)).astype(np.uint8),
                stuck_mask=rng.random((8, 32)) < 0.05,
                bits_per_cell=2,
            )
            for _ in range(2)
        ]
        tables = cost.transition_tables(contexts)
        assert tables.shape == (2, 8, 32, 4)
        for line, context in enumerate(contexts):
            for value in range(4):
                plane = np.full((8, 32), value, dtype=np.uint8)
                expected = _elementwise_costs(
                    cost, plane, context.old_cells, context.stuck_mask
                )
                assert np.array_equal(tables[line, :, :, value], expected)

    @pytest.mark.parametrize("cost", ALL_COSTS, ids=lambda c: c.name)
    def test_partition_rows_match_partition_contexts(self, cost):
        """VCC and FNW reshape a batch's tables to one row per partition.

        Row ``(l * words + w) * p + j`` of the reshaped tables must be the
        tables of partition ``j`` of word ``w`` of line ``l`` on its own.
        """
        rng = make_rng(15, f"partition-rows-{cost.name}")
        lines, words, cells, p = 2, 8, 32, 4
        contexts = [
            LineContext(
                old_cells=rng.integers(0, 4, size=(words, cells)).astype(np.uint8),
                stuck_mask=rng.random((words, cells)) < 0.1,
                bits_per_cell=2,
            )
            for _ in range(lines)
        ]
        rows = cost.transition_tables(contexts).reshape(lines * words * p, cells // p, -1)
        width = cells // p
        for line, context in enumerate(contexts):
            for word in range(words):
                for j in range(p):
                    part = slice(j * width, (j + 1) * width)
                    alone = LineContext(
                        old_cells=context.old_cells[word : word + 1, part],
                        stuck_mask=context.stuck_mask[word : word + 1, part],
                        bits_per_cell=2,
                    )
                    expected = cost.transition_tables([alone])[0, 0]
                    assert np.array_equal(rows[(line * words + word) * p + j], expected)

    def test_slc_tables(self):
        old = np.array([[0, 1, 0, 1]], dtype=np.uint8)
        stuck = np.array([[True, True, False, False]])
        assert BitChangeCost().cell_table(old, None, 1).tolist() == [
            [[0, 1], [1, 0], [0, 1], [1, 0]]
        ]
        assert OnesCost().cell_table(old, None, 1).tolist() == [[[0, 1]] * 4]
        assert SawCost().cell_table(old, stuck, 1).tolist() == [
            [[0, 1], [1, 0], [0, 0], [0, 0]]
        ]
        energy = EnergyCost(CellTechnology.SLC)
        table = energy.cell_table(old, None, 1)
        assert table.shape == (1, 4, 2)
        assert table[0, 0, 0] == table[0, 1, 1] == 0.0
        assert table[0, 0, 1] == energy.slc_model.set_energy_pj
        assert table[0, 1, 0] == energy.slc_model.reset_energy_pj
