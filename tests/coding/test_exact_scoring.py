"""Exact one-hot GEMM coset scoring and its fallback.

:func:`repro.coding.cost.xor_candidate_costs` scores XOR-mask candidates
(RCC cosets, VCC kernels) as a matrix product against a 0/1 one-hot of the
mask cells.  On tables that pass :func:`repro.coding.cost.sums_exactly`
that product must equal the gather-plus-pairwise-sum scorer element for
element; on tables that fail it, RCC and VCC must take the materialised
path instead, and ``encode_lines`` must stay bit-identical to
``encode_line`` either way.  Both paths must report the same
``encode.candidates`` increments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.coding.rcc as rcc_module
import repro.core.vcc as vcc_module
from repro import obs
from repro.coding.base import LineContext
from repro.coding.cost import (
    EnergyCost,
    LexicographicCost,
    SawCost,
    saw_then_energy,
    sums_exactly,
    xor_candidate_costs,
    xor_one_hot,
)
from repro.coding.registry import make_encoder
from repro.pcm.cell import CellTechnology
from repro.pcm.energy import MLCEnergyModel, SLCEnergyModel
from repro.utils.bitops import random_word
from repro.utils.rng import make_rng

WORDS_PER_LINE = 8
LINES = 4
NUM_COSETS = 32
ENCODERS = ("rcc", "vcc", "vcc-stored")
TECHNOLOGIES = (CellTechnology.MLC, CellTechnology.SLC)


def _gather_scores(tables, data_cells, row_masks):
    """Reference scorer: gather every candidate cell's cost, then sum.

    ``row_masks`` is ``(rows, K, C)``; the gathered ``(rows, K, C)`` array
    is C-contiguous, so ``.sum`` is numpy's pairwise reduction.
    """
    rows, cells, _ = tables.shape
    values = data_cells[:, None, :] ^ row_masks
    gathered = tables[
        np.arange(rows)[:, None, None], np.arange(cells)[None, None, :], values
    ]
    return np.ascontiguousarray(gathered).sum(axis=2)


@st.composite
def _scoring_case(draw):
    levels = draw(st.sampled_from([2, 4]))
    cells = draw(st.integers(1, 12))
    groups = draw(st.integers(1, 5))
    rows_per_group = draw(st.integers(1, 4))
    candidates = draw(st.integers(1, 9))
    limit = draw(st.sampled_from([1, 20, 10**6, 2**40]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = groups * rows_per_group
    tables = rng.integers(-limit, limit + 1, size=(rows, cells, levels)).astype(np.float64)
    data_cells = rng.integers(0, levels, size=(rows, cells)).astype(np.uint8)
    masks = rng.integers(0, levels, size=(groups, candidates, cells)).astype(np.uint8)
    return tables, data_cells, masks


class TestXorCandidateCosts:
    @settings(max_examples=60, deadline=None)
    @given(_scoring_case())
    def test_shared_masks_match_gather(self, case):
        tables, data_cells, masks = case
        shared = masks[0]
        assert sums_exactly(tables, tables.shape[1])
        expected = _gather_scores(
            tables, data_cells, np.broadcast_to(shared, (len(tables),) + shared.shape)
        )
        one_hot = xor_one_hot(shared, tables.shape[2])
        assert np.array_equal(
            xor_candidate_costs(tables, data_cells, shared, one_hot=one_hot), expected
        )
        assert np.array_equal(xor_candidate_costs(tables, data_cells, shared), expected)

    @settings(max_examples=60, deadline=None)
    @given(_scoring_case())
    def test_grouped_masks_match_gather(self, case):
        tables, data_cells, masks = case
        per_row = np.repeat(masks, len(tables) // len(masks), axis=0)
        expected = _gather_scores(tables, data_cells, per_row)
        assert np.array_equal(xor_candidate_costs(tables, data_cells, masks), expected)
        # One group per row is the per-row case.
        assert np.array_equal(xor_candidate_costs(tables, data_cells, per_row), expected)

    def test_one_hot_layout(self):
        masks = np.array([[0, 3], [2, 1]], dtype=np.uint8)
        one_hot = xor_one_hot(masks, 4)
        assert one_hot.shape == (2, 8)
        assert one_hot.tolist() == [
            [1, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 1, 0, 0],
        ]


class TestSumsExactly:
    def test_builtin_tables_are_exact(self):
        for cost in (saw_then_energy(), EnergyCost(), SawCost()):
            contexts = [
                LineContext(
                    old_cells=np.arange(32, dtype=np.uint8).reshape(1, 32) % 4,
                    stuck_mask=np.arange(32).reshape(1, 32) % 5 == 0,
                    bits_per_cell=2,
                )
            ]
            assert sums_exactly(cost.transition_tables(contexts), 32)

    @pytest.mark.parametrize(
        "value", [0.5, np.inf, -np.inf, np.nan, 2.0**53 / 32, -(2.0**53) / 32]
    )
    def test_rejects_fractional_non_finite_and_oversized(self, value):
        tables = np.zeros((2, 32, 4))
        tables[1, 5, 2] = value
        assert not sums_exactly(tables, 32)

    def test_bound_is_strict_in_the_cell_count(self):
        tables = np.full((1, 1, 4), 2.0**50)
        assert sums_exactly(tables, 7)
        assert not sums_exactly(tables, 8)

    def test_boolean_tables_are_exact(self):
        assert sums_exactly(np.ones((3, 32, 4), dtype=bool), 32)


def _contexts(rng, encoder, technology, lines=LINES):
    cells = encoder.cells_per_word
    aux_limit = 1 << min(encoder.aux_bits, 62)
    return [
        LineContext(
            old_cells=rng.integers(0, technology.levels, size=(WORDS_PER_LINE, cells)).astype(
                np.uint8
            ),
            stuck_mask=rng.random((WORDS_PER_LINE, cells)) < 0.05,
            bits_per_cell=technology.bits_per_cell,
            old_auxes=rng.integers(0, aux_limit, size=WORDS_PER_LINE),
        )
        for _ in range(lines)
    ]


def _words(rng, lines=LINES):
    return [[random_word(rng, 64) for _ in range(WORDS_PER_LINE)] for _ in range(lines)]


def _non_integer_energy(technology):
    return EnergyCost(
        technology,
        mlc_model=MLCEnergyModel(low_energy_pj=2.3, high_energy_pj=19.7),
        slc_model=SLCEnergyModel(set_energy_pj=1.3, reset_energy_pj=2.7),
    )


def _oversized_lexicographic(technology):
    # 1e15 per SAW cell times a word's 32 (MLC) or 64 (SLC) cells is past
    # 2**53, so a word's cost sum may round.
    return LexicographicCost(SawCost(), EnergyCost(technology), scale=1e15)


@pytest.fixture
def gemm_calls(monkeypatch):
    """Record every exact-path call the RCC and VCC encoders make."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return xor_candidate_costs(*args, **kwargs)

    monkeypatch.setattr(rcc_module, "xor_candidate_costs", spy)
    monkeypatch.setattr(vcc_module, "xor_candidate_costs", spy)
    return calls


def _assert_lines_match_per_line(encoder, words, contexts):
    batched = encoder.encode_lines(words, contexts)
    for line, context, result in zip(words, contexts, batched):
        reference = encoder.encode_line(line, context)
        assert list(result.codewords) == list(reference.codewords)
        assert list(result.auxes) == list(reference.auxes)
        assert list(result.costs) == list(reference.costs)


class TestEncoderPaths:
    @pytest.mark.parametrize("name", ENCODERS)
    @pytest.mark.parametrize("technology", TECHNOLOGIES)
    @pytest.mark.parametrize(
        "make_cost", [_non_integer_energy, _oversized_lexicographic], ids=["fractional", "2^53"]
    )
    def test_inexact_tables_take_the_fallback(self, name, technology, make_cost, gemm_calls):
        rng = make_rng(3, f"exact-fallback-{name}-{technology.value}-{make_cost.__name__}")
        encoder = make_encoder(
            name, num_cosets=NUM_COSETS, technology=technology, cost_function=make_cost(technology)
        )
        contexts = _contexts(rng, encoder, technology)
        _assert_lines_match_per_line(encoder, _words(rng), contexts)
        assert gemm_calls == []

    @pytest.mark.parametrize("name", ENCODERS)
    @pytest.mark.parametrize("technology", TECHNOLOGIES)
    def test_integer_tables_take_the_gemm(self, name, technology, gemm_calls):
        rng = make_rng(4, f"exact-gemm-{name}-{technology.value}")
        encoder = make_encoder(
            name,
            num_cosets=NUM_COSETS,
            technology=technology,
            cost_function=saw_then_energy(technology),
        )
        contexts = _contexts(rng, encoder, technology)
        _assert_lines_match_per_line(encoder, _words(rng), contexts)
        assert len(gemm_calls) == 1


class TestCandidateCounter:
    """Both scoring paths bump ``encode.candidates`` by the same amount."""

    @pytest.mark.parametrize("technology", TECHNOLOGIES)
    @pytest.mark.parametrize("exact", [True, False], ids=["gemm", "fallback"])
    @pytest.mark.parametrize("name", ENCODERS)
    def test_increment_per_call(self, name, technology, exact):
        rng = make_rng(6, f"exact-counter-{name}-{technology.value}")
        cost = saw_then_energy(technology) if exact else _non_integer_energy(technology)
        encoder = make_encoder(
            name, num_cosets=NUM_COSETS, technology=technology, cost_function=cost
        )
        contexts = _contexts(rng, encoder, technology)
        counter = obs.counter("encode.candidates")
        before = counter.value
        encoder.encode_lines(_words(rng), contexts)
        if name == "rcc":
            # RCC scores every coset of every line.
            expected = LINES * NUM_COSETS
        else:
            # VCC scores the 2r XOR/XNOR kernel forms of every line.
            expected = LINES * 2 * encoder.config.num_kernels
        assert counter.value - before == expected

    @pytest.mark.parametrize("exact", [True, False], ids=["gemm", "fallback"])
    @pytest.mark.parametrize("name", ENCODERS + ("fnw",))
    def test_count_independent_of_wave_shape(self, name, exact):
        """One call over LINES lines counts what LINES one-line calls do."""
        technology = CellTechnology.MLC
        rng = make_rng(7, f"exact-counter-shape-{name}")
        cost = saw_then_energy(technology) if exact else _non_integer_energy(technology)
        encoder = make_encoder(
            name, num_cosets=NUM_COSETS, technology=technology, cost_function=cost
        )
        contexts = _contexts(rng, encoder, technology)
        words = _words(rng)
        counter = obs.counter("encode.candidates")
        before = counter.value
        encoder.encode_lines(words, contexts)
        batched = counter.value - before
        before = counter.value
        for line in range(LINES):
            encoder.encode_lines(words[line: line + 1], contexts[line: line + 1])
        assert counter.value - before == batched > 0
