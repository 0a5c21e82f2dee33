"""Pinned encoder outputs: a fixed record of what every encoder writes.

Every registered encoder is run on both cell technologies, six cost
functions, and rows with and without stuck cells.  Each case encodes one
fixed 8-line batch through ``encode_lines`` and, line by line, through the
word-level reference loop ``encode_line_scalar``; the codewords, auxiliary
values and ``float.hex`` costs of each path are hashed (sha256) and
compared with ``tests/golden/encodings.json``.

The inputs come from seeded generators that depend on nothing in the
package, so a refactor of the encoders or cost functions must reproduce
the committed digests unchanged.  Regenerate them only for a deliberate
behaviour change, recorded in CHANGES.md, with::

    PYTHONPATH=src python tests/coding/test_golden_encodings.py
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.coding.base import EncodedLine, LineContext
from repro.coding.registry import available_encoders, make_encoder
from repro.pcm.cell import CellTechnology
from repro.sim.harness import make_cost

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "encodings.json"
ENCODERS = sorted(available_encoders())
TECHNOLOGIES = (CellTechnology.SLC, CellTechnology.MLC)
COSTS = ("ones", "bit-changes", "cell-changes", "energy", "saw-then-energy", "energy-then-saw")
STUCK_RATES = (0.0, 0.05)
LINES = 8
WORDS_PER_LINE = 8
WORD_BITS = 64
NUM_COSETS = 16
SEED = 2024


def _case_key(name: str, technology: CellTechnology, cost: str, stuck_rate: float) -> str:
    return f"{name}|{technology.value}|{cost}|stuck={stuck_rate:g}"


CASES = [
    _case_key(name, technology, cost, stuck_rate)
    for name in ENCODERS
    for technology in TECHNOLOGIES
    for cost in COSTS
    for stuck_rate in STUCK_RATES
]


def _inputs(key: str, encoder, technology: CellTechnology, stuck_rate: float):
    rng = np.random.default_rng([SEED, zlib.crc32(key.encode())])
    words = rng.integers(0, 1 << 63, size=(LINES, WORDS_PER_LINE), dtype=np.uint64) << np.uint64(1)
    words |= rng.integers(0, 2, size=(LINES, WORDS_PER_LINE), dtype=np.uint64)
    aux_limit = 1 << min(encoder.aux_bits, 62)
    contexts = []
    for _ in range(LINES):
        shape = (WORDS_PER_LINE, encoder.cells_per_word)
        old = rng.integers(0, technology.levels, size=shape).astype(np.uint8)
        stuck = rng.random(shape) < stuck_rate if stuck_rate else None
        auxes = rng.integers(0, aux_limit, size=WORDS_PER_LINE)
        contexts.append(
            LineContext(
                old_cells=old,
                stuck_mask=stuck,
                bits_per_cell=technology.bits_per_cell,
                old_auxes=auxes,
            )
        )
    return [[int(w) for w in row] for row in words], contexts


def _digest(lines: List[EncodedLine]) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(",".join(f"{c:x}" for c in line.codewords).encode())
        hasher.update(b";")
        hasher.update(",".join(f"{a:x}" for a in line.auxes).encode())
        hasher.update(b";")
        hasher.update(",".join(float(c).hex() for c in line.costs).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _case_digests(key: str) -> Dict[str, str]:
    name, tech_value, cost, stuck = key.split("|")
    technology = CellTechnology(tech_value)
    stuck_rate = float(stuck.split("=")[1])
    encoder = make_encoder(
        name,
        word_bits=WORD_BITS,
        num_cosets=NUM_COSETS,
        technology=technology,
        cost_function=make_cost(cost, technology),
        seed=SEED,
    )
    words, contexts = _inputs(key, encoder, technology, stuck_rate)
    batched = encoder.encode_lines(words, contexts)
    scalar = [encoder.encode_line_scalar(line, context) for line, context in zip(words, contexts)]
    return {"encode_lines": _digest(batched), "encode_line_scalar": _digest(scalar)}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", CASES)
def test_encodings_match_golden(key, golden):
    assert _case_digests(key) == golden[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps({key: _case_digests(key) for key in CASES}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} digests to {GOLDEN}")
