"""Pinned counter-mode pads: a fixed record of what ``encrypt_lines`` emits.

Both pad generators (the keyed BLAKE2b PRF and AES-128) are run over a
fixed grid of (address, counter) pairs at every byte-aligned word width
and two keys.  Each case encrypts an all-zero plaintext batch, so the
ciphertext is the pad itself; its sha256 is compared with
``tests/golden/pads.json``, and every row is also checked against the
scalar :meth:`CounterModeEngine.pad_words` derivation.

A refactor of the pad derivation must reproduce the committed digests
unchanged.  Regenerate them only for a deliberate change of the pads,
recorded in CHANGES.md, with::

    PYTHONPATH=src python tests/crypto/test_golden_pads.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.crypto.counter_mode import CounterModeEngine

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "pads.json"
ADDRESSES = (0, 1, 7, 255, 4095, (1 << 20) + 3, (1 << 40) + 5, (1 << 63) - 1)
COUNTERS = (1, 2, 3, 100, 1 << 16, (1 << 31) + 1, (1 << 32) - 1)
WORD_BITS = (8, 16, 32, 64)
KEYS = {"zero": b"\x00" * 32, "ramp": bytes(range(80))}
PAD_TYPES = {"blake2b": True, "aes": False}
LINE_BITS = 512

CASES = [
    f"{pad}|{key}|w{word_bits}"
    for pad in sorted(PAD_TYPES)
    for key in sorted(KEYS)
    for word_bits in WORD_BITS
]


def _engine(key: str) -> CounterModeEngine:
    pad, key_name, width = key.split("|")
    return CounterModeEngine(
        key=KEYS[key_name],
        line_bits=LINE_BITS,
        word_bits=int(width[1:]),
        fast_pad=PAD_TYPES[pad],
    )


def _grid():
    """The (address, counter) pairs of every case, in row order."""
    return [(address, counter) for address in ADDRESSES for counter in COUNTERS]


def _pads(key: str) -> np.ndarray:
    """One ``encrypt_lines`` call whose rows are the pads of the grid.

    Each line of the batch goes to its own engine whose counter for the
    address is set one below the grid's counter, so the call's bump lands
    exactly on it.
    """
    rows = []
    for address, counter in _grid():
        engine = _engine(key)
        engine._counters[address] = counter - 1  # start just below the pinned counter
        zeros = np.zeros((1, engine.words_per_line), dtype=np.uint64)
        rows.append(engine.encrypt_lines([address], zeros)[0])
    return np.stack(rows)


def _digest(pads: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(pads, dtype="<u8").tobytes()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", CASES)
def test_pads_match_golden(key, golden):
    assert _digest(_pads(key)) == golden[key]


@pytest.mark.parametrize("key", CASES)
def test_batched_pads_equal_pad_words(key):
    pads = _pads(key)
    engine = _engine(key)
    for row, (address, counter) in zip(pads, _grid()):
        assert [int(word) for word in row] == engine.pad_words(address, counter)


def test_batched_pads_xor_plaintext():
    """Non-zero plaintext is XORed with the same pads, counter by counter."""
    engine = CounterModeEngine(key=KEYS["ramp"])
    plaintext = np.arange(3 * 8, dtype=np.uint64).reshape(3, 8) * np.uint64(0x9E3779B97F4A7C15)
    cipher = engine.encrypt_lines([9, 9, 4], plaintext)
    expected = [(9, 1), (9, 2), (4, 1)]
    for row, words, (address, counter) in zip(cipher, plaintext, expected):
        pad = engine.pad_words(address, counter)
        assert [int(c) for c in row] == [int(w) ^ p for w, p in zip(words, pad)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps({key: _digest(_pads(key)) for key in CASES}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(CASES)} digests to {GOLDEN}")
