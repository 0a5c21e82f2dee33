"""Synthetic writeback-trace generator.

Turns a :class:`repro.traces.spec.BenchmarkProfile` into a concrete
:class:`repro.traces.trace.Trace`:

* **addresses** follow the profile's locality model — a "hot" subset of the
  working set receives ``hot_weight`` of the writebacks, the remainder is
  spread uniformly over the rest (both scaled to the simulated memory
  size);
* **data** follows the profile's value model so the *unencrypted* baseline
  comparisons see realistic bias: integer-like lines hold small
  two's-complement counters, float-like lines hold IEEE-754 doubles with
  correlated exponents, pointer-like lines hold aligned addresses sharing
  high bits, text-like lines hold ASCII bytes, and mixed lines interleave
  these.

After counter-mode encryption every one of these models becomes a uniform
random bit stream, which is exactly the property the paper exploits; the
generator exists so the same pipeline can also quantify what encryption
destroys (the unencrypted-vs-encrypted comparisons in the motivation).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.spec import BenchmarkProfile, get_profile
from repro.traces.trace import Trace
from repro.utils.rng import make_rng
from repro.utils.validation import require

__all__ = ["SyntheticTraceGenerator", "generate_trace"]


class SyntheticTraceGenerator:
    """Generates writeback traces for one benchmark profile.

    Parameters
    ----------
    profile:
        Benchmark behaviour description (or its name).
    memory_lines:
        Number of cache-line-sized locations in the simulated memory; the
        profile's working set is clipped to this.
    line_bits, word_bits:
        Geometry of the generated lines.
    seed:
        Seed making the trace reproducible.
    """

    def __init__(
        self,
        profile,
        memory_lines: int = 4096,
        line_bits: int = 512,
        word_bits: int = 64,
        seed: int = 0,
    ):
        if isinstance(profile, str):
            profile = get_profile(profile)
        if not isinstance(profile, BenchmarkProfile):
            raise ConfigurationError("profile must be a BenchmarkProfile or a benchmark name")
        require(memory_lines > 0, "memory_lines must be positive")
        self.profile = profile
        self.memory_lines = memory_lines
        self.line_bits = line_bits
        self.word_bits = word_bits
        self.words_per_line = line_bits // word_bits
        self.seed = seed
        self._rng = make_rng(seed, f"trace-{profile.name}")

        working_set = min(profile.working_set_lines, memory_lines)
        self.working_set = working_set
        hot_lines = max(1, int(round(working_set * profile.hot_fraction)))
        # The working set occupies the first `working_set` line addresses;
        # hot lines are a random subset of it.
        self._hot_addresses = self._rng.choice(working_set, size=hot_lines, replace=False)
        cold_mask = np.ones(working_set, dtype=bool)
        cold_mask[self._hot_addresses] = False
        self._cold_addresses = np.nonzero(cold_mask)[0]
        if len(self._cold_addresses) == 0:
            self._cold_addresses = self._hot_addresses

    # ------------------------------------------------------------ addresses
    def _draw_addresses(self, count: int) -> np.ndarray:
        hot = self._rng.random(count) < self.profile.hot_weight
        hot_choice = self._rng.integers(0, len(self._hot_addresses), size=count)
        cold_choice = self._rng.integers(0, len(self._cold_addresses), size=count)
        addresses = np.where(
            hot,
            self._hot_addresses[hot_choice],
            self._cold_addresses[cold_choice],
        )
        return addresses.astype(np.int64)

    # ----------------------------------------------------------------- data
    def _integer_word(self) -> int:
        # Small counters / indices: mostly positive values whose high bits
        # are zero, with an occasional negative (sign-extended) value.
        if self._rng.random() < 0.1:
            value = -int(self._rng.integers(1, 1 << 16))
        else:
            value = int(self._rng.integers(0, 1 << 20))
        return value & 0xFFFFFFFFFFFFFFFF

    def _float_word(self) -> int:
        # Doubles drawn from a narrow range share exponent bits.
        value = float(self._rng.normal(loc=1.0, scale=0.25))
        return struct.unpack("<Q", struct.pack("<d", value))[0]

    def _pointer_word(self) -> int:
        # 8-byte aligned heap addresses sharing a 32-bit base.
        base = 0x00007F3A00000000
        offset = int(self._rng.integers(0, 1 << 28)) & ~0x7
        return base | offset

    def _text_word(self) -> int:
        letters = self._rng.integers(0x20, 0x7F, size=8)
        word = 0
        for byte in letters:
            word = (word << 8) | int(byte)
        return word

    def _word_for_model(self, model: str) -> int:
        if model == "integer":
            return self._integer_word()
        if model == "float":
            return self._float_word()
        if model == "pointer":
            return self._pointer_word()
        if model == "text":
            return self._text_word()
        # mixed
        choice = int(self._rng.integers(0, 4))
        return self._word_for_model(["integer", "float", "pointer", "text"][choice])

    def _trace_words(self, num_writebacks: int) -> np.ndarray:
        """The data words of a whole trace, one ``uint64`` row per writeback.

        Value models are defined at 64-bit granularity; narrower trace
        words keep the low-order bytes.  ``float``, ``pointer`` and
        ``text`` draw every word of the trace in one generator call, which
        numpy fills in the same order as one call per word, so values and
        generator state match the per-word draws exactly; ``integer`` and
        ``mixed`` pick their next draw from the previous one and stay
        per-word.
        """
        model = self.profile.value_model
        count = num_writebacks * self.words_per_line
        if model == "float":
            # Doubles drawn from a narrow range share exponent bits.
            words = self._rng.normal(loc=1.0, scale=0.25, size=count).view(np.uint64)
        elif model == "pointer":
            # 8-byte aligned heap addresses sharing a 32-bit base.
            offsets = self._rng.integers(0, 1 << 28, size=count) & ~0x7
            words = np.uint64(0x00007F3A00000000) | offsets.astype(np.uint64)
        elif model == "text":
            letters = self._rng.integers(0x20, 0x7F, size=(count, 8)).astype(np.uint64)
            shifts = np.arange(56, -8, -8, dtype=np.uint64)
            words = np.bitwise_or.reduce(letters << shifts, axis=1)
        else:
            words = np.array(
                [self._word_for_model(model) for _ in range(count)], dtype=np.uint64
            )
        if self.word_bits < 64:
            words &= np.uint64((1 << self.word_bits) - 1)
        return words.reshape(num_writebacks, self.words_per_line)

    # ------------------------------------------------------------- generate
    def generate(self, num_writebacks: int) -> Trace:
        """Produce a trace with ``num_writebacks`` line writebacks.

        The address and word draws become the trace's columns as drawn.
        """
        require(num_writebacks >= 0, "num_writebacks must be non-negative")
        if num_writebacks == 0:
            addresses, words = None, None
        else:
            addresses = self._draw_addresses(num_writebacks)
            words = self._trace_words(num_writebacks)
        return Trace(
            name=self.profile.name,
            line_bits=self.line_bits,
            word_bits=self.word_bits,
            metadata={
                "suite": self.profile.suite,
                "writebacks_per_kilo_instruction": self.profile.writebacks_per_kilo_instruction,
                "working_set_lines": self.working_set,
                "seed": self.seed,
            },
            addresses=addresses,
            words=words,
        )


def generate_trace(
    benchmark: str,
    num_writebacks: int,
    memory_lines: int = 4096,
    line_bits: int = 512,
    word_bits: int = 64,
    seed: int = 0,
) -> Trace:
    """One-call convenience wrapper around :class:`SyntheticTraceGenerator`."""
    generator = SyntheticTraceGenerator(
        benchmark,
        memory_lines=memory_lines,
        line_bits=line_bits,
        word_bits=word_bits,
        seed=seed,
    )
    return generator.generate(num_writebacks)
