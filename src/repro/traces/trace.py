"""Trace containers and (de)serialisation.

A trace is an ordered sequence of dirty cache lines evicted from the
last-level cache, stored as two columns: the line-aligned addresses and
the plaintext line contents as fixed-width words.  Batch drivers read the
columns directly; :class:`WritebackRecord` is only the per-write view
that indexing and iteration return.  Traces can be saved to and loaded
from a compact JSON-lines format so experiments can be re-run on
identical inputs.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceError

__all__ = ["WritebackRecord", "Trace"]


@dataclass(frozen=True)
class WritebackRecord:
    """One dirty-line eviction from the LLC to main memory.

    Attributes
    ----------
    address:
        Line index (line-aligned address divided by the line size).
    words:
        Plaintext contents of the line as a tuple of word integers.
    """

    address: int
    words: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.address < 0:
            raise TraceError(f"address must be non-negative, got {self.address}")
        if not self.words:
            raise TraceError("a writeback record needs at least one data word")
        object.__setattr__(self, "words", tuple(int(w) for w in self.words))


class Trace:
    """An ordered sequence of writebacks, stored column-wise, plus metadata.

    Attributes
    ----------
    addresses:
        ``(writes,)`` ``int64`` line addresses, in write order.
    words:
        ``(writes, words_per_line)`` plaintext words: ``uint64`` when
        ``word_bits <= 64``, Python ints in an object array otherwise.

    The columns come from ``addresses``/``words`` (as the synthetic
    generator draws them) or from ``records``; both are validated once.
    :meth:`append` copies the columns, so build long traces from columns.
    """

    def __init__(
        self,
        name: str,
        records: Optional[Sequence[WritebackRecord]] = None,
        line_bits: int = 512,
        word_bits: int = 64,
        metadata: Optional[Dict[str, Any]] = None,
        addresses: Optional[np.ndarray] = None,
        words: Optional[Any] = None,
    ) -> None:
        if line_bits <= 0 or word_bits <= 0:
            raise TraceError("line_bits and word_bits must be positive")
        if line_bits % word_bits != 0:
            raise TraceError("line_bits must be a multiple of word_bits")
        self.name = name
        self.line_bits = line_bits
        self.word_bits = word_bits
        self.metadata: Dict[str, Any] = {} if metadata is None else metadata
        if records is not None:
            if addresses is not None or words is not None:
                raise TraceError("give a trace either records or address/word columns")
            addresses = [record.address for record in records]
            words = [record.words for record in records]
        self.addresses, self.words = self._columns(
            [] if addresses is None else addresses, [] if words is None else words
        )

    def _columns(self, addresses: Any, words: Any) -> Tuple[np.ndarray, np.ndarray]:
        """Validate and convert address/word columns to the stored dtypes."""
        count = len(addresses)
        try:
            address_column = np.asarray(addresses, dtype=np.int64).reshape(count)
        except (OverflowError, ValueError) as error:
            raise TraceError(f"trace addresses must be one int64 per write: {error}") from None
        if count and int(address_column.min()) < 0:
            raise TraceError(f"address must be non-negative, got {int(address_column.min())}")
        dtype = np.uint64 if self.word_bits <= 64 else object
        raw = words if isinstance(words, np.ndarray) else np.array(words, dtype=object)
        if raw.size == 0:
            raw = raw.reshape(0, self.words_per_line)
        if raw.shape != (count, self.words_per_line):
            raise TraceError(
                f"trace words have shape {raw.shape}, expected "
                f"({count}, {self.words_per_line}) for {self.words_per_line} words per line"
            )
        if raw.dtype.kind == "u":
            column = raw.astype(dtype, copy=False)
            if self.word_bits < 64 and bool((column >> np.uint64(self.word_bits)).any()):
                raise TraceError(f"trace words do not fit in {self.word_bits} bits")
            return address_column, column
        limit = 1 << self.word_bits
        for word in raw.flat:
            if not 0 <= int(word) < limit:
                raise TraceError(f"word {int(word):#x} does not fit in {self.word_bits} bits")
        return address_column, raw.astype(dtype)

    # ------------------------------------------------------------ protocol
    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[WritebackRecord]:
        for address, words in zip(self.addresses.tolist(), self.words.tolist()):
            yield WritebackRecord(address=address, words=tuple(words))

    def __getitem__(self, index: int) -> WritebackRecord:
        return WritebackRecord(
            address=int(self.addresses[index]), words=tuple(self.words[index].tolist())
        )

    @property
    def words_per_line(self) -> int:
        """Number of words per cache line."""
        return self.line_bits // self.word_bits

    # ------------------------------------------------------------ mutation
    def append(self, record: WritebackRecord) -> None:
        """Append one record, validating its geometry."""
        if len(record.words) != self.words_per_line:
            raise TraceError(
                f"record has {len(record.words)} words, trace expects {self.words_per_line}"
            )
        addresses, words = self._columns([record.address], [record.words])
        self.addresses = np.concatenate([self.addresses, addresses])
        self.words = np.concatenate([self.words, words])

    # --------------------------------------------------------------- stats
    def unique_addresses(self) -> int:
        """Number of distinct line addresses touched by the trace."""
        return len(np.unique(self.addresses))

    def writes_per_address(self) -> Dict[int, int]:
        """Histogram of writes per line address."""
        values, counts = np.unique(self.addresses, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    # ----------------------------------------------------------------- I/O
    def save(self, path: Union[str, Path]) -> None:
        """Write the trace to ``path`` in JSON-lines format.

        A ``.gz`` suffix writes the same format gzip-compressed, so
        large benchmark traces can ship compressed; :meth:`load` reads
        either form transparently.
        """
        path = Path(path)
        opener = (
            (lambda: gzip.open(path, "wt", encoding="utf-8"))
            if path.suffix == ".gz"
            else (lambda: path.open("w", encoding="utf-8"))
        )
        with opener() as handle:
            header = {
                "name": self.name,
                "line_bits": self.line_bits,
                "word_bits": self.word_bits,
                "metadata": self.metadata,
            }
            handle.write(json.dumps(header) + "\n")
            for address, words in zip(self.addresses.tolist(), self.words.tolist()):
                handle.write(
                    json.dumps({"a": address, "w": [format(w, "x") for w in words]}) + "\n"
                )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Load a trace previously written by :meth:`save`.

        Gzip-compressed trace files are detected by their magic bytes
        (not the file name), so both ``trace.jsonl`` and
        ``trace.jsonl.gz`` — however they were named — load
        transparently.
        """
        path = Path(path)
        with path.open("rb") as probe:
            compressed = probe.read(2) == b"\x1f\x8b"
        opener = (
            (lambda: gzip.open(path, "rt", encoding="utf-8"))
            if compressed
            else (lambda: path.open("r", encoding="utf-8"))
        )
        with opener() as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            raise TraceError(f"trace file {path} is empty")
        header = json.loads(lines[0])
        payloads = [json.loads(line) for line in lines[1:]]
        return cls(
            name=header["name"],
            line_bits=header["line_bits"],
            word_bits=header["word_bits"],
            metadata=header.get("metadata", {}),
            addresses=[payload["a"] for payload in payloads],
            words=[[int(w, 16) for w in payload["w"]] for payload in payloads],
        )
