"""Error-Correcting Pointers (ECP).

ECP (Schechter et al., ISCA 2010) attaches to every memory row ``N`` entries
of ``log2(row_bits)`` pointer bits plus one replacement bit.  When a cell is
found to be stuck, one entry records its position and the value it should
have held; reads patch the row using the stored entries.  ECP-N therefore
tolerates up to ``N`` failed cells anywhere in the row — more flexible than
SECDED for clustered faults, at roughly 10 bits of overhead per corrected
cell.

The class offers both the full entry-management codec (allocate entries as
faults appear, patch reads) and the row-level budget interface used by the
lifetime simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.ecc.base import CorrectionOutcome, ErrorCorrector
from repro.errors import ConfigurationError

__all__ = ["ECP", "ECPRowState"]


@dataclass
class ECPRowState:
    """Correction entries allocated for one row: cell position -> value."""

    entries: Dict[int, int] = field(default_factory=dict)

    def used(self) -> int:
        """Number of entries in use."""
        return len(self.entries)


class ECP(ErrorCorrector):
    """ECP-N: up to ``N`` corrected cells per row.

    Parameters
    ----------
    entries_per_row:
        Number of pointer/replacement entries per row (the paper's baseline
        is ECP3 at the iso-area budget of the 8-bit-per-word techniques).
    row_bits:
        Row width in bits (to size the pointers).
    """

    def __init__(self, entries_per_row: int = 3, row_bits: int = 512):
        if entries_per_row < 0:
            raise ConfigurationError("entries_per_row must be non-negative")
        if row_bits <= 0:
            raise ConfigurationError("row_bits must be positive")
        self.entries_per_row = entries_per_row
        self.row_bits = row_bits
        self.pointer_bits = max(1, (row_bits - 1).bit_length())
        self.name = f"ecp{entries_per_row}"
        self._rows: Dict[int, ECPRowState] = {}

    # --------------------------------------------------------- entry mgmt
    def row_state(self, row_index: int) -> ECPRowState:
        """Return (creating if needed) the entry table of ``row_index``."""
        return self._rows.setdefault(row_index, ECPRowState())

    def record_fault(self, row_index: int, cell_position: int, correct_value: int) -> bool:
        """Allocate an entry for a newly-discovered stuck cell.

        Returns True if an entry was available (or the cell already had
        one); False when the row's entries are exhausted.
        """
        if not 0 <= cell_position < self.row_bits:
            raise ConfigurationError(
                f"cell position {cell_position} outside a {self.row_bits}-bit row"
            )
        state = self.row_state(row_index)
        if cell_position in state.entries:
            state.entries[cell_position] = correct_value
            return True
        if state.used() >= self.entries_per_row:
            return False
        state.entries[cell_position] = correct_value
        return True

    def patch_row(self, row_index: int, row_bits_values: Sequence[int]) -> List[int]:
        """Apply the stored corrections to a read row (list of bit values)."""
        values = list(row_bits_values)
        if len(values) != self.row_bits:
            raise ConfigurationError(
                f"expected {self.row_bits} bit values, got {len(values)}"
            )
        state = self._rows.get(row_index)
        if state is None:
            return values
        for position, correct_value in state.entries.items():
            values[position] = correct_value
        return values

    # ----------------------------------------------------------- row policy
    def row_outcome(self, wrong_bits_per_word: Sequence[int]) -> CorrectionOutcome:
        total_wrong = int(sum(wrong_bits_per_word))
        if total_wrong <= self.entries_per_row:
            return CorrectionOutcome(correctable=True, corrected_cells=total_wrong)
        return CorrectionOutcome(correctable=False, corrected_cells=self.entries_per_row)

    @property
    def overhead_bits_per_word(self) -> int:
        # Entries are a per-row cost; expressed per 64-bit word for iso-area
        # comparison (8 words per 512-bit row).
        per_row = self.entries_per_row * (self.pointer_bits + 1)
        words_per_row = max(1, self.row_bits // 64)
        return -(-per_row // words_per_row)
