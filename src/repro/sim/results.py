"""Result containers shared by the experiment harness.

Experiments return a :class:`ResultTable`: an ordered list of homogeneous
row dictionaries plus enough metadata to print the same rows/series the
paper's figures report.  The class deliberately stays close to a plain
list of dicts so benchmark code and tests can assert on values directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Union

from repro.errors import SimulationError
from repro.utils.validation import json_payload

__all__ = ["ResultTable"]


@dataclass
class ResultTable:
    """An ordered collection of result rows for one experiment."""

    title: str
    columns: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def append(self, **values: Any) -> None:
        """Append a row; every configured column must be supplied."""
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise SimulationError(f"row is missing columns: {missing}")
        self.rows.append({column: values[column] for column in self.columns})

    def extend(self, rows: Iterable[Dict[str, Any]]) -> "ResultTable":
        """Append many rows, validating each against the configured columns.

        Extra keys beyond the configured columns are dropped (matching
        :meth:`append`); a row missing a column raises without mutating
        the table.  Returns ``self`` so aggregation code can chain.
        """
        staged = []
        for row in rows:
            missing = [column for column in self.columns if column not in row]
            if missing:
                raise SimulationError(f"row is missing columns: {missing}")
            staged.append({column: row[column] for column in self.columns})
        self.rows.extend(staged)
        return self

    def merge(self, other: "ResultTable") -> "ResultTable":
        """A new table holding this table's rows followed by ``other``'s.

        Both tables must agree on their column sequence; title and notes
        are taken from ``self``.  Campaign aggregation uses this to fold
        per-shard tables back into one figure table.
        """
        if list(other.columns) != list(self.columns):
            raise SimulationError(
                f"cannot merge tables with different columns: "
                f"{list(self.columns)} vs {list(other.columns)}"
            )
        merged = ResultTable(title=self.title, columns=list(self.columns), notes=self.notes)
        merged.extend(self.rows)
        merged.extend(other.rows)
        return merged

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.rows)

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise SimulationError(f"unknown column {name!r}")
        return [row[name] for row in self.rows]

    def filter(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows whose values match all the given column=value criteria."""
        out = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                out.append(row)
        return out

    def to_json(self, path: Union[str, Path, None] = None) -> str:
        """Serialise the table (optionally also writing it to ``path``)."""
        payload = json.dumps(
            {"title": self.title, "columns": list(self.columns), "rows": self.rows, "notes": self.notes},
            indent=2,
            default=float,
        )
        if path is not None:
            Path(path).write_text(payload, encoding="utf-8")
        return payload

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "ResultTable":
        """Rebuild a table from :meth:`to_json` output (payload or path).

        ``source`` may be the JSON payload itself or a path to a file
        holding it; strings starting with ``{`` are treated as payloads.
        Rows are validated against the recorded columns on the way in.
        """
        payload = json_payload(source, SimulationError, "result table")
        if not isinstance(payload, dict) or "columns" not in payload:
            raise SimulationError("result table payload must be an object with 'columns'")
        table = cls(
            title=payload.get("title", ""),
            columns=list(payload["columns"]),
            notes=payload.get("notes", ""),
        )
        table.extend(payload.get("rows", []))
        return table

    def format(self, float_digits: int = 4) -> str:
        """Render a fixed-width text table (what the benches print)."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.{float_digits}g}"
            return str(value)

        header = list(self.columns)
        body = [[fmt(row[column]) for column in header] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title]
        lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)
