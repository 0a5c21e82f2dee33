"""IMP002 (unused module-level import) rule fixtures."""

import textwrap

from repro.analysis import analyze_source


def codes(findings):
    return [f.rule for f in findings]


def run(source, path="src/repro/example.py", **kwargs):
    return analyze_source(textwrap.dedent(source), path=path, **kwargs)


def imp002(findings):
    return [f for f in findings if f.rule == "IMP002"]


class TestIMP002UnusedImport:
    def test_violating_unused_names(self):
        findings = imp002(
            run(
                """
                import json
                from dataclasses import dataclass, field
                from typing import List

                @dataclass
                class Box:
                    size: int
                """
            )
        )
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "import json" in messages and "field" in messages and "List" in messages

    def test_violating_unused_alias_and_dotted_import(self):
        findings = imp002(
            run(
                """
                import numpy as np
                import os.path
                """
            )
        )
        assert [f.line for f in findings] == [2, 3]

    def test_imports_inside_module_level_try(self):
        findings = imp002(
            run(
                """
                try:
                    import tomllib
                except ImportError:
                    tomllib = None

                LOADS = tomllib.loads if tomllib else None
                """
            )
        )
        assert codes(findings) == []
        findings = imp002(
            run(
                """
                try:
                    import tomllib
                except ImportError:
                    pass
                """
            )
        )
        assert codes(findings) == ["IMP002"]

    def test_clean_names_read_anywhere(self):
        findings = imp002(
            run(
                """
                import os.path
                from typing import Dict
                import numpy as np

                def size(path: str) -> Dict[str, int]:
                    return {"n": int(np.int64(os.path.getsize(path)))}
                """
            )
        )
        assert findings == []

    def test_clean_string_annotations_and_type_checking(self):
        findings = imp002(
            run(
                """
                from __future__ import annotations

                from typing import TYPE_CHECKING, Optional

                if TYPE_CHECKING:
                    from repro.traces.trace import Trace

                def replay(trace: Optional["Trace"]) -> None:
                    del trace
                """
            )
        )
        assert findings == []

    def test_clean_all_and_explicit_reexports(self):
        findings = imp002(
            run(
                """
                from repro.errors import ConfigurationError
                from repro.errors import SimulationError as SimulationError

                __all__ = ["ConfigurationError"]
                """
            )
        )
        assert findings == []

    def test_clean_package_init_reexports(self):
        findings = imp002(
            run(
                """
                from repro.coding.base import Encoder
                """,
                path="src/repro/coding/__init__.py",
            )
        )
        assert findings == []

    def test_function_level_imports_are_not_checked(self):
        findings = imp002(
            run(
                """
                def lazy() -> None:
                    import json
                """
            )
        )
        assert findings == []

    def test_waiver_keeps_a_side_effect_import(self):
        findings = imp002(
            run(
                """
                import repro.coding.rcc  # repro: allow[IMP002] reason=registers the rcc encoder
                """
            )
        )
        assert findings == []
