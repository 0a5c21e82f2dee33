"""IMP — import rules.

IMP002 (module scope) reports a module-level import whose name the
module never reads.  IMP001 (project scope) is built on the module-level
import graph the project pass assembles
(:class:`repro.analysis.project.ProjectContext`).  Lazy in-function
imports — the registry modules' sanctioned cycle-breaking idiom — and
``if TYPE_CHECKING:`` imports are excluded from the graph, so a cycle
reported here is one the interpreter actually executes at import time:
whether it works depends on statement order inside ``__init__`` modules,
and the next re-ordering breaks it.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple, Union

from repro.analysis.engine import ModuleContext
from repro.analysis.finding import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.registry import register_rule


@register_rule(
    "IMP001",
    summary="module-level import cycle (order-dependent; break it with a "
    "lazy in-function import or an interface module)",
    scope="project",
)
def check_import_cycles(project: ProjectContext) -> Iterator[Finding]:
    """Report each strongly-connected component of the module-level
    import graph (TYPE_CHECKING and in-function imports excluded) as one
    finding, anchored at the first module's import of the next member."""
    for cycle in project.import_cycles():
        first = project.modules[cycle[0]]
        successor = cycle[1] if len(cycle) > 1 else cycle[0]
        anchor = None
        for record in first.imports:
            resolved = project.resolve_module(record.target)
            if resolved == successor:
                anchor = record
                break
        if anchor is None and first.imports:
            anchor = first.imports[0]
        lineno = anchor.lineno if anchor is not None else 1
        snippet = anchor.snippet if anchor is not None else ""
        chain = " -> ".join(cycle + [cycle[0]])
        yield Finding(
            rule="IMP001",
            path=first.path,
            line=lineno,
            column=0,
            message=f"module-level import cycle: {chain}; import order now "
            "decides whether this tree loads — break the cycle with a lazy "
            "in-function import (the registry idiom) or by importing from "
            "the defining submodule instead of the package __init__",
            snippet=snippet,
        )


def _module_level_imports(
    body: List[ast.stmt],
) -> Iterator[Tuple[Union[ast.Import, ast.ImportFrom], ast.alias]]:
    """Every alias of the module-level imports, through top-level if/try blocks."""
    for statement in body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            for alias in statement.names:
                yield statement, alias
        elif isinstance(statement, ast.If):
            yield from _module_level_imports(statement.body + statement.orelse)
        elif isinstance(statement, ast.Try):
            handlers = [item for handler in statement.handlers for item in handler.body]
            yield from _module_level_imports(
                statement.body + handlers + statement.orelse + statement.finalbody
            )


def _exported_names(tree: ast.Module) -> Set[str]:
    """The string entries of every module-level ``__all__`` assignment."""
    names: Set[str] = set()
    for statement in tree.body:
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
            targets = [statement.target]
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        value = statement.value
        if isinstance(value, (ast.List, ast.Tuple)):
            names.update(
                item.value
                for item in value.elts
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return names


def _read_names(tree: ast.Module) -> Set[str]:
    """Names the module reads, including those inside string annotations."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for constant in ast.walk(annotation):
            if isinstance(constant, ast.Constant) and isinstance(constant.value, str):
                try:
                    parsed = ast.parse(constant.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


@register_rule(
    "IMP002",
    summary="module-level import whose name the module never uses",
)
def check_unused_imports(module: ModuleContext) -> Iterator[Finding]:
    """Flag module-level imports the module never reads.

    Re-exports are uses: names listed in ``__all__``, the explicit
    ``import x as x`` / ``from m import x as x`` idiom, and every import
    of a package ``__init__.py`` (its imports are the package's API).
    ``from __future__`` imports and star imports are not checked.  An
    import kept only for its side effect (e.g. registering plugins) is
    waived with a reason.
    """
    if module.relpath.replace("\\", "/").endswith("__init__.py"):
        return
    used = _read_names(module.tree) | _exported_names(module.tree)
    for statement, alias in _module_level_imports(module.tree.body):
        if alias.name == "*":
            continue
        if alias.asname is not None and alias.asname == alias.name.split(".")[-1] and (
            isinstance(statement, ast.ImportFrom) or "." not in alias.name
        ):
            continue  # explicit re-export idiom
        bound = alias.asname or alias.name.split(".")[0]
        if bound in used:
            continue
        what = (
            f"from {'.' * statement.level}{statement.module or ''} import {alias.name}"
            if isinstance(statement, ast.ImportFrom)
            else f"import {alias.name}"
        )
        yield module.finding(
            "IMP002",
            statement,
            f"unused import: {what}{f' as {alias.asname}' if alias.asname else ''} "
            f"binds {bound!r}, which the module never reads; delete it, list it in "
            "__all__ if it is a re-export, or waive a side-effect import with a reason",
        )
