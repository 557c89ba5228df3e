"""Per-file analysis context shared by every rule.

A :class:`FileContext` owns the parsed AST, the source text, the
suppression map, and a small import-alias index that syntactic rules need
constantly (which local names refer to the ``random`` / ``time`` /
``numpy`` modules, which names were imported *from* them).  Building it
once per file keeps each rule a pure ``check(ctx) -> findings`` function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import PurePosixPath
from typing import TYPE_CHECKING

from .findings import Finding
from .suppressions import SuppressionMap, parse_suppressions

if TYPE_CHECKING:  # pragma: no cover - dataflow imports this module
    from .dataflow import TaintReach


@dataclass
class ImportIndex:
    """Module aliases and from-imports visible in one file.

    ``module_aliases`` maps a local name to the dotted module it denotes
    (``np`` → ``numpy``, ``_time`` → ``time``); ``from_imports`` maps a
    local name to ``"module.attr"`` for ``from module import attr [as name]``.
    """

    module_aliases: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, str] = field(default_factory=dict)

    def resolve_call_chain(self, node: ast.expr) -> str | None:
        """Dotted path of an attribute/name chain with aliases resolved.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``;
        a name bound by ``from copy import deepcopy`` resolves to
        ``copy.deepcopy``.  Returns ``None`` for anything that is not a
        plain name/attribute chain rooted at an imported module.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = current.id
        if root in self.module_aliases:
            parts.append(self.module_aliases[root])
        elif root in self.from_imports:
            parts.append(self.from_imports[root])
        elif parts:
            parts.append(root)
        else:
            return None
        return ".".join(reversed(parts))


def _build_import_index(tree: ast.AST) -> ImportIndex:
    index = ImportIndex()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                index.module_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    index.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return index


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    path: str  # posix-style, as reported in findings
    source: str
    tree: ast.Module
    suppressions: SuppressionMap
    imports: ImportIndex

    @classmethod
    def from_source(cls, source: str, path: str) -> "FileContext":
        """Parse *source*; raises :class:`SyntaxError` on unparseable input."""
        posix = PurePosixPath(path).as_posix()
        tree = ast.parse(source, filename=posix)
        return cls(
            path=posix,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source, posix),
            imports=_build_import_index(tree),
        )

    @cached_property
    def taint_reaches(self) -> list[TaintReach]:
        """Every reach of the determinism-taint pass, computed once per file."""
        from .dataflow import analyze_taint

        return analyze_taint(self)

    def finding(
        self, rule_id: str, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at *node*."""
        return Finding(
            rule_id=rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def path_matches(self, fragments: tuple[str, ...]) -> bool:
        """True when the context path contains any of the *fragments*."""
        return any(fragment in self.path for fragment in fragments)
