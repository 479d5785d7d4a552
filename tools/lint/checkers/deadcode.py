"""Dead modules (RL701): every ``src/repro`` module must feed something.

A module is *dead* when none of its top-level bindings (``def``,
``class``, assignment or annotated assignment) is loaded anywhere
outside ``tests/`` and the module itself.  Only loads count: an
``ast.Name`` or ``ast.Attribute`` in load context, searched in
``src/repro``, ``benchmarks``, ``examples``, ``perfbench`` and
``tools``.  Import statements and ``__all__`` strings do not count, so
a module whose only importer is a package ``__init__`` re-export, or
whose only users are its own tests, is flagged.  Matching is by bare
name, so the rule errs towards calling a module live.
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..core import RepoChecker

#: Top-level directories whose loads keep a module alive.
USE_DIRS = ("src/repro", "benchmarks", "examples", "perfbench", "tools")

#: Module files that are entry points or re-export shims, never flagged.
_EXEMPT = {"__init__.py", "__main__.py"}


def _parse(path: Path):
    try:
        return ast.parse(path.read_text())
    except SyntaxError:
        return None  # RL000 reports unparseable files


def _bindings(tree: ast.Module) -> set:
    """Names a module binds at top level (dunders excluded)."""
    names: set = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
            continue
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return {n for n in names if not n.startswith("__")}


def _loads(tree: ast.Module) -> set:
    """Every name or attribute the module reads."""
    names: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


class DeadModuleChecker(RepoChecker):
    """``src/repro`` modules no code outside tests reads from."""

    code = "RL701"
    codes = ("RL701",)
    name = "dead-module"
    description = ("a src/repro module must have a top-level binding "
                   "loaded outside tests/ and itself")

    def check_repo(self, root: Path):
        loads: dict[Path, set] = {}
        for top in USE_DIRS:
            for path in sorted((root / top).rglob("*.py")):
                tree = _parse(path)
                loads[path] = _loads(tree) if tree else set()
        src = root / "src"
        for path in sorted((root / "src" / "repro").rglob("*.py")):
            tree = None if path.name in _EXEMPT else _parse(path)
            if tree is None:
                continue
            bound = _bindings(tree)
            if any(bound & used for other, used in loads.items()
                   if other != path):
                continue
            module = ".".join(path.relative_to(src).with_suffix("").parts)
            yield self.finding_at(
                path.relative_to(root).as_posix(), 1,
                f"dead module `{module}`: no top-level binding is loaded "
                f"outside tests/ and itself")
