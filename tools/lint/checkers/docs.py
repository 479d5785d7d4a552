"""Docs rules (RL601–RL605): links, CLI examples, docstrings and names.

Repo-level: RL601 verifies every relative
markdown link in the documented pages resolves inside the checkout,
RL602 parses every documented ``python -m repro.eval`` line with the
*real* argument parser (a renamed flag breaks the lint, not the
reader), RL603 requires docstrings on every ``src/repro`` module
and public top-level def, and RL604 resolves every ``repro.…``
cross-reference role in ``src/repro`` against the source tree (a
deleted class breaks the lint, not the reader), and RL605 does the same
for backticked class-style names in the documented pages.  ``python -m
tools.lint --select RL6`` runs only these rules.
"""

from __future__ import annotations

import ast
import builtins
import re
import shlex
import sys
from pathlib import Path

from ..core import RepoChecker

#: Markdown files the link/CLI checks cover.
DOC_FILES = ("README.md", "docs/architecture.md", "docs/machine-models.md",
             "docs/trace-store.md", "docs/robustness.md",
             "docs/static-analysis.md", "docs/fuzzing.md")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)


def _line_of(doc_text: str, needle: str) -> int:
    """1-based line of the first occurrence of ``needle`` (1 if absent)."""
    for idx, line in enumerate(doc_text.splitlines(), start=1):
        if needle in line:
            return idx
    return 1


class DocLinkChecker(RepoChecker):
    """Relative markdown links must resolve inside the checkout."""

    code = "RL601"
    codes = ("RL601",)
    name = "doc-links"
    description = "relative links in README/docs must resolve"

    def check_repo(self, root: Path):
        for name in DOC_FILES:
            doc = root / name
            if not doc.is_file():
                yield self.finding_at(name, 1, "documentation file missing")
                continue
            text = doc.read_text()
            for target in _LINK_RE.findall(text):
                if target.startswith(("http://", "https://", "#",
                                      "mailto:")):
                    continue
                path = target.split("#", 1)[0]
                if path and not (doc.parent / path).exists():
                    yield self.finding_at(name, _line_of(text, target),
                                          f"broken link -> {target}")


class CliExampleChecker(RepoChecker):
    """Documented CLI invocations must parse with the real parser."""

    code = "RL602"
    codes = ("RL602",)
    name = "doc-cli-examples"
    description = ("every documented `python -m repro.eval` line must "
                   "parse with the real argument parser")

    def check_repo(self, root: Path):
        examples = iter_cli_examples(root)
        if not examples:
            yield self.finding_at(
                DOC_FILES[0], 1,
                "no `python -m repro.eval` examples found in docs")
        for doc, line_no, line in examples:
            try:
                parse_cli_example(root, line)
            except SystemExit:
                yield self.finding_at(
                    doc, line_no, f"CLI example does not parse: {line}")
            except AssertionError as exc:
                yield self.finding_at(doc, line_no, str(exc))


def iter_cli_examples(root: Path) -> list[tuple[str, int, str]]:
    """Every ``python -m repro.eval`` line in a fenced doc code block."""
    examples = []
    for name in DOC_FILES:
        doc = root / name
        if not doc.is_file():
            continue
        text = doc.read_text()
        for block in _FENCE_RE.findall(text):
            for line in block.splitlines():
                line = line.strip()
                if "python -m repro.eval" in line:
                    examples.append((name, _line_of(text, line), line))
    return examples


def parse_cli_example(root: Path, line: str) -> None:
    """Parse one documented CLI line with the real parser; raise on error."""
    sys.path.insert(0, str(root / "src"))
    try:
        from repro.eval.__main__ import build_parser
    finally:
        sys.path.pop(0)
    tokens = shlex.split(line)
    # Strip leading VAR=value assignments (e.g. PYTHONPATH=src) and the
    # interpreter invocation itself.
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        tokens.pop(0)
    assert tokens[:3] == ["python", "-m", "repro.eval"], \
        f"not a repro.eval invocation: {line!r}"
    build_parser().parse_args(tokens[3:])  # SystemExit(2) on bad args


class DocstringChecker(RepoChecker):
    """Modules and public top-level defs carry docstrings."""

    code = "RL603"
    codes = ("RL603",)
    name = "docstrings"
    description = ("every src/repro module and public top-level def "
                   "must carry a docstring")

    def check_repo(self, root: Path):
        for path in sorted((root / "src" / "repro").rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            try:
                tree = ast.parse(path.read_text(), filename=rel)
            except SyntaxError:
                continue  # RL000 reports unparseable files
            if ast.get_docstring(tree) is None:
                yield self.finding_at(rel, 1, "missing module docstring")
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                        and not node.name.startswith("_") \
                        and ast.get_docstring(node) is None:
                    yield self.finding_at(
                        rel, node.lineno,
                        f"public `{node.name}` missing docstring")


#: A Sphinx cross-reference into the package; the target may wrap
#: across a docstring line (``~repro.eval.runner`` / ``.run_experiment``).
_XREF_RE = re.compile(
    r":(?:class|func|meth|mod|attr|data):`~?(repro\b[^`]*)`")


def _module_file(src: Path, dotted: list[str]) -> Path | None:
    """The source file of module ``dotted`` under ``src``, if any."""
    base = src.joinpath(*dotted)
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _bindings(body: list) -> dict:
    """Names a module or class body binds: name -> class node or None."""
    names: dict = {}
    for node in body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = None
    return names


class CrossRefChecker(RepoChecker):
    """Docstring cross-references into ``repro`` must resolve."""

    code = "RL604"
    codes = ("RL604",)
    name = "doc-xrefs"
    description = ("every :class:/:func:/:meth:/:mod:/:attr:/:data: "
                   "target `repro.…` in src/repro must name an existing "
                   "module and definition")

    def check_repo(self, root: Path):
        src = root / "src"
        trees: dict[Path, ast.Module] = {}
        for path in sorted((src / "repro").rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            text = path.read_text()
            for match in _XREF_RE.finditer(text):
                target = re.sub(r"\s+", "", match.group(1))
                if not self._resolves(src, target.split("."), trees):
                    line = text.count("\n", 0, match.start()) + 1
                    yield self.finding_at(
                        rel, line, f"unresolved cross-reference `{target}`")

    @staticmethod
    def _resolves(src: Path, parts: list[str], trees: dict) -> bool:
        """Longest module prefix, then top-level/class-level names."""
        for split in range(len(parts), 0, -1):
            path = _module_file(src, parts[:split])
            if path is not None:
                break
        else:
            return False
        if path not in trees:
            try:
                trees[path] = ast.parse(path.read_text())
            except SyntaxError:
                return True  # RL000 reports unparseable files
        body = trees[path].body
        for name in parts[split:]:
            names = _bindings(body)
            if name not in names:
                return False
            node = names[name]
            body = node.body if node is not None else []
        return True


#: An inline code span (fenced blocks are blanked out first).
_SPAN_RE = re.compile(r"`([^`\n]+)`")

#: A class-style name -- two or more capitals, at least one lowercase
#: letter -- alone or followed by ``.attr`` parts.
_CAMEL_RE = re.compile(r"([A-Z][A-Za-z0-9_]*)(?:\.[A-Za-z_][A-Za-z0-9_]*)*")


def _camel_head(span: str) -> str | None:
    """The leading class-style name of a code span, if it is one."""
    match = _CAMEL_RE.fullmatch(span)
    if match is None:
        return None
    head = match.group(1)
    if sum(c.isupper() for c in head) < 2 or not any(c.islower()
                                                      for c in head):
        return None
    return head


def _defined_names(root: Path) -> set:
    """Every name a def, class, assignment or import binds anywhere in
    ``src/repro`` or ``tools``."""
    names: set = set()
    for top in (root / "src" / "repro", root / "tools"):
        for path in sorted(top.rglob("*.py")):
            try:
                tree = ast.parse(path.read_text())
            except SyntaxError:
                continue  # RL000 reports unparseable files
            for node in ast.walk(tree):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        names.add(alias.asname
                                  or alias.name.rsplit(".", 1)[-1])
    return names


class DocNameChecker(RepoChecker):
    """Backticked class-style names in the docs must still exist."""

    code = "RL605"
    codes = ("RL605",)
    name = "doc-names"
    description = ("every backticked CamelCase name (alone or with "
                   "`.attr`) in README/docs is defined or imported under "
                   "src/repro or tools/, or is a builtin")

    def check_repo(self, root: Path):
        known = _defined_names(root)
        for name in DOC_FILES:
            doc = root / name
            if not doc.is_file():
                continue  # RL601 reports missing pages
            # Blank fenced blocks, keeping their newlines for line numbers.
            text = _FENCE_RE.sub(lambda m: "\n" * m.group(0).count("\n"),
                                 doc.read_text())
            for match in _SPAN_RE.finditer(text):
                head = _camel_head(match.group(1))
                if head is None or head in known or hasattr(builtins, head):
                    continue
                line = text.count("\n", 0, match.start()) + 1
                yield self.finding_at(
                    name, line, f"unknown name `{match.group(1)}`")
