"""Every ``from repro... import ...`` line in README.md and docs/*.md
resolves, names included, so a renamed or deleted API cannot leave a
dead example behind in the prose."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

_START = re.compile(r"^\s*(from\s+repro[\w.]*\s+import\b|import\s+repro\b)")


def doc_imports(path: Path):
    """(line number, parsed import statement) for each repro import in
    a document; backslash and parenthesized continuations are joined."""
    lines = path.read_text().splitlines()
    found = []
    for idx, line in enumerate(lines):
        if not _START.match(line):
            continue
        stmt = line.strip()
        end = idx
        while (stmt.endswith("\\") or stmt.count("(") > stmt.count(")")) \
                and end + 1 < len(lines):
            end += 1
            stmt = stmt.rstrip("\\") + " " + lines[end].strip()
        found.append((idx + 1, ast.parse(stmt).body[0]))
    return found


def test_documents_import_something():
    assert sum(len(doc_imports(doc)) for doc in DOCS) >= 5


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_repro_imports_in_docs_resolve(doc):
    problems = []
    for lineno, node in doc_imports(doc):
        if isinstance(node, ast.Import):
            modules, names = [a.name for a in node.names], []
        else:
            modules, names = [node.module], [a.name for a in node.names]
        for module_name in modules:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                problems.append(f"{doc.name}:{lineno}: {exc}")
                continue
            for name in names:
                if not hasattr(module, name):
                    try:
                        importlib.import_module(f"{module_name}.{name}")
                    except ImportError:
                        problems.append(f"{doc.name}:{lineno}: "
                                        f"{module_name} has no {name!r}")
    assert not problems, "\n".join(problems)
