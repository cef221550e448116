"""Every ``repro.…`` name the documents cite in backticks exists.

README.md, DESIGN.md and docs/*.md point readers at modules, classes
and functions by dotted name.  A rename or a deletion that forgets the
documents leaves them pointing at nothing.  Each cited name must
resolve: its longest importable prefix is imported and the rest is
read as attributes.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
#: a dotted ``repro`` name that opens a backticked span.
CITED = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")


def _cited_names():
    names = set()
    for path in DOCUMENTS:
        names.update(CITED.findall(path.read_text(encoding="utf-8")))
    return sorted(names)


def _resolve(name: str) -> object:
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            found = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name != module_name:
                raise  # the module exists but fails to import
            continue
        for attribute in parts[split:]:
            found = getattr(found, attribute)
        return found
    raise ModuleNotFoundError(name)


def test_every_cited_name_resolves():
    names = _cited_names()
    assert len(names) > 50, "the scan should find the documents' names"
    unresolved = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{name}: {exc}")
    assert not unresolved, "\n".join(unresolved)
