"""The fingerprint's import scan: statement walk and per-module memo.

``_imported_modules`` visits only statement bodies (``body``,
``orelse``, ``finalbody``, ``handlers``, ``cases``): an import is a
statement and no statement sits inside an expression.
:func:`_full_walk_imports` is the earlier scan, ``ast.walk`` over every
node, kept as the reference.  Both must find the same names in every
``repro`` module and in a synthetic source that hides imports in every
compound statement.  The closure walk memoises each module's import
set, so fingerprinting every registered spec parses each source file
once per cache generation.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import textwrap
from collections import Counter
from typing import Set

import repro
from repro.runner import available_experiments, get_spec
from repro.store import clear_fingerprint_caches, fingerprint_modules
from repro.store import digest
from repro.store.digest import _imported_modules


def _full_walk_imports(name: str, path: str, is_package: bool) -> Set[str]:
    """Reference scan: ``ast.walk`` over every node of the module."""
    with open(path, "rb") as handle:
        tree = ast.parse(handle.read())
    package_parts = name.split(".") if is_package else name.split(".")[:-1]
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                keep = len(package_parts) - node.level + 1
                if keep < 1:
                    continue
                anchor = package_parts[:keep]
                base = ".".join(anchor + (node.module or "").split("."))
                base = base.rstrip(".")
            else:
                base = node.module or ""
            if not base:
                continue
            found.add(base)
            for alias in node.names:
                if alias.name != "*":
                    found.add(f"{base}.{alias.name}")
    return found


def _repro_modules():
    root = os.path.dirname(repro.__file__)
    for directory, _dirs, files in os.walk(root):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            parts = os.path.relpath(path, os.path.dirname(root))[:-3].split(os.sep)
            is_package = parts[-1] == "__init__"
            if is_package:
                parts = parts[:-1]
            yield ".".join(parts), path, is_package


def test_statement_walk_matches_full_walk_on_every_repro_module():
    modules = list(_repro_modules())
    assert len(modules) > 100
    for name, path, is_package in modules:
        assert _imported_modules(name, path, is_package) == _full_walk_imports(
            name, path, is_package
        ), name


_NESTED_SOURCE = '''
import a0
if flag:
    import a1
elif other:
    from . import a2
else:
    from .. import a3
try:
    import a4
except ImportError:
    import a5
except (ValueError, TypeError) as error:
    from a6 import b6
else:
    import a7
finally:
    import a8
with ctx() as handle:
    import a9
    with ctx():
        from a10 import *
for item in items:
    import a11
else:
    import a12
while running:
    import a13
    break
else:
    import a14
match value:
    case 1:
        import a15
    case [first, *_] if first:
        from .a16 import b16, c16
    case _:
        import a17.sub as s17
class Outer:
    import a18
    def method(self):
        import a19
        class Inner:
            from a20 import e20
    async def coroutine(self):
        async with actx():
            import a21
        async for entry in agen():
            import a22
        else:
            import a23
@decorator(lambda: None)
def function(default=lambda: 0):
    import a24
    def closure():
        if True:
            try:
                import a25
            except Exception:
                pass
hidden = [lambda: __import__("not_a_statement")]
'''

# ``except*`` parses on 3.11+ only.
_TRY_STAR_SOURCE = '''
try:
    import a26
except* ValueError:
    import a27
else:
    import a28
finally:
    import a29
'''


def test_statement_walk_finds_imports_in_every_compound_statement(tmp_path):
    source = _NESTED_SOURCE
    expected = 26
    if sys.version_info >= (3, 11):
        source += _TRY_STAR_SOURCE
        expected = 30
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(source))
    for name, is_package in (("pkg.sub.mod", False), ("pkg.sub", True)):
        found = _imported_modules(name, str(path), is_package)
        assert found == _full_walk_imports(name, str(path), is_package)
        components = {part for module in found for part in module.split(".")}
        for index in range(expected):
            assert f"a{index}" in components, (name, index)
        assert "not_a_statement" not in components


def test_each_module_is_parsed_once_per_cache_generation(monkeypatch):
    parsed: Counter = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[filename] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(digest.ast, "parse", counting_parse)
    names = available_experiments()
    assert len(names) >= 20
    for _generation in range(2):
        clear_fingerprint_caches()
        parsed.clear()
        modules: Set[str] = set()
        for name in names:
            run_cell = get_spec(name).run_cell
            modules.update(fingerprint_modules(run_cell.__module__, run_cell))
        assert parsed and set(parsed.values()) == {1}
        assert set(parsed) == {
            importlib.util.find_spec(module).origin for module in modules
        }
