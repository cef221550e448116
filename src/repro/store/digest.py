"""Stable cell digests and code fingerprints for the experiment store.

Two hashes identify a cached cell result:

* the **cell digest** — a canonical serialization of ``(spec name,
  cell key, repetition, config kwargs, derived seed)``.  Canonical
  means insertion-order- and container-type-independent: tuples and
  lists serialize identically, mapping keys are sorted, so the digest
  of a cell is the same no matter which process computed it or how the
  parameters were assembled;
* the **code fingerprint** — a hash over the transitive source closure
  of the spec's module: the module defining ``run_cell`` plus every
  :mod:`repro` module it (recursively) imports.  Editing any file in
  that closure flips the fingerprint, so a code change invalidates
  exactly the specs that depend on it and no others.

The digest stored in the CAS folds the fingerprint in, so a cache entry
can never be served across a code change.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import inspect
import json
import os
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set

from ..errors import ConfigurationError
from ..experiments.common import Cell, CellExperiment
from ..rng import derive_seed

__all__ = [
    "DIGEST_VERSION",
    "canonical_json",
    "cell_digest",
    "clear_fingerprint_caches",
    "code_fingerprint",
    "digest_root",
    "fingerprint_modules",
    "spec_fingerprint",
]

#: Bump to invalidate every existing cache entry and manifest.
DIGEST_VERSION = 1

_DIGEST_SIZE = 20  # bytes; 40 hex chars


# ----------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------
def _canonical_value(value: object) -> object:
    """Coerce ``value`` into a canonical JSON-representable form.

    Tuples and lists collapse to lists (so a ``(200, 300)`` sweep and
    its JSON round-trip ``[200, 300]`` digest identically); sets sort;
    mapping keys become sorted strings; anything else falls back to a
    tagged ``repr``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips floats exactly; json uses the same form.
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(repr(_canonical_value(v)) for v in value)}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    return {"__repr__": repr(value)}


def canonical_json(value: object) -> str:
    """Deterministic JSON encoding of ``value`` (see ``_canonical_value``)."""
    return json.dumps(
        _canonical_value(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def _hex_digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).hexdigest()


# ----------------------------------------------------------------------
# Code fingerprints
# ----------------------------------------------------------------------
#: module name -> (source file, content hash); cleared by tests that
#: edit source files on disk.
_MODULE_HASHES: Dict[str, Optional[tuple]] = {}
#: module name -> names its source imports; each file is parsed once
#: per cache generation, however many closures reach it.
_MODULE_IMPORTS: Dict[str, Set[str]] = {}
#: root module name -> ordered {module: hash} closure.
_CLOSURES: Dict[str, "OrderedDict[str, str]"] = {}


def clear_fingerprint_caches() -> None:
    """Forget memoised source hashes and import sets.

    Call after editing files on disk.
    """
    _MODULE_HASHES.clear()
    _MODULE_IMPORTS.clear()
    _CLOSURES.clear()
    importlib.invalidate_caches()


def _module_source_file(name: str) -> Optional[str]:
    """Path of the ``.py`` source for module ``name``, or None."""
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError, AttributeError):
        return None
    if spec is None or not spec.origin or not spec.has_location:
        return None
    if not spec.origin.endswith(".py"):
        return None
    return spec.origin


def _hash_file(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as handle:
            return _hex_digest(handle.read())
    except OSError:
        return None


def _module_entry(name: str) -> Optional[tuple]:
    """Memoised ``(source path, content hash)`` for module ``name``."""
    if name in _MODULE_HASHES:
        return _MODULE_HASHES[name]
    path = _module_source_file(name)
    entry = None
    if path is not None:
        content_hash = _hash_file(path)
        if content_hash is not None:
            entry = (path, content_hash)
    _MODULE_HASHES[name] = entry
    return entry


#: Statement fields that hold nested statements.  An import is a
#: statement, and no statement sits inside an expression, so walking
#: these finds every import without visiting expression nodes.
_BLOCK_FIELDS = ("body", "orelse", "finalbody", "handlers", "cases")


def _import_statements(tree: ast.Module):
    """Every ``import``/``from`` statement of ``tree``, at any depth."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
            continue
        for block in _BLOCK_FIELDS:
            pending.extend(getattr(node, block, ()))


def _imported_modules(name: str, path: str, is_package: bool) -> Set[str]:
    """Module names imported by the source file of ``name``.

    Resolves relative imports against the module's package and keeps
    both ``from X import y`` forms: ``X`` itself and ``X.y`` (``y`` may
    be a submodule; non-module attributes are filtered out later when
    their source cannot be located).
    """
    try:
        with open(path, "rb") as handle:
            tree = ast.parse(handle.read(), filename=path)
    except (OSError, SyntaxError):
        return set()
    package_parts = name.split(".") if is_package else name.split(".")[:-1]
    found: Set[str] = set()
    for node in _import_statements(tree):
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


def _followed_prefixes(root_module: str) -> Set[str]:
    """Top-level packages whose imports the closure walk follows.

    Always the :mod:`repro` package; additionally the root module's own
    top-level package, so specs defined outside ``repro`` (tests,
    notebooks, ad-hoc sweeps) still fingerprint their own helpers.
    """
    return {"repro", root_module.split(".")[0]}


def _in_followed(name: str, prefixes: Set[str]) -> bool:
    top = name.split(".")[0]
    return top in prefixes


def fingerprint_modules(
    root_module: str, fallback: Optional[object] = None
) -> "OrderedDict[str, str]":
    """Ordered ``{module name: source hash}`` for the transitive closure.

    Walks ``import``/``from`` statements (via :mod:`ast`, so imports
    inside functions count too) starting at ``root_module``, following
    only modules that belong to the followed packages (see
    ``_followed_prefixes``).  ``fallback`` is a function whose source
    file stands in when ``root_module`` itself cannot be located (e.g.
    specs defined in ``__main__``).
    """
    cached = _CLOSURES.get(root_module)
    if cached is not None:
        return cached
    closure: Dict[str, str] = {}
    root_entry = _module_entry(root_module)
    if root_entry is None and fallback is not None:
        path = None
        try:
            path = inspect.getsourcefile(fallback)
        except TypeError:
            path = None
        if path is not None and os.path.exists(path):
            content_hash = _hash_file(path)
            if content_hash is not None:
                root_entry = (path, content_hash)
        if root_entry is None:
            code = getattr(fallback, "__code__", None)
            blob = code.co_code if code is not None else repr(fallback).encode()
            root_entry = ("<unlocatable>", _hex_digest(bytes(blob)))
        _MODULE_HASHES[root_module] = root_entry
    if root_entry is None:
        raise ConfigurationError(
            f"cannot fingerprint {root_module!r}: module source not found"
        )
    prefixes = _followed_prefixes(root_module)
    pending: List[str] = [root_module]
    seen: Set[str] = set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        entry = _module_entry(name)
        if entry is None:
            continue
        path, content_hash = entry
        closure[name] = content_hash
        imports = _MODULE_IMPORTS.get(name)
        if imports is None:
            is_package = os.path.basename(path) == "__init__.py"
            imports = _MODULE_IMPORTS[name] = _imported_modules(
                name, path, is_package
            )
        for imported in imports:
            if _in_followed(imported, prefixes) and imported not in seen:
                pending.append(imported)
    ordered = OrderedDict(sorted(closure.items()))
    _CLOSURES[root_module] = ordered
    return ordered


def code_fingerprint(
    root_module: str, fallback: Optional[object] = None
) -> str:
    """Hash of the transitive source closure rooted at ``root_module``."""
    modules = fingerprint_modules(root_module, fallback)
    payload = canonical_json(
        {"version": DIGEST_VERSION, "modules": dict(modules)}
    )
    return _hex_digest(payload.encode("utf-8"))


def spec_fingerprint(spec: CellExperiment) -> str:
    """Code fingerprint of the module defining ``spec.run_cell``."""
    fn = spec.run_cell
    module = getattr(fn, "__module__", None) or "<anonymous>"
    return code_fingerprint(module, fallback=fn)


# ----------------------------------------------------------------------
# Cell digests
# ----------------------------------------------------------------------
def cell_digest(cell: Cell, fingerprint: str) -> str:
    """Content digest of one cell under one code fingerprint.

    The derived seed folds the cell's root ``seed`` parameter through
    :func:`repro.rng.derive_seed` exactly as the experiments do, so the
    digest pins the entire seed universe the cell will draw from.
    """
    try:
        root_seed = int(cell.param("seed", 0))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        root_seed = 0
    derived = derive_seed(root_seed, cell.experiment, cell.key, cell.rep)
    payload = {
        "version": DIGEST_VERSION,
        "experiment": cell.experiment,
        "key": cell.key,
        "rep": cell.rep,
        "params": {name: value for name, value in cell.params},
        "derived_seed": derived,
        "fingerprint": fingerprint,
    }
    return _hex_digest(canonical_json(payload).encode("utf-8"))


def digest_root(digests: Sequence[str]) -> str:
    """Order-sensitive hash over a sweep's cell digests.

    Enumeration order is part of the determinism contract, so the root
    is order-sensitive: a reordered sweep is a different sweep.
    """
    return _hex_digest("\n".join(digests).encode("utf-8"))
