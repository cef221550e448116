"""The package version lives in one place: ``repro.__version__``.

``pyproject.toml`` declares the version dynamic and points setuptools
at that attribute, and the newest CHANGELOG entry names the same
version.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro

_ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_reads_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(_ROOT / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    project = config["project"]
    assert "version" not in project
    assert project["dynamic"] == ["version"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}


def test_changelog_heads_with_the_package_version():
    changelog = (_ROOT / "CHANGELOG.md").read_text(encoding="utf-8")
    newest = re.search(r"^## (\S+)", changelog, flags=re.MULTILINE)
    assert newest is not None
    assert newest.group(1) == repro.__version__
