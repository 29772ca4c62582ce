"""The package parses under the oldest Python that pyproject.toml admits.

``ast.parse(..., feature_version=...)`` rejects grammar newer than that
version, such as ``except*`` or ``type`` aliases.  It checks syntax only: a
call into a library function added in a later Python parses fine here.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "pspinlab").glob("*.py"))


def test_floor_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=3\.10"$', text, re.MULTILINE)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_parses_at_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
