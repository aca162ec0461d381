"""Every Python file of the project parses as Python 3.10, the oldest version
pyproject.toml supports, so syntax new in a later version fails here even
when the tests run on a newer interpreter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def test_files_found():
    assert any(p.name == "cli.py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
