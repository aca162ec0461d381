"""Every Python file of the project parses as Python 3.10, the oldest version
pyproject.toml supports, so syntax new in a later version fails here even
when the tests run on a newer interpreter; and no file uses a standard
library name that a later version added."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))

# standard library names that Python 3.11 or 3.12 added: modules, names of a
# module, builtins, and methods of sqlite3.Connection (no other object of
# the project has a method of these names)
NEWER_MODULES = {"tomllib", "wsgiref.types"}
NEWER_NAMES = {
    "asyncio": {"Barrier", "Runner", "TaskGroup", "timeout", "timeout_at"},
    "contextlib": {"chdir"},
    "datetime": {"UTC"},
    "enum": {"EnumCheck", "FlagBoundary", "ReprEnum", "StrEnum", "global_enum",
             "member", "nonmember", "verify"},
    "hashlib": {"file_digest"},
    "itertools": {"batched"},
    "logging": {"getLevelNamesMapping"},
    "math": {"cbrt", "exp2", "sumprod"},
    "operator": {"call"},
    "re": {"NOFLAG"},
    "sqlite3": {"Blob"},
    "typing": {"LiteralString", "Never", "NotRequired", "Required", "Self",
               "TypeAliasType", "TypeVarTuple", "Unpack", "assert_never", "assert_type",
               "clear_overloads", "dataclass_transform", "get_overloads", "override",
               "reveal_type"},
}
NEWER_BUILTINS = {"BaseExceptionGroup", "ExceptionGroup"}
NEWER_METHODS = {"autocommit", "blobopen", "getconfig", "getlimit", "setconfig", "setlimit"}


def newer_names(tree: ast.AST) -> list[str]:
    """The post-3.10 standard library names that ``tree`` imports or uses."""
    nodes = list(ast.walk(tree))
    modules = {}  # local name -> module it is bound to
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.partition(".")[0]] = alias.name
                if alias.name in NEWER_MODULES:
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module in NEWER_MODULES:
                found.append(node.module)
            newer = NEWER_NAMES.get(node.module, ())
            found.extend(f"{node.module}.{a.name}" for a in node.names if a.name in newer)
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            module = modules.get(owner, owner)
            if node.attr in NEWER_NAMES.get(module, ()):
                found.append(f"{module}.{node.attr}")
            elif node.attr in NEWER_METHODS:
                found.append(f"Connection.{node.attr}")
    return found


def test_files_found():
    assert any(p.name == "cli.py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_uses_no_newer_stdlib_name(path):
    assert newer_names(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("import tomllib", "tomllib"),
        ("from tomllib import loads", "tomllib"),
        ("from datetime import UTC", "datetime.UTC"),
        ("import datetime as dt\nnow = dt.datetime.now(dt.UTC)", "datetime.UTC"),
        ("import itertools\nitertools.batched(x, 2)", "itertools.batched"),
        ("from typing import Self", "typing.Self"),
        ("import enum\nclass E(enum.StrEnum): pass", "enum.StrEnum"),
        ("import hashlib\nhashlib.file_digest(f, 'sha256')", "hashlib.file_digest"),
        ("def f():\n    import asyncio\n    return asyncio.TaskGroup()", "asyncio.TaskGroup"),
        ("from contextlib import chdir", "contextlib.chdir"),
        ("raise ExceptionGroup('x', [])", "ExceptionGroup"),
        ("self.conn.blobopen('t', 'c', 1)", "Connection.blobopen"),
        ("conn.autocommit = True", "Connection.autocommit"),
    ],
)
def test_newer_name_is_found(source, name):
    assert newer_names(ast.parse(source)) == [name]


def test_older_names_pass():
    source = (
        "from datetime import datetime, timezone\nimport itertools\n"
        "datetime.now(timezone.utc)\nitertools.islice(x, 2)\nconn.commit()"
    )
    assert newer_names(ast.parse(source)) == []
