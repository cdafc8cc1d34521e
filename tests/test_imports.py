"""Every ``uqkit`` module uses every name it imports."""

import ast
from pathlib import Path

import pytest

import uqkit
from uqkit.cli import _CONFORMAL

MODULES = sorted(
    p for p in Path(uqkit.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
# names a module reaches by string: ``cmd_conformal`` looks its function up in globals()
USED_BY_NAME = {"cli.py": {name for name, _ in _CONFORMAL.values()}}


def unused_imports(source: str, used_by_name: set[str] = frozenset()) -> list[str]:
    """The names ``source`` imports and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(used_by_name)
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, USED_BY_NAME.get(path.name, set())) == []


def test_the_check_sees_a_leftover_import():
    source = (
        "from itertools import compress\nimport numpy as np\n"
        "from typing import NamedTuple as T\nnp.zeros(1)\n"
    )
    assert unused_imports(source) == ["compress", "T"]
    assert unused_imports("from .x import f\n", {"f"}) == []


# calls that read a file or parse JSON text, by the name called
_FILE_READS = {"open", "read_text", "read_bytes", "load", "loads"}


def file_reads(source: str) -> list[str]:
    """The file-reading calls in ``source``: ``open``, ``read_text``,
    ``read_bytes`` and ``json.load``/``json.loads``, bare or as methods."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            json_call = isinstance(func.value, ast.Name) and func.value.id == "json"
            if name in ("load", "loads") and not json_call:
                continue
        else:
            continue
        if name in _FILE_READS:
            found.append(name)
    return found


def test_only_the_data_module_reads_files():
    # data.read_matrix_csv and data.read_json are the one CSV and one JSON reader
    offenders = {
        p.name: reads for p in MODULES
        if p.name != "data.py" and (reads := file_reads(p.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_the_read_check_sees_each_spelling():
    source = (
        "import json\nfrom json import loads\n"
        "json.loads(p.read_text())\njson.load(open(p))\nloads(p.read_bytes())\n"
        "p.open()\nnp.load(p)\n"
    )
    assert sorted(file_reads(source)) == sorted(
        ["loads", "read_text", "load", "open", "loads", "read_bytes", "open"]
    )
