"""The package's public names and its imports."""

import ast
import pathlib

import pytest

import fairmix

SRC = pathlib.Path(fairmix.__file__).parent


def test_every_export_resolves_once():
    names = fairmix.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(fairmix, name), name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """The records are slotted classes: ``dataclasses`` (and the ``inspect``
    it imports) would cost every command's start-up about 10 ms."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(n.split(".")[0] == "dataclasses" for n in names), (path.name, node.lineno)
