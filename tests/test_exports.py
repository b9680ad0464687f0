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


def _reads_a_number_by_hand(node) -> bool:
    """Whether ``node`` imports ``numbers``, reads ``float_info`` or calls
    ``isinstance`` with ``bool`` among its types."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numbers" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numbers" or any(
            alias.name == "float_info" for alias in node.names
        )
    if isinstance(node, ast.Attribute):
        return node.attr == "float_info"
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        types = node.args[1:2]
        types = types[0].elts if types and isinstance(types[0], ast.Tuple) else types
        return any(getattr(t, "id", None) == "bool" for t in types)
    return False


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "dataset.py"), ids=lambda p: p.name
)
def test_numbers_are_checked_in_one_module(path):
    """Whether a value given from outside is a number (not a bool, not text, within
    the float range) is decided by ``dataset``'s checks alone, not again elsewhere."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        assert not _reads_a_number_by_hand(node), (path.name, node.lineno)


def test_number_guard_sees_each_spelling():
    for source in (
        "import numbers", "from numbers import Real", "sys.float_info.max",
        "from sys import float_info", "isinstance(x, bool)", "isinstance(x, (int, bool))",
    ):
        assert any(map(_reads_a_number_by_hand, ast.walk(ast.parse(source)))), source
    assert not any(map(_reads_a_number_by_hand, ast.walk(ast.parse("isinstance(x, int)"))))
    dataset = (SRC / "dataset.py").read_text(encoding="utf-8")
    assert any(map(_reads_a_number_by_hand, ast.walk(ast.parse(dataset))))


def _slotted_classes_off_the_base(source: str) -> list[str]:
    """The classes in ``source`` that declare ``__slots__`` but name no ``_Record`` base."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        slotted = any(
            isinstance(target, ast.Name) and target.id == "__slots__"
            for stmt in node.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        )
        if slotted and not any(getattr(base, "id", None) == "_Record" for base in node.bases):
            found.append(node.name)
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "_record.py"), ids=lambda p: p.name
)
def test_every_slotted_class_is_a_record(path):
    """One object model: a class with ``__slots__`` is a ``_record._Record``, which gives
    it its constructor, repr, equality, frozen fields, pickling and copying."""
    assert _slotted_classes_off_the_base(path.read_text(encoding="utf-8")) == []


def test_record_guard_sees_a_slotted_class():
    assert _slotted_classes_off_the_base("class A:\n    __slots__ = ('x',)\n") == ["A"]
    assert _slotted_classes_off_the_base("class A(B):\n    __slots__: tuple = ()\n") == ["A"]
    assert _slotted_classes_off_the_base("class A(_Record):\n    __slots__ = ('x',)\n") == []
    assert _slotted_classes_off_the_base("class A:\n    x = 1\n") == []
    assert _slotted_classes_off_the_base((SRC / "_record.py").read_text(encoding="utf-8")) == [
        "_Record"
    ]
