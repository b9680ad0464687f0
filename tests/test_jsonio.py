"""Canonical JSON emitter: determinism, float formatting, rejection rules."""

import enum
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairmix import (
    Dataset,
    Ensemble,
    TableClassifier,
    build_counterfactual_pairs,
    classifier_report,
    ensemble_report,
)
from fairmix.jsonio import (
    FLOAT_FORMAT, _BLOCK_ROWS, _INDENT, _key, _scalar, dumps, dump_path
)


class Color(enum.Enum):
    RED = "red"


def test_parses_as_standard_json():
    doc = {"b": [1, 2.5, None, True], "a": {"nested": "x"}}
    assert json.loads(dumps(doc)) == doc


def test_keys_sorted_and_trailing_newline():
    text = dumps({"zebra": 1, "apple": 2})
    assert text.endswith("\n")
    assert text.index('"apple"') < text.index('"zebra"')


def test_matches_stdlib_layout_for_ints():
    doc = {"a": [1, 2], "b": {"c": None}}
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_float_format_is_12_significant_digits():
    assert dumps(1 / 3).strip() == "0.333333333333"
    assert dumps(2 / 9).strip() == "0.222222222222"
    assert dumps(0.25).strip() == "0.25"
    assert dumps(1e-15).strip() == "1e-15"


def test_determinism():
    doc = {"x": np.random.default_rng(0).random(5), "y": 1 / 7}
    assert dumps(doc) == dumps(doc)


def test_numpy_and_enum_conversion():
    doc = {
        "arr": np.array([1.0, 2.0]),
        "i": np.int64(3),
        "f": np.float64(0.5),
        "flag": np.bool_(True),
        "kind": Color.RED,
    }
    parsed = json.loads(dumps(doc))
    assert parsed == {"arr": [1.0, 2.0], "i": 3, "f": 0.5, "flag": True, "kind": "red"}


def test_non_string_keys_stringified():
    assert json.loads(dumps({0: "a", 1: "b"})) == {"0": "a", "1": "b"}


def test_empty_containers():
    assert dumps({}).strip() == "{}"
    assert dumps([]).strip() == "[]"
    assert json.loads(dumps({"a": [], "b": {}})) == {"a": [], "b": {}}


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"x": float("nan")})
    with pytest.raises(ValueError, match="non-finite"):
        dumps([np.inf])


def test_unknown_type_rejected():
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps({"x": object()})


def test_bools_not_confused_with_ints():
    text = dumps({"t": True, "f": False, "one": 1, "zero": 0})
    parsed = json.loads(text)
    assert parsed["t"] is True and parsed["zero"] == 0
    assert "true" in text and "false" in text


def test_string_escaping():
    tricky = 'quote " backslash \\ newline \n unicode é'
    assert json.loads(dumps({"s": tricky}))["s"] == tricky


def test_dump_path_round_trip(tmp_path):
    path = tmp_path / "out.json"
    dump_path({"value": 2 / 9}, path)
    text = path.read_text()
    assert text == dumps({"value": 2 / 9})
    assert json.loads(text)["value"] == pytest.approx(2 / 9, abs=1e-12)


def _reference_emit(value, parts, depth):
    """The emitter without its integer-array path: one call per node."""
    value = _scalar(value)
    pad = _INDENT * depth
    inner = _INDENT * (depth + 1)
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, int):
        parts.append(str(value))
    elif isinstance(value, float):
        parts.append(format(value, FLOAT_FORMAT))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        entries = {_key(k): v for k, v in value.items()}
        parts.append("{\n")
        for i, key in enumerate(sorted(entries)):
            parts.append(f"{inner}{json.dumps(key)}: ")
            _reference_emit(entries[key], parts, depth + 1)
            parts.append(",\n" if i < len(entries) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, item in enumerate(value):
            parts.append(inner)
            _reference_emit(item, parts, depth + 1)
            parts.append(",\n" if i < len(value) - 1 else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_dumps(obj) -> str:
    parts = []
    _reference_emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def _documents(leaf):
    """Nested lists, tuples and dicts over ``leaf``, rich in int rows."""
    ints = st.integers()
    rows = st.one_of(
        st.lists(ints, max_size=4),
        st.lists(ints, max_size=4).map(tuple),
        st.lists(st.one_of(ints, leaf), max_size=4),
    )
    tables = st.one_of(st.lists(rows, max_size=5), st.lists(rows, max_size=5).map(tuple))
    return st.recursive(
        st.one_of(leaf, rows, tables),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=3), children, max_size=4),
        ),
        max_leaves=40,
    )


#: 2-D shapes: one row, one column, three columns, and no rows
TABLE_SHAPES = st.integers(1, 5).flatmap(
    lambda k: st.sampled_from([(1, k), (k, 1), (k, 3), (0, 2)])
)
PLAIN_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))
MIXED_LEAVES = st.one_of(
    PLAIN_LEAVES,
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.sampled_from(Level),
    hnp.arrays(st.sampled_from([np.int8, np.uint8, np.int64, np.uint64]), TABLE_SHAPES),
    hnp.arrays(np.bool_, TABLE_SHAPES),  # not an integer array: node by node
)


class TestIntBlockPath:
    """``dumps`` writes a 2-D integer array in one block; the text must be
    the node-by-node emitter's, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(doc=_documents(MIXED_LEAVES))
    def test_matches_node_by_node_emitter(self, doc):
        assert dumps(doc) == reference_dumps(doc)

    @settings(max_examples=200, deadline=None)
    @given(doc=_documents(PLAIN_LEAVES))
    def test_matches_stdlib_without_floats(self, doc):
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "doc",
        [
            [1, True],
            [[1, 2], [True, 0]],
            [[1, 2], []],
            [[1, 2], [np.int64(3)]],
            [Level.LOW, 2],
            [[1], (2, 3), [4, 5, 6]],
            [[1, 2], 3],
            np.zeros((3, 0), dtype=np.int64),
            np.array([[True, False]]),
            np.array([[-(2**63), 2**64 - 1]], dtype=object),
            np.arange(6, dtype=np.int16).reshape(3, 2)[::-1, ::-1],
            np.arange(8, dtype=np.uint32).reshape(2, 2, 2),
        ],
    )
    def test_edge_lists(self, doc):
        assert dumps({"x": doc}) == reference_dumps({"x": doc})

    def test_audit_documents(self):
        # 64 feature vectors over 2,000 rows: thousands of twin pairs
        rng = np.random.default_rng(0)
        n, m = 2000, 4
        ds = Dataset.from_arrays(
            rng.integers(0, 4, size=(n, 3)).astype(float),
            rng.choice((-1, 1), size=n),
            rng.integers(0, 2, size=n),
        )
        members = [TableClassifier(rng.choice((-1, 1), size=n), ds) for _ in range(m)]
        pairs = build_counterfactual_pairs(ds)
        assert len(pairs) > 10_000
        weights = rng.dirichlet(np.ones(m))
        weighted = ensemble_report(Ensemble(members, weights), ds, pairs).to_json_dict()
        per_member = {
            "reports": [
                classifier_report(c.predictions, ds, pairs).to_json_dict() for c in members
            ]
        }
        for doc in (weighted, per_member):
            assert dumps(doc) == reference_dumps(doc)


class TestBlockBoundaries:
    """A 2-D integer array is written ``_BLOCK_ROWS`` rows per format call:
    the text is the same on both sides of a block boundary, and the memory
    it takes beyond the text does not grow with the array."""

    @pytest.mark.parametrize(
        "rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
    )
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_matches_node_by_node_emitter(self, rows, width, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(rows * width)
        value = rng.integers(info.min, info.max, size=(rows, width), dtype=dtype, endpoint=True)
        # the extremes open and close every block
        value[::_BLOCK_ROWS] = info.min
        value[_BLOCK_ROWS - 1::_BLOCK_ROWS] = info.max
        value[-1] = info.max
        doc = {"pairs": value, "nested": [[value]]}
        assert dumps(doc) == reference_dumps(doc)

    def test_peak_memory_is_bounded_by_the_text(self):
        value = np.arange(400_000, dtype=np.int64).reshape(200_000, 2)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            text = dumps({"pairs": value})
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        # the parts and their join: two copies of the text, and a few blocks
        assert peak <= 2 * len(text) + 4 * 2**20
