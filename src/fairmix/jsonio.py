"""Deterministic JSON output: sorted keys, 12-significant-digit floats.

Reports are regression fixtures: diffing two runs must show real
changes only. The emitter is hand-rolled because the stdlib encoder
does not let callers pin float formatting; everything else matches
``json.dumps(..., sort_keys=True, indent=2)``. Numpy scalars/arrays and
enums are converted, and non-finite numbers are rejected (they have no
JSON representation and would silently degrade downstream). A 2-D
integer array, such as the twin pairs, is written 1,024 rows at a time.
"""

from __future__ import annotations

import enum
import json
import math

import numpy as np

FLOAT_FORMAT = ".12g"
_INDENT = "  "
_BLOCK_ROWS = 1024  # rows of a 2-D integer array written per format call


def _scalar(value):
    """An enum as its value, numpy data as Python data; floats must be finite."""
    while isinstance(value, enum.Enum):
        value = value.value
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} is not representable")
    return value


def _key(key) -> str:
    if isinstance(key, str):
        return key
    key = _scalar(key)
    if key is not None and not isinstance(key, (str, int, float)):
        raise TypeError(f"cannot serialize {type(key).__name__} as a key")
    return str(key)


def _emit(value, parts: list[str], depth: int) -> None:
    pad = _INDENT * depth
    inner = _INDENT * (depth + 1)
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.size and (
        value.dtype.kind in "iu"  # not bool, whose kind is "b"
    ):
        # the text of value.tolist() (the violation pairs), one format call
        # per _BLOCK_ROWS rows, so no template or tuple grows with the array
        cell = inner + _INDENT
        row = "[\n" + cell + (",\n" + cell).join(["%s"] * value.shape[1]) + "\n" + inner + "]"
        sep = ",\n" + inner
        for start in range(0, len(value), _BLOCK_ROWS):
            rows = value[start:start + _BLOCK_ROWS]
            if start == 0 or len(rows) < _BLOCK_ROWS:  # the first and the last block
                block = sep.join([row] * len(rows))
            parts.append((sep if start else "[\n" + inner) + block % tuple(rows.ravel().tolist()))
        parts.append("\n" + pad + "]")
        return
    value = _scalar(value)
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
        # keys are stringified before sorting; a later equal key wins
        entries = {_key(k): v for k, v in value.items()}
        parts.append("{\n")
        for i, key in enumerate(sorted(entries)):
            parts.append(f"{inner}{json.dumps(key)}: ")
            _emit(entries[key], parts, depth + 1)
            parts.append(",\n" if i < len(entries) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, item in enumerate(value):
            parts.append(inner)
            _emit(item, parts, depth + 1)
            parts.append(",\n" if i < len(value) - 1 else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj) -> str:
    """Canonical JSON text with a trailing newline."""
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def dump_path(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
