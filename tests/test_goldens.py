"""Byte-identical stdout of the CLI against committed golden files.

The goldens in ``tests/goldens/`` pin the exact reports of the four
figures, the PPV witness, every command run on the exported figure-2
files, and ``audit`` with and without ``--weights`` on the exports of
figures 1, 3 and 4. A refactor of the evaluation core must leave each one
unchanged, down to the last digit and the key order.

To rewrite the goldens from a trusted checkout::

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys
import tempfile

import pytest

from fairmix.cli import entrypoint

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

#: (golden name, argv); ``{figN}`` is the directory of the exported figure N
CASES = (
    ("figure1", ["figure", "1"]),
    ("figure2", ["figure", "2"]),
    ("figure3", ["figure", "3"]),
    ("figure4", ["figure", "4"]),
    ("counterexample_seed0", ["counterexample", "--seed", "0"]),
    ("fig2_audit", ["audit", "{fig2}/dataset.csv", "{fig2}/predictions.csv"]),
    (
        "fig2_audit_weights",
        ["audit", "{fig2}/dataset.csv", "{fig2}/predictions.csv",
         "--weights", "{fig2}/weights.json"],
    ),
    (
        "fig2_optimize_verify",
        ["optimize", "{fig2}/dataset.csv", "{fig2}/predictions.csv", "--verify"],
    ),
    ("fig2_mix", ["mix", "{fig2}/dataset.csv", "{fig2}/predictions.csv"]),
    (
        "fig2_sample_json",
        ["sample", "{fig2}/dataset.csv", "{fig2}/predictions.csv",
         "{fig2}/weights.json", "--n", "200"],
    ),
    (
        "fig2_sample_csv",
        ["sample", "{fig2}/dataset.csv", "{fig2}/predictions.csv",
         "{fig2}/weights.json", "--n", "200", "--format", "csv"],
    ),
    *(
        case
        for n in (1, 3, 4)
        for case in (
            (f"fig{n}_audit", ["audit", f"{{fig{n}}}/dataset.csv", f"{{fig{n}}}/predictions.csv"]),
            (
                f"fig{n}_audit_weights",
                ["audit", f"{{fig{n}}}/dataset.csv", f"{{fig{n}}}/predictions.csv",
                 "--weights", f"{{fig{n}}}/weights.json"],
            ),
        )
    ),
)


def export_figures(directory: pathlib.Path) -> dict[str, str]:
    """Export every figure to ``directory/figN``; map ``figN`` to that path."""
    dirs = {f"fig{n}": str(directory / f"fig{n}") for n in range(1, 5)}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, out in dirs.items():
            assert entrypoint(["figure", name[3:], "--out-dir", out]) == 0
    return dirs


def run_case(argv, dirs: dict[str, str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = entrypoint([a.format(**dirs) for a in argv])
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    return export_figures(tmp_path_factory.mktemp("goldens"))


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden(name, argv, dirs):
    code, out = run_case(argv, dirs)
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        exports = export_figures(pathlib.Path(tmp))
        for name, argv in CASES:
            code, out = run_case(argv, exports)
            if code != 0:
                sys.exit(f"{name}: exit code {code}")
            (GOLDEN_DIR / f"{name}.txt").write_text(out, encoding="utf-8")
