"""End-to-end command-line tests, run in-process through ``entrypoint``.

Each command is exercised against files the CLI itself exported, so the
tests double as round-trip checks of every serialization path. Exit
codes under test: 0 success, 1 input error, 2 infeasible, 3 not found.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmix
from fairmix import (
    DataFormatError,
    Dataset,
    MetricKind,
    TableClassifier,
    build_counterfactual_pairs,
    classifier_report,
    load_dataset,
    load_prediction_matrix,
    prediction_matrix,
    save_dataset,
    save_prediction_matrix,
)
from fairmix.cli import entrypoint
from fairmix import classifiers as classifiers_module
from fairmix import dataset as dataset_module
from fairmix import jsonio, optimizer
from fairmix.simplex import SimplexResult, SolveStatus

from conftest import make_grid_ensemble


@pytest.fixture
def fig2_dir(tmp_path):
    out = tmp_path / "fig2"
    code = entrypoint(["figure", "2", "--out-dir", str(out), "--out", str(tmp_path / "fig2.json")])
    assert code == 0
    return out


@pytest.fixture
def unfair_files(tmp_path):
    """Dataset plus predictions where every member has acceptance gap +1."""
    ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
    members = np.array([[1, -1], [1, -1]])
    dpath = tmp_path / "unfair_data.csv"
    ppath = tmp_path / "unfair_preds.csv"
    save_dataset(dpath, ds)
    save_prediction_matrix(ppath, members)
    return str(dpath), str(ppath)


#: past int64; numpy refuses it as a size before allocating anything
HUGE = str(10**20)


def run(args, capsys):
    code = entrypoint(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFigure:
    def test_summary_and_files(self, fig2_dir, tmp_path, capsys):
        code, out, err = run(["figure", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"] == "figure2"
        assert doc["ok"] is True
        assert doc["instances"] == 18 and doc["members"] == 3
        assert all(check["ok"] for check in doc["checks"])
        for name in ("dataset.csv", "predictions.csv", "weights.json", "expectations.json"):
            assert (fig2_dir / name).exists()

    def test_export_round_trips(self, fig2_dir):
        ds = load_dataset(fig2_dir / "dataset.csv")
        members = load_prediction_matrix(fig2_dir / "predictions.csv", ds)
        assert len(ds) == 18 and len(members) == 3
        weights = json.loads((fig2_dir / "weights.json").read_text())["weights"]
        assert weights == [1 / 3, 2 / 3, 0.0]  # repr floats: exact round-trip

    def test_reruns_are_byte_identical(self, fig2_dir, tmp_path):
        second = tmp_path / "again"
        assert entrypoint(["figure", "2", "--out-dir", str(second),
                           "--out", str(tmp_path / "s.json")]) == 0
        for name in ("dataset.csv", "predictions.csv", "weights.json", "expectations.json"):
            assert (second / name).read_bytes() == (fig2_dir / name).read_bytes()

    @pytest.mark.parametrize("number", ["1", "3", "4"])
    def test_other_figures_self_test(self, number, capsys):
        code, out, _ = run(["figure", number], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_csv_format_rejected(self, capsys):
        code, _, err = run(["figure", "2", "--format", "csv"], capsys)
        assert code == 1
        assert "fairmix: error:" in err

    def test_unknown_number_rejected(self, capsys):
        code, _, err = run(["figure", "5"], capsys)
        assert code == 1


class TestAudit:
    def test_member_reports(self, fig2_dir, capsys):
        code, out, _ = run(
            ["audit", str(fig2_dir / "dataset.csv"), str(fig2_dir / "predictions.csv")],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 3
        first = doc["reports"][0]
        accept = next(m for m in first["metrics"] if m["kind"] == "acceptance_rate")
        assert accept["value_z1"] == pytest.approx(2 / 3, abs=1e-12)
        assert accept["pass"] is False

    def test_matches_library_exactly(self, fig2_dir, capsys):
        code, out, _ = run(
            ["audit", str(fig2_dir / "dataset.csv"), str(fig2_dir / "predictions.csv")],
            capsys,
        )
        ds = load_dataset(fig2_dir / "dataset.csv")
        members = load_prediction_matrix(fig2_dir / "predictions.csv", ds)
        pairs = build_counterfactual_pairs(ds)
        docs = [
            classifier_report(m.predictions, ds, pairs, 1e-9).to_json_dict()
            for m in members
        ]
        assert out == jsonio.dumps({"reports": docs})

    def test_ensemble_audit_reproduces_balanced_rate(self, fig2_dir, capsys):
        code, out, _ = run(
            [
                "audit",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--weights",
                str(fig2_dir / "weights.json"),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        accept = next(m for m in doc["metrics"] if m["kind"] == "acceptance_rate")
        # weights survive the file round trip exactly, so the audited
        # ensemble reproduces the balanced rate to the last digit
        assert accept["gap"] == 0.0
        assert accept["value_z0"] == pytest.approx(2 / 9, abs=1e-12)
        assert accept["pass"] is True
        assert doc["distributional"]["extension"] is True

    def test_single_member_gets_flat_report(self, tmp_path, capsys):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        save_dataset(tmp_path / "d.csv", ds)
        save_prediction_matrix(tmp_path / "p.csv", np.array([[1, -1]]))
        code, out, _ = run(
            ["audit", str(tmp_path / "d.csv"), str(tmp_path / "p.csv")], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert "reports" not in doc
        assert doc["accuracy"] == 1.0

    def test_csv_output(self, fig2_dir, capsys):
        code, out, _ = run(
            [
                "audit",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "classifier,kind,value_z0,value_z1,gap,pass"
        assert len(lines) == 1 + 3 * 5  # three members, five kinds
        assert lines[1].startswith("clf_1,acceptance_rate,")

    def test_ensemble_csv_label(self, fig2_dir, capsys):
        code, out, _ = run(
            [
                "audit",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--weights",
                str(fig2_dir / "weights.json"),
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        assert out.strip().split("\n")[1].startswith("ensemble,")

    def test_group_blind_ensemble_passes_treatment_at_tol_0(self, tmp_path, capsys):
        # 410 rows, 40 members, 1,167 twin pairs, each pair with one accept set
        ds, ens = make_grid_ensemble(np.random.default_rng(11), 3000, 300)
        save_dataset(tmp_path / "d.csv", ds)
        save_prediction_matrix(tmp_path / "p.csv", prediction_matrix(ens.members, ds))
        (tmp_path / "w.json").write_text(json.dumps({"weights": ens.weights.tolist()}))
        data, preds, weights = (str(tmp_path / f) for f in ("d.csv", "p.csv", "w.json"))
        code, out, _ = run(["audit", data, preds, "--weights", weights, "--tol", "0"], capsys)
        assert code == 0
        treatment = json.loads(out)["treatment"]
        assert (treatment["pairs_checked"], treatment["violations"]) == (1167, 0)

    def test_constant_group_has_exact_dispersion(self, tmp_path, capsys):
        # one member accepts exactly group 1, the other exactly group 0, so
        # every row of group 0 has q = 0.7 and every row of group 1 q = 0.3
        ds = Dataset.from_arrays([[0.0]] * 5, [1] * 5, [0, 0, 0, 1, 1])
        save_dataset(tmp_path / "d.csv", ds)
        save_prediction_matrix(
            tmp_path / "p.csv", np.array([[-1, -1, -1, 1, 1], [1, 1, 1, -1, -1]])
        )
        (tmp_path / "w.json").write_text('{"weights": [0.3, 0.7]}')
        data, preds, weights = (str(tmp_path / f) for f in ("d.csv", "p.csv", "w.json"))
        code, out, _ = run(["audit", data, preds, "--weights", weights], capsys)
        assert code == 0
        doc = json.loads(out)["distributional"]
        for z, c in (("z0", 0.7), ("z1", 0.3)):
            assert doc[z]["mean_q"] == c
            assert doc[z]["variance_q"] == 0.0
            assert doc[z]["gini_q"] == 0.0

    def test_out_flag_writes_file_not_stdout(self, fig2_dir, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            [
                "audit",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--out",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())

    def test_weight_count_mismatch(self, fig2_dir, tmp_path, capsys):
        bad = tmp_path / "w.json"
        bad.write_text('{"weights": [0.5, 0.5]}\n')
        code, _, err = run(
            [
                "audit",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--weights",
                str(bad),
            ],
            capsys,
        )
        assert code == 1
        assert "fairmix: error:" in err

    @pytest.mark.parametrize("command", ["audit", "sample"])
    @pytest.mark.parametrize(
        "weights, message",
        [
            ("[0.5, 0.5]", "3 members but (2,) weights"),
            ("[0.5, 0.25, 0.2]", "weights sum to 0.95, expected 1"),
        ],
        ids=["count", "sum"],
    )
    def test_weights_that_do_not_fit_name_the_file(
        self, fig2_dir, tmp_path, capsys, command, weights, message
    ):
        bad = tmp_path / "w.json"
        bad.write_text('{"weights": %s}' % weights)
        files = [str(fig2_dir / "dataset.csv"), str(fig2_dir / "predictions.csv")]
        flag = ["--weights"] if command == "audit" else []
        code, out, err = run([command, *files, *flag, str(bad)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"fairmix: error: {bad}: {message}\n"

    @pytest.mark.parametrize(
        "content",
        [
            b'{"weights": "no"}',
            b"[0.5]",
            b'{"weights": [0.5, "x", 0.0]}',
            b"not json",
            pytest.param(b'{"weights": [0.5, \xff]}', id="not_utf8"),
            pytest.param(b'{"weights": [%s]}' % (b"1" * 5000), id="int_too_long"),
            pytest.param(b"[" * 100_000, id="deep_nesting"),
        ],
    )
    def test_malformed_weights_file(self, fig2_dir, tmp_path, capsys, content):
        bad = tmp_path / "w.json"
        bad.write_bytes(content)
        code, _, err = run(
            [
                "audit",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--weights",
                str(bad),
            ],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"fairmix: error: {bad}: ")
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(["audit", "/no/such/file.csv", "/also/missing.csv"], capsys)
        assert code == 1
        assert "fairmix: error:" in err

    @pytest.mark.parametrize("role", ["dataset", "predictions"])
    def test_file_not_utf8(self, fig2_dir, role, capsys):
        path = fig2_dir / f"{role}.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 2))
        code, out, err = run(
            ["audit", str(fig2_dir / "dataset.csv"), str(fig2_dir / "predictions.csv")],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"fairmix: error: {path}: line 2: not UTF-8 text: "
            "byte 0xff (invalid start byte)\n"
        )

    @pytest.mark.parametrize(
        "role, old, new",
        [
            pytest.param("dataset", b"\n", b"\n" + b"x" * 200_000, id="dataset"),
            pytest.param("predictions", b"\n", b"\n" + b"x" * 200_000, id="predictions"),
            # -000...01.0 is -1.0 spelled in bytes the dataset fast path reads
            pytest.param(
                "dataset", b"\n-", b"\n-" + b"0" * 200_000, id="dataset-canonical"
            ),
        ],
    )
    def test_cell_past_csv_field_limit(self, fig2_dir, role, old, new, capsys):
        path = fig2_dir / f"{role}.csv"
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        code, out, err = run(
            ["audit", str(fig2_dir / "dataset.csv"), str(fig2_dir / "predictions.csv")],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"fairmix: error: {path}: line 2: field larger than")
        assert "Traceback" not in err


class TestSolveCommands:
    def test_optimize_fig2(self, fig2_dir, capsys):
        code, out, _ = run(
            [
                "optimize",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        assert doc["objective"] == "max_accuracy"
        # the scenario is built so every fair mixture has accuracy 13/18
        assert doc["accuracy"] == pytest.approx(13 / 18, abs=1e-9)
        # the printed gap is the exact gap of the weights, which the solve
        # accepts up to --tol + 1e-9; these lie 8.7e-18 past --tol (ROADMAP
        # items 4 and 7)
        assert abs(doc["gaps"]["acceptance_rate"]) <= 1e-9 + 1e-9

    def test_optimize_with_oracle_verification(self, fig2_dir, capsys):
        code, out, _ = run(
            [
                "optimize",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--verify",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        oracle = doc["oracle"]
        assert oracle["consistent"] is True
        assert oracle["resolution"] == 200
        # lattice points with p2 = 2 p1: k = 0..66
        assert oracle["feasible_count"] == 67
        assert oracle["accuracy"] == pytest.approx(doc["accuracy"], abs=1e-9)

    @pytest.mark.parametrize(
        "m, status, exit_code",
        [(2, "optimal", 0), (1, "infeasible", 2)],
        ids=["fair-point-between-lattice-points", "no-fair-point"],
    )
    def test_oracle_with_no_feasible_point_is_consistent(
        self, fig2_dir, tmp_path, capsys, m, status, exit_code
    ):
        # members 1 and 2 are fair only at p = (1/3, 2/3), which no lattice
        # point k/10 hits; member 1 alone is not fair at all
        data = str(fig2_dir / "dataset.csv")
        dataset = load_dataset(data)
        members = load_prediction_matrix(fig2_dir / "predictions.csv", dataset)
        preds = tmp_path / "first.csv"
        save_prediction_matrix(preds, prediction_matrix(members[:m], dataset))
        code, out, _ = run(
            ["optimize", data, str(preds), "--verify", "--tol", "0", "--oracle-resolution", "10"],
            capsys,
        )
        assert code == exit_code
        doc = json.loads(out)
        assert doc["status"] == status
        assert doc["oracle"] == {
            "accuracy": None, "consistent": True, "feasible_count": 0, "resolution": 10,
            "weights": None,
        }

    def test_unbounded_solve_prints_and_exits_1(self, fig2_dir, capsys, monkeypatch):
        # the LP over a probability simplex is bounded; a solver that says
        # otherwise is an error, not an infeasible problem
        monkeypatch.setattr(
            optimizer, "simplex_solve",
            lambda problem: SimplexResult(SolveStatus.UNBOUNDED, None, None, 3),
        )
        code, out, err = run(
            ["optimize", str(fig2_dir / "dataset.csv"), str(fig2_dir / "predictions.csv")],
            capsys,
        )
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["status"] == "unbounded"
        assert (doc["weights"], doc["accuracy"], doc["iterations"]) == (None, None, 3)

    def test_out_of_memory_is_an_error_not_a_traceback(self, fig2_dir, capsys, monkeypatch):
        # what a lattice too large to allocate raises, without allocating it
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.47 EiB for an array")

        monkeypatch.setattr(optimizer, "grid_oracle", exhausted)
        code, out, err = run(
            [
                "optimize",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--verify",
            ],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == (
            "fairmix: error: out of memory: Unable to allocate 3.47 EiB for an array\n"
        )

    def test_tolerance_no_gap_reaches_is_unconstrained(self, fig2_dir, capsys):
        data, preds = str(fig2_dir / "dataset.csv"), str(fig2_dir / "predictions.csv")
        names = ["acceptance_rate", "tpr", "tnr"]
        flags = [arg for name in names for arg in ("--metric", name)]
        code, out, _ = run(["optimize", data, preds, *flags, "--verify", "--tol", "1e308"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["consistent"] is True
        ds = load_dataset(data)
        kinds = [MetricKind(name) for name in names]
        want = optimizer.solve_fair_mixture(load_prediction_matrix(preds, ds), ds, kinds, math.inf)
        keys = ("status", "weights", "accuracy", "gaps")  # not the tolerance: JSON has no inf
        want = json.loads(jsonio.dumps({key: want.to_json_dict()[key] for key in keys}))
        assert {key: doc[key] for key in keys} == want

    def test_mix_reports_feasibility_objective(self, fig2_dir, capsys):
        code, out, _ = run(
            ["mix", str(fig2_dir / "dataset.csv"), str(fig2_dir / "predictions.csv")],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == "feasibility_only"
        assert doc["status"] == "optimal"
        assert abs(doc["gaps"]["acceptance_rate"]) <= 1e-9 + 1e-9  # as in test_optimize_fig2

    def test_optimize_objective_flag_rejected(self, fig2_dir, capsys):
        # `mix` is the feasibility solve; `optimize` always maximizes accuracy
        code, out, err = run(
            [
                "optimize",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--objective",
                "feasibility",
            ],
            capsys,
        )
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --objective feasibility" in err

    def test_repeatable_metric_flag(self, fig2_dir, capsys):
        code, out, _ = run(
            [
                "optimize",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--metric",
                "acceptance_rate",
                "--metric",
                "tpr",
                "--tol",
                "0.5",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc["gaps"]) == {"acceptance_rate", "tpr"}

    def test_consecutive_calls_share_no_flags(self, fig2_dir, capsys):
        """One parser serves every call in a process; a flag given to one
        call does not carry over to the next."""
        files = [str(fig2_dir / "dataset.csv"), str(fig2_dir / "predictions.csv")]
        gaps = []
        for flags in (["--metric", "tpr"], [], ["--metric", "tnr", "--metric", "tpr"], []):
            code, out, _ = run(["optimize", *files, *flags, "--tol", "0.5"], capsys)
            assert code == 0
            gaps.append(sorted(json.loads(out)["gaps"]))
        assert gaps == [["tpr"], ["acceptance_rate"], ["tnr", "tpr"], ["acceptance_rate"]]
        assert fairmix.cli._build_parser() is fairmix.cli._build_parser()

    def test_ratio_metric_not_a_choice(self, fig2_dir, capsys):
        code, _, err = run(
            [
                "optimize",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--metric",
                "ppv",
            ],
            capsys,
        )
        assert code == 1
        assert "invalid choice" in err

    def test_infeasible_exit_code(self, unfair_files, capsys):
        dpath, ppath = unfair_files
        code, out, _ = run(["optimize", dpath, ppath, "--tol", "0.5"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "infeasible"
        assert doc["weights"] is None

    def test_infeasible_csv_is_header_only(self, unfair_files, capsys):
        dpath, ppath = unfair_files
        code, out, _ = run(
            ["mix", dpath, ppath, "--tol", "0.0", "--format", "csv"], capsys
        )
        assert code == 2
        assert out.strip() == "member,weight"

    def test_csv_weights(self, fig2_dir, capsys):
        code, out, _ = run(
            [
                "mix",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "member,weight"
        assert len(lines) == 4
        weights = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)


    @pytest.mark.parametrize("value", ["nan", "-0.5", "inf"])
    def test_invalid_tolerance_names_the_flag(self, fig2_dir, capsys, value):
        code, out, err = run(
            [
                "optimize",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                "--tol",
                value,
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "argument --tol: must be >= 0 and finite" in err

class TestSample:
    def test_json_run(self, fig2_dir, capsys):
        code, out, _ = run(
            [
                "sample",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                str(fig2_dir / "weights.json"),
                "--n",
                "2000",
                "--seed",
                "9",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_draws"] == 2000 and doc["seed"] == 9
        assert doc["mode"] == "per_draw"
        assert doc["group_rates"]["z0"] == pytest.approx(2 / 9, abs=0.05)
        assert doc["group_rates"]["z1"] == pytest.approx(2 / 9, abs=0.05)
        assert doc["standard_errors"]["z0"] > 0

    def test_reruns_byte_identical(self, fig2_dir, tmp_path):
        args = [
            "sample",
            str(fig2_dir / "dataset.csv"),
            str(fig2_dir / "predictions.csv"),
            str(fig2_dir / "weights.json"),
            "--n",
            "500",
            "--seed",
            "4",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert entrypoint(args + ["--out", str(a)]) == 0
        assert entrypoint(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_per_draw(self, fig2_dir, capsys):
        code, out, _ = run(
            [
                "sample",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                str(fig2_dir / "weights.json"),
                "--n",
                "20",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "draw,member_index,rate_z0,rate_z1"
        assert len(lines) == 21
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] in {"0", "1", "2"}

    def test_csv_per_instance_has_no_member_column(self, fig2_dir, capsys):
        code, out, _ = run(
            [
                "sample",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                str(fig2_dir / "weights.json"),
                "--n",
                "5",
                "--per-instance",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert all(line.split(",")[1] == "" for line in lines[1:])

    def test_zero_draws_rejected(self, fig2_dir, capsys):
        code, _, err = run(
            [
                "sample",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                str(fig2_dir / "weights.json"),
                "--n",
                "0",
            ],
            capsys,
        )
        assert code == 1
        assert "argument --n: must be >= 1, got 0" in err


    @pytest.mark.parametrize(
        "literal, message",
        [
            ("NaN", "non-finite weight nan"),
            ("Infinity", "non-finite weight inf"),
            ("-Infinity", "non-finite weight -inf"),
            ("1e999", "non-finite weight inf"),
            ("1" + "0" * 400, "weight is an integer of 1329 bits, past the float range"),
        ],
        ids=["NaN", "Infinity", "-Infinity", "1e999", "int_past_float_range"],
    )
    def test_non_finite_weights_rejected(self, fig2_dir, tmp_path, capsys, literal, message):
        # NaN used to pass the sign and sum checks and report z0=0, z1=0.667
        bad = tmp_path / "w.json"
        bad.write_text('{"weights": [%s, 0.5, 0.5]}' % literal)
        code, out, err = run(
            [
                "sample",
                str(fig2_dir / "dataset.csv"),
                str(fig2_dir / "predictions.csv"),
                str(bad),
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert f"fairmix: error: {bad}: {message}\n" in err
        assert "Traceback" not in err

@pytest.fixture
def one_row_files(tmp_path):
    """One instance (z=0, y=+1), two members that disagree on it, and even
    weights: one byte of packed accepts with 7 pad bits, and an empty group."""
    save_dataset(tmp_path / "d.csv", Dataset.from_arrays([[0.0]], [1], [0]))
    save_prediction_matrix(tmp_path / "p.csv", np.array([[1], [-1]]))
    (tmp_path / "w.json").write_text('{"weights": [0.5, 0.5]}')
    return [str(tmp_path / name) for name in ("d.csv", "p.csv", "w.json")]


class TestTinyInputs:
    def test_audit_one_row(self, one_row_files, capsys):
        data, preds, _ = one_row_files
        code, out, _ = run(["audit", data, preds], capsys)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["accuracy"] for r in reports] == [1, 0]
        accept = reports[0]["metrics"][0]
        assert accept["kind"] == "acceptance_rate"
        assert (accept["value_z0"], accept["value_z1"], accept["gap"]) == (1, None, None)

    def test_audit_weights_one_row(self, one_row_files, capsys):
        data, preds, weights = one_row_files
        code, out, _ = run(["audit", data, preds, "--weights", weights], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["accuracy"] == 0.5
        assert doc["distributional"]["z0"]["mean_q"] == 0.5
        assert doc["distributional"]["z1"]["mean_q"] is None

    def test_sample_one_row_in_both_modes(self, one_row_files, capsys):
        docs = []
        for mode in ([], ["--per-instance"]):
            code, out, _ = run(["sample", *one_row_files, *mode], capsys)
            assert code == 0
            docs.append(json.loads(out))
        # with one instance, a per-instance draw uses the same uniform as a
        # per-draw one, so the two modes agree
        assert docs[0]["group_rates"] == docs[1]["group_rates"]
        assert 0 < docs[0]["group_rates"]["z0"] < 1
        assert docs[0]["group_rates"]["z1"] is None

    def test_verify_one_row_cannot_constrain_an_empty_group(self, one_row_files, capsys):
        data, preds, _ = one_row_files
        code, out, err = run(["optimize", data, preds, "--verify"], capsys)
        assert code == 1 and out == ""
        assert "acceptance_rate is undefined for member 1; cannot constrain it" in err

    def test_no_members(self, one_row_files, tmp_path, capsys):
        data = one_row_files[0]
        empty = tmp_path / "empty.csv"
        empty.write_text("\n1\n")
        code, out, err = run(["audit", data, str(empty)], capsys)
        assert code == 1 and out == ""
        assert err == f"fairmix: error: {empty}: header must be clf_1,...,clf_M; got \n"


class TestCounterexample:
    def test_witness_found_and_verified(self, tmp_path, capsys):
        out_dir = tmp_path / "wit"
        code, out, _ = run(
            ["counterexample", "--out-dir", str(out_dir)], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 0 and doc["trial_index"] == 2
        assert doc["member_gaps"] == [0.0, 0.0]
        assert abs(doc["ensemble_gap"]) >= 0.05
        assert doc["ensemble_gap"] == pytest.approx(
            doc["verification"]["ensemble_gap_recomputed"], abs=1e-9
        )
        for counts in doc["verification"]["member_ppv"]:
            z0, z1 = counts["z0"], counts["z1"]
            assert z0["hits"] * z1["size"] == z1["hits"] * z0["size"]
        for name in ("dataset.csv", "predictions.csv", "weights.json"):
            assert (out_dir / name).exists()

    def test_export_reaudits_to_the_same_gap(self, tmp_path, capsys):
        out_dir = tmp_path / "wit"
        code, out, _ = run(["counterexample", "--out-dir", str(out_dir)], capsys)
        doc = json.loads(out)
        code2, audit_out, _ = run(
            [
                "audit",
                str(out_dir / "dataset.csv"),
                str(out_dir / "predictions.csv"),
                "--weights",
                str(out_dir / "weights.json"),
            ],
            capsys,
        )
        assert code2 == 0
        audit = json.loads(audit_out)
        ppv = next(m for m in audit["metrics"] if m["kind"] == "ppv")
        assert ppv["gap"] == pytest.approx(doc["ensemble_gap"], abs=1e-9)
        assert ppv["pass"] is False

    def test_zero_trials_exhausts(self, capsys):
        code, out, err = run(["counterexample", "--max-trials", "0"], capsys)
        assert code == 3
        assert out == ""
        assert "no witness found within 0 trials" in err

    def test_negative_trials_rejected(self, capsys):
        code, _, err = run(["counterexample", "--max-trials", "-5"], capsys)
        assert code == 1

    def test_csv_rejected(self, capsys):
        code, _, err = run(["counterexample", "--format", "csv"], capsys)
        assert code == 1


class TestParsing:
    def test_no_command(self, capsys):
        assert run([], capsys)[0] == 1

    def test_unknown_command(self, capsys):
        code, _, err = run(["bogus"], capsys)
        assert code == 1
        assert "error" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run(["mix", "d.csv", "p.csv", "--tol", "abc"], capsys)
        assert code == 1
        assert "argument --tol: invalid float value: 'abc'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "2", "--seed", "3"],
            ["figure", "2", "--tol", "0.1"],
            ["counterexample", "--tol", "0.1"],
            ["audit", "d.csv", "p.csv", "--seed", "3"],
            ["sample", "d.csv", "p.csv", "w.json", "--tol", "0.1"],
        ],
        ids=["figure-seed", "figure-tol", "counterexample-tol", "audit-seed", "sample-tol"],
    )
    def test_flag_the_command_does_not_read(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["sample", "d.csv", "p.csv", "w.json", "--n", "0"],
                "--n: must be >= 1, got 0",
            ),
            (
                ["optimize", "d.csv", "p.csv", "--verify", "--oracle-resolution", "5"],
                "--oracle-resolution: must be >= 10, got 5",
            ),
            (
                ["counterexample", "--max-trials", "-5"],
                "--max-trials: must be >= 0, got -5",
            ),
            (["counterexample", "--seed", "-1"], "--seed: must be >= 0, got -1"),
            (
                ["sample", "d.csv", "p.csv", "w.json", "--seed", "-1"],
                "--seed: must be >= 0, got -1",
            ),
        ],
        ids=["n", "oracle-resolution", "max-trials", "counterexample-seed", "sample-seed"],
    )
    def test_out_of_range_number_names_the_flag(self, capsys, argv, message):
        # rejected while parsing, before any input file is opened
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert f"argument {message}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "dataset.csv", "predictions.csv", "weights.json", "--n", HUGE],
            ["sample", "dataset.csv", "predictions.csv", "weights.json", "--n", HUGE,
             "--per-instance"],
            ["sample", "dataset.csv", "predictions.csv", "weights.json", "--seed", HUGE],
            ["counterexample", "--seed", HUGE],
            ["counterexample", "--max-trials", HUGE],  # stops at the first witness
            ["optimize", "dataset.csv", "predictions.csv", "--verify",
             "--oracle-resolution", HUGE],
        ],
        ids=["n", "n-per-instance", "sample-seed", "counterexample-seed", "max-trials",
             "oracle-resolution"],
    )
    def test_huge_integer_ends_in_an_exit_code(self, fig2_dir, capsys, argv):
        # each is refused before anything of that size is allocated
        argv = [str(fig2_dir / a) if a.endswith((".csv", ".json")) else a for a in argv]
        code, _, err = run(argv, capsys)
        assert code in (0, 1)
        if code == 1:
            assert err.startswith("fairmix")
        if "--n" in argv:
            # 8-byte uniforms, one per draw, or one per draw and instance
            n = len(load_dataset(fig2_dir / "dataset.csv")) if "--per-instance" in argv else 1
            limit = np.iinfo(np.intp).max // (8 * n)
            assert code == 1
            assert f"n_draws must be at most {limit}, got {HUGE}" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "audit" in out and "counterexample" in out

    def test_module_entry_point(self, tmp_path):
        # the child imports the same fairmix as this process, whether it
        # came from PYTHONPATH or from pytest's own pythonpath setting
        src = os.path.dirname(os.path.dirname(fairmix.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fairmix", "figure", "3"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True


#: a 400-digit integer passes `int()` and `json` but not the float range
FUZZ_TOKENS = [
    b"nan", b"inf", b"1e999", b"9" * 400, b"true", b"+1", b"01", b"\x00", b"\xff",
    b'"', b"\r", b"\n",
]

FUZZ_COMMANDS = [
    ["audit", "dataset.csv", "predictions.csv"],
    ["audit", "dataset.csv", "predictions.csv", "--format", "csv"],
    ["audit", "dataset.csv", "predictions.csv", "--weights", "weights.json"],
    ["audit", "dataset.csv", "predictions.csv", "--weights", "weights.json",
     "--format", "csv"],
    ["optimize", "dataset.csv", "predictions.csv", "--verify"],
    ["mix", "dataset.csv", "predictions.csv"],
    ["sample", "dataset.csv", "predictions.csv", "weights.json", "--per-instance",
     "--n", "20"],
]


#: the positional paths of each command that reads files
FUZZ_SLOTS = {
    "audit": ["dataset.csv", "predictions.csv"],
    "mix": ["dataset.csv", "predictions.csv"],
    "optimize": ["dataset.csv", "predictions.csv"],
    "sample": ["dataset.csv", "predictions.csv", "weights.json"],
}

#: drawn flag values: the valid ones, near misses, and arbitrary short text
FUZZ_METRICS = st.one_of(
    st.sampled_from(["acceptance_rate", "tpr", "tnr", "ppv", "npv", "", "TPR"]),
    st.text(max_size=6),
)
FUZZ_FORMATS = st.one_of(st.sampled_from(["json", "csv", "xml", ""]), st.text(max_size=6))


@pytest.fixture(scope="module")
def fig2_exports(tmp_path_factory):
    """The figure-2 export files as bytes, and a directory to write over."""
    root = tmp_path_factory.mktemp("fuzz")
    assert entrypoint(
        ["figure", "2", "--out-dir", str(root / "fig2"), "--out", str(root / "fig2.json")]
    ) == 0
    names = ("dataset.csv", "predictions.csv", "weights.json")
    return {name: (root / "fig2" / name).read_bytes() for name in names}, root


@st.composite
def mutation(draw, original: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert", "newlines"]))
    if kind == "newlines":
        if b"\r\n" in original:
            return original.replace(b"\r\n", b"\n")
        return original.replace(b"\n", b"\r\n")
    k = draw(st.integers(0, len(original) - (kind == "overwrite")))
    if kind == "truncate":
        return original[:k]
    if kind == "overwrite":
        return original[:k] + bytes([draw(st.integers(0, 255))]) + original[k + 1:]
    return original[:k] + draw(st.sampled_from(FUZZ_TOKENS)) + original[k:]


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_exports_end_in_an_exit_code(self, fig2_exports, data):
        """A mutated input file ends every command in a documented exit
        code, and an error in a message from fairmix, never a traceback."""
        originals, root = fig2_exports
        target = data.draw(st.sampled_from(sorted(originals)), label="file")
        argv = data.draw(st.sampled_from(FUZZ_COMMANDS), label="argv")
        for name, content in originals.items():
            if name == target:
                content = data.draw(mutation(content), label="content")
            (root / name).write_bytes(content)
        argv = [str(root / a) if a in originals else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entrypoint(argv)
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert err.getvalue().startswith("fairmix"), err.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_drawn_flags_and_paths_end_in_an_exit_code(self, fig2_exports, data):
        """Drawn --metric and --format values, and positional paths that are
        missing, a directory, empty, hold a NUL byte or name another input,
        end every command in a documented exit code and an error from
        fairmix or argparse, never a traceback."""
        originals, root = fig2_exports
        for name, content in originals.items():
            (root / name).write_bytes(content)
        (root / "empty.csv").write_bytes(b"")
        command = data.draw(st.sampled_from(sorted(FUZZ_SLOTS)), label="command")
        argv = [command]
        for slot in FUZZ_SLOTS[command]:
            others = [name for name in sorted(originals) if name != slot]
            choices = [slot, "missing.csv", "fig2", "empty.csv", "nul\x00.csv", *others]
            argv.append(str(root / data.draw(st.sampled_from(choices), label=slot)))
        if command in ("mix", "optimize"):
            for metric in data.draw(st.lists(FUZZ_METRICS, max_size=2), label="metrics"):
                argv += ["--metric", metric]
        if data.draw(st.booleans(), label="with --format"):
            argv += ["--format", data.draw(FUZZ_FORMATS, label="format")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entrypoint(argv)
        assert code in (0, 1, 2, 3)
        message = err.getvalue()
        assert "Traceback" not in message
        if code == 1 or message:
            assert message.startswith(("fairmix", "usage:")), message

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_general_parser_reads_mutated_exports_alike(self, fig2_exports, data):
        """A mutated dataset or prediction file gives the same arrays, or the
        same error, with the canonical fast paths on and off."""
        self.check_mutated_export(fig2_exports, data)

    @pytest.mark.parametrize("block_bytes", [1, 7, 64])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_general_parser_reads_mutated_exports_alike_in_small_blocks(
        self, fig2_exports, block_bytes, data
    ):
        """The same, with the fast paths reading a row or a few rows per
        block, so that a mutation lands in the first, a middle or the last
        block of the file."""
        with mock.patch.object(dataset_module, "_BLOCK_BYTES", block_bytes):
            self.check_mutated_export(fig2_exports, data)

    @staticmethod
    def check_mutated_export(fig2_exports, data):
        originals, root = fig2_exports
        name = data.draw(st.sampled_from(["dataset.csv", "predictions.csv"]), label="file")
        path = root / name
        path.write_bytes(data.draw(mutation(originals[name]), label="content"))
        fig2 = load_dataset(root / "fig2" / "dataset.csv")

        def load():
            try:
                if name == "dataset.csv":
                    ds = load_dataset(path)
                    arrays = [ds.features, ds.labels, ds.sensitive]
                else:
                    arrays = [t.predictions for t in load_prediction_matrix(path, fig2)]
            except DataFormatError as exc:
                return str(exc)
            return [(a.dtype, a.shape, a.tobytes()) for a in arrays]

        fast = load()
        with mock.patch.object(dataset_module, "_load_canonical_dataset", return_value=None):
            with mock.patch.object(
                classifiers_module, "_canonical_prediction_matrix", return_value=None
            ):
                general = load()
        assert fast == general
