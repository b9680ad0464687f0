"""Command-line front end: audit, mix, optimize, sample, figure, counterexample.

Every command is deterministic given its flags: JSON output goes
through the canonical emitter (sorted keys, fixed float precision), CSV
through the stdlib writer with fixed headers, and all randomness is
seeded. Exit codes: 0 success, 1 input or contract error, 2 infeasible,
3 not found.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import ensemble as ensemble_mod
from . import jsonio, metrics, optimizer
from .classifiers import (
    load_prediction_matrix,
    prediction_matrix,
    save_prediction_matrix,
)
from .dataset import Dataset, load_dataset, save_dataset, twin_pairs
from .ensemble import Ensemble, ensemble_gap, ensemble_group_rate, ensemble_report
from .errors import FairmixError
from .metrics import LINEAR_KINDS, MetricKind
from .optimizer import GRID_MIN_RESOLUTION, Objective
from .scenarios import scenario_by_name, verify_scenario
from .simplex import SolveStatus

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_FOUND = 3

_LINEAR_KIND_NAMES = sorted(k.value for k in LINEAR_KINDS)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; this artifact reserves 2 for infeasible."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _at_least(minimum: int, parse=int):
    """argparse type: a number >= ``minimum``, and finite when a float.

    argparse reports a rejected value as ``argument --flag: <message>``.
    """
    finite = " and finite" if parse is float else ""

    def check(text: str):
        value = parse(text)
        if not minimum <= value < math.inf:  # also rejects NaN
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}{finite}, got {value!r}"
            )
        return value

    check.__name__ = parse.__name__  # named in argparse's "invalid float value"
    return check


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser with one flag, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


@functools.cache  # built at the first entrypoint call, not at import; parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fairmix",
        description=(
            "Audit group fairness of classifiers and random ensembles, solve "
            "for fair mixture weights, and reproduce the built-in scenarios."
        ),
    )
    tol = _flag(
        "--tol", type=_at_least(0, float), default=metrics.DEFAULT_TOLERANCE,
        help="fairness tolerance (default 1e-9)",
    )
    seed = _flag("--seed", type=_at_least(0), default=0, help="RNG seed (default 0)")
    out = _flag("--out", default=None, help="output path (default: stdout)")
    fmt = _flag(
        "--format", choices=("json", "csv"), default="json", dest="fmt",
        help="output format (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "audit", parents=[tol, out, fmt],
        help="fairness report for classifiers or a weighted ensemble",
    )
    p.add_argument("dataset", help="dataset CSV (f_1..f_d,y,z)")
    p.add_argument("predictions", help="prediction matrix CSV (clf_1..clf_M)")
    p.add_argument(
        "--weights", default=None,
        help="weights JSON; when given, audit the ensemble instead of members",
    )
    p.set_defaults(func=cmd_audit)

    for name, objective, extra_help in (
        ("mix", Objective.FEASIBILITY_ONLY, "solve for any fair mixture"),
        ("optimize", Objective.MAX_ACCURACY, "maximize accuracy under fairness"),
    ):
        p = sub.add_parser(name, parents=[tol, out, fmt], help=extra_help)
        p.add_argument("dataset")
        p.add_argument("predictions")
        p.add_argument(
            "--metric", action="append", choices=_LINEAR_KIND_NAMES, default=None,
            help="constrained metric kind, repeatable (default acceptance_rate)",
        )
        p.set_defaults(func=cmd_solve, objective=objective)
        if name == "optimize":
            p.add_argument(
                "--verify", action="store_true",
                help="cross-check against the exhaustive grid oracle",
            )
            p.add_argument(
                "--oracle-resolution", type=_at_least(GRID_MIN_RESOLUTION), default=200
            )

    p = sub.add_parser(
        "sample", parents=[seed, out, fmt],
        help="Monte Carlo simulation of a weighted ensemble",
    )
    p.add_argument("dataset")
    p.add_argument("predictions")
    p.add_argument("weights")
    p.add_argument("--n", type=_at_least(1), default=1000, help="number of draws")
    p.add_argument(
        "--per-instance", action="store_true",
        help="draw an independent member per instance instead of per decision",
    )
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "figure", parents=[out],
        help="emit a built-in scenario and run its self-test",
    )
    p.add_argument("number", choices=("1", "2", "3", "4"))
    p.add_argument(
        "--out-dir", default=None,
        help="write dataset.csv, predictions.csv, weights.json, expectations.json here",
    )
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "counterexample", parents=[seed, out],
        help="search for a PPV non-closure witness",
    )
    p.add_argument("--max-trials", type=_at_least(0), default=10000)
    p.add_argument(
        "--out-dir", default=None,
        help="write the witness dataset/predictions/weights here",
    )
    p.set_defaults(func=cmd_counterexample)
    return parser


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _export(out_dir: str, dataset: Dataset, members: Sequence, weights) -> None:
    """Write dataset.csv, predictions.csv and weights.json into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    save_dataset(os.path.join(out_dir, "dataset.csv"), dataset)
    save_prediction_matrix(
        os.path.join(out_dir, "predictions.csv"), prediction_matrix(members, dataset)
    )
    # data artifact, not a report: stdlib repr floats round-trip exactly
    doc = {"weights": [float(w) for w in weights]}
    with open(os.path.join(out_dir, "weights.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_ensemble(path: str, members: Sequence) -> Ensemble:
    # ValueError covers bad JSON, bad UTF-8 and integers past
    # sys.get_int_max_str_digits(); deep nesting raises RecursionError
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise FairmixError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("weights"), list):
        raise FairmixError(f'{path}: expected an object with a "weights" array')
    try:
        return Ensemble(members, doc["weights"])
    except FairmixError as exc:
        raise FairmixError(f"{path}: {exc}") from None


#: The fields of a report's metric entry that ``audit --format csv`` writes.
_METRIC_FIELDS = ("kind", "value_z0", "value_z1", "gap", "pass")


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_audit(args) -> int:
    dataset = load_dataset(args.dataset)
    members = load_prediction_matrix(args.predictions, dataset)
    pairs = twin_pairs(dataset)
    if args.weights is not None:
        ens = _load_ensemble(args.weights, members)
        out_doc = ensemble_report(ens, dataset, pairs, args.tol).to_json_dict()
        docs = [("ensemble", out_doc)]
    else:
        reports = [
            metrics.classifier_report(m.predictions, dataset, pairs, args.tol)
            for m in members
        ]
        docs = [(f"clf_{j + 1}", r.to_json_dict()) for j, r in enumerate(reports)]
        out_doc = docs[0][1] if len(docs) == 1 else {"reports": [d for _, d in docs]}
    if args.fmt == "csv":
        rows = [
            [label] + ["" if entry[f] is None else entry[f] for f in _METRIC_FIELDS]
            for label, doc in docs
            for entry in doc["metrics"]
        ]
        text = _csv_text(["classifier", *_METRIC_FIELDS], rows)
    else:
        text = jsonio.dumps(out_doc)
    _write_text(text, args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    dataset = load_dataset(args.dataset)
    members = load_prediction_matrix(args.predictions, dataset)
    names = args.metric or [MetricKind.ACCEPTANCE_RATE.value]
    kinds = [MetricKind(name) for name in names]
    solution = optimizer.solve_fair_mixture(
        members, dataset, kinds, args.tol, args.objective
    )
    doc = solution.to_json_dict()
    if getattr(args, "verify", False):
        oracle = optimizer.grid_oracle(
            members, dataset, kinds, args.tol, args.oracle_resolution
        )
        oracle_doc = oracle.to_json_dict()
        oracle_doc["consistent"] = _oracle_consistent(solution, oracle)
        doc["oracle"] = oracle_doc
    if args.fmt == "csv":
        if solution.weights is None:
            rows = []
        else:
            rows = [[j + 1, w] for j, w in enumerate(solution.weights)]
        text = _csv_text(["member", "weight"], rows)
    else:
        text = jsonio.dumps(doc)
    _write_text(text, args.out)
    if solution.status is SolveStatus.INFEASIBLE:
        return EXIT_INFEASIBLE
    if solution.status is not SolveStatus.OPTIMAL:
        return EXIT_ERROR
    return EXIT_OK


def _oracle_consistent(
    solution: optimizer.MixtureSolution, oracle: optimizer.GridOracleResult
) -> bool:
    if solution.status is not SolveStatus.OPTIMAL:
        # every lattice-feasible point is LP-feasible, so a feasible
        # oracle plus an infeasible LP is a contradiction
        return oracle.feasible_count == 0
    if oracle.accuracy is None:
        return True
    return oracle.accuracy <= solution.accuracy + 1e-9


def cmd_sample(args) -> int:
    dataset = load_dataset(args.dataset)
    members = load_prediction_matrix(args.predictions, dataset)
    ens = _load_ensemble(args.weights, members)
    result = ensemble_mod.sample(
        ens, dataset, args.n, args.seed, per_instance=args.per_instance
    )
    if args.fmt == "csv":
        rows = []
        for i in range(result.n_draws):
            member = "" if result.member_indices is None else int(
                result.member_indices[i]
            )
            cells = [i + 1, member]
            for z in (0, 1):
                rates = result.per_draw_rates[z]
                cells.append("" if rates is None else repr(float(rates[i])))
            rows.append(cells)
        text = _csv_text(["draw", "member_index", "rate_z0", "rate_z1"], rows)
    else:
        text = jsonio.dumps(result.to_json_dict())
    _write_text(text, args.out)
    return EXIT_OK


def cmd_figure(args) -> int:
    scenario = scenario_by_name(f"figure{args.number}")
    checks = verify_scenario(scenario)
    ok = all(c.ok for c in checks)
    if args.out_dir is not None:
        _export(
            args.out_dir, scenario.dataset, scenario.members, scenario.prescribed_weights
        )
        jsonio.dump_path(
            scenario.expectations, os.path.join(args.out_dir, "expectations.json")
        )
    doc = {
        "scenario": scenario.name,
        "description": scenario.description,
        "instances": len(scenario.dataset),
        "members": len(scenario.members),
        "weights": list(scenario.prescribed_weights),
        "checks": [c.to_json_dict() for c in checks],
        "ok": ok,
    }
    _write_text(jsonio.dumps(doc), args.out)
    return EXIT_OK if ok else EXIT_ERROR


def cmd_counterexample(args) -> int:
    witness = optimizer.ppv_counterexample_search(args.seed, args.max_trials)
    if witness is None:
        print(
            f"fairmix: no witness found within {args.max_trials} trials",
            file=sys.stderr,
        )
        return EXIT_NOT_FOUND
    counts = ensemble_mod.member_counts(witness.members, witness.dataset)
    ppv = [counts.counts(MetricKind.PPV, z) for z in (0, 1)]  # (hits, sizes) by group
    mixture = Ensemble(witness.members, witness.weights)
    r0, r1 = (ensemble_group_rate(mixture, MetricKind.PPV, witness.dataset, z) for z in (0, 1))
    verification = {
        "member_ppv": [
            {f"z{z}": {"hits": int(h[j]), "size": int(s[j])} for z, (h, s) in enumerate(ppv)}
            for j in range(len(witness.members))
        ],
        "ensemble_ppv_z0": r0,
        "ensemble_ppv_z1": r1,
        "ensemble_gap_recomputed": ensemble_gap(mixture, MetricKind.PPV, witness.dataset),
    }
    if args.out_dir is not None:
        _export(args.out_dir, witness.dataset, witness.members, witness.weights)
    doc = {
        "seed": witness.seed,
        "trial_index": witness.trial_index,
        "instances": len(witness.dataset),
        "weights": list(witness.weights),
        "member_gaps": list(witness.member_gaps),
        "ensemble_gap": witness.ensemble_gap,
        "verification": verification,
    }
    _write_text(jsonio.dumps(doc), args.out)
    return EXIT_OK


def entrypoint(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # ValueError is numpy refusing an impossible size, as in `sample --n
    # 100000000000000000000`; the library's argument checks raise FairmixError.
    except (FairmixError, ValueError, OSError) as exc:
        print(f"fairmix: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"fairmix: error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(entrypoint())
