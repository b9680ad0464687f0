"""fairmix benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload audit --seed 0 --seconds 20 --trace 0

Workloads (sizes in ``gen.SIZES``, reasons in README.md):

* ``audit``    ``fairmix audit data.csv preds.csv --weights w.json``
* ``frontier`` library path: load once, one ``solve_fair_mixture`` per job,
  cycling over eight tolerances of the accuracy-fairness curve
* ``verify``   ``fairmix optimize --verify`` with three linear kinds
* ``sample``   ``fairmix sample`` in per-draw mode

Inputs are generated from ``--seed`` into ``.perfbench_work/`` and
removed afterwards; generation is outside every metric. Jobs run in
fresh processes (``worker.py``), one job at a time, in a closed loop.
With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a separate traced run.
Every job's output is checked against an independent recomputation
(``check.py``) outside the timed region; a wrong output is a failed job.
The line before the last holds the details: seed, input sha256, sizes,
sample counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # write nothing outside the checkout

import numpy as np  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("audit", "frontier", "verify", "sample")

FRONTIER_TOLERANCES = [float(t) for t in np.geomspace(5e-4, 0.1, 8)]
AUDIT_TOL = 1e-9  # the CLI default
VERIFY_TOL = 0.02
VERIFY_RESOLUTION = 100
SAMPLE_DRAWS = 4000

#: Untraced job processes per run, and extra processes that only set up.
#: Several short processes average out the per-process spread of job times.
JOB_PROCESSES = 3
SETUP_PROCESSES = {"frontier": 1}
SETUP_PROCESSES_DEFAULT = 6
WARMUP_JOBS = 1  # the first call in a process is slower; not timed
MIN_JOBS = 2
RUN_LIMIT_S = 165  # every process of a run ends within this of the start
#: Durations of ``worker.Reference`` and ``worker.loop_reference`` on the
#: 2-core x86_64 box the benchmark was tuned on, when it was quiet. Times
#: are reported at this reference speed (see README.md, "Timing").
REFERENCE_NOMINAL_S = 0.013
LOOP_NOMINAL_S = 0.0045
TAIL_BEYOND = 10  # job_tail_s leaves exactly this many samples above it

BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _argv(workload, paths, seed):
    ds, preds = paths["dataset"], paths["predictions"]
    if workload == "audit":
        return ["audit", ds, preds, "--weights", paths["weights"]]
    if workload == "verify":
        return [
            "optimize", ds, preds, "--verify", "--tol", repr(VERIFY_TOL),
            "--oracle-resolution", str(VERIFY_RESOLUTION),
            "--metric", "acceptance_rate", "--metric", "tpr", "--metric", "tnr",
        ]
    if workload == "sample":
        return ["sample", ds, preds, paths["weights"], "--n", str(SAMPLE_DRAWS),
                "--seed", str(seed)]
    return None


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, workload, seed, run_dir, env, paths, deadline):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.env = env
        self.paths = paths
        self.deadline = deadline
        self.count = 0

    def timeout(self):
        return max(1.0, self.deadline - time.monotonic())

    def child(self, mode, seconds=0.0, warmup=WARMUP_JOBS, min_jobs=MIN_JOBS):
        self.count += 1
        out = os.path.join(self.run_dir, f"child{self.count}.json")
        plan = {
            "workload": self.workload, "mode": mode, "paths": self.paths,
            "argv": _argv(self.workload, self.paths, self.seed),
            "tolerances": FRONTIER_TOLERANCES, "seconds": seconds,
            "warmup": warmup, "min_jobs": min_jobs, "out": out,
        }
        plan_path = os.path.join(self.run_dir, f"plan{self.count}.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path],
            env=self.env, capture_output=True, text=True,
            timeout=self.timeout(),
        )
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def _timed(results):
    """Job times at the reference speed; each job is read against the mean
    of the references measured just before and just after it."""
    out = []
    for res in results:
        times = [r["seconds"] for r in res["records"] if r["seconds"] is not None]
        refs = res["refs"]
        out += [t * REFERENCE_NOMINAL_S / (0.5 * (refs[k] + refs[k + 1]))
                for k, t in enumerate(times)]
    return out


def _wall(results):
    return [r["seconds"] for res in results for r in res["records"] if r["seconds"] is not None]


def _setup(res):
    """Set-up time at the reference speed of the loop run around it."""
    return res["setup_s"] * LOOP_NOMINAL_S / res["setup_ref_s"]


def _tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _score(workload, stats, results, seed):
    """(attempted, failed, problems): every job of every process is checked."""
    records = [r for res in results for r in res["records"]]
    outputs = {}
    for res in results:
        outputs.update(res["outputs"])
    problems = []
    reference = {}  # key -> first output digest; repeats must be byte-identical
    for r in records:
        if r["sha256"] is not None:
            reference.setdefault(r["key"], r["sha256"])
    verdict = {}
    # an output the checks cannot even read fails them
    unreadable = (ValueError, KeyError, TypeError, AttributeError)
    if workload == "frontier":
        texts = {k: outputs[h] for k, h in reference.items()}
        try:
            found = check.check_frontier(stats, texts, FRONTIER_TOLERANCES)
        except unreadable as exc:
            found = {k: [f"unreadable output: {exc!r}"] for k in texts}
        for k, h in reference.items():
            problems += found[k]
            # slack tolerances can share one output; it must pass for each
            verdict[h] = verdict.get(h, True) and not found[k]
    else:
        for h in set(reference.values()):
            text = outputs[h]
            try:
                if workload == "audit":
                    found = check.check_audit(stats, text, AUDIT_TOL)
                elif workload == "verify":
                    found = check.check_verify(stats, text, VERIFY_TOL, VERIFY_RESOLUTION)
                else:
                    found = check.check_sample(stats, text, SAMPLE_DRAWS, seed)
            except unreadable as exc:
                found = [f"unreadable output: {exc!r}"]
            problems += found
            verdict[h] = not found
    failed = 0
    for r in records:
        ok = r["rc"] == 0 and r["sha256"] == reference.get(r["key"]) and verdict.get(r["sha256"])
        if not ok:
            failed += 1
            if r["rc"] != 0 or r["sha256"] is None:
                problems.append(f"job exited {r['rc']}: {r['stderr']}")
            elif r["sha256"] != reference.get(r["key"]):
                problems.append("output differs from the first repetition")
    return len(records), failed, problems


def _end_to_end(runner, seconds):
    """Untraced job processes, interleaved with set-up-only processes."""
    n_setup = SETUP_PROCESSES.get(runner.workload, SETUP_PROCESSES_DEFAULT)
    job_results, setups = [], []
    for k in range(max(JOB_PROCESSES, n_setup)):
        if k < n_setup:
            setups.append(runner.child("setup"))
        if k < JOB_PROCESSES:
            res = runner.child("jobs", seconds / JOB_PROCESSES)
            setups.append(res)
            job_results.append(res)
    times = _timed(job_results)
    tail, percentile = _tail(times)
    metrics = {
        "setup_s": (statistics.median(_setup(r) for r in setups), "s"),
        "job_s": (statistics.median(times), "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_mb"] for r in job_results), "MB"),
    }
    refs = [x for res in job_results for x in res["refs"]]
    detail = {
        "jobs_timed": len(times), "tail_percentile": percentile,
        "setup_samples": len(setups), "job_processes": JOB_PROCESSES,
        "wall_setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_job_s": statistics.median(_wall(job_results)),
        "reference_s": statistics.median(refs),
    }
    return job_results, metrics, detail


def _per_layer(runner, seconds):
    """Untraced baseline, traced run, then one job under tracemalloc."""
    base = runner.child("jobs", seconds * 0.4)
    traced = runner.child("trace", seconds * 0.6)
    memory = runner.child("memory", warmup=0, min_jobs=1)
    jobs = [s for s, r in zip(traced["spans"], traced["records"]) if r["seconds"] is not None]
    setup = traced["setup_spans"]
    metrics = {}
    for name in spans.SPANS + (spans.ROOT,):
        calls = setup["calls"][name] + statistics.fmean(j["calls"][name] for j in jobs)
        self_s = (setup["self_ns"][name] + statistics.median(j["self_ns"][name] for j in jobs)) / 1e9
        peak = max([memory["setup_spans"]["peak_bytes"][name]]
                   + [j["peak_bytes"][name] for j in memory["spans"]])
        errors = setup["errors"][name] + sum(j["errors"][name] for j in traced["spans"])
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.peak_mb"] = (peak / 2**20, "MB")
        metrics[f"{name}.errors"] = (errors, "count")
    del metrics[f"{spans.ROOT}.calls"], metrics[f"{spans.ROOT}.errors"]
    del metrics[f"{spans.ROOT}.peak_mb"]
    total = {c: sum(j["counts"][c] for j in jobs) for c in spans.COUNTS}
    per_job = {c: v / len(jobs) for c, v in total.items()}
    metrics["simplex.pivots"] = (per_job["simplex.pivots"], "count")
    metrics["optimizer.optimal_frac"] = (
        total["optimizer.optimal"] / total["optimizer.solves"] if total["optimizer.solves"] else 0.0,
        "ratio")
    metrics["optimizer.lattice_points"] = (per_job["optimizer.lattice_points"], "count")
    metrics["optimizer.feasible_frac"] = (
        total["optimizer.feasible"] / total["optimizer.lattice_points"]
        if total["optimizer.lattice_points"] else 0.0, "ratio")
    for c in ("dataset.twin_pairs", "metrics.violations", "ensemble.sample.draws", "jsonio.bytes"):
        metrics[c] = (per_job[c], "B" if c == "jsonio.bytes" else "count")
    base_times = _timed([base])
    traced_times = _timed([traced])
    job_s = statistics.median(traced_times)
    root_self = metrics[f"{spans.ROOT}.self_s"][0] + metrics["cli.entrypoint.self_s"][0]
    metrics["trace.job_s"] = (job_s, "s")
    metrics["trace.overhead_s"] = (job_s - statistics.median(base_times), "s")
    metrics["trace.unattributed_frac"] = (root_self / statistics.median(_wall([traced])), "ratio")
    detail = {"jobs_timed": len(base_times), "jobs_traced": len(traced_times)}
    return [base, traced, memory], metrics, detail


def _environment():
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fairmix", "__init__.py")):
        print("perfbench: src/fairmix not found; run from the repository root",
              file=sys.stderr)
        return 1
    work = os.path.join(root, ".perfbench_work")
    run_dir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    # compiled bytecode is cached under the work directory, never in src/
    env["PYTHONPYCACHEPREFIX"] = os.path.join(work, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        inputs = gen.generate(args.workload, args.seed)
        gen.write(inputs, args.workload, run_dir)
        runner = Runner(args.workload, args.seed, run_dir, env, inputs.paths, deadline)
        # fill the bytecode cache before anything is timed
        subprocess.run([sys.executable, "-c", "import fairmix.cli"], env=env,
                       check=True, timeout=runner.timeout(), capture_output=True)
        started = time.perf_counter()
        if args.trace:
            results, metrics, detail = _per_layer(runner, args.seconds)
        else:
            results, metrics, detail = _end_to_end(runner, args.seconds)
        detail["measure_wall_s"] = time.perf_counter() - started
        attempted, failed, problems = _score(
            args.workload, check.Stats(inputs), results, args.seed)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    detail.update({
        "workload": args.workload, "seed": args.seed, "sizes": gen.SIZES[args.workload],
        "inputs_sha256": inputs.sha256, "environment": _environment(),
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
