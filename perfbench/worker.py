"""One measuring process: import fairmix, set up, run jobs, write JSON.

``run.py`` starts this script with a plan file. The process generates
nothing, so its ``ru_maxrss`` is the program's own peak. Modes:

* ``setup``: import (and, for ``frontier``, load the inputs), then stop;
* ``jobs``: the untraced closed loop, one job at a time;
* ``trace``: the same loop with every layer wrapped in spans;
* ``memory``: one job under ``tracemalloc`` for per-span peaks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import tracemalloc


def loop_reference(size: int = 60_000) -> float:
    """Seconds for a fixed bytecode loop that never touches fairmix."""
    start = time.perf_counter()
    total = 0
    for i in range(size):
        total += i * i
    return time.perf_counter() - start


def settle(window_s: float = 0.005, limit_s: float = 0.5) -> None:
    """Busy-wait until the process's other threads stop using the CPU.

    OpenBLAS worker threads keep a CPU busy for about 120 ms after a
    threaded call; on a 2-core machine that slows whatever runs next by up
    to half. Waiting them out starts every reference and every timed job
    from the same quiet state, as a fresh ``fairmix`` process would. The
    wait spins rather than sleeps: after an idle sleep the next few
    milliseconds run at an unsteady speed. Two quiet windows in a row
    are needed, so a worker thread that was briefly descheduled is not
    taken for an idle one.
    """

    def others():
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime - time.thread_time()

    limit = time.perf_counter() + limit_s
    quiet = 0
    while quiet < 2 and time.perf_counter() < limit:
        before = others()
        until = time.perf_counter() + window_s
        while time.perf_counter() < until:
            pass
        quiet = quiet + 1 if others() - before < 0.2 * window_s else 0


class Reference:
    """Fixed work next to every timed job, to read its time against.

    The host's speed drifts by tens of percent within seconds, so each
    job is compared with the speed measured just before and after it.
    Half the work is the bytecode loop, half numpy passes over arrays
    allocated once, so the reference does not depend on the heap state
    that fairmix leaves behind.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.arange(200_000, dtype=float)
        self._b = np.empty_like(self._a)

    def _once(self) -> float:
        np, a, b = self._np, self._a, self._b
        start = time.perf_counter()
        for _ in range(4):
            np.subtract(a, a[::-1], out=b)
            np.abs(b, out=b)
            float(b.sum())
        return loop_reference(20_000) + time.perf_counter() - start

    def __call__(self) -> float:
        """Three times the median of three short repetitions, so that one
        repetition caught in a burst of host load does not count."""
        settle()
        return 3 * sorted(self._once() for _ in range(3))[1]


def _cli_job(fairmix, plan):
    argv = plan["argv"]

    def job(i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fairmix.cli.entrypoint(argv)
        return 0, rc, out.getvalue, err.getvalue()

    return job


def _frontier_job(fairmix, plan):
    paths = plan["paths"]
    dataset = fairmix.load_dataset(paths["dataset"])
    members = fairmix.load_prediction_matrix(paths["predictions"], dataset)
    kinds = [fairmix.MetricKind(k) for k in ("acceptance_rate", "tpr", "tnr")]
    tolerances = plan["tolerances"]

    def job(i):
        k = i % len(tolerances)
        sol = fairmix.optimizer.solve_fair_mixture(members, dataset, kinds, tolerances[k])

        def render():
            return json.dumps(
                {
                    "status": sol.status.value,
                    "weights": None if sol.weights is None else sol.weights.tolist(),
                    "accuracy": sol.accuracy,
                    "gaps": {kind.value: gap for kind, gap in sol.gaps.items()},
                    "iterations": sol.iterations,
                },
                sort_keys=True,
            )

        return k, 0, render, ""

    return job


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    mode = plan["mode"]
    loop_before = loop_reference()
    start = time.perf_counter()
    import fairmix

    if plan["workload"] != "frontier":
        import fairmix.cli  # what the ``fairmix`` command imports
    tracer = None
    if mode in ("trace", "memory"):
        import spans

        if mode == "memory":
            tracemalloc.start()
        tracer = spans.Tracer(memory=mode == "memory")
        tracer.install()
    make = _frontier_job if plan["workload"] == "frontier" else _cli_job
    job = make(fairmix, plan)
    setup_s = time.perf_counter() - start
    setup_ref = 0.5 * (loop_before + loop_reference())
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref, "records": [],
              "outputs": {}, "spans": [], "refs": []}
    if tracer is not None:
        result["setup_spans"] = tracer.take()

    def one(i, timed):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                key, rc, render, err = job(i)
            else:
                key, rc, render, err = tracer.run(spans.ROOT, job, i)
        except Exception as exc:  # a failed job is counted, the loop goes on
            key, rc, render, err = None, None, None, repr(exc)
        elapsed = time.perf_counter() - t0
        digest = None
        if render is not None:
            text = render()
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            result["outputs"].setdefault(digest, text)
        result["records"].append(
            {"key": key, "seconds": elapsed if timed else None, "rc": rc,
             "sha256": digest, "stderr": err[-500:]}
        )
        if tracer is not None:
            result["spans"].append(tracer.take())

    if mode != "setup":
        reference = Reference()
        for i in range(plan["warmup"]):
            one(i, False)
        i = plan["warmup"]
        deadline = time.perf_counter() + plan["seconds"]
        while i < plan["warmup"] + plan["min_jobs"] or time.perf_counter() < deadline:
            result["refs"].append(reference())
            one(i, True)
            i += 1
        result["refs"].append(reference())
    if tracer is not None:
        tracer.uninstall()
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(plan["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
