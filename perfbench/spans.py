"""Per-layer spans recorded from outside the program.

Each named public function is wrapped at every module binding that
refers to it (``metrics.rate_counts`` is also bound as
``ensemble.rate_counts``, ``simplex_solve`` also in ``optimizer``, the
loaders also in ``cli``), so every call is seen whichever name the
caller used. Self time is a span's duration minus the time its child
spans cover. With ``memory=True`` each span also records the largest
``tracemalloc`` peak above its entry level; ``reset_peak`` runs at every
span boundary, so a child's peak does not hide inside its parent's.

A function that does not exist reports no calls instead of failing, so
the benchmark keeps running after a layer is removed or renamed.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import tracemalloc

#: Spans, named ``<module>.<function>`` after fairmix's own modules.
SPANS = (
    "cli.entrypoint",
    "dataset.load_dataset",
    "dataset.build_counterfactual_pairs",
    "classifiers.load_prediction_matrix",
    "classifiers.prediction_matrix",
    "metrics.rate_counts",
    "metrics.treatment_violations",
    "ensemble.ensemble_group_rate",
    "ensemble.acceptance_probability",
    "ensemble.mixture_accuracy",
    "ensemble.ensemble_report",
    "ensemble.sample",
    "distributional.dispersion",
    "optimizer.build_mixture_program",
    "optimizer.solve_fair_mixture",
    "optimizer.grid_oracle",
    "simplex.simplex_solve",
    "jsonio.dumps",
)

#: The benchmark's own span around each job; it has every layer as a child.
ROOT = "bench.job"

#: Counts taken from the arguments and results of the spans above.
COUNTS = (
    "simplex.pivots",
    "optimizer.solves",
    "optimizer.optimal",
    "optimizer.lattice_points",
    "optimizer.feasible",
    "dataset.twin_pairs",
    "metrics.violations",
    "ensemble.sample.draws",
    "jsonio.bytes",
)


def _pivots(counts, args, kwargs, result):
    counts["simplex.pivots"] += getattr(result, "iterations", 0)


def _solve(counts, args, kwargs, result):
    counts["optimizer.solves"] += 1
    status = getattr(getattr(result, "status", None), "value", None)
    counts["optimizer.optimal"] += status == "optimal"


def _oracle(counts, args, kwargs, result):
    # grid_oracle(members, dataset, constrained, tolerance, resolution)
    members = args[0] if args else kwargs["members"]
    resolution = args[4] if len(args) > 4 else kwargs["resolution"]
    m = len(members)
    counts["optimizer.lattice_points"] += math.comb(resolution + m - 1, m - 1)
    counts["optimizer.feasible"] += getattr(result, "feasible_count", 0)


def _length(counter):
    def observe(counts, args, kwargs, result):
        counts[counter] += len(result)

    return observe


def _draws(counts, args, kwargs, result):
    counts["ensemble.sample.draws"] += getattr(result, "n_draws", 0)


def _bytes(counts, args, kwargs, result):
    counts["jsonio.bytes"] += len(result.encode("utf-8"))


#: Span name -> function adding one call's work to the counts.
OBSERVERS = {
    "simplex.simplex_solve": _pivots,
    "optimizer.solve_fair_mixture": _solve,
    "optimizer.grid_oracle": _oracle,
    "dataset.build_counterfactual_pairs": _length("dataset.twin_pairs"),
    "metrics.treatment_violations": _length("metrics.violations"),
    "ensemble.sample": _draws,
    "jsonio.dumps": _bytes,
}


class Tracer:
    """Span recorder. Totals accumulate until :meth:`take` empties them."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self._stack = []  # open frames: [child_ns, base_bytes, peak_bytes]
        self._restore = []  # (module, attribute, original)
        self._reset()

    def _reset(self):
        names = SPANS + (ROOT,)
        self.calls = dict.fromkeys(names, 0)
        self.self_ns = dict.fromkeys(names, 0)
        self.errors = dict.fromkeys(names, 0)
        self.peak_bytes = dict.fromkeys(names, 0)
        self.counts = dict.fromkeys(COUNTS, 0)

    def take(self) -> dict:
        """Totals since the last call, as plain data; then start from zero."""
        out = {
            "calls": self.calls,
            "self_ns": self.self_ns,
            "errors": self.errors,
            "peak_bytes": self.peak_bytes,
            "counts": self.counts,
        }
        self._reset()
        return out

    # -- span boundaries -------------------------------------------------

    def _fold_peak(self):
        # the peak since the last boundary belongs to every open frame
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._stack:
            frame[2] = max(frame[2], peak)
        tracemalloc.reset_peak()

    def _enter(self):
        frame = [0, 0, 0]
        if self.memory:
            self._fold_peak()
            frame[1] = frame[2] = tracemalloc.get_traced_memory()[0]
        self._stack.append(frame)
        return frame, time.perf_counter_ns()

    def _exit(self, name, frame, start):
        elapsed = time.perf_counter_ns() - start
        if self.memory:
            self._fold_peak()
            self.peak_bytes[name] = max(self.peak_bytes[name], frame[2] - frame[1])
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self.calls[name] += 1
        self.self_ns[name] += elapsed - frame[0]

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        frame, start = self._enter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            self._exit(name, frame, start)

    # -- wrapping the program's bindings ---------------------------------

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        run = self.run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = run(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "fairmix") -> None:
        """Wrap every binding of every span function in the loaded package."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for name in SPANS:
            module_name, attr = name.split(".")
            home = sys.modules.get(f"{package}.{module_name}")
            fn = getattr(home, attr, None)
            if not callable(fn):
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()
