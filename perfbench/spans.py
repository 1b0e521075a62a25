"""Per-layer spans recorded from outside the program.

The tracer replaces public functions with timing wrappers for the length
of the traced run. A wrapper is installed under every name a caller looks
the function up by: the attribute of its home module, and each binding of
the same object in a loaded ``gmml`` module (``from .x import f`` makes
such a binding). Spans are kept in memory and written out at the end. A
name that no longer exists is reported as absent.

A span nested inside a span of the same key is not recorded, so a solver
entry point that calls another one counts once. A span's self time is its
duration minus the durations of the spans directly inside it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# key -> (home module, attribute names); a name holding a dot is a class
# attribute. Keys are the layer, then the name the callers look up.
TARGETS = {
    "cli.cmd": None,  # recorded by the benchmark around each gmml.cli.main call
    "evaluation.evaluate_split": ("gmml.evaluation", ["evaluate_split"]),
    "evaluation.cross_validate_t": ("gmml.evaluation", ["cross_validate_t"]),
    "evaluation.sample_constraints": ("gmml.evaluation", ["sample_constraints"]),
    "learn.scatter_matrices": ("gmml.learn", ["scatter_matrices"]),
    "learn.solve": ("gmml.learn", None),  # `solve` and every `solve_*`
    "spd.geodesic": ("gmml.spd", ["geodesic"]),
    "spd.check_spd": ("gmml.spd", ["check_spd"]),
    "io.load_dataset": ("gmml.io", ["load_dataset"]),
    "io.save_metric": ("gmml.io", ["save_metric"]),
    "io.load_metric": ("gmml.io", ["load_metric"]),
    "io.write_report": ("gmml.io", ["write_report"]),
    "io.fingerprint_dataset": ("gmml.io", ["fingerprint_dataset"]),
    "dataset.subset": ("gmml.dataset", ["LabeledDataset.subset"]),
    "linalg.eigvalsh": (("numpy.linalg", "scipy.linalg"), ["eigvalsh"]),
    "linalg.eigh": (("numpy.linalg", "scipy.linalg"), ["eigh"]),
    "linalg.cholesky": (("numpy.linalg", "scipy.linalg"), ["cholesky", "cho_factor"]),
    "linalg.solve_triangular": (("scipy.linalg",), ["solve_triangular"]),
}


def _arg(sig, args, kwargs, name):
    try:
        return sig.bind_partial(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _knn_counts(sig, args, kwargs, result):
    """k-NN work of one evaluate_split call: test rows, and test x train
    distance evaluations."""
    train, test = _arg(sig, args, kwargs, "train"), _arg(sig, args, kwargs, "test")
    n_test, n_train = getattr(test, "n_points", 0), getattr(train, "n_points", 0)
    return {"evaluation.knn.queries": n_test, "evaluation.knn.pairs": n_test * n_train}


def _row_counts(sig, args, kwargs, result):
    return {"io.load_dataset.rows": getattr(result, "n_points", 0)}


COUNTERS = {
    "evaluation.evaluate_split": _knn_counts,
    "io.load_dataset": _row_counts,
}


class Tracer:
    """Records spans while installed; :meth:`summary` aggregates them."""

    def __init__(self):
        self.spans: list[tuple] = []  # (key, parent key, round, start, end, child_s)
        self.counts: dict[str, float] = defaultdict(float)
        self.present: set[str] = {"cli.cmd"}
        self.round = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, key, fn, args=(), kwargs=None, counter=None, sig=None):
        """Run fn(*args, **kwargs) inside a span named ``key``."""
        kwargs = kwargs or {}
        stack = self._stack()
        if any(frame[0] == key for frame in stack):
            return fn(*args, **kwargs)
        parent = stack[-1][0] if stack else None
        frame = [key, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            self.spans.append((key, parent, self.round, start, end, frame[1]))
        if counter is not None:
            for name, n in counter(sig, args, kwargs, result).items():
                self.counts[name] += n
        return result

    def _wrapper(self, key, fn):
        counter = COUNTERS.get(key)
        sig = inspect.signature(fn) if counter is not None else None

        def traced(*args, **kwargs):
            return self.call(key, fn, args, kwargs, counter, sig)

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        gmml_modules = [m for n, m in list(sys.modules.items()) if n == "gmml" or n.startswith("gmml.")]
        for key, spec in TARGETS.items():
            if spec is None:
                continue
            homes, names = spec
            homes = (homes,) if isinstance(homes, str) else homes
            for home_name in homes:
                home = importlib.import_module(home_name)
                attrs = names if names is not None else [
                    n for n, v in vars(home).items()
                    if (n == "solve" or n.startswith("solve_")) and inspect.isfunction(v)
                ]
                for name in attrs:
                    owner_name, _, attr = name.rpartition(".")
                    owner = getattr(home, owner_name) if owner_name else home
                    original = getattr(owner, attr, None)
                    if original is None:
                        continue
                    self.present.add(key)
                    wrapper = self._wrapper(key, original)
                    self._set(owner, attr, wrapper)
                    if owner_name:
                        continue
                    for module in gmml_modules:
                        for bound, value in list(vars(module).items()):
                            if value is original:
                                self._set(module, bound, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reporting -------------------------------------------------------

    def absent(self) -> list[str]:
        return sorted(k for k in TARGETS if k not in self.present)

    def summary(self, rounds: int) -> dict[str, float]:
        """Busy seconds, self seconds and calls per key, and the counters,
        each divided by the number of timed rounds."""
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for key, _, _, start, end, child_s in self.spans:
            busy[key] += end - start
            own[key] += end - start - child_s
            calls[key] += 1
        out = {}
        for key in TARGETS:
            out[f"{key}.s"] = busy[key] / rounds
            out[f"{key}.self_s"] = own[key] / rounds
            out[f"{key}.calls"] = calls[key] / rounds
        for name, n in self.counts.items():
            out[name] = n / rounds
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span, in the order the spans ended."""
        with open(path, "w") as handle:
            for key, parent, rnd, start, end, child_s in self.spans:
                handle.write(json.dumps({"key": key, "parent": parent, "round": rnd,
                                         "start": start, "end": end, "child_s": child_s}) + "\n")
