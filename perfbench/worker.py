"""One workload in its own process: set up, warm up, run timed rounds of
`gmml` CLI commands, then check their outputs.

Started by run.py, which fixes the BLAS thread count in the environment.
The last line of standard output is a JSON object for run.py; all other
output of this process goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import gmml from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gmml.cli

    if src.resolve() not in Path(gmml.__file__).resolve().parents:
        raise ImportError(f"gmml was imported from {gmml.__file__}, not from {src}")
    return gmml


@dataclass
class Command:
    code: int
    wall: float
    stdout: str


class Runner:
    """Calls gmml.cli.main in-process; records exit code and wall time."""

    def __init__(self, gmml, tracer=None):
        self.gmml = gmml
        self.tracer = tracer
        self.commands = 0
        self.nonzero = 0
        self.wall = 0.0  # summed wall time of all commands

    def _invoke(self, argv) -> int:
        try:
            self.gmml.cli.main.main(args=argv, prog_name="gmml", standalone_mode=True)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            # an exception the CLI does not map to an exit code fails the command
            traceback.print_exc()
            return 1
        return 0

    def __call__(self, argv: list[str]) -> Command:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                code = self._invoke(argv)
            else:
                code = self.tracer.call("cli.cmd", self._invoke, (argv,))
        wall = time.perf_counter() - start
        self.commands += 1
        self.wall += wall
        if code != 0:
            self.nonzero += 1
            print(f"gmml {' '.join(argv)} exited {code}: {err.getvalue().strip()}",
                  file=sys.stderr)
        return Command(code, wall, out.getvalue())


def machine_context() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: the first import of the package, then the inputs
    start = time.perf_counter()
    gmml = import_program()
    import inputs

    files = inputs.generate(args.workload, args.seed, args.work)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from spans import Tracer

    from workloads import KINDS

    kind = KINDS[args.workload]
    kind(files, args.seed, args.work, args.jobs).round(Runner(gmml))  # untimed warm-up

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    runner = Runner(gmml, tracer)
    workload = kind(files, args.seed, args.work, args.jobs)
    round_s: list[float] = []  # commands' wall time per round
    began = time.perf_counter()
    while not round_s or time.perf_counter() - began < args.seconds:
        if tracer is not None:
            tracer.round = len(round_s)
        before = runner.wall
        workload.round(runner)
        round_s.append(runner.wall - before)
    rounds = len(round_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    problems = workload.check(Runner(gmml), gmml)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed_units = getattr(workload, "failed_units", 0)

    details = dict(workload.details(), round_s_min=min(round_s),
                   round_s_median=statistics.median(round_s),
                   rounds_s=[round(t, 4) for t in round_s])
    if tracer is not None:
        summary = tracer.summary(rounds)
        summary["cli.self_s"] = summary["cli.cmd.self_s"]
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: (summary.get(m["name"], 0.0), m["unit"]) for m in per_layer}
        if args.spans is not None:
            tracer.write(args.spans)
        absent = tracer.absent()
    else:
        metrics = {"round_s": (statistics.median(round_s), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        absent = []
    print(json.dumps({
        "setup_s": setup_s,
        "rounds": rounds,
        "commands": runner.commands,
        "nonzero_exit": runner.nonzero,
        "units": getattr(workload, "units", 0),
        "failed_units": failed_units,
        "correct": not problems,
        "metrics": metrics,
        "absent": absent,
        # per-command figures; with --trace 1 as slowed by the wrappers
        "details": details,
        "machine": machine_context(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
