"""Benchmark of the gmml CLI on three seeded synthetic workloads.

    python3 perfbench/run.py --workload cv-protocol --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's src/. Each workload runs in a worker process with BLAS
pinned to one thread. The worker builds its inputs from --seed, calls
`gmml.cli.main` once untimed, then repeats whole rounds of CLI commands
for --seconds and checks their outputs. Set-up (first import of the
package plus input generation) is also timed in separate processes, and
setup_s is the median over all of them.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer spans and counts of
perfbench/spans.py, written in full to .perfbench/. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("cv-protocol", "knn-holdout", "learn-wide")
# extra set-up-only processes, half before and half after the worker; with
# the worker's own set-up, seven samples. The host's speed drifts over tens
# of seconds, so samples spread over the whole run give a steadier median
# than samples taken back to back.
SETUP_PROBES = 6
# one BLAS thread fits every machine (never above nproc) and keeps the
# two-core reference box from timing thread contention
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="--jobs of `gmml benchmark` on cv-protocol")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gmml" / "__init__.py").is_file():
        print(f"error: no gmml source tree at {ROOT / 'src' / 'gmml'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--jobs", str(args.jobs)]
    env = dict(os.environ, **BLAS_ENV)

    def worker(*extra: str) -> dict:
        proc = subprocess.run(
            [*command, *extra], env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"worker exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    work = OUT / f"{tag}-{os.getpid()}"
    try:
        def probes(first: int, last: int) -> list[float]:
            return [] if args.trace else [
                worker("--setup-only", "--work", str(work / f"setup{i}"))["setup_s"]
                for i in range(first, last)
            ]

        setups = probes(0, SETUP_PROBES // 2)
        extra = ["--spans", str(OUT / f"{tag}.spans.jsonl")] if args.trace else []
        result = worker("--work", str(work / "run"), *extra)
        setups += probes(SETUP_PROBES // 2, SETUP_PROBES)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted = result["commands"] + result["units"]
    failed = result["nonzero_exit"] + result["failed_units"]
    print("operations: " + json.dumps({
        "attempted": attempted, "failed": failed, "rounds": result["rounds"],
        "commands": result["commands"], "nonzero_exit": result["nonzero_exit"],
        "report_units": result["units"], "failed_units": result["failed_units"],
        "absent_spans": result["absent"], "details": result["details"],
        "setups_s": [round(t, 4) for t in setups],
        "machine": result["machine"],
    }))
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
