"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line to the real terminal, so a
plain `pytest tests/test_acceptance.py` doubles as a checklist.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
from click.testing import CliRunner

from gmml.cli import main
from gmml.dataset import LabeledDataset
from gmml.evaluation import (
    DEFAULT_COARSE_GRID,
    DEFAULT_K,
    TIMING_FIELDS,
    CvPolicy,
    SplitPlan,
    default_constraint_count,
    run_benchmark,
    sample_constraints,
)
from gmml.learn import (
    GmmlConfig,
    ScatterMatrices,
    objective,
    objective_gradient,
    scatter_matrices,
    solve,
)
from gmml.spd import geodesic, riemannian_distance, spd_inverse, spd_power
from helpers import make_anisotropic, make_blobs, rand_spd, write_csv


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}: {detail}")


def random_sc(rng, d, lo=0.5, hi=2.0):
    return ScatterMatrices(rand_spd(rng, d, lo, hi), rand_spd(rng, d, lo, hi), 8, 8)


def test_criterion_01_riccati_correctness(capsys):
    # closed-form solution satisfies its defining quadratic matrix equation
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 5, 20, 100):
        for _ in range(100):
            metric = solve(random_sc(rng, d))
            worst = max(worst, metric.provenance.riccati_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    announce(capsys, 1, ok,
             f"max residual {worst:.2e} over 400 instances in {elapsed:.1f}s")
    assert ok


def test_criterion_02_explicit_square_root_route(capsys):
    # independent route: inv_sqrt(S) @ sqrt(sqrt(S) D sqrt(S)) @ inv_sqrt(S)
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 31))
        sc = random_sc(rng, d)
        a = solve(sc).matrix
        s_half = spd_power(sc.s_mat, 0.5)
        s_neg = spd_power(sc.s_mat, -0.5)
        b = s_neg @ spd_power(s_half @ sc.d_mat @ s_half, 0.5) @ s_neg
        worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(b))
    ok = worst <= 1e-9
    announce(capsys, 2, ok, f"max relative Frobenius gap {worst:.2e} over 50 instances")
    assert ok


def test_criterion_03_gradient_finite_differences(capsys):
    rng = np.random.default_rng(103)
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 11))
        sc = random_sc(rng, d, 0.8, 1.5)
        a = rand_spd(rng, d, 0.8, 1.5)
        grad = objective_gradient(a, sc)
        for i in range(d):
            for j in range(i, d):
                delta = np.zeros((d, d))
                delta[i, j] = delta[j, i] = 1.0
                fd = (objective(a + step * delta, sc)
                      - objective(a - step * delta, sc)) / (2 * step)
                # symmetric bump moves two entries at once off the diagonal
                expected = grad[i, j] * (2.0 if i != j else 1.0)
                worst = max(worst, abs(fd - expected) / max(abs(expected), 1.0))
    ok = worst <= 1e-5
    announce(capsys, 3, ok, f"max relative gradient error {worst:.2e} on 20 instances")
    assert ok


def test_criterion_04_midpoint_strict_convexity(capsys):
    # cost at the geodesic midpoint sits strictly below the average of the
    # endpoint costs whenever the endpoints differ
    rng = np.random.default_rng(104)
    violations = 0
    smallest = np.inf
    for _ in range(200):
        d = int(rng.integers(2, 9))
        sc = random_sc(rng, d)
        a = rand_spd(rng, d, 0.4, 2.5)
        b = rand_spd(rng, d, 0.4, 2.5)
        mid = geodesic(a, b, 0.5)
        margin = 0.5 * (objective(a, sc) + objective(b, sc)) - objective(mid, sc)
        smallest = min(smallest, margin)
        if margin <= 0:
            violations += 1
    ok = violations == 0
    announce(capsys, 4, ok,
             f"{violations} violations in 200 triples, smallest margin {smallest:.2e}")
    assert ok


def test_criterion_05_weighted_solution_arclength(capsys):
    # the t-weighted solution sits a fraction t of the way along the curve
    # from inv(S) to D, measured in the curved matrix distance
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 16))
        sc = random_sc(rng, d)
        s_inv = spd_inverse(sc.s_mat)
        full = riemannian_distance(s_inv, sc.d_mat)
        for t in (0.1, 0.5, 0.9):
            a_t = solve(sc, GmmlConfig(t=t)).matrix
            part = riemannian_distance(s_inv, a_t)
            worst = max(worst, abs(part - t * full) / (t * full))
    ok = worst <= 1e-8
    announce(capsys, 5, ok, f"max relative arclength error {worst:.2e} over 50 instances")
    assert ok


def test_criterion_06_regularization_pulls_toward_prior(capsys):
    rng = np.random.default_rng(106)
    eye = np.eye(6)
    worst_limit = 0.0
    monotone = True
    for _ in range(10):
        sc = random_sc(rng, 6)
        huge = solve(sc, GmmlConfig(lam=1e8)).matrix
        worst_limit = max(worst_limit, riemannian_distance(huge, eye))
        strong = riemannian_distance(solve(sc, GmmlConfig(lam=100.0)).matrix, eye)
        weak = riemannian_distance(solve(sc, GmmlConfig(lam=0.01)).matrix, eye)
        monotone = monotone and strong < weak
    ok = worst_limit <= 1e-3 and monotone
    announce(capsys, 6, ok,
             f"distance to prior at lam=1e8 is {worst_limit:.2e}, "
             f"lam=100 closer than lam=0.01: {monotone}")
    assert ok


def test_criterion_07_classification_quality(capsys):
    start = time.perf_counter()
    plan = SplitPlan(n_runs=10, n_folds=2, rng_seed=7)
    policy = CvPolicy()
    cfg = GmmlConfig()

    # (a) one informative direction drowned by nine noisy ones: the learned
    # metric must at least halve the plain-Euclidean error
    aniso = make_anisotropic(np.random.default_rng(70))
    learned = run_benchmark(aniso, plan, policy, cfg)
    baseline = run_benchmark(aniso, plan, None, cfg, baseline=True)
    halved = learned.mean_error <= 0.5 * baseline.mean_error

    # (b) well separated isotropic blobs stay easy
    blobs = make_blobs(np.random.default_rng(71))
    blob_report = run_benchmark(blobs, plan, policy, cfg)
    easy = blob_report.mean_error <= 0.05

    elapsed = time.perf_counter() - start
    ok = halved and easy and elapsed < 60.0
    announce(capsys, 7, ok,
             f"anisotropic {learned.mean_error:.3f} vs baseline {baseline.mean_error:.3f}, "
             f"blobs {blob_report.mean_error:.3f}, {elapsed:.1f}s")
    assert ok, (learned.mean_error, baseline.mean_error, blob_report.mean_error, elapsed)


def test_criterion_08_runtime_scaling(capsys):
    rng = np.random.default_rng(108)

    # large single learn: 5000 points in 256 dims, 10 classes, default
    # constraint budget 40c(c-1) = 3600
    data = LabeledDataset(points=rng.normal(size=(5000, 256)),
                          labels=np.arange(5000) % 10, name="large")
    pairs = sample_constraints(data, default_constraint_count(10), seed=0)
    start = time.perf_counter()
    sc = scatter_matrices(data, pairs)
    solve(sc)
    learn_time = time.perf_counter() - start

    # solve cost should grow roughly with the cube of the dimension: each
    # doubling lands within a factor 3 of the ideal 8x. The solves are
    # timed in a child process with one BLAS thread, since a threaded BLAS
    # splits the d=256 work over cores it leaves idle at d=64.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, test_acceptance; print(json.dumps(test_acceptance._median_solve_times()))"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    solve_times = json.loads(probe.stdout.splitlines()[-1])
    ratios = [solve_times[i + 1] / solve_times[i] for i in range(2)]
    cubic = all(8 / 3 <= r <= 24 for r in ratios)

    ok = learn_time < 5.0 and cubic
    announce(capsys, 8, ok,
             f"d=256 learn {learn_time:.2f}s, doubling ratios "
             f"{ratios[0]:.1f}x and {ratios[1]:.1f}x")
    assert ok, (learn_time, solve_times)


def _median_solve_times(dims=(64, 128, 256), repeats=15):
    """Median solve time per dimension. The host's speed drifts in
    phases, so every repeat times all sizes back to back."""
    rng = np.random.default_rng(208)
    scs = [random_sc(rng, d) for d in dims]
    for sc in scs:
        solve(sc)  # warm-up
    samples = [[] for _ in dims]
    for _ in range(repeats):
        for times, sc in zip(samples, scs):
            times.append(_timed(lambda: solve(sc)))
    return [float(np.median(times)) for times in samples]


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_09_protocol_defaults(capsys):
    counts_ok = all(default_constraint_count(c) == 40 * c * (c - 1) for c in (2, 3, 7, 10))
    k_ok = DEFAULT_K == 5
    grid_ok = CvPolicy().coarse_grid == (0.1, 0.3, 0.5, 0.7, 0.9) == DEFAULT_COARSE_GRID

    cli_ok = True
    for name in ("learn", "eval", "benchmark"):
        params = {p.name: p.default for p in main.commands[name].params}
        cli_ok = cli_ok and params.get("k", 5) == 5
        if "coarse_grid" in params:
            cli_ok = cli_ok and params["coarse_grid"] == "0.1,0.3,0.5,0.7,0.9"

    ok = counts_ok and k_ok and grid_ok and cli_ok
    announce(capsys, 9, ok,
             f"constraint count 40c(c-1): {counts_ok}, k=5: {k_ok}, "
             f"coarse grid: {grid_ok}, cli defaults: {cli_ok}")
    assert ok


def test_criterion_10_benchmark_determinism(capsys, tmp_path):
    csv = tmp_path / "blobs.csv"
    write_csv(csv, make_blobs(np.random.default_rng(10), n_per_class=20))
    runner = CliRunner()

    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        result = runner.invoke(main, ["benchmark", str(csv), "--runs", "3",
                                      "--t", "cv", "--seed", "123",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        doc = {key: val for key, val in doc.items() if key not in TIMING_FIELDS}
        doc["records"] = [
            {key: val for key, val in rec.items() if key not in TIMING_FIELDS}
            for rec in doc["records"]
        ]
        reports.append(doc)

    ok = reports[0] == reports[1]
    announce(capsys, 10, ok, "two seeded benchmark runs produced identical reports")
    assert ok
