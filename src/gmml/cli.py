"""Command-line entry point: learn, eval, and benchmark subcommands.

Exit codes: 0 on success, 2 for argument errors (click's usage code),
3 for data errors (unreadable/malformed files, dimension mismatches),
4 for numerical errors (singular scatter, indefinite matrices).

Every subcommand echoes its resolved configuration, including the derived
constraint count, before doing any work. Config echoes and write notices
go to stderr so stdout stays clean for results (tables, JSON, summaries).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import replace

import click
import numpy as np

from . import io as gio
from .evaluation import (
    DEFAULT_COARSE_GRID,
    DEFAULT_K,
    CvPolicy,
    EvalReport,
    RunRecord,
    SplitPlan,
    _standardizer,
    cross_validate_t,
    default_constraint_count,
    evaluate_split,
    run_benchmark,
    sample_constraints,
)
from .exceptions import (
    ConvergenceError,
    DataError,
    DimensionMismatch,
    NotPositiveDefinite,
    SingularScatter,
)
from .learn import GmmlConfig, scatter_matrices, solve

EXIT_ARGUMENT = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _guard(fn):
    """Map package exceptions to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SingularScatter as exc:
            click.echo(f"error: {exc} (hint: increase --lambda)", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (NotPositiveDefinite, ConvergenceError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (DataError, DimensionMismatch, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_ARGUMENT)

    return wrapper


def _parse_t(ctx, param, value):
    if value == "cv":
        return value
    try:
        t = float(value)
    except ValueError:
        raise click.BadParameter("must be a number in [0, 1] or 'cv'") from None
    if not 0.0 <= t <= 1.0:
        raise click.BadParameter(f"must lie in [0, 1], got {t}")
    return t

def _parse_grid(ctx, param, value):
    try:
        grid = tuple(float(tok) for tok in value.split(",") if tok.strip())
    except ValueError:
        raise click.BadParameter("must be comma-separated numbers") from None
    if not grid:
        raise click.BadParameter("must name at least one t value")
    if any(not 0.0 < t < 1.0 for t in grid):
        raise click.BadParameter("every t must lie strictly in (0, 1)")
    return grid

def _positive(ctx, param, value):
    if value is not None and value < 1:
        raise click.BadParameter("must be at least 1")
    return value


def _data_options(fn):
    fn = click.option(
        "--label-column", type=int, default=-1, show_default=True,
        help="Index of the label column; negative counts from the end.",
    )(fn)
    fn = click.option(
        "--standardize", is_flag=True,
        help="Z-score features using statistics from the training part only.",
    )(fn)
    fn = click.option(
        "--seed", type=int, default=0, show_default=True, envvar="GMML_SEED",
        help="Base RNG seed (env: GMML_SEED).",
    )(fn)
    return fn

def _config_options(fn):
    fn = click.option(
        "--t", "t_value", default="0.5", show_default=True, callback=_parse_t,
        help="Geodesic weight in [0, 1], or 'cv' to cross-validate it.",
    )(fn)
    fn = click.option(
        "--lambda", "lam", type=float, default=0.0, show_default=True,
        help="Regularization strength blending the prior into both scatters.",
    )(fn)
    fn = click.option(
        "--prior", default="identity", show_default=True,
        help="Prior matrix: 'identity' or the path of a saved metric file.",
    )(fn)
    fn = click.option(
        "--count", type=int, default=None, callback=_positive,
        help="Constraint pairs to sample [default: 40c(c-1)].",
    )(fn)
    return fn

def _cv_options(fn):
    fn = click.option(
        "--cv-folds", type=int, default=5, show_default=True,
        help="Folds for cross-validating t.",
    )(fn)
    fn = click.option(
        "--coarse-grid", default="0.1,0.3,0.5,0.7,0.9", show_default=True,
        callback=_parse_grid, help="Comma-separated coarse t candidates.",
    )(fn)
    fn = click.option(
        "--fine-count", type=int, default=12, show_default=True, callback=_positive,
        help="Number of fine-stage t candidates around the coarse winner.",
    )(fn)
    fn = click.option(
        "--fine-spacing", type=float, default=0.02, show_default=True,
        help="Spacing between fine-stage t candidates.",
    )(fn)
    return fn


def _load_prior(prior: str) -> np.ndarray | None:
    if prior == "identity":
        return None
    return gio.load_metric(prior).matrix


def _policy(coarse_grid, fine_count, fine_spacing, cv_folds) -> CvPolicy:
    return CvPolicy(
        coarse_grid=coarse_grid,
        fine_count=fine_count,
        fine_spacing=fine_spacing,
        cv_folds=cv_folds,
    )


def _echo_dataset(data, fingerprint) -> None:
    click.echo(
        f"config: dataset={data.name} n={data.n_points} d={data.n_features} "
        f"c={data.num_classes} fingerprint={fingerprint.content_hash}",
        err=True,
    )


def _require_classes(data) -> None:
    if data.num_classes < 2:
        raise DataError(
            f"dataset {data.name!r} has {data.num_classes} class; "
            "metric learning needs at least 2"
        )


@click.group()
@click.version_option(package_name="gmml", prog_name="gmml")
def main():
    """Mahalanobis metric learning via geodesics of SPD scatter matrices."""


@main.command("learn")
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@_data_options
@_config_options
@_cv_options
@click.option("--k", type=int, default=DEFAULT_K, show_default=True, callback=_positive,
              help="Neighbors used when --t cv scores candidates.")
@click.option("--out", type=click.Path(dir_okay=False), default="metric.gmml",
              show_default=True, help="Where to write the learned metric.")
@_guard
def cmd_learn(dataset, label_column, standardize, seed, t_value, lam, prior,
              count, cv_folds, coarse_grid, fine_count, fine_spacing, k, out):
    """Learn a metric from one dataset and save it."""
    prior_matrix = _load_prior(prior)
    cfg = GmmlConfig(
        t=t_value if t_value != "cv" else 0.5, lam=lam, prior=prior_matrix
    )
    policy = _policy(coarse_grid, fine_count, fine_spacing, cv_folds)

    total_start = time.perf_counter()
    data = gio.load_dataset(dataset, label_column=label_column)
    _require_classes(data)
    if standardize:
        data = replace(data, points=_standardizer(data.points)(data.points))
    fingerprint = gio.fingerprint_dataset(data)
    resolved_count = count if count is not None else default_constraint_count(data.num_classes)

    _echo_dataset(data, fingerprint)
    click.echo(
        f"config: t={t_value} lambda={lam} prior={prior} constraints={resolved_count} "
        f"k={k} seed={seed} standardize={standardize}",
        err=True,
    )

    if t_value == "cv":
        cv = cross_validate_t(data, policy, cfg, k, seed, constraint_count=resolved_count)
        cfg = replace(cfg, t=cv.chosen_t)
        click.echo(f"cross-validation chose t={cv.chosen_t:.4g}")

    learn_start = time.perf_counter()
    pairs = sample_constraints(data, resolved_count, seed)
    sc = scatter_matrices(data, pairs)
    metric = solve(sc, cfg, fingerprint=fingerprint.compact())
    learn_time = time.perf_counter() - learn_start

    gio.save_metric(metric, out)
    total_time = time.perf_counter() - total_start
    click.echo(
        f"learned metric: dim={metric.dim} t={cfg.t:.4g} "
        f"sim_pairs={sc.sim_count} dis_pairs={sc.dis_count} "
        f"riccati_residual={metric.provenance.riccati_residual:.3e}"
    )
    click.echo(f"timings: learn={learn_time:.4f}s total={total_time:.4f}s")
    click.echo(f"wrote metric to {out}", err=True)


def _holdout_split(data, fraction, seed):
    """Stratified train/test split holding out ``fraction`` of each class."""
    rng = np.random.default_rng(seed)
    test_parts = []
    for cls in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == cls)
        rng.shuffle(idx)
        n_test = min(max(1, round(fraction * idx.size)), idx.size - 1)
        test_parts.append(idx[:n_test])
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.setdiff1d(np.arange(data.n_points), test_idx, assume_unique=True)
    return data.subset(train_idx), data.subset(test_idx)


@main.command("eval")
@click.option("--train", "train_path", type=click.Path(exists=True, dir_okay=False),
              help="Training dataset (requires --test).")
@click.option("--test", "test_path", type=click.Path(exists=True, dir_okay=False),
              help="Held-out dataset (requires --train).")
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False),
              help="Single dataset to split with --holdout.")
@click.option("--holdout", type=float, default=0.3, show_default=True,
              help="Held-out fraction when --data is given.")
@click.option("--metric", "metric_path", default=None,
              help="Evaluate a fixed metric: a saved metric file or 'identity' "
                   "for the Euclidean baseline. Omit to learn from --train.")
@_data_options
@_config_options
@_cv_options
@click.option("--k", type=int, default=DEFAULT_K, show_default=True, callback=_positive,
              help="Neighbors for classification.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Optional report path.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="json",
              show_default=True, help="Format for --out.")
@_guard
def cmd_eval(train_path, test_path, data_path, holdout, metric_path, label_column,
             standardize, seed, t_value, lam, prior, count, cv_folds, coarse_grid,
             fine_count, fine_spacing, k, out, fmt):
    """Evaluate k-NN error on one train/test split."""
    if (train_path is None) != (test_path is None):
        raise click.UsageError("--train and --test must be given together")
    if (train_path is None) == (data_path is None):
        raise click.UsageError("give either --train/--test or --data")
    if data_path is not None and not 0.0 < holdout < 1.0:
        raise click.UsageError("--holdout must lie strictly in (0, 1)")

    cfg = GmmlConfig(
        t=t_value if t_value != "cv" else 0.5, lam=lam, prior=_load_prior(prior)
    )
    policy = _policy(coarse_grid, fine_count, fine_spacing, cv_folds)

    total_start = time.perf_counter()
    if data_path is not None:
        full = gio.load_dataset(data_path, label_column=label_column)
        train, test = _holdout_split(full, holdout, seed)
        source = full
    else:
        train = gio.load_dataset(train_path, label_column=label_column)
        test = gio.load_dataset(test_path, label_column=label_column)
        if train.n_features != test.n_features:
            raise DimensionMismatch(
                f"train has {train.n_features} features, test has {test.n_features}"
            )
        source = train
    fingerprint = gio.fingerprint_dataset(source)

    metric = None
    if metric_path == "identity":
        metric = np.eye(train.n_features)
    elif metric_path is not None:
        loaded = gio.load_metric(metric_path)
        if loaded.dim != train.n_features:
            raise DimensionMismatch(
                f"metric is {loaded.dim}-dimensional but data has "
                f"{train.n_features} features"
            )
        metric = loaded.matrix
    if metric is None:
        _require_classes(train)

    resolved_count = count if count is not None else default_constraint_count(
        max(train.num_classes, 2)
    )
    _echo_dataset(source, fingerprint)
    click.echo(
        f"config: metric={metric_path or 'learned'} t={t_value} lambda={lam} "
        f"prior={prior} constraints={resolved_count} k={k} seed={seed} "
        f"standardize={standardize} train_n={train.n_points} test_n={test.n_points}",
        err=True,
    )

    chosen_t = None
    if metric is None and t_value == "cv":
        cv = cross_validate_t(
            train, policy, cfg, k, seed, constraint_count=resolved_count,
            standardize=standardize,
        )
        cfg = replace(cfg, t=cv.chosen_t)
        chosen_t = cv.chosen_t
        click.echo(f"cross-validation chose t={cv.chosen_t:.4g}")
    elif metric is None:
        chosen_t = cfg.t

    outcome = evaluate_split(
        train, test, cfg, k, resolved_count, seed,
        metric=metric, standardize=standardize,
    )
    total_time = time.perf_counter() - total_start

    if metric_path is not None:
        t_mode = metric_path if metric_path == "identity" else "file"
    else:
        t_mode = "cv" if t_value == "cv" else f"{cfg.t}"
    record = RunRecord(
        run=0, fold=0, error_rate=outcome.error_rate, chosen_t=chosen_t,
        learn_time=outcome.learn_time, total_time=total_time,
        n_train=train.n_points, n_test=test.n_points,
    )
    report = EvalReport(
        dataset_name=source.name,
        fingerprint=fingerprint.compact(),
        seed=seed,
        k=k,
        t_mode=t_mode,
        lam=lam,
        constraint_count=resolved_count,
        n_runs=1,
        n_folds=1,
        baseline=metric_path == "identity",
        standardize=standardize,
        records=(record,),
        mean_error=outcome.error_rate,
        std_error=0.0,
        mean_learn_time=outcome.learn_time,
        mean_total_time=total_time,
        label_names=tuple(source.label_names) if source.label_names else None,
    )

    click.echo(
        f"error rate: {outcome.error_rate:.4f} "
        f"({round(outcome.error_rate * outcome.n_test)}/{outcome.n_test} misclassified)"
    )
    click.echo(
        f"timings: learn={outcome.learn_time:.4f}s "
        f"classify={outcome.classify_time:.4f}s total={total_time:.4f}s"
    )
    if out is not None:
        gio.write_report(report, out, fmt=fmt)
        click.echo(f"wrote report to {out}", err=True)


@main.command("benchmark")
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--runs", type=int, default=40, show_default=True, callback=_positive,
              help="Number of independent split runs.")
@click.option("--folds", type=int, default=2, show_default=True,
              help="Folds per run; every fold is held out once.")
@click.option("--baseline", is_flag=True,
              help="Skip learning and use the identity metric (Euclidean k-NN).")
@click.option("--jobs", type=int, default=1, show_default=True, callback=_positive,
              help="Worker threads for independent run/fold units.")
@_data_options
@_config_options
@_cv_options
@click.option("--k", type=int, default=DEFAULT_K, show_default=True, callback=_positive,
              help="Neighbors for classification.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Optional machine-readable report path (JSON).")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table",
              show_default=True, help="Stdout rendering of the report.")
@_guard
def cmd_benchmark(dataset, runs, folds, baseline, jobs, label_column, standardize,
                  seed, t_value, lam, prior, count, cv_folds, coarse_grid,
                  fine_count, fine_spacing, k, out, fmt):
    """Repeated-split benchmark with optional CV over t."""
    cfg = GmmlConfig(
        t=t_value if t_value != "cv" else 0.5, lam=lam, prior=_load_prior(prior)
    )
    plan = SplitPlan(n_runs=runs, n_folds=folds, rng_seed=seed)
    policy = (
        _policy(coarse_grid, fine_count, fine_spacing, cv_folds)
        if t_value == "cv" and not baseline
        else None
    )

    data = gio.load_dataset(dataset, label_column=label_column)
    if not baseline:
        _require_classes(data)
    fingerprint = gio.fingerprint_dataset(data)
    resolved_count = count if count is not None else default_constraint_count(
        max(data.num_classes, 2)
    )

    _echo_dataset(data, fingerprint)
    click.echo(
        f"config: runs={runs} folds={folds} k={k} t={t_value} lambda={lam} "
        f"prior={prior} constraints={resolved_count} baseline={baseline} "
        f"cv_folds={cv_folds} coarse_grid={','.join(str(g) for g in coarse_grid)} "
        f"fine_count={fine_count} fine_spacing={fine_spacing} "
        f"seed={seed} standardize={standardize} jobs={jobs}",
        err=True,
    )

    report = run_benchmark(
        data, plan, policy, cfg, k=k, constraint_count=resolved_count,
        baseline=baseline, standardize=standardize, n_jobs=jobs,
        fingerprint=fingerprint.compact(),
    )

    if fmt == "json":
        click.echo(json.dumps(gio.report_to_dict(report), indent=2))
    else:
        click.echo(gio.format_report_table(report))

    for rec in report.records:
        if rec.failure is not None:
            click.echo(f"run {rec.run} fold {rec.fold} failed: {rec.failure}", err=True)
    if out is not None:
        gio.write_report(report, out, fmt="json")
        click.echo(f"wrote report to {out}", err=True)
    if report.n_failures == len(report.records):
        click.echo("error: every run failed", err=True)
        sys.exit(EXIT_NUMERICAL)


if __name__ == "__main__":
    main()
