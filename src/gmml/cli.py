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
import sys
import time
from dataclasses import replace

import click
import numpy as np

from . import __version__
from . import io as gio
from .evaluation import (
    DEFAULT_COARSE_GRID,
    DEFAULT_K,
    CvPolicy,
    SplitPlan,
    _build_report,
    _pair_count,
    _require_classes,
    _run_unit,
    fit_metric,
    holdout_split,
    run_benchmark,
)
from .exceptions import (
    ConvergenceError,
    DataError,
    DimensionMismatch,
    NotPositiveDefinite,
    SingularScatter,
)
from .learn import GmmlConfig

EXIT_ARGUMENT = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to sys.stdout, or to sys.stderr with ``err``, passed
    as the file. Left to look the stream up itself, click 8.4 caches it in
    a map whose entries keep their stream alive, so every redirected
    stdout or stderr would outlive the call."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _guard(fn):
    """Map package exceptions to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SingularScatter as exc:
            _echo(f"error: {exc} (hint: increase --lambda)", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (NotPositiveDefinite, ConvergenceError) as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (DataError, DimensionMismatch, OSError) as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except ValueError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(EXIT_ARGUMENT)

    return wrapper


def _parse_t(ctx, param, value):
    if value == "cv":
        return value
    try:
        return float(value)
    except ValueError:
        raise click.BadParameter("must be a number in [0, 1] or 'cv'") from None

def _parse_grid(ctx, param, value):
    try:
        return tuple(float(tok) for tok in value.split(",") if tok.strip())
    except ValueError:
        raise click.BadParameter("must be comma-separated numbers") from None


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
        "--seed", type=click.IntRange(min=0), default=0, show_default=True, envvar="GMML_SEED",
        help="Base RNG seed (env: GMML_SEED).",
    )(fn)
    return fn

def _config_options(fn):
    fn = click.option(
        "--t", "t_value", default=str(GmmlConfig.t), show_default=True, callback=_parse_t,
        help="Geodesic weight in [0, 1], or 'cv' to cross-validate it.",
    )(fn)
    fn = click.option(
        "--lambda", "lam", type=float, default=GmmlConfig.lam, show_default=True,
        help="Regularization strength blending the prior into both scatters.",
    )(fn)
    fn = click.option(
        "--prior", default="identity", show_default=True,
        help="Prior matrix: 'identity' or the path of a saved metric file.",
    )(fn)
    fn = click.option(
        "--count", type=click.IntRange(min=1), default=None,
        help="Constraint pairs to sample [default: 40c(c-1)].",
    )(fn)
    return fn

def _cv_options(fn):
    fn = click.option(
        "--cv-folds", type=int, default=CvPolicy.cv_folds, show_default=True,
        help="Folds for cross-validating t.",
    )(fn)
    fn = click.option(
        "--coarse-grid", default=",".join(map(str, DEFAULT_COARSE_GRID)), show_default=True,
        callback=_parse_grid, help="Comma-separated coarse t candidates.",
    )(fn)
    fn = click.option(
        "--fine-count", type=int, default=CvPolicy.fine_count, show_default=True,
        help="Number of fine-stage t candidates around the coarse winner.",
    )(fn)
    fn = click.option(
        "--fine-spacing", type=float, default=CvPolicy.fine_spacing, show_default=True,
        help="Spacing between fine-stage t candidates.",
    )(fn)
    return fn


def _resolve(t_value, lam, prior, standardize, cv_folds, coarse_grid, fine_count, fine_spacing):
    """The solver config and the CV policy (None unless --t cv) from the
    shared options; the CV options are validated even without --t cv. A
    prior file learned with --standardize is in z-scored coordinates, so a
    run without --standardize refuses it (ValueError)."""
    t = GmmlConfig.t if t_value == "cv" else t_value
    prior_matrix = None
    if prior != "identity":
        saved = gio.load_metric(prior)
        if saved.standardizer is not None and not standardize:
            raise ValueError(f"prior {prior} was learned with --standardize; "
                             "add --standardize to use it")
        prior_matrix = saved.matrix
    cfg = GmmlConfig(t=t, lam=lam, prior=prior_matrix)
    policy = CvPolicy(coarse_grid, fine_count, fine_spacing, cv_folds)
    return cfg, policy if t_value == "cv" else None


def _match_labels(test, train_names):
    """``test`` with its labels recoded to the class codes of ``train_names``,
    matched by token; a label missing there gets a new code after them."""
    names = list(train_names) + [n for n in test.label_names if n not in train_names]
    codes = np.asarray([names.index(n) for n in test.label_names])
    return replace(test, labels=codes[test.labels], label_names=names)


def _echo_dataset(data, fingerprint) -> None:
    _echo(
        f"config: dataset={data.name} n={data.n_points} d={data.n_features} "
        f"c={data.num_classes} fingerprint={fingerprint.content_hash}",
        err=True,
    )


@click.group()
@click.version_option(__version__, prog_name="gmml")
def main():
    """Mahalanobis metric learning via geodesics of SPD scatter matrices."""


@main.command("learn")
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@_data_options
@_config_options
@_cv_options
@click.option("--k", type=click.IntRange(min=1), default=DEFAULT_K, show_default=True,
              help="Neighbors used when --t cv scores candidates.")
@click.option("--out", type=click.Path(dir_okay=False), default="metric.gmml",
              show_default=True, help="Where to write the learned metric.")
@_guard
def cmd_learn(dataset, label_column, standardize, seed, t_value, lam, prior,
              count, cv_folds, coarse_grid, fine_count, fine_spacing, k, out):
    """Learn a metric from one dataset and save it."""
    cfg, policy = _resolve(t_value, lam, prior, standardize, cv_folds, coarse_grid,
                           fine_count, fine_spacing)

    total_start = time.perf_counter()
    data = gio.load_dataset(dataset, label_column=label_column)
    fingerprint = gio.fingerprint_dataset(data)
    resolved_count = _pair_count(count, data)

    _echo_dataset(data, fingerprint)
    _echo(
        f"config: t={t_value} lambda={lam} prior={prior} constraints={resolved_count} "
        f"k={k} seed={seed} standardize={standardize}",
        err=True,
    )
    _require_classes(data)

    learn_start = time.perf_counter()
    metric, cv = fit_metric(data, cfg, policy, k, resolved_count, seed,
                            standardize=standardize, fingerprint=fingerprint.compact())
    learn_time = time.perf_counter() - learn_start
    if cv is not None:
        _echo(f"cross-validation chose t={cv.chosen_t:.4g}")

    gio.save_metric(metric, out)
    total_time = time.perf_counter() - total_start
    _echo(
        f"learned metric: dim={metric.dim} t={metric.config.t:.4g} "
        f"sim_pairs={metric.provenance.sim_count} dis_pairs={metric.provenance.dis_count} "
        f"riccati_residual={metric.provenance.riccati_residual:.3e}"
    )
    _echo(f"timings: learn={learn_time:.4f}s total={total_time:.4f}s")
    _echo(f"wrote metric to {out}", err=True)


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
@click.option("--k", type=click.IntRange(min=1), default=DEFAULT_K, show_default=True,
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

    cfg, policy = _resolve(t_value, lam, prior, standardize, cv_folds, coarse_grid,
                           fine_count, fine_spacing)

    total_start = time.perf_counter()
    if data_path is not None:
        full = gio.load_dataset(data_path, label_column=label_column)
        train, test = holdout_split(full, holdout, seed)
        source = full
    else:
        train = gio.load_dataset(train_path, label_column=label_column)
        test = gio.load_dataset(test_path, label_column=label_column)
        if train.n_features != test.n_features:
            raise DimensionMismatch(
                f"train has {train.n_features} features, test has {test.n_features}"
            )
        test = _match_labels(test, train.label_names)
        source = train
    fingerprint = gio.fingerprint_dataset(source)

    metric = None
    if metric_path == "identity":
        metric = np.eye(train.n_features)
    elif metric_path is not None:
        metric = gio.load_metric(metric_path)
        if standardize and metric.standardizer is not None:
            raise ValueError(f"{metric_path} already carries its standardization; "
                             "drop --standardize")

    resolved_count = _pair_count(count, train)
    _echo_dataset(source, fingerprint)
    _echo(
        f"config: metric={metric_path or 'learned'} t={t_value} lambda={lam} "
        f"prior={prior} constraints={resolved_count} k={k} seed={seed} "
        f"standardize={standardize} train_n={train.n_points} test_n={test.n_points}",
        err=True,
    )
    if metric is None:
        _require_classes(train)

    record, classify_time = _run_unit(
        train, test, policy, cfg, k, resolved_count, seed, seed,
        metric=metric, standardize=standardize, start=total_start,
    )
    if metric is None and policy is not None:
        _echo(f"cross-validation chose t={record.chosen_t:.4g}")

    report = _build_report(
        source, [record], metric, policy, cfg, fingerprint=fingerprint.compact(),
        seed=seed, k=k, constraint_count=resolved_count, n_runs=1, n_folds=1,
        standardize=standardize,
    )

    _echo(
        f"error rate: {record.error_rate:.4f} "
        f"({round(record.error_rate * record.n_test)}/{record.n_test} misclassified)"
    )
    _echo(
        f"timings: learn={record.learn_time:.4f}s "
        f"classify={classify_time:.4f}s total={record.total_time:.4f}s"
    )
    if out is not None:
        gio.write_report(report, out, fmt=fmt)
        _echo(f"wrote report to {out}", err=True)


@main.command("benchmark")
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--runs", type=int, default=SplitPlan.n_runs, show_default=True,
              help="Number of independent split runs.")
@click.option("--folds", type=int, default=SplitPlan.n_folds, show_default=True,
              help="Folds per run; every fold is held out once.")
@click.option("--baseline", is_flag=True,
              help="Skip learning and use the identity metric (Euclidean k-NN).")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker threads for independent run/fold units.")
@_data_options
@_config_options
@_cv_options
@click.option("--k", type=click.IntRange(min=1), default=DEFAULT_K, show_default=True,
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
    cfg, policy = _resolve(t_value, lam, prior, standardize, cv_folds, coarse_grid,
                           fine_count, fine_spacing)
    plan = SplitPlan(n_runs=runs, n_folds=folds, rng_seed=seed)

    data = gio.load_dataset(dataset, label_column=label_column)
    fingerprint = gio.fingerprint_dataset(data)
    resolved_count = _pair_count(count, data)

    _echo_dataset(data, fingerprint)
    _echo(
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

    _echo(gio.format_report(report, fmt))

    for rec in report.records:
        if rec.failure is not None:
            _echo(f"run {rec.run} fold {rec.fold} failed: {rec.failure}", err=True)
    if out is not None:
        gio.write_report(report, out, fmt="json")
        _echo(f"wrote report to {out}", err=True)
    if report.n_failures == len(report.records):
        _echo("error: every run failed", err=True)
        sys.exit(EXIT_NUMERICAL)


if __name__ == "__main__":
    main()
