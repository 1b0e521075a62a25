"""Dataset ingestion, metric persistence, and report serialization.

Text formats only. Numeric fields are written with full round-trip
precision (``repr`` of the float), so write-then-read reproduces every
value bit-exactly. All writers are atomic: content goes to a temporary
file in the target directory which is then renamed over the destination,
so a crash never leaves a half-written file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from math import isfinite
from pathlib import Path

import numpy as np

from .dataset import LabeledDataset
from .evaluation import EvalReport, RunRecord
from .exceptions import (
    CorruptMatrix,
    EmptyFile,
    InconsistentWidth,
    NotPositiveDefinite,
    ParseError,
    VersionMismatch,
)
from .learn import GmmlConfig, LearnedMetric, MetricProvenance

METRIC_MAGIC = "gmml-metric"
METRIC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class DatasetFingerprint:
    """Shape counts plus a 64-bit content hash of points and labels."""

    n: int
    d: int
    c: int
    content_hash: str

    def compact(self) -> str:
        return f"n={self.n} d={self.d} c={self.c} hash={self.content_hash}"


def fingerprint_dataset(data: LabeledDataset) -> DatasetFingerprint:
    """Stable fingerprint: changes iff points or labels change."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(data.points.shape).encode())
    h.update(np.ascontiguousarray(data.points, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(data.labels, dtype=np.int64).tobytes())
    return DatasetFingerprint(
        n=data.n_points,
        d=data.n_features,
        c=data.num_classes,
        content_hash=h.hexdigest(),
    )


def _matrix_hash(m: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(m.shape).encode())
    h.update(np.ascontiguousarray(m, dtype=np.float64).tobytes())
    return h.hexdigest()


def _atomic_write(path, text: str) -> None:
    """Write ``text`` to a fresh temporary file beside ``path``, then rename
    it over ``path``. The temporary file is made by ``open`` in exclusive
    mode, so the result has the mode ``open(path, "w")`` gives a new file
    (0o666 less the umask)."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    handle = open(tmp, "x")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_dataset(path, label_column: int = -1) -> LabeledDataset:
    """Read a delimited text dataset: one sample per row, one label column.

    The file is UTF-8, optionally starting with a byte-order mark. Blank
    lines are skipped. The delimiter is detected from the first data row
    (comma if present, otherwise any whitespace); fields are stripped of
    surrounding whitespace. ``label_column`` selects the label by index,
    negative indices counting from the end (default: last column).
    Features use Python ``float()`` syntax and must be finite. Integer
    labels that already form a dense range 0..c-1 are kept as-is; any
    other labels (strings, and float-looking tokens such as ``1.0``) are
    mapped to dense codes in first-appearance order, with the original
    tokens recorded in ``label_names``.

    A comma-separated file with the label last is read by numpy's C parser,
    with the values ``float()`` gives; any file that parser refuses is read
    again token by token, so the syntax accepted and the error raised are
    the same either way.

    Errors, in order of precedence: :class:`EmptyFile` without data rows;
    :class:`ParseError` when the first row has fewer than two columns;
    :class:`InconsistentWidth` at the first row whose width differs from
    the first row's; :class:`ParseError` when ``label_column`` is out of
    range; then :class:`ParseError` at the first row, in file order, with
    an empty label or a non-numeric or non-finite feature (the first bad
    token of that row is named).
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    parsed = _read_well_formed(lines, label_column)
    if parsed is None:
        parsed = _read_token_by_token(path, lines, label_column)
    features, label_tokens = parsed
    labels, label_names = _encode_labels(label_tokens)
    return LabeledDataset(points=features, labels=labels, label_names=label_names, name=path.stem)


def _read_well_formed(lines: list[str], label_column: int):
    """(features, label tokens) of a comma-separated dataset with the label
    last, its features read by numpy's C parser; None for any other layout,
    a row whose width differs from the first row's, an empty label, or a
    value numpy refuses or that is not finite. The caller then reads the
    file token by token, which alone picks the error.

    With ``usecols`` numpy checks no row's width, so each row's commas are
    counted first. numpy reads every number ``float()`` reads, to the same
    bits, except ``1_000`` and non-ASCII digits, which it refuses; it also
    strips U+001C..U+001F around a number, which ``float()`` refuses, so
    rows holding U+001F (the others end a line under ``splitlines``) are
    left to the token loop. Without rows numpy would warn that the input
    holds no data, which is its only warning here.
    """
    rows = [s for s in map(str.strip, lines) if s]
    if not rows or any("\x1f" in row for row in rows):
        return None
    width = rows[0].count(",") + 1
    if width < 2 or label_column not in (-1, width - 1):
        return None
    if any(row.count(",") != width - 1 for row in rows):
        return None
    label_tokens = [row.rpartition(",")[2].strip() for row in rows]
    if not all(label_tokens):
        return None
    try:
        features = np.loadtxt(rows, delimiter=",", usecols=list(range(width - 1)),
                              comments=None, ndmin=2)
    except ValueError:
        return None
    return (features, label_tokens) if np.isfinite(features).all() else None


def _read_token_by_token(path: Path, lines: list[str], label_column: int):
    """(features, label tokens) of any dataset, converting each token with
    ``float()``; raises the error :func:`load_dataset` documents."""
    width = col = features = comma = None
    label_tokens: list[str] = []
    bad_row = None  # (lineno, label, feature tokens) of the first row with a bad value
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if comma is None:
            comma = "," in stripped
        fields = stripped.split(",") if comma else stripped.split()
        if width is None:
            width = len(fields)
            if width < 2:
                raise ParseError("need at least one feature column and a label column", lineno)
            col = label_column if label_column >= 0 else width + label_column
            features = np.empty((len(lines) - lineno + 1, width - 1))
        elif len(fields) != width:
            raise InconsistentWidth(f"expected {width} columns, found {len(fields)}", lineno)
        # after a bad value only the widths are still checked, since a
        # later InconsistentWidth takes precedence over it
        if bad_row is not None or not 0 <= col < width:
            continue
        label = fields.pop(col).strip()
        try:
            values = list(map(float, fields))  # float() strips whitespace itself
        except ValueError:
            values = None
        if not label or values is None or not all(map(isfinite, values)):
            bad_row = (lineno, label, fields)
            continue
        features[len(label_tokens)] = values
        label_tokens.append(label)

    if width is None:
        raise EmptyFile(f"{path} contains no data rows")
    if not 0 <= col < width:
        raise ParseError(f"label column {label_column} out of range for {width} columns")
    if bad_row is not None:
        raise _bad_value(col, *bad_row)
    return features[: len(label_tokens)], label_tokens


def _bad_value(col: int, lineno: int, label: str, fields: list[str]) -> ParseError:
    """The error for a row whose label is empty or a feature is not a finite number."""
    if not label:
        return ParseError(f"empty label in column {col}", lineno)
    for tok in fields:
        tok = tok.strip()
        try:
            value = float(tok)
        except ValueError:
            return ParseError(f"non-numeric feature value {tok!r}", lineno)
        if not isfinite(value):
            return ParseError(f"non-finite feature value {tok!r}", lineno)
    raise AssertionError("row has no bad value")


def _encode_labels(tokens: list[str]) -> tuple[np.ndarray, list[str]]:
    try:
        ints = [int(t) for t in tokens]
    except ValueError:
        ints = None
    if ints is not None:
        distinct = sorted(set(ints))
        if distinct == list(range(len(distinct))):
            return np.asarray(ints, dtype=np.int64), [str(v) for v in distinct]
    mapping: dict[str, int] = {}
    for t in tokens:
        if t not in mapping:
            mapping[t] = len(mapping)
    codes = np.asarray([mapping[t] for t in tokens], dtype=np.int64)
    return codes, list(mapping)


def save_metric(metric: LearnedMetric, path) -> None:
    """Write a learned metric as a versioned text document.

    Stores the full matrix row-major at round-trip precision together with
    the solver configuration echo, the self-check residual, pair counts,
    a creation timestamp, and the provenance's dataset fingerprint, if any.
    """
    m = metric.matrix
    prov = metric.provenance
    prior = metric.config.prior
    lines = [
        f"{METRIC_MAGIC} {METRIC_FORMAT_VERSION}",
        f"dim: {metric.dim}",
        f"t: {metric.config.t!r}",
        f"lambda: {metric.config.lam!r}",
        f"prior_hash: {'identity' if prior is None else _matrix_hash(prior)}",
        f"riccati_residual: {prov.riccati_residual!r}",
        f"sim_count: {prov.sim_count}",
        f"dis_count: {prov.dis_count}",
        f"created: {datetime.now(timezone.utc).isoformat()}",
        f"fingerprint: {prov.fingerprint if prov.fingerprint else 'none'}",
        "matrix:",
    ]
    lines.extend(" ".join(map(repr, row)) for row in m.tolist())
    _atomic_write(path, "\n".join(lines) + "\n")


def load_metric(path) -> LearnedMetric:
    """Read a metric file written by :func:`save_metric`.

    Skips an optional UTF-8 byte-order mark and refuses unknown format
    versions. The stored matrix must be SPD; CorruptMatrix otherwise. Only
    the prior's hash is stored, not the prior, so the returned config
    carries ``prior=None``.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    if not lines:
        raise CorruptMatrix(f"{path} is empty")
    head = lines[0].split()
    if len(head) != 2 or head[0] != METRIC_MAGIC:
        raise ParseError(f"not a metric file: {path}", 1)
    if head[1] != str(METRIC_FORMAT_VERSION):
        raise VersionMismatch(
            f"metric format version {head[1]} is not supported "
            f"(this build reads version {METRIC_FORMAT_VERSION})"
        )

    fields: dict[str, str] = {}
    matrix_start = None
    for i, line in enumerate(lines[1:], start=2):
        if line.strip() == "matrix:":
            matrix_start = i
            break
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    if matrix_start is None:
        raise CorruptMatrix(f"{path} has no matrix section")

    try:
        dim = int(fields["dim"])
        t = float(fields["t"])
        lam = float(fields["lambda"])
        residual = float(fields["riccati_residual"])
        sim_count = int(fields.get("sim_count", 0))
        dis_count = int(fields.get("dis_count", 0))
    except (KeyError, ValueError) as exc:
        raise CorruptMatrix(f"{path} has a malformed header: {exc}") from exc
    fp = fields.get("fingerprint", "none")

    entries = []
    for offset, line in enumerate(lines[matrix_start:]):
        if not line.strip():
            continue
        try:
            entries.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(f"bad matrix entry: {exc}", matrix_start + offset + 1) from None
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise CorruptMatrix(
            f"{path} declares dim {dim} but its matrix section is "
            f"{len(entries)} row(s) of lengths {sorted({len(r) for r in entries})}"
        )
    try:
        config = GmmlConfig(t=t, lam=lam, prior=None)
    except ValueError as exc:
        raise CorruptMatrix(f"{path} has an invalid header: {exc}") from exc
    provenance = MetricProvenance(
        sim_count=sim_count,
        dis_count=dis_count,
        riccati_residual=residual,
        fingerprint=None if fp == "none" else fp,
    )
    try:
        # LearnedMetric validates its matrix with check_spd
        return LearnedMetric(matrix=np.asarray(entries), config=config, provenance=provenance)
    except NotPositiveDefinite as exc:
        raise CorruptMatrix(f"{path}: stored matrix fails the SPD check: {exc}") from exc


def _t_distribution(report: EvalReport) -> str:
    ts = report.chosen_ts
    if not ts:
        return "-"
    counts: dict[float, int] = {}
    for t in ts:
        counts[t] = counts.get(t, 0) + 1
    return " ".join(f"{t:.2f}x{c}" for t, c in sorted(counts.items()))


def format_report(report: EvalReport, fmt: str) -> str:
    """The text of one report: ``fmt="table"`` renders a header, a rule and
    the report's row; ``fmt="json"`` gives every report field as a JSON
    document, which :func:`read_report` parses back to an equal report."""
    if fmt == "json":
        return json.dumps(asdict(report), indent=2)
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r}")
    header = f"{'dataset':<20} {'error':<19} {'learn s':<10} {'total s':<10} {'chosen t':<24} failures"
    err = f"{report.mean_error:.4f} +/- {report.std_error:.4f}"
    row = (
        f"{report.dataset_name or '(unnamed)':<20} {err:<19} "
        f"{report.mean_learn_time:<10.4f} {report.mean_total_time:<10.4f} "
        f"{_t_distribution(report):<24} {report.n_failures}/{len(report.records)}"
    )
    return "\n".join((header, "-" * len(header), row))


def write_report(report: EvalReport, path, fmt: str = "table") -> None:
    """Atomically write :func:`format_report` of ``report``, newline-terminated."""
    _atomic_write(path, format_report(report, fmt) + "\n")


def read_report(path) -> EvalReport:
    """Parse a JSON report file written by :func:`write_report` back into an
    EvalReport; ParseError naming the file when the text is not JSON, the
    document not a JSON object, or its fields not a report's."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ParseError(
                f"{path}: a report must be a JSON object, not a {type(doc).__name__}"
            )
        records = tuple(RunRecord(**r) for r in doc.pop("records"))
        label_names = doc.pop("label_names", None)
        return EvalReport(
            records=records, label_names=tuple(label_names) if label_names else None, **doc
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a report ({type(exc).__name__}: {exc})") from exc
