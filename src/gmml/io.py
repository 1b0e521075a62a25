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
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import chain
from math import isfinite
from pathlib import Path

import numpy as np

from .dataset import LabeledDataset
from .evaluation import EvalReport, RunRecord
from .exceptions import (
    CorruptMatrix,
    DataError,
    EmptyFile,
    InconsistentWidth,
    NotPositiveDefinite,
    ParseError,
    VersionMismatch,
)
from .learn import GmmlConfig, LearnedMetric, MetricProvenance, Standardizer

METRIC_MAGIC = "gmml-metric"
# version 2 adds the `mu:` and `sigma:` lines of a standardized metric; a
# metric of raw points is still written as version 1
METRIC_FORMAT_VERSIONS = (1, 2)


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
    return DatasetFingerprint(
        n=data.n_points,
        d=data.n_features,
        c=data.num_classes,
        content_hash=_matrix_hash(data.points, data.labels),
    )


def _matrix_hash(m: np.ndarray, *more: np.ndarray) -> str:
    """64-bit blake2b hex digest of ``m``'s shape, then of the bytes of
    ``m`` and of each array of ``more``, in order."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(m.shape).encode())
    for a in (m, *more):
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def _atomic_write(path, chunks: Iterable[str]) -> None:
    """Write the strings of ``chunks``, in order, to a fresh temporary file
    beside ``path``, then rename it over ``path``. Anything raised while
    ``chunks`` is consumed removes the temporary file and leaves ``path`` as
    it was. The temporary file is made by ``open`` in exclusive mode, so
    the result has the mode ``open(path, "w")`` gives a new file (0o666
    less the umask)."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    handle = open(tmp, "x")
    try:
        with handle:
            handle.writelines(chunks)
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

    A comma-separated file with the label last is read by one call of
    numpy's C parser, which checks every row's width and returns the
    features, with the values ``float()`` gives, and the label tokens
    together; any file that parser refuses is read again token by token,
    so the syntax accepted and the error raised are the same either way.

    Errors, in order of precedence: :class:`EmptyFile` without data rows;
    :class:`ParseError` when the first row has fewer than two columns;
    :class:`InconsistentWidth` at the first row whose width differs from
    the first row's; :class:`ParseError` when ``label_column`` is out of
    range; then :class:`ParseError` at the first row, in file order, with
    an empty label or a non-numeric or non-finite feature (the first bad
    token of that row is named); :class:`DataError` naming the file when
    it has only one data row.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    parsed = _read_well_formed(lines, label_column)
    if parsed is None:
        parsed = _read_token_by_token(path, lines, label_column)
    features, label_tokens = parsed
    if len(label_tokens) < 2:
        raise DataError(f"{path} has 1 data row; a dataset needs at least 2")
    labels, label_names = _encode_labels(label_tokens)
    return LabeledDataset(points=features, labels=labels, label_names=label_names, name=path.stem)


def _read_well_formed(lines: list[str], label_column: int):
    """(features, label tokens) of a comma-separated dataset with the label
    last, read by one call of numpy's C parser; None for any other layout,
    a row whose width differs from the first row's, an empty label, or a
    value numpy refuses or that is not finite. The caller then reads the
    file token by token, which alone picks the error.

    The record layout, w - 1 floats then one object field, makes numpy
    check every row's width against the first row's w and hand back each
    label's raw text, which is stripped here as the token loop strips it.
    numpy reads every number ``float()`` reads, to the same bits, except
    ``1_000`` and non-ASCII digits, which it refuses. Like the token loop,
    which strips every field, it strips U+001F around a number. Without
    rows numpy would warn that the input holds no data, which is its only
    warning here.
    """
    rows = [s for s in map(str.strip, lines) if s]
    if not rows:
        return None
    width = rows[0].count(",") + 1
    if width < 2 or label_column not in (-1, width - 1):
        return None
    # allocated before the parse's record table rather than copied out of
    # it: a copy sat above the table, freed on return, and raised
    # knn-holdout's peak RSS by up to 0.3 MB
    features = np.empty((len(rows), width - 1))
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1,
                           dtype=[("x", float, (width - 1,)), ("y", object)])
    except ValueError:
        return None
    label_tokens = [token.strip() for token in table["y"].tolist()]
    if not all(label_tokens):
        return None
    features[...] = table["x"]
    return (features, label_tokens) if np.isfinite(features).all() else None


def _read_token_by_token(path: Path, lines: list[str], label_column: int):
    """(features, label tokens) of any dataset, converting each token with
    ``float()``; raises the error :func:`load_dataset` documents."""
    width = col = features = comma = None
    label_tokens: list[str] = []
    error = None  # the ParseError of the first row with a bad value
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
        if error is not None or not 0 <= col < width:
            continue
        label = fields.pop(col).strip()
        if not label:
            error = ParseError(f"empty label in column {col}", lineno)
            continue
        values = []
        # float() strips less than str.strip(), which also removes U+001F
        for tok in map(str.strip, fields):
            try:
                value = float(tok)
            except ValueError:
                error = ParseError(f"non-numeric feature value {tok!r}", lineno)
                break
            if not isfinite(value):
                error = ParseError(f"non-finite feature value {tok!r}", lineno)
                break
            values.append(value)
        else:
            features[len(label_tokens)] = values
            label_tokens.append(label)

    if width is None:
        raise EmptyFile(f"{path} contains no data rows")
    if not 0 <= col < width:
        raise ParseError(f"label column {label_column} out of range for {width} columns")
    if error is not None:
        raise error
    return features[: len(label_tokens)], label_tokens


def _encode_labels(tokens: list[str]) -> tuple[np.ndarray, list[str]]:
    distinct = dict.fromkeys(tokens)  # each token once, in first-appearance order
    try:
        codes = {token: int(token) for token in distinct}
    except ValueError:
        codes = {}
    values = sorted(set(codes.values()))
    if codes and values == list(range(len(values))):
        names = [str(v) for v in values]
    else:
        codes = {token: code for code, token in enumerate(distinct)}
        names = list(distinct)
    return np.fromiter(map(codes.__getitem__, tokens), np.int64, len(tokens)), names


def save_metric(metric: LearnedMetric, path) -> None:
    """Write a learned metric as a versioned text document.

    Stores the full matrix row-major at round-trip precision together with
    the solver configuration echo, the self-check residual, pair counts,
    a creation timestamp, and the provenance's dataset fingerprint, if any.
    A metric that carries a standardizer is written as version 2, with its
    ``mu`` and ``sigma`` as ``repr`` floats; any other as version 1.
    The matrix rows are streamed to the file one at a time, and each
    distinct entry of the symmetric matrix is formatted once (see
    :func:`_matrix_rows`); the bytes are those of ``repr`` of every entry.
    While it streams, the writer holds one row's text and the formatted
    tokens still due left of the diagonal, as ASCII bytes: about d²/4
    tokens at the middle row (1.5 MiB at d = 512).
    """
    prov = metric.provenance
    prior = metric.config.prior
    z = metric.standardizer
    header = [
        f"{METRIC_MAGIC} {1 if z is None else 2}",
        f"dim: {metric.dim}",
        f"t: {metric.config.t!r}",
        f"lambda: {metric.config.lam!r}",
        f"prior_hash: {'identity' if prior is None else _matrix_hash(prior)}",
        f"riccati_residual: {prov.riccati_residual!r}",
        f"sim_count: {prov.sim_count}",
        f"dis_count: {prov.dis_count}",
        f"created: {datetime.now(timezone.utc).isoformat()}",
        f"fingerprint: {prov.fingerprint if prov.fingerprint else 'none'}",
        *([] if z is None else [f"{key}: {' '.join(map(repr, values.tolist()))}"
                                for key, values in (("mu", z.mu), ("sigma", z.sigma))]),
        "matrix:",
    ]
    _atomic_write(path, chain((line + "\n" for line in header), _matrix_rows(metric.matrix)))


def _matrix_rows(m: np.ndarray) -> Iterator[str]:
    """The lines of square ``m``, each ``" ".join(map(repr, row)) + "\\n"``.

    Row i takes its entries left of the diagonal from the tokens rows
    0..i-1 made for column i, and formats only ``m[i, i:]``, the only part
    of the row converted to Python floats. Each column keeps its pending
    tokens as ASCII bytes in one ``bytearray``, each token ended by a
    newline, and releases it once its row is written; so the writer holds
    about d²/4 tokens' bytes at its middle row (1.5 MiB at d = 512), d
    bytearrays and one row's text, not d²/4 string objects. An entry whose
    bits differ from its mirror's (for an SPD metric only a ±0.0 pair) is
    formatted on its own.
    """
    d = m.shape[0]
    bits = m.view(np.int64)
    unmirrored: dict[int, list[int]] = {}
    for i, j in np.argwhere(np.tril(bits != bits.T, -1)).tolist():
        unmirrored.setdefault(i, []).append(j)
    columns = [bytearray() for _ in range(d)]
    for i in range(d):
        upper = ("\n".join(map(repr, m[i, i:].tolist())) + "\n").encode()
        line, columns[i] = columns[i], None
        if i in unmirrored:
            tokens = line.split()
            for j in unmirrored[i]:
                tokens[j] = repr(float(m[i, j])).encode()
            line = bytearray(b"\n".join(tokens) + b"\n")
        for column, token in zip(columns[i + 1:], upper.splitlines(True)[1:]):
            column += token
        line += upper
        # every newline but the row's last separates two tokens
        yield line.replace(b"\n", b" ", d - 1).decode()


def load_metric(path) -> LearnedMetric:
    """Read a metric file written by :func:`save_metric`.

    Skips an optional UTF-8 byte-order mark and refuses unknown format
    versions. A version 2 file must hold ``mu`` and ``sigma`` lines of
    ``dim`` finite floats each, sigma positive (CorruptMatrix otherwise),
    and its metric carries them as its standardizer. A matrix entry that
    is not a finite number is a ParseError naming its line and token. The
    stored matrix must be SPD; CorruptMatrix otherwise. Only the prior's
    hash is stored, not the prior, so the returned config carries
    ``prior=None``.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    if not lines:
        raise CorruptMatrix(f"{path} is empty")
    head = lines[0].split()
    if len(head) != 2 or head[0] != METRIC_MAGIC:
        raise ParseError(f"not a metric file: {path}", 1)
    if head[1] not in map(str, METRIC_FORMAT_VERSIONS):
        raise VersionMismatch(
            f"metric format version {head[1]} is not supported "
            f"(this build reads versions {', '.join(map(str, METRIC_FORMAT_VERSIONS))})"
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
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        t = float(fields["t"])
        lam = float(fields["lambda"])
        residual = float(fields["riccati_residual"])
        sim_count = int(fields.get("sim_count", 0))
        dis_count = int(fields.get("dis_count", 0))
        standardizer = None
        if head[1] == "2":
            mu, sigma = (np.array([float(tok) for tok in fields[key].split()])
                         for key in ("mu", "sigma"))
            if not (mu.shape == sigma.shape == (dim,) and np.isfinite(mu).all()
                    and (sigma > 0).all() and (sigma < np.inf).all()):
                raise ValueError(f"mu and sigma need {dim} finite values each, sigma > 0")
            standardizer = Standardizer(mu, sigma)
    except (KeyError, ValueError) as exc:
        raise CorruptMatrix(f"{path} has a malformed header: {exc}") from exc
    fp = fields.get("fingerprint", "none")

    entries = []
    for lineno, line in enumerate(lines[matrix_start:], start=matrix_start + 1):
        if not line.strip():
            continue
        tokens = line.split()
        try:
            row = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ParseError(f"bad matrix entry: {exc}", lineno) from None
        if not all(map(isfinite, row)):
            tok = next(tok for tok, value in zip(tokens, row) if not isfinite(value))
            raise ParseError(f"non-finite matrix entry {tok!r}", lineno)
        entries.append(row)
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
        return LearnedMetric(matrix=np.asarray(entries), config=config, provenance=provenance,
                             standardizer=standardizer)
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
    _atomic_write(path, [format_report(report, fmt), "\n"])


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
