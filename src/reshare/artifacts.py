"""Readers/writers for the pipeline's on-disk stage outputs.

Numeric values are written with repr-level precision so that reloading a
stage output reproduces the in-memory values bit-for-bit (resume mode relies
on this). Each writer fills a temporary file beside its target and then moves
it into place, so a crash mid-write never leaves a torn file at the target;
``report.txt`` goes through the same helper.
"""

import contextlib
import csv
import io
import os

import numpy as np

from .bprmf import BprModel
from .dataset import read_rows
from .errors import DataError
from .outcomes import OutcomeTable


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@contextlib.contextmanager
def _replacing(path, newline=None):
    """Open ``<path>.tmp`` for writing, then replace ``path`` with it; on any
    error the temp file goes and ``path`` keeps its previous contents."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_csv(path, header, rows):
    with _replacing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_report(text: str, path):
    with _replacing(path) as fh:
        fh.write(text)


def write_propensities(tables, path):
    _write_csv(path, ["post_id", "scheme", "mu", "theta_hat"], (
        [post_id, table.scheme, "" if table.mu is None else _fmt(table.mu), _fmt(theta)]
        for table in tables
        for post_id, theta in zip(table.post_ids, table.theta)
    ))


def _write_vectors(path, id_column, prefix, ids, vectors):
    """One row per id: the id as the csv writer quotes it, then the row's
    values through one ``%`` of a ``%.17g`` row format (``_fmt``'s bytes)."""
    values = ",".join(["%.17g"] * vectors.shape[1]) + "\r\n"
    cell = io.StringIO()
    quote = csv.writer(cell)
    with _replacing(path, newline="") as fh:
        csv.writer(fh).writerow([id_column] + [f"{prefix}_{i}" for i in range(vectors.shape[1])])
        for row_id, row in zip(ids, vectors):
            cell.seek(0)
            cell.truncate()
            quote.writerow([row_id, ""])  # the id and its comma, as in a longer row
            fh.write(cell.getvalue()[:-2] + values % tuple(row.tolist()))


def write_topic_vectors(post_ids, vectors, path):
    """One row per post id, in the given order, of the (posts, K) ``vectors``."""
    if not len(post_ids):
        raise DataError("no topic vectors to write")
    _write_vectors(path, "post_id", "t", post_ids, vectors)


def write_embeddings(model: BprModel, path):
    _write_vectors(path, "user_id", "x", model.user_ids, model.user_factors)


def read_vectors(path) -> tuple:
    """Reload a vector table (topic vectors or embeddings) as ``(ids, matrix)``
    in file order.

    Rows are read as the input CSVs are, so a missing file, a row whose field
    count is not the header's and a file that is not UTF-8 raise ``DataError``,
    as do a table without rows, a value that is not a number and a repeated
    id, each naming the file and, for a row at fault, its line."""
    seen, values = {}, []  # id -> where, in file order
    for where, row in read_rows(path, (), ()):
        row_id, *fields = row.values()
        first = seen.setdefault(row_id, where)
        if first is not where:
            raise DataError(f"{where}: repeated id {row_id!r}, first at {first}")
        try:
            values.append([float(v) for v in fields])
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from None
    if not values:
        raise DataError(f"{path}: no rows")
    return tuple(seen), np.array(values, dtype=np.float64)


def write_training_curve(curve, path):
    _write_csv(path, ["epoch", "loss"], ([epoch, _fmt(loss)] for epoch, loss in enumerate(curve)))


def write_outcomes(table: OutcomeTable, path):
    _write_csv(path, ["user_id", "y_overall"] + list(table.clusters), (
        [user_id, _fmt(table.overall[i])] + [_fmt(v) for v in table.by_cluster[i]]
        for i, user_id in enumerate(table.user_ids)
    ))


def write_metrics(rows, path):
    """rows: iterable of (model, metric, k, value)."""
    _write_csv(path, ["model", "metric", "k", "value"], (
        [model, metric, k, _fmt(value)] for model, metric, k, value in rows
    ))


def write_importance(table, path):
    _write_csv(path, ["feature", "importance"], (
        [feature, _fmt(importance)] for feature, importance in table.rows
    ))


def write_curve(curve, path):
    _write_csv(path, ["x", "value", "lower", "upper"], (
        [_fmt(x), _fmt(value), _fmt(lower), _fmt(upper)]
        for x, value, lower, upper in curve.rows()
    ))


def write_embedding_analysis(rows, path):
    """Add rows of (dataset_tag, n_clusters, n_noise, silhouette) to the table at ``path``."""
    kept = []
    with contextlib.suppress(FileNotFoundError):
        with open(path, newline="", encoding="utf-8") as fh:
            kept = list(csv.reader(fh))[1:]
    _write_csv(path, ["dataset_tag", "n_clusters", "n_noise", "silhouette"], kept + [
        [tag, n_clusters, n_noise, _fmt(sil)] for tag, n_clusters, n_noise, sil in rows
    ])
