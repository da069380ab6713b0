"""Readers/writers for the pipeline's on-disk stage outputs.

Numeric values are written with repr-level precision so that reloading a
stage output reproduces the in-memory values bit-for-bit (resume mode relies
on this). Each writer fills a temporary file beside its target and then moves
it into place, so a crash mid-write never leaves a torn file at the target.
"""

import contextlib
import csv
import os

import numpy as np

from .bprmf import BprModel
from .errors import DataError
from .outcomes import OutcomeTable
from .propensity import PropensityTable


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    """Write the header and rows to ``<path>.tmp``, then replace ``path`` with it."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_propensities(tables, path):
    _write_csv(path, ["post_id", "scheme", "mu", "theta_hat"], (
        [post_id, table.scheme, "" if table.mu is None else _fmt(table.mu), _fmt(theta)]
        for table in tables
        for post_id, theta in sorted(table.values.items())
    ))


def read_propensities(path, floor: float) -> dict:
    """Reload propensity tables keyed by scheme."""
    by_scheme: dict[str, dict] = {}
    mus: dict[str, float | None] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            scheme = row["scheme"]
            by_scheme.setdefault(scheme, {})[row["post_id"]] = float(row["theta_hat"])
            mus[scheme] = float(row["mu"]) if row["mu"] else None
    return {
        scheme: PropensityTable.from_values(vals, scheme=scheme, mu=mus[scheme], floor=floor)
        for scheme, vals in by_scheme.items()
    }


def write_topic_vectors(vectors: dict, path):
    if not vectors:
        raise DataError("no topic vectors to write")
    k = len(next(iter(vectors.values())))
    _write_csv(path, ["post_id"] + [f"t_{i}" for i in range(k)], (
        [post_id] + [_fmt(v) for v in vectors[post_id]] for post_id in sorted(vectors)
    ))


def write_embeddings(model: BprModel, path):
    dim = model.user_factors.shape[1]
    _write_csv(path, ["user_id"] + [f"x_{i}" for i in range(dim)], (
        [user_id] + [_fmt(v) for v in row]
        for user_id, row in zip(model.user_ids, model.user_factors)
    ))


def read_vectors(path) -> dict:
    """Reload an id-keyed vector table (topic vectors or embeddings)."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            out[row[0]] = np.array([float(v) for v in row[1:]], dtype=np.float64)
    return out


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
