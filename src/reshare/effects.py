"""Explainable additive effect models over user features.

The main fitter is a cyclic, histogram-binned gradient-boosting GAM: per
boosting round every term in turn absorbs a learning-rate-scaled slice of
the current residual into its per-cell values. The bootstrap bags are drawn
once, and one loop boosts every bag and keeps its best out-of-bag round:
first for the 1-D main effects, then, on each bag's main-effect prediction,
for the strongest residual interactions as flattened 2-D grids. Averaging
over the bags yields the shapes and their per-bin uncertainty. An
ordinary-least-squares baseline shares the same model surface so downstream
comparison code does not branch.

All shape functions are exported train-mean-centered: the intercept carries
the average prediction and each curve reads as a deviation from it.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import FEATURE_COLUMNS, UserAttributeTable, index_of, log_transform_attributes
from .errors import ConfigError, DataError, check_fields
from .outcomes import OutcomeTable


@dataclass(frozen=True)
class EbmHyper:
    learning_rate: float = 0.01
    max_bins: int = 512
    min_samples_leaf: int = 3
    max_rounds: int = 5000
    n_interactions: int = 10
    n_bags: int = 8
    early_stop_patience: int = 50
    early_stop_tol: float = 0.0
    pair_bins: int = 16
    detect_bins: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.max_bins < 2:
            raise ConfigError("max_bins must be >= 2")
        if self.n_bags < 1:
            raise ConfigError("n_bags must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if self.n_interactions < 0:
            raise ConfigError("n_interactions must be >= 0")

    @staticmethod
    def from_dict(d: dict) -> "EbmHyper":
        check_fields(EbmHyper, d, "ebm config")
        return EbmHyper(**d)


@dataclass
class FeatureMatrix:
    user_ids: tuple[str, ...]
    columns: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    target: str


def _rows_of(ids, users, missing: str) -> np.ndarray:
    """Row of each of ``users`` in ``ids``; else "user <first absent> has <missing>"."""
    rows, found = index_of(ids, users)
    if not found.all():
        raise DataError(f"user {users[int(np.argmin(found))]!r} has {missing}")
    return rows


def assemble_features(
    attrs: UserAttributeTable,
    embeddings: tuple | None,
    outcomes: OutcomeTable,
    target: str = "overall",
    include_embeddings: bool = True,
) -> FeatureMatrix:
    """Stack the five base attributes (counts log-transformed) and, unless
    ablated, the per-user embedding components; attach the chosen outcome.

    ``embeddings`` is a ``(user_ids, matrix)`` pair with one row per id, in
    any order; rows follow ``outcomes.user_ids``."""
    if target == "overall":
        y = outcomes.overall.copy()
    else:
        if target not in outcomes.clusters:
            raise ValueError(
                f"unknown target cluster {target!r}; have {outcomes.clusters}"
            )
        y = outcomes.by_cluster[:, outcomes.clusters.index(target)].copy()
    view = log_transform_attributes(attrs)
    columns = list(FEATURE_COLUMNS)
    rows = _rows_of(view.user_ids, outcomes.user_ids, "outcomes but no attributes")
    blocks = [view.matrix[rows]]
    if include_embeddings:
        if embeddings is None:
            raise DataError("embeddings required unless include_embeddings=False")
        user_ids, vectors = embeddings
        vectors = np.asarray(vectors, dtype=np.float64)
        blocks.append(vectors[_rows_of(user_ids, outcomes.user_ids, "no embedding")])
        columns.extend(f"x_{i}" for i in range(vectors.shape[1]))
    X = np.hstack(blocks)
    return FeatureMatrix(
        user_ids=tuple(outcomes.user_ids),
        columns=tuple(columns),
        X=X,
        y=y,
        target=target,
    )


@dataclass
class Bins:
    """Piecewise-constant support: interior cuts define n_cuts+1 bins."""

    cuts: np.ndarray
    levels: np.ndarray | None = None  # distinct values, when few enough to keep

    @property
    def n_bins(self) -> int:
        return self.cuts.size + 1

    def assign(self, x) -> np.ndarray:
        return np.searchsorted(self.cuts, np.asarray(x, dtype=np.float64), side="right")


def _build_bins(col: np.ndarray, max_bins: int, min_leaf: int) -> Bins:
    vals = np.unique(col)
    if vals.size <= max_bins:
        cuts = (vals[:-1] + vals[1:]) / 2.0
        levels = vals
    else:
        qs = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
        cuts = np.unique(np.quantile(col, qs))
        levels = None
    if cuts.size == 0:
        return Bins(cuts=cuts, levels=levels)
    # enforce the occupancy minimum in one left-to-right pass: close a bin
    # whenever it has gathered min_leaf rows; a short tail merges leftwards
    counts = np.bincount(np.searchsorted(cuts, col, side="right"), minlength=cuts.size + 1)
    kept = []
    acc = 0
    for k in range(cuts.size):
        acc += int(counts[k])
        if acc >= min_leaf:
            kept.append(cuts[k])
            acc = 0
    if acc + int(counts[cuts.size]) < min_leaf and kept:
        kept.pop()
    new_cuts = np.asarray(kept)
    if levels is not None and new_cuts.size != cuts.size:
        levels = None  # merged levels no longer map one-to-one
    return Bins(cuts=new_cuts, levels=levels)


@dataclass
class FeatureShape:
    bins: Bins
    values: np.ndarray
    stderr: np.ndarray | None = None

    def __call__(self, x) -> np.ndarray:
        return self.values[self.bins.assign(x)]

    def stderr_at(self, x) -> np.ndarray:
        if self.stderr is None:
            return np.zeros(np.asarray(x).shape, dtype=np.float64)
        return self.stderr[self.bins.assign(x)]


@dataclass
class LinearShape:
    slope: float
    center: float

    def __call__(self, x) -> np.ndarray:
        return self.slope * (np.asarray(x, dtype=np.float64) - self.center)

    def stderr_at(self, x) -> np.ndarray:
        return np.zeros(np.asarray(x).shape, dtype=np.float64)


@dataclass
class PairTerm:
    i: int
    j: int
    bins_i: Bins
    bins_j: Bins
    values: np.ndarray  # (n_bins_i, n_bins_j)

    def __call__(self, xi, xj) -> np.ndarray:
        return self.values[self.bins_i.assign(xi), self.bins_j.assign(xj)]


@dataclass
class EffectModel:
    kind: str  # "ebm" | "linear"
    columns: tuple[str, ...]
    intercept: float
    shapes: list
    pair_terms: list = field(default_factory=list)
    train_ranges: list = field(default_factory=list)
    train_levels: list = field(default_factory=list)  # distinct values for discrete columns
    train_rmse_curve: list = field(default_factory=list)
    ridge_fallback: bool = False


def _discrete_levels(X: np.ndarray, max_levels: int = 16) -> list:
    out = []
    for m in range(X.shape[1]):
        vals = np.unique(X[:, m])
        out.append(vals if vals.size <= max_levels else None)
    return out


def _predict_array(model: EffectModel, X: np.ndarray) -> np.ndarray:
    out = np.full(X.shape[0], model.intercept, dtype=np.float64)
    for m, shape in enumerate(model.shapes):
        out += shape(X[:, m])
    for term in model.pair_terms:
        out += term(X[:, term.i], X[:, term.j])
    return out


def predict(model: EffectModel, features: FeatureMatrix) -> np.ndarray:
    if tuple(features.columns) != tuple(model.columns):
        raise ValueError("feature columns do not match the fitted model")
    return _predict_array(model, features.X)


def _train_mean(cells: np.ndarray, values: np.ndarray) -> float:
    """Mean of a binned term over the train rows, whose cells are ``cells``."""
    return float(np.bincount(cells, minlength=values.size) / cells.size @ values)


def _boost_bags(cells, sizes, base, y, bags, hyper: EbmHyper, min_leaf: int, rmse_curve=None):
    """Cyclic boosting of binned terms on each bootstrap bag.

    ``cells[t]`` holds every train row's cell in term ``t`` (a 1-D bin, or a
    flattened 2-D grid cell) out of ``sizes[t]``; each bag is a ``(rows, oob)``
    pair and its terms add to the ``(n,)`` prediction ``base[b]``. Per round
    every term in turn absorbs a learning-rate slice of its cells' mean in-bag
    residual. Returns, per bag, the term values of the round with the lowest
    out-of-bag MSE (in-bag MSE when the bag has no out-of-bag rows).
    ``min_leaf`` gates updates per occupied cell: 1-D bins already guarantee
    occupancy at construction, so mains pass 1; 2-D grids are not merged and
    pass the configured minimum to keep near-empty cells silent. The first
    bag's in-bag RMSE per round is appended to ``rmse_curve`` when given.
    """
    out = []
    for b, (rows, oob) in enumerate(bags):
        residual = (y - base[b])[rows]
        in_cells = [c[rows] for c in cells]
        counts = [np.bincount(c, minlength=s).astype(np.float64) for c, s in zip(in_cells, sizes)]
        divisors = [np.maximum(n, 1) for n in counts]
        updatable = [n >= min_leaf for n in counts]
        oob_cells = [c[oob] for c in cells]
        oob_pred, y_oob = base[b][oob], y[oob]
        values = [np.zeros(s) for s in sizes]
        best = [v.copy() for v in values]
        best_err = np.inf
        stale = 0
        for _ in range(hyper.max_rounds):
            for t, c in enumerate(in_cells):
                sums = np.bincount(c, weights=residual, minlength=sizes[t])
                means = np.where(updatable[t], sums / divisors[t], 0.0)
                upd = hyper.learning_rate * means
                values[t] += upd
                residual -= upd[c]
                oob_pred += upd[oob_cells[t]]
            if rmse_curve is not None and b == 0:
                rmse_curve.append(float(np.sqrt(np.mean(residual**2))))
            err = (
                float(np.mean((y_oob - oob_pred) ** 2))
                if oob.size
                else float(np.mean(residual**2))
            )
            if err < best_err - hyper.early_stop_tol:
                best_err = err
                best = [v.copy() for v in values]
                stale = 0
            else:
                stale += 1
                if stale >= hyper.early_stop_patience:
                    break
        out.append(best)
    return out


def fit_ebm(features: FeatureMatrix, hyper: EbmHyper) -> EffectModel:
    """Bagged cyclic gradient-boosting GAM with identity link.

    Every term is centered so its train-set mean is exactly zero, with the
    intercept absorbing the means: main shapes are centered per bag and then
    averaged, pair grids are averaged and then centered.
    """
    X, y = features.X, features.y
    n, p = X.shape
    if n == 0 or p == 0:
        raise DataError("empty feature matrix")
    if n < 2:
        raise DataError("need at least 2 rows to fit")
    train_ranges = [(float(X[:, m].min()), float(X[:, m].max())) for m in range(p)]
    bins = [_build_bins(X[:, m], hyper.max_bins, hyper.min_samples_leaf) for m in range(p)]
    if np.all(y == y[0]):
        warnings.warn("constant target: returning an intercept-only model")
        shapes = [
            FeatureShape(bins=b, values=np.zeros(b.n_bins), stderr=np.zeros(b.n_bins))
            for b in bins
        ]
        return EffectModel(
            kind="ebm",
            columns=features.columns,
            intercept=float(y[0]),
            shapes=shapes,
            train_ranges=train_ranges,
            train_levels=_discrete_levels(X),
        )

    cells = [bins[m].assign(X[:, m]) for m in range(p)]
    bags = []
    for seed in np.random.SeedSequence(hyper.seed).spawn(hyper.n_bags):
        rows = np.random.default_rng(seed).integers(0, n, n)
        bags.append((rows, np.setdiff1d(np.arange(n), np.unique(rows))))
    intercepts = [float(np.mean(y[rows])) for rows, _ in bags]
    train_rmse_curve: list[float] = []
    bag_values = _boost_bags(
        cells,
        [b.n_bins for b in bins],
        [np.full(n, c) for c in intercepts],
        y,
        bags,
        hyper,
        min_leaf=1,
        rmse_curve=train_rmse_curve,
    )
    for b, values in enumerate(bag_values):
        for m in range(p):
            shift = _train_mean(cells[m], values[m])
            values[m] -= shift
            intercepts[b] += shift

    shapes = []
    for m in range(p):
        stack = np.vstack([values[m] for values in bag_values])
        mean_vals = stack.mean(axis=0)
        stderr = stack.std(axis=0, ddof=0) / np.sqrt(hyper.n_bags)
        shapes.append(FeatureShape(bins=bins[m], values=mean_vals, stderr=stderr))
    intercept = float(np.mean(intercepts))

    pair_terms: list[PairTerm] = []
    if hyper.n_interactions > 0 and p >= 2:
        base = []
        for b, values in enumerate(bag_values):
            pred_b = np.full(n, intercepts[b])
            for m in range(p):
                pred_b += values[m][cells[m]]
            base.append(pred_b)
        pair_terms, intercept = _fit_interactions(X, y, cells, shapes, intercept, bags, base, hyper)

    return EffectModel(
        kind="ebm",
        columns=features.columns,
        intercept=intercept,
        shapes=shapes,
        pair_terms=pair_terms,
        train_ranges=train_ranges,
        train_levels=_discrete_levels(X),
        train_rmse_curve=train_rmse_curve,
    )


def _interaction_strength(res: np.ndarray, fi: np.ndarray, fj: np.ndarray, nb: int) -> float:
    flat = fi * nb + fj
    counts = np.bincount(flat, minlength=0).astype(np.float64)
    sums = np.bincount(flat, weights=res)
    nz = counts > 0
    return float(np.sum(sums[nz] ** 2 / counts[nz]) / res.size)


def _fit_interactions(X, y, cells, shapes, intercept, bags, base, hyper: EbmHyper) -> tuple:
    """Rank pairs on the averaged mains' residual, then boost the strongest as
    2-D grids on each bag's own main-effect prediction ``base[b]``.

    Returns the centered pair terms and the intercept with their means added.
    """
    n, p = X.shape
    pred_main = np.full(n, intercept)
    for m in range(p):
        pred_main += shapes[m].values[cells[m]]
    res_full = y - pred_main

    detect = [_build_bins(X[:, m], hyper.detect_bins, hyper.min_samples_leaf) for m in range(p)]
    didx = [detect[m].assign(X[:, m]) for m in range(p)]
    ranked = []
    for i in range(p):
        if detect[i].n_bins < 2:
            continue
        for j in range(i + 1, p):
            if detect[j].n_bins < 2:
                continue
            s = _interaction_strength(res_full, didx[i], didx[j], detect[j].n_bins)
            ranked.append((-s, i, j))
    ranked.sort()
    chosen = [(i, j) for _, i, j in ranked[: hyper.n_interactions]]
    if not chosen:
        return [], intercept

    pair_bins = {}
    for i, j in chosen:
        if i not in pair_bins:
            pair_bins[i] = _build_bins(X[:, i], hyper.pair_bins, hyper.min_samples_leaf)
        if j not in pair_bins:
            pair_bins[j] = _build_bins(X[:, j], hyper.pair_bins, hyper.min_samples_leaf)
    pair_idx = {m: pair_bins[m].assign(X[:, m]) for m in pair_bins}
    flat = [pair_idx[i] * pair_bins[j].n_bins + pair_idx[j] for i, j in chosen]
    sizes = [pair_bins[i].n_bins * pair_bins[j].n_bins for i, j in chosen]
    grids = _boost_bags(flat, sizes, base, y, bags, hyper, min_leaf=hyper.min_samples_leaf)

    terms = []
    for t, (i, j) in enumerate(chosen):
        mean_vals = np.vstack([grid[t] for grid in grids]).mean(axis=0)
        shift = _train_mean(flat[t], mean_vals)
        intercept += shift
        terms.append(
            PairTerm(
                i=i,
                j=j,
                bins_i=pair_bins[i],
                bins_j=pair_bins[j],
                values=(mean_vals - shift).reshape(pair_bins[i].n_bins, pair_bins[j].n_bins),
            )
        )
    return terms, intercept


def fit_linear(features: FeatureMatrix, allow_ridge: bool = True) -> EffectModel:
    """Ordinary least squares with the same centered-shape representation."""
    X, y = features.X, features.y
    n, p = X.shape
    if n == 0 or p == 0:
        raise DataError("empty feature matrix")
    design = np.hstack([np.ones((n, 1)), X])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    ridge_fallback = False
    if rank < p + 1:
        if not allow_ridge:
            raise DataError("design matrix is rank deficient")
        warnings.warn("rank-deficient design; falling back to a small ridge penalty")
        gram = design.T @ design
        alpha = 1e-8 * np.trace(gram) / (p + 1)
        coef = np.linalg.solve(gram + alpha * np.eye(p + 1), design.T @ y)
        ridge_fallback = True
    means = X.mean(axis=0)
    shapes = [LinearShape(slope=float(coef[m + 1]), center=float(means[m])) for m in range(p)]
    intercept = float(coef[0] + np.dot(coef[1:], means))
    return EffectModel(
        kind="linear",
        columns=features.columns,
        intercept=intercept,
        shapes=shapes,
        train_ranges=[(float(X[:, m].min()), float(X[:, m].max())) for m in range(p)],
        train_levels=_discrete_levels(X),
        ridge_fallback=ridge_fallback,
    )


@dataclass
class ImportanceTable:
    rows: tuple  # (feature, importance), sorted descending

    def as_dict(self) -> dict:
        return dict(self.rows)

    def top(self) -> str:
        return self.rows[0][0]


def feature_importance(model: EffectModel, train: FeatureMatrix) -> ImportanceTable:
    """Mean absolute contribution of each term over the training rows."""
    if tuple(train.columns) != tuple(model.columns):
        raise ValueError("feature columns do not match the fitted model")
    rows = []
    for m, name in enumerate(model.columns):
        rows.append((name, float(np.mean(np.abs(model.shapes[m](train.X[:, m]))))))
    for term in model.pair_terms:
        name = f"{model.columns[term.i]} x {model.columns[term.j]}"
        rows.append((name, float(np.mean(np.abs(term(train.X[:, term.i], train.X[:, term.j]))))))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return ImportanceTable(rows=tuple(rows))


@dataclass
class CurveTable:
    feature: str
    x: np.ndarray
    value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def rows(self):
        return list(zip(self.x, self.value, self.lower, self.upper))


def contribution_curve(model: EffectModel, feature: str, grid: int = 64) -> CurveTable:
    """Centered shape curve with +/- 2 bag-standard-error bounds.

    Discrete features (including binary ones) get one row per level;
    continuous features are evaluated on an even grid over the train range.
    """
    if feature not in model.columns:
        raise KeyError(f"unknown feature {feature!r}")
    m = model.columns.index(feature)
    shape = model.shapes[m]
    lo, hi = model.train_ranges[m]
    levels = getattr(getattr(shape, "bins", None), "levels", None)
    if levels is None and model.train_levels:
        levels = model.train_levels[m]
    if levels is not None:
        xs = np.asarray(levels, dtype=np.float64)
    elif hi > lo:
        xs = np.linspace(lo, hi, grid)
    else:
        xs = np.array([lo])
    value = shape(xs)
    half = 2.0 * shape.stderr_at(xs)
    return CurveTable(feature=feature, x=xs, value=value, lower=value - half, upper=value + half)
