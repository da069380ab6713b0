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

``fit_ebm_stack`` fits one such model per target on one feature matrix: the
bins, cells and bags are built once, and every ``(target, bag)`` pair is one
member of one boosting loop, its residuals end to end with the other
members' in one flat array. A member leaves the loop when it stops early.
Each member equals the boosting of its target on its bag alone, and each
model the fit of its target alone, bit for bit; ``fit_ebm`` is a stack of
one.

All shape functions are exported train-mean-centered: the intercept carries
the average prediction and each curve reads as a deviation from it.
"""

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import (
    FEATURE_COLUMNS,
    FeatureMatrix,
    UserAttributeTable,
    index_of,
    log_transform_attributes,
)
from .errors import ConfigError, DataError
from .outcomes import OutcomeTable


DETECT_BINS, PAIR_BINS = 8, 16  # bins per column to rank pairs, and of a chosen pair's grid
CURVE_GRID = 64  # points of a continuous feature's contribution curve


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
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1")
        if self.early_stop_tol < 0:
            raise ConfigError("early_stop_tol must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def _rows_of(ids, users, missing: str) -> np.ndarray:
    """Row of each of ``users`` in ``ids``; else "user <first absent> has <missing>"."""
    rows, found = index_of(ids, users)
    if not found.all():
        raise DataError(f"user {users[int(np.argmin(found))]!r} has {missing}")
    return rows


def assemble_features(
    attrs: UserAttributeTable, embeddings: tuple | None, outcomes: OutcomeTable
) -> FeatureMatrix:
    """Stack the five base attributes (counts log-transformed) and the
    per-user embedding components, or the attributes only when ``embeddings``
    is None.

    ``embeddings`` is a ``(user_ids, matrix)`` pair with one row per id, in
    any order; rows follow ``outcomes.user_ids``, as do the targets of
    ``outcomes.target``."""
    view = log_transform_attributes(attrs)
    columns = list(FEATURE_COLUMNS)
    rows = _rows_of(view.user_ids, outcomes.user_ids, "outcomes but no attributes")
    blocks = [view.X[rows]]
    if embeddings is not None:
        user_ids, vectors = embeddings
        vectors = np.asarray(vectors, dtype=np.float64)
        blocks.append(vectors[_rows_of(user_ids, outcomes.user_ids, "no embedding")])
        columns.extend(f"x_{i}" for i in range(vectors.shape[1]))
    return FeatureMatrix(
        user_ids=tuple(outcomes.user_ids), columns=tuple(columns), X=np.hstack(blocks)
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
    counts = counts.tolist()  # the loop is faster on Python ints than on numpy scalars
    kept, acc = [], 0  # indices of the cuts that close a bin
    for k in range(cuts.size):
        acc += counts[k]
        if acc >= min_leaf:
            kept.append(k)
            acc = 0
    if acc + counts[cuts.size] < min_leaf and kept:
        kept.pop()
    new_cuts = cuts[kept]
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


def _cell_shares(cells: np.ndarray, size: int) -> np.ndarray:
    """Share of the train rows, whose cells are ``cells``, in each of ``size``
    cells: a binned term's train mean is this dotted with its values."""
    return np.bincount(cells, minlength=size) / cells.size


class _Term(NamedTuple):
    """One term of a stack: the members' in-bag and out-of-bag cells end to
    end, member ``k``'s shifted by ``k * width``, and each cell's divisor and
    update gate."""

    cells: np.ndarray
    oob_cells: np.ndarray
    divisors: np.ndarray
    updatable: np.ndarray


def _term_step(term: _Term, residual: np.ndarray, learning_rate: float) -> np.ndarray:
    """One boosting step of one term for every member of the stack: each cell
    moves by the learning rate times its rows' mean residual, or stays where
    it may not update."""
    sums = np.bincount(term.cells, weights=residual, minlength=term.divisors.size)
    return learning_rate * np.where(term.updatable, sums / term.divisors, 0.0)


def _layout(cells, widths, members, bags, min_leaf: int) -> list:
    """The ``_Term`` of every term for the ``(target, bag)`` pairs ``members``."""
    terms = []
    for cells_t, width in zip(cells, widths):
        shifted = [(cells_t[s], bags[b], k * width) for k, (s, b) in enumerate(members)]
        flat = np.concatenate([c[rows] + o for c, (rows, _), o in shifted])
        flat_oob = np.concatenate([c[oob] + o for c, (_, oob), o in shifted])
        counts = np.bincount(flat, minlength=len(members) * width).astype(np.float64)
        terms.append(_Term(flat, flat_oob, np.maximum(counts, 1), counts >= min_leaf))
    return terms


def _boost_bags(cells, widths, base, ys, bags, hyper: EbmHyper, min_leaf: int, rmse_curves=None):
    """Cyclic boosting of binned terms for a stack of targets on bootstrap bags.

    Every ``(target, bag)`` pair is one member of the stack. Target ``s``'s
    term ``t`` puts every train row in cell ``cells[t][s]`` (a 1-D bin, or a
    flattened 2-D grid cell) out of ``widths[t]``, which is at least as wide
    as every target's own cells. Each bag is a ``(rows, oob)`` pair of ``n``
    drawn rows and the rows never drawn, and member ``(s, b)``'s terms add to
    the prediction ``base[s, b]``. Per round every term in turn absorbs a
    learning-rate slice of its cells' mean in-bag residual (``_term_step``).
    The members' residuals lie end to end in one flat array, and member
    ``k``'s cells are ``k * width + cell``, so one ``bincount`` per term and
    round sums every member's cells in the row order of a stack of one; cells
    past a target's own hold no rows and never update. A member leaves the
    stack when it stops early. Returns, per term, a ``(targets, bags, width)``
    array of each member's values at its round with the lowest out-of-bag MSE
    (in-bag MSE when the bag has no out-of-bag rows).

    ``min_leaf`` gates updates per occupied cell: 1-D bins already guarantee
    occupancy at construction, so mains pass 1; 2-D grids are not merged and
    pass the configured minimum to keep near-empty cells silent. Bag 0's
    in-bag RMSE per round is appended to ``rmse_curves[s]`` when given.
    """
    n = ys.shape[1]
    members = [(s, b) for s in range(len(ys)) for b in range(len(bags))]
    active = list(range(len(members)))  # the members still boosting
    terms = _layout(cells, widths, members, bags, min_leaf)
    residual = np.concatenate([(ys[s] - base[s, b])[bags[b][0]] for s, b in members])
    oob_pred = np.concatenate([base[s, b][bags[b][1]] for s, b in members])
    y_oob = np.concatenate([ys[s][bags[b][1]] for s, b in members])
    oob_sizes = [bags[b][1].size for _, b in members]
    values = [np.zeros((len(members), w)) for w in widths]
    best = [np.zeros((len(members), w)) for w in widths]
    best_err = [np.inf] * len(members)
    stale = [0] * len(members)
    lr = hyper.learning_rate
    for _ in range(hyper.max_rounds):
        for t, term in enumerate(terms):
            upd = _term_step(term, residual, lr)
            values[t] += upd.reshape(values[t].shape)
            residual -= upd[term.cells]
            oob_pred += upd[term.oob_cells]
        squares, end = (y_oob - oob_pred) ** 2, 0
        keep, improved = [], []
        for i, g in enumerate(active):
            (s, b), size = members[g], oob_sizes[g]
            end += size
            curve = rmse_curves is not None and b == 0
            if curve or not size:
                # each slice sums with the bits of the member's own 1-D array
                in_mse = np.add.reduce(residual[i * n : (i + 1) * n] ** 2) / n
                if curve:
                    rmse_curves[s].append(float(np.sqrt(in_mse)))
            e = np.add.reduce(squares[end - size : end]) / size if size else in_mse
            if e < best_err[g] - hyper.early_stop_tol:
                best_err[g] = e
                improved.append(i)
                stale[g] = 0
            else:
                stale[g] += 1
                if stale[g] >= hyper.early_stop_patience:
                    continue
            keep.append(i)
        if improved:
            for v, kept in zip(values, best):
                kept[[active[i] for i in improved]] = v[improved]
        if not keep:
            break
        if len(keep) < len(active):
            residual = residual.reshape(-1, n)[keep].ravel()
            sizes = [oob_sizes[g] for g in active]
            in_oob = np.repeat(np.isin(np.arange(len(active)), keep), sizes)
            oob_pred, y_oob = oob_pred[in_oob], y_oob[in_oob]
            values = [v[keep] for v in values]
            active = [active[i] for i in keep]
            del terms  # before the new layout, so the two are never alive at once
            terms = _layout(cells, widths, [members[g] for g in active], bags, min_leaf)
    return [v.reshape(len(ys), len(bags), -1) for v in best]


def fit_ebm(features: FeatureMatrix, y, hyper: EbmHyper) -> EffectModel:
    """Bagged cyclic gradient-boosting GAM with identity link, on the target
    ``y`` (one value per row): a stack of one (``fit_ebm_stack``)."""
    return fit_ebm_stack(features, [y], hyper)[0]


def fit_ebm_stack(features: FeatureMatrix, ys, hyper: EbmHyper) -> list:
    """One bagged cyclic gradient-boosting GAM (identity link) per target in
    ``ys``, on the shared ``features.X``, in one boosting loop.

    The bins, cells, bags, train ranges and levels are built once for the
    stack, and only the targets differ, so every model equals the fit of a
    stack of one (``fit_ebm``) on its target bit for bit. Every term is
    centered so its train-set mean is exactly zero, with the intercept
    absorbing the means: main shapes are centered per bag and then averaged,
    pair grids are averaged and then centered. A constant target warns and
    gets an intercept-only model.
    """
    X = features.X
    n, p = X.shape
    if n == 0 or p == 0:
        raise DataError("empty feature matrix")
    if n < 2:
        raise DataError("need at least 2 rows to fit")
    if len(ys) == 0:
        raise ValueError("fit_ebm_stack needs at least one target")
    if any(np.shape(y) != (n,) for y in ys):
        raise ValueError(f"every target needs one value per row of X ({n})")
    Y = np.array(ys, dtype=np.float64)
    train_ranges = [(float(X[:, m].min()), float(X[:, m].max())) for m in range(p)]
    train_levels = _discrete_levels(X)
    bins = [_build_bins(X[:, m], hyper.max_bins, hyper.min_samples_leaf) for m in range(p)]

    def model(intercept, shapes, pair_terms=(), rmse_curve=()):
        return EffectModel(
            columns=features.columns,
            intercept=intercept,
            shapes=shapes,
            pair_terms=list(pair_terms),
            train_ranges=list(train_ranges),
            train_levels=list(train_levels),
            train_rmse_curve=list(rmse_curve),
        )

    models = [None] * len(Y)
    for s, y in enumerate(Y):
        if np.all(y == y[0]):
            warnings.warn("constant target: returning an intercept-only model")
            zeros = [
                FeatureShape(bins=b, values=np.zeros(b.n_bins), stderr=np.zeros(b.n_bins))
                for b in bins
            ]
            models[s] = model(float(y[0]), zeros)
    fitted = [s for s, m in enumerate(models) if m is None]
    if not fitted:
        return models
    Y = Y[fitted]

    cells = [bins[m].assign(X[:, m]) for m in range(p)]
    bags = []
    for seed in np.random.SeedSequence(hyper.seed).spawn(hyper.n_bags):
        rows = np.random.default_rng(seed).integers(0, n, n)
        bags.append((rows, np.setdiff1d(np.arange(n), np.unique(rows))))
    intercepts = np.array([[np.mean(y[rows]) for rows, _ in bags] for y in Y])
    curves = [[] for _ in fitted]
    main = _boost_bags(
        [[c] * len(Y) for c in cells],
        [b.n_bins for b in bins],
        np.broadcast_to(intercepts[:, :, None], (*intercepts.shape, n)),
        Y,
        bags,
        hyper,
        min_leaf=1,
        rmse_curves=curves,
    )
    for c, b, values in zip(cells, bins, main):  # center each (target, bag)'s shapes
        share = _cell_shares(c, b.n_bins)
        shift = np.array([[share @ v for v in target] for target in values])
        values -= shift[:, :, None]
        intercepts += shift
    root = np.sqrt(hyper.n_bags)
    shapes = [
        [FeatureShape(b, v[s].mean(axis=0), v[s].std(axis=0) / root) for b, v in zip(bins, main)]
        for s in range(len(Y))
    ]
    intercept = [float(np.mean(row)) for row in intercepts]

    pair_terms = [[] for _ in fitted]
    if hyper.n_interactions > 0 and p >= 2:
        base = np.repeat(intercepts[:, :, None], n, axis=2)
        for c, values in zip(cells, main):
            base += values[:, :, c]
        del main
        pair_terms, intercept = _fit_interactions(X, Y, cells, shapes, intercept, bags, base, hyper)

    for k, s in enumerate(fitted):
        models[s] = model(intercept[k], shapes[k], pair_terms[k], curves[k])
    return models


def _interaction_strengths(res: np.ndarray, fi: np.ndarray, fj: np.ndarray, nb: int) -> np.ndarray:
    """Each member's strength of one pair: the variance its 2-D cell means
    explain of the member's row of ``res``. The cells are counted once, and
    one ``bincount`` sums every member's residuals, member after member."""
    flat = fi * nb + fj
    counts = np.bincount(flat).astype(np.float64)
    members, n = res.shape
    size = counts.size
    if members > 1:  # member s's cells follow the cells of the members before it
        flat = (np.arange(0, members * size, size)[:, None] + flat).ravel()
    sums = np.bincount(flat, weights=res.ravel(), minlength=members * size)
    nz = counts > 0
    # compress keeps the rows contiguous, so each row sums as a 1-D array would
    picked = sums.reshape(members, size).compress(nz, axis=1)
    return np.add.reduce(picked * picked / counts[nz], axis=1) / n


def _fit_interactions(X, Y, cells, shapes, intercepts, bags, base, hyper: EbmHyper) -> tuple:
    """Rank pairs on each target's averaged-mains residual, then boost every
    target's strongest pairs as 2-D grids on each bag's own main-effect
    prediction ``base[s, b]``, every (target, bag) pair one member of one
    stacked loop.

    Returns, per target, the centered pair terms, and the intercepts with
    their means added.
    """
    n, p = X.shape
    pred_main = np.repeat(np.array(intercepts)[:, None], n, axis=1)
    for m in range(p):
        pred_main += np.array([member[m].values for member in shapes])[:, cells[m]]
    res_full = Y - pred_main

    detect = [_build_bins(X[:, m], DETECT_BINS, hyper.min_samples_leaf) for m in range(p)]
    didx = [detect[m].assign(X[:, m]) for m in range(p)]
    pairs = [
        (i, j)
        for i in range(p)
        if detect[i].n_bins >= 2
        for j in range(i + 1, p)
        if detect[j].n_bins >= 2
    ]
    if not pairs:
        return [[] for _ in intercepts], list(intercepts)
    strengths = np.array(
        [_interaction_strengths(res_full, didx[i], didx[j], detect[j].n_bins) for i, j in pairs]
    )
    first, second = np.array(pairs).T
    # strongest first, ties by (i, j): the order of sorting (-strength, i, j)
    chosen = [
        [pairs[q] for q in np.lexsort((second, first, -strengths[:, s]))[: hyper.n_interactions]]
        for s in range(len(Y))
    ]

    used = {pair for member in chosen for pair in member}
    pair_bins = {
        m: _build_bins(X[:, m], PAIR_BINS, hyper.min_samples_leaf)
        for m in sorted({m for pair in used for m in pair})
    }
    pair_idx = {m: bins.assign(X[:, m]) for m, bins in pair_bins.items()}
    flat = {(i, j): pair_idx[i] * pair_bins[j].n_bins + pair_idx[j] for i, j in used}
    by_term = list(zip(*chosen))  # term t holds each member's t-th strongest pair
    grids = _boost_bags(
        [[flat[pair] for pair in term] for term in by_term],
        [max(pair_bins[i].n_bins * pair_bins[j].n_bins for i, j in term) for term in by_term],
        base,
        Y,
        bags,
        hyper,
        min_leaf=hyper.min_samples_leaf,
    )

    all_terms, out_intercepts = [], []
    for s, (member, intercept) in enumerate(zip(chosen, intercepts)):
        terms = []
        for (i, j), grid in zip(member, grids):
            shape = (pair_bins[i].n_bins, pair_bins[j].n_bins)
            mean_vals = grid[s, :, : shape[0] * shape[1]].mean(axis=0)
            shift = float(_cell_shares(flat[i, j], mean_vals.size) @ mean_vals)
            intercept += shift
            values = (mean_vals - shift).reshape(shape)
            terms.append(PairTerm(i, j, pair_bins[i], pair_bins[j], values))
        all_terms.append(terms)
        out_intercepts.append(intercept)
    return all_terms, out_intercepts


def fit_linear(features: FeatureMatrix, y) -> EffectModel:
    """Ordinary least squares of the target ``y`` with the same centered-shape
    representation."""
    X = features.X
    n, p = X.shape
    if n == 0 or p == 0:
        raise DataError("empty feature matrix")
    design = np.hstack([np.ones((n, 1)), X])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    ridge_fallback = False
    if rank < p + 1:
        warnings.warn("rank-deficient design; falling back to a small ridge penalty")
        gram = design.T @ design
        alpha = 1e-8 * np.trace(gram) / (p + 1)
        coef = np.linalg.solve(gram + alpha * np.eye(p + 1), design.T @ y)
        ridge_fallback = True
    means = X.mean(axis=0)
    shapes = [LinearShape(slope=float(coef[m + 1]), center=float(means[m])) for m in range(p)]
    intercept = float(coef[0] + np.dot(coef[1:], means))
    return EffectModel(
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


def contribution_curve(model: EffectModel, feature: str) -> CurveTable:
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
        xs = np.linspace(lo, hi, CURVE_GRID)
    else:
        xs = np.array([lo])
    value = shape(xs)
    half = 2.0 * shape.stderr_at(xs)
    return CurveTable(feature=feature, x=xs, value=value, lower=value - half, upper=value + half)
