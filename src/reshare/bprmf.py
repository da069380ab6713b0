"""Pairwise-ranking matrix factorization with inverse-propensity debiasing.

Users and posts get low-dimensional factors trained so that interacted posts
outscore non-interacted ones. Three triplet-weighting modes are supported:

* ``naive``      - observed-pair indicator weights,
* ``unbiased``   - interactions reweighted by inverse exposure propensities,
* ``nonneg``     - the unbiased weight clipped at zero, trading a little bias
                   for bounded variance when propensities are tiny.

Training is plain mini-batch SGD with decoupled l2 decay and is fully
deterministic for a given seed. One pairwise step function serves both
``batch_gradients`` and ``train``, so the gradient the tests check against
finite differences is the update that training applies.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .dataset import InteractionGraph
from .errors import ConfigError
from .propensity import PropensityTable

LOSS_MODES = ("naive", "unbiased", "nonneg")


@dataclass(frozen=True)
class BprHyper:
    embedding_dim: int = 64
    learning_rate: float = 0.001
    batch_size: int = 64
    l2_reg: float = 1e-4
    epochs: int = 50
    loss_mode: str = "nonneg"
    seed: int = 0
    early_stop_tol: float = 1e-5
    early_stop_patience: int = 5

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.l2_reg < 0:
            raise ConfigError("l2_reg must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be one of {LOSS_MODES}")

    @staticmethod
    def from_dict(d: dict) -> "BprHyper":
        known = {f.name for f in dataclasses.fields(BprHyper)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown bpr config fields: {sorted(unknown)}")
        return BprHyper(**d)


@dataclass
class TripletBatch:
    """(user, interacted post, comparison post) index triples plus lookups."""

    users: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    pos_observed: np.ndarray
    neg_observed: np.ndarray
    pos_theta: np.ndarray | None = None
    neg_theta: np.ndarray | None = None

    def __post_init__(self):
        if np.any(self.pos == self.neg):
            raise ValueError("triplets must compare two distinct posts")

    def __len__(self) -> int:
        return int(self.users.size)


@dataclass
class BprModel:
    user_ids: tuple[str, ...]
    post_ids: tuple[str, ...]
    user_factors: np.ndarray
    post_factors: np.ndarray
    hyper: BprHyper
    training_curve: list = field(default_factory=list)

    @property
    def user_index(self) -> dict:
        if not hasattr(self, "_uidx"):
            self._uidx = {u: i for i, u in enumerate(self.user_ids)}
        return self._uidx

    @property
    def post_index(self) -> dict:
        if not hasattr(self, "_pidx"):
            self._pidx = {p: i for i, p in enumerate(self.post_ids)}
        return self._pidx


def user_embedding(model: BprModel, user_id: str) -> np.ndarray:
    """The user's factor row (a copy, so the model stays immutable)."""
    try:
        i = model.user_index[user_id]
    except KeyError:
        raise KeyError(f"unknown user {user_id!r}") from None
    return model.user_factors[i].copy()


def pair_loss(score_diff):
    """Logistic pairwise loss -ln(sigmoid(x)); positive and decreasing in x."""
    x = np.asarray(score_diff, dtype=np.float64)
    out = np.logaddexp(0.0, -x)
    return float(out) if out.ndim == 0 else out


def _sigmoid_neg(r: np.ndarray) -> np.ndarray:
    """sigmoid(-r), evaluated without overflow at extreme scores."""
    out = np.empty_like(r)
    pos = r >= 0
    er = np.exp(-r[pos])
    out[pos] = er / (1.0 + er)
    out[~pos] = 1.0 / (1.0 + np.exp(r[~pos]))
    return out


def _edge_keys(graph: InteractionGraph) -> np.ndarray:
    u, p = graph.edge_arrays
    return np.sort(u * graph.n_posts + p)


def _membership(keys_sorted: np.ndarray, query: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(keys_sorted, query)
    pos = np.minimum(pos, keys_sorted.size - 1) if keys_sorted.size else pos
    if keys_sorted.size == 0:
        return np.zeros(query.shape, dtype=np.float64)
    return (keys_sorted[pos] == query).astype(np.float64)


def _draw_negatives(rng, keys_sorted, n_posts, users, pos):
    """A uniform post other than ``pos`` per triplet, and whether its user has it."""
    neg = rng.integers(0, n_posts - 1, pos.size)
    neg = neg + (neg >= pos)
    return neg, _membership(keys_sorted, users * n_posts + neg)


def sample_triplets(
    graph: InteractionGraph,
    n: int,
    seed: int,
    propensity: PropensityTable | None = None,
) -> TripletBatch:
    """Draw n triples: an observed (user, post) edge and a uniform other post."""
    if graph.n_edges < 1:
        raise ValueError("graph has no edges to sample from")
    if graph.n_posts < 2:
        raise ValueError("need at least 2 posts to form triplets")
    rng = np.random.default_rng(seed)
    eu, ep = graph.edge_arrays
    pick = rng.integers(0, graph.n_edges, n)
    users, pos = eu[pick], ep[pick]
    neg, neg_obs = _draw_negatives(rng, _edge_keys(graph), graph.n_posts, users, pos)
    batch = TripletBatch(
        users=users,
        pos=pos,
        neg=neg,
        pos_observed=np.ones(n, dtype=np.float64),
        neg_observed=neg_obs,
    )
    if propensity is not None:
        theta = propensity.for_posts([p.post_id for p in graph.posts])
        batch.pos_theta = theta[pos]
        batch.neg_theta = theta[neg]
    return batch


def _triplet_weights(batch: TripletBatch, mode: str) -> np.ndarray:
    if mode == "naive":
        return batch.pos_observed * (1.0 - batch.neg_observed)
    if mode not in LOSS_MODES:
        raise ValueError(f"unknown loss mode {mode!r}")
    if batch.pos_theta is None or batch.neg_theta is None:
        raise ValueError(f"mode {mode!r} needs propensities attached to the batch")
    if np.any(batch.pos_theta <= 0.0) or np.any(batch.neg_theta <= 0.0):
        raise ValueError("zero or negative propensity encountered; clip to a floor first")
    w = (batch.pos_observed / batch.pos_theta) * (
        1.0 - batch.neg_observed / batch.neg_theta
    )
    if mode == "nonneg":
        w = np.maximum(w, 0.0)
    return w


def batch_loss(model: BprModel, batch: TripletBatch, mode: str) -> float:
    """Mean weighted pairwise loss of a triplet batch under the given mode."""
    u_f, p_f = model.user_factors, model.post_factors
    r = np.einsum("ij,ij->i", u_f[batch.users], p_f[batch.pos] - p_f[batch.neg])
    return float(np.mean(_triplet_weights(batch, mode) * np.logaddexp(0.0, -r)))


def _pair_step(user_f, post_f, users, pos, neg, w, scale, out_u, out_p) -> np.ndarray:
    """Add ``coef * (h_pos - h_neg)`` to the users' rows of ``out_u`` and
    ``+-coef * x_user`` to the posts' rows of ``out_p``, where ``coef = scale * w *
    sigmoid(-r)``; return the weighted losses ``w * -ln sigmoid(r)``. All rows are
    read before any is written, so the outputs may be the factors themselves."""
    u = user_f[users]
    diff = post_f[pos] - post_f[neg]
    r = np.einsum("ij,ij->i", u, diff)
    coef = scale * w * _sigmoid_neg(r)
    np.add.at(out_u, users, coef[:, None] * diff)
    gp = coef[:, None] * u
    np.add.at(out_p, pos, gp)
    np.add.at(out_p, neg, -gp)
    return w * np.logaddexp(0.0, -r)


def batch_gradients(model: BprModel, batch: TripletBatch, mode: str):
    """Loss and dense analytic gradients (d loss / d user_factors, d post_factors)."""
    du = np.zeros_like(model.user_factors)
    dh = np.zeros_like(model.post_factors)
    # d/dr of -ln sigmoid(r) is -sigmoid(-r)
    w = _triplet_weights(batch, mode)
    losses = _pair_step(model.user_factors, model.post_factors, batch.users, batch.pos,
                        batch.neg, w, -1.0 / len(batch), du, dh)
    return float(np.mean(losses)), du, dh


def train(
    graph: InteractionGraph,
    propensity: PropensityTable | None,
    hyper: BprHyper,
) -> BprModel:
    """Fit factors by SGD over per-epoch reshuffled edges with fresh negatives.

    Stops early once the epoch loss has improved by less than
    ``early_stop_tol`` for ``early_stop_patience`` consecutive epochs.
    """
    if hyper.loss_mode != "naive" and propensity is None:
        raise ValueError(f"loss mode {hyper.loss_mode!r} requires a propensity table")
    if graph.n_edges < 1 or graph.n_posts < 2:
        raise ValueError("training needs at least one edge and two posts")
    rng = np.random.default_rng(hyper.seed)
    d = hyper.embedding_dim
    scale = 1.0 / np.sqrt(d)
    user_f = rng.uniform(-scale, scale, (graph.n_users, d))
    post_f = rng.uniform(-scale, scale, (graph.n_posts, d))
    eu, ep = graph.edge_arrays
    keys = _edge_keys(graph)
    post_ids = tuple(p.post_id for p in graph.posts)
    theta = None if propensity is None else propensity.for_posts(post_ids)
    lr = hyper.learning_rate
    n_batches = max(1, -(-graph.n_edges // hyper.batch_size))
    decay = max(0.0, 1.0 - 2.0 * lr * hyper.l2_reg) ** n_batches

    curve: list[float] = []
    best = np.inf
    stale = 0
    model = BprModel(
        user_ids=graph.users,
        post_ids=post_ids,
        user_factors=user_f,
        post_factors=post_f,
        hyper=hyper,
        training_curve=curve,
    )
    for epoch in range(hyper.epochs):
        order = rng.permutation(graph.n_edges)
        users, pos = eu[order], ep[order]
        neg, neg_obs = _draw_negatives(rng, keys, graph.n_posts, users, pos)
        thetas = () if theta is None else (theta[pos], theta[neg])
        batch = TripletBatch(users, pos, neg, np.ones(graph.n_edges), neg_obs, *thetas)
        w = _triplet_weights(batch, hyper.loss_mode)
        epoch_loss = 0.0
        for start in range(0, graph.n_edges, hyper.batch_size):
            sl = slice(start, start + hyper.batch_size)
            # per-triplet step (batching only vectorizes; the learning rate is
            # the per-example rate, as usual for BPR-style SGD)
            losses = _pair_step(
                user_f, post_f, users[sl], pos[sl], neg[sl], w[sl], lr, user_f, post_f
            )
            epoch_loss += float(np.sum(losses))
        if hyper.l2_reg > 0.0:
            user_f *= decay
            post_f *= decay
        epoch_loss /= graph.n_edges
        if not np.isfinite(epoch_loss):
            raise RuntimeError(f"training diverged (non-finite loss) at epoch {epoch}")
        curve.append(epoch_loss)
        if best - epoch_loss < hyper.early_stop_tol:
            stale += 1
            if stale >= hyper.early_stop_patience:
                break
        else:
            stale = 0
        best = min(best, epoch_loss)
    return model


@dataclass
class RankingReport:
    """Held-out ranking quality; behaves as a map (metric, k) -> value."""

    values: dict
    n_evaluated: int
    n_skipped: int

    def __getitem__(self, key) -> float:
        return self.values[key]

    def items(self):
        return self.values.items()


def ranking_metrics(
    model: BprModel,
    test: InteractionGraph,
    k_list,
    train: InteractionGraph | None = None,
) -> RankingReport:
    """recall@k and NDCG@k against held-out edges.

    Candidates per user are all posts the model knows except the user's train
    edges. Users without test edges (or unknown to the model) are skipped and
    counted. Ties in scores break by post order, stably.
    """
    k_list = sorted(set(int(k) for k in k_list))
    if not k_list or k_list[0] < 1:
        raise ValueError("k_list must contain positive integers")
    post_index = model.post_index
    n_posts = len(model.post_ids)
    train_by_user = train.edges_by_user if train is not None else {}
    sums = {("recall", k): 0.0 for k in k_list}
    sums.update({("ndcg", k): 0.0 for k in k_list})
    n_eval = 0
    n_skipped = 0
    discounts = 1.0 / np.log2(np.arange(2, n_posts + 2))
    idcg_cum = np.cumsum(discounts)
    for user in test.users:
        rel_posts = test.edges_by_user.get(user, ())
        if not rel_posts or user not in model.user_index:
            n_skipped += 1
            continue
        rel = np.array([post_index[p] for p in rel_posts], dtype=np.int64)
        scores = model.post_factors @ model.user_factors[model.user_index[user]]
        for p in train_by_user.get(user, ()):
            idx = post_index.get(p)
            if idx is not None:
                scores[idx] = -np.inf
        order = np.argsort(-scores, kind="stable")
        rel_mask = np.zeros(n_posts, dtype=bool)
        rel_mask[rel] = True
        hits = rel_mask[order]
        n_rel = rel.size
        for k in k_list:
            topk_hits = hits[:k]
            n_hit = int(np.count_nonzero(topk_hits))
            sums[("recall", k)] += n_hit / min(n_rel, k)
            dcg = float(np.sum(discounts[:k][topk_hits]))
            idcg = float(idcg_cum[min(n_rel, k) - 1])
            sums[("ndcg", k)] += dcg / idcg
        n_eval += 1
    if n_eval == 0:
        raise ValueError("no evaluable users in the test graph")
    values = {key: val / n_eval for key, val in sums.items()}
    return RankingReport(values=values, n_evaluated=n_eval, n_skipped=n_skipped)
