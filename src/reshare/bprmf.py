"""Pairwise-ranking matrix factorization with inverse-propensity debiasing.

Users and posts get low-dimensional factors trained so that interacted posts
outscore non-interacted ones. Three triplet-weighting modes are supported:

* ``naive``      - observed-pair indicator weights,
* ``unbiased``   - interactions reweighted by inverse exposure propensities,
* ``nonneg``     - the unbiased weight clipped at zero, trading a little bias
                   for bounded variance when propensities are tiny.

Training is plain mini-batch SGD with decoupled l2 decay and is fully
deterministic for a given seed. ``train_stack`` fits one model per propensity
table in a single loop: with one seed every table draws the same init,
permutations and negatives, so the members share them and differ only in
their triplet weights; ``train`` is a stack of one. One pairwise step function
serves both ``batch_gradients`` and training, so the gradient the tests check
against finite differences is the update that training applies. It gathers
the batch's rows with one ``np.take``, builds one flat scatter index from
them and, per member, adds the user and pos steps with one 1-D ``np.add.at``
and subtracts the pos steps from the neg rows with one ``np.subtract.at``;
it returns the score differences. The scatter unit is a pair of doubles
(``complex128``) when the dimension is even and one double when it is odd;
either way every element gets the same terms in the same order, so the
factors keep their bits. Training scales each epoch's weights by the
learning rate once, keeps the epoch's score differences and evaluates the
losses in one pass, summed batch by batch. ``train_stack`` never forks: it
trains in the calling process, and a stack with a diverged member (a
non-finite epoch loss) raises with the epoch of its first such member.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import InteractionGraph, index_of
from .errors import ConfigError
from .propensity import PropensityTable
from .stats import sigmoid

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
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1")
        if self.early_stop_tol < 0:
            raise ConfigError("early_stop_tol must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


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


def user_embedding(model: BprModel, user_id: str) -> np.ndarray:
    """The user's factor row (a copy, so the model stays immutable)."""
    try:
        i = model.user_ids.index(user_id)
    except ValueError:
        raise KeyError(f"unknown user {user_id!r}") from None
    return model.user_factors[i].copy()


def pair_loss(score_diff):
    """Logistic pairwise loss -ln(sigmoid(x)); positive and decreasing in x."""
    x = np.asarray(score_diff, dtype=np.float64)
    out = np.logaddexp(0.0, -x)
    return float(out) if out.ndim == 0 else out


def _edge_keys(graph: InteractionGraph) -> np.ndarray:
    u, p = graph.edge_arrays
    return u * graph.n_posts + p  # sorted, as the edge arrays are


def _membership(keys_sorted: np.ndarray, query: np.ndarray) -> np.ndarray:
    if keys_sorted.size == 0:
        return np.zeros(query.shape, dtype=np.float64)
    pos = np.minimum(np.searchsorted(keys_sorted, query), keys_sorted.size - 1)
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
        theta = propensity.theta_for(graph)
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


def _pair_step(factors, users, pos, neg, steps, out) -> np.ndarray:
    """One pairwise step for every member of a stack of factor blocks.

    ``factors`` and ``out`` are C-contiguous ``(S, rows, d)`` blocks, users'
    rows first and posts' after them; ``users``, ``pos`` and ``neg`` are row
    indices shared by all members and ``steps`` is the ``(S, B)`` triplet
    weights already times the step size. Adds ``coef * (h_pos - h_neg)`` to
    the users' rows and ``+-coef * x_user`` to the posts' rows, where
    ``coef = steps * sigmoid(-r)``; returns the ``(S, B)`` score differences
    ``r``, from which the caller takes the losses. All rows are read (one
    ``np.take``) before any is written, so ``out`` may be ``factors``.

    Per member, one 1-D ``np.add.at`` adds the user and pos steps and one
    ``np.subtract.at`` takes the pos steps from the neg rows, on a flat index
    built once per batch. Each element thus gets its terms in one fixed
    order: a user's in batch order, a post's pos terms in batch order and
    then its neg terms, and ``x - y`` is ``x + (-y)`` bit for bit. The
    scatter unit is a pair of doubles (``complex128``, whose sum adds the
    real and imaginary doubles apart) when ``d`` is even and one double
    when it is odd, so an even ``d`` halves the index without moving a bit.
    ``coef`` is spelled out along ``d`` once, for both multiplies."""
    s, _, d = factors.shape
    b = users.size
    unit = np.complex128 if d % 2 == 0 else np.float64
    per_row = d * 8 // np.dtype(unit).itemsize
    rows = np.concatenate((users, pos, neg))
    grads = np.take(factors, rows, axis=1)  # x_user, h_pos, h_neg; then steps, steps, diff
    u, h_pos, diff = grads[:, :b], grads[:, b : 2 * b], grads[:, 2 * b :]
    np.subtract(h_pos, diff, out=diff)
    r = np.einsum("sij,sij->si", u, diff)
    coef = np.repeat(steps * sigmoid(-r), d).reshape(s, b, d)
    np.multiply(coef, u, out=h_pos)
    np.multiply(coef, diff, out=u)
    flat = (rows[:, None] * per_row + np.arange(per_row)).ravel()
    split = 2 * b * per_row
    members = zip(out.reshape(s, -1).view(unit), grads.reshape(s, -1).view(unit))
    for member_out, member_grads in members:
        np.add.at(member_out, flat[:split], member_grads[:split])
        np.subtract.at(member_out, flat[split:], member_grads[b * per_row : split])
    return r


def batch_gradients(model: BprModel, batch: TripletBatch, mode: str):
    """Loss and dense analytic gradients (d loss / d user_factors, d post_factors)."""
    n_users = model.user_factors.shape[0]
    factors = np.concatenate((model.user_factors, model.post_factors))[None]
    grad = np.zeros_like(factors)
    # d/dr of -ln sigmoid(r) is -sigmoid(-r)
    w = _triplet_weights(batch, mode)
    r = _pair_step(factors, batch.users, batch.pos + n_users, batch.neg + n_users,
                   ((-1.0 / len(batch)) * w)[None], grad)
    return float(np.mean(w * np.logaddexp(0.0, -r[0]))), grad[0, :n_users], grad[0, n_users:]


def train(
    graph: InteractionGraph,
    propensity: PropensityTable | None,
    hyper: BprHyper,
) -> BprModel:
    """Fit factors by SGD over per-epoch reshuffled edges with fresh negatives.

    Stops early once the epoch loss has improved by less than
    ``early_stop_tol`` for ``early_stop_patience`` consecutive epochs.
    """
    return train_stack(graph, [propensity], hyper)[0]


def train_stack(graph: InteractionGraph, propensities, hyper: BprHyper) -> list:
    """``train`` on each propensity table (``None`` for ``naive``) in one loop.

    Every member starts from the same seeded init and sees the same permuted
    edges and negatives, so each returned model equals ``train`` on its table
    bit for bit. The members' factors form one ``(S, users + posts, d)``
    block, and a member leaves it when it stops early or its epoch loss is
    not finite. The error after the loop names the first diverged member in
    stack order, so it is the same however the tables are split into stacks.
    """
    if hyper.loss_mode != "naive" and any(t is None for t in propensities):
        raise ValueError(f"loss mode {hyper.loss_mode!r} requires a propensity table")
    if not propensities:
        raise ValueError("training needs at least one propensity table (None for naive)")
    if graph.n_edges < 1 or graph.n_posts < 2:
        raise ValueError("training needs at least one edge and two posts")
    thetas = [None if t is None else t.theta_for(graph) for t in propensities]
    rng = np.random.default_rng(hyper.seed)
    d = hyper.embedding_dim
    scale = 1.0 / np.sqrt(d)
    n_users = graph.n_users
    block = np.repeat(np.concatenate((
        rng.uniform(-scale, scale, (n_users, d)),
        rng.uniform(-scale, scale, (graph.n_posts, d)),
    ))[None], len(thetas), axis=0)
    eu, ep = graph.edge_arrays
    keys = _edge_keys(graph)
    lr = hyper.learning_rate
    batches = [slice(start, start + hyper.batch_size)
               for start in range(0, graph.n_edges, hyper.batch_size)]
    decay = max(0.0, 1.0 - 2.0 * lr * hyper.l2_reg) ** len(batches)

    models = [None] * len(thetas)
    curves = [[] for _ in thetas]
    best = [np.inf] * len(thetas)
    stale = [0] * len(thetas)
    diverged = {}  # member -> epoch of its first non-finite loss
    active = list(range(len(thetas)))

    def finish(m, factors):
        models[m] = BprModel(
            user_ids=graph.users,
            post_ids=graph.post_ids,
            user_factors=factors[:n_users],
            post_factors=factors[n_users:],
            hyper=hyper,
            training_curve=curves[m],
        )

    for epoch in range(hyper.epochs):
        order = rng.permutation(graph.n_edges)
        users, pos = eu[order], ep[order]
        neg, neg_obs = _draw_negatives(rng, keys, graph.n_posts, users, pos)
        observed = np.ones(graph.n_edges)
        w = np.empty((len(active), graph.n_edges))
        for i, m in enumerate(active):
            theta = () if thetas[m] is None else (thetas[m][pos], thetas[m][neg])
            batch = TripletBatch(users, pos, neg, observed, neg_obs, *theta)
            w[i] = _triplet_weights(batch, hyper.loss_mode)
        pos_rows, neg_rows = pos + n_users, neg + n_users
        # per-triplet step (batching only vectorizes; the learning rate is
        # the per-example rate, as usual for BPR-style SGD)
        steps = lr * w
        r = np.empty_like(w)
        for sl in batches:
            r[:, sl] = _pair_step(block, users[sl], pos_rows[sl], neg_rows[sl], steps[:, sl], block)
        epoch_loss = np.zeros(len(active))
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is raised below
            losses = w * np.logaddexp(0.0, -r)
            for sl in batches:  # batch by batch: this order sets the training curve's bits
                epoch_loss += losses[:, sl].sum(axis=1)
        if hyper.l2_reg > 0.0:
            block *= decay
        epoch_loss /= graph.n_edges
        keep = []
        for i, m in enumerate(active):
            loss = float(epoch_loss[i])
            if not np.isfinite(loss):
                diverged[m] = epoch
                continue
            curves[m].append(loss)
            if best[m] - loss < hyper.early_stop_tol:
                stale[m] += 1
                if stale[m] >= hyper.early_stop_patience:
                    finish(m, block[i].copy())  # the block is rebuilt without it
                    continue
            else:
                stale[m] = 0
            best[m] = min(best[m], loss)
            keep.append(i)
        if len(keep) < len(active):
            block = block[keep]
            active = [active[i] for i in keep]
            if not active:
                break
    if diverged:
        raise RuntimeError("training diverged (non-finite loss) at epoch "
                           f"{diverged[min(diverged)]}")
    for i, m in enumerate(active):
        finish(m, block[i])
    return models


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


# users x posts cells that ``ranking_metrics`` scores at a time; bounds its memory
_RANK_BLOCK_CELLS = 1 << 16


def _csr_cells(ptr, cols, rows):
    """(position in ``rows``, column) of every entry of the given CSR rows."""
    lens = ptr[rows + 1] - ptr[rows]
    flat = np.arange(lens.sum()) + np.repeat(ptr[rows] - np.cumsum(lens) + lens, lens)
    return np.repeat(np.arange(rows.size), lens), cols[flat]


def ranking_metrics(
    model: BprModel,
    test: InteractionGraph,
    k_list,
    train: InteractionGraph | None = None,
) -> RankingReport:
    """recall@k and NDCG@k against held-out edges.

    The test and train graphs share their users and the model's posts.
    Candidates per user are all posts except the user's train edges. Users
    without test edges (or unknown to the model) are skipped and counted. Ties
    in scores break by post order, stably.

    Users are ranked in blocks of about ``_RANK_BLOCK_CELLS`` scores. Every
    step keeps the bits of scoring, sorting and summing one user at a time:
    a stacked matrix-vector product gives each user's ``post_factors @ u``
    bits (``U @ P.T`` does not), each user's DCG sums its hit discounts as
    one row, and the means add the users' values in test-user order.
    """
    k_list = sorted(set(int(k) for k in k_list))
    if not k_list or k_list[0] < 1:
        raise ValueError("k_list must contain positive integers")
    n_posts = len(model.post_ids)
    discounts = 1.0 / np.log2(np.arange(2, n_posts + 2))
    idcg_cum = np.cumsum(discounts)
    if train is None:
        train = InteractionGraph(test.users, test.posts, [], [])
    if not (test.post_ids == train.post_ids == model.post_ids and test.users == train.users):
        raise ValueError("test and train graphs must share their users and the model's posts")
    # each user's test and train posts are CSR slices of the edge arrays
    (_, test_posts), test_ptr = test.edge_arrays, test.indptr
    (_, train_posts), train_ptr = train.edge_arrays, train.indptr
    rows, known = index_of(model.user_ids, test.users)
    n_rel = np.diff(test_ptr)
    evaluated = np.flatnonzero(known & (n_rel > 0))
    if evaluated.size == 0:
        raise ValueError("no evaluable users in the test graph")
    totals = np.zeros(2 * len(k_list))
    per_block = max(1, _RANK_BLOCK_CELLS // n_posts)
    for start in range(0, evaluated.size, per_block):
        users = evaluated[start : start + per_block]
        factors = model.user_factors[rows[users]][:, :, None]
        scores = np.matmul(model.post_factors, factors)[:, :, 0]
        scores[_csr_cells(train_ptr, train_posts, users)] = -np.inf
        order = np.argsort(-scores, axis=1, kind="stable")[:, : k_list[-1]]
        relevant = np.zeros(scores.shape, dtype=bool)
        relevant[_csr_cells(test_ptr, test_posts, users)] = True
        hits = np.take_along_axis(relevant, order, axis=1)
        recall, ndcg = [], []
        for k in k_list:
            top = hits[:, :k]
            n_hit = np.count_nonzero(top, axis=1)
            ideal = np.minimum(n_rel[users], k)
            recall.append(n_hit / ideal)
            dcg = np.zeros(users.size)
            for h in np.unique(n_hit[n_hit > 0]).tolist():
                group = n_hit == h
                gains = discounts[np.nonzero(top[group])[1]].reshape(-1, h)
                dcg[group] = np.add.reduce(gains, axis=1)
            ndcg.append(dcg / idcg_cum[ideal - 1])
        totals = np.add.accumulate(np.vstack((totals, np.column_stack(recall + ndcg))))[-1]
    keys = [(name, k) for name in ("recall", "ndcg") for k in k_list]
    values = dict(zip(keys, (totals / evaluated.size).tolist()))
    return RankingReport(values, evaluated.size, test.n_users - evaluated.size)
