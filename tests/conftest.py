"""Shared fixtures and independent reference implementations (test oracles)."""

import math
import os
import signal

import numpy as np
import pytest

from reshare.dataset import (
    InteractionGraph,
    Post,
    UserAttributeTable,
    _test_quota,
    index_of,
)
from reshare.bprmf import BprModel, TripletBatch, _draw_negatives, _edge_keys, _triplet_weights
from reshare.effects import FeatureMatrix


def graph_from_pairs(users, posts, edges):
    """The InteractionGraph over ``users`` and ``posts``, in any order, whose
    edges are the (user_id, post_id) pairs ``edges``, each known and distinct;
    nothing here checks that."""
    users = sorted(users)
    posts = sorted(posts, key=lambda p: p.post_id)
    user_row = {u: i for i, u in enumerate(users)}
    post_row = {p.post_id: j for j, p in enumerate(posts)}
    return InteractionGraph(users, posts, [user_row[u] for u, _ in edges],
                            [post_row[p] for _, p in edges])


def make_graph(n_users, posts_spec, edges):
    """posts_spec: list of (post_id, is_hate, cluster). edges: (user_idx, post_id)."""
    users = [f"u{i}" for i in range(n_users)]
    posts = [
        Post(post_id=pid, author_id=users[0], is_hate=hate, cluster=cluster)
        for pid, hate, cluster in posts_spec
    ]
    return graph_from_pairs(users, posts, [(f"u{i}", pid) for i, pid in edges])


class StringGraph:
    """Plain-Python reference for InteractionGraph: sorted string ids and pairs."""

    def __init__(self, users, posts, edges):
        self.users = tuple(sorted(users))
        self.posts = tuple(sorted(posts, key=lambda p: p.post_id))
        self.post_ids = tuple(p.post_id for p in self.posts)
        self.edges = tuple(sorted(edges))

    @property
    def edges_by_user(self):
        out = {}
        for u, p in self.edges:
            out.setdefault(u, []).append(p)
        return {u: tuple(ps) for u, ps in out.items()}

    @property
    def edge_arrays(self):
        uidx = {u: i for i, u in enumerate(self.users)}
        pidx = {p: i for i, p in enumerate(self.post_ids)}
        return (
            np.array([uidx[u] for u, _ in self.edges], dtype=np.int64),
            np.array([pidx[p] for _, p in self.edges], dtype=np.int64),
        )

    def reshare_counts(self):
        return np.array([sum(p == q for _, q in self.edges) for p in self.post_ids])

    def hate_subgraph(self):
        hate = [p for p in self.posts if p.is_hate]
        ids = {p.post_id for p in hate}
        return StringGraph(self.users, hate, [e for e in self.edges if e[1] in ids])

    def split_by_edge(self, ratio, seed):
        """(train edges, test edges): one permutation per user with edges, in user order."""
        rng = np.random.default_rng(seed)
        by_user = self.edges_by_user
        users = sorted(by_user)
        quotas = _test_quota([len(by_user[u]) for u in users], ratio, len(self.edges))
        train, test = [], []
        for u, q in zip(users, quotas):
            order = rng.permutation(len(by_user[u]))
            for rank, j in enumerate(order):
                (test if rank < q else train).append((u, by_user[u][j]))
        return tuple(sorted(train)), tuple(sorted(test))

    def split_by_user(self, ratio, seed):
        order = np.random.default_rng(seed).permutation(len(self.users))
        n_train = min(max(int(round(ratio * len(self.users))), 1), len(self.users) - 1)
        return (
            frozenset(self.users[i] for i in order[:n_train]),
            frozenset(self.users[i] for i in order[n_train:]),
        )


def make_users(specs):
    """specs: list of dicts with user_id and optional attribute overrides."""
    defaults = {"verified": False, "account_age_days": 1000, "n_posts": 10,
                "n_followers": 100, "n_friends": 50}
    return UserAttributeTable(
        [s["user_id"] for s in specs],
        **{name: [s.get(name, default) for s in specs] for name, default in defaults.items()},
    )


def subset_matrix(fm: FeatureMatrix, user_set) -> tuple:
    """The rows of ``fm`` whose user is in ``user_set``, and their indices,
    which select the same users' targets."""
    idx = [i for i, u in enumerate(fm.user_ids) if u in user_set]
    subset = FeatureMatrix(
        user_ids=tuple(fm.user_ids[i] for i in idx), columns=fm.columns, X=fm.X[idx]
    )
    return subset, idx


def brute_force_ranking(user_factors, post_factors, post_ids, test_edges_by_user,
                        train_edges_by_user, user_ids, k_list):
    """Plain-python recall@k / NDCG@k, computed by explicit sorting."""
    user_index = {u: i for i, u in enumerate(user_ids)}
    sums = {("recall", k): 0.0 for k in k_list}
    sums.update({("ndcg", k): 0.0 for k in k_list})
    n_eval = 0
    pidx = {p: i for i, p in enumerate(post_ids)}
    for user in sorted(test_edges_by_user):
        rel = set(test_edges_by_user[user])
        if not rel or user not in user_index:
            continue
        u = user_index[user]
        banned = set(train_edges_by_user.get(user, ()))
        scored = []
        for p in post_ids:
            s = float(np.dot(user_factors[u], post_factors[pidx[p]]))
            if p in banned:
                s = -math.inf
            scored.append((p, s))
        order = sorted(range(len(scored)), key=lambda i: (-scored[i][1], i))
        ranked = [scored[i][0] for i in order]
        for k in k_list:
            hits = [p for p in ranked[:k] if p in rel]
            sums[("recall", k)] += len(hits) / min(len(rel), k)
            dcg = 0.0
            for rank, p in enumerate(ranked[:k], start=1):
                if p in rel:
                    dcg += 1.0 / math.log2(rank + 1)
            idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(rel), k) + 1))
            sums[("ndcg", k)] += dcg / idcg
        n_eval += 1
    return {key: v / n_eval for key, v in sums.items()}, n_eval


def per_user_ranking(model, test, k_list, train=None):
    """The per-user loop ``ranking_metrics`` replaced: (values, n_evaluated,
    n_skipped), each user scored, sorted and counted alone. Its values are the
    bits ``ranking_metrics`` must reproduce."""
    k_list = sorted(set(int(k) for k in k_list))
    n_posts = len(model.post_ids)
    sums = {("recall", k): 0.0 for k in k_list}
    sums.update({("ndcg", k): 0.0 for k in k_list})
    n_eval = 0
    n_skipped = 0
    discounts = 1.0 / np.log2(np.arange(2, n_posts + 2))
    idcg_cum = np.cumsum(discounts)
    if train is None:
        train = InteractionGraph(test.users, test.posts, [], [])
    (_, test_posts), test_ptr = test.edge_arrays, test.indptr
    (_, train_posts), train_ptr = train.edge_arrays, train.indptr
    rows, known = index_of(model.user_ids, test.users)
    for i in range(test.n_users):
        rel = test_posts[test_ptr[i] : test_ptr[i + 1]]
        if not rel.size or not known[i]:
            n_skipped += 1
            continue
        scores = model.post_factors @ model.user_factors[rows[i]]
        scores[train_posts[train_ptr[i] : train_ptr[i + 1]]] = -np.inf
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
    return {key: val / n_eval for key, val in sums.items()}, n_eval, n_skipped


def masked_sigmoid(z):
    """The boolean-mask sigmoid ``stats.sigmoid`` replaced; its bits are the
    ones ``stats.sigmoid`` must reproduce."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_build_bins(col, max_bins, min_leaf):
    """``(cuts, levels)`` of ``effects._build_bins`` as first shipped: the
    occupancy merge over numpy scalars, keeping cut values. Its bytes are the
    ones ``_build_bins`` must reproduce."""
    vals = np.unique(col)
    if vals.size <= max_bins:
        cuts = (vals[:-1] + vals[1:]) / 2.0
        levels = vals
    else:
        qs = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
        cuts = np.unique(np.quantile(col, qs))
        levels = None
    if cuts.size == 0:
        return cuts, levels
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
        levels = None
    return new_cuts, levels


def reference_pair_step(factors, users, pos, neg, w, scale, out):
    """The stacked pairwise step as first shipped: a fancy-index gather, the
    masked sigmoid, the step size applied per batch and the weighted losses
    returned."""
    d = factors.shape[2]
    b = users.size
    rows = np.concatenate((users, pos, neg))
    grads = factors[:, rows]
    u, h_pos, h_neg = grads[:, :b], grads[:, b : 2 * b], grads[:, 2 * b :]
    diff = h_pos - h_neg
    r = np.einsum("sij,sij->si", u, diff)
    coef = (scale * w * masked_sigmoid(-r))[:, :, None]
    np.multiply(coef, u, out=h_pos)
    np.multiply(coef, diff, out=u)
    np.negative(h_pos, out=h_neg)
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    for member_out, member_grads in zip(out, grads):
        np.add.at(member_out.reshape(-1), flat, member_grads.ravel())
    return w * np.logaddexp(0.0, -r)


def reference_train_group(graph, thetas, hyper):
    """The stacked BPR loop that ``bprmf.train_stack`` replaced, each batch's
    loss summed as the batch runs: ``(models, None)``, or ``(None, epoch)``
    on a non-finite epoch loss. Its factors and curves are the bits
    ``train_stack`` must reproduce."""
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
    n_batches = max(1, -(-graph.n_edges // hyper.batch_size))
    decay = max(0.0, 1.0 - 2.0 * lr * hyper.l2_reg) ** n_batches

    models = [None] * len(thetas)
    curves = [[] for _ in thetas]
    best = [np.inf] * len(thetas)
    stale = [0] * len(thetas)
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
        epoch_loss = np.zeros(len(active))
        for start in range(0, graph.n_edges, hyper.batch_size):
            sl = slice(start, start + hyper.batch_size)
            losses = reference_pair_step(block, users[sl], pos_rows[sl], neg_rows[sl],
                                         w[:, sl], lr, block)
            epoch_loss += losses.sum(axis=1)
        if hyper.l2_reg > 0.0:
            block *= decay
        epoch_loss /= graph.n_edges
        if not np.all(np.isfinite(epoch_loss)):
            return None, epoch
        keep = []
        for i, m in enumerate(active):
            loss = float(epoch_loss[i])
            curves[m].append(loss)
            if best[m] - loss < hyper.early_stop_tol:
                stale[m] += 1
                if stale[m] >= hyper.early_stop_patience:
                    finish(m, block[i].copy())
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
    for i, m in enumerate(active):
        finish(m, block[i])
    return models, None


def brute_force_dbscan(points, eps, min_pts):
    """Independent quadratic DBSCAN with the same nearest-core border rule."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    dist = np.array([[float(np.linalg.norm(a - b)) for b in pts] for a in pts])
    neighbors = [set(np.flatnonzero(dist[i] <= eps).tolist()) for i in range(n)]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]
    labels = [-1] * n
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        frontier = {i}
        labels[i] = cluster
        while frontier:
            j = frontier.pop()
            for nb in neighbors[j]:
                if core[nb] and labels[nb] == -1:
                    labels[nb] = cluster
                    frontier.add(nb)
        cluster += 1
    for i in range(n):
        if core[i] or labels[i] != -1:
            continue
        candidates = [(dist[i][j], j) for j in range(n) if core[j] and dist[i][j] <= eps]
        if candidates:
            _, j = min(candidates)
            labels[i] = labels[j]
    return np.array(labels)


def canonical_labels(labels):
    """Relabel clusters by first appearance so permutations compare equal."""
    mapping = {}
    out = []
    for lab in labels:
        if lab < 0:
            out.append(-1)
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return tuple(out)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns to this process from now on (it still
    forks). A fork from any other process, such as a forked worker, raises
    ``AssertionError``, which the worker sends back to this process."""
    real_fork, pids, parent = os.fork, [], os.getpid()

    def fork():
        if os.getpid() != parent:
            raise AssertionError("a forked worker forked again")
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def deadline():
    """Fail a test that is still running, such as waiting on its workers, after 60 s."""

    def expire(signum, frame):
        raise TimeoutError("still waiting after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
