"""Shared fixtures and independent reference implementations (test oracles)."""

import math
import os
import signal

import numpy as np
import pytest

from reshare.dataset import (
    InteractionGraph,
    Post,
    UserAttributes,
    UserAttributeTable,
    _test_quota,
    index_of,
)
from reshare.effects import FeatureMatrix


def make_graph(n_users, posts_spec, edges):
    """posts_spec: list of (post_id, is_hate, cluster). edges: (user_idx, post_id)."""
    users = [f"u{i}" for i in range(n_users)]
    posts = [
        Post(post_id=pid, author_id=users[0], is_hate=hate, cluster=cluster)
        for pid, hate, cluster in posts_spec
    ]
    return InteractionGraph(users, posts, [(f"u{i}", pid) for i, pid in edges])


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
    rows = []
    for s in specs:
        rows.append(
            UserAttributes(
                user_id=s["user_id"],
                verified=s.get("verified", False),
                account_age_days=s.get("account_age_days", 1000),
                n_posts=s.get("n_posts", 10),
                n_followers=s.get("n_followers", 100),
                n_friends=s.get("n_friends", 50),
            )
        )
    return UserAttributeTable(rows)


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
        train = InteractionGraph.from_indices(test.users, test.posts, [], [])
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
