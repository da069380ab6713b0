"""Domain data model: posts, user attributes, the bipartite reshare graph, and splits.

All loaded structures are canonicalized (sorted by id) and immutable after
construction, so they are safe to share across threads and hash-stable for
deterministic downstream processing. String ids stay at the I/O boundary: the
reshare graph keeps its edges as int64 index arrays into its sorted user and
post tuples, and every stage downstream works on those arrays.
"""

import csv
import logging
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

POSTS_COLUMNS = ("post_id", "author_id", "is_hate", "cluster", "text")
USERS_COLUMNS = (
    "user_id",
    "verified",
    "account_age_days",
    "n_posts",
    "n_followers",
    "n_friends",
)
INTERACTIONS_COLUMNS = ("user_id", "post_id")

FEATURE_COLUMNS = (
    "verified",
    "account_age_days",
    "log1p_n_posts",
    "log1p_n_followers",
    "log1p_n_friends",
)


@dataclass(frozen=True)
class Post:
    post_id: str
    author_id: str
    is_hate: bool
    cluster: str | None = None
    text: str | None = None

    def __post_init__(self):
        if self.cluster is not None and not self.is_hate:
            raise DataError(
                f"post {self.post_id!r} has cluster {self.cluster!r} but is not flagged as hate"
            )


@dataclass(frozen=True)
class UserAttributes:
    user_id: str
    verified: bool
    account_age_days: int
    n_posts: int
    n_followers: int
    n_friends: int

    def __post_init__(self):
        for name in ("account_age_days", "n_posts", "n_followers", "n_friends"):
            if getattr(self, name) < 0:
                raise DataError(f"user {self.user_id!r}: {name} must be >= 0")


class UserAttributeTable:
    """Immutable per-user attribute lookup, ordered by user id."""

    def __init__(self, rows):
        self._rows = tuple(sorted(rows, key=lambda r: r.user_id))
        ids = self.user_ids
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise DataError(f"duplicate user_id {a!r}")

    @property
    def user_ids(self) -> tuple[str, ...]:
        return tuple(r.user_id for r in self._rows)

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, UserAttributeTable) and self._rows == other._rows


@dataclass(frozen=True)
class FeatureView:
    """Per-user numeric feature matrix with the log-transformed count attributes."""

    user_ids: tuple[str, ...]
    columns: tuple[str, ...]
    matrix: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.columns.index(name)]


def index_of(ids, query) -> tuple[np.ndarray, np.ndarray]:
    """Row of each ``query`` id in ``ids``, given in any order (a repeated id gives its
    first row), and whether it is there; the row of a missing id means nothing."""
    query = np.asarray(query, dtype=str)
    keys, first = np.unique(np.asarray(ids, dtype=str), return_index=True)
    return np.append(first, 0)[np.searchsorted(keys, query)], np.isin(query, keys)


def _pair_keys(users, post_ids, edges) -> np.ndarray:
    """Sorted ``user * n_posts + post`` keys of (user_id, post_id) pairs.

    Unknown users, then unknown posts, then repeated pairs raise ``DataError``
    naming the smallest offending pair."""
    pairs = np.array(list(edges), dtype=str).reshape(-1, 2)
    (ui, u_ok), (pi, p_ok) = index_of(users, pairs[:, 0]), index_of(post_ids, pairs[:, 1])
    for ok, side, kind in ((u_ok, 0, "user"), (p_ok, 1, "post")):
        if not ok.all():
            edge = tuple(min(pairs[~ok].tolist()))
            raise DataError(f"edge {edge!r} references unknown {kind} {edge[side]!r}")
    keys, counts = np.unique(ui * len(post_ids) + pi, return_counts=True)
    if np.any(counts > 1):
        u, p = divmod(int(keys[counts > 1][0]), len(post_ids))
        raise DataError(f"duplicate edge {(users[u], post_ids[p])!r}")
    return keys


class InteractionGraph:
    """Bipartite user-by-post reshare graph; an edge (u, h) means u reshared h.

    String ids live only at this boundary. The graph holds its ``users`` and
    ``posts`` sorted by id plus two int64 edge arrays indexing them, sorted by
    (user index, post index); since indices follow sorted-id order, that is the
    order of the sorted (user id, post id) pairs. ``edges`` and
    ``edges_by_user`` are string views built on demand.
    """

    def __init__(self, users, posts, edges):
        """``edges`` are (user_id, post_id) pairs in any order."""
        users = tuple(sorted(users))
        if len(set(users)) != len(users):
            raise DataError("duplicate user ids in graph")
        posts = tuple(sorted(posts, key=lambda p: p.post_id))
        post_ids = tuple(p.post_id for p in posts)
        if len(set(post_ids)) != len(post_ids):
            raise DataError("duplicate post ids in graph")
        self._assign(users, posts, _pair_keys(users, post_ids, edges))

    @classmethod
    def from_indices(cls, users, posts, user_idx, post_idx) -> "InteractionGraph":
        """Graph over ``users`` and ``posts`` already sorted by id, with distinct
        edges given as index arrays into them, in any order."""
        graph = cls.__new__(cls)
        user_idx = np.asarray(user_idx, dtype=np.int64)
        keys = user_idx * len(posts) + np.asarray(post_idx, dtype=np.int64)
        graph._assign(tuple(users), tuple(posts), np.sort(keys))
        return graph

    def _assign(self, users, posts, keys):
        self.users = users
        self.posts = posts
        self.edge_arrays = divmod(keys, max(len(posts), 1))
        for arr in self.edge_arrays:
            arr.flags.writeable = False

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_posts(self) -> int:
        return len(self.posts)

    @property
    def n_edges(self) -> int:
        return self.edge_arrays[0].size

    @cached_property
    def post_ids(self) -> tuple[str, ...]:
        return tuple(p.post_id for p in self.posts)

    @cached_property
    def indptr(self) -> np.ndarray:
        """User i's edges are ``edge_arrays[k][indptr[i]:indptr[i + 1]]``."""
        return np.searchsorted(self.edge_arrays[0], np.arange(self.n_users + 1))

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """The edges as (user_id, post_id) pairs, in sorted order; built on each call."""
        eu, ep = self.edge_arrays
        users = np.array(self.users, dtype=object)[eu].tolist()
        return tuple(zip(users, np.array(self.post_ids, dtype=object)[ep].tolist()))

    @cached_property
    def edges_by_user(self) -> dict[str, tuple[str, ...]]:
        """Post ids per user with at least one edge, in sorted order."""
        posts = np.array(self.post_ids, dtype=object)[self.edge_arrays[1]].tolist()
        ptr = self.indptr.tolist()
        return {
            self.users[i]: tuple(posts[ptr[i] : ptr[i + 1]])
            for i in np.flatnonzero(np.diff(self.indptr)).tolist()
        }

    def reshare_counts(self) -> np.ndarray:
        """Number of distinct resharing users per post, aligned with .posts order."""
        _, p = self.edge_arrays
        return np.bincount(p, minlength=self.n_posts).astype(np.int64)

    def hate_subgraph(self) -> "InteractionGraph":
        """Restrict posts (and their edges) to hate-flagged posts; users unchanged."""
        hate = np.array([p.is_hate for p in self.posts], dtype=bool)
        eu, ep = self.edge_arrays
        keep = hate[ep]
        hate_posts = tuple(p for p in self.posts if p.is_hate)
        return InteractionGraph.from_indices(
            self.users, hate_posts, eu[keep], (np.cumsum(hate) - 1)[ep[keep]]
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InteractionGraph)
            and self.users == other.users
            and self.posts == other.posts
            and all(map(np.array_equal, self.edge_arrays, other.edge_arrays))
        )


@dataclass(frozen=True)
class SplitPair:
    """Deterministic train/test partition; graphs for by-edge, user-id sets for by-user."""

    train: object
    test: object


def _parse_bool(raw: str, where: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true"):
        return True
    if val in ("0", "false"):
        return False
    raise DataError(f"{where}: cannot parse boolean from {raw!r}")


def _parse_count(raw: str, where: str) -> int:
    try:
        val = int(raw)
    except ValueError:
        raise DataError(f"{where}: cannot parse integer from {raw!r}") from None
    if val < 0:
        raise DataError(f"{where}: count must be >= 0, got {val}")
    return val


def _open_csv(path):
    if not os.path.exists(path):
        raise DataError(f"missing file: {path}")
    return open(path, newline="", encoding="utf-8")


def _check_header(reader: csv.DictReader, required, path):
    fields = reader.fieldnames or []
    missing = [c for c in required if c not in fields]
    if missing:
        raise DataError(f"{path}: header is missing columns {missing}")


def load_posts(path) -> list[Post]:
    posts = []
    with _open_csv(path) as fh:
        reader = csv.DictReader(fh)
        _check_header(reader, ("post_id", "author_id", "is_hate", "cluster"), path)
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if row.get("post_id") in (None, "") or row.get("author_id") in (None, ""):
                raise DataError(f"{where}: post_id and author_id are required")
            cluster = row.get("cluster") or None
            text = row.get("text") or None
            posts.append(
                Post(
                    post_id=row["post_id"],
                    author_id=row["author_id"],
                    is_hate=_parse_bool(row["is_hate"], where),
                    cluster=cluster,
                    text=text,
                )
            )
    return posts


def load_users(path) -> UserAttributeTable:
    rows = []
    with _open_csv(path) as fh:
        reader = csv.DictReader(fh)
        _check_header(reader, USERS_COLUMNS, path)
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if row.get("user_id") in (None, ""):
                raise DataError(f"{where}: user_id is required")
            rows.append(
                UserAttributes(
                    user_id=row["user_id"],
                    verified=_parse_bool(row["verified"], where),
                    account_age_days=_parse_count(row["account_age_days"], where),
                    n_posts=_parse_count(row["n_posts"], where),
                    n_followers=_parse_count(row["n_followers"], where),
                    n_friends=_parse_count(row["n_friends"], where),
                )
            )
    return UserAttributeTable(rows)


def load_dataset(posts_path, users_path, interactions_path):
    """Load and cross-validate the three input tables.

    Returns (InteractionGraph, UserAttributeTable). Raises DataError naming the
    offending file/row on any referential-integrity violation.
    """
    posts = load_posts(posts_path)
    users = load_users(users_path)
    post_ids = {p.post_id for p in posts}
    if len(post_ids) != len(posts):
        raise DataError(f"{posts_path}: duplicate post_id")
    user_ids = set(users.user_ids)
    edges = []
    with _open_csv(interactions_path) as fh:
        reader = csv.DictReader(fh)
        _check_header(reader, INTERACTIONS_COLUMNS, interactions_path)
        for row in reader:
            where = f"{interactions_path}:{reader.line_num}"
            u, p = row.get("user_id"), row.get("post_id")
            if not u or not p:
                raise DataError(f"{where}: user_id and post_id are required")
            if u not in user_ids:
                raise DataError(f"{where}: interaction references unknown user {u!r}")
            if p not in post_ids:
                raise DataError(f"{where}: interaction references unknown post {p!r}")
            edges.append((u, p))
    graph = InteractionGraph(users.user_ids, posts, edges)
    log.info(
        "loaded %d posts, %d users, %d interactions",
        graph.n_posts,
        graph.n_users,
        graph.n_edges,
    )
    return graph, users


def write_dataset(graph: InteractionGraph, users: UserAttributeTable, out_dir):
    """Write posts.csv / users.csv / interactions.csv under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    posts = ([p.post_id, p.author_id, int(p.is_hate), p.cluster or "", p.text or ""]
             for p in graph.posts)
    user_rows = ([u.user_id, int(u.verified), u.account_age_days, u.n_posts, u.n_followers,
                  u.n_friends] for u in users)
    for name, header, rows in (
        ("posts.csv", POSTS_COLUMNS, posts),
        ("users.csv", USERS_COLUMNS, user_rows),
        ("interactions.csv", INTERACTIONS_COLUMNS, graph.edges),
    ):
        with open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


def log_transform_attributes(table: UserAttributeTable) -> FeatureView:
    """Numeric feature view: verified as {0,1}, raw account age, ln(1+x) counts.

    The count attributes are heavily right-skewed, so they enter every model
    downstream on the log scale.
    """
    n = len(table)
    matrix = np.empty((n, len(FEATURE_COLUMNS)), dtype=np.float64)
    # math.log1p, not np.log1p: numpy's vectorized loop need not round like
    # the C library. With numpy 2.4.6 on an AVX-512 CPU the two differ in the
    # last bit on 19,144 of 1.2M lognormal integer counts, so vectorizing this
    # would change every feature matrix and every report.
    for i, row in enumerate(table):
        matrix[i, 0] = 1.0 if row.verified else 0.0
        matrix[i, 1] = float(row.account_age_days)
        matrix[i, 2] = math.log1p(row.n_posts)
        matrix[i, 3] = math.log1p(row.n_followers)
        matrix[i, 4] = math.log1p(row.n_friends)
    return FeatureView(user_ids=table.user_ids, columns=FEATURE_COLUMNS, matrix=matrix)


def _test_quota(sizes, ratio: float, n_edges: int) -> np.ndarray:
    """Largest-remainder allocation of per-user test-edge counts.

    Targets round(n_edges * (1 - ratio)) test edges overall while never taking
    the last train edge from any user; each user's count moves by at most one
    from its floor, largest remainders (then lowest index) first.
    """
    share = (1.0 - ratio) * np.asarray(sizes, dtype=np.float64)
    caps = np.maximum(np.asarray(sizes, dtype=np.int64) - 1, 0)
    quotas = np.minimum(caps, share.astype(np.int64))
    remainders = share - quotas
    deficit = min(int(round(n_edges * (1.0 - ratio))), int(caps.sum())) - int(quotas.sum())
    if deficit > 0:
        order = np.argsort(-remainders, kind="stable")
        quotas[order[quotas[order] < caps[order]][:deficit]] += 1
    elif deficit < 0:
        order = np.argsort(remainders, kind="stable")
        quotas[order[quotas[order] > 0][:-deficit]] -= 1
    return quotas


def split(graph: InteractionGraph, mode: str, ratio: float, seed: int) -> SplitPair:
    """Partition a graph into train/test, deterministically for a given seed.

    by-edge: each user's edges are partitioned; every user keeps at least one
    train edge, and the global train/test counts follow the ratio exactly when
    feasible. by-user: the user-id set is partitioned.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if graph.n_edges == 0:
        raise DataError("cannot split a graph with zero edges")
    rng = np.random.default_rng(seed)
    if mode == "by-edge":
        ptr = graph.indptr
        sizes = np.diff(ptr)
        users_with_edges = np.flatnonzero(sizes)
        quotas = _test_quota(sizes[users_with_edges], ratio, graph.n_edges)
        is_test = np.zeros(graph.n_edges, dtype=bool)
        for i, q in zip(users_with_edges.tolist(), quotas.tolist()):
            order = rng.permutation(int(sizes[i]))
            is_test[ptr[i] + order[:q]] = True
        eu, ep = graph.edge_arrays
        train, test = (
            InteractionGraph.from_indices(graph.users, graph.posts, eu[mask], ep[mask])
            for mask in (~is_test, is_test)
        )
        return SplitPair(train=train, test=test)
    if mode == "by-user":
        users = list(graph.users)
        order = rng.permutation(len(users))
        n_train = int(round(ratio * len(users)))
        n_train = min(max(n_train, 1), len(users) - 1)
        train_ids = frozenset(users[i] for i in order[:n_train])
        test_ids = frozenset(users[i] for i in order[n_train:])
        return SplitPair(train=train_ids, test=test_ids)
    raise ValueError(f"unknown split mode {mode!r}")
