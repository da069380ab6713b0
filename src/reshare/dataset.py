"""Domain data model: posts, user attributes, the bipartite reshare graph, and splits.

All loaded structures are canonicalized (sorted by id) and immutable after
construction, so they are safe to share across threads and hash-stable for
deterministic downstream processing. String ids stay at the I/O boundary: the
reshare graph is built only from int64 index arrays into its user and post
tuples, sorted by id, and the user attribute table keeps one read-only array
per attribute, aligned with its sorted user ids; every stage downstream works
on those arrays. The three input CSVs go through one row reader, which
rejects a bad row (a field count other than the header's, an empty id)
naming its file and line, and a file that is not UTF-8 naming the file.
``load_dataset`` is the one place where (user id, post id) pairs become
indices, and it checks them once, naming the file and line of an unknown id
or a repeated pair.
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
COUNT_COLUMNS = ("account_age_days", "n_posts", "n_followers", "n_friends")
USERS_COLUMNS = ("user_id", "verified", *COUNT_COLUMNS)
INT64_MAX = int(np.iinfo(np.int64).max)
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


class UserAttributeTable:
    """Per-user attributes as columns, in user-id order: the ``user_ids``
    tuple, a read-only bool ``verified`` array and one read-only int64 array
    per count column (``COUNT_COLUMNS``)."""

    def __init__(self, user_ids, verified, account_age_days, n_posts, n_followers, n_friends):
        """Columns of one row per user, in any order; the rows are sorted by id.

        A negative count raises ``DataError`` naming the first such row in
        input order and its first negative column, then a repeated id raises
        naming the smallest."""
        ids = tuple(user_ids)
        flags = np.array(verified, dtype=bool).reshape(len(ids))
        counts = np.array([account_age_days, n_posts, n_followers, n_friends], dtype=np.int64)
        counts = counts.reshape(len(COUNT_COLUMNS), len(ids))
        negative = counts < 0
        if negative.any():
            row = int(np.argmax(negative.any(axis=0)))
            column = COUNT_COLUMNS[int(np.argmax(negative[:, row]))]
            raise DataError(f"user {ids[row]!r}: {column} must be >= 0")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.user_ids = tuple(ids[i] for i in order)
        for a, b in zip(self.user_ids, self.user_ids[1:]):
            if a == b:
                raise DataError(f"duplicate user_id {a!r}")
        self.verified, counts = flags[order], counts[:, order]
        self.verified.flags.writeable = counts.flags.writeable = False
        self.account_age_days, self.n_posts, self.n_followers, self.n_friends = counts

    def __len__(self) -> int:
        return len(self.user_ids)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UserAttributeTable)
            and self.user_ids == other.user_ids
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in USERS_COLUMNS[1:])
        )


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-user numeric features: one row of ``X`` per user id, one column per name."""

    user_ids: tuple[str, ...]
    columns: tuple[str, ...]
    X: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.columns.index(name)]


def index_of(ids, query) -> tuple[np.ndarray, np.ndarray]:
    """Row of each ``query`` id in ``ids``, given in any order (a repeated id gives its
    first row), and whether it is there; the row of a missing id means nothing."""
    query = np.asarray(query, dtype=str)
    keys, first = np.unique(np.asarray(ids, dtype=str), return_index=True)
    return np.append(first, 0)[np.searchsorted(keys, query)], np.isin(query, keys)


class InteractionGraph:
    """Bipartite user-by-post reshare graph; an edge (u, h) means u reshared h.

    The graph holds its ``users`` and ``posts`` sorted by id plus two int64
    edge arrays indexing them, sorted by (user index, post index); since
    indices follow sorted-id order, that is the order of the sorted (user id,
    post id) pairs. ``edges`` and ``edges_by_user`` are string views built on
    demand.
    """

    def __init__(self, users, posts, user_idx, post_idx):
        """Graph over ``users`` and ``posts`` sorted by id, with distinct edges
        given as index arrays into them, in any order.

        User or post ids that are not strictly increasing (unsorted or
        repeated) raise ``DataError`` naming the first offending pair."""
        self.users, self.posts = tuple(users), tuple(posts)
        for kind, ids in (("user", self.users), ("post", self.post_ids)):
            pair = next(((a, b) for a, b in zip(ids, ids[1:]) if a >= b), None)
            if pair:
                raise DataError(f"{kind} ids must be strictly increasing, got {pair[0]!r} "
                                f"before {pair[1]!r}")
        keys = np.asarray(user_idx, dtype=np.int64) * len(self.posts)
        keys = np.sort(keys + np.asarray(post_idx, dtype=np.int64))
        self.edge_arrays = divmod(keys, max(len(self.posts), 1))
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
        return InteractionGraph(
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
    if val > INT64_MAX:
        raise DataError(f"{where}: count must be <= {INT64_MAX}, got {val}")
    return val


def read_rows(path, columns, required):
    """Yield ``(where, row)`` per data row of the CSV at ``path``: ``where`` is
    ``<path>:<line>`` and ``row`` maps each header name to its field.

    Blank lines are skipped. Raises ``DataError`` on a missing file, a header
    without one of ``columns``, a row whose field count is not the header's,
    an empty ``required`` field, and a file that is not UTF-8."""
    if not os.path.exists(path):
        raise DataError(f"missing file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise DataError(f"{path}: header is missing columns {missing}")
            for fields in filter(None, reader):  # a blank line reads as []
                where = f"{path}:{reader.line_num}"
                if len(fields) != len(header):
                    raise DataError(f"{where}: expected {len(header)} fields, got {len(fields)}")
                row = dict(zip(header, fields))
                if not all(row[c] for c in required):
                    verb = "is" if len(required) == 1 else "are"
                    raise DataError(f"{where}: {' and '.join(required)} {verb} required")
                yield where, row
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_posts(path) -> list[Post]:
    posts, seen = [], {}
    for where, row in read_rows(path, POSTS_COLUMNS[:4], ("post_id", "author_id")):
        first = seen.setdefault(row["post_id"], where)
        if first is not where:
            raise DataError(f"{where}: duplicate post_id {row['post_id']!r}, first at {first}")
        is_hate = _parse_bool(row["is_hate"], where)
        try:
            posts.append(Post(post_id=row["post_id"], author_id=row["author_id"], is_hate=is_hate,
                              cluster=row["cluster"] or None, text=row.get("text") or None))
        except DataError as exc:  # a cluster on a post not flagged as hate
            raise DataError(f"{where}: {exc}") from None
    return posts


def load_users(path) -> UserAttributeTable:
    columns, seen = {name: [] for name in USERS_COLUMNS}, {}
    for where, row in read_rows(path, USERS_COLUMNS, ("user_id",)):
        first = seen.setdefault(row["user_id"], where)
        if first is not where:
            raise DataError(f"{where}: duplicate user_id {row['user_id']!r}, first at {first}")
        columns["user_id"].append(row["user_id"])
        columns["verified"].append(_parse_bool(row["verified"], where))
        for name in COUNT_COLUMNS:
            columns[name].append(_parse_count(row[name], where))
    return UserAttributeTable(*columns.values())


def load_dataset(posts_path, users_path, interactions_path):
    """Load and cross-validate the three input tables.

    Returns (InteractionGraph, UserAttributeTable). Raises DataError naming the
    offending file/row on any referential-integrity violation. This is the one
    place where (user id, post id) pairs become the graph's index arrays.
    """
    posts = sorted(load_posts(posts_path), key=lambda p: p.post_id)
    users = load_users(users_path)
    user_row = {u: i for i, u in enumerate(users.user_ids)}
    post_row = {p.post_id: j for j, p in enumerate(posts)}
    seen = {}  # (user row, post row) -> where, in input order
    for where, row in read_rows(interactions_path, INTERACTIONS_COLUMNS, INTERACTIONS_COLUMNS):
        u, p = row["user_id"], row["post_id"]
        if u not in user_row:
            raise DataError(f"{where}: interaction references unknown user {u!r}")
        if p not in post_row:
            raise DataError(f"{where}: interaction references unknown post {p!r}")
        first = seen.setdefault((user_row[u], post_row[p]), where)
        if first is not where:
            raise DataError(f"{where}: duplicate interaction {(u, p)!r}, first at {first}")
    user_idx, post_idx = np.array(list(seen), dtype=np.int64).reshape(-1, 2).T
    graph = InteractionGraph(users.user_ids, posts, user_idx, post_idx)
    log.info(
        "loaded %d posts, %d users, %d interactions",
        graph.n_posts,
        graph.n_users,
        graph.n_edges,
    )
    return graph, users


def write_dataset(graph: InteractionGraph, users: UserAttributeTable, out_dir) -> list:
    """Write posts.csv / users.csv / interactions.csv under out_dir; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    posts = ([p.post_id, p.author_id, int(p.is_hate), p.cluster or "", p.text or ""]
             for p in graph.posts)
    user_rows = zip(users.user_ids, users.verified.astype(np.int64).tolist(),
                    *(getattr(users, name).tolist() for name in COUNT_COLUMNS))
    paths = []
    for name, header, rows in (
        ("posts.csv", POSTS_COLUMNS, posts),
        ("users.csv", USERS_COLUMNS, user_rows),
        ("interactions.csv", INTERACTIONS_COLUMNS, graph.edges),
    ):
        paths.append(os.path.join(out_dir, name))
        with open(paths[-1], "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    return paths


def log_transform_attributes(table: UserAttributeTable) -> FeatureMatrix:
    """Numeric features: verified as {0,1}, raw account age, ln(1+x) counts.

    The count attributes are heavily right-skewed, so they enter every model
    downstream on the log scale.
    """
    # math.log1p, not np.log1p: numpy's vectorized loop need not round like
    # the C library. With numpy 2.4.6 on an AVX-512 CPU the two differ in the
    # last bit on 19,144 of 1.2M lognormal integer counts, so vectorizing this
    # would change every feature matrix and every report.
    logs = [[math.log1p(v) for v in counts.tolist()]
            for counts in (table.n_posts, table.n_followers, table.n_friends)]
    matrix = np.column_stack([table.verified, table.account_age_days, *logs])  # float64
    return FeatureMatrix(user_ids=table.user_ids, columns=FEATURE_COLUMNS, X=matrix)


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
            InteractionGraph(graph.users, graph.posts, eu[mask], ep[mask])
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
