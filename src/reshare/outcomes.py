"""Per-user reshare-probability outcomes, overall and per hate cluster."""

import logging
from dataclasses import dataclass

import numpy as np

from .dataset import InteractionGraph

log = logging.getLogger(__name__)

UNLABELED = "unlabeled"


@dataclass
class OutcomeTable:
    """Hate-share fractions per user; rows cover only users with >= 1 share."""

    user_ids: tuple[str, ...]
    clusters: tuple[str, ...]
    overall: np.ndarray  # fraction of the user's shares that were hateful
    by_cluster: np.ndarray  # (n_users, n_clusters), rows sum to overall
    n_hate: np.ndarray
    n_normal: np.ndarray
    n_excluded: int
    n_unlabeled_hate_posts: int

    @property
    def user_index(self) -> dict:
        if not hasattr(self, "_uidx"):
            self._uidx = {u: i for i, u in enumerate(self.user_ids)}
        return self._uidx

    def y(self, user_id: str) -> float:
        return float(self.overall[self.user_index[user_id]])

    def y_cluster(self, user_id: str, cluster: str) -> float:
        return float(self.by_cluster[self.user_index[user_id], self.clusters.index(cluster)])

    def target(self, name: str) -> np.ndarray:
        """The outcome ``name`` ("overall" or a cluster) of every user, in row order."""
        if name == "overall":
            return self.overall
        if name not in self.clusters:
            raise ValueError(f"unknown target cluster {name!r}; have {self.clusters}")
        return self.by_cluster[:, self.clusters.index(name)]


def compute_outcomes(graph: InteractionGraph) -> OutcomeTable:
    """Count each user's hate vs normal shares and per-cluster hate shares.

    Hate posts without a cluster label fall into an "unlabeled" catch-all (and
    are counted), so per-cluster fractions always sum to the overall fraction.
    Users with zero shares are excluded rather than given a 0/0 outcome.
    """
    hate_posts = [p for p in graph.posts if p.is_hate]
    labels = [UNLABELED if p.cluster is None else p.cluster for p in hate_posts]
    n_unlabeled = sum(p.cluster is None for p in hate_posts)
    if n_unlabeled:
        log.warning("%d hate posts without cluster label; using %r", n_unlabeled, UNLABELED)
    clusters = tuple(sorted(set(labels)))
    n_c = len(clusters)
    is_hate = np.array([p.is_hate for p in graph.posts], dtype=bool)
    cluster_of = np.zeros(graph.n_posts, dtype=np.int64)
    cluster_of[is_hate] = np.searchsorted(clusters, labels)

    eu, ep = graph.edge_arrays
    on_hate = is_hate[ep]
    n_shares = np.bincount(eu, minlength=graph.n_users)
    sharers = np.flatnonzero(n_shares)
    total = n_shares[sharers]
    n_hate = np.bincount(eu[on_hate], minlength=graph.n_users)[sharers]
    cells = eu[on_hate] * n_c + cluster_of[ep[on_hate]]
    per_cluster = np.bincount(cells, minlength=graph.n_users * n_c)
    per_cluster = per_cluster.reshape(graph.n_users, n_c)[sharers]
    overall = n_hate / total
    by_cluster = per_cluster / total[:, None]
    n_excluded = graph.n_users - sharers.size
    if n_excluded:
        log.info("excluded %d users with zero shares from outcomes", n_excluded)
    return OutcomeTable(
        user_ids=tuple(graph.users[i] for i in sharers.tolist()),
        clusters=clusters,
        overall=overall,
        by_cluster=by_cluster,
        n_hate=n_hate,
        n_normal=total - n_hate,
        n_excluded=n_excluded,
        n_unlabeled_hate_posts=n_unlabeled,
    )
