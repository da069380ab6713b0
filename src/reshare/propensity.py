"""Exposure-probability estimators for posts, with smoothing and clipping.

Four schemes: the raw interaction rate (biased), two popularity-normalized
estimators (reshare counts, follower-weighted reshare counts) raised to a
smoothing exponent, and a content-based estimator that maps topic mixtures
through a fitted affine-sigmoid onto the popularity target. All outputs are
clipped into [floor, 1] to bound the variance of downstream inverse-weighting.
A table holds the post ids of the graph it was estimated on and a theta array
aligned with them; trainers check that alignment once and then index the
array with the graph's post indices.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import InteractionGraph, UserAttributeTable, index_of
from .errors import DataError

DEFAULT_FLOOR = 1e-3
DEFAULT_MU = 0.5


@dataclass(frozen=True, eq=False)
class PropensityTable:
    """Per-post estimated exposure probability, clipped to [floor, 1].

    ``theta[i]`` belongs to ``post_ids[i]``; tables built from a graph follow
    its post order, so trainers index ``theta`` with the graph's post indices.
    """

    scheme: str
    mu: float | None
    floor: float
    post_ids: tuple[str, ...]
    theta: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=np.float64)
        if theta.shape != (len(self.post_ids),):
            raise DataError("propensity table needs one theta per post")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    def __getitem__(self, post_id: str) -> float:
        return float(self.theta[self.post_ids.index(post_id)])

    def theta_for(self, graph: InteractionGraph) -> np.ndarray:
        """``theta``, after checking that the table was built on the graph's posts."""
        if self.post_ids != graph.post_ids:
            raise DataError(
                f"{self.scheme} propensity table was built on other posts than the graph"
            )
        return self.theta


def _clip(theta: np.ndarray, floor: float) -> np.ndarray:
    return np.clip(theta, floor, 1.0)


def _table(scheme, mu, floor, graph, theta) -> PropensityTable:
    return PropensityTable(scheme, mu, floor, graph.post_ids, _clip(theta, floor))


def biased_propensity(graph: InteractionGraph, floor: float = DEFAULT_FLOOR) -> PropensityTable:
    """Observed interaction rate: resharing users over all users, clipped."""
    if graph.n_users == 0 or graph.n_posts == 0:
        raise DataError("empty graph")
    return _table("biased", None, floor, graph, graph.reshare_counts() / graph.n_users)


def virality_propensity(
    graph: InteractionGraph, mu: float = DEFAULT_MU, floor: float = DEFAULT_FLOOR
) -> PropensityTable:
    """Normalized reshare count raised to the smoothing exponent mu."""
    if not (0.0 < mu <= 1.0):
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    counts = graph.reshare_counts().astype(np.float64)
    top = counts.max() if counts.size else 0.0
    if top <= 0:
        raise DataError("virality propensity undefined: no reshares in graph")
    return _table("virality", mu, floor, graph, (counts / top) ** mu)


def follower_propensity(
    graph: InteractionGraph,
    users: UserAttributeTable,
    mu: float = DEFAULT_MU,
    floor: float = DEFAULT_FLOOR,
) -> PropensityTable:
    """Follower-weighted reshare mass, normalized by its max and smoothed by mu.

    Every user of the graph needs a row in ``users``."""
    if not (0.0 < mu <= 1.0):
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    rows, found = index_of(users.user_ids, graph.users)
    if not found.all():
        uid = graph.users[int(np.argmin(found))]
        raise DataError(f"no follower count for graph user {uid!r}: not in the user table")
    followers = np.array([r.n_followers for r in users], dtype=np.float64)
    uidx, pidx = graph.edge_arrays
    mass = np.bincount(pidx, weights=followers[rows][uidx], minlength=graph.n_posts)
    top = mass.max() if mass.size else 0.0
    if top <= 0:
        raise DataError("follower propensity undefined: no follower-weighted reshares")
    return _table("follower", mu, floor, graph, (mass / top) ** mu)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def neural_propensity(
    topic_vectors: tuple,
    graph: InteractionGraph,
    mu: float = DEFAULT_MU,
    floor: float = DEFAULT_FLOOR,
) -> PropensityTable:
    """Affine-sigmoid map from topic mixtures to the popularity target.

    ``topic_vectors`` is a ``(post_ids, matrix)`` pair whose (posts, K) matrix
    has one row per id, in any order; it may hold more posts than the graph.
    The weights solve an exact least-squares problem against logit-transformed
    virality propensities of the graph's posts, so posts with similar content
    receive similar exposure estimates.
    """
    target = virality_propensity(graph, mu=mu, floor=floor)
    post_ids, vectors = topic_vectors
    rows, found = index_of(post_ids, graph.post_ids)
    if not found.all():
        missing = [p for p, ok in zip(graph.post_ids, found) if not ok]
        raise DataError(f"missing topic vector for posts {missing[:5]!r}")
    embed = np.asarray(vectors, dtype=np.float64)[rows]
    t = np.clip(target.theta, floor, 1.0 - 1e-7)
    z = np.log(t) - np.log1p(-t)
    design = np.hstack([embed, np.ones((embed.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    return _table("neural", mu, floor, graph, _sigmoid(design @ coef))
