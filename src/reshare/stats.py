"""Shared statistics: the logistic sigmoid, RMSE, Welch's t-test, DBSCAN, and
silhouette score.

Everything here is dependency-free (math + numpy). The Student-t tail needed
by the Welch test is evaluated through a continued-fraction regularized
incomplete beta targeting 1e-12 accuracy.
"""

import math
from dataclasses import dataclass

import numpy as np

NOISE = -1


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), evaluated without overflow at extreme values.

    ``exp`` only ever sees ``-|z|``, taken as ``minimum(z, -z)`` so that a NaN
    keeps its sign bit; each branch is ``1 / (1 + exp(-z))`` or
    ``exp(z) / (1 + exp(z))`` on its own side of zero."""
    e = np.exp(np.minimum(z, -z))
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)


def rmse(pred, actual) -> float:
    p = np.asarray(pred, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.shape != a.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {a.shape}")
    if p.size == 0:
        raise ValueError("rmse of empty input")
    return float(np.sqrt(np.mean((p - a) ** 2)))


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p: float
    degenerate: bool = False


def _betacf(a: float, b: float, x: float) -> float:
    # Lentz's continued fraction for the incomplete beta, as in the classic
    # numerical formulation; converges quickly for x < (a+1)/(a+b+2).
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """One-sided upper tail P(T > t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return tail if t >= 0 else 1.0 - tail


def welch_t_test(a, b) -> WelchResult:
    """Two-sided Welch's t-test with Welch-Satterthwaite degrees of freedom."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = a.size, b.size
    if na < 2 or nb < 2:
        raise ValueError("each sample needs at least 2 observations")
    ma, mb = float(np.mean(a)), float(np.mean(b))
    va, vb = float(np.var(a, ddof=1)), float(np.var(b, ddof=1))
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return WelchResult(t=0.0, df=float(na + nb - 2), p=1.0, degenerate=True)
        t = math.inf if ma > mb else -math.inf
        return WelchResult(t=t, df=float(na + nb - 2), p=0.0, degenerate=True)
    se2 = va / na + vb / nb
    t = (ma - mb) / math.sqrt(se2)
    df = se2 * se2 / (
        (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
    )
    p = 2.0 * student_t_sf(abs(t), df)
    return WelchResult(t=t, df=df, p=min(p, 1.0))


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    sq = np.sum(points * points, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def dbscan(points, eps: float, min_pts: int) -> np.ndarray:
    """Density-based clustering with Euclidean distance.

    Returns an int label per point; NOISE (-1) marks points that are neither
    core nor within eps of a core. Border points are assigned to the cluster
    of their nearest core neighbor, which makes the labeling invariant to
    input order up to label permutation (barring exact distance ties).
    """
    if not eps > 0:  # NaN too
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if n == 0:
        raise ValueError("dbscan on empty input")
    dist = _pairwise_distances(pts)
    within = dist <= eps
    n_neighbors = within.sum(axis=1)  # includes self
    core = n_neighbors >= min_pts
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for start in range(n):
        if not core[start] or labels[start] != NOISE:
            continue
        # flood-fill the density-connected component of core points
        stack = [start]
        labels[start] = cluster
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(within[i]):
                if core[j] and labels[j] == NOISE:
                    labels[j] = cluster
                    stack.append(int(j))
        cluster += 1
    core_idx = np.flatnonzero(core)
    if core_idx.size:
        for i in range(n):
            if core[i] or labels[i] != NOISE:
                continue
            d_to_cores = dist[i, core_idx]
            reachable = d_to_cores <= eps
            if np.any(reachable):
                nearest = core_idx[reachable][np.argmin(d_to_cores[reachable])]
                labels[i] = labels[nearest]
    return labels


def silhouette(points, labels) -> float:
    """Mean silhouette (b - a) / max(a, b) over non-noise points.

    Noise points are excluded entirely; singleton clusters contribute 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    labels = np.asarray(labels, dtype=np.int64)
    if pts.shape[0] != labels.shape[0]:
        raise ValueError("points and labels length mismatch")
    keep = labels != NOISE
    cluster_ids = np.unique(labels[keep])
    if cluster_ids.size < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    dist = _pairwise_distances(pts)
    members = {c: np.flatnonzero(labels == c) for c in cluster_ids}
    scores = []
    for c in cluster_ids:
        idx = members[c]
        for i in idx:
            if idx.size == 1:
                scores.append(0.0)
                continue
            a = float(np.sum(dist[i, idx]) / (idx.size - 1))
            b = min(
                float(np.mean(dist[i, members[other]]))
                for other in cluster_ids
                if other != c
            )
            denom = max(a, b)
            scores.append(0.0 if denom == 0.0 else (b - a) / denom)
    return float(np.mean(scores))
