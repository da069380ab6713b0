"""Synthetic dataset generator with known exposure/interest ground truth.

The generator samples every user-post edge as Bernoulli(exposure * interest),
so observation is missing-not-at-random by construction. Interest mass is
normalized per user so that the expected hate fraction of a user's shares
equals a known additive function of their attributes: the contribution curves
used for generation are exported and serve as the oracle for effect-recovery
tests. Post exposure follows normalized popularity raised to a configurable
exponent, which makes the popularity-based propensity estimator consistent
when its smoothing exponent matches the generator's.
"""

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .dataset import (
    FEATURE_COLUMNS,
    InteractionGraph,
    Post,
    UserAttributeTable,
    index_of,
    log_transform_attributes,
    replacing,
    write_rows,
)
from .errors import ConfigError, DataError, read_config

SHAPES = ("zero", "linear", "step", "u", "sin")

VERIFIED_RATE = 0.05
FOLLOWER_EXPOSURE_EXPONENT = 0.25  # reach ~ (followers / max followers) ** this
VOCAB_SIZE = 300
MEAN_TOKENS = 16.0
TRUTH_GRID = 64  # points of each attribute's curve in effects_truth.csv


@dataclass(frozen=True)
class EffectShape:
    """Named ground-truth contribution shape for one user attribute."""

    attribute: str
    shape: str
    amplitude: float = 0.05

    def __post_init__(self):
        if self.attribute not in FEATURE_COLUMNS:
            raise ConfigError(f"effect_spec: unknown attribute {self.attribute!r}")
        if self.shape not in SHAPES:
            raise ConfigError(f"effect_spec: unknown shape {self.shape!r}")


@dataclass(frozen=True)
class EffectCurve:
    """Evaluable, population-centered version of one EffectShape."""

    attribute: str
    shape: str
    amplitude: float
    lo: float
    hi: float
    center: float
    data_min: float
    data_max: float

    def _raw(self, x: np.ndarray) -> np.ndarray:
        if self.shape == "zero" or self.amplitude == 0.0:
            return np.zeros_like(x, dtype=np.float64)
        if self.hi > self.lo:
            u = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        else:
            u = np.full_like(x, 0.5, dtype=np.float64)
        if self.shape == "linear":
            return self.amplitude * (2.0 * u - 1.0)
        if self.shape == "step":
            return self.amplitude * np.where(u > 0.5, 1.0, -1.0)
        if self.shape == "u":
            return self.amplitude * ((2.0 * u - 1.0) ** 2 - 0.5)
        if self.shape == "sin":
            return self.amplitude * np.sin(2.0 * math.pi * u)
        raise AssertionError(self.shape)

    def __call__(self, x) -> np.ndarray:
        return self._raw(np.asarray(x, dtype=np.float64)) - self.center

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        if self.data_max > self.data_min:
            xs = np.linspace(self.data_min, self.data_max, TRUTH_GRID)
        else:
            xs = np.array([self.data_min])
        return xs, self(xs)

    @staticmethod
    def build(spec: EffectShape, column: np.ndarray) -> "EffectCurve":
        col = np.asarray(column, dtype=np.float64)
        if spec.attribute == "verified":
            lo, hi = 0.0, 1.0
        else:
            lo, hi = float(np.quantile(col, 0.05)), float(np.quantile(col, 0.95))
        tmp = EffectCurve(
            attribute=spec.attribute,
            shape=spec.shape,
            amplitude=spec.amplitude,
            lo=lo,
            hi=hi,
            center=0.0,
            data_min=float(col.min()),
            data_max=float(col.max()),
        )
        center = float(np.mean(tmp._raw(col)))
        return dataclasses.replace(tmp, center=center)


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 1000
    n_posts: int = 400
    n_hate_posts: int = 120
    n_clusters: int = 4
    exposure_exponent: float = 1.0
    effect_spec: tuple[EffectShape, ...] = ()
    noise_sd: float = 0.0
    seed: int = 0
    # generation knobs beyond the core contract
    base_hate_rate: float = 0.3
    mean_shares: float = 40.0
    share_spread: float = 0.25
    popularity_spread: float = 1.0
    # exposure normalizer: 1.0 divides popularity by its max; lower values
    # divide by that quantile (capping at 1), which keeps the average exposure
    # healthy under heavy-tailed popularity
    exposure_norm_quantile: float = 1.0
    cluster_affinity: float = 3.0
    # hate clusters get geometrically spaced intrinsic virality so content
    # weakly predicts popularity; 0 keeps all clusters level
    cluster_virality_lift: float = 0.5
    latent_outcome_strength: float = 0.0
    follower_weighted_exposure: bool = False
    with_text: bool = True

    def __post_init__(self):
        if self.n_users < 1 or self.n_posts < 1:
            raise ConfigError("n_users and n_posts must be positive")
        if not (0 <= self.n_hate_posts <= self.n_posts):
            raise ConfigError("n_hate_posts must be in [0, n_posts]")
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be positive")
        for name in ("noise_sd", "exposure_exponent", "popularity_spread", "share_spread",
                     "cluster_virality_lift"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not (0.0 < self.base_hate_rate < 1.0):
            raise ConfigError("base_hate_rate must be in (0, 1)")
        if self.mean_shares <= 0:
            raise ConfigError("mean_shares must be positive")
        if self.cluster_affinity < 1.0:
            raise ConfigError("cluster_affinity must be >= 1")
        if not (0.0 < self.exposure_norm_quantile <= 1.0):
            raise ConfigError("exposure_norm_quantile must be in (0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @staticmethod
    def from_dict(d: dict) -> "SynthConfig":
        return read_config(SynthConfig, d, "synth config")


@dataclass
class SyntheticTruth:
    """Dense per-pair ground truth plus the generating effect curves."""

    user_ids: tuple[str, ...]
    post_ids: tuple[str, ...]
    exposure: np.ndarray  # (n_users, n_posts), in (0, 1]; read-only if user-independent
    interest: np.ndarray  # (n_users, n_posts), in [0, 1]
    effect_curves: dict[str, EffectCurve]
    hate_rate_target: np.ndarray  # per-user expected hate fraction of shares
    user_blocks: np.ndarray


def _ids(prefix: str, n: int) -> tuple[str, ...]:
    width = max(4, len(str(n - 1)))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(n))


def _post_text(rng, cluster_group: int, n_groups: int):
    group_size = VOCAB_SIZE // (n_groups + 1)
    shared_start = group_size * n_groups
    length = 5 + int(rng.poisson(MEAN_TOKENS - 5.0))
    own = rng.integers(cluster_group * group_size, (cluster_group + 1) * group_size, length)
    shared = rng.integers(shared_start, VOCAB_SIZE, length)
    pick_shared = rng.random(length) < 0.2
    tokens = np.where(pick_shared, shared, own)
    return " ".join(f"w{t:04d}" for t in tokens)


def generate(config: SynthConfig, edge_seed: int | None = None):
    """Build (InteractionGraph, UserAttributeTable, SyntheticTruth) from a config.

    ``edge_seed`` reseeds only the edge-sampling stream, leaving attributes,
    posts, exposure and interest identical; used by Monte-Carlo checks that
    resample observations against fixed ground truth.
    """
    ss = np.random.SeedSequence(config.seed)
    s_users, s_posts, s_edges, s_text = ss.spawn(4)
    rng_u = np.random.default_rng(s_users)
    rng_p = np.random.default_rng(s_posts)
    n_u, n_p, n_h = config.n_users, config.n_posts, config.n_hate_posts

    user_ids = _ids("u", n_u)
    post_ids = _ids("p", n_p)

    verified = rng_u.random(n_u) < VERIFIED_RATE
    age = np.clip(rng_u.normal(3585.0, 830.0, n_u), 30.0, None).astype(np.int64)
    posts_attr = rng_u.lognormal(math.log(24465.0), 1.3, n_u).astype(np.int64)
    followers = rng_u.lognormal(math.log(546.0), 1.5, n_u).astype(np.int64)
    friends = rng_u.lognormal(math.log(491.0), 1.2, n_u).astype(np.int64)
    users = UserAttributeTable(user_ids, verified, age, posts_attr, followers, friends)
    feats = log_transform_attributes(users)

    curves: dict[str, EffectCurve] = {}
    declared = {s.attribute: s for s in config.effect_spec}
    contrib = np.zeros(n_u)
    for attr in FEATURE_COLUMNS:
        spec = declared.get(attr, EffectShape(attribute=attr, shape="zero", amplitude=0.0))
        curve = EffectCurve.build(spec, feats.column(attr))
        curves[attr] = curve
        contrib += curve(feats.column(attr))

    n_blocks = config.n_clusters  # user block b prefers hate cluster b
    blocks = rng_u.integers(0, n_blocks, n_u)
    latent = config.latent_outcome_strength * (((blocks + 0.5) / n_blocks) - 0.5) * 2.0
    noise = config.noise_sd * rng_u.standard_normal(n_u) if config.noise_sd > 0 else 0.0
    hate_rate = np.clip(config.base_hate_rate + contrib + latent + noise, 0.02, 0.98)

    # posts: hate flags, clusters, popularity and exposure
    hate_mask = np.zeros(n_p, dtype=bool)
    hate_mask[rng_p.permutation(n_p)[:n_h]] = True
    cluster_of = np.full(n_p, -1, dtype=np.int64)
    cluster_of[hate_mask] = rng_p.integers(0, config.n_clusters, n_h)
    virality_mult = np.ones(n_p)
    virality_mult[hate_mask] = 1.0 + config.cluster_virality_lift * cluster_of[hate_mask]
    popularity = rng_p.lognormal(0.0, config.popularity_spread, n_p) * virality_mult
    if config.exposure_norm_quantile >= 1.0:
        popularity /= popularity.max()
    else:
        popularity /= np.quantile(popularity, config.exposure_norm_quantile)
    theta_post = np.minimum(1.0, popularity**config.exposure_exponent)
    if config.follower_weighted_exposure:
        reach = ((1.0 + followers) / (1.0 + followers.max())) ** FOLLOWER_EXPOSURE_EXPONENT
        exposure = theta_post[None, :] * reach[:, None]
    else:
        exposure = np.broadcast_to(theta_post[None, :], (n_u, n_p))

    # interest: per-post base pull proportional to popularity^(1-e); per-user
    # mass split between hate and normal sides so E[hate share] = hate_rate
    base_pull = popularity ** (1.0 - config.exposure_exponent)
    base_pull = base_pull / base_pull.max()
    activity = config.mean_shares * rng_u.lognormal(0.0, config.share_spread, n_u)
    activity /= math.exp(0.5 * config.share_spread**2)

    # balanced block-cluster preference: constant row/column sums keep the
    # per-post expected interest mass flat across clusters
    affinity = np.ones((n_blocks, n_blocks))
    np.fill_diagonal(affinity, config.cluster_affinity)
    hate_cols = np.flatnonzero(hate_mask)
    norm_cols = np.flatnonzero(~hate_mask)
    interest = np.zeros((n_u, n_p))
    if hate_cols.size:
        aff_rows = affinity[blocks][:, cluster_of[hate_cols]]  # (n_u, n_hate)
        hate_w = theta_post[hate_cols] * base_pull[hate_cols]
        hate_mass = aff_rows @ hate_w  # per-user exposure-weighted hate interest mass
        share = activity if norm_cols.size == 0 else activity * hate_rate
        interest[:, hate_cols] = (share / hate_mass)[:, None] * (
            base_pull[hate_cols][None, :] * aff_rows
        )
    if norm_cols.size:
        norm_mass = float(np.sum(theta_post[norm_cols] * base_pull[norm_cols]))
        share = activity if hate_cols.size == 0 else activity * (1.0 - hate_rate)
        interest[:, norm_cols] = (share / norm_mass)[:, None] * base_pull[norm_cols][None, :]
    # feasibility: probabilities cannot exceed 1. Rescaling the whole row (not
    # clipping single entries) lowers the user's activity but preserves the
    # hate/normal interest ratio, so E[hate fraction] stays exactly on target.
    row_max = interest.max(axis=1)
    rescaled = row_max > 1.0
    interest[rescaled] /= row_max[rescaled, None]

    rng_e = np.random.default_rng(s_edges if edge_seed is None else edge_seed)
    mask = rng_e.random((n_u, n_p)) < exposure * interest
    eu, ep = np.nonzero(mask)

    rng_t = np.random.default_rng(s_text)
    author_ids = rng_p.integers(0, n_u, n_p)
    posts = []
    for j in range(n_p):
        hate = bool(hate_mask[j])
        text = None
        if config.with_text:
            group = int(cluster_of[j]) if hate else config.n_clusters
            text = _post_text(rng_t, group, config.n_clusters + 1)
        posts.append(
            Post(
                post_id=post_ids[j],
                author_id=user_ids[int(author_ids[j])],
                is_hate=hate,
                cluster=f"c{cluster_of[j]}" if hate else None,
                text=text,
            )
        )

    graph = InteractionGraph(user_ids, posts, eu, ep)
    truth = SyntheticTruth(
        user_ids=user_ids,
        post_ids=post_ids,
        exposure=exposure,
        interest=interest,
        effect_curves=curves,
        hate_rate_target=hate_rate,
        user_blocks=blocks,
    )
    return graph, users, truth


def sample_interest_graph(
    truth: SyntheticTruth,
    exclude: InteractionGraph,
    per_user: float = 10.0,
    seed: int = 0,
) -> InteractionGraph:
    """Draw an exposure-free evaluation graph from true interest.

    Only the posts of ``exclude`` are drawn over, so it may be a subgraph such
    as the hate subgraph. Pairs already present in ``exclude`` are never
    drawn, and per-user inclusion probabilities are scaled so the expected
    number of drawn posts per user is roughly ``per_user``. This emulates
    asking each user about posts shown uniformly at random, which is the
    evaluation a debiased ranker should win.
    """
    if exclude.users != truth.user_ids:
        raise DataError("exclude graph must have the truth's users")
    cols, found = index_of(truth.post_ids, exclude.post_ids)
    if not found.all():
        raise DataError("exclude graph has posts the truth does not know")
    rng = np.random.default_rng(seed)
    prob = truth.interest[:, cols]
    prob[exclude.edge_arrays] = 0.0
    mass = prob.sum(axis=1, keepdims=True)
    mass[mass == 0.0] = 1.0
    np.clip(prob * (per_user / mass), 0.0, 1.0, out=prob)
    mask = rng.random(prob.shape) < prob
    return InteractionGraph(exclude.users, exclude.posts, *np.nonzero(mask))


def write_truth(truth: SyntheticTruth, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "truth.csv")
    with replacing(path) as fh:
        fh.write("user_id,post_id,theta,iota\n")
        for uid, th, io in zip(truth.user_ids, truth.exposure, truth.interest):
            fh.write("".join(f"{uid},{pid},{th[j]:.10g},{io[j]:.10g}\n"
                             for j, pid in enumerate(truth.post_ids)))
    return path


def write_effects_truth(truth: SyntheticTruth, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "effects_truth.csv")
    write_rows(path, ["attribute", "grid_x", "contribution"], (
        [attr, f"{x:.10g}", f"{y:.10g}"]
        for attr in FEATURE_COLUMNS
        for x, y in zip(*truth.effect_curves[attr].grid())
    ))
    return path
