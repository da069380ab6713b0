import numpy as np
import pytest

from reshare.dataset import Post
from reshare.errors import ConfigError, DataError
from reshare.synthgen import (
    EffectShape,
    SynthConfig,
    generate,
    sample_interest_graph,
    write_effects_truth,
    write_truth,
)

from conftest import graph_from_pairs


class TestConfig:
    def test_degenerate_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_users=0)
        with pytest.raises(ConfigError):
            SynthConfig(n_hate_posts=50, n_posts=20)
        with pytest.raises(ConfigError):
            SynthConfig(noise_sd=-1.0)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown"):
            SynthConfig.from_dict({"n_users": 5, "wat": 1})

    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigError, match="shape"):
            EffectShape(attribute="verified", shape="wiggle")


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(n_users=50, n_posts=40, n_hate_posts=10, seed=7)
        g1, u1, t1 = generate(cfg)
        g2, u2, t2 = generate(cfg)
        assert g1 == g2
        assert u1 == u2
        assert np.array_equal(t1.exposure, t2.exposure)
        assert np.array_equal(t1.interest, t2.interest)

    def test_zero_exponent_gives_uniform_exposure(self):
        cfg = SynthConfig(n_users=30, n_posts=20, n_hate_posts=5, exposure_exponent=0.0, seed=1)
        _, _, truth = generate(cfg)
        assert np.all(truth.exposure == 1.0)

    def test_certain_exposure_and_interest_fills_graph(self):
        # flat popularity, affinity 1, activity sized so every iota is exactly 1
        cfg = SynthConfig(
            n_users=12,
            n_posts=10,
            n_hate_posts=4,
            n_clusters=2,
            exposure_exponent=0.0,
            popularity_spread=0.0,
            cluster_affinity=1.0,
            cluster_virality_lift=0.0,
            mean_shares=10.0,
            share_spread=0.0,
            base_hate_rate=0.4,
            noise_sd=0.0,
            latent_outcome_strength=0.0,
            seed=3,
        )
        graph, _, truth = generate(cfg)
        assert np.allclose(truth.interest, 1.0)
        assert np.all(truth.exposure == 1.0)
        assert graph.n_edges == 12 * 10

    def test_user_independent_exposure_is_a_read_only_row_view(self):
        cfg = SynthConfig(n_users=30, n_posts=20, n_hate_posts=5, seed=2)
        assert not cfg.follower_weighted_exposure
        _, _, truth = generate(cfg)
        assert truth.exposure.shape == (30, 20)
        assert not truth.exposure.flags.writeable
        assert np.all(truth.exposure == truth.exposure[0])

    def test_truth_ranges(self):
        _, _, truth = generate(SynthConfig(n_users=40, n_posts=30, n_hate_posts=10, seed=5))
        assert np.all(truth.exposure > 0.0) and np.all(truth.exposure <= 1.0)
        assert np.all(truth.interest >= 0.0) and np.all(truth.interest <= 1.0)

    def test_edge_rate_law(self):
        """Per-pair empirical edge frequency stays within 3 binomial standard
        errors of exposure*interest for (almost) all pairs over 50 regenerations."""
        cfg = SynthConfig(n_users=1000, n_posts=200, n_hate_posts=60, seed=11, with_text=False)
        _, _, truth = generate(cfg)
        p = truth.exposure * truth.interest
        n_regen = 50
        counts = np.zeros_like(p)
        for r in range(n_regen):
            graph, _, _ = generate(cfg, edge_seed=10_000 + r)
            eu, ep = graph.edge_arrays
            counts[eu, ep] += 1.0
        freq = counts / n_regen
        se = np.sqrt(p * (1.0 - p) / n_regen)
        within = np.abs(freq - p) <= 3.0 * se + 1e-12
        assert within.mean() >= 0.985

    def test_outcome_targets_unbiased(self):
        """Edge sampling realizes the per-user expected hate fraction."""
        from reshare.outcomes import compute_outcomes

        cfg = SynthConfig(
            n_users=2000, n_posts=600, n_hate_posts=150, exposure_exponent=0.5,
            exposure_norm_quantile=0.9, mean_shares=50.0, seed=2, with_text=False,
        )
        graph, _, truth = generate(cfg)
        oc = compute_outcomes(graph)
        uidx = {u: i for i, u in enumerate(truth.user_ids)}
        resid = np.array(
            [oc.overall[j] - truth.hate_rate_target[uidx[u]] for j, u in enumerate(oc.user_ids)]
        )
        se = resid.std(ddof=1) / np.sqrt(resid.size)
        assert abs(resid.mean()) <= 4.0 * se

    def test_effect_curves_population_centered(self):
        spec = (
            EffectShape("log1p_n_followers", "u", 0.2),
            EffectShape("account_age_days", "step", 0.1),
        )
        cfg = SynthConfig(n_users=500, n_posts=60, n_hate_posts=20, effect_spec=spec, seed=4)
        _, users, truth = generate(cfg)
        from reshare.dataset import log_transform_attributes

        view = log_transform_attributes(users)
        for attr in ("log1p_n_followers", "account_age_days"):
            vals = truth.effect_curves[attr](view.column(attr))
            assert abs(vals.mean()) < 1e-9

    def test_follower_weighted_exposure_flag(self):
        cfg = SynthConfig(
            n_users=40, n_posts=30, n_hate_posts=10, follower_weighted_exposure=True, seed=6
        )
        _, _, truth = generate(cfg)
        # exposure varies across users for the same post
        assert np.ptp(truth.exposure[:, 0]) > 0.0
        assert np.all(truth.exposure <= 1.0)


class TestExports:
    def test_truth_files_round_trip_values(self, tmp_path):
        cfg = SynthConfig(n_users=15, n_posts=12, n_hate_posts=4, seed=8)
        _, _, truth = generate(cfg)
        path = write_truth(truth, tmp_path)
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15 * 12
        uidx = {u: i for i, u in enumerate(truth.user_ids)}
        pidx = {p: i for i, p in enumerate(truth.post_ids)}
        for row in rows[:50]:
            i, j = uidx[row["user_id"]], pidx[row["post_id"]]
            assert float(row["theta"]) == pytest.approx(truth.exposure[i, j], rel=1e-9)
            assert float(row["iota"]) == pytest.approx(truth.interest[i, j], rel=1e-9)

    def test_effects_truth_grid(self, tmp_path):
        spec = (EffectShape("log1p_n_posts", "linear", 0.1),)
        cfg = SynthConfig(n_users=60, n_posts=12, n_hate_posts=4, effect_spec=spec, seed=8)
        _, _, truth = generate(cfg)
        path = write_effects_truth(truth, tmp_path)
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        attrs = {r["attribute"] for r in rows}
        assert "log1p_n_posts" in attrs and "verified" in attrs
        ours = [r for r in rows if r["attribute"] == "log1p_n_posts"]
        assert len(ours) == 64
        xs = np.array([float(r["grid_x"]) for r in ours])
        ys = np.array([float(r["contribution"]) for r in ours])
        assert np.allclose(ys, truth.effect_curves["log1p_n_posts"](xs), atol=1e-9)


class TestInterestGraph:
    def test_excludes_train_pairs_and_scales(self):
        cfg = SynthConfig(n_users=80, n_posts=60, n_hate_posts=20, seed=10, with_text=False)
        graph, _, truth = generate(cfg)
        test = sample_interest_graph(truth, exclude=graph, per_user=5.0, seed=1)
        assert not (set(test.edges) & set(graph.edges))
        per_user = test.n_edges / test.n_users
        assert 2.0 < per_user < 9.0

    @staticmethod
    def reference_draw(truth, exclude, per_user, seed):
        """The draw with string-keyed lookups, over the columns of exclude's posts."""
        rng = np.random.default_rng(seed)
        cols = [truth.post_ids.index(p.post_id) for p in exclude.posts]
        prob = truth.interest[:, cols].copy()
        uidx = {u: i for i, u in enumerate(truth.user_ids)}
        pidx = {p.post_id: j for j, p in enumerate(exclude.posts)}
        for u, p in exclude.edges:
            prob[uidx[u], pidx[p]] = 0.0
        mass = prob.sum(axis=1, keepdims=True)
        mass[mass == 0.0] = 1.0
        prob = np.clip(prob * (per_user / mass), 0.0, 1.0)
        eu, ep = np.nonzero(rng.random(prob.shape) < prob)
        return tuple((truth.user_ids[i], exclude.posts[j].post_id) for i, j in zip(eu, ep))

    def test_full_and_hate_subgraph_match_reference(self):
        cfg = SynthConfig(n_users=80, n_posts=60, n_hate_posts=20, seed=10, with_text=False)
        graph, _, truth = generate(cfg)
        hate = graph.hate_subgraph()
        extra = Post(post_id="zz", author_id="u0000", is_hate=True, cluster="c0")
        for exclude in (graph, hate):
            drawn = sample_interest_graph(truth, exclude=exclude, per_user=3.0, seed=2)
            assert drawn.users == exclude.users and drawn.posts == exclude.posts
            assert drawn.edges == self.reference_draw(truth, exclude, 3.0, 2)
            assert drawn.n_edges > 0 and not (set(drawn.edges) & set(exclude.edges))
        assert {p for _, p in drawn.edges} <= {p.post_id for p in hate.posts}
        for users, posts in ((graph.users[1:], graph.posts), (graph.users, hate.posts + (extra,))):
            with pytest.raises(DataError):
                sample_interest_graph(truth, exclude=graph_from_pairs(users, posts, []))
