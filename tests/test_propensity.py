import numpy as np
import pytest

from reshare.dataset import Post
from reshare.errors import DataError
from reshare.propensity import (
    biased_propensity,
    follower_propensity,
    neural_propensity,
    virality_propensity,
)
from reshare.synthgen import SynthConfig, generate

from conftest import make_graph, make_users


def counts_graph(counts, n_users=10):
    """One post per entry; counts[i] distinct users reshared post i."""
    posts = [(f"p{i}", True, "c0") for i in range(len(counts))]
    edges = []
    for i, c in enumerate(counts):
        edges.extend((u, f"p{i}") for u in range(c))
    return make_graph(n_users, posts, edges)


class TestBiased:
    def test_counting_ratio(self):
        table = biased_propensity(counts_graph([2, 10, 0], n_users=10))
        assert table["p0"] == pytest.approx(0.2)
        assert table["p1"] == pytest.approx(1.0)

    def test_zero_reshares_floor(self):
        table = biased_propensity(counts_graph([0, 1], n_users=10))
        assert table["p0"] == pytest.approx(1e-3)


class TestVirality:
    def test_max_post_is_one_for_any_mu(self):
        for mu in (0.1, 0.5, 1.0):
            table = virality_propensity(counts_graph([4, 1]), mu=mu)
            assert table["p0"] == pytest.approx(1.0)

    def test_smoothing_values(self):
        graph = counts_graph([4, 1])
        assert virality_propensity(graph, mu=0.5)["p1"] == pytest.approx(0.5)
        assert virality_propensity(graph, mu=1.0)["p1"] == pytest.approx(0.25)
        assert virality_propensity(graph, mu=0.1)["p1"] == pytest.approx(0.25**0.1)

    def test_mu_ordering(self):
        graph = counts_graph([4, 1])
        r01 = virality_propensity(graph, mu=0.1)["p1"]
        r05 = virality_propensity(graph, mu=0.5)["p1"]
        r10 = virality_propensity(graph, mu=1.0)["p1"]
        assert r01 > r05 > r10

    def test_monotone_in_reshares(self):
        table = virality_propensity(counts_graph([1, 2, 3, 8]), mu=0.5)
        vals = [table[f"p{i}"] for i in range(4)]
        assert vals == sorted(vals)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            virality_propensity(counts_graph([0, 0]))

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            virality_propensity(counts_graph([1, 2]), mu=0.0)

    def test_consistency_on_model(self):
        """Estimator with mu equal to the generator exponent approaches the
        true exposure as reshare counts grow."""
        maes = []
        for n_users in (500, 4000):
            cfg = SynthConfig(
                n_users=n_users, n_posts=200, n_hate_posts=200, exposure_exponent=0.5,
                mean_shares=30.0, seed=5, with_text=False,
            )
            graph, _, truth = generate(cfg)
            table = virality_propensity(graph, mu=0.5, floor=1e-6)
            est = table.theta
            maes.append(float(np.abs(est - truth.exposure[0]).mean()))
        assert maes[-1] < maes[0]
        assert maes[-1] < 0.02


class TestFollower:
    def test_identical_followers_match_virality(self):
        graph = counts_graph([3, 1, 2])
        users = make_users([{"user_id": f"u{i}", "n_followers": 7} for i in range(10)])
        ft = follower_propensity(graph, users, mu=0.5)
        vt = virality_propensity(graph, mu=0.5)
        for p in ("p0", "p1", "p2"):
            assert ft[p] == pytest.approx(vt[p])

    def test_single_resharer_ratio(self):
        # p0 reshared by u0 (F=100); p1 by u1..u4 (F=100 each): weighted max 400
        posts = [("p0", True, "c0"), ("p1", True, "c0")]
        edges = [(0, "p0")] + [(i, "p1") for i in range(1, 5)]
        graph = make_graph(5, posts, edges)
        users = make_users([{"user_id": f"u{i}", "n_followers": 100} for i in range(5)])
        table = follower_propensity(graph, users, mu=0.5)
        assert table["p0"] == pytest.approx(0.5)
        assert table["p1"] == pytest.approx(1.0)

    def test_zero_follower_resharers_hit_floor(self):
        posts = [("p0", True, "c0"), ("p1", True, "c0")]
        graph = make_graph(3, posts, [(0, "p0"), (1, "p1"), (2, "p1")])
        users = make_users(
            [
                {"user_id": "u0", "n_followers": 0},
                {"user_id": "u1", "n_followers": 50},
                {"user_id": "u2", "n_followers": 50},
            ]
        )
        table = follower_propensity(graph, users, mu=0.5)
        assert table["p0"] == pytest.approx(1e-3)

    def test_scale_invariance(self):
        graph = counts_graph([3, 1, 2], n_users=5)
        base = make_users([{"user_id": f"u{i}", "n_followers": 10 + i} for i in range(5)])
        scaled = make_users([{"user_id": f"u{i}", "n_followers": (10 + i) * 37} for i in range(5)])
        t1 = follower_propensity(graph, base, mu=0.5)
        t2 = follower_propensity(graph, scaled, mu=0.5)
        for p in ("p0", "p1", "p2"):
            assert t1[p] == pytest.approx(t2[p], rel=1e-12)

    def test_missing_user_attributes(self):
        graph = counts_graph([1], n_users=1)
        users = make_users([{"user_id": "other"}])
        with pytest.raises(DataError, match="follower count"):
            follower_propensity(graph, users)


class TestNeural:
    def test_single_post_matches_clipped_target(self):
        graph = counts_graph([3], n_users=5)
        table = neural_propensity((("p0",), np.array([[0.7, 0.3]])), graph)
        assert table["p0"] == pytest.approx(1.0, abs=1e-6)

    def test_missing_vector_rejected(self):
        graph = counts_graph([1, 2], n_users=5)
        with pytest.raises(DataError, match="missing topic vector"):
            neural_propensity((("p0",), np.array([[1.0]])), graph)

    def test_shuffled_superset_pair_gives_equal_table(self):
        graph = counts_graph([5, 3, 1, 0, 2], n_users=8)
        rng = np.random.default_rng(3)
        ids = tuple(f"p{i}" for i in range(7))  # p5 and p6 are not in the graph
        vectors = rng.dirichlet(np.ones(3), 7)
        order = rng.permutation(7)
        table = neural_propensity((ids[:5], vectors[:5]), graph)
        shuffled = neural_propensity((tuple(ids[i] for i in order), vectors[order]), graph)
        assert shuffled.post_ids == table.post_ids
        assert np.array_equal(shuffled.theta, table.theta)

    def test_range_clipped(self):
        graph = counts_graph([5, 3, 1, 0], n_users=8)
        rng = np.random.default_rng(0)
        vectors = tuple(f"p{i}" for i in range(4)), np.array(
            [rng.dirichlet(np.ones(4)) for _ in range(4)]
        )
        table = neural_propensity(vectors, graph)
        for i in range(4):
            assert 1e-3 <= table[f"p{i}"] <= 1.0

    def test_rank_correlation_with_popularity_signal(self):
        """Topic-0 mass drives reshare counts; the fitted scores must track it."""
        rng = np.random.default_rng(7)
        n_posts, n_users = 200, 300
        mass = rng.uniform(0.05, 0.95, n_posts)
        rows = []
        for m in mass:
            rest = rng.dirichlet(np.ones(3)) * (1.0 - m)
            rows.append(np.concatenate([[m], rest]))
        vectors = tuple(f"p{i}" for i in range(n_posts)), np.array(rows)
        counts = np.maximum(1, np.round(mass * 60)).astype(int)
        posts = [(f"p{i}", True, "c0") for i in range(n_posts)]
        edges = []
        for i, c in enumerate(counts):
            users = rng.choice(n_users, size=c, replace=False)
            edges.extend((int(u), f"p{i}") for u in users)
        graph = make_graph(n_users, posts, edges)
        table = neural_propensity(vectors, graph, mu=0.5)
        est = np.array([table[f"p{i}"] for i in range(n_posts)])
        true = (counts / counts.max()) ** 0.5
        rank_est = np.argsort(np.argsort(est)).astype(float)
        rank_true = np.argsort(np.argsort(true)).astype(float)
        rho = np.corrcoef(rank_est, rank_true)[0, 1]
        assert rho >= 0.8


class TestTableInvariants:
    def test_range_always(self):
        for seed in range(5):
            cfg = SynthConfig(n_users=60, n_posts=40, n_hate_posts=40, seed=seed, with_text=False)
            graph, users, _ = generate(cfg)
            for table in (
                biased_propensity(graph),
                virality_propensity(graph, mu=0.5),
                follower_propensity(graph, users, mu=0.5),
            ):
                vals = table.theta
                assert np.all(vals >= table.floor - 1e-15)
                assert np.all(vals <= 1.0)
            for scheme_table in (
                virality_propensity(graph, mu=0.5),
                follower_propensity(graph, users, mu=0.5),
            ):
                assert max(scheme_table.theta) == pytest.approx(1.0)
