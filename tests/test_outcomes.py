import numpy as np
import pytest

from reshare.outcomes import compute_outcomes
from reshare.synthgen import SynthConfig, generate

from conftest import make_graph


def value(oc, name, user_id):
    """The outcome ``name`` of one user, read through ``OutcomeTable.target``."""
    return float(oc.target(name)[oc.user_ids.index(user_id)])


class TestCounting:
    def test_hate_fraction(self):
        posts = [("h0", True, "c0"), ("n0", False, None), ("n1", False, None), ("n2", False, None)]
        graph = make_graph(1, posts, [(0, "h0"), (0, "n0"), (0, "n1"), (0, "n2")])
        oc = compute_outcomes(graph)
        assert value(oc, "overall", "u0") == pytest.approx(0.25)

    def test_cluster_fraction(self):
        posts = [(f"h{i}", True, "c0") for i in range(2)] + [
            (f"n{i}", False, None) for i in range(8)
        ]
        edges = [(0, p[0]) for p in posts]
        graph = make_graph(1, posts, edges)
        oc = compute_outcomes(graph)
        assert value(oc, "c0", "u0") == pytest.approx(0.2)

    def test_all_normal_shares(self):
        posts = [("h0", True, "c0"), ("n0", False, None)]
        graph = make_graph(1, posts, [(0, "n0")])
        oc = compute_outcomes(graph)
        assert value(oc, "overall", "u0") == 0.0
        assert value(oc, "c0", "u0") == 0.0

    def test_zero_share_users_excluded_and_counted(self):
        posts = [("n0", False, None)]
        graph = make_graph(3, posts, [(0, "n0")])
        oc = compute_outcomes(graph)
        assert oc.n_excluded == 2
        assert "u1" not in oc.user_ids

    def test_unlabeled_hate_cluster(self):
        graph = make_graph(
            1,
            [("h0", True, None), ("n0", False, None)],
            [(0, "h0"), (0, "n0")],
        )
        oc = compute_outcomes(graph)
        assert "unlabeled" in oc.clusters
        assert oc.n_unlabeled_hate_posts == 1
        assert value(oc, "unlabeled", "u0") == pytest.approx(0.5)


class TestTarget:
    def setup_method(self):
        posts = [("h0", True, "c0"), ("h1", True, "c1"), ("n0", False, None)]
        edges = [(0, "h0"), (0, "n0"), (1, "h1"), (1, "n0"), (2, "n0")]
        self.outcomes = compute_outcomes(make_graph(3, posts, edges))

    def test_cluster_target_selection(self):
        oc = self.outcomes
        assert oc.target("overall") is oc.overall
        assert np.array_equal(oc.target("c1"), oc.by_cluster[:, oc.clusters.index("c1")])
        assert value(oc, "c1", "u1") == pytest.approx(0.5)
        assert value(oc, "c1", "u0") == 0.0 and value(oc, "c0", "u0") == pytest.approx(0.5)

    def test_unknown_cluster_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            self.outcomes.target("zz")


class TestIdentities:
    def test_cluster_sums_equal_overall(self):
        for seed in range(4):
            graph, _, _ = generate(
                SynthConfig(n_users=80, n_posts=60, n_hate_posts=25, n_clusters=3, seed=seed)
            )
            oc = compute_outcomes(graph)
            assert np.allclose(oc.by_cluster.sum(axis=1), oc.overall, atol=1e-12)
            assert np.all(oc.overall >= 0.0) and np.all(oc.overall <= 1.0)
            assert np.all(oc.by_cluster >= 0.0)
            assert np.all(oc.by_cluster <= oc.overall[:, None] + 1e-15)

    def test_edge_weighted_aggregate_matches_hate_edge_share(self):
        """If 33.36% of all reshares hit hateful posts, the share-weighted mean
        of per-user hate fractions is exactly 0.3336."""
        n_hate_edges, n_total = 3336, 10000
        posts = [("h0", True, "c0"), ("n0", False, None), ("n1", False, None)]
        n_users = n_total // 2
        edges = []
        for u in range(n_users):  # two shares per user, 3336 users include the hate post
            if u < n_hate_edges:
                edges += [(u, "h0"), (u, "n0")]
            else:
                edges += [(u, "n0"), (u, "n1")]
        graph = make_graph(n_users, posts, edges)
        oc = compute_outcomes(graph)
        total = oc.n_hate + oc.n_normal
        weighted = float(np.sum(oc.overall * total) / np.sum(total))
        assert np.sum(oc.n_hate) == n_hate_edges
        assert weighted == pytest.approx(0.3336, abs=1e-12)
