import math
import os

import numpy as np
import pytest

from reshare.dataset import (
    InteractionGraph,
    Post,
    UserAttributes,
    UserAttributeTable,
    index_of,
    load_dataset,
    log_transform_attributes,
    split,
    write_dataset,
)
from reshare.errors import DataError
from reshare.synthgen import SynthConfig, generate

from conftest import StringGraph, make_graph, make_users


def write_files(tmp_path, posts_rows, users_rows, inter_rows):
    paths = {}
    for name, header, rows in (
        ("posts.csv", "post_id,author_id,is_hate,cluster,text", posts_rows),
        ("users.csv", "user_id,verified,account_age_days,n_posts,n_followers,n_friends", users_rows),
        ("interactions.csv", "user_id,post_id", inter_rows),
    ):
        p = tmp_path / name
        p.write_text("\n".join([header] + rows) + "\n")
        paths[name] = str(p)
    return paths["posts.csv"], paths["users.csv"], paths["interactions.csv"]


class TestLoad:
    def test_counts_echo_input(self, tmp_path):
        posts = ["p1,a,0,,", "p2,a,1,c1,some text", "p3,a,0,,"]
        users = ["u1,0,100,5,10,20", "u2,1,200,1,2,3"]
        inter = ["u1,p1", "u1,p2", "u2,p2", "u2,p3"]
        graph, table = load_dataset(*write_files(tmp_path, posts, users, inter))
        assert graph.n_posts == 3
        assert graph.n_users >= 2
        assert graph.n_edges == 4
        assert len(table) == 2

    def test_unknown_post_reference_names_row(self, tmp_path):
        paths = write_files(
            tmp_path, ["p1,a,0,,"], ["u1,0,1,1,1,1"], ["u1,p1", "u1,p9"]
        )
        with pytest.raises(DataError, match=r"interactions\.csv:3.*p9"):
            load_dataset(*paths)

    def test_unknown_user_reference(self, tmp_path):
        paths = write_files(tmp_path, ["p1,a,0,,"], ["u1,0,1,1,1,1"], ["zz,p1"])
        with pytest.raises(DataError, match="zz"):
            load_dataset(*paths)

    def test_duplicate_user_id(self, tmp_path):
        paths = write_files(
            tmp_path, ["p1,a,0,,"], ["u1,0,1,1,1,1", "u1,0,1,1,1,1"], []
        )
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(*paths)

    def test_malformed_bool_names_line(self, tmp_path):
        paths = write_files(tmp_path, ["p1,a,maybe,,"], ["u1,0,1,1,1,1"], [])
        with pytest.raises(DataError, match=r"posts\.csv:2"):
            load_dataset(*paths)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing file"):
            load_dataset(str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv"), str(tmp_path / "n.csv"))

    def test_negative_count_rejected(self, tmp_path):
        paths = write_files(tmp_path, ["p1,a,0,,"], ["u1,0,1,-3,1,1"], [])
        with pytest.raises(DataError, match=">= 0"):
            load_dataset(*paths)

    def test_quoted_text_with_commas(self, tmp_path):
        posts = ['p1,a,1,c1,"hello, world"']
        graph, _ = load_dataset(*write_files(tmp_path, posts, ["u1,0,1,1,1,1"], []))
        assert graph.posts[0].text == "hello, world"

    def test_cluster_requires_hate_flag(self):
        with pytest.raises(DataError, match="cluster"):
            Post(post_id="p", author_id="a", is_hate=False, cluster="c1")

    def test_synthetic_round_trip(self, tmp_path):
        graph, users, _ = generate(SynthConfig(n_users=40, n_posts=30, n_hate_posts=10, seed=3))
        out = tmp_path / "dump"
        write_dataset(graph, users, out)
        graph2, users2 = load_dataset(
            out / "posts.csv", out / "users.csv", out / "interactions.csv"
        )
        assert graph2 == graph
        assert users2 == users


class TestLogTransform:
    def test_zero_count_maps_to_zero(self):
        table = make_users([{"user_id": "u1", "n_followers": 0}])
        view = log_transform_attributes(table)
        assert view.column("log1p_n_followers")[0] == 0.0

    def test_median_scale_value(self):
        table = make_users([{"user_id": "u1", "n_friends": 491}])
        view = log_transform_attributes(table)
        assert view.column("log1p_n_friends")[0] == pytest.approx(math.log(492), abs=1e-12)
        assert view.column("log1p_n_friends")[0] == pytest.approx(6.1984787, abs=1e-6)

    def test_verified_is_binary_and_age_unchanged(self):
        table = make_users(
            [{"user_id": "u1", "verified": True, "account_age_days": 3585}]
        )
        view = log_transform_attributes(table)
        assert view.column("verified")[0] == 1.0
        assert view.column("account_age_days")[0] == 3585.0

    def test_monotone_on_counts(self):
        table = make_users(
            [{"user_id": f"u{i:02d}", "n_posts": i * 7, "n_followers": i, "n_friends": 2 * i}
             for i in range(20)]
        )
        view = log_transform_attributes(table)
        for col in ("log1p_n_posts", "log1p_n_followers", "log1p_n_friends"):
            assert np.all(np.diff(view.column(col)) >= 0)

    def test_counts_carry_the_bits_of_math_log1p(self):
        rng = np.random.default_rng(5)
        counts = rng.lognormal(math.log(546.0), 3.0, (3000, 3)).astype(np.int64)
        table = make_users(
            [{"user_id": f"u{i:04d}", "n_posts": int(a), "n_followers": int(b), "n_friends": int(c)}
             for i, (a, b, c) in enumerate(counts)]
        )
        view = log_transform_attributes(table)
        for m, col in enumerate(("log1p_n_posts", "log1p_n_followers", "log1p_n_friends")):
            expected = [math.log1p(int(c)).hex() for c in counts[:, m]]
            assert [float(v).hex() for v in view.column(col)] == expected, col


class TestSplit:
    def graph10(self):
        posts = [(f"p{i}", False, None) for i in range(10)]
        edges = [(0, f"p{i}") for i in range(10)]
        return make_graph(1, posts, edges)

    def test_exact_partition_counts(self):
        pair = split(self.graph10(), "by-edge", 0.8, seed=0)
        assert pair.train.n_edges == 8
        assert pair.test.n_edges == 2

    def test_same_seed_identical(self):
        a = split(self.graph10(), "by-edge", 0.8, seed=5)
        b = split(self.graph10(), "by-edge", 0.8, seed=5)
        assert a.train.edges == b.train.edges
        assert a.test.edges == b.test.edges

    def test_single_edge_user_stays_in_train(self):
        posts = [("p0", False, None), ("p1", False, None)]
        graph = make_graph(2, posts, [(0, "p0"), (1, "p0"), (1, "p1")])
        for seed in range(10):
            pair = split(graph, "by-edge", 0.5, seed=seed)
            assert ("u0", "p0") in pair.train.edges

    def test_partition_laws_many_seeds(self):
        graph, _, _ = generate(SynthConfig(n_users=30, n_posts=25, n_hate_posts=5, seed=9))
        for seed in range(8):
            for ratio in (0.5, 0.8):
                pair = split(graph, "by-edge", ratio, seed=seed)
                train = set(pair.train.edges)
                test = set(pair.test.edges)
                assert train | test == set(graph.edges)
                assert not (train & test)

    def test_every_user_keeps_a_train_edge(self):
        graph, _, _ = generate(SynthConfig(n_users=30, n_posts=25, n_hate_posts=5, seed=9))
        pair = split(graph, "by-edge", 0.8, seed=1)
        for user, posts in graph.edges_by_user.items():
            assert len(pair.train.edges_by_user.get(user, ())) >= 1

    def test_by_user_partition(self):
        graph, _, _ = generate(SynthConfig(n_users=40, n_posts=25, n_hate_posts=5, seed=9))
        pair = split(graph, "by-user", 0.8, seed=2)
        assert pair.train | pair.test == set(graph.users)
        assert not (pair.train & pair.test)
        assert len(pair.train) == round(0.8 * graph.n_users)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            split(self.graph10(), "by-edge", 1.0, seed=0)

    def test_zero_edges_rejected(self):
        graph = make_graph(1, [("p0", False, None)], [])
        with pytest.raises(DataError, match="zero edges"):
            split(graph, "by-edge", 0.8, seed=0)


class TestGraphInvariants:
    def test_edge_unknown_endpoint(self):
        with pytest.raises(DataError, match="unknown post"):
            make_graph(1, [("p0", False, None)], [(0, "p9")])

    def test_duplicate_edge(self):
        with pytest.raises(DataError, match="duplicate edge"):
            make_graph(1, [("p0", False, None)], [(0, "p0"), (0, "p0")])

    def test_hate_subgraph(self):
        graph = make_graph(
            2,
            [("p0", True, "c1"), ("p1", False, None)],
            [(0, "p0"), (0, "p1"), (1, "p1")],
        )
        hate = graph.hate_subgraph()
        assert [p.post_id for p in hate.posts] == ["p0"]
        assert hate.edges == (("u0", "p0"),)
        assert hate.users == graph.users


class TestIndexOf:
    def test_shuffled_ids_agree_with_dict_lookup(self, rng):
        for _ in range(200):
            # unpadded ids of mixed length, so sorted-id order is not numeric order
            ids = [f"u{i}" for i in rng.choice(300, int(rng.integers(0, 12)), replace=False)]
            query = [f"u{i}" for i in rng.integers(0, 300, int(rng.integers(0, 12)))]
            if ids and rng.random() < 0.5:
                query += list(rng.choice(ids, 3))
            rows, found = index_of(ids, query)
            where = {u: i for i, u in enumerate(ids)}
            assert found.tolist() == [u in where for u in query]
            assert rows[found].tolist() == [where[u] for u in query if u in where]

    def test_repeated_id_maps_to_its_first_position(self):
        rows, found = index_of(("b", "a", "b"), ("b", "c"))
        assert rows[0] == 0 and found.tolist() == [True, False]


class TestArrayGraphMatchesStringReference:
    """Random small graphs, given as unsorted string pairs, against plain sorted strings."""

    def random_case(self, rng):
        n_users, n_posts = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        # unpadded ids of mixed length, so sorted-id order is not numeric order
        user_ids = [f"u{i}" for i in rng.choice(200, n_users, replace=False)]
        posts = [
            Post(post_id=f"p{i}", author_id="a", is_hate=bool(h), cluster="c0" if h else None)
            for i, h in zip(rng.choice(200, n_posts, replace=False), rng.random(n_posts) < 0.5)
        ]
        pairs = [(u, p.post_id) for u in user_ids for p in posts]
        picked = rng.random(len(pairs)) < 0.4
        edges = [pairs[i] for i in rng.permutation(len(pairs)) if picked[i]]
        rng.shuffle(user_ids)
        rng.shuffle(posts)
        return user_ids, posts, edges

    def test_views_counts_subgraph_and_splits(self, rng):
        n_split_cases = 0
        for _ in range(60):
            user_ids, posts, edges = self.random_case(rng)
            graph = InteractionGraph(user_ids, posts, edges)
            ref = StringGraph(user_ids, posts, edges)
            assert graph.users == ref.users and graph.posts == ref.posts
            assert graph.edges == ref.edges
            assert graph.edges_by_user == ref.edges_by_user
            for got, want in zip(graph.edge_arrays, ref.edge_arrays):
                assert got.dtype == np.int64 and np.array_equal(got, want)
            assert np.array_equal(graph.reshare_counts(), ref.reshare_counts())
            hate, ref_hate = graph.hate_subgraph(), ref.hate_subgraph()
            assert hate.posts == ref_hate.posts and hate.edges == ref_hate.edges
            assert hate.edges_by_user == ref_hate.edges_by_user
            if not edges:
                continue
            n_split_cases += 1
            for ratio, seed in ((0.5, 3), (0.8, 11)):
                pair = split(graph, "by-edge", ratio, seed)
                assert (pair.train.edges, pair.test.edges) == ref.split_by_edge(ratio, seed)
                assert pair.train.posts == graph.posts and pair.test.users == graph.users
                if len(user_ids) > 1:
                    by_user = split(graph, "by-user", ratio, seed)
                    assert (by_user.train, by_user.test) == ref.split_by_user(ratio, seed)
        assert n_split_cases > 40

    def test_errors_report_users_then_posts_then_duplicates(self):
        posts = [Post(post_id=p, author_id="a", is_hate=False) for p in ("p1", "p0")]
        with pytest.raises(DataError, match=r"edge \('u0', 'p8'\) references unknown post 'p8'"):
            InteractionGraph(["u1", "u0"], posts, [("u1", "p9"), ("u1", "p0"), ("u0", "p8")])
        with pytest.raises(DataError, match=r"edge \('a', 'p1'\) references unknown user 'a'"):
            InteractionGraph(["u0"], posts, [("u0", "p9"), ("zz", "p0"), ("a", "p1")])
        with pytest.raises(DataError, match=r"duplicate edge \('u0', 'p1'\)"):
            InteractionGraph(["u0"], posts, [("u0", "p1"), ("u0", "p0"), ("u0", "p1")])
