import math
import os
import re

import numpy as np
import pytest

from reshare.dataset import (
    FEATURE_COLUMNS,
    InteractionGraph,
    Post,
    UserAttributeTable,
    index_of,
    load_dataset,
    log_transform_attributes,
    split,
    write_dataset,
)
from reshare.errors import DataError
from reshare.synthgen import SynthConfig, generate

from conftest import StringGraph, graph_from_pairs, make_graph, make_users


HEADERS = {
    "posts.csv": "post_id,author_id,is_hate,cluster,text",
    "users.csv": "user_id,verified,account_age_days,n_posts,n_followers,n_friends",
    "interactions.csv": "user_id,post_id",
}


def write_files(tmp_path, posts_rows, users_rows, inter_rows):
    paths = {}
    for (name, header), rows in zip(HEADERS.items(), (posts_rows, users_rows, inter_rows)):
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
        with pytest.raises(DataError) as exc:
            load_dataset(*paths)
        assert str(exc.value) == f"{paths[1]}:3: duplicate user_id 'u1', first at {paths[1]}:2"

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

    def test_count_beyond_int64_rejected_naming_line(self, tmp_path):
        top = str(np.iinfo(np.int64).max)
        paths = write_files(tmp_path, ["p1,a,0,,"], [f"u1,0,1,1,{top},1"], [])
        assert load_dataset(*paths)[1].n_followers.tolist() == [int(top)]
        paths = write_files(
            tmp_path, ["p1,a,0,,"], ["u1,0,1,1,1,1", "u2,0,1,1,99999999999999999999,1"], []
        )
        with pytest.raises(DataError, match=rf"users\.csv:3: count must be <= {top}"):
            load_dataset(*paths)

    def test_duplicate_post_id_is_named(self, tmp_path):
        paths = write_files(tmp_path, ["p1,a,0,,", "p2,a,0,,", "p1,b,0,,"], ["u1,0,1,1,1,1"], [])
        with pytest.raises(DataError) as exc:
            load_dataset(*paths)
        assert str(exc.value) == f"{paths[0]}:4: duplicate post_id 'p1', first at {paths[0]}:2"

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


VALID_ROWS = {
    "posts.csv": ["p1,a,0,,", "p2,a,1,c1,some text"],
    "users.csv": ["u1,0,100,5,10,20", "u2,1,200,1,2,3"],
    "interactions.csv": ["u1,p1", "u2,p2"],
}


def csv_bytes(name, rows=None, header=None, end="\n"):
    lines = [HEADERS[name] if header is None else header,
             *(VALID_ROWS[name] if rows is None else rows)]
    return "".join(line + end for line in lines).encode()


# (case, file, its bytes, outcome): the other two files hold VALID_ROWS. The
# outcome is the number of edges loaded, or the exact DataError message, where
# {path} is the file's path.
MALFORMED_INPUTS = [
    ("short posts row", "posts.csv", csv_bytes("posts.csv", ["p1,a,0,,", "p2,a,1,c1"]),
     "{path}:3: expected 5 fields, got 4"),
    ("short users row", "users.csv", csv_bytes("users.csv", ["u1,0,100,5", "u2,1,200,1,2,3"]),
     "{path}:2: expected 6 fields, got 4"),
    ("short interactions row", "interactions.csv", csv_bytes("interactions.csv", ["u1,p1", "u2"]),
     "{path}:3: expected 2 fields, got 1"),
    ("extra users field", "users.csv",
     csv_bytes("users.csv", ["u1,0,100,5,10,20,x", "u2,1,200,1,2,3"]),
     "{path}:2: expected 6 fields, got 7"),
    ("extra interactions field", "interactions.csv",
     csv_bytes("interactions.csv", ["u1,p1,x", "u2,p2"]), "{path}:2: expected 2 fields, got 3"),
    ("empty file", "posts.csv", b"",
     "{path}: header is missing columns ['post_id', 'author_id', 'is_hate', 'cluster']"),
    ("header only", "interactions.csv", csv_bytes("interactions.csv", []), 0),
    ("missing column", "users.csv",
     csv_bytes("users.csv", header=HEADERS["users.csv"].rsplit(",", 1)[0]),
     "{path}: header is missing columns ['n_friends']"),
    ("repeated column", "users.csv",
     csv_bytes("users.csv", ["u1,0,100,5,10,20,6", "u2,1,200,1,2,3,4"],
               header=HEADERS["users.csv"] + ",n_posts"),
     "{path}: header repeats column 'n_posts'"),
    ("columns in another order, one extra", "posts.csv",
     csv_bytes("posts.csv", ["x,some text,c1,1,a,p2", "x,,,0,a,p1"],
               header="extra,text,cluster,is_hate,author_id,post_id"), 2),
    ("posts without a text column", "posts.csv",
     csv_bytes("posts.csv", ["p1,a,0,", "p2,a,1,c1"], header="post_id,author_id,is_hate,cluster"),
     2),
    ("utf-8 bom before the header", "posts.csv", b"\xef\xbb\xbf" + csv_bytes("posts.csv"),
     "{path}: header is missing columns ['post_id']"),
    ("crlf line ends", "users.csv", csv_bytes("users.csv", end="\r\n"), 2),
    ("blank line", "interactions.csv", csv_bytes("interactions.csv", ["u1,p1", "", "u2,p2"]), 2),
    ("blank line before a bad row", "interactions.csv",
     csv_bytes("interactions.csv", ["u1,p1", "", "u2,p9"]),
     "{path}:4: interaction references unknown post 'p9'"),
    ("quoted field with a newline", "posts.csv",
     csv_bytes("posts.csv", ['p1,a,0,,"two\nlines"', "p2,a,1,c1,x,y"]),
     "{path}:4: expected 5 fields, got 6"),
    ("non-utf-8 byte", "posts.csv", csv_bytes("posts.csv").replace(b"some", b"\xffsome"),
     "{path}: not UTF-8 text (invalid start byte)"),
    ("empty user_id", "users.csv", csv_bytes("users.csv", [",0,1,1,1,1"]),
     "{path}:2: user_id is required"),
    ("empty post_id of an interaction", "interactions.csv",
     csv_bytes("interactions.csv", ["u1,"]), "{path}:2: user_id and post_id are required"),
    ("count beyond int64", "users.csv",
     csv_bytes("users.csv", ["u1,0,100,5,99999999999999999999,20"]),
     f"{{path}}:2: count must be <= {np.iinfo(np.int64).max}, got 99999999999999999999"),
    ("negative count", "users.csv", csv_bytes("users.csv", ["u1,0,100,-5,10,20", "u2,1,1,1,1,1"]),
     "{path}:2: count must be >= 0, got -5"),
    ("bool spelled yes", "users.csv", csv_bytes("users.csv", ["u1,yes,100,5,10,20"]),
     "{path}:2: cannot parse boolean from 'yes'"),
    ("unknown user", "interactions.csv", csv_bytes("interactions.csv", ["u1,p1", "zz,p2"]),
     "{path}:3: interaction references unknown user 'zz'"),
    ("unknown post", "interactions.csv", csv_bytes("interactions.csv", ["u1,p9"]),
     "{path}:2: interaction references unknown post 'p9'"),
    ("duplicate interaction", "interactions.csv",
     csv_bytes("interactions.csv", ["u1,p1", "u2,p2", "u1,p1"]),
     "{path}:4: duplicate interaction ('u1', 'p1'), first at {path}:2"),
    ("duplicate post id", "posts.csv",
     csv_bytes("posts.csv", ["p2,a,1,c1,", "p1,a,0,,", "p2,b,1,c1,"]),
     "{path}:4: duplicate post_id 'p2', first at {path}:2"),
    ("cluster on a non-hate post", "posts.csv", csv_bytes("posts.csv", ["p1,a,0,c1,", "p2,a,1,,"]),
     "{path}:2: post 'p1' has cluster 'c1' but is not flagged as hate"),
]


class TestMalformedInputCorpus:
    """Every case either loads or fails with a DataError naming the file, and
    the line where one row is at fault."""

    @pytest.mark.parametrize("name, body, outcome", [case[1:] for case in MALFORMED_INPUTS],
                             ids=[case[0] for case in MALFORMED_INPUTS])
    def test_loads_or_names_file_and_line(self, tmp_path, name, body, outcome):
        paths = dict(zip(HEADERS, write_files(tmp_path, *VALID_ROWS.values())))
        with open(paths[name], "wb") as fh:
            fh.write(body)
        if isinstance(outcome, int):
            graph, users = load_dataset(*paths.values())
            assert (graph.n_edges, len(users)) == (outcome, 2)
            return
        with pytest.raises(DataError) as exc:
            load_dataset(*paths.values())
        assert str(exc.value) == outcome.format(path=paths[name])


class TestUserAttributeTable:
    COLUMNS = ("verified", "account_age_days", "n_posts", "n_followers", "n_friends")

    def test_rows_sorted_by_id_with_every_column(self):
        table = UserAttributeTable(
            ["u2", "u0", "u1"], [True, False, True], [20, 0, 10], [21, 1, 11], [22, 2, 12],
            [23, 3, 13],
        )
        assert table.user_ids == ("u0", "u1", "u2") and len(table) == 3
        assert table.verified.dtype == bool and table.verified.tolist() == [False, True, True]
        for j, name in enumerate(self.COLUMNS[1:]):
            column = getattr(table, name)
            assert column.dtype == np.int64 and column.tolist() == [j, 10 + j, 20 + j], name

    def test_duplicate_id_rejected(self):
        with pytest.raises(DataError, match="duplicate user_id 'u1'"):
            UserAttributeTable(["u1", "u0", "u1"], [False] * 3, *[[1, 1, 1]] * 4)

    def test_negative_count_names_first_row_in_input_order_then_its_first_column(self):
        # u9 is the later id but the earlier row; its n_friends comes after n_posts
        with pytest.raises(DataError, match=r"^user 'u9': n_posts must be >= 0$"):
            UserAttributeTable(
                ["u0", "u9", "u1"], [False] * 3, [1, 1, -1], [1, -1, 1], [1, 1, 1], [1, -1, 1]
            )

    def test_columns_are_read_only(self):
        table = make_users([{"user_id": "u0"}, {"user_id": "u1"}])
        for name in self.COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 1

    def test_equality_compares_ids_and_values(self):
        table = make_users([{"user_id": "u0"}, {"user_id": "u1", "n_friends": 7}])
        assert table == make_users([{"user_id": "u1", "n_friends": 7}, {"user_id": "u0"}])
        assert table != make_users([{"user_id": "u0"}, {"user_id": "u1", "n_friends": 8}])
        assert table != make_users([{"user_id": "u0", "verified": True},
                                    {"user_id": "u1", "n_friends": 7}])
        assert table != make_users([{"user_id": "u0"}, {"user_id": "u2", "n_friends": 7}])
        assert table != table.user_ids


class TestLogTransform:
    def test_zero_count_maps_to_zero(self):
        table = make_users([{"user_id": "u1", "n_followers": 0}])
        view = log_transform_attributes(table)
        assert view.column("log1p_n_followers")[0] == 0.0

    def test_is_the_feature_matrix_the_effect_models_take(self):
        from reshare.effects import FeatureMatrix

        view = log_transform_attributes(make_users([{"user_id": "u1", "n_posts": 3}]))
        assert type(view) is FeatureMatrix and view.user_ids == ("u1",)
        assert view.columns == FEATURE_COLUMNS and view.X.shape == (1, len(FEATURE_COLUMNS))
        assert view.column("log1p_n_posts")[0] == view.X[0, FEATURE_COLUMNS.index("log1p_n_posts")]

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
    @pytest.mark.parametrize("users, post_ids, message", [
        (["u1", "u0"], ["p0"], "user ids must be strictly increasing, got 'u1' before 'u0'"),
        (["u0", "u1", "u1"], ["p0"], "user ids must be strictly increasing, got 'u1' before 'u1'"),
        (["u0"], ["p0", "p2", "p1"], "post ids must be strictly increasing, got 'p2' before 'p1'"),
        (["u0"], ["p0", "p0"], "post ids must be strictly increasing, got 'p0' before 'p0'"),
    ], ids=["unsorted users", "repeated user", "unsorted posts", "repeated post"])
    def test_ids_not_strictly_increasing_rejected_naming_the_pair(self, users, post_ids, message):
        posts = [Post(post_id=p, author_id="a", is_hate=False) for p in post_ids]
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            InteractionGraph(users, posts, [0], [0])

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
            graph = graph_from_pairs(user_ids, posts, edges)
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
