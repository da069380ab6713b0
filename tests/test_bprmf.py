import itertools
import math
import tracemalloc

import numpy as np
import pytest

from reshare import bprmf, pipeline, workers
from reshare.bprmf import (
    BprHyper,
    BprModel,
    TripletBatch,
    _pair_step,
    batch_gradients,
    batch_loss,
    pair_loss,
    ranking_metrics,
    sample_triplets,
    train,
    train_stack,
    user_embedding,
)
from reshare.dataset import InteractionGraph
from reshare.errors import ConfigError, DataError
from reshare.pipeline import RANKING_SCHEMES, PipelineConfig, run_pipeline
from reshare.propensity import PropensityTable, biased_propensity, virality_propensity
from reshare.stats import sigmoid

from conftest import (
    assert_no_children,
    brute_force_ranking,
    make_graph,
    per_user_ranking,
    reference_train_group,
)


def random_model(rng, n_users=5, n_posts=7, dim=3):
    return BprModel(
        user_ids=tuple(f"u{i}" for i in range(n_users)),
        post_ids=tuple(f"p{i}" for i in range(n_posts)),
        user_factors=rng.normal(0, 0.5, (n_users, dim)),
        post_factors=rng.normal(0, 0.5, (n_posts, dim)),
        hyper=BprHyper(embedding_dim=dim),
    )


def random_batch(rng, n_users, n_posts, n=16, ensure_signal=True):
    users = rng.integers(0, n_users, n)
    pos = rng.integers(0, n_posts, n)
    neg = rng.integers(0, n_posts - 1, n)
    neg = neg + (neg >= pos)
    s_pos = (rng.random(n) < 0.8).astype(float)
    s_neg = (rng.random(n) < 0.3).astype(float)
    if ensure_signal:
        s_pos[: n // 2] = 1.0
        s_neg[: n // 4] = 0.0
    return TripletBatch(
        users=users,
        pos=pos,
        neg=neg,
        pos_observed=s_pos,
        neg_observed=s_neg,
        pos_theta=rng.uniform(0.05, 1.0, n),
        neg_theta=rng.uniform(0.05, 1.0, n),
    )


class TestPairLoss:
    def test_at_zero(self):
        assert pair_loss(0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_positive_vanishes(self):
        assert pair_loss(50.0) < 1e-20

    def test_minus_one(self):
        assert pair_loss(-1.0) == pytest.approx(math.log(1 + math.e), abs=1e-12)
        assert pair_loss(-1.0) == pytest.approx(1.3132616875182228, abs=1e-12)

    def test_saturation_no_overflow(self):
        assert np.isfinite(pair_loss(-800.0))
        assert pair_loss(-800.0) == pytest.approx(800.0)

    def test_strictly_decreasing_positive(self):
        xs = np.linspace(-5, 5, 41)
        vals = pair_loss(xs)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0)


class TestSampling:
    def test_count_contract(self):
        graph = make_graph(2, [("p0", False, None), ("p1", False, None)], [(0, "p0")])
        batch = sample_triplets(graph, 64, seed=1)
        assert len(batch) == 64

    def test_only_option(self):
        graph = make_graph(1, [("p0", False, None), ("p1", False, None)], [(0, "p0")])
        batch = sample_triplets(graph, 32, seed=2)
        assert np.all(batch.users == 0)
        assert np.all(batch.pos == 0)
        assert np.all(batch.neg == 1)

    def test_negative_uniformity(self):
        posts = [(f"p{i}", False, None) for i in range(10)]
        graph = make_graph(1, posts, [(0, "p0")])
        n = 100_000
        batch = sample_triplets(graph, n, seed=3)
        counts = np.bincount(batch.neg, minlength=10)[1:]  # candidates are p1..p9
        p = 1.0 / 9.0
        se = math.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) <= 3 * se)

    def test_propensity_attachment(self):
        posts = [(f"p{i}", False, None) for i in range(3)]
        graph = make_graph(1, posts, [(0, "p0")])
        table = PropensityTable(
            scheme="test", mu=None, floor=1e-3, post_ids=graph.post_ids, theta=[0.5, 0.25, 1.0]
        )
        batch = sample_triplets(graph, 10, seed=4, propensity=table)
        assert np.all(batch.pos_theta == 0.5)
        assert set(batch.neg_theta.tolist()) <= {0.25, 1.0}

    def test_too_few_posts(self):
        graph = make_graph(1, [("p0", False, None)], [(0, "p0")])
        with pytest.raises(ValueError, match="2 posts"):
            sample_triplets(graph, 4, seed=0)


class TestBatchLoss:
    def test_unit_theta_equals_naive(self, rng):
        model = random_model(rng)
        batch = random_batch(rng, 5, 7)
        batch.pos_theta = np.ones(len(batch))
        batch.neg_theta = np.ones(len(batch))
        assert batch_loss(model, batch, "unbiased") == pytest.approx(
            batch_loss(model, batch, "naive"), abs=1e-12
        )

    def test_weighted_positive_contribution(self, rng):
        model = random_model(rng)
        model.user_factors[:] = 0.0  # score diff 0 -> local loss ln 2
        batch = TripletBatch(
            users=np.array([0]),
            pos=np.array([1]),
            neg=np.array([2]),
            pos_observed=np.array([1.0]),
            neg_observed=np.array([0.0]),
            pos_theta=np.array([0.5]),
            neg_theta=np.array([1.0]),
        )
        assert batch_loss(model, batch, "unbiased") == pytest.approx(2 * math.log(2), abs=1e-12)
        assert batch_loss(model, batch, "unbiased") == pytest.approx(1.3862943611, abs=1e-9)

    def test_negative_weight_clipping(self, rng):
        model = random_model(rng)
        batch = TripletBatch(
            users=np.array([0]),
            pos=np.array([1]),
            neg=np.array([2]),
            pos_observed=np.array([1.0]),
            neg_observed=np.array([1.0]),
            pos_theta=np.array([1.0]),
            neg_theta=np.array([0.5]),
        )
        r = float(
            np.dot(model.user_factors[0], model.post_factors[1] - model.post_factors[2])
        )
        assert batch_loss(model, batch, "nonneg") == 0.0
        assert batch_loss(model, batch, "unbiased") == pytest.approx(-pair_loss(r), abs=1e-12)

    def test_missing_propensity_rejected(self, rng):
        model = random_model(rng)
        batch = random_batch(rng, 5, 7)
        batch.pos_theta = None
        with pytest.raises(ValueError, match="needs propensities"):
            batch_loss(model, batch, "unbiased")

    def test_zero_propensity_rejected(self, rng):
        model = random_model(rng)
        batch = random_batch(rng, 5, 7)
        batch.pos_theta[0] = 0.0
        with pytest.raises(ValueError, match="propensity"):
            batch_loss(model, batch, "unbiased")


class TestGradients:
    def test_matches_finite_differences(self, rng):
        """At an odd and an even dimension: ``_pair_step`` scatters single
        doubles at the one and pairs of doubles at the other."""
        h = 1e-5
        for dim, case in itertools.product((3, 4), range(10)):
            model = random_model(rng, dim=dim)
            batch = random_batch(rng, 5, 7)
            for mode in ("naive", "unbiased", "nonneg"):
                _, du, dh_ = batch_gradients(model, batch, mode)
                for arr, grad in ((model.user_factors, du), (model.post_factors, dh_)):
                    fd = np.zeros_like(arr)
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        ij = it.multi_index
                        orig = arr[ij]
                        arr[ij] = orig + h
                        up = batch_loss(model, batch, mode)
                        arr[ij] = orig - h
                        down = batch_loss(model, batch, mode)
                        arr[ij] = orig
                        fd[ij] = (up - down) / (2 * h)
                    scale = max(np.max(np.abs(fd)), 1e-8)
                    assert np.max(np.abs(grad - fd)) / scale < 1e-4


class TestPairStep:
    def test_flat_scatter_equals_row_scatter(self, rng):
        n_users, n_posts = 4, 6
        # user 0 takes 4 slots; post 1 is the pos of 4 triplets and the neg
        # of 5, its neg slots before, between and after its pos slots
        users = np.array([0, 2, 0, 3, 2, 0, 1, 0, 3])
        pos = np.array([1, 4, 1, 0, 1, 5, 2, 3, 1])
        neg = np.array([3, 1, 2, 1, 0, 1, 1, 1, 4])
        for d in (5, 4):  # the step scatters single doubles, then pairs of doubles
            w = rng.uniform(0.0, 2.0, (3, users.size))
            block = rng.normal(0.0, 0.5, (3, n_users + n_posts, d))
            expected = block.copy()
            for s in range(3):  # the per-array 2-D np.add.at form, member by member
                user_f, post_f = expected[s, :n_users], expected[s, n_users:]
                u = user_f[users]
                diff = post_f[pos] - post_f[neg]
                r = np.einsum("ij,ij->i", u, diff)
                coef = 0.3 * w[s] * sigmoid(-r)
                np.add.at(user_f, users, coef[:, None] * diff)
                gp = coef[:, None] * u
                np.add.at(post_f, pos, gp)
                np.add.at(post_f, neg, -gp)
            _pair_step(block, users, pos + n_users, neg + n_users, 0.3 * w, block)
            assert block.tobytes() == expected.tobytes()


def random_graph(n_users=30, n_posts=12, n_edges=150, seed=0):
    rng = np.random.default_rng(seed)
    cells = rng.choice(n_users * n_posts, n_edges, replace=False)
    posts = [(f"p{j:02d}", False, None) for j in range(n_posts)]
    return make_graph(n_users, posts, [(u, f"p{j:02d}") for u, j in zip(*np.divmod(cells, n_posts))])


def tables_of(graph, thetas):
    """``PropensityTable``s around per-post thetas; ``None`` (naive) stays ``None``."""
    return [theta if theta is None else PropensityTable("test", None, 1e-3, graph.post_ids, theta)
            for theta in thetas]


def assert_same_models(models, expected):
    """``train_stack`` models equal the oracle's bit for bit: every factor
    byte and every training curve."""
    ref_models, ref_epoch = expected
    assert ref_epoch is None
    assert len(models) == len(ref_models)
    for model, ref in zip(models, ref_models):
        assert model.user_factors.tobytes() == ref.user_factors.tobytes()
        assert model.post_factors.tobytes() == ref.post_factors.tobytes()
        assert model.training_curve == ref.training_curve


class TestTrainGroupOracle:
    """``train_stack`` against the frozen loop of ``conftest``, which sums
    each batch's loss as the batch runs and steps with the learning rate
    applied per batch."""

    @pytest.mark.parametrize("mode", bprmf.LOSS_MODES)
    @pytest.mark.parametrize("batch_size", [1, 16, 64, 200])  # 150 edges: 150 % 16 = 6
    @pytest.mark.parametrize("l2_reg", [0.0, 1e-3])
    def test_bit_identical(self, mode, batch_size, l2_reg):
        graph = random_graph()
        thetas = np.random.default_rng(1).uniform(0.05, 1.0, (3, graph.n_posts))
        members = [None, None] if mode == "naive" else list(thetas)
        for dim in (5, 4):  # the step scatters single doubles, then pairs of doubles
            hyper = BprHyper(embedding_dim=dim, learning_rate=0.05, batch_size=batch_size,
                             l2_reg=l2_reg, epochs=4, loss_mode=mode, seed=3)
            expected = reference_train_group(graph, members, hyper)
            if mode == "unbiased":
                assert min(m.training_curve[0] for m in expected[0]) < 0  # negative weights
            assert_same_models(train_stack(graph, tables_of(graph, members), hyper), expected)

    def test_one_member_stops_while_the_others_go_on(self):
        graph = random_graph()
        thetas = [np.full(graph.n_posts, t) for t in (1.0, 0.3, 0.2)]
        hyper = BprHyper(embedding_dim=5, learning_rate=0.05, batch_size=16, epochs=30,
                         loss_mode="nonneg", early_stop_tol=1e-3, early_stop_patience=3, seed=4)
        expected = reference_train_group(graph, thetas, hyper)
        # member 0 stops at epoch 8 and member 2 at 14; member 1 runs all 30
        assert [len(m.training_curve) for m in expected[0]] == [8, 30, 14]
        assert_same_models(train_stack(graph, tables_of(graph, thetas), hyper), expected)

    def test_divergence_epoch(self):
        # the stack names the first member, in stack order, that diverges when
        # trained alone: member 1 at epoch 21, although member 2 diverges at 16
        graph = two_block_graph()
        thetas = [np.full(graph.n_posts, t) for t in (1.0, 0.1, 0.05)]
        hyper = BprHyper(embedding_dim=4, learning_rate=1.0, epochs=40, early_stop_patience=40,
                         loss_mode="unbiased", seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            alone = [reference_train_group(graph, [theta], hyper)[1] for theta in thetas]
            with pytest.raises(RuntimeError) as stacked:
                train_stack(graph, tables_of(graph, thetas), hyper)
        assert alone == [None, 21, 16]
        assert str(stacked.value) == "training diverged (non-finite loss) at epoch 21"


def two_block_graph():
    # users of block A share exactly the posts of block A
    posts = [(f"p{i}", False, None) for i in range(20)]
    edges = []
    for u in range(20):
        block = u // 10
        for j in range(10 * block, 10 * block + 10):
            edges.append((u, f"p{j}"))
    return make_graph(20, posts, edges)


class TestTrain:
    def test_heavy_l2_shrinks_embeddings(self):
        graph = two_block_graph()
        hyper = BprHyper(embedding_dim=8, learning_rate=0.001, epochs=3, l2_reg=1e6,
                         loss_mode="naive", seed=0)
        model = train(graph, None, hyper)
        assert np.linalg.norm(model.user_factors, axis=1).max() < 1e-2
        assert np.linalg.norm(model.post_factors, axis=1).max() < 1e-2

    def test_block_preference_learned(self):
        graph = two_block_graph()
        hyper = BprHyper(embedding_dim=8, learning_rate=0.05, epochs=120,
                         loss_mode="naive", seed=1, early_stop_patience=1000)
        model = train(graph, None, hyper)
        good = total = 0
        for u in range(20):
            block = u // 10
            other = 1 - block
            inside = [f"p{j}" for j in range(10 * block, 10 * block + 10)]
            outside = [f"p{j}" for j in range(10 * other, 10 * other + 10)]
            uf = model.user_factors[model.user_ids.index(f"u{u}")]
            for hi in inside:
                for go in outside:
                    total += 1
                    s_in = float(np.dot(uf, model.post_factors[model.post_ids.index(hi)]))
                    s_out = float(np.dot(uf, model.post_factors[model.post_ids.index(go)]))
                    good += s_in > s_out
        assert good / total >= 0.95

    def test_training_curve_improves(self):
        graph = two_block_graph()
        hyper = BprHyper(embedding_dim=8, learning_rate=0.05, epochs=40,
                         loss_mode="naive", seed=2, early_stop_patience=1000)
        model = train(graph, None, hyper)
        curve = model.training_curve
        assert np.median(curve[-10:]) <= np.median(curve[:10])

    def test_seed_determinism(self):
        graph = two_block_graph()
        hyper = BprHyper(embedding_dim=4, learning_rate=0.02, epochs=5, seed=3, loss_mode="naive")
        m1 = train(graph, None, hyper)
        m2 = train(graph, None, hyper)
        assert np.array_equal(m1.user_factors, m2.user_factors)
        assert np.array_equal(m1.post_factors, m2.post_factors)
        assert m1.training_curve == m2.training_curve

    def test_one_full_batch_epoch_is_one_gradient_step(self):
        tol = 1e-12
        graph = two_block_graph()
        table = PropensityTable(
            scheme="test", mu=None, floor=1e-3, post_ids=graph.post_ids,
            theta=[0.1 + 0.04 * int(p[1:]) for p in graph.post_ids],
        )
        eu, ep = graph.edge_arrays
        edges = set(zip(eu.tolist(), ep.tolist()))
        n, d = graph.n_edges, 4
        for mode in ("naive", "unbiased", "nonneg"):
            hyper = BprHyper(embedding_dim=d, learning_rate=0.05, batch_size=n, l2_reg=0.0,
                             epochs=1, loss_mode=mode, seed=7)
            trained = train(graph, table, hyper)
            # train's RNG protocol: user init, post init, permutation, negatives
            rng = np.random.default_rng(hyper.seed)
            scale = 1.0 / np.sqrt(d)
            init = BprModel(
                user_ids=graph.users,
                post_ids=trained.post_ids,
                user_factors=rng.uniform(-scale, scale, (graph.n_users, d)),
                post_factors=rng.uniform(-scale, scale, (graph.n_posts, d)),
                hyper=hyper,
            )
            order = rng.permutation(n)
            users, pos = eu[order], ep[order]
            neg = rng.integers(0, graph.n_posts - 1, n)
            neg = neg + (neg >= pos)
            theta = table.theta
            batch = TripletBatch(
                users=users,
                pos=pos,
                neg=neg,
                pos_observed=np.ones(n),
                neg_observed=np.array([float(e in edges) for e in zip(users.tolist(), neg.tolist())]),
                pos_theta=theta[pos],
                neg_theta=theta[neg],
            )
            loss, du, dh = batch_gradients(init, batch, mode)
            step = hyper.learning_rate * n
            assert np.max(np.abs(trained.user_factors - (init.user_factors - step * du))) < tol
            assert np.max(np.abs(trained.post_factors - (init.post_factors - step * dh))) < tol
            assert abs(trained.training_curve[0] - loss) < tol

    def test_mode_requires_propensity(self):
        graph = two_block_graph()
        with pytest.raises(ValueError, match="propensity"):
            train(graph, None, BprHyper(loss_mode="nonneg"))

    def test_table_built_on_other_posts_rejected(self):
        graph = two_block_graph()
        fewer = make_graph(1, [(f"p{i}", False, None) for i in range(19)], [(0, "p0")])
        renamed = make_graph(1, [("p0", False, None), ("q1", False, None)], [(0, "q1")])
        for other in (fewer, renamed):
            table = virality_propensity(other)
            with pytest.raises(DataError, match="other posts"):
                train(graph, table, BprHyper(embedding_dim=4, epochs=1))
            with pytest.raises(DataError, match="other posts"):
                sample_triplets(graph, 4, seed=0, propensity=table)

    def test_stack_members_equal_solo_training(self, monkeypatch, forks):
        rng = np.random.default_rng(3)
        posts = [(f"p{j}", False, None) for j in range(20)]
        edges = [(u, f"p{j}") for u in range(30) for j in range(20) if rng.random() < 0.6 / (1 + j)]
        graph = make_graph(30, posts, edges)
        tables = [virality_propensity(graph, mu=mu) for mu in (0.1, 0.5, 1.0)]
        tables.append(biased_propensity(graph))
        hyper = BprHyper(embedding_dim=8, learning_rate=0.01, batch_size=16, epochs=15,
                         early_stop_tol=1e-3, early_stop_patience=2, seed=0)
        solos = [train(graph, table, hyper) for table in tables]
        for cpus in (1, 3):  # the stack trains in this process however many CPUs it may use
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            stacked = train_stack(graph, tables, hyper)
            assert forks == []
            lengths = [len(m.training_curve) for m in stacked]
            assert len(set(lengths)) == len(tables) and min(lengths) < hyper.epochs
            for solo, member in zip(solos, stacked):
                assert np.array_equal(member.user_factors, solo.user_factors)
                assert np.array_equal(member.post_factors, solo.post_factors)
                assert member.training_curve == solo.training_curve

    def test_stack_requires_every_propensity(self):
        graph = two_block_graph()
        table = biased_propensity(graph)
        with pytest.raises(ValueError) as solo:
            train(graph, None, BprHyper(loss_mode="nonneg"))
        with pytest.raises(ValueError) as stacked:
            train_stack(graph, [table, None], BprHyper(loss_mode="nonneg"))
        assert str(stacked.value) == str(solo.value)

    def test_invalid_hyper(self):
        with pytest.raises(ConfigError):
            BprHyper(embedding_dim=0)
        with pytest.raises(ConfigError):
            BprHyper(loss_mode="fancy")
        with pytest.raises(ConfigError, match="early_stop_patience"):
            BprHyper(early_stop_patience=0)
        with pytest.raises(ConfigError, match="early_stop_tol"):
            BprHyper(early_stop_tol=-1e-6)


class TestForkedStack:
    """A diverging stack trained in this process, and split by ``spread``
    over 3 CPUs: members 0, 1 and 2 train in this process, the first worker
    and the second worker."""

    @pytest.mark.parametrize("thetas", [[1.0, 0.1, 0.05], [0.05, 0.1, 1.0], [0.1, 1.0, 0.05]])
    def test_divergence_reports_earliest_epoch_of_any_group(self, monkeypatch, forks, deadline,
                                                            thetas):
        # inverse propensities below 1 make negative weights, which push the
        # factors apart until the loss overflows: theta 0.1 at epoch 21, 0.05 at 16;
        # the error names the first diverged member in stack order
        hyper = BprHyper(embedding_dim=4, learning_rate=1.0, epochs=40, early_stop_patience=40,
                         loss_mode="unbiased", seed=0)
        graph = two_block_graph()
        tables = tables_of(graph, [np.full(graph.n_posts, t) for t in thetas])
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError) as in_process:
                train_stack(graph, tables, hyper)
            with pytest.raises(RuntimeError) as forked:
                workers.spread(lambda group: train_stack(graph, group, hyper), tables)
        assert len(forks) == 2
        assert_no_children()
        epoch = 16 if thetas[0] == 0.05 else 21
        assert str(in_process.value) == f"training diverged (non-finite loss) at epoch {epoch}"
        assert str(forked.value) == str(in_process.value)


class TestUserEmbedding:
    def test_default_dimension_is_64(self):
        graph = make_graph(2, [("p0", False, None), ("p1", False, None)], [(0, "p0"), (1, "p1")])
        model = train(graph, None, BprHyper(epochs=1, loss_mode="naive", seed=0))
        assert user_embedding(model, "u0").shape == (64,)

    def test_unknown_user(self, rng):
        model = random_model(rng)
        with pytest.raises(KeyError, match="unknown user"):
            user_embedding(model, "nobody")

    def test_purity(self, rng):
        model = random_model(rng)
        a = user_embedding(model, "u1")
        b = user_embedding(model, "u1")
        assert np.array_equal(a, b)
        a[0] = 999.0  # mutating the copy must not touch the model
        assert user_embedding(model, "u1")[0] != 999.0


class TestRankingMetrics:
    def test_recall_counting(self, rng):
        model = random_model(rng, n_users=1, n_posts=6, dim=2)
        model.user_factors[0] = [1.0, 0.0]
        model.post_factors[:] = 0.0
        model.post_factors[0, 0] = 3.0  # p0 ranked first
        model.post_factors[5, 0] = -1.0  # p5 ranked last
        posts = [(f"p{i}", False, None) for i in range(6)]
        test = make_graph(1, posts, [(0, "p0"), (0, "p5")])
        rep = ranking_metrics(model, test, [2])
        assert rep[("recall", 2)] == pytest.approx(0.5)

    def test_single_relevant_first_is_perfect(self, rng):
        model = random_model(rng, n_users=1, n_posts=5, dim=2)
        model.user_factors[0] = [1.0, 0.0]
        model.post_factors[:] = 0.0
        model.post_factors[2, 0] = 5.0
        posts = [(f"p{i}", False, None) for i in range(5)]
        test = make_graph(1, posts, [(0, "p2")])
        rep = ranking_metrics(model, test, [3])
        assert rep[("ndcg", 3)] == pytest.approx(1.0)

    def test_single_relevant_second(self, rng):
        model = random_model(rng, n_users=1, n_posts=8, dim=2)
        model.user_factors[0] = [1.0, 0.0]
        model.post_factors[:] = 0.0
        model.post_factors[3, 0] = 9.0  # irrelevant, first
        model.post_factors[4, 0] = 5.0  # relevant, second
        posts = [(f"p{i}", False, None) for i in range(8)]
        test = make_graph(1, posts, [(0, "p4")])
        rep = ranking_metrics(model, test, [5])
        assert rep[("ndcg", 5)] == pytest.approx(1.0 / math.log2(3), abs=1e-12)
        assert rep[("ndcg", 5)] == pytest.approx(0.63093, abs=1e-5)

    def test_matches_brute_force_oracle(self, rng):
        for case in range(200):
            n_users = int(rng.integers(1, 5))
            n_posts = int(rng.integers(2, 9))
            model = random_model(rng, n_users=n_users, n_posts=n_posts, dim=3)
            all_pairs = [(u, p) for u in range(n_users) for p in range(n_posts)]
            picks = rng.random(len(all_pairs))
            train_edges = [
                (f"u{u}", f"p{p}") for (u, p), r in zip(all_pairs, picks) if r < 0.25
            ]
            test_candidates = [
                (f"u{u}", f"p{p}") for (u, p), r in zip(all_pairs, picks) if r >= 0.75
            ]
            if not test_candidates:
                continue
            posts = [(f"p{i}", False, None) for i in range(n_posts)]
            test = make_graph(
                n_users, posts, [(int(u[1:]), p) for u, p in test_candidates]
            )
            train_graph = make_graph(
                n_users, posts, [(int(u[1:]), p) for u, p in train_edges]
            )
            k_list = sorted({1, 2, n_posts})
            rep = ranking_metrics(model, test, k_list, train=train_graph)
            expected, n_eval = brute_force_ranking(
                model.user_factors,
                model.post_factors,
                model.post_ids,
                test.edges_by_user,
                train_graph.edges_by_user,
                model.user_ids,
                k_list,
            )
            assert rep.n_evaluated == n_eval
            for key, val in expected.items():
                assert rep[key] == pytest.approx(val, abs=1e-12)

    def test_graphs_over_other_posts_or_users_rejected(self, rng):
        model = random_model(rng, n_users=2, n_posts=4, dim=2)
        posts = [(f"p{i}", False, None) for i in range(4)]
        test = make_graph(2, posts, [(0, "p1")])
        with pytest.raises(ValueError, match="model's posts"):
            ranking_metrics(model, make_graph(2, posts[:3], [(0, "p1")]), [2])
        with pytest.raises(ValueError, match="share their users"):
            ranking_metrics(model, test, [2], train=make_graph(3, posts, [(2, "p0")]))

    def test_user_unknown_to_model_skipped(self, rng):
        model = random_model(rng, n_users=2, n_posts=4, dim=2)
        posts = [(f"p{i}", False, None) for i in range(4)]
        test = make_graph(3, posts, [(0, "p1"), (2, "p0"), (2, "p3")])
        rep = ranking_metrics(model, test, [2])
        assert (rep.n_evaluated, rep.n_skipped) == (1, 2)
        alone = ranking_metrics(model, make_graph(3, posts, [(0, "p1")]), [2])
        assert rep.values == alone.values

    def test_skipped_users_counted(self, rng):
        model = random_model(rng, n_users=3, n_posts=4, dim=2)
        posts = [(f"p{i}", False, None) for i in range(4)]
        test = make_graph(3, posts, [(0, "p1")])
        rep = ranking_metrics(model, test, [2])
        assert rep.n_evaluated == 1
        assert rep.n_skipped == 2

    def test_user_whose_train_edges_cover_every_post(self, rng):
        model = random_model(rng, n_users=1, n_posts=4, dim=2)
        posts = [(f"p{i}", False, None) for i in range(4)]
        test = make_graph(1, posts, [(0, "p2")])
        train_graph = make_graph(1, posts, [(0, f"p{i}") for i in range(4)])
        rep = ranking_metrics(model, test, [2, 3], train=train_graph)
        # every score is -inf, so the posts rank in their order: p2 is third
        assert (rep[("recall", 2)], rep[("recall", 3)]) == (0.0, 1.0)
        assert rep[("ndcg", 3)] == pytest.approx(0.5)


def assert_same_bits(rep, model, test, k_list, train):
    values, n_evaluated, n_skipped = per_user_ranking(model, test, k_list, train)
    assert (rep.n_evaluated, rep.n_skipped) == (n_evaluated, n_skipped)
    assert list(rep.values) == list(values)
    assert [v.hex() for v in rep.values.values()] == [v.hex() for v in values.values()]


def random_ranking_case(rng):
    """A model, test and train graph and k list that mix the hard cases of
    ranking: tied scores, a user whose train edges cover every post, users
    unknown to the model or without test edges, rows with 9 or more hits, and
    k beyond the number of posts."""
    n_users, n_posts, dim = int(rng.integers(1, 30)), int(rng.integers(1, 40)), int(rng.integers(1, 9))
    posts = [(f"p{i}", False, None) for i in range(n_posts)]
    cells = [(u, p) for u in range(n_users) for p in range(n_posts)]
    draw = rng.random(len(cells))
    train_share, test_share = rng.uniform(0.0, 0.4), rng.uniform(0.05, 0.6)
    train_edges = [(u, f"p{p}") for (u, p), r in zip(cells, draw) if r < train_share or u == 0]
    test_edges = [(u, f"p{p}") for (u, p), r in zip(cells, draw) if r > 1.0 - test_share]
    known = rng.permutation(n_users)[: int(rng.integers(1, n_users + 1))]
    post_factors = rng.normal(0.0, 1.0, (n_posts, dim))
    tie = rng.integers(0, 3)
    if tie == 1:
        post_factors[:] = 0.0
    elif tie == 2:  # a few distinct rows, each repeated
        post_factors = post_factors[rng.integers(0, min(3, n_posts), n_posts)]
    model = BprModel(
        user_ids=tuple(f"u{i}" for i in known),
        post_ids=tuple(sorted(p for p, _, _ in posts)),
        user_factors=rng.normal(0.0, 1.0, (known.size, dim)),
        post_factors=post_factors,
        hyper=BprHyper(embedding_dim=dim),
    )
    k_list = sorted({1, 2, 9, int(rng.integers(1, n_posts + 5)), n_posts + 3})
    return model, make_graph(n_users, posts, test_edges), make_graph(n_users, posts, train_edges), k_list


class TestBlockedRanking:
    """``ranking_metrics`` reproduces the per-user loop's bits."""

    @pytest.mark.parametrize("block_cells", [1, 50, 1 << 16])
    def test_bit_identical_to_per_user_loop(self, rng, monkeypatch, block_cells):
        monkeypatch.setattr(bprmf, "_RANK_BLOCK_CELLS", block_cells)
        seen = {"blocks": 0, "deep rows": 0, "full train rows": 0, "cases": 0}
        while seen["cases"] < 150:
            model, test, train_graph, k_list = random_ranking_case(rng)
            if not set(test.edges_by_user) & set(model.user_ids):
                continue
            rep = ranking_metrics(model, test, k_list, train=train_graph)
            assert_same_bits(rep, model, test, k_list, train_graph)
            per_block = max(1, block_cells // len(model.post_ids))
            seen["blocks"] = max(seen["blocks"], -(-rep.n_evaluated // per_block))
            seen["deep rows"] += max(len(ps) for ps in test.edges_by_user.values()) >= 9
            seen["full train rows"] += "u0" in model.user_ids and "u0" in test.edges_by_user
            seen["cases"] += 1
        assert seen["deep rows"] > 10 and seen["full train rows"] > 10
        if block_cells < 1 << 16:
            assert seen["blocks"] >= 3

    def test_top_posts_are_the_stable_sort_prefix(self, rng):
        for case in range(300):
            rows, n_posts = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            # few distinct scores, so ties often straddle the k-th position
            scores = rng.integers(-3, 3, (rows, n_posts)).astype(float)
            scores[rng.random((rows, n_posts)) < 0.2] = -np.inf  # train cells
            if case % 3 == 0:
                scores[0] = -np.inf  # a user whose train edges cover every post
            for k in (1, 2, n_posts // 2 + 1, n_posts, n_posts + 3):
                want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
                got = bprmf._top_posts(scores.copy(), k)
                assert got.tolist() == want.tolist(), (scores, k)

    def test_bit_identical_on_models_of_a_pipeline_run(self, tmp_path, monkeypatch):
        calls = []

        def record(model, test, k_list, train):
            calls.append((model, test, k_list, train))
            return ranking_metrics(model, test, k_list, train=train)

        monkeypatch.setattr(pipeline, "ranking_metrics", record)
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)  # the spy sees this process only
        cfg = PipelineConfig.from_dict({
            "synth": {"n_users": 200, "n_posts": 120, "n_hate_posts": 60, "n_clusters": 2,
                      "mean_shares": 25.0, "seed": 3},
            "out_dir": str(tmp_path / "out"),
            "k_list": [5, 20, 40, 80],
            "bpr": {"learning_rate": 0.02, "epochs": 3, "seed": 1},
            "ebm": {"n_bags": 1, "max_rounds": 5, "n_interactions": 0},
            "topics_k": 2,
            "topics_iterations": 2,
            "emit_plots": False,
        })
        run_pipeline(cfg)
        assert [call[0].user_factors.shape[1] for call in calls] == [64] * len(RANKING_SCHEMES)
        for model, test, k_list, train_graph in calls:
            assert_same_bits(ranking_metrics(model, test, k_list, train=train_graph),
                             model, test, k_list, train_graph)

    def test_memory_bounded_in_users(self):
        def traced_peak(n_users, n_posts=500):
            rng = np.random.default_rng(7)
            users = tuple(f"u{i:04d}" for i in range(n_users))
            posts = make_graph(1, [(f"p{i:03d}", False, None) for i in range(n_posts)], []).posts
            picks = np.array([rng.choice(n_posts, 15, replace=False) for _ in range(n_users)])
            test, train_graph = (
                InteractionGraph(users, posts, np.arange(n_users).repeat(n), cols.ravel())
                for n, cols in ((5, picks[:, :5]), (10, picks[:, 5:]))
            )
            model = BprModel(users, test.post_ids, rng.normal(0.0, 1.0, (n_users, 64)),
                             rng.normal(0.0, 1.0, (n_posts, 64)), BprHyper())
            test.indptr, train_graph.indptr  # the graphs' own, built before tracing
            tracemalloc.start()
            try:
                rep = ranking_metrics(model, test, [20, 40, 60, 80], train=train_graph)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.n_evaluated == n_users
            return peak

        small, large = traced_peak(1000), traced_peak(4000)
        # a users x posts score matrix alone would take 3.8 MiB at 1,000 users
        assert large < 3 * 2**20
        assert large < small + 2**18
