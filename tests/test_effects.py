import numpy as np
import pytest

from reshare.effects import (
    EbmHyper,
    FeatureMatrix,
    assemble_features,
    contribution_curve,
    _boost_bags,
    _interaction_strengths,
    feature_importance,
    fit_ebm,
    fit_ebm_stack,
    fit_linear,
    predict,
)
from reshare.errors import ConfigError, DataError
from reshare.outcomes import compute_outcomes
from reshare.synthgen import SynthConfig, generate

from conftest import make_graph, make_users, subset_matrix


def matrix_from(rng, n=1500, uniform=True):
    a = rng.uniform(-2.0, 2.0, n) if uniform else rng.normal(0, 1, n)
    b = rng.uniform(0.0, 1.0, n)
    c = (rng.random(n) < 0.4).astype(float)
    X = np.column_stack([a, b, c])
    return X, ("a", "b", "c")


def fmatrix(X, cols):
    return FeatureMatrix(user_ids=tuple(f"u{i}" for i in range(len(X))), columns=cols, X=X)


class TestAssemble:
    def setup_method(self):
        posts = [("h0", True, "c0"), ("h1", True, "c1"), ("n0", False, None)]
        edges = [(0, "h0"), (0, "n0"), (1, "h1"), (1, "n0"), (2, "n0")]
        self.graph = make_graph(3, posts, edges)
        self.outcomes = compute_outcomes(self.graph)
        self.users = make_users([{"user_id": f"u{i}"} for i in range(3)])
        self.embeddings = tuple(f"u{i}" for i in range(3)), np.tile(np.arange(64.0), (3, 1))

    def test_column_count_with_64_dims(self):
        fm = assemble_features(self.users, self.embeddings, self.outcomes)
        assert len(fm.columns) == 69
        assert fm.columns[:5] == (
            "verified",
            "account_age_days",
            "log1p_n_posts",
            "log1p_n_followers",
            "log1p_n_friends",
        )
        assert fm.columns[5] == "x_0" and fm.columns[-1] == "x_63"

    def test_base_ablation_drops_embeddings(self):
        fm = assemble_features(self.users, None, self.outcomes)
        assert len(fm.columns) == 5

    def test_shuffled_embedding_pair_gives_equal_matrix(self):
        rng = np.random.default_rng(4)
        ids = ("u0", "u1", "u2", "u9")  # u9 has no outcome
        vectors = rng.normal(size=(4, 5))
        order = [3, 1, 2, 0]
        fm = assemble_features(self.users, (ids, vectors), self.outcomes)
        shuffled = assemble_features(
            self.users, (tuple(ids[i] for i in order), vectors[order]), self.outcomes
        )
        assert shuffled.user_ids == fm.user_ids
        assert np.array_equal(shuffled.X, fm.X)
        rows = [ids.index(u) for u in fm.user_ids]
        assert np.array_equal(fm.X[:, 5:], vectors[rows])

    def test_missing_embedding_rejected(self):
        ids, vectors = self.embeddings
        embeddings = (ids[0], ids[2]), vectors[[0, 2]]
        with pytest.raises(DataError, match="no embedding"):
            assemble_features(self.users, embeddings, self.outcomes)


class TestFitEbm:
    def test_constant_target_intercept_only(self, rng):
        X, cols = matrix_from(rng, n=50)
        fm = fmatrix(X, cols)
        with pytest.warns(UserWarning, match="constant target"):
            model = fit_ebm(fm, np.full(50, 0.7), EbmHyper(n_bags=2, seed=0))
        assert model.intercept == pytest.approx(0.7)
        assert np.allclose(predict(model, fm), 0.7)

    def test_linear_target_recovered(self, rng):
        X, cols = matrix_from(rng, n=3000)
        y = 2.0 * X[:, 0]
        fm = fmatrix(X, cols)
        model = fit_ebm(fm, y, EbmHyper(n_interactions=0, n_bags=4, seed=1))
        curve = contribution_curve(model, "a", grid=64)
        truth = 2.0 * (curve.x - X[:, 0].mean())
        tol = np.maximum(0.02 * (truth.max() - truth.min()), 2.0 * (curve.upper - curve.value))
        assert np.all(np.abs(curve.value - truth) <= tol + 1e-12)
        assert float(np.sqrt(np.mean((predict(model, fm) - y) ** 2))) < 0.05 * y.std()

    def test_step_location_within_one_bin(self, rng):
        X, cols = matrix_from(rng, n=4000)
        med = float(np.median(X[:, 0]))
        y = (X[:, 0] > med).astype(float)
        fm = fmatrix(X, cols)
        model = fit_ebm(fm, y, EbmHyper(n_interactions=0, n_bags=4, max_bins=128, seed=2))
        shape = model.shapes[0]
        cuts = shape.bins.cuts
        pos = np.searchsorted(cuts, med)
        lo_cut = cuts[max(pos - 2, 0)]
        hi_cut = cuts[min(pos + 1, cuts.size - 1)]
        xs = np.linspace(X[:, 0].min(), X[:, 0].max(), 400)
        vals = shape(xs)
        mid = (vals.max() + vals.min()) / 2.0
        crossings = xs[np.where(np.diff(np.signbit(vals - mid)))[0]]
        assert crossings.size >= 1
        assert lo_cut - 1e-9 <= crossings[0] <= hi_cut + 1e-9

    def test_centering_exact(self, rng):
        X, cols = matrix_from(rng, n=800)
        y = X[:, 0] ** 2 + 0.3 * X[:, 2] + rng.normal(0, 0.1, 800)
        fm = fmatrix(X, cols)
        model = fit_ebm(fm, y, EbmHyper(n_bags=3, n_interactions=2, seed=3))
        for m in range(3):
            assert abs(float(np.mean(model.shapes[m](X[:, m])))) < 1e-9
        for term in model.pair_terms:
            assert abs(float(np.mean(term(X[:, term.i], X[:, term.j])))) < 1e-9

    def test_additivity_of_predict(self, rng):
        X, cols = matrix_from(rng, n=600)
        y = np.sin(X[:, 0]) + X[:, 1]
        fm = fmatrix(X, cols)
        model = fit_ebm(fm, y, EbmHyper(n_bags=2, n_interactions=1, seed=4))
        manual = np.full(600, model.intercept)
        for m in range(3):
            manual += model.shapes[m](X[:, m])
        for term in model.pair_terms:
            manual += term(X[:, term.i], X[:, term.j])
        assert np.allclose(predict(model, fm), manual, atol=1e-9)

    def test_train_mean_prediction_is_intercept(self, rng):
        X, cols = matrix_from(rng, n=500)
        y = X[:, 0] + 0.1 * rng.normal(size=500)
        fm = fmatrix(X, cols)
        model = fit_ebm(fm, y, EbmHyper(n_bags=3, n_interactions=0, seed=5))
        assert float(np.mean(predict(model, fm))) == pytest.approx(model.intercept, abs=1e-9)

    def test_boosting_monotone_training_rmse(self, rng):
        X, cols = matrix_from(rng, n=400)
        y = X[:, 0] - 0.5 * X[:, 1] + rng.normal(0, 0.05, 400)
        fm = fmatrix(X, cols)
        model = fit_ebm(fm, y, EbmHyper(n_bags=1, n_interactions=0, seed=6))
        curve = np.array(model.train_rmse_curve)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_bounds_collapse_single_bag(self, rng):
        X, cols = matrix_from(rng, n=300)
        y = X[:, 0]
        model = fit_ebm(fmatrix(X, cols), y, EbmHyper(n_bags=1, n_interactions=0, seed=7))
        curve = contribution_curve(model, "a")
        assert np.allclose(curve.lower, curve.value)
        assert np.allclose(curve.upper, curve.value)

    def test_bag_without_oob_rows_stops_on_in_bag_error(self):
        X = np.arange(4.0)[:, None]
        y = np.array([0.0, 1.0, 0.0, 2.0])
        hyper = EbmHyper(
            n_bags=1,
            min_samples_leaf=1,
            n_interactions=0,
            max_rounds=50,
            early_stop_patience=5,
            seed=34,
        )
        # seed 34's only bag draws every row, so it has no out-of-bag rows
        bag_seed = np.random.SeedSequence(34).spawn(1)[0]
        assert set(np.random.default_rng(bag_seed).integers(0, 4, 4)) == {0, 1, 2, 3}
        fm = fmatrix(X, ("a",))
        model = fit_ebm(fm, y, hyper)
        assert len(model.train_rmse_curve) == 50
        rmse = float(np.sqrt(np.mean((predict(model, fm) - y) ** 2)))
        assert rmse < y.std()

    def test_binary_feature_two_rows_centered(self, rng):
        X, cols = matrix_from(rng, n=1000)
        y = 0.4 * X[:, 2] + rng.normal(0, 0.02, 1000)
        model = fit_ebm(fmatrix(X, cols), y, EbmHyper(n_bags=2, n_interactions=0, seed=8))
        curve = contribution_curve(model, "c")
        assert curve.x.shape == (2,)
        w1 = float(np.mean(X[:, 2]))
        weighted = (1 - w1) * curve.value[0] + w1 * curve.value[1]
        assert abs(weighted) < 1e-9

    def test_empty_matrix_rejected(self):
        fm = FeatureMatrix(user_ids=(), columns=("a",), X=np.zeros((0, 1)))
        with pytest.raises(DataError):
            fit_ebm(fm, np.zeros(0), EbmHyper(n_bags=1))

    def test_out_of_range_clamps(self, rng):
        X, cols = matrix_from(rng, n=500)
        y = X[:, 0]
        model = fit_ebm(fmatrix(X, cols), y, EbmHyper(n_bags=2, n_interactions=0, seed=9))
        shape = model.shapes[0]
        assert shape(np.array([-100.0]))[0] == shape(np.array([X[:, 0].min()]))[0]
        assert shape(np.array([100.0]))[0] == shape(np.array([X[:, 0].max()]))[0]

    def test_interaction_pure_product_found(self, rng):
        X, cols = matrix_from(rng, n=2500)
        y = X[:, 0] * (2.0 * X[:, 1] - 1.0) + rng.normal(0, 0.05, 2500)
        fm = fmatrix(X, cols)
        with_pairs = fit_ebm(fm, y, EbmHyper(n_bags=2, n_interactions=2, seed=10))
        without = fit_ebm(fm, y, EbmHyper(n_bags=2, n_interactions=0, seed=10))
        assert (0, 1) in [(t.i, t.j) for t in with_pairs.pair_terms]
        rmse_with = float(np.sqrt(np.mean((predict(with_pairs, fm) - y) ** 2)))
        rmse_without = float(np.sqrt(np.mean((predict(without, fm) - y) ** 2)))
        assert rmse_with < 0.7 * rmse_without

    def test_invalid_hyper(self):
        with pytest.raises(ConfigError):
            EbmHyper(max_bins=1)
        with pytest.raises(ConfigError, match="pair_bins"):
            EbmHyper(pair_bins=1)
        with pytest.raises(ConfigError, match="detect_bins"):
            EbmHyper(detect_bins=1)
        with pytest.raises(ConfigError):
            EbmHyper(n_bags=0)
        with pytest.raises(ConfigError, match="early_stop_patience"):
            EbmHyper(early_stop_patience=0)
        with pytest.raises(ConfigError, match="early_stop_tol"):
            EbmHyper(early_stop_tol=-1e-6)


def same_levels(a, b):
    return a is None and b is None or a is not None and b is not None and np.array_equal(a, b)


def assert_same_model(a, b):
    """Two EBMs are equal bit for bit: intercept, shapes and their bins, pairs
    and their bins, train ranges and levels, and training curve."""
    assert a.intercept == b.intercept
    assert len(a.shapes) == len(b.shapes)
    for sa, sb in zip(a.shapes, b.shapes):
        assert np.array_equal(sa.bins.cuts, sb.bins.cuts)
        assert same_levels(sa.bins.levels, sb.bins.levels)
        assert np.array_equal(sa.values, sb.values)
        assert np.array_equal(sa.stderr, sb.stderr)
    assert [(t.i, t.j) for t in a.pair_terms] == [(t.i, t.j) for t in b.pair_terms]
    for ta, tb in zip(a.pair_terms, b.pair_terms):
        assert np.array_equal(ta.bins_i.cuts, tb.bins_i.cuts)
        assert np.array_equal(ta.bins_j.cuts, tb.bins_j.cuts)
        assert np.array_equal(ta.values, tb.values)
    assert a.train_ranges == b.train_ranges
    assert len(a.train_levels) == len(b.train_levels)
    assert all(same_levels(la, lb) for la, lb in zip(a.train_levels, b.train_levels))
    assert a.train_rmse_curve == b.train_rmse_curve


class TestFitEbmStack:
    def stack_and_solo(self, X, cols, ys, hyper):
        stacked = fit_ebm_stack(fmatrix(X, cols), ys, hyper)
        solo = [fit_ebm(fmatrix(X, cols), y, hyper) for y in ys]
        assert len(stacked) == len(ys)
        for a, b in zip(stacked, solo):
            assert_same_model(a, b)
        return stacked

    def test_members_stopping_at_different_rounds(self, rng):
        X, cols = matrix_from(rng, n=400)
        ys = [
            np.sin(X[:, 0]) + rng.normal(0, 0.02, 400),
            X[:, 1] + rng.normal(0, 0.5, 400),
            rng.normal(0, 1.0, 400),
        ]
        hyper = EbmHyper(n_bags=2, n_interactions=2, max_rounds=400, early_stop_patience=5, seed=15)
        models = self.stack_and_solo(X, cols, ys, hyper)
        rounds = [len(m.train_rmse_curve) for m in models]
        assert len(set(rounds)) == 3 and min(rounds) < 400  # some leave the stack early

    def test_constant_member_is_intercept_only(self, rng):
        X, cols = matrix_from(rng, n=300)
        ys = [X[:, 0] + rng.normal(0, 0.1, 300), np.full(300, 0.3), X[:, 1] ** 2]
        hyper = EbmHyper(n_bags=2, n_interactions=1, max_rounds=200, seed=16)
        with pytest.warns(UserWarning, match="constant target"):
            models = self.stack_and_solo(X, cols, ys, hyper)
        constant = models[1]
        assert constant.intercept == 0.3
        assert constant.pair_terms == [] and constant.train_rmse_curve == []
        assert all(np.all(shape.values == 0.0) for shape in constant.shapes)

    def test_members_choosing_different_pairs(self, rng):
        X, cols = matrix_from(rng, n=1500)
        noise = rng.normal(0, 0.05, 1500)
        ys = [X[:, 0] * (2.0 * X[:, 1] - 1.0) + noise, X[:, 0] * (2.0 * X[:, 2] - 1.0) + noise]
        hyper = EbmHyper(n_bags=2, n_interactions=1, max_rounds=300, seed=17)
        models = self.stack_and_solo(X, cols, ys, hyper)
        assert [(t.i, t.j) for t in models[0].pair_terms] == [(0, 1)]
        assert [(t.i, t.j) for t in models[1].pair_terms] == [(0, 2)]

    def test_bag_without_oob_rows(self):
        X = np.arange(4.0)[:, None]
        ys = [np.array([0.0, 1.0, 0.0, 2.0]), np.array([3.0, 1.0, 2.0, 0.0])]
        hyper = EbmHyper(
            n_bags=1,
            min_samples_leaf=1,
            n_interactions=0,
            max_rounds=50,
            early_stop_patience=5,
            seed=34,  # its only bag draws every row (see TestFitEbm)
        )
        models = self.stack_and_solo(X, ("a",), ys, hyper)
        assert [len(m.train_rmse_curve) for m in models] == [50, 50]

    def test_each_target_bag_member_equals_its_boosting_alone(self, rng):
        n, widths = 300, [12, 12]
        x = rng.uniform(-2.0, 2.0, n)
        main = np.minimum((x + 2.0) * 3.0, 11).astype(int)  # one cell array for all targets
        # a pair-like term whose grid is narrower for targets 1 and 2 than the width
        grid = [main, (main // 3) % 4, main % 4]
        ys = np.array([
            np.sin(x) + rng.normal(0, 0.05, n),
            0.2 * x + rng.normal(0, 1.0, n),
            rng.normal(0, 1.0, n),
        ])
        draws = [np.random.default_rng(seed).integers(0, n, n) for seed in (1, 2)]
        bags = [(rows, np.setdiff1d(np.arange(n), rows)) for rows in draws]
        bags.append((rng.permutation(n), np.array([], dtype=int)))  # no out-of-bag rows
        base = rng.normal(0, 0.1, (3, 3, n))
        cells = [[main] * 3, grid]
        hyper = EbmHyper(learning_rate=0.05, max_rounds=300, early_stop_patience=4)
        curves = [[], [], []]
        stacked = _boost_bags(cells, widths, base, ys, bags, hyper, min_leaf=3, rmse_curves=curves)
        assert [v.shape for v in stacked] == [(3, 3, 12), (3, 3, 12)]
        rounds = set()
        for s in range(3):
            for b in range(3):
                own = [12, int(grid[s].max()) + 1]
                alone_curve = [[]]
                alone = _boost_bags(
                    [[main], [grid[s]]], own, base[s : s + 1, b : b + 1], ys[s : s + 1],
                    bags[b : b + 1], hyper, min_leaf=3, rmse_curves=alone_curve,
                )
                for v, w, width in zip(stacked, alone, own):
                    assert np.array_equal(v[s, b, :width], w[0, 0])
                    assert not v[s, b, width:].any()  # padded cells never update
                if b == 0:
                    assert curves[s] == alone_curve[0]
                rounds.add(len(alone_curve[0]))
        assert len(rounds) >= 4 and min(rounds) < 300  # members stop at different rounds

    def test_target_of_wrong_length_rejected(self, rng):
        X, cols = matrix_from(rng, n=50)
        fm = fmatrix(X, cols)
        with pytest.raises(ValueError, match="one value per row"):
            fit_ebm_stack(fm, [X[:, 0], X[:-1, 1]], EbmHyper(n_bags=1))
        with pytest.raises(ValueError, match="at least one target"):
            fit_ebm_stack(fm, [], EbmHyper(n_bags=1))

    def test_stacked_pair_strengths_equal_each_row_alone(self, rng):
        fi, fj = rng.integers(0, 8, 500), rng.integers(0, 8, 500)
        res = rng.normal(size=(5, 500))
        stacked = _interaction_strengths(res, fi, fj, 8)
        alone = [_interaction_strengths(row[None], fi, fj, 8)[0] for row in res]
        assert stacked.tolist() == alone


class TestFitLinear:
    def test_constant_fit(self, rng):
        X, cols = matrix_from(rng, n=200)
        model = fit_linear(fmatrix(X, cols), np.full(200, 3.0))
        assert model.intercept == pytest.approx(3.0, abs=1e-9)
        for shape in model.shapes:
            assert shape.slope == pytest.approx(0.0, abs=1e-9)

    def test_exact_slope(self, rng):
        X, cols = matrix_from(rng, n=200)
        y = 2.0 * X[:, 0]
        model = fit_linear(fmatrix(X, cols), y)
        assert model.shapes[0].slope == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(predict(model, fmatrix(X, cols)), y, atol=1e-9)

    def test_u_shape_beats_linear_direction(self, rng):
        X, cols = matrix_from(rng, n=3000)
        y = (X[:, 0] ** 2 - X[:, 0].var()) + rng.normal(0, 0.05, 3000)
        fm = fmatrix(X, cols)
        tr, train = subset_matrix(fm, set(fm.user_ids[:2400]))
        te, test = subset_matrix(fm, set(fm.user_ids[2400:]))
        ebm = fit_ebm(tr, y[train], EbmHyper(n_bags=4, n_interactions=0, seed=11))
        lin = fit_linear(tr, y[train])
        rmse_ebm = float(np.sqrt(np.mean((predict(ebm, te) - y[test]) ** 2)))
        rmse_lin = float(np.sqrt(np.mean((predict(lin, te) - y[test]) ** 2)))
        assert rmse_lin > rmse_ebm

    def test_rank_deficient_ridge_fallback(self, rng):
        X, cols = matrix_from(rng, n=100)
        X[:, 1] = 2.0 * X[:, 0]  # collinear
        y = X[:, 0]
        with pytest.warns(UserWarning, match="rank-deficient"):
            model = fit_linear(fmatrix(X, cols), y)
        assert model.ridge_fallback
        with pytest.raises(DataError):
            fit_linear(fmatrix(X, cols), y, allow_ridge=False)


class TestImportanceAndCurves:
    def test_zero_shape_zero_importance(self, rng):
        X, cols = matrix_from(rng, n=800)
        X[:, 2] = 1.0  # constant column: its shape is identically zero
        y = 2.0 * X[:, 0]
        fm = fmatrix(X, cols)
        model = fit_ebm(fm, y, EbmHyper(n_bags=2, n_interactions=0, seed=12))
        imp = feature_importance(model, fm).as_dict()
        assert imp["c"] == 0.0
        assert imp["b"] < 0.15 * imp["a"]
        assert all(v >= 0 for v in imp.values())

    def test_dominant_feature_ordering(self, rng):
        X, cols = matrix_from(rng, n=2000)
        y = 2.0 * X[:, 0] + 0.1 * (2.0 * X[:, 1] - 1.0) + rng.normal(0, 0.02, 2000)
        fm = fmatrix(X, cols)
        model = fit_ebm(fm, y, EbmHyper(n_bags=2, n_interactions=0, seed=13))
        imp = feature_importance(model, fm)
        assert imp.top() == "a"
        assert imp.as_dict()["a"] > imp.as_dict()["b"]

    def test_unknown_feature_rejected(self, rng):
        X, cols = matrix_from(rng, n=100)
        model = fit_linear(fmatrix(X, cols), X[:, 0])
        with pytest.raises(KeyError):
            contribution_curve(model, "zz")

    def test_column_mismatch_rejected(self, rng):
        X, cols = matrix_from(rng, n=100)
        y = X[:, 0]
        model = fit_linear(fmatrix(X, cols), y)
        bad = FeatureMatrix(
            user_ids=tuple(f"u{i}" for i in range(100)),
            columns=("x", "y", "z"),
            X=X,
        )
        with pytest.raises(ValueError, match="columns"):
            predict(model, bad)

    def test_curves_match_prediction_lookups(self, rng):
        X, cols = matrix_from(rng, n=700)
        y = np.cos(X[:, 0]) + 0.2 * X[:, 1]
        fm = fmatrix(X, cols)
        model = fit_ebm(fm, y, EbmHyper(n_bags=2, n_interactions=0, seed=14))
        manual = np.full(700, model.intercept)
        for m in range(3):
            manual += model.shapes[m](X[:, m])
        assert np.allclose(manual, predict(model, fm), atol=1e-9)


class TestRecoveryThroughSynthetic:
    def test_curve_recovery_from_generated_outcomes(self):
        from reshare.synthgen import EffectShape

        spec = (EffectShape("log1p_n_followers", "step", 0.18),)
        cfg = SynthConfig(
            n_users=2500, n_posts=900, n_hate_posts=250, exposure_exponent=0.5,
            exposure_norm_quantile=0.9, mean_shares=150.0, effect_spec=spec,
            noise_sd=0.005, seed=21, with_text=False, cluster_affinity=1.2,
            base_hate_rate=0.35,
        )
        graph, users, truth = generate(cfg)
        oc = compute_outcomes(graph)
        fm = assemble_features(users, None, oc)
        model = fit_ebm(fm, oc.target("overall"), EbmHyper(seed=21, max_bins=128))
        curve = contribution_curve(model, "log1p_n_followers", grid=64)
        target = truth.effect_curves["log1p_n_followers"](curve.x)
        corr = float(np.corrcoef(curve.value, target)[0, 1])
        assert corr >= 0.9
        mae = float(np.abs(curve.value - target).mean())
        assert mae <= 0.1 * (target.max() - target.min())
