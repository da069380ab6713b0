"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Budgets are asserted where
the criterion states one.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest
import scipy.stats

import reshare as rs
from reshare.bprmf import BprHyper, BprModel, TripletBatch, batch_gradients, batch_loss
from reshare.effects import (
    EbmHyper,
    assemble_features,
    contribution_curve,
    feature_importance,
    fit_ebm,
    fit_linear,
    predict,
)
from reshare.outcomes import compute_outcomes
from reshare.stats import dbscan, rmse, welch_t_test
from reshare.synthgen import EffectShape, SynthConfig, generate, sample_interest_graph

from conftest import brute_force_dbscan, brute_force_ranking, canonical_labels, subset_matrix


def report(criterion, name, ok, detail=""):
    line = f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


class TestCriterion1GradientOracle:
    def test_gradients_match_finite_differences(self):
        t0 = time.time()
        rng = np.random.default_rng(101)
        h = 1e-5
        worst = 0.0
        for case in range(100):
            n_users = int(rng.integers(3, 6))
            n_posts = int(rng.integers(3, 7))
            dim = int(rng.integers(2, 4))
            model = BprModel(
                user_ids=tuple(f"u{i}" for i in range(n_users)),
                post_ids=tuple(f"p{i}" for i in range(n_posts)),
                user_factors=rng.normal(0, 0.6, (n_users, dim)),
                post_factors=rng.normal(0, 0.6, (n_posts, dim)),
                hyper=BprHyper(embedding_dim=dim),
            )
            n = int(rng.integers(4, 12))
            users = rng.integers(0, n_users, n)
            pos = rng.integers(0, n_posts, n)
            neg = rng.integers(0, n_posts - 1, n)
            neg = neg + (neg >= pos)
            s_pos = (rng.random(n) < 0.8).astype(float)
            s_neg = (rng.random(n) < 0.4).astype(float)
            s_pos[: max(1, n // 2)] = 1.0
            s_neg[: max(1, n // 4)] = 0.0
            batch = TripletBatch(
                users=users, pos=pos, neg=neg,
                pos_observed=s_pos, neg_observed=s_neg,
                pos_theta=rng.uniform(0.05, 1.0, n),
                neg_theta=rng.uniform(0.05, 1.0, n),
            )
            for mode in ("naive", "unbiased", "nonneg"):
                _, du, dh = batch_gradients(model, batch, mode)
                for arr, grad in ((model.user_factors, du), (model.post_factors, dh)):
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
                    scale = max(float(np.max(np.abs(fd))), 1e-8)
                    rel = float(np.max(np.abs(grad - fd))) / scale
                    worst = max(worst, rel)
        elapsed = time.time() - t0
        report(
            1,
            "gradient oracle",
            worst < 1e-4 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2IpsUnbiasedness:
    def test_unbiased_matches_ideal_naive_deviates(self):
        t0 = time.time()
        cfg = SynthConfig(
            n_users=500, n_posts=100, n_hate_posts=100, n_clusters=4,
            exposure_exponent=1.2, mean_shares=15.0, popularity_spread=1.0,
            cluster_affinity=3.0, seed=42, with_text=False,
        )
        _, _, truth = generate(cfg)
        theta, iota = truth.exposure, truth.interest
        n_u, n_p = theta.shape
        rng = np.random.default_rng(7)
        dim = 8
        model = BprModel(
            user_ids=truth.user_ids,
            post_ids=truth.post_ids,
            user_factors=rng.normal(0, 0.3, (n_u, dim)),
            post_factors=rng.normal(0, 0.3, (n_p, dim)),
            hyper=BprHyper(embedding_dim=dim),
        )
        n_triples = 200_000
        tu = rng.integers(0, n_u, n_triples)
        tp = rng.integers(0, n_p, n_triples)
        tg = rng.integers(0, n_p - 1, n_triples)
        tg = tg + (tg >= tp)
        # independent formula for the exposure-free target loss
        diffs = np.einsum(
            "ij,ij->i", model.user_factors[tu], model.post_factors[tp] - model.post_factors[tg]
        )
        local = np.logaddexp(0.0, -diffs)
        ideal = float(np.mean(iota[tu, tp] * (1.0 - iota[tu, tg]) * local))
        th_pos, th_neg = theta[tu, tp], theta[tu, tg]
        p_edge = theta * iota
        mask_rng = np.random.default_rng(99)
        unbiased, naive = [], []
        for _ in range(200):
            observed = mask_rng.random((n_u, n_p)) < p_edge
            batch = TripletBatch(
                users=tu, pos=tp, neg=tg,
                pos_observed=observed[tu, tp].astype(float),
                neg_observed=observed[tu, tg].astype(float),
                pos_theta=th_pos, neg_theta=th_neg,
            )
            unbiased.append(batch_loss(model, batch, "unbiased"))
            naive.append(batch_loss(model, batch, "naive"))
        unbiased = np.asarray(unbiased)
        naive = np.asarray(naive)
        se_u = unbiased.std(ddof=1) / math.sqrt(unbiased.size)
        se_n = naive.std(ddof=1) / math.sqrt(naive.size)
        dev_u = abs(unbiased.mean() - ideal) / se_u
        dev_n = abs(naive.mean() - ideal) / se_n
        elapsed = time.time() - t0
        report(
            2,
            "IPS unbiasedness",
            dev_u <= 3.0 and dev_n > 3.0 and elapsed < 120.0,
            f"unbiased {dev_u:.2f} SE, naive {dev_n:.0f} SE, {elapsed:.0f}s",
        )


class TestCriterion3DebiasingDirection:
    def test_debiased_beats_naive_recall(self):
        t0 = time.time()
        naive_scores, debiased_scores = [], []
        for seed in range(5):
            cfg = SynthConfig(
                n_users=600, n_posts=500, n_hate_posts=500, n_clusters=10,
                exposure_exponent=1.0, exposure_norm_quantile=0.9,
                mean_shares=50.0, popularity_spread=1.5, cluster_affinity=10.0,
                seed=seed, with_text=False,
            )
            graph, _, truth = generate(cfg)
            test = sample_interest_graph(truth, exclude=graph, per_user=12.0, seed=seed + 1000)
            table = rs.virality_propensity(graph, mu=1.0, floor=0.02)
            common = dict(embedding_dim=16, learning_rate=0.01, epochs=60, seed=seed)
            m_naive = rs.train(graph, None, BprHyper(loss_mode="naive", **common))
            m_ips = rs.train(graph, table, BprHyper(loss_mode="nonneg", **common))
            naive_scores.append(
                rs.ranking_metrics(m_naive, test, [40], train=graph)[("recall", 40)]
            )
            debiased_scores.append(
                rs.ranking_metrics(m_ips, test, [40], train=graph)[("recall", 40)]
            )
        wins = sum(d > n for d, n in zip(debiased_scores, naive_scores))
        welch = welch_t_test(debiased_scores, naive_scores)
        elapsed = time.time() - t0
        report(
            3,
            "debiasing direction",
            wins >= 4 and welch.p < 0.05 and elapsed < 300.0,
            f"wins {wins}/5, recall {np.mean(debiased_scores):.3f} vs "
            f"{np.mean(naive_scores):.3f}, p={welch.p:.4f}, {elapsed:.0f}s",
        )


class TestCriterion4NonlinearityDirection:
    def test_ebm_beats_linear_every_run(self):
        t0 = time.time()
        spec = (
            EffectShape("log1p_n_followers", "u", 0.15),
            EffectShape("log1p_n_posts", "step", 0.15),
        )
        improvements = []
        for seed in range(5):
            cfg = SynthConfig(
                n_users=2000, n_posts=800, n_hate_posts=200, n_clusters=4,
                exposure_exponent=0.5, exposure_norm_quantile=0.9, mean_shares=150.0,
                effect_spec=spec, noise_sd=0.015, seed=seed, with_text=False,
                cluster_affinity=1.2, base_hate_rate=0.35,
            )
            graph, users, _ = generate(cfg)
            outcomes = compute_outcomes(graph)
            pair = rs.split(graph, "by-user", 0.8, seed + 100)
            y = outcomes.target("overall")
            fm = assemble_features(users, None, outcomes)
            fm_train, train = subset_matrix(fm, pair.train)
            fm_test, test = subset_matrix(fm, pair.test)
            ebm = fit_ebm(fm_train, y[train], EbmHyper(seed=seed, max_bins=128))
            linear = fit_linear(fm_train, y[train])
            r_ebm = rmse(predict(ebm, fm_test), y[test])
            r_lin = rmse(predict(linear, fm_test), y[test])
            improvements.append(1.0 - r_ebm / r_lin)
        elapsed = time.time() - t0
        report(
            4,
            "nonlinearity direction",
            all(rel >= 0.02 for rel in improvements) and elapsed < 180.0,
            f"min improvement {min(improvements):.1%}, {elapsed:.0f}s",
        )


class TestCriterion5ConfounderDirection:
    def test_embedding_control_reduces_rmse(self):
        wins = 0
        for seed in range(5):
            cfg = SynthConfig(
                n_users=1500, n_posts=400, n_hate_posts=150, n_clusters=2,
                exposure_exponent=0.5, exposure_norm_quantile=0.9, mean_shares=60.0,
                effect_spec=(EffectShape("log1p_n_posts", "linear", 0.02),),
                noise_sd=0.01, seed=seed, with_text=False,
                cluster_affinity=5.0, latent_outcome_strength=0.12, base_hate_rate=0.3,
            )
            graph, users, _ = generate(cfg)
            hate = graph.hate_subgraph()
            table = rs.virality_propensity(hate, mu=0.5, floor=0.01)
            model = rs.train(
                hate,
                table,
                BprHyper(embedding_dim=16, learning_rate=0.01, epochs=40,
                         loss_mode="nonneg", seed=seed),
            )
            embeddings = (model.user_ids, model.user_factors)
            outcomes = compute_outcomes(graph)
            pair = rs.split(graph, "by-user", 0.8, seed + 100)
            hyper = EbmHyper(seed=seed, max_bins=128)
            scores = {}
            y = outcomes.target("overall")
            for tag, emb in (("base", None), ("plv", embeddings)):
                fm = assemble_features(users, emb, outcomes)
                train_fm, train = subset_matrix(fm, pair.train)
                test_fm, test = subset_matrix(fm, pair.test)
                m = fit_ebm(train_fm, y[train], hyper)
                scores[tag] = rmse(predict(m, test_fm), y[test])
            wins += scores["plv"] <= scores["base"]
        report(5, "confounder direction", wins >= 4, f"wins {wins}/5")


class TestCriterion6MetricOracles:
    def test_ranking_metrics_vs_brute_force(self):
        rng = np.random.default_rng(606)
        checked = 0
        while checked < 1000:
            n_users = int(rng.integers(1, 5))
            n_posts = int(rng.integers(2, 9))
            model = BprModel(
                user_ids=tuple(f"u{i}" for i in range(n_users)),
                post_ids=tuple(f"p{i}" for i in range(n_posts)),
                user_factors=rng.normal(0, 1.0, (n_users, 3)),
                post_factors=rng.normal(0, 1.0, (n_posts, 3)),
                hyper=BprHyper(embedding_dim=3),
            )
            from reshare.dataset import InteractionGraph, Post

            posts = [Post(post_id=f"p{i}", author_id="u0", is_hate=False) for i in range(n_posts)]
            users = [f"u{i}" for i in range(n_users)]
            draws = rng.random((n_users, n_posts))
            train_edges = [
                (f"u{u}", f"p{p}")
                for u in range(n_users)
                for p in range(n_posts)
                if draws[u, p] < 0.25
            ]
            test_edges = [
                (f"u{u}", f"p{p}")
                for u in range(n_users)
                for p in range(n_posts)
                if draws[u, p] >= 0.75
            ]
            if not test_edges:
                continue
            test = InteractionGraph(users, posts, test_edges)
            train = InteractionGraph(users, posts, train_edges)
            k_list = sorted({1, 2, n_posts})
            ours = rs.ranking_metrics(model, test, k_list, train=train)
            expected, n_eval = brute_force_ranking(
                model.user_factors, model.post_factors, model.post_ids,
                test.edges_by_user, train.edges_by_user, model.user_ids, k_list,
            )
            assert ours.n_evaluated == n_eval
            for key, val in expected.items():
                assert abs(ours[key] - val) <= 1e-12
            checked += 1
        report(6, "ranking metric oracle", True, "1000 instances to 1e-12")

    def test_dbscan_vs_reference(self):
        rng = np.random.default_rng(607)
        for case in range(100):
            centers = rng.uniform(-6, 6, (3, 2))
            points = np.vstack(
                [rng.normal(c, rng.uniform(0.2, 1.2), (20, 2)) for c in centers]
            )
            eps = float(rng.uniform(0.4, 1.3))
            min_pts = int(rng.integers(3, 8))
            ours = dbscan(points, eps=eps, min_pts=min_pts)
            ref = brute_force_dbscan(points, eps=eps, min_pts=min_pts)
            assert canonical_labels(ours) == canonical_labels(ref)
        report(6, "dbscan oracle", True, "100 instances of 60 points")

    def test_welch_vs_reference(self):
        rng = np.random.default_rng(608)
        for case in range(20):
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.3, 3.0), int(rng.integers(4, 40)))
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.3, 3.0), int(rng.integers(4, 40)))
            ours = welch_t_test(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert abs(ours.t - float(ref.statistic)) <= 1e-6
            assert abs(ours.p - float(ref.pvalue)) <= 1e-6
        report(6, "welch oracle", True, "20 cases to 1e-6")


class TestCriterion7EffectRecovery:
    EFFECTS = (
        EffectShape("log1p_n_followers", "step", 0.18),
        EffectShape("log1p_n_posts", "u", 0.15),
        EffectShape("account_age_days", "linear", 0.10),
    )

    def base_config(self, seed, noise_sd):
        return SynthConfig(
            n_users=5000, n_posts=2000, n_hate_posts=500, n_clusters=4,
            exposure_exponent=0.5, exposure_norm_quantile=0.9, mean_shares=300.0,
            effect_spec=self.EFFECTS, noise_sd=noise_sd, seed=seed, with_text=False,
            cluster_affinity=1.2, base_hate_rate=0.35,
        )

    def signal_sd(self):
        _, _, truth = generate(self.base_config(0, 0.0))
        return float(truth.hate_rate_target.std())

    def test_curves_recovered(self):
        noise_sd = 0.1 * self.signal_sd()
        graph, users, truth = generate(self.base_config(0, noise_sd))
        outcomes = compute_outcomes(graph)
        fm = assemble_features(users, None, outcomes)
        model = fit_ebm(fm, outcomes.target("overall"), EbmHyper(seed=0, max_bins=128))
        worst_corr, worst_mae = 1.0, 0.0
        for shape in self.EFFECTS:
            curve = contribution_curve(model, shape.attribute, grid=64)
            target = truth.effect_curves[shape.attribute](curve.x)
            corr = float(np.corrcoef(curve.value, target)[0, 1])
            mae = float(np.abs(curve.value - target).mean()) / float(target.max() - target.min())
            worst_corr = min(worst_corr, corr)
            worst_mae = max(worst_mae, mae)
        report(
            7,
            "curve recovery",
            worst_corr >= 0.9 and worst_mae <= 0.1,
            f"worst corr {worst_corr:.3f}, worst mae/range {worst_mae:.3f}",
        )

    def test_dominant_feature_tops_importance(self):
        noise_sd = 0.1 * self.signal_sd()
        tops = 0
        for seed in range(20):
            graph, users, _ = generate(self.base_config(seed, noise_sd))
            outcomes = compute_outcomes(graph)
            fm = assemble_features(users, None, outcomes)
            model = fit_ebm(fm, outcomes.target("overall"), EbmHyper(seed=seed, max_bins=128))
            tops += feature_importance(model, fm).top() == "log1p_n_followers"
        report(7, "dominant importance", tops >= 19, f"top in {tops}/20 seeds")


class TestCriterion8InvariantSuites:
    def test_propensity_invariants(self):
        for seed in range(5):
            cfg = SynthConfig(n_users=80, n_posts=50, n_hate_posts=50, seed=seed, with_text=False)
            graph, users, _ = generate(cfg)
            vir = rs.virality_propensity(graph, mu=0.5)
            fol = rs.follower_propensity(graph, users, mu=0.5)
            for table in (rs.biased_propensity(graph), vir, fol):
                vals = table.theta
                assert np.all(vals >= table.floor - 1e-15) and np.all(vals <= 1.0)
            assert max(vir.theta) == pytest.approx(1.0)
            assert max(fol.theta) == pytest.approx(1.0)
            counts = graph.reshare_counts()
            theta = vir.theta
            order = np.argsort(counts)
            assert np.all(np.diff(theta[order]) >= -1e-12)  # monotone in reshares
            ratio = counts / counts.max()
            nz = (ratio > 0) & (ratio < 1)
            assert np.all(ratio[nz] ** 0.1 > ratio[nz] ** 0.5)
            assert np.all(ratio[nz] ** 0.5 > ratio[nz] ** 1.0)
        report(8, "propensity invariants", True)

    def test_effects_invariants(self):
        rng = np.random.default_rng(808)
        n = 800
        X = np.column_stack(
            [rng.uniform(-2, 2, n), rng.uniform(0, 1, n), (rng.random(n) < 0.5).astype(float)]
        )
        y = np.sin(X[:, 0]) + 0.5 * X[:, 2] + rng.normal(0, 0.05, n)
        from reshare.effects import FeatureMatrix

        fm = FeatureMatrix(user_ids=tuple(map(str, range(n))), columns=("a", "b", "c"), X=X)
        model = fit_ebm(fm, y, EbmHyper(n_bags=3, n_interactions=1, seed=8))
        for m in range(3):
            assert abs(float(np.mean(model.shapes[m](X[:, m])))) < 1e-9
        manual = np.full(n, model.intercept)
        for m in range(3):
            manual += model.shapes[m](X[:, m])
        for term in model.pair_terms:
            manual += term(X[:, term.i], X[:, term.j])
        assert np.max(np.abs(manual - predict(model, fm))) < 1e-9
        report(8, "effects centering/additivity", True)

    def test_outcome_identity(self):
        for seed in range(5):
            graph, _, _ = generate(
                SynthConfig(n_users=60, n_posts=50, n_hate_posts=20, n_clusters=3, seed=seed)
            )
            outcomes = compute_outcomes(graph)
            assert np.allclose(outcomes.by_cluster.sum(axis=1), outcomes.overall, atol=1e-12)
        report(8, "outcome identity", True)

    def test_split_partition_laws(self):
        graph, _, _ = generate(SynthConfig(n_users=50, n_posts=40, n_hate_posts=10, seed=3))
        for seed in range(6):
            pair = rs.split(graph, "by-edge", 0.8, seed)
            assert set(pair.train.edges) | set(pair.test.edges) == set(graph.edges)
            assert not (set(pair.train.edges) & set(pair.test.edges))
            upair = rs.split(graph, "by-user", 0.8, seed)
            assert upair.train | upair.test == set(graph.users)
            assert not (upair.train & upair.test)
        report(8, "split partition laws", True)

    def test_end_to_end_determinism(self, tmp_path):
        from reshare.cli import main

        cfg = {
            "synth": {
                "n_users": 120, "n_posts": 80, "n_hate_posts": 30, "n_clusters": 2,
                "exposure_exponent": 0.8, "exposure_norm_quantile": 0.9,
                "mean_shares": 25.0, "seed": 3,
            },
            "k_list": [5, 10],
            "bpr": {"embedding_dim": 8, "learning_rate": 0.02, "epochs": 8, "seed": 1},
            "ebm": {"n_bags": 2, "max_bins": 32, "n_interactions": 0, "max_rounds": 300, "seed": 2},
            "topics_k": 3,
            "topics_iterations": 15,
        }
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            path = tmp_path / f"{tag}.json"
            path.write_text(json.dumps({**cfg, "out_dir": str(out)}))
            assert main(["pipeline", "--config", str(path)]) == 0
            with open(out / "report.txt", "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]
        report(8, "end-to-end determinism", True)


class TestCriterion9DeskScale:
    def test_pipeline_under_ten_minutes(self, tmp_path):
        config = {
            "synth": {
                "n_users": 5000, "n_posts": 2000, "n_hate_posts": 500, "n_clusters": 4,
                "exposure_exponent": 0.8, "exposure_norm_quantile": 0.9,
                "mean_shares": 60.0, "seed": 17,
                "effect_spec": [
                    {"attribute": "log1p_n_followers", "shape": "u", "amplitude": 0.1},
                    {"attribute": "log1p_n_posts", "shape": "linear", "amplitude": 0.05},
                ],
                "latent_outcome_strength": 0.05,
            },
            "out_dir": str(tmp_path / "desk"),
            "topics_k": 20,
            "topics_iterations": 200,
            "bpr": {"seed": 5},
            "ebm": {"seed": 6},
        }
        path = tmp_path / "desk.json"
        path.write_text(json.dumps(config))
        from reshare.cli import main

        t0 = time.time()
        rc = main(["pipeline", "--config", str(path)])
        elapsed = time.time() - t0
        out = tmp_path / "desk"
        files = [
            "report.txt", "metrics.csv", "outcomes.csv", "propensity.csv", "topics.csv",
            "plv_embeddings.csv", "training_curve.csv", "importance.csv",
        ]
        all_there = all(os.path.exists(out / f) for f in files)
        report(
            9,
            "desk-scale end-to-end",
            rc == 0 and all_there and elapsed < 600.0,
            f"{elapsed:.0f}s, exit {rc}",
        )
