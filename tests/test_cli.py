import csv
import json
import os
import pickle
import shutil

import numpy as np
import pytest

from reshare import artifacts, cli, pipeline, workers
from reshare.bprmf import BprHyper, BprModel
from reshare.cli import main
from reshare.errors import DataError
from reshare.pipeline import PipelineConfig, StageError, config_hash, run_pipeline


def small_config(out_dir, runs=1):
    return {
        "synth": {
            "n_users": 120,
            "n_posts": 80,
            "n_hate_posts": 30,
            "n_clusters": 2,
            "exposure_exponent": 0.8,
            "exposure_norm_quantile": 0.9,
            "mean_shares": 25.0,
            "seed": 3,
            "latent_outcome_strength": 0.05,
        },
        "out_dir": out_dir,
        "k_list": [5, 10],
        "bpr": {"embedding_dim": 8, "learning_rate": 0.02, "epochs": 8, "seed": 1},
        "ebm": {"n_bags": 2, "max_bins": 32, "n_interactions": 0, "max_rounds": 400, "seed": 2},
        "topics_k": 3,
        "topics_iterations": 15,
        "runs": runs,
        "emit_plots": True,
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSynthCommand:
    def test_writes_dataset_and_truth(self, tmp_path, capsys):
        out = str(tmp_path / "synth_out")
        cfg = write_config(tmp_path, small_config(out))
        assert main(["synth", "--config", cfg]) == 0
        for name in ("posts.csv", "users.csv", "interactions.csv", "truth.csv", "effects_truth.csv"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_no_truth_flag(self, tmp_path):
        out = str(tmp_path / "synth_out2")
        cfg = write_config(tmp_path, small_config(out))
        assert main(["synth", "--config", cfg, "--no-truth"]) == 0
        assert not os.path.exists(os.path.join(out, "truth.csv"))
        assert os.path.exists(os.path.join(out, "posts.csv"))

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        cfg_a = write_config(tmp_path, small_config(out_a), "a.json")
        cfg_b = write_config(tmp_path, small_config(out_b), "b.json")
        assert main(["synth", "--config", cfg_a]) == 0
        assert main(["synth", "--config", cfg_b]) == 0
        for name in ("posts.csv", "users.csv", "interactions.csv", "truth.csv"):
            with open(os.path.join(out_a, name), "rb") as fa, open(
                os.path.join(out_b, name), "rb"
            ) as fb:
                assert fa.read() == fb.read(), name

    def test_invalid_config_names_field(self, tmp_path, capsys):
        bad = small_config(str(tmp_path / "x"))
        bad["synth"]["n_hate_posts"] = 999
        cfg = write_config(tmp_path, bad)
        assert main(["synth", "--config", cfg]) == 1
        assert "n_hate_posts" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = small_config(str(tmp_path / "x"))
        bad["mystery_knob"] = 5
        cfg = write_config(tmp_path, bad)
        assert main(["pipeline", "--config", cfg]) == 1
        assert "mystery_knob" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["pipeline", "--config", str(tmp_path / "none.json")]) == 1

    def test_unexpected_error_prints_traceback(self, tmp_path, capsys, monkeypatch):
        def fail(config, resume=False):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_pipeline", fail)
        path = write_config(tmp_path, small_config(str(tmp_path / "x")))
        assert main(["pipeline", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: boom" in err

    def test_keyboard_interrupt_is_not_a_stage_failure(self, tmp_path, monkeypatch):
        def interrupt(graph):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "compute_outcomes", interrupt)
        config = PipelineConfig.from_json(write_config(tmp_path, small_config(str(tmp_path / "x"))))
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config)

    @pytest.mark.parametrize(
        "name, value",
        [("schemes", ["virality", "virality"]), ("k_list", [5, 5]), ("clusters", ["c1", "c1"])],
    )
    def test_repeated_config_value_exits_one(self, tmp_path, capsys, name, value):
        cfg = small_config(str(tmp_path / "x"))
        cfg[name] = value
        assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 1
        assert f"{name} must not repeat a value" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", [["pipeline"], ["mu-sweep", "--mus", "0.5"]])
    @pytest.mark.parametrize("k_list", [[20.5], ["20"], [True, 2], [5, 0], []])
    def test_k_list_of_non_positive_integers_exits_one(self, tmp_path, capsys, command, k_list):
        cfg = small_config(str(tmp_path / "x"))
        cfg["k_list"] = k_list
        assert main(command + ["--config", write_config(tmp_path, cfg)]) == 1
        assert f"k_list must contain positive integers: {k_list}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    @pytest.mark.parametrize("name", ["popularity_spread", "share_spread", "cluster_virality_lift"])
    def test_negative_synth_spread_or_lift_exits_one(self, tmp_path, capsys, command, name):
        cfg = small_config(str(tmp_path / "x"))
        cfg["synth"][name] = -1.0
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 1
        assert f"{name} must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("block, name, value", [
        (None, "edge_split_seed", 17),
        (None, "user_split_seed", 23),
        ("synth", "n_user_blocks", 2),
        ("synth", "verified_rate", 0.05),
        ("synth", "follower_exposure_exponent", 0.25),
        ("synth", "vocab_size", 300),
        ("synth", "mean_tokens", 16.0),
    ])
    def test_removed_config_key_exits_one(self, tmp_path, capsys, block, name, value):
        cfg = small_config(str(tmp_path / "x"))
        (cfg if block is None else cfg[block])[name] = value
        assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 1
        assert f"fields: ['{name}']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--runs", "2"], ["synth", "--resume"], ["mu-sweep", "--runs", "2"],
    ])
    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, small_config(str(tmp_path / "x")))
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", cfg])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_cluster_exits_one_before_training(self, tmp_path, capsys):
        out = tmp_path / "x"
        cfg = small_config(str(out))
        cfg["clusters"] = ["c9"]
        assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 1
        assert "unknown clusters ['c9']" in capsys.readouterr().err
        assert not (out / "topics.csv").exists()
        assert not list(out.glob("plv_*.done"))

    def test_stage_failure_exits_two(self, tmp_path, capsys):
        cfg = small_config(str(tmp_path / "x"))
        cfg["synth"]["n_hate_posts"] = 0  # no hate posts: topic stage fails first
        path = write_config(tmp_path, cfg)
        assert main(["pipeline", "--config", path]) == 2
        assert "stage 'topics'" in capsys.readouterr().err

    def test_failure_in_a_forked_run_exits_two_as_in_process(self, tmp_path, capsys, monkeypatch,
                                                             forks):
        parent, fit_linear = os.getpid(), pipeline.fit_linear

        def fail_in(where):
            def fit(features, y):
                if where == "everywhere" or os.getpid() != parent:
                    raise ValueError("boom")
                return fit_linear(features, y)

            return fit

        path = write_config(tmp_path, small_config(str(tmp_path / "x"), runs=2))
        errors = []
        for cpus, where in ((1, "everywhere"), (2, "worker")):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(pipeline, "fit_linear", fail_in(where))
            assert main(["pipeline", "--config", path]) == 2
            errors.append(capsys.readouterr().err)
            assert len(forks) == cpus - 1
        assert errors[0] == "error: stage 'effects_base' failed: boom\n"
        assert errors[1] == errors[0]


class TestStageError:
    def test_survives_pickling(self):
        error = pickle.loads(pickle.dumps(StageError("plv", ValueError("boom"))))
        assert type(error) is StageError and error.stage == "plv"
        assert type(error.cause) is ValueError and error.cause.args == ("boom",)
        assert str(error) == "stage 'plv' failed: boom"


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """Config path and output directory of one cold pipeline run, and a copy of it."""
    root = tmp_path_factory.mktemp("cold")
    out = root / "out"
    cfg = write_config(root, small_config(str(out)))
    assert main(["pipeline", "--config", cfg]) == 0
    shutil.copytree(out, root / "snapshot")
    return cfg, out, root / "snapshot"


def output_bytes(out):
    """Bytes of every file under ``out`` but the stage markers, by relative path."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.suffix != ".done"
    }


class TestPipelineCommand:
    def test_all_stage_outputs_exist(self, tmp_path, capsys):
        out = str(tmp_path / "pipe")
        cfg = write_config(tmp_path, small_config(out))
        assert main(["pipeline", "--config", cfg]) == 0
        expected = [
            "report.txt",
            "metrics.csv",
            "outcomes.csv",
            "propensity.csv",
            "topics.csv",
            "plv_embeddings.csv",
            "training_curve.csv",
            "importance.csv",
            "curve_verified.csv",
            "curve_verified.svg",
            "curve_log1p_n_followers.csv",
        ]
        for name in expected:
            assert os.path.exists(os.path.join(out, name)), name
        report = capsys.readouterr().out
        for token in ("BPRMF-V", "BPRMF-F", "BPRMF-NN", "Base", "recall", "ndcg"):
            assert token in report

    def test_metrics_csv_schema(self, tmp_path):
        out = str(tmp_path / "pipe2")
        cfg = write_config(tmp_path, small_config(out))
        assert main(["pipeline", "--config", cfg]) == 0
        with open(os.path.join(out, "metrics.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["model"] for r in rows} == {"BPRMF", "BPRMF-V", "BPRMF-F", "BPRMF-NN"}
        assert {r["metric"] for r in rows} == {"recall", "ndcg"}
        assert {int(r["k"]) for r in rows} == {5, 10}
        for r in rows:
            assert 0.0 <= float(r["value"]) <= 1.0

    def test_embeddings_csv_round_readable(self, tmp_path):
        out = str(tmp_path / "pipe3")
        cfg = write_config(tmp_path, small_config(out))
        assert main(["pipeline", "--config", cfg]) == 0
        with open(os.path.join(out, "plv_embeddings.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "user_id"
        assert header[1] == "x_0" and header[-1] == "x_7"

    def test_canonical_copies_equal_their_sources(self, tmp_path):
        out = tmp_path / "copies"
        assert main(["pipeline", "--config", write_config(tmp_path, small_config(str(out)))]) == 0
        for name in ("plv_embeddings", "training_curve", "importance"):
            copy, source = out / f"{name}.csv", out / f"{name}_virality.csv"
            assert copy.read_bytes() == source.read_bytes(), name

    def test_copies_of_a_scheme_the_config_drops_are_removed(self, tmp_path):
        out = tmp_path / "stale"
        for schemes in (["virality"], ["biased"]):
            cfg = dict(small_config(str(out)), schemes=schemes)
            assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 0
        # the canonical variant is now base, which has no embeddings
        assert not (out / "plv_embeddings.csv").exists()
        assert not (out / "training_curve.csv").exists()
        assert (out / "importance.csv").read_bytes() == (out / "importance_base.csv").read_bytes()

    def test_resume_restores_deleted_importance_copy(self, tmp_path):
        out = tmp_path / "importance"
        cfg = write_config(tmp_path, small_config(str(out)))
        assert main(["pipeline", "--config", cfg]) == 0
        cold = (out / "importance.csv").read_bytes()
        (out / "importance.csv").unlink()
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert (out / "importance.csv").read_bytes() == cold

    @pytest.mark.parametrize("name", [
        "topics.csv",
        "propensity.csv",
        "plv_embeddings_virality.csv",
        "training_curve_virality.csv",
        "importance_virality.csv",
    ])
    def test_resume_reruns_stage_whose_output_is_gone(self, cold_run, name):
        cfg, out, snapshot = cold_run
        shutil.rmtree(out)
        shutil.copytree(snapshot, out)
        (out / name).unlink()
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert output_bytes(out) == output_bytes(snapshot)

    def test_resume_restores_deleted_curve_and_dataset_file(self, cold_run):
        cfg, out, snapshot = cold_run
        shutil.rmtree(out)
        shutil.copytree(snapshot, out)
        names = ("curve_log1p_n_followers.csv", "data/users.csv")
        for name in names:
            (out / name).unlink()
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        for name in names:
            assert (out / name).read_bytes() == (snapshot / name).read_bytes(), name

    def test_resume_after_stopwords_change_matches_fresh_run(self, tmp_path):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("w0000\n")

        def config(out):
            cfg = dict(small_config(str(tmp_path / out)), schemes=["neural"])
            return write_config(tmp_path, dict(cfg, stopwords_path=str(stopwords)), f"{out}.json")

        resumed = config("resumed")
        assert main(["pipeline", "--config", resumed]) == 0
        before = config_hash(PipelineConfig.from_json(resumed))
        stopwords.write_text("".join(f"w{i:04d}\n" for i in range(0, 60, 3)))
        assert config_hash(PipelineConfig.from_json(resumed)) != before
        assert main(["pipeline", "--config", resumed, "--resume"]) == 0
        assert main(["pipeline", "--config", config("fresh")]) == 0
        for name in ("topics.csv", "report.txt"):
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "resumed" / name).read_bytes() == fresh, name

    def test_deterministic_report_bytes(self, tmp_path):
        out_a, out_b = str(tmp_path / "da"), str(tmp_path / "db")
        assert main(["pipeline", "--config", write_config(tmp_path, small_config(out_a), "a.json")]) == 0
        assert main(["pipeline", "--config", write_config(tmp_path, small_config(out_b), "b.json")]) == 0
        with open(os.path.join(out_a, "report.txt"), "rb") as fa, open(
            os.path.join(out_b, "report.txt"), "rb"
        ) as fb:
            assert fa.read() == fb.read()

    def test_resume_skips_and_reproduces(self, tmp_path):
        out = str(tmp_path / "resume")
        cfg = write_config(tmp_path, small_config(out))
        assert main(["pipeline", "--config", cfg]) == 0
        with open(os.path.join(out, "report.txt"), "rb") as fh:
            first = fh.read()
        emb_path = os.path.join(out, "plv_embeddings_virality.csv")
        mtime = os.path.getmtime(emb_path)
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        with open(os.path.join(out, "report.txt"), "rb") as fh:
            second = fh.read()
        assert first == second
        assert os.path.getmtime(emb_path) == mtime  # stage skipped, file untouched

    def test_resume_after_input_change_matches_fresh_run(self, tmp_path):
        data = str(tmp_path / "data")
        assert main(["synth", "--no-truth", "--config", write_config(
            tmp_path, small_config(data), "synth.json")]) == 0

        def file_config(out):
            cfg = small_config(str(tmp_path / out))
            del cfg["synth"]
            for name in ("posts", "users", "interactions"):
                cfg[f"{name}_csv"] = os.path.join(data, f"{name}.csv")
            return write_config(tmp_path, cfg, f"{out}.json")

        cfg = file_config("resumed")
        assert main(["pipeline", "--config", cfg]) == 0
        interactions = os.path.join(data, "interactions.csv")
        with open(interactions) as fh:
            lines = fh.readlines()
        with open(interactions, "w") as fh:  # drop every third interaction
            fh.writelines(lines[:1] + [r for i, r in enumerate(lines[1:]) if i % 3])
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert main(["pipeline", "--config", file_config("fresh")]) == 0
        with open(tmp_path / "resumed" / "report.txt", "rb") as fa, open(
            tmp_path / "fresh" / "report.txt", "rb"
        ) as fb:
            assert fa.read() == fb.read()

    def test_resume_after_crashed_rewrite_matches_fresh_run(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, small_config(str(tmp_path / "crashed")), "crashed.json")
        assert main(["pipeline", "--config", cfg]) == 0
        write_embeddings = artifacts.write_embeddings

        def torn_write(model, path):  # virality feeds effects and plv_embeddings.csv
            write_embeddings(model, path)
            if path.endswith("_virality.csv"):
                with open(path, "r+b") as fh:
                    fh.truncate(os.path.getsize(path) // 2)
                raise OSError("disk full")

        monkeypatch.setattr(artifacts, "write_embeddings", torn_write)
        assert main(["pipeline", "--config", cfg]) == 2
        monkeypatch.undo()
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        fresh = write_config(tmp_path, small_config(str(tmp_path / "fresh")), "fresh.json")
        assert main(["pipeline", "--config", fresh]) == 0
        for name in ("report.txt", "plv_embeddings.csv"):
            with open(tmp_path / "crashed" / name, "rb") as fa, open(
                tmp_path / "fresh" / name, "rb"
            ) as fb:
                assert fa.read() == fb.read(), name

    def test_failed_report_write_keeps_previous_report(self, tmp_path, monkeypatch):
        out = tmp_path / "report_crash"
        cfg = write_config(tmp_path, small_config(str(out)))
        assert main(["pipeline", "--config", cfg]) == 0
        before = (out / "report.txt").read_bytes()
        # a lone surrogate cannot be encoded, so the write fails part way
        monkeypatch.setattr(pipeline, "_render_report", lambda *args: "torn\n\ud800\n")
        assert main(["pipeline", "--config", cfg, "--resume"]) == 2
        assert (out / "report.txt").read_bytes() == before
        assert not (out / "report.txt.tmp").exists()

    def test_one_stacked_training_per_run_and_resume_trains_only_missing(
        self, tmp_path, monkeypatch
    ):
        calls = []
        train_stack = pipeline.train_stack

        def spy(graph, tables, hyper):
            calls.append([table.scheme for table in tables])
            return train_stack(graph, tables, hyper)

        monkeypatch.setattr(pipeline, "train_stack", spy)
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)  # the spy sees this process only
        out = tmp_path / "stacked"
        cfg = write_config(tmp_path, small_config(str(out), runs=2))
        assert main(["pipeline", "--config", cfg]) == 0
        assert calls == [list(pipeline.RANKING_SCHEMES)] * 2
        names = ("report.txt", "plv_embeddings_follower.csv", "training_curve_follower.csv")
        cold = {name: (out / name).read_bytes() for name in names}
        (out / "plv_follower.done").unlink()
        calls.clear()
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert calls == [["follower"]]
        for name in names:
            assert (out / name).read_bytes() == cold[name], name

    def test_one_stacked_effect_fit_per_variant_and_resume_refits_only_missing(
        self, tmp_path, monkeypatch
    ):
        calls = []
        fit_ebm_stack = pipeline.fit_ebm_stack

        def spy(features, ys, hyper):
            calls.append((len(features.columns), len(ys)))
            return fit_ebm_stack(features, ys, hyper)

        monkeypatch.setattr(pipeline, "fit_ebm_stack", spy)
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)  # the spy sees this process only
        out = tmp_path / "effects"
        cfg = dict(small_config(str(out), runs=2), schemes=["virality"], clusters=["c0", "c1"])
        cfg = write_config(tmp_path, cfg)
        assert main(["pipeline", "--config", cfg]) == 0
        # per run: base (5 attributes), then virality (plus 8 embedding columns),
        # each with the overall target and both clusters
        assert calls == [(5, 3), (13, 3)] * 2
        cold = (out / "report.txt").read_bytes()
        (out / "effects_virality.done").unlink()
        calls.clear()
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert calls == [(13, 3)]
        assert (out / "report.txt").read_bytes() == cold

    def test_cluster_targets_leave_the_overall_model_unchanged(self, tmp_path):
        outputs = []
        for name, clusters in (("overall", []), ("clusters", ["c0", "c1"])):
            cfg = small_config(str(tmp_path / name))
            cfg["schemes"], cfg["clusters"] = ["virality"], clusters
            cfg["ebm"] = dict(cfg["ebm"], n_interactions=2)  # pairs join the stack too
            assert main(["pipeline", "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
            outputs.append(output_bytes(tmp_path / name))
        alone, stacked = outputs
        names = [n for n in alone if n.startswith(("importance", "curve_")) and n.endswith(".csv")]
        assert {"importance_base.csv", "importance_virality.csv"} <= set(names)
        assert b" x " in alone["importance_virality.csv"]  # a pair term
        assert len([n for n in names if n.startswith("curve_")]) == 5
        for name in names:
            assert stacked[name] == alone[name], name

        def overall_rmse_rows(report):
            return [line for line in report.splitlines() if line.split()[1:2] == [b"overall"]]

        rows = overall_rmse_rows(alone["report.txt"])
        assert len(rows) == 3  # Base, BPRMF-V and DF-linear
        assert overall_rmse_rows(stacked["report.txt"]) == rows
        assert b" c1 " in stacked["report.txt"] and b" c1 " not in alone["report.txt"]

    def test_runs_same_bytes_on_one_two_and_three_cpus(self, tmp_path, monkeypatch, forks):
        out = tmp_path / "runs"
        cfg = write_config(tmp_path, dict(small_config(str(out), runs=3), clusters=["c0", "c1"]))
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            forks.clear()
            shutil.rmtree(out, ignore_errors=True)
            assert main(["pipeline", "--config", cfg]) == 0
            assert len(forks) == min(3, cpus) - 1  # one run per worker, no nested spread
            outputs.append({str(path.relative_to(out)): path.read_bytes()
                            for path in sorted(out.rglob("*")) if path.is_file()})
        assert {"run_1/plv_virality.done", "run_2/effects_base.done"} <= set(outputs[0])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert (out / "report.txt").read_bytes() == outputs[0]["report.txt"]

    @pytest.mark.parametrize("runs", [1, 2])
    def test_one_spread_forks_on_two_cpus(self, tmp_path, monkeypatch, forks, runs):
        # two runs spread over the CPUs and train in-process; one run spreads its training
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        cfg = write_config(tmp_path, small_config(str(tmp_path / "x"), runs=runs))
        assert main(["pipeline", "--config", cfg]) == 0
        assert len(forks) == 1

    def test_multi_run_welch_table(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        cfg = write_config(tmp_path, small_config(out, runs=2))
        assert main(["pipeline", "--config", cfg]) == 0
        report = capsys.readouterr().out
        assert "Welch t-tests" in report
        assert os.path.isdir(os.path.join(out, "run_1"))


class TestMuSweepCommand:
    def test_row_grid(self, tmp_path, capsys):
        out = str(tmp_path / "mu")
        cfg = write_config(tmp_path, small_config(out))
        assert main(["mu-sweep", "--config", cfg, "--mus", "0.1,0.5,1.0"]) == 0
        with open(os.path.join(out, "mu_sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        models = {r["model"] for r in rows}
        assert len(models) == 6  # 2 schemes x 3 mus
        assert len(rows) == 6 * 2  # k_list has two entries

    def test_single_mu(self, tmp_path):
        out = str(tmp_path / "mu1")
        cfg = write_config(tmp_path, small_config(out))
        assert main(["mu-sweep", "--config", cfg, "--mus", "0.5"]) == 0
        with open(os.path.join(out, "mu_sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len({r["model"] for r in rows}) == 2

    def test_same_bytes_on_one_and_two_cpus(self, tmp_path, monkeypatch, forks):
        sweeps = []
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            cfg = write_config(tmp_path, small_config(str(out)), f"cpus{cpus}.json")
            assert main(["mu-sweep", "--config", cfg, "--mus", "0.1,0.5,1.0"]) == 0
            sweeps.append((out / "mu_sweep.csv").read_bytes())
            assert len(forks) == cpus - 1  # the 2-CPU run forks once for its 6 members
        assert sweeps[0] == sweeps[1]

    def test_resume_flag_recomputes(self, tmp_path):
        out = tmp_path / "mu_resume"
        cfg = write_config(tmp_path, small_config(str(out)))
        assert main(["mu-sweep", "--config", cfg, "--mus", "0.5"]) == 0
        cold = (out / "mu_sweep.csv").read_bytes()
        (out / "mu_sweep.csv").write_text("stale\n")
        assert main(["mu-sweep", "--config", cfg, "--mus", "0.5", "--resume"]) == 0
        assert (out / "mu_sweep.csv").read_bytes() == cold

    def test_invalid_mu_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "mu2")
        cfg = write_config(tmp_path, small_config(out))
        assert main(["mu-sweep", "--config", cfg, "--mus", "0.0,0.5"]) == 1
        assert "mu" in capsys.readouterr().err


    def test_one_hate_post_fails_in_split(self, tmp_path, capsys):
        cfg = small_config(str(tmp_path / "mu3"))
        cfg["synth"].update(n_hate_posts=1, n_clusters=1)
        assert main(["mu-sweep", "--config", write_config(tmp_path, cfg), "--mus", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "stage 'split' failed: pipeline needs at least two hate posts" in err


class TestEmbedAnalyzeCommand:
    def test_two_blob_embeddings(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        emb_path = tmp_path / "emb.csv"
        with open(emb_path, "w") as fh:
            fh.write("user_id,x_0,x_1\n")
            for i in range(30):
                c = [0.0, 0.0] if i < 15 else [8.0, 8.0]
                v = rng.normal(c, 0.1)
                fh.write(f"u{i:03d},{v[0]},{v[1]}\n")
        out = str(tmp_path / "emb_out")
        rc = main(
            ["embed-analyze", "--embeddings", str(emb_path), "--out", out,
             "--tag", "demo", "--eps", "0.5", "--min-samples", "5"]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "clusters=2" in printed
        with open(os.path.join(out, "embedding_analysis.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["dataset_tag"] == "demo"
        assert int(rows[0]["n_clusters"]) == 2
        assert float(rows[0]["silhouette"]) > 0.9


class TestArtifactWriters:
    def test_bytes_written(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        artifacts.write_metrics([("BPRMF", "recall", 5, 0.5), ("BPRMF", "ndcg", 5, 0.1)], path)
        with open(path, "rb") as fh:
            assert fh.read() == (
                b"model,metric,k,value\r\n"
                b"BPRMF,recall,5,0.5\r\n"
                b"BPRMF,ndcg,5,0.10000000000000001\r\n"
            )

    def test_vector_tables_round_trip_bit_exactly(self, tmp_path, rng):
        values = rng.normal(size=(5, 3)) * np.logspace(-300, 300, 15).reshape(5, 3)
        values[0, 0], values[0, 1] = -0.0, 0.1
        ids = ("u3", "u10", "u0", "u2", "u1")  # file order is not sorted order
        model = BprModel(ids, ("p0",), values, np.zeros((1, 3)), BprHyper(embedding_dim=3))
        for write, args in (
            (artifacts.write_embeddings, (model,)),
            (artifacts.write_topic_vectors, (ids, values)),
        ):
            path = str(tmp_path / f"{write.__name__}.csv")
            write(*args, path)
            read_ids, read_values = artifacts.read_vectors(path)
            assert read_ids == ids
            assert read_values.dtype == np.float64
            assert read_values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("extremes, dtype", [
        ([5e-324, 1e308, -1e308], np.float64),
        ([1e-45, 3e38, -3e38], np.float32),  # float32's least subnormal and near its max
    ], ids=["float64", "float32"])
    def test_vector_rows_equal_the_per_value_format(self, tmp_path, extremes, dtype):
        values = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan],
                           [*extremes, 0.1, 1 / 3]], dtype=dtype)
        ids = ("u,1", "")  # ids the csv writer must quote, or write empty
        path = tmp_path / "topics.csv"
        artifacts.write_topic_vectors(ids, values, str(path))
        expected = tmp_path / "expected.csv"
        artifacts._write_csv(expected, ["post_id"] + [f"t_{i}" for i in range(5)], (
            [row_id] + [artifacts._fmt(v) for v in row] for row_id, row in zip(ids, values)
        ))
        assert path.read_bytes() == expected.read_bytes()
        assert b'\r\n"u,1",0,-0,inf,-inf,nan\r\n' in path.read_bytes()

    def test_vector_table_with_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("user_id,x_0\nu0,1.0\nu1,2.0\nu0,3.0\n")
        with pytest.raises(DataError, match="repeated id 'u0'"):
            artifacts.read_vectors(str(path))

    def test_failed_rewrite_keeps_previous_file(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        artifacts.write_metrics([("BPRMF", "recall", 5, 0.5)], path)
        with open(path, "rb") as fh:
            before = fh.read()

        def rows():
            yield ("BPRMF", "recall", 10, 0.25)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            artifacts.write_metrics(rows(), path)
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == ["metrics.csv"]

    def test_embedding_analysis_keeps_rows_and_survives_failed_write(self, tmp_path):
        path = str(tmp_path / "embedding_analysis.csv")
        artifacts.write_embedding_analysis([("a", 2, 1, 0.5)], path)
        artifacts.write_embedding_analysis([("b", 3, 0, 0.25)], path)
        with open(path, "rb") as fh:
            before = fh.read()
        assert before == (
            b"dataset_tag,n_clusters,n_noise,silhouette\r\n"
            b"a,2,1,0.5\r\n"
            b"b,3,0,0.25\r\n"
        )

        def rows():
            yield ("c", 1, 0, 0.1)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            artifacts.write_embedding_analysis(rows(), path)
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == ["embedding_analysis.csv"]
