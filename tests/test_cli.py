import csv
import dataclasses
import json
import os
import pickle
import shutil

import numpy as np
import pytest

from reshare import artifacts, cli, pipeline, synthgen, workers
from reshare.bprmf import BprHyper, BprModel
from reshare.cli import main
from reshare.dataset import FEATURE_COLUMNS, InteractionGraph, write_dataset, write_rows
from reshare.effects import EbmHyper
from reshare.errors import DataError
from reshare.pipeline import PipelineConfig, StageError, config_hash, run_pipeline
from reshare.plotting import line_chart_svg
from reshare.synthgen import (
    EffectShape,
    SynthConfig,
    generate,
    write_effects_truth,
    write_truth,
)

from conftest import assert_no_children


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

    @pytest.mark.parametrize("block, name, value", [
        (None, "runs", 2.5),
        (None, "runs", True),
        ("bpr", "epochs", 2.5),
        ("bpr", "epochs", True),
        ("ebm", "n_bags", 2.0),
        ("synth", "n_users", 120.0),
    ])
    def test_non_integer_int_field_exits_one(self, tmp_path, capsys, block, name, value):
        cfg = small_config(str(tmp_path / "x"))
        (cfg if block is None else cfg[block])[name] = value
        assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 1
        assert f"field '{name}' must be an integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    @pytest.mark.parametrize("name", ["popularity_spread", "share_spread", "cluster_virality_lift"])
    def test_negative_synth_spread_or_lift_exits_one(self, tmp_path, capsys, command, name):
        cfg = small_config(str(tmp_path / "x"))
        cfg["synth"][name] = -1.0
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 1
        assert f"{name} must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, block, flags", [
        ("pipeline", None, ["--seed", "-3"]),
        ("synth", None, ["--seed", "-100"]),
        ("mu-sweep", None, ["--seed", "-10", "--mus", "0.5"]),
        ("pipeline", "bpr", []),
        ("pipeline", "ebm", []),
        ("synth", "synth", []),
        ("pipeline", "synth", []),
    ])
    def test_negative_seed_exits_one_before_any_stage_writes(self, tmp_path, capsys, command,
                                                             block, flags):
        cfg = small_config(str(tmp_path / "x"))
        if block is not None:
            cfg[block]["seed"] = -1
        assert main([command, "--config", write_config(tmp_path, cfg), *flags]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("block, name, value", [
        (None, "edge_split_seed", 17),
        (None, "user_split_seed", 23),
        (None, "edge_split_ratio", 0.8),
        (None, "user_split_ratio", 0.8),
        ("ebm", "pair_bins", 16),
        ("ebm", "detect_bins", 8),
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

    def test_short_users_row_exits_two_naming_file_and_line(self, tmp_path, capsys):
        graph, users, _ = generate(SynthConfig(n_users=40, n_posts=30, n_hate_posts=10, seed=3))
        data, out = tmp_path / "data", tmp_path / "out"
        write_dataset(graph, users, data)
        lines = (data / "users.csv").read_text().splitlines(keepends=True)
        lines[1] = lines[1].rsplit(",", 1)[0] + "\n"  # drop the first user's last field
        (data / "users.csv").write_text("".join(lines))
        cfg = small_config(str(out))
        del cfg["synth"]
        for name in ("posts", "users", "interactions"):
            cfg[f"{name}_csv"] = str(data / f"{name}.csv")
        assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: stage 'dataset' failed: {data / 'users.csv'}:2: expected 6 fields, got 5\n")
        assert os.listdir(out) == []

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


    def test_diverging_stack_exits_two_alike_on_one_two_and_three_cpus(self, tmp_path, capsys,
                                                                       monkeypatch, forks):
        # only biased diverges here; on 2 and 3 CPUs it trains in the last worker
        cfg = dict(small_config(str(tmp_path / "x")), schemes=["virality", "follower", "biased"])
        cfg["bpr"].update(learning_rate=1.0, loss_mode="unbiased", epochs=40,
                          early_stop_patience=40)
        path = write_config(tmp_path, cfg)
        errors = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            forks.clear()
            assert main(["pipeline", "--config", path]) == 2  # and warns nothing
            assert len(forks) == (0 if cpus == 1 else 2)  # one scheme per process
            assert_no_children()
            errors.append(capsys.readouterr().err)
        message = "error: stage 'plv' failed: training diverged (non-finite loss) at epoch 19\n"
        assert errors == [message] * 3

    def test_too_few_outcome_users_for_the_effect_models_exits_two_before_training(
        self, tmp_path, capsys
    ):
        out = tmp_path / "x"
        path = write_config(tmp_path, {"synth": {"n_users": 3}, "out_dir": str(out)})
        assert main(["pipeline", "--config", path]) == 2
        assert capsys.readouterr().err == (
            "error: stage 'split' failed: the by-user split has 2 train and 1 test outcome users;"
            " the effect models need more train users than their 69 feature columns, and a test"
            " user\n"
        )
        assert not list(out.glob("plv_*")) and not list(out.glob("effects_*"))

    @pytest.mark.parametrize("block, name, value, message", [
        (None, "mu", "0.5", "config field 'mu' must be a number, got '0.5'"),
        (None, "floor", None, "config field 'floor' must be a number, got None"),
        (None, "synth", 5, "config field 'synth' must be an object or null, got 5"),
        (None, "bpr", [8], "config field 'bpr' must be an object, got [8]"),
        (None, "ebm", None, "config field 'ebm' must be an object, got None"),
        (None, "schemes", "virality", "config field 'schemes' must be a list, got 'virality'"),
        (None, "k_list", 20, "config field 'k_list' must be a list, got 20"),
        (None, "clusters", 5, "config field 'clusters' must be a list, got 5"),
        (None, "schemes", ["virality", 5], "config field 'schemes[1]' must be a string, got 5"),
        (None, "clusters", [["c1"]], "config field 'clusters[0]' must be a string, got ['c1']"),
        (None, "stopwords_path", 5, "config field 'stopwords_path' must be a string or null"),
        (None, "emit_plots", "no", "config field 'emit_plots' must be true or false, got 'no'"),
        ("bpr", "learning_rate", "0.1", "bpr config field 'learning_rate' must be a number"),
        ("bpr", "learning_rate", True, "bpr config field 'learning_rate' must be a number"),
        ("ebm", "early_stop_tol", "0", "ebm config field 'early_stop_tol' must be a number"),
        ("synth", "with_text", "no", "synth config field 'with_text' must be true or false"),
        ("synth", "effect_spec", 5, "synth config field 'effect_spec' must be a list, got 5"),
        ("synth", "effect_spec", [5], "synth config field 'effect_spec[0]' must be an object"),
        ("synth", "effect_spec", [{"attribute": "verified", "shape": "step", "bogus": 1}],
         "unknown effect_spec[0] config fields: ['bogus']"),
        ("synth", "effect_spec", [{"attribute": "verified", "shape": "step", "amplitude": "x"}],
         "effect_spec[0] config field 'amplitude' must be a number, got 'x'"),
    ])
    def test_malformed_config_value_exits_one(self, tmp_path, capsys, block, name, value,
                                              message):
        cfg = small_config(str(tmp_path / "x"))
        (cfg if block is None else cfg[block])[name] = value
        assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_that_names_a_directory_exits_one(self, tmp_path, capsys):
        assert main(["pipeline", "--config", str(tmp_path), "--out", str(tmp_path / "x")]) == 1
        assert f"cannot read config file {tmp_path}: Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        assert f"config file {path} is not UTF-8: invalid start byte at byte 0" in (
            capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_missing_stopwords_file_exits_one_before_any_stage_writes(self, tmp_path, capsys):
        out, missing = tmp_path / "x", tmp_path / "stop.txt"
        cfg = write_config(tmp_path, dict(small_config(str(out)), stopwords_path=str(missing)))
        assert main(["pipeline", "--config", cfg]) == 1
        assert f"cannot read stopwords_path {missing}: No such file or directory" in (
            capsys.readouterr().err)
        assert not out.exists()
        # a run without topics, and the mu sweep, never read the file
        assert main(["mu-sweep", "--config", cfg, "--mus", "0.5"]) == 0
        cfg = write_config(tmp_path, dict(small_config(str(out)), stopwords_path=str(missing),
                                          schemes=["virality"]), "no_topics.json")
        assert main(["pipeline", "--config", cfg]) == 0

    def test_synth_block_beside_an_input_file_exits_one(self, tmp_path, capsys):
        cfg = small_config(str(tmp_path / "x"))
        cfg["posts_csv"] = str(tmp_path / "posts.csv")
        assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 1
        assert "a 'synth' block or input files, not both: ['posts_csv']" in (
            capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_cli_overrides_are_read_like_the_file(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(str(tmp_path / "x")))
        assert main(["pipeline", "--config", path, "--runs", "0"]) == 1
        assert "runs must be >= 1" in capsys.readouterr().err
        config = PipelineConfig.from_json(path, out_dir="y", seed=4, runs=None)
        assert (config.out_dir, config.seed, config.runs) == ("y", 4, 1)

    def test_config_round_trips_through_json(self, tmp_path):
        config = PipelineConfig(
            synth=SynthConfig(n_users=50, mean_shares=25, with_text=False, effect_spec=(
                EffectShape("log1p_n_posts", "linear", 0.1), EffectShape("verified", "step"))),
            out_dir=str(tmp_path), mu=1, schemes=("virality", "biased"), k_list=(5, 10),
            bpr=BprHyper(embedding_dim=4, learning_rate=0.05, loss_mode="unbiased"),
            ebm=EbmHyper(n_bags=2, early_stop_tol=0.001), stopwords_path="stop.txt",
            clusters=("c1",), runs=2, emit_plots=False,
        )
        back = PipelineConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(config))))
        assert back == config and config_hash(back) == config_hash(config)
        assert isinstance(back.mu, int) and isinstance(back.synth.effect_spec[0], EffectShape)


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
        "curve_verified.svg",
    ])
    def test_resume_reruns_stage_whose_output_is_gone(self, cold_run, name):
        cfg, out, snapshot = cold_run
        shutil.rmtree(out)
        shutil.copytree(snapshot, out)
        (out / name).unlink()
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert output_bytes(out) == output_bytes(snapshot)

    @pytest.mark.parametrize("old", [True, False], ids=["without-files", "not-an-object"])
    def test_old_or_foreign_markers_rerun_their_stages(self, cold_run, old):
        cfg, out, snapshot = cold_run
        shutil.rmtree(out)
        shutil.copytree(snapshot, out)
        for path in out.glob("*.done"):  # the format before markers listed their files
            marker = json.loads(path.read_text())
            del marker["files"]
            if path.name == "dataset.done":
                marker["source"] = "synth"
            path.write_text(json.dumps(marker if old else [marker], sort_keys=True) + "\n")
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert output_bytes(out) == output_bytes(snapshot)
        for path in snapshot.glob("*.done"):  # every stage reran and marked anew
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_each_marker_lists_the_files_its_stage_wrote(self, tmp_path):
        out = tmp_path / "listed"
        assert main(["pipeline", "--config", write_config(tmp_path, small_config(str(out), 2))]) == 0
        listed = {str(path.relative_to(out)): json.loads(path.read_text())["files"]
                  for path in out.rglob("*.done")}
        curves = [f"curve_{f}.{kind}" for f in FEATURE_COLUMNS for kind in ("csv", "svg")]
        expected = {"dataset.done": ["data/posts.csv", "data/users.csv", "data/interactions.csv"],
                    "topics.done": ["topics.csv"]}
        for rdir in ("", "run_1/"):
            for scheme in pipeline.RANKING_SCHEMES:
                expected[f"{rdir}plv_{scheme}.done"] = [f"plv_embeddings_{scheme}.csv",
                                                        f"training_curve_{scheme}.csv"]
            for variant in ("base", "virality", "follower", "neural"):
                files = [] if rdir else [f"importance_{variant}.csv"]
                expected[f"{rdir}effects_{variant}.done"] = files + (
                    curves if files and variant == "virality" else [])
        assert listed == expected and len(curves) == 10
        written = {os.path.join(os.path.dirname(marker), name)
                   for marker, names in listed.items() for name in names}
        unlisted = {name for name in output_bytes(out) if name not in written}
        assert unlisted == {"outcomes.csv", "propensity.csv", "run_1/propensity.csv", "report.txt",
                            "metrics.csv", "plv_embeddings.csv", "training_curve.csv",
                            "importance.csv"}

    def test_resume_recomputes_the_propensities_a_retrained_scheme_uses(self, cold_run):
        cfg, out, snapshot = cold_run
        shutil.rmtree(out)
        shutil.copytree(snapshot, out)
        with open(out / "propensity.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        row = next(row for row in rows if row[1] == "virality")  # post_id,scheme,mu,theta_hat
        row[3] = repr(float(row[3]) * 0.5)
        with open(out / "propensity.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        (out / "plv_virality.done").unlink()
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        for name in ("report.txt", "plv_embeddings_virality.csv", "propensity.csv"):
            assert (out / name).read_bytes() == (snapshot / name).read_bytes(), name
        assert not (out / "propensity.done").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_resume_reads_the_embedding_tables_of_refitted_variants_only(
        self, cold_run, tmp_path, monkeypatch, forks, cpus
    ):
        cfg, out, snapshot = cold_run
        shutil.rmtree(out)
        shutil.copytree(snapshot, out)
        log, read_vectors = tmp_path / "reads.txt", artifacts.read_vectors

        def spy(path):  # logs every table read, from any process
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(os.path.basename(path) + "\n")
            return read_vectors(path)

        def resume():
            log.write_text("")
            forks.clear()
            assert main(["pipeline", "--config", cfg, "--resume"]) == 0
            resumed = output_bytes(out)
            for name, data in output_bytes(snapshot).items():
                if name in ("report.txt", "metrics.csv") or (
                        name.startswith(("importance", "curve_")) and name.endswith(".csv")):
                    assert resumed[name] == data, name
            return sorted(name for name in log.read_text().split()
                          if name.startswith("plv_embeddings"))

        monkeypatch.setattr(artifacts, "read_vectors", spy)
        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
        assert resume() == [] and forks == []
        for variant in ("virality", "neural"):
            (out / f"effects_{variant}.done").unlink()
        # on two CPUs virality refits here and neural in a worker
        assert resume() == ["plv_embeddings_neural.csv", "plv_embeddings_virality.csv"]
        assert len(forks) == cpus - 1

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

    def test_file_inputs_reproduce_the_synthetic_run_and_key_every_marker(self, tmp_path):
        synth_out, out, data = tmp_path / "synth", tmp_path / "files", tmp_path / "data"
        cfg = write_config(tmp_path, small_config(str(synth_out)), "synth.json")
        assert main(["pipeline", "--config", cfg]) == 0
        config = PipelineConfig.from_json(cfg)
        graph, users, _ = generate(pipeline._seeded(config.synth, config.seed))
        write_dataset(graph, users, data)
        for name in ("posts.csv", "users.csv", "interactions.csv"):  # as the synth run dumps them
            assert (data / name).read_bytes() == (synth_out / "data" / name).read_bytes(), name
        cfg = small_config(str(out))
        del cfg["synth"]
        for name in ("posts", "users", "interactions"):
            cfg[f"{name}_csv"] = str(data / f"{name}.csv")
        cfg = write_config(tmp_path, cfg, "files.json")
        assert main(["pipeline", "--config", cfg]) == 0
        for name in ("report.txt", "metrics.csv", "importance.csv", "outcomes.csv",
                     "propensity.csv", "plv_embeddings.csv", "topics.csv"):
            assert (out / name).read_bytes() == (synth_out / name).read_bytes(), name

        def marker_hashes():
            return {path.name: json.loads(path.read_text())["config_hash"]
                    for path in out.glob("*.done")}

        cold = marker_hashes()
        assert "dataset.done" not in cold and not (out / "data").exists()
        assert len(cold) == 9 and set(cold.values()) == {config_hash(PipelineConfig.from_json(cfg))}
        with open(data / "interactions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        user, _ = rows[-1]  # moved to a post its user has not shared
        shared = {post for u, post in rows[1:] if u == user}
        with open(data / "posts.csv", newline="") as fh:
            rows[-1][1] = next(row[0] for row in list(csv.reader(fh))[1:] if row[0] not in shared)
        with open(data / "interactions.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        changed = config_hash(PipelineConfig.from_json(cfg))
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert marker_hashes() == dict.fromkeys(cold, changed) and changed not in cold.values()

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

    def test_stale_markers_go_and_the_files_they_list_stay(self, tmp_path):
        out = tmp_path / "reused"
        (out / "run_3").mkdir(parents=True)
        planted = {"propensity.done": "propensity.csv", "plv_gone.done": "old.csv",
                   "run_3/effects_base.done": "run_3/importance_base.csv",
                   "mu-sweep_virality_0.5.done": None, "notes.done": None}
        for marker, listed in planted.items():
            (out / marker).write_text(json.dumps({"files": [listed] if listed else []}) + "\n")
        for name in ("old.csv", "run_3/importance_base.csv"):
            (out / name).write_text("an earlier run's file\n")
        cfg = write_config(tmp_path, small_config(str(out)))
        expected = {"dataset.done", "topics.done", "mu-sweep_virality_0.5.done", "notes.done"}
        expected |= {f"plv_{s}.done" for s in pipeline.RANKING_SCHEMES}
        expected |= {f"effects_{v}.done" for v in ("base", "virality", "follower", "neural")}
        for argv in ([], ["--resume"]):
            assert main(["pipeline", "--config", cfg, *argv]) == 0
            assert {str(path.relative_to(out)) for path in out.rglob("*.done")} == expected
            for name in ("mu-sweep_virality_0.5.done", "notes.done"):  # not a stage's marker
                assert (out / name).read_text() == '{"files": []}\n', name
            for name in ("old.csv", "run_3/importance_base.csv"):
                assert (out / name).read_text() == "an earlier run's file\n", name

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
            assert len(forks) == (0 if cpus == 1 else 2)  # one run per process, no nested spread
            outputs.append({str(path.relative_to(out)): path.read_bytes()
                            for path in sorted(out.rglob("*")) if path.is_file()})
        assert {"run_1/plv_virality.done", "run_2/effects_base.done"} <= set(outputs[0])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert (out / "report.txt").read_bytes() == outputs[0]["report.txt"]

    # run 3's split of this small dataset leaves the linear model a rank-deficient
    # design, which it warns about, in a worker on two CPUs
    @pytest.mark.filterwarnings("ignore:rank-deficient design")
    def test_five_runs_on_two_cpus_fork_two_workers_and_match_one_cpu(
        self, tmp_path, monkeypatch, forks
    ):
        out = tmp_path / "runs"
        cfg = write_config(tmp_path, small_config(str(out), runs=5))
        outputs = []
        for cpus in (1, 2):
            # on two CPUs run 0 fits here, runs 1-2 in one worker and runs 3-4 in another
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            forks.clear()
            shutil.rmtree(out, ignore_errors=True)
            assert main(["pipeline", "--config", cfg]) == 0
            assert len(forks) == {1: 0, 2: 2}[cpus]
            outputs.append({str(path.relative_to(out)): path.read_bytes()
                            for path in sorted(out.rglob("*")) if path.is_file()
                            and (path.name in ("report.txt", "metrics.csv")
                                 or path.parent.name.startswith("run_"))})
        names = set(outputs[0])
        assert {"report.txt", "metrics.csv"} | {f"run_{i}/effects_base.done"
                                                 for i in range(1, 5)} <= names
        assert outputs[1] == outputs[0]

    def test_full_resume_forks_nothing_and_refits_only_a_missing_stage(
        self, tmp_path, monkeypatch, forks
    ):
        marked, mark = [], pipeline._Stages.mark

        def spy(stages, stage, **payload):  # nothing forks on resume, so this sees every marker
            marked.append(os.path.relpath(os.path.join(stages.out_dir, stage), out))
            mark(stages, stage, **payload)

        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        out = tmp_path / "runs"
        cfg = write_config(tmp_path, small_config(str(out), runs=3))
        assert main(["pipeline", "--config", cfg]) == 0
        assert len(forks) == 2
        cold = (out / "report.txt").read_bytes()
        monkeypatch.setattr(pipeline._Stages, "mark", spy)
        forks.clear()
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert forks == [] and marked == []
        (out / "run_2" / "effects_virality.done").unlink()
        assert main(["pipeline", "--config", cfg, "--resume"]) == 0
        assert forks == [] and marked == [os.path.join("run_2", "effects_virality")]
        assert (out / "report.txt").read_bytes() == cold

    @pytest.mark.parametrize("runs", [1, 2])
    def test_one_spread_forks_on_two_cpus(self, tmp_path, monkeypatch, forks, runs):
        # two runs spread over the CPUs and train and fit in-process; one run
        # spreads its training, then its effect variants, one spread at a time
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        cfg = write_config(tmp_path, small_config(str(tmp_path / "x"), runs=runs))
        assert main(["pipeline", "--config", cfg]) == 0
        assert len(forks) == {1: 2, 2: 1}[runs]

    def test_variants_same_bytes_on_one_two_and_three_cpus(self, tmp_path, monkeypatch, forks):
        out = tmp_path / "variants"
        cfg = write_config(tmp_path, dict(small_config(str(out)), clusters=["c0", "c1"]))
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            forks.clear()
            shutil.rmtree(out, ignore_errors=True)
            assert main(["pipeline", "--config", cfg]) == 0
            # the BPR stack, then the four variants, one process per task on 3 CPUs
            assert len(forks) == {1: 0, 2: 2, 3: 6}[cpus]
            outputs.append({str(path.relative_to(out)): path.read_bytes()
                            for path in sorted(out.rglob("*")) if path.is_file()})
        assert {"effects_neural.done", "importance_base.csv", "importance_neural.csv",
                "curve_verified.csv", "curve_verified.svg", "report.txt"} <= set(outputs[0])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_failed_variant_exits_two_as_in_process_and_resume_refits_the_rest(
        self, tmp_path, capsys, monkeypatch, forks
    ):
        marked, failing, mark = tmp_path / "marked.txt", [], pipeline._Stages.mark

        def spy(stages, stage, **payload):  # logs every marker, from any process
            if stage in failing:
                raise ValueError("boom")
            with open(marked, "a", encoding="utf-8") as fh:
                fh.write(stage + "\n")
            mark(stages, stage, **payload)

        def run(cfg, *flags):
            forks.clear()
            marked.write_text("")
            code = main(["pipeline", "--config", cfg, *flags])
            assert_no_children()
            return code, sorted(marked.read_text().split())

        monkeypatch.setattr(pipeline._Stages, "mark", spy)
        errors, reports = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            cfg = write_config(tmp_path, small_config(str(out)), f"cpus{cpus}.json")
            # on two CPUs base and virality fit here, follower and neural in a worker
            failing[:] = ["effects_follower"]
            code, _ = run(cfg)
            assert code == 2 and len(forks) == 2 * (cpus - 1)
            errors.append(capsys.readouterr().err)
            assert sorted(p.name for p in out.glob("effects_*.done")) == [
                "effects_base.done", "effects_virality.done"]
            failing.clear()
            code, stages = run(cfg, "--resume")
            assert code == 0 and stages == ["effects_follower", "effects_neural"]
            assert len(forks) == cpus - 1  # no stack to train; the two variants spread
            code, stages = run(cfg, "--resume")
            assert code == 0 and stages == [] and forks == []
            reports.append(capsys.readouterr().out)
        assert errors[0] == "error: stage 'effects_follower' failed: boom\n"
        assert errors[1] == errors[0]
        assert reports[1] == reports[0]

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
        # no copy of its input, one marker per (scheme, mu) cell
        assert sorted(os.listdir(out)) == [
            "mu-sweep_follower_0.5.done", "mu-sweep_virality_0.5.done", "mu_sweep.csv"]
        with open(os.path.join(out, "mu_sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len({r["model"] for r in rows}) == 2
        with open(os.path.join(out, "mu-sweep_virality_0.5.done")) as fh:
            marker = json.load(fh)
        assert marker["files"] == []
        assert marker["recall"] == [[5, float(rows[0]["value"])], [10, float(rows[1]["value"])]]

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

    def test_resume_trains_nothing_and_restores_the_csv(self, tmp_path, monkeypatch, capsys):
        calls = []

        def spy(fn):
            def call(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return call

        monkeypatch.setattr(pipeline, "_load_inputs", spy(pipeline._load_inputs))
        monkeypatch.setattr(pipeline, "train_stack", spy(pipeline.train_stack))
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)  # the spy sees this process only
        out = tmp_path / "mu_resume"
        argv = ["mu-sweep", "--config", write_config(tmp_path, small_config(str(out))),
                "--mus", "0.1,0.5"]
        assert main(argv) == 0
        assert calls == ["_load_inputs", "train_stack"]
        cold, table = (out / "mu_sweep.csv").read_bytes(), capsys.readouterr().out
        for damage in ((out / "mu_sweep.csv").unlink,
                       lambda: (out / "mu_sweep.csv").write_text("stale\n")):
            damage()
            calls.clear()
            assert main([*argv, "--resume"]) == 0
            assert calls == []  # no data loaded, no cell trained
            assert (out / "mu_sweep.csv").read_bytes() == cold
            assert capsys.readouterr().out == table

    def test_resume_over_a_wider_mu_list_trains_only_the_new_cells(
        self, tmp_path, monkeypatch, forks
    ):
        log, train_stack = tmp_path / "trained.txt", pipeline.train_stack

        def spy(graph, tables, hyper):  # logs every trained cell, from any process
            with open(log, "a", encoding="utf-8") as fh:
                fh.writelines(f"{table.scheme}_{table.mu!r}\n" for table in tables)
            return train_stack(graph, tables, hyper)

        def sweep(out, mus, *flags):
            log.write_text("")
            forks.clear()
            assert main(["mu-sweep", "--config", cfg, "--out", str(out), "--mus", mus,
                         *flags]) == 0
            assert_no_children()
            return sorted(log.read_text().split())

        monkeypatch.setattr(pipeline, "train_stack", spy)
        cfg = write_config(tmp_path, small_config(str(tmp_path / "unused")))
        wide = ["virality_0.1", "virality_0.5", "virality_1.0",
                "follower_0.1", "follower_0.5", "follower_1.0"]
        sweeps = []
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            grown, cold = tmp_path / f"grown{cpus}", tmp_path / f"cold{cpus}"
            assert sweep(grown, "0.1,1.0") == sorted(c for c in wide if not c.endswith("0.5"))
            assert sweep(grown, "0.1,0.5,1.0", "--resume") == ["follower_0.5", "virality_0.5"]
            assert len(forks) == cpus - 1  # the two new cells spread
            assert sweep(cold, "0.1,0.5,1.0") == sorted(wide)
            assert (grown / "mu_sweep.csv").read_bytes() == (cold / "mu_sweep.csv").read_bytes()
            assert sorted(p.name for p in grown.glob("*.done")) == sorted(
                f"mu-sweep_{cell}.done" for cell in wide)
            sweeps.append((cold / "mu_sweep.csv").read_bytes())
        assert sweeps[1] == sweeps[0]

    def test_changed_config_retrains_every_cell(self, tmp_path, monkeypatch):
        calls, train_stack = [], pipeline.train_stack

        def spy(graph, tables, hyper):
            calls.append([(table.scheme, table.mu) for table in tables])
            return train_stack(graph, tables, hyper)

        monkeypatch.setattr(pipeline, "train_stack", spy)
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)  # the spy sees this process only
        out = tmp_path / "mu_changed"
        cfg = small_config(str(out))
        assert main(["mu-sweep", "--config", write_config(tmp_path, cfg), "--mus", "0.5"]) == 0
        before = (out / "mu_sweep.csv").read_bytes()
        cfg["bpr"] = dict(cfg["bpr"], seed=2)
        path = write_config(tmp_path, cfg, "reseeded.json")
        calls.clear()
        assert main(["mu-sweep", "--config", path, "--mus", "0.5", "--resume"]) == 0
        assert calls == [[("virality", 0.5), ("follower", 0.5)]]
        resumed = (out / "mu_sweep.csv").read_bytes()
        assert resumed != before
        assert main(["mu-sweep", "--config", path, "--out", str(tmp_path / "fresh"),
                     "--mus", "0.5"]) == 0
        assert resumed == (tmp_path / "fresh" / "mu_sweep.csv").read_bytes()

    def test_non_numeric_mu_exits_one_naming_the_flag(self, tmp_path, capsys):
        out = tmp_path / "mu_text"
        cfg = write_config(tmp_path, small_config(str(out)))
        assert main(["mu-sweep", "--config", cfg, "--mus", "0.5,abc"]) == 1
        assert "--mus takes comma-separated numbers, got '0.5,abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_mu_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "mu2")
        cfg = write_config(tmp_path, small_config(out))
        assert main(["mu-sweep", "--config", cfg, "--mus", "0.0,0.5"]) == 1
        assert "mu" in capsys.readouterr().err

    def test_repeated_mu_exits_one(self, tmp_path, capsys):
        out = tmp_path / "mu_repeat"
        cfg = write_config(tmp_path, small_config(str(out)))
        assert main(["mu-sweep", "--config", cfg, "--mus", "0.5,0.50"]) == 1
        assert "mus must not repeat a value: [0.5, 0.5]" in capsys.readouterr().err
        assert not (out / "mu_sweep.csv").exists()

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

    def run_on(self, tmp_path, capsys, body):
        """embed-analyze on ``body`` (None: no file): its exit code and stderr."""
        path = tmp_path / "emb.csv"
        if body is not None:
            path.write_text(body)
        code = main(["embed-analyze", "--embeddings", str(path), "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err, str(path)

    def test_nan_eps_exits_one(self, tmp_path, capsys):
        path = tmp_path / "emb.csv"
        path.write_text("user_id,x_0\nu1,1.0\nu2,2.0\n")
        out = tmp_path / "o"
        assert main(["embed-analyze", "--embeddings", str(path), "--out", str(out),
                     "--eps", "nan"]) == 1
        assert capsys.readouterr().err == "error: eps must be positive\n"
        assert not (out / "embedding_analysis.csv").exists()

    def test_missing_file_exits_one_naming_it(self, tmp_path, capsys):
        code, err, path = self.run_on(tmp_path, capsys, None)
        assert (code, err) == (1, f"error: missing file: {path}\n")

    def test_empty_file_exits_one_naming_it(self, tmp_path, capsys):
        code, err, path = self.run_on(tmp_path, capsys, "")
        assert (code, err) == (1, f"error: {path}: no rows\n")

    def test_faulty_row_exits_one_naming_file_and_line(self, tmp_path, capsys):
        code, err, path = self.run_on(tmp_path, capsys, "user_id,x_0\nu1,1.0\nu2,abc\n")
        assert (code, err) == (1, f"error: {path}:3: could not convert string to float: 'abc'\n")
        code, err, path = self.run_on(tmp_path, capsys, "user_id,x_0,x_1\nu1,1.0,2.0\nu2,3.0\n")
        assert (code, err) == (1, f"error: {path}:3: expected 3 fields, got 2\n")

    def test_repeated_column_exits_one_naming_it(self, tmp_path, capsys):
        code, err, path = self.run_on(tmp_path, capsys, "user_id,x_0,x_0\nu1,1.0,2.0\nu2,3.0,4.0\n")
        assert (code, err) == (1, f"error: {path}: header repeats column 'x_0'\n")

    def test_directory_exits_one_naming_it(self, tmp_path, capsys):
        code = main(["embed-analyze", "--embeddings", str(tmp_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert (code, err) == (1, f"error: cannot read {tmp_path}: Is a directory\n")


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
        write_rows(expected, ["post_id"] + [f"t_{i}" for i in range(5)], (
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


@pytest.fixture(scope="module")
def tiny_synth():
    """The graph, users and truth of the small config's synth block."""
    return generate(PipelineConfig.from_dict(small_config("unused")).synth)


# a lone surrogate cannot be encoded, so a write that meets it fails part way
SURROGATE = "\ud800"


def write_posts(out, synth, torn, monkeypatch):
    graph, users, _ = synth
    if torn:
        posts = (*graph.posts[:-1], dataclasses.replace(graph.posts[-1], text=SURROGATE))
        graph = InteractionGraph(graph.users, posts, *graph.edge_arrays)
    write_dataset(graph, users, out)
    return out / "posts.csv"


def write_truth_table(out, synth, torn, monkeypatch):
    truth = synth[2]
    if torn:
        truth = dataclasses.replace(truth, user_ids=(*truth.user_ids[:-1], SURROGATE))
    return write_truth(truth, out)


def write_effects_table(out, synth, torn, monkeypatch):
    truth = synth[2]
    if torn:  # one more attribute, written after the header
        curves = {**truth.effect_curves, SURROGATE: truth.effect_curves["verified"]}
        truth = dataclasses.replace(truth, effect_curves=curves)
        monkeypatch.setattr(synthgen, "FEATURE_COLUMNS", (SURROGATE, *FEATURE_COLUMNS))
    return write_effects_truth(truth, out)


def write_svg(out, synth, torn, monkeypatch):
    return line_chart_svg([0, 1], [("effect", [0, 1], "#1f77b4"),
                                   (SURROGATE if torn else "lower", [0, 1], "#ff7f0e")],
                          title="chart", path=out / "chart.svg")


def write_marker(out, synth, torn, monkeypatch):
    # JSON escapes a surrogate, so a value it cannot encode fails the dump part way
    pipeline._Stages(str(out), "0", False).mark("plv_x", files=[], note=object() if torn else 1)
    return out / "plv_x.done"


def copy_importance(out, synth, torn, monkeypatch):
    config = PipelineConfig.from_dict(small_config(str(out / "pipe")))
    if torn:  # the copy of a changed source fails after it was written
        with open(out / "pipe" / "importance_virality.csv", "a", newline="") as fh:
            fh.write("changed,0\r\n")
        replace = os.replace

        def failing(src, dst):
            if os.path.basename(dst) == "importance.csv":
                raise OSError("replace failed")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
    run_pipeline(config, resume=torn)
    return out / "pipe" / "importance.csv"


def write_analysis(out, synth, torn, monkeypatch):
    path = out / "embedding_analysis.csv"
    artifacts.write_embedding_analysis([(SURROGATE if torn else "a", 2, 1, 0.5)], str(path))
    return path


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [write_posts, write_truth_table, write_effects_table,
                                       write_svg, write_marker, copy_importance, write_analysis],
                             ids=lambda write: write.__name__)
    def test_failed_write_keeps_previous_bytes(self, tmp_path, monkeypatch, tiny_synth, write):
        path = write(tmp_path, tiny_synth, False, monkeypatch)
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises((UnicodeError, TypeError, StageError)):
            write(tmp_path, tiny_synth, True, monkeypatch)
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert not list(tmp_path.rglob("*.tmp"))
