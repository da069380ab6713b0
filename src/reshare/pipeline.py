"""End-to-end orchestration: propensities, debiased embeddings, outcomes,
effect models, and a deterministic report, with resumable stage outputs.

Only the resumable stages (dataset, topics, propensity, ``plv_<scheme>`` and
``effects_<variant>``) keep a ``<stage>.done`` marker: such a stage removes
its marker, writes its artifacts, then writes a marker holding a hash of the
effective configuration and input files. With ``resume=True`` a stage whose
marker matches, and whose files to reload, copy or present (the synthetic
``data/*.csv``, the canonical curves) all exist, is skipped and its outputs
are reloaded, which reproduces the final report byte-for-byte.
The cheap outcomes stage always recomputes and keeps no marker.

The ``plv_<scheme>`` stages of a run whose markers do not match train in
contiguous groups, one stacked ``train_stack`` call per group, and each group
ranks, writes and marks its own schemes. The mu sweep likewise trains its
(scheme, mu) cells in groups, each ranking its own models, on the same hate
split as the pipeline.

The effect study fits one model per variant (``base``, then each debiased
scheme) and target (``overall``, then each configured cluster); the targets
of a variant share one feature matrix and one ``fit_ebm_stack`` call. The
report stage writes ``report.txt`` and ``metrics.csv`` from one table of ranking
means, and copies the canonical scheme's ``plv_embeddings``,
``training_curve`` and ``importance`` CSVs byte for byte; a copy whose source
the config does not produce (the ``base`` variant has no embeddings) goes.

Four things spread over the CPUs through ``workers.spread``, called only here:
the runs of ``--runs N``, which share no state (each has its own seeds,
``run_<i>/`` and markers), a run's pending ``plv_<scheme>`` and then its
``effects_<variant>`` stages, each writing its own files and marker, and the
mu sweep's cells. Spreads never nest, so while the runs are spread each run
trains and fits in its own process. Run 0, the merging of the results in
config order and the report stay here: outputs are byte-identical on any CPUs.
"""

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .bprmf import BprHyper, ranking_metrics, train_stack
from .dataset import FEATURE_COLUMNS, load_dataset, split, write_dataset
from .effects import (
    EbmHyper,
    assemble_features,
    contribution_curve,
    feature_importance,
    fit_ebm_stack,
    fit_linear,
    predict,
)
from .errors import ConfigError, DataError, check_fields
from .outcomes import compute_outcomes
from .plotting import line_chart_svg
from .propensity import (
    biased_propensity,
    follower_propensity,
    neural_propensity,
    virality_propensity,
)
from .stats import dbscan, rmse, silhouette, welch_t_test
from .synthgen import SynthConfig, generate, write_effects_truth, write_truth
from .topics import fit_lda, infer_corpus, load_stopwords, tokenize
from .workers import spread

RANKING_SCHEMES = ("biased", "virality", "follower", "neural")
MODEL_NAMES = {
    "biased": "BPRMF",
    "virality": "BPRMF-V",
    "follower": "BPRMF-F",
    "neural": "BPRMF-NN",
    "base": "Base",
}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):  # a forked run's failure is pickled back to the parent
        return type(self), (self.stage, self.cause)


@dataclass(frozen=True)
class PipelineConfig:
    posts_csv: str | None = None
    users_csv: str | None = None
    interactions_csv: str | None = None
    synth: SynthConfig | None = None
    out_dir: str = "out"
    mu: float = 0.5
    floor: float = 1e-3
    schemes: tuple = RANKING_SCHEMES
    k_list: tuple = (20, 40, 60, 80)
    bpr: BprHyper = field(default_factory=BprHyper)
    ebm: EbmHyper = field(default_factory=EbmHyper)
    topics_k: int = 20
    topics_iterations: int = 200
    stopwords_path: str | None = None
    edge_split_ratio: float = 0.8
    user_split_ratio: float = 0.8
    clusters: tuple = ()
    runs: int = 1
    seed: int = 0
    emit_plots: bool = True

    def __post_init__(self):
        has_files = all(
            p is not None for p in (self.posts_csv, self.users_csv, self.interactions_csv)
        )
        if self.synth is None and not has_files:
            raise ConfigError(
                "config needs either a 'synth' block or all of posts_csv/users_csv/interactions_csv"
            )
        if not (0.0 < self.mu <= 1.0):
            raise ConfigError("mu must be in (0, 1]")
        if not (0.0 < self.floor < 1.0):
            raise ConfigError("floor must be in (0, 1)")
        unknown = set(self.schemes) - set(RANKING_SCHEMES)
        if unknown:
            raise ConfigError(f"unknown schemes: {sorted(unknown)}")
        if not self.schemes:
            raise ConfigError("schemes must not be empty")
        if not self.k_list or any(
            isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in self.k_list
        ):
            raise ConfigError(f"k_list must contain positive integers: {list(self.k_list)}")
        for name in ("schemes", "k_list", "clusters"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat a value: {list(values)}")
        for name in ("edge_split_ratio", "user_split_ratio"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ConfigError(f"{name} must be in (0, 1)")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.topics_k < 2 or self.topics_iterations < 1:
            raise ConfigError("topics_k must be >= 2 and topics_iterations >= 1")

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        check_fields(PipelineConfig, d, "config")
        kwargs = dict(d)
        if kwargs.get("synth") is not None:
            kwargs["synth"] = SynthConfig.from_dict(kwargs["synth"])
        if "bpr" in kwargs:
            kwargs["bpr"] = BprHyper.from_dict(kwargs["bpr"])
        if "ebm" in kwargs:
            kwargs["ebm"] = EbmHyper.from_dict(kwargs["ebm"])
        for name in ("schemes", "k_list", "clusters"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        return PipelineConfig(**kwargs)

    @staticmethod
    def from_json(path) -> "PipelineConfig":
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config JSON must be an object")
        return PipelineConfig.from_dict(raw)

    def with_overrides(self, out_dir=None, seed=None, runs=None) -> "PipelineConfig":
        changes = {}
        if out_dir is not None:
            changes["out_dir"] = out_dir
        if seed is not None:
            changes["seed"] = int(seed)
        if runs is not None:
            changes["runs"] = int(runs)
        return dataclasses.replace(self, **changes) if changes else self


def _file_digest(path) -> str | None:
    """sha256 of a file's bytes; None if it cannot be read (loading it says why)."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


def config_hash(config: PipelineConfig) -> str:
    """Hash of the effective config and of the input CSVs' contents, if it names files."""
    payload = dataclasses.asdict(config)
    if config.synth is None:
        inputs = (config.posts_csv, config.users_csv, config.interactions_csv)
        payload["input_sha256"] = [_file_digest(p) for p in inputs]
    if config.stopwords_path is not None:
        payload["stopwords_sha256"] = _file_digest(config.stopwords_path)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


class _Stages:
    """Stage markers in one directory, keyed by the effective config hash."""

    def __init__(self, out_dir: str, chash: str, resume: bool):
        self.out_dir = out_dir
        self.chash = chash
        self.resume = resume

    def _marker(self, stage: str) -> str:
        return os.path.join(self.out_dir, f"{stage}.done")

    def done(self, stage: str, *outputs) -> bool:
        """True when resuming, the marker matches and every path in ``outputs``
        exists; else the marker goes, as the stage reruns."""
        if self.resume and all(map(os.path.exists, outputs)):
            with contextlib.suppress(OSError, json.JSONDecodeError):
                with open(self._marker(stage), encoding="utf-8") as fh:
                    if json.load(fh).get("config_hash") == self.chash:
                        return True
        with contextlib.suppress(FileNotFoundError):
            os.remove(self._marker(stage))
        return False

    def payload(self, stage: str) -> dict:
        with open(self._marker(stage), encoding="utf-8") as fh:
            return json.load(fh)

    def mark(self, stage: str, **payload):
        data = {"stage": stage, "config_hash": self.chash}
        data.update(payload)
        with open(self._marker(stage), "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
            fh.write("\n")


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise any error of the block tagged with the stage.

    Only ``Exception`` is wrapped; ``KeyboardInterrupt`` and ``SystemExit`` pass
    through unchanged."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _seeded(obj, offset: int):
    """A copy of the config dataclass ``obj`` with its ``seed`` moved by ``offset``."""
    return dataclasses.replace(obj, seed=obj.seed + offset)


# the splits' seeds before a run's seed is added; ``--seed`` moves them both
EDGE_SPLIT_SEED = 17
USER_SPLIT_SEED = 23


def _load_inputs(config: PipelineConfig, out_dir: str, stages: _Stages):
    """Dataset stage: synthesize or load the three CSV inputs."""
    with _stage("dataset"):
        if config.synth is not None:
            data_dir = os.path.join(out_dir, "data")
            graph, users, _ = generate(_seeded(config.synth, config.seed))
            written = [
                os.path.join(data_dir, f"{name}.csv") for name in ("posts", "users", "interactions")
            ]
            if not stages.done("dataset", *written):
                write_dataset(graph, users, data_dir)
                stages.mark("dataset", source="synth")
            return graph, users
        graph, users = load_dataset(
            config.posts_csv, config.users_csv, config.interactions_csv
        )
        if not stages.done("dataset"):
            stages.mark("dataset", source="files")
        return graph, users


def _hate_split(config: PipelineConfig, graph, run_seed: int):
    """Split stage: the by-edge (train, test) halves of the hate subgraph."""
    with _stage("split"):
        hate = graph.hate_subgraph()
        if hate.n_edges == 0 or hate.n_posts < 2:
            raise DataError("pipeline needs at least two hate posts and one hate reshare")
        pair = split(hate, "by-edge", config.edge_split_ratio, EDGE_SPLIT_SEED + run_seed)
        return pair.train, pair.test


def _topic_vectors(config, graph, out_dir, stages):
    path = os.path.join(out_dir, "topics.csv")
    if stages.done("topics", path):
        return artifacts.read_vectors(path)
    with _stage("topics"):
        hate_posts = [p for p in graph.posts if p.is_hate]
        stop = load_stopwords(config.stopwords_path) if config.stopwords_path else ()
        corpus = tokenize(hate_posts, stop)
        model = fit_lda(
            corpus,
            n_topics=config.topics_k,
            iterations=config.topics_iterations,
            seed=config.seed,
        )
        vectors = corpus.doc_ids, infer_corpus(model, corpus)
        artifacts.write_topic_vectors(*vectors, path)
        stages.mark("topics")
    return vectors


def _propensity_tables(config, train_h, users, topic_vectors, rdir, stages):
    path = os.path.join(rdir, "propensity.csv")
    if stages.done("propensity", path):
        return artifacts.read_propensities(path, floor=config.floor)
    with _stage("propensity"):
        tables = {}
        if "biased" in config.schemes:
            tables["biased"] = biased_propensity(train_h, floor=config.floor)
        if "virality" in config.schemes:
            tables["virality"] = virality_propensity(train_h, mu=config.mu, floor=config.floor)
        if "follower" in config.schemes:
            tables["follower"] = follower_propensity(
                train_h, users, mu=config.mu, floor=config.floor
            )
        if "neural" in config.schemes:
            tables["neural"] = neural_propensity(
                topic_vectors, train_h, mu=config.mu, floor=config.floor
            )
        artifacts.write_propensities(
            [tables[s] for s in config.schemes if s in tables], path
        )
        stages.mark("propensity")
    return tables


def _train_rankers(config, tables, train_h, test_h, run_seed, rdir, stages):
    """The ``plv_<scheme>`` stages. Pending schemes spread over the CPUs
    (``workers.spread``): each group trains in one stacked loop, then ranks,
    writes and marks its schemes where it trained. Done schemes are read from
    their markers and embeddings. Returns ranking, skipped and embeddings by scheme."""
    hyper = _seeded(config.bpr, run_seed)

    def outputs(scheme):
        return [os.path.join(rdir, f"{name}_{scheme}.csv")
                for name in ("plv_embeddings", "training_curve")]

    def fit(group):
        """``(payload, (user_ids, user_factors))`` of each scheme of ``group``."""
        fitted = []
        for scheme, model in zip(group, train_stack(train_h, [tables[s] for s in group], hyper)):
            stage = f"plv_{scheme}"
            with _stage(stage):
                emb_path, curve_path = outputs(scheme)
                report = ranking_metrics(model, test_h, config.k_list, train=train_h)
                artifacts.write_embeddings(model, emb_path)
                artifacts.write_training_curve(model.training_curve, curve_path)
                payload = {"metrics": [[m, k, v] for (m, k), v in sorted(report.values.items())],
                           "n_skipped": report.n_skipped}
                stages.mark(stage, **payload)
            fitted.append((payload, (model.user_ids, model.user_factors)))
        return fitted

    pending = [s for s in config.schemes if not stages.done(f"plv_{s}", *outputs(s))]
    with _stage("plv"):  # a group's training error, here or from a worker
        groups = spread(fit, pending) if pending else []
    trained = dict(zip(pending, (result for group in groups for result in group)))
    ranking, skipped, embeddings = {}, {}, {}
    for scheme in config.schemes:
        if scheme in trained:
            payload, embeddings[scheme] = trained[scheme]
        else:
            payload = stages.payload(f"plv_{scheme}")
            embeddings[scheme] = artifacts.read_vectors(outputs(scheme)[0])
        ranking[scheme] = {(m, int(k)): v for m, k, v in payload["metrics"]}
        skipped[scheme] = payload["n_skipped"]
    return ranking, skipped, embeddings


def _subset_rows(fm, rows):
    """The feature matrix of the rows ``rows`` of ``fm``."""
    return dataclasses.replace(fm, user_ids=tuple(fm.user_ids[i] for i in rows), X=fm.X[rows])


def _variants(config: PipelineConfig) -> list:
    """Effect-model variants: ``base`` (attributes only), then each debiased scheme."""
    return ["base"] + [s for s in config.schemes if s != "biased"]


def _effect_study(config, users, embeddings, outcome_table, user_rows, run_idx, rdir, stages):
    """The ``effects_<variant>`` stages, scored on the by-user holdout's
    ``(train, test)`` outcome rows. The targets (``overall``, then each
    configured cluster) are taken once; a variant builds its feature matrix once and fits
    every target in one ``fit_ebm_stack`` call. The variants that are not done
    are spread over the CPUs (``workers.spread``), each fitting, writing and
    marking its stage where it runs; the others are read from their markers.
    The first run writes ``importance_<variant>.csv`` and the canonical
    variant's curves; a resumed stage whose files are gone reruns."""
    hyper = _seeded(config.ebm, config.seed + run_idx)
    targets = ("overall", *config.clusters)
    ys = [outcome_table.target(target) for target in targets]
    train_rows, test_rows = user_rows

    def importance_path(variant):
        return os.path.join(rdir, f"importance_{variant}.csv")

    def outputs(variant):
        if run_idx != 0:
            return []
        written = [importance_path(variant)]
        if variant == _canonical_scheme(config):
            written += [path for f in FEATURE_COLUMNS for path in _curve_paths(config, rdir, f)]
        return written

    def fit(variant):
        """Fit, score, write and mark one variant's stage; returns its payload."""
        stage = f"effects_{variant}"
        with _stage(stage):
            fm = assemble_features(users, embeddings.get(variant), outcome_table)
            fm_train, fm_test = _subset_rows(fm, train_rows), _subset_rows(fm, test_rows)
            models = fit_ebm_stack(fm_train, [y[train_rows] for y in ys], hyper)
            payload = {
                "rmse": {
                    target: rmse(predict(model, fm_test), y[test_rows])
                    for target, model, y in zip(targets, models, ys)
                },
                "linear_rmse": None,
            }
            if variant == "base":
                linear = fit_linear(fm_train, ys[0][train_rows])
                payload["linear_rmse"] = rmse(predict(linear, fm_test), ys[0][test_rows])
            importance_rows = feature_importance(models[0], fm_train)
            payload["importance"] = [[name, value] for name, value in importance_rows.rows]
            if run_idx == 0:
                artifacts.write_importance(importance_rows, importance_path(variant))
                if variant == _canonical_scheme(config):
                    _export_curves(config, models[0], rdir)
            stages.mark(stage, **payload)
        return payload

    variants = _variants(config)
    pending = [v for v in variants if not stages.done(f"effects_{v}", *outputs(v))]
    fitted = spread(lambda group: [fit(variant) for variant in group], pending)
    payloads = dict(zip(pending, (payload for group in fitted for payload in group)))
    rmses, importance = {}, {}
    linear_rmse = None
    for variant in variants:
        payload = payloads.get(variant) or stages.payload(f"effects_{variant}")
        rmses[variant] = payload["rmse"]
        importance[variant] = payload["importance"]
        if payload["linear_rmse"] is not None:
            linear_rmse = payload["linear_rmse"]
    return rmses, linear_rmse, importance


def _canonical_scheme(config: PipelineConfig) -> str:
    for scheme in ("virality", "follower", "neural"):
        if scheme in config.schemes:
            return scheme
    return "base"


def _curve_paths(config, rdir, feature) -> tuple:
    """The canonical variant's ``curve_<feature>`` files: the CSV, then the SVG if plotted."""
    kinds = ("csv", "svg") if config.emit_plots else ("csv",)
    return tuple(os.path.join(rdir, f"curve_{feature}.{kind}") for kind in kinds)


def _export_curves(config, model, rdir):
    for feature in FEATURE_COLUMNS:
        curve = contribution_curve(model, feature, grid=64)
        csv_path, *svg_path = _curve_paths(config, rdir, feature)
        artifacts.write_curve(curve, csv_path)
        if svg_path:
            line_chart_svg(
                curve.x,
                [
                    ("effect", curve.value, "#1f77b4"),
                    ("lower", curve.lower, "#ff7f0e"),
                    ("upper", curve.upper, "#ff7f0e"),
                ],
                title=feature,
                path=svg_path[0],
            )


def _run_once(config, graph, users, outcome_table, topic_vectors, out_dir, run_idx, resume, chash):
    rdir = out_dir if run_idx == 0 else os.path.join(out_dir, f"run_{run_idx}")
    os.makedirs(rdir, exist_ok=True)
    stages = _Stages(rdir, chash, resume)
    run_seed = config.seed + run_idx

    train_h, test_h = _hate_split(config, graph, run_seed)
    with _stage("split"):
        user_pair = split(graph, "by-user", config.user_split_ratio, USER_SPLIT_SEED + run_seed)
        # feature rows follow the outcome rows
        user_rows = [[i for i, u in enumerate(outcome_table.user_ids) if u in half]
                     for half in (user_pair.train, user_pair.test)]
        (n_train, n_test), width = map(len, user_rows), len(FEATURE_COLUMNS)
        width += config.bpr.embedding_dim if _variants(config)[1:] else 0
        if n_train <= width or n_test == 0:
            raise DataError(f"the by-user split has {n_train} train and {n_test} test outcome "
                            f"users; the effect models need more train users than their {width} "
                            "feature columns, and a test user")

    tables = _propensity_tables(config, train_h, users, topic_vectors, rdir, stages)

    ranking, skipped, embeddings = _train_rankers(
        config, tables, train_h, test_h, run_seed, rdir, stages
    )

    rmses, linear_rmse, importance = _effect_study(
        config, users, embeddings, outcome_table, user_rows, run_idx, rdir, stages
    )
    return {
        "ranking": ranking,
        "skipped": skipped,
        "rmse": rmses,
        "linear_rmse": linear_rmse,
        "importance": importance,
    }


def _ranking_rows(config: PipelineConfig, results) -> list:
    """``(model, metric, k, mean over runs)`` for every scheme, metric and cutoff."""
    rows = []
    for scheme in config.schemes:
        for metric in ("recall", "ndcg"):
            for k in config.k_list:
                vals = [r["ranking"][scheme][(metric, k)] for r in results]
                rows.append((MODEL_NAMES[scheme], metric, k, float(np.mean(vals))))
    return rows


def _render_report(config, graph, outcome_table, results, ranking_rows) -> str:
    runs = len(results)
    lines = []
    add = lines.append
    add("Resharing analysis report")
    add("=========================")
    hate = graph.hate_subgraph()
    add(
        f"dataset: users={graph.n_users} posts={graph.n_posts} "
        f"(hate={hate.n_posts}) interactions={graph.n_edges} (hate={hate.n_edges})"
    )
    add(
        f"outcome users={len(outcome_table.user_ids)} "
        f"excluded_zero_share={outcome_table.n_excluded} "
        f"clusters={','.join(outcome_table.clusters) or '-'}"
    )
    add(f"runs={runs}")
    add("")
    add(f"Ranking metrics on held-out reshares (mean over {runs} run(s))")
    add(f"{'model':<10} {'metric':<8} {'k':>4} {'value':>10}")
    for model, metric, k, value in ranking_rows:
        add(f"{model:<10} {metric:<8} {k:>4} {value:>10.4f}")
    add("")
    add(f"Effect-model test RMSE, by-user holdout (mean over {runs} run(s))")
    add(f"{'variant':<10} {'target':<16} {'rmse':>10}")
    variants = _variants(config)
    for variant in variants:
        for target in ("overall", *config.clusters):
            vals = [r["rmse"][variant][target] for r in results]
            add(f"{MODEL_NAMES[variant]:<10} {target:<16} {np.mean(vals):>10.4f}")
    lin_vals = [r["linear_rmse"] for r in results if r["linear_rmse"] is not None]
    if lin_vals:
        add(f"{'DF-linear':<10} {'overall':<16} {np.mean(lin_vals):>10.4f}")
    if runs >= 2:
        add("")
        add("Welch t-tests on per-run overall RMSE samples")
        add(f"{'pair':<24} {'t':>9} {'p':>9}")
        for i, a in enumerate(variants):
            for b in variants[i + 1 :]:
                sample_a = [r["rmse"][a]["overall"] for r in results]
                sample_b = [r["rmse"][b]["overall"] for r in results]
                res = welch_t_test(sample_a, sample_b)
                pair = f"{MODEL_NAMES[a]} vs {MODEL_NAMES[b]}"
                add(f"{pair:<24} {res.t:>9.3f} {res.p:>9.4f}")
    canonical = _canonical_scheme(config)
    imp_rows = results[0]["importance"].get(canonical)
    if imp_rows:
        add("")
        add(f"Feature importance ({MODEL_NAMES[canonical]} variant, first run, top 10)")
        add(f"{'feature':<28} {'importance':>12}")
        for name, value in imp_rows[:10]:
            add(f"{name:<28} {value:>12.6f}")
    add("")
    skipped = results[0]["skipped"]
    add(
        "ranking users skipped (no test edges): "
        + ", ".join(f"{MODEL_NAMES[s]}={skipped[s]}" for s in config.schemes)
    )
    return "\n".join(lines) + "\n"


def run_pipeline(config: PipelineConfig, resume: bool = False) -> str:
    """Run every stage; returns the rendered report text (also written to disk)."""
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    chash = config_hash(config)
    stages = _Stages(out_dir, chash, resume)

    graph, users = _load_inputs(config, out_dir, stages)

    with _stage("outcomes"):
        outcome_table = compute_outcomes(graph)
        artifacts.write_outcomes(outcome_table, os.path.join(out_dir, "outcomes.csv"))
    unknown = sorted(set(config.clusters) - set(outcome_table.clusters))
    if unknown:
        raise ConfigError(f"unknown clusters {unknown}; have {list(outcome_table.clusters)}")

    topic_vectors = None
    if "neural" in config.schemes:
        topic_vectors = _topic_vectors(config, graph, out_dir, stages)

    def run_group(run_indices):
        return [_run_once(config, graph, users, outcome_table, topic_vectors, out_dir, run_idx,
                          resume, chash) for run_idx in run_indices]

    results = [result for group in spread(run_group, range(config.runs)) for result in group]

    with _stage("report"):
        rows = _ranking_rows(config, results)
        report = _render_report(config, graph, outcome_table, results, rows)
        artifacts.write_report(report, os.path.join(out_dir, "report.txt"))
        artifacts.write_metrics(rows, os.path.join(out_dir, "metrics.csv"))
        canonical = _canonical_scheme(config)
        for name in ("plv_embeddings", "training_curve", "importance"):
            src = os.path.join(out_dir, f"{name}_{canonical}.csv")
            dst = os.path.join(out_dir, f"{name}.csv")
            if os.path.exists(src):
                shutil.copyfile(src, dst)
            elif os.path.exists(dst):  # base has no embeddings: an earlier config's copy
                os.remove(dst)
    return report


def run_synth(config: PipelineConfig, write_truth_files: bool = True) -> str:
    """Generate and dump a synthetic dataset (plus ground-truth files)."""
    if config.synth is None:
        raise ConfigError("synth command needs a 'synth' block in the config")
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    with _stage("synth"):
        graph, users, truth = generate(_seeded(config.synth, config.seed))
        write_dataset(graph, users, out_dir)
        if write_truth_files:
            write_truth(truth, out_dir)
            write_effects_truth(truth, out_dir)
    return out_dir


def run_mu_sweep(config: PipelineConfig, mu_list) -> list:
    """Recall@k for the two popularity-based schemes across smoothing values."""
    if not mu_list:
        raise ConfigError("mu sweep needs at least one mu value")
    for mu in mu_list:
        if not (0.0 < mu <= 1.0):
            raise ConfigError(f"mu must be in (0, 1], got {mu}")
    if len(set(mu_list)) != len(mu_list):
        raise ConfigError(f"mus must not repeat a value: {list(mu_list)}")
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    chash = config_hash(config)
    stages = _Stages(out_dir, chash, resume=False)
    graph, users = _load_inputs(config, out_dir, stages)
    train_h, test_h = _hate_split(config, graph, config.seed)
    rows = []
    with _stage("mu-sweep"):
        cells = [(scheme, mu) for scheme in ("virality", "follower") for mu in mu_list]
        tables = [
            virality_propensity(train_h, mu=mu, floor=config.floor)
            if scheme == "virality"
            else follower_propensity(train_h, users, mu=mu, floor=config.floor)
            for scheme, mu in cells
        ]
        hyper = _seeded(config.bpr, config.seed)

        def rank(group):
            return [ranking_metrics(model, test_h, config.k_list, train=train_h)
                    for model in train_stack(train_h, group, hyper)]

        reports = [report for group in spread(rank, tables) for report in group]
        for (scheme, mu), report in zip(cells, reports):
            label = f"{MODEL_NAMES[scheme]} mu={mu:g}"
            for k in config.k_list:
                rows.append((label, "recall", k, report[("recall", k)]))
        artifacts.write_metrics(rows, os.path.join(out_dir, "mu_sweep.csv"))
    return rows


def run_embed_analysis(
    embeddings_path,
    out_dir,
    tag: str = "default",
    eps: float = 0.5,
    min_pts: int = 10,
) -> tuple:
    """DBSCAN + silhouette over an exported embedding table."""
    os.makedirs(out_dir, exist_ok=True)
    user_ids, vectors = artifacts.read_vectors(embeddings_path)
    points = vectors[np.argsort(user_ids)]
    labels = dbscan(points, eps=eps, min_pts=min_pts)
    n_clusters = len(set(labels[labels >= 0].tolist()))
    n_noise = int(np.sum(labels < 0))
    sil = silhouette(points, labels) if n_clusters >= 2 else float("nan")
    artifacts.write_embedding_analysis(
        [(tag, n_clusters, n_noise, sil)],
        os.path.join(out_dir, "embedding_analysis.csv"),
    )
    return n_clusters, n_noise, sil
