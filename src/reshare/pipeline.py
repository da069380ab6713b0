"""End-to-end orchestration: propensities, debiased embeddings, outcomes,
effect models, and a deterministic report, with resumable stage outputs.
``PipelineConfig.from_json`` reads a config, the CLI's overrides included,
through ``errors.read_config``, which checks every field's type before any
stage writes.

Only the stages whose skip saves work (a synth block's dataset, topics,
``plv_<scheme>``, ``effects_<variant>`` and the mu sweep's
``mu-sweep_<scheme>_<repr(mu)>`` cells) keep a ``<stage>.done`` marker:
such a stage removes its marker, writes its artifacts, then writes a marker
holding a hash of the effective configuration and input files and the list of
files the stage wrote. With ``resume=True`` a stage whose marker matches, and
whose listed files all exist, is skipped, which reproduces the final report
byte-for-byte; a skipped scheme's embedding table is read only if its effect
variant refits. A marker without that list is stale. ``run_pipeline`` first
removes every stage marker that no stage of its config writes (any other
``*.done`` file, the mu sweep's included, stays), but not the files such a
marker lists. Markers, like every output file, are written through
``dataset.replacing``. The cheap outcomes and propensity stages always rerun.
A mu-sweep cell writes no file: its marker holds its recall@k values, from
which ``mu_sweep.csv`` is rebuilt on every call, and a sweep whose cells are
all done loads no data.

The stage functions only compute and write; ``_Stages`` decides what is done,
marks, and spreads a run's pending ``plv_<scheme>`` and then its
``effects_<variant>`` stages, and the mu sweep's pending cells
(``_Stages.fan_out``). The pending schemes train in contiguous groups, one
stacked ``train_stack`` call per group, and each group ranks, writes and marks
its own schemes; a group of mu-sweep cells trains and ranks alike, on the
same hate split as the pipeline.

The effect study fits one model per variant (``base``, then each debiased
scheme) and target (``overall``, then each configured cluster); the targets
of a variant share one feature matrix and one ``fit_ebm_stack`` call. The
report stage writes ``report.txt`` and ``metrics.csv`` from one table of ranking
means, and copies the canonical scheme's ``plv_embeddings``,
``training_curve`` and ``importance`` CSVs byte for byte, line ends included;
a copy whose source the config does not produce (the ``base`` variant has no
embeddings) goes.

``workers.spread`` has two callers, both here: ``run_pipeline`` spreads the
runs of ``--runs N`` with a ``plv`` or ``effects`` stage to fit, which share
no state (each has its own seeds, ``run_<i>/`` and markers), and
``_Stages.fan_out`` spreads the pending stages of one prefix, each group
writing its own files and markers: a run's ``plv_<scheme>``, then its
``effects_<variant>`` stages, and the mu sweep's cells. Spreads never nest,
so while the runs are spread each run trains and fits in its own process.
Run 0, the runs with nothing to fit (they rerun only their split and
propensity stages), the merging of the results in run order and the report
stay here: outputs are byte-identical on any CPUs.
"""

import contextlib
import dataclasses
import glob
import hashlib
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .bprmf import BprHyper, ranking_metrics, train_stack
from .dataset import FEATURE_COLUMNS, load_dataset, replacing, split, write_dataset
from .effects import (
    EbmHyper,
    assemble_features,
    contribution_curve,
    feature_importance,
    fit_ebm_stack,
    fit_linear,
    predict,
)
from .errors import ConfigError, DataError, read_config
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
    schemes: tuple[str, ...] = RANKING_SCHEMES
    k_list: tuple = (20, 40, 60, 80)
    bpr: BprHyper = field(default_factory=BprHyper)
    ebm: EbmHyper = field(default_factory=EbmHyper)
    topics_k: int = 20
    topics_iterations: int = 200
    stopwords_path: str | None = None
    clusters: tuple[str, ...] = ()
    runs: int = 1
    seed: int = 0
    emit_plots: bool = True

    def __post_init__(self):
        paths = [n for n in ("posts_csv", "users_csv", "interactions_csv")
                 if getattr(self, n) is not None]
        if self.synth is not None and paths:
            raise ConfigError(f"config takes a 'synth' block or input files, not both: {paths}")
        if self.synth is None and len(paths) < 3:
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
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.topics_k < 2 or self.topics_iterations < 1:
            raise ConfigError("topics_k must be >= 2 and topics_iterations >= 1")

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        return read_config(PipelineConfig, d, "config")

    @staticmethod
    def from_json(path, **overrides) -> "PipelineConfig":
        """The config in JSON file ``path``; an override that is not None replaces its field."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc.reason} at byte "
                              f"{exc.start}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if isinstance(raw, dict):
            raw.update((name, v) for name, v in overrides.items() if v is not None)
        return PipelineConfig.from_dict(raw)


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
    """Stage markers in one directory, keyed by the effective config hash and
    listing, relative to the directory, the files each stage wrote."""

    def __init__(self, out_dir: str, chash: str, resume: bool):
        self.out_dir = out_dir
        self.chash = chash
        self.resume = resume

    def _marker(self, stage: str) -> str:
        return os.path.join(self.out_dir, f"{stage}.done")

    def done(self, stage: str) -> bool:
        """True when resuming, the marker matches and every file it lists
        exists; else the marker goes, as the stage reruns. A marker without a
        file list, as written before markers had one, or not a JSON object,
        does not match."""
        if self.resume:
            with contextlib.suppress(OSError, KeyError, TypeError, json.JSONDecodeError):
                marker = self.payload(stage)
                if marker["config_hash"] == self.chash and all(
                        os.path.exists(os.path.join(self.out_dir, f)) for f in marker["files"]):
                    return True
        with contextlib.suppress(FileNotFoundError):
            os.remove(self._marker(stage))
        return False

    def payload(self, stage: str) -> dict:
        with open(self._marker(stage), encoding="utf-8") as fh:
            return json.load(fh)

    def mark(self, stage: str, *, files, **payload):
        data = {"stage": stage, "config_hash": self.chash,
                "files": [os.path.relpath(f, self.out_dir) for f in files]}
        data.update(payload)
        with replacing(self._marker(stage)) as fh:
            json.dump(data, fh, sort_keys=True)
            fh.write("\n")

    def fan_out(self, prefix: str, keys, fit) -> list:
        """``(payload, result)`` of the ``<prefix>_<key>`` stage of each key.

        The pending keys spread over the CPUs in groups (``workers.spread``).
        ``fit(group)`` does the group's shared work, then returns an iterator
        that yields ``(files, payload, result)`` for each key once its files
        are written; the key is marked right there, in the process that fitted
        it, so a failure keeps the keys before it done. An error in the shared
        work reads ``<prefix>``, one of a key ``<prefix>_<key>``. A done key
        gives its marker's payload and None; none of its files is read."""
        pending = [key for key in keys if not self.done(f"{prefix}_{key}")]

        def run(group):
            fitted, each = [], fit(group)
            for key in group:
                with _stage(f"{prefix}_{key}"):
                    files, payload, result = next(each)
                    self.mark(f"{prefix}_{key}", files=files, **payload)
                fitted.append((payload, result))
            return fitted

        with _stage(prefix):
            fitted = dict(zip(pending, spread(run, pending) if pending else []))
        return [fitted[key] if key in fitted else (self.payload(f"{prefix}_{key}"), None)
                for key in keys]


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
# the share of each split's train half
EDGE_SPLIT_RATIO = 0.8
USER_SPLIT_RATIO = 0.8


def _load_inputs(config: PipelineConfig):
    """Dataset stage: synthesize or load the three CSV inputs."""
    with _stage("dataset"):
        if config.synth is None:
            return load_dataset(config.posts_csv, config.users_csv, config.interactions_csv)
        graph, users, _ = generate(_seeded(config.synth, config.seed))
        return graph, users


def _hate_split(config: PipelineConfig, graph, run_seed: int):
    """Split stage: the by-edge (train, test) halves of the hate subgraph."""
    with _stage("split"):
        hate = graph.hate_subgraph()
        if hate.n_edges == 0 or hate.n_posts < 2:
            raise DataError("pipeline needs at least two hate posts and one hate reshare")
        pair = split(hate, "by-edge", EDGE_SPLIT_RATIO, EDGE_SPLIT_SEED + run_seed)
        return pair.train, pair.test


def _topic_vectors(config, graph, out_dir, stages):
    path = os.path.join(out_dir, "topics.csv")
    if stages.done("topics"):
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
        stages.mark("topics", files=[path])
    return vectors


def _propensity(scheme, mu, floor, train_h, users, topic_vectors):
    """The exposure propensity table of one scheme on the train edges."""
    if scheme == "biased":
        return biased_propensity(train_h, floor=floor)
    if scheme == "virality":
        return virality_propensity(train_h, mu=mu, floor=floor)
    if scheme == "follower":
        return follower_propensity(train_h, users, mu=mu, floor=floor)
    return neural_propensity(topic_vectors, train_h, mu=mu, floor=floor)


def _propensity_tables(config, train_h, users, topic_vectors, rdir):
    """Propensity stage: every scheme's table, recomputed and written on every run."""
    with _stage("propensity"):
        tables = {scheme: _propensity(scheme, config.mu, config.floor, train_h, users,
                                      topic_vectors) for scheme in config.schemes}
        artifacts.write_propensities(list(tables.values()), os.path.join(rdir, "propensity.csv"))
    return tables


def _train_rankers(config, tables, train_h, test_h, run_seed, rdir, stages):
    """The ``plv_<scheme>`` stages: a group of pending schemes trains in one
    stacked loop, then ranks and writes each scheme. Returns ranking, skipped
    and embeddings by scheme; a done scheme's embeddings are None, not read."""
    hyper = _seeded(config.bpr, run_seed)

    def write(scheme, model):
        report = ranking_metrics(model, test_h, config.k_list, train=train_h)
        paths = [os.path.join(rdir, f"{name}_{scheme}.csv")
                 for name in ("plv_embeddings", "training_curve")]
        artifacts.write_embeddings(model, paths[0])
        artifacts.write_training_curve(model.training_curve, paths[1])
        payload = {"metrics": [[m, k, v] for (m, k), v in sorted(report.values.items())],
                   "n_skipped": report.n_skipped}
        return paths, payload, (model.user_ids, model.user_factors)

    def fit(group):
        return map(write, group, train_stack(train_h, [tables[s] for s in group], hyper))

    fitted = stages.fan_out("plv", config.schemes, fit)
    ranking, skipped, embeddings = {}, {}, {}
    for scheme, (payload, embeddings[scheme]) in zip(config.schemes, fitted):
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
    configured cluster) are taken once; a variant builds its feature matrix once, reading
    its scheme's embedding table if its ``plv`` stage was done, and fits every target in one
    ``fit_ebm_stack`` call. The first run writes ``importance_<variant>.csv`` and the
    canonical variant's curves. Returns each variant's marker payload."""
    hyper = _seeded(config.ebm, config.seed + run_idx)
    targets = ("overall", *config.clusters)
    ys = [outcome_table.target(target) for target in targets]
    train_rows, test_rows = user_rows

    def fit(variant):
        """The files, payload and no result of one variant's stage."""
        vectors = embeddings.get(variant)
        if vectors is None and variant != "base":
            vectors = artifacts.read_vectors(os.path.join(rdir, f"plv_embeddings_{variant}.csv"))
        fm = assemble_features(users, vectors, outcome_table)
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
        files = []
        if run_idx == 0:
            files.append(os.path.join(rdir, f"importance_{variant}.csv"))
            artifacts.write_importance(importance_rows, files[0])
            if variant == _canonical_scheme(config):
                files += _export_curves(config, models[0], rdir)
        return files, payload, None

    variants = _variants(config)
    fitted = stages.fan_out("effects", variants, lambda group: map(fit, group))
    return {variant: payload for variant, (payload, _) in zip(variants, fitted)}


def _canonical_scheme(config: PipelineConfig) -> str:
    for scheme in ("virality", "follower", "neural"):
        if scheme in config.schemes:
            return scheme
    return "base"


def _export_curves(config, model, rdir) -> list:
    """Write each feature's ``curve_<feature>.csv``, then its SVG if plotted;
    returns the paths written."""
    written = []
    for feature in FEATURE_COLUMNS:
        curve = contribution_curve(model, feature)
        written.append(os.path.join(rdir, f"curve_{feature}.csv"))
        artifacts.write_curve(curve, written[-1])
        if config.emit_plots:
            written.append(os.path.join(rdir, f"curve_{feature}.svg"))
            line_chart_svg(
                curve.x,
                [
                    ("effect", curve.value, "#1f77b4"),
                    ("lower", curve.lower, "#ff7f0e"),
                    ("upper", curve.upper, "#ff7f0e"),
                ],
                title=feature,
                path=written[-1],
            )
    return written


def _run_dir(out_dir, run_idx) -> str:
    return out_dir if run_idx == 0 else os.path.join(out_dir, f"run_{run_idx}")


def _run_once(config, graph, users, outcome_table, topic_vectors, out_dir, run_idx, resume, chash):
    rdir = _run_dir(out_dir, run_idx)
    os.makedirs(rdir, exist_ok=True)
    stages = _Stages(rdir, chash, resume)
    run_seed = config.seed + run_idx

    train_h, test_h = _hate_split(config, graph, run_seed)
    with _stage("split"):
        user_pair = split(graph, "by-user", USER_SPLIT_RATIO, USER_SPLIT_SEED + run_seed)
        # feature rows follow the outcome rows
        user_rows = [[i for i, u in enumerate(outcome_table.user_ids) if u in half]
                     for half in (user_pair.train, user_pair.test)]
        (n_train, n_test), width = map(len, user_rows), len(FEATURE_COLUMNS)
        width += config.bpr.embedding_dim if _variants(config)[1:] else 0
        if n_train <= width or n_test == 0:
            raise DataError(f"the by-user split has {n_train} train and {n_test} test outcome "
                            f"users; the effect models need more train users than their {width} "
                            "feature columns, and a test user")

    tables = _propensity_tables(config, train_h, users, topic_vectors, rdir)

    ranking, skipped, embeddings = _train_rankers(
        config, tables, train_h, test_h, run_seed, rdir, stages
    )

    effects = _effect_study(
        config, users, embeddings, outcome_table, user_rows, run_idx, rdir, stages
    )
    return {
        "ranking": ranking,
        "skipped": skipped,
        "rmse": {variant: payload["rmse"] for variant, payload in effects.items()},
        "linear_rmse": effects["base"]["linear_rmse"],  # only base fits the linear model
        "importance": {variant: payload["importance"] for variant, payload in effects.items()},
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


# the names of the markers a pipeline stage writes, or wrote in earlier versions
_STAGE_MARKER = re.compile(r"(dataset|topics|propensity|plv_.+|effects_.+)\.done")


def _run_stages(config: PipelineConfig) -> list:
    """The ``plv`` and ``effects`` stages of each run of ``config``."""
    return [f"plv_{s}" for s in config.schemes] + [f"effects_{v}" for v in _variants(config)]


def _remove_stale_markers(config: PipelineConfig, out_dir: str):
    """Remove the stage markers in ``out_dir`` and its ``run_<i>/`` that no stage
    of this config writes. Any other ``*.done`` file (the mu sweep's, another
    tool's) stays, and so do the files that a removed marker lists: one may be
    this config's input."""
    run = [f"{name}.done" for name in _run_stages(config)]
    top = run + ["dataset.done"] * (config.synth is not None)
    top += ["topics.done"] * ("neural" in config.schemes)
    keep = {*top, *(os.path.join(f"run_{i}", name) for i in range(1, config.runs) for name in run)}
    markers = glob.glob("*.done", root_dir=out_dir)
    markers += glob.glob(os.path.join("run_*", "*.done"), root_dir=out_dir)
    for marker in markers:
        if marker not in keep and _STAGE_MARKER.fullmatch(os.path.basename(marker)):
            os.remove(os.path.join(out_dir, marker))


def run_pipeline(config: PipelineConfig, resume: bool = False) -> str:
    """Run every stage; returns the rendered report text (also written to disk)."""
    if "neural" in config.schemes and config.stopwords_path is not None:
        try:  # the topics stage reads it after earlier stages wrote
            open(config.stopwords_path, "rb").close()
        except OSError as exc:
            raise ConfigError(
                f"cannot read stopwords_path {config.stopwords_path}: {exc.strerror}") from None
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    _remove_stale_markers(config, out_dir)
    chash = config_hash(config)
    stages = _Stages(out_dir, chash, resume)

    graph, users = _load_inputs(config)
    if config.synth is not None and not stages.done("dataset"):
        with _stage("dataset"):
            stages.mark("dataset", files=write_dataset(graph, users, os.path.join(out_dir, "data")))

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

    def fits(run_idx):  # some plv or effects stage of the run is not done
        run_stages = _Stages(_run_dir(out_dir, run_idx), chash, resume)
        return not all(run_stages.done(name) for name in _run_stages(config))

    # only runs with a stage to fit spread: a done run reruns just its split and
    # propensity stages, cheaper here than in a forked worker
    fitting = [run_idx for run_idx in range(config.runs) if fits(run_idx)]
    done = [run_idx for run_idx in range(config.runs) if run_idx not in fitting]
    by_run = dict(zip(fitting + done, spread(run_group, fitting) + run_group(done)))
    results = [by_run[run_idx] for run_idx in range(config.runs)]

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
                with open(src, "rb") as fh, replacing(dst) as copy:
                    copy.buffer.writelines(fh)  # the bytes as they are, a line at a time
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


def run_mu_sweep(config: PipelineConfig, mu_list, resume: bool = False) -> list:
    """Recall@k for the two popularity-based schemes across smoothing values.

    Each (scheme, mu) cell is a ``mu-sweep_<scheme>_<repr(mu)>`` stage of
    ``_Stages.fan_out`` whose marker holds the cell's recall@k values and
    lists no files. The data is loaded and split only if some cell is
    pending, and ``mu_sweep.csv`` is rewritten from the payloads on every
    call. A model does not depend on the cells trained beside it, so a
    ``resume`` over a wider mu list writes the bytes of a cold run of it."""
    if not mu_list:
        raise ConfigError("mu sweep needs at least one mu value")
    for mu in mu_list:
        if not (0.0 < mu <= 1.0):
            raise ConfigError(f"mu must be in (0, 1], got {mu}")
    if len(set(mu_list)) != len(mu_list):
        raise ConfigError(f"mus must not repeat a value: {list(mu_list)}")
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    stages = _Stages(out_dir, config_hash(config), resume)
    cells = {f"{scheme}_{mu!r}": (scheme, mu)
             for scheme in ("virality", "follower") for mu in mu_list}
    if not all(stages.done(f"mu-sweep_{key}") for key in cells):
        graph, users = _load_inputs(config)
        train_h, test_h = _hate_split(config, graph, config.seed)
    hyper = _seeded(config.bpr, config.seed)

    def rank(model):
        report = ranking_metrics(model, test_h, config.k_list, train=train_h)
        return (), {"recall": [[k, report[("recall", k)]] for k in config.k_list]}, None

    def fit(group):  # called only if some cell is pending, so the data is loaded
        tables = [_propensity(*cells[key], config.floor, train_h, users, None) for key in group]
        return map(rank, train_stack(train_h, tables, hyper))

    rows = []
    for (scheme, mu), (payload, _) in zip(cells.values(),
                                          stages.fan_out("mu-sweep", list(cells), fit)):
        rows += [(f"{MODEL_NAMES[scheme]} mu={mu:g}", "recall", k, v) for k, v in payload["recall"]]
    with _stage("mu-sweep"):
        artifacts.write_metrics(rows, os.path.join(out_dir, "mu_sweep.csv"))
    return rows


def run_embed_analysis(
    embeddings_path,
    out_dir,
    tag: str = "default",
    eps: float = 0.5,
    min_pts: int = 10,
) -> tuple:
    """DBSCAN + silhouette over an exported embedding table. ``out_dir`` is
    made only once the table is read and clustered, so a call that fails on
    its input leaves no directory behind."""
    user_ids, vectors = artifacts.read_vectors(embeddings_path)
    points = vectors[np.argsort(user_ids)]
    labels = dbscan(points, eps=eps, min_pts=min_pts)
    n_clusters = len(set(labels[labels >= 0].tolist()))
    n_noise = int(np.sum(labels < 0))
    sil = silhouette(points, labels) if n_clusters >= 2 else float("nan")
    os.makedirs(out_dir, exist_ok=True)
    artifacts.write_embedding_analysis(
        [(tag, n_clusters, n_noise, sil)],
        os.path.join(out_dir, "embedding_analysis.csv"),
    )
    return n_clusters, n_noise, sil
