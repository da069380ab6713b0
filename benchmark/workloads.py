"""The benchmark's workloads: one synthetic block, three CLI commands.

All three workloads share one synth block: the Criterion 9 desk block (4
hate clusters, seed 17, the ``u``/``linear`` effect spec, latent outcome
strength 0.05) at 12% of its users, posts and hate posts, with 100 LDA
iterations instead of 200 and 2 EBM bags instead of 8. The full desk run
takes about 110 s, so one call of it could not be repeated often enough
within a benchmark run to give a steady median; this one takes about 5 s and
keeps the order of the layers' shares (bprmf, then topics, then effects).

Early stopping is switched off (patience equal to the budget) in BPR and in
the EBM, so every seed does the same number of epochs and boosting rounds.
With it on, the epochs and rounds run, and with them the wall time, change by
up to 40% from seed to seed, which would hide any change smaller than that.
The EBM keeps its best out-of-bag round either way; at this size that round
comes well before 40.
"""

from dataclasses import dataclass

SYNTH = {
    "n_users": 600,
    "n_posts": 240,
    "n_hate_posts": 60,
    "n_clusters": 4,
    "exposure_exponent": 0.8,
    "exposure_norm_quantile": 0.9,
    "mean_shares": 60.0,
    "seed": 17,
    "effect_spec": [
        {"attribute": "log1p_n_followers", "shape": "u", "amplitude": 0.1},
        {"attribute": "log1p_n_posts", "shape": "linear", "amplitude": 0.05},
    ],
    "latent_outcome_strength": 0.05,
}

BPR_EPOCHS = 20
EBM_ROUNDS = 40

DESK = {
    "synth": SYNTH,
    "topics_k": 20,
    "topics_iterations": 100,
    "bpr": {"seed": 5, "epochs": BPR_EPOCHS, "early_stop_patience": BPR_EPOCHS},
    "ebm": {"seed": 6, "n_bags": 2, "max_rounds": EBM_ROUNDS, "early_stop_patience": EBM_ROUNDS},
}

CLUSTERS = {
    **DESK,
    "schemes": ["virality"],
    "clusters": ["c0", "c1", "c2", "c3"],
    "runs": 3,
    "bpr": {"seed": 5, "epochs": 10, "early_stop_patience": 10},
}

_PIPELINE_FILES = (
    "report.txt",
    "metrics.csv",
    "outcomes.csv",
    "propensity.csv",
    "plv_embeddings.csv",
    "training_curve.csv",
    "importance.csv",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple  # reshare CLI subcommand and its own flags
    config: dict
    expected: tuple  # files every call must leave in its output directory
    compared: tuple  # files that must be byte-identical across calls of one seed
    ranking_csv: str  # the (model, metric, k, value) rows recall20_mean averages
    has_effects: bool  # writes the effect-model table and one curve_<feature>.csv per feature

    def argv(self, config_path, out_dir, seed, resume=False):
        args = [*self.command, "--config", config_path, "--out", out_dir, "--seed", str(seed)]
        return args + ["--resume"] if resume else args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why="all four schemes with topics: bprmf, then topics, then effects, the desk run scaled down",
            command=("pipeline",),
            config=DESK,
            expected=_PIPELINE_FILES + ("topics.csv",),
            compared=("report.txt", "metrics.csv"),
            ranking_csv="metrics.csv",
            has_effects=True,
        ),
        Workload(
            name="mu-sweep",
            why="six BPR trainings with one seed on one graph; bypasses topics and effects",
            command=("mu-sweep", "--mus", "0.1,0.5,1.0"),
            config=DESK,
            expected=("mu_sweep.csv",),
            compared=("mu_sweep.csv",),
            ranking_csv="mu_sweep.csv",
            has_effects=False,
        ),
        Workload(
            name="clusters",
            why="per-cluster effect study over 3 runs, 30 EBM fits; one training per seed, no topics",
            command=("pipeline",),
            config=CLUSTERS,
            expected=_PIPELINE_FILES
            + tuple(f"run_{i}/plv_embeddings_virality.csv" for i in (1, 2)),
            compared=("report.txt", "metrics.csv"),
            ranking_csv="metrics.csv",
            has_effects=True,
        ),
    )
}
