"""Debiased analysis of hate-speech resharing.

Ingests a bipartite user-post reshare graph plus per-user attributes,
estimates exposure propensities, learns inverse-propensity-debiased user
embeddings with pairwise-ranking matrix factorization, computes per-user
reshare-probability outcomes, and fits explainable additive effect models
over the user attributes.
"""

from .bprmf import (
    BprHyper,
    BprModel,
    TripletBatch,
    batch_gradients,
    batch_loss,
    pair_loss,
    ranking_metrics,
    sample_triplets,
    train,
    user_embedding,
)
from .dataset import (
    FeatureMatrix,
    InteractionGraph,
    Post,
    SplitPair,
    UserAttributeTable,
    load_dataset,
    log_transform_attributes,
    split,
    write_dataset,
)
from .effects import (
    EbmHyper,
    EffectModel,
    assemble_features,
    contribution_curve,
    feature_importance,
    fit_ebm,
    fit_ebm_stack,
    fit_linear,
    predict,
)
from .errors import ConfigError, DataError
from .outcomes import OutcomeTable, compute_outcomes
from .pipeline import PipelineConfig, run_mu_sweep, run_pipeline, run_synth
from .propensity import (
    PropensityTable,
    biased_propensity,
    follower_propensity,
    neural_propensity,
    virality_propensity,
)
from .stats import WelchResult, dbscan, rmse, silhouette, welch_t_test
from .synthgen import (
    EffectShape,
    SynthConfig,
    SyntheticTruth,
    generate,
    sample_interest_graph,
    write_effects_truth,
    write_truth,
)
from .topics import TokenCorpus, TopicModel, fit_lda, infer_topics, tokenize

__version__ = "0.1.0"
