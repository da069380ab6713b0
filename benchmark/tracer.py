"""Run one reshare CLI call in this process, with a span around every layer call.

    python3 benchmark/tracer.py SPANS_JSON -- <reshare CLI arguments>

The wrappers go on the names ``reshare.pipeline`` imported (``from .bprmf
import train`` binds its own name, so patching ``reshare.bprmf.train`` would
record nothing) and on the functions of ``reshare.artifacts``, which the
pipeline calls through the module. Spans are kept in memory and written to
SPANS_JSON when the call ends, whether it succeeded or not. The exit code is
the CLI's.
"""

import inspect
import json
import os
import resource
import sys
import time

# Layer functions the pipeline calls, by module. A name the pipeline no longer
# imports is reported as missing rather than failing the call.
LAYERS = {
    "synthgen": ("generate",),
    "dataset": ("load_dataset", "write_dataset", "split"),
    "outcomes": ("compute_outcomes",),
    "topics": ("tokenize", "load_stopwords", "fit_lda", "infer_corpus"),
    "propensity": (
        "biased_propensity",
        "virality_propensity",
        "follower_propensity",
        "neural_propensity",
    ),
    "bprmf": ("train", "ranking_metrics"),
    "effects": (
        "assemble_features",
        "fit_ebm",
        "fit_linear",
        "predict",
        "feature_importance",
        "contribution_curve",
    ),
    "stats": ("rmse", "welch_t_test", "dbscan", "silhouette"),
    "plotting": ("line_chart_svg",),
}


def _train_counts(args, model):
    graph, hyper = args["graph"], args["hyper"]
    epochs = len(model.training_curve)
    # factors start uniform on +-1/sqrt(d), whose mean |x| is 1/(2 sqrt(d))
    init_abs = 0.5 / hyper.embedding_dim**0.5
    return {
        "epochs": epochs,
        "epochs_allowed": hyper.epochs,
        "triplets": graph.n_edges * epochs,
        "drift": float(abs(model.user_factors).mean() / init_abs),
    }


def _lda_counts(args, model):
    tokens = sum(len(doc) for doc in args["corpus"].documents)
    return {"tokens": tokens, "iterations": args["iterations"]}


def _ebm_counts(args, model):
    return {"rounds": len(model.train_rmse_curve), "pairs": len(model.pair_terms)}


def _generate_counts(args, result):
    return {"edges": result[0].n_edges}


def _written_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


COUNTERS = {
    "bprmf.train": _train_counts,
    "topics.fit_lda": _lda_counts,
    "effects.fit_ebm": _ebm_counts,
    "synthgen.generate": _generate_counts,
}


class Tracer:
    """In-memory spans: name, start, end, parent index, ru_maxrss after, counts."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "start": time.perf_counter(), "parent": parent}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Patch the layer names; returns the names that could not be found."""
        import reshare.artifacts as artifacts
        import reshare.pipeline as pipeline

        missing = []
        for module, names in LAYERS.items():
            for fname in names:
                qualified = f"{module}.{fname}"
                fn = getattr(pipeline, fname, None)
                if fn is None:
                    missing.append(qualified)
                    continue
                setattr(pipeline, fname, self.wrap(qualified, fn, COUNTERS.get(qualified)))
        for fname, fn in vars(artifacts).items():
            if fname.startswith("write_") and inspect.isfunction(fn):
                setattr(artifacts, fname, self.wrap(f"artifacts.{fname}", fn, _written_bytes))
            elif fname.startswith("read_") and inspect.isfunction(fn):
                setattr(artifacts, fname, self.wrap(f"artifacts.{fname}", fn))
        return missing


def main(argv) -> int:
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- <reshare CLI arguments>")
    from reshare import cli

    tracer = Tracer()
    missing = tracer.install()
    root = tracer.wrap("pipeline.main", cli.main)
    code = 2
    try:
        code = root(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": missing, "exit": code}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
