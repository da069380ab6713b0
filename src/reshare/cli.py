"""Command-line interface: synth, pipeline, mu-sweep, embed-analyze."""

import argparse
import sys
import traceback

from .pipeline import (
    PipelineConfig,
    StageError,
    run_embed_analysis,
    run_mu_sweep,
    run_pipeline,
    run_synth,
)


def _add_common(parser):
    parser.add_argument("--config", required=True, help="JSON pipeline config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="global seed offset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reshare",
        description="Debiased analysis of hate-speech resharing behavior",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    _add_common(p_synth)
    p_synth.add_argument(
        "--no-truth", action="store_true", help="skip the (large) truth.csv dump"
    )

    p_pipe = sub.add_parser("pipeline", help="run propensities, embeddings, outcomes, effects")
    _add_common(p_pipe)
    p_pipe.add_argument("--runs", type=int, default=None, help="number of seeded runs")
    p_pipe.add_argument("--resume", action="store_true", help="skip completed stages")

    p_mu = sub.add_parser("mu-sweep", help="recall@k across smoothing exponents")
    _add_common(p_mu)
    p_mu.add_argument(
        "--mus", default="0.1,0.5,1.0", help="comma-separated smoothing exponents"
    )
    p_mu.add_argument("--resume", action="store_true", help="ignored: mu-sweep always recomputes")

    p_emb = sub.add_parser("embed-analyze", help="DBSCAN + silhouette on exported embeddings")
    p_emb.add_argument("--embeddings", required=True, help="embeddings CSV path")
    p_emb.add_argument("--out", default=".", help="output directory")
    p_emb.add_argument("--tag", default="default", help="dataset tag for the output row")
    p_emb.add_argument("--eps", type=float, default=0.5)
    p_emb.add_argument("--min-samples", type=int, default=10)
    return parser


def _load_config(args, runs=None) -> PipelineConfig:
    config = PipelineConfig.from_json(args.config)
    return config.with_overrides(out_dir=args.out, seed=args.seed, runs=runs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            config = _load_config(args)
            out = run_synth(config, write_truth_files=not args.no_truth)
            print(f"synthetic dataset written to {out}")
            return 0
        if args.command == "pipeline":
            config = _load_config(args, runs=args.runs)
            report = run_pipeline(config, resume=args.resume)
            print(report, end="")
            return 0
        if args.command == "mu-sweep":
            config = _load_config(args)
            mus = [float(v) for v in args.mus.split(",") if v.strip()]
            rows = run_mu_sweep(config, mus)
            print(f"{'model':<18} {'metric':<8} {'k':>4} {'value':>10}")
            for model, metric, k, value in rows:
                print(f"{model:<18} {metric:<8} {k:>4} {value:>10.4f}")
            return 0
        if args.command == "embed-analyze":
            n_clusters, n_noise, sil = run_embed_analysis(
                args.embeddings,
                args.out,
                tag=args.tag,
                eps=args.eps,
                min_pts=args.min_samples,
            )
            print(f"clusters={n_clusters} noise={n_noise} silhouette={sil:.4f}")
            return 0
        raise AssertionError(args.command)
    except ValueError as exc:  # ConfigError and DataError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
