"""Tiny-scale self-test of the benchmark.

    python3 benchmark/selftest.py

Runs every workload, untraced and traced, on a config the size of the one in
the acceptance suite's end-to-end determinism test, and checks that:

- every run is correct, and prints every metric of BENCHMARK.json with its
  unit, plus the readable lines for all eight end-to-end metrics;
- a report.txt tampered with after each cold call makes those calls fail;
- run.py exits non-zero, printing no result, where there are no sources.

Exits 0 when every check holds.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

TINY = {
    "synth": {
        "n_users": 120,
        "n_posts": 80,
        "n_hate_posts": 30,
        "n_clusters": 2,
        "exposure_exponent": 0.8,
        "exposure_norm_quantile": 0.9,
        "mean_shares": 25.0,
        "seed": 3,
    },
    "k_list": [5, 20],
    "bpr": {"embedding_dim": 8, "learning_rate": 0.02, "epochs": 8, "seed": 1},
    "ebm": {"n_bags": 2, "max_bins": 32, "n_interactions": 0, "max_rounds": 300, "seed": 2},
    "topics_k": 3,
    "topics_iterations": 15,
}

READABLE = ("wall_s", "resume_s", "setup_s", "peak_rss_mb", "fail_rate", "recall20_mean")
READABLE_EFFECTS = ("effects_rmse", "curve_rmse")


def tiny(workload):
    config = {**workload.config, **TINY}
    if "clusters" in config:
        config["clusters"] = ["c0", "c1"]
    return dataclasses.replace(workload, config=config)


def quiet_run(workload, trace, after_cold=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_workload(workload, seed=7, seconds=0, trace=trace, after_cold=after_cold)
    return result, out.getvalue()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print(("ok      " if ok else "FAILED  ") + what)
        if not ok:
            failures.append(what)

    for name, workload in WORKLOADS.items():
        wl = tiny(workload)
        for trace in (False, True):
            tag = f"{name} trace={int(trace)}"
            result, text = quiet_run(wl, trace)
            expect(result["correct"] and result["failed"] == 0, f"{tag}: correct, no failed call")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == wanted[trace], f"{tag}: metric names and units match BENCHMARK.json")
            readable = READABLE + (READABLE_EFFECTS if wl.has_effects else ())
            if not trace:
                lines = text.splitlines()
                expect(
                    all(any(line.startswith(m + " ") for line in lines) for m in readable),
                    f"{tag}: readable lines for {', '.join(readable)}",
                )

    def tamper(out_dir):
        with open(out_dir / "report.txt", "a", encoding="utf-8") as fh:
            fh.write("tampered\n")

    result, _ = quiet_run(tiny(WORKLOADS["desk"]), False, after_cold=tamper)
    expect(
        result["failed"] > 0 and not result["correct"],
        f"tampered report.txt: {result['failed']}/{result['attempted']} calls failed",
    )

    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(
        proc.returncode != 0 and not proc.stdout.strip(),
        f"no sources: exit code {proc.returncode}, nothing printed",
    )
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest {'passed' if not failures else 'FAILED'}")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
