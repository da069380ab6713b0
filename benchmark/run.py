"""Benchmark of the reshare CLI on three workloads, with every output checked.

    python3 benchmark/run.py --workload desk --seed 1 --seconds 40 --trace 0

Run it from a checkout: the program is imported from ``src/``, and all
outputs go under ``.bench_work/``. Every CLI call is a fresh child process,
started one at a time, with the BLAS and OpenMP thread variables set to 1.

A run repeats cycles of (set-up probe, cold call, set-up probe, ``--resume``
call on the cold call's output) until ``--seconds`` is used up, at least two
cycles. It checks every call (exit code, expected artifacts, byte-identical
``report.txt``/``metrics.csv``/``mu_sweep.csv`` across calls), prints each
metric by name with its unit, median, maximum and sample count, and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` two
more cold/resume pairs run under ``tracer.py`` and the metrics are per layer.

Timings are calibrated. On a shared machine the speed of one core can change
twofold within seconds and by 20% between half-minute windows, so the median
wall time of a run moved by 14-35% (first-to-third quartile over seeds) while
the work stayed the same. Each child therefore runs between two timings of a
fixed piece of numpy work (``calibrate``), and its wall time is scaled by
``CALIBRATION_S`` over their mean: a time in seconds at the speed where that
work takes ``CALIBRATION_S``. The raw medians are printed too.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# one single-threaded child at a time keeps the load within nproc
for _var in THREAD_VARS:
    os.environ[_var] = "1"

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402  (after the thread variables are set)
from workloads import WORKLOADS  # noqa: E402

MIN_CYCLES = 2
CALIBRATION_ROUNDS = 4000
CALIBRATION_S = 0.25  # about the calibration's time on a 2-vCPU Xeon VM at rest
TRACED_PAIRS = 2
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_CODE = (
    "import sys\n"
    "import reshare.cli\n"
    "from reshare.pipeline import PipelineConfig\n"
    "PipelineConfig.from_json(sys.argv[1])\n"
)

END_TO_END = {
    "wall_s": "s",
    "resume_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "recall20_mean": "ratio",
}

PER_LAYER = {
    "bprmf.s": "s",
    "bprmf.train_s": "s",
    "bprmf.rank_s": "s",
    "bprmf.trainings": "count",
    "bprmf.epochs": "count",
    "bprmf.triplets": "count",
    "bprmf.ns_per_triplet": "ns",
    "bprmf.epoch_use": "ratio",
    "bprmf.drift_min": "ratio",
    "topics.s": "s",
    "topics.fit_s": "s",
    "topics.infer_s": "s",
    "topics.tokens": "count",
    "topics.ns_per_token_sweep": "ns",
    "effects.s": "s",
    "effects.fit_s": "s",
    "effects.fits": "count",
    "effects.rounds": "count",
    "effects.pairs": "count",
    "effects.assemble_s": "s",
    "effects.importance_s": "s",
    "effects.curve_s": "s",
    "effects.predict_s": "s",
    "effects.test_rmse": "fraction",
    "effects.curve_rmse": "fraction",
    "synthgen.s": "s",
    "synthgen.generate_s": "s",
    "synthgen.edges": "count",
    "synthgen.rss_hwm_mb": "MiB",
    "artifacts.s": "s",
    "artifacts.write_s": "s",
    "artifacts.read_s": "s",
    "artifacts.files": "count",
    "artifacts.bytes_written": "B",
    "dataset.s": "s",
    "outcomes.s": "s",
    "propensity.s": "s",
    "stats.s": "s",
    "plotting.s": "s",
    "pipeline.self_s": "s",
    "pipeline.stages_reused": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# work counts that must repeat exactly across the traced runs of one seed
REPEATED_COUNTS = (
    "bprmf.triplets",
    "bprmf.epochs",
    "topics.tokens",
    "effects.rounds",
    "effects.pairs",
    "synthgen.edges",
    "artifacts.bytes_written",
)


class Child:
    """One finished child process: wall time, peak RSS, exit code, stdout."""

    def __init__(self, cmd, log_dir: Path, timeout: float):
        log_dir.mkdir(parents=True, exist_ok=True)
        stdout_path = log_dir / "stdout.txt"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(stdout_path, "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
            timer = threading.Timer(max(timeout, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = stdout_path.read_bytes()
        self.problems = [] if self.exit_code == 0 else [f"exit code {self.exit_code}"]


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter-bound numpy work, the kind the
    program does, so that a slow spell of the machine slows both."""
    rng = np.random.default_rng(0)
    table = rng.random((600, 64))
    rows = rng.integers(0, 600, 64)
    start = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        step = 1e-3 * table[rows]
        np.add.at(table, rows, -step)
        float(np.einsum("ij,ij->i", table[rows], step).sum())
    return time.perf_counter() - start


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Run:
    """State of one benchmark run: its calls, their checks and their outputs."""

    def __init__(self, workload, seed: int, seconds: float, work: Path, after_cold=None):
        self.wl = workload
        self.seed = seed
        self.cli_seed = seed % 1_000_000  # the CLI adds it to every seed it uses
        self.seconds = seconds
        self.work = work
        self.after_cold = after_cold  # test hook: called with a cold call's output dir
        self.started = time.perf_counter()
        self.children = []
        self.calibrations = []
        self.reference = None  # digests of the compared files from the first good call
        self.first_good = None  # output dir of the first cold call that passed every check
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload.config, indent=1))
        from reshare.dataset import FEATURE_COLUMNS

        self.expected = workload.expected
        if workload.has_effects:
            self.expected += tuple(f"curve_{f}.csv" for f in FEATURE_COLUMNS)

    def timeout(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, cmd, tag: str) -> Child:
        child = Child(cmd, self.work / "logs" / f"{len(self.children):03d}-{tag}", self.timeout())
        child.calibration = len(self.calibrations) - 1
        self.children.append(child)
        return child

    def cli(self, out_dir: Path, resume: bool, tracer_spans: Path | None = None) -> Child:
        argv = self.wl.argv(str(self.config_path), str(out_dir), self.cli_seed, resume=resume)
        if tracer_spans is None:
            cmd = [sys.executable, "-m", "reshare.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(tracer_spans), "--", *argv]
        child = self.spawn(cmd, ("resume" if resume else "cold") + ("-traced" if tracer_spans else ""))
        if not resume and self.after_cold is not None:
            self.after_cold(out_dir)
        self.check(child, out_dir)
        return child

    def check(self, child: Child, out_dir: Path):
        missing = [f for f in self.expected if not (out_dir / f).is_file()]
        if missing:
            child.problems.append(f"missing artifacts: {', '.join(missing)}")
            return
        report = out_dir / "report.txt"
        if report.is_file() and child.stdout != report.read_bytes():
            child.problems.append("CLI output differs from report.txt")
        digests = {f: _sha256(out_dir / f) for f in self.wl.compared}
        if self.reference is None:
            if not child.problems:
                self.reference = digests
        elif digests != self.reference:
            changed = [f for f in digests if digests[f] != self.reference[f]]
            child.problems.append(f"not byte-identical to the first call: {', '.join(changed)}")

    def setup_probe(self) -> Child:
        return self.spawn([sys.executable, "-c", SETUP_CODE, str(self.config_path)], "setup")

    def record_calibration(self):
        self.calibrations.append(calibrate())

    def cycles(self):
        """Cycles of set-up probes, a cold call and a resume call until the time
        is used; returns the (setup, cold, resume) children. Every child runs
        between two calibrations, and the probes are spread over the run so
        that they meet the same machine as the calls."""
        setups, colds, resumes = [], [], []
        t0 = time.perf_counter()
        self.record_calibration()
        while True:
            out_dir = self.work / f"out-{len(colds)}"
            setups.append(self.setup_probe())
            colds.append(self.cli(out_dir, resume=False))
            self.record_calibration()
            setups.append(self.setup_probe())
            resumes.append(self.cli(out_dir, resume=True))
            self.record_calibration()
            if self.first_good is None and not colds[-1].problems and not resumes[-1].problems:
                self.first_good = out_dir
            else:
                shutil.rmtree(out_dir, ignore_errors=True)
            elapsed = time.perf_counter() - t0
            per_cycle = elapsed / len(colds)
            if len(colds) >= MIN_CYCLES and elapsed + per_cycle > self.seconds:
                break
            if self.timeout() < 2 * per_cycle:
                break
        return setups, colds, resumes

    def speed(self, child) -> float:
        """CALIBRATION_S over the mean of the calibrations either side of the child."""
        around = self.calibrations[child.calibration : child.calibration + 2]
        return CALIBRATION_S / statistics.fmean(around)

    def failed(self) -> int:
        return sum(1 for c in self.children if c.problems)


def _stats_line(name, unit, values) -> str:
    return (
        f"{name:<16} median {statistics.median(values):.6g} {unit}, "
        f"max {max(values):.6g} {unit}, n={len(values)}"
    )


def recall20_mean(out_dir: Path, wl) -> float:
    rows = _read_csv_rows(out_dir / wl.ranking_csv)
    vals = [float(r["value"]) for r in rows if r["metric"] == "recall" and r["k"] == "20"]
    if not vals:
        raise ValueError("no recall@20 rows")
    return statistics.fmean(vals)


def effects_rmse(out_dir: Path) -> float:
    """Mean over the rows of the report's effect-model RMSE table."""
    lines = (out_dir / "report.txt").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Effect-model test RMSE"))
    vals = []
    for line in lines[start + 2 :]:
        if not line.strip():
            break
        vals.append(float(line.split()[-1]))
    if not vals:
        raise ValueError("empty effect-model table")
    return statistics.fmean(vals)


def truth_curves(wl, cli_seed: int) -> dict:
    """The generating effect curves, rebuilt from the workload's synth block."""
    from reshare.synthgen import SynthConfig, generate

    cfg = SynthConfig.from_dict(wl.config["synth"])
    _, _, truth = generate(dataclasses.replace(cfg, seed=cfg.seed + cli_seed))
    return truth.effect_curves


def curve_rmse(out_dir: Path, curves: dict) -> float:
    """Mean over the exported curve_<feature>.csv of the RMSE against the truth."""
    errors = []
    for feature, curve in curves.items():
        rows = _read_csv_rows(out_dir / f"curve_{feature}.csv")
        x = np.array([float(r["x"]) for r in rows])
        value = np.array([float(r["value"]) for r in rows])
        errors.append(float(np.sqrt(np.mean((value - curve(x)) ** 2))))
    return statistics.fmean(errors)


def _self_times(spans) -> list:
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child_time[i] for i, s in enumerate(spans)]


def layer_metrics(cold: dict, resume: dict) -> dict:
    """Per-layer metrics from the spans of one traced cold call and its resume."""
    spans = cold["spans"]
    self_t = _self_times(spans)
    by_module = defaultdict(float)
    by_name = defaultdict(float)
    for s, t in zip(spans, self_t):
        by_module[s["name"].split(".")[0]] += t
        by_name[s["name"]] += t

    def counts(name):
        return [s["counts"] for s in spans if s["name"] == name and "counts" in s]

    trainings = counts("bprmf.train")
    epochs = sum(c["epochs"] for c in trainings)
    triplets = sum(c["triplets"] for c in trainings)
    lda = counts("topics.fit_lda")
    tokens = sum(c["tokens"] for c in lda)
    token_sweeps = sum(c["tokens"] * c["iterations"] for c in lda)
    ebm = counts("effects.fit_ebm")
    generated = counts("synthgen.generate")
    writes = [s for s in spans if s["name"].startswith("artifacts.write_")]
    gen_rss = [s["rss_kb"] for s in spans if s["name"] == "synthgen.generate"]
    cold_calls = Counter(s["name"] for s in spans)
    resume_calls = Counter(s["name"] for s in resume["spans"])
    resume_reads = sum(
        s["end"] - s["start"] for s in resume["spans"] if s["name"].startswith("artifacts.read_")
    )

    m = {f"{mod}.s": by_module[mod] for mod in (
        "bprmf", "topics", "effects", "synthgen", "artifacts",
        "dataset", "outcomes", "propensity", "stats", "plotting",
    )}
    m.update({
        "bprmf.train_s": by_name["bprmf.train"],
        "bprmf.rank_s": by_name["bprmf.ranking_metrics"],
        "bprmf.trainings": len(trainings),
        "bprmf.epochs": epochs,
        "bprmf.triplets": triplets,
        "bprmf.ns_per_triplet": 1e9 * by_name["bprmf.train"] / triplets if triplets else 0.0,
        "bprmf.epoch_use": (
            epochs / sum(c["epochs_allowed"] for c in trainings) if trainings else 0.0
        ),
        "bprmf.drift_min": min((c["drift"] for c in trainings), default=0.0),
        "topics.fit_s": by_name["topics.fit_lda"],
        "topics.infer_s": by_name["topics.infer_corpus"],
        "topics.tokens": tokens,
        "topics.ns_per_token_sweep": (
            1e9 * by_name["topics.fit_lda"] / token_sweeps if token_sweeps else 0.0
        ),
        "effects.fit_s": by_name["effects.fit_ebm"],
        "effects.fits": len(ebm),
        "effects.rounds": sum(c["rounds"] for c in ebm),
        "effects.pairs": sum(c["pairs"] for c in ebm),
        "effects.assemble_s": by_name["effects.assemble_features"],
        "effects.importance_s": by_name["effects.feature_importance"],
        "effects.curve_s": by_name["effects.contribution_curve"],
        "effects.predict_s": by_name["effects.predict"],
        "synthgen.generate_s": by_name["synthgen.generate"],
        "synthgen.edges": sum(c["edges"] for c in generated),
        "synthgen.rss_hwm_mb": max(gen_rss, default=0) / 1024.0,
        "artifacts.write_s": sum(s["end"] - s["start"] for s in writes),
        "artifacts.read_s": resume_reads,
        "artifacts.files": len(writes),
        "artifacts.bytes_written": sum(s["counts"]["bytes"] for s in writes),
        "pipeline.self_s": by_module["pipeline"],
        "pipeline.stages_reused": sum(
            max(0, n - resume_calls[name]) for name, n in cold_calls.items()
        ),
    })
    return m


def provenance(run: Run) -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"  # an exported checkout has no .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": run.wl.name,
        "seed": run.seed,
        "cli_seed": run.cli_seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "synth": {k: run.wl.config["synth"][k] for k in ("n_users", "n_posts", "n_hate_posts")},
    }


def measure(run: Run, trace: bool) -> tuple:
    """Runs the workload; returns (correct, metrics) and prints the readable lines."""
    wl = run.wl
    curves = truth_curves(wl, run.cli_seed) if wl.has_effects else None
    print("provenance " + json.dumps(provenance(run), sort_keys=True))
    setups, colds, resumes = run.cycles()
    correct = True
    quality = {}
    if run.first_good is None:
        correct = False
        print("no call passed its checks")
    else:
        for f in wl.compared:
            print(f"{f} sha256 {run.reference[f]}")
        try:
            quality["recall20_mean"] = recall20_mean(run.first_good, wl)
            if wl.has_effects:
                quality["effects_rmse"] = effects_rmse(run.first_good)
                quality["curve_rmse"] = curve_rmse(run.first_good, curves)
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            correct = False
            print(f"FAILED reading the outputs: {exc!r}")

    calls = {"wall_s": colds, "resume_s": resumes, "setup_s": setups}
    print(f"workload {wl.name}: {len(colds)} cycles, seed {run.seed}")
    print(_stats_line("calibration", "s", run.calibrations))
    metrics = {}
    for name, children in calls.items():
        scaled = [c.wall * run.speed(c) for c in children]
        metrics[name] = statistics.median(scaled)
        print(_stats_line(name, "s", scaled) + f"; raw median {statistics.median(c.wall for c in children):.6g} s")
    rss = [c.rss_mb for c in colds]
    metrics["peak_rss_mb"] = statistics.median(rss)
    print(_stats_line("peak_rss_mb", "MiB", rss))
    for name in ("recall20_mean", "effects_rmse", "curve_rmse"):
        if name in quality:
            print(f"{name:<16} {quality[name]:.6g} (first good cold call; fixed by the seed)")
    attempted = len(run.children)
    print(f"{'fail_rate':<16} {run.failed() / attempted:.6g} ({run.failed()}/{attempted} calls)")
    for child in run.children:
        for problem in child.problems:
            print(f"FAILED call: {problem}")
    if not trace:
        metrics["recall20_mean"] = quality.get("recall20_mean", 0.0)
        return correct, {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in END_TO_END}
    untraced_wall = statistics.median(c.wall for c in colds)

    layers = []
    spans_dir = run.work / "spans"
    spans_dir.mkdir(exist_ok=True)
    for i in range(TRACED_PAIRS):
        out_dir = run.work / f"traced-{i}"
        loaded, walls = [], []
        for resume in (False, True):
            path = spans_dir / f"{'resume' if resume else 'cold'}-{i}.json"
            child = run.cli(out_dir, resume=resume, tracer_spans=path)
            if not path.is_file():
                child.problems.append("tracer wrote no spans")
                return False, {}
            loaded.append(json.loads(path.read_text()))
            walls.append(child.wall)
            if loaded[-1]["missing"]:
                print(f"trace: layer names not found in reshare.pipeline: {loaded[-1]['missing']}")
        m = layer_metrics(*loaded)
        m["trace.wall_s"] = walls[0]
        layers.append(m)
        shutil.rmtree(out_dir, ignore_errors=True)
    for name in REPEATED_COUNTS:
        values = [m[name] for m in layers]
        if len(set(values)) != 1:
            correct = False
            print(f"FAILED count check: {name} differs across traced runs: {values}")
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["effects.test_rmse"] = quality.get("effects_rmse", 0.0)
    metrics["effects.curve_rmse"] = quality.get("curve_rmse", 0.0)
    print(
        f"traced cold call {metrics['trace.wall_s']:.4g} s, "
        f"tracing overhead {metrics['trace.overhead_s']:.4g} s"
    )
    wall = metrics["trace.wall_s"]
    shares = sorted(
        ((name[:-2], metrics[name] / wall) for name in PER_LAYER if name.endswith(".s")),
        key=lambda kv: -kv[1],
    )
    print("self-time shares of the traced cold call: " + ", ".join(
        f"{mod} {share:.3f}" for mod, share in shares if share >= 0.001
    ))
    for name in PER_LAYER:
        print(f"{name:<28} {metrics[name]:.10g} {PER_LAYER[name]}")
    return correct, {k: {"value": metrics[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def run_workload(workload, seed: int, seconds: float, trace: bool, after_cold=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    work = ROOT / ".bench_work" / f"{workload.name}-{seed}-{'trace' if trace else 'e2e'}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, seconds, work, after_cold=after_cold)
    try:
        correct, metrics = measure(run, trace)
    finally:
        for out_dir in work.glob("out-*"):
            shutil.rmtree(out_dir, ignore_errors=True)
    failed = run.failed()
    return {
        "correct": correct and failed == 0,
        "attempted": len(run.children),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reshare" / "cli.py").is_file():
        print(f"error: no reshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
