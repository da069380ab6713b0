"""Time one desk-scale ``reshare pipeline`` run and its resume, and write
their numbers as JSON.

    python scripts/bench_desk.py --json BENCH_21.json
    python scripts/bench_desk.py --config tiny.json --json bench.json

The pipeline runs cold, then with ``--resume`` on the same output directory,
each in a child process (``python -m reshare.cli`` with ``PYTHONPATH=src`` and
every BLAS/OpenMP thread variable set to 1). The output directory is
temporary and deleted afterwards; the JSON file is the only thing written.
The pipeline's ``--seed`` is always 1. The children inherit this process's
CPU affinity, so ``taskset -c 0`` gives the one-CPU numbers. The JSON holds
the cold call's wall time, the resumed call's (``resume_wall_s``), the cold
child's peak RSS (``os.wait4``, which covers its reaped workers) and exit
code, the sha256 of ``report.txt`` and ``metrics.csv``, and the provenance:
git commit, whether ``src/`` is that commit's as committed, sha256 of
``src/``, Python and numpy versions and usable CPUs. The script exits 1 if
either call fails or the resumed ``report.txt`` or ``metrics.csv`` differs
from the cold one.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLI_SEED = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
COMPARED = ("report.txt", "metrics.csv")


def src_sha256() -> str:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(*args) -> str:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout if out.returncode == 0 else ""


def git_state() -> tuple:
    """HEAD's commit, and whether ``src/`` holds it unchanged (None without git)."""
    commit = _git("rev-parse", "HEAD").strip()
    if not commit:  # an exported checkout has no .git
        return "unknown", None
    return commit, _git("status", "--porcelain", "--", "src") == ""


def usable_cpus() -> int:
    """CPUs the child may run on: this process's affinity mask, else the machine's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_pipeline(config: Path, out_dir: str, *flags) -> dict:
    cmd = [sys.executable, "-m", "reshare.cli", "pipeline", "--config", str(config),
           "--out", out_dir, "--seed", str(CLI_SEED), *flags]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, cwd=ROOT, env=env)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = exit_code = os.waitstatus_to_exitcode(status)
    digests = {
        name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
        if exit_code == 0 else None
        for name in COMPARED
    }
    return {
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "exit_code": exit_code,
        "sha256": digests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, default=ROOT / "configs" / "criterion9_desk.json")
    parser.add_argument("--json", type=Path, required=True, help="where to write the result")
    args = parser.parse_args(argv)
    config = args.config.resolve()
    with tempfile.TemporaryDirectory(prefix="bench_desk_") as out_dir:
        result = run_pipeline(config, out_dir)
        resumed = run_pipeline(config, out_dir, "--resume") if result["exit_code"] == 0 else None
    try:
        config_name = str(config.relative_to(ROOT))
    except ValueError:
        config_name = str(config)
    commit, src_committed = git_state()
    bench = {
        "config": config_name,
        "cli_seed": CLI_SEED,
        **result,
        "resume_wall_s": resumed["wall_s"] if resumed else None,
        "provenance": {
            "git_commit": commit,
            "src_committed": src_committed,
            "src_sha256": src_sha256(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "usable_cpus": usable_cpus(),
        },
    }
    args.json.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps(bench, indent=2))
    if result["exit_code"] != 0:
        print(f"error: the pipeline exited with {result['exit_code']}", file=sys.stderr)
        return 1
    if resumed["exit_code"] != 0:
        print(f"error: the resumed pipeline exited with {resumed['exit_code']}", file=sys.stderr)
        return 1
    changed = [name for name in COMPARED if resumed["sha256"][name] != result["sha256"][name]]
    if changed:
        print(f"error: the resumed run changed {', '.join(changed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
