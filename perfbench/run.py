"""fcrg benchmark: seeded CLI workloads timed end to end, with a traced run
for per-layer numbers.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout: the program is imported from ``src/``.
Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
Result files, with an environment record, go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"
WORKLOAD_NAMES = ("train", "generate", "score")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """Cap BLAS threads at the cores this process may use; call before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for name in BLAS_ENV:
        current = os.environ.get(name, "")
        os.environ[name] = str(min(int(current), cores) if current.isdigit() and int(current) > 0 else cores)


def import_program() -> None:
    """Import fcrg from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fcrg

    if not Path(fcrg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fcrg was imported from {fcrg.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np

    commit = None  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fcrg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def _fmt(name: str, value: float, unit: str, extra: str = "") -> str:
    return f"  {name:<38} {value:>14.6g} {unit}{extra}"


def run_one(args) -> int:
    import workloads

    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    tracer = result.pop("tracer", None)
    result["environment"] = env
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.tsv")

    n_ops = len(result["op_samples_s"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"BLAS threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, nproc {env['nproc']}, "
          f"commit {env['git_commit'] or 'n/a'}")
    (op_s, _), (setup_s, _), (rss, _) = (result["end_to_end"][k] for k in ("op_s", "setup_s", "peak_rss_mb"))
    print(_fmt("setup_s", setup_s, "s", f"  (median of {len(result['setup_samples_s'])} set-ups)"))
    print(_fmt("op_s", op_s, "s", f"  (median of {n_ops} untraced operations)"))
    for name, (value, unit) in result["named"].items():
        print(_fmt(name, value, unit, f"  (median of {len(result['command_samples_s'])})"))
    print(_fmt("peak_rss_mb", rss, "MB"))
    print(_fmt("failed_ratio", result["failed"] / result["attempted"], "ratio",
               f"  ({result['failed']} failed / {result['attempted']} attempted)"))
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)

    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    if args.trace:
        for name, (value, unit) in chosen.items():
            print(_fmt(name, value, unit))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        totals["correct"] &= last["correct"]
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
        totals["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    limit_blas_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
