"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (IQR / median), against its bound.

    python3 perfbench/spread.py --workload generate --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload all --seeds 1 2 3 4 5 6 7 8 9 10

Runs are sequential, one process at a time.  Each run's last output line is
appended to ``.perfbench/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORKLOAD_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    log = ROOT / ".perfbench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    worst = 0.0
    for workload in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if last is None or not last["correct"]:
                print(f"{workload} seed {seed}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
                return 1
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **last}) + "\n")
            for name in values:
                values[name].append(last["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"{workload:<9} {metric['name']:<12} median {median:.5g} {metric['unit']:<3} "
                  f"spread {spread:.4f}  bound {metric['bound']}  spread/bound {spread / metric['bound']:.2f}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
