"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload limit-estimate --runs 10 [--first-seed 1]

Runs the benchmark once per seed and prints, for each end-to-end
metric, the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.5g}" for k, v in values.items())
              + f" ({time.monotonic() - started:.1f} s wall)", flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {name}: median {med:.6g}, quartile spread "
              f"{(q3 - q1) / med:.4f} of the median (bound {bounds[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
