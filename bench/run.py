"""convlin benchmark: one command per workload, every metric by name.

    python3 bench/run.py --workload hinge-curve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  ``--trace 0`` prints the end-to-end metrics (throughput,
set-up time, peak memory); ``--trace 1`` prints the per-layer metrics
from a traced run.  Human-readable lines come first and the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.

Each workload process is a closed loop with one client and runs
single-threaded (BLAS pools pinned to one thread).  Set-up time is
sampled ``SETUP_SAMPLES`` times in fresh processes and reported as the
median.  ``--smoke`` shrinks every size for the benchmark's own tests.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402

WORKLOADS = ("hinge-curve", "shared-init", "limit-estimate", "bound-curves")
SETUP_SAMPLES = 9
END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


class BenchError(RuntimeError):
    pass


def _worker(args, workdir, extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **envinfo.THREAD_ENV}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_end"] - spawned
    report["setup_ref_s"] = report["setup_s"] * report["setup_scale"]
    return report


def tail_percentile(samples):
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(samples)
    ok = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    if not ok:
        return None, None
    p = ok[-1]
    ordered = sorted(samples)
    return p, ordered[min(n - 1, int(p / 100 * n))]


def _timing(name, unit, samples):
    p, value = tail_percentile(samples)
    tail = f"p{p:g} {value:.4g} {unit}" if p else "no percentile has 10 samples beyond it"
    return (f"{name}: median {statistics.median(samples):.4g} {unit}, {tail} "
            f"({len(samples)} samples)")


def measure(args, workdir):
    timeout = 150 + 2 * args.seconds
    setups = []
    if not args.trace:
        setups = [_worker(args, workdir, ["--probe"], 60)
                  for _ in range(SETUP_SAMPLES - 1)]
    extra = ["--spans-out", str(Path(args.spans_out).resolve())] if args.spans_out else []
    report = _worker(args, workdir, extra, timeout)
    setups.append(report)
    return report, setups


def summarize(args, report, setups):
    records = report["requests"]
    attempted = sum(r["units"] for r in records)
    failed = min(attempted, sum(min(r["failed"], r["units"]) for r in records)
                 + sum(units for units, _ in report["run_failures"]))
    seconds = sum(r["seconds"] for r in records)
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}",
        f"spec: {report['cli']}",
        f"environment: {json.dumps({**envinfo.machine(), **report['env']})}",
        f"determinism: rerun output {'identical' if report['deterministic'] else 'DIFFERS'}",
    ]
    for r in records:
        lines.extend(f"FAILED request {r['index']} (seed {r['seed']}): {msg}"
                     for msg in r["problems"])
    lines.extend(f"FAILED run check: {msg}" for _, msg in report["run_failures"])
    lines.append(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} units)")
    if args.trace:
        metrics = report["per_layer"]
        units = _units_per_layer()
        lines.extend(f"{k} = {v:.6g} {units[k]}" for k, v in metrics.items())
        out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        rates = [r["units"] / (r["seconds"] * r["scale"]) for r in records]
        raw_setup = [s["setup_s"] for s in setups]
        values = {
            "trials_per_s": statistics.median(rates),
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
        lines.append(f"trials_per_s = {values['trials_per_s']:.6g} 1/s at reference "
                     f"speed (median over {len(rates)} requests); wall clock: median "
                     f"{statistics.median(r['units'] / r['seconds'] for r in records):.6g}"
                     f" 1/s, {attempted} units in {seconds:.3f} s")
        lines.append(f"setup_s = {values['setup_s']:.6g} s at reference speed (median "
                     f"of {len(setups)} fresh processes); wall clock: median "
                     f"{statistics.median(raw_setup):.6g} s of "
                     f"{', '.join(f'{s:.4f}' for s in raw_setup)}")
        lines.append(f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB")
        lines.append(f"machine speed: median scale {statistics.median(r['scale'] for r in records):.4g}"
                     " reference s per wall s")
        lines.append(_timing("request latency (wall clock)", "s",
                             [r["seconds"] for r in records]))
        out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    correct = failed == 0 and report["deterministic"]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": out}
    return lines, result


def _units_per_layer():
    import layers

    return {k: unit for k, (unit, _) in layers.PER_LAYER.items()}


def run_workload(args):
    """Measure one workload, print its lines and result; return the exit code."""
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        report, setups = measure(args, workdir)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines, result = summarize(args, report, setups)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all four in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--spans-out", help="also write the traced spans here")
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 60:
        p.error("--seconds must lie in (0, 60]")
    if not (ROOT / "src" / "convlin" / "__init__.py").is_file():
        print(f"error: no convlin sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    if args.spans_out:
        p.error("--spans-out takes a single workload")
    return max(run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
               for name in WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
