"""The benchmark's own tests, at tiny sizes.

    python3 bench/smoke.py

For every workload, untraced and traced, it checks that the command
exits 0 with a correct result whose metrics are exactly the ones
BENCHMARK.json names, each with its unit; that every child span lies
inside its parent; and that every self time is at least zero.  It also
checks that a broken boundary makes the tracer fail, and that the
command fails without printing a result when the program's sources are
absent.  Prints one line per check and exits non-zero on any failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spans  # noqa: E402

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_workload(bench, name, trace, scratch):
    spans_path = scratch / f"{name}-{trace}.jsonl"
    proc = _run(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke", "--spans-out", str(spans_path))
    label = f"{name} trace={trace}"
    check(proc.returncode == 0, f"{label}: exit code 0 ({proc.stderr[-300:]})")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: result line is correct with no failed units")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == wanted, f"{label}: every named metric emitted with its unit")
    check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
          f"{label}: every metric value is a number")
    if trace:
        recorded = spans.read_spans(spans_path)
        check(len(recorded) > 1, f"{label}: spans recorded")
        check(not spans.nesting_violations(recorded),
              f"{label}: child spans lie inside their parents")
        check(min(spans.self_times(recorded).values()) >= 0.0,
              f"{label}: every self time is at least zero")


def check_boundaries():
    sys.path.insert(0, str(ROOT / "src"))
    import convlin.harness

    spans.verify(layers.BOUNDARIES)
    check(True, "boundaries match the package")
    renamed = spans.Boundary("convlin.harness", "fit", "convlin.models", "train")
    missing = spans.Boundary("convlin.harness", "train", "convlin.models", "fit")
    convlin.harness.fit_alias = convlin.models.train
    for boundary, what in ((renamed, "a renamed consumer attribute"),
                           (missing, "a missing public function"),
                           (layers.BOUNDARIES[3], "a second name for a traced function")):
        try:
            spans.verify([boundary])
        except spans.BoundaryError:
            check(True, f"tracer fails on {what}")
        else:
            check(False, f"tracer fails on {what}")
    del convlin.harness.fit_alias


def check_without_sources(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", "hinge-curve", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and not last.startswith("{"),
          "without src/ the command fails and prints no result")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    check(declared == layers.PER_LAYER, "BENCHMARK.json per_layer matches layers.PER_LAYER")
    check_boundaries()
    scratch = Path(tempfile.mkdtemp(prefix=".bench-smoke-", dir=ROOT))
    try:
        check_without_sources(scratch)
        for w in bench["workloads"]:
            for trace in (0, 1):
                check_workload(bench, w["name"], trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
