"""One benchmark process: set up, run a workload's requests, report.

Started by run.py, never imported.  It imports convlin from the
checkout's ``src/``, runs the set-up a user pays before the first unit
of work (import, spec building, ``whole_dataset``), and then either
stops there (``--probe``, a set-up time sample) or runs the closed loop
and prints one JSON line with what it measured.

Untraced: requests run back to back until ``--seconds`` have passed,
then request 0 runs again and must give byte-identical output.
Traced: a fixed number of requests, set by ``--seconds`` so counts
repeat for a seed, runs untraced and then again traced; the two passes
must agree byte for byte, and their time difference is the tracing
overhead.
"""

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_convlin():
    sys.path.insert(0, str(ROOT / "src"))
    import convlin
    import convlin.harness  # noqa: F401  (not imported by the package)

    where = Path(convlin.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"convlin imported from {where}, not from {ROOT / 'src'}")
    return convlin


def run_one(convlin, wl, req, workdir, tracer=None):
    """Run one request and check its output; return (seconds, outcome)."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        if tracer is None:
            produced = wl.execute(convlin, req, workdir)
        else:
            with tracer.root("bench.request", index=req.index):
                produced = wl.execute(convlin, req, workdir)
    except Exception:
        elapsed = time.perf_counter() - t0
        outcome = Outcome()
        outcome.fail(req.units, traceback.format_exc(limit=3))
        return elapsed, outcome
    elapsed = time.perf_counter() - t0
    return elapsed, wl.inspect(convlin, req, produced)


def _record(req, elapsed, outcome, scale):
    return {"index": req.index, "seed": req.seed, "units": req.units,
            "seconds": elapsed, "scale": scale, "failed": outcome.failed,
            "problems": outcome.problems, "digest": outcome.digest}


def main(argv=None):
    started = time.perf_counter()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    convlin = _import_convlin()
    import_s = time.perf_counter() - started
    import workloads

    wl = workloads.make(args.workload, smoke=args.smoke)
    first = wl.request(convlin, args.seed, 0)
    t0 = time.perf_counter()
    wl.setup(convlin)
    setup = {"import_s": import_s, "whole_dataset_s": time.perf_counter() - t0}
    setup_end = time.monotonic()
    import calibrate

    report = {"setup_end": setup_end, **setup, "setup_scale": calibrate.scale(
        wl.reference, statistics.median(calibrate.reference_seconds(wl.reference)
                                        for _ in range(3)))}
    if args.probe:
        print(json.dumps(report))
        return 0

    import envinfo
    import layers
    import spans

    spans.verify(layers.BOUNDARIES)
    report["env"] = envinfo.runtime()
    report["cli"] = wl.cli
    if args.trace:
        report.update(_traced(convlin, wl, args, setup))
    else:
        report.update(_untraced(convlin, wl, first, args))
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


def _untraced(convlin, wl, first, args):
    reqs = itertools.chain([first], (wl.request(convlin, args.seed, i)
                                     for i in itertools.count(1)))
    results = _calibrated_pass(convlin, wl, reqs, args.workdir,
                               deadline=time.monotonic() + args.seconds)
    records = [_record(*r) for r in results]
    _, again = run_one(convlin, wl, first, args.workdir)
    deterministic = again.digest == records[0]["digest"] and not again.failed
    if not deterministic:
        records[0]["failed"] = records[0]["units"]
        records[0]["problems"].append("rerun of request 0 gave different output")
    return {"requests": records, "deterministic": deterministic,
            "run_failures": wl.run_check(convlin, [o for _, _, o, _ in results])}


def traced_request_count(wl, seconds):
    """Requests in a traced run: half the time untraced, half traced,
    at the workload's nominal request time.  Depends on the arguments
    only, so a seed's counts repeat."""
    return max(1, int(seconds / 2 / wl.nominal_s))


def _calibrated_pass(convlin, wl, reqs, workdir, tracer=None, deadline=None):
    """Run requests in order, each between two reference-loop timings,
    until they run out or the ``time.monotonic`` deadline has passed.
    Returns ``(request, seconds, outcome, scale)`` per request."""
    from calibrate import reference_seconds, scale

    results = []
    before = reference_seconds(wl.reference)
    for r in reqs:
        elapsed, outcome = run_one(convlin, wl, r, workdir, tracer)
        after = reference_seconds(wl.reference)
        results.append((r, elapsed, outcome, scale(wl.reference, (before + after) / 2)))
        before = after
        if deadline is not None and time.monotonic() >= deadline:
            break
    return results


def _median_rate(results):
    return statistics.median(r.units / (e * sc) for r, e, _, sc in results)


def _traced(convlin, wl, args, setup):
    import layers
    import spans

    count = 1 if args.smoke else traced_request_count(wl, args.seconds)
    reqs = [wl.request(convlin, args.seed, i) for i in range(count)]
    plain = _calibrated_pass(convlin, wl, reqs, args.workdir)
    tracer = spans.Tracer(layers.BOUNDARIES)
    with tracer:
        traced = _calibrated_pass(convlin, wl, reqs, args.workdir, tracer)
    records = [_record(*r) for r in traced]
    deterministic = True
    for rec, (_, _, o, _) in zip(records, plain):
        if o.digest != rec["digest"]:
            deterministic = False
            rec["failed"] = rec["units"]
            rec["problems"].append("traced and untraced outputs differ")
    bad = spans.nesting_violations(tracer.spans)
    if bad:
        raise RuntimeError(f"{len(bad)} spans outside their parents, e.g. {bad[0]}")
    if args.spans_out:
        tracer.write(args.spans_out)
    metrics = layers.per_layer(
        tracer.spans, [o for _, _, o, _ in traced], run_s=sum(e for _, e, _, _ in traced),
        units=sum(r.units for r in reqs),
        rates=(_median_rate(plain), _median_rate(traced)), setup=setup)
    return {"requests": records, "deterministic": deterministic,
            "run_failures": wl.run_check(convlin, [o for _, _, o, _ in traced]),
            "per_layer": metrics}


if __name__ == "__main__":
    sys.exit(main())
