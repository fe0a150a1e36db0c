"""Layer boundaries the benchmark traces, and the per-layer metrics.

Layers are convlin's modules: tasks, shift, models, linalg, dynamics,
theory and harness (cli only parses flags and is counted in set-up).
``bench`` is the benchmark's own glue inside a request.

``harness.self_s`` is the self time of ``harness.run`` alone; with
``harness.write_result_s`` it makes up the harness layer's self time.

Counts (calls, steps, rows, bytes, SVDs per training set) come from the
return values the boundary wrappers see and from the request outcomes,
never from per-step wrappers, so they repeat exactly for a fixed seed.
Times come from spans; a layer's self time is the time its spans cover
minus the time their child spans cover.
"""

from spans import Boundary, self_times

LAYERS = ("tasks", "shift", "models", "linalg", "dynamics", "theory", "harness")


def _train_tag(args, kwargs, trace):
    return {"model": args[0], "loss": args[2].loss, "steps": trace.steps_run,
            "stop": trace.stop_reason}


def _svd_tag(args, kwargs, dec):
    return {"k": int(args[0].shape[1])}


def _report_tag(args, kwargs, report):
    return {"draws": report.trials, "n": report.n, "d": report.d, "k": report.k}


def _run_tag(args, kwargs, result):
    return {"rows": len(result.rows)}


def _estimate_tag(args, kwargs, est):
    return {"trainsets": int(est.trial_errors.shape[0])}


H, M, D, T = "convlin.harness", "convlin.models", "convlin.dynamics", "convlin.tasks"
S, L, TH = "convlin.shift", "convlin.linalg", "convlin.theory"

BOUNDARIES = (
    # entry points the benchmark calls
    Boundary(H, "run", H, "run", _run_tag),
    Boundary(H, "write_result", H, "write_result"),
    Boundary(D, "asymptotic_error_estimate", D, "asymptotic_error_estimate",
             _estimate_tag),
    # harness -> lower layers
    Boundary(H, "train", M, "train", _train_tag),
    Boundary(H, "models.classification_error", M, "classification_error"),
    Boundary(H, "sample_training_set", T, "sample_training_set"),
    Boundary(H, "whole_dataset", T, "whole_dataset"),
    Boundary(H, "training_average", S, "training_average"),
    Boundary(H, "theory.decomposition_report", TH, "decomposition_report",
             _report_tag),
    # models -> shift (extreme-hinge training average)
    Boundary(M, "training_average", S, "training_average"),
    # dynamics, within the layer and below it
    Boundary(D, "asymptotic_error_for_trainset", D, "asymptotic_error_for_trainset"),
    Boundary(D, "asymptotic_weights", D, "asymptotic_weights"),
    Boundary(D, "asymptotic_error", D, "asymptotic_error"),
    Boundary(D, "sample_training_set", T, "sample_training_set"),
    Boundary(D, "training_average", S, "training_average"),
    Boundary(D, "thin_svd", L, "thin_svd", _svd_tag),
    Boundary(D, "fix_top_pair_sign", L, "fix_top_pair_sign"),
)

# name -> (unit, better).  Per-call times are 0 when a workload makes
# no such call; the matching count says so.
PER_LAYER = {
    "models.hinge.us_per_step.1layer": ("us", "lower"),
    "models.hinge.us_per_step.conv": ("us", "lower"),
    "models.hinge.us_per_step.fc": ("us", "lower"),
    "models.hinge.steps": ("count", "lower"),
    "models.xhinge.us_per_step": ("us", "lower"),
    "models.xhinge.steps": ("count", "lower"),
    "models.train.calls": ("count", "lower"),
    "models.step_budget_stops": ("count", "lower"),
    "models.classification_error.calls": ("count", "lower"),
    "models.classification_error.us_per_call": ("us", "lower"),
    "models.self_s": ("s", "lower"),
    "linalg.thin_svd.calls": ("count", "lower"),
    "linalg.thin_svd.us_per_call.k5": ("us", "lower"),
    "linalg.thin_svd.us_per_call.k20": ("us", "lower"),
    "linalg.self_share": ("ratio", "lower"),
    "linalg.self_s": ("s", "lower"),
    "dynamics.asymptotic_error_for_trainset.us_per_call": ("us", "lower"),
    "dynamics.asymptotic_error.us_per_call": ("us", "lower"),
    "dynamics.degenerate_frac": ("ratio", "lower"),
    "dynamics.svd_per_trainset": ("ratio", "higher"),
    "dynamics.zero_average_resamples": ("count", "lower"),
    "dynamics.self_s": ("s", "lower"),
    "shift.training_average.calls": ("count", "lower"),
    "shift.training_average.us_per_call": ("us", "lower"),
    "shift.self_s": ("s", "lower"),
    "tasks.sample_training_set.calls": ("count", "lower"),
    "tasks.sample_training_set.us_per_call": ("us", "lower"),
    "tasks.whole_dataset_s": ("s", "lower"),
    "tasks.self_s": ("s", "lower"),
    "theory.decomposition_report.calls": ("count", "lower"),
    "theory.draws_per_s": ("1/s", "higher"),
    "theory.bytes_per_draw": ("bytes_computed", "lower"),
    "theory.self_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.rows": ("count", "higher"),
    "harness.write_result_s": ("s", "lower"),
    "harness.out_bytes": ("bytes", "lower"),
    "bench.self_s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "trace.requests": ("count", "higher"),
    "trace.units": ("count", "higher"),
    "trace.run_s": ("s", "lower"),
    "trace.trials_per_s": ("1/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
}


def _us_per(total_s, count):
    return 1e6 * total_s / count if count else 0.0


def _adjacent_pair_bytes(d, k, n):
    """Bytes allocated per draw by estimate_prob_no_adjacent_pair,
    computed from its array shapes: the (trials, d+2) hit mask, the
    (trials, n) int64 positions, the row index and two (trials, d+1-lo)
    boolean pair arrays."""
    lo = max(k, 2)
    return (d + 2) + 8 * n + 8 + 2 * (d + 1 - lo)


class CountMismatch(RuntimeError):
    """Traced call counts disagree with the counts the outputs imply."""


def per_layer(spans, outcomes, run_s, units, rates, setup):
    """Every PER_LAYER metric from one traced pass.

    ``outcomes`` are the traced requests' checked outcomes, ``run_s`` the
    traced request time, and ``rates`` the median units per second at
    reference speed of the same requests run untraced and traced.
    """
    own = self_times(spans)
    layer_self = {}
    for s in spans:
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own[s.id]

    def named(name):
        return [s for s in spans if s.name == name]

    def total(group):
        return sum(s.duration for s in group)

    def count(key):
        return sum(o.counts.get(key, 0) for o in outcomes)

    out = {}
    trains = named("models.train")
    for model in ("1layer", "conv", "fc"):
        group = [s for s in trains if s.attrs["loss"] == "hinge"
                 and s.attrs["model"] == model]
        out[f"models.hinge.us_per_step.{model}"] = _us_per(
            total(group), sum(s.attrs["steps"] for s in group))
    hinge = [s for s in trains if s.attrs["loss"] == "hinge"]
    xhinge = [s for s in trains if s.attrs["loss"] == "xhinge"]
    out["models.hinge.steps"] = sum(s.attrs["steps"] for s in hinge)
    out["models.xhinge.steps"] = sum(s.attrs["steps"] for s in xhinge)
    out["models.xhinge.us_per_step"] = _us_per(total(xhinge),
                                               out["models.xhinge.steps"])
    out["models.train.calls"] = len(trains)
    out["models.step_budget_stops"] = sum(s.attrs["stop"] == "step-budget"
                                          for s in trains)
    ce = named("models.classification_error")
    out["models.classification_error.calls"] = len(ce)
    out["models.classification_error.us_per_call"] = _us_per(total(ce), len(ce))

    svd = named("linalg.thin_svd")
    out["linalg.thin_svd.calls"] = len(svd)
    for k in (5, 20):
        group = [s for s in svd if s.attrs["k"] == k]
        out[f"linalg.thin_svd.us_per_call.k{k}"] = _us_per(total(group), len(group))
    out["linalg.self_share"] = layer_self.get("linalg", 0.0) / run_s

    for name in ("asymptotic_error_for_trainset", "asymptotic_error"):
        group = named(f"dynamics.{name}")
        out[f"dynamics.{name}.us_per_call"] = _us_per(total(group), len(group))
    trainsets = count("trainsets")
    out["dynamics.degenerate_frac"] = count("degenerate") / trainsets if trainsets else 0.0
    out["dynamics.svd_per_trainset"] = trainsets / count("thin_svd") if trainsets else 0.0
    out["dynamics.zero_average_resamples"] = count("zero_average_resamples")

    for name, key in (("shift.training_average", "shift.training_average"),
                      ("tasks.sample_training_set", "tasks.sample_training_set")):
        group = named(name)
        out[f"{key}.calls"] = len(group)
        out[f"{key}.us_per_call"] = _us_per(total(group), len(group))
    out["tasks.whole_dataset_s"] = setup["whole_dataset_s"]

    reports = named("theory.decomposition_report")
    draws = sum(s.attrs["draws"] for s in reports)
    out["theory.decomposition_report.calls"] = len(reports)
    out["theory.draws_per_s"] = draws / total(reports) if reports else 0.0
    out["theory.bytes_per_draw"] = (
        sum(s.attrs["draws"] * _adjacent_pair_bytes(s.attrs["d"], s.attrs["k"],
                                                    s.attrs["n"])
            for s in reports) / draws if draws else 0.0)

    runs = named("harness.run")
    out["harness.self_s"] = sum(own[s.id] for s in runs)
    out["harness.rows"] = sum(s.attrs["rows"] for s in runs)
    out["harness.write_result_s"] = total(named("harness.write_result"))
    out["harness.out_bytes"] = count("out_bytes")
    for layer in ("tasks", "shift", "models", "linalg", "dynamics", "theory", "bench"):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["setup.import_s"] = setup["import_s"]

    out["trace.requests"] = len(outcomes)
    out["trace.units"] = units
    out["trace.run_s"] = run_s
    out["trace.trials_per_s"] = rates[1]
    out["trace.overhead_frac"] = rates[0] / rates[1] - 1.0
    out["trace.unattributed_frac"] = 1.0 - sum(
        layer_self.get(x, 0.0) for x in LAYERS) / run_s

    _check_counts(out, outcomes, count)
    return out


def _check_counts(out, outcomes, count):
    """Cross-check traced call counts against the outputs' own counts,
    so a boundary that stopped being called cannot read as zero work."""
    expected = {
        "models.train.calls": count("train_calls"),
        "harness.rows": count("rows"),
        "models.xhinge.steps": count("xhinge_steps"),
        "models.hinge.steps": sum(count(f"hinge_steps.{m}")
                                  for m in ("1layer", "conv", "fc")),
        "linalg.thin_svd.calls": count("thin_svd"),
        "theory.decomposition_report.calls": count("reports"),
    }
    wrong = {k: (out[k], v) for k, v in expected.items() if out[k] != v}
    if wrong:
        raise CountMismatch(
            "traced counts differ from the outputs (traced, expected): "
            + ", ".join(f"{k} {a} vs {b}" for k, (a, b) in wrong.items()))
