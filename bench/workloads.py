"""The four benchmark workloads: request specs, output checks, digests.

Each workload is a closed loop with one client: one single-threaded
process runs one request at a time to completion.  Request ``i`` of a
run is built from the benchmark seed alone, so the same seed gives the
same requests, and the program only ever sees the generated spec.

A *unit* of work is one (n, trial) cell for the training workloads, one
sampled training set for ``limit-estimate`` and one Monte-Carlo draw for
``bound-curves``.  Every check below holds at any seed; a unit that
raises or fails a check counts as failed.
"""

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

D = 100


def request_seed(seed, i):
    """Seed handed to the program for request ``i`` of a run."""
    return int(np.random.SeedSequence([int(seed), int(i)]).generate_state(1)[0])


@dataclass
class Request:
    """Request ``index`` of a run.  ``spec`` maps an output path to the
    ExperimentSpec for harness workloads, and is the (k, n, training
    sets) list for ``limit-estimate``."""

    index: int
    seed: int
    units: int
    spec: object


@dataclass
class Outcome:
    """What one request produced, and what its checks found."""

    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    counts: dict = field(default_factory=dict)

    def fail(self, units, message):
        self.failed += units
        self.problems.append(message)


def _file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _outputs(out):
    return sorted(out.parent.glob(out.name + "*"))


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    # The calibrate.py loop whose speed tracks this workload's.
    reference = "interpreted"

    def setup(self, convlin):
        """The program-side set-up every run pays before its first unit."""
        self.whole = convlin.tasks.whole_dataset("cls", D)

    def run_check(self, convlin, outcomes):
        """Checks over a whole run's outcomes: ``(failed units, problem)``."""
        return []


class CliWorkload(Workload):
    """A workload that runs one harness experiment per request and
    writes its CSV (and sidecars) like ``convlin <experiment> --out``.
    Subclasses set ``spec_kwargs``, the spec apart from seed and output."""

    def request(self, convlin, seed, i):
        s = request_seed(seed, i)

        def spec(out):
            return convlin.harness.ExperimentSpec(**self.spec_kwargs, seed=s, out=out)

        built = spec(None)
        return Request(i, s, len(built.n) * built.trials, spec)

    def execute(self, convlin, req, workdir):
        out = Path(workdir) / "out.csv"
        for old in _outputs(out):
            old.unlink()
        spec = req.spec(str(out))
        result = convlin.harness.run(spec)
        convlin.harness.write_result(result, spec.out)
        return out

    def inspect(self, convlin, req, out):
        files = _outputs(out)
        outcome = Outcome(digest=_file_digest(files))
        outcome.counts["out_bytes"] = sum(p.stat().st_size for p in files)
        self.check(convlin, req, out, outcome)
        return outcome


class HingeCurve(CliWorkload):
    name = "hinge-curve"
    models = ("1layer", "conv", "fc")

    def __init__(self, smoke):
        self.n = (10, 30) if smoke else (10, 100, 300)
        self.trials = 1
        self.nominal_s = 0.45
        self.spec_kwargs = dict(experiment="gen-curve", task="cls", d=D, k=5, n=self.n,
                                trials=self.trials, models=self.models)
        self.cli = (f"convlin gen-curve --task cls --d {D} --k 5 --models "
                    f"{','.join(self.models)} --n {{{','.join(map(str, self.n))}}} "
                    f"--trials {self.trials}")

    def check(self, convlin, req, out, outcome):
        rows = _read_rows(out)
        want = len(self.n) * self.trials * len(self.models)
        if len(rows) != want:
            outcome.fail(req.units, f"{len(rows)} rows, expected {want}")
            return
        bad_cells = {(int(r["n"]), int(r["trial"])) for r in rows
                     if r["stop_reason"] != "loss-zero" or float(r["train_error"]) != 0.0}
        if bad_cells:
            outcome.fail(len(bad_cells), f"{len(bad_cells)} cells not at loss-zero "
                         "with zero train error")
        outcome.onelayer = {n: [float(r["test_error"]) for r in rows
                                if r["model"] == "1layer" and int(r["n"]) == n]
                            for n in self.n}
        steps = {m: sum(int(r["steps_run"]) for r in rows if r["model"] == m)
                 for m in self.models}
        outcome.counts.update({f"hinge_steps.{m}": v for m, v in steps.items()})
        outcome.counts["train_calls"] = len(rows)
        outcome.counts["rows"] = len(rows)

    def run_check(self, convlin, outcomes):
        """At each n, the 1layer mean test error over the whole run lies
        within 4 SE of the closed form.  Pooled over the run because one
        request's two or three one-layer errors are far from normal at
        n = 300; returns ``(failed units, problem)`` pairs."""
        failures = []
        for n in self.n:
            errs = [e for o in outcomes for e in getattr(o, "onelayer", {}).get(n, [])]
            if not errs:
                continue
            expect = convlin.theory.onelayer_error(D, n)
            se = onelayer_mean_se(D, n, len(errs))
            if abs(np.mean(errs) - expect) > 4.0 * se:
                failures.append((len(errs), f"n={n}: 1layer mean {np.mean(errs):.4f} over "
                                 f"{len(errs)} trials is more than 4 SE ({se:.4f}) "
                                 f"from {expect:.4f}"))
        return failures


def onelayer_mean_se(d, n, trials):
    """Exact standard error of the mean 1layer cls error over ``trials``.

    A trained one-layer model is right on every sampled position and, at
    each of the U unsampled ones, wrong on both points with probability
    1/2 (the sign of its untouched init weight), so the error is B / d
    with B ~ Binomial(U, 1/2).  Var(B) = E[U]/4 + Var(U)/4, and U counts
    positions missed by n uniform draws.  The exact value is used rather
    than the sample SE, which from a few trials is itself too noisy
    for a check that must hold at every seed.
    """
    q1 = (1.0 - 1.0 / d) ** n
    q2 = (1.0 - 2.0 / d) ** n
    mean_u = d * q1
    var_u = d * q1 * (1.0 - q1) + d * (d - 1) * (q2 - q1 * q1)
    var_err = (mean_u + var_u) / 4.0 / d ** 2
    return math.sqrt(var_err / trials)


class SharedInit(CliWorkload):
    name = "shared-init"

    def __init__(self, smoke):
        self.trials = 3
        self.xhinge_steps = 60 if smoke else 1000
        self.snapshot_t = 20 if smoke else 150
        self.nominal_s = 0.35
        self.spec_kwargs = dict(experiment="init-study", task="cls", d=D, k=5, n=(30,),
                                trials=self.trials, snapshot_t=self.snapshot_t,
                                xhinge_steps=self.xhinge_steps)
        self.cli = (f"convlin init-study --d {D} --k 5 --n 30 --snapshot-t "
                    f"{self.snapshot_t} --xhinge-steps {self.xhinge_steps} "
                    f"--trials {self.trials} --out <file>")

    def check(self, convlin, req, out, outcome):
        rows = _read_rows(out)
        summary = [r for r in rows if r["aux_key"] == "pearson_r"]
        runs = [r for r in rows if r["loss"] in ("hinge", "xhinge")]
        if len(summary) != 1 or not math.isfinite(float(summary[0]["aux_value"])):
            outcome.fail(req.units, "pearson_r missing or not finite")
            return
        lengths = {}
        with open(f"{out}.traces.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                key = (int(r["trial"]), r["loss"])
                lengths[key] = max(lengths.get(key, -1), int(r["t"]))
        if len(lengths) != 2 * self.trials or len(runs) != 2 * self.trials:
            outcome.fail(req.units, f"{len(lengths)} traces and {len(runs)} "
                         f"rows, expected {2 * self.trials} each")
            return
        bad = set()
        for r in runs:
            trial = int(r["trial"])
            if r["loss"] == "xhinge":
                if (int(r["steps_run"]) != self.xhinge_steps
                        or lengths[(trial, "xhinge")] != self.xhinge_steps):
                    bad.add(trial)
            elif r["stop_reason"] != "loss-zero":
                bad.add(trial)
        if bad:
            outcome.fail(len(bad), f"trials {sorted(bad)}: xhinge run not exactly "
                         f"{self.xhinge_steps} steps, or hinge run not at loss-zero")
        outcome.counts["hinge_steps.conv"] = sum(
            int(r["steps_run"]) for r in runs if r["loss"] == "hinge")
        outcome.counts["xhinge_steps"] = sum(
            int(r["steps_run"]) for r in runs if r["loss"] == "xhinge")
        outcome.counts["train_calls"] = len(runs)
        outcome.counts["rows"] = len(rows)


class BoundCurves(CliWorkload):
    name = "bound-curves"
    reference = "arrays"

    def __init__(self, smoke):
        self.n = (100, 200) if smoke else None
        self.trials = 200 if smoke else 10_000
        self.nominal_s = 0.45
        self.spec_kwargs = dict(experiment="analysis-curves", task="cls", d=D, k=5,
                                n=self.n, trials=self.trials)
        self.cli = (f"convlin analysis-curves --d {D} --k 5 --trials {self.trials}"
                    + (" --n 100:200:100" if smoke else ""))

    def check(self, convlin, req, out, outcome):
        rows = _read_rows(out)
        values = {}
        for r in rows:
            values.setdefault(int(r["n"]), {})[r["aux_key"]] = float(r["aux_value"])
        grid = req.spec(None).n
        if sorted(values) != sorted(grid) or any(len(v) != 8 for v in values.values()):
            outcome.fail(req.units, "analysis rows do not cover the n grid")
            return
        for n, v in values.items():
            ok = v["err2"] == convlin.theory.coverage_term_approx(D, 5, n)
            if n >= 200:
                ok &= v["sum_approx"] < v["onelayer"]
            if not ok:
                outcome.fail(self.trials, f"n={n}: err2 differs from the "
                             "closed form, or sum_approx >= onelayer")
        outcome.counts["reports"] = len(values)
        outcome.counts["rows"] = len(rows)


class LimitEstimate(Workload):
    name = "limit-estimate"

    def __init__(self, smoke):
        # (k, n, training sets).  k = 20 decompositions cost about 25x
        # k = 5 ones, so k = 5 gets more sets to keep both in view.
        self.combos = (((5, 10, 4), (5, 100, 4), (20, 10, 1), (20, 100, 1))
                       if smoke else
                       ((5, 10, 32), (5, 100, 32), (20, 10, 4), (20, 100, 4)))
        self.nominal_s = 0.5
        self.cli = ("dynamics.asymptotic_error_estimate(whole_dataset('cls', 100), "
                    "n, k, trials, rng) for (k, n, trials) in "
                    + str(list(self.combos)))
        self._bounds = {}

    def request(self, convlin, seed, i):
        s = request_seed(seed, i)
        return Request(i, s, sum(t for _, _, t in self.combos), self.combos)

    def execute(self, convlin, req, workdir):
        whole = self.whole
        estimates = []
        for j, (k, n, trials) in enumerate(req.spec):
            rng = np.random.default_rng([req.seed, j])
            estimates.append(convlin.dynamics.asymptotic_error_estimate(
                whole, n, k, trials, rng))
        return estimates

    def _bound(self, convlin, k, n):
        """The criterion-5 bound pieces: (P(no adjacent pair), its SE,
        exact coverage term), computed once per (k, n)."""
        if (k, n) not in self._bounds:
            p, se = convlin.theory.estimate_prob_no_adjacent_pair(
                D, k, n, 10_000, np.random.default_rng([k, n]))
            self._bounds[(k, n)] = (p, se, convlin.theory.coverage_term_exact(D, k, n))
        return self._bounds[(k, n)]

    def inspect(self, convlin, req, estimates):
        h = hashlib.sha256()
        outcome = Outcome()
        draws = convlin.dynamics.DEFAULT_DEGENERATE_DRAWS
        degenerate = resamples = svds = 0
        for (k, n, trials), est in zip(req.spec, estimates):
            h.update(est.trial_errors.tobytes())
            h.update(repr((est.mean, est.stderr, est.degenerate_fraction,
                           est.zero_average_resamples)).encode())
            p, pse, cov = self._bound(convlin, k, n)
            bound = p + cov + 3.0 * math.hypot(est.stderr, pse)
            if not (0.0 <= est.mean <= 0.5 and est.mean <= bound):
                outcome.fail(trials, f"k={k} n={n}: mean {est.mean:.4g} outside "
                             f"[0, 0.5] or above the bound {bound:.4g}")
            deg = round(est.degenerate_fraction * trials)
            degenerate += deg
            resamples += est.zero_average_resamples
            svds += trials + draws * deg
            outcome.counts[f"thin_svd.k{k}"] = (
                outcome.counts.get(f"thin_svd.k{k}", 0) + trials + draws * deg)
        outcome.digest = h.hexdigest()
        outcome.counts.update(trainsets=req.units, degenerate=degenerate,
                              zero_average_resamples=resamples, thin_svd=svds)
        return outcome


WORKLOADS = {w.name: w for w in (HingeCurve, SharedInit, LimitEstimate, BoundCurves)}


def make(name, smoke=False):
    return WORKLOADS[name](smoke)
