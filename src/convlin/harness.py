"""Experiment runners behind the command-line interface.

Each experiment walks a grid of training-set sizes, derives one seed per
(experiment, n, trial) from the base seed, and emits flat result rows
with a fixed CSV schema.  Because every trial owns its seed, reruns with
the same spec are bit-identical regardless of how trials are scheduled,
and any single row can be reproduced from the seed stored in it.

Experiments:

* ``gen-curve``       - hinge-train models over an n grid, record final
                        train/whole-dataset error per trial.
* ``asym-vs-losses``  - per training set: limiting-error estimate,
                        fixed-step extreme-hinge run, and hinge run.
* ``init-study``      - one fixed training set, many shared inits; pairs
                        extreme-hinge accuracy at a snapshot step with
                        final hinge accuracy and reports Pearson r.
* ``analysis-curves`` - no training: Monte-Carlo adjacent-pair failure
                        probability vs the coverage closed forms; the
                        ``ratio`` row divides the exact failure
                        probability by the coverage approximation.
* ``prop1-check``     - the evenly-spaced training set: Gram residual,
                        limiting conv error over random inits, and a
                        one-layer baseline on the same set.
* ``parity-curve``    - gen-curve on the parity task, also recording the
                        sign pattern of the learned filter.
"""

import csv
import io
import json
import math
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dynamics, models, theory
from .errors import ConfigError
from .models import TrainConfig, train
from .shift import training_average
from .tasks import TASKS, sample_training_set, whole_dataset

EXPERIMENTS = (
    "gen-curve",
    "asym-vs-losses",
    "init-study",
    "analysis-curves",
    "prop1-check",
    "parity-curve",
)

CSV_HEADER = (
    "experiment,task,d,k,n,trial,seed,model,loss,steps_run,stop_reason,"
    "train_error,test_error,aux_key,aux_value"
)

# n grid used when --n is not given: 10..100 by tens, then 150..500 by
# fifties.
DEFAULT_N_GRID = tuple(range(10, 101, 10)) + tuple(range(150, 501, 50))

DEFAULT_TRIALS = {
    "gen-curve": 100,
    "asym-vs-losses": 100,
    "init-study": 100,
    "analysis-curves": 10_000,
    "prop1-check": 200,
    "parity-curve": 100,
}

DEFAULT_SINGLE_N = {"init-study": 30, "prop1-check": 9}

DEFAULT_MODELS = ("1layer", "conv")

# Experiments whose rows do not depend on --models, and those whose
# theory or fixed training set holds for the cls task only; passing the
# ignored flag is a configuration error rather than a silent mislabel.
FIXED_MODEL_EXPERIMENTS = ("asym-vs-losses", "init-study", "analysis-curves", "prop1-check")
CLS_ONLY_EXPERIMENTS = ("analysis-curves", "prop1-check")


@dataclass
class ExperimentSpec:
    """Everything needed to rerun an experiment deterministically."""

    experiment: str
    task: str = "cls"
    d: int = 100
    k: int = 5
    n: tuple | None = None
    trials: int | None = None
    alpha: float | None = None
    b: float = models.DEFAULT_B
    max_steps: int = 100_000
    xhinge_steps: int = 1000
    snapshot_t: int = 150
    seed: int = 0
    models: tuple | None = None
    out: str | None = None
    format: str = "csv"
    dump_weights: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.experiment == "parity-curve":
            self.task = "parity"
        if self.experiment in CLS_ONLY_EXPERIMENTS and self.task != "cls":
            raise ConfigError(f"{self.experiment} runs the cls task only, got {self.task!r}")
        if not 1 <= self.k <= self.d:
            raise ConfigError(f"need 1 <= k <= d, got k={self.k}, d={self.d}")
        if self.trials is None:
            self.trials = DEFAULT_TRIALS[self.experiment]
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.n is None:
            single = DEFAULT_SINGLE_N.get(self.experiment)
            self.n = (single,) if single else DEFAULT_N_GRID
        else:
            self.n = tuple(int(v) for v in self.n)
        if any(v < 1 for v in self.n):
            raise ConfigError(f"training sizes must be >= 1, got {self.n}")
        if self.experiment in DEFAULT_SINGLE_N and len(self.n) != 1:
            raise ConfigError(f"{self.experiment} takes a single n, got {self.n}")
        if self.xhinge_steps < 1:
            raise ConfigError(f"xhinge steps must be >= 1, got {self.xhinge_steps}")
        if self.snapshot_t < 0:
            raise ConfigError(f"snapshot step must be >= 0, got {self.snapshot_t}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.models is None:
            self.models = DEFAULT_MODELS
        elif self.experiment in FIXED_MODEL_EXPERIMENTS:
            raise ConfigError(f"{self.experiment} does not take --models")
        bad = [m for m in self.models if m not in models.MODELS]
        if bad:
            raise ConfigError(f"unknown models {bad}; expected among {models.MODELS}")


@dataclass
class ResultRow:
    experiment: str
    task: str
    d: int
    k: int
    n: int
    trial: int
    seed: int
    model: str
    loss: str
    steps_run: int
    stop_reason: str
    train_error: float | None
    test_error: float | None
    aux_key: str = ""
    aux_value: str = ""

    def csv_values(self):
        def num(v):
            return "" if v is None else repr(float(v))

        return [
            self.experiment, self.task, self.d, self.k, self.n, self.trial,
            self.seed, self.model, self.loss, self.steps_run, self.stop_reason,
            num(self.train_error), num(self.test_error), self.aux_key,
            self.aux_value,
        ]


@dataclass
class RunResult:
    spec: ExperimentSpec
    rows: list
    extras: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    weights_dump: dict = field(default_factory=dict)


def derive_seed(base_seed, experiment, n, trial):
    """Stable per-trial seed from (base seed, experiment, n, trial)."""
    tag = zlib.crc32(experiment.encode())
    ss = np.random.SeedSequence([int(base_seed), tag, int(n), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def _trial_rng(spec, n, trial):
    seed = derive_seed(spec.seed, spec.experiment, n, trial)
    return seed, np.random.default_rng(seed)


def _weights_key(n, trial, model, loss):
    return f"n={n}/trial={trial}/model={model}/loss={loss}"


def _dump(weights):
    if isinstance(weights, models.LinearWeights):
        return {"model": "1layer", "w": weights.w.tolist()}
    if isinstance(weights, models.ConvWeights):
        return {"model": "conv", "w1": weights.w1.tolist(), "w2": weights.w2.tolist()}
    return {"model": "fc", "W1": weights.W1.tolist(), "w2": weights.w2.tolist()}


def load_weights(entry):
    """Rebuild a weights object from a --dump-weights JSON entry."""
    if entry["model"] == "1layer":
        return models.LinearWeights(w=np.asarray(entry["w"]))
    if entry["model"] == "conv":
        return models.ConvWeights(w1=np.asarray(entry["w1"]),
                                  w2=np.asarray(entry["w2"]))
    return models.FCWeights(W1=np.asarray(entry["W1"]),
                            w2=np.asarray(entry["w2"]))


def _hinge_config(spec):
    return TrainConfig(loss="hinge", alpha=spec.alpha, b=spec.b,
                       max_steps=spec.max_steps)


def _xhinge_config(spec):
    return TrainConfig(loss="xhinge", alpha=spec.alpha, b=spec.b,
                       max_steps=spec.xhinge_steps)


def _filter_signs(w1):
    return "".join("+" if v > 0 else "-" if v < 0 else "0" for v in w1)


def _training_rows(spec, result, with_filter_signs=False):
    whole = whole_dataset(spec.task, spec.d)
    for n in spec.n:
        for trial in range(spec.trials):
            seed, rng = _trial_rng(spec, n, trial)
            tr = sample_training_set(whole, n, rng)
            for model in spec.models:
                trace = train(model, tr, _hinge_config(spec), rng, k=spec.k)
                row = ResultRow(
                    experiment=spec.experiment, task=spec.task, d=spec.d,
                    k=spec.k, n=n, trial=trial, seed=seed, model=model,
                    loss="hinge", steps_run=trace.steps_run,
                    stop_reason=trace.stop_reason,
                    train_error=trace.train_error[-1],
                    test_error=models.classification_error(trace.weights, whole),
                )
                if with_filter_signs and model == "conv":
                    row.aux_key = "filter_signs"
                    row.aux_value = _filter_signs(trace.weights.w1)
                result.rows.append(row)
                if spec.dump_weights:
                    result.weights_dump[_weights_key(n, trial, model, "hinge")] = \
                        _dump(trace.weights)
    return result


def run_gen_curve(spec):
    return _training_rows(spec, RunResult(spec=spec, rows=[]))


def run_parity_curve(spec):
    return _training_rows(spec, RunResult(spec=spec, rows=[]),
                          with_filter_signs=True)


def run_asym_vs_losses(spec):
    """Limiting-error estimate vs both trained losses, trial-paired."""
    result = RunResult(spec=spec, rows=[])
    whole = whole_dataset(spec.task, spec.d)
    for n in spec.n:
        for trial in range(spec.trials):
            seed, rng = _trial_rng(spec, n, trial)
            tr = sample_training_set(whole, n, rng)

            def make_row(**kw):
                return ResultRow(experiment=spec.experiment, task=spec.task,
                                 d=spec.d, k=spec.k, n=n, trial=trial,
                                 seed=seed, model="conv", **kw)

            err, degenerate = dynamics.asymptotic_error_for_trainset(
                whole, tr, spec.k, rng=rng)
            result.rows.append(make_row(
                loss="asym", steps_run=0, stop_reason="estimate",
                train_error=None, test_error=err,
                aux_key="m_degenerate", aux_value=str(int(degenerate))))

            xh = train("conv", tr, _xhinge_config(spec), rng, k=spec.k)
            result.rows.append(make_row(
                loss="xhinge", steps_run=xh.steps_run,
                stop_reason=xh.stop_reason, train_error=xh.train_error[-1],
                test_error=models.classification_error(xh.weights, whole)))

            hg = train("conv", tr, _hinge_config(spec), rng, k=spec.k)
            result.rows.append(make_row(
                loss="hinge", steps_run=hg.steps_run,
                stop_reason=hg.stop_reason, train_error=hg.train_error[-1],
                test_error=models.classification_error(hg.weights, whole)))

            if spec.dump_weights:
                result.weights_dump[_weights_key(n, trial, "conv", "xhinge")] = \
                    _dump(xh.weights)
                result.weights_dump[_weights_key(n, trial, "conv", "hinge")] = \
                    _dump(hg.weights)
    return result


def run_init_study(spec):
    """Shared-init comparison of the two losses on one training set.

    The training set itself is drawn from the seed one past the trial
    range; each trial then draws one uniform init used by both runs.
    """
    result = RunResult(spec=spec, rows=[])
    n = spec.n[0]
    whole = whole_dataset(spec.task, spec.d)
    tr_seed, tr_rng = _trial_rng(spec, n, spec.trials)
    tr = sample_training_set(whole, n, tr_rng)

    snap = spec.snapshot_t
    if snap > spec.xhinge_steps:
        raise ConfigError(
            f"snapshot step {snap} is past the extreme-hinge run ({spec.xhinge_steps})")

    pairs = []
    for trial in range(spec.trials):
        seed, rng = _trial_rng(spec, n, trial)
        init_cfg = TrainConfig(loss="hinge", alpha=spec.alpha, b=spec.b,
                               init="uniform", max_steps=spec.max_steps)
        w0 = models.init_weights("conv", spec.d, spec.k, init_cfg, rng)

        hg = train("conv", tr, init_cfg, rng, k=spec.k, eval_set=whole,
                   initial=w0)
        xcfg = TrainConfig(loss="xhinge", alpha=spec.alpha, b=spec.b,
                           max_steps=spec.xhinge_steps)
        xh = train("conv", tr, xcfg, rng, k=spec.k, eval_set=whole, initial=w0)

        hinge_acc = 1.0 - hg.test_error[-1]
        snap_acc = 1.0 - xh.test_error[snap]
        pairs.append((snap_acc, hinge_acc))
        result.traces.append((trial, "hinge", hg))
        result.traces.append((trial, "xhinge", xh))

        common = dict(experiment=spec.experiment, task=spec.task, d=spec.d,
                      k=spec.k, n=n, trial=trial, seed=seed, model="conv")
        result.rows.append(ResultRow(
            **common, loss="hinge", steps_run=hg.steps_run,
            stop_reason=hg.stop_reason, train_error=hg.train_error[-1],
            test_error=hg.test_error[-1]))
        result.rows.append(ResultRow(
            **common, loss="xhinge", steps_run=xh.steps_run,
            stop_reason=xh.stop_reason, train_error=xh.train_error[-1],
            test_error=xh.test_error[-1],
            aux_key=f"snapshot_acc_t{snap}", aux_value=repr(float(snap_acc))))
        if spec.dump_weights:
            result.weights_dump[_weights_key(n, trial, "conv", "hinge")] = \
                _dump(hg.weights)
            result.weights_dump[_weights_key(n, trial, "conv", "xhinge")] = \
                _dump(xh.weights)

    arr = np.asarray(pairs)
    if arr[:, 0].std() == 0.0 or arr[:, 1].std() == 0.0:
        r = 0.0
    else:
        r = float(np.corrcoef(arr[:, 0], arr[:, 1])[0, 1])
    result.extras["pearson_r"] = r
    result.extras["pairs"] = arr
    result.rows.append(ResultRow(
        experiment=spec.experiment, task=spec.task, d=spec.d, k=spec.k, n=n,
        trial=spec.trials, seed=tr_seed, model="conv", loss="summary",
        steps_run=0, stop_reason="", train_error=None, test_error=None,
        aux_key="pearson_r", aux_value=repr(r)))
    return result


def run_analysis_curves(spec):
    """Closed forms and the adjacent-pair Monte Carlo, no training."""
    result = RunResult(spec=spec, rows=[])
    for n in spec.n:
        seed, rng = _trial_rng(spec, n, 0)
        report = theory.decomposition_report(spec.d, spec.k, n, spec.trials, rng)
        values = [
            ("err1", report.prob_no_adjacent_pair),
            ("err1_se", report.prob_stderr),
            ("err2", report.coverage_approx),
            ("ratio", report.piece_ratio),
            ("coverage_exact", report.coverage_exact),
            ("sum_exact", report.upper_bound_sum),
            ("sum_approx", report.prob_no_adjacent_pair + report.coverage_approx),
            ("onelayer", report.onelayer),
        ]
        for key, value in values:
            result.rows.append(ResultRow(
                experiment=spec.experiment, task=spec.task, d=spec.d,
                k=spec.k, n=n, trial=0, seed=seed, model="analysis", loss="",
                steps_run=0, stop_reason="", train_error=None, test_error=None,
                aux_key=key, aux_value=repr(float(value))))
        result.extras[n] = report
    return result


def run_prop1_check(spec):
    """Evenly-spaced training set: no conv advantage, by construction."""
    result = RunResult(spec=spec, rows=[])
    n = spec.n[0]
    whole = whole_dataset("cls", spec.d)
    tr = theory.sparse_training_set(spec.d, spec.k, n)
    mtr = training_average(tr, spec.k)
    gram = mtr.matrix.T @ mtr.matrix
    resid = float(np.max(np.abs(gram - np.eye(spec.k) / n)))

    conv_errs = np.empty(spec.trials)
    onel_errs = np.empty(spec.trials)
    for trial in range(spec.trials):
        seed, rng = _trial_rng(spec, n, trial)
        w1_0 = rng.normal(0.0, spec.b, size=spec.k)
        aw = dynamics.asymptotic_weights(w1_0, mtr)
        conv_errs[trial] = dynamics.asymptotic_error(aw, whole)
        trace = train("1layer", tr, _hinge_config(spec), rng)
        onel_errs[trial] = models.classification_error(trace.weights, whole)
        common = dict(experiment=spec.experiment, task="cls", d=spec.d,
                      k=spec.k, n=n, trial=trial, seed=seed)
        result.rows.append(ResultRow(
            **common, model="conv", loss="asym", steps_run=0,
            stop_reason="estimate", train_error=None,
            test_error=conv_errs[trial],
            aux_key="m", aux_value=str(aw.m)))
        result.rows.append(ResultRow(
            **common, model="1layer", loss="hinge", steps_run=trace.steps_run,
            stop_reason=trace.stop_reason, train_error=trace.train_error[-1],
            test_error=onel_errs[trial]))

    def _se(a):
        return float(a.std(ddof=1) / math.sqrt(len(a))) if len(a) > 1 else 0.0

    summary = {
        "gram_residual": resid,
        "conv_mean": float(conv_errs.mean()), "conv_se": _se(conv_errs),
        "onelayer_mean": float(onel_errs.mean()), "onelayer_se": _se(onel_errs),
    }
    result.extras.update(summary)
    for key, value in summary.items():
        result.rows.append(ResultRow(
            experiment=spec.experiment, task="cls", d=spec.d, k=spec.k, n=n,
            trial=spec.trials, seed=derive_seed(spec.seed, spec.experiment, n, spec.trials),
            model="summary", loss="", steps_run=0, stop_reason="",
            train_error=None, test_error=None,
            aux_key=key, aux_value=repr(float(value))))
    return result


_RUNNERS = {
    "gen-curve": run_gen_curve,
    "asym-vs-losses": run_asym_vs_losses,
    "init-study": run_init_study,
    "analysis-curves": run_analysis_curves,
    "prop1-check": run_prop1_check,
    "parity-curve": run_parity_curve,
}


def run(spec):
    return _RUNNERS[spec.experiment](spec)


def rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(row.csv_values())
    return buf.getvalue()


def _spec_dict(spec):
    d = asdict(spec)
    d["n"] = list(spec.n)
    d["models"] = list(spec.models)
    return d


def rows_to_json(result):
    payload = {
        "spec": _spec_dict(result.spec),
        "rows": [asdict(r) for r in result.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def write_result(result, path=None):
    """Serialize a run to its output path (or return the text).

    Sidecar files: ``<out>.traces.csv`` for per-step traces when the
    experiment recorded any, ``<out>.weights.json`` under
    --dump-weights.
    """
    spec = result.spec
    text = rows_to_csv(result.rows) if spec.format == "csv" else rows_to_json(result)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    if result.traces:
        with open(f"{path}.traces.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "loss", "t", "train_loss", "train_err",
                             "test_err"])
            for trial, loss, trace in result.traces:
                for i in range(trace.steps.shape[0]):
                    te = trace.test_error[i]
                    writer.writerow([
                        trial, loss, int(trace.steps[i]),
                        repr(float(trace.train_loss[i])),
                        repr(float(trace.train_error[i])),
                        "" if np.isnan(te) else repr(float(te)),
                    ])
    if result.weights_dump:
        with open(f"{path}.weights.json", "w") as fh:
            json.dump(result.weights_dump, fh)
    return text


def summarize(rows, model=None, loss=None, n=None):
    """Mean and standard error of test_error over matching rows."""
    vals = [r.test_error for r in rows
            if r.test_error is not None
            and (model is None or r.model == model)
            and (loss is None or r.loss == loss)
            and (n is None or r.n == n)]
    arr = np.asarray(vals, dtype=float)
    if arr.size == 0:
        raise ValueError("no matching rows")
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), se
