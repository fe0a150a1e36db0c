"""Experiment runners behind the command-line interface.

Every experiment runs through one driver, `_drive`: for each training
size n and each trial it derives one seed from (base seed, experiment,
n, trial), hands the trial's rng to the experiment's per-trial
function, and stamps the coordinates on the rows that function yields,
dumping each trained run's weights under --dump-weights.  Rows follow a
fixed CSV schema.  Because every trial owns its seed, reruns with the
same spec are bit-identical regardless of how trials are scheduled, and
any single row can be reproduced from the seed stored in it.  Summary
rows sit at trial index ``trials``, whose seed init-study also uses to
draw its training set.

Each experiment's facts are one `Experiment` record in `EXPERIMENTS`,
the table that `run` dispatches through.

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
                        ``trials`` counts Monte-Carlo draws, so each n
                        is one trial.
* ``prop1-check``     - the evenly-spaced training set: Gram residual,
                        limiting conv error over random inits, and a
                        one-layer baseline on the same set.
* ``parity-curve``    - gen-curve on the parity task, also recording the
                        sign pattern of the learned filter.
"""

import contextlib
import csv
import io
import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import dynamics, models, theory
from .errors import ConfigError
from .models import TrainConfig, train
from .shift import training_average
from .tasks import TASKS, sample_training_set, whole_dataset

CSV_HEADER = (
    "experiment,task,d,k,n,trial,seed,model,loss,steps_run,stop_reason,"
    "train_error,test_error,aux_key,aux_value"
)

# n grid used when --n is not given: 10..100 by tens, then 150..500 by
# fifties.
DEFAULT_N_GRID = tuple(range(10, 101, 10)) + tuple(range(150, 501, 50))

DEFAULT_MODELS = ("1layer", "conv")

# Spec fields that some experiment never reads.  They default to None
# and resolve to these values, so setting one for an experiment that
# would ignore it is a configuration error rather than a silent no-op.
SPEC_DEFAULTS = {
    "b": models.DEFAULT_B,
    "max_steps": 100_000,
    "xhinge_steps": 1000,
    "snapshot_t": 150,
    "models": DEFAULT_MODELS,
    "dump_weights": False,
}


@dataclass(frozen=True)
class Experiment:
    """The facts about one experiment: its runner, its default trial
    count, the spec fields it never reads, and the single n and the one
    task it is fixed to, if any.  A spec's task defaults to that task,
    or to cls when none is fixed."""

    runner: object
    trials: int
    ignores: tuple = ()
    single_n: int | None = None
    task: str | None = None


@dataclass
class ExperimentSpec:
    """Everything needed to rerun an experiment deterministically."""

    experiment: str
    task: str | None = None
    d: int = 100
    k: int = 5
    n: tuple | None = None
    trials: int | None = None
    alpha: float | None = None
    b: float | None = None
    max_steps: int | None = None
    xhinge_steps: int | None = None
    snapshot_t: int | None = None
    seed: int = 0
    models: tuple | None = None
    out: str | None = None
    format: str = "csv"
    dump_weights: bool | None = None

    def __post_init__(self):
        exp = EXPERIMENTS.get(self.experiment)
        if exp is None:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"expected one of {tuple(EXPERIMENTS)}")
        if self.task is None:
            self.task = exp.task or "cls"
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if exp.task is not None and self.task != exp.task:
            raise ConfigError(
                f"{self.experiment} runs the {exp.task} task only, got {self.task!r}")
        given = [name for name in exp.ignores if getattr(self, name) is not None]
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ConfigError(f"{self.experiment} does not take {flags}")
        for name, default in SPEC_DEFAULTS.items():
            if getattr(self, name) is None:
                setattr(self, name, default)
        if not 1 <= self.k <= self.d:
            raise ConfigError(f"need 1 <= k <= d, got k={self.k}, d={self.d}")
        if self.trials is None:
            self.trials = exp.trials
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n is not None:
            self.n = tuple(int(v) for v in self.n)
        elif exp.single_n is not None:
            self.n = (exp.single_n,)
        else:
            self.n = DEFAULT_N_GRID
        if any(v < 1 for v in self.n):
            raise ConfigError(f"training sizes must be >= 1, got {self.n}")
        if exp.single_n is not None and len(self.n) != 1:
            raise ConfigError(f"{self.experiment} takes a single n, got {self.n}")
        if self.xhinge_steps < 1:
            raise ConfigError(f"xhinge steps must be >= 1, got {self.xhinge_steps}")
        if self.snapshot_t < 0:
            raise ConfigError(f"snapshot step must be >= 0, got {self.snapshot_t}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if not self.models:
            raise ConfigError("--models names no model")
        bad = [m for m in self.models if m not in models.MODELS]
        if bad:
            raise ConfigError(f"unknown models {bad}; expected among {models.MODELS}")
        if len(set(self.models)) < len(self.models):
            raise ConfigError(f"--models names a model twice: {list(self.models)}")
        if self.out is not None:
            if os.path.isdir(self.out):
                raise ConfigError(f"--out {self.out!r} is a directory")
            if not os.path.isdir(os.path.dirname(self.out) or "."):
                raise ConfigError(f"the directory of --out {self.out!r} does not exist")


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
    steps_run: int = 0
    stop_reason: str = ""
    train_error: float | None = None
    test_error: float | None = None
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


def _dump(weights):
    """A --dump-weights JSON entry: the model name, then each tensor in
    field order."""
    model = next(name for name, cls in models.WEIGHT_TYPES.items()
                 if type(weights) is cls)
    return {"model": model, **{f.name: getattr(weights, f.name).tolist()
                               for f in fields(weights)}}


def load_weights(entry):
    """Rebuild a weights object from a --dump-weights JSON entry."""
    cls = models.WEIGHT_TYPES[entry["model"]]
    return cls(*(np.asarray(entry[f.name]) for f in fields(cls)))


def _hinge_config(spec):
    return TrainConfig(loss="hinge", alpha=spec.alpha, b=spec.b,
                       max_steps=spec.max_steps)


def _xhinge_config(spec):
    return TrainConfig(loss="xhinge", alpha=spec.alpha, b=spec.b,
                       max_steps=spec.xhinge_steps)


def _filter_signs(w1):
    return "".join("+" if v > 0 else "-" if v < 0 else "0" for v in w1)


def _trained(model, loss, trace, test_error, **aux):
    """Row fields and final weights of one trained run."""
    fields = dict(model=model, loss=loss, steps_run=trace.steps_run,
                  stop_reason=trace.stop_reason,
                  train_error=trace.train_error[-1], test_error=test_error,
                  **aux)
    return fields, trace.weights


def _drive(spec, per_trial, summary=None, trials=None, **state):
    """The one (n, trial) loop behind every experiment.

    For each n of the spec and each trial (``spec.trials`` unless
    ``trials`` is given), derive the trial's seed and rng and call
    ``per_trial(n, trial, rng)``.  It yields ``(fields, weights)`` per
    row: the row's model, loss and result columns, and the run's final
    weights (None for a row without a trained run).  The driver stamps
    the coordinates on each row and, under --dump-weights, dumps the
    weights.  After the trials of an n, ``summary(n)`` yields the same
    pairs for rows stamped at trial index ``spec.trials``.  ``state``
    (extras, traces) is handed to the RunResult.
    """
    result = RunResult(spec=spec, rows=[], **state)

    def emit(n, trial, seed, pairs):
        for fields, weights in pairs:
            row = ResultRow(experiment=spec.experiment, task=spec.task,
                            d=spec.d, k=spec.k, n=n, trial=trial, seed=seed,
                            **fields)
            result.rows.append(row)
            if weights is not None and spec.dump_weights:
                key = f"n={n}/trial={trial}/model={row.model}/loss={row.loss}"
                result.weights_dump[key] = _dump(weights)

    for n in spec.n:
        for trial in range(spec.trials if trials is None else trials):
            seed, rng = _trial_rng(spec, n, trial)
            emit(n, trial, seed, per_trial(n, trial, rng))
        if summary is not None:
            seed, _ = _trial_rng(spec, n, spec.trials)
            emit(n, spec.trials, seed, summary(n))
    return result


def run_gen_curve(spec, filter_signs=False):
    """Hinge-train each model per training set; with ``filter_signs``
    (parity-curve), also record the sign pattern of the conv filter."""
    whole = whole_dataset(spec.task, spec.d)
    config = _hinge_config(spec)

    def per_trial(n, trial, rng):
        tr = sample_training_set(whole, n, rng)
        for model in spec.models:
            trace = train(model, tr, config, rng, k=spec.k)
            aux = {}
            if filter_signs and model == "conv":
                aux = dict(aux_key="filter_signs",
                           aux_value=_filter_signs(trace.weights.w1))
            yield _trained(model, "hinge", trace,
                           models.classification_error(trace.weights, whole),
                           **aux)

    return _drive(spec, per_trial)


def run_asym_vs_losses(spec):
    """Limiting-error estimate vs both trained losses, trial-paired."""
    whole = whole_dataset(spec.task, spec.d)
    configs = (_xhinge_config(spec), _hinge_config(spec))

    def per_trial(n, trial, rng):
        tr = sample_training_set(whole, n, rng)
        err, degenerate = dynamics.asymptotic_error_for_trainset(
            whole, tr, spec.k, rng=rng)
        yield dict(model="conv", loss="asym", stop_reason="estimate",
                   test_error=err, aux_key="m_degenerate",
                   aux_value=str(int(degenerate))), None
        for config in configs:
            trace = train("conv", tr, config, rng, k=spec.k)
            yield _trained("conv", config.loss, trace,
                           models.classification_error(trace.weights, whole))

    return _drive(spec, per_trial)


def run_init_study(spec):
    """Shared-init comparison of the two losses on one training set.

    The training set itself is drawn from the seed one past the trial
    range; each trial then draws one uniform init used by both runs.
    """
    n = spec.n[0]
    whole = whole_dataset(spec.task, spec.d)
    tr = sample_training_set(whole, n, _trial_rng(spec, n, spec.trials)[1])

    snap = spec.snapshot_t
    if snap > spec.xhinge_steps:
        raise ConfigError(
            f"snapshot step {snap} is past the extreme-hinge run ({spec.xhinge_steps})")

    hinge = TrainConfig(loss="hinge", alpha=spec.alpha, b=spec.b,
                        init="uniform", max_steps=spec.max_steps)
    xhinge = _xhinge_config(spec)
    pairs, traces, extras = [], [], {}

    def per_trial(n, trial, rng):
        w0 = models.init_weights("conv", spec.d, spec.k, hinge, rng)
        hg = train("conv", tr, hinge, rng, k=spec.k, eval_set=whole, initial=w0)
        xh = train("conv", tr, xhinge, rng, k=spec.k,
                   eval_set=whole, initial=w0)
        snap_acc = 1.0 - xh.test_error[snap]
        pairs.append((snap_acc, 1.0 - hg.test_error[-1]))
        traces.extend([(trial, "hinge", hg), (trial, "xhinge", xh)])
        yield _trained("conv", "hinge", hg, hg.test_error[-1])
        yield _trained("conv", "xhinge", xh, xh.test_error[-1],
                       aux_key=f"snapshot_acc_t{snap}",
                       aux_value=repr(float(snap_acc)))

    def summary(n):
        arr = np.asarray(pairs)
        if arr[:, 0].std() == 0.0 or arr[:, 1].std() == 0.0:
            r = 0.0
        else:
            r = float(np.corrcoef(arr[:, 0], arr[:, 1])[0, 1])
        extras.update(pearson_r=r, pairs=arr)
        yield dict(model="conv", loss="summary", aux_key="pearson_r",
                   aux_value=repr(r)), None

    return _drive(spec, per_trial, summary, extras=extras, traces=traces)


def run_analysis_curves(spec):
    """Closed forms and the adjacent-pair Monte Carlo, no training.

    ``spec.trials`` is the number of Monte-Carlo draws, so each n is a
    single trial 0.
    """
    extras = {}

    def per_trial(n, trial, rng):
        report = theory.decomposition_report(spec.d, spec.k, n, spec.trials, rng)
        extras[n] = report
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
            yield dict(model="analysis", loss="", aux_key=key,
                       aux_value=repr(float(value))), None

    return _drive(spec, per_trial, trials=1, extras=extras)


def run_prop1_check(spec):
    """Evenly-spaced training set: no conv advantage, by construction."""
    n = spec.n[0]
    whole = whole_dataset("cls", spec.d)
    tr = theory.sparse_training_set(spec.d, spec.k, n)
    mtr = training_average(tr, spec.k)
    gram = mtr.T @ mtr
    resid = float(np.max(np.abs(gram - np.eye(spec.k) / n)))
    hinge = _hinge_config(spec)
    conv_errs, onel_errs, extras = [], [], {}

    def per_trial(n, trial, rng):
        aw = dynamics.asymptotic_weights(rng.normal(0.0, spec.b, size=spec.k), mtr)
        conv_errs.append(dynamics.asymptotic_error(aw, whole))
        yield dict(model="conv", loss="asym", stop_reason="estimate",
                   test_error=conv_errs[-1], aux_key="m",
                   aux_value=str(aw.m)), None
        trace = train("1layer", tr, hinge, rng)
        onel_errs.append(models.classification_error(trace.weights, whole))
        yield _trained("1layer", "hinge", trace, onel_errs[-1])

    def summary(n):
        extras["gram_residual"] = resid
        for name, errs in (("conv", conv_errs), ("onelayer", onel_errs)):
            extras[f"{name}_mean"], extras[f"{name}_se"] = _mean_se(errs)
        for key, value in extras.items():
            yield dict(model="summary", loss="", aux_key=key,
                       aux_value=repr(float(value))), None

    return _drive(spec, per_trial, summary, extras=extras)


# In CLI subcommand order.
EXPERIMENTS = {
    "gen-curve": Experiment(run_gen_curve, trials=100,
                            ignores=("xhinge_steps", "snapshot_t")),
    "asym-vs-losses": Experiment(run_asym_vs_losses, trials=100,
                                 ignores=("models", "snapshot_t")),
    "init-study": Experiment(run_init_study, trials=100, ignores=("models",),
                             single_n=30),
    "analysis-curves": Experiment(
        run_analysis_curves, trials=10_000,
        ignores=("models", "alpha", "b", "max_steps", "xhinge_steps",
                 "snapshot_t", "dump_weights"),
        task="cls"),
    "prop1-check": Experiment(run_prop1_check, trials=200,
                              ignores=("models", "xhinge_steps", "snapshot_t"),
                              single_n=9, task="cls"),
    "parity-curve": Experiment(partial(run_gen_curve, filter_signs=True),
                               trials=100, ignores=("xhinge_steps", "snapshot_t"),
                               task="parity"),
}


def run(spec):
    return EXPERIMENTS[spec.experiment].runner(spec)


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
    --dump-weights; a sidecar this run does not write is removed, so
    none is left from an earlier run.  The traces file is written in one
    pass per trace, one f-string per row ending in "\\r\\n", streamed so
    that no trace is held as one string.  Its fields are ints, loss
    names, float reprs and "", none of which csv.writer would quote, so
    the bytes are those of csv.writer's default dialect.
    """
    spec = result.spec
    text = rows_to_csv(result.rows) if spec.format == "csv" else rows_to_json(result)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    traces, weights = f"{path}.traces.csv", f"{path}.weights.json"
    if result.traces:
        with open(traces, "w", newline="") as fh:
            fh.write(",".join(("trial", "loss", *models.TRACE_COLUMNS)) + "\r\n")
            for trial, loss, trace in result.traces:
                fh.writelines(f"{trial},{loss},{t},{a},{b},{c}\r\n"
                              for t, a, b, c in trace.csv_rows())
    else:
        _remove_stale(traces)
    if result.weights_dump:
        with open(weights, "w") as fh:
            json.dump(result.weights_dump, fh)
    else:
        _remove_stale(weights)
    return text


def _remove_stale(path):
    """Remove a sidecar left by an earlier run to the same output path."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _mean_se(values):
    """Mean and standard error; one value has no spread to measure, so
    its standard error is nan."""
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
    return float(arr.mean()), se
