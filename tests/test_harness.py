"""Experiment runners, result serialization, and the CLI.

Runner tests use scaled-down specs (small d, few trials) so the whole
file stays inside a couple of minutes; statistical checks at the sizes
used in practice live in test_acceptance.py.
"""

import ast
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from convlin import cli, harness, models, theory
from convlin.errors import ConfigError, NumericalError
from convlin.harness import (
    CSV_HEADER,
    DEFAULT_N_GRID,
    ExperimentSpec,
    ResultRow,
    RunResult,
    derive_seed,
    load_weights,
    rows_to_csv,
    rows_to_json,
    run,
    write_result,
)
from convlin.models import TrainConfig, TrainTrace, classification_error
from convlin.tasks import sample_training_set, whole_dataset
from oracles import summarize, summary_values, train_drawn, write_traces_csv


def tiny_gen_spec(**overrides):
    kw = dict(experiment="gen-curve", d=30, k=3, n=(5, 10), trials=3, seed=1)
    kw.update(overrides)
    return ExperimentSpec(**kw)


# One small spec per experiment, each writing every sidecar it can.
TINY_SPECS = {
    "gen-curve": dict(n=(5, 10), trials=2, models=("1layer", "conv", "fc"),
                      dump_weights=True),
    "parity-curve": dict(n=(10,), trials=2, dump_weights=True),
    "asym-vs-losses": dict(n=(6,), trials=3, xhinge_steps=20, dump_weights=True),
    "init-study": dict(n=(8,), trials=3, xhinge_steps=20, snapshot_t=10,
                       dump_weights=True),
    "analysis-curves": dict(n=(5, 15), trials=200),
    "prop1-check": dict(n=(4,), trials=4, dump_weights=True),
}


def tiny_spec(experiment, **overrides):
    kw = dict(experiment=experiment, d=30, k=3, seed=1, **TINY_SPECS[experiment])
    kw.update(overrides)
    return ExperimentSpec(**kw)


class TestSpecValidation:
    def test_defaults_filled(self):
        spec = ExperimentSpec(experiment="gen-curve")
        assert spec.n == DEFAULT_N_GRID
        assert spec.trials == harness.EXPERIMENTS["gen-curve"].trials
        assert spec.task == "cls"

    def test_single_n_experiments_get_single_default(self):
        assert ExperimentSpec(experiment="init-study").n == (30,)
        assert ExperimentSpec(experiment="prop1-check").n == (9,)
        with pytest.raises(ConfigError):
            ExperimentSpec(experiment="init-study", n=(10, 20))

    def test_parity_curve_forces_task(self):
        assert ExperimentSpec(experiment="parity-curve").task == "parity"
        with pytest.raises(ConfigError):
            ExperimentSpec(experiment="parity-curve", task="cls")

    def test_ignored_flags_rejected(self):
        for experiment in ("asym-vs-losses", "init-study", "analysis-curves",
                           "prop1-check"):
            assert ExperimentSpec(experiment=experiment).models == ("1layer", "conv")
            with pytest.raises(ConfigError):
                ExperimentSpec(experiment=experiment, models=("1layer", "conv"))
        for experiment in ("analysis-curves", "prop1-check"):
            assert ExperimentSpec(experiment=experiment, task="cls").task == "cls"
            with pytest.raises(ConfigError):
                ExperimentSpec(experiment=experiment, task="1stctrl")
        spec = ExperimentSpec(experiment="gen-curve", models=("fc",))
        assert spec.models == ("fc",)
        for experiment, fields in (
                ("gen-curve", dict(xhinge_steps=7, snapshot_t=3)),
                ("parity-curve", dict(xhinge_steps=7, snapshot_t=3)),
                ("asym-vs-losses", dict(snapshot_t=3)),
                ("prop1-check", dict(xhinge_steps=7, snapshot_t=3)),
                ("analysis-curves", dict(alpha=0.5, b=0.1, max_steps=10,
                                         xhinge_steps=7, snapshot_t=3,
                                         dump_weights=False))):
            for name, value in fields.items():
                with pytest.raises(ConfigError, match=name.replace("_", "-")):
                    ExperimentSpec(experiment=experiment, **{name: value})

    def test_unset_fields_echo_their_defaults(self):
        """Fields an experiment ignores still echo the defaults in the
        JSON spec, so the echo reads the same for every experiment."""
        for experiment in ("analysis-curves", "gen-curve"):
            echo = harness._spec_dict(ExperimentSpec(experiment=experiment))
            assert echo["b"] == 0.1 and echo["alpha"] is None
            assert echo["max_steps"] == 100_000
            assert echo["xhinge_steps"] == 1000 and echo["snapshot_t"] == 150
            assert echo["models"] == ["1layer", "conv"]
            assert echo["dump_weights"] is False

    def test_rejections(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(experiment="nope")
        with pytest.raises(ConfigError):
            ExperimentSpec(experiment="gen-curve", task="xor")
        with pytest.raises(ConfigError):
            ExperimentSpec(experiment="gen-curve", d=10, k=50)
        with pytest.raises(ConfigError):
            ExperimentSpec(experiment="gen-curve", trials=0)
        with pytest.raises(ConfigError):
            ExperimentSpec(experiment="gen-curve", n=(0,))
        with pytest.raises(ConfigError):
            ExperimentSpec(experiment="gen-curve", format="xml")
        with pytest.raises(ConfigError):
            ExperimentSpec(experiment="gen-curve", models=("conv", "gru"))
        with pytest.raises(ConfigError):
            ExperimentSpec(experiment="gen-curve", xhinge_steps=0)

    def test_repeated_model_rejected(self):
        """Two runs of one model would share every row coordinate and one
        --dump-weights key."""
        for experiment in ("gen-curve", "parity-curve"):
            for models in (("conv", "conv"), ("1layer", "conv", "1layer")):
                with pytest.raises(ConfigError, match="twice"):
                    ExperimentSpec(experiment=experiment, models=models)


class TestSeeds:
    def test_frozen_values(self):
        assert derive_seed(0, "gen-curve", 10, 0) == 9017669149816576724
        assert derive_seed(0, "gen-curve", 10, 1) == 16675973924953202282
        assert derive_seed(7, "init-study", 30, 100) == 6105593821606233182

    def test_coordinates_all_matter(self):
        base = derive_seed(3, "gen-curve", 50, 2)
        assert base != derive_seed(4, "gen-curve", 50, 2)
        assert base != derive_seed(3, "asym-vs-losses", 50, 2)
        assert base != derive_seed(3, "gen-curve", 51, 2)
        assert base != derive_seed(3, "gen-curve", 50, 3)

    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_rerun_is_bit_identical(self, experiment, tmp_path):
        """The CSV and every sidecar repeat byte for byte."""
        outputs = []
        for rerun in ("a", "b"):
            (tmp_path / rerun).mkdir()
            out = tmp_path / rerun / "rows.csv"
            write_result(run(tiny_spec(experiment)), str(out))
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.parent.iterdir())})
        assert outputs[0] == outputs[1]
        assert "rows.csv" in outputs[0]


class TestGoldenOutputs:
    """The bytes of pinned-seed runs, frozen as sha256 digests: the CSV,
    the init-study traces sidecar and the --dump-weights sidecars of the
    tiny specs, and one JSON run written without a path, so that no path
    enters the bytes.  The digests were produced with numpy 2.4.6 on
    OpenBLAS 0.3.31 with its Haswell kernels; another BLAS may round the
    conv and fc runs differently and fail this test without a fault.
    """

    DIGESTS = {
        "gen-curve": {
            "rows.csv": "5a28bce6e3c91ff2cd3baae60ef9abb778cd8791a21124fcbf7454e67432a15f",
            "rows.csv.weights.json":
                "6f7c7cbfd7ce2e415b5eaff06b7ed9af22a6de9bfebf6a495fb51ed253331b75",
        },
        "asym-vs-losses": {
            "rows.csv": "f5218e20938a2436faf3fbf06f49984eac288f32fa25dd471670a1a1b58ed4fb",
            "rows.csv.weights.json":
                "15db0d5bc3e9897930566438d41d5f367b82b9e4df768149fcb558dfe5b892b3",
        },
        "init-study": {
            "rows.csv": "65463a8753d24dfcc4cb7c2cae8f363107e9408b05e6b5269ffe7b35fc53df76",
            "rows.csv.traces.csv":
                "a679101c82f62e3fb6d89df98b5bb6d62e80ec0356b8eea7a95cf1ec31706f1a",
            "rows.csv.weights.json":
                "044d044a021c39aaf6bf8b30bad4dcbb7a668d6ad2380d6c4e229debe4e07206",
        },
        "analysis-curves": {
            "rows.csv": "ebdd19bc61ae451fa5d7932c532c773e40a88eb47b5fda6d1a14ab3c88ce6d99",
        },
        "prop1-check": {
            "rows.csv": "fd5a0a327fab138cfe1cc51778d0abdb3f23d336192eebf9357572a90694f4a3",
            "rows.csv.weights.json":
                "27cbf5ccf77bbd28c1b8444a09503fbb423edd6345c146c26940a943319a7ec0",
        },
        "parity-curve": {
            "rows.csv": "50fcbf5c737b7343977fd8c6a44ae04e3cf9a7615cb625ae4cb7aed994cbdf10",
            "rows.csv.weights.json":
                "406d5e2a935c2314ebfc59bccb27ffe7c0f0c9a7b666952edf3d41af71735fdd",
        },
    }
    # gen-curve on 3rdctrl, the task whose active set changes at almost
    # every step.
    JSON_DIGEST = "5c85d401fe1d65b789fb65ce0593930a1ce89ff284f6aeee88c0c6e6d9a5c893"

    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_files(self, experiment, tmp_path):
        write_result(run(tiny_spec(experiment)), str(tmp_path / "rows.csv"))
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert digests == self.DIGESTS[experiment]

    def test_json_without_path(self):
        spec = tiny_spec("gen-curve", task="3rdctrl", format="json")
        text = write_result(run(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == self.JSON_DIGEST


class TestGenCurve:
    def test_row_grid(self):
        result = run(tiny_gen_spec())
        assert len(result.rows) == 2 * 3 * 2
        assert {r.model for r in result.rows} == {"1layer", "conv"}
        assert {r.n for r in result.rows} == {5, 10}
        for r in result.rows:
            assert r.loss == "hinge"
            assert r.stop_reason == "loss-zero"
            assert r.train_error == 0.0
            assert 0.0 <= r.test_error <= 1.0
            assert r.seed == derive_seed(1, "gen-curve", r.n, r.trial)

    def test_rows_reproducible_from_stored_seed(self):
        """Any single row can be regenerated from its own seed column."""
        spec = tiny_gen_spec()
        result = run(spec)
        row = result.rows[-1]
        whole = whole_dataset(spec.task, spec.d)
        rng = np.random.default_rng(row.seed)
        tr = sample_training_set(whole, row.n, rng)
        trace = train_drawn("1layer", tr, TrainConfig(loss="hinge"), rng)
        redo = classification_error(trace.weights, whole)
        onelayer = [r for r in result.rows
                    if (r.n, r.trial, r.model) == (row.n, row.trial, "1layer")]
        assert redo == onelayer[0].test_error


class TestDrawBeforeFit:
    """Each trial makes all of its draws (the training set and each
    run's init) from its own rng before its first `train` call, and every
    run trains from an init that its own trial drew."""

    SPECS = {
        "gen-curve": dict(d=20, k=3, n=(5, 10), trials=2,
                          models=("1layer", "conv", "fc")),
        "asym-vs-losses": dict(d=20, k=3, n=(6,), trials=3, xhinge_steps=10),
        "init-study": dict(d=20, k=3, n=(8,), trials=3, xhinge_steps=10,
                           snapshot_t=5),
        "prop1-check": dict(d=30, k=3, n=(4,), trials=3),
    }

    @pytest.mark.parametrize("experiment", SPECS)
    def test_trials_draw_then_fit(self, experiment, monkeypatch):
        log = []

        def logged(kind, fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                log.append((kind, args, out))
                return out
            return call

        monkeypatch.setattr(harness, "_trial_rng",
                            logged("trial", harness._trial_rng))
        monkeypatch.setattr(harness, "train", logged("train", harness.train))
        monkeypatch.setattr(models, "init_weights",
                            logged("init", models.init_weights))
        monkeypatch.setattr(harness, "sample_training_set",
                            logged("set", harness.sample_training_set))
        spec = ExperimentSpec(experiment=experiment, seed=5,
                              **self.SPECS[experiment])
        result = run(spec)

        # Split the log at each rng the driver derives.  A summary seed's
        # segment trains nothing; init-study draws its training set there.
        starts = [i for i, (kind, _, _) in enumerate(log) if kind == "trial"]
        fitted = 0
        for a, b in zip(starts, starts[1:] + [len(log)]):
            (_, (_, n, trial), (_, rng)), calls = log[a], log[a + 1 : b]
            kinds = [kind for kind, _, _ in calls]
            for kind, args, _ in calls:
                if kind != "train":
                    assert any(arg is rng for arg in args), (n, trial, kind)
            if "train" not in kinds:
                continue
            fitted += 1
            first_fit = kinds.index("train")
            assert set(kinds[first_fit:]) == {"train"}, (n, trial, kinds)
            inits = [out for kind, _, out in calls if kind == "init"]
            for _, args, _ in calls[first_fit:]:
                assert any(args[3] is w0 for w0 in inits), (n, trial)
        assert fitted == len(spec.n) * spec.trials
        trained = [r for r in result.rows
                   if r.stop_reason in ("loss-zero", "step-budget", "fixed-steps")]
        assert sum(kind == "train" for kind, _, _ in log) == len(trained)


@pytest.fixture(scope="module")
def asym_losses_result():
    spec = ExperimentSpec(experiment="asym-vs-losses", d=30, k=3, n=(8,),
                          trials=30, xhinge_steps=50, seed=1)
    return run(spec)


class TestAsymVsLosses:
    def test_three_rows_per_trial(self, asym_losses_result):
        result = asym_losses_result
        assert len(result.rows) == 3 * 30
        by_loss = {}
        for r in result.rows:
            by_loss.setdefault(r.loss, []).append(r)
        assert set(by_loss) == {"asym", "xhinge", "hinge"}
        for r in by_loss["asym"]:
            assert r.stop_reason == "estimate"
            assert r.train_error is None
            assert r.aux_key == "m_degenerate"
            assert r.aux_value in ("0", "1")
        for r in by_loss["xhinge"]:
            assert r.steps_run == 50
            assert r.stop_reason == "fixed-steps"

    def test_limit_at_least_as_good_as_hinge(self, asym_losses_result):
        am, ase = summarize(asym_losses_result.rows, loss="asym")
        hm, hse = summarize(asym_losses_result.rows, loss="hinge")
        assert am <= hm + 3.0 * math.hypot(ase, hse)


class TestInitStudy:
    def test_snapshot_past_run_rejected(self):
        spec = ExperimentSpec(experiment="init-study", d=30, k=3, n=(10,),
                              trials=3, xhinge_steps=50, snapshot_t=60)
        with pytest.raises(ConfigError):
            run(spec)

    def test_structure(self):
        spec = ExperimentSpec(experiment="init-study", d=30, k=3, n=(10,),
                              trials=5, xhinge_steps=60, snapshot_t=30, seed=2)
        result = run(spec)
        assert len(result.traces) == 10
        summary = [r for r in result.rows if r.loss == "summary"]
        assert len(summary) == 1
        assert summary[0].aux_key == "pearson_r"
        snaps = [float(r.aux_value) for r in result.rows
                 if r.aux_key == "snapshot_acc_t30"]
        hinge = [1.0 - r.test_error for r in result.rows if r.loss == "hinge"]
        assert len(snaps) == len(hinge) == 5
        assert float(summary[0].aux_value) == np.corrcoef(snaps, hinge)[0, 1]

    def test_constant_side_writes_zero(self):
        """At b = 1e-100 every hinge run reaches accuracy 0.99, whose
        three copies have a standard deviation of about 1e-16, not 0:
        the side is constant because its values are equal, and r is
        written as 0.0."""
        spec = ExperimentSpec(experiment="init-study", d=100, k=5, n=(30,),
                              trials=3, b=1e-100)
        result = run(spec)
        hinge = np.array([1.0 - r.test_error for r in result.rows
                          if r.loss == "hinge"])
        assert (hinge == hinge[0]).all() and hinge.std() != 0.0
        assert summary_values(result) == {"pearson_r": 0.0}


class TestAnalysisCurves:
    def test_keys_and_consistency(self):
        spec = ExperimentSpec(experiment="analysis-curves", d=30, k=3,
                              n=(5, 15), trials=200, seed=3)
        result = run(spec)
        for n in (5, 15):
            vals = {r.aux_key: float(r.aux_value)
                    for r in result.rows if r.n == n}
            assert set(vals) == {"err1", "err1_se", "err2", "ratio",
                                 "coverage_exact", "sum_exact", "sum_approx",
                                 "onelayer"}
            assert 0.0 <= vals["err1"] <= 1.0
            seed, = {r.seed for r in result.rows if r.n == n}
            report = theory.decomposition_report(30, 3, n, 200,
                                                 np.random.default_rng(seed))
            assert vals["ratio"] == pytest.approx(
                report.prob_no_adjacent_pair_exact / vals["err2"])
            assert vals["sum_exact"] == \
                pytest.approx(vals["err1"] + vals["coverage_exact"])
            assert report.prob_no_adjacent_pair == vals["err1"]


@pytest.fixture(scope="module")
def prop1_result():
    spec = ExperimentSpec(experiment="prop1-check", d=30, k=3, n=(4,),
                          trials=200, seed=4)
    return run(spec)


class TestProp1Check:
    def test_gram_residual_is_tiny(self, prop1_result):
        assert summary_values(prop1_result)["gram_residual"] <= 1e-12

    def test_every_draw_is_fully_degenerate(self, prop1_result):
        for r in prop1_result.rows:
            if r.aux_key == "m":
                assert r.aux_value == "3"

    def test_conv_limit_matches_onelayer(self, prop1_result):
        values = summary_values(prop1_result)
        gap = abs(values["conv_mean"] - values["onelayer_mean"])
        se = math.hypot(values["conv_se"], values["onelayer_se"])
        assert gap <= 3.0 * se


@pytest.mark.parametrize("b", [1e-162, 1e-200, 1e-300])
def test_prop1_limits_at_tiny_init_scales(b):
    """A limit's classification does not depend on the scale of w1(0),
    so the asym rows at a tiny b are those at b = 0.1 with the same
    seed, not ties scored 0.5."""
    def asym(b):
        spec = ExperimentSpec(experiment="prop1-check", d=100, k=5, n=(9,),
                              trials=3, b=b, seed=0)
        return [r.test_error for r in run(spec).rows if r.loss == "asym"]

    want = asym(0.1)
    assert want != [0.5] * 3
    assert asym(b) == want


class TestParityCurve:
    def test_filters_alternate(self):
        spec = ExperimentSpec(experiment="parity-curve", d=100, k=5, n=(300,),
                              trials=10, models=("conv",), seed=0)
        result = run(spec)
        signs = [r.aux_value for r in result.rows
                 if r.aux_key == "filter_signs"]
        assert len(signs) == 10

        def alternating(s):
            return all(a != b and "0" not in (a, b)
                       for a, b in zip(s, s[1:]))

        assert sum(alternating(s) for s in signs) >= 8


class TestXhingePostFitBehaviour:
    def test_weights_keep_moving_after_interpolation(self):
        """The extreme hinge has no finish line: after the training set
        is fit (around step 245 for this seed) the direction keeps
        rotating and the norms keep growing."""
        whole = whole_dataset("cls", 100)
        rng = np.random.default_rng(9)
        tr = sample_training_set(whole, 40, rng)
        cfg = TrainConfig(loss="xhinge", max_steps=1000)
        trace = train_drawn("conv", tr, cfg, rng, k=5, record_weights=True)
        terr = np.asarray(trace.train_error)
        fit = np.nonzero(terr == 0.0)[0]
        assert fit.size > 0 and fit[0] < 500
        t_fit = int(fit[0])
        assert np.all(terr[t_fit:] == 0.0)
        wa = trace.weights_per_step[t_fit].w2
        wb = trace.weights_per_step[t_fit + 200].w2
        cos = (wa @ wb) / (np.linalg.norm(wa) * np.linalg.norm(wb))
        assert cos < 0.99
        assert np.linalg.norm(wb) > 10.0 * np.linalg.norm(wa)


class TestSerialization:
    def test_csv_header_is_stable(self):
        assert CSV_HEADER == (
            "experiment,task,d,k,n,trial,seed,model,loss,steps_run,"
            "stop_reason,train_error,test_error,aux_key,aux_value")

    def test_csv_round_trip(self):
        result = run(tiny_gen_spec())
        text = rows_to_csv(result.rows)
        reader = csv.DictReader(io.StringIO(text))
        assert reader.fieldnames == CSV_HEADER.split(",")
        parsed = list(reader)
        assert len(parsed) == len(result.rows)
        for rec, row in zip(parsed, result.rows):
            assert int(rec["seed"]) == row.seed
            assert float(rec["test_error"]) == row.test_error

    def test_json_echoes_spec(self):
        result = run(tiny_gen_spec(format="json"))
        payload = json.loads(rows_to_json(result))
        assert payload["spec"]["experiment"] == "gen-curve"
        assert payload["spec"]["n"] == [5, 10]
        assert len(payload["rows"]) == len(result.rows)
        assert payload["rows"][0]["loss"] == "hinge"

    def test_write_result_without_path_returns_text(self):
        result = run(tiny_gen_spec())
        assert write_result(result).startswith(CSV_HEADER)

    @pytest.mark.parametrize("experiment", ["gen-curve", "asym-vs-losses",
                                            "init-study", "prop1-check"])
    def test_weights_dump_round_trip(self, experiment, tmp_path):
        """Weights written under --dump-weights reproduce the row's
        recorded test error exactly, for every trained run."""
        runs = {"gen-curve": 2 * 2 * 3, "asym-vs-losses": 3 * 2,
                "init-study": 3 * 2, "prop1-check": 4}[experiment]
        spec = tiny_spec(experiment)
        result = run(spec)
        out = tmp_path / "res.csv"
        write_result(result, str(out))
        sidecar = json.loads((tmp_path / "res.csv.weights.json").read_text())
        assert len(sidecar) == runs
        whole = whole_dataset(spec.task, spec.d)
        trained = [r for r in result.rows if r.loss in ("hinge", "xhinge")]
        assert len(trained) == runs
        for row in trained:
            key = f"n={row.n}/trial={row.trial}/model={row.model}/loss={row.loss}"
            w = load_weights(sidecar[key])
            assert classification_error(w, whole) == row.test_error

    def test_traces_sidecar(self, tmp_path):
        spec = ExperimentSpec(experiment="init-study", d=30, k=3, n=(10,),
                              trials=2, xhinge_steps=20, snapshot_t=10, seed=5)
        result = run(spec)
        out = tmp_path / "study.csv"
        write_result(result, str(out))
        lines = (tmp_path / "study.csv.traces.csv").read_text().splitlines()
        assert lines[0] == "trial,loss,t,train_loss,train_err,test_err"
        # Two fixed-step runs contribute 21 rows each, the hinge runs
        # at least one row.
        assert len(lines) >= 1 + 2 * 21 + 2

    @staticmethod
    def _made_trace():
        """A trace holding -0.0, +-inf, 1e-300, 0.1 + 0.2 and NaN test
        errors, which are written as ""."""
        values = np.array([0.1 + 0.2, -0.0, np.inf, -np.inf, 1e-300, 0.5])
        return TrainTrace(steps=np.arange(6), train_loss=values,
                          train_error=values[::-1].copy(),
                          test_error=np.array([np.nan, -0.0, 1e-300, np.inf,
                                               np.nan, 0.1 + 0.2]),
                          weights=None, stop_reason="fixed-steps")

    @pytest.mark.parametrize("source", ["made", "init-study"])
    def test_traces_sidecar_matches_csv_writer(self, source, tmp_path):
        """The sidecar is byte for byte what csv.writer writes."""
        if source == "made":
            result = RunResult(spec=tiny_spec("init-study"), rows=[],
                               traces=[(0, "xhinge", self._made_trace()),
                                       (1, "hinge", self._made_trace())])
        else:
            result = run(tiny_spec("init-study"))
            assert len({trial for trial, _, _ in result.traces}) == 3
        write_result(result, str(tmp_path / "out.csv"))
        write_traces_csv(result.traces, tmp_path / "oracle.csv")
        got = (tmp_path / "out.csv.traces.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        if source == "made":
            assert got.splitlines()[1] == b"0,xhinge,0,0.30000000000000004,0.5,"

    @pytest.mark.parametrize("sidecar", ["traces.csv", "weights.json"])
    def test_stale_sidecar_removed(self, sidecar, tmp_path):
        """A run that writes no sidecar removes the one an earlier run
        wrote beside the same output path."""
        out = str(tmp_path / "o.csv")
        earlier = (tiny_spec("init-study", dump_weights=False)
                   if sidecar == "traces.csv" else tiny_gen_spec(dump_weights=True))
        write_result(run(earlier), out)
        assert os.path.exists(f"{out}.{sidecar}")
        write_result(run(tiny_gen_spec()), out)
        assert os.listdir(tmp_path) == ["o.csv"]


class TestSummarize:
    def _rows(self):
        def row(model, loss, n, err):
            return ResultRow(experiment="gen-curve", task="cls", d=10, k=2,
                             n=n, trial=0, seed=0, model=model, loss=loss,
                             steps_run=1, stop_reason="loss-zero",
                             train_error=0.0, test_error=err)

        return [row("conv", "hinge", 5, 0.1), row("conv", "hinge", 5, 0.3),
                row("conv", "hinge", 9, 0.5), row("1layer", "hinge", 5, 0.9),
                row("conv", "asym", 5, None)]

    def test_filters(self):
        rows = self._rows()
        mean, se = summarize(rows, model="conv", loss="hinge", n=5)
        assert mean == pytest.approx(0.2)
        assert se == pytest.approx(np.std([0.1, 0.3], ddof=1) / math.sqrt(2))
        mean_all, _ = summarize(rows, model="conv", loss="hinge")
        assert mean_all == pytest.approx(0.3)

    def test_none_errors_are_skipped(self):
        with pytest.raises(ValueError):
            summarize(self._rows(), loss="asym")

    def test_single_row_nan_se(self):
        """One row has no spread, so its standard error is undefined."""
        mean, se = summarize(self._rows(), model="1layer")
        assert mean == 0.9
        assert math.isnan(se)


class TestParseN:
    def test_forms(self):
        assert cli.parse_n("25") == (25,)
        assert cli.parse_n("10:30:10") == (10, 20, 30)
        assert cli.parse_n(" 7 ") == (7,)

    def test_rejections(self):
        for bad in ("10:30", "a:b:c", "5:1:2", "1:9:0", "x", "2.5"):
            with pytest.raises(ConfigError):
                cli.parse_n(bad)


class TestConfigFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# small smoke run\n"
            "\n"
            "d = 20\n"
            "trials=3\n"
            "n = 5:15:5\n")
        values = cli.load_config_file(str(path))
        assert values == {"d": "20", "trials": "3", "n": "5:15:5"}

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d = 20\nwidth = 3\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            cli.load_config_file(str(path))

    def test_not_key_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1"):
            cli.load_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.load_config_file("/no/such/file.cfg")

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d = 20\ntrials = 3\nk = 2\n")
        args = cli.build_parser().parse_args(
            ["gen-curve", "--config", str(path), "--trials", "7"])
        spec = cli.build_spec(args)
        assert spec.d == 20
        assert spec.k == 2
        assert spec.trials == 7


class TestDependencies:
    def test_import_loads_no_scipy(self):
        """numpy is the only runtime dependency.  A fresh interpreter is
        needed because other test modules import scipy into this one."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = ("import sys, convlin, convlin.harness, convlin.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_runs_without_scipy_or_bench(self):
        """The package imports with scipy unimportable, and no module in
        src/ imports the benchmark, by package or by module name."""
        pkg = os.path.dirname(os.path.abspath(cli.__file__))
        src = os.path.dirname(pkg)
        bench = os.path.join(os.path.dirname(src), "bench")
        code = ("import sys; sys.modules['scipy'] = None; "
                "import convlin, convlin.harness, convlin.cli")
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True)
        names = os.listdir(bench) if os.path.isdir(bench) else []
        banned = {"bench"} | {n[:-3] for n in names if n.endswith(".py")}
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    roots = [a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    roots = [node.module.split(".")[0]]
                else:
                    continue
                assert not banned & set(roots), f"{name} imports {roots}"

    # Only tests read these; they live in tests/oracles.py or are gone.
    TEST_ONLY = {"stop_rule", "continue_config", "dump_csv", "DataPoint",
                 "separator_witness", "summarize"}

    def test_test_only_names_stay_out_of_src(self):
        """No module in src/ defines, imports, passes or exports a name
        that only tests use: as a def or class, an assigned name, field
        or attribute, a parameter or keyword, or an import alias."""
        pkg = os.path.dirname(os.path.abspath(cli.__file__))
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            found = set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    found.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    found.add(node.attr)
                elif isinstance(node, (ast.arg, ast.keyword)):
                    found.add(node.arg)
                elif isinstance(node, ast.alias):
                    found.update((node.name, node.asname))
                elif isinstance(node, ast.Constant):  # an __all__ entry
                    found.add(node.value)
            assert not self.TEST_ONLY & found, f"{name} defines {self.TEST_ONLY & found}"


class TestMain:
    def test_success_writes_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = cli.main(["gen-curve", "--d", "20", "--k", "2", "--n", "4",
                         "--trials", "2", "--seed", "6", "--out", str(out)])
        assert code == 0
        assert f"wrote 4 rows to {out}" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_one_trial_writes_nan_se(self, tmp_path):
        """prop1-check with one trial writes an undefined standard error
        as nan, not as 0.0."""
        out = tmp_path / "rows.csv"
        assert cli.main(["prop1-check", "--d", "30", "--k", "3", "--n", "4",
                         "--trials", "1", "--seed", "1", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            extras = {r["aux_key"]: r["aux_value"] for r in csv.DictReader(fh)
                      if r["model"] == "summary"}
        assert extras["conv_se"] == extras["onelayer_se"] == "nan"
        assert math.isfinite(float(extras["conv_mean"]))

    def test_stdout_when_no_out(self, capsys):
        code = cli.main(["gen-curve", "--d", "20", "--k", "2", "--n", "4",
                         "--trials", "1", "--seed", "6"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER)

    def test_config_error_is_exit_one(self, capsys):
        assert cli.main(["gen-curve", "--d", "10", "--k", "50"]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert cli.main(["no-such-experiment"]) == 1
        assert cli.main(["gen-curve", "--n", "5:1:2"]) == 1

    @pytest.mark.parametrize("argv", [
        ["analysis-curves", "--task", "parity", "--n", "10", "--trials", "100"],
        ["analysis-curves", "--models", "conv", "--n", "10", "--trials", "100"],
        ["prop1-check", "--task", "parity", "--models", "fc"],
        ["prop1-check", "--task", "parity"],
        ["prop1-check", "--models", "fc"],
        ["parity-curve", "--task", "cls", "--n", "4", "--trials", "1"],
        ["asym-vs-losses", "--models", "conv", "--n", "4", "--trials", "1"],
        ["init-study", "--models", "conv", "--trials", "1"],
        ["gen-curve", "--xhinge-steps", "7", "--n", "4", "--trials", "1"],
        ["gen-curve", "--snapshot-t", "3", "--n", "4", "--trials", "1"],
        ["parity-curve", "--xhinge-steps", "7", "--n", "4", "--trials", "1"],
        ["parity-curve", "--snapshot-t", "3", "--n", "4", "--trials", "1"],
        ["asym-vs-losses", "--snapshot-t", "3", "--n", "4", "--trials", "1"],
        ["prop1-check", "--xhinge-steps", "9", "--trials", "2"],
        ["prop1-check", "--snapshot-t", "3", "--trials", "2"],
        ["analysis-curves", "--alpha", "0.5", "--n", "10", "--trials", "100"],
        ["analysis-curves", "--b", "0.2", "--n", "10", "--trials", "100"],
        ["analysis-curves", "--max-steps", "10", "--n", "10", "--trials", "100"],
        ["analysis-curves", "--xhinge-steps", "7", "--n", "10", "--trials", "100"],
        ["analysis-curves", "--snapshot-t", "3", "--n", "10", "--trials", "100"],
        ["analysis-curves", "--dump-weights", "--n", "10", "--trials", "100"],
    ])
    def test_ignored_flag_is_exit_one(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_ignored_config_key_is_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        for experiment, line in (
                ("prop1-check", "models = conv"),
                ("gen-curve", "snapshot-t = 3"),
                ("parity-curve", "xhinge-steps = 7"),
                ("asym-vs-losses", "snapshot-t = 3"),
                ("prop1-check", "xhinge-steps = 9"),
                ("analysis-curves", "alpha = 0.5"),
                ("analysis-curves", "b = 0.2"),
                ("analysis-curves", "max-steps = 10"),
                ("analysis-curves", "dump-weights = false")):
            cfg.write_text(line + "\n")
            trials = "100" if experiment == "analysis-curves" else "1"
            argv = [experiment, "--config", str(cfg), "--n", "4", "--trials", trials]
            assert cli.main(argv) == 1, line
            assert "configuration error" in capsys.readouterr().err

    def test_malformed_value_is_exit_one(self, tmp_path, capsys):
        argv = ["gen-curve", "--d", "x", "--n", "4", "--trials", "1"]
        assert cli.main(argv) == 1
        assert "configuration error" in capsys.readouterr().err
        cfg = tmp_path / "bad.cfg"
        for line in ("d = abc", "alpha = fast", "dump-weights = maybe"):
            cfg.write_text(line + "\n")
            argv = ["gen-curve", "--config", str(cfg), "--n", "4", "--trials", "1"]
            assert cli.main(argv) == 1, line
            assert "configuration error" in capsys.readouterr().err

    def test_negative_seed_is_exit_one(self, tmp_path, capsys):
        base = ["gen-curve", "--d", "20", "--k", "2", "--n", "4", "--trials", "1"]
        assert cli.main(base + ["--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        assert cli.main(base + ["--config", str(cfg)]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_out_in_missing_directory_is_exit_one(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "rows.csv"
        argv = ["gen-curve", "--d", "20", "--k", "2", "--n", "4", "--trials",
                "1", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_out_is_directory_is_exit_one(self, tmp_path, monkeypatch, capsys):
        def never(spec):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run", never)
        argv = ["gen-curve", "--d", "20", "--k", "2", "--n", "4", "--trials",
                "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert "is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["gen-curve", "prop1-check"])
    @pytest.mark.parametrize("key", ["alpha", "b"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_alpha_or_b_is_exit_one(self, experiment, key, value,
                                              tmp_path, capsys):
        base = [experiment, "--trials", "1"]
        if experiment == "gen-curve":
            base += ["--d", "20", "--k", "2", "--n", "4"]
        assert cli.main(base + ["--" + key, value]) == 1
        assert "positive and finite" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert cli.main(base + ["--config", str(cfg)]) == 1
        assert "positive and finite" in capsys.readouterr().err

    def test_empty_model_list_is_exit_one(self, tmp_path, capsys):
        base = ["gen-curve", "--d", "20", "--k", "2", "--n", "4", "--trials", "1"]
        assert cli.main(base + ["--models", ","]) == 1
        assert "names no model" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("models = ,\n")
        assert cli.main(base + ["--config", str(cfg)]) == 1
        assert "names no model" in capsys.readouterr().err

    def test_repeated_model_is_exit_one(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        base = ["gen-curve", "--d", "20", "--k", "3", "--n", "10", "--trials",
                "1", "--dump-weights", "--out", str(out)]
        assert cli.main(base + ["--models", "conv,conv"]) == 1
        assert "names a model twice" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("models = 1layer,fc,1layer\n")
        assert cli.main(base + ["--config", str(cfg)]) == 1
        assert "names a model twice" in capsys.readouterr().err
        assert not out.exists()

    def test_asym_vs_losses_beyond_k_64(self, capsys):
        code = cli.main(["asym-vs-losses", "--k", "70", "--n", "100",
                         "--trials", "2", "--xhinge-steps", "50"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 1 + 3 * 2

    def test_numerical_error_is_exit_two(self, monkeypatch, capsys):
        def boom(spec):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["gen-curve", "--n", "4", "--trials", "1"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_diverged_run_is_exit_two(self, capsys):
        """A hinge run whose weights overflow used to score its NaN
        margins as error 0; it is a numerical failure."""
        argv = ["gen-curve", "--d", "20", "--k", "3", "--n", "10", "--trials",
                "1", "--alpha", "1e308", "--max-steps", "5", "--models",
                "conv", "--seed", "1"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(argv) == 2
        assert "not finite" in capsys.readouterr().err

    def test_overflowing_whole_set_scores_warn_nothing(self, capsys):
        """Finite weights near 1e308 overflow a two-term score to an
        infinity of the right sign; the run succeeds without a warning."""
        argv = ["gen-curve", "--task", "3rdctrl", "--d", "3", "--k", "1",
                "--n", "9", "--trials", "1", "--alpha", "1.7e308", "--b", "1",
                "--models", "1layer", "--seed", "2", "--max-steps", "30"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_pearson_reported_for_init_study(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        code = cli.main(["init-study", "--d", "30", "--k", "3", "--n", "10",
                        "--trials", "3", "--xhinge-steps", "30",
                        "--snapshot-t", "15", "--seed", "8",
                        "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            r, = [float(row["aux_value"]) for row in csv.DictReader(fh)
                  if row["aux_key"] == "pearson_r"]
        assert f"pearson_r = {r:.4f}\n" in capsys.readouterr().out
