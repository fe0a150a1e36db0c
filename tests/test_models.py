"""Forward passes, losses, initialization, and gradient-descent training.

Training tests freeze tiny hand-simulated runs (one or two subgradient
steps worked out on paper) and check the larger-scale behaviour
statistically.
"""

import re
import warnings

import numpy as np
import pytest

from convlin.errors import ConfigError, NumericalError
from convlin.models import (
    DEFAULT_ALPHA,
    ConvWeights,
    FCWeights,
    LinearWeights,
    TrainConfig,
    classification_error,
    continue_config,
    effective_weights,
    error_from_margins,
    forward,
    hinge_loss,
    init_weights,
    margins,
    scores,
    train,
    xhinge_config,
)
from convlin.tasks import TrainingSet, sample_training_set, whole_dataset


def single_point_set(task, d, pos, value, y):
    """One-point training multiset at a 1-based position."""
    return TrainingSet(task=task, d=d,
                       positions=np.array([[pos - 1]]),
                       values=np.array([[float(value)]]),
                       y=np.array([y]),
                       indices=np.array([0]),
                       s_tr=frozenset({pos}))


class TestForward:
    def test_identity_filter_reads_position(self):
        w = ConvWeights(w1=np.array([1.0, 0.0]), w2=np.array([2.0, 3.0, 4.0]))
        assert forward(w, [0.0, 1.0, 0.0]) == 3.0

    def test_shift_filter_reads_next_position(self):
        w = ConvWeights(w1=np.array([0.0, 1.0]), w2=np.array([2.0, 3.0, 4.0]))
        assert forward(w, [0.0, 1.0, 0.0]) == 2.0

    def test_zero_input(self):
        w = ConvWeights(w1=np.array([1.0, 2.0]), w2=np.array([3.0, 4.0, 5.0]))
        assert forward(w, np.zeros(3)) == 0.0

    def test_linear_and_fc(self):
        x = np.array([1.0, -2.0, 0.5])
        w = np.array([2.0, 0.0, 4.0])
        assert forward(LinearWeights(w), x) == w @ x
        W1 = np.arange(9.0).reshape(3, 3)
        w2 = np.array([1.0, 0.0, -1.0])
        assert forward(FCWeights(W1, w2), x) == pytest.approx(w2 @ (W1 @ x))

    def test_effective_weights_collapse(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        conv = ConvWeights(w1=rng.standard_normal(3),
                           w2=rng.standard_normal(6))
        fc = FCWeights(W1=rng.standard_normal((6, 6)),
                       w2=rng.standard_normal(6))
        for w in (conv, fc, LinearWeights(rng.standard_normal(6))):
            assert forward(w, x) == pytest.approx(effective_weights(w) @ x,
                                                  abs=1e-12)

    def test_sparse_scores_match_dense(self):
        whole = whole_dataset("3rdctrl", 10)
        rng = np.random.default_rng(1)
        w = ConvWeights(w1=rng.standard_normal(3), w2=rng.standard_normal(10))
        np.testing.assert_allclose(scores(w, whole), scores(w, whole.X),
                                   atol=1e-12)


class TestErrorRule:
    def test_pointwise_values(self):
        assert error_from_margins([-2.0]) == 1.0
        assert error_from_margins([0.0]) == 0.5
        assert error_from_margins([7.0]) == 0.0
        assert error_from_margins([-2.0, 0.0, 7.0]) == 0.5

    def test_zero_tol_band(self):
        m = np.array([-2e-9, 1e-9, 0.5])
        assert error_from_margins(m) == pytest.approx(1.0 / 3.0)
        assert error_from_margins(m, zero_tol=1e-8) == pytest.approx(1.0 / 3.0)
        assert error_from_margins(m, zero_tol=np.array([1e-8, 1e-8, 0.0])) \
            == pytest.approx(1.0 / 3.0)

    def test_axis_vector_on_small_cls(self):
        # w = e_1 nails position 1 and leaves the other three at margin
        # zero: (2 * 0 + 6 * 1/2) / 8.
        whole = whole_dataset("cls", 4)
        w = LinearWeights(np.array([1.0, 0.0, 0.0, 0.0]))
        assert classification_error(w, whole) == 3.0 / 8.0

    def test_scale_invariance(self):
        whole = whole_dataset("parity", 9)
        rng = np.random.default_rng(2)
        w = LinearWeights(rng.standard_normal(9))
        scaled = LinearWeights(17.0 * w.w)
        assert classification_error(w, whole) == \
            classification_error(scaled, whole)


class TestHingeLoss:
    def test_fitted_set(self):
        tr = single_point_set("cls", 4, 1, 1.0, 1)
        assert hinge_loss(LinearWeights(np.array([2.0, 0, 0, 0])), tr) == 0.0

    def test_zero_weights(self):
        tr = single_point_set("cls", 4, 1, 1.0, 1)
        assert hinge_loss(LinearWeights(np.zeros(4)), tr) == 1.0

    def test_half_fitted_pair(self):
        tr = TrainingSet(task="cls", d=3,
                         positions=np.array([[0], [1]]),
                         values=np.ones((2, 1)),
                         y=np.array([1, 1]),
                         indices=np.array([0, 2]),
                         s_tr=frozenset({1, 2}))
        assert hinge_loss(LinearWeights(np.array([1.0, 0, 0])), tr) == 0.5


class TestInit:
    def test_xhinge_default_zeroes_output_layer(self):
        cfg = TrainConfig(loss="xhinge", max_steps=10)
        w = init_weights("conv", 20, 4, cfg, np.random.default_rng(0))
        assert np.any(w.w1 != 0.0)
        np.testing.assert_array_equal(w.w2, np.zeros(20))

    def test_deterministic(self):
        cfg = TrainConfig(loss="hinge")
        a = init_weights("fc", 8, 3, cfg, np.random.default_rng(5))
        b = init_weights("fc", 8, 3, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_gaussian_variance(self):
        cfg = TrainConfig(loss="hinge", b=0.1)
        rng = np.random.default_rng(6)
        draws = np.concatenate([
            init_weights("1layer", 1000, None, cfg, rng).w
            for _ in range(100)])
        assert draws.var() == pytest.approx(0.01, rel=0.05)

    def test_uniform_bounds(self):
        cfg = TrainConfig(loss="hinge", init="uniform", b=0.3)
        w = init_weights("conv", 500, 5, cfg, np.random.default_rng(7))
        assert np.abs(w.w2).max() <= 0.3
        assert np.abs(w.w2).max() > 0.15

    def test_unknown_model(self):
        cfg = TrainConfig(loss="hinge")
        with pytest.raises(ConfigError):
            init_weights("rnn", 8, 2, cfg, np.random.default_rng(0))

    def test_conv_needs_valid_width(self):
        cfg = TrainConfig(loss="hinge")
        with pytest.raises(ConfigError):
            init_weights("conv", 8, None, cfg, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            init_weights("conv", 8, 9, cfg, np.random.default_rng(0))


class TestTrainConfig:
    def test_per_loss_default_alpha(self):
        assert TrainConfig(loss="hinge").alpha == DEFAULT_ALPHA["hinge"]
        assert TrainConfig(loss="xhinge", max_steps=5).alpha == \
            DEFAULT_ALPHA["xhinge"]

    def test_stop_rules(self):
        assert TrainConfig(loss="hinge").stop_rule == "loss_zero"
        assert TrainConfig(loss="xhinge", max_steps=5).stop_rule == \
            "fixed_steps"
        with pytest.raises(ConfigError):
            TrainConfig(loss="xhinge", stop_rule="loss_zero")
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", stop_rule="sometimes")

    def test_renormalize_hinge_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", renormalize=True)

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="l2")
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", alpha=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", b=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", max_steps=-1)

    def test_init_schemes(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", init="cauchy")
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", init=("gaussian",))
        cfg = TrainConfig(loss="hinge", init=("zero", "uniform"))
        assert cfg._schemes(2) == ("zero", "uniform")


class TestHingeTraining:
    def test_one_step_hand_simulation(self):
        """From w = 0 with alpha = 1, one subgradient step on {(e_1,+1)}
        lands exactly on w = e_1 and fits the point."""
        tr = single_point_set("cls", 4, 1, 1.0, 1)
        cfg = TrainConfig(loss="hinge", alpha=1.0, init="zero")
        trace = train("1layer", tr, cfg, np.random.default_rng(0))
        assert trace.steps_run == 1
        assert trace.stop_reason == "loss-zero"
        np.testing.assert_array_equal(trace.train_loss, [1.0, 0.0])
        np.testing.assert_array_equal(trace.weights.w, [1.0, 0.0, 0.0, 0.0])
        whole = whole_dataset("cls", 4)
        assert classification_error(trace.weights, whole) == 3.0 / 8.0

    def test_two_step_conv_hand_simulation(self):
        # d=2, k=1, one training point e_1, start from w1=1, w2=0:
        # step 1 moves only w2 (filter gradient is s @ w2 = 0), step 2
        # moves both and reaches margin 1.25.
        tr = single_point_set("cls", 2, 1, 1.0, 1)
        cfg = TrainConfig(loss="hinge", alpha=0.5)
        w0 = ConvWeights(w1=np.array([1.0]), w2=np.zeros(2))
        trace = train("conv", tr, cfg, np.random.default_rng(0), k=1,
                      initial=w0, record_weights=True)
        assert trace.steps_run == 2
        np.testing.assert_allclose(trace.train_loss, [1.0, 0.5, 0.0])
        np.testing.assert_allclose(trace.weights.w1, [1.25])
        np.testing.assert_allclose(trace.weights.w2, [1.0, 0.0])
        np.testing.assert_allclose(trace.weights_per_step[1].w2, [0.5, 0.0])

    def test_fc_one_step_hand_simulation(self):
        tr = single_point_set("cls", 2, 1, 1.0, 1)
        cfg = TrainConfig(loss="hinge", alpha=1.0)
        w0 = FCWeights(W1=np.eye(2), w2=np.zeros(2))
        trace = train("fc", tr, cfg, np.random.default_rng(0), initial=w0)
        assert trace.steps_run == 1
        np.testing.assert_array_equal(trace.weights.W1, np.eye(2))
        np.testing.assert_array_equal(trace.weights.w2, [1.0, 0.0])
        whole = whole_dataset("cls", 2)
        assert classification_error(trace.weights, whole) == 0.25

    def test_updates_are_simultaneous(self):
        """Both conv layers step from the old values; a sequential
        update would double-count the filter move in w2."""
        tr = single_point_set("cls", 2, 1, 1.0, 1)
        cfg = TrainConfig(loss="hinge", alpha=1.0, max_steps=1,
                          stop_rule="fixed_steps")
        w0 = ConvWeights(w1=np.array([1.0]), w2=np.array([0.5, 0.0]))
        trace = train("conv", tr, cfg, np.random.default_rng(0), k=1,
                      initial=w0)
        np.testing.assert_allclose(trace.weights.w1, [1.5])
        np.testing.assert_allclose(trace.weights.w2, [1.5, 0.0])

    def test_initial_weights_not_mutated(self):
        tr = single_point_set("cls", 4, 2, 1.0, 1)
        w0 = ConvWeights(w1=np.array([0.1, 0.2]), w2=np.zeros(4))
        keep1, keep2 = w0.w1.copy(), w0.w2.copy()
        train("conv", tr, TrainConfig(loss="hinge"), np.random.default_rng(0),
              k=2, initial=w0)
        np.testing.assert_array_equal(w0.w1, keep1)
        np.testing.assert_array_equal(w0.w2, keep2)

    def test_eval_set_recording(self):
        whole = whole_dataset("cls", 20)
        tr = sample_training_set(whole, 10, np.random.default_rng(3))
        trace = train("1layer", tr, TrainConfig(loss="hinge"),
                      np.random.default_rng(4), eval_set=whole)
        assert not np.any(np.isnan(trace.test_error))
        assert trace.test_error[-1] == \
            classification_error(trace.weights, whole)
        bare = train("1layer", tr, TrainConfig(loss="hinge"),
                     np.random.default_rng(4))
        assert np.all(np.isnan(bare.test_error))

    def test_budget_exhaustion_flagged(self):
        whole = whole_dataset("3rdctrl", 30)
        tr = sample_training_set(whole, 100, np.random.default_rng(5))
        cfg = TrainConfig(loss="hinge", max_steps=3)
        trace = train("1layer", tr, cfg, np.random.default_rng(6))
        assert trace.stop_reason == "step-budget"
        assert trace.budget_exhausted

    def test_divergence_raises(self):
        """A step size that overflows the weights is a numerical failure,
        not a run whose NaN margins score as error 0."""
        whole = whole_dataset("cls", 20)
        rng = np.random.default_rng(0)
        tr = sample_training_set(whole, 10, rng)
        cfg = TrainConfig(loss="hinge", alpha=1e308, max_steps=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="not finite"):
                train("conv", tr, cfg, rng, k=3)

    def test_divergence_stops_at_once(self):
        """At the default step budget a diverged run raises within a few
        steps, naming the step, and numpy emits no RuntimeWarning."""
        whole = whole_dataset("cls", 20)
        rng = np.random.default_rng(0)
        tr = sample_training_set(whole, 10, rng)
        cfg = TrainConfig(loss="hinge", alpha=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="not finite") as info:
                train("conv", tr, cfg, rng, k=3)
        step = int(re.search(r"at step (\d+)", str(info.value)).group(1))
        assert 1 <= step <= 5

    def test_reaches_zero_loss_at_working_scale(self):
        """Default-configured hinge training fits every task at d=100,
        k=5 within the step budget (conv everywhere; the one-layer model
        included on the single-nonzero tasks)."""
        rng = np.random.default_rng(8)
        for task in ("cls", "1stctrl", "3rdctrl", "parity"):
            whole = whole_dataset(task, 100)
            tr = sample_training_set(whole, 60, rng)
            for model in ("conv",) if task == "3rdctrl" else ("conv", "1layer"):
                trace = train(model, tr, TrainConfig(loss="hinge"), rng, k=5)
                assert trace.stop_reason == "loss-zero", (task, model)
                assert hinge_loss(trace.weights, tr) == 0.0

    def test_constant_after_zero_loss(self):
        whole = whole_dataset("cls", 50)
        tr = sample_training_set(whole, 25, np.random.default_rng(9))
        cfg = TrainConfig(loss="hinge")
        trace = train("conv", tr, cfg, np.random.default_rng(10), k=5)
        assert trace.stop_reason == "loss-zero"
        more = train("conv", tr, continue_config(cfg, 5),
                     np.random.default_rng(11), k=5, initial=trace.weights)
        np.testing.assert_array_equal(more.weights.w1, trace.weights.w1)
        np.testing.assert_array_equal(more.weights.w2, trace.weights.w2)
        np.testing.assert_array_equal(more.train_loss, np.zeros(6))

    def test_fc_matches_onelayer_statistically(self):
        """Two-layer fully-connected training generalizes like the
        one-layer model: means within 3 pooled standard errors at
        (cls, d=100, n=200, 100 trials)."""
        whole = whole_dataset("cls", 100)
        rng = np.random.default_rng(77)
        e1, ef = [], []
        for _ in range(100):
            tr = sample_training_set(whole, 200, rng)
            t1 = train("1layer", tr, TrainConfig(loss="hinge"), rng)
            tf = train("fc", tr, TrainConfig(loss="hinge"), rng)
            e1.append(classification_error(t1.weights, whole))
            ef.append(classification_error(tf.weights, whole))
        e1, ef = np.asarray(e1), np.asarray(ef)
        pooled = np.hypot(e1.std(ddof=1), ef.std(ddof=1)) / np.sqrt(100)
        assert abs(e1.mean() - ef.mean()) <= 3.0 * pooled


class TestXhingeTraining:
    def test_single_step_example(self):
        # Training average for {(e_1,+1)} at d=k=2 is [[1,0],[0,0]]:
        # w1 is untouched (w2 starts at zero) and w2 picks up
        # alpha * M w1 = (0.5, 0).
        tr = single_point_set("cls", 2, 1, 1.0, 1)
        w0 = ConvWeights(w1=np.array([1.0, 0.0]), w2=np.zeros(2))
        trace = train("conv", tr, xhinge_config(steps=1, alpha=0.5),
                      np.random.default_rng(0), k=2, initial=w0)
        assert trace.stop_reason == "fixed-steps"
        np.testing.assert_allclose(trace.weights.w1, [1.0, 0.0])
        np.testing.assert_allclose(trace.weights.w2, [0.5, 0.0])

    def test_restricted_to_conv(self):
        tr = single_point_set("cls", 4, 1, 1.0, 1)
        for model in ("1layer", "fc"):
            with pytest.raises(ConfigError):
                train(model, tr, xhinge_config(steps=1),
                      np.random.default_rng(0))

    def test_positive_homogeneity(self):
        """Scaling the init by c scales the whole trajectory by c and
        leaves every recorded error untouched."""
        whole = whole_dataset("cls", 30)
        tr = sample_training_set(whole, 15, np.random.default_rng(12))
        cfg = xhinge_config(steps=40)
        w0 = ConvWeights(w1=np.random.default_rng(13).standard_normal(4),
                         w2=np.zeros(30))
        scaled = ConvWeights(w1=3.0 * w0.w1, w2=np.zeros(30))
        a = train("conv", tr, cfg, np.random.default_rng(0), k=4, initial=w0,
                  eval_set=whole, record_weights=True)
        b = train("conv", tr, cfg, np.random.default_rng(0), k=4,
                  initial=scaled, eval_set=whole, record_weights=True)
        for t in (1, 10, 40):
            np.testing.assert_allclose(b.weights_per_step[t].w2,
                                       3.0 * a.weights_per_step[t].w2,
                                       rtol=1e-12)
        np.testing.assert_array_equal(a.test_error, b.test_error)

    def test_renormalization_preserves_direction(self):
        """A renormalizing run at a rate hot enough to cross 1e100 stays
        parallel to the unrenormalized trajectory."""
        whole = whole_dataset("cls", 30)
        tr = sample_training_set(whole, 15, np.random.default_rng(14))
        w0 = ConvWeights(w1=np.random.default_rng(15).standard_normal(5),
                         w2=np.zeros(30))
        # 0.7 crosses the 1e100 threshold around step 840 while the
        # unrenormalized margins stay below the float64 ceiling.
        hot = TrainConfig(loss="xhinge", alpha=0.7, max_steps=1000)
        plain = TrainConfig(loss="xhinge", alpha=0.7, max_steps=1000,
                            renormalize=False)
        a = train("conv", tr, hot, np.random.default_rng(0), k=5, initial=w0,
                  eval_set=whole)
        b = train("conv", tr, plain, np.random.default_rng(0), k=5,
                  initial=w0, eval_set=whole)
        assert a.renormalizations >= 1
        assert b.renormalizations == 0
        assert np.all(np.isfinite(a.weights.w2))
        # The unrenormalized weights are huge (that is the point), so
        # bring both onto a safe scale before taking the cosine.
        u = a.weights.w2 / np.abs(a.weights.w2).max()
        v = b.weights.w2 / np.abs(b.weights.w2).max()
        cos = (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        assert cos == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(a.test_error, b.test_error)


class TestTraceSerialization:
    def test_csv_layout(self, tmp_path):
        tr = single_point_set("cls", 4, 1, 1.0, 1)
        cfg = TrainConfig(loss="hinge", alpha=1.0, init="zero")
        trace = train("1layer", tr, cfg, np.random.default_rng(0),
                      eval_set=whole_dataset("cls", 4))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,train_loss,train_err,test_err"
        assert lines[1].startswith("0,1.0,")
        assert len(lines) == 3
