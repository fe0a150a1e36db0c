"""Forward passes, losses, initialization, and gradient-descent training.

Training tests freeze tiny hand-simulated runs (one or two subgradient
steps worked out on paper) and check the larger-scale behaviour
statistically.
"""

import csv
import io
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from convlin.errors import ConfigError, NumericalError
from convlin.models import (
    DEFAULT_ALPHA,
    RENORM_THRESHOLD,
    TRACE_COLUMNS,
    ConvWeights,
    FCWeights,
    LinearWeights,
    TrainConfig,
    TrainTrace,
    _design_margins,
    classification_error,
    conv_collapse,
    effective_weights,
    error_from_margins,
    init_weights,
    margins,
    train,
)
from convlin.tasks import Dataset, sample_training_set, whole_dataset
from oracles import (
    convolve_collapse,
    dense,
    error_rate,
    forward,
    hinge_loss,
    point_margins,
    scalar_train,
)


def single_point_set(task, d, pos, value, y):
    """One-point training multiset at a 1-based position."""
    return Dataset(task=task, d=d,
                   positions=np.array([[pos - 1]]),
                   values=np.array([[float(value)]]),
                   y=np.array([y]))


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
        np.testing.assert_allclose(margins(w, whole),
                                   whole.y * (dense(whole) @ effective_weights(w)),
                                   atol=1e-12)

    @pytest.mark.parametrize("task", ("cls", "1stctrl", "parity", "3rdctrl"))
    def test_margins_match_point_major_oracle(self, task):
        """The signed design gives the point-major margins bit for bit,
        also where a two-term sum near 1e308 overflows to +-inf."""
        whole = whole_dataset(task, 12)
        rng = np.random.default_rng(3)
        cases = [LinearWeights(rng.standard_normal(12)),
                 ConvWeights(w1=rng.standard_normal(3),
                             w2=rng.standard_normal(12)),
                 FCWeights(W1=rng.standard_normal((12, 12)),
                           w2=rng.standard_normal(12)),
                 LinearWeights(1.7e308 * rng.uniform(-1.0, 1.0, 12))]
        for w in cases:
            got, want = margins(w, whole), point_margins(w, whole)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        if task == "3rdctrl":
            assert np.isinf(got).any()


# Weight entries that a collapse or a margin must carry through exactly.
SPECIAL_VALUES = (0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300,
                  1e-300, -1e-300, 1.0, -2.5)


def special_weights(rng, shape):
    """Entries drawn half from SPECIAL_VALUES and half from standard
    normals scaled by 1e-300, 1 or 1e300."""
    pool = rng.choice(SPECIAL_VALUES, size=shape)
    scaled = rng.standard_normal(shape) * rng.choice((1e-300, 1.0, 1e300), size=shape)
    return np.where(rng.random(shape) < 0.5, pool, scaled)


# (d, k): k <= 4 runs numpy's small-kernel correlation path.
COLLAPSE_SHAPES = [(d, k) for d in (5, 100) for k in sorted({1, 2, 4, 5, 20, d})
                   if k <= d]


class TestConvCollapse:
    """`conv_collapse` gives np.convolve's effective weights bit for bit,
    down to the sign of a zero and the bits of a NaN."""

    @pytest.mark.parametrize("d,k", COLLAPSE_SHAPES)
    def test_matches_convolve(self, d, k):
        rng = np.random.default_rng(d * 100 + k)
        for _ in range(100):
            w1, w2 = rng.standard_normal(k), rng.standard_normal(d)
            got = conv_collapse(w1, w2)
            assert got.shape == (d,)
            assert got.tobytes() == convolve_collapse(w1, w2).tobytes()

    @pytest.mark.parametrize("d,k", COLLAPSE_SHAPES)
    def test_matches_convolve_on_special_values(self, d, k):
        rng = np.random.default_rng(d * 100 + k + 1)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for _ in range(100):
                w1, w2 = special_weights(rng, k), special_weights(rng, d)
                want = convolve_collapse(w1, w2)
                assert conv_collapse(w1, w2).tobytes() == want.tobytes()


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

    def test_design_error_matches(self):
        """The sum of signs counts as the masks of the oracle do, on one
        row or a (rows, n) stack, with or without a per-point tolerance:
        a NaN margin is neither wrong nor tied, -0.0 is a tie."""
        rows = np.array([[-1.0, 0.0, np.nan, 2.0, -0.0, np.inf, -np.inf],
                         [np.nan, np.nan, 1.0, 1.0, 1.0, -3.0, 5e-324],
                         [-5e-324, 1e-9, -1e-9, 2e-8, -2e-8, 0.0, 3.0]])
        tols = (None, 0.0, 1e-8, np.array([0.0, 1e-8, 0.0, 1e-8, 1e-8, 0.0,
                                           np.inf]))
        for tol in tols:
            want = [error_rate(row, 0.0 if tol is None else tol)
                    for row in rows]
            assert error_from_margins(rows, tol).tolist() == want
            assert [error_from_margins(row, tol) for row in rows] == want

    @pytest.mark.parametrize("task,d", [("cls", 7), ("cls", 100), ("1stctrl", 12),
                                        ("3rdctrl", 12), ("parity", 9)])
    def test_distinct_columns_count_as_the_points(self, task, d):
        """The error over a dataset's distinct columns, each weighted by
        its count, equals the error over every point, for margins that
        hold NaN, +-0 and +-inf: on the whole dataset, and on a training
        set drawn from it, whose columns are shared unevenly."""
        rng = np.random.default_rng(d)
        whole = whole_dataset(task, d)
        for data in (whole, sample_training_set(whole, 3 * d, rng)):
            design, counts = data.distinct
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                for _ in range(20):
                    c = special_weights(rng, (50, d))
                    full = error_from_margins(_design_margins(c, data.signed))
                    got = error_from_margins(_design_margins(c, design),
                                             counts=counts)
                    assert got.tobytes() == full.tobytes()
                    assert [error_from_margins(_design_margins(row, design),
                                               counts=counts) for row in c] \
                        == full.tolist()

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
        tr = Dataset(task="cls", d=3,
                     positions=np.array([[0], [1]]),
                     values=np.ones((2, 1)),
                     y=np.array([1, 1]))
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
        assert DEFAULT_ALPHA == 0.1
        assert TrainConfig(loss="hinge").alpha == DEFAULT_ALPHA
        assert TrainConfig(loss="xhinge", max_steps=5).alpha == DEFAULT_ALPHA

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="l2")
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", alpha=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", b=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", max_steps=-1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TrainConfig(loss="hinge", alpha=bad)
            with pytest.raises(ConfigError):
                TrainConfig(loss="hinge", b=bad)

    def test_init_schemes(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", init="cauchy")
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge", init=("gaussian", "zero"))


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
        cfg = TrainConfig(loss="hinge", alpha=1.0, max_steps=1)
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
        """A run that stops at zero loss stops at a fixed point: five
        more steps of the reference loop move no weight."""
        whole = whole_dataset("cls", 50)
        tr = sample_training_set(whole, 25, np.random.default_rng(9))
        cfg = TrainConfig(loss="hinge")
        trace = train("conv", tr, cfg, np.random.default_rng(10), k=5)
        assert trace.stop_reason == "loss-zero"
        more = scalar_train("conv", tr, replace(cfg, max_steps=5), None,
                            initial=trace.weights, past_fit=True)
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
        cfg = TrainConfig(loss="xhinge", alpha=0.5, max_steps=1)
        trace = train("conv", tr, cfg, np.random.default_rng(0), k=2,
                      initial=w0)
        assert trace.stop_reason == "fixed-steps"
        np.testing.assert_allclose(trace.weights.w1, [1.0, 0.0])
        np.testing.assert_allclose(trace.weights.w2, [0.5, 0.0])

    def test_restricted_to_conv(self):
        tr = single_point_set("cls", 4, 1, 1.0, 1)
        for model in ("1layer", "fc"):
            with pytest.raises(ConfigError):
                train(model, tr, TrainConfig(loss="xhinge", max_steps=1),
                      np.random.default_rng(0))

    def test_positive_homogeneity(self):
        """Scaling the init by c scales the whole trajectory by c and
        leaves every recorded error untouched."""
        whole = whole_dataset("cls", 30)
        tr = sample_training_set(whole, 15, np.random.default_rng(12))
        cfg = TrainConfig(loss="xhinge", max_steps=40)
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
        a = train("conv", tr, hot, np.random.default_rng(0), k=5, initial=w0,
                  eval_set=whole)
        b = scalar_train("conv", tr, hot, np.random.default_rng(0), k=5,
                         initial=w0, eval_set=whole, renormalize=False)
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


def _max_abs(weights):
    """The joint max-abs of a conv model's two layers."""
    return max(np.abs(weights.w1).max(), np.abs(weights.w2).max())


def assert_same_weights(a, b):
    assert type(a) is type(b)
    for name, tensor in vars(a).items():
        other = getattr(b, name)
        assert np.array_equal(tensor, other), name
        assert np.array_equal(np.signbit(tensor), np.signbit(other)), name


def assert_same_trace(a, b):
    for name in ("steps", "train_loss", "train_error", "test_error"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y, equal_nan=True), name
    assert a.stop_reason == b.stop_reason
    assert a.renormalizations == b.renormalizations
    assert_same_weights(a.weights, b.weights)
    assert len(a.weights_per_step) == len(b.weights_per_step)
    for u, v in zip(a.weights_per_step, b.weights_per_step):
        assert_same_weights(u, v)


# (d, k) pairs: at d = 40, k = 10 the lag dots have lengths 31..40, which
# a BLAS dot can group differently from one zero-padded length-40 dot.
ORACLE_SHAPES = ((20, 3), (40, 10))
ORACLE_RUNS = [("1layer", "hinge"), ("conv", "hinge"), ("fc", "hinge"),
               ("conv", "xhinge")]


class TestScalarOracle:
    """`train` against the per-lag scalar loop it replaced: every trace
    field, snapshot and final weight tensor is bitwise equal."""

    @pytest.mark.parametrize("d,k", ORACLE_SHAPES)
    @pytest.mark.parametrize("task", ("cls", "1stctrl", "parity", "3rdctrl"))
    @pytest.mark.parametrize("model,loss", ORACLE_RUNS)
    @pytest.mark.parametrize("init", ("gaussian", "uniform", "zero"))
    @pytest.mark.parametrize("with_eval", (False, True))
    def test_bitwise_equal(self, d, k, task, model, loss, init, with_eval):
        whole = whole_dataset(task, d)
        tr = sample_training_set(whole, 25, np.random.default_rng(d + k))
        if loss == "hinge":
            cfg = TrainConfig(loss="hinge", init=init, max_steps=400)
        else:
            # "zero" stands for xhinge's default: a zero output layer
            # under a gaussian filter (an all-zero run never moves).
            init = None if init == "zero" else init
            cfg = TrainConfig(loss="xhinge", init=init, max_steps=150)
        eval_set = whole if with_eval else None
        want = scalar_train(model, tr, cfg, np.random.default_rng(7), k=k,
                            eval_set=eval_set, record_weights=True)
        got = train(model, tr, cfg, np.random.default_rng(7), k=k,
                    eval_set=eval_set, record_weights=True)
        assert_same_trace(got, want)

    def test_continued_run_after_zero_loss(self):
        """The reference loop run for fixed steps past a set that `train`
        fitted leaves every weight untouched, down to the sign of a zero:
        the check that criterion 9 runs on every fitted hinge run."""
        whole = whole_dataset("cls", 40)
        tr = sample_training_set(whole, 20, np.random.default_rng(1))
        cfg = TrainConfig(loss="hinge")
        more = replace(cfg, max_steps=3)
        for model in ("1layer", "conv", "fc"):
            first = train(model, tr, cfg, np.random.default_rng(2), k=10)
            assert first.stop_reason == "loss-zero"
            got = scalar_train(model, tr, more, None, initial=first.weights,
                               record_weights=True, past_fit=True)
            assert got.stop_reason == "fixed-steps"
            np.testing.assert_array_equal(got.steps, np.arange(4))
            np.testing.assert_array_equal(got.train_loss, np.zeros(4))
            for w in (got.weights, *got.weights_per_step):
                assert_same_weights(w, first.weights)
        # The positions no training point uses do not move the margins.
        w = train("1layer", tr, cfg, np.random.default_rng(2)).weights.w
        w[np.setdiff1d(np.arange(40), tr.positions)] = -0.0
        got = scalar_train("1layer", tr, more, None, initial=LinearWeights(w),
                           past_fit=True)
        assert np.all(np.signbit(got.weights.w) == np.signbit(w))

    @pytest.mark.parametrize("model", ("1layer", "conv", "fc"))
    @pytest.mark.parametrize("task,max_steps", [("cls", 100_000),
                                                ("3rdctrl", 2000)])
    @pytest.mark.parametrize("with_eval", (False, True))
    def test_linear_blocks_at_scale(self, task, max_steps, with_eval, model):
        """d = 100, k = 5, n = 300: hundreds of steps, scored in batches
        of up to 27 rows.  A 1layer cls run takes blocks of tens of steps
        to zero loss.  The 3rdctrl active set changes at almost every
        step, and its 9900-point whole set caps a batch at one row."""
        whole = whole_dataset(task, 100)
        tr = sample_training_set(whole, 300, np.random.default_rng(11))
        cfg = TrainConfig(loss="hinge", max_steps=max_steps)
        eval_set = whole if with_eval else None
        want = scalar_train(model, tr, cfg, np.random.default_rng(12), k=5,
                            eval_set=eval_set, record_weights=True)
        got = train(model, tr, cfg, np.random.default_rng(12), k=5,
                    eval_set=eval_set, record_weights=True)
        assert_same_trace(got, want)

    @pytest.mark.parametrize("max_steps", (1, 2, 37))
    def test_linear_budget_inside_block(self, max_steps):
        """The step budget ends the run inside the first block, whose
        active set holds for hundreds of steps."""
        whole = whole_dataset("cls", 100)
        tr = sample_training_set(whole, 300, np.random.default_rng(11))
        cfg = TrainConfig(loss="hinge", max_steps=max_steps)
        want = scalar_train("1layer", tr, cfg, np.random.default_rng(12),
                            eval_set=whole, record_weights=True)
        got = train("1layer", tr, cfg, np.random.default_rng(12),
                    eval_set=whole, record_weights=True)
        assert got.stop_reason == "step-budget"
        assert_same_trace(got, want)

    @pytest.mark.parametrize("d,k", ORACLE_SHAPES)
    @pytest.mark.parametrize("alpha,max_steps,rescales", [
        (0.7, 1000, 1), (1e30, 300, 75), (1e200, 200, 200)])
    def test_xhinge_rescaling_blocks(self, d, k, alpha, max_steps, rescales):
        """Extreme-hinge blocks that rescale: once, near step 840, at
        alpha 0.7; every fourth step at 1e30; and at every step at
        1e200."""
        whole = whole_dataset("cls", d)
        tr = sample_training_set(whole, 25, np.random.default_rng(d + k))
        cfg = TrainConfig(loss="xhinge", alpha=alpha, max_steps=max_steps)
        want = scalar_train("conv", tr, cfg, np.random.default_rng(7), k=k,
                            eval_set=whole, record_weights=True)
        got = train("conv", tr, cfg, np.random.default_rng(7), k=k,
                    eval_set=whole, record_weights=True)
        assert got.renormalizations == rescales
        assert_same_trace(got, want)

    @pytest.mark.parametrize("alpha", (0.1, 1e30, 1e200))
    @pytest.mark.parametrize("max_steps", (1, 2, 37, 81, 82))
    def test_xhinge_budget_inside_block(self, alpha, max_steps):
        """At d = 100 and n = 30, with the 200-point whole set, of 100
        distinct columns, as eval set, a batch holds 81 rows: these
        budgets end the run inside the first batch, on its last row or
        on the first row of the second, with or without rescales."""
        whole = whole_dataset("cls", 100)
        tr = sample_training_set(whole, 30, np.random.default_rng(11))
        cfg = TrainConfig(loss="xhinge", alpha=alpha, max_steps=max_steps)
        want = scalar_train("conv", tr, cfg, np.random.default_rng(12), k=5,
                            eval_set=whole, record_weights=True)
        got = train("conv", tr, cfg, np.random.default_rng(12), k=5,
                    eval_set=whole, record_weights=True)
        assert got.steps_run == max_steps
        assert_same_trace(got, want)

    # Growth windows: a row past RENORM_THRESHOLD is scanned only if it lies
    # past the window of the last scanned row (see _conv_xhinge).

    @pytest.mark.parametrize("alpha,start,max_steps", [
        # Rounding makes each step grow by a little more than g = 1 + alpha.
        pytest.param(2.0**-50, RENORM_THRESHOLD / (1 + 2.0**-50) ** 100, 300,
                     id="tiny-alpha"),
        # The window's log quotient comes out at exactly 2 rows.
        pytest.param(2.0**100, np.nextafter(RENORM_THRESHOLD * 2.0**-300, np.inf),
                     12, id="huge-alpha"),
    ])
    def test_xhinge_growth_at_the_bound(self, alpha, start, max_steps):
        """k = 1 and one training point, with w1 equal to the w2 entry it
        meets: the max-abs grows by exactly g = 1 + alpha per step in exact
        arithmetic, the fastest that the window allows."""
        tr = single_point_set("cls", 4, 1, 1.0, 1)
        w0 = ConvWeights(w1=np.array([start]), w2=np.array([start, 0.0, 0.0, 0.0]))
        cfg = TrainConfig(loss="xhinge", alpha=alpha, max_steps=max_steps)
        want = scalar_train("conv", tr, cfg, None, initial=w0, record_weights=True)
        got = train("conv", tr, cfg, None, initial=w0, record_weights=True)
        assert want.renormalizations >= 1
        assert_same_trace(got, want)

    @staticmethod
    def _d100_sets():
        """d = 100 and n = 30 with the whole set as eval set: each block
        holds 81 rows, steps 1-81, 82-162 and so on."""
        whole = whole_dataset("cls", 100)
        return whole, sample_training_set(whole, 30, np.random.default_rng(11))

    def _assert_matches_at_d100(self, w0, alpha, max_steps, first_rescale=None):
        """Train from ``w0`` on the d = 100 sets, which first passes
        RENORM_THRESHOLD at step ``first_rescale`` if one is given."""
        whole, tr = self._d100_sets()
        cfg = TrainConfig(loss="xhinge", alpha=alpha, max_steps=max_steps)
        if first_rescale is not None:
            free = scalar_train("conv", tr, replace(cfg, max_steps=first_rescale),
                                None, initial=w0, record_weights=True,
                                renormalize=False)
            tops = list(map(_max_abs, free.weights_per_step))
            assert max(tops[:-1]) <= RENORM_THRESHOLD < tops[-1]
        want = scalar_train("conv", tr, cfg, None, initial=w0, eval_set=whole,
                            record_weights=True)
        got = train("conv", tr, cfg, None, initial=w0, eval_set=whole,
                    record_weights=True)
        assert_same_trace(got, want)
        return got

    def test_xhinge_rescale_in_first_rows(self):
        """A start at max-abs 1e99 rescales within the first block's first
        rows."""
        rng = np.random.default_rng(5)
        w0 = ConvWeights(w1=rng.standard_normal(5), w2=rng.standard_normal(100))
        scale = 1e99 / _max_abs(w0)
        w0 = ConvWeights(w1=w0.w1 * scale, w2=w0.w2 * scale)
        self._assert_matches_at_d100(w0, 5.0, 100, first_rescale=5)

    @pytest.mark.parametrize("last_row", (40, 80, 81, 162))
    def test_xhinge_rescale_on_last_row(self, last_row):
        """The init is scaled so that the first rescale falls on the last
        row of the first or the second block (81, 162), or inside them."""
        _, tr = self._d100_sets()
        rng = np.random.default_rng(6)
        w0 = ConvWeights(w1=rng.standard_normal(5), w2=rng.standard_normal(100))
        free = scalar_train("conv", tr, TrainConfig(loss="xhinge", alpha=0.5,
                                                    max_steps=last_row),
                            None, initial=w0, record_weights=True)
        before, at = map(_max_abs, free.weights_per_step[-2:])
        scale = RENORM_THRESHOLD / np.sqrt(before * at)
        scaled = ConvWeights(w1=w0.w1 * scale, w2=w0.w2 * scale)
        got = self._assert_matches_at_d100(scaled, 0.5, max(150, last_row + 50),
                                           first_rescale=last_row)
        assert got.renormalizations >= 1

    def test_xhinge_at_init_study_shape(self):
        """One xhinge run as init-study makes it: d = 100, k = 5, n = 30,
        a uniform init and 1000 steps scored on the whole set, of which
        the run counts 100 distinct columns.  The init is not mutated."""
        whole, tr = self._d100_sets()
        w0 = init_weights("conv", 100, 5, TrainConfig(init="uniform"),
                          np.random.default_rng(8))
        before = w0.copy()
        cfg = TrainConfig(loss="xhinge", max_steps=1000)
        want = scalar_train("conv", tr, cfg, None, initial=w0, eval_set=whole,
                            record_weights=True)
        got = train("conv", tr, cfg, None, initial=w0, eval_set=whole,
                    record_weights=True)
        assert got.steps_run == 1000
        assert_same_trace(got, want)
        assert_same_weights(w0, before)

    def test_xhinge_zero_start(self):
        """All-zero weights never move; a zero max-abs gives no window."""
        w0 = ConvWeights(w1=np.zeros(5), w2=np.zeros(100))
        got = self._assert_matches_at_d100(w0, 0.1, 90)
        assert got.renormalizations == 0
        assert not np.any(got.weights.w2)

    def test_linear_divergence_matches(self):
        """No one-layer run from the default init scale diverged, even at
        alpha = 1.7e308; at b = 1 this 3rdctrl run overflows in its first
        step."""
        whole = whole_dataset("3rdctrl", 3)
        tr = sample_training_set(whole, 9, np.random.default_rng(19))
        cfg = TrainConfig(loss="hinge", alpha=1.2e308, b=1.0)
        with pytest.raises(NumericalError) as want:
            scalar_train("1layer", tr, cfg, np.random.default_rng(20),
                         eval_set=whole)
        with pytest.raises(NumericalError) as got:
            train("1layer", tr, cfg, np.random.default_rng(20), eval_set=whole)
        assert str(got.value) == str(want.value)
        assert "the loss at step 1 is not finite" in str(got.value)

    @pytest.mark.parametrize("model,cfg", [
        ("conv", TrainConfig(loss="hinge", alpha=1e3)),
        ("conv", TrainConfig(loss="hinge", alpha=1e308)),
        ("fc", TrainConfig(loss="hinge", alpha=1e308)),
        # The id keeps the name this case had when unrescaled xhinge
        # cases (cfg3, cfg4, cfg6) sat beside it.
        pytest.param("conv", TrainConfig(loss="xhinge", alpha=1e300, b=1e9),
                     id="conv-cfg5"),
    ])
    def test_divergence_matches(self, model, cfg):
        """A diverging run raises at the same step with the same message
        (steps 59 and 1 for these runs).  At alpha = 1e300 and b = 1e9
        the first step overflows, and a rescale by an infinite factor
        leaves NaN weights."""
        whole = whole_dataset("cls", 20)
        tr = sample_training_set(whole, 10, np.random.default_rng(3))
        with pytest.raises(NumericalError) as want:
            scalar_train(model, tr, cfg, np.random.default_rng(4), k=3,
                         eval_set=whole)
        with pytest.raises(NumericalError) as got:
            train(model, tr, cfg, np.random.default_rng(4), k=3,
                  eval_set=whole)
        assert str(got.value) == str(want.value)


def _per_element_rows(trace):
    """The trace rows formatted one element at a time."""
    for i in range(trace.steps.shape[0]):
        te = trace.test_error[i]
        yield [int(trace.steps[i]), repr(float(trace.train_loss[i])),
               repr(float(trace.train_error[i])),
               "" if np.isnan(te) else repr(float(te))]


def _csv_text(rows):
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


class TestTraceSerialization:
    def test_rows_match_per_element_formatting(self):
        """Rows read column by column write the same text as rows
        formatted element by element: -0.0, a NaN test_err as "", and
        the shortest repr of every float."""
        values = np.array([1.0, -0.0, 0.1 + 0.2, 1e-300, -2.5e17, np.inf])
        made = TrainTrace(steps=np.arange(6), train_loss=values,
                          train_error=values[::-1].copy(),
                          test_error=np.array([0.5, np.nan, -0.0, 1 / 3,
                                               np.nan, 0.0]),
                          weights=None, stop_reason="fixed-steps")
        whole = whole_dataset("cls", 30)
        tr = sample_training_set(whole, 15, np.random.default_rng(12))
        runs = [train("conv", tr, TrainConfig(loss="xhinge", max_steps=60),
                      np.random.default_rng(3), k=4, eval_set=eval_set)
                for eval_set in (whole, None)]
        for trace in (made, *runs):
            got = _csv_text(trace.csv_rows())
            assert got == _csv_text(_per_element_rows(trace))
        assert _csv_text(made.csv_rows()).splitlines()[1] == "1,-0.0,-2.5e+17,"

    def test_csv_layout(self):
        tr = single_point_set("cls", 4, 1, 1.0, 1)
        cfg = TrainConfig(loss="hinge", alpha=1.0, init="zero")
        trace = train("1layer", tr, cfg, np.random.default_rng(0),
                      eval_set=whole_dataset("cls", 4))
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(trace.csv_rows())
        lines = text.getvalue().strip().splitlines()
        assert lines[0] == "t,train_loss,train_err,test_err"
        assert lines[1].startswith("0,1.0,")
        assert len(lines) == 3
