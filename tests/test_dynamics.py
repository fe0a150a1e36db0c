"""Closed-form extreme-hinge iterates and their normalized limit.

The closed form is checked against literal iterative training, the
limit against the closed form at the largest representable step count,
and the degenerate (tied top singular value) paths against hand-built
training sets where everything is known exactly.
"""

import numpy as np
import pytest

from convlin.dynamics import (
    ZERO_MARGIN_FRAC,
    AsymptoticWeights,
    _tie_scale,
    asymptotic_error,
    asymptotic_error_estimate,
    asymptotic_error_for_trainset,
    asymptotic_weights,
    closed_form_weights,
)
from convlin.errors import StepOverflowError
from convlin.linalg import fix_top_pair_sign, thin_svd
from convlin.models import ConvWeights, TrainConfig, train
from convlin.shift import training_average
from convlin.tasks import Dataset, sample_training_set, whole_dataset
from convlin.theory import sparse_training_set
from oracles import (
    asymptotic_error_alone,
    asymptotic_margin,
    degenerate_error_per_draw,
    dense_point,
)


def _unit(v):
    """Normalize via max-abs first so huge closed-form iterates do not
    overflow the norm."""
    v = v / np.abs(v).max()
    return v / np.linalg.norm(v)


def make_training_set(d, points):
    """Training set from explicit (position, value, label) triples."""
    positions = np.array([[p - 1] for p, _, _ in points])
    values = np.array([[float(v)] for _, v, _ in points])
    y = np.array([lab for _, _, lab in points])
    return Dataset(task="cls", d=d, positions=positions, values=values, y=y)


@pytest.fixture(scope="module")
def cls100():
    return whole_dataset("cls", 100)


class TestClosedForm:
    def test_step_zero_is_identity(self):
        rng = np.random.default_rng(0)
        mtr = np.abs(rng.standard_normal((12, 4)))
        w1_0, w2_0 = rng.standard_normal(4), rng.standard_normal(12)
        step = closed_form_weights(w1_0, w2_0, mtr, 0.1, 0)
        np.testing.assert_allclose(step.w1, w1_0, atol=1e-13)
        np.testing.assert_allclose(step.w2, w2_0, atol=1e-13)

    def test_one_step_matches_update_rule(self):
        rng = np.random.default_rng(1)
        whole = whole_dataset("cls", 20)
        tr = sample_training_set(whole, 8, rng)
        w0 = ConvWeights(w1=rng.standard_normal(3),
                         w2=rng.standard_normal(20))
        cfg = TrainConfig(loss="xhinge", alpha=0.1, max_steps=1)
        trace = train("conv", tr, cfg, rng, k=3, initial=w0)
        step = closed_form_weights(w0.w1, w0.w2, training_average(tr, 3),
                                   0.1, 1)
        np.testing.assert_allclose(step.w1, trace.weights.w1, atol=1e-14)
        np.testing.assert_allclose(step.w2, trace.weights.w2, atol=1e-14)

    def test_hundred_steps_match_iterative(self, cls100):
        rng = np.random.default_rng(2)
        tr = sample_training_set(cls100, 30, rng)
        w0 = ConvWeights(w1=rng.standard_normal(5), w2=np.zeros(100))
        cfg = TrainConfig(loss="xhinge", alpha=0.1, max_steps=100)
        trace = train("conv", tr, cfg, rng, k=5, initial=w0)
        step = closed_form_weights(w0.w1, w0.w2, training_average(tr, 5),
                                   0.1, 100)
        np.testing.assert_allclose(step.w1, trace.weights.w1,
                                   rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(step.w2, trace.weights.w2,
                                   rtol=1e-8, atol=1e-12)

    def test_overflow_guard_reports_largest_safe_step(self, cls100):
        tr = sample_training_set(cls100, 40, np.random.default_rng(3))
        mtr = training_average(tr, 5)
        w1_0 = np.ones(5)
        with pytest.raises(StepOverflowError) as exc:
            closed_form_weights(w1_0, np.zeros(100), mtr, 0.1, 10**9)
        max_t = exc.value.max_t
        assert max_t > 1000
        step = closed_form_weights(w1_0, np.zeros(100), mtr, 0.1, max_t)
        assert np.all(np.isfinite(step.w1))
        assert np.all(np.isfinite(step.w2))

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            closed_form_weights(np.ones(2), np.zeros(3),
                                np.ones((3, 2)), 0.1, -1)


class TestAsymptoticWeights:
    def test_diagonal_average(self):
        # Top singular triple of diag(2, 1) padded to 3 rows is
        # (sigma, u, v) = (2, e_1, e_1), so only the first coordinate
        # of the init survives.
        mtr = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        aw = asymptotic_weights(np.array([3.0, 4.0]), mtr)
        assert aw.m == 1
        np.testing.assert_allclose(aw.w1, [3.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(aw.w2, [3.0, 0.0, 0.0], atol=1e-12)

    def test_norms_always_match(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mtr = np.abs(rng.standard_normal((15, 4)))
            aw = asymptotic_weights(rng.standard_normal(4), mtr)
            assert np.linalg.norm(aw.w1) == \
                pytest.approx(np.linalg.norm(aw.w2), rel=1e-12)

    def test_orthogonal_design_preserves_init(self):
        """When the training average has all singular values equal the
        projection is the identity and the filter init passes through."""
        sp = sparse_training_set(100, 5, 3)
        mtr = training_average(sp, 5)
        w0 = np.random.default_rng(10).standard_normal(5)
        aw = asymptotic_weights(w0, mtr)
        assert aw.m == 5
        np.testing.assert_allclose(aw.w1, w0, atol=1e-12)

    def test_iterates_converge_in_angle(self, cls100):
        """The closed-form direction approaches the asymptotic one and
        the angle keeps shrinking (to roundoff) after a short burn-in."""
        rng = np.random.default_rng(4)
        tr = sample_training_set(cls100, 40, rng)
        mtr = training_average(tr, 5)
        w1_0 = rng.standard_normal(5)
        with pytest.raises(StepOverflowError) as exc:
            closed_form_weights(w1_0, np.zeros(100), mtr, 0.1, 10**9)
        tstar = exc.value.max_t
        aw = asymptotic_weights(w1_0, mtr)
        assert aw.m == 1
        target = _unit(aw.w2)

        def angle(t):
            step = closed_form_weights(w1_0, np.zeros(100), mtr, 0.1, t)
            return 1.0 - float(_unit(step.w2) @ target)

        assert angle(tstar) <= 1e-9
        stride = tstar // 60
        gaps = np.array([angle(t) for t in range(stride, tstar + 1, stride)])
        assert np.all(np.diff(gaps)[2:] <= 1e-12)


class TestAsymptoticMargins:
    def test_orthogonal_design_training_margins(self):
        # With unit inputs at spacing 2k the shifted copies never
        # collide, so every training margin equals |w1_0|^2 / sqrt(n).
        sp = sparse_training_set(100, 5, 3)
        mtr = training_average(sp, 5)
        w0 = np.random.default_rng(10).standard_normal(5)
        aw = asymptotic_weights(w0, mtr)
        expected = float(w0 @ w0) / np.sqrt(3.0)
        for i in range(len(sp)):
            assert asymptotic_margin(dense_point(sp, i), aw, 5) == \
                pytest.approx(expected, rel=1e-12)
            assert asymptotic_margin(dense_point(sp, i), aw, 5) > 0.0

    def test_uncovered_position_margin_is_exactly_zero(self, cls100):
        """A test position far outside the trained band has a margin
        that is structurally zero, not merely small."""
        tr = make_training_set(100, [(10, 1.0, 1), (11, 1.0, 1)])
        aw = asymptotic_weights(np.random.default_rng(6).standard_normal(5),
                                training_average(tr, 5))
        far = dense_point(cls100, 2 * 49)
        assert np.array_equal(far.x, np.eye(100)[49])
        assert asymptotic_margin(far, aw, 5) == 0.0

    def test_error_scores_zero_margins_as_ties(self, cls100):
        tr = make_training_set(100, [(10, 1.0, 1), (11, 1.0, 1)])
        aw = asymptotic_weights(np.random.default_rng(7).standard_normal(5),
                                training_average(tr, 5))
        err = asymptotic_error(aw, cls100)
        # The output weights live on positions 6..11 and the width-5
        # filter widens that band to 6..15; the other 90 positions are
        # ties worth one half each.
        margins = [asymptotic_margin(dense_point(cls100, i), aw, 5)
                   for i in range(len(cls100))]
        ties = sum(1 for m in margins if m == 0.0)
        wrong = sum(1 for m in margins if m < 0.0)
        assert err == (wrong + 0.5 * ties) / len(cls100)
        assert ties >= 2 * 90

    def test_error_invariant_to_init_scale(self, cls100):
        tr = sample_training_set(cls100, 20, np.random.default_rng(8))
        mtr = training_average(tr, 5)
        w0 = np.random.default_rng(9).standard_normal(5)
        a = asymptotic_error(asymptotic_weights(w0, mtr), cls100)
        b = asymptotic_error(asymptotic_weights(4.0 * w0, mtr), cls100)
        assert a == b


class TestTrainsetError:
    def test_simple_top_value_ignores_init(self, cls100):
        """With a simple top singular value the limiting error is the
        same for every generic init, and matches the sign-fixed pair."""
        tr = sample_training_set(cls100, 40, np.random.default_rng(11))
        mtr = training_average(tr, 5)
        err, degenerate = asymptotic_error_for_trainset(
            cls100, tr, 5, rng=np.random.default_rng(0))
        assert not degenerate
        rng = np.random.default_rng(12)
        for _ in range(3):
            aw = asymptotic_weights(rng.standard_normal(5), mtr)
            assert asymptotic_error(aw, cls100) == pytest.approx(err,
                                                                 abs=1e-12)

    def test_degenerate_single_sample_matches_oracle(self, cls100):
        """One training point (e_50, +1) ties all k singular values, so
        the limit depends on the init.  Averaged over gaussian inits the
        error is (d - 1) / (2 d): position 50 is always right, and every
        other position is right, wrong, or tied with equal signed mass."""
        tr = make_training_set(100, [(50, 1.0, 1)])
        err, degenerate = asymptotic_error_for_trainset(
            cls100, tr, 5, rng=np.random.default_rng(21),
            degenerate_draws=400)
        assert degenerate
        assert err == pytest.approx(0.495, abs=0.01)

    def test_degenerate_without_rng_rejected(self, cls100):
        tr = make_training_set(100, [(50, 1.0, 1)])
        with pytest.raises(ValueError):
            asymptotic_error_for_trainset(cls100, tr, 5)

    @pytest.mark.parametrize("draws", [0, -1])
    def test_draw_count_validated(self, cls100, draws):
        """Rejected on a simple top pair too, not only once a degenerate
        set turns up."""
        for tr in (make_training_set(100, [(50, 1.0, 1)]),
                   sample_training_set(cls100, 40, np.random.default_rng(11))):
            with pytest.raises(ValueError, match="degenerate_draws"):
                asymptotic_error_for_trainset(
                    cls100, tr, 5, rng=np.random.default_rng(0),
                    degenerate_draws=draws)


def _degenerate_sets():
    """(training set, multiplicity) at k = 5 for the block-scoring cases:
    cls sets whose top singular value is tied 2 to 5 times, and the
    evenly spaced set, whose structural zeros exercise the tie
    tolerance."""
    cls100 = whole_dataset("cls", 100)
    cases = [pytest.param(sample_training_set(cls100, n, np.random.default_rng(seed)),
                          m, id=f"cls-n{n}-seed{seed}")
             for n, seed, m in ((10, 4, 2), (5, 2, 2), (5, 5, 3), (5, 23, 4),
                                (5, 4, 5), (10, 7, 5))]
    cases.append(pytest.param(sparse_training_set(100, 5, 3), 5,
                              id="sparse-d100-k5-n3"))
    return cases


class TestBlockScoring:
    """The block of draws against the per-draw loop it replaced."""

    @pytest.mark.parametrize("draws", [64, 1, 7])
    @pytest.mark.parametrize("tr,m", _degenerate_sets())
    def test_equals_per_draw_loop(self, cls100, tr, m, draws):
        mtr = training_average(tr, 5)
        rng, oracle_rng = np.random.default_rng(31), np.random.default_rng(31)
        err, degenerate = asymptotic_error_for_trainset(
            cls100, tr, 5, rng=rng, degenerate_draws=draws)
        assert degenerate
        assert asymptotic_weights(np.ones(5), mtr).m == m
        assert err == degenerate_error_per_draw(cls100, mtr, 5, oracle_rng,
                                                draws)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_tie_scale_equals_numpy_norms(self):
        """The tie scale of strided columns, like those of a sign-fixed
        top pair, is the one np.linalg.norm gives, bit for bit."""
        rng = np.random.default_rng(33)
        for _ in range(200):
            V, U = rng.standard_normal((5, 5)), rng.standard_normal((100, 5))
            aw = AsymptoticWeights(w1=V[:, 0], w2=U[:, 0], m=1)
            assert _tie_scale(aw) == (ZERO_MARGIN_FRAC * np.linalg.norm(V[:, 0])
                                      * np.linalg.norm(U[:, 0]))

    @pytest.mark.parametrize("task,d,k,n", [("cls", 100, 5, 40),
                                            ("3rdctrl", 20, 3, 30),
                                            ("1stctrl", 30, 4, 10)])
    def test_one_row_equals_scoring_alone(self, task, d, k, n):
        """asymptotic_error is the block's one-row case; it scores the
        sign-fixed top pair, whose columns are strided views, and fresh
        limits alike."""
        whole = whole_dataset(task, d)
        rng = np.random.default_rng(32)
        for _ in range(20):
            tr = sample_training_set(whole, n, rng)
            mtr = training_average(tr, k)
            dec = fix_top_pair_sign(thin_svd(mtr))
            if dec.m == 1:
                u, v = dec.top_pair
                aw = AsymptoticWeights(w1=v, w2=u, m=1)
                assert asymptotic_error(aw, whole) == \
                    asymptotic_error_alone(aw, whole)
                assert asymptotic_error_for_trainset(whole, tr, k) == \
                    (asymptotic_error_alone(aw, whole), False)
            aw = asymptotic_weights(rng.standard_normal(k), mtr)
            assert asymptotic_error(aw, whole) == \
                asymptotic_error_alone(aw, whole)


class TestEstimate:
    def test_deterministic_given_seed(self, cls100):
        a = asymptotic_error_estimate(cls100, 30, 5, 10,
                                      np.random.default_rng(13))
        b = asymptotic_error_estimate(cls100, 30, 5, 10,
                                      np.random.default_rng(13))
        assert a.mean == b.mean
        np.testing.assert_array_equal(a.trial_errors, b.trial_errors)

    def test_degenerate_fraction_bounds(self, cls100):
        allsingle = asymptotic_error_estimate(cls100, 1, 5, 5,
                                              np.random.default_rng(14),
                                              degenerate_draws=8)
        assert allsingle.degenerate_fraction == 1.0
        generic = asymptotic_error_estimate(cls100, 40, 5, 5,
                                            np.random.default_rng(15))
        assert generic.degenerate_fraction == 0.0
        assert generic.zero_average_resamples == 0

    def test_zero_average_is_resampled(self):
        """A point and its label-flipped twin cancel in the training
        average whenever a sample holds both equally often."""
        whole = Dataset(task="parity", d=4, positions=np.array([[1], [1]]),
                        values=np.array([[1.0], [1.0]]), y=np.array([1, -1]))
        est = asymptotic_error_estimate(whole, 2, 2, 20,
                                        np.random.default_rng(18))
        assert est.zero_average_resamples > 0
        np.testing.assert_array_equal(est.trial_errors, 0.5)

    def test_single_trial_has_zero_stderr(self, cls100):
        est = asymptotic_error_estimate(cls100, 30, 5, 1,
                                        np.random.default_rng(16))
        assert est.stderr == 0.0
        assert est.trial_errors.shape == (1,)

    def test_trial_count_validated(self, cls100):
        with pytest.raises(ValueError):
            asymptotic_error_estimate(cls100, 30, 5, 0,
                                      np.random.default_rng(17))

    @pytest.mark.parametrize("draws", [0, -3])
    def test_draw_count_validated(self, cls100, draws):
        """A draw count below one is rejected before any set is drawn,
        even when no degenerate set would turn up."""
        rng = np.random.default_rng(19)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="degenerate_draws"):
            asymptotic_error_estimate(cls100, 40, 5, 2, rng,
                                      degenerate_draws=draws)
        assert rng.bit_generator.state == state
