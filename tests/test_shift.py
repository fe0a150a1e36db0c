"""Shift matrices, signed variants, and the training average."""

import numpy as np
import pytest

from convlin.errors import ShapeError
from convlin.models import ConvWeights
from convlin.shift import _shift_index, shift_matrix, training_average
from convlin.tasks import Dataset, sample_training_set, whole_dataset
from oracles import (
    DataPoint,
    conv_score_via_matrix,
    dense_points,
    forward,
    shift_matrix_by_columns,
    signed_average_from_points,
    signed_shift_matrix,
)


def e(l, d):
    """1-based standard basis vector."""
    x = np.zeros(d)
    x[l - 1] = 1.0
    return x


class TestShiftMatrix:
    def test_interior_spike(self):
        A = shift_matrix([0.0, 1.0, 0.0, 0.0], 2)
        np.testing.assert_array_equal(
            A, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])

    def test_full_width_padding(self):
        A = shift_matrix(e(1, 3), 3)
        np.testing.assert_array_equal(A[:, 0], e(1, 3))
        np.testing.assert_array_equal(A[:, 1:], np.zeros((3, 2)))

    def test_tail_spike(self):
        A = shift_matrix([0.0, 0.0, 1.0], 2)
        np.testing.assert_array_equal(A, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])

    def test_layout_definition(self):
        """Entry (i, j) is x[i + j] with zero padding, both 0-based."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal(9)
        A = shift_matrix(x, 4)
        for i in range(9):
            for j in range(4):
                expect = x[i + j] if i + j < 9 else 0.0
                assert A[i, j] == expect

    def test_width_bounds(self):
        with pytest.raises(ShapeError):
            shift_matrix(np.ones(3), 4)
        with pytest.raises(ShapeError):
            shift_matrix(np.ones(3), 0)
        with pytest.raises(ShapeError):
            shift_matrix(np.ones((2, 2)), 1)


def _awkward_vector(rng, d):
    """A float vector mixing signed zeros, NaN, infinities, magnitudes
    near 1e+-300 and ordinary values."""
    pool = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e-300,
                     5e-324, -1.7e308])
    x = rng.standard_normal(d) * 10.0 ** rng.integers(-300, 300, d)
    pick = rng.random(d) < 0.4
    x[pick] = rng.choice(pool, pick.sum())
    return x


class TestShiftGather:
    """The one-gather shift matrix against the column loop, in bytes."""

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 50, 100, 120])
    def test_equals_column_loop(self, d):
        rng = np.random.default_rng(d)
        for k in sorted({k for k in (1, 2, d // 2, d - 1, d) if 1 <= k <= d}):
            for x in (_awkward_vector(rng, d), rng.standard_normal(d),
                      np.bincount(rng.integers(0, d, 3 * d), minlength=d)):
                A, ref = shift_matrix(x, k), shift_matrix_by_columns(x, k)
                assert A.shape == ref.shape and A.dtype == ref.dtype
                assert A.flags.c_contiguous and A.flags.writeable
                assert A.tobytes() == ref.tobytes()

    def test_index_is_read_only(self):
        shift_matrix(np.ones(10), 4)
        index = _shift_index(10, 4)
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 0

    def test_result_is_a_copy(self):
        x = np.arange(6.0)
        A = shift_matrix(x, 3)
        A[:] = -1.0
        np.testing.assert_array_equal(x, np.arange(6.0))
        np.testing.assert_array_equal(shift_matrix(x, 3),
                                      shift_matrix_by_columns(x, 3))


class TestSignedShiftMatrix:
    def test_double_negation_cancels(self):
        p = DataPoint(x=-e(3, 4), y=-1)
        np.testing.assert_array_equal(signed_shift_matrix(p, 2),
                                      shift_matrix(e(3, 4), 2))

    def test_positive_label_identity(self):
        p = DataPoint(x=e(2, 4), y=1)
        np.testing.assert_array_equal(signed_shift_matrix(p, 2),
                                      shift_matrix(e(2, 4), 2))

    def test_negative_label_flips(self):
        p = DataPoint(x=np.array([1.0, -1.0, 0.0]), y=-1)
        np.testing.assert_array_equal(signed_shift_matrix(p, 1),
                                      [[-1.0], [1.0], [0.0]])


class TestTrainingAverage:
    def _pair_set(self):
        # Two cls points in d=4: (e_2, +1) and (-e_3, -1).
        return Dataset(
            task="cls", d=4,
            positions=np.array([[1], [2]]),
            values=np.array([[1.0], [-1.0]]),
            y=np.array([1, -1]))

    def test_known_average(self):
        mtr = training_average(self._pair_set(), 2)
        assert isinstance(mtr, np.ndarray) and mtr.shape == (4, 2)
        np.testing.assert_allclose(
            mtr,
            [[0.0, 0.5], [0.5, 0.5], [0.5, 0.0], [0.0, 0.0]])

    def test_single_sample(self):
        tr = Dataset(task="cls", d=4, positions=np.array([[1]]),
                     values=np.array([[1.0]]), y=np.array([1]))
        mtr = training_average(tr, 3)
        p = DataPoint(x=e(2, 4), y=1)
        np.testing.assert_array_equal(mtr, signed_shift_matrix(p, 3))

    def test_duplication_invariant(self):
        tr = self._pair_set()
        rep = Dataset(task="cls", d=4,
                      positions=np.tile(tr.positions, (5, 1)),
                      values=np.tile(tr.values, (5, 1)),
                      y=np.tile(tr.y, 5))
        np.testing.assert_allclose(training_average(rep, 2),
                                   training_average(tr, 2))

    def test_matches_pointwise_reference(self):
        whole = whole_dataset("3rdctrl", 12)
        rng = np.random.default_rng(3)
        for _ in range(20):
            tr = sample_training_set(whole, int(rng.integers(1, 30)), rng)
            np.testing.assert_allclose(
                training_average(tr, 4),
                signed_average_from_points(dense_points(tr), 4), atol=1e-15)

    def test_empty_rejected(self):
        tr = Dataset(task="cls", d=4, positions=np.zeros((0, 1), int),
                     values=np.zeros((0, 1)), y=np.zeros(0, int))
        with pytest.raises(ValueError):
            training_average(tr, 2)

    def test_zero_flag(self):
        # A mislabelled duplicate pair cancels exactly; impossible for
        # the built-in tasks, where labels are functions of x.
        tr = Dataset(task="cls", d=3,
                     positions=np.array([[0], [0]]),
                     values=np.array([[1.0], [1.0]]),
                     y=np.array([1, -1]))
        mtr = training_average(tr, 2)
        assert mtr.shape == (3, 2) and not np.any(mtr)


class TestNonnegativity:
    def test_cls_always_nonnegative(self):
        whole = whole_dataset("cls", 40)
        rng = np.random.default_rng(5)
        for _ in range(50):
            tr = sample_training_set(whole, int(rng.integers(1, 80)), rng)
            assert np.all(training_average(tr, 6) >= 0.0)

    def test_firstctrl_genuinely_signed(self):
        """Left-half 1stctrl points have y = -1 with x = +e_l, so the
        average picks up negative entries; nonnegativity is a cls-only
        theorem and must not be enforced elsewhere."""
        whole = whole_dataset("1stctrl", 8)
        tr = Dataset(task="1stctrl", d=8,
                     positions=whole.positions[:1],
                     values=whole.values[:1],
                     y=whole.y[:1])
        assert np.any(training_average(tr, 3) < 0.0)

    def test_parity_genuinely_signed(self):
        whole = whole_dataset("parity", 6)
        tr = Dataset(task="parity", d=6,
                     positions=whole.positions[1:2],
                     values=whole.values[1:2],
                     y=whole.y[1:2])
        assert np.any(training_average(tr, 2) < 0.0)


class TestClsColumnSupport:
    def test_support_is_shifted_str(self):
        """Column j of the cls average is positive exactly on the rows
        i with i + j (1-based position) in S_tr."""
        whole = whole_dataset("cls", 30)
        rng = np.random.default_rng(9)
        k = 4
        for _ in range(20):
            tr = sample_training_set(whole, 12, rng)
            M = training_average(tr, k)
            s_tr = set(tr.positions[:, 0] + 1)
            for j in range(k):
                for i in range(30):
                    pos = i + j + 1
                    inside = pos <= 30 and pos in s_tr
                    assert (M[i, j] > 0) == inside


class TestConvEquivalence:
    def test_matrix_form_matches_forward(self):
        """w1' A_x' w2 equals the convolution forward pass on 10^4
        random weight/input triples."""
        rng = np.random.default_rng(12)
        for _ in range(10_000):
            d = int(rng.integers(2, 15))
            k = int(rng.integers(1, d + 1))
            w = ConvWeights(w1=rng.standard_normal(k),
                            w2=rng.standard_normal(d))
            x = rng.standard_normal(d)
            via_matrix = conv_score_via_matrix(w.w1, w.w2, x)
            assert abs(via_matrix - forward(w, x)) <= 1e-12
