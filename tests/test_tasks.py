"""Dataset enumeration, labelling, witnesses, and sampling."""

import numpy as np
import pytest
from scipy import stats

from convlin.errors import ConfigError, ShapeError
from convlin.tasks import TASKS, Dataset, sample_training_set, whole_dataset
from oracles import (
    dense,
    dense_points,
    distinct_by_sort,
    separator_witness,
    signed_design,
    signed_shift_matrix,
)

ALL_TASK_DIMS = [("cls", 7), ("cls", 100), ("1stctrl", 4), ("1stctrl", 100),
                 ("3rdctrl", 5), ("3rdctrl", 30), ("parity", 5), ("parity", 100)]


class FixedDraws:
    """rng stand-in returning a preset index sequence from integers()."""

    def __init__(self, draws):
        self.draws = np.asarray(draws)

    def integers(self, low, high, size):
        assert size == len(self.draws)
        return self.draws


def assert_rows_of(tr, whole, idx):
    """The training set holds rows ``idx`` of the whole dataset, in order."""
    assert type(tr) is Dataset
    assert (tr.task, tr.d, len(tr)) == (whole.task, whole.d, len(idx))
    np.testing.assert_array_equal(tr.positions, whole.positions[idx])
    np.testing.assert_array_equal(tr.values, whole.values[idx])
    np.testing.assert_array_equal(tr.y, whole.y[idx])


class TestEnumeration:
    def test_cardinalities(self):
        assert len(whole_dataset("cls", 13)) == 26
        assert len(whole_dataset("1stctrl", 12)) == 12
        assert len(whole_dataset("3rdctrl", 13)) == 13 * 12
        assert len(whole_dataset("parity", 13)) == 13

    def test_cls_small(self):
        ds = whole_dataset("cls", 3)
        assert len(ds) == 6
        pts = [(tuple(p.x), p.y) for p in dense_points(ds)]
        assert ((1.0, 0.0, 0.0), 1) in pts
        assert ((-1.0, 0.0, 0.0), -1) in pts
        assert len(set(pts)) == 6

    def test_firstctrl_labels(self):
        ds = whole_dataset("1stctrl", 4)
        labels = {int(np.flatnonzero(p.x)[0]) + 1: p.y for p in dense_points(ds)}
        assert labels == {1: -1, 2: -1, 3: 1, 4: 1}

    def test_thirdctrl_labels(self):
        ds = whole_dataset("3rdctrl", 3)
        assert len(ds) == 6
        by_x = {tuple(p.x): p.y for p in dense_points(ds)}
        assert by_x[(1.0, -1.0, 0.0)] == -1
        assert by_x[(-1.0, 1.0, 0.0)] == 1

    def test_parity_labels(self):
        ds = whole_dataset("parity", 5)
        labels = [p.y for p in dense_points(ds)]
        assert labels == [1, -1, 1, -1, 1]

    def test_no_duplicates(self):
        for task, d in ALL_TASK_DIMS:
            ds = whole_dataset(task, d)
            pts = {(tuple(p.x), p.y) for p in dense_points(ds)}
            assert len(pts) == len(ds)

    def test_cls_sign_symmetry(self):
        """Negating a cls point stays in the dataset and leaves the
        signed shift matrix unchanged."""
        ds = whole_dataset("cls", 6)
        pts = {(tuple(p.x), p.y) for p in dense_points(ds)}
        for p in dense_points(ds):
            assert (tuple(-p.x), -p.y) in pts
            M = signed_shift_matrix(p, 3)
            p.x, p.y = -p.x, -p.y
            np.testing.assert_array_equal(signed_shift_matrix(p, 3), M)

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            whole_dataset("images", 10)
        with pytest.raises(ConfigError):
            whole_dataset("cls", 1)
        with pytest.raises(ConfigError):
            whole_dataset("1stctrl", 7)
        with pytest.raises(ConfigError):
            whole_dataset("1stctrl", 2)


class TestWitness:
    @pytest.mark.parametrize("task,d", ALL_TASK_DIMS)
    def test_separates(self, task, d):
        w = separator_witness(task, d)
        ds = whole_dataset(task, d)
        margins = ds.y * (dense(ds) @ w)
        assert np.all(margins >= 1.0)

    def test_known_forms(self):
        np.testing.assert_array_equal(separator_witness("cls", 4), np.ones(4))
        np.testing.assert_array_equal(separator_witness("1stctrl", 4),
                                      [-1.0, -1.0, 1.0, 1.0])
        np.testing.assert_array_equal(separator_witness("parity", 4),
                                      [1.0, -1.0, 1.0, -1.0])
        np.testing.assert_array_equal(separator_witness("3rdctrl", 4),
                                      [1.0, 2.0, 3.0, 4.0])


class TestSampling:
    def test_points_come_from_whole(self):
        whole = whole_dataset("3rdctrl", 8)
        idx = [0, 55, 55, 17, 3]
        assert_rows_of(sample_training_set(whole, 5, FixedDraws(idx)), whole, idx)
        # A seeded sample holds the rows its rng draws.
        tr = sample_training_set(whole, 25, np.random.default_rng(0))
        idx = np.random.default_rng(0).integers(0, len(whole), size=25)
        assert_rows_of(tr, whole, idx)

    def test_deterministic_under_seed(self):
        whole = whole_dataset("cls", 50)
        a = sample_training_set(whole, 40, np.random.default_rng(7))
        b = sample_training_set(whole, 40, np.random.default_rng(7))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.y, b.y)

    def test_str_from_known_draws(self):
        # cls rows alternate +e_l, -e_l, so indices 2, 3, 12 pick out
        # e_2, -e_2, e_7, whose positions make up S_tr = {2, 7}.
        whole = whole_dataset("cls", 100)
        tr = sample_training_set(whole, 3, FixedDraws([2, 3, 12]))
        assert_rows_of(tr, whole, [2, 3, 12])
        np.testing.assert_array_equal(tr.positions[:, 0] + 1, [2, 2, 7])
        np.testing.assert_array_equal(tr.values[:, 0], [1.0, -1.0, 1.0])
        np.testing.assert_array_equal(tr.y, [1, -1, 1])

    def test_str_parity(self):
        whole = whole_dataset("parity", 10)
        tr = sample_training_set(whole, 4, FixedDraws([0, 0, 9, 4]))
        assert_rows_of(tr, whole, [0, 0, 9, 4])
        np.testing.assert_array_equal(tr.positions[:, 0] + 1, [1, 1, 10, 5])
        np.testing.assert_array_equal(tr.y, [1, 1, -1, 1])

    def test_uniformity_chi_square(self):
        """10^5 draws from the 200-point cls dataset pass a chi-square
        uniformity test at significance 1e-3."""
        whole = whole_dataset("cls", 100)
        tr = sample_training_set(whole, 100_000, np.random.default_rng(11))
        # Row 2l of the cls dataset is +e_l and row 2l + 1 is -e_l.
        idx = 2 * tr.positions[:, 0] + (tr.values[:, 0] < 0)
        counts = np.bincount(idx, minlength=200)
        _, p = stats.chisquare(counts)
        assert p > 1e-3

    def test_rejects_empty(self):
        whole = whole_dataset("cls", 10)
        with pytest.raises(ConfigError):
            sample_training_set(whole, 0, np.random.default_rng(0))


class TestDenseView:
    def test_matches_points(self):
        for task, d in ALL_TASK_DIMS:
            ds = whole_dataset(task, d)
            stacked = np.stack([p.x for p in dense_points(ds)])
            np.testing.assert_array_equal(dense(ds), stacked)

    def test_entry_alphabet(self):
        X = dense(whole_dataset("3rdctrl", 9))
        assert set(np.unique(X)) <= {-1.0, 0.0, 1.0}
        assert np.all(np.abs(X).sum(axis=1) == 2)


class TestDistinct:
    """`Dataset.distinct`: the distinct columns of the signed design and
    the number of points that share each."""

    @staticmethod
    def _columns(design):
        """The columns of a signed design as hashable tuples."""
        positions, yx = design
        return list(zip(map(tuple, positions.T.tolist()), map(tuple, yx.T.tolist())))

    @staticmethod
    def _sets():
        rng = np.random.default_rng(4)
        for task, d in ALL_TASK_DIMS:
            whole = whole_dataset(task, d)
            yield whole
            yield sample_training_set(whole, 30, rng)

    def test_counts_cover_every_point_once(self):
        for ds in self._sets():
            (positions, yx), counts = ds.distinct
            assert counts.dtype == float and counts.sum() == len(ds)
            assert positions.dtype == np.intp and positions.shape == yx.shape
            assert positions.flags.c_contiguous and yx.flags.c_contiguous
            distinct = self._columns((positions, yx))
            assert len(set(distinct)) == len(distinct) == counts.shape[0]
            shared = dict.fromkeys(distinct, 0)
            for column in self._columns(signed_design(ds)):
                shared[column] += 1  # a KeyError is a column with no match
            assert list(shared.values()) == counts.tolist()

    def test_inverse_rebuilds_the_signed_design(self):
        """Each point's column index, from a sort of the columns, gathers
        the signed design back from the columns bit for bit and counts
        each column's points: on every set above, on one point drawn 40
        times (one column) and on a whole 3rdctrl set (a column per
        point)."""
        cls = whole_dataset("cls", 10)
        one = Dataset(task="cls", d=10, positions=cls.positions[[7] * 40],
                      values=cls.values[[7] * 40], y=cls.y[[7] * 40])
        third = whole_dataset("3rdctrl", 12)
        for ds in (*self._sets(), one, third):
            (positions, yx), counts = ds.distinct
            inverse = distinct_by_sort(ds)[2]
            assert inverse.shape == (len(ds),) and inverse.dtype == np.intp
            rebuilt = positions[:, inverse], yx[:, inverse]
            for got, want in zip(rebuilt, signed_design(ds)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            np.testing.assert_array_equal(np.bincount(inverse), counts)
        assert one.distinct[1].tolist() == [40.0]
        assert third.distinct[1].shape == (len(third),)

    def test_matches_a_sort_of_the_columns(self):
        """The one-key `distinct` gives the columns, their order and the
        counts of a sort of the stacked columns bit for bit: on every set
        above, on drawn sets of 300, and on sets of two nonzeros whose
        values are not +-1, some of them shared."""
        rng = np.random.default_rng(9)
        wholes = [whole_dataset(task, d) for task, d in ALL_TASK_DIMS]
        odd = [Dataset(task="3rdctrl", d=6, positions=rng.integers(0, 6, (n, 2)),
                       values=rng.choice([-2.5, -1.0, 0.5, 1.0, 3.0], (n, 2)),
                       y=rng.choice([-1, 1], n))
               for n in (1, 40, 500)]
        for ds in (*self._sets(), *(sample_training_set(w, 300, rng) for w in wholes),
                   *odd):
            (positions, yx), counts = ds.distinct
            (want_positions, want_yx), want_counts, _ = distinct_by_sort(ds)
            for got, want in ((positions, want_positions), (yx, want_yx),
                              (counts, want_counts)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        assert len(odd[2].distinct[1]) < 500

    def test_refuses_a_key_past_int64(self):
        """Two nonzeros at d = 2**20 with 2**12 distinct values make
        (2**32)**2 keys, more than int64 holds."""
        n = 2**11
        ds = Dataset(task="3rdctrl", d=2**20, positions=np.zeros((n, 2), dtype=np.intp),
                     values=np.arange(2.0, 2 * n + 2).reshape(n, 2), y=np.ones(n, np.int64))
        with pytest.raises(ShapeError, match="do not fit one int64 key"):
            ds.distinct
        ds.d = 2**19
        assert len(ds.distinct[1]) == n

    def test_cls_points_share_columns_in_pairs(self):
        """+e_l labelled +1 and -e_l labelled -1 have the same signed
        column; the other tasks have none in common."""
        (positions, yx), counts = whole_dataset("cls", 100).distinct
        np.testing.assert_array_equal(positions, np.arange(100)[None])
        np.testing.assert_array_equal(yx, np.ones((1, 100)))
        np.testing.assert_array_equal(counts, np.full(100, 2.0))
        for task, d in ALL_TASK_DIMS:
            if task != "cls":
                ds = whole_dataset(task, d)
                np.testing.assert_array_equal(ds.distinct[1], np.ones(len(ds)))
