"""Closed-form error pieces, their estimators, and the spaced design.

The Monte-Carlo estimators are replayed draw-for-draw against the plain
python predicates, the exact adjacent-pair probability against full
enumeration, and the combinatorial implication behind the adjacent-pair
condition is hammered with random position sets.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from convlin import theory
from convlin.errors import ConfigError, NumericalError
from convlin.linalg import is_primitive_bruteforce
from convlin.shift import training_average
from convlin.tasks import Dataset, whole_dataset
from convlin.theory import (
    DRAW_BLOCK_ELEMENTS,
    count_draws_without_adjacent_pair,
    coverage_term_approx,
    coverage_term_exact,
    decomposition_report,
    estimate_prob_no_adjacent_pair,
    has_adjacent_pair,
    onelayer_error,
    prob_no_adjacent_pair_exact,
    sample_complexity,
    sparse_training_set,
)
from oracles import dense_point, estimate_prob_nonprimitive


def gram_of_positions(pos_0b, d, k):
    """Integer Gram matrix of the training-average zero pattern for
    uniform draws at the given 0-based positions."""
    hist = np.bincount(pos_0b, minlength=d)
    cols = np.zeros((d, k), dtype=np.int64)
    for j in range(k):
        cols[: d - j, j] = hist[j:]
    return cols.T @ cols


def oneshot_prob_no_adjacent_pair(d, k, n, trials, rng):
    """Reference estimator: all (trials, n) positions in one draw, the
    no-pair fraction as one mean."""
    hits = np.zeros((trials, d + 2), dtype=bool)
    pos = rng.integers(1, d + 1, size=(trials, n))
    hits[np.arange(trials)[:, None], pos] = True
    lo = max(k, 2)
    pair = hits[:, lo : d + 1] & hits[:, lo - 1 : d]
    p = float(np.mean(~pair.any(axis=1)))
    return p, math.sqrt(p * (1.0 - p) / trials)


class TestAdjacentPair:
    def test_examples(self):
        assert has_adjacent_pair({4, 5}, 3, 10)
        assert not has_adjacent_pair({1, 2}, 3, 10)
        assert not has_adjacent_pair({3, 7}, 3, 10)
        assert has_adjacent_pair({1, 2}, 1, 10)
        assert not has_adjacent_pair({1}, 1, 10)
        assert has_adjacent_pair([9, 2, 10], 3, 10)

    def test_estimator_replays_predicate(self):
        """The estimate equals the fraction computed by
        applying the predicate to the very same draws."""
        p, se = estimate_prob_no_adjacent_pair(
            50, 3, 8, 500, np.random.default_rng(32))
        pos = np.random.default_rng(32).integers(1, 51, size=(500, 8))
        frac = np.mean([not has_adjacent_pair(row, 3, 50) for row in pos])
        assert p == frac
        assert se == pytest.approx(math.sqrt(p * (1 - p) / 500))

    def test_single_draw_never_has_pair(self):
        p, se = estimate_prob_no_adjacent_pair(
            100, 5, 1, 200, np.random.default_rng(0))
        assert p == 1.0
        assert se == 0.0

    def test_probability_drops_with_sample_size(self):
        p10, se10 = estimate_prob_no_adjacent_pair(
            100, 5, 10, 2000, np.random.default_rng(30))
        p20, se20 = estimate_prob_no_adjacent_pair(
            100, 5, 20, 2000, np.random.default_rng(31))
        assert p10 - p20 > 3.0 * math.hypot(se10, se20)

    def test_trial_floor(self):
        with pytest.raises(ConfigError):
            estimate_prob_no_adjacent_pair(100, 5, 10, 99,
                                           np.random.default_rng(0))


class TestBlockedEstimator:
    """The block-wise estimator against the one-shot oracle, bit for
    bit, on each side of a block boundary and of the head of positions
    marked first.  A block holds
    max(1, DRAW_BLOCK_ELEMENTS // max(n, d + 2)) rows."""

    @staticmethod
    def assert_matches_oneshot(d, n, trials, k=5):
        for seed in (60, 61):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = estimate_prob_no_adjacent_pair(d, k, n, trials, rng)
            assert got == oneshot_prob_no_adjacent_pair(d, k, n, trials, ref)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("d, n, trials, rows", [
        (100, 10, 2000, 642),  # three full blocks and a short last one
        (2100, 61, 100, 31),  # odd n, odd rows per block
        (100, 10, 200, 642),  # fewer trials than one block holds
        (100, 0, 200, 642),  # no positions at all
        (100, DRAW_BLOCK_ELEMENTS + 1, 100, 1),  # n above the budget
    ])
    def test_matches_oneshot(self, d, n, trials, rows):
        assert max(1, DRAW_BLOCK_ELEMENTS // max(n, d + 2)) == rows
        self.assert_matches_oneshot(d, n, trials)

    @pytest.mark.parametrize("d, k, n, trials", [
        (1000, 1, 40, 300),  # every neighbour pair counts; 65-row blocks
        (1000, 2, 40, 300),
        (30, 30, 40, 4000),  # k = d: only the last pair counts
        (1000, 5, theory._HEAD - 1, 300),  # n around the marked head
        (1000, 5, theory._HEAD, 300),
        (1000, 5, theory._HEAD + 1, 300),
        (2100, 5, 61, 100),  # pairs rare among the head
        (100, 5, 100, 10_000),  # the bench's shape: few rows reach the tail
    ])
    def test_rows_decided_past_head_match_oneshot(self, d, k, n, trials):
        """Rows with no pair among their first `_HEAD` positions are
        marked in full; where n exceeds the head, some row of the draw
        has its only pairs past it."""
        if n > theory._HEAD:
            pos = np.random.default_rng(60).integers(1, d + 1, size=(trials, n))
            assert any(not has_adjacent_pair(row[: theory._HEAD], k, d)
                       and has_adjacent_pair(row, k, d) for row in pos)
        self.assert_matches_oneshot(d, n, trials, k)

    @pytest.mark.parametrize("d", [2, 7, 100, 2100, 2 ** 31 - 2])
    @pytest.mark.parametrize("size", [(1, 7), (1, 8), (5, 33), (4, 10), (642, 10)])
    def test_int32_draw_equals_int64_draw(self, d, size):
        """The estimator draws its positions as int32 to write half the
        bytes; below 2**32 both dtypes take numpy's 32-bit bounded path,
        so the values and the generator state left behind are those of
        the default int64 draw, for odd and even counts alike."""
        for seed in (65, 66):
            narrow, wide = np.random.default_rng(seed), np.random.default_rng(seed)
            got = narrow.integers(1, d + 1, size, dtype=np.int32)
            why = "numpy no longer draws int32 like int64; the estimator must draw int64"
            assert np.array_equal(got, wide.integers(1, d + 1, size)), why
            assert narrow.bit_generator.state == wide.bit_generator.state, why

    def test_one_row_blocks_match_oneshot(self, monkeypatch):
        """One row per block where the estimate is far from 0 and 1."""
        monkeypatch.setattr(theory, "DRAW_BLOCK_ELEMENTS", 64)
        self.assert_matches_oneshot(100, 10, 300)

    def test_memory_independent_of_trials_and_n(self):
        """One draw of all 10^4 x 500 positions takes 40 MB; a block
        holds at most 256 KB of them."""
        rng = np.random.default_rng(63)
        tracemalloc.start()
        try:
            estimate_prob_no_adjacent_pair(100, 5, 500, 10_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("estimate", [
        estimate_prob_no_adjacent_pair, estimate_prob_nonprimitive,
        decomposition_report])
    def test_negative_n_refused_before_drawing(self, estimate):
        rng = np.random.default_rng(64)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="n must be >= 0"):
            estimate(100, 5, -1, 200, rng)
        assert rng.bit_generator.state == state


class TestExactNoAdjacentPair:
    @pytest.mark.parametrize("d, k, n", [
        (6, 3, 3), (7, 1, 4), (8, 4, 5), (5, 2, 4), (5, 5, 4), (2, 1, 3),
        (2, 2, 3), (4, 4, 6), (6, 1, 5), (9, 6, 3), (5, 3, 0), (3, 2, 1)])
    def test_matches_enumeration(self, d, k, n):
        """Count and probability agree with the predicate applied to all
        d**n draws, from k = 1 (every neighbour pair counts) to k = d
        (only the last pair does)."""
        misses = sum(not has_adjacent_pair(draw, k, d)
                     for draw in itertools.product(range(1, d + 1), repeat=n))
        assert count_draws_without_adjacent_pair(d, k, n) == misses
        assert prob_no_adjacent_pair_exact(d, k, n) == misses / d ** n

    @pytest.mark.parametrize("n, seed", [(10, 33), (30, 34)])
    def test_agrees_with_monte_carlo(self, n, seed):
        exact = prob_no_adjacent_pair_exact(100, 5, n)
        p, _ = estimate_prob_no_adjacent_pair(
            100, 5, n, 10_000, np.random.default_rng(seed))
        assert abs(p - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / 10_000)

    def test_positive_where_monte_carlo_reads_zero(self):
        p100 = prob_no_adjacent_pair_exact(100, 5, 100)
        p400 = prob_no_adjacent_pair_exact(100, 5, 400)
        assert 0.0 < p400 < p100 < 1e-20

    def test_refuses_underflow(self):
        with pytest.raises(NumericalError, match="smallest positive double"):
            prob_no_adjacent_pair_exact(30, 3, 2000)

    def test_domains(self):
        with pytest.raises(ConfigError):
            prob_no_adjacent_pair_exact(100, 5, -1)
        with pytest.raises(ConfigError):
            count_draws_without_adjacent_pair(10, 11, 3)
        with pytest.raises(ConfigError):
            count_draws_without_adjacent_pair(1, 1, 3)


class TestPrimitivityLink:
    def test_adjacent_pair_implies_primitive_gram(self):
        """Whenever the adjacent-pair condition holds, the Gram matrix
        of the training-average pattern is primitive.  3000 random
        position sets per sample size, zero counterexamples."""
        d, k = 100, 5
        rng = np.random.default_rng(40)
        checked = 0
        for n in (20, 50, 100):
            pos = rng.integers(0, d, size=(3000, n))
            for row in pos:
                if has_adjacent_pair(set(int(p) + 1 for p in row), k, d):
                    checked += 1
                    assert is_primitive_bruteforce(gram_of_positions(row, d, k))
        assert checked > 3000

    def test_nonprimitive_estimate_below_no_pair_estimate(self):
        """Failing primitivity is rarer than failing the sufficient
        condition."""
        pn, sen = estimate_prob_nonprimitive(
            100, 5, 20, 300, np.random.default_rng(33))
        pa, sea = estimate_prob_no_adjacent_pair(
            100, 5, 20, 2000, np.random.default_rng(31))
        assert pn <= pa + 3.0 * math.hypot(sen, sea)

    def test_nonprimitive_estimator_deterministic(self):
        a = estimate_prob_nonprimitive(50, 3, 6, 150,
                                       np.random.default_rng(41))
        b = estimate_prob_nonprimitive(50, 3, 6, 150,
                                       np.random.default_rng(41))
        assert a == b

    def test_nonprimitive_trial_floor(self):
        with pytest.raises(ConfigError):
            estimate_prob_nonprimitive(100, 5, 10, 50,
                                       np.random.default_rng(0))


class TestCoverageTerms:
    def test_no_samples_gives_half(self):
        assert coverage_term_exact(100, 5, 0) == 0.5
        assert coverage_term_approx(100, 5, 0) == 0.5

    def test_frozen_values(self):
        assert coverage_term_exact(100, 5, 100) == \
            pytest.approx(1.26087e-4, rel=1e-4)
        assert coverage_term_approx(100, 5, 100) == 0.5 * 0.91 ** 100

    def test_width_one_reduces_to_onelayer(self):
        for n in (0, 1, 7, 40):
            assert coverage_term_exact(60, 1, n) == \
                pytest.approx(onelayer_error(60, n), rel=1e-13)
            assert coverage_term_approx(60, 1, n) == onelayer_error(60, n)

    def test_exact_between_approx_and_loose_bound(self):
        for d in (20, 50, 100):
            for k in (1, 2, d // 8, d // 4):
                for n in (0, 1, 5, 20, 100):
                    lo = coverage_term_approx(d, k, n)
                    mid = coverage_term_exact(d, k, n)
                    hi = 0.5 * ((d - k) / d) ** n
                    assert lo <= mid + 1e-15, (d, k, n)
                    assert mid <= hi + 1e-15, (d, k, n)

    def test_domains(self):
        with pytest.raises(ConfigError):
            coverage_term_exact(100, 5, -1)
        with pytest.raises(ConfigError):
            coverage_term_exact(100, 101, 5)
        with pytest.raises(ConfigError):
            coverage_term_approx(8, 5, 3)
        with pytest.raises(ConfigError):
            coverage_term_approx(1, 1, 3)


class TestOnelayer:
    def test_frozen_value(self):
        assert onelayer_error(100, 100) == pytest.approx(0.1830162, abs=1e-6)

    def test_edges(self):
        assert onelayer_error(100, 0) == 0.5
        # Matches the exhaustive count for one trained position at d=4
        # (see the axis-vector example in the model tests).
        assert onelayer_error(4, 1) == 3.0 / 8.0

    def test_domains(self):
        with pytest.raises(ConfigError):
            onelayer_error(1, 5)
        with pytest.raises(ConfigError):
            onelayer_error(100, -2)


class TestSampleComplexity:
    def test_reference_point(self):
        sc = sample_complexity(100, 5, 0.005)
        assert sc.n_exact == pytest.approx(48.8298, abs=1e-3)
        assert sc.n_limit_per_d == pytest.approx(math.log(100.0) / 9.0)

    def test_limit_reached_at_large_d(self):
        sc = sample_complexity(10**4, 5, 0.005)
        ratio = (sc.n_exact / 10**4) / sc.n_limit_per_d
        assert abs(ratio - 1.0) < 0.02

    def test_solves_the_approximation(self):
        # n_exact is the real-valued root, so plugging it back into the
        # interior formula recovers the target epsilon to roundoff.
        sc = sample_complexity(100, 5, 0.005)
        assert 0.5 * (91.0 / 100.0) ** sc.n_exact == \
            pytest.approx(0.005, rel=1e-12)

    def test_domains(self):
        for eps in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ConfigError):
                sample_complexity(100, 5, eps)
        with pytest.raises(ConfigError):
            sample_complexity(9, 5, 0.005)


class TestSparseTrainingSet:
    def test_positions_and_labels(self):
        sp = sparse_training_set(100, 5, 3)
        assert type(sp) is Dataset
        assert (sp.task, sp.d, len(sp)) == ("cls", 100, 3)
        np.testing.assert_array_equal(sp.positions.ravel(), [4, 14, 24])
        np.testing.assert_array_equal(sp.values, np.ones((3, 1)))
        np.testing.assert_array_equal(sp.y, [1, 1, 1])

    def test_indices_point_into_whole_dataset(self):
        whole = whole_dataset("cls", 100)
        sp = sparse_training_set(100, 5, 3)
        # Row 2l of the cls dataset is +e_l.
        for i, idx in enumerate(2 * sp.positions[:, 0]):
            point = dense_point(whole, int(idx))
            assert point.y == 1
            np.testing.assert_array_equal(point.x, dense_point(sp, i).x)

    def test_gram_is_scaled_identity(self):
        for n in (1, 3, 10):
            sp = sparse_training_set(200, 5, n)
            M = training_average(sp, 5)
            np.testing.assert_allclose(M.T @ M, np.eye(5) / n, atol=1e-12)

    def test_capacity_checked(self):
        sparse_training_set(100, 5, 10)
        with pytest.raises(ConfigError):
            sparse_training_set(100, 5, 11)
        with pytest.raises(ConfigError):
            sparse_training_set(100, 5, 0)


class TestDecompositionReport:
    def test_no_samples(self):
        rep = decomposition_report(100, 5, 0, 200, np.random.default_rng(50))
        assert rep.prob_no_adjacent_pair == 1.0
        assert rep.coverage_exact == 0.5
        assert rep.upper_bound_sum == 1.5

    def test_width_one_matches_onelayer(self):
        rep = decomposition_report(60, 1, 25, 200, np.random.default_rng(51))
        assert rep.coverage_approx == rep.onelayer
        assert rep.coverage_exact == pytest.approx(rep.onelayer, rel=1e-13)

    def test_piece_ratio_uses_exact_probability(self):
        for n in (10, 100, 400):
            rep = decomposition_report(100, 5, n, 200, np.random.default_rng(53))
            assert rep.prob_no_adjacent_pair_exact == \
                prob_no_adjacent_pair_exact(100, 5, n)
            assert rep.piece_ratio == pytest.approx(
                rep.prob_no_adjacent_pair_exact / rep.coverage_approx, rel=1e-13)

    @pytest.mark.parametrize("d, k, n", [(100, 5, 10), (100, 5, 400), (60, 1, 25)])
    def test_counts_draws_once(self, d, k, n, monkeypatch):
        """One exact count serves both quotients, each equal to the
        quotient of integers it stands for."""
        calls = []

        def counting(*args):
            calls.append(args)
            return count_draws_without_adjacent_pair(*args)

        monkeypatch.setattr(theory, "count_draws_without_adjacent_pair", counting)
        rep = decomposition_report(d, k, n, 200, np.random.default_rng(56))
        assert calls == [(d, k, n)]
        count = count_draws_without_adjacent_pair(d, k, n)
        assert rep.prob_no_adjacent_pair_exact == count / d ** n
        assert rep.piece_ratio == 2 * count / (d - 2 * k + 1) ** n

    def test_ratio_outside_doubles_refused(self):
        """At d = 2k - 1 the interior approximation is exactly zero for
        n >= 1, so the piece ratio has no finite value; at d = 11, k = 5
        it grows like (7/2)^n and passes the largest double."""
        with pytest.raises(NumericalError, match="zero denominator"):
            decomposition_report(9, 5, 3, 200, np.random.default_rng(54))
        with pytest.raises(NumericalError, match="largest double"):
            decomposition_report(11, 5, 600, 200, np.random.default_rng(55))

    def test_fields_echo_inputs(self):
        rep = decomposition_report(100, 5, 30, 300, np.random.default_rng(52))
        assert (rep.d, rep.k, rep.n, rep.trials) == (100, 5, 30, 300)
        assert rep.upper_bound_sum == \
            rep.prob_no_adjacent_pair + rep.coverage_exact
