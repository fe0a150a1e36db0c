"""End-to-end acceptance checks at working scale (d = 100).

Each test covers one numbered criterion, prints a single PASS/FAIL line
with the measured quantities (also echoed in the terminal summary), and
asserts the stated tolerance.  Seeds are pinned so reruns are exact.

Criterion 4 currently fails and is expected to: at n = 300 the
one-layer error has already collapsed to about 0.025, so no method can
sit 0.05 below it.  The test states the criterion as written and
reports the numbers honestly rather than papering over them.
"""

import math
import time

import numpy as np

from oracles import scalar_train, summarize
from test_linalg import irreducible_by_definition, primitive_by_definition

from convlin.dynamics import (
    asymptotic_error_estimate,
    asymptotic_error_for_trainset,
    closed_form_weights,
)
from convlin.harness import ExperimentSpec, derive_seed, run
from convlin.linalg import (
    fix_top_pair_sign,
    is_irreducible,
    is_primitive_bruteforce,
    thin_svd,
)
from convlin.models import (
    ConvWeights,
    TrainConfig,
    classification_error,
    train,
)
from convlin.shift import training_average
from convlin.tasks import TASKS, sample_training_set, whole_dataset
from convlin.theory import (
    coverage_term_exact,
    estimate_prob_no_adjacent_pair,
    onelayer_error,
    sample_complexity,
)


def _emit(report, line):
    report.append(line)
    print(line)


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def test_criterion_01_closed_form_matches_iterative(acceptance_report):
    """50 random configurations across all four tasks: the closed-form
    extreme-hinge iterate equals literal training at t in {1,5,20,100}
    to relative error 1e-8."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    wholes = {}
    worst = 0.0
    for i in range(50):
        task = TASKS[i % len(TASKS)]
        d = int(rng.integers(6, 100))
        if task == "1stctrl" and d % 2:
            d += 1
        k = int(rng.integers(1, min(8, d) + 1))
        n = int(rng.integers(1, 101))
        whole = wholes.setdefault((task, d), whole_dataset(task, d))
        for _ in range(50):
            tr = sample_training_set(whole, n, rng)
            mtr = training_average(tr, k)
            if np.any(mtr):
                break
        w0 = ConvWeights(w1=rng.standard_normal(k), w2=rng.standard_normal(d))
        cfg = TrainConfig(loss="xhinge", alpha=0.05, max_steps=100)
        trace = train("conv", tr, cfg, rng, k=k, initial=w0,
                      record_weights=True)
        for t in (1, 5, 20, 100):
            cf = closed_form_weights(w0.w1, w0.w2, mtr, 0.05, t)
            it = trace.weights_per_step[t]
            rel = max(
                np.linalg.norm(cf.w1 - it.w1) / np.linalg.norm(it.w1),
                np.linalg.norm(cf.w2 - it.w2) / np.linalg.norm(it.w2))
            worst = max(worst, float(rel))
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-8 and runtime < 10.0
    _emit(acceptance_report,
          f"criterion 1: {'PASS' if ok else 'FAIL'} "
          f"(max rel err {worst:.2e} within 1e-08, {runtime:.1f}s within 10s)")
    assert ok


def test_criterion_02_onelayer_closed_form(acceptance_report):
    """Hinge-trained one-layer error matches 0.5 ((d-1)/d)^n within 3
    standard errors at n in {50, 100, 200}, including 0.1830 at 100."""
    t0 = time.perf_counter()
    whole = whole_dataset("cls", 100)
    details = []
    ok = True
    for n in (50, 100, 200):
        rng = np.random.default_rng(200 + n)
        errs = []
        for _ in range(100):
            tr = sample_training_set(whole, n, rng)
            trace = train("1layer", tr, TrainConfig(loss="hinge"), rng)
            errs.append(classification_error(trace.weights, whole))
        mean, se = _mean_se(errs)
        target = onelayer_error(100, n)
        ok &= abs(mean - target) <= 3.0 * se
        if n == 100:
            ok &= abs(mean - 0.1830) <= 3.0 * se
        details.append(f"n={n} {mean:.4f} vs {target:.4f} se {se:.4f}")
    runtime = time.perf_counter() - t0
    ok &= runtime < 60.0
    _emit(acceptance_report,
          f"criterion 2: {'PASS' if ok else 'FAIL'} "
          f"({'; '.join(details)}, {runtime:.0f}s within 60s)")
    assert ok


def test_criterion_03_limit_matches_long_run(acceptance_report):
    """The limiting-error estimate agrees with 1000-step extreme-hinge
    training within 0.02 at n in {50, 150, 300} (100 trials each)."""
    t0 = time.perf_counter()
    whole = whole_dataset("cls", 100)
    details = []
    ok = True
    for n in (50, 150, 300):
        rng = np.random.default_rng(300 + n)
        asym, localized = [], []
        for _ in range(100):
            tr = sample_training_set(whole, n, rng)
            err, _ = asymptotic_error_for_trainset(whole, tr, 5, rng=rng)
            asym.append(err)
            xh = train("conv", tr, TrainConfig(loss="xhinge", max_steps=1000),
                       rng, k=5)
            localized.append(classification_error(xh.weights, whole))
        gap = abs(float(np.mean(asym)) - float(np.mean(localized)))
        ok &= gap <= 0.02
        details.append(f"n={n} gap {gap:.4f}")
    runtime = time.perf_counter() - t0
    ok &= runtime < 300.0
    _emit(acceptance_report,
          f"criterion 3: {'PASS' if ok else 'FAIL'} "
          f"({'; '.join(details)} within 0.02, {runtime:.0f}s within 300s)")
    assert ok


def test_criterion_04_generalization_gap(acceptance_report):
    """Conv hinge training should sit 0.05 below the one-layer error at
    n = 300 with disjoint 3-SE intervals, and match it within 0.05 at
    n = 10.  The n = 300 absolute-gap clause is unattainable (see the
    module docstring); reported as measured."""
    t0 = time.perf_counter()
    whole = whole_dataset("cls", 100)
    stats = {}
    for n in (10, 300):
        rng = np.random.default_rng(2000 + n)
        conv, onel = [], []
        for _ in range(100):
            tr = sample_training_set(whole, n, rng)
            c = train("conv", tr, TrainConfig(loss="hinge"), rng, k=5)
            l = train("1layer", tr, TrainConfig(loss="hinge"), rng)
            conv.append(classification_error(c.weights, whole))
            onel.append(classification_error(l.weights, whole))
        stats[n] = (_mean_se(conv), _mean_se(onel))
    (c10, c10se), (l10, l10se) = stats[10]
    (c300, c300se), (l300, l300se) = stats[300]
    near_ok = abs(c10 - l10) <= 0.05
    gap300 = l300 - c300
    disjoint = c300 + 3.0 * c300se < l300 - 3.0 * l300se
    far_ok = gap300 >= 0.05 and disjoint
    runtime = time.perf_counter() - t0
    ok = near_ok and far_ok and runtime < 300.0
    _emit(acceptance_report,
          f"criterion 4: {'PASS' if ok else 'FAIL'} "
          f"(n=300 conv {c300:.4f} vs 1layer {l300:.4f}, gap {gap300:.4f} "
          f"needs >= 0.05, 3-SE intervals "
          f"{'disjoint' if disjoint else 'overlap'}; n=10 gap "
          f"{abs(c10 - l10):.4f} within 0.05, {runtime:.0f}s within 300s)")
    assert ok


def test_criterion_05_error_upper_bound(acceptance_report):
    """The limiting-error estimate stays below the no-adjacent-pair
    probability plus the exact coverage term (3 combined SEs of slack)
    at every n in {50, 100, 200, 400}."""
    t0 = time.perf_counter()
    whole = whole_dataset("cls", 100)
    details = []
    ok = True
    for n in (50, 100, 200, 400):
        est = asymptotic_error_estimate(whole, n, 5, 100,
                                        np.random.default_rng(500 + n))
        p, pse = estimate_prob_no_adjacent_pair(
            100, 5, n, 10_000, np.random.default_rng(900 + n))
        bound = p + coverage_term_exact(100, 5, n) + \
            3.0 * math.hypot(est.stderr, pse)
        ok &= est.mean <= bound
        details.append(f"n={n} {est.mean:.4f} <= {bound:.4f}")
    runtime = time.perf_counter() - t0
    ok &= runtime < 300.0
    _emit(acceptance_report,
          f"criterion 5: {'PASS' if ok else 'FAIL'} "
          f"({'; '.join(details)}, {runtime:.0f}s within 300s)")
    assert ok


def test_criterion_06_bound_piece_shapes(acceptance_report):
    """Along the analysis grid the piece-ratio should strictly shrink
    from n = 100 to n = 400, and the summed pieces should undercut the
    one-layer closed form for n >= 200.  The ratio uses the exact
    no-adjacent-pair probability (about 1e-24 at n = 100), which the
    10^4-draw Monte Carlo cannot resolve."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(experiment="analysis-curves",
                          n=(100, 200, 300, 400, 500), trials=10_000, seed=0)
    result = run(spec)
    vals = {n: {} for n in spec.n}
    for row in result.rows:
        vals[row.n][row.aux_key] = float(row.aux_value)
    ratio_ok = vals[400]["ratio"] < vals[100]["ratio"]
    sums_ok = all(vals[n]["sum_approx"] < vals[n]["onelayer"]
                  for n in (200, 300, 400, 500))
    runtime = time.perf_counter() - t0
    ok = ratio_ok and sums_ok and runtime < 60.0
    _emit(acceptance_report,
          f"criterion 6: {'PASS' if ok else 'FAIL'} "
          f"(ratio n=400 {vals[400]['ratio']:.3e} vs n=100 "
          f"{vals[100]['ratio']:.3e} needs strict decrease, summed pieces "
          f"{'below' if sums_ok else 'not below'} one-layer for n >= 200, "
          f"{runtime:.0f}s within 60s)")
    assert ok


def test_criterion_07_spaced_design_no_advantage(acceptance_report):
    """The evenly-spaced training set has Gram residual at most 1e-12
    and conv limiting error within 3 pooled SEs of one layer."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(experiment="prop1-check", trials=200, seed=0)
    result = run(spec)
    resid = result.extras["gram_residual"]
    gap = abs(result.extras["conv_mean"] - result.extras["onelayer_mean"])
    slack = 3.0 * math.hypot(result.extras["conv_se"],
                             result.extras["onelayer_se"])
    runtime = time.perf_counter() - t0
    ok = resid <= 1e-12 and gap <= slack and runtime < 60.0
    _emit(acceptance_report,
          f"criterion 7: {'PASS' if ok else 'FAIL'} "
          f"(gram residual {resid:.1e} within 1e-12, conv vs 1layer gap "
          f"{gap:.4f} within {slack:.4f}, {runtime:.0f}s within 60s)")
    assert ok


def test_criterion_08_nonnegative_matrix_suite(acceptance_report):
    """1000 random nonnegative matrices (k <= 6): primitivity agrees
    with the definition oracle, irreducible plus positive diagonal
    implies primitive, and a primitive Gram matrix forces a simple,
    entrywise-positive top singular direction."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    mismatches = implication_failures = pair_failures = 0
    primitive_grams = 0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        density = rng.uniform(0.1, 0.9)
        A = rng.random((k, k)) * (rng.random((k, k)) < density)
        if is_primitive_bruteforce(A) != primitive_by_definition(A):
            mismatches += 1
        if is_irreducible(A) != irreducible_by_definition(A):
            mismatches += 1
        if is_irreducible(A) and np.all(np.diag(A) > 0):
            if not is_primitive_bruteforce(A):
                implication_failures += 1
        d = k + int(rng.integers(0, 8))
        M = rng.random((d, k)) * (rng.random((d, k)) < density)
        if np.any(M.sum(axis=0) == 0.0):
            continue
        if is_primitive_bruteforce(M.T @ M):
            primitive_grams += 1
            dec = fix_top_pair_sign(thin_svd(M))
            if dec.m != 1 or not np.all(dec.V[:, 0] > 0):
                pair_failures += 1
    runtime = time.perf_counter() - t0
    ok = (mismatches == 0 and implication_failures == 0
          and pair_failures == 0 and primitive_grams > 100
          and runtime < 30.0)
    _emit(acceptance_report,
          f"criterion 8: {'PASS' if ok else 'FAIL'} "
          f"(0 oracle mismatches, {implication_failures} implication and "
          f"{pair_failures} top-pair failures over {primitive_grams} "
          f"primitive grams, {runtime:.0f}s within 30s)")
    assert ok


def test_criterion_09_shared_init_correlation(acceptance_report):
    """Across 100 shared inits the extreme-hinge snapshot accuracy at
    t = 150 correlates with final hinge accuracy (r > 0.3), and every
    hinge trace is frozen once its training loss reaches zero: five
    steps of the reference loop from its final weights move no weight
    and leave its whole-dataset error as it was."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(experiment="init-study", seed=0)
    result = run(spec)
    r = result.extras["pearson_r"]
    whole = whole_dataset("cls", 100)
    tr_rng = np.random.default_rng(derive_seed(0, "init-study", 30, 100))
    tr = sample_training_set(whole, 30, tr_rng)
    extend = TrainConfig(loss="hinge", max_steps=5)
    frozen = total = 0
    for trial, loss, trace in result.traces:
        if loss != "hinge":
            continue
        total += 1
        if trace.stop_reason != "loss-zero":
            continue
        ext = scalar_train("conv", tr, extend, None, initial=trace.weights,
                           eval_set=whole, past_fit=True)
        if (np.array_equal(ext.weights.w1, trace.weights.w1)
                and np.array_equal(ext.weights.w2, trace.weights.w2)
                and ext.test_error[-1] == trace.test_error[-1]):
            frozen += 1
    runtime = time.perf_counter() - t0
    ok = r > 0.3 and total == 100 and frozen == total and runtime < 300.0
    _emit(acceptance_report,
          f"criterion 9: {'PASS' if ok else 'FAIL'} "
          f"(pearson r {r:.4f} above 0.3, {frozen}/{total} hinge runs "
          f"frozen after fit, {runtime:.0f}s within 300s)")
    assert ok


def test_criterion_10_sample_complexity_values(acceptance_report):
    """48.8 +- 0.1 samples at (d=100, k=5, eps=0.005), and the per-d
    rate at d = 10^4 within 2% of its large-d limit."""
    t0 = time.perf_counter()
    sc = sample_complexity(100, 5, 0.005)
    near = abs(sc.n_exact - 48.8) <= 0.1
    big = sample_complexity(10**4, 5, 0.005)
    ratio = (big.n_exact / 10**4) / big.n_limit_per_d
    limit_ok = abs(ratio - 1.0) < 0.02
    runtime = time.perf_counter() - t0
    ok = near and limit_ok and runtime < 1.0
    _emit(acceptance_report,
          f"criterion 10: {'PASS' if ok else 'FAIL'} "
          f"(n_exact {sc.n_exact:.2f} within 48.8 +- 0.1, large-d ratio "
          f"{ratio:.4f} within 2%, {runtime:.2f}s within 1s)")
    assert ok


def test_criterion_11_ordering_task_bias(acceptance_report):
    """On the pairwise-ordering task at the largest tested n, extreme
    hinge generalizes worse than plain hinge (sign of the gap only)."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(experiment="asym-vs-losses", task="3rdctrl",
                          n=(500,), trials=100, seed=0)
    result = run(spec)
    xm, _ = summarize(result.rows, loss="xhinge")
    hm, _ = summarize(result.rows, loss="hinge")
    runtime = time.perf_counter() - t0
    ok = xm > hm and runtime < 600.0
    _emit(acceptance_report,
          f"criterion 11: {'PASS' if ok else 'FAIL'} "
          f"(extreme-hinge error {xm:.4f} above hinge {hm:.4f}, "
          f"{runtime:.0f}s within 600s)")
    assert ok
