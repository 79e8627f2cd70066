"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Exact
criteria assert literal rational equality (gap 0); truncated and Monte Carlo
criteria assert their stated tolerances.  Stated runtime budgets are enforced.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
from scipy import integrate

from properloss import (
    DegreeGateError,
    Distribution,
    Histogram,
    InternalSource,
    Mode,
    RealSample,
    binom_mvue,
    block_average,
    bregman_known_target,
    builtin_brier,
    builtin_l2,
    builtin_lk_even,
    check_implements,
    compile_known_target,
    compile_two_sample,
    cramer_distance_oracle,
    cramer_loss,
    cross_entropy_poisson,
    crps,
    draw_fixed,
    ecdf,
    empirical,
    energy_loss,
    entropy_poisson,
    enumerate_histograms,
    estimate_loss,
    exact_expected_two_sample,
    kl_poisson,
    multinomial_monomial_mvue,
    multinomial_pmf,
    naive_plugin_bias_demo,
    naive_plugin_loss,
    poisson_expected_loss,
    poisson_factorial,
    simplex_grid,
    squared_norm_gradient,
    squared_norm_polynomial,
    variance_mvue,
)
from properloss.divergences import Monomial, PolyDivergence
from properloss.estimators import ExponentVector

HALF = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])
SKEW = Distribution.exact([Fraction(1, 4), Fraction(3, 4)])


def report(number: int, name: str, passed: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number:02d} {name} ({elapsed:.2f}s) {detail}")
    assert passed, f"criterion {number:02d} {name}: {detail}"


def grid_pairs(d, denominator):
    points = simplex_grid(d, denominator)
    return [(p, q) for p in points for q in points]


def test_c01_squared_known_target_exactness():
    t0 = time.perf_counter()
    ok = True
    for d, denom in ((2, 8), (3, 4)):
        divergence = builtin_l2(d)
        pairs = grid_pairs(d, denom)
        for n in (2, 3, 4, 5):
            reports = check_implements(compile_known_target(divergence, n), divergence, pairs)
            ok = ok and all(r.passed and r.gap == 0 for r in reports)
    elapsed = time.perf_counter() - t0
    report(1, "known-target squared loss is exactly unbiased", ok and elapsed < 10, elapsed,
           "rational gap 0 on both grids, n=2..5")


def test_c02_squared_two_sample_exactness():
    t0 = time.perf_counter()
    ok = True
    for d, denom in ((2, 8), (3, 4)):
        divergence = builtin_l2(d)
        pairs = grid_pairs(d, denom)
        for n in (2, 3):
            for m in (2, 3):
                reports = check_implements(compile_two_sample(divergence, n, m), divergence, pairs)
                ok = ok and all(r.passed and r.gap == 0 for r in reports)
    elapsed = time.perf_counter() - t0
    report(2, "two-sample squared loss is exactly unbiased", ok and elapsed < 30, elapsed,
           "rational gap 0 on both grids, n,m in {2,3}")


def test_c03_compiler_soundness_and_tight_gates():
    t0 = time.perf_counter()
    ok = True
    pairs = grid_pairs(2, 4)
    for divergence in (builtin_l2(2), builtin_lk_even(2, 4), builtin_brier(2)):
        n, m = divergence.deg_p, divergence.deg_q
        loss = compile_two_sample(divergence, n, m)
        reports = check_implements(loss, divergence, pairs)
        ok = ok and all(r.passed and r.gap == 0 for r in reports)
        for bad in ((n - 1, m), (n, m - 1)):
            try:
                compile_two_sample(divergence, *bad)
                ok = False
            except DegreeGateError as exc:
                ok = ok and exc.n_required == n and exc.m_required == m
    elapsed = time.perf_counter() - t0
    report(3, "compiler exact at the degree boundary, gate tight below it", ok and elapsed < 60,
           elapsed, "l2, lk:4, brier")


def test_c04_plugin_loss_is_improper():
    t0 = time.perf_counter()
    q = Distribution.exact([Fraction(1, 10), Fraction(9, 10)])
    n = 10
    interior = [(p, q) for p in simplex_grid(2, 8) if 0 < p.probs[0] < 1]
    reports = check_implements(naive_plugin_loss(n), builtin_l2(2), interior)
    all_fail = all(not r.passed and r.gap > 0 for r in reports)
    demo = naive_plugin_bias_demo(q, 10)
    exact_form = demo.closed_form == Fraction(1, 18)
    agreement = abs(float(demo.closed_form) - demo.grid_argmin) <= 1e-4
    below = all(naive_plugin_bias_demo(q, k).closed_form < Fraction(1, 10) for k in range(2, 21))
    elapsed = time.perf_counter() - t0
    report(4, "plug-in squared loss is biased toward low-variance models",
           all_fail and exact_form and agreement and below, elapsed,
           f"optimum 1/18 at n=10, below 1/10 for n=2..20")


def test_c05_cross_entropy_poisson_loss():
    t0 = time.perf_counter()
    loss = cross_entropy_poisson(6.0, 6.0)
    est1 = poisson_expected_loss(loss, HALF, HALF, tail_eps=1e-10)
    gap1 = abs(est1.value - math.log(2))
    target2 = -(0.5 * math.log(0.25) + 0.5 * math.log(0.75))  # recomputed from -sum q ln p
    est2 = poisson_expected_loss(loss, SKEW, HALF, tail_eps=1e-10)
    gap2 = abs(est2.value - target2)
    elapsed = time.perf_counter() - t0
    report(5, "Poisson-size loss implements the cross-entropy", gap1 <= 1e-4 and gap2 <= 1e-4 and elapsed < 60,
           elapsed, f"gaps {gap1:.2e}, {gap2:.2e}")


def test_c06_entropy_and_kl_signs():
    t0 = time.perf_counter()
    ent = poisson_expected_loss(entropy_poisson(6.0), None, HALF, tail_eps=1e-10)
    gap_ent = abs(ent.value - math.log(2))  # E = -sum q ln q >= 0
    kl = poisson_expected_loss(kl_poisson(8.0, 8.0), SKEW, HALF, tail_eps=1e-10)
    target_kl = 0.5 * math.log(2) + 0.5 * math.log(2.0 / 3.0)
    gap_kl = abs(kl.value - target_kl)
    elapsed = time.perf_counter() - t0
    report(6, "entropy loss averages to the Shannon entropy; KL loss to sum q ln(q/p)",
           gap_ent <= 1e-4 and gap_kl <= 1e-3, elapsed, f"gaps {gap_ent:.2e}, {gap_kl:.2e}")


def test_c07_single_draw_expected_losses_cannot_be_strictly_proper():
    t0 = time.perf_counter()
    inner = PolyDivergence(
        tuple(Monomial(1, ExponentVector.unit(2, x), ExponentVector.unit(2, x)) for x in range(2))
    )
    loss = compile_two_sample(inner, 1, 1)
    grid = simplex_grid(2, 8)
    # under a uniform target the expected loss is constant across every model
    uniform_vals = [exact_expected_two_sample(loss, p, Distribution.uniform(2)) for p in grid]
    constant = max(uniform_vals) - min(uniform_vals) == 0
    # under any fixed target it is affine in the model (vanishing second
    # differences along the evenly spaced grid), so no interior optimum exists
    affine = True
    for q in (Distribution.uniform(2), SKEW):
        vals = [exact_expected_two_sample(loss, p, q) for p in grid]
        seconds = [vals[i + 1] - 2 * vals[i] + vals[i - 1] for i in range(1, len(vals) - 1)]
        affine = affine and all(s == 0 for s in seconds)
    elapsed = time.perf_counter() - t0
    report(7, "single-draw expected losses are affine, constant under a uniform target",
           constant and affine, elapsed, f"max-min = {max(uniform_vals) - min(uniform_vals)} exactly")


def test_c08_bregman_construction():
    t0 = time.perf_counter()
    potential = squared_norm_polynomial(2)
    gradient = squared_norm_gradient(2)
    identity_ok = True
    for n in (2, 3, 4):
        for p in simplex_grid(2, 4):
            mean_g = sum(
                multinomial_pmf(h, n, p) * potential.evaluate(empirical(h).probs, empirical(h).probs)
                for h in enumerate_histograms(2, n)
                if multinomial_pmf(h, n, p) != 0
            )
            gap = mean_g - potential.evaluate(p.probs, p.probs)
            identity_ok = identity_ok and gap == sum(px * (1 - px) for px in p.probs) / n
    pointwise_ok = True
    for n in (2, 3, 4):
        bloss = bregman_known_target(potential, gradient, n)
        squared = compile_known_target(builtin_l2(2), n)
        for h in enumerate_histograms(2, n):
            for q in simplex_grid(2, 4):
                pointwise_ok = pointwise_ok and bloss.evaluator(h, q) == squared.evaluator(h, q)
    elapsed = time.perf_counter() - t0
    report(8, "Bregman loss reproduces the squared loss; mean-vs-truth gap is the summed variance",
           identity_ok and pointwise_ok, elapsed, "exact for n in {2,3,4}")


def _quadrature(s: RealSample, u: RealSample) -> float:
    def integrand(x):
        fs = float(ecdf(s, x))
        fu = float(ecdf(u, x))
        return (fs - fu) ** 2 - float(variance_mvue(fs, s.size)) - float(variance_mvue(fu, u.size))

    points = sorted(set(float(v) for v in s.values) | set(float(v) for v in u.values))
    value, _ = integrate.quad(integrand, points[0] - 1.0, points[-1] + 1.0, points=points, limit=200)
    return value


def _two_draws(w):
    return [
        (RealSample((0, 0)), w * w),
        (RealSample((0, 1)), 2 * w * (1 - w)),
        (RealSample((1, 1)), (1 - w) * (1 - w)),
    ]


def test_c09_continuous_losses():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240808)
    quad_ok = True
    for _ in range(100):
        s = RealSample(tuple(rng.uniform(-10, 10, int(rng.integers(2, 21)))))
        u = RealSample(tuple(rng.uniform(-10, 10, int(rng.integers(2, 21)))))
        quad_ok = quad_ok and abs(float(cramer_loss(s, u)) - _quadrature(s, u)) <= 1e-9
    enum_ok = True
    for wp, wq in ((Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 4), Fraction(2, 3))):
        truth = cramer_distance_oracle((0, 1), (wp, 1 - wp), (0, 1), (wq, 1 - wq))
        mean_c = sum(ps * pu * cramer_loss(s, u) for s, ps in _two_draws(wp) for u, pu in _two_draws(wq))
        mean_e = sum(ps * pu * energy_loss(s, u) for s, ps in _two_draws(wp) for u, pu in _two_draws(wq))
        enum_ok = enum_ok and mean_c == truth and mean_e == 2 * truth
    crps_ok = crps(RealSample((0, 1)), 0) == 0
    elapsed = time.perf_counter() - t0
    report(9, "CDF-distance losses: quadrature agreement, exact unbiasedness, energy = 2x",
           quad_ok and enum_ok and crps_ok, elapsed, "100 quadrature pairs at 1e-9; enumeration exact")


def test_c10_monte_carlo_calibration_and_block_averaging():
    t0 = time.perf_counter()
    truth = float(builtin_l2(2).evaluate(SKEW, HALF))  # recomputed, = 0.125
    loss = compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT)
    model = InternalSource(Distribution.floating([0.25, 0.75]))
    target = InternalSource(Distribution.floating([0.5, 0.5]))
    covered = 0
    runs = 1000
    for seed in range(runs):
        r = estimate_loss(model, target, loss, 10**4, seed)
        if r.ci_low <= truth <= r.ci_high:
            covered += 1
    coverage = covered / runs

    known = compile_known_target(builtin_l2(2), 2, Mode.FLOAT)
    q = Distribution.floating([0.5, 0.5])
    src = InternalSource(q)
    singles = np.empty(10**4)
    averaged = np.empty(10**4)
    for s in range(10**4):
        singles[s] = block_average(draw_fixed(src, 2, seed=s), 2, known, q=q, seed=s)
        averaged[s] = block_average(draw_fixed(src, 8, seed=10**7 + s), 2, known, q=q, seed=s)
    variance_drop = float(np.var(averaged)) < float(np.var(singles))
    elapsed = time.perf_counter() - t0
    report(10, "nominal 95% intervals cover; four blocks beat one block",
           coverage >= 0.93 and variance_drop and elapsed < 300, elapsed,
           f"coverage {coverage:.1%}, block variances {np.var(averaged):.4f} < {np.var(singles):.4f}")


def test_c11_estimator_unit_exactness():
    t0 = time.perf_counter()

    def binomial_pmf(t, m, a):
        return math.comb(m, t) * a**t * (1 - a) ** (m - t)

    binom_ok = True
    for m in range(1, 7):
        for k in range(m + 1):
            for alpha in (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                expect = sum(binomial_pmf(t, m, alpha) * binom_mvue(t, m, k) for t in range(m + 1))
                binom_ok = binom_ok and expect == alpha**k

    multi_ok = True
    for d, p in ((2, (Fraction(1, 3), Fraction(2, 3))), (3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))):
        for n in range(1, 6):
            hists = enumerate_histograms(d, n)
            dist = Distribution.exact(p)
            pmfs = [multinomial_pmf(h, n, dist) for h in hists]
            for exps in product(range(n + 1), repeat=d):
                if sum(exps) > n:
                    continue
                j = ExponentVector(exps)
                expect = sum(
                    w * multinomial_monomial_mvue(h, n, j) for h, w in zip(hists, pmfs) if w != 0
                )
                multi_ok = multi_ok and expect == math.prod(px**e for px, e in zip(p, exps))

    # Poisson: the truncated expectation sum is exactly theta^k times a
    # truncated exponential series (same series reindexed), and the float
    # expectation lands within the declared tail allowance
    poisson_ok = True
    for theta in (Fraction(1, 2), Fraction(2), Fraction(8)):
        for k in range(7):
            T = 60
            lhs = sum(theta**t * poisson_factorial(t, k) / math.factorial(t) for t in range(T + 1))
            rhs = theta**k * sum(theta**s / math.factorial(s) for s in range(T - k + 1))
            poisson_ok = poisson_ok and lhs == rhs
            expect = sum(
                math.exp(-float(theta)) * float(theta) ** t / math.factorial(t) * poisson_factorial(t, k)
                for t in range(T + 1)
            )
            poisson_ok = poisson_ok and abs(expect - float(theta) ** k) <= 1e-9 * max(1.0, float(theta) ** k)

    cross_ok = all(
        binom_mvue(t, m, k) == multinomial_monomial_mvue(Histogram((t, m - t)), m, ExponentVector((k, 0)))
        for m in range(1, 6)
        for k in range(m + 1)
        for t in range(m + 1)
    )

    variance_ok = all(
        sum(binomial_pmf(t, n, a) * variance_mvue(Fraction(t, n), n) for t in range(n + 1)) == a * (1 - a) / n
        for n in range(2, 7)
        for a in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3))
    )

    zero = Histogram((0, 0))
    vanish_ok = poisson_factorial(0, 1) == 0 and multinomial_monomial_mvue(zero, 0, ExponentVector((0, 0))) == 1

    ok = binom_ok and multi_ok and poisson_ok and cross_ok and variance_ok and vanish_ok
    elapsed = time.perf_counter() - t0
    report(11, "estimator unbiasedness holds with exact rational equality", ok and elapsed < 10,
           elapsed, "binomial, multinomial, Poisson, variance, cross-consistency")
