"""Acceptance suite: every headline guarantee at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  The Monte Carlo criteria use fixed seeds, so outcomes are exactly
reproducible.
"""

import math
import time

import numpy as np

from catpop.cli import main as cli_main
from catpop.exact import (
    exact_state_distribution,
    exact_tail_probability,
    poisson_lower_tail_exact,
    total_variation,
    uniform_sum_tail_exact,
)
from catpop.model import ModelParams, optimal_path
from catpop.montecarlo import (
    collect_weighted_paths,
    default_tilt,
    estimate_tail_is,
    rate_curve_sweep,
    sample_terminal_states,
    sup_exceedance_fraction,
)
from catpop.paths import conditioned_mean_path, path_distance
from catpop.rates import (
    birth_increment_rate,
    catastrophe_lower_tail_bound,
    terminal_rate,
    terminal_rate_variational,
    uniform_sum_tail_bound,
)
from catpop.streams import derive_seed

P111 = ModelParams(1.0, 1.0, 1.0)
P2315 = ModelParams(2.0, 3.0, 1.5)
TRIPLES = (P111, P2315, ModelParams(0.5, 2.0, 1.0))

WORKERS = 2


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} — {detail}", flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_variational_identity():
    start = time.perf_counter()
    worst = 0.0
    for params in TRIPLES:
        for x in np.linspace(0.06, 3.0, 50) * params.alpha:
            value, _ = terminal_rate_variational(float(x), params, tol=1e-6)
            worst = max(worst, abs(value - terminal_rate(float(x), params)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(1, "variational identity", ok,
            f"max |closed - variational| = {worst:.2e} over 150 points in {elapsed:.2f}s")


def test_criterion_2_rate_function_regularity():
    gaps = []
    for params in TRIPLES:
        alpha = params.alpha
        first = alpha * math.log((params.lam + params.mu) / params.lam)
        gaps.append(abs(first - terminal_rate(alpha, params)))
    continuity = max(gaps)

    grid = np.linspace(0.0, 3.0 * P111.alpha, 1000)
    values = np.array([terminal_rate(float(x), P111) for x in grid])
    # the -1e-12 floor absorbs float rounding of the exactly convex formula
    monotone_violations = int(np.count_nonzero(np.diff(values) < -1e-12))
    convex_violations = int(np.count_nonzero(np.diff(values, 2) < -1e-12))
    zero_exact = terminal_rate(0.0, P111) == 0.0

    ok = (
        continuity <= 1e-12
        and monotone_violations == 0
        and convex_violations == 0
        and zero_exact
    )
    _report(2, "rate-function regularity", ok,
            f"continuity gap {continuity:.2e}, monotone/convex violations "
            f"{monotone_violations}/{convex_violations} on 1000 points, I(0)={terminal_rate(0.0, P111)}")


def test_criterion_3_simulators_match_exact_oracle():
    start = time.perf_counter()
    n, T = 1_000_000, 4.0
    pmf = exact_state_distribution(P111, T, 64, 60)
    assert pmf.truncation_error < 1e-12

    sub = sample_terminal_states(P111, T, n, 101, "subordinated", workers=WORKERS)
    dec = sample_terminal_states(P111, T, n, 103, "decomposed", workers=WORKERS)
    emp_sub = np.bincount(sub, minlength=65) / n
    emp_dec = np.bincount(dec, minlength=65) / n

    tv_sub = total_variation(emp_sub, pmf.masses)
    tv_dec = total_variation(emp_dec, pmf.masses)
    tv_cross = total_variation(emp_sub, emp_dec)
    elapsed = time.perf_counter() - start

    ok = tv_sub <= 0.01 and tv_dec <= 0.01 and tv_cross <= 0.01 and elapsed < 120.0
    _report(3, "simulator vs exact oracle", ok,
            f"TV sub={tv_sub:.4f}, dec={tv_dec:.4f}, cross={tv_cross:.4f} "
            f"at 1e6 replicas each in {elapsed:.0f}s")


def test_criterion_4_bound_domination():
    cat_violations = 0
    cat_checks = 0
    for params in (P111, P2315):
        for window_start in (0.0, 0.5):
            for c_step in range(1, 20):
                c = 0.05 * c_step
                for T in (10.0, 50.0):
                    bound = catastrophe_lower_tail_bound(c, T, params, window_start)
                    rate = params.catastrophe_rate * (1.0 - window_start) * T
                    exact = poisson_lower_tail_exact(rate, math.floor(c * T))
                    cat_checks += 1
                    if exact > bound:
                        cat_violations += 1

    sum_violations = 0
    sum_checks = 0
    T = 10.0
    for m in (5, 20):
        for n in (3, 10):
            for k in range(1, 11):
                threshold = 0.5 * m * n * 0.2 * k  # sweeps 10%..100% of the support
                bound = uniform_sum_tail_bound((n + 0.5) / T, (m + 0.5) / T, T, threshold / T)
                exact = uniform_sum_tail_exact(m, n, threshold)
                sum_checks += 1
                if exact > bound:
                    sum_violations += 1

    ok = cat_violations == 0 and sum_violations == 0
    _report(4, "bound domination", ok,
            f"catastrophe-tail {cat_violations}/{cat_checks} violations, "
            f"uniform-sum {sum_violations}/{sum_checks} violations")


def _legendre_numeric(x: float, params: ModelParams, window_start: float) -> float:
    mean = params.birth_rate * (1.0 - window_start)

    def gain(y: float) -> float:
        return x * y - mean * (math.exp(y) - 1.0)

    lo, hi = -40.0, 40.0
    invphi = (math.sqrt(5) - 1) / 2
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = gain(c), gain(d)
    while hi - lo > 1e-12:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = gain(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = gain(d)
    return max(fc, fd)


def test_criterion_5_legendre_consistency():
    worst = 0.0
    window_starts = (0.0, 0.25, 0.5, 0.75)
    xs = np.linspace(0.1, 2.0, 20)
    for i, x in enumerate(xs):
        window_start = window_starts[i % 4]
        numeric = _legendre_numeric(float(x), P111, window_start)
        closed = birth_increment_rate(float(x), P111, window_start)
        worst = max(worst, abs(numeric - closed))
    ok = worst <= 1e-8
    _report(5, "Legendre consistency", ok,
            f"max |numeric sup - closed form| = {worst:.2e} over 20 (x, window) pairs")


def test_criterion_6_lln_decay():
    horizons = (25.0, 50.0, 100.0, 200.0)
    fractions = []
    for T in horizons:
        seed = derive_seed(606, int(T))
        result = sup_exceedance_fraction(P111, T, 0.2, 10_000, seed, workers=WORKERS)
        fractions.append(result.p_hat)
    nonincreasing = all(a >= b for a, b in zip(fractions, fractions[1:]))
    ok = nonincreasing and fractions[-1] < 0.01
    _report(6, "LLN sup-exceedance decay", ok,
            "fractions " + ", ".join(f"T={int(T)}: {f:.4f}" for T, f in zip(horizons, fractions)))


def test_criterion_7_ldp_rate_convergence():
    start = time.perf_counter()
    horizons = [40.0, 80.0, 160.0]
    summaries = []
    ok = True
    for x, target, window in (
        (0.5, 0.5 * math.log(2.0), (0.24, 0.52)),
        (2.0, 2.0 * math.log(4.0) - 1.0, (1.33, 2.22)),
    ):
        points = rate_curve_sweep(P111, x, horizons, "is", 100_000, 2024, workers=WORKERS)
        rates = [pt.result.log_rate for pt in points]
        gaps = [abs(r - target) for r in rates]
        decreasing = gaps[0] > gaps[1] > gaps[2]
        in_window = window[0] <= rates[-1] <= window[1]
        ok = ok and decreasing and in_window
        summaries.append(
            f"x={x}: log_rate(160)={rates[-1]:.4f} (target {target:.4f}), "
            f"gaps {gaps[0]:.4f}>{gaps[1]:.4f}>{gaps[2]:.4f}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    _report(7, "LDP rate convergence", ok, "; ".join(summaries) + f" in {elapsed:.0f}s")


def test_criterion_8_optimal_path_recovery():
    x = 0.5
    tilt = default_tilt(x, P111)
    reference = optimal_path(x, P111)
    distances = {}
    for T in (40.0, 80.0, 160.0):
        samples = collect_weighted_paths(P111, T, x, tilt, 100_000, 31,
                                         grid_size=100, workers=WORKERS)
        mean = conditioned_mean_path(samples, grid_size=100)
        distances[T] = path_distance(mean, reference)
    ok = (
        distances[160.0] <= 0.1
        and distances[40.0] > distances[80.0] > distances[160.0]
    )
    _report(8, "optimal-path recovery", ok,
            f"sup distance T=160: {distances[160.0]:.4f} (<= 0.1), improving "
            f"{distances[40.0]:.4f} > {distances[80.0]:.4f} > {distances[160.0]:.4f}")


def test_criterion_9_unbiasedness_and_reproducibility(tmp_path):
    T, x, runs, n = 4.0, 0.5, 100, 10_000
    exact, _ = exact_tail_probability(P111, T, x, 64, 60)
    tilt = default_tilt(x, P111)
    within = 0
    within_raw = 0
    for k in range(runs):
        result = estimate_tail_is(P111, T, x, tilt, n, derive_seed(4242, k))
        if abs(result.p_hat - exact) <= 3.0 * result.std_err:
            within += 1
        # diagnostic only: the same check with the plain (non-ESS-deflated)
        # standard error sqrt(var/n)
        raw_se = result.std_err * math.sqrt(result.ess / result.n)
        if abs(result.p_hat - exact) <= 3.0 * raw_se:
            within_raw += 1

    def _bytes(argv, out):
        path = tmp_path / out
        rc = cli_main([*argv, "--out", str(path)])
        assert rc == 0
        return path.read_bytes()

    commands = {
        "simulate": ["simulate", "--T", "4", "--seed", "5"],
        "exact": ["exact", "--T", "4", "--x", "0.5"],
        "rate": ["rate", "--grid", "5", "--x", "2"],
        "estimate": ["estimate", "--T", "4", "--x", "0.5", "--n", "2000", "--method", "is", "--seed", "7"],
        "lln": ["lln", "--T-list", "4,8", "--eps", "0.5", "--n", "500", "--seed", "7"],
        "sweep": ["sweep", "--T-list", "4,8", "--x", "0.5", "--n", "500", "--seed", "7"],
        "paths": ["paths", "--T", "20", "--x", "0.5", "--n", "2000", "--seed", "7"],
    }
    # simulate, exact and rate run in one process and take no --workers
    pool_commands = {"estimate", "lln", "sweep", "paths"}
    deterministic = True
    worker_invariant = True
    for name, argv in commands.items():
        first = _bytes(argv, f"{name}_a")
        second = _bytes(argv, f"{name}_b")
        deterministic = deterministic and first == second
        if name in pool_commands:
            third = _bytes(argv + ["--workers", "3"], f"{name}_c")
            worker_invariant = worker_invariant and first == third

    ok = within >= 95 and deterministic and worker_invariant
    _report(9, "unbiasedness and reproducibility", ok,
            f"{within}/100 runs within 3 SE of exact ({within_raw}/100 with the "
            f"plain sqrt(var/n) SE); byte-deterministic={deterministic}, "
            f"worker-invariant={worker_invariant}")
