from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial
import math
import multiprocessing
from multiprocessing.connection import wait
import os
from pathlib import Path
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catpop import montecarlo
from catpop.exact import exact_state_distribution, exact_tail_probability, tail_level, total_variation
from catpop.model import (
    ModelParams,
    PathSample,
    SimSpec,
    _decomposed_block,
    _grid_states,
    optimal_path,
    scale_path,
    simulate_decomposed,
)
from catpop.montecarlo import (
    EstimateResult,
    TiltConfig,
    collect_weighted_paths,
    default_tilt,
    estimate_tail_is,
    estimate_tail_naive,
    likelihood_ratio,
    rate_curve_sweep,
    sample_terminal_states,
    sup_exceedance_fraction,
    sup_fraction_sweep,
    _block_bounds,
    _worker_count,
)
from catpop.paths import NoQualifyingSamplesError
from catpop.streams import BLOCK, derive_seed, replica_rng

P111 = ModelParams(1.0, 1.0, 1.0)
EXACT_TAIL_111_T4_X05 = 0.364847004572957


@pytest.fixture
def fresh_pool():
    """The process's worker pool shut down before and after the test.

    The pool lives for the process and its workers see module state as of
    their fork, so a test that patches the executor or counts the pools it
    starts begins without one and leaves none behind.
    """
    montecarlo._shutdown_pool()
    yield
    montecarlo._shutdown_pool()


def _run_child(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's catpop."""
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)


def test_tilt_validation():
    with pytest.raises(ValueError):
        TiltConfig(switch_time_s=1.0)
    with pytest.raises(ValueError):
        TiltConfig(theta1=0.0)
    with pytest.raises(ValueError):
        TiltConfig(theta2=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="theta1"):
            TiltConfig(theta1=bad)
        with pytest.raises(ValueError, match="theta2"):
            TiltConfig(theta2=bad)
    # the defaults are the plain measure: no window start, unit multipliers, every weight 1
    assert TiltConfig() == TiltConfig(0.0, 1.0, 1.0)
    assert TiltConfig().weight(np.array([0, 7, 0]), np.array([0, 0, 5]), P111, 4.0).tolist() == [1.0, 1.0, 1.0]


def test_default_tilt_below_clock_rate():
    tilt = default_tilt(0.5, P111)
    assert tilt == TiltConfig(0.5, 2.0, None)
    # tilted birth intensity on the climb window equals the clock rate
    assert P111.birth_rate * tilt.theta1 == P111.alpha
    # the late window (2, 4] expects one catastrophe; the tilt leaves half of one
    assert tilt.at_horizon(P111, 4.0) == TiltConfig(0.5, 2.0, 0.5)
    assert replace(default_tilt(0.5, P111), theta2=0.05).at_horizon(P111, 4.0) == TiltConfig(0.5, 2.0, 0.05)


@pytest.mark.parametrize(
    "params",
    [P111, ModelParams(2.0, 3.0, 1.5), ModelParams(0.5, 2.0, 1.0), ModelParams(0.3, 0.7, 2.5)],
    ids=["111", "2-3-1.5", "0.5-2-1", "0.3-0.7-2.5"],
)
def test_default_tilt_is_the_optimal_path(params):
    # births run at the trajectory's slope from its breakpoint on, to the last bit
    for x in np.linspace(0.06, 3.0, 50) * params.alpha:
        path = optimal_path(float(x), params)
        expected = TiltConfig(min(path.breakpoint, math.nextafter(1.0, 0.0)), path.slope / params.birth_rate, None)
        assert default_tilt(float(x), params) == expected


def test_default_tilt_above_clock_rate():
    tilt = default_tilt(2.0, P111)
    assert tilt == TiltConfig(0.0, 4.0, None)
    assert P111.birth_rate * tilt.theta1 == 2.0
    assert tilt.at_horizon(P111, 160.0).theta2 == 1.0 / 81.0


def test_default_tilt_boundary_and_errors():
    tilt = default_tilt(1.0, P111)
    assert tilt.switch_time_s == 0.0
    assert P111.birth_rate * tilt.theta1 == P111.alpha
    with pytest.raises(ValueError):
        default_tilt(0.0, P111)


def test_default_tilt_at_a_level_below_rounding_is_accurate():
    # 1 - 1e-17 rounds to 1.0; the switch time stays just below 1 and the weights near 1
    T, x, n = 4.0, 1e-17, 4000
    tilt = default_tilt(x, P111)
    assert tilt.switch_time_s == math.nextafter(1.0, 0.0)
    exact, _ = exact_tail_probability(P111, T, x, 64, 60)
    result = estimate_tail_is(P111, T, x, tilt.at_horizon(P111, T), n, 3)
    assert abs(result.p_hat - exact) <= 4.0 * result.std_err
    assert result.ess == pytest.approx(n, rel=1e-9)


def test_likelihood_ratio_identity_is_one():
    tilt = TiltConfig()
    for i in range(40):
        path = simulate_decomposed(P111, SimSpec(4.0, 5, i))
        assert likelihood_ratio(path, tilt, P111, 4.0) == 1.0


def test_likelihood_ratio_count_free_formula():
    # an event-free window leaves only the exponential intensity correction
    import numpy as np

    from catpop.model import PathSample

    empty = PathSample(np.empty(0), np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64))
    tilt = TiltConfig(0.5, 2.0, 0.05)
    T = 4.0
    window = 0.5 * T
    expected = math.exp(
        (2.0 - 1.0) * P111.birth_rate * window + (0.05 - 1.0) * P111.catastrophe_rate * window
    )
    assert likelihood_ratio(empty, tilt, P111, T) == pytest.approx(expected, rel=1e-14)


def test_likelihood_ratio_counts_late_events_only():
    import numpy as np

    from catpop.model import PathSample

    # one birth before the switch, one birth and one catastrophe after
    path = PathSample(
        np.array([1.0, 3.0, 3.5]),
        np.array([0, 0, 1], dtype=np.uint8),
        np.array([1, 2, 0], dtype=np.int64),
    )
    tilt = TiltConfig(0.5, 2.0, 0.05)
    T = 4.0
    window = 2.0
    expected = (
        math.exp((2.0 - 1.0) * 0.5 * window) * 2.0 ** -1
        * math.exp((0.05 - 1.0) * 0.5 * window) * 0.05 ** -1
    )
    assert likelihood_ratio(path, tilt, P111, T) == pytest.approx(expected, rel=1e-12)


def test_event_at_switch_time_counts_as_early():
    tilt = TiltConfig(0.5, 2.0, 0.05)
    T = 4.0
    empty = PathSample(np.empty(0), np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64))

    def one_catastrophe_at(t):
        return PathSample(np.array([t]), np.array([1], dtype=np.uint8), np.array([1], dtype=np.int64))

    early = likelihood_ratio(empty, tilt, P111, T)
    assert likelihood_ratio(one_catastrophe_at(2.0), tilt, P111, T) == early
    assert likelihood_ratio(one_catastrophe_at(np.nextafter(2.0, 3.0)), tilt, P111, T) != early


def _tilted_blocks(T, tilt, n, seed):
    # the block kernel's own rows for replicas [0, n), one block per stream
    tilt = tilt.at_horizon(P111, T)
    return [
        _decomposed_block(P111, T, replica_rng(seed, start // BLOCK), stop - start, tilt)
        for start, stop in _block_bounds(n)
    ]


def _replica_weights_and_hits(block, tilt, T, x):
    # likelihood_ratio and the terminal event of each of the block's own rows, one path at a time
    paths = [block.path(r) for r in range(block.terminal.size)]
    w = np.array([likelihood_ratio(path, tilt, P111, T) for path in paths])
    hits = np.array([(path.post_states[-1] if path.n_events else 0) / T >= x for path in paths])
    return paths, w, hits


@pytest.mark.parametrize(
    "x, T, tilted",
    [(0.5, 40.0, True), (0.05, 160.0, True), (2.0, 160.0, True), (0.5, 4.0, False)],
    ids=["0.5-40.0", "0.05-160.0", "2.0-160.0", "identity-0.5-4.0"],
)
def test_collected_weights_are_likelihood_ratios_of_their_replicas(x, T, tilted):
    # the estimators weight each replica by likelihood_ratio of the kernel's own path,
    # and each block folds those weights where it is simulated; at x = 0.05 s*T is inexact
    seed, n = 71, 2_000
    tilt = default_tilt(x, P111) if tilted else TiltConfig()
    at_T = tilt.at_horizon(P111, T)
    event = ("terminal", tail_level(x, T))
    total = 0.0
    for (start, stop), block in zip(_block_bounds(n), _tilted_blocks(T, tilt, n, seed)):
        _, w, hits = _replica_weights_and_hits(block, tilt, T, x)
        assert np.array_equal(block.weights, w)
        sums = montecarlo._run_block((partial(_decomposed_block, P111, T, tilt=at_T), seed, start, stop, event, None))
        h = np.where(hits, w, 0.0)
        expected = [h.sum(), (h * h).sum(), w.sum(), (w * w).sum()]
        np.testing.assert_allclose(sums, expected, rtol=1e-12, atol=0)
        assert h.sum() > 0
        total += h.sum()
    samples = collect_weighted_paths(P111, T, x, tilt, n, seed)
    assert samples.total_weight == pytest.approx(total, rel=1e-12)


def test_poisson_range_cause_survives_the_process_pool():
    # each block checks the means it draws from, in the worker that runs it
    with pytest.raises(ValueError, match="tilt multiplier theta1"):
        estimate_tail_is(P111, 160.0, 0.5, TiltConfig(0.5, 1e300, None), 3000, 5, workers=2)
    with pytest.raises(ValueError, match="horizon T"):
        sample_terminal_states(P111, 1e300, 3000, 5, "subordinated", workers=2)


@pytest.mark.parametrize("construction", ["subordinated", "decomposed"])
def test_horizon_beyond_the_block_budget_names_its_cause(construction):
    # 2e4 expected events per replica fit one replica but not a block of BLOCK rows
    with pytest.raises(ValueError, match="horizon T"):
        sample_terminal_states(P111, 2e4, 2048, 5, construction)
    with pytest.raises(ValueError, match="horizon T"):
        estimate_tail_naive(P111, 2e4, 0.5, 2048, 5)


def test_collected_paths_are_scaled_paths_of_their_replicas():
    # the block-wide grid lookup equals scale_path of each replica's own path,
    # and the collected row sum folds those rows with the replicas' weights
    T, seed, n, grid_size, x = 40.0, 79, 1_500, 100, 0.5
    tilt = default_tilt(x, P111)
    grid = np.linspace(0.0, 1.0, grid_size + 1) * T
    row_sum = np.zeros(grid_size + 1)
    for block in _tilted_blocks(T, tilt, n, seed):
        paths, w, hits = _replica_weights_and_hits(block, tilt, T, x)
        rows = _grid_states(block.times, block.post_states(np.arange(block.counts.size)), grid) / T
        for values, path in zip(rows, paths):
            assert np.array_equal(values, scale_path(path, T, grid_size).values)
        row_sum += np.where(hits, w, 0.0) @ rows
    samples = collect_weighted_paths(P111, T, x, tilt, n, seed, grid_size=grid_size)
    assert np.any(row_sum > 0)
    np.testing.assert_allclose(samples.row_sum, row_sum, rtol=1e-12, atol=0)


def test_naive_estimate_at_zero_level():
    result = estimate_tail_naive(P111, 4.0, 0.0, 500, 7)
    assert result.p_hat == 1.0
    assert result.log_rate == 0.0
    assert result.ess == 500.0


def test_naive_estimate_matches_oracle():
    result = estimate_tail_naive(P111, 4.0, 0.5, 100_000, 11)
    assert abs(result.p_hat - EXACT_TAIL_111_T4_X05) <= 3 * result.std_err
    assert result.std_err < 0.01


def test_naive_monotone_in_level():
    estimates = [
        estimate_tail_naive(P111, 4.0, x, 20_000, 13) for x in (0.25, 0.5, 0.75, 1.0)
    ]
    for lo, hi in zip(estimates[1:], estimates[:-1]):
        assert lo.p_hat <= hi.ci95[1]  # nonincreasing within interval overlap


def test_is_estimate_matches_oracle():
    result = estimate_tail_is(P111, 4.0, 0.5, default_tilt(0.5, P111), 20_000, 17)
    assert abs(result.p_hat - EXACT_TAIL_111_T4_X05) <= 3 * result.std_err
    assert result.p_hat == pytest.approx(EXACT_TAIL_111_T4_X05, abs=0.02)


def test_default_tilt_is_accurate_over_twenty_seeds():
    # the horizon-matched catastrophe damping; theta2 = 0.05 misses 0.02 on
    # 8 of these 20 seeds
    tilt = default_tilt(0.5, P111)
    for k in range(20):
        result = estimate_tail_is(P111, 4.0, 0.5, tilt, 20_000, derive_seed(5, k))
        assert abs(result.p_hat - EXACT_TAIL_111_T4_X05) <= 0.02


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the default tilt reads about half the exact tail at T=160",
)
@pytest.mark.parametrize("x", [0.5, 2.0])
def test_default_tilt_is_unbiased_at_the_headline_horizon(x):
    # the median over 8 seeds reads 0.47 of the truth at x = 0.5 and 0.57 at x = 2
    T = 160.0
    exact, _ = exact_tail_probability(P111, T, x, 1000, 1000)
    tilt = default_tilt(x, P111).at_horizon(P111, T)
    ratios = [estimate_tail_is(P111, T, x, tilt, 10_000, derive_seed(777, k)).p_hat / exact for k in range(8)]
    assert 0.9 <= float(np.median(ratios)) <= 1.1


@given(T=st.sampled_from([4.0, 10.0, 25.0]), k=st.integers(1, 7),
       side=st.sampled_from([-math.inf, 0.0, math.inf]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_lattice_boundary_levels_agree_with_oracle(T, k, side):
    # x = k/T and its float neighbours: the oracle and the naive estimator
    # must count the same tail event
    x = k / T if side == 0.0 else float(np.nextafter(k / T, side))
    exact, _ = exact_tail_probability(P111, T, x, 200, 200)
    assume(exact > 1e-3)
    result = estimate_tail_naive(P111, T, x, 20_000, 101)
    assert abs(result.p_hat - exact) <= 4 * result.std_err


def test_identity_tilt_reduces_to_naive_exactly():
    naive = estimate_tail_naive(P111, 4.0, 0.5, 8_000, 19)
    weighted = estimate_tail_is(P111, 4.0, 0.5, TiltConfig(), 8_000, 19)
    assert weighted.p_hat == naive.p_hat
    assert weighted.std_err == naive.std_err
    assert weighted.log_rate == naive.log_rate
    assert weighted.ess == naive.ess == 8_000.0
    assert not weighted.ess_warning
    # interval construction is method-specific: Wilson for counts, normal for
    # weighted means
    assert weighted.ci95 != naive.ci95


def test_ess_warning_on_mismatched_tilt():
    # tilting toward a large deviation while asking about a common event
    # leaves almost no effective samples
    tilt = TiltConfig(0.0, 6.0, 0.05)
    result = estimate_tail_is(P111, 30.0, 0.1, tilt, 2_000, 23)
    assert result.ess < 0.01 * result.n
    assert result.ess_warning


def test_every_weight_underflowing_is_a_statistical_failure():
    # theta1 = 300 on the late half of T = 4 gives log-weights near -1400, so
    # every squared weight is 0 and there is no effective sample
    tilt = TiltConfig(0.5, 300.0, None)
    with pytest.raises(NoQualifyingSamplesError, match="theta1=300.0"):
        estimate_tail_is(P111, 4.0, 0.5, tilt, 100, 13)
    # in a sweep it fails only its own horizon
    points = list(montecarlo._sweep([4.0], 13, lambda T, s: estimate_tail_is(P111, T, 0.5, tilt, 100, s)))
    assert points[0].result is None
    assert points[0].error.startswith("NoQualifyingSamplesError")


def test_weights_positive_and_finite():
    # the blocks fold these likelihood ratios (test above)
    T, tilt = 20.0, default_tilt(0.5, P111)
    for block in _tilted_blocks(T, tilt, 2_000, 29):
        weights = np.array([likelihood_ratio(block.path(r), tilt, P111, T) for r in range(block.terminal.size)])
        assert np.all(weights > 0)
        assert np.all(np.isfinite(weights))


@pytest.mark.parametrize("x", [0.5, 2.0], ids=["merged", "sparse"])
def test_reproducibility_and_worker_invariance(x):
    # x = 0.5 runs merged two-segment blocks, x = 2 sparse ones whose paths draw their times in the worker
    tilt = default_tilt(x, P111)
    a = estimate_tail_is(P111, 8.0, x, tilt, 6_000, 31, workers=1)
    b = estimate_tail_is(P111, 8.0, x, tilt, 6_000, 31, workers=2)
    c = estimate_tail_is(P111, 8.0, x, tilt, 6_000, 31, workers=1)
    assert a == b == c
    one = collect_weighted_paths(P111, 8.0, x, tilt, 6_000, 31, grid_size=20, workers=1)
    two = collect_weighted_paths(P111, 8.0, x, tilt, 6_000, 31, grid_size=20, workers=2)
    assert one.row_sum.tobytes() == two.row_sum.tobytes() and one.total_weight == two.total_weight
    assert one.total_weight > 0


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        estimate_tail_naive(P111, 4.0, 0.5, 100, 1, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        rate_curve_sweep(P111, 0.5, [4.0], "naive", 100, 1, workers=workers)


def test_worker_count_capped_at_cpus_and_replicas(monkeypatch):
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    assert _worker_count(100_000, 10) == 4
    assert _worker_count(100_000, 3) == 3
    assert _worker_count(2, 10) == 2
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    assert _worker_count(8, 10) == 1
    with pytest.raises(ValueError, match="workers"):
        _worker_count(0, 10)


def test_workers_above_replica_count_run_in_process(monkeypatch, fresh_pool):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single replica must not start a process pool")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    one = estimate_tail_naive(P111, 4.0, 0.5, 1, 73, workers=1)
    assert estimate_tail_naive(P111, 4.0, 0.5, 1, 73, workers=5) == one


def test_block_bounds_are_multiples_of_the_block_size():
    for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 10 * BLOCK):
        bounds = _block_bounds(n)
        assert len(bounds) == -(-n // BLOCK)
        assert [start for start, _ in bounds] == [b * BLOCK for b in range(len(bounds))]
        assert [stop for _, stop in bounds] == [min((b + 1) * BLOCK, n) for b in range(len(bounds))]


def test_pool_never_larger_than_the_block_count(monkeypatch, fresh_pool):
    sizes, chunks = [], []

    class InProcessPool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def map(self, fn, args, chunksize=1):
            chunks.append((len(args), chunksize))
            return map(fn, args)

        def shutdown(self):
            pass

    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
    for n in (BLOCK, BLOCK + 1, 2 * BLOCK + 3):
        sample_terminal_states(P111, 1.0, n, 83, workers=8)
    assert sizes == [2, 3]
    # each worker takes one contiguous chunk of the blocks
    sample_terminal_states(P111, 1.0, 5 * BLOCK, 83, workers=2)
    assert chunks == [(2, 1), (3, 1), (5, 3)]


def test_pool_workers_keep_their_heap_and_give_the_same_bytes(monkeypatch, fresh_pool):
    initializers = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            initializers.append(kwargs.get("initializer"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    n, tilt = 3 * BLOCK + 5, default_tilt(0.5, P111)
    one = estimate_tail_is(P111, 40.0, 0.5, tilt, n, 101, workers=1)
    assert estimate_tail_is(P111, 40.0, 0.5, tilt, n, 101, workers=2) == one
    one = collect_weighted_paths(P111, 40.0, 0.5, tilt, n, 101, grid_size=20, workers=1)
    two = collect_weighted_paths(P111, 40.0, 0.5, tilt, n, 101, grid_size=20, workers=2)
    assert one.row_sum.tobytes() == two.row_sum.tobytes() and one.total_weight == two.total_weight
    # the caller's own process (workers=1) starts no pool and keeps its allocator settings,
    # and both workers=2 calls run on the one pool
    assert initializers == [montecarlo._keep_heap]


def test_one_pool_serves_every_call_and_horizon(monkeypatch, fresh_pool):
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    n, tilt = 3 * BLOCK + 5, default_tilt(0.5, P111)
    one = estimate_tail_is(P111, 40.0, 0.5, tilt, n, 103, workers=1)
    assert estimate_tail_is(P111, 40.0, 0.5, tilt, n, 103, workers=2) == one
    assert estimate_tail_is(P111, 40.0, 0.5, tilt, n, 103, workers=2) == one
    assert len(pools) == 1
    montecarlo._shutdown_pool()
    horizons = [4.0, 8.0, 16.0]
    one = rate_curve_sweep(P111, 0.5, horizons, "is", n, 107, workers=1)
    assert all(point.result is not None for point in one)
    assert rate_curve_sweep(P111, 0.5, horizons, "is", n, 107, workers=2) == one
    assert len(pools) == 2


def test_a_killed_worker_fails_its_call_and_the_next_forks_a_fresh_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    n, tilt = 3 * BLOCK + 5, default_tilt(0.5, P111)
    one = estimate_tail_is(P111, 40.0, 0.5, tilt, n, 109, workers=1)
    assert estimate_tail_is(P111, 40.0, 0.5, tilt, n, 109, workers=2) == one
    pool = montecarlo._pool
    # a worker of the pool this test forked, and no other process
    victim = next(iter(pool._processes.values()))
    os.kill(victim.pid, signal.SIGKILL)
    assert wait([victim.sentinel], timeout=60)
    with pytest.raises(BrokenProcessPool):
        estimate_tail_is(P111, 40.0, 0.5, tilt, n, 109, workers=2)
    assert montecarlo._pool is None
    assert estimate_tail_is(P111, 40.0, 0.5, tilt, n, 109, workers=2) == one
    assert montecarlo._pool not in (None, pool)


def _estimate_in_forked_child(expected) -> None:
    # the parent's pool is not this process's: the child forks and shuts down its own
    assert montecarlo._pool is None
    estimate = estimate_tail_is(P111, 40.0, 0.5, default_tilt(0.5, P111), 3 * BLOCK + 5, 127, workers=2)
    assert montecarlo._pool is not None
    montecarlo._shutdown_pool()
    assert estimate == expected


# the fork under test happens while the parent's pool threads run, which Python 3.12+ warns about
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_forks_its_own_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    expected = estimate_tail_is(P111, 40.0, 0.5, default_tilt(0.5, P111), 3 * BLOCK + 5, 127, workers=2)
    child = multiprocessing.get_context("fork").Process(target=_estimate_in_forked_child, args=(expected,))
    child.start()
    child.join(timeout=120)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join(timeout=10)
    assert not hung and child.exitcode == 0


def test_workers_are_joined_when_the_process_exits():
    code = (
        "import os\n"
        "from catpop import montecarlo\n"
        "from catpop.model import ModelParams\n"
        "from catpop.streams import BLOCK\n"
        "os.cpu_count = lambda: 2\n"
        "P = ModelParams(1.0, 1.0, 1.0)\n"
        "montecarlo.estimate_tail_is(P, 40.0, 0.5, montecarlo.default_tilt(0.5, P), 3 * BLOCK, 113, workers=2)\n"
        "print(*montecarlo._pool._processes)\n"
    )
    out = _run_child(code)
    assert out.returncode == 0, out.stderr
    pids = [int(pid) for pid in out.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_keep_heap_sets_both_thresholds_through_mallopt(monkeypatch):
    calls = []
    monkeypatch.setattr(montecarlo, "_mallopt", lambda: lambda param, value: calls.append((param, value)) or 1)
    montecarlo._keep_heap()
    assert calls == [(-1, 1 << 30), (-3, 32 << 20)]  # M_TRIM_THRESHOLD and M_MMAP_THRESHOLD


def test_keep_heap_is_a_no_op_without_mallopt(monkeypatch):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(montecarlo.ctypes, "CDLL", NoMallopt)
    assert montecarlo._mallopt() is None
    assert montecarlo._keep_heap() is None


def test_glibc_accepts_the_heap_settings():
    # run in a child, so that this process's allocator is left as it is
    code = (
        "from catpop.montecarlo import _KEEP_HEAP, _mallopt\n"
        "mallopt = _mallopt()\n"
        "print('absent' if mallopt is None else [mallopt(p, v) for p, v in _KEEP_HEAP])\n"
    )
    out = _run_child(code)
    assert out.returncode == 0, out.stderr
    if out.stdout.strip() == "absent":
        pytest.skip("this C library has no mallopt")
    assert out.stdout.strip() == "[1, 1]"


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_block_boundaries_are_worker_invariant(n):
    tilt = default_tilt(0.5, P111)
    for construction in ("subordinated", "decomposed"):
        one = sample_terminal_states(P111, 4.0, n, 89, construction, workers=1)
        two = sample_terminal_states(P111, 4.0, n, 89, construction, workers=2)
        assert one.tobytes() == two.tobytes()
    one = estimate_tail_is(P111, 4.0, 0.5, tilt, n, 97, workers=1)
    assert estimate_tail_is(P111, 4.0, 0.5, tilt, n, 97, workers=2) == one
    one = collect_weighted_paths(P111, 4.0, 0.5, tilt, n, 97, grid_size=20, workers=1)
    two = collect_weighted_paths(P111, 4.0, 0.5, tilt, n, 97, grid_size=20, workers=2)
    assert one.total_weight == two.total_weight
    assert one.row_sum.tobytes() == two.row_sum.tobytes()


def test_sample_terminal_states_matches_oracle_quickly():
    pmf = exact_state_distribution(P111, 4.0, 64, 60)
    for construction in ("subordinated", "decomposed"):
        states = sample_terminal_states(P111, 4.0, 40_000, 37, construction)
        emp = np.bincount(states, minlength=65) / states.size
        assert total_variation(emp, pmf.masses) < 0.02


@pytest.mark.parametrize("T", [4.0, 40.0])
def test_sparse_blocks_match_the_oracle_and_the_jump_chain(monkeypatch, T):
    # at mu/lambda = 0.05 every plain two-stream block counts its births by gaps
    params, n, M = ModelParams(20.0, 1.0, 1.0), 200_000, 120

    def merged(*args):
        raise AssertionError("a plain block at mu/lambda = 0.05 took the merge path")

    monkeypatch.setattr("catpop.model._merged_block", merged)
    pmf = exact_state_distribution(params, T, M, M)
    dec = np.bincount(sample_terminal_states(params, T, n, 59, "decomposed"), minlength=M + 1) / n
    sub = np.bincount(sample_terminal_states(params, T, n, 61, "subordinated"), minlength=M + 1) / n
    assert total_variation(dec, pmf.masses) < 0.02
    assert total_variation(sub, pmf.masses) < 0.02
    assert total_variation(dec, sub) < 0.02


def test_sparse_estimates_cover_the_oracle_as_often_as_merged_ones():
    # at T = 40 the default tilt at x = 2 takes the sparse path, at x = 0.5 the merge path
    T, covered = 40.0, {}
    for x in (2.0, 0.5):
        exact, _ = exact_tail_probability(P111, T, x, 400, 400)
        tilt = default_tilt(x, P111)
        results = [estimate_tail_is(P111, T, x, tilt, 10_000, derive_seed(83, k)) for k in range(20)]
        covered[x] = sum(r.ci95[0] <= exact <= r.ci95[1] for r in results)
    assert covered[2.0] >= covered[0.5] >= 19


def test_sup_fraction_basics():
    result = sup_exceedance_fraction(P111, 4.0, eps=1000.0, n=2_000, seed=41)
    assert result.p_hat == 0.0
    assert result.log_rate == math.inf
    small = sup_exceedance_fraction(P111, 4.0, eps=0.01, n=2_000, seed=41)
    assert 0.0 <= small.p_hat <= 1.0
    for bad in (0.0, math.nan, 1e308):
        with pytest.raises(ValueError, match="eps"):
            sup_exceedance_fraction(P111, 4.0, eps=bad, n=10, seed=1)


def test_sup_fraction_event_is_strict():
    # sup/T > eps: a path whose sup is exactly eps*T = 2 does not count
    at = sup_exceedance_fraction(P111, 4.0, 0.5, 2_000, 47).p_hat
    assert at == sup_exceedance_fraction(P111, 4.0, float(np.nextafter(0.5, 1.0)), 2_000, 47).p_hat
    assert at < sup_exceedance_fraction(P111, 4.0, float(np.nextafter(0.5, 0.0)), 2_000, 47).p_hat


def test_sup_fraction_decays_with_horizon():
    low = sup_exceedance_fraction(P111, 25.0, 0.2, 4_000, 43)
    high = sup_exceedance_fraction(P111, 100.0, 0.2, 4_000, 43)
    assert high.p_hat < low.p_hat


@pytest.mark.parametrize(
    "sweep, estimate",
    [
        (lambda T_list: rate_curve_sweep(P111, 0.5, T_list, "naive", 5_000, 47),
         lambda T, seed: estimate_tail_naive(P111, T, 0.5, 5_000, seed)),
        (lambda T_list: sup_fraction_sweep(P111, 0.5, T_list, 5_000, 47),
         lambda T, seed: sup_exceedance_fraction(P111, T, 0.5, 5_000, seed)),
    ],
    ids=["sweep", "lln"],
)
def test_sweep_single_horizon_reduces_to_estimate(sweep, estimate):
    from catpop.streams import derive_seed, float_key

    points = sweep([4.0])
    assert len(points) == 1
    assert points[0].result == estimate(4.0, derive_seed(47, float_key(4.0)))
    assert points[0].error is None


def test_sweep_order_independence():
    forward = rate_curve_sweep(P111, 0.5, [4.0, 8.0], "is", 3_000, 53)
    backward = rate_curve_sweep(P111, 0.5, [8.0, 4.0], "is", 3_000, 53)
    assert forward[0].result == backward[1].result
    assert forward[1].result == backward[0].result


def test_sweep_isolates_per_horizon_failures():
    points = rate_curve_sweep(P111, 0.5, [4.0, -1.0], "naive", 1_000, 59)
    assert points[0].result is not None and points[0].error is None
    assert points[1].result is None
    assert points[1].error.startswith("InputError: horizon T must be finite and > 0")


def test_sweep_rejects_unknown_method():
    with pytest.raises(ValueError):
        rate_curve_sweep(P111, 0.5, [4.0], "bogus", 100, 1)


def test_collect_weighted_paths_consistent_with_estimator():
    tilt = default_tilt(0.5, P111)
    samples = collect_weighted_paths(P111, 8.0, 0.5, tilt, 4_000, 61, grid_size=20)
    direct = estimate_tail_is(P111, 8.0, 0.5, tilt, 4_000, 61)
    # one fold for both: the same sum of w*1{hit}, bit for bit
    assert samples.total_weight / 4_000 == direct.p_hat
    # the terminal grid value is the terminal state the event is tested on
    for block in _tilted_blocks(8.0, tilt, 4_000, 61):
        rows = _grid_states(block.times, block.post_states(np.arange(block.counts.size)), np.linspace(0.0, 8.0, 21))
        assert np.array_equal(rows[:, -1], block.terminal)


def test_estimate_result_fields():
    result = estimate_tail_naive(P111, 4.0, 0.5, 1_000, 67)
    assert isinstance(result, EstimateResult)
    assert 0.0 <= result.p_hat <= 1.0
    assert result.ci95[0] <= result.p_hat <= result.ci95[1]
    assert result.n == 1_000
    assert result.seed == 67
