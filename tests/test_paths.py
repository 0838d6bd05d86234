from functools import partial
import tracemalloc

import numpy as np
import pytest

from catpop.exact import tail_level
from catpop.model import ModelParams, _decomposed_block, _grid_states, optimal_path
from catpop.montecarlo import _block_bounds, _fold_block, _run_block, collect_weighted_paths, default_tilt
from catpop.paths import (
    MeanPath,
    NoQualifyingSamplesError,
    WeightedPaths,
    conditioned_mean_path,
    path_distance,
)
from catpop.streams import BLOCK, replica_rng

P111 = ModelParams(1.0, 1.0, 1.0)


def _sample(values, weight=1.0, qualifies=True):
    return np.asarray(values, dtype=float), weight, qualifies


def _record(samples, grid_size=4):
    # (values, weight, qualifies) samples folded as one block, in order
    values, weights, qualifies = map(np.array, zip(*samples))
    sums = _fold_block(weights, qualifies, values[qualifies])
    return WeightedPaths(np.linspace(0.0, 1.0, grid_size + 1), sums[4:], float(sums[0]))


def test_single_qualifying_sample_is_returned_as_is():
    sample = _sample([0.0, 0.1, 0.2, 0.3, 0.4])
    mean = conditioned_mean_path(_record([sample]), grid_size=4)
    assert np.array_equal(mean.mean_values, sample[0])
    assert mean.total_weight == 1.0


def test_equal_weights_average_to_midpoint():
    a = _sample([0.0, 0.0, 0.0, 0.0, 0.4])
    b = _sample([0.0, 0.2, 0.2, 0.2, 0.6])
    mean = conditioned_mean_path(_record([a, b]), grid_size=4)
    assert np.allclose(mean.mean_values, [0.0, 0.1, 0.1, 0.1, 0.5])
    assert mean.total_weight == 2.0


def test_nonqualifying_and_zero_weight_samples_are_ignored():
    a = _sample([0.0, 0.1, 0.1, 0.1, 0.5])
    junk1 = _sample([9.0, 9.0, 9.0, 9.0, 9.0], qualifies=False)
    junk2 = _sample([9.0, 9.0, 9.0, 9.0, 9.0], weight=0.0)
    mean = conditioned_mean_path(_record([junk1, a, junk2]), grid_size=4)
    assert np.array_equal(mean.mean_values, a[0])
    assert mean.total_weight == 1.0


def test_no_qualifying_samples_raises():
    junk = _sample([0.0, 0.0, 0.0, 0.0, 0.0], qualifies=False)
    with pytest.raises(NoQualifyingSamplesError):
        conditioned_mean_path(_record([junk]), grid_size=4)
    with pytest.raises(ValueError):
        conditioned_mean_path(_record([_sample([0.0] * 5)]), grid_size=7)


def test_mean_path_equals_the_sequential_fold_bit_for_bit():
    # a run's sums are its block sums added one block after another
    x, T, n, seed = 0.5, 160.0, 3_000, 83
    tilt = default_tilt(x, P111)
    event = ("terminal", tail_level(x, T))
    grid = np.linspace(0.0, 1.0, 101) * T
    kernel = partial(_decomposed_block, P111, T, tilt=tilt.at_horizon(P111, T))
    acc = np.zeros(grid.size + 4)
    for start, stop in _block_bounds(n):
        acc += _run_block((kernel, seed, start, stop, event, grid))
    assert acc[0] > 0
    for workers in (1, 2):
        samples = collect_weighted_paths(P111, T, x, tilt, n, seed, workers=workers)
        mean = conditioned_mean_path(samples, grid_size=100)
        assert mean.total_weight == acc[0]
        assert np.array_equal(mean.mean_values, acc[4:] / T / acc[0])
    # within a block the weighted rows are added one after another as well
    rng = np.random.default_rng(5)
    weights, hits = np.exp(rng.normal(0.0, 20.0, BLOCK)), rng.random(BLOCK) < 0.5
    rows = rng.integers(0, 400, (BLOCK, 101))
    loop = np.zeros(101)
    for weight, hit, row in zip(weights, hits, rows):
        loop += (weight if hit else 0.0) * row
    assert np.array_equal(_fold_block(weights, hits, rows[hits])[4:], loop)


@pytest.mark.parametrize("T", [20.0, 160.0])
@pytest.mark.parametrize("case", ["every-row-hits", "some-rows-hit", "no-row-hits"])
def test_hit_only_fold_equals_the_all_rows_fold(T, case):
    # a block folds the grid rows of its hits only; the sum over every row, with h = 0
    # for a miss, is the same bytes
    x, seed = 0.5, 29
    tilt = default_tilt(x, P111).at_horizon(P111, T)
    level = {"every-row-hits": 0, "some-rows-hit": tail_level(x, T), "no-row-hits": 10**6}[case]
    grid = np.linspace(0.0, 1.0, 101) * T
    got = _run_block((partial(_decomposed_block, P111, T, tilt=tilt), seed, 0, BLOCK, ("terminal", level), grid))
    block = _decomposed_block(P111, T, replica_rng(seed, 0), BLOCK, tilt)
    weights = block.weights
    hits = block.terminal >= level
    assert {"every-row-hits": hits.all(), "some-rows-hit": 0 < hits.sum() < BLOCK, "no-row-hits": not hits.any()}[case]
    h = np.where(hits, weights, 0.0)
    rows = _grid_states(block.times, block.post_states(np.arange(BLOCK)), grid)
    expected = [h.sum(), (h * h).sum(), weights.sum(), (weights * weights).sum(), *np.sum(h[:, None] * rows, axis=0)]
    assert got.tobytes() == np.array(expected).tobytes()


def _collect_and_mean_peak_bytes(n):
    x = 0.5
    tracemalloc.start()
    try:
        samples = collect_weighted_paths(P111, 40.0, x, default_tilt(x, P111), n, 89, grid_size=100)
        conditioned_mean_path(samples, grid_size=100)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_collect_and_mean_memory_does_not_grow_with_n():
    # blocks are folded where they are simulated: no per-replica row is kept
    assert _collect_and_mean_peak_bytes(20 * BLOCK) < 2 * _collect_and_mean_peak_bytes(2 * BLOCK)


def test_path_distance_identity_offset_symmetry():
    grid = np.linspace(0.0, 1.0, 101)
    reference = optimal_path(0.5, P111)
    exact = MeanPath(grid, reference.values(grid), 1.0)
    assert path_distance(exact, reference) == 0.0

    offset = MeanPath(grid, reference.values(grid) + 0.07, 1.0)
    assert path_distance(offset, reference) == pytest.approx(0.07, abs=1e-15)

    up = MeanPath(grid, reference.values(grid) + 0.03, 1.0)
    down = MeanPath(grid, reference.values(grid) - 0.03, 1.0)
    assert path_distance(up, reference) == pytest.approx(
        path_distance(down, reference), abs=1e-15
    )


def test_conditioned_terminal_meets_level():
    # every conditioning path ends at or above the level, hence so does the mean
    x = 0.5
    samples = collect_weighted_paths(P111, 20.0, x, default_tilt(x, P111), 3_000, 71, grid_size=25)
    mean = conditioned_mean_path(samples, grid_size=25)
    assert mean.mean_values[-1] >= x
    assert np.all(mean.mean_values >= 0.0)


def test_conditioned_mean_approaches_predicted_shape():
    # quick version of the acceptance experiment at a small horizon
    x = 0.5
    samples = collect_weighted_paths(P111, 60.0, x, default_tilt(x, P111), 20_000, 73, grid_size=100)
    mean = conditioned_mean_path(samples, grid_size=100)
    assert path_distance(mean, optimal_path(x, P111)) < 0.2
