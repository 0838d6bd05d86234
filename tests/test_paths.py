import numpy as np
import pytest

from catpop.model import ModelParams, optimal_path
from catpop.montecarlo import collect_weighted_paths, default_tilt
from catpop.paths import (
    MeanPath,
    NoQualifyingSamplesError,
    WeightedPaths,
    conditioned_mean_path,
    path_distance,
)

P111 = ModelParams(1.0, 1.0, 1.0)


def _sample(values, weight=1.0, qualifies=True):
    return np.asarray(values, dtype=float), weight, qualifies


def _record(samples, grid_size=4):
    # (values, weight, qualifies) samples as one record, in order
    values, weights, qualifies = zip(*samples)
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    return WeightedPaths(grid, np.array(values), np.array(weights), np.array(qualifies))


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
    # the vectorised fold sums in replica order, like the loop it replaced
    x = 0.5
    samples = collect_weighted_paths(P111, 160.0, x, default_tilt(x, P111), 3_000, 83)
    acc = np.zeros(samples.grid.size)
    total = 0.0
    for values, weight, qualifies in zip(samples.values, samples.weights, samples.qualifies):
        if qualifies and weight > 0:
            acc += float(weight) * values
            total += float(weight)
    assert total > 0
    mean = conditioned_mean_path(samples, grid_size=100)
    assert mean.total_weight == total
    assert np.array_equal(mean.mean_values, acc / total)


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
