"""Empirical reconstruction of the most probable deviation trajectory.

Conditioning on the rare event directly is hopeless at interesting sizes, so
the conditional mean path is computed as an importance-weighted average over
samples that satisfy the event.  The Monte Carlo layer folds each block of
replicas where it is simulated, so a run arrives here as one weighted row sum
and its total weight (:class:`WeightedPaths`), whatever the replica count.
Its distance to the predicted idle-then-climb trajectory is the headline shape
check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import OptimalPath


class NoQualifyingSamplesError(RuntimeError):
    """No sample with positive weight satisfies the conditioning event."""


@dataclass(eq=False)
class WeightedPaths:
    """Scaled paths of a run folded on one grid.

    ``row_sum`` is the sum over replicas of w·1{event}·path, where ``path``
    is a replica's scaled path ``state(T*t)/T`` on ``grid`` and ``w`` its
    likelihood ratio; ``total_weight`` is the sum of w·1{event}.
    """

    grid: np.ndarray
    row_sum: np.ndarray
    total_weight: float


@dataclass(eq=False)
class MeanPath:
    """Weighted conditional mean of scaled paths on a common grid."""

    grid: np.ndarray
    mean_values: np.ndarray
    total_weight: float


def conditioned_mean_path(samples: WeightedPaths, grid_size: int = 100) -> MeanPath:
    """Weighted average of the scaled paths that satisfy the conditioning event.

    ``samples`` lies on a grid of ``grid_size + 1`` points; only qualifying
    replicas with positive weight contribute.
    """
    if samples.grid.size != grid_size + 1:
        raise ValueError(f"sample grids have {samples.grid.size} points, expected {grid_size + 1}")
    if not samples.total_weight > 0:
        raise NoQualifyingSamplesError(
            "no sample with positive weight satisfies the conditioning event"
        )
    return MeanPath(samples.grid, samples.row_sum / samples.total_weight, samples.total_weight)


def path_distance(mean_path: MeanPath, reference: OptimalPath) -> float:
    """Sup-norm distance between a mean path and a reference trajectory."""
    ref = reference.values(mean_path.grid)
    return float(np.max(np.abs(mean_path.mean_values - ref)))
