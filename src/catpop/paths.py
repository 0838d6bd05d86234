"""Empirical reconstruction of the most probable deviation trajectory.

Conditioning on the rare event directly is hopeless at interesting sizes, so
the conditional mean path is computed as an importance-weighted average over
samples that satisfy the event.  Its distance to the predicted idle-then-climb
trajectory is the headline shape check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import OptimalPath


class NoQualifyingSamplesError(RuntimeError):
    """No sample with positive weight satisfies the conditioning event."""


@dataclass(eq=False)
class WeightedPaths:
    """Scaled paths of n replicas on one grid, with their weights and event flags.

    Row i of ``values`` is replica i's path ``state(T*t)/T`` on ``grid``;
    ``weights`` holds the replicas' likelihood ratios and ``qualifies``
    marks the replicas that satisfy the conditioning event.
    """

    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    qualifies: np.ndarray


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
    keep = samples.qualifies & (samples.weights > 0)
    if not keep.any():
        raise NoQualifyingSamplesError(
            "no sample with positive weight satisfies the conditioning event"
        )
    w = samples.weights[keep]
    # Both sums run in replica order, as a loop of acc += w*v; total += w
    # would: numpy reduces axis 0 row by row, and add.accumulate is
    # sequential where np.sum(w) would sum pairwise and move the last bits.
    acc = np.sum(samples.values[keep] * w[:, None], axis=0)
    total = float(np.add.accumulate(w)[-1])
    return MeanPath(grid=samples.grid, mean_values=acc / total, total_weight=total)


def path_distance(mean_path: MeanPath, reference: OptimalPath) -> float:
    """Sup-norm distance between a mean path and a reference trajectory."""
    ref = reference.values(mean_path.grid)
    return float(np.max(np.abs(mean_path.mean_values - ref)))
