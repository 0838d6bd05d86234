"""Monte Carlo estimation of rare deviations and law-of-large-numbers decay.

Naive estimation simply counts qualifying replicas.  For genuinely rare
events the importance sampler simulates the two-stream construction with
tilted Poisson intensities shaped like the most probable deviation
trajectory (idle, then climb), and corrects each replica by the exact
likelihood ratio of the intensity change.  Catastrophe landing draws are
identical under both measures, so only the two stream intensities enter the
weight.

Replicas are simulated in blocks of ``streams.BLOCK``: block ``b`` runs
replicas ``[b*BLOCK, min((b+1)*BLOCK, n))`` through one block kernel on the
stream ``(seed, b)``.  Whole blocks are spread over the workers, and each is
folded in the worker that simulated it to a few sums: with h = w·1{event},
Σh, Σh², Σw and Σw², plus Σh·row over the grid rows for conditioned paths.
The block sums are added in block order, so the final figures are identical
for any worker count and memory does not grow with the replica count; only
:func:`sample_terminal_states` returns one value per replica.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
import math
import os

import numpy as np

from .exact import tail_level
from .model import (
    EventKind,
    ModelParams,
    PathSample,
    _decomposed_block,
    _grid_states,
    _subordinated_block,
)
from .paths import NoQualifyingSamplesError, WeightedPaths
from .streams import BLOCK, check_seed, derive_seed, float_key, replica_rng

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class TiltConfig:
    """Piecewise-constant intensity change for the two event streams.

    On the scaled window [switch_time_s, 1] the birth-stream intensity is
    multiplied by ``theta1`` and the catastrophe-stream intensity by
    ``theta2``.  Multipliers must be finite and positive: a zero intensity
    would give unbounded likelihood ratios and break unbiasedness.
    ``theta2=None`` matches the catastrophe damping to the horizon (see
    :meth:`at_horizon`).
    """

    switch_time_s: float = 0.0
    theta1: float = 1.0
    theta2: float | None = 1.0

    def __post_init__(self):
        if not 0.0 <= self.switch_time_s < 1.0:
            raise ValueError(f"switch_time_s must lie in [0, 1), got {self.switch_time_s}")
        theta2 = 1.0 if self.theta2 is None else self.theta2  # None is filled in per horizon
        for name, theta in (("theta1", self.theta1), ("theta2", theta2)):
            if not (math.isfinite(theta) and theta > 0):
                raise ValueError(f"tilt multiplier {name} must be finite and > 0, got {theta}")

    def at_horizon(self, params: ModelParams, T: float) -> "TiltConfig":
        """This tilt with a horizon-matched ``theta2`` filled in.

        If the late window ``(s*T, T]`` expects ``r = catastrophe_rate*(1-s)*T``
        catastrophes, ``theta2 = 1/(1+r)`` leaves ``r/(1+r) < 1`` of them
        under the tilt.  A set ``theta2`` is kept.
        """
        if self.theta2 is not None:
            return self
        expected = params.catastrophe_rate * (1.0 - self.switch_time_s) * T
        return replace(self, theta2=1.0 / (1.0 + expected))

    @classmethod
    def identity(cls) -> "TiltConfig":
        return cls(0.0, 1.0, 1.0)


@dataclass(frozen=True)
class EstimateResult:
    """A probability estimate with its sampling diagnostics.

    ``log_rate`` is -ln(p_hat)/T, the finite-horizon decay exponent;
    ``ess`` is the effective sample size (sum w)^2 / sum(w^2), which equals
    ``n`` exactly for unweighted sampling.  ``ess_warning`` flags ess below
    1% of n, the usual sign of a mismatched tilt.
    """

    p_hat: float
    log_rate: float
    std_err: float
    ci95: tuple[float, float]
    n: int
    ess: float
    seed: int
    ess_warning: bool = False


def default_tilt(x: float, params: ModelParams) -> TiltConfig:
    """Tilt that drives the process along the most probable path to level x.

    Below the clock rate the birth stream is boosted to total intensity
    ``alpha`` on the climb window; at or above it the whole horizon is tilted
    so births arrive at intensity ``x``.  The catastrophe stream damping is
    matched to the horizon of each run (:meth:`TiltConfig.at_horizon`).
    A level so small that ``1 - x/alpha`` rounds to 1 gets the last switch
    time below 1: a nearly empty tilted window with weights of about 1.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"deviation level x must be finite and > 0, got {x}")
    lam, mu, alpha = params.lam, params.mu, params.alpha
    if x < alpha:
        return TiltConfig(min(1.0 - x / alpha, math.nextafter(1.0, 0.0)), (lam + mu) / lam, None)
    return TiltConfig(0.0, x * (lam + mu) / (alpha * lam), None)


def _weight(
    late_births: np.ndarray, late_cats: np.ndarray, tilt: TiltConfig, params: ModelParams, T: float
) -> np.ndarray:
    """Likelihood ratios d(plain)/d(tilted) of replicas with the given late-window counts."""
    window = (1.0 - tilt.switch_time_s) * T
    return np.exp(
        (tilt.theta1 - 1.0) * params.birth_rate * window
        - late_births * math.log(tilt.theta1)
        + (tilt.theta2 - 1.0) * params.catastrophe_rate * window
        - late_cats * math.log(tilt.theta2)
    )


def likelihood_ratio(path: PathSample, tilt: TiltConfig, params: ModelParams, T: float) -> float:
    """Importance weight of a path sampled under the tilted intensities, from its own events after ``s*T``."""
    tilt = tilt.at_horizon(params, T)
    late = path.kinds[path.times > tilt.switch_time_s * T]
    cats = np.count_nonzero(late == EventKind.CATASTROPHE)
    return float(_weight(late.size - cats, cats, tilt, params, T))


def _fold_block(weights: np.ndarray, hits: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Σh, Σh², Σw and Σw² of a block, h = w·1{hit}, then Σh·row over its grid rows if given."""
    h = np.where(hits, weights, 0.0)
    # axis 0 is added one row after another, a fixed order a BLAS product would not keep
    row_sum = [] if rows is None else np.sum(h[:, None] * rows, axis=0)
    return np.concatenate(([h.sum(), (h * h).sum(), weights.sum(), (weights * weights).sum()], row_sum))


def _run_block(args) -> np.ndarray:
    """Simulate replicas [start, stop) on their block's stream; return its sums, or its terminal states."""
    params, T, tilt, construction, seed, start, stop, event, grid = args
    rng = replica_rng(seed, start // BLOCK)
    if construction == "subordinated":
        block = _subordinated_block(params, T, rng, stop - start)
    else:
        block = _decomposed_block(params, T, rng, stop - start, tilt.switch_time_s, tilt.theta1, tilt.theta2)
    if event is None:
        return block.terminal
    weights = _weight(*block.late, tilt, params, T)
    rows = None if grid is None else _grid_states(block.times, block.post, grid)
    statistic, level = event
    return _fold_block(weights, getattr(block, statistic) >= level, rows)


def _block_bounds(n: int) -> list[tuple[int, int]]:
    """Replica ranges of the blocks of an n-replica run: [b*BLOCK, min((b+1)*BLOCK, n))."""
    return [(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)]


def _worker_count(workers: int, blocks: int) -> int:
    """Worker processes to start: ``workers``, capped at the CPU count and at the block count (both >= 1)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if blocks < 1:
        raise ValueError("replica count n must be >= 1")
    return min(int(workers), os.cpu_count() or 1, blocks)


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")


def _run_replicas(params, T, tilt, construction, seed, n, workers, event=None, grid=None) -> np.ndarray:
    """Run n replicas block by block, possibly across processes; merge in block order.

    ``tilt=None`` runs the plain process.  With ``event`` = (``_Block`` statistic, level) a replica
    hits at that level and each block returns its sums; without one, its terminal states.
    """
    check_seed(seed)
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be finite and > 0, got {T}")
    tilt = (TiltConfig.identity() if tilt is None else tilt).at_horizon(params, T)
    bounds = _block_bounds(n)
    workers = _worker_count(workers, len(bounds))
    args = [(params, T, tilt, construction, seed, start, stop, event, grid) for start, stop in bounds]
    if workers == 1:
        blocks = [_run_block(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_run_block, args))
    return np.concatenate(blocks) if event is None else sum(blocks)  # sum adds in block order


def _wilson_interval(p_hat: float, n: int) -> tuple[float, float]:
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2 * n)) / denom
    half = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)) / denom
    return center - half, center + half


def _fold_estimate(sums, T, n, seed, tilt: TiltConfig | None = None) -> EstimateResult:
    """The estimate from a run's sums Σh, Σh², Σw and Σw² (:func:`_fold_block`).

    ``tilt`` is the sampling tilt of a weighted run, ``None`` for plain sampling.
    A run whose every squared weight underflows to 0 has no effective sample.
    """
    hits, hits2, weights, weights2 = map(float, sums[:4])
    if weights2 == 0.0:
        raise NoQualifyingSamplesError(
            f"no sample with positive weight satisfies the conditioning event: the importance "
            f"weights underflow, their squares sum to 0 under {tilt}"
        )
    p_hat = hits / n
    ess = weights**2 / weights2
    var0 = max(0.0, hits2 / n - p_hat * p_hat)
    std_err = math.sqrt(var0 / ess)
    if tilt is not None:
        ci = (p_hat - _Z95 * std_err, p_hat + _Z95 * std_err)
    else:
        ci = _wilson_interval(p_hat, n)
    log_rate = -math.log(p_hat) / T if p_hat > 0 else math.inf
    return EstimateResult(
        p_hat=p_hat,
        log_rate=log_rate,
        std_err=std_err,
        ci95=ci,
        n=n,
        ess=ess,
        seed=seed,
        ess_warning=bool(ess < 0.01 * n),
    )


def estimate_tail_naive(
    params: ModelParams,
    T: float,
    x: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> EstimateResult:
    """Plain Monte Carlo estimate of P(scaled terminal value >= x).

    Counts qualifying replicas of the two-stream construction; the 95%
    interval is a Wilson score interval.
    """
    sums = _run_replicas(params, T, None, "decomposed", seed, n, workers, ("terminal", tail_level(x, T)))
    return _fold_estimate(sums, T, n, seed)


def estimate_tail_is(
    params: ModelParams,
    T: float,
    x: float,
    tilt: TiltConfig,
    n: int,
    seed: int,
    workers: int = 1,
) -> EstimateResult:
    """Importance-sampling estimate of P(scaled terminal value >= x).

    Replicas are simulated under the tilted intensities and averaged as
    weight * indicator, which is unbiased for the plain-measure probability.
    The standard error uses the ESS-deflated variance, a conservative choice
    for weighted means.
    """
    sums = _run_replicas(params, T, tilt, "decomposed", seed, n, workers, ("terminal", tail_level(x, T)))
    return _fold_estimate(sums, T, n, seed, tilt.at_horizon(params, T))


def sup_exceedance_fraction(
    params: ModelParams,
    T: float,
    eps: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> EstimateResult:
    """Fraction of replicas whose scaled path ever exceeds eps."""
    _check_eps(eps)
    if math.isfinite(T) and not math.isfinite(eps * T):
        raise ValueError(f"eps must be finite and > 0 with eps*T finite, got eps={eps}, T={T}")
    # sup/T > eps is sup/T >= the next float above eps; tail_level rejects a bad T
    level = tail_level(float(np.nextafter(eps, math.inf)), T)
    sums = _run_replicas(params, T, None, "decomposed", seed, n, workers, ("sup", level))
    return _fold_estimate(sums, T, n, seed)


@dataclass(frozen=True)
class SweepPoint:
    """One horizon of a sweep over T: its estimate, or ``result=None`` and the ``error`` it raised."""

    T: float
    result: EstimateResult | None
    error: str | None = None


def _sweep(T_list, seed: int, estimate):
    """Yield ``estimate(T, sub_seed)`` per T, sub-seeded from ``(seed, T)``; an error fails only its T."""
    for T in T_list:
        sub_seed = derive_seed(seed, float_key(T))
        try:
            yield SweepPoint(T, estimate(T, sub_seed))
        except Exception as exc:  # noqa: BLE001 - per-horizon isolation is the contract
            yield SweepPoint(T, None, f"{type(exc).__name__}: {exc}")


def rate_curve_sweep(
    params: ModelParams,
    x: float,
    T_list: list[float],
    method: str,
    n: int,
    seed: int,
    workers: int = 1,
) -> list[SweepPoint]:
    """Estimate the decay exponent for each horizon in T_list.

    Every horizon runs on its own seed derived from ``(seed, T)``, so the
    output does not depend on the order of T_list.  Failures of a single
    horizon are recorded and do not abort the sweep; inputs that do not
    depend on T raise before the first horizon.
    """
    _worker_count(workers, n)
    if method == "naive":
        if not math.isfinite(x):
            raise ValueError(f"deviation level x must be finite, got {x}")
        return list(_sweep(T_list, seed, lambda T, s: estimate_tail_naive(params, T, x, n, s, workers)))
    if method == "is":
        tilt = default_tilt(x, params)
        return list(_sweep(T_list, seed, lambda T, s: estimate_tail_is(params, T, x, tilt, n, s, workers)))
    raise ValueError(f"method must be 'naive' or 'is', got {method!r}")


def sup_fraction_sweep(
    params: ModelParams, eps: float, T_list: list[float], n: int, seed: int, workers: int = 1
) -> list[SweepPoint]:
    """:func:`sup_exceedance_fraction` at each horizon, seeded and isolated as in :func:`rate_curve_sweep`."""
    _worker_count(workers, n)
    _check_eps(eps)
    return list(_sweep(T_list, seed, lambda T, s: sup_exceedance_fraction(params, T, eps, n, s, workers)))


def collect_weighted_paths(
    params: ModelParams,
    T: float,
    x: float,
    tilt: TiltConfig,
    n: int,
    seed: int,
    grid_size: int = 100,
    workers: int = 1,
) -> WeightedPaths:
    """Sample tilted replicas and fold their weighted scaled paths on a grid of ``grid_size`` steps.

    The replica streams and the fold match :func:`estimate_tail_is` run with
    the same arguments, so ``total_weight / n`` is its ``p_hat``.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    event = ("terminal", tail_level(x, T))
    sums = _run_replicas(params, T, tilt, "decomposed", seed, n, workers, event, grid * T)
    return WeightedPaths(grid, sums[4:] / T, float(sums[0]))


def sample_terminal_states(
    params: ModelParams,
    T: float,
    n: int,
    seed: int,
    construction: str = "subordinated",
    workers: int = 1,
) -> np.ndarray:
    """Terminal population levels of n independent replicas (for law checks)."""
    if construction not in ("subordinated", "decomposed"):
        raise ValueError(f"unknown construction {construction!r}")
    return _run_replicas(params, T, None, construction, seed, n, workers)
