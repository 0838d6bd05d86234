"""Monte Carlo estimation of rare deviations and law-of-large-numbers decay.

Naive estimation simply counts qualifying replicas.  For genuinely rare
events the importance sampler simulates the two-stream construction under a
``model.TiltConfig`` shaped like the most probable deviation trajectory
(idle, then climb), and corrects each replica by the exact likelihood ratio
its block carries from the kernel that drew it.  Catastrophe landing draws
are identical under both measures, so only the two stream intensities enter
the weight.

Each estimator binds its block kernel, ``kernel(rng, rows)``, to the model,
the horizon and the measure once per run, after it has checked the horizon
and matched the tilt's ``theta2`` to it; the run layer below
(:func:`_run_replicas`, :func:`_run_block`) knows only that kernel.
Replicas are simulated in blocks of ``streams.BLOCK``: block ``b`` runs
replicas ``[b*BLOCK, min((b+1)*BLOCK, n))`` through the kernel on the
stream ``(seed, b)``.  Whole blocks are spread over the workers, and each is
folded in the worker that simulated it to a few sums: with h = w·1{event},
Σh, Σh², Σw and Σw², plus Σh·row over the grid rows for conditioned paths.
Only the hits carry weight, so a ``paths`` block builds and looks up the
grid rows of its hits alone: a missed row would add h·row = +0.0, which
leaves a sum of nonnegative terms bit for bit as it is.
The block sums are added in block order, so the final figures are identical
for any worker count and memory does not grow with the replica count; only
:func:`sample_terminal_states` returns one value per replica.

The worker pool lives for the process: the first call that needs two or
more workers forks it, and every later call with the same worker count,
each horizon of a sweep included, reuses it (:func:`_map_blocks`).  A call
with another count shuts it down before forking its own, a pool that breaks
is dropped, a forked child starts without one, and at exit
``concurrent.futures`` joins the workers.  Workers
therefore see module state as of their fork, not as of the call: code that
patches this module, the model or the executor must shut the pool down
(:func:`_shutdown_pool`) before its first call and after its last.  Idle
workers keep the memory one block frees for the next (:func:`_keep_heap`),
between calls too; the calling process is left as it is.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
import ctypes
from dataclasses import dataclass
from functools import partial
import math
import os
import threading

import numpy as np

from .exact import tail_level
from .model import (
    EventKind,
    InputError,
    ModelParams,
    PathSample,
    TiltConfig,
    _decomposed_block,
    _grid_states,
    _subordinated_block,
    optimal_path,
)
from .paths import NoQualifyingSamplesError, WeightedPaths
from .streams import BLOCK, check_seed, derive_seed, float_key, replica_rng

_Z95 = 1.959963984540054


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
    """Tilt that drives the process along :func:`model.optimal_path` to level x.

    Births run at the trajectory's slope from its breakpoint on: the switch
    time is the breakpoint and the birth multiplier is the slope over the
    birth intensity.  The catastrophe stream damping is matched to the
    horizon of each run (:meth:`TiltConfig.at_horizon`).  A level so small
    that the breakpoint rounds to 1 gets the last switch time below 1: a
    nearly empty tilted window with weights of about 1.
    """
    path = optimal_path(x, params)
    theta1 = path.slope / params.birth_rate
    if not math.isfinite(theta1):  # the level is at fault, whatever multiplier a caller puts in its place
        raise InputError(f"deviation level x={x} gives birth multiplier theta1={theta1}, which must be finite", "x")
    return TiltConfig(min(path.breakpoint, math.nextafter(1.0, 0.0)), theta1, None)


def likelihood_ratio(path: PathSample, tilt: TiltConfig, params: ModelParams, T: float) -> float:
    """Importance weight of a path sampled under the tilted intensities, from its own events after ``s*T``."""
    tilt = tilt.at_horizon(params, T)
    late = path.kinds[path.times > tilt.window(T)[0]]
    cats = np.count_nonzero(late == EventKind.CATASTROPHE)
    return float(tilt.weight(late.size - cats, cats, params, T))


def _fold_block(weights: np.ndarray, hits: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Σh, Σh², Σw and Σw² of a block, h = w·1{hit}, then Σh·row over the grid rows of its hits if given.

    ``rows`` holds one grid row per hit, in row order.  A missed row would add
    h·row = +0.0, and adding +0.0 leaves a sum of nonnegative terms as it is,
    so the sum over the hits alone is the sum over every row, bit for bit.
    """
    h = np.where(hits, weights, 0.0)
    # axis 0 is added one row after another, a fixed order a BLAS product would not keep
    row_sum = [] if rows is None else np.sum(weights[hits][:, None] * rows, axis=0)
    return np.concatenate(([h.sum(), (h * h).sum(), weights.sum(), (weights * weights).sum()], row_sum))


def _run_block(args) -> np.ndarray:
    """Draw replicas [start, stop) with the bound kernel on their block's stream; return its sums or terminal states."""
    kernel, seed, start, stop, event, grid = args
    block = kernel(replica_rng(seed, start // BLOCK), stop - start)
    if event is None:
        return block.terminal
    statistic, level = event
    hits = getattr(block, statistic) >= level
    rows = None
    if grid is not None:
        # only the hits carry weight, so only their states are built and looked up
        hit = hits.nonzero()[0]
        rows = _grid_states(block.times[hit], block.post_states(hit), grid)
    return _fold_block(block.weights, hits, rows)


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
        raise InputError(f"eps must be finite and > 0, got {eps}", "eps")


# glibc's mallopt parameters (malloc.h) and the values a worker keeps its heap with
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_HEAP = ((_M_TRIM_THRESHOLD, 1 << 30), (_M_MMAP_THRESHOLD, 32 << 20))


def _mallopt():
    """glibc's ``mallopt`` through ``ctypes``, or ``None`` where the C library has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _keep_heap() -> None:
    """Pool initializer: a worker keeps the memory its blocks free, instead of returning it to the system.

    By default glibc trims the top of the heap, and unmaps large arrays, as
    soon as they are freed, so the next block page-faults the same memory
    back in.  A fixed mmap threshold of 32 MiB, glibc's largest, puts a
    block's arrays on the heap, and a trim threshold of 1 GiB keeps it there.
    The pool lives for the process, so an idle worker holds that memory
    until the next call or the pool's shutdown.  Without ``mallopt`` this
    does nothing.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        for param, value in _KEEP_HEAP:
            mallopt(param, value)


# the process's worker pool and its worker count; calls take _pool_lock to use or replace them
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.RLock()


def _map_blocks(args: list, workers: int) -> list:
    """Run the blocks on the process's pool of ``workers`` workers, forked on first use; results in block order.

    Each worker takes one contiguous chunk of the blocks, so a call makes one
    round trip per worker, not one per block.  A pool of another size is
    shut down before the new one forks, so no fork happens while the old
    pool's threads run.  A dead worker breaks the whole pool: the call that
    meets it raises ``BrokenProcessPool`` and the pool is dropped, so the
    next call forks a fresh one.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool_workers != workers:
            _shutdown_pool()
        if _pool is None:
            _pool = ProcessPoolExecutor(max_workers=workers, initializer=_keep_heap)
            _pool_workers = workers
        try:
            return list(_pool.map(_run_block, args, chunksize=math.ceil(len(args) / workers)))
        except BrokenProcessPool:
            _shutdown_pool()
            raise


def _shutdown_pool() -> None:
    """Shut the process's pool down and join its workers; the next call that needs one forks a fresh pool."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown()
            _pool = None


def _forget_pool() -> None:
    """In a forked child, drop the parent's pool, whose threads and workers stay with the parent.

    The lock is new too: the parent holds it while it forks its own workers.
    """
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_replicas(kernel, seed, n, workers, event=None, grid=None) -> np.ndarray:
    """Run n replicas block by block, possibly across processes; merge in block order.

    ``kernel(rng, rows)`` draws a block of replicas under the model, horizon and measure bound into it.
    With ``event`` = (``_Block`` statistic, level) a replica hits at that level and each block returns
    its sums; without one, its terminal states.
    """
    check_seed(seed)
    bounds = _block_bounds(n)
    workers = _worker_count(workers, len(bounds))
    args = [(kernel, seed, start, stop, event, grid) for start, stop in bounds]
    blocks = [_run_block(a) for a in args] if workers == 1 else _map_blocks(args, workers)
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
    A run whose every squared weight underflows to 0 has no effective sample,
    and one whose squared hit weights underflow while their sum does not has
    no standard error.
    """
    hits, hits2, weights, weights2 = map(float, sums[:4])
    if weights2 == 0.0:
        raise NoQualifyingSamplesError(
            f"no sample with positive weight satisfies the conditioning event: the importance "
            f"weights underflow, their squares sum to 0 under {tilt}"
        )
    if hits > 0.0 and hits2 == 0.0:
        raise NoQualifyingSamplesError(
            f"the squares of the hit weights underflow to 0 while the hit weights sum to {hits!r}, "
            f"so the standard error is lost under {tilt}"
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
    sums = _run_replicas(partial(_decomposed_block, params, T), seed, n, workers, ("terminal", tail_level(x, T)))
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
    event = ("terminal", tail_level(x, T))
    tilt = tilt.at_horizon(params, T)
    sums = _run_replicas(partial(_decomposed_block, params, T, tilt=tilt), seed, n, workers, event)
    return _fold_estimate(sums, T, n, seed, tilt)


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
        raise InputError(f"eps must be finite and > 0 with eps*T finite, got eps={eps}, T={T}", "eps")
    # sup/T > eps is sup/T >= the next float above eps; tail_level rejects a bad T
    level = tail_level(float(np.nextafter(eps, math.inf)), T)
    sums = _run_replicas(partial(_decomposed_block, params, T), seed, n, workers, ("sup", level))
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
    kernel = partial(_decomposed_block, params, T, tilt=tilt.at_horizon(params, T))
    sums = _run_replicas(kernel, seed, n, workers, event, grid * T)
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
    kernels = {"subordinated": _subordinated_block, "decomposed": _decomposed_block}
    if construction not in kernels:
        raise ValueError(f"unknown construction {construction!r}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be finite and > 0, got {T}")
    return _run_replicas(partial(kernels[construction], params, T), seed, n, workers)
