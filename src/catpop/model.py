"""Population process with linear growth and uniform catastrophes.

The population lives on the nonnegative integers and starts empty.  Events
arrive on a Poisson clock of rate ``alpha``.  An event is a birth with
probability ``lambda/(lambda+mu)`` and adds one individual; otherwise it is a
catastrophe that knocks the population from level ``i >= 1`` down to a level
chosen uniformly from ``{0, ..., i-1}``.  From level 0 any event produces one
individual.

Two independent constructions of the same process are provided:

* :func:`simulate_subordinated` runs the embedded jump chain at the arrival
  times of a single Poisson clock.
* :func:`simulate_decomposed` merges two independent Poisson event streams,
  births at rate ``alpha*lambda/(lambda+mu)`` and catastrophes at rate
  ``alpha*mu/(lambda+mu)``; a catastrophe at level ``m >= 1`` removes a
  uniform amount in ``{1, ..., m}`` and at level 0 adds one.

Each construction is one block kernel: a call simulates a block of replicas
from one generator, one row per replica, and steps every row through its
sorted events one event column at a time.  A row's events are sorted by one
in-place sort: of its times for the jump chain, and of packed
``(time, kind)`` keys for the two streams, so that a birth comes before a
catastrophe at the same time.  The order depends on the drawn values alone.
The loop steps only the state; each row's largest state is read after it.
The two-stream kernel is the one place that states the tilted window
``(s*T, T]``: it reports the births and catastrophes it drew there.  Each
kernel checks a Poisson mean just before drawing from it.  The simulators
above are the one-replica block; the Monte Carlo estimators run blocks of
``streams.BLOCK``.

Paths are stored as change points only.  :func:`scale_path` produces the
scaled path ``t -> state(T*t)/T`` on ``[0, 1]``, and :func:`optimal_path`
gives the most probable trajectory by which the scaled terminal value
reaches a given deviation level: idle at zero then climb at slope ``alpha``
for small levels, a straight line from the origin for large ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
import math

import numpy as np

from .streams import check_seed, replica_rng


class EventKind(IntEnum):
    BIRTH = 0
    CATASTROPHE = 1


@dataclass(frozen=True)
class ModelParams:
    """Model triple: growth weight, catastrophe weight, event-clock rate."""

    lam: float
    mu: float
    alpha: float

    def __post_init__(self):
        for name in ("lam", "mu", "alpha"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")

    @property
    def birth_prob(self) -> float:
        """Probability that a clock event is a birth: lambda/(lambda+mu)."""
        return self.lam / (self.lam + self.mu)

    @property
    def birth_rate(self) -> float:
        """Birth stream intensity alpha*lambda/(lambda+mu)."""
        return self.alpha * self.lam / (self.lam + self.mu)

    @property
    def catastrophe_rate(self) -> float:
        """Catastrophe stream intensity alpha*mu/(lambda+mu)."""
        return self.alpha * self.mu / (self.lam + self.mu)


@dataclass(frozen=True)
class SimSpec:
    """One replica of a seeded simulation on the horizon (0, T]."""

    horizon_T: float
    seed: int
    replica_index: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.horizon_T) and self.horizon_T > 0):
            raise ValueError(f"horizon_T must be finite and > 0, got {self.horizon_T}")
        check_seed(self.seed)
        if self.replica_index < 0:
            raise ValueError(f"replica_index must be nonnegative, got {self.replica_index}")

    def rng(self) -> np.random.Generator:
        return replica_rng(self.seed, self.replica_index)


@dataclass(eq=False)
class PathSample:
    """Event-level record of one trajectory; the initial state is 0.

    ``times`` are strictly increasing event times in (0, T], ``kinds`` holds
    :class:`EventKind` values, and ``post_states[k]`` is the population level
    immediately after event k.
    """

    times: np.ndarray
    kinds: np.ndarray
    post_states: np.ndarray

    @property
    def n_events(self) -> int:
        return int(self.times.size)


@dataclass(eq=False)
class ScaledPath:
    """The scaled path sampled on an even grid of [0, 1], right-continuously."""

    grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class OptimalPath:
    """Most probable deviation trajectory: 0 until ``breakpoint``, then linear."""

    breakpoint: float
    slope: float
    terminal: float

    def values(self, grid: np.ndarray) -> np.ndarray:
        """Evaluate the trajectory on scaled times in [0, 1]."""
        t = np.asarray(grid, dtype=float)
        return np.where(t <= self.breakpoint, 0.0, self.slope * (t - self.breakpoint))


@dataclass(eq=False)
class _Block:
    """Events and states of a block of replicas, one row per replica.

    ``times`` holds each row's sorted event times, padded with ``+inf`` past
    its ``counts`` events; at equal times a birth comes before a catastrophe
    (:func:`_merge_streams`).  ``kinds`` is 0 on the padding and ``post``
    repeats the terminal state there; ``sup`` is read from ``post`` after the
    loop.  ``late`` holds each row's births and catastrophes drawn on the
    two-stream kernel's tilted window ``(s*T, T]`` (the whole horizon when
    untilted); the jump chain is never tilted and leaves it ``None``.
    """

    times: np.ndarray
    kinds: np.ndarray
    counts: np.ndarray
    post: np.ndarray
    terminal: np.ndarray
    sup: np.ndarray
    late: tuple[np.ndarray, np.ndarray] | None = None

    def path(self, row: int) -> PathSample:
        n = int(self.counts[row])
        return PathSample(self.times[row, :n], self.kinds[row, :n], self.post[row, :n])


# numpy's Generator.poisson refuses larger means ("lam value too large")
_POISSON_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


def _check_mean(mean: float, cause: str) -> float:
    """``mean`` if numpy's Poisson sampler takes it; otherwise name the input that put it out of range."""
    if not mean <= _POISSON_MAX:
        raise ValueError(
            f"{cause} gives {mean:.3g} expected events per replica in one stream, "
            f"beyond numpy's Poisson limit {_POISSON_MAX:.3g}"
        )
    return mean


def _padded_times(rng: np.random.Generator, counts: np.ndarray, start: float, length: float) -> np.ndarray:
    """Uniform event times on (start, start+length], ``counts[r]`` of them left-aligned in row r."""
    live = np.arange(counts.max(initial=0)) < counts[:, None]
    times = np.full(live.shape, np.inf)
    # 1 - U keeps the arrival times inside (start, stop]
    times[live] = start + length * (1.0 - rng.random(int(counts.sum())))
    return times


def _merge_streams(times: np.ndarray, first_catastrophe_column: int) -> tuple[np.ndarray, ...]:
    """Merge the birth and catastrophe columns of each row into its sorted events.

    ``times`` holds ``+inf``-padded birth times before ``first_catastrophe_column``
    and catastrophe times from it on; it is overwritten.  Each time becomes one
    uint64 key ``(bits(time) << 1) | kind``: times >= +0 (``+inf`` included)
    order like their bit patterns read as unsigned integers, the sign bit is 0 so
    the shift loses nothing, and at equal times a birth (kind 0) comes before a
    catastrophe.  One in-place sort of each row's keys therefore gives an order
    fixed by the values alone.  Returns the merged times and kinds, cut to the
    widest row, and each row's event count.
    """
    counts = np.count_nonzero(times < np.inf, axis=1)
    keys = times.view(np.uint64)
    keys <<= 1
    keys[:, first_catastrophe_column:] |= 1
    keys.sort(axis=1)
    keys = keys[:, :counts.max(initial=0)]
    kinds = (keys & 1).astype(np.uint8)
    keys >>= 1
    times = keys.view(np.float64)
    # the catastrophe columns' padding carries kind 1 up to here
    kinds[times == np.inf] = EventKind.BIRTH
    return times, kinds, counts


def _run_events(times, kinds, counts, rng, land, late=None) -> _Block:
    """Step every row of a block through its sorted events, one event column at a time.

    Rows come sorted from one in-place sort (:func:`_merge_streams` for the
    two streams, births first on ties), with ``kinds`` 0 on the padding.

    A birth, or any event of the empty population, adds one; a catastrophe
    at level m draws u uniform on {0, ..., m-1} (``Generator.integers`` with
    an array bound, unbiased per element) and moves to ``land(m, u)``.
    """
    rows, width = times.shape
    live = np.ascontiguousarray((np.arange(width) < counts[:, None]).T)
    cats = np.ascontiguousarray(kinds.T == EventKind.CATASTROPHE)
    state = np.zeros(rows, dtype=np.int64)
    post = np.empty((width, rows), dtype=np.int64)
    for c in range(width):
        hit = cats[c] & (state > 0)
        state += live[c] & ~hit
        if hit.any():
            m = state[hit]
            state[hit] = land(m, rng.integers(0, m))
        post[c] = state
    return _Block(times, kinds, counts, post.T, state, post.max(axis=0, initial=0), late)


def _land_at(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Jump-chain catastrophe: from level m the chain lands on level u."""
    return u


def _drop_by(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Catastrophe-stream event: level m loses 1 + u individuals."""
    return m - 1 - u


def _subordinated_block(params: ModelParams, T: float, rng: np.random.Generator, rows: int) -> _Block:
    """Jump chain run at Poisson clock times, for a block of ``rows`` replicas."""
    counts = rng.poisson(_check_mean(params.alpha * T, "horizon T"), size=rows)
    times = _padded_times(rng, counts, 0.0, T)
    times.sort(axis=1)
    kinds = np.zeros(times.shape, dtype=np.uint8)
    # the clock's marks are independent of its times, so they are drawn in time order
    kinds[times < np.inf] = rng.random(int(counts.sum())) >= params.birth_prob
    # the forced 0 -> 1 move keeps the event's label
    return _run_events(times, kinds, counts, rng, _land_at)


def _decomposed_block(
    params: ModelParams,
    T: float,
    rng: np.random.Generator,
    rows: int,
    switch_time_s: float = 0.0,
    theta1: float = 1.0,
    theta2: float = 1.0,
) -> _Block:
    """Two merged Poisson streams, for a block of ``rows`` replicas.

    On the late window ``(s*T, T]`` the birth and catastrophe intensities are
    multiplied by ``theta1`` and ``theta2``; with the identity multipliers the
    construction is the plain two-stream decomposition of the process.  The
    block keeps the counts each row drew on that window as ``late``.
    """
    # the clock's alpha*T bounds every untilted stream, so only the tilted window can fail below
    _check_mean(params.alpha * T, "horizon T")
    r1, r2 = params.birth_rate, params.catastrophe_rate
    segments = []
    if switch_time_s > 0.0:
        segments.append((0.0, switch_time_s * T, r1, r2))
    segments.append((switch_time_s * T, T, theta1 * r1, theta2 * r2))

    births, cats = [], []
    for start, stop, rb, rc in segments:
        length = stop - start
        nb = rng.poisson(_check_mean(rb * length, "tilt multiplier theta1"), size=rows)
        nc = rng.poisson(_check_mean(rc * length, "tilt multiplier theta2"), size=rows)
        births.append(_padded_times(rng, nb, start, length))
        cats.append(_padded_times(rng, nc, start, length))
    first_catastrophe_column = sum(b.shape[1] for b in births)
    times, kinds, counts = _merge_streams(np.concatenate(births + cats, axis=1), first_catastrophe_column)
    return _run_events(times, kinds, counts, rng, _drop_by, late=(nb, nc))


def simulate_subordinated(params: ModelParams, spec: SimSpec) -> PathSample:
    """Simulate one replica as the jump chain subordinated to a Poisson clock."""
    return _subordinated_block(params, spec.horizon_T, spec.rng(), 1).path(0)


def simulate_decomposed(params: ModelParams, spec: SimSpec) -> PathSample:
    """Simulate one replica from two independent birth/catastrophe streams."""
    return _decomposed_block(params, spec.horizon_T, spec.rng(), 1).path(0)


def _grid_states(times: np.ndarray, post: np.ndarray, grid_times: np.ndarray) -> np.ndarray:
    """State of each row just after its last event at or before each grid time.

    Rows hold sorted event times (``+inf`` padding allowed) and the states
    after them; ``grid_times`` is sorted.  An event counts from the first
    grid time at or after it, so one ``searchsorted`` over the block, a
    ``bincount`` of those first grid indices per row and a cumulative sum
    along the grid give each row's number of events at or before every grid
    time, in integers.
    """
    rows, size = times.shape[0], grid_times.size
    first = np.searchsorted(grid_times, times, side="left") + np.arange(rows)[:, None] * (size + 1)
    arrivals = np.bincount(first.ravel(), minlength=rows * (size + 1)).reshape(rows, size + 1)
    idx = np.cumsum(arrivals[:, :size], axis=1)
    # column 0 stands for "before the first event"
    states = np.concatenate((np.zeros((rows, 1), dtype=post.dtype), post), axis=1)
    return np.take_along_axis(states, idx, axis=1)


def scale_path(path: PathSample, T: float, grid_size: int) -> ScaledPath:
    """Sample the scaled path state(T*t)/T on an even grid of [0, 1].

    Sampling is right-continuous: an event landing exactly on a grid time
    counts at that grid time.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    values = _grid_states(path.times[None], path.post_states[None], grid * T)[0] / T
    return ScaledPath(grid, values)


def terminal_value(path: PathSample, T: float) -> float:
    """Scaled population level at the end of the horizon."""
    if path.n_events == 0:
        return 0.0
    return float(path.post_states[-1]) / T


def sup_value(path: PathSample, T: float) -> float:
    """Largest scaled population level over the whole horizon."""
    if path.n_events == 0:
        return 0.0
    return float(path.post_states.max()) / T


def optimal_path(x: float, params: ModelParams) -> OptimalPath:
    """Most probable trajectory by which the scaled terminal value reaches x.

    Below the clock rate the path idles at zero until ``1 - x/alpha`` and then
    climbs at slope ``alpha``; at or above it the path is the straight line of
    slope ``x`` from the origin.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"deviation level x must be finite and > 0, got {x}")
    if x < params.alpha:
        return OptimalPath(breakpoint=1.0 - x / params.alpha, slope=params.alpha, terminal=x)
    return OptimalPath(breakpoint=0.0, slope=x, terminal=x)
