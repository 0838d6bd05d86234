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
sorted events catastrophe by catastrophe.  A row's events are sorted by one
in-place sort: of its times for the jump chain, and of packed
``(time, kind)`` uint64 keys for the two streams, so that a birth comes
before a catastrophe at the same time.  Each stream's times become keys
while they are still the vector of draws, and the keys land in one matrix
padded with the ``+inf`` birth key.  The order depends on the drawn values
alone.  Births only add one each, so the loop visits each row's k-th
catastrophe, k = 0, 1, ..., reads the births since the row's previous one
from its column, and draws the landings in (catastrophe rank, row) order:
time order for a one-row block.  Each row's last and largest states come
out of that loop; the state after every event is one cumulative sum per
row, built only for the rows a caller asks for.
:class:`TiltConfig` is the two-stream kernel's sampling measure and
``TiltConfig()`` the plain one; the kernel weighs each row by its births
and catastrophes on the tilted window, so each block carries its rows'
likelihood ratios.  Each kernel checks a Poisson mean against one per-block
event budget just before drawing from it.  The simulators above are the
one-replica block; the Monte Carlo estimators run blocks of ``streams.BLOCK``.

Paths are stored as change points only.  :func:`scale_path` produces the
scaled path ``t -> state(T*t)/T`` on ``[0, 1]``, and :func:`optimal_path`
gives the most probable trajectory by which the scaled terminal value
reaches a given deviation level: idle at zero then climb at slope ``alpha``
for small levels, a straight line from the origin for large ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
class TiltConfig:
    """The two-stream kernel's sampling measure, a piecewise-constant intensity change.

    On the tilted window ``(s*T, T]`` (:meth:`window`, s = ``switch_time_s``)
    the birth and catastrophe intensities are multiplied by ``theta1`` and
    ``theta2``; :meth:`weight` is a replica's likelihood ratio from its counts
    there, and ``TiltConfig()`` is the plain measure.  Multipliers must be
    finite and positive: a zero intensity would give unbounded likelihood
    ratios and break unbiasedness.  ``theta2=None`` is matched to the horizon
    (:meth:`at_horizon`).
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

    def window(self, T: float) -> tuple[float, float]:
        """Start ``s*T`` and length of the tilted window ``(s*T, T]``, the one place they are written."""
        start = self.switch_time_s * T
        return start, T - start

    def at_horizon(self, params: ModelParams, T: float) -> "TiltConfig":
        """This tilt with a horizon-matched ``theta2`` filled in; a set ``theta2`` is kept.

        If the tilted window expects r catastrophes, ``theta2 = 1/(1+r)``
        leaves ``r/(1+r) < 1`` of them under the tilt.
        """
        if self.theta2 is not None:
            return self
        expected = params.catastrophe_rate * self.window(T)[1]
        return replace(self, theta2=1.0 / (1.0 + expected))

    def weight(self, births, cats, params: ModelParams, T: float) -> np.ndarray:
        """Likelihood ratios d(plain)/d(tilted) of replicas with these counts on the window."""
        length = self.window(T)[1]
        return np.exp(
            (self.theta1 - 1.0) * params.birth_rate * length
            - births * math.log(self.theta1)
            + (self.theta2 - 1.0) * params.catastrophe_rate * length
            - cats * math.log(self.theta2)
        )


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

    def values(self, grid: np.ndarray) -> np.ndarray:
        """Evaluate the trajectory on scaled times in [0, 1]."""
        t = np.asarray(grid, dtype=float)
        return np.where(t <= self.breakpoint, 0.0, self.slope * (t - self.breakpoint))


@dataclass(eq=False)
class _Block:
    """Events and states of a block of replicas, one row per replica.

    ``times`` holds each row's sorted event times, padded with ``+inf`` past
    its ``counts`` events; at equal times a birth comes before a catastrophe
    (:func:`_merge_keys`).  ``kinds`` is 0 on the padding.  ``terminal`` and
    ``sup`` are each row's last and largest states.  ``jumps`` holds the flat
    index in ``times`` of every catastrophe and the state change it made,
    from which :meth:`post_states` builds the states of the rows a caller
    asks for.  ``weights`` holds each row's likelihood ratio, which the
    two-stream kernel weighs where it draws the row; the never-tilted jump
    chain leaves it ``None``.
    """

    times: np.ndarray
    kinds: np.ndarray
    counts: np.ndarray
    terminal: np.ndarray
    sup: np.ndarray
    jumps: tuple[np.ndarray, np.ndarray]
    weights: np.ndarray | None = None

    def post_states(self, rows: np.ndarray) -> np.ndarray:
        """State after each event of ``rows`` (distinct row indices), the terminal state repeated on the padding.

        Only the asked rows are built, each one cumulative sum: every event
        adds one except a catastrophe, which adds its jump.
        """
        n, width = len(rows), self.times.shape[1]
        positions, jumps = self.jumps
        # each block row moves to its row in the result; the rows not asked for
        # all move to one extra last row, which is dropped
        target = np.full(self.counts.size, n)
        target[rows] = np.arange(n)
        shift = (target - np.arange(self.counts.size)) * width
        post = np.zeros((n + 1, width), dtype=np.int64)
        np.less(np.arange(width), self.counts[rows, None], out=post[:n])
        post.reshape(-1)[positions + shift[positions // width]] = jumps
        post = post[:n]
        return post.cumsum(axis=1, out=post)

    def path(self, row: int) -> PathSample:
        n = int(self.counts[row])
        return PathSample(self.times[row, :n], self.kinds[row, :n], self.post_states(np.array([row]))[0, :n])


class BudgetError(ValueError):
    """An input asks one computation for more than its budget; ``field`` names it: ``T``, ``theta1`` or ``theta2``."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field

    def __reduce__(self):
        # the field survives the trip back from a pool worker
        return type(self), (str(self), self.field)


# Most events one Poisson draw may expect over a block, rows x mean.  A
# two-stream block peaks at 38-50 bytes per event in its time, key and state
# matrices (tracemalloc at T = 160 and 40), so a block at the budget needs
# about 0.3-0.4 GB; a horizon or tilt beyond it fails before any allocation.
BLOCK_EVENT_BUDGET = 2**23

_CAUSES = {"T": "horizon T", "theta1": "tilt multiplier theta1", "theta2": "tilt multiplier theta2"}


def _check_mean(mean: float, rows: int, field: str) -> float:
    """``mean``, if ``rows`` draws of it expect at most the budget; else a :class:`BudgetError` naming its input."""
    if not rows * mean <= BLOCK_EVENT_BUDGET:
        raise BudgetError(
            f"{_CAUSES[field]} gives {mean:.3g} expected events per replica in one stream, {rows * mean:.3g} "
            f"in a block of {rows}, beyond the per-block budget of {BLOCK_EVENT_BUDGET} events",
            field,
        )
    return mean


def _uniform_times(rng: np.random.Generator, size: int, start: float, length: float) -> np.ndarray:
    """``size`` uniform event times on (start, start+length], as ``start + length*(1 - U)`` in place."""
    u = rng.random(size)
    np.subtract(1.0, u, out=u)
    u *= length
    u += start
    return u


def _padded_times(rng: np.random.Generator, counts: np.ndarray, start: float, length: float) -> np.ndarray:
    """Uniform event times on (start, start+length], ``counts[r]`` of them left-aligned in row r."""
    live = np.arange(counts.max(initial=0)) < counts[:, None]
    times = np.full(live.shape, np.inf)
    times[live] = _uniform_times(rng, int(counts.sum()), start, length)
    return times


# +inf packed as a birth: the key of the padding, after every event's key
_PAD_KEY = np.float64(np.inf).view(np.uint64) << np.uint64(1)


def _stream_keys(
    rng: np.random.Generator, counts: np.ndarray, start: float, length: float, kind: EventKind
) -> np.ndarray:
    """Sort keys of one stream: ``counts[r]`` uniform times on (start, start+length] for row r, row by row.

    Each time becomes one uint64 key ``(bits(time) << 1) | kind`` while it is
    still in the vector of draws: times >= +0 (``+inf`` included) order like
    their bit patterns read as unsigned integers, and the sign bit is 0, so
    the shift loses nothing.
    """
    keys = _uniform_times(rng, int(counts.sum()), start, length).view(np.uint64)
    keys <<= 1
    keys |= int(kind)
    return keys


def _merge_keys(streams: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...]:
    """Merge streams, each its per-row counts and keys (:func:`_stream_keys`), into each row's sorted events.

    Each stream's keys land left-aligned in a band of one matrix padded with
    the ``+inf`` birth key, and one in-place sort of each row gives an order
    fixed by the values alone: at equal times a birth (kind 0) comes before a
    catastrophe, and the padding comes last with kind 0.  Returns the merged
    times and kinds, cut to the widest row, and each row's event count.
    """
    widths = [int(counts.max(initial=0)) for counts, _ in streams]
    keys = np.full((streams[0][0].size, sum(widths)), _PAD_KEY)
    column = 0
    for (counts, stream), width in zip(streams, widths):
        keys[:, column:column + width][np.arange(width) < counts[:, None]] = stream
        column += width
    keys.sort(axis=1)
    counts = sum(n for n, _ in streams)
    keys = keys[:, :counts.max(initial=0)]
    # the cast keeps the low byte, so no full-width uint64 temporary is made
    kinds = keys.astype(np.uint8)
    kinds &= 1
    keys >>= 1
    return keys.view(np.float64), kinds, counts


def _run_events(times, kinds, counts, rng, land, weights=None) -> _Block:
    """Step every row of a block through its sorted events, catastrophe by catastrophe.

    Rows come sorted from one in-place sort (:func:`_merge_keys` for the
    two streams, births first on ties), with ``kinds`` 0 on the padding.

    A birth, or any event of the empty population, adds one; a catastrophe
    at level m draws u uniform on {0, ..., m-1} (``Generator.integers`` with
    an array bound, unbiased per element) and moves to ``land(m, u)``.  Only
    catastrophes need the state, so the loop visits each row's k-th
    catastrophe for k = 0, 1, ... and reads the births before it from its
    column: the landing draws are taken in (catastrophe rank, row) order,
    which for a one-row block is time order.  The state after every event
    is left to :meth:`_Block.post_states`; ``weights`` pass through as they are.
    """
    rows, width = times.shape
    # the catastrophes' flat indices, row by row and each row in time order
    flat = (kinds == EventKind.CATASTROPHE.value).ravel().nonzero()[0]
    row = flat // width
    per_row = np.bincount(row, minlength=rows)
    ranks = int(per_row.max(initial=0))
    # rank k holds, in row order, the k-th catastrophe of each row that has one
    row = (np.arange(ranks)[:, None] < per_row).ravel().nonzero()[0]
    rank = row // rows
    row -= rank * rows
    flat = flat[(per_row.cumsum() - per_row)[row] + rank]
    births = flat - row * width - rank  # before the catastrophe: its column less its rank
    bounds = rank.searchsorted(np.arange(ranks + 1)).tolist()
    # a row's state after its latest catastrophe, less the births before that catastrophe
    offset = np.zeros(rows, dtype=np.int64)
    before = np.empty(rank.size, dtype=np.int64)
    after = np.empty(rank.size, dtype=np.int64)
    for a, b in zip(bounds[:-1], bounds[1:]):
        r, born = row[a:b], births[a:b]
        m = offset[r]
        m += born
        before[a:b] = m
        drop = m.nonzero()[0]
        from_m = m[drop]
        if drop.size < m.size:
            m[m == 0] = 1  # the empty population moves to 1
        m[drop] = land(from_m, rng.integers(0, from_m))
        after[a:b] = m
        m -= born
        offset[r] = m
    terminal = offset + counts - per_row
    # a row's largest state is its last or one just before a catastrophe
    sup = terminal.copy()
    np.maximum.at(sup, row, before)
    return _Block(times, kinds, counts, terminal, sup, (flat, after - before), weights)


def _land_at(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Jump-chain catastrophe: from level m the chain lands on level u."""
    return u


def _drop_by(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Catastrophe-stream event: level m loses 1 + u individuals."""
    return m - 1 - u


def _subordinated_block(params: ModelParams, T: float, rng: np.random.Generator, rows: int) -> _Block:
    """Jump chain run at Poisson clock times, for a block of ``rows`` replicas."""
    counts = rng.poisson(_check_mean(params.alpha * T, rows, "T"), size=rows)
    times = _padded_times(rng, counts, 0.0, T)
    times.sort(axis=1)
    kinds = np.zeros(times.shape, dtype=np.uint8)
    # the clock's marks are independent of its times, so they are drawn in time order
    kinds[times < np.inf] = rng.random(int(counts.sum())) >= params.birth_prob
    # the forced 0 -> 1 move keeps the event's label
    return _run_events(times, kinds, counts, rng, _land_at)


def _decomposed_block(
    params: ModelParams, T: float, rng: np.random.Generator, rows: int, tilt: TiltConfig = TiltConfig()
) -> _Block:
    """Two merged Poisson streams under ``tilt`` (``theta2`` set), for a block of ``rows`` replicas.

    ``TiltConfig()`` is the plain two-stream decomposition of the process.
    The block carries each row's :meth:`TiltConfig.weight` of its window draws.
    """
    # the clock's alpha*T bounds every untilted stream, so only the tilted window can fail below
    _check_mean(params.alpha * T, rows, "T")
    start, length = tilt.window(T)
    r1, r2 = params.birth_rate, params.catastrophe_rate
    segments = [(0.0, start, r1, r2)] if start > 0.0 else []
    segments.append((start, length, tilt.theta1 * r1, tilt.theta2 * r2))

    streams = []
    for begin, span, rb, rc in segments:
        nb = rng.poisson(_check_mean(rb * span, rows, "theta1"), size=rows)
        nc = rng.poisson(_check_mean(rc * span, rows, "theta2"), size=rows)
        streams.append((nb, _stream_keys(rng, nb, begin, span, EventKind.BIRTH)))
        streams.append((nc, _stream_keys(rng, nc, begin, span, EventKind.CATASTROPHE)))
    times, kinds, counts = _merge_keys(streams)
    return _run_events(times, kinds, counts, rng, _drop_by, tilt.weight(nb, nc, params, T))


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


def optimal_path(x: float, params: ModelParams) -> OptimalPath:
    """Most probable trajectory by which the scaled terminal value reaches x.

    Below the clock rate the path idles at zero until ``1 - x/alpha`` and then
    climbs at slope ``alpha``; at or above it the path is the straight line of
    slope ``x`` from the origin.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"deviation level x must be finite and > 0, got {x}")
    if x < params.alpha:
        return OptimalPath(breakpoint=1.0 - x / params.alpha, slope=params.alpha)
    return OptimalPath(breakpoint=0.0, slope=x)
