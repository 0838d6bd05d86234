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
events catastrophe by catastrophe.  Births only add one each, so the loop
(:func:`_land_ranked`) visits each row's k-th catastrophe, k = 0, 1, ...,
adds the births since the row's previous one, and draws the landings in
(catastrophe rank, row) order: time order for a one-row block.  Each row's
last and largest states come out of that loop; the state after every event
is one cumulative sum per row, built only for the rows a caller asks for.

The loop takes each catastrophe's column among its row's sorted events.
The jump chain sorts each row's clock times in place and reads the columns
off its kinds.  The two-stream kernel finds them one of two ways, chosen
per block from the expected counts.  On the merge path each stream's times
become packed ``(time, kind)`` uint64 keys while they are still the vector
of draws; the keys land in one matrix padded with the ``+inf`` birth key,
and one in-place sort of each row orders them by value alone, a birth
before a catastrophe at the same time.  A one-segment window (plain, or
tilted from time 0) that expects at most kappa =
``SPARSE_CATASTROPHES_PER_BIRTH`` = 0.2 catastrophes per birth takes the
sparse path instead: it draws each row's catastrophe times, sorts those
few, and draws the births in each gap between them as one Poisson count,
so no birth time is drawn.  At T = 160 with 320 births per row, a block of
1024 rows takes about 0.7 ms that way against 5-8 ms merged, and the two
paths break even near 0.2-0.25 catastrophes per birth.  A sparse block
draws its event times only when something reads them: uniform within their
gaps, from the block's generator as it stood after the block's own draws,
so they depend on the seed and the block alone.

:class:`TiltConfig` is the two-stream kernel's sampling measure and
``TiltConfig()`` the plain one; the kernel counts each row's births and
catastrophes on the tilted window, and the block weighs its rows from those
counts when its weights are read.  Each kernel checks every Poisson mean
against one per-block event budget before it draws.  The simulators above
are the one-replica block; the Monte Carlo estimators run blocks of
``streams.BLOCK``.

Paths are stored as change points only.  :func:`scale_path` produces the
scaled path ``t -> state(T*t)/T`` on ``[0, 1]``, and :func:`optimal_path`
gives the most probable trajectory by which the scaled terminal value
reaches a given deviation level: idle at zero then climb at slope ``alpha``
for small levels, a straight line from the origin for large ones.
"""

from __future__ import annotations

from collections.abc import Callable
import copy
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property, partial
import math

import numpy as np

from .streams import check_seed, replica_rng


class InputError(ValueError):
    """An input refused; ``field`` names it, or is ``None`` where no single input is at fault.

    The library names its own argument, such as ``T``, ``x`` or ``theta1``;
    once :func:`catpop.cli.main` has translated it, ``field`` is the option.
    """

    def __init__(self, message: str, field: str | None):
        super().__init__(message)
        self.field = field

    def __reduce__(self):
        # the field survives the trip back from a pool worker
        return type(self), (str(self), self.field)


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
                raise InputError(f"{name} must be finite and > 0, got {v}", name)
        # lam + mu may overflow, and a stream rate may underflow to 0
        for name, v in (("lam + mu", self.lam + self.mu), ("birth_rate", self.birth_rate),
                        ("catastrophe_rate", self.catastrophe_rate)):
            if not (math.isfinite(v) and v > 0):
                raise InputError(f"{name} must be finite and > 0, got {v} from {self}", None)

    @property
    def birth_prob(self) -> float:
        """Probability that a clock event is a birth: lambda/(lambda+mu)."""
        return self.lam / (self.lam + self.mu)

    @property
    def birth_rate(self) -> float:
        """Birth stream intensity alpha*lambda/(lambda+mu), as alpha times the birth probability."""
        return self.alpha * self.birth_prob

    @property
    def catastrophe_rate(self) -> float:
        """Catastrophe stream intensity alpha*mu/(lambda+mu), as alpha times the catastrophe probability."""
        return self.alpha * (self.mu / (self.lam + self.mu))


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
            raise InputError(f"switch_time_s must lie in [0, 1), got {self.switch_time_s}", "switch_time_s")
        theta2 = 1.0 if self.theta2 is None else self.theta2  # None is filled in per horizon
        for name, theta in (("theta1", self.theta1), ("theta2", theta2)):
            if not (math.isfinite(theta) and theta > 0):
                raise InputError(f"tilt multiplier {name} must be finite and > 0, got {theta}", name)

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
        if not math.isfinite(expected):  # theta2 would be 0, though only the horizon is at fault
            raise InputError(f"horizon T={T} expects {expected} catastrophes on the tilted window", "T")
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

    ``counts`` holds each row's event count, and ``terminal`` and ``sup``
    each row's last and largest states.  ``jumps`` holds the row, the column
    among the row's sorted events and the state change of every catastrophe,
    from which :meth:`post_states` builds the states of the rows a caller
    asks for and ``kinds`` is built, 0 on the padding.  ``times`` (each
    row's sorted event times, ``+inf`` past its ``counts`` events, from
    ``events``), ``kinds`` and ``weights`` (each row's likelihood ratio, from
    ``weigh``; the never-tilted jump chain has none) are built on first read.
    """

    counts: np.ndarray
    terminal: np.ndarray
    sup: np.ndarray
    jumps: tuple[np.ndarray, np.ndarray, np.ndarray]
    events: Callable[[], np.ndarray]
    weigh: Callable[[], np.ndarray] | None = None

    @cached_property
    def times(self) -> np.ndarray:
        return self.events()

    @cached_property
    def kinds(self) -> np.ndarray:
        kinds = np.zeros(self.times.shape, dtype=np.uint8)
        kinds[self.jumps[:2]] = EventKind.CATASTROPHE  # at each catastrophe's row and column
        return kinds

    @cached_property
    def weights(self) -> np.ndarray | None:
        return None if self.weigh is None else self.weigh()

    def post_states(self, rows: np.ndarray) -> np.ndarray:
        """State after each event of ``rows`` (distinct row indices), the terminal state repeated on the padding.

        Only the asked rows are built, each one cumulative sum: every event
        adds one except a catastrophe, which adds its jump.
        """
        n, width = len(rows), int(self.counts.max(initial=0))
        row, column, jumps = self.jumps
        # each block row moves to its row in the result; the rows not asked for
        # all move to one extra last row, which is dropped
        target = np.full(self.counts.size, n)
        target[rows] = np.arange(n)
        post = np.zeros((n + 1, width), dtype=np.int64)
        np.less(np.arange(width), self.counts[rows, None], out=post[:n])
        post[target[row], column] = jumps
        post = post[:n]
        return post.cumsum(axis=1, out=post)

    def path(self, row: int) -> PathSample:
        n = int(self.counts[row])
        return PathSample(self.times[row, :n], self.kinds[row, :n], self.post_states(np.array([row]))[0, :n])


# Most events one Poisson draw may expect over a block, rows x mean.  A
# two-stream block peaks at 38-50 bytes per event in its time, key and state
# matrices (tracemalloc at T = 160 and 40), so a block at the budget needs
# about 0.3-0.4 GB; a horizon or tilt beyond it fails before any allocation.
BLOCK_EVENT_BUDGET = 2**23

_CAUSES = {"T": "horizon T", "theta1": "tilt multiplier theta1", "theta2": "tilt multiplier theta2"}


def _check_mean(mean: float, rows: int, field: str) -> float:
    """``mean``, if ``rows`` draws of it expect at most the budget; else an :class:`InputError` naming its input."""
    if not rows * mean <= BLOCK_EVENT_BUDGET:
        raise InputError(
            f"{_CAUSES[field]} gives {mean:.3g} expected events per replica in one stream, {rows * mean:.3g} "
            f"in a block of {rows}, beyond the per-block budget of {BLOCK_EVENT_BUDGET} events",
            field,
        )
    return mean


def _uniform_times(rng: np.random.Generator, size: int, start, length) -> np.ndarray:
    """``size`` uniform event times on (start, start+length], as ``start + length*(1 - U)`` in place."""
    u = rng.random(size)
    np.subtract(1.0, u, out=u)
    u *= length
    u += start
    return u


def _padded_times(rng: np.random.Generator, counts: np.ndarray, start, length) -> np.ndarray:
    """Uniform event times on (start, start+length], ``counts[r]`` of them left-aligned in row r.

    ``start`` and ``length`` are numbers, or one value per event, row by row.
    """
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


def _land_ranked(column, per_row, counts, rng, land):
    """The catastrophe loop of every kernel: each row's last and largest states, and the jumps of its catastrophes.

    ``column`` lists every catastrophe's column among its row's sorted
    events, row by row and each row in time order: read off the sorted kinds
    (:func:`_run_events`), or a sparse row's births before it plus its rank
    (:func:`_sparse_block`).  ``per_row`` holds each row's catastrophes and
    ``counts`` its events.  A birth, or any event of the empty population,
    adds one; a catastrophe at level m draws u uniform on {0, ..., m-1}
    (``Generator.integers`` with an array bound, unbiased per element) and
    moves to ``land(m, u)``.  Births only add one, so the loop visits rank
    k = 0, 1, ... and adds the births since each row's previous catastrophe,
    its column less its rank: the landing draws are taken in (rank, row)
    order, which for a one-row block is time order.
    """
    ranks = int(per_row.max(initial=0))
    # rank k holds, in row order, the k-th catastrophe of each row that has one
    row = (np.arange(ranks)[:, None] < per_row).ravel().nonzero()[0]
    rank = row // counts.size
    row -= rank * counts.size
    column = column[(per_row.cumsum() - per_row)[row] + rank]
    births = column - rank
    bounds = rank.searchsorted(np.arange(ranks + 1)).tolist()
    # a row's state after its latest catastrophe, less the births before that catastrophe
    offset = np.zeros(counts.size, dtype=np.int64)
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
    return terminal, sup, (row, column, after - before)


def _run_events(times, kinds, counts, rng, land, weigh=None) -> _Block:
    """Step every row of a block through its sorted events, catastrophe by catastrophe (:func:`_land_ranked`).

    Rows come sorted from one in-place sort (:func:`_merge_keys` for the
    two streams, births first on ties), with ``kinds`` 0 on the padding.
    The block keeps the times alone; the rest it builds from its jumps.
    """
    rows, width = times.shape
    # the catastrophes' flat indices, row by row and each row in time order
    flat = (kinds == EventKind.CATASTROPHE.value).ravel().nonzero()[0]
    row = flat // width
    terminal, sup, jumps = _land_ranked(flat - row * width, np.bincount(row, minlength=rows), counts, rng, land)
    return _Block(counts, terminal, sup, jumps, lambda: times, weigh)


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


# kappa: a two-stream block counts its births by gaps (:func:`_sparse_block`)
# when its window is one segment that expects at most this many catastrophes
# per birth, and merges its sorted streams (:func:`_merged_block`) otherwise.
# On one block of 1024 rows at T = 160 with 320 births per row, the sparse path
# took 0.2-0.75x the merge path's time up to 0.1 catastrophes per birth,
# 0.84-0.99x at 0.2, 0.9-1.17x at 0.25 and 0.9-1.26x from 0.3 on.
SPARSE_CATASTROPHES_PER_BIRTH = 0.2


def _decomposed_block(
    params: ModelParams, T: float, rng: np.random.Generator, rows: int, tilt: TiltConfig = TiltConfig()
) -> _Block:
    """Two merged Poisson streams under ``tilt`` (``theta2`` set), for a block of ``rows`` replicas.

    ``TiltConfig()`` is the plain two-stream decomposition of the process.
    The window is cut into segments of constant intensities, the plain one
    before ``s*T`` and the tilted one after it, and every mean is checked
    against the budget before anything is drawn; only a one-segment window
    may take the sparse path.  The block weighs each row by
    :meth:`TiltConfig.weight` of its births and catastrophes on the tilted
    window when its weights are read.
    """
    # the clock's alpha*T bounds every untilted stream, so only the tilted window can fail below
    _check_mean(params.alpha * T, rows, "T")
    start, length = tilt.window(T)
    r1, r2 = params.birth_rate, params.catastrophe_rate
    segments = [(0.0, start, r1, r2)] if start > 0.0 else []
    segments.append((start, length, tilt.theta1 * r1, tilt.theta2 * r2))
    for _, span, rb, rc in segments:
        _check_mean(rb * span, rows, "theta1")
        _check_mean(rc * span, rows, "theta2")
    weight = partial(tilt.weight, params=params, T=T)
    _, span, rb, rc = segments[0]
    if len(segments) == 1 and rc * span <= SPARSE_CATASTROPHES_PER_BIRTH * (rb * span):
        return _sparse_block(segments[0], rng, rows, weight)
    return _merged_block(segments, rng, rows, weight)


def _merged_block(segments, rng: np.random.Generator, rows: int, weight) -> _Block:
    """Each segment's births and catastrophes drawn as two streams of times, merged and sorted row by row."""
    streams = []
    for begin, span, rb, rc in segments:
        nb = rng.poisson(rb * span, size=rows)
        nc = rng.poisson(rc * span, size=rows)
        streams.append((nb, _stream_keys(rng, nb, begin, span, EventKind.BIRTH)))
        streams.append((nc, _stream_keys(rng, nc, begin, span, EventKind.CATASTROPHE)))
    times, kinds, counts = _merge_keys(streams)
    return _run_events(times, kinds, counts, rng, _drop_by, partial(weight, nb, nc))


def _gap_counts(rng: np.random.Generator, rows: int, begin: float, span: float, rb: float, rc: float):
    """The one segment of a sparse block: each row's catastrophe times and its births in the gaps between them.

    Row r draws Poisson(rc*span) catastrophe times uniform on (begin,
    begin+span], sorted and padded with ``+inf``; they cut the segment into
    gaps, and the births in each gap are one Poisson(rb * gap length) count.
    Returns the catastrophe counts and times, the gap edges (the segment's
    ends around the times, the padding at the end) and the gap counts, gap j
    ending at catastrophe j and the gaps past a row's last one empty.
    """
    nc = rng.poisson(rc * span, size=rows)
    cats = _padded_times(rng, nc, begin, span)
    cats.sort(axis=1)
    end = begin + span
    edges = np.concatenate((np.full((rows, 1), begin), np.minimum(cats, end), np.full((rows, 1), end)), axis=1)
    born = rng.poisson(rb * np.diff(edges, axis=1))
    return nc, cats, edges, born


def _sparse_block(segment, rng: np.random.Generator, rows: int, weight) -> _Block:
    """A one-segment window's catastrophes drawn first and the births between them counted (:func:`_gap_counts`).

    A row's state sequence and weight come out of the counts alone: its
    catastrophe j follows the births of gaps 0, ..., j and j catastrophes.
    The event times are built on first read (:func:`_sparse_events`), from
    the generator as it stands after the block's own draws.
    """
    nc, cats, edges, born = _gap_counts(rng, rows, *segment)
    nb = born.sum(axis=1)
    counts = nb + nc
    column = born[:, :-1].cumsum(axis=1) + np.arange(cats.shape[1])
    terminal, sup, jumps = _land_ranked(column[cats < np.inf], nc, counts, rng, _drop_by)
    events = partial(_sparse_events, rng.bit_generator, rng.bit_generator.state, counts, cats, edges, born)
    return _Block(counts, terminal, sup, jumps, events, partial(weight, nb, nc))


def _sparse_events(bit_generator, state, counts, cats, edges, born) -> np.ndarray:
    """The merged times of a sparse block, drawn from ``bit_generator`` set back to ``state``.

    Each gap's births are uniform on the gap, drawn row by row and each row
    in time order; one sort of each row's births and catastrophes orders the
    births within their gaps, so catastrophe k of a row with b births before
    it lands in column b + k, where the catastrophe loop put its jump.
    """
    bits = copy.deepcopy(bit_generator)
    bits.state = state
    per_gap = born.ravel()
    starts, lengths = np.repeat(edges[:, :-1], per_gap), np.repeat(np.diff(edges, axis=1), per_gap)
    times = np.concatenate((_padded_times(np.random.Generator(bits), born.sum(axis=1), starts, lengths), cats), axis=1)
    times.sort(axis=1)
    return times[:, :counts.max(initial=0)]


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
        raise InputError(f"deviation level x must be finite and > 0, got {x}", "x")
    if x < params.alpha:
        return OptimalPath(breakpoint=1.0 - x / params.alpha, slope=params.alpha)
    return OptimalPath(breakpoint=0.0, slope=x)
