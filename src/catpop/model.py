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

from .streams import _U64, check_seed, replica_rng


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


def _next_word(words: np.ndarray, wi: int, rng: np.random.Generator) -> tuple[int, int]:
    if wi < words.size:
        return int(words[wi]), wi + 1
    return int(rng.integers(0, _U64, size=1, dtype=np.uint64)[0]), wi


def _uniform_index(m: int, words: np.ndarray, wi: int, rng: np.random.Generator) -> tuple[int, int]:
    """Exact uniform draw from {0, ..., m-1} off a buffered 64-bit word stream.

    Words above the largest multiple of m are rejected so the result carries
    no modulo bias.
    """
    limit = _U64 - _U64 % m
    while True:
        w, wi = _next_word(words, wi, rng)
        if w < limit:
            return w % m, wi


def _subordinated_core(params: ModelParams, T: float, rng: np.random.Generator):
    """Jump chain run at Poisson clock times; returns (times, kinds, post_states)."""
    n = int(rng.poisson(params.alpha * T))
    # 1 - U keeps the arrival times inside (0, T]
    times = np.sort(T * (1.0 - rng.random(n)))
    branch = rng.random(n)
    words = rng.integers(0, _U64, size=n, dtype=np.uint64)
    kinds = (branch >= params.birth_prob).astype(np.uint8)
    post = np.empty(n, dtype=np.int64)
    state = 0
    wi = 0
    for k, kind in enumerate(kinds.tolist()):
        if kind == 0 or state == 0:
            # birth, or the forced 0 -> 1 move (the event keeps its branch label)
            state += 1
        else:
            state, wi = _uniform_index(state, words, wi, rng)
        post[k] = state
    return times, kinds, post


def _decomposed_core(
    params: ModelParams,
    T: float,
    rng: np.random.Generator,
    switch_time_s: float = 0.0,
    theta1: float = 1.0,
    theta2: float = 1.0,
):
    """Two merged Poisson streams; returns (times, kinds, post_states).

    On the late window ``(s*T, T]`` the birth and catastrophe intensities are
    multiplied by ``theta1`` and ``theta2``; with the identity multipliers the
    construction is the plain two-stream decomposition of the process.
    """
    r1, r2 = params.birth_rate, params.catastrophe_rate
    segments = []
    if switch_time_s > 0.0:
        segments.append((0.0, switch_time_s * T, r1, r2))
    segments.append((switch_time_s * T, T, theta1 * r1, theta2 * r2))

    birth_times, cat_times = [], []
    for start, stop, rb, rc in segments:
        length = stop - start
        nb = int(rng.poisson(rb * length))
        nc = int(rng.poisson(rc * length))
        # 1 - U keeps the arrival times inside (start, stop]
        birth_times.append(start + length * (1.0 - rng.random(nb)))
        cat_times.append(start + length * (1.0 - rng.random(nc)))
    tb = np.concatenate(birth_times)
    tc = np.concatenate(cat_times)

    times = np.concatenate([tb, tc])
    kinds = np.zeros(times.size, dtype=np.uint8)
    kinds[tb.size:] = EventKind.CATASTROPHE
    order = np.argsort(times, kind="stable")
    times = times[order]
    kinds = kinds[order]

    words = rng.integers(0, _U64, size=tc.size, dtype=np.uint64)
    post = np.empty(times.size, dtype=np.int64)
    state = 0
    wi = 0
    for k, kind in enumerate(kinds.tolist()):
        if kind == 0 or state == 0:
            # birth, or a catastrophe of the empty population, which adds one
            state += 1
        else:
            drop, wi = _uniform_index(state, words, wi, rng)
            state -= 1 + drop
        post[k] = state
    return times, kinds, post


def simulate_subordinated(params: ModelParams, spec: SimSpec) -> PathSample:
    """Simulate one replica as the jump chain subordinated to a Poisson clock."""
    times, kinds, post = _subordinated_core(params, spec.horizon_T, spec.rng())
    return PathSample(times, kinds, post)


def simulate_decomposed(params: ModelParams, spec: SimSpec) -> PathSample:
    """Simulate one replica from two independent birth/catastrophe streams."""
    times, kinds, post = _decomposed_core(params, spec.horizon_T, spec.rng())
    return PathSample(times, kinds, post)


def _grid_states(times: np.ndarray, post: np.ndarray, grid_times: np.ndarray) -> np.ndarray:
    """State just after the last event at or before each grid time."""
    states = np.concatenate((np.zeros(1, dtype=post.dtype), post))
    idx = np.searchsorted(times, grid_times, side="right")
    return states[idx]


def scale_path(path: PathSample, T: float, grid_size: int) -> ScaledPath:
    """Sample the scaled path state(T*t)/T on an even grid of [0, 1].

    Sampling is right-continuous: an event landing exactly on a grid time
    counts at that grid time.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    values = _grid_states(path.times, path.post_states, grid * T) / T
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
