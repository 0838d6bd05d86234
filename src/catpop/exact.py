"""Simulation-free ground truth at desk scale.

The law of the population at time T is computed exactly by uniformisation:
the k-step distributions of the jump chain, truncated to states {0, ..., M},
are mixed over the Poisson number k = 0..K of clock events.  The kernel is
"up with probability p, else uniform below", so one chain step is a reverse
cumulative sum, O(M), and the whole law costs O(K*M).  Everything cut off is
accounted by cause rather than silently dropped: the mass that escapes above
M and the Poisson mass beyond K together make the ``truncation_error`` every
returned figure carries.  The module also provides the exact lower tails
(uniform-sum convolution, Poisson CDF) that the closed-form bounds are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .model import InputError, ModelParams


MAX_POISSON_WINDOW = 2**21  # terms of one Poisson window, about 70 MB at the peak; past the CLI's K cap


class TruncationBudgetExceeded(RuntimeError):
    """The requested truncation cannot certify the caller's error budget."""


def tail_level(x: float, T: float) -> int:
    """Smallest integer k with ``k / T >= x``: the tail event of the oracle and the estimators.

    Found with that float comparison itself, not as ``ceil(x*T)``, which is
    one too high when ``x*T`` rounds up past an integer (0.28 * 25 gives
    7.000000000000001, yet 7 / 25 >= 0.28).  ``k / T`` is monotone in k, so a
    bisection finds the level.
    """
    if not (math.isfinite(T) and T > 0):
        raise InputError(f"horizon T must be finite and > 0, got {T}", "T")
    if not math.isfinite(x * T):
        raise InputError(f"deviation level x*T must be finite, got x={x}, T={T}", "x")
    if x <= 0:
        return 0
    lo, hi = 0, math.ceil(x * T) + 1  # lo / T < x always holds, since x > 0
    while hi / T < x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid / T >= x:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(eq=False)
class Pmf:
    """Probability masses over states {0, ..., M} plus unaccounted mass.

    ``masses.sum() + truncation_error`` is 1 up to rounding; the truncation
    error covers both the Poisson event counts beyond the cap and any paths
    that escaped above the state cap.
    """

    masses: np.ndarray
    truncation_error: float

    def __post_init__(self):
        if np.any(self.masses < 0) or self.truncation_error < 0:
            raise ValueError("probability masses must be nonnegative")
        total = float(self.masses.sum()) + self.truncation_error
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"masses + truncation_error = {total}, expected 1")

    def tail(self, x: float, T: float) -> tuple[float, float]:
        """P(state(T) / T >= x) with its truncation uncertainty.

        Returns ``(value, uncertainty)``: the true probability lies within
        ``value + [0, uncertainty]`` because truncated mass can only add to a
        tail.
        """
        return float(self.masses[tail_level(x, T):].sum()), self.truncation_error


def chain_matrix(params: ModelParams, M: int) -> np.ndarray:
    """Jump-chain transition matrix truncated to states {0, ..., M}.

    Row 0 puts all mass on state 1.  Rows 1..M-1 follow the kernel exactly.
    Row M keeps only the catastrophe mass; the missing birth mass
    lambda/(lambda+mu) escapes the truncation.  The oracle steps the chain
    without this matrix; it serves as a dense cross-check at small M.
    """
    if M < 1:
        raise ValueError(f"state cap M must be >= 1, got {M}")
    p_birth = params.birth_prob
    P = np.zeros((M + 1, M + 1))
    P[0, 1] = 1.0
    for i in range(1, M + 1):
        P[i, :i] = (1.0 - p_birth) / i
        if i < M:
            P[i, i + 1] = p_birth
    return P


def _poisson_weights(rate: float, K: int) -> tuple[np.ndarray, float]:
    """Poisson(rate) probabilities of k = 0..K, and the probability of k > K.

    Terms are taken in log space, ``k ln(rate) - rate - lgamma(k+1)``, then
    exponentiated, so a large rate underflows no term near its mode.  The
    terms are summed up to a point past both K and the mode, where a
    geometric bound covers the rest, and divided by that total (Fox & Glynn,
    CACM 31(4), 1988): the weights then sum to one to rounding, and the mass
    beyond K is the direct sum of the terms past K, not a difference of
    nearly equal numbers.
    """
    if rate == 0.0:
        weights = np.zeros(K + 1)
        weights[0] = 1.0
        return weights, 0.0
    reach = max(K + 1, rate) + 10.0 * math.sqrt(rate)
    if not reach <= MAX_POISSON_WINDOW:
        # the rate is the clock's alpha*T, so the horizon sets the window
        raise InputError(f"Poisson window of {reach:.3g} terms for rate {rate:.3g} exceeds {MAX_POISSON_WINDOW}", "T")
    end = math.ceil(reach) + 10
    k = np.arange(end + 1, dtype=float)
    terms = np.exp(k * math.log(rate) - rate - np.fromiter(map(math.lgamma, k + 1.0), float, k.size))
    q = rate / (end + 1)  # terms past `end` shrink at least geometrically by q < 1
    rest = float(terms[end]) * q / (1.0 - q)
    total = float(terms.sum()) + rest
    terms /= total
    return terms[: K + 1], float(terms[K + 1 :].sum()) + rest / total


def exact_state_distribution(
    params: ModelParams,
    T: float,
    M: int,
    K: int,
    error_budget: float = 1e-9,
) -> Pmf:
    """Exact law of the population at time T, truncated to M states, K events.

    Mixes the k-step chain distributions over the Poisson(alpha*T) number of
    clock events for k = 0..K, skipping only Poisson weights that underflow
    to zero.  The mixture ``sum_k w_k e_0 P^k`` is evaluated by Horner's rule,
    ``r <- r P + w_k e_0`` for k from the last nonzero weight down to 0.  A
    chain step ``r P`` is O(M): births shift the mass up by one, and the
    catastrophe mass landing on state j is the suffix sum over i > j of
    ``r[i] * (1-p) / i``.  Births out of state M leave the truncation for
    good; that escaped mass, summed over the steps, and the Poisson mass
    beyond K make the truncation error.  Refuses (raises) if it exceeds
    ``error_budget``, naming which of M and K to raise.
    """
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and nonnegative, got {T}")
    if K < 0:
        raise ValueError(f"event cap K must be >= 0, got {K}")
    if M < 1:
        raise ValueError(f"state cap M must be >= 1, got {M}")
    weights, beyond_K = _poisson_weights(params.alpha * T, K)
    nonzero = np.flatnonzero(weights)
    last = int(nonzero[-1]) if nonzero.size else 0
    w = weights.tolist()
    p = params.birth_prob
    down_rate = (1.0 - p) / np.arange(1, M + 1)  # share of state i's mass landing on each j < i
    masses = np.zeros(M + 1)
    masses[0] = w[last]
    above_M = 0.0  # mass that escaped above M, mixed over the Poisson weights
    for k in range(last - 1, -1, -1):
        top = min(last - 1 - k, M)  # masses is supported on {0, ..., top}
        down = masses[1 : top + 1] * down_rate[:top]
        if top == M:
            above_M += p * masses[M]
        stay = min(top, M - 1)
        from_zero = masses[0]
        masses[2 : stay + 2] = p * masses[1 : stay + 1]
        masses[1] = from_zero
        masses[0] = w[k]
        masses[:top] += np.add.accumulate(down[::-1])[::-1]
    truncation = above_M + beyond_K
    if truncation > error_budget:
        causes = []
        if beyond_K > error_budget / 2:
            causes.append(f"Poisson mass beyond K is {beyond_K:.3e}, raise K={K}")
        if above_M > error_budget / 2:
            causes.append(f"mass escaping above M is {above_M:.3e}, raise M={M}")
        raise TruncationBudgetExceeded(
            f"truncation error {truncation:.3e} exceeds budget {error_budget:.3e}: "
            + "; ".join(causes)
        )
    return Pmf(masses, truncation)


def exact_tail_probability(
    params: ModelParams,
    T: float,
    x: float,
    M: int,
    K: int,
    error_budget: float = 1e-9,
) -> tuple[float, float]:
    """Exact P(state(T) / T >= x) with its truncation uncertainty (see :meth:`Pmf.tail`)."""
    return exact_state_distribution(params, T, M, K, error_budget).tail(x, T)


def uniform_sum_tail_exact(m: int, n: int, a: float) -> float:
    """Exact P(U_1 + ... + U_n <= a) for i.i.d. uniforms on {1, ..., m}."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1.0 if a >= 0 else 0.0
    base = np.full(m, 1.0 / m)  # support {1, ..., m}
    dist = np.ones(1)
    for _ in range(n):
        dist = np.convolve(dist, base)
    # dist[j] is the mass of the sum value n + j
    top = math.floor(a) - n
    if top < 0:
        return 0.0
    return float(dist[: top + 1].sum())


def poisson_lower_tail_exact(rate: float, k: int) -> float:
    """Exact P(N <= k) for N Poisson(rate), summed from the log-space weights."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if k < 0:
        return 0.0
    return float(_poisson_weights(rate, k)[0].sum())


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two mass vectors (padded to length)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    size = max(p.size, q.size)
    pp = np.zeros(size)
    qq = np.zeros(size)
    pp[: p.size] = p
    qq[: q.size] = q
    return 0.5 * float(np.abs(pp - qq).sum())
