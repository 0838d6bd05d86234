"""Reference values computed by the benchmark itself, apart from ``catpop.exact``.

Two independent routes to the law of the population at time T:

* :func:`law_expm` exponentiates the truncated generator with scipy, which
  shares no code and no algorithm with catpop's dense jump-chain oracle.
* :func:`law_uniformised` mixes jump-chain distributions over the Poisson
  event count (uniformisation), with Poisson weights taken in log space so
  ``exp(-alpha*T)`` never underflows, and one chain step done as an O(M)
  reverse cumulative sum: the kernel is "up with probability p, else
  uniform below", so the catastrophe mass landing on j is the suffix sum of
  ``dist[i] * (1-p) / i`` over i > j.

The rest are closed forms from the model's definition: the tail event
``k/T >= x`` as the estimators test it, the terminal rate function and the
idle-then-climb trajectory.
"""

from __future__ import annotations

import math

import numpy as np


def birth_prob(lam: float, mu: float) -> float:
    return lam / (lam + mu)


def law_expm(lam: float, mu: float, alpha: float, T: float, M: int) -> np.ndarray:
    """Masses of states 0..M at time T by ``expm`` of the truncated generator.

    Births out of state M go to an absorbing overflow state, which is
    dropped from the returned masses.
    """
    from scipy.linalg import expm

    p = birth_prob(lam, mu)
    Q = np.zeros((M + 2, M + 2))
    Q[0, 1] = alpha
    for i in range(1, M + 1):
        Q[i, i + 1] = alpha * p
        Q[i, :i] = alpha * (1.0 - p) / i
    np.fill_diagonal(Q, -Q.sum(axis=1))
    row = expm(Q * T)[0]
    return np.clip(row[: M + 1], 0.0, None)


def _log_poisson_weights(rate: float, K: int) -> np.ndarray:
    k = np.arange(K + 1, dtype=float)
    lgam = np.array([math.lgamma(j + 1.0) for j in range(K + 1)])
    return -rate + k * math.log(rate) - lgam


def law_uniformised(lam: float, mu: float, alpha: float, T: float, M: int, K: int) -> np.ndarray:
    """Masses of states 0..M at time T, mixing k = 0..K chain steps."""
    p = birth_prob(lam, mu)
    inv = np.zeros(M + 1)
    inv[1:] = (1.0 - p) / np.arange(1, M + 1)
    weights = np.exp(_log_poisson_weights(alpha * T, K))
    dist = np.zeros(M + 1)
    dist[0] = 1.0
    acc = weights[0] * dist
    for k in range(1, K + 1):
        down = dist * inv
        suffix = np.cumsum(down[::-1])[::-1]  # suffix[i] = sum of down[i:]
        new = np.empty(M + 1)
        new[:M] = suffix[1:]
        new[M] = 0.0
        new[1] += dist[0]
        new[2:] += p * dist[1:M]
        dist = new
        acc += weights[k] * dist
    return acc


def tail_level(x: float, T: float) -> int:
    """Smallest state k with ``k / T >= x``, the event the estimators test."""
    k = max(0, math.floor(x * T) - 2)
    while k / T < x:
        k += 1
    return k


def tail(masses: np.ndarray, x: float, T: float) -> float:
    """P(state(T) >= x*T) in the estimators' sense, from a mass vector."""
    return float(masses[tail_level(x, T):].sum())


def terminal_rate(x: float, lam: float, mu: float, alpha: float) -> float:
    """Closed-form decay rate of P(scaled terminal value >= x)."""
    if x < alpha:
        return x * math.log((lam + mu) / lam)
    return x * math.log(x * (lam + mu) / (alpha * lam)) - x + alpha


def optimal_path(x: float, alpha: float, grid: np.ndarray) -> np.ndarray:
    """Idle at 0 until ``1 - x/alpha``, then climb at slope alpha; a line for x >= alpha."""
    if x < alpha:
        s = 1.0 - x / alpha
        return np.where(grid <= s, 0.0, alpha * (grid - s))
    return x * grid


def tv_tolerance(n: int, bins: int, miss_prob: float = 1e-9) -> float:
    """Total-variation distance an n-sample empirical law exceeds with prob <= miss_prob.

    Bretagnolle-Huber-Carol: P(||p_hat - p||_1 >= 2d) <= 2**bins * exp(-2 n d**2).
    """
    return math.sqrt((bins * math.log(2.0) + math.log(1.0 / miss_prob)) / (2.0 * n))


def binned_tv(samples: np.ndarray, masses: np.ndarray, bins: int) -> float:
    """TV distance between the empirical law of ``samples`` and ``masses``.

    States at or above ``bins - 1`` are lumped into one bin, matching
    :func:`tv_tolerance`'s bin count.
    """
    emp = np.bincount(np.minimum(samples, bins - 1), minlength=bins) / samples.size
    ref = np.zeros(bins)
    ref[: bins - 1] = masses[: bins - 1]
    ref[bins - 1] = max(0.0, 1.0 - ref[: bins - 1].sum())
    return 0.5 * float(np.abs(emp - ref).sum())
