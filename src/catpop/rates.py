"""Large-deviation rate functions and closed-form tail bounds.

``terminal_rate`` is the exponential decay cost of the scaled terminal
deviation: probabilities behave like exp(-T * rate).  The same quantity is
recovered by an independent numerical route, maximizing the two-variable
objective ``variational_objective`` that arises from splitting the process
into its birth and catastrophe streams; agreement of the two routes is an
executable identity, not an implementation detail shared between them.
The maximizer takes y in closed form, y = max(x, b*z), and then runs one
golden-section search over t = ln z, so its tolerance is relative; every
evaluation of the objective draws on one budget, so a call returns or
raises :class:`OptimizerConvergenceError`.
Both routes, like the simulation kernels, read the stream intensities from
``ModelParams`` (the birth intensity b = ``birth_rate``, the clock rate
alpha) and share nothing else.

The bound helpers are Chernoff-type inequalities for the catastrophe-stream
lower tail and for lower tails of sums of uniform catastrophe sizes; the
exact counterparts they dominate live in :mod:`catpop.exact`.

Convention everywhere: 0*ln(0) = 0, which makes the rate functions
continuous at zero and the bounds continuous at c = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .model import ModelParams

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class OptimizerConvergenceError(RuntimeError):
    """The variational maximizer ran out of its evaluation budget."""


@dataclass(frozen=True)
class VariationalPoint:
    """A point of the variational domain with its objective value."""

    y: float
    z: float
    value: float


def terminal_rate(x: float, params: ModelParams) -> float:
    """Decay rate of P(scaled terminal value >= x); +inf for x < 0.

    With b the birth intensity, piecewise: x*ln(alpha/b) below the clock
    rate alpha, and x*ln(x/b) - x + alpha at or above it.  The two branches
    meet at x = alpha with matching value and slope.
    """
    if x < 0:
        return math.inf
    b, alpha = params.birth_rate, params.alpha
    if x < alpha:
        return x * math.log(alpha / b)
    return x * math.log(x / b) - x + alpha


def birth_increment_rate(x: float, params: ModelParams, window_start: float = 0.0) -> float:
    """Decay rate of the scaled birth-stream increment over (window_start, 1].

    This is the Legendre transform of the cumulant of a Poisson variable with
    mean b*(1-window_start), b the birth intensity; it vanishes exactly at
    that mean.
    """
    if not 0.0 <= window_start < 1.0:
        raise ValueError(f"window_start must lie in [0, 1), got {window_start}")
    if x < 0:
        return math.inf
    mean = params.birth_rate * (1.0 - window_start)
    if x == 0:
        return mean
    return x * math.log(x / mean) - x + mean


def variational_objective(y: float, z: float, params: ModelParams) -> float:
    """The two-stream deviation objective -y*ln(y/(b*z)) + y - alpha*z, b the birth intensity.

    Defined for y >= 0 and z > 0, with the y*ln(y) -> 0 limit at y = 0.
    Jointly concave in (y, z); its constrained supremum over y >= x,
    0 < z <= 1 equals minus :func:`terminal_rate` at x.
    """
    if z <= 0:
        raise ValueError(f"z must be > 0, got {z}")
    if y < 0:
        raise ValueError(f"y must be >= 0, got {y}")
    b, alpha = params.birth_rate, params.alpha
    if y == 0:
        return -alpha * z
    return -y * math.log(y / (b * z)) + y - alpha * z


def _golden_max(fn, lo: float, hi: float, tol: float):
    """Golden-section maximum of a unimodal fn on [lo, hi].

    Endpoints are included among the candidates so boundary maxima are hit
    exactly.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    best_val, best_arg = max((fc, c), (fd, d), (fn(lo), lo), (fn(hi), hi))
    return best_arg, best_val


def terminal_rate_variational(
    x: float,
    params: ModelParams,
    tol: float = 1e-6,
    max_evals: int = 10_000,
) -> tuple[float, VariationalPoint]:
    """Recover the terminal decay rate by direct numerical maximization.

    For fixed z the objective is concave in y with its stationary point at
    y = b*z, so the best y >= x is taken in closed form, y*(z) = max(x, b*z).
    The objective is jointly concave, so what is left, g(z) = f(y*(z), z),
    is concave in z and unimodal in t = ln z; one golden-section search over
    t maximizes it, and its tolerance is relative, so no level is too large
    or too small for it.  Returns ``(-sup, argmax)``.
    The supremum over z is taken on the closed interval (0, 1]; for
    x >= alpha it is attained on the boundary z = 1.  The argmax's ``z``
    reads 0 where x/alpha lies below the float range; the value keeps its
    accuracy there, since alpha*z is computed as exp(t + ln alpha).

    Every evaluation of the objective draws on the one ``max_evals`` budget;
    :class:`OptimizerConvergenceError` is raised when it runs out before
    the argmax settles to ``tol``.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"x must be finite and > 0, got {x}")
    log_x = math.log(x)
    log_alpha = math.log(params.alpha)
    log_b = math.log(params.birth_rate)
    evals = 0

    def g(t: float) -> float:
        nonlocal evals
        evals += 1
        if evals > max_evals:
            raise OptimizerConvergenceError(
                f"no convergence within {max_evals} evaluations (x={x}, params={params})"
            )
        s = max(log_x, log_b + t)
        y = math.exp(s)
        return -y * (s - t - log_b) + y - math.exp(t + log_alpha)

    # the maximizing z is min(x/alpha, 1); the range reaches 16 times below it
    t_lo = min(log_x - log_alpha, 0.0) - math.log(16.0)
    t, value = _golden_max(g, t_lo, 0.0, tol * 1e-3)
    return -value, VariationalPoint(math.exp(max(log_x, log_b + t)), math.exp(t), value)


def catastrophe_lower_tail_bound(
    c: float,
    T: float,
    params: ModelParams,
    window_start: float = 0.0,
) -> float:
    """Chernoff bound on P(catastrophe count over (window_start*T, T] <= c*T).

    With stream rate r = alpha*mu*(1-window_start)/(lambda+mu), the bound is
    exp(-r*T + r*c*T - T*c*ln(c)); at c = 0 it equals the exact probability
    of seeing no catastrophe at all.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c must lie in [0, 1), got {c}")
    if not 0.0 <= window_start <= 1.0:
        raise ValueError(f"window_start must lie in [0, 1], got {window_start}")
    rate = params.catastrophe_rate * (1.0 - window_start)
    c_ln_c = c * math.log(c) if c > 0 else 0.0
    return math.exp(-rate * T + rate * c * T - T * c_ln_c)


def uniform_sum_tail_bound(c: float, delta: float, T: float, a: float) -> float:
    """Chebyshev-type bound (1/[delta*T])^[c*T] * exp(a*T).

    Dominates P(sum of [c*T] uniform sizes on {1, ..., [delta*T]} <= a*T)
    for any real a; [.] is the integer part.
    """
    if c < 0:
        raise ValueError(f"c must be >= 0, got {c}")
    m = math.floor(delta * T)
    if m < 1:
        raise ValueError(f"[delta*T] must be >= 1, got {m} (delta={delta}, T={T})")
    n = math.floor(c * T)
    return (1.0 / m) ** n * math.exp(a * T)
