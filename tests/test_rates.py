import math
import os
from pathlib import Path
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catpop
from catpop.exact import poisson_lower_tail_exact, uniform_sum_tail_exact
from catpop.model import ModelParams, optimal_path
from catpop.rates import (
    OptimizerConvergenceError,
    birth_increment_rate,
    catastrophe_lower_tail_bound,
    terminal_rate,
    terminal_rate_variational,
    uniform_sum_tail_bound,
    variational_objective,
)

P111 = ModelParams(1.0, 1.0, 1.0)

positive_params = st.builds(
    ModelParams,
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
)


@pytest.mark.parametrize(
    "params", [P111, ModelParams(2.0, 3.0, 1.5), ModelParams(0.5, 2.0, 1.0)], ids=["111", "2-3-1.5", "0.5-2-1"]
)
def test_optimal_path_carries_the_rate(params):
    # the rate is the cost of the trajectory: idle for free, then births at its slope s
    # against the birth intensity b while the catastrophe stream (intensity c) stays silent
    b, c = params.birth_rate, params.catastrophe_rate
    for x in np.linspace(0.06, 3.0, 50) * params.alpha:
        path = optimal_path(float(x), params)
        s = path.slope
        cost = (1.0 - path.breakpoint) * (s * math.log(s / b) - s + b + c)
        assert terminal_rate(float(x), params) == pytest.approx(cost, rel=1e-12, abs=0.0)


def test_terminal_rate_branches():
    assert terminal_rate(-0.1, P111) == math.inf
    assert terminal_rate(0.0, P111) == 0.0
    assert terminal_rate(1.0, ModelParams(1, 1, 2)) == pytest.approx(math.log(2), abs=1e-15)
    assert terminal_rate(2.0, P111) == pytest.approx(2 * math.log(4) - 1, abs=1e-15)


@given(params=positive_params)
@settings(max_examples=40, deadline=None)
def test_terminal_rate_branch_continuity(params):
    alpha = params.alpha
    first = alpha * math.log((params.lam + params.mu) / params.lam)
    second = terminal_rate(alpha, params)
    assert abs(first - second) <= 1e-12


def test_terminal_rate_convex_monotone():
    grid = np.linspace(0.0, 3.0 * P111.alpha, 1000)
    values = np.array([terminal_rate(float(x), P111) for x in grid])
    assert values[0] == 0.0
    assert np.all(np.diff(values) >= -1e-12)
    assert np.all(np.diff(values, 2) >= -1e-12)


def test_terminal_rate_derivative_match_at_alpha():
    params = ModelParams(1.4, 0.7, 1.9)
    a, h = params.alpha, 1e-8
    left = (terminal_rate(a, params) - terminal_rate(a - h, params)) / h
    right = (terminal_rate(a + h, params) - terminal_rate(a, params)) / h
    assert abs(left - right) <= 1e-6


def test_birth_increment_rate_values():
    assert birth_increment_rate(-1.0, P111) == math.inf
    mean = P111.birth_rate
    assert birth_increment_rate(mean, P111) == pytest.approx(0.0, abs=1e-15)
    assert birth_increment_rate(0.0, P111) == pytest.approx(mean, abs=1e-15)
    delta = 0.4
    mean_d = P111.birth_rate * (1 - delta)
    assert birth_increment_rate(0.0, P111, delta) == pytest.approx(mean_d, abs=1e-15)
    assert birth_increment_rate(mean_d, P111, delta) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        birth_increment_rate(1.0, P111, window_start=1.0)


def _legendre_numeric(x, params, window_start):
    # independent route: maximize x*y - cumulant(y) for the Poisson increment
    mean = params.birth_rate * (1 - window_start)

    def gain(y):
        return x * y - mean * (math.exp(y) - 1.0)

    lo, hi = -40.0, 40.0
    invphi = (math.sqrt(5) - 1) / 2
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = gain(c), gain(d)
    while hi - lo > 1e-12:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = gain(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = gain(d)
    return max(fc, fd)


@pytest.mark.parametrize("x", [0.05, 0.2, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("window_start", [0.0, 0.5])
def test_birth_increment_rate_is_legendre_transform(x, window_start):
    numeric = _legendre_numeric(x, P111, window_start)
    closed = birth_increment_rate(x, P111, window_start)
    assert abs(numeric - closed) <= 1e-8


def test_variational_objective_values():
    assert variational_objective(0.0, 0.5, P111) == -0.5
    expected = -0.5 * math.log(2)
    assert variational_objective(0.5, 0.5, P111) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        variational_objective(0.5, 0.0, P111)
    with pytest.raises(ValueError):
        variational_objective(-0.5, 0.5, P111)


def test_variational_objective_concave_in_y():
    for z in (0.2, 0.6, 1.0):
        ys = np.linspace(0.05, 4.0, 200)
        vals = np.array([variational_objective(float(y), z, P111) for y in ys])
        assert np.all(np.diff(vals, 2) < 0)


@given(
    params=st.sampled_from([P111, ModelParams(2.0, 3.0, 1.5), ModelParams(0.5, 2.0, 1.0)]),
    p=st.tuples(st.floats(0.01, 4.0), st.floats(0.01, 1.0)),
    q=st.tuples(st.floats(0.01, 4.0), st.floats(0.01, 1.0)),
)
@settings(max_examples=200, deadline=None)
def test_variational_objective_jointly_concave(params, p, q):
    # the variational search takes y in closed form and relies on what is left being
    # concave in z, which joint concavity gives: f at a midpoint is at least the mean
    mid = variational_objective((p[0] + q[0]) / 2, (p[1] + q[1]) / 2, params)
    mean = (variational_objective(*p, params) + variational_objective(*q, params)) / 2
    assert mid >= mean - 1e-12 * (1 + abs(mean))


def test_variational_recovers_closed_form_examples():
    value, argmax = terminal_rate_variational(0.5, P111, tol=1e-6)
    assert abs(value - 0.5 * math.log(2)) <= 1e-6
    assert abs(argmax.y - 0.5) <= 1e-6
    assert abs(argmax.z - 0.5) <= 1e-6

    value, argmax = terminal_rate_variational(2.0, P111, tol=1e-6)
    assert abs(value - (2 * math.log(4) - 1)) <= 1e-6
    assert abs(argmax.y - 2.0) <= 1e-6
    assert abs(argmax.z - 1.0) <= 1e-6


def test_variational_identity_on_grid():
    # executable identity: the numerical maximization reproduces the closed
    # form across parameters and levels, also at mu << lambda, where the
    # objective is nearly flat along the ridge y = b*z
    criterion_1 = (P111, ModelParams(2.0, 3.0, 1.5), ModelParams(0.5, 2.0, 1.0))
    for params in (*criterion_1, ModelParams(1.0, 1e-3, 1.0), ModelParams(1.0, 1e-4, 1.0)):
        for x in np.linspace(0.06, 3.0, 50) * params.alpha:
            value, argmax = terminal_rate_variational(float(x), params, tol=1e-6)
            assert abs(value - terminal_rate(float(x), params)) <= 1e-6
            expected_z = min(float(x) / params.alpha, 1.0)
            assert abs(argmax.y - float(x)) <= 1e-6
            assert abs(argmax.z - expected_z) <= 2e-6
            if params in criterion_1:
                # the value is computed in log coordinates, so it matches the objective
                # at the returned point up to rounding, not bit for bit
                assert math.isclose(argmax.value, variational_objective(argmax.y, argmax.z, params), rel_tol=1e-12)


@pytest.mark.parametrize(
    "params", [P111, ModelParams(2.0, 3.0, 1.5), ModelParams(0.5, 2.0, 1.0)], ids=["111", "2-3-1.5", "0.5-2-1"]
)
def test_variational_near_the_float_limit(params):
    # the rate at 2e305 is finite, and the objective's terms there lie close to the float limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, _ = terminal_rate_variational(2e305, params)
    assert math.isclose(value, terminal_rate(2e305, params), rel_tol=1e-12)


def test_variational_rejects_bad_input_and_budget():
    with pytest.raises(ValueError):
        terminal_rate_variational(0.0, P111)
    with pytest.raises(OptimizerConvergenceError):
        terminal_rate_variational(0.5, P111, max_evals=10)


def test_catastrophe_bound_hand_value():
    expected = math.exp(-5.0 + 1.0 + 10.0 * 0.2 * math.log(5.0))
    assert catastrophe_lower_tail_bound(0.2, 10.0, P111) == pytest.approx(expected, rel=1e-12)


def test_catastrophe_bound_at_zero_equals_no_event_probability():
    for window_start in (0.0, 0.5):
        rate = P111.catastrophe_rate * (1 - window_start)
        bound = catastrophe_lower_tail_bound(0.0, 10.0, P111, window_start)
        assert bound == pytest.approx(math.exp(-rate * 10.0), rel=1e-15)


def test_catastrophe_bound_rejects_bad_c():
    for c in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            catastrophe_lower_tail_bound(c, 10.0, P111)


@given(
    c=st.floats(0.0, 0.95),
    window_start=st.floats(0.0, 0.9),
    T=st.floats(1.0, 60.0),
    params=positive_params,
)
@settings(max_examples=150, deadline=None)
def test_catastrophe_bound_dominates_exact(c, window_start, T, params):
    bound = catastrophe_lower_tail_bound(c, T, params, window_start)
    rate = params.catastrophe_rate * (1 - window_start) * T
    if rate == 0.0:
        return
    exact = poisson_lower_tail_exact(rate, math.floor(c * T))
    assert exact <= bound * (1 + 1e-12)


def test_uniform_sum_bound_empty_product():
    # [cT] = 0 leaves only exp(a*T)
    assert uniform_sum_tail_bound(0.0, 0.5, 10.0, 0.3) == pytest.approx(math.exp(3.0), rel=1e-15)


def test_uniform_sum_bound_rejects_zero_floor():
    with pytest.raises(ValueError):
        uniform_sum_tail_bound(0.3, 0.05, 10.0, 1.0)
    with pytest.raises(ValueError):
        uniform_sum_tail_bound(-0.1, 0.5, 10.0, 1.0)


def test_uniform_sum_bound_monotone_in_count():
    # for a fixed floor >= 2 the bound falls as the summand count grows
    T = 10.0
    values = [uniform_sum_tail_bound(c, 0.5, T, 0.1) for c in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert np.all(np.diff(values) < 0)


@given(
    m=st.integers(1, 25),
    n=st.integers(0, 12),
    frac=st.floats(0.0, 1.2),
)
@settings(max_examples=150, deadline=None)
def test_uniform_sum_bound_dominates_exact(m, n, frac):
    # map the bound arguments so [delta*T] = m and [c*T] = n; the half-offsets
    # keep the integer parts immune to float rounding
    T = 10.0
    a = frac * m * n / T
    bound = uniform_sum_tail_bound((n + 0.5) / T, (m + 0.5) / T, T, a)
    exact = uniform_sum_tail_exact(m, n, a * T)
    assert exact <= bound * (1 + 1e-12)


@pytest.mark.parametrize(
    "x, params",
    [
        (1e-12, P111),
        (1e-9, P111),
        (1.0, ModelParams(1.0, 1.0, 1e9)),
        (1e-200, ModelParams(1.0, 1.0, 1e200)),
        *((x, ModelParams(1.0, mu, 1.0)) for mu in (1e-4, 1e-6) for x in (0.5, 2.0)),
    ],
    # every case has lambda = 1; an id names alpha, and mu where it is not 1
    ids=lambda v: (str(v.alpha) if v.mu == 1.0 else f"{v.alpha}-mu{v.mu:g}") if isinstance(v, ModelParams) else None,
)
def test_variational_agrees_at_levels_far_from_the_clock_rate(x, params):
    # the search runs in ln z: its tolerance is relative, and alpha*z never underflows
    # where x/alpha does (at 1e-200/1e200 the argmax's z reads 0); at mu << lambda the
    # objective is nearly flat along the ridge y = b*z
    value, argmax = terminal_rate_variational(x, params)
    assert math.isclose(value, terminal_rate(x, params), rel_tol=1e-9)
    assert argmax.z == pytest.approx(min(x / params.alpha, 1.0), rel=1e-6, abs=1e-300)


@pytest.mark.parametrize("x, alpha, tol", [(1e20, 1e30, 1e-6), (1e300, 1e308, 1e-6), (0.5, 1.0, 0.0)])
def test_variational_returns_or_raises_within_its_budget(x, alpha, tol):
    # near 1e20 adjacent floats are 16384 apart, so a search that waits for an absolute
    # bracket of 1e-9 never returns, and no golden step settles to tol = 0; each call runs
    # in a child with a timeout, so that such a search fails this test instead of hanging it
    src = str(Path(catpop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "from catpop.model import ModelParams\n"
        "from catpop.rates import OptimizerConvergenceError, terminal_rate_variational\n"
        "try:\n"
        f"    print(repr(terminal_rate_variational({x!r}, ModelParams(1.0, 1.0, {alpha!r}), tol={tol!r})[0]))\n"
        "except OptimizerConvergenceError:\n"
        "    print('budget')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    if tol == 0.0:
        assert proc.stdout == "budget\n"
    else:
        assert math.isclose(float(proc.stdout), terminal_rate(x, ModelParams(1.0, 1.0, alpha)), rel_tol=1e-9)
