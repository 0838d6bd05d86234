import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpop.exact import chain_matrix, exact_state_distribution, total_variation
from catpop.model import (
    EventKind,
    ModelParams,
    OptimalPath,
    PathSample,
    SimSpec,
    optimal_path,
    scale_path,
    simulate_decomposed,
    simulate_subordinated,
    sup_value,
    terminal_value,
    _decomposed_block,
    _drop_by,
    _grid_states,
    _land_at,
    _merge_streams,
    _padded_times,
    _run_events,
    _subordinated_block,
)
from catpop.streams import BLOCK, replica_rng

P111 = ModelParams(1.0, 1.0, 1.0)


def _empty_path():
    return PathSample(
        np.empty(0), np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    )


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, math.inf)


def test_simspec_validation():
    with pytest.raises(ValueError):
        SimSpec(horizon_T=0.0, seed=1)
    with pytest.raises(ValueError):
        SimSpec(horizon_T=1.0, seed=-1)
    with pytest.raises(ValueError):
        SimSpec(horizon_T=1.0, seed=1, replica_index=-1)


def _landing_frequencies(state, rng, land, n=60_000):
    # one block of n replicas: `state` births, then one catastrophe each
    kinds = np.zeros((n, state + 1), dtype=np.uint8)
    kinds[:, -1] = EventKind.CATASTROPHE
    times = np.broadcast_to(np.arange(1.0, state + 2), kinds.shape)
    block = _run_events(times, kinds, np.full(n, state + 1), rng, land)
    return np.bincount(block.terminal, minlength=state) / n


def _catastrophe_row(params, state):
    # the catastrophe part of the kernel row, conditioned on a catastrophe
    row = chain_matrix(params, state)[state, :state]
    return row / row.sum()


@pytest.mark.parametrize("land", [_land_at, _drop_by])
def test_catastrophe_landing_from_three_frequencies(land):
    # from i=3 the landing levels 0, 1, 2 are equally likely, in both kernels
    freq = _landing_frequencies(3, replica_rng(1, 0), land)
    assert np.abs(freq - _catastrophe_row(P111, 3)).max() < 0.01


@pytest.mark.parametrize("land", [_land_at, _drop_by])
def test_catastrophe_landing_matches_kernel_row(land):
    params = ModelParams(2.0, 3.0, 1.0)
    freq = _landing_frequencies(7, replica_rng(2, 0), land)
    assert total_variation(freq, _catastrophe_row(params, 7)) < 0.01


@pytest.mark.parametrize(
    "params",
    [P111, ModelParams(2.0, 3.0, 1.0), ModelParams(0.2, 5.0, 2.0),
     ModelParams(7.0, 0.5, 0.3), ModelParams(1.5, 1.5, 10.0)],
)
def test_kernel_normalization_to_200(params):
    P = chain_matrix(params, 250)
    sums = P[:201].sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


def test_subordinated_zero_horizon_limit():
    path = simulate_subordinated(P111, SimSpec(horizon_T=1e-12, seed=3))
    assert path.n_events == 0
    assert terminal_value(path, 1e-12) == 0.0


def test_subordinated_event_count_mean():
    # Poisson clock: mean event count alpha*T to within 1%
    n, T = 100_000, 4.0
    total = 0
    for i in range(n):
        total += simulate_subordinated(P111, SimSpec(T, 17, i)).n_events
    assert abs(total / n - 4.0) < 0.04


def test_decomposed_stream_rates():
    # lam=1, mu=1, alpha=2: birth rate 1, catastrophe rate 1
    params = ModelParams(1.0, 1.0, 2.0)
    assert params.birth_rate == 1.0
    assert params.catastrophe_rate == 1.0
    n, T = 20_000, 5.0
    births = cats = 0
    for i in range(n):
        path = simulate_decomposed(params, SimSpec(T, 19, i))
        births += int(np.count_nonzero(path.kinds == EventKind.BIRTH))
        cats += int(np.count_nonzero(path.kinds == EventKind.CATASTROPHE))
    assert abs(births / n - 5.0) < 0.06
    assert abs(cats / n - 5.0) < 0.06


def test_catastrophe_from_one_lands_at_zero():
    seen = 0
    for i in range(3000):
        path = simulate_decomposed(P111, SimSpec(2.0, 23, i))
        prev = 0
        for kind, post in zip(path.kinds, path.post_states):
            if kind == EventKind.CATASTROPHE and prev == 1:
                assert post == 0
                seen += 1
            prev = post
    assert seen > 100


def _assert_path_invariants(path, T):
    assert np.all(np.diff(path.times) > 0)
    assert np.all(path.times <= T)
    assert np.all(path.post_states >= 0)
    if path.n_events == 0:
        return
    assert path.times[0] > 0
    prev = np.concatenate(([0], path.post_states[:-1]))
    births = path.kinds == EventKind.BIRTH
    cats = ~births
    assert np.all(path.post_states[births & (prev > 0)] == prev[births & (prev > 0)] + 1)
    assert np.all(path.post_states[prev == 0] == 1)
    drop_ok = path.post_states[cats & (prev > 0)] < prev[cats & (prev > 0)]
    assert np.all(drop_ok)


@pytest.mark.parametrize("simulate", [simulate_subordinated, simulate_decomposed])
def test_path_invariants(simulate):
    params = ModelParams(1.3, 0.8, 2.0)
    for i in range(500):
        _assert_path_invariants(simulate(params, SimSpec(3.0, 29, i)), 3.0)


@pytest.mark.parametrize("kernel", [_subordinated_block, _decomposed_block])
def test_block_rows_are_paths(kernel):
    # every row of a full block obeys the event rules, and the block's
    # terminal and sup are that row's last and largest states
    params = ModelParams(1.3, 0.8, 2.0)
    block = kernel(params, 3.0, replica_rng(29, 0), BLOCK)
    for r in range(BLOCK):
        path = block.path(r)
        _assert_path_invariants(path, 3.0)
        assert block.terminal[r] == (path.post_states[-1] if path.n_events else 0)
        assert block.sup[r] == path.post_states.max(initial=0)


@pytest.mark.parametrize("T", [4.0, 40.0, 160.0])
@pytest.mark.parametrize("tilt", [(0.0, 1.0, 1.0), (0.5, 2.0, 0.1)], ids=["identity", "tilted"])
def test_block_reports_the_counts_it_drew_on_the_tilted_window(T, tilt):
    s, theta1, theta2 = tilt
    block = _decomposed_block(P111, T, replica_rng(37, 0), BLOCK, s, theta1, theta2)
    # reference: each row's births and catastrophes whose merged time lies after s*T
    late = (block.times > s * T) & (block.times < np.inf)
    cats = np.count_nonzero(late & (block.kinds == EventKind.CATASTROPHE), axis=-1)
    births, catastrophes = block.late
    assert np.array_equal(births, np.count_nonzero(late, axis=-1) - cats)
    assert np.array_equal(catastrophes, cats)


def _argsort_merge(times, first_catastrophe_column):
    # reference: the stable argsort merge that the packed-key sort replaced;
    # births come first in the concatenation, so they win ties
    kinds = np.zeros(times.shape, dtype=np.uint8)
    kinds[:, first_catastrophe_column:] = EventKind.CATASTROPHE
    counts = np.count_nonzero(times < np.inf, axis=1)
    order = np.argsort(times, axis=1, kind="stable")[:, :counts.max(initial=0)]
    times = np.take_along_axis(times, order, axis=1)
    kinds = np.take_along_axis(kinds, order, axis=1)
    kinds[times == np.inf] = EventKind.BIRTH
    return times, kinds, counts


def _assert_merge_matches_argsort(times, first_catastrophe_column):
    got = _merge_streams(times.copy(), first_catastrophe_column)
    expected = _argsort_merge(times.copy(), first_catastrophe_column)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)
    # bit-equal times: +0.0 against -0.0 or a changed NaN payload would show here
    assert np.array_equal(got[0].view(np.uint64), expected[0].view(np.uint64))
    return got


@pytest.mark.parametrize("T", [4.0, 40.0, 160.0])
@pytest.mark.parametrize("switch", [(0.0, 1.0, 1.0), (0.5, 2.0, 0.1)], ids=["plain", "switched"])
def test_merge_matches_stable_argsort_on_blocks(monkeypatch, T, switch):
    seen = []

    def spy(times, first_catastrophe_column):
        seen.append((times.copy(), first_catastrophe_column))
        return _merge_streams(times, first_catastrophe_column)

    monkeypatch.setattr("catpop.model._merge_streams", spy)
    block = _decomposed_block(P111, T, replica_rng(71, 0), BLOCK, *switch)
    (times, first), = seen
    expected = _assert_merge_matches_argsort(times, first)
    assert np.array_equal(block.times, expected[0])
    assert np.array_equal(block.kinds, expected[1])
    assert first < times.shape[1]


def test_merge_puts_a_birth_before_a_catastrophe_at_the_same_time():
    inf = np.inf
    times = np.array([
        [1.0, 2.0, inf, 1.0, inf],  # a birth and a catastrophe at time 1
        [3.0, 3.0, 3.0, 3.0, 3.0],  # equal times within each stream
        [inf, inf, inf, inf, inf],  # no events
        [2.0, inf, inf, 0.5, 2.0],
    ])
    merged, kinds, counts = _assert_merge_matches_argsort(times, 3)
    assert np.array_equal(counts, [3, 5, 0, 3])
    assert np.array_equal(merged[0, :3], [1.0, 1.0, 2.0])
    assert np.array_equal(kinds[0, :3], [EventKind.BIRTH, EventKind.CATASTROPHE, EventKind.BIRTH])
    assert np.array_equal(kinds[1], [0, 0, 0, 1, 1])
    assert np.array_equal(kinds[3], [1, 0, 1, 0, 0])
    assert np.all(kinds[2] == EventKind.BIRTH) and np.all(merged[2] == inf)


@pytest.mark.parametrize("widest", [0, 1])
def test_merge_of_blocks_with_at_most_one_event_per_row(widest):
    times = np.full((4, 3), np.inf)
    if widest:
        times[2, 2] = 0.5
    merged, kinds, counts = _assert_merge_matches_argsort(times, 2)
    assert merged.shape == (4, widest)
    assert np.array_equal(counts, [0, 0, widest, 0])
    _assert_merge_matches_argsort(np.empty((3, 0)), 0)


def test_merge_orders_zero_and_subnormal_times():
    # times at +0.0 and on a subnormal horizon, where the bit-pattern order of
    # the keys must still be the order of the values
    rng = np.random.default_rng(5)
    nb, nc = rng.poisson(6.0, size=200), rng.poisson(6.0, size=200)
    births, cats = _padded_times(rng, nb, 0.0, 1e-310), _padded_times(rng, nc, 0.0, 1e-310)
    births[::7, 0] = 0.0
    cats[::5, 0] = 0.0
    cats[::3, -1] = np.nextafter(0.0, 1.0)
    times = np.concatenate((births, cats), axis=1)
    assert np.any((times > 0) & (times < np.finfo(float).tiny))
    merged, kinds, _ = _assert_merge_matches_argsort(times, births.shape[1])
    # row 0 has a birth and a catastrophe at +0.0, then the smallest subnormal
    assert np.array_equal(merged[0, :3], [0.0, 0.0, np.nextafter(0.0, 1.0)])
    assert np.array_equal(kinds[0, :3], [EventKind.BIRTH, EventKind.CATASTROPHE, EventKind.CATASTROPHE])


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       replica=st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_determinism_byte_for_byte(seed, replica):
    spec = SimSpec(4.0, seed, replica)
    for simulate in (simulate_subordinated, simulate_decomposed):
        a = simulate(P111, spec)
        b = simulate(P111, spec)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.kinds.tobytes() == b.kinds.tobytes()
        assert a.post_states.tobytes() == b.post_states.tobytes()


def test_construction_equivalence_quick():
    # desk-scale check; the full 1e6-replica version is an acceptance criterion
    n, T = 40_000, 4.0
    pmf = exact_state_distribution(P111, T, 64, 60)
    for simulate, seed in ((simulate_subordinated, 31), (simulate_decomposed, 37)):
        terminal = np.zeros(n, dtype=np.int64)
        for i in range(n):
            path = simulate(P111, SimSpec(T, seed, i))
            terminal[i] = path.post_states[-1] if path.n_events else 0
        emp = np.bincount(terminal, minlength=65) / n
        assert total_variation(emp, pmf.masses) < 0.02


def test_scale_path_empty():
    scaled = scale_path(_empty_path(), 5.0, 4)
    assert np.all(scaled.values == 0.0)
    assert scaled.grid[0] == 0.0 and scaled.grid[-1] == 1.0
    with pytest.raises(ValueError):
        scale_path(_empty_path(), 5.0, 0)


def test_scale_path_single_birth_right_continuous():
    # one birth exactly at T/2 counts at the t=0.5 grid point
    path = PathSample(
        np.array([5.0]), np.array([EventKind.BIRTH], dtype=np.uint8),
        np.array([1], dtype=np.int64),
    )
    scaled = scale_path(path, 10.0, 2)
    assert np.allclose(scaled.grid, [0.0, 0.5, 1.0])
    assert np.allclose(scaled.values, [0.0, 0.1, 0.1])


def test_grid_lookup_counts_an_event_on_a_grid_time():
    # the block-wide lookup is right-continuous: an event exactly on a grid
    # time counts there, and one just after it does not
    T = 10.0
    grid = np.linspace(0.0, 1.0, 11) * T
    times = np.full((BLOCK, 2), np.inf)
    times[:, 0] = grid[3]
    times[1::2, 0] = np.nextafter(grid[3], T)
    rows = _grid_states(times, np.ones((BLOCK, 2), dtype=np.int64), grid)
    assert np.all(rows[0::2, 3] == 1)
    assert np.all(rows[1::2, 3] == 0)
    assert np.all(rows[:, 4:] == 1) and np.all(rows[:, :3] == 0)


def test_grid_lookup_matches_a_per_row_search():
    # reference: each row's own searchsorted over its real events; rows mix
    # events on grid times, their float neighbours, empty rows and padding
    T, rows, width = 40.0, 300, 12
    grid = np.linspace(0.0, 1.0, 21) * T
    rng = np.random.default_rng(3)
    counts = rng.integers(0, width + 1, size=rows)
    counts[:20] = 0
    on_grid = rng.choice(grid, size=(rows, width))
    candidates = np.stack([
        on_grid,
        np.nextafter(on_grid, -np.inf),
        np.nextafter(on_grid, np.inf),
        rng.uniform(0.0, T, size=(rows, width)),
    ])
    times = np.take_along_axis(candidates, rng.integers(0, 4, size=(1, rows, width)), axis=0)[0]
    times = np.sort(np.clip(times, np.nextafter(0.0, 1.0), T), axis=1)
    times[np.arange(width) >= counts[:, None]] = np.inf
    post = rng.integers(0, 50, size=(rows, width))
    got = _grid_states(times, post, grid)
    for r in range(rows):
        n = counts[r]
        idx = np.searchsorted(times[r, :n], grid, side="right")
        expected = np.concatenate(([0], post[r, :n]))[idx]
        assert np.array_equal(got[r], expected)
    assert np.any(times == grid[5]) and np.any(times == np.nextafter(grid[5], T))


def test_scale_path_terminal_consistency():
    for i in range(50):
        path = simulate_decomposed(P111, SimSpec(4.0, 41, i))
        scaled = scale_path(path, 4.0, 13)
        assert scaled.values[-1] == terminal_value(path, 4.0)
        assert scaled.values[0] == 0.0


def test_terminal_and_sup_values():
    assert terminal_value(_empty_path(), 3.0) == 0.0
    assert sup_value(_empty_path(), 3.0) == 0.0
    path = PathSample(
        np.array([0.5, 1.0, 2.0]),
        np.array([0, 0, 1], dtype=np.uint8),
        np.array([1, 2, 1], dtype=np.int64),
    )
    T = 4.0
    assert terminal_value(path, T) == 1 / T
    assert sup_value(path, T) == 2 / T


def test_sup_dominates_terminal():
    for i in range(300):
        path = simulate_subordinated(P111, SimSpec(6.0, 43, i))
        assert sup_value(path, 6.0) >= terminal_value(path, 6.0)


def test_optimal_path_branches():
    # boundary: both branches coincide at x = alpha
    params = ModelParams(1.0, 1.0, 1.0)
    at_alpha = optimal_path(1.0, params)
    assert at_alpha.breakpoint == 0.0 and at_alpha.slope == 1.0

    below = optimal_path(1.0, ModelParams(1.0, 1.0, 2.0))
    assert below.breakpoint == 0.5 and below.slope == 2.0

    above = optimal_path(2.5, params)
    assert above.breakpoint == 0.0 and above.slope == 2.5

    with pytest.raises(ValueError):
        optimal_path(0.0, params)
    with pytest.raises(ValueError):
        optimal_path(-1.0, params)


@given(x=st.floats(min_value=0.01, max_value=8.0),
       alpha=st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=50, deadline=None)
def test_optimal_path_terminal_value(x, alpha):
    params = ModelParams(1.0, 1.0, alpha)
    trajectory = optimal_path(x, params)
    value_at_one = trajectory.values(np.array([1.0]))[0]
    assert math.isclose(value_at_one, x, rel_tol=1e-12)
    assert trajectory.values(np.array([0.0]))[0] == 0.0


def test_optimal_path_zero_before_breakpoint():
    trajectory = OptimalPath(breakpoint=0.4, slope=2.0, terminal=1.2)
    grid = np.linspace(0.0, 1.0, 11)
    values = trajectory.values(grid)
    assert np.all(values[grid <= 0.4] == 0.0)
    assert np.all(np.diff(values[grid >= 0.4]) > 0)
