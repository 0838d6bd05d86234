import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpop.exact import chain_matrix, exact_state_distribution, total_variation
from catpop.model import (
    BLOCK_EVENT_BUDGET,
    EventKind,
    ModelParams,
    OptimalPath,
    PathSample,
    SimSpec,
    TiltConfig,
    optimal_path,
    scale_path,
    simulate_decomposed,
    simulate_subordinated,
    _check_mean,
    _decomposed_block,
    _drop_by,
    _grid_states,
    _land_at,
    _merge_keys,
    _padded_times,
    _run_events,
    _stream_keys,
    _subordinated_block,
)
from catpop.montecarlo import default_tilt
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
    tilt = TiltConfig(*tilt)
    block = _decomposed_block(P111, T, replica_rng(37, 0), BLOCK, tilt)
    # reference: the weight of each row's births and catastrophes whose merged time lies after s*T
    late = (block.times > tilt.switch_time_s * T) & (block.times < np.inf)
    cats = np.count_nonzero(late & (block.kinds == EventKind.CATASTROPHE), axis=-1)
    expected = tilt.weight(np.count_nonzero(late, axis=-1) - cats, cats, P111, T)
    assert block.weights.tobytes() == expected.tobytes()



@pytest.mark.parametrize("s, T", [(0.95, 160.0), (0.7, 40.0), (0.5, 4.0), (0.0, 160.0)])
def test_tilt_states_its_window_once(monkeypatch, s, T):
    # the draws, the horizon-matched damping and the weight's compensator use one window length
    length = T - s * T
    assert TiltConfig(s).window(T) == (s * T, length)
    tilt = TiltConfig(s, 2.0, None).at_horizon(P111, T)
    drawn = []

    def spy(rng, counts, start, span, kind):
        drawn.append((start, span))
        return _stream_keys(rng, counts, start, span, kind)

    monkeypatch.setattr("catpop.model._stream_keys", spy)
    _decomposed_block(P111, T, replica_rng(5, 0), 4, tilt)
    assert drawn[-2:] == [(s * T, length)] * 2  # the tilted births and catastrophes
    assert tilt.theta2 == 1.0 / (1.0 + P111.catastrophe_rate * length)
    compensator = (tilt.theta1 - 1.0) * P111.birth_rate * length + (tilt.theta2 - 1.0) * P111.catastrophe_rate * length
    assert tilt.weight(0, 0, P111, T) == np.exp(compensator)


def test_block_event_budget_scales_with_the_rows():
    # one replica may expect what a block of BLOCK rows may not
    assert _check_mean(2e4, 1, "T") == 2e4
    with pytest.raises(ValueError, match="horizon T"):
        _check_mean(2e4, BLOCK, "T")
    assert BLOCK * 2e4 > BLOCK_EVENT_BUDGET >= 2e4


@pytest.mark.parametrize("tilt, cause", [
    (TiltConfig(0.0, 1.0, 1.0), "horizon T"),
    (TiltConfig(0.5, 1e3, 1.0), "tilt multiplier theta1"),
    (TiltConfig(0.5, 1.0, 1e3), "tilt multiplier theta2"),
])
def test_kernels_refuse_a_block_beyond_the_budget(tilt, cause):
    # checked before anything is drawn or allocated
    T = 2e4 if cause == "horizon T" else 160.0
    with pytest.raises(ValueError, match=cause):
        _decomposed_block(P111, T, replica_rng(5, 0), BLOCK, tilt)
    if cause == "horizon T":
        with pytest.raises(ValueError, match=cause):
            _subordinated_block(P111, T, replica_rng(5, 0), BLOCK)

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


def _streams_of(times, first_catastrophe_column):
    # the birth and the catastrophe columns as two streams: each row's count and
    # its live times, in column order, packed as keys
    streams = []
    for band, kind in ((times[:, :first_catastrophe_column], EventKind.BIRTH),
                       (times[:, first_catastrophe_column:], EventKind.CATASTROPHE)):
        live = band < np.inf
        streams.append((np.count_nonzero(live, axis=1), band[live].view(np.uint64) << 1 | int(kind)))
    return streams


def _times_of(streams):
    # the streams unpacked into +inf-padded time bands, the birth bands first, and the first catastrophe column
    bands = {EventKind.BIRTH: [], EventKind.CATASTROPHE: []}
    for counts, keys in streams:
        kind = EventKind(keys[0] & 1) if keys.size else EventKind.CATASTROPHE  # an empty stream adds no column
        assert np.all(keys & 1 == kind)
        times = np.full((counts.size, counts.max(initial=0)), np.inf)
        times[np.arange(times.shape[1]) < counts[:, None]] = (keys >> 1).view(np.float64)
        bands[kind].append(times)
    births = np.concatenate(bands[EventKind.BIRTH], axis=1)
    return np.concatenate((births, *bands[EventKind.CATASTROPHE]), axis=1), births.shape[1]


def _assert_merge_matches_argsort(times, first_catastrophe_column):
    got = _merge_keys(_streams_of(times, first_catastrophe_column))
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

    def spy(streams):
        seen.append(_times_of(streams))
        return _merge_keys(streams)

    monkeypatch.setattr("catpop.model._merge_keys", spy)
    block = _decomposed_block(P111, T, replica_rng(71, 0), BLOCK, TiltConfig(*switch))
    (times, first), = seen
    expected = _assert_merge_matches_argsort(times, first)
    assert np.array_equal(block.times, expected[0])
    assert np.array_equal(block.kinds, expected[1])
    assert first < times.shape[1]


@pytest.mark.parametrize("kind", list(EventKind))
def test_stream_keys_pack_the_drawn_times(kind):
    # the same generator calls as a padded time matrix: each key is its time's bits
    # shifted up one place, or'ed with the kind
    counts = replica_rng(3, 0).poisson(5.0, size=BLOCK)
    rng_keys, rng_times = replica_rng(3, 1), replica_rng(3, 1)
    keys = _stream_keys(rng_keys, counts, 80.0, 80.0, kind)
    times = _padded_times(rng_times, counts, 80.0, 80.0)
    assert np.array_equal(keys >> 1, times[times < np.inf].view(np.uint64))
    assert np.all(keys & 1 == kind)
    assert rng_keys.random() == rng_times.random()


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


def _column_loop(times, kinds, counts, rng, land):
    # reference: the event-column loop that the catastrophe-rank loop replaced;
    # it steps every row one event column at a time and draws in (column, row) order
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
    return state, post.max(axis=0, initial=0), post.T


class _HalfwayRng:
    """Stands in for a generator: the draw on {0, ..., m-1} is m // 2, whatever the order of the draws."""

    def __init__(self):
        self.calls = self.draws = 0

    def integers(self, low, high):
        high = np.asarray(high)
        assert low == 0 and np.all(high > 0)
        self.calls += 1
        self.draws += high.size
        return high // 2


def _assert_kernel_matches_column_loop(times, kinds, counts, land):
    rng = _HalfwayRng()
    block = _run_events(times, kinds, counts, rng, land)
    terminal, sup, post = _column_loop(times, kinds, counts, _HalfwayRng(), land)
    assert np.array_equal(block.terminal, terminal)
    assert np.array_equal(block.sup, sup)
    assert np.array_equal(block.post_states(np.arange(counts.size)), post)
    # one pass per catastrophe rank: the most catastrophes in one row, not the width
    assert rng.calls == np.count_nonzero(kinds == EventKind.CATASTROPHE, axis=1).max(initial=0)
    return block


def _kernel_inputs(monkeypatch, make_block):
    seen = []

    def spy(times, kinds, counts, rng, land, weights=None):
        seen.append((times, kinds, counts, land))
        return _run_events(times, kinds, counts, rng, land, weights)

    monkeypatch.setattr("catpop.model._run_events", spy)
    make_block()
    monkeypatch.undo()
    (inputs,) = seen
    return inputs


@pytest.mark.parametrize("T", [4.0, 40.0, 160.0])
@pytest.mark.parametrize(
    "kernel, x",
    [(_subordinated_block, None), (_decomposed_block, None), (_decomposed_block, 0.5), (_decomposed_block, 2.0)],
    ids=["subordinated", "identity", "default-x0.5", "default-x2"],
)
def test_catastrophe_loop_matches_the_column_loop_on_blocks(monkeypatch, T, kernel, x):
    args = (P111, T, replica_rng(11, 0), BLOCK)
    if x is not None:
        args += (default_tilt(x, P111).at_horizon(P111, T),)
    times, kinds, counts, land = _kernel_inputs(monkeypatch, lambda: kernel(*args))
    block = _assert_kernel_matches_column_loop(times, kinds, counts, land)
    assert block.times.shape[1] > np.count_nonzero(kinds == EventKind.CATASTROPHE, axis=1).max()


def _rows_of(*rows):
    # one row per string of event kinds, B for a birth and C for a catastrophe, at times 1, 2, ...
    width = max(map(len, rows))
    times = np.full((len(rows), width), np.inf)
    kinds = np.zeros((len(rows), width), dtype=np.uint8)
    for r, row in enumerate(rows):
        times[r, :len(row)] = np.arange(1.0, len(row) + 1)
        kinds[r, :len(row)] = [EventKind.CATASTROPHE if k == "C" else EventKind.BIRTH for k in row]
    return times, kinds, np.array([len(row) for row in rows])


@pytest.mark.parametrize("land", [_land_at, _drop_by])
@pytest.mark.parametrize(
    "rows",
    [
        ("",),  # no events at all: a block 0 columns wide
        ("", ""),
        ("BBB", "", "B"),  # rows with no catastrophe
        ("C", "CC", "CCC", "CBC"),  # a catastrophe as the first event, and at state 0
        ("BBBBC", "CBBBBBBC", "", "BCBCBCBC", "BBC", "BBBBBBBBBBCCCC"),
        ("BBBBBBBBBBC", "C", "BBBBBBBBBBBBBBBBBBBBCCCCCCCCCC", "BB"),
    ],
)
def test_catastrophe_loop_matches_the_column_loop_on_edge_blocks(land, rows):
    block = _assert_kernel_matches_column_loop(*_rows_of(*rows), land)
    for r, row in enumerate(rows):
        assert block.path(r).n_events == len(row)


@pytest.mark.parametrize("kernel", [_subordinated_block, _decomposed_block])
def test_post_states_of_a_row_subset_are_those_rows_of_the_full_matrix(kernel):
    block = kernel(P111, 40.0, replica_rng(19, 0), BLOCK)
    full = block.post_states(np.arange(BLOCK))
    for rows in ([], [517], np.arange(BLOCK), np.flatnonzero(block.terminal >= 10), [900, 3, 41]):
        rows = np.asarray(rows, dtype=np.intp)
        got = block.post_states(rows)
        assert got.shape == (rows.size, block.times.shape[1])
        assert got.tobytes() == full[rows].tobytes()


def test_catastrophe_at_state_zero_moves_to_one_without_a_draw():
    rng = _HalfwayRng()
    block = _run_events(*_rows_of("CC", "C"), rng, _land_at)
    assert np.array_equal(block.post_states(np.arange(2)), [[1, 0], [1, 1]])
    assert np.array_equal(block.sup, [1, 1]) and np.array_equal(block.terminal, [0, 1])
    assert rng.draws == 1  # for the second catastrophe of row 0 only


@pytest.mark.parametrize("T", [4.0, 40.0, 160.0])
@pytest.mark.parametrize("kernel", [_subordinated_block, _decomposed_block])
def test_one_row_block_draws_in_time_order(monkeypatch, kernel, T):
    # with one row the rank order is the time order, so the real draws are the column loop's
    for replica in range(20):
        times, kinds, counts, land = _kernel_inputs(monkeypatch, lambda: kernel(P111, T, replica_rng(13, replica), 1))
        block = _run_events(times, kinds, counts, replica_rng(17, replica), land)
        terminal, sup, post = _column_loop(times, kinds, counts, replica_rng(17, replica), land)
        assert block.terminal.tobytes() == terminal.tobytes()
        assert block.sup.tobytes() == sup.tobytes()
        assert block.post_states(np.arange(1)).tobytes() == post.tobytes()


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
        assert scaled.values[-1] == (path.post_states[-1] if path.n_events else 0) / 4.0
        assert scaled.values[0] == 0.0


def test_terminal_and_sup_values():
    # an empty row stays at 0; birth, birth, then a catastrophe from 2 landing on 2 // 2 = 1
    block = _run_events(*_rows_of("", "BBC"), _HalfwayRng(), _land_at)
    assert block.terminal.tolist() == [0, 1]
    assert block.sup.tolist() == [0, 2]


def test_sup_dominates_terminal():
    for kernel in (_subordinated_block, _decomposed_block):
        block = kernel(P111, 6.0, replica_rng(43, 0), BLOCK)
        assert np.all(block.sup >= block.terminal)
        assert np.any(block.sup > block.terminal)


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
    trajectory = OptimalPath(breakpoint=0.4, slope=2.0)
    grid = np.linspace(0.0, 1.0, 11)
    values = trajectory.values(grid)
    assert np.all(values[grid <= 0.4] == 0.0)
    assert np.all(np.diff(values[grid >= 0.4]) > 0)
