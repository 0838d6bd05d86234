import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from catpop.exact import (
    MAX_POISSON_WINDOW,
    Pmf,
    TruncationBudgetExceeded,
    _poisson_weights,
    chain_matrix,
    exact_state_distribution,
    exact_tail_probability,
    poisson_lower_tail_exact,
    tail_level,
    total_variation,
    uniform_sum_tail_exact,
)
from catpop.model import ModelParams

P111 = ModelParams(1.0, 1.0, 1.0)

# frozen regression constant, computed by this oracle at M=64, K=60 where the
# truncation error is below 1e-12
EXACT_TAIL_111_T4_X05 = 0.364847004572957

PARAM_SETS = [P111, ModelParams(2.0, 3.0, 1.5), ModelParams(0.3, 4.0, 2.0)]


def test_chain_matrix_row_zero():
    P = chain_matrix(P111, 5)
    expected = np.zeros(6)
    expected[1] = 1.0
    assert np.array_equal(P[0], expected)


def test_chain_matrix_row_three():
    P = chain_matrix(P111, 6)
    expected = np.array([1 / 6, 1 / 6, 1 / 6, 0.0, 0.5, 0.0, 0.0])
    assert np.allclose(P[3], expected, atol=1e-15)


@pytest.mark.parametrize("params", PARAM_SETS)
def test_chain_matrix_rows_sum_to_one_with_overflow(params):
    M = 40
    P = chain_matrix(params, M)
    assert np.all(np.abs(P[:M].sum(axis=1) - 1.0) <= 1e-14)
    # the top row is short exactly the birth mass that escapes the truncation
    assert abs(P[M].sum() + params.birth_prob - 1.0) <= 1e-14


def test_distribution_zero_time_is_point_mass():
    pmf = exact_state_distribution(P111, 0.0, 8, 5)
    assert pmf.masses[0] == 1.0
    assert pmf.masses[1:].sum() == 0.0
    assert pmf.truncation_error == 0.0


def test_distribution_conditional_event_counts():
    # given exactly one event the state is 1; given two events and lam=mu the
    # state splits 1/2 at 2 (two births) and 1/2 at 0 (birth then catastrophe)
    P = chain_matrix(P111, 8)
    start = np.zeros(9)
    start[0] = 1.0
    one = start @ P
    assert one[1] == 1.0 and one.sum() == 1.0
    two = one @ P
    assert abs(two[2] - 0.5) < 1e-15 and abs(two[0] - 0.5) < 1e-15


def test_distribution_normalization_and_budget():
    pmf = exact_state_distribution(P111, 4.0, 64, 60)
    assert abs(pmf.masses.sum() + pmf.truncation_error - 1.0) <= 1e-12
    assert pmf.truncation_error < 1e-12
    # each failure names the cap that caused it, and only that one
    with pytest.raises(TruncationBudgetExceeded) as too_few_events:
        exact_state_distribution(P111, 4.0, 64, 3, error_budget=1e-9)
    assert "raise K=3" in str(too_few_events.value)
    assert "raise M=" not in str(too_few_events.value)
    with pytest.raises(TruncationBudgetExceeded) as too_few_states:
        exact_state_distribution(P111, 4.0, 4, 60, error_budget=1e-12)
    assert "raise M=4" in str(too_few_states.value)
    assert "raise K=" not in str(too_few_states.value)


@pytest.mark.parametrize("M", [8, 60])
@pytest.mark.parametrize("params", PARAM_SETS)
def test_distribution_matches_dense_matrix_mixing(params, M):
    # the O(M) chain step against powers of the dense truncated matrix; at
    # M=8 much mass escapes above M, and the truncation error must hold it
    K = 60
    T = 4.0
    P = chain_matrix(params, M)
    dist = np.zeros(M + 1)
    dist[0] = 1.0
    weight = math.exp(-params.alpha * T)
    dense = weight * dist
    for k in range(1, K + 1):
        dist = dist @ P
        weight *= params.alpha * T / k
        dense += weight * dist
    pmf = exact_state_distribution(params, T, M, K, error_budget=1.0)
    assert np.abs(pmf.masses - dense).max() <= 1e-13
    assert abs(pmf.truncation_error - (1.0 - dense.sum())) <= 1e-13


def test_rare_tail_at_long_horizon():
    # P(S(160) >= 80) is about 6.4e-24; its decay exponent is near the rate
    # function's 0.3466 and its truncation bound is a real bound, not rounding
    value, uncertainty = exact_tail_probability(P111, 160.0, 0.5, 1000, 1000)
    assert -math.log(value) / 160.0 == pytest.approx(0.3338, abs=1e-3)
    assert uncertainty <= 1e-3 * value


def test_distribution_without_poisson_underflow():
    # exp(-800) underflows to 0; the log-space weights do not
    pmf = exact_state_distribution(P111, 800.0, 2000, 2000)
    assert isinstance(pmf, Pmf)
    assert pmf.truncation_error < 1e-9
    # at rate 5000 the raw log-space terms sum to 1 only within ~4e-12; the
    # normalised weights keep the Pmf invariant (1e-12) all the same
    assert isinstance(exact_state_distribution(P111, 5000.0, 8, 6000, error_budget=1.0), Pmf)


def test_truncation_error_is_the_poisson_tail_beyond_K():
    # no path reaches M=64 within K=40 events, so the whole truncation error is
    # P(N > 40) for N ~ Poisson(4), about 2.9e-27: far below rounding of 1 - sum
    pmf = exact_state_distribution(P111, 4.0, 64, 40)
    assert pmf.truncation_error == pytest.approx(scipy.stats.poisson.sf(40, 4.0), rel=1e-9, abs=0)


def test_distribution_self_consistency_under_refinement():
    # refining the truncation never moves any mass by more than the previous
    # truncation error
    coarse = exact_state_distribution(P111, 4.0, 24, 24, error_budget=1e-3)
    fine = exact_state_distribution(P111, 4.0, 48, 48, error_budget=1e-9)
    diff = np.abs(coarse.masses - fine.masses[: coarse.masses.size]).max()
    assert diff <= coarse.truncation_error + 1e-15


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf(np.array([0.5, 0.4]), 0.2)
    with pytest.raises(ValueError):
        Pmf(np.array([-0.1, 1.1]), 0.0)


def test_tail_at_zero_is_one():
    value, uncertainty = exact_tail_probability(P111, 4.0, 0.0, 64, 60)
    assert abs(value - 1.0) <= 1e-12
    assert uncertainty < 1e-12


def test_tail_regression_constant():
    value, uncertainty = exact_tail_probability(P111, 4.0, 0.5, 64, 60)
    assert uncertainty < 1e-12
    assert value == pytest.approx(EXACT_TAIL_111_T4_X05, abs=1e-14)


def test_tail_beyond_event_cap_is_truncation_only():
    # at most K events means state <= K, so thresholds above K carry no mass
    pmf = exact_state_distribution(P111, 4.0, 64, 60)
    value, uncertainty = exact_tail_probability(P111, 4.0, 61 / 4.0, 64, 60)
    assert value <= uncertainty
    assert value == 0.0
    assert pmf.masses[61:].sum() == 0.0


def test_tail_level_is_the_float_comparison():
    # 0.28 * 25 rounds to 7.000000000000001, so ceil(x*T) would give 8
    assert tail_level(0.28, 25.0) == 7
    assert tail_level(0.0, 4.0) == 0
    assert tail_level(-1.0, 4.0) == 0
    for T in (3.0, 7.0, 25.0, 160.0):
        for x in np.round(np.arange(0.01, 3.0, 0.01), 2):
            k = tail_level(float(x), T)
            assert k / T >= x and (k - 1) / T < x
    with pytest.raises(ValueError):
        tail_level(0.5, 0.0)


def test_tail_level_doubles_its_bracket_where_x_times_T_rounds_down():
    # past 2^53 the rounded x*T can sit below the level by more than one, so ceil(x*T) + 1 does not bracket it
    assert tail_level(6004799503160670.0, 3.0) == 18014398509482011
    for x, T in [(6004799503160670.0, 3.0), (3002399751580331.0, 3.0), (2573485501354574.0, 7.0),
                 (1.8014398509481997e17, 0.1), (112589990684262.48, 160.0), (1.8014398509482013e19, 0.001)]:
        assert x * T >= 2.0**53 and (math.ceil(x * T) + 1) / T < x
        k = tail_level(x, T)
        assert k / T >= x > (k - 1) / T


def test_tail_monotone_in_x():
    values = [
        exact_tail_probability(P111, 4.0, x, 64, 60)[0]
        for x in np.linspace(0.0, 3.0, 25)
    ]
    assert np.all(np.diff(values) <= 1e-15)


def test_uniform_sum_empty():
    assert uniform_sum_tail_exact(3, 0, 0.0) == 1.0
    assert uniform_sum_tail_exact(3, 0, -0.5) == 0.0


def test_uniform_sum_hand_values():
    assert uniform_sum_tail_exact(4, 1, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert uniform_sum_tail_exact(2, 2, 3.0) == pytest.approx(0.75, abs=1e-15)


@given(m=st.integers(1, 4), n=st.integers(1, 4), a=st.floats(-1.0, 20.0))
@settings(max_examples=80, deadline=None)
def test_uniform_sum_matches_enumeration(m, n, a):
    hits = sum(
        1 for combo in itertools.product(range(1, m + 1), repeat=n) if sum(combo) <= a
    )
    brute = hits / m**n
    assert uniform_sum_tail_exact(m, n, a) == pytest.approx(brute, abs=1e-12)


def test_uniform_sum_monotone_in_threshold():
    values = [uniform_sum_tail_exact(5, 4, a) for a in range(0, 25)]
    assert np.all(np.diff(values) >= 0)


def test_poisson_tail_hand_values():
    assert poisson_lower_tail_exact(1.0, 0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert poisson_lower_tail_exact(5.0, 2) == pytest.approx(
        math.exp(-5.0) * (1 + 5 + 12.5), abs=1e-15
    )
    assert poisson_lower_tail_exact(2.0, -1) == 0.0


def test_poisson_tail_limit_is_one():
    rate = 7.0
    k = int(rate + 40 * math.sqrt(rate))
    assert poisson_lower_tail_exact(rate, k) == pytest.approx(1.0, abs=1e-12)


@given(rate=st.floats(0.05, 60.0), k=st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_poisson_tail_matches_scipy(rate, k):
    ours = poisson_lower_tail_exact(rate, k)
    reference = scipy.stats.poisson.cdf(k, rate)
    assert ours == pytest.approx(reference, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("rate, k", [(800.0, 800), (5000.0, 4900)])
def test_poisson_tail_matches_scipy_at_large_rates(rate, k):
    # exp(-rate) underflows here; the log-space weights do not
    reference = scipy.stats.poisson.cdf(k, rate)
    assert poisson_lower_tail_exact(rate, k) == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("rate, K", [(60.0, 40), (800.0, 700), (5000.0, 4900)])
def test_poisson_weights_below_the_mode_are_the_window_weights(rate, K):
    # a cap below the mode keeps the normalised window of a cap past it
    below, beyond = _poisson_weights(rate, K)
    wide, _ = _poisson_weights(rate, int(2 * rate + 50))
    nonzero = wide[: K + 1] > 0
    assert np.array_equal(below > 0, nonzero)
    rel = np.abs(below[nonzero] - wide[: K + 1][nonzero]) / wide[: K + 1][nonzero]
    assert rel.max() <= 1e-15
    assert beyond == pytest.approx(1.0 - wide[: K + 1].sum(), rel=1e-12)


@pytest.mark.parametrize("alpha, T", [(1.0, MAX_POISSON_WINDOW), (1.0, 1e9), (10.0, 1e308)])
def test_poisson_window_beyond_its_budget_is_refused(alpha, T):
    # the window reaches past the mode, so a rate far above K still sizes it; alpha*T may overflow
    with pytest.raises(ValueError, match="window"):
        exact_state_distribution(ModelParams(1.0, 1.0, alpha), T, 64, 60)


def test_total_variation_basics():
    assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5, 0.0])) == 0.0
    assert total_variation(np.array([1.0]), np.array([0.5, 0.5])) == 0.5
