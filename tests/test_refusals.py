"""Library refusals, each checked for its error type and, for an ``InputError``, the input it names."""

from functools import partial
import math

import pytest

from catpop.exact import chain_matrix, exact_state_distribution, poisson_lower_tail_exact, uniform_sum_tail_exact
from catpop.model import InputError, ModelParams, TiltConfig
from catpop.montecarlo import collect_weighted_paths, rate_curve_sweep, sample_terminal_states
from catpop.rates import catastrophe_lower_tail_bound
from catpop.streams import replica_rng

P111 = ModelParams(1.0, 1.0, 1.0)


@pytest.mark.parametrize("call, error, field, match", [
    # the tilted window expects 5e299 * 1e10 catastrophes, so theta2 would be 0
    (partial(TiltConfig(0.0, 1.0, None).at_horizon, ModelParams(1.0, 1.0, 1e300), 1e10),
     InputError, "T", "expects inf catastrophes"),
    (partial(sample_terminal_states, P111, 4.0, 10, 1, "jump-chain"), ValueError, None, "unknown construction"),
    (partial(sample_terminal_states, P111, math.inf, 10, 1), ValueError, None, "horizon T must be finite"),
    (partial(sample_terminal_states, P111, 4.0, 0, 1), ValueError, None, "replica count n must be >= 1"),
    (partial(collect_weighted_paths, P111, 4.0, 0.5, TiltConfig(), 10, 1, grid_size=0),
     ValueError, None, "grid_size must be >= 1"),
    (partial(rate_curve_sweep, P111, math.inf, [4.0], "naive", 10, 1), ValueError, None, "x must be finite"),
    (partial(replica_rng, 0, -1), ValueError, None, "replica_index must be nonnegative"),
    (partial(catastrophe_lower_tail_bound, 0.1, 4.0, P111, window_start=1.5),
     ValueError, None, "window_start must lie in"),
    (partial(exact_state_distribution, P111, -1.0, 8, 8), ValueError, None, "T must be finite and nonnegative"),
    (partial(exact_state_distribution, P111, 4.0, 8, -1), ValueError, None, "event cap K must be >= 0"),
    (partial(exact_state_distribution, P111, 4.0, 0, 8), ValueError, None, "state cap M must be >= 1"),
    (partial(chain_matrix, P111, 0), ValueError, None, "state cap M must be >= 1"),
    (partial(uniform_sum_tail_exact, 0, 3, 2.0), ValueError, None, "m must be >= 1"),
    (partial(uniform_sum_tail_exact, 3, -1, 2.0), ValueError, None, "n must be >= 0"),
    (partial(poisson_lower_tail_exact, 0.0, 1), ValueError, None, "rate must be > 0"),
], ids=[
    "tilt-horizon", "sample-construction", "sample-T", "sample-n", "paths-grid", "sweep-x", "replica-index",
    "bound-window", "exact-T", "exact-K", "exact-M", "chain-M", "uniform-m", "uniform-n", "poisson-rate",
])
def test_library_refuses_with_its_error_type_and_field(call, error, field, match):
    with pytest.raises(ValueError, match=match) as refused:
        call()
    # an InputError names its input; the other refusals are plain ValueErrors
    assert type(refused.value) is error
    if error is InputError:
        assert refused.value.field == field
