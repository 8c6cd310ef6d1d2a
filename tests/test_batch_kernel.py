"""The batched gate kernel against the dense oracle, on random circuits."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lcqnn.sim import apply_gates  # noqa: E402
from oracles import dense_circuit, random_state  # noqa: E402
from test_sim import _random_circuit  # noqa: E402


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    batch=st.integers(1, 5),
)
def test_batched_apply_gates_matches_dense_oracle(seed, n, batch):
    # every row of a batch is its own circuit evaluation: row b binds its
    # angles from params[b], matches the dense oracle on its own state, and
    # equals bit for bit the unbatched call on that row, so that batching
    # branches or control values cannot move a value
    rng = np.random.default_rng(seed)
    gates, params = _random_circuit(n, rng, max_gates=8)
    rows = rng.uniform(0, 2 * math.pi, (batch, len(params)))
    states = np.stack([random_state(n, rng).amps for _ in range(batch)])
    before = states.copy()
    out = apply_gates(states.reshape((batch,) + (2,) * n), gates, rows)
    assert out.shape == (batch,) + (2,) * n
    for b in range(batch):
        expected = dense_circuit(gates, rows[b], n) @ states[b]
        np.testing.assert_allclose(out[b].reshape(-1), expected, rtol=0, atol=1e-12)
        alone = apply_gates(states[b].reshape((2,) * n), gates, rows[b])
        assert np.array_equal(out[b], alone)
    np.testing.assert_array_equal(states, before)  # input left as it was
