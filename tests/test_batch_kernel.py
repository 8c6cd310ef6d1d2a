"""The batched gate kernel and adjoint sweep against the dense oracle, on
random circuits."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lcqnn import sim  # noqa: E402
from lcqnn.sim import adjoint_gradient, apply_gates  # noqa: E402
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
    # equals bit for bit that row alone as a one-row stack and the stack run
    # in one-row runs, so that batching branches or control values cannot
    # move a value
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
        alone = apply_gates(states[b].reshape((1,) + (2,) * n), gates, rows[b : b + 1])
        assert np.array_equal(out[b], alone[0])
    np.testing.assert_array_equal(states, before)  # input left as it was
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "BATCH_AMPLITUDES", 1 << n)
        split = apply_gates(states.reshape((batch,) + (2,) * n), gates, rows)
    assert np.array_equal(split, out) and split.flags.c_contiguous
    # a leading batch axis of size 1 in the parameters shares their angles
    # along that axis of the tensor (examples under shared branch angles)
    tensor = states.reshape((batch,) + (2,) * n)
    grid = apply_gates(np.stack([tensor, tensor]), gates, rows[None])
    assert np.array_equal(grid[0], out) and np.array_equal(grid[1], out)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    batch=st.integers(1, 4),
)
def test_batched_adjoint_gradient_matches_dense_oracle(seed, n, batch):
    # each row carries its own input, angles and real diagonal; its value
    # and gradient match the dense oracle and central differences, and equal
    # bit for bit the same row as a one-row stack or in one-row runs
    rng = np.random.default_rng(seed)
    gates, params = _random_circuit(n, rng, max_gates=8)
    rows = rng.uniform(0, 2 * math.pi, (batch, len(params)))
    states = np.stack([random_state(n, rng).amps for _ in range(batch)])
    diags = rng.standard_normal((batch, 1 << n))
    psi = apply_gates(states.reshape((batch,) + (2,) * n), gates, rows)
    values, grads = adjoint_gradient(psi, gates, rows, diags)
    assert values.shape == (batch,) and grads.shape == rows.shape

    def oracle(b, angles):
        out = dense_circuit(gates, angles, n) @ states[b]
        return float(np.real(np.vdot(out, diags[b] * out)))

    used = {slot for op in gates for slot in op.param_slots}
    h = 1e-6
    for b in range(batch):
        assert abs(values[b] - oracle(b, rows[b])) <= 1e-12
        for slot in range(len(params)):
            if slot not in used:
                assert grads[b, slot] == 0.0
                continue
            up, down = rows[b].copy(), rows[b].copy()
            up[slot] += h
            down[slot] -= h
            fd = (oracle(b, up) - oracle(b, down)) / (2 * h)
            assert abs(grads[b, slot] - fd) <= 1e-7
        value, grad = adjoint_gradient(
            psi[b : b + 1], gates, rows[b : b + 1], diags[b : b + 1]
        )
        assert value[0] == values[b]
        assert np.array_equal(grad[0], grads[b])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "BATCH_AMPLITUDES", 1 << n)
        split = adjoint_gradient(psi, gates, rows, diags)
    assert np.array_equal(split[0], values) and np.array_equal(split[1], grads)
    # two batch axes, the angles shared along the first and each row's
    # diagonal broadcast along it
    grid_values, grid_grads = adjoint_gradient(np.stack([psi, psi]), gates, rows[None], diags)
    assert grid_values.shape == (2, batch) and grid_grads.shape == (2,) + rows.shape
    for i in range(2):
        assert np.array_equal(grid_values[i], values) and np.array_equal(grid_grads[i], grads)
