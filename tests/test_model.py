"""Coefficient tree, branch blocks, full-circuit forward pass and cost."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    dense_circuit,
    dense_controlled,
    dense_observable,
    dense_tree,
    random_state,
)

from lcqnn import model as model_module
from lcqnn import sim
from lcqnn.errors import ArchitectureError, CapacityError, LcqnnError
from lcqnn.model import (
    branch_angles,
    branch_gates,
    coeff_probabilities,
    coeff_probability_gradients,
    cost,
    costs,
    default_groups,
    entangling_gates,
    forward_states,
    lcqnn_forward,
    light_cone,
    make_model,
    theta_layout_size,
    tree_angles,
    tree_node,
)
from lcqnn.sim import GateOp, PauliZSum, StateVector, cnot, expectation, init_zero, u3

# ---------------------------------------------------------------------------
# coefficient tree


def test_coefficient_layer_validation():
    with pytest.raises(ArchitectureError, match="power of two"):
        make_model(2, 2, 3, 1, 1)
    with pytest.raises(ArchitectureError, match="does not fit 1 control"):
        make_model(1, 2, 4, 1, 1)
    with pytest.raises(ArchitectureError, match="non-negative"):
        make_model(-1, 2, 1, 1, 1)
    with pytest.raises(ArchitectureError, match="expected 3 tree angles for 4 branches, got 1"):
        tree_angles(make_model(2, 2, 4, 1, 1), [0.1])
    for bad in ([0.1, 0.2], np.zeros(4)):  # no binary tree has 2 or 4 internal nodes
        with pytest.raises(ArchitectureError, match="do not fill a binary tree"):
            coeff_probabilities(bad)
        with pytest.raises(ArchitectureError, match="do not fill a binary tree"):
            coeff_probability_gradients(bad)


def test_coeff_probabilities_closed_form():
    np.testing.assert_allclose(coeff_probabilities([math.pi / 4]), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(coeff_probabilities([0.0]), [1.0, 0.0], atol=1e-15)

    # two-level tree: root angle then the two level-1 angles, leaf j follows
    # its bit path with cos^2 on 0 and sin^2 on 1.
    a0, a1, a2 = 0.3, 0.7, 1.1
    c, s = np.cos, np.sin
    expected = [
        c(a0) ** 2 * c(a1) ** 2,
        c(a0) ** 2 * s(a1) ** 2,
        s(a0) ** 2 * c(a2) ** 2,
        s(a0) ** 2 * s(a2) ** 2,
    ]
    np.testing.assert_allclose(coeff_probabilities([a0, a1, a2]), expected, atol=1e-15)

    assert coeff_probabilities(np.empty(0)).tolist() == [1.0]


def test_coeff_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        L = 1 << int(rng.integers(0, 5))
        alpha = rng.uniform(0, 2 * math.pi, L - 1)
        assert coeff_probabilities(alpha).sum() == pytest.approx(1.0, abs=1e-12)


def test_coeff_probabilities_equal_level_by_level_products():
    # every row of every report depends on these bits: each leaf's product
    # runs root first, as a tree grown one level at a time multiplies it
    rng = np.random.default_rng(41)
    for t in range(6):
        alpha = rng.uniform(0, 2 * math.pi, (3, (1 << t) - 1))
        probs = np.ones((3, 1))
        for level in range(t):
            angles = alpha[:, tree_node(level) : tree_node(level + 1)]
            grown = np.empty((3, 2 << level))
            grown[:, 0::2] = probs * np.cos(angles) ** 2
            grown[:, 1::2] = probs * np.sin(angles) ** 2
            probs = grown
        assert np.array_equal(coeff_probabilities(alpha), probs)


def test_coeff_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    h = 1e-6
    for L in (2, 4, 8, 16):
        alpha = rng.uniform(0, 2 * math.pi, L - 1)
        jac = coeff_probability_gradients(alpha)
        assert jac.shape == (L - 1, L)
        np.testing.assert_allclose(jac.sum(axis=1), 0.0, atol=1e-12)
        for node in range(L - 1):
            up, dn = alpha.copy(), alpha.copy()
            up[node] += h
            dn[node] -= h
            fd = (coeff_probabilities(up) - coeff_probabilities(dn)) / (2 * h)
            np.testing.assert_allclose(jac[node], fd, atol=1e-8)


def test_coeff_batched_matches_per_row_loop():
    # a leading batch axis evaluates each row exactly as a lone call would;
    # L = 1 is the zero-size tree
    rng = np.random.default_rng(37)
    for L in (1, 2, 4, 8, 16):
        alpha = rng.uniform(0, 2 * math.pi, (2, 5, L - 1))
        probs = coeff_probabilities(alpha)
        jac = coeff_probability_gradients(alpha)
        assert probs.shape == (2, 5, L) and jac.shape == (2, 5, L - 1, L)
        for index in np.ndindex(2, 5):
            np.testing.assert_allclose(
                probs[index], coeff_probabilities(alpha[index]), rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                jac[index], coeff_probability_gradients(alpha[index]), rtol=0, atol=1e-12
            )


def test_tree_node_numbers_levels_in_order():
    nodes = [tree_node(level, q) for level in range(4) for q in range(1 << level)]
    assert nodes == list(range(15))
    assert tree_node(2) == 3  # first node of level 2, prefix defaults to 0


# ---------------------------------------------------------------------------
# branch blocks and parameter layout


def test_entangling_gates_structure():
    assert entangling_gates((0, 1, 2), 1) == [
        u3(0, 0, 1, 2),
        u3(1, 3, 4, 5),
        u3(2, 6, 7, 8),
        cnot(0, 1),
        cnot(1, 2),
        cnot(2, 0),
    ]
    # two qubits: the ring is forward then back
    assert entangling_gates((4, 5), 1, slot_base=6)[-2:] == [cnot(4, 5), cnot(5, 4)]
    # a single-qubit group has rotations only
    assert entangling_gates((2,), 2) == [u3(2, 0, 1, 2), u3(2, 3, 4, 5)]
    assert entangling_gates((0, 1), 0) == []


def test_default_groups():
    assert default_groups(6, 5) == ((0, 1, 2, 3, 4), (5,))
    assert default_groups(4, 2) == ((0, 1), (2, 3))
    assert default_groups(3, 7) == ((0, 1, 2),)
    assert default_groups(1, 1) == ((0,),)
    with pytest.raises(ArchitectureError):
        default_groups(4, 0)


def test_make_model_validation():
    with pytest.raises(ArchitectureError):
        make_model(2, 4, 3, 2, 1)  # branch count not a power of two
    with pytest.raises(ArchitectureError):
        make_model(1, 4, 4, 2, 1)  # too many branches for one control qubit
    with pytest.raises(ArchitectureError):
        make_model(2, 0, 4, 2, 1)
    with pytest.raises(ArchitectureError):
        make_model(2, 4, 4, 2, -1)


def test_theta_layout_size_examples():
    assert theta_layout_size(make_model(2, 4, 4, 2, 8)) == 384
    assert theta_layout_size(make_model(3, 6, 8, 5, 3)) == 432
    assert theta_layout_size(make_model(0, 1, 1, 1, 1)) == 3
    assert theta_layout_size(make_model(2, 3, 4, 3, 0)) == 0


def test_branch_angles_rows_are_branch_blocks():
    model = make_model(2, 5, 4, 2, 2)
    theta = np.arange(theta_layout_size(model), dtype=np.float64)
    blocks = branch_angles(model, theta)
    assert blocks.shape == (model.branch_count, model.branch_param_count)
    assert np.shares_memory(blocks, theta)
    stride = model.branch_param_count
    for j in range(model.branch_count):
        assert blocks[j, 0] == j * stride
        assert blocks[j, -1] == j * stride + stride - 1
    assert branch_angles(model, list(theta)).tolist() == blocks.tolist()
    with pytest.raises(LcqnnError, match="branch angle"):
        branch_angles(model, theta[:-1])
    assert branch_angles(make_model(1, 2, 2, 2, 0), []).shape == (2, 0)


def test_branch_gate_list_layout():
    model = make_model(1, 2, 2, 2, 1)
    assert list(branch_gates(model)) == [
        u3(0, 0, 1, 2),
        u3(1, 3, 4, 5),
        cnot(0, 1),
        cnot(1, 0),
    ]


# ---------------------------------------------------------------------------
# forward pass


def test_forward_zero_angles_places_blocks():
    # with all branch angles zero the working register stays |0..0> and the
    # state is sum_j sqrt(p_j) |j 0 ... 0>; block j starts at j * 2^(m-t+n).
    model = make_model(2, 2, 2, 2, 1)  # t=1, one idle control qubit
    alpha = [0.9]
    out = lcqnn_forward(model, alpha, np.zeros(theta_layout_size(model)))
    expected = np.zeros(16, dtype=complex)
    expected[0] = math.cos(0.9)
    expected[8] = math.sin(0.9)
    np.testing.assert_allclose(out.amps, expected, atol=1e-12)


def _dense_forward(model, alpha, theta, state_in):
    """The forward state from dense matrices: the tree, then each branch
    controlled on the tree qubits reading its index."""
    m, n = model.num_controls, model.num_working
    total = m + n
    vec = np.zeros(1 << total, dtype=complex)
    vec[: 1 << n] = state_in.amps
    vec = dense_tree(alpha, total) @ vec
    shifted = [
        GateOp(g.kind, tuple(q + m for q in g.qubits), g.param_slots)
        for g in branch_gates(model)
    ]
    stride = model.branch_param_count
    tree = tuple(range(model.tree_depth))
    for j in range(model.branch_count):
        branch = dense_circuit(shifted, theta[j * stride : (j + 1) * stride], total)
        vec = dense_controlled(tree, j, branch, total) @ vec
    return vec


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(41)
    cases = [
        (1, 2, 2, 2, 1),
        (2, 2, 4, 1, 1),
        (3, 2, 4, 2, 2),
        (2, 3, 2, 2, 1),
        (0, 2, 1, 2, 2),
    ]
    for m, n, L, k, D in cases:
        model = make_model(m, n, L, k, D)
        alpha = rng.uniform(0, 2 * math.pi, L - 1)
        theta = rng.uniform(0, 2 * math.pi, theta_layout_size(model))
        state_in = random_state(n, rng)
        out = lcqnn_forward(model, alpha, theta, state_in)
        np.testing.assert_allclose(
            out.amps, _dense_forward(model, alpha, theta, state_in), atol=1e-10
        )


# m=0 and L=1; idle controls (L < 2**m), one of them with L=1; every control used
@pytest.mark.parametrize(
    "shape",
    [(0, 2, 1, 2, 2), (2, 2, 2, 1, 1), (3, 2, 4, 2, 2), (2, 1, 1, 1, 2), (1, 3, 2, 2, 1)],
)
def test_batched_forward_and_cost_rows_equal_single_rows_and_dense_oracle(shape):
    model = make_model(*shape)
    m, n = model.num_controls, model.num_working
    rng = np.random.default_rng(sum(shape))
    batch = 3
    alphas = rng.uniform(0, 2 * math.pi, (batch, model.num_alpha))
    thetas = rng.uniform(0, 2 * math.pi, (batch, theta_layout_size(model)))
    obs = PauliZSum([(1.0, (n - 1,)), (-0.4, tuple(range(n))), (0.3, ())], num_qubits=n)
    observable = dense_observable(obs, m + n)
    for state_in in (None, random_state(n, rng)):
        out = lcqnn_forward(model, alphas, thetas, state_in)
        values = cost(model, alphas, thetas, obs, state_in)
        assert out.amps.shape == (batch, 1 << (m + n))
        assert values.shape == (batch,)
        dense_in = state_in or init_zero(n)
        for b in range(batch):
            single = lcqnn_forward(model, alphas[b], thetas[b], state_in)
            assert out.amps[b].tolist() == single.amps.tolist()
            assert values[b] == cost(model, alphas[b], thetas[b], obs, state_in)
            vec = _dense_forward(model, alphas[b], thetas[b], dense_in)
            np.testing.assert_allclose(out.amps[b], vec, rtol=0, atol=1e-12)
            assert abs(values[b] - (vec.conj() @ observable @ vec).real) <= 1e-12
    with pytest.raises(LcqnnError, match="batch"):
        lcqnn_forward(model, alphas[:2], thetas)
    # a batch of states reads out in one call, each row as its own call would
    batched = expectation(out, obs)
    grid = expectation(StateVector(m + n, out.amps.reshape(1, batch, -1)), obs)
    assert batched.shape == (batch,) and grid.shape == (1, batch)
    assert grid[0].tolist() == batched.tolist()
    for b in range(batch):
        assert batched[b] == expectation(StateVector(m + n, out.amps[b]), obs)
        dense = (out.amps[b].conj() @ observable @ out.amps[b]).real
        assert abs(batched[b] - dense) <= 1e-12


@pytest.mark.parametrize("shape", [(0, 2, 1, 2, 0), (2, 3, 4, 2, 1)])
def test_empty_batch_gives_empty_costs_and_states(shape):
    # zero parameter rows give zero values of the batch's shape, as every
    # non-empty batch does, whether or not the model has parameters
    model = make_model(*shape)
    n, L = model.num_working, model.branch_count
    obs = PauliZSum([(1.0, (0,))], num_qubits=n)
    for batch in ((0,), (2, 0)):
        alpha = np.zeros(batch + (model.num_alpha,))
        theta = np.zeros(batch + (theta_layout_size(model),))
        values = cost(model, alpha, theta, obs)
        assert values.shape == batch and values.dtype == np.float64
        live, = forward_states([(model, alpha, theta)])
        assert live.amps.shape == batch + (L << n,)
        assert lcqnn_forward(model, alpha, theta).amps.shape == batch + (1 << (n + shape[0]),)


def test_idle_control_qubits_cost_nothing():
    # the LCU state sum_j sqrt(p_j) |j> (x) U_j |in> lives on the leaf rows
    # j << idle of the control register: every other row is exactly 0, so
    # control qubits beyond the tree's t change no cost, not even by an ulp
    rng = np.random.default_rng(61)
    for _ in range(12):
        n, t = int(rng.integers(1, 5)), int(rng.integers(0, 3))
        k, D, L = int(rng.integers(1, n + 1)), int(rng.integers(0, 3)), 1 << t
        obs = PauliZSum(
            [(1.0, (int(rng.integers(n)),)), (-0.4, tuple(range(n))), (0.3, ())], num_qubits=n
        )
        base = make_model(t, n, L, k, D)
        alpha = rng.uniform(0, 2 * math.pi, (2, L - 1))
        theta = rng.uniform(0, 2 * math.pi, (2, theta_layout_size(base)))
        state_in = random_state(n, rng)
        values = cost(base, alpha, theta, obs, state_in)
        for m in range(t + 1, 4):
            model = make_model(m, n, L, k, D)
            rows = lcqnn_forward(model, alpha, theta, state_in).amps.reshape(2, 1 << m, 1 << n)
            idle = np.ones(1 << m, dtype=bool)
            idle[:: 1 << (m - t)] = False
            assert np.all(rows[:, idle] == 0)
            assert cost(model, alpha, theta, obs, state_in).tolist() == values.tolist()


@pytest.mark.parametrize("run", [
    lcqnn_forward,
    lambda model, alpha, theta: cost(model, alpha, theta, PauliZSum([(1.0, (0,))], 13)),
], ids=["lcqnn_forward", "cost"])
def test_too_wide_model_fails_sims_width_check_before_allocating(run):
    # 12 controls + 13 working qubits: the forward pass keeps no width rule
    # of its own, so sim's check and message fire before the 2**25 amplitudes
    # (512 MB) of the full register, or even the 2**14 leaf rows, exist
    model = make_model(12, 13, 2, 13, 1)
    alpha, theta = np.zeros(model.num_alpha), np.zeros(theta_layout_size(model))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as exc:
            run(model, alpha, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "num_qubits=25 exceeds the supported maximum of 24"
    assert peak < 64 << 10, f"peak {peak} bytes"


def test_forward_states_hold_only_the_live_rows():
    # a part's live state is the 2**t leaf rows of its control register, on
    # t + n qubits and in C order: lcqnn_forward pads exactly these rows to
    # rows j << (m - t) of the full register, and costs reads every part of
    # one branch pass as that part's own cost
    rng = np.random.default_rng(67)
    for _ in range(6):
        n = int(rng.integers(1, 5))
        k, D = int(rng.integers(1, n + 1)), int(rng.integers(0, 3))
        obs = PauliZSum(
            [(1.0, (int(rng.integers(n)),)), (-0.4, tuple(range(n))), (0.3, ())], num_qubits=n
        )
        state_in = random_state(n, rng)
        parts = []
        for m in range(4):
            for t in range(m + 1):
                model = make_model(m, n, 1 << t, k, D)
                alpha = rng.uniform(0, 2 * math.pi, (3, model.num_alpha))
                theta = rng.uniform(0, 2 * math.pi, (3, theta_layout_size(model)))
                parts.append((model, alpha, theta))
        values = costs(parts, obs, state_in)
        for (model, alpha, theta), state, value in zip(
            parts, forward_states(parts, state_in), values
        ):
            m, t = model.num_controls, model.tree_depth
            assert state.num_qubits == t + n
            assert state.amps.shape == (3, 1 << (t + n))
            assert state.amps.flags.c_contiguous
            full = lcqnn_forward(model, alpha, theta, state_in).amps
            leaves = full.reshape(3, 1 << m, 1 << n)[:, :: 1 << (m - t)]
            assert state.amps.tobytes() == np.ascontiguousarray(leaves).tobytes()
            assert value.tolist() == cost(model, alpha, theta, obs, state_in).tolist()


def test_cost_pass_makes_one_kernel_call_under_any_budget(monkeypatch):
    # the kernel splits a branch pass into runs itself: at a budget of one
    # amplitude every run holds one of the 20 rows, and the pass is still one
    # call that gives the same values
    rng = np.random.default_rng(71)
    model = make_model(2, 3, 4, 2, 2)
    obs = PauliZSum([(1.0, (0,)), (-0.4, (1, 2))], num_qubits=3)
    alpha = rng.uniform(0, 2 * math.pi, (5, model.num_alpha))
    theta = rng.uniform(0, 2 * math.pi, (5, theta_layout_size(model)))
    reference = cost(model, alpha, theta, obs)
    kernel, rows = model_module.apply_gates, []

    def counting_kernel(tensor, *args):
        rows.append(len(tensor))
        return kernel(tensor, *args)

    monkeypatch.setattr(model_module, "apply_gates", counting_kernel)
    monkeypatch.setattr(sim, "BATCH_AMPLITUDES", 1)
    assert cost(model, alpha, theta, obs).tolist() == reference.tolist()
    assert rows == [5 * 4]


def test_forward_block_norms_match_coefficients():
    rng = np.random.default_rng(43)
    for m, n, L, k, D in [(2, 2, 4, 2, 1), (3, 2, 4, 2, 2), (3, 1, 8, 1, 1)]:
        model = make_model(m, n, L, k, D)
        alpha = rng.uniform(0, 2 * math.pi, L - 1)
        theta = rng.uniform(0, 2 * math.pi, theta_layout_size(model))
        out = lcqnn_forward(model, alpha, theta)
        idle = m - model.tree_depth
        blocks = out.amps.reshape(1 << m, 1 << n)[:: 1 << idle]
        np.testing.assert_allclose(
            np.sum(np.abs(blocks) ** 2, axis=1), coeff_probabilities(alpha), atol=1e-12
        )
        # nothing leaks outside the branch blocks
        mask = np.ones(out.amps.size, dtype=bool)
        for j in range(L):
            start = (j << idle) << n
            mask[start : start + (1 << n)] = False
        assert np.all(out.amps[mask] == 0)


def test_forward_branch_locality():
    # branch parameters only touch their own block of the state.
    model = make_model(2, 2, 4, 2, 1)
    rng = np.random.default_rng(47)
    alpha = rng.uniform(0, 2 * math.pi, 3)
    theta = rng.uniform(0, 2 * math.pi, theta_layout_size(model))
    base = lcqnn_forward(model, alpha, theta).amps
    bumped = theta.copy()
    stride = model.branch_param_count
    bumped[2 * stride : 3 * stride] += 0.4
    out = lcqnn_forward(model, alpha, bumped).amps
    blocks = base.reshape(4, 4), out.reshape(4, 4)
    for j in (0, 1, 3):
        assert np.array_equal(blocks[0][j], blocks[1][j])
    assert not np.allclose(blocks[0][2], blocks[1][2])


def test_forward_degenerate_single_branch():
    # L=1, m=0 is a plain layered circuit on the working register.
    model = make_model(0, 2, 1, 2, 2)
    rng = np.random.default_rng(53)
    theta = rng.uniform(0, 2 * math.pi, theta_layout_size(model))
    state_in = random_state(2, rng)
    out = lcqnn_forward(model, [], theta, state_in)

    from lcqnn.sim import apply_gate

    manual = state_in
    for g in branch_gates(model):
        manual = apply_gate(manual, g, theta)
    np.testing.assert_allclose(out.amps, manual.amps, atol=1e-12)


def test_forward_tree_stage_matches_dense_tree():
    # at depth 0 every branch is the identity, so the forward state is the
    # tree's on |0...0> controls times the input: the closed-form tree stage
    # against the dense RY tree, idle controls (L < 2**m) included
    rng = np.random.default_rng(31)
    for m in range(4):
        for t in range(m + 1):
            for n in (1, 2, 3):
                model = make_model(m, n, 1 << t, 1, 0)
                alphas = rng.uniform(0, 2 * math.pi, (5, model.num_alpha))
                state_in = random_state(n, rng)
                out = lcqnn_forward(model, alphas, np.zeros((5, 0)), state_in)
                assert out.amps.shape == (5, 1 << (m + n))
                for alpha, amps in zip(alphas, out.amps):
                    expected = np.kron(dense_tree(alpha, m)[:, 0], state_in.amps)
                    np.testing.assert_allclose(amps, expected, rtol=0, atol=1e-15)


def test_forward_depth_zero_is_coefficient_layer_only():
    model = make_model(2, 1, 4, 1, 0)
    alpha = [0.3, 0.7, 1.1]
    out = lcqnn_forward(model, alpha, [])
    probs = coeff_probabilities(alpha)
    np.testing.assert_allclose(
        np.abs(out.amps[0::2]) ** 2, probs, atol=1e-12
    )
    assert np.all(out.amps[1::2] == 0)


def test_forward_validation():
    model = make_model(1, 2, 2, 2, 1)
    size = theta_layout_size(model)
    with pytest.raises(LcqnnError):
        lcqnn_forward(model, [0.1, 0.2], np.zeros(size))
    with pytest.raises(LcqnnError):
        lcqnn_forward(model, [0.1], np.zeros(size - 1))
    with pytest.raises(LcqnnError):
        lcqnn_forward(model, [0.1], np.zeros(size), input_state=init_zero(3))


# ---------------------------------------------------------------------------
# cost


def test_cost_zero_angles_is_one_for_z():
    model = make_model(2, 3, 4, 2, 2)
    rng = np.random.default_rng(59)
    alpha = rng.uniform(0, 2 * math.pi, 3)
    obs = PauliZSum([(1.0, (0,))], num_qubits=3)
    value = cost(model, alpha, np.zeros(theta_layout_size(model)), obs)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_cost_equals_branch_mixture():
    # the light-cone branch expectations, mixed by the tree, give the
    # full-register cost; the cone keeps only the groups the terms meet
    rng = np.random.default_rng(61)
    cases = [
        (make_model(2, 2, 4, 2, 2), [(1.0, (0,)), (0.5, (0, 1))], 2),
        (make_model(2, 5, 4, 2, 1), [(1.0, (1,)), (-0.4, (1, 4)), (0.3, ())], 3),
        (make_model(1, 4, 2, 3, 2), [(0.7, ())], 0),
    ]
    for model, terms, width in cases:
        obs = PauliZSum(terms, num_qubits=model.num_working)
        cone = light_cone(model, obs)
        assert cone.num_qubits == width
        assert light_cone(model, obs) is cone
        alpha = rng.uniform(0, 2 * math.pi, model.num_alpha)
        theta = rng.uniform(0, 2 * math.pi, theta_layout_size(model))
        direct = cost(model, alpha, theta, obs)
        p = coeff_probabilities(alpha)
        e = cone.expectations(sim.rotation_entries(branch_angles(model, theta)[..., cone.columns]))
        assert direct == pytest.approx(float(p @ e), abs=1e-12)


def test_cost_ignores_dead_branch():
    # alpha=0 sends all weight to branch 0; branch 1 angles are irrelevant.
    model = make_model(1, 1, 2, 1, 1)
    obs = PauliZSum([(1.0, (0,))], num_qubits=1)
    theta_a = np.array([0.3, 0.1, -0.2, 1.0, 2.0, 3.0])
    theta_b = theta_a.copy()
    theta_b[3:] = [-1.0, 0.5, 0.9]
    a = cost(model, [0.0], theta_a, obs)
    b = cost(model, [0.0], theta_b, obs)
    assert abs(a - b) < 1e-15


def test_cost_observable_scope():
    model = make_model(1, 2, 2, 2, 1)
    with pytest.raises(LcqnnError):
        cost(
            model,
            [0.1],
            np.zeros(theta_layout_size(model)),
            PauliZSum([(1.0, (0,))], num_qubits=1),
        )


def test_expressivity_reaches_target_superposition():
    # m=1, n=1: pick branch states and weights, solve the angles analytically,
    # and check the forward state hits the target superposition.
    model = make_model(1, 1, 2, 1, 1)
    p0 = 0.3
    alpha = [math.acos(math.sqrt(p0))]
    th0, ph0 = 1.1, 0.6
    th1, ph1 = 2.0, -0.9
    theta = [th0, ph0, 0.0, th1, ph1, 0.0]
    out = lcqnn_forward(model, alpha, theta)

    def bloch(th, ph):
        return np.array([math.cos(th / 2), np.exp(1j * ph) * math.sin(th / 2)])

    target = np.concatenate(
        [math.sqrt(p0) * bloch(th0, ph0), math.sqrt(1 - p0) * bloch(th1, ph1)]
    )
    fidelity = abs(np.vdot(target, out.amps)) ** 2
    assert fidelity >= 1 - 1e-9
