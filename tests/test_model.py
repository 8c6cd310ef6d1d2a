"""Coefficient tree, branch blocks, full-circuit forward pass and cost."""

import math

import numpy as np
import pytest

from oracles import dense_controlled, random_state

from lcqnn.errors import ArchitectureError, LcqnnError
from lcqnn.model import (
    CoefficientLayer,
    apply_coefficient_layer,
    branch_angles,
    branch_block_probabilities,
    branch_expectations,
    branch_gates,
    build_coefficient_circuit,
    coeff_probabilities,
    coeff_probability_gradients,
    cost,
    default_groups,
    entangling_gates,
    lcqnn_forward,
    make_model,
    model_from_dict,
    model_to_dict,
    theta_index,
    theta_layout_size,
    tree_node,
)
from lcqnn.sim import GateOp, PauliZSum, cnot, init_zero, ry, u3

# ---------------------------------------------------------------------------
# coefficient tree


def test_coefficient_layer_validation():
    with pytest.raises(ArchitectureError):
        CoefficientLayer(2, 3, (0.1, 0.2))  # not a power of two
    with pytest.raises(ArchitectureError):
        CoefficientLayer(1, 4, (0.1, 0.2, 0.3))  # does not fit one control qubit
    with pytest.raises(ArchitectureError):
        CoefficientLayer(2, 4, (0.1,))  # wrong angle count
    with pytest.raises(ArchitectureError):
        CoefficientLayer(-1, 1, ())


def test_coeff_probabilities_closed_form():
    layer = CoefficientLayer(1, 2, (math.pi / 4,))
    np.testing.assert_allclose(coeff_probabilities(layer), [0.5, 0.5], atol=1e-15)

    np.testing.assert_allclose(
        coeff_probabilities(CoefficientLayer(1, 2, (0.0,))), [1.0, 0.0], atol=1e-15
    )

    # two-level tree: root angle then the two level-1 angles, leaf j follows
    # its bit path with cos^2 on 0 and sin^2 on 1.
    a0, a1, a2 = 0.3, 0.7, 1.1
    layer = CoefficientLayer(2, 4, (a0, a1, a2))
    c, s = np.cos, np.sin
    expected = [
        c(a0) ** 2 * c(a1) ** 2,
        c(a0) ** 2 * s(a1) ** 2,
        s(a0) ** 2 * c(a2) ** 2,
        s(a0) ** 2 * s(a2) ** 2,
    ]
    np.testing.assert_allclose(coeff_probabilities(layer), expected, atol=1e-15)

    assert coeff_probabilities(CoefficientLayer(0, 1, ())).tolist() == [1.0]


def test_coeff_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        L = 1 << int(rng.integers(0, m + 1))
        layer = CoefficientLayer(m, L, tuple(rng.uniform(0, 2 * math.pi, L - 1)))
        assert coeff_probabilities(layer).sum() == pytest.approx(1.0, abs=1e-12)


def test_coeff_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    h = 1e-6
    for m, L in [(1, 2), (2, 4), (3, 8), (4, 16)]:
        alpha = rng.uniform(0, 2 * math.pi, L - 1)
        jac = coeff_probability_gradients(CoefficientLayer(m, L, tuple(alpha)))
        assert jac.shape == (L - 1, L)
        np.testing.assert_allclose(jac.sum(axis=1), 0.0, atol=1e-12)
        for node in range(L - 1):
            up, dn = alpha.copy(), alpha.copy()
            up[node] += h
            dn[node] -= h
            fd = (
                coeff_probabilities(CoefficientLayer(m, L, tuple(up)))
                - coeff_probabilities(CoefficientLayer(m, L, tuple(dn)))
            ) / (2 * h)
            np.testing.assert_allclose(jac[node], fd, atol=1e-8)


def test_coefficient_circuit_structure():
    blocks = build_coefficient_circuit(CoefficientLayer(2, 4, (0.1, 0.2, 0.3)))
    assert len(blocks) == 3
    assert blocks[0].controls == () and blocks[0].value == 0
    assert blocks[0].gates == (ry(0, 0),)
    assert blocks[1].controls == (0,) and blocks[1].value == 0
    assert blocks[1].gates == (ry(1, 1),)
    assert blocks[2].controls == (0,) and blocks[2].value == 1
    assert blocks[2].gates == (ry(1, 2),)
    assert build_coefficient_circuit(CoefficientLayer(3, 1, ())) == []


def test_tree_node_numbers_levels_in_order():
    nodes = [tree_node(level, q) for level in range(4) for q in range(1 << level)]
    assert nodes == list(range(15))
    assert tree_node(2) == 3  # first node of level 2, prefix defaults to 0
    slots = [
        block.gates[0].param_slots[0]
        for block in build_coefficient_circuit(CoefficientLayer(3, 8, (0.0,) * 7))
    ]
    assert slots == nodes[:7]


def test_apply_coefficient_layer_amplitudes():
    # one control qubit: amplitudes are cos(a), sin(a) directly.
    a = math.pi / 3
    out = apply_coefficient_layer(init_zero(1), CoefficientLayer(1, 2, (a,)))
    np.testing.assert_allclose(out.amps, [0.5, math.sqrt(3) / 2], atol=1e-12)

    # an idle control qubit stays |0>: the branch blocks land on |00>, |10>.
    out = apply_coefficient_layer(init_zero(2), CoefficientLayer(2, 2, (math.pi / 4,)))
    r = math.sqrt(0.5)
    np.testing.assert_allclose(out.amps, [r, 0, r, 0], atol=1e-12)


def test_coefficient_circuit_matches_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        L = 1 << int(rng.integers(1, m + 1))
        layer = CoefficientLayer(m, L, tuple(rng.uniform(0, 2 * math.pi, L - 1)))
        out = apply_coefficient_layer(init_zero(m), layer)
        idle = m - layer.tree_depth
        sim_probs = np.abs(out.amps[:: 1 << idle] if idle else out.amps) ** 2
        np.testing.assert_allclose(sim_probs, coeff_probabilities(layer), atol=1e-12)


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
    with pytest.raises(ArchitectureError):
        make_model(2, 4, 4, 2, 1, groups=[(0, 1), (1, 2, 3)])
    with pytest.raises(ArchitectureError):
        make_model(2, 4, 4, 2, 1, groups=[(0, 1)])


def test_theta_layout_size_examples():
    assert theta_layout_size(make_model(2, 4, 4, 2, 8)) == 384
    assert theta_layout_size(make_model(3, 6, 8, 5, 3)) == 432
    assert theta_layout_size(make_model(0, 1, 1, 1, 1)) == 3
    assert theta_layout_size(make_model(2, 3, 4, 3, 0)) == 0


def test_theta_index_enumerates_layout():
    model = make_model(2, 5, 4, 2, 2)  # groups (0,1), (2,3), (4,)
    ids = [
        theta_index(model, b, g, layer, qp, c)
        for b in range(model.branch_count)
        for g, spec in enumerate(model.groups)
        for layer in range(spec.depth)
        for qp in range(len(spec.qubits))
        for c in range(3)
    ]
    assert ids == list(range(theta_layout_size(model)))
    with pytest.raises(LcqnnError):
        theta_index(model, 4, 0, 0, 0, 0)
    with pytest.raises(LcqnnError):
        theta_index(model, 0, 0, 0, 0, 3)


def test_branch_angles_rows_are_branch_blocks():
    model = make_model(2, 5, 4, 2, 2)
    theta = np.arange(theta_layout_size(model), dtype=np.float64)
    blocks = branch_angles(model, theta)
    assert blocks.shape == (model.branch_count, model.branch_param_count)
    assert np.shares_memory(blocks, theta)
    last = len(model.groups) - 1
    for j in range(model.branch_count):
        assert blocks[j, 0] == theta_index(model, j, 0, 0, 0, 0)
        assert blocks[j, -1] == theta_index(model, j, last, 1, 0, 2)
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

        total = m + n
        vec = np.zeros(1 << total, dtype=complex)
        vec[: 1 << n] = state_in.amps
        layer = model.coefficient_layer(tuple(alpha))
        for block in build_coefficient_circuit(layer):
            vec = (
                dense_controlled(block.controls, block.value, block.gates, 2 * alpha, total)
                @ vec
            )
        shifted = [
            GateOp(g.kind, tuple(q + m for q in g.qubits), g.param_slots)
            for g in branch_gates(model)
        ]
        stride = model.branch_param_count
        tree = tuple(range(model.tree_depth))
        for j in range(L):
            vec = (
                dense_controlled(
                    tree, j, shifted, theta[j * stride : (j + 1) * stride], total
                )
                @ vec
            )
        np.testing.assert_allclose(out.amps, vec, atol=1e-10)


def test_forward_block_norms_match_coefficients():
    rng = np.random.default_rng(43)
    for m, n, L, k, D in [(2, 2, 4, 2, 1), (3, 2, 4, 2, 2), (3, 1, 8, 1, 1)]:
        model = make_model(m, n, L, k, D)
        alpha = rng.uniform(0, 2 * math.pi, L - 1)
        theta = rng.uniform(0, 2 * math.pi, theta_layout_size(model))
        out = lcqnn_forward(model, alpha, theta)
        layer = model.coefficient_layer(tuple(alpha))
        np.testing.assert_allclose(
            branch_block_probabilities(model, out), coeff_probabilities(layer), atol=1e-12
        )
        # nothing leaks outside the branch blocks
        mask = np.ones(out.amps.size, dtype=bool)
        idle = m - layer.tree_depth
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


def test_forward_depth_zero_is_coefficient_layer_only():
    model = make_model(2, 1, 4, 1, 0)
    alpha = [0.3, 0.7, 1.1]
    out = lcqnn_forward(model, alpha, [])
    probs = coeff_probabilities(model.coefficient_layer(tuple(alpha)))
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
    model = make_model(2, 2, 4, 2, 2)
    rng = np.random.default_rng(61)
    alpha = rng.uniform(0, 2 * math.pi, 3)
    theta = rng.uniform(0, 2 * math.pi, theta_layout_size(model))
    obs = PauliZSum([(1.0, (0,)), (0.5, (0, 1))], num_qubits=2)
    direct = cost(model, alpha, theta, obs)
    p = coeff_probabilities(model.coefficient_layer(tuple(alpha)))
    e = branch_expectations(model, theta, obs)
    assert direct == pytest.approx(float(p @ e), abs=1e-10)


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


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip():
    model = make_model(2, 4, 4, 2, 8)
    doc = model_to_dict(model)
    assert doc == {"m": 2, "n": 4, "L": 4, "k": 2, "D": 8}
    assert model_from_dict(doc) == model

    custom = make_model(1, 4, 2, 2, 3, groups=[(1, 0), (3, 2)])
    doc = model_to_dict(custom)
    assert doc["groups"] == [[1, 0], [3, 2]]
    assert model_from_dict(doc) == custom


def test_model_from_dict_missing_field():
    with pytest.raises(ArchitectureError):
        model_from_dict({"m": 1, "n": 2, "L": 2, "k": 2})
