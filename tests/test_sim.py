"""Statevector core: gates, controlled blocks, observables, Haar sampling."""

import math

import numpy as np
import pytest

from lcqnn import sim
from lcqnn.errors import CapacityError, EncodingError, LcqnnError
from lcqnn.sim import (
    PauliZSum,
    RngStream,
    amplitude_encode,
    apply_gate,
    apply_gates,
    cnot,
    expectation,
    haar_unitary,
    init_zero,
    u3,
)

from oracles import dense_circuit, embed_1q, random_state, ry


# ---------------------------------------------------------------------------
# initialization and encoding


def test_init_zero():
    for n in range(4):
        s = init_zero(n)
        assert s.amps.shape == (1 << n,)
        assert s.amps[0] == 1.0
        assert np.all(s.amps[1:] == 0.0)
        assert abs(s.norm - 1.0) < 1e-12


def test_init_zero_capacity():
    with pytest.raises(CapacityError):
        init_zero(sim.MAX_QUBITS + 1)
    with pytest.raises(LcqnnError):
        init_zero(-1)


def test_observable_capacity():
    # the width is checked before the 2**n diagonal is built
    with pytest.raises(CapacityError):
        PauliZSum([(1.0, (0,))], num_qubits=40)


def test_amplitude_encode_basis_and_uniform():
    s = amplitude_encode([0.0, 0.0, 1.0, 0.0])
    assert s.num_qubits == 2
    np.testing.assert_allclose(s.amps, [0, 0, 1, 0], atol=1e-15)

    u = amplitude_encode([1.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(u.amps, np.full(4, 0.5), atol=1e-15)


def test_amplitude_encode_scale_invariance():
    x = np.array([0.3, -1.2, 0.7, 2.0, 0.0, 0.1, -0.4, 0.9])
    a = amplitude_encode(x)
    b = amplitude_encode(3.5 * x)
    np.testing.assert_allclose(a.amps, b.amps, atol=1e-14)
    assert abs(a.norm - 1.0) < 1e-12


def test_amplitude_encode_errors():
    with pytest.raises(EncodingError):
        amplitude_encode(np.zeros(4))
    with pytest.raises(EncodingError):
        amplitude_encode([1.0, 2.0, 3.0])
    with pytest.raises(EncodingError):
        amplitude_encode([1.0, np.nan, 0.0, 0.0])


# ---------------------------------------------------------------------------
# gate application


def test_u3_reduces_to_ry():
    theta = 0.87
    np.testing.assert_allclose(
        sim.u3_matrix(theta, 0.0, 0.0), ry(theta), atol=1e-15
    )


def test_ry_flips_basis_state():
    s = apply_gate(init_zero(1), u3(0, 0, 1, 2), [math.pi, 0.0, 0.0])
    np.testing.assert_allclose(s.amps, [0, 1], atol=1e-15)


def test_ry_on_msb_qubit():
    # qubit 0 is the most significant bit: RY(pi/2) on |00> populates |10>.
    s = apply_gate(init_zero(2), u3(0, 0, 1, 2), [math.pi / 2, 0.0, 0.0])
    r = math.sqrt(0.5)
    np.testing.assert_allclose(s.amps, [r, 0, r, 0], atol=1e-15)


def test_cnot_and_u3_columns():
    # CNOT(0,1) maps |10> (index 2) to |11> (index 3).
    s = sim.StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
    out = apply_gate(s, cnot(0, 1))
    np.testing.assert_allclose(out.amps, [0, 0, 0, 1], atol=1e-15)

    theta, phi, lam = 0.9, 0.4, -1.3
    out = apply_gate(init_zero(1), u3(0, 0, 1, 2), [theta, phi, lam])
    expected = [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)]
    np.testing.assert_allclose(out.amps, expected, atol=1e-15)


def test_apply_gate_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        state = random_state(n, rng)
        gates, params = _random_circuit(n, rng, max_gates=8)
        out = state
        for g in gates:
            out = apply_gate(out, g, params)
        expected = dense_circuit(gates, params, n) @ state.amps
        np.testing.assert_allclose(out.amps, expected, atol=1e-10)
        before = state.amps.copy()
        out_nd = apply_gates(state.amps.reshape((2,) * n), gates, params)
        np.testing.assert_allclose(out_nd.reshape(-1), expected, atol=1e-10)
        np.testing.assert_array_equal(state.amps, before)  # input left as it was


def test_batched_apply_gates_rejects_mismatched_params():
    tensor = np.zeros((3, 2, 2), dtype=complex)
    for bad in (np.zeros((2, 3)), np.zeros((3, 3, 1))):
        with pytest.raises(LcqnnError, match="needs parameters of shape"):
            apply_gates(tensor, [u3(0, 0, 1, 2)], bad)
        with pytest.raises(LcqnnError, match="needs parameters of shape"):
            sim.adjoint_gradient(tensor, [u3(0, 0, 1, 2)], bad, np.ones(4))
    grid = np.zeros((3, 4, 2, 2), dtype=complex)
    for bad in (np.zeros((3, 2, 3)), np.zeros((2, 1, 3))):
        with pytest.raises(LcqnnError, match="needs parameters of shape"):
            apply_gates(grid, [u3(0, 0, 1, 2)], bad)


def test_apply_gate_validation():
    with pytest.raises(LcqnnError):
        apply_gate(init_zero(1), cnot(0, 1))
    with pytest.raises(LcqnnError):
        sim.GateOp("hadamard", (0,))
    with pytest.raises(LcqnnError):
        sim.GateOp("cnot", (1, 1))
    with pytest.raises(LcqnnError):
        sim.GateOp("u3", (0,), ())
    # RY is U3 with phi = lam = 0 and has no gate kind of its own
    with pytest.raises(LcqnnError, match="unknown gate kind"):
        sim.GateOp("ry", (0,), (0,))


def _random_circuit(n, rng, max_gates=6):
    """Random gate list on ``n`` qubits; returns (gates, params)."""
    qubits = list(range(n))
    gates = []
    params = list(rng.uniform(0, 2 * math.pi, 3 * max_gates))
    slot = 0
    for _ in range(int(rng.integers(1, max_gates + 1))):
        kind = rng.choice(["u3", "cnot"] if n >= 2 else ["u3"])
        if kind == "cnot":
            c, t = rng.choice(qubits, size=2, replace=False)
            gates.append(cnot(int(c), int(t)))
        else:
            gates.append(u3(int(rng.choice(qubits)), slot, slot + 1, slot + 2))
            slot += 3
    return gates, params


def test_norm_preserved_over_random_circuits():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        state = random_state(n, rng)
        gates, params = _random_circuit(n, rng, max_gates=8)
        out = state
        for g in gates:
            out = apply_gate(out, g, params)
        worst = max(worst, abs(out.norm - 1.0))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# observables and expectation values


def test_z_eigenstates():
    obs = PauliZSum([(1.0, (0,))], num_qubits=1)
    assert expectation(init_zero(1), obs) == pytest.approx(1.0, abs=1e-12)
    one = sim.StateVector(1, np.array([0, 1], dtype=complex))
    assert expectation(one, obs) == pytest.approx(-1.0, abs=1e-12)


def test_equatorial_state_expectation():
    obs = PauliZSum([(1.0, (0,))], num_qubits=1)
    s = apply_gate(init_zero(1), u3(0, 0, 1, 2), [math.pi / 2, 0.0, 0.0])
    assert expectation(s, obs) == pytest.approx(0.0, abs=1e-12)


def test_z_string_and_weighted_sum():
    # |11>: Z0 Z1 -> +1; 0.5*Z0 - 2*Z1 -> -0.5 + 2 = 1.5.
    s = sim.StateVector(2, np.array([0, 0, 0, 1], dtype=complex))
    zz = PauliZSum([(1.0, (0, 1))], num_qubits=2)
    assert expectation(s, zz) == pytest.approx(1.0, abs=1e-12)
    mix = PauliZSum([(0.5, (0,)), (-2.0, (1,))], num_qubits=2)
    assert expectation(s, mix) == pytest.approx(1.5, abs=1e-12)


def test_trailing_register_embedding():
    # A 1-qubit observable on a 2-qubit state addresses the trailing qubit.
    obs = PauliZSum([(1.0, (0,))], num_qubits=1)
    s = sim.StateVector(2, np.array([0, 0, 1, 0], dtype=complex))  # |10>
    assert expectation(s, obs) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(LcqnnError):
        expectation(init_zero(1), PauliZSum([(1.0, (0,))], num_qubits=2))


def test_pauli_z_sum_diagonal_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        n_terms = int(rng.integers(1, 4))
        terms = []
        for _ in range(n_terms):
            size = int(rng.integers(0, n + 1))
            qs = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
            terms.append((float(rng.standard_normal()), qs))
        obs = PauliZSum(terms, num_qubits=n)
        dense = np.zeros((1 << n, 1 << n), dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        for w, qs in terms:
            term = np.eye(1 << n, dtype=complex)
            for q in qs:
                term = term @ embed_1q(z, q, n)
            dense += w * term
        np.testing.assert_allclose(obs.diagonal(), np.diagonal(dense).real, atol=1e-12)
        assert obs.trace() == pytest.approx(np.trace(dense).real, abs=1e-9)


def test_observable_validation():
    with pytest.raises(LcqnnError):
        PauliZSum([(1.0, (0, 0))], num_qubits=2)
    with pytest.raises(LcqnnError):
        PauliZSum([(1.0, (4,))], num_qubits=2)
    with pytest.raises(LcqnnError):
        PauliZSum([], num_qubits=2)


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_unitary_is_unitary():
    rng = RngStream(123)
    for dim in (1, 2, 3, 4, 8, 13):
        u = haar_unitary(dim, RngStream(123, dim))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-10)
    u1 = haar_unitary(1, rng)
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12


def test_haar_columns_match_full_unitary():
    # the two-column QR reproduces the leading columns of the full one
    for dim in list(range(2, 65)) + [256]:
        full = haar_unitary(dim, RngStream(31, dim).generator())
        z = sim.ginibre(dim, RngStream(31, dim).generator())
        cols = sim.haar_columns(np.stack([z[:, :2], z[:, :2]]))
        for part in cols:
            np.testing.assert_allclose(part, full[:, :2], rtol=0, atol=1e-14)


def test_haar_moments_dim8():
    # For Haar U and traceless O: E <0|U'OU|0> = 0, Var = Tr(O^2)/(d(d+1)).
    dim, samples = 8, 20000
    gen = RngStream(2024).generator()
    diag = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=float)  # Z on qubit 0 of 3
    vals = np.empty(samples)
    for i in range(samples):
        col = haar_unitary(dim, gen)[:, 0]
        vals[i] = float(diag @ (np.abs(col) ** 2))
    stderr = vals.std(ddof=1) / math.sqrt(samples)
    assert abs(vals.mean()) <= 4 * stderr
    expected_var = 8.0 / (dim * (dim + 1))  # 1/9
    assert vals.var(ddof=1) == pytest.approx(expected_var, rel=0.05)


def test_haar_second_moment_dim4():
    dim, samples = 4, 20000
    gen = RngStream(77).generator()
    diag = np.array([1, 1, -1, -1], dtype=float)
    vals = np.empty(samples)
    for i in range(samples):
        col = haar_unitary(dim, gen)[:, 0]
        vals[i] = float(diag @ (np.abs(col) ** 2))
    expected_var = 4.0 / (dim * (dim + 1))
    assert vals.var(ddof=1) == pytest.approx(expected_var, rel=0.05)


# ---------------------------------------------------------------------------
# seed streams


def test_rng_stream_reproducible():
    a = RngStream(99, 3).generator().uniform(size=5)
    b = RngStream(99, 3).generator().uniform(size=5)
    np.testing.assert_array_equal(a, b)


def test_rng_stream_independent_indices():
    a = RngStream(99, 0).generator().uniform(size=5)
    b = RngStream(99, 1).generator().uniform(size=5)
    assert not np.allclose(a, b)


def test_rng_component_streams():
    s = RngStream(5, 10)
    a1 = s.component_generator(0).uniform(size=4)
    a2 = s.component_generator(0).uniform(size=4)
    b = s.component_generator(1).uniform(size=4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)


def test_rng_stream_negative_seed_and_validation():
    a = RngStream(-1, 0).generator().uniform(size=3)
    b = RngStream(-1, 0).generator().uniform(size=3)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(LcqnnError):
        RngStream(1, -2)


# seeds of one and two 32-bit words, and negative seeds, which wrap mod 2**64
_CHUNK_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1]


@pytest.mark.parametrize("seed", _CHUNK_SEEDS)
@pytest.mark.parametrize(
    "lo, hi",
    [
        (0, 64),
        (960, 1000),
        (2**32 - 64, 2**32),  # the last chunk of one-word indices
        (2**32, 2**32 + 64),  # the first of two-word indices
        (2**32 - 3, 2**32 + 3),  # both in one call
    ],
)
def test_chunk_generators_match_rng_stream(seed, lo, hi):
    components = range(8)
    rows = sim.chunk_generators(seed, lo, hi, components)
    assert len(rows) == len(components)
    for c, row in zip(components, rows):
        assert len(row) == hi - lo
        for b, gen in enumerate(row):
            ref = RngStream(seed, lo + b).component_generator(c)
            assert gen.bit_generator.state == ref.bit_generator.state
            np.testing.assert_array_equal(gen.random(3), ref.random(3))


def test_chunk_generators_validation():
    for lo, hi, components in [
        (-1, 3, [0]),
        (4, 3, [0]),
        (2**64 - 1, 2**64 + 1, [0]),
        (0, 2, [-1]),
        (0, 2, [2**32]),
    ]:
        with pytest.raises(LcqnnError):
            sim.chunk_generators(5, lo, hi, components)
