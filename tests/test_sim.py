"""Statevector core: gates, controlled blocks, observables, Haar sampling."""

import math
import warnings

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
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


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
    assert abs(np.linalg.norm(a.amps) - 1.0) < 1e-12


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
        out_nd = apply_gates(state.amps.reshape((1,) + (2,) * n), gates, [params])
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
    # parameters with no row axis: a (P,) vector would read as P rows
    one = np.zeros((2, 2), dtype=complex)
    for bad in (np.zeros(3), np.float64(0.0)):
        with pytest.raises(LcqnnError, match="need a row axis"):
            apply_gates(one, [u3(0, 0, 1, 2)], bad)
        with pytest.raises(LcqnnError, match="need a row axis"):
            sim.adjoint_gradient(one, [u3(0, 0, 1, 2)], bad, np.ones(2))


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


def _bits(array):
    """The raw bits of a float or complex array, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(array).view(np.uint64)


@pytest.mark.parametrize("batch", [1, 3, 130])
@pytest.mark.parametrize("n", range(1, 6))
def test_kernel_rows_are_bitwise_batch_invariant(n, batch):
    # a row's amplitudes, value and gradient are the same bits alone as in a
    # stack of any size, and under angles shared along a size-1 axis; the
    # adjoint sweep's per-row sums must not follow the stack's layout
    rng = np.random.default_rng(10 * n + batch)
    gates, slot = [], 0
    for _ in range(2):
        for q in range(n):
            gates.append(u3(q, slot, slot + 1, slot + 2))
            slot += 3
        gates += [cnot(q, q + 1) for q in range(n - 1)]
    rows = rng.uniform(0, 2 * math.pi, (batch, slot))
    states = np.stack([random_state(n, rng).amps for _ in range(batch)])
    states = states.reshape((batch,) + (2,) * n)
    diags = rng.standard_normal((batch, 1 << n))

    def sweep(tensor, angles, diag):
        psi = apply_gates(tensor, gates, angles)
        return (psi,) + sim.adjoint_gradient(psi, gates, angles, diag)

    stacked = sweep(states, rows, diags)
    shared = sweep(states, rows[:1], diags)
    grid = sweep(np.stack([states, states]), rows[None], diags)
    for b in range(batch):
        alone = sweep(states[b : b + 1], rows[b : b + 1], diags[b : b + 1])
        for got, want in zip(stacked, alone):
            assert np.array_equal(_bits(got[b]), _bits(want[0]))
        for got, want in zip(grid, alone):
            for i in range(2):
                assert np.array_equal(_bits(got[i, b]), _bits(want[0]))
        alone = sweep(states[b : b + 1], rows[:1], diags[b : b + 1])
        for got, want in zip(shared, alone):
            assert np.array_equal(_bits(got[b]), _bits(want[0]))


def test_adjoint_gradient_sums_every_use_of_a_repeated_slot():
    # a slot that several U3 angles share, in one gate or across gates, sums
    # their parts in the sweep's order (gates last to first, then theta,
    # phi, lam): bit for bit the same circuit with one slot per use, summed
    # that way, and close to central differences of the dense oracle
    shared = [u3(0, 0, 1, 0), cnot(0, 1), u3(1, 2, 0, 1), u3(0, 1, 2, 2)]
    distinct = [u3(0, 0, 1, 2), cnot(0, 1), u3(1, 3, 4, 5), u3(0, 6, 7, 8)]
    uses = [0, 1, 0, 2, 0, 1, 1, 2, 2]
    rng = np.random.default_rng(3)
    angles = rng.uniform(0, 2 * math.pi, (4, 3))
    states = np.stack([random_state(2, rng).amps for _ in range(4)]).reshape(4, 2, 2)
    diags = rng.standard_normal((4, 4))
    psi = apply_gates(states, shared, angles)
    values, grads = sim.adjoint_gradient(psi, shared, angles, diags)
    spread = angles[:, uses]
    ref_values, ref_grads = sim.adjoint_gradient(
        apply_gates(states, distinct, spread), distinct, spread, diags
    )
    assert np.array_equal(_bits(values), _bits(ref_values))
    expected = np.zeros((4, 3))
    for use in (6, 7, 8, 3, 4, 5, 0, 1, 2):
        expected[:, uses[use]] += ref_grads[:, use]
    assert np.array_equal(_bits(grads), _bits(expected))
    h = 1e-6
    for b in range(4):
        def oracle(point):
            out = dense_circuit(shared, point, 2) @ states[b].reshape(-1)
            return float(np.real(np.vdot(out, diags[b] * out)))

        for slot in range(3):
            up, down = angles[b].copy(), angles[b].copy()
            up[slot] += h
            down[slot] -= h
            assert abs(grads[b, slot] - (oracle(up) - oracle(down)) / (2 * h)) <= 1e-7


def test_sweep_view_puts_rows_last_from_eight_rows_on():
    # a run of 8 rows or more, over any batch axes, sweeps with them last, so
    # ufuncs loop over rows; fewer rows (a 12-qubit block two to a run) keep
    # them first, so ufuncs loop over a row's amplitudes
    cases = [
        ((8,) + (2,) * 10, 1, True),
        ((7,) + (2,) * 3, 1, False),
        ((2, 4) + (2,) * 5, 2, True),
        ((2,) + (2,) * 12, 1, False),
    ]
    for shape, axes, last in cases:
        run = np.zeros(shape, dtype=np.complex128)
        view, lead, ones = sim._sweep_view(run, axes)
        if last:
            assert view.shape == shape[axes:] + shape[:axes] and (lead, ones) == (0, ())
        else:
            assert view is run and (lead, ones) == (axes, (1,) * (len(shape) - axes - 1))


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
        worst = max(worst, abs(np.linalg.norm(out.amps) - 1.0))
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
    words = sim.chunk_seeds(seed, lo, hi, components)
    assert len(words) == len(components)
    for c, block in zip(components, words):
        row = sim.chunk_generators(block)
        assert len(row) == hi - lo
        for b, gen in enumerate(row):
            ref = RngStream(seed, lo + b).component_generator(c)
            assert gen.bit_generator.state == ref.bit_generator.state
            np.testing.assert_array_equal(gen.random(3), ref.random(3))


def test_chunk_generator_normals_of_a_smaller_draw_are_a_prefix():
    # a Haar block stream draws its 2*D*D normals once for the largest
    # dimension D at its block index, and a block of dimension d reads the
    # first 2*d*d: the normals must come out in order, whatever the count
    words = sim.chunk_seeds(3, 0, 4, [2])[0]
    for d, D in ((2, 3), (5, 16), (16, 32)):
        for small, large in zip(sim.chunk_generators(words), sim.chunk_generators(words)):
            prefix = small.standard_normal(2 * d * d)
            np.testing.assert_array_equal(large.standard_normal(2 * D * D)[: 2 * d * d], prefix)


def test_pcg64_random_matches_generator_uniform():
    # the jump-ahead draws are the uniforms a per-stream Generator gives, bit
    # for bit, at any block boundary; scalar uint64 arithmetic that overflows
    # would warn, and here fails
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    block = sim.DRAW_BLOCK
    two_pi = 2.0 * math.pi

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.one_of(st.sampled_from([0, -1, 2**63, 2**64 - 1]),
                       st.integers(-(2**63), 2**64 - 1)),
        lo=st.one_of(st.sampled_from([0, 2**32 - 2, 2**64 - 3]), st.integers(0, 2**64 - 3)),
        count=st.integers(0, 3),
        component=st.sampled_from([0, 1, 5, 2**32 - 1]),
        size=st.one_of(st.sampled_from([0, 1, block, block + 1, 576]),
                       st.integers(0, 3 * block)),
    )
    @hypothesis.example(seed=0, lo=0, count=3, component=0, size=576)
    @hypothesis.example(seed=-1, lo=2**32 - 2, count=3, component=1, size=block)
    @hypothesis.example(seed=2**63 + 1, lo=2**64 - 3, count=3, component=2, size=block + 1)
    @hypothesis.example(seed=7, lo=2**64 - 2, count=2, component=0, size=1)
    @hypothesis.example(seed=7, lo=5, count=2, component=0, size=0)
    def check(seed, lo, count, component, size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = sim.chunk_seeds(seed, lo, lo + count, [component])
            assert words.shape == (1, count, 4)
            got = two_pi * sim.pcg64_random(words[0], size)
        ref = np.array([
            RngStream(seed, i).component_generator(component).uniform(0.0, two_pi, size)
            for i in range(lo, lo + count)
        ]).reshape(count, size)
        assert got.shape == (count, size)
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    check()


def test_chunk_seeds_validation():
    for lo, hi, components in [
        (-1, 3, [0]),
        (4, 3, [0]),
        (2**64 - 1, 2**64 + 1, [0]),
        (0, 2, [-1]),
        (0, 2, [2**32]),
    ]:
        with pytest.raises(LcqnnError):
            sim.chunk_seeds(5, lo, hi, components)


def _replay(stream, gen, ops) -> bool:
    """Whether ``stream`` draws bit for bit what the Generator ``gen`` draws
    over ``ops``: ("uniform", low, high, size), ("integers", low, high) or
    ("permutation", n), in order."""
    for name, *args in ops:
        got, want = getattr(stream, name)(*args), getattr(gen, name)(*args)
        if name == "integers":
            same = got == want
        else:
            if name == "uniform":
                got, want = got.view(np.uint64), want.view(np.uint64)
            same = got.dtype == want.dtype and np.array_equal(got, want)
        if not same:
            return False
    return True


# a range of 3 * 2**30 + 1 values rejects about a quarter of 32-bit draws
_LEMIRE = ("integers", 0, 3 * 2**30 + 1)


def test_pcg64_stream_matches_generator():
    # sized uniforms, scalar integers and permutations interleave, so the
    # high half a 32-bit draw keeps carries from one call to the next, also
    # across a refill of the stream's words
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    refill = sim.STREAM_ROWS * sim.DRAW_BLOCK
    ops = st.lists(st.one_of(
        st.tuples(st.just("uniform"), st.sampled_from([0.0, -1.5]),
                  st.sampled_from([2.0 * math.pi, 2.0]), st.integers(0, refill + 3)),
        st.builds(lambda low, span: ("integers", low, low + span),
                  st.integers(-5, 5), st.one_of(st.integers(1, 9), st.integers(1, 2**32))),
        st.tuples(st.just("permutation"), st.integers(0, 70)),
    ), max_size=12)
    seeds = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**200]

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.one_of(st.sampled_from(seeds), st.integers(0, 2**130)), ops=ops)
    @hypothesis.example(seed=seeds[0], ops=[("integers", 0, 7), ("uniform", 0.0, 1.0, refill),
                                             ("integers", 0, 7), ("permutation", 3)])
    @hypothesis.example(seed=seeds[1], ops=[_LEMIRE] * 40 + [("permutation", 64)])
    @hypothesis.example(seed=seeds[2], ops=[("integers", 2, 3), ("integers", 0, 2**32)] * 3)
    @hypothesis.example(seed=seeds[3], ops=[("permutation", 2), ("uniform", 0.0, 1.0, 1)] * 3)
    @hypothesis.example(seed=seeds[4], ops=[("uniform", -1.5, 2.0, 5), _LEMIRE] * 3)
    def check(seed, ops):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = sim.Pcg64Stream.from_seed(seed)
            assert _replay(stream, np.random.default_rng(seed), ops)

    check()


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4000])
def test_pcg64_stream_shuffles_like_a_component_generator(n):
    # mnist's epoch shuffles: a stream on chunk_seeds' words for one run's
    # component 1, over several successive epochs
    stream = sim.Pcg64Stream(sim.chunk_seeds(42, 3, 4, (1,))[0, 0])
    assert _replay(stream, RngStream(42, 3).component_generator(1), [("permutation", n)] * 4)


def test_pcg64_stream_rejects_as_lemire_does():
    class Counting(sim.Pcg64Stream):
        draws = 0

        def _uint32s(self, count):
            self.draws += count
            return super()._uint32s(count)

    stream = Counting.from_seed(7)
    assert _replay(stream, np.random.default_rng(7), [_LEMIRE] * 64)
    assert stream.draws > 64, "no draw was rejected"


def test_pcg64_stream_negative_control_drops_the_kept_half():
    # a stream that forgets the high half between 32-bit draws must fail,
    # whether the half is left by or taken by a scalar draw or a shuffle
    class DropsHalf(sim.Pcg64Stream):
        def _uint32s(self, count):
            self._halves = []
            return super()._uint32s(count)

    # a range of 2**31 never rejects and permutation(2) never does either, so
    # each takes one 32-bit draw and leaves a word's high half over
    half = ("integers", 0, 2**31)
    for ops in ([half] * 2, [("permutation", 2), half], [half, ("permutation", 40)]):
        assert _replay(sim.Pcg64Stream.from_seed(5), np.random.default_rng(5), ops)
        assert not _replay(DropsHalf.from_seed(5), np.random.default_rng(5), ops), ops


def test_pcg64_stream_validation():
    stream = sim.Pcg64Stream.from_seed(1)
    for low, high in [(0, 0), (3, 2), (0, 2**32 + 1)]:
        with pytest.raises(LcqnnError):
            stream.integers(low, high)
    with pytest.raises(LcqnnError):
        sim.Pcg64Stream.from_seed(-1)
