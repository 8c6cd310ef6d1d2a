"""Shared test oracles: dense kron/projector circuit construction.

Deliberately independent of the gate kernel in ``lcqnn.sim`` — gates are
embedded as explicit 2^n x 2^n matrices so the two implementations can
cross-check each other.
"""

import numpy as np

from lcqnn import sim

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def embed_1q(mat, qubit, n):
    """Embed a one-qubit matrix; qubit 0 is the leftmost kron factor (MSB)."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, mat if q == qubit else np.eye(2, dtype=complex))
    return out


def dense_gate(op, params, n):
    if op.kind == "cnot":
        c, t = op.qubits
        return embed_1q(P0, c, n) + embed_1q(P1, c, n) @ embed_1q(X, t, n)
    return embed_1q(sim.gate_matrix(op, params), op.qubits[0], n)


def dense_circuit(gates, params, n):
    m = np.eye(1 << n, dtype=complex)
    for g in gates:
        m = dense_gate(g, params, n) @ m
    return m


def dense_controlled(controls, value, gates, params, n):
    """Explicit block-diagonal operator: subcircuit where controls match, else I."""
    u_sub = dense_circuit(gates, params, n)
    total = np.zeros((1 << n, 1 << n), dtype=complex)
    for v in range(1 << len(controls)):
        proj = np.eye(1 << n, dtype=complex)
        for i, q in enumerate(controls):
            bit = (v >> (len(controls) - 1 - i)) & 1
            proj = proj @ embed_1q(P1 if bit else P0, q, n)
        total += proj @ (u_sub if v == value else np.eye(1 << n))
    return total


def dense_tree(alpha, n):
    """The coefficient tree on the leading qubits of an n-qubit register.

    Node ``2**l - 1 + q`` is RY(2 * alpha[node]) on qubit l, controlled on
    qubits 0..l-1 reading q; nodes apply level by level.
    """
    alpha = np.ravel(alpha)
    tree = np.eye(1 << n, dtype=complex)
    for level in range((alpha.size + 1).bit_length() - 1):
        for prefix in range(1 << level):
            angle = 2 * alpha[(1 << level) - 1 + prefix]
            node = dense_controlled(
                tuple(range(level)), prefix, [sim.ry(level, 0)], [angle], n
            )
            tree = node @ tree
    return tree


def dense_observable(obs, n):
    """A ``PauliZSum`` as a dense operator on n qubits, on the trailing ones
    when n exceeds its width, from one embedded Z per string qubit."""
    lead = n - obs.num_qubits
    total = np.zeros((1 << n, 1 << n), dtype=complex)
    for weight, qubits in obs.terms:
        term = np.eye(1 << n, dtype=complex)
        for q in qubits:
            term = term @ embed_1q(Z, lead + q, n)
        total += weight * term
    return total


def random_state(n, rng):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return sim.StateVector(n, amps)
