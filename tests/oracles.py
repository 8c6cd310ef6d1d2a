"""Shared test oracles: dense kron/projector circuit construction.

Deliberately independent of the gate kernel in ``lcqnn.sim`` — gates are
embedded as explicit 2^n x 2^n matrices so the two implementations can
cross-check each other.
"""

import numpy as np

from lcqnn import sim
from lcqnn.model import branch_gates

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def ry(phi):
    """RY(phi) = [[cos(phi/2), -sin(phi/2)], [sin(phi/2), cos(phi/2)]]."""
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


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


def dense_controlled(controls, value, u_sub, n):
    """Explicit block-diagonal operator: the n-qubit matrix ``u_sub`` where
    the controls read ``value``, else I."""
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
            rotation = embed_1q(ry(angle), level, n)
            node = dense_controlled(tuple(range(level)), prefix, rotation, n)
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


def dense_cost(model, alpha, theta, observable, state_in=None):
    """An LCQNN cost from dense matrices: the tree on the control register,
    then each control value's branch circuit (branch ``value >> idle``) on
    the working register, from ``state_in`` (default |0...0>), read out with
    the dense working-register ``observable``."""
    m, n = model.num_controls, model.num_working
    psi_in = np.eye(1 << n)[0] if state_in is None else state_in.amps
    blocks = np.reshape(theta, (model.branch_count, -1))
    controls = dense_tree(alpha, m)[:, 0]
    idle = m - model.tree_depth
    value = 0.0
    for row, amp in enumerate(controls):
        psi = dense_circuit(branch_gates(model), blocks[row >> idle], n) @ psi_in
        value += abs(amp) ** 2 * (psi.conj() @ observable @ psi).real
    return value


def random_state(n, rng):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return sim.StateVector(n, amps)
