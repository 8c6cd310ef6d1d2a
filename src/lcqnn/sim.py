"""Dense statevector simulation primitives.

Conventions used throughout the package:

* Qubit 0 is the *most significant* bit of a computational-basis index, so a
  register composed as ``|control> (x) |working>`` stores the control value in
  the top bits of the index and block ``j`` of the flat amplitude array is the
  contiguous slice ``amps[j * 2**n_working : (j + 1) * 2**n_working]``.
* ``RY(phi) = [[cos(phi/2), -sin(phi/2)], [sin(phi/2), cos(phi/2)]]``
* ``U3(theta, phi, lam) = [[cos(theta/2),            -e^{i lam} sin(theta/2)],
  [e^{i phi} sin(theta/2), e^{i (phi+lam)} cos(theta/2)]]``
* CNOT qubits are given as ``(control, target)``.
* Every observable is a weighted sum of Pauli-Z strings (``PauliZSum``). One
  on ``k`` qubits evaluated on an ``n >= k``-qubit state acts as identity on
  the leading ``n - k`` qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, EncodingError, LcqnnError

#: Hard cap on simulated register width (2**24 amplitudes ~ 256 MiB complex128).
MAX_QUBITS = 24

_UINT64_MASK = (1 << 64) - 1


# ---------------------------------------------------------------------------
# state


@dataclass
class StateVector:
    """A pure state on ``num_qubits`` qubits as a flat complex128 array."""

    num_qubits: int
    amps: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def _check_width(num_qubits: int) -> None:
    """Reject a register width before anything of size 2**num_qubits exists."""
    if num_qubits < 0:
        raise LcqnnError(f"num_qubits must be non-negative, got {num_qubits}")
    if num_qubits > MAX_QUBITS:
        raise CapacityError(
            f"num_qubits={num_qubits} exceeds the supported maximum of {MAX_QUBITS}"
        )


def init_zero(num_qubits: int) -> StateVector:
    """Return |0...0> on ``num_qubits`` qubits."""
    _check_width(num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def amplitude_encode(values) -> StateVector:
    """Encode a real vector of power-of-two length as state amplitudes.

    The vector is l2-normalized; its length fixes the register size.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    if n < 1 or (n & (n - 1)) != 0:
        raise EncodingError(f"input length must be a power of two, got {n}")
    if not np.all(np.isfinite(x)):
        raise EncodingError("input contains non-finite values")
    norm = float(np.linalg.norm(x))
    if norm <= 1e-9:
        raise EncodingError(f"input norm {norm:.3e} is too small to normalize")
    return StateVector(n.bit_length() - 1, (x / norm).astype(np.complex128))


# ---------------------------------------------------------------------------
# gates


@dataclass(frozen=True)
class GateOp:
    """A gate instance: kind, target qubits, and parameter-vector slots.

    ``qubits`` are global qubit indices; for "cnot" they are
    ``(control, target)``. ``param_slots`` index into the parameter vector
    passed at application time ("ry" takes one slot, "u3" three, "cnot" none).
    """

    kind: str
    qubits: tuple[int, ...]
    param_slots: tuple[int, ...] = ()

    def __post_init__(self):
        expected = {"ry": (1, 1), "u3": (1, 3), "cnot": (2, 0)}
        if self.kind not in expected:
            raise LcqnnError(f"unknown gate kind {self.kind!r}")
        n_qubits, n_params = expected[self.kind]
        if len(self.qubits) != n_qubits:
            raise LcqnnError(
                f"{self.kind} takes {n_qubits} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise LcqnnError(f"gate qubits must be distinct, got {self.qubits}")
        if len(self.param_slots) != n_params:
            raise LcqnnError(
                f"{self.kind} takes {n_params} parameter slot(s), got {self.param_slots}"
            )


def ry(qubit: int, slot: int) -> GateOp:
    return GateOp("ry", (qubit,), (slot,))


def u3(qubit: int, slot_theta: int, slot_phi: int, slot_lam: int) -> GateOp:
    return GateOp("u3", (qubit,), (slot_theta, slot_phi, slot_lam))


def cnot(control: int, target: int) -> GateOp:
    return GateOp("cnot", (control, target))


def ry_matrix(phi: float) -> np.ndarray:
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [ct, -np.exp(1j * lam) * st],
            [np.exp(1j * phi) * st, np.exp(1j * (phi + lam)) * ct],
        ],
        dtype=np.complex128,
    )


def u3_matrix_derivs(theta: float, phi: float, lam: float) -> tuple[np.ndarray, ...]:
    """Partial derivatives of ``u3_matrix`` with respect to each angle."""
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ep, el, epl = np.exp(1j * phi), np.exp(1j * lam), np.exp(1j * (phi + lam))
    d_theta = 0.5 * np.array([[-st, -el * ct], [ep * ct, -epl * st]])
    d_phi = 1j * np.array([[0.0, 0.0], [ep * st, epl * ct]])
    d_lam = 1j * np.array([[0.0, -el * st], [0.0, epl * ct]])
    return d_theta, d_phi, d_lam


def _gate_derivs(op: GateOp, params) -> list[tuple[int, np.ndarray]]:
    """(parameter slot, d matrix / d angle) for each angle ``op`` binds."""
    if op.kind == "u3":
        th, ph, lm = (float(params[s]) for s in op.param_slots)
        return list(zip(op.param_slots, u3_matrix_derivs(th, ph, lm)))
    if op.kind == "ry":
        (slot,) = op.param_slots
        half = float(params[slot]) / 2.0
        d = 0.5 * np.array(
            [[-math.sin(half), -math.cos(half)], [math.cos(half), -math.sin(half)]],
            dtype=np.complex128,
        )
        return [(slot, d)]
    return []


#: CNOT on the basis |control target>.
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def gate_matrix(op: GateOp, params) -> np.ndarray:
    """Dense matrix for ``op`` with its angles bound from ``params``."""
    if op.kind == "ry":
        return ry_matrix(float(params[op.param_slots[0]]))
    if op.kind == "u3":
        a, b, c = (float(params[s]) for s in op.param_slots)
        return u3_matrix(a, b, c)
    return CNOT_MATRIX


def _apply_matrix(tensor: np.ndarray, mat: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply a unitary on the given axes of a rank-(2,2,...,2) tensor."""
    k = len(axes)
    mat_nd = mat.reshape((2,) * (2 * k))
    out = np.tensordot(mat_nd, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def _check_qubits(op: GateOp, num_qubits: int) -> None:
    for q in op.qubits:
        if not 0 <= q < num_qubits:
            raise LcqnnError(
                f"gate qubit {q} out of range for a {num_qubits}-qubit state"
            )


def apply_gates(tensor: np.ndarray, gates, params) -> np.ndarray:
    """Apply ``gates`` in order to a rank-(2,2,...,2) tensor.

    Each gate's qubits are axes of ``tensor``; angles are bound from
    ``params``. The input is not modified.
    """
    for op in gates:
        tensor = _apply_matrix(tensor, gate_matrix(op, params), op.qubits)
    return tensor


def adjoint_gradient(
    tensor: np.ndarray, gates, params, obs: PauliZSum
) -> tuple[float, np.ndarray]:
    """Expectation of ``obs`` after ``gates`` and its gradient in ``params``.

    One forward pass keeps the state before each gate; one backward sweep
    carries ``obs`` applied to the output back through the gates and reads
    each angle's derivative against the stored state (adjoint
    differentiation, Jones & Gacon, arXiv:2009.02823).
    """
    snaps = [tensor]
    for op in gates:
        snaps.append(apply_gates(snaps[-1], (op,), params))
    psi = snaps.pop()
    b = obs.apply(psi.reshape(-1)).reshape(psi.shape)
    value = float(np.vdot(psi, b).real)
    grad = np.zeros(len(params))
    for op, before in zip(reversed(gates), reversed(snaps)):
        for slot, dmat in _gate_derivs(op, params):
            grad[slot] += 2.0 * float(np.vdot(b, _apply_matrix(before, dmat, op.qubits)).real)
        b = _apply_matrix(b, gate_matrix(op, params).conj().T, op.qubits)
    return value, grad


def apply_gate(state: StateVector, op: GateOp, params=()) -> StateVector:
    """Return a new state with ``op`` applied."""
    _check_qubits(op, state.num_qubits)
    out = apply_gates(state.amps.reshape((2,) * state.num_qubits), (op,), params)
    return StateVector(state.num_qubits, np.ascontiguousarray(out.reshape(-1)))


def _apply_subcircuit_in_place(
    amps_nd: np.ndarray,
    control_qubits: tuple[int, ...],
    control_value: int,
    subcircuit,
    params,
    num_qubits: int,
) -> None:
    """Apply gates to the sub-block selected by the control pattern.

    ``control_qubits[0]`` carries the most significant bit of
    ``control_value``, matching the global qubit-0-is-MSB convention.
    """
    for op in subcircuit:
        _check_qubits(op, num_qubits)
        if set(control_qubits).intersection(op.qubits):
            raise LcqnnError(
                f"gate qubits {op.qubits} overlap control qubits {control_qubits}"
            )
    # a length-1 slice per control bit keeps every axis, so gate qubits
    # index the view directly
    sel: list = [slice(None)] * num_qubits
    for i, q in enumerate(control_qubits):
        bit = (control_value >> (len(control_qubits) - 1 - i)) & 1
        sel[q] = slice(bit, bit + 1)
    view = amps_nd[tuple(sel)]
    view[...] = apply_gates(view, subcircuit, params)


# ---------------------------------------------------------------------------
# observables


def _z_signs(num_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Diagonal of a Z-string: (-1)**parity(index & mask) per basis index."""
    mask = 0
    for q in qubits:
        mask |= 1 << (num_qubits - 1 - q)
    v = np.arange(1 << num_qubits, dtype=np.int64) & mask
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return 1.0 - 2.0 * (v & 1)


class PauliZSum:
    """A real-weighted sum of Z-strings on a ``num_qubits`` register.

    ``terms`` is a sequence of ``(weight, qubit_indices)``; an empty index
    tuple denotes the identity term.
    """

    def __init__(self, terms, num_qubits: int):
        _check_width(num_qubits)
        norm_terms = []
        for weight, qubits in terms:
            w = float(weight)
            qs = tuple(int(q) for q in qubits)
            if len(set(qs)) != len(qs):
                raise LcqnnError(f"repeated qubit in Z-string {qs}")
            for q in qs:
                if not 0 <= q < num_qubits:
                    raise LcqnnError(
                        f"observable qubit {q} out of range for {num_qubits} qubit(s)"
                    )
            norm_terms.append((w, qs))
        if not norm_terms:
            raise LcqnnError("observable needs at least one term")
        self.terms = tuple(norm_terms)
        self.num_qubits = int(num_qubits)
        diag = np.zeros(1 << self.num_qubits)
        for weight, qubits in self.terms:
            diag += weight * _z_signs(self.num_qubits, qubits)
        diag.flags.writeable = False
        self._diag = diag

    def diagonal(self) -> np.ndarray:
        """The operator's diagonal, built once; read-only."""
        return self._diag

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self._diag * vec

    def trace(self) -> float:
        return float(sum(w * (1 << self.num_qubits) for w, qs in self.terms if not qs))

    def describe(self) -> str:
        parts = []
        for w, qs in self.terms:
            body = "".join(f"Z{q}" for q in qs) or "I"
            parts.append(body if w == 1.0 else f"{w:g}*{body}")
        return "+".join(parts)


def expectation(state: StateVector, obs: PauliZSum) -> float:
    """<state| I (x) obs |state>, with obs on the trailing sub-register."""
    if obs.num_qubits > state.num_qubits:
        raise LcqnnError(
            f"observable on {obs.num_qubits} qubit(s) does not fit a "
            f"{state.num_qubits}-qubit state"
        )
    rows = state.amps.reshape(-1, 1 << obs.num_qubits)
    marginal = np.sum(np.abs(rows) ** 2, axis=0)
    return float(obs._diag @ marginal)


# ---------------------------------------------------------------------------
# randomness


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: (root_seed, stream_index).

    Identical pairs always produce identical draw sequences; distinct pairs
    are statistically independent. Generators are created fresh on each call,
    so results never depend on sharing or call order.
    """

    root_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.stream_index < 0:
            raise LcqnnError("stream_index must be non-negative")

    def _seed_key(self) -> tuple[int, int]:
        return (self.root_seed & _UINT64_MASK, self.stream_index)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self._seed_key()))

    def component_generator(self, component: int) -> np.random.Generator:
        """An independent sub-stream for a named component of this sample."""
        return np.random.default_rng(
            np.random.SeedSequence(self._seed_key() + (int(component),))
        )


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Sample a Haar-distributed unitary via QR of a complex Ginibre matrix.

    ``rng`` may be an RngStream or a numpy Generator. The R-diagonal phases
    are divided out so the distribution is exactly Haar, not merely unitary.
    """
    if dim < 1:
        raise LcqnnError(f"dim must be >= 1, got {dim}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    z = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
