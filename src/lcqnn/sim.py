"""Dense statevector simulation primitives.

Conventions used throughout the package:

* Qubit 0 is the *most significant* bit of a computational-basis index, so a
  register composed as ``|control> (x) |working>`` stores the control value in
  the top bits of the index and block ``j`` of the flat amplitude array is the
  contiguous slice ``amps[j * 2**n_working : (j + 1) * 2**n_working]``.
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
from functools import lru_cache

import numpy as np

from .errors import CapacityError, EncodingError, LcqnnError

#: Hard cap on simulated register width (2**24 amplitudes ~ 256 MiB complex128).
MAX_QUBITS = 24

_UINT64_MASK = (1 << 64) - 1


# ---------------------------------------------------------------------------
# state


@dataclass
class StateVector:
    """A pure state on ``num_qubits`` qubits as a flat complex128 array, or
    a batch of states as an array of shape (*batch, 2**num_qubits)."""

    num_qubits: int
    amps: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


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
    passed at application time ("u3" takes three, "cnot" none).
    """

    kind: str
    qubits: tuple[int, ...]
    param_slots: tuple[int, ...] = ()

    def __post_init__(self):
        expected = {"u3": (1, 3), "cnot": (2, 0)}
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


def u3(qubit: int, slot_theta: int, slot_phi: int, slot_lam: int) -> GateOp:
    return GateOp("u3", (qubit,), (slot_theta, slot_phi, slot_lam))


def cnot(control: int, target: int) -> GateOp:
    return GateOp("cnot", (control, target))


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [ct, -np.exp(1j * lam) * st],
            [np.exp(1j * phi) * st, np.exp(1j * (phi + lam)) * ct],
        ],
        dtype=np.complex128,
    )


#: CNOT on the basis |control target>.
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def gate_matrix(op: GateOp, params) -> np.ndarray:
    """Dense matrix for ``op`` with its angles bound from ``params``."""
    if op.kind == "u3":
        a, b, c = (float(params[s]) for s in op.param_slots)
        return u3_matrix(a, b, c)
    return CNOT_MATRIX


#: amplitudes one batched kernel call may hold (2**13 complex128 = 128 KiB);
#: read only by ``row_runs``, which splits larger batches into runs of whole rows
BATCH_AMPLITUDES = 1 << 13


def _rotation_slots(gates) -> np.ndarray:
    """(theta, phi, lam) parameter slots of every U3 in ``gates``, in order,
    shape (G, 3)."""
    return np.array(
        [op.param_slots for op in gates if op.kind == "u3"], dtype=np.intp
    ).reshape(-1, 3)


def _rotation_entries(
    slots: np.ndarray, params: np.ndarray, ndim: int, d_theta: bool = False
) -> np.ndarray:
    """Entries (m00, m01, m10, m11) of the U3 rotations at ``slots``, or of
    their derivatives in the polar angle if ``d_theta``.

    ``params`` has shape (*batch, P); the result has shape
    (G, 4, *batch, 1, ..., 1), so that ``entries[g, i]`` broadcasts against
    one half of a batched tensor of rank ``ndim``.
    """
    batch = params.shape[:-1]
    ang = params.transpose((-1,) + tuple(range(len(batch))))[slots]  # (G, 3, *batch)
    half = 0.5 * ang[:, 0]
    ct, st = np.cos(half), np.sin(half)
    if d_theta:
        ct, st = -0.5 * st, 0.5 * ct
    phase = np.exp(1j * ang[:, 1:])  # e^{i phi}, e^{i lam}
    entries = np.empty((len(slots), 4) + batch, dtype=np.complex128)
    entries[:, 0] = ct
    entries[:, 1] = -phase[:, 1] * st
    entries[:, 2] = phase[:, 0] * st
    entries[:, 3] = np.exp(1j * (ang[:, 1] + ang[:, 2])) * ct
    return entries.reshape(entries.shape + (1,) * (ndim - len(batch) - 1))


def _halves(tensor: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of ``tensor`` at 0 and at 1 on ``axis``."""
    lo = (slice(None),) * axis + (0,)
    hi = (slice(None),) * axis + (1,)
    return tensor[lo], tensor[hi]


def _rotate(tensor: np.ndarray, axis: int, m) -> np.ndarray:
    """A new tensor with the 2x2 matrix ``m = (m00, m01, m10, m11)`` applied
    on ``axis``.

    Each output amplitude combines the two amplitudes of its own sample, so
    a sample's values do not depend on the batch around it.
    """
    a0, a1 = _halves(tensor, axis)
    out = np.empty(tensor.shape, dtype=np.complex128)
    out0, out1 = _halves(out, axis)
    out0[...] = m[0] * a0 + m[1] * a1
    out1[...] = m[2] * a0 + m[3] * a1
    return out


def _cnot(tensor: np.ndarray, control: int, target: int) -> np.ndarray:
    """A new tensor with the target axis flipped where the control axis is 1."""
    sel = [slice(None)] * tensor.ndim
    sel[control] = 1
    sel[target] = 0
    flip0 = tuple(sel)
    sel[target] = 1
    flip1 = tuple(sel)
    out = np.array(tensor, dtype=np.complex128)
    out[flip0] = tensor[flip1]
    out[flip1] = tensor[flip0]
    return out


def _batch_axes(tensor: np.ndarray, params: np.ndarray) -> int:
    """The number of leading batch axes: one per leading axis of ``params``,
    each of the tensor's size or 1."""
    axes = params.ndim - 1
    batch = tensor.shape[:axes]
    if len(batch) < axes or any(p not in (1, t) for p, t in zip(params.shape, batch)):
        raise LcqnnError(
            f"a batch of shape {batch} needs parameters of shape "
            f"{batch + ('P',)}, or 1 on a shared axis, got {params.shape}"
        )
    return axes


def apply_gates(tensor: np.ndarray, gates, params) -> np.ndarray:
    """Apply ``gates`` in order to a rank-(2,2,...,2) tensor, or to a batch.

    Unbatched: ``tensor`` of shape (2,...,2) and ``params`` of shape (P,).
    Batched: ``tensor`` of shape (*batch, 2,...,2) and ``params`` of shape
    (*batch, P), where a parameter axis of size 1 shares its angles along
    that batch axis; row ``r`` binds its angles from ``params[r]``, and rows
    never mix, so a row's result is the same in any batch. Each gate's
    qubits are axes of one row's tensor. A row may be a sample, a branch, an
    (example, branch) pair, or the block of a larger register at one value
    of its leading (control) qubits: a controlled circuit is the batch whose
    rows carry their own angles. The input is not modified.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim == 1:
        return apply_gates(tensor[None], gates, params[None])[0]
    axes = _batch_axes(tensor, params)
    entries = _rotation_entries(_rotation_slots(gates), params, tensor.ndim)
    k = 0
    for op in gates:
        if op.kind == "cnot":
            tensor = _cnot(tensor, op.qubits[0] + axes, op.qubits[1] + axes)
        else:
            tensor = _rotate(tensor, op.qubits[0] + axes, entries[k])
            k += 1
    return tensor


def row_runs(count: int, row_amps: int) -> list[slice]:
    """Consecutive runs of ``count`` rows of ``row_amps`` amplitudes each,
    every run holding at most ``BATCH_AMPLITUDES`` amplitudes (one row at
    least). Rows never mix, so the runs a batch splits into cannot change a
    value."""
    step = max(1, BATCH_AMPLITUDES // row_amps)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def diagonal_expectations(num_qubits: int, gates, params, diag: np.ndarray) -> np.ndarray:
    """``diag . |U(params[b]) |0...0>|**2`` on ``num_qubits`` qubits for each
    row ``b`` of ``params``, shape (*batch, P) to ``batch``, evaluated in the
    ``row_runs`` of the flattened batch."""
    params = np.asarray(params, dtype=np.float64)
    rows = params.reshape(math.prod(params.shape[:-1]), params.shape[-1])
    psi_in = init_zero(num_qubits).amps.reshape((2,) * num_qubits)
    out = np.empty(len(rows))
    for run in row_runs(len(rows), psi_in.size):
        part = rows[run]
        batch = np.broadcast_to(psi_in, (part.shape[0],) + psi_in.shape)
        psi = apply_gates(batch, gates, part).reshape(part.shape[0], -1)
        out[run] = np.sum(diag * np.abs(psi) ** 2, axis=-1)
    return out.reshape(params.shape[:-1])


def adjoint_gradient(psi: np.ndarray, gates, params, diag) -> tuple:
    """Values ``diag . |psi|**2`` and their gradients in ``params``, read
    from the forward output ``psi = apply_gates(tensor, gates, params)``.

    Batched like ``apply_gates``: ``psi`` of shape (*batch, 2,...,2),
    ``params`` of shape (*batch, P) with 1 on a shared axis, and ``diag`` a
    real diagonal of length 2**n that broadcasts to (*batch, 2**n), so each
    row may carry its own; the result is the values, shape ``batch``, and
    the gradients, shape (*batch, P). Unbatched, ``psi`` of shape (2,...,2)
    and ``params`` of shape (P,) give a float and a (P,) gradient.

    The backward sweep carries ``diag * psi`` back through the inverse gates
    and uncomputes ``psi`` beside it, so it stores no state per gate
    (adjoint differentiation, Jones & Gacon, arXiv:2009.02823). Rows never
    mix and run in the ``row_runs`` of the first axis, so a row's result is
    the same in any batch.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim == 1:
        values, grads = adjoint_gradient(psi[None], gates, params[None], diag)
        return float(values[0]), grads[0]
    axes = _batch_axes(psi, params)
    batch = psi.shape[:axes]
    size = math.prod(psi.shape[axes:])
    diag = np.broadcast_to(np.asarray(diag, dtype=np.float64), batch + (size,))
    slots = _rotation_slots(gates)
    values = np.empty(batch)
    grads = np.zeros(batch + params.shape[-1:])
    for part in row_runs(batch[0], math.prod(psi.shape[1:])):
        values[part] = _backward_sweep(
            psi[part], gates, slots, params if len(params) == 1 else params[part],
            diag[part], grads[part],
        )
    return values, grads


def _backward_sweep(psi, gates, slots, params, diag, grads) -> np.ndarray:
    """One sub-batch of ``adjoint_gradient``: adds each row's gradient into
    ``grads`` and returns its values."""
    axes = params.ndim - 1
    batch = psi.shape[:axes]
    flat = psi.reshape(batch + (-1,))
    values = np.sum(diag * np.abs(flat) ** 2, axis=-1)
    lam = (diag * flat).reshape(psi.shape)
    entries = _rotation_entries(slots, params, psi.ndim)
    d_theta = _rotation_entries(slots, params, psi.ndim, d_theta=True)
    shared = (4,) + params.shape[:-1]
    k = len(entries)
    for op in reversed(gates):
        if op.kind == "cnot":
            control, target = op.qubits[0] + axes, op.qubits[1] + axes
            psi, lam = _cnot(psi, control, target), _cnot(lam, control, target)
            continue
        k -= 1
        axis = op.qubits[0] + axes
        # the inverse of a rotation: its conjugate transpose
        inverse = entries[k][[0, 2, 1, 3]].conj()
        psi = _rotate(psi, axis, inverse)
        # <lam| dU |psi> = sum_ij dU_ij <lam_i|psi_j> over the halves i, j
        lam0, lam1 = (half.conj() for half in _halves(lam, axis))
        psi0, psi1 = _halves(psi, axis)
        s00, s01, s10, s11 = (
            np.sum((a * b).reshape(batch + (-1,)), axis=-1)
            for a, b in ((lam0, psi0), (lam0, psi1), (lam1, psi0), (lam1, psi1))
        )
        m = entries[k].reshape(shared)
        d = d_theta[k].reshape(shared)
        # d/dphi multiplies the bottom row by i, d/dlam the right column
        parts = (
            d[0] * s00 + d[1] * s01 + d[2] * s10 + d[3] * s11,
            1j * (m[2] * s10 + m[3] * s11),
            1j * (m[1] * s01 + m[3] * s11),
        )
        for slot, part in zip(slots[k], parts):
            grads[..., slot] += 2.0 * part.real
        lam = _rotate(lam, axis, inverse)
    return values


def apply_gate(state: StateVector, op: GateOp, params=()) -> StateVector:
    """Return a new state with ``op`` applied."""
    for q in op.qubits:
        if not 0 <= q < state.num_qubits:
            raise LcqnnError(
                f"gate qubit {q} out of range for a {state.num_qubits}-qubit state"
            )
    out = apply_gates(state.amps.reshape((2,) * state.num_qubits), (op,), params)
    return StateVector(state.num_qubits, np.ascontiguousarray(out.reshape(-1)))


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
    """<state| I (x) obs |state>, with obs on the trailing sub-register, of
    one state (not a batch)."""
    if state.amps.ndim != 1:
        raise LcqnnError(f"expectation takes one state, not amplitudes {state.amps.shape}")
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


# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words32(value: int) -> list[int]:
    """SeedSequence's split of a non-negative int: 32-bit words, low first,
    one word for zero."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pool_seeds(entropy: list, five_words) -> np.ndarray:
    """The four uint64 words PCG64 asks of ``SeedSequence(key)``, one row
    per key, for keys given as uint32 word columns.

    ``entropy`` holds four or five word arrays, zero-padded, which is what
    SeedSequence's pool does with a short key; a fifth word counts only
    where ``five_words`` is true.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [np.where(five_words, mix(p, hashmix(word)), p) for p in pool]

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append(value ^ (value >> 16))
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _pcg64_generator():
    """A function from four uint64 seed words to a PCG64 Generator, the one
    ``default_rng(SeedSequence(key))`` builds when those words are the
    key's. Built at first use, so ``import lcqnn`` leaves ``numpy.random``
    unloaded."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for exactly 4 uint64 words

    return lambda words: Generator(PCG64(SeedWords(words)))


def chunk_generators(root_seed: int, lo: int, hi: int, components) -> list[list]:
    """Generators of samples ``lo .. hi-1``, one row per listed component:
    row ``c``, column ``b`` draws exactly what
    ``RngStream(root_seed, lo + b).component_generator(components[c])`` does.

    One uint32 array pass hashes every (sample, component) key of the chunk,
    in place of one SeedSequence each; only the PCG64 set-up stays per
    stream. Sample indices may take one or two 32-bit words.
    """
    components = [int(c) for c in components]
    if not 0 <= lo <= hi <= 1 << 64:
        raise LcqnnError(f"sample range {lo}..{hi} is not within 0..2**64")
    if any(not 0 <= c <= _MASK32 for c in components):
        raise LcqnnError(f"components must lie in 0..2**32-1, got {components}")
    batch = hi - lo
    index = np.tile(np.arange(lo, hi, dtype=np.uint64), len(components))
    component = np.repeat(np.array(components, dtype=np.uint32), batch)
    low = (index & np.uint64(_MASK32)).astype(np.uint32)
    high = (index >> np.uint64(32)).astype(np.uint32)
    two_words = high != 0
    seed = [np.full(index.size, w, dtype=np.uint32) for w in _words32(root_seed & _UINT64_MASK)]
    entropy = seed + [
        low,
        np.where(two_words, high, component),
        np.where(two_words, component, np.uint32(0)),
    ]
    seeds = _pool_seeds(entropy, two_words)
    make = _pcg64_generator()
    gens = [make(words) for words in seeds]
    return [gens[c * batch : (c + 1) * batch] for c in range(len(components))]


def ginibre(dim: int, gen: np.random.Generator) -> np.ndarray:
    """A (dim, dim) complex Ginibre matrix with unit-variance entries: the
    real parts are drawn from ``gen`` first, then the imaginary parts."""
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    z /= math.sqrt(2.0)
    return z


def haar_columns(z: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of a stack of Ginibre matrices, shape
    (..., d, k), by QR with the R-diagonal phases divided out.

    Column j of Q depends only on Ginibre columns 0..j, so the leading k
    columns of a Haar unitary need only the leading k columns of its draw.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Sample a Haar-distributed unitary via QR of a complex Ginibre matrix.

    ``rng`` may be an RngStream or a numpy Generator. The R-diagonal phases
    are divided out so the distribution is exactly Haar, not merely unitary.
    """
    if dim < 1:
        raise LcqnnError(f"dim must be >= 1, got {dim}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return haar_columns(ginibre(dim, gen))
