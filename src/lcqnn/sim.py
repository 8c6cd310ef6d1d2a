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


def check_width(num_qubits: int) -> None:
    """Reject a register width before anything of size 2**num_qubits exists."""
    if num_qubits < 0:
        raise LcqnnError(f"num_qubits must be non-negative, got {num_qubits}")
    if num_qubits > MAX_QUBITS:
        raise CapacityError(
            f"num_qubits={num_qubits} exceeds the supported maximum of {MAX_QUBITS}"
        )


def init_zero(num_qubits: int) -> StateVector:
    """Return |0...0> on ``num_qubits`` qubits."""
    check_width(num_qubits)
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


#: amplitudes one batched kernel run may hold (2**13 complex128 = 128 KiB);
#: read only by ``_row_runs``, which splits larger stacks into runs of whole rows
BATCH_AMPLITUDES = 1 << 13


def _rotation_slots(gates) -> np.ndarray:
    """(theta, phi, lam) parameter slots of every U3 in ``gates``, in order,
    flat, shape (3G,)."""
    return np.array([s for op in gates if op.kind == "u3" for s in op.param_slots], dtype=np.intp)


def rotation_entries(angles: np.ndarray, d_theta: bool = False) -> np.ndarray:
    """Entries (m00, m01, m10, m11) of the U3 rotations whose (theta, phi,
    lam) are the consecutive triples on the last axis of ``angles``, shape
    (*batch, 3G), as shape (G, 4, *batch), so that ``entries[g, i]``
    broadcasts against one half of a run in ``_sweep_view``'s rows-last
    layout; with ``d_theta``, those of their derivatives in the polar angle
    follow from the same trig pass, shape (G, 8, *batch). An entry depends
    on its own triple alone, so rows read from a table equal their own pass."""
    batch = angles.shape[:-1]
    ang = np.moveaxis(angles, -1, 0).reshape((angles.shape[-1] // 3, 3) + batch)
    half = 0.5 * ang[:, 0]
    ct, st = np.cos(half), np.sin(half)
    phase = np.exp(1j * ang[:, 1:])  # e^{i phi}, e^{i lam}
    both = np.exp(1j * (ang[:, 1] + ang[:, 2]))
    entries = np.empty((len(ang), 8 if d_theta else 4) + batch, dtype=np.complex128)
    for i in range(0, entries.shape[1], 4):
        entries[:, i] = ct
        entries[:, i + 1] = -phase[:, 1] * st
        entries[:, i + 2] = phase[:, 0] * st
        entries[:, i + 3] = both * ct
        ct, st = -0.5 * st, 0.5 * ct  # then the polar derivative's factors
    return entries


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
    out = np.array(tensor, dtype=np.complex128, order="C")
    out[flip0] = tensor[flip1]
    out[flip1] = tensor[flip0]
    return out


def _sweep_view(run: np.ndarray, axes: int) -> tuple[np.ndarray, int, tuple]:
    """``run`` as a sweep holds it, the axis of its qubit 0 and its entries'
    trailing ones: batch axes last if it has 8 rows or more, so that ufuncs
    loop over rows (from 8 rows on as fast or faster at 5-10 qubits), else
    first, so that they loop over amplitudes (2 rows of 10-12: 1.3-1.5x faster)."""
    if math.prod(run.shape[:axes]) >= 8:
        return run.transpose(tuple(range(axes, run.ndim)) + tuple(range(axes))), 0, ()
    return run, axes, (1,) * (run.ndim - axes - 1)


def _batch_axes(tensor: np.ndarray, params: np.ndarray) -> int:
    """The number of leading batch axes: one per leading axis of ``params``,
    at least one, each of the tensor's size or 1."""
    if params.ndim < 2:
        raise LcqnnError(f"parameters need a row axis, shape (*batch, P), got {params.shape}")
    axes = params.ndim - 1
    batch = tensor.shape[:axes]
    if len(batch) < axes or any(p not in (1, t) for p, t in zip(params.shape, batch)):
        raise LcqnnError(
            f"a batch of shape {batch} needs parameters of shape "
            f"{batch + ('P',)}, or 1 on a shared axis, got {params.shape}"
        )
    return axes


def _row_runs(count: int, row_amps: int, entries: np.ndarray):
    """Consecutive runs of ``count`` rows of ``row_amps`` amplitudes each,
    every run holding at most ``BATCH_AMPLITUDES`` amplitudes (one row at
    least), each with its rows of ``entries`` (axis 2, as ``rotation_entries``
    gives them), or all of them on a shared axis of size 1. Rows never mix,
    so the runs a stack splits into cannot change a value."""
    step = max(1, BATCH_AMPLITUDES // row_amps)
    for lo in range(0, count, step):
        run = slice(lo, lo + step)
        yield run, entries if entries.shape[2] == 1 else entries[:, :, run]


def apply_gates(tensor: np.ndarray, gates, params) -> np.ndarray:
    """Apply ``gates`` in order to a stack of rank-(2,2,...,2) tensors.

    ``tensor`` has shape (*batch, 2,...,2) and ``params`` shape (*batch, P),
    where a parameter axis of size 1 shares its angles along that batch
    axis; row ``r`` binds its angles from ``params[r]``, and rows never mix,
    so a row's result is the same in any batch. Each gate's qubits are axes
    of one row's tensor. A row may be a sample, a branch, an (example,
    branch) pair, or the block of a larger register at one value of its
    leading (control) qubits: a controlled circuit is the batch whose rows
    carry their own angles. One trig pass binds every row's rotations, then
    ``_apply_entries`` runs the gates; the input is not modified.
    """
    params = np.asarray(params, dtype=np.float64)
    _batch_axes(tensor, params)
    return _apply_entries(tensor, gates, rotation_entries(params[..., _rotation_slots(gates)]))


def _apply_entries(tensor: np.ndarray, gates, entries: np.ndarray) -> np.ndarray:
    """``apply_gates`` with the rotations bound: ``entries`` are the
    ``rotation_entries`` of the U3s of ``gates`` at every row, shape
    (G, 4, *batch), with 1 on a shared batch axis. The first axis runs in
    ``_row_runs``, laid out by ``_sweep_view``, into one new C-order array;
    each run reads its slice of ``entries``."""
    axes = entries.ndim - 2
    out = np.empty(tensor.shape, dtype=np.complex128)
    for part, rows in _row_runs(len(tensor), math.prod(tensor.shape[1:]), entries):
        run, lead, ones = _sweep_view(tensor[part], axes)
        rows = rows.reshape(rows.shape + ones)
        k = 0
        for op in gates:
            if op.kind == "cnot":
                run = _cnot(run, op.qubits[0] + lead, op.qubits[1] + lead)
            else:
                run = _rotate(run, op.qubits[0] + lead, rows[k])
                k += 1
        _sweep_view(out[part], axes)[0][...] = run
    return out


def diagonal_readout(diag: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``sum(diag * |psi|**2)`` over the last axis: each state's expectation
    of a diagonal observable, for states in any leading batch layout."""
    return np.sum(diag * np.abs(psi) ** 2, axis=-1)


def diagonal_expectations(num_qubits: int, gates, entries, diag: np.ndarray) -> np.ndarray:
    """``diag . |U |0...0>|**2`` on ``num_qubits`` qubits for each row of
    ``entries``, the ``rotation_entries`` of the U3s of ``gates``, shape
    (G, 4, *batch) to ``batch``, evaluated in the ``_row_runs`` of the
    flattened batch, each read out before the next runs, so only one run's
    states are held at a time."""
    batch = entries.shape[2:]
    rows = entries.reshape(entries.shape[:2] + (math.prod(batch),))
    psi_in = init_zero(num_qubits).amps.reshape((2,) * num_qubits)
    out = np.empty(rows.shape[2])
    for run, part in _row_runs(len(out), psi_in.size, rows):
        tensor = np.broadcast_to(psi_in, (part.shape[2],) + psi_in.shape)
        psi = _apply_entries(tensor, gates, part).reshape(len(tensor), -1)
        out[run] = diagonal_readout(diag, psi)
    return out.reshape(batch)


def adjoint_gradient(psi: np.ndarray, gates, params, diag) -> tuple:
    """Values ``diag . |psi|**2`` and their gradients in ``params``, read
    from the forward output ``psi = apply_gates(tensor, gates, params)``.

    A stack like ``apply_gates``: ``psi`` of shape (*batch, 2,...,2),
    ``params`` of shape (*batch, P) with 1 on a shared axis, and ``diag`` a
    real diagonal of length 2**n that broadcasts to (*batch, 2**n), so each
    row may carry its own; the result is the values, shape ``batch``, and
    the gradients, shape (*batch, P).

    The backward sweep carries ``diag * psi`` back through the inverse gates
    and uncomputes ``psi`` beside it, so it stores no state per gate
    (adjoint differentiation, Jones & Gacon, arXiv:2009.02823). Rows never
    mix and run in the ``_row_runs`` of the first axis, so a row's result is
    the same in any batch.
    """
    params = np.asarray(params, dtype=np.float64)
    axes = _batch_axes(psi, params)
    batch = psi.shape[:axes]
    size = math.prod(psi.shape[axes:])
    diag = np.broadcast_to(np.asarray(diag, dtype=np.float64), batch + (size,))
    slots = _rotation_slots(gates)
    entries = rotation_entries(params[..., slots], d_theta=True)
    values = np.empty(batch)
    grads = np.zeros(batch + params.shape[-1:])
    for part, rows in _row_runs(batch[0], math.prod(psi.shape[1:]), entries):
        values[part] = _backward_sweep(psi[part], gates, slots, rows, diag[part], grads[part])
    return values, grads


def _backward_sweep(psi, gates, slots, entries, diag, grads) -> np.ndarray:
    """One run of ``adjoint_gradient``: adds each row's gradient into
    ``grads`` and returns its values, sweeping the ``_sweep_view`` layout;
    ``entries`` are the run's ``rotation_entries`` with their derivatives.

    The sweep carries ``conj(lam)`` back through each rotation's transpose,
    the conjugate of its inverse, so the overlaps ``<lam_i|psi_j>`` of a
    gate's halves are plain products. Each U3 keeps its four overlap sums,
    and the three gradient parts of every U3 are read from them in one pass
    after the sweep."""
    axes = entries.ndim - 2
    batch = psi.shape[:axes]
    flat = psi.reshape(batch + (-1,))
    values = diagonal_readout(diag, flat)
    lam = diag * flat
    np.conj(lam, out=lam)
    lam, lead, ones = _sweep_view(lam.reshape(psi.shape), axes)
    psi, last = _sweep_view(psi, axes)[0], axes - lead
    m, d = entries[:, :4], entries[:, 4:]
    transposed = m[:, [0, 2, 1, 3]].reshape(m.shape + ones)
    # the inverse of a rotation: its conjugate transpose
    inverse = transposed.conj()
    # one gate's products, rows first and C order, so each row sums in the
    # order of a (*batch, 2**n) stack; written through a view in sweep layout
    products = np.empty((4,) + batch + (2,) * (psi.ndim - axes - 1), dtype=np.complex128)
    in_sweep = np.moveaxis(products, range(1, last + 1), range(-last, 0))
    sums = np.empty((len(m), 4) + batch, dtype=np.complex128)
    k = len(m)
    for op in reversed(gates):
        if op.kind == "cnot":
            control, target = op.qubits[0] + lead, op.qubits[1] + lead
            psi, lam = _cnot(psi, control, target), _cnot(lam, control, target)
            continue
        k -= 1
        axis = op.qubits[0] + lead
        psi = _rotate(psi, axis, inverse[k])
        halves = _halves(lam, axis) + _halves(psi, axis)
        for i, (a, b) in enumerate(((0, 2), (0, 3), (1, 2), (1, 3))):
            np.multiply(halves[a], halves[b], out=in_sweep[i])
        np.sum(products.reshape((4,) + batch + (-1,)), axis=-1, out=sums[k])
        lam = _rotate(lam, axis, transposed[k])
    # <lam| dU |psi> = sum_ij dU_ij <lam_i|psi_j>; d/dphi multiplies the
    # bottom row of U by i, d/dlam its right column
    s00, s01, s10, s11 = np.moveaxis(sums, 1, 0)
    parts = np.stack(
        (
            d[:, 0] * s00 + d[:, 1] * s01 + d[:, 2] * s10 + d[:, 3] * s11,
            1j * (m[:, 2] * s10 + m[:, 3] * s11),
            1j * (m[:, 1] * s01 + m[:, 3] * s11),
        ),
        axis=1,
    )
    # added in the sweep's order: gates last to first, then theta, phi, lam
    order = slots.reshape(-1, 3)[::-1].ravel()
    added = 2.0 * parts[::-1].real.reshape((-1,) + batch)
    np.add.at(np.moveaxis(grads, -1, 0), order, added)
    return values


def apply_gate(state: StateVector, op: GateOp, params=()) -> StateVector:
    """Return a new state with ``op`` applied."""
    for q in op.qubits:
        if not 0 <= q < state.num_qubits:
            raise LcqnnError(
                f"gate qubit {q} out of range for a {state.num_qubits}-qubit state"
            )
    out = apply_gates(state.amps.reshape((1,) + (2,) * state.num_qubits), (op,), [params])
    return StateVector(state.num_qubits, out.reshape(-1))


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
        check_width(num_qubits)
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
        self._diag = None

    def diagonal(self) -> np.ndarray:
        """The operator's diagonal, built on the first call; read-only."""
        if self._diag is None:
            diag = np.zeros(1 << self.num_qubits)
            for weight, qubits in self.terms:
                diag += weight * _z_signs(self.num_qubits, qubits)
            diag.flags.writeable = False
            self._diag = diag
        return self._diag

    def describe(self) -> str:
        parts = []
        for w, qs in self.terms:
            body = "".join(f"Z{q}" for q in qs) or "I"
            parts.append(body if w == 1.0 else f"{w:g}*{body}")
        return "+".join(parts)


def expectation(state: StateVector, obs: PauliZSum) -> float | np.ndarray:
    """<state| I (x) obs |state>, with obs on the trailing sub-register.

    Leading axes of ``state.amps`` are a batch: amplitudes of shape
    (*batch, 2**q) give values of shape ``batch`` (one state gives a float),
    each summed per state, so no value depends on the batch around it."""
    if obs.num_qubits > state.num_qubits:
        raise LcqnnError(
            f"observable on {obs.num_qubits} qubit(s) does not fit a "
            f"{state.num_qubits}-qubit state"
        )
    amps = state.amps
    idle = state.num_qubits - obs.num_qubits
    rows = amps.reshape(amps.shape[:-1] + (1 << idle, 1 << obs.num_qubits))
    marginal = np.sum(np.abs(rows) ** 2, axis=-2)
    values = np.sum(obs.diagonal() * marginal, axis=-1)
    return float(values) if values.ndim == 0 else values


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


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constants ``init * mult**i`` mod 2**32
    for i = 0 .. count, as a uint32 column: the i-th hash XORs with row i
    and multiplies by row i + 1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _pool_seeds(entropy: list, size) -> np.ndarray:
    """The four uint64 words PCG64 asks of ``SeedSequence(key)``, one row
    per key, for keys given as uint32 word columns.

    ``entropy`` holds at least four word arrays, zero-padded, which is what
    SeedSequence's pool does with a short key; word ``i >= 4`` counts only
    where ``i < size``, the key's word count. Successive hashes of values
    that do not change in between run as one array, a row per hash constant.
    """
    # 4 pool words, 4 x 3 cross mixes, then 4 hashes of each later word
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy))

    def hashmix(value, first: int, count: int):
        value = (value ^ consts[first : first + count]) * consts[first + 1 : first + count + 1]
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    pool = hashmix(np.stack(entropy[:4]), 0, 4)
    for src in range(4):
        # pool[src] stays fixed while it mixes into the other three words
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for i in range(4, len(entropy)):
        pool = np.where(i < size, mix(pool, hashmix(entropy[i], 4 * i, 4)), pool)

    out = _hash_constants(_INIT_B, _MULT_B, 8)
    value = (np.tile(pool, (2, 1)) ^ out[:8]) * out[1:]
    state = value ^ (value >> 16)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _pcg64_generator():
    """A function from four uint64 seed words to a PCG64 Generator, the one
    ``default_rng(SeedSequence(key))`` builds when those words are the
    key's. Built at first use, so ``import lcqnn`` and every run but a Haar
    ``group-scan`` leave ``numpy.random`` unloaded."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for exactly 4 uint64 words

    return lambda words: Generator(PCG64(SeedWords(words)))


def chunk_seeds(root_seed: int, lo: int, hi: int, components) -> np.ndarray:
    """The four uint64 words PCG64 takes from each stream's SeedSequence,
    shape (C, B, 4): entry ``[c, b]`` seeds
    ``RngStream(root_seed, lo + b).component_generator(components[c])``.

    One uint32 array pass hashes every (sample, component) key of the chunk,
    in place of one SeedSequence each. Sample indices may take one or two
    32-bit words.
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
    return _pool_seeds(entropy, len(seed) + 2 + two_words).reshape(len(components), batch, 4)


def chunk_generators(words) -> list:
    """A Generator per row of seed words, shape (B, 4): entry ``b`` draws
    exactly what ``Generator(PCG64(words[b]))`` does, which for a row of a
    ``chunk_seeds`` component is its ``RngStream`` component generator.

    Only the Haar blocks' normals need these: the ziggurat takes a varying
    number of words per normal, so unlike ``pcg64_random`` it cannot jump
    ahead, and each stream runs its own Generator.
    """
    make = _pcg64_generator()
    return [make(row) for row in words]


# PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
# Good Algorithms for Random Number Generation", HMC-CS-2014-0905): a 128-bit
# LCG, state -> M * state + inc with inc odd, each step yielding its XSL-RR
# output. t steps take a state s to A_t * s + G_t * inc, with A_t = M**t and
# G_t = 1 + M + ... + M**(t-1) mod 2**128 (Brown, "Random Number Generation
# with Arbitrary Strides", Trans. Am. Nucl. Soc. 71, 1994).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: draws per block of step constants: ``pcg64_random`` computes a row's
#: first block from the constants and each later block from the one before
DRAW_BLOCK = 128
#: blocks a ``Pcg64Stream`` computes at least per refill, one row each
STREAM_ROWS = 8


@lru_cache(maxsize=None)
def _step_table() -> tuple:
    """``(A_t, G_t)`` for t = 2 .. DRAW_BLOCK + 1, each a tuple of uint64
    arrays ``(low word, its low 32 bits, its high 32 bits, high word)``.
    Built at the first draw, with Python ints."""
    a, g = _PCG_MULT, 1
    steps = []
    for _ in range(DRAW_BLOCK):
        a, g = a * _PCG_MULT & _MASK128, (g * _PCG_MULT + 1) & _MASK128
        steps.append((a, g))

    def limbs(values):
        low = np.array([v & _UINT64_MASK for v in values], dtype=np.uint64)
        high = np.array([v >> 64 for v in values], dtype=np.uint64)
        return low, low & _MASK32, low >> 32, high

    return tuple(limbs(column) for column in zip(*steps))


def _mul128(const, value) -> tuple:
    """``const * value`` mod 2**128 as (high, low) uint64 words, for
    ``const`` in ``_step_table`` limbs and ``value`` a (high, low) pair of
    arrays that broadcast against them. The high word of the low words'
    product is summed from 32-bit halves."""
    c_lo, c0, c1, c_hi = const
    x_hi, x_lo = value
    x0, x1 = x_lo & _MASK32, x_lo >> 32
    p00 = c0 * x0
    mid = c1 * x0 + (p00 >> 32)
    cross = c0 * x1 + (mid & _MASK32)
    high = c1 * x1 + (mid >> 32) + (cross >> 32)
    return high + c_lo * x_hi + c_hi * x_lo, c_lo * x_lo


def _add128(x, y) -> tuple:
    """``x + y`` mod 2**128 of two (high, low) pairs."""
    low = x[1] + y[1]
    return x[0] + y[0] + (low < y[1]), low


def _xsl_rr(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """PCG64's 64-bit XSL-RR outputs at the given states."""
    mixed = high ^ low
    rot = high >> 58
    return (mixed >> rot) | (mixed << ((64 - rot) & 63))


def _doubles(words: np.ndarray) -> np.ndarray:
    """NumPy's doubles in [0, 1) from raw words: their top 53 bits, scaled."""
    return (words >> 11) * (1.0 / 9007199254740992.0)


def _pcg64_words(base: tuple, inc: tuple, size: int) -> np.ndarray:
    """Raw PCG64 outputs, shape (B, size), for (high, low) pairs of uint64
    columns ``base`` and ``inc``: word t of row b is the output at the
    state ``A_{t+2} * base[b] + G_{t+2} * inc[b]``."""
    out = np.empty((len(base[1]), size), dtype=np.uint64)
    a_table, g_table = _step_table()
    width = min(size, DRAW_BLOCK)
    state = _add128(
        _mul128([limb[:width] for limb in a_table], base),
        _mul128([limb[:width] for limb in g_table], inc),
    )
    out[:, :width] = _xsl_rr(*state)
    if size > DRAW_BLOCK:
        # each later block is the block before, DRAW_BLOCK steps on; the
        # table's row DRAW_BLOCK - 2 holds t = DRAW_BLOCK
        jump = [limb[DRAW_BLOCK - 2] for limb in a_table]
        jump_inc = _mul128([limb[DRAW_BLOCK - 2] for limb in g_table], inc)
        for start in range(DRAW_BLOCK, size, DRAW_BLOCK):
            state = _add128(_mul128(jump, state), jump_inc)
            out[:, start : start + DRAW_BLOCK] = _xsl_rr(*(w[:, : size - start] for w in state))
    return out


def _pcg64_seed(words) -> tuple:
    """``(init + inc, inc)`` for rows of seed words, as (high, low) uint64 columns:
    PCG64 seeding sets the state to ``inc``, adds ``init`` and steps, and each draw
    steps first, so draw t is at state ``A_{t+2} * (init + inc) + G_{t+2} * inc``."""
    words = np.asarray(words, dtype=np.uint64)
    inc = ((words[:, 2:3] << 1) | (words[:, 3:4] >> 63), (words[:, 3:4] << 1) | 1)
    return _add128((words[:, 0:1], words[:, 1:2]), inc), inc


def pcg64_random(words: np.ndarray, size: int) -> np.ndarray:
    """Doubles in [0, 1), shape (B, size): row ``b`` is bit for bit
    ``Generator(PCG64(w)).random(size)`` for the seed words
    ``w = words[b]`` (a (B, 4) slice of ``chunk_seeds``), so ``2*pi`` times
    it is that Generator's ``.uniform(0, 2*pi, size)``. Every draw of every
    row is a few uint64 array operations, and no Generator is built."""
    return _doubles(_pcg64_words(*_pcg64_seed(words), size))


class Pcg64Stream:
    """What ``Generator(PCG64(w))`` draws for seed words ``w``, bit for bit, from rows
    of DRAW_BLOCK words, each started by one Python-int jump, that ``_pcg64_words`` fills."""

    def __init__(self, words):
        self._base, self._inc = (int(high[0, 0]) << 64 | int(low[0, 0])
                                 for high, low in _pcg64_seed([words]))
        self._words, self._halves = np.empty(0, dtype=np.uint64), []

    @classmethod
    def from_seed(cls, seed: int) -> Pcg64Stream:
        """The stream of ``numpy.random.default_rng(seed)``."""
        if seed < 0:
            raise LcqnnError(f"seed must be non-negative, got {seed}")
        words = _words32(seed)
        entropy = [np.array([w], dtype=np.uint32) for w in words + [0] * (4 - len(words))]
        return cls(_pool_seeds(entropy, len(words))[0])

    def _take(self, count: int) -> np.ndarray:
        """The stream's next ``count`` raw words."""
        if count > len(self._words):
            a, g = (int(t[3][DRAW_BLOCK - 2]) << 64 | int(t[0][DRAW_BLOCK - 2])
                    for t in _step_table())
            bases = [self._base]
            for _ in range(max(STREAM_ROWS, -(-count // DRAW_BLOCK))):
                bases.append((a * bases[-1] + g * self._inc) & _MASK128)
            self._base = bases.pop()
            rows = np.array([[v >> 64, v & _UINT64_MASK] for v in bases + [self._inc]], np.uint64)
            block = _pcg64_words((rows[:-1, :1], rows[:-1, 1:]), (rows[-1:, :1], rows[-1:, 1:]),
                                 DRAW_BLOCK)
            self._words = np.concatenate((self._words, block.ravel()))
        words, self._words = self._words[:count], self._words[count:]
        return words

    def _uint32s(self, count: int) -> list:
        """NumPy's next ``count`` ``next_uint32`` draws, read off a little-endian
        uint32 view of words (low half first); a high half left over is kept."""
        words = np.asarray(self._take((count - len(self._halves) + 1) // 2), "<u8")
        halves = self._halves + words.view("<u4").tolist()
        self._halves = halves[count:]
        return halves[:count]

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """``Generator.uniform(low, high, size)``."""
        return low + (high - low) * _doubles(self._take(size))

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` for one int, by NumPy's 32-bit
        Lemire method, which draws nothing for a range of one."""
        span = high - low
        if not 1 <= span <= 1 << 32:
            raise LcqnnError(f"integers takes 1 to 2**32 values, got {low}..{high}")
        product = 0 if span == 1 else self._uint32s(1)[0] * span
        while product & _MASK32 < (1 << 32) % span:
            product = self._uint32s(1)[0] * span
        return low + (product >> 32)

    def permutation(self, n: int) -> np.ndarray:
        """``Generator.permutation(n)``: Fisher-Yates from the top, each
        swap index drawn by masked rejection on 32-bit draws."""
        order, i = list(range(n)), n - 1
        while i > 0:
            # each of the i steps left takes a draw, so all of these are used
            for draw in self._uint32s(i):
                if (j := draw & ((1 << i.bit_length()) - 1)) <= i:
                    order[i], order[j] = order[j], order[i]
                    i -= 1
        return np.array(order, dtype=np.int64)


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
