"""Model circuits: a coefficient tree on the control register steering
controlled entangling blocks on the working register.

The prepared state is ``sum_j sqrt(p_j(alpha)) |j> (x) U_j(theta_j) |input>``
where the ``p_j`` come from a binary tree of controlled RY rotations and each
branch unitary ``U_j`` is a tensor product of per-group entangling circuits.
The tree acts on |0...0> controls, so the forward pass writes the tree's
amplitudes in closed form, as products of cos/sin path factors; only the
branch circuits run through the gate kernel, and no RY gate runs anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ArchitectureError, LcqnnError
from .sim import (
    GateOp,
    PauliZSum,
    StateVector,
    apply_gates,
    check_width,
    cnot,
    diagonal_expectations,
    expectation,
    init_zero,
    u3,
)

# ---------------------------------------------------------------------------
# coefficient tree


def tree_node(level: int, prefix: int = 0) -> int:
    """Index of the tree node at ``level`` whose path bits read ``prefix``."""
    return (1 << level) - 1 + prefix


def _tree(alpha) -> tuple[np.ndarray, int]:
    """Tree angles (last axis; leading axes are a batch) and the depth of
    the binary tree they fill."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    leaves = alpha.shape[-1] + 1
    if leaves & (leaves - 1):
        raise ArchitectureError(
            f"{alpha.shape[-1]} tree angle(s) do not fill a binary tree"
        )
    return alpha, leaves.bit_length() - 1


def coeff_probabilities(alpha) -> np.ndarray:
    """Closed-form leaf probabilities: products of cos^2/sin^2 path factors.

    ``alpha`` holds one angle per internal node, in ``tree_node`` order, on
    its last axis; any leading axes are a batch, so shape (..., L-1) gives
    (..., L). An angle ``a`` contributes ``cos^2(a)`` to the 0-child and
    ``sin^2(a)`` to the 1-child, so the compiled rotation gate angle is
    ``2a``. Each product runs root first.
    """
    return np.prod(_path_factors(alpha)[1], axis=-2)


@lru_cache(maxsize=None)
def _leaf_paths(tree_depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Node and branch bit on every leaf's root path, each of shape (t, L)."""
    leaves = np.arange(1 << tree_depth)
    levels = np.arange(tree_depth)[:, None]
    nodes = tree_node(levels, leaves >> (tree_depth - levels))
    bits = ((leaves >> (tree_depth - 1 - levels)) & 1).astype(bool)
    nodes.flags.writeable = bits.flags.writeable = False
    return nodes, bits


def _path_factors(alpha) -> tuple[np.ndarray, np.ndarray]:
    """The angle at each level of every leaf's root path and its cos^2 or
    sin^2 factor, each of shape (..., t, L) for angles of shape (..., L-1)."""
    alpha, t = _tree(alpha)
    nodes, bits = _leaf_paths(t)
    a = alpha[..., nodes]
    return a, np.where(bits, np.sin(a) ** 2, np.cos(a) ** 2)


def coeff_probability_gradients(alpha) -> np.ndarray:
    """Jacobian d p_j / d alpha_node, shape (..., L-1, L) for angles of shape
    (..., L-1).

    Row ``node`` is nonzero only on leaves below that node; the node's own
    factor is replaced by its derivative (-sin(2a) on the 0-side, +sin(2a) on
    the 1-side).
    """
    a, factors = _path_factors(alpha)
    t, L = a.shape[-2:]
    nodes, bits = _leaf_paths(t)
    sin2 = np.sin(2 * a)
    derivs = np.where(bits, sin2, -sin2)
    jac = np.zeros(a.shape[:-2] + (L - 1, L))
    leaves = np.arange(L)
    for level in range(t):
        rest = np.prod(factors[..., :level, :], axis=-2) * np.prod(
            factors[..., level + 1 :, :], axis=-2
        )
        jac[..., nodes[level], leaves] = rest * derivs[..., level, :]
    return jac


# ---------------------------------------------------------------------------
# branch blocks


def entangling_gates(qubits, depth: int, slot_base: int = 0) -> list[GateOp]:
    """Hardware-efficient block: per layer one U3 per qubit, then a CNOT ring.

    The ring is q0->q1, ..., q_{last-1}->q_last, q_last->q0; single-qubit
    groups have no entanglers. Parameter slots run layer-major, then qubit,
    then (theta, phi, lam), starting at ``slot_base``.
    """
    qs = list(qubits)
    gates = []
    slot = slot_base
    for _ in range(depth):
        for q in qs:
            gates.append(u3(q, slot, slot + 1, slot + 2))
            slot += 3
        if len(qs) >= 2:
            for i in range(len(qs) - 1):
                gates.append(cnot(qs[i], qs[i + 1]))
            gates.append(cnot(qs[-1], qs[0]))
    return gates


@dataclass(frozen=True)
class LocalBlockSpec:
    """One branch group: an entangling circuit on a subset of working qubits."""

    qubits: tuple[int, ...]
    depth: int

    @property
    def param_count(self) -> int:
        return 3 * len(self.qubits) * self.depth


def default_groups(num_working: int, locality: int) -> tuple[tuple[int, ...], ...]:
    """Contiguous size-``locality`` chunks; a smaller trailing chunk if needed.

    A locality larger than the register degrades to one global group.
    """
    if locality < 1:
        raise ArchitectureError(f"locality must be >= 1, got {locality}")
    return tuple(
        tuple(range(start, min(start + locality, num_working)))
        for start in range(0, num_working, locality)
    )


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class LcqnnModel:
    """A checked architecture (m, n, L, k, D): control width, working width,
    branch count, block locality and depth. Every construction, through
    ``make_model`` or ``dataclasses.replace`` too, runs the checks below; the
    block groups are derived from (n, k, D), never stored."""

    num_controls: int
    num_working: int
    branch_count: int
    locality: int
    depth: int

    def __post_init__(self):
        m, n, L = self.num_controls, self.num_working, self.branch_count
        if n < 1:
            raise ArchitectureError("working register needs at least one qubit")
        if self.depth < 0:
            raise ArchitectureError("depth must be non-negative")
        if m < 0:
            raise ArchitectureError("control register size must be non-negative")
        if L < 1 or (L & (L - 1)) != 0:
            raise ArchitectureError(f"branch_count must be a power of two, got {L}")
        if L > (1 << m):
            raise ArchitectureError(f"branch_count {L} does not fit {m} control qubit(s)")
        if self.locality < 1:
            raise ArchitectureError(f"locality must be >= 1, got {self.locality}")

    @property
    def tree_depth(self) -> int:
        return self.branch_count.bit_length() - 1

    @property
    def num_alpha(self) -> int:
        return self.branch_count - 1

    @cached_property
    def groups(self) -> tuple[LocalBlockSpec, ...]:
        """The block groups of one branch, in slot order."""
        chunks = default_groups(self.num_working, self.locality)
        return tuple(LocalBlockSpec(qubits, self.depth) for qubits in chunks)

    @property
    def branch_param_count(self) -> int:
        """Angles per branch: the groups partition the register, 3 per qubit and layer."""
        return 3 * self.num_working * self.depth


make_model = LcqnnModel  # the checked model, by its older name


def theta_layout_size(model: LcqnnModel) -> int:
    """Flat branch-parameter count: branch_count * 3 * n * D."""
    return model.branch_count * model.branch_param_count


@lru_cache(maxsize=None)
def branch_gates(model: LcqnnModel) -> tuple[GateOp, ...]:
    """Gate list of one branch on the working register, slots 0..stride-1."""
    gates: list[GateOp] = []
    slot = 0
    for spec in model.groups:
        gates.extend(entangling_gates(spec.qubits, spec.depth, slot))
        slot += spec.param_count
    return tuple(gates)


def shared_branch_gates(models) -> tuple[GateOp, ...]:
    """The one branch circuit of ``models``: their ``branch_gates``, which
    they share only if they share their block groups."""
    first = models[0]
    if any(model.groups != first.groups for model in models):
        raise LcqnnError("models of one branch pass must share their block groups")
    return branch_gates(first)


def tree_angles(model: LcqnnModel, alpha) -> np.ndarray:
    """Checked tree angles, one per internal node in ``tree_node`` order, on
    the last axis; leading axes are a batch of parameter rows."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if alpha.shape[-1] != model.num_alpha:
        raise ArchitectureError(
            f"expected {model.num_alpha} tree angles for {model.branch_count} "
            f"branches, got {alpha.shape[-1]}"
        )
    return alpha


def branch_angles(model: LcqnnModel, theta) -> np.ndarray:
    """Checked view of the branch angles, shape (*batch, branch_count, stride)
    for angles of shape (*batch, T): leading axes are a batch of parameter
    rows.

    Row ``j`` is branch ``j``'s block ``theta_j``; ``stride`` is
    ``model.branch_param_count``. Within a row, slots run group by group in
    ``entangling_gates`` order.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.shape[-1] != theta_layout_size(model):
        raise LcqnnError(
            f"expected {theta_layout_size(model)} branch angle(s), got {theta.shape[-1]}"
        )
    return theta.reshape(theta.shape[:-1] + (model.branch_count, model.branch_param_count))


def _check_observable(model: LcqnnModel, obs: PauliZSum) -> None:
    if obs.num_qubits != model.num_working:
        raise LcqnnError(
            f"observable on {obs.num_qubits} qubit(s) must address exactly the "
            f"{model.num_working}-qubit working register"
        )


def working_amps(
    model: LcqnnModel, input_state: StateVector | None = None, obs: PauliZSum | None = None
) -> np.ndarray:
    """Checked amplitudes of a working-register input state (default |0...0>).

    ``obs``, when given, must address exactly the working register.
    """
    n = model.num_working
    if obs is not None:
        _check_observable(model, obs)
    if input_state is None:
        return init_zero(n).amps
    if input_state.num_qubits != n:
        raise LcqnnError(f"input state has {input_state.num_qubits} qubit(s), expected {n}")
    return input_state.amps


def _control_rows(
    model: LcqnnModel, alpha, theta, input_state: StateVector | None
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The tree stage of the forward pass, split into branch rows.

    Returns the batch shape of the parameter rows, the live control rows
    after the coefficient tree as one row of 2**n amplitudes per (parameter
    row, leaf), shape (R, 2**n), and the branch block each row runs, shape
    (R, stride).

    The tree is in closed form: from |0...0> on the controls, its RY(2a)
    rotations leave row ``j << idle`` holding the input times the cos/sin
    factors of leaf ``j``'s root path, root first, and every other row zero.
    Each factor's angle is halved from ``2a``, so it rounds (and overflows
    to NaN) as the rotation's would. The zero rows stay zero under any
    branch, so only the leaf rows are returned.
    """
    alpha = tree_angles(model, alpha)
    blocks = branch_angles(model, theta)
    batch = blocks.shape[:-2]
    if alpha.shape[:-1] != batch:
        raise LcqnnError(
            f"tree angles of batch shape {alpha.shape[:-1]} do not match "
            f"branch angles of batch shape {batch}"
        )
    m, n, t = model.num_controls, model.num_working, model.tree_depth
    check_width(m + n)
    nodes, bits = _leaf_paths(t)
    half = 0.5 * (2.0 * alpha[..., nodes])
    factors = np.where(bits, np.sin(half), np.cos(half))  # (*batch, t, L)
    leaves = np.broadcast_to(working_amps(model, input_state), batch + (1 << t, 1 << n))
    for level in range(t):
        leaves = leaves * factors[..., level, :, None]
    count = math.prod(batch) << t
    return batch, leaves.reshape(count, 1 << n), blocks.reshape(count, blocks.shape[-1])


def forward_states(parts, input_state: StateVector | None = None) -> list[StateVector]:
    """The live forward state of each ``(model, alpha, theta)`` of ``parts``,
    from one branch pass.

    A part's live state holds only the ``2**t`` leaf rows of its control
    register, on ``t + n`` qubits: its row ``j`` is row ``j << (m - t)`` of
    the ``lcqnn_forward`` state, whose other rows are zero. The branch
    unitaries depend only on a model's block groups, so models that share
    them (any control width and branch count) share one branch circuit:
    each part runs its own tree stage, then the leaf rows of every part run
    through that circuit together, in one kernel call. Rows never mix, so
    each state is bit-equal to its own one-part call.
    """
    gates = shared_branch_gates([model for model, _, _ in parts])
    batches, rows, blocks = zip(*(_control_rows(*part, input_state) for part in parts))
    sizes = [len(part) for part in rows]
    tensor = np.concatenate(rows).reshape((sum(sizes),) + (2,) * parts[0][0].num_working)
    out = apply_gates(tensor, gates, np.concatenate(blocks))
    states, lo = [], 0
    for (model, _, _), batch, size in zip(parts, batches, sizes):
        qubits = model.tree_depth + model.num_working
        states.append(StateVector(qubits, out[lo : lo + size].reshape(batch + (1 << qubits,))))
        lo += size
    return states


def branch_sweep(parts) -> tuple[np.ndarray, np.ndarray]:
    """One kernel call over the (input, branch) rows of the ``(model,
    theta, states)`` of ``parts``, whose models share one branch circuit
    and whose ``states`` hold the same number B of working-register input
    rows: row (b, c) runs part ``r``'s ``states[b]`` under its branch ``j``,
    where column block ``r`` of the columns ``c`` holds part ``r``'s L
    branches, each branch's angles shared by every input.

    Returns the output, shape (B, C, 2, ..., 2) over the C columns of all
    parts, and the columns' branch angles, shape (C, stride). The kernel
    splits only the first axis into runs, so the C rows of one input run
    together. Rows never mix, so each row is that of its own one-part call.
    """
    gates = shared_branch_gates([model for model, _, _ in parts])
    n, batch = parts[0][0].num_working, len(parts[0][2])
    rows = np.concatenate(
        [
            np.broadcast_to(states.reshape(batch, 1, -1), (batch, model.branch_count, 1 << n))
            for model, _, states in parts
        ],
        axis=1,
    )
    blocks = np.concatenate([branch_angles(model, theta) for model, theta, _ in parts])
    return apply_gates(rows.reshape(rows.shape[:2] + (2,) * n), gates, blocks[None]), blocks


def lcqnn_forward(
    model: LcqnnModel, alpha, theta, input_state: StateVector | None = None
) -> StateVector:
    """Run the full circuit: coefficient tree, then every controlled branch.

    ``input_state`` is a working-register state (default |0...0>); the control
    register always starts at |0...0>. Leading axes of ``alpha`` and
    ``theta`` are a batch of parameter rows, the same for both: angles of
    shape (*batch, L-1) and (*batch, T) give amplitudes of shape
    (*batch, 2**(m+n)), and rows never mix, so each row is the state of its
    own parameters alone. The live rows of ``forward_states`` land on
    control rows ``j << (m - t)``; every other row is exactly zero.
    """
    live = forward_states([(model, alpha, theta)], input_state)[0].amps
    m, n, t = model.num_controls, model.num_working, model.tree_depth
    batch = live.shape[:-1]
    amps = np.zeros(batch + (1 << m, 1 << n), dtype=np.complex128)
    amps[..., :: 1 << (m - t), :] = live.reshape(batch + (1 << t, 1 << n))
    return StateVector(m + n, amps.reshape(batch + (1 << (m + n),)))


@dataclass(frozen=True)
class LightCone:
    """The block groups that meet an observable, on a register of their own.

    A branch unitary is a tensor product over disjoint groups, so
    ``<0| U_j' O U_j |0>`` depends only on the groups that meet a term of
    ``O``: ``gates`` are their ``entangling_gates`` on ``num_qubits`` qubits,
    ``columns`` the matching slots of a branch block, ``obs`` is ``O`` there.
    """

    num_qubits: int
    gates: tuple[GateOp, ...]
    columns: tuple[int, ...]
    obs: PauliZSum

    @cached_property
    def triples(self) -> np.ndarray:
        """The branch-block column triple, counted in triples, that each U3
        of ``gates`` reads: gate ``g`` reads ``columns[3g : 3g + 3]``."""
        return np.array(self.columns[::3], dtype=np.intp) // 3

    def expectations(self, entries) -> np.ndarray:
        """``<0| U' O U |0>`` of every row of ``entries``, the
        ``sim.rotation_entries`` of the U3s of ``gates``, shape
        (G, 4, ...) to (...)."""
        return diagonal_expectations(self.num_qubits, self.gates, entries, self.obs.diagonal())


@lru_cache(maxsize=64)
def light_cone(model: LcqnnModel, obs: PauliZSum) -> LightCone:
    """The ``LightCone`` of a working-register observable, built once per
    ``(model, obs)`` pair (an observable is keyed by identity)."""
    _check_observable(model, obs)
    touched = {q for _, qubits in obs.terms for q in qubits}
    remap, gates, columns, slot = {}, [], [], 0
    for spec in model.groups:
        if not touched.isdisjoint(spec.qubits):
            local = range(len(remap), len(remap) + len(spec.qubits))
            remap.update(zip(spec.qubits, local))
            gates += entangling_gates(local, spec.depth, len(columns))
            columns += range(slot, slot + spec.param_count)
        slot += spec.param_count
    terms = [(w, [remap[q] for q in qubits]) for w, qubits in obs.terms]
    return LightCone(len(remap), tuple(gates), tuple(columns), PauliZSum(terms, len(remap)))


def costs(parts, obs: PauliZSum, input_state: StateVector | None = None) -> list:
    """``cost`` of each ``(model, alpha, theta)`` of ``parts`` from one
    ``forward_states`` pass, with one batched ``expectation`` per part."""
    _check_observable(parts[0][0], obs)
    return [expectation(state, obs) for state in forward_states(parts, input_state)]


def cost(
    model: LcqnnModel, alpha, theta, obs: PauliZSum, input_state: StateVector | None = None
) -> float | np.ndarray:
    """Expectation of the working-register observable over the forward state.

    Equals ``sum_j p_j(alpha) * <input| U_j' O U_j |input>``. A batch of
    parameter rows (see ``lcqnn_forward``) runs as one forward pass and gives
    an array of the batch's shape.
    """
    return costs([(model, alpha, theta)], obs, input_state)[0]
