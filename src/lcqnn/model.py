"""Model circuits: a coefficient tree on the control register steering
controlled entangling blocks on the working register.

The prepared state is ``sum_j sqrt(p_j(alpha)) |j> (x) U_j(theta_j) |input>``
where the ``p_j`` come from a binary tree of controlled RY rotations and each
branch unitary ``U_j`` is a tensor product of per-group entangling circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArchitectureError, CapacityError, LcqnnError
from .sim import (
    MAX_QUBITS,
    GateOp,
    Observable,
    StateVector,
    _apply_subcircuit_in_place,
    apply_gates,
    cnot,
    expectation,
    init_zero,
    ry,
    u3,
)

# ---------------------------------------------------------------------------
# coefficient tree


@dataclass(frozen=True)
class CoefficientLayer:
    """Binary rotation tree assigning probabilities to ``branch_count`` leaves.

    ``alpha`` holds one angle per internal node; the node at level ``l`` with
    prefix ``q`` (the leading ``l`` path bits) sits at index ``2**l - 1 + q``.
    An angle ``a`` contributes ``cos^2(a)`` to the 0-child and ``sin^2(a)`` to
    the 1-child, so the compiled rotation gate angle is ``2a``.
    """

    num_controls: int
    branch_count: int
    alpha: tuple[float, ...]

    def __post_init__(self):
        m, L = self.num_controls, self.branch_count
        if m < 0:
            raise ArchitectureError("control register size must be non-negative")
        if L < 1 or (L & (L - 1)) != 0:
            raise ArchitectureError(f"branch_count must be a power of two, got {L}")
        if L > (1 << m):
            raise ArchitectureError(
                f"branch_count {L} does not fit {m} control qubit(s)"
            )
        if len(self.alpha) != L - 1:
            raise ArchitectureError(
                f"expected {L - 1} tree angles for {L} branches, got {len(self.alpha)}"
            )
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))

    @property
    def tree_depth(self) -> int:
        return self.branch_count.bit_length() - 1


def tree_node(level: int, prefix: int = 0) -> int:
    """Index of the tree node at ``level`` whose path bits read ``prefix``."""
    return (1 << level) - 1 + prefix


def coeff_probabilities(layer: CoefficientLayer) -> np.ndarray:
    """Closed-form leaf probabilities: products of cos^2/sin^2 path factors."""
    probs = np.ones(1)
    for level in range(layer.tree_depth):
        base = tree_node(level)
        angles = np.asarray(layer.alpha[base : base + (1 << level)])
        c2, s2 = np.cos(angles) ** 2, np.sin(angles) ** 2
        nxt = np.empty(2 << level)
        nxt[0::2] = probs * c2
        nxt[1::2] = probs * s2
        probs = nxt
    return probs


def coeff_probability_gradients(layer: CoefficientLayer) -> np.ndarray:
    """Jacobian d p_j / d alpha_node, shape (L-1, L).

    Row ``node`` is nonzero only on leaves below that node; the node's own
    factor is replaced by its derivative (-sin(2a) on the 0-side, +sin(2a) on
    the 1-side).
    """
    t, L = layer.tree_depth, layer.branch_count
    jac = np.zeros((max(L - 1, 0), L))
    for j in range(L):
        factors = np.empty(t)
        derivs = np.empty(t)
        nodes = np.empty(t, dtype=int)
        for level in range(t):
            prefix = j >> (t - level)
            bit = (j >> (t - 1 - level)) & 1
            node = tree_node(level, prefix)
            a = layer.alpha[node]
            factors[level] = np.sin(a) ** 2 if bit else np.cos(a) ** 2
            derivs[level] = np.sin(2 * a) if bit else -np.sin(2 * a)
            nodes[level] = node
        for level in range(t):
            rest = np.prod(factors[:level]) * np.prod(factors[level + 1 :])
            jac[nodes[level], j] = rest * derivs[level]
    return jac


@dataclass(frozen=True)
class ControlledBlock:
    """A subcircuit applied where the control qubits equal ``value``."""

    controls: tuple[int, ...]
    value: int
    gates: tuple[GateOp, ...]


def build_coefficient_circuit(layer: CoefficientLayer) -> list[ControlledBlock]:
    """Compile the tree to controlled RY blocks on control qubits 0..t-1.

    Node (level l, prefix q) becomes RY on qubit l, controlled on qubits
    0..l-1 equal to q; its parameter slot is the node index, and the bound
    gate angle must be twice the stored tree angle. Control qubits t..m-1 are
    untouched.
    """
    blocks = []
    for level in range(layer.tree_depth):
        for prefix in range(1 << level):
            node = tree_node(level, prefix)
            blocks.append(
                ControlledBlock(tuple(range(level)), prefix, (ry(level, node),))
            )
    return blocks


def apply_coefficient_layer(state: StateVector, layer: CoefficientLayer) -> StateVector:
    """Apply the compiled tree to a state whose leading qubits are controls."""
    if state.num_qubits < layer.num_controls:
        raise LcqnnError(
            f"state has {state.num_qubits} qubit(s), coefficient layer needs "
            f"{layer.num_controls}"
        )
    amps = state.amps.copy().reshape((2,) * state.num_qubits)
    gate_angles = 2.0 * np.asarray(layer.alpha)
    for block in build_coefficient_circuit(layer):
        _apply_subcircuit_in_place(
            amps, block.controls, block.value, block.gates, gate_angles, state.num_qubits
        )
    return StateVector(state.num_qubits, amps.reshape(-1))


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

    def __post_init__(self):
        if not self.qubits:
            raise ArchitectureError("a block group needs at least one qubit")
        if self.depth < 0:
            raise ArchitectureError("block depth must be non-negative")

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
    """Architecture: control width, working width, branch count, block layout."""

    num_controls: int
    num_working: int
    branch_count: int
    locality: int
    depth: int
    groups: tuple[LocalBlockSpec, ...]

    @property
    def tree_depth(self) -> int:
        return self.branch_count.bit_length() - 1

    @property
    def num_alpha(self) -> int:
        return self.branch_count - 1

    @property
    def branch_param_count(self) -> int:
        return sum(g.param_count for g in self.groups)

    def coefficient_layer(self, alpha) -> CoefficientLayer:
        return CoefficientLayer(self.num_controls, self.branch_count, tuple(np.ravel(alpha)))


def make_model(
    num_controls: int,
    num_working: int,
    branch_count: int,
    locality: int,
    depth: int,
    groups=None,
) -> LcqnnModel:
    """Build and validate a model; ``groups`` overrides the default partition."""
    if num_working < 1:
        raise ArchitectureError("working register needs at least one qubit")
    if depth < 0:
        raise ArchitectureError("depth must be non-negative")
    # reuse the tree validation for m/L consistency
    CoefficientLayer(num_controls, branch_count, (0.0,) * (branch_count - 1))
    if groups is None:
        parts = default_groups(num_working, locality)
    else:
        parts = tuple(tuple(int(q) for q in g) for g in groups)
        seen = [q for g in parts for q in g]
        if sorted(seen) != list(range(num_working)):
            raise ArchitectureError(
                f"groups {parts} do not partition qubits 0..{num_working - 1}"
            )
    specs = tuple(LocalBlockSpec(g, depth) for g in parts)
    return LcqnnModel(num_controls, num_working, branch_count, locality, depth, specs)


def theta_layout_size(model: LcqnnModel) -> int:
    """Flat branch-parameter count: branch_count * sum over groups of 3*size*depth."""
    return model.branch_count * model.branch_param_count


def theta_index(
    model: LcqnnModel, branch: int, group: int, layer: int, qubit_pos: int, comp: int
) -> int:
    """Flat index of one branch angle.

    Layout: branch-major, then group, then layer, then qubit position within
    the group, then which of (theta, phi, lam).
    """
    if not 0 <= branch < model.branch_count:
        raise LcqnnError(f"branch {branch} out of range")
    if not 0 <= group < len(model.groups):
        raise LcqnnError(f"group {group} out of range")
    spec = model.groups[group]
    if not 0 <= layer < spec.depth:
        raise LcqnnError(f"layer {layer} out of range")
    if not 0 <= qubit_pos < len(spec.qubits):
        raise LcqnnError(f"qubit position {qubit_pos} out of range")
    if not 0 <= comp < 3:
        raise LcqnnError(f"angle component {comp} out of range")
    offset = sum(g.param_count for g in model.groups[:group])
    within = (layer * len(spec.qubits) + qubit_pos) * 3 + comp
    return branch * model.branch_param_count + offset + within


@lru_cache(maxsize=None)
def branch_gates(model: LcqnnModel) -> tuple[GateOp, ...]:
    """Gate list of one branch on the working register, slots 0..stride-1."""
    gates: list[GateOp] = []
    slot = 0
    for spec in model.groups:
        gates.extend(entangling_gates(spec.qubits, spec.depth, slot))
        slot += spec.param_count
    return tuple(gates)


@lru_cache(maxsize=None)
def _branch_gates_shifted(model: LcqnnModel) -> tuple[GateOp, ...]:
    """Branch gates with targets offset onto the full register's working part."""
    m = model.num_controls
    return tuple(
        GateOp(g.kind, tuple(q + m for q in g.qubits), g.param_slots)
        for g in branch_gates(model)
    )


def branch_angles(model: LcqnnModel, theta) -> np.ndarray:
    """Checked view of the flat branch angles, shape (branch_count, stride).

    Row ``j`` is branch ``j``'s block ``theta_j``; ``stride`` is
    ``model.branch_param_count``.
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size != theta_layout_size(model):
        raise LcqnnError(
            f"expected {theta_layout_size(model)} branch angle(s), got {theta.size}"
        )
    return theta.reshape(model.branch_count, model.branch_param_count)


def working_amps(
    model: LcqnnModel, input_state: StateVector | None = None, obs: Observable | None = None
) -> np.ndarray:
    """Checked amplitudes of a working-register input state (default |0...0>).

    ``obs``, when given, must address exactly the working register.
    """
    n = model.num_working
    if obs is not None and obs.num_qubits != n:
        raise LcqnnError(
            f"observable on {obs.num_qubits} qubit(s) must address exactly the "
            f"{n}-qubit working register"
        )
    if input_state is None:
        return init_zero(n).amps
    if input_state.num_qubits != n:
        raise LcqnnError(f"input state has {input_state.num_qubits} qubit(s), expected {n}")
    return input_state.amps


def lcqnn_forward(
    model: LcqnnModel, alpha, theta, input_state: StateVector | None = None
) -> StateVector:
    """Run the full circuit: coefficient tree, then every controlled branch.

    ``input_state`` is a working-register state (default |0...0>); the control
    register always starts at |0...0>.
    """
    blocks = branch_angles(model, theta)
    layer = model.coefficient_layer(alpha)
    m, n = model.num_controls, model.num_working
    total = m + n
    if total > MAX_QUBITS:
        raise CapacityError(f"{total} qubits exceed the supported maximum {MAX_QUBITS}")
    amps = np.zeros(1 << total, dtype=np.complex128)
    amps[: 1 << n] = working_amps(model, input_state)
    state = apply_coefficient_layer(StateVector(total, amps), layer)
    nd = state.amps.reshape((2,) * total)

    gates = _branch_gates_shifted(model)
    tree_controls = tuple(range(model.tree_depth))
    for j, block in enumerate(blocks):
        _apply_subcircuit_in_place(nd, tree_controls, j, gates, block, total)
    return state


def branch_block_probabilities(model: LcqnnModel, state: StateVector) -> np.ndarray:
    """Squared norm of each branch's block of the full-register state."""
    if state.num_qubits != model.num_controls + model.num_working:
        raise LcqnnError("state size does not match the model register")
    n = model.num_working
    idle = model.num_controls - model.tree_depth
    probs = np.empty(model.branch_count)
    for j in range(model.branch_count):
        start = (j << idle) << n
        probs[j] = float(np.sum(np.abs(state.amps[start : start + (1 << n)]) ** 2))
    return probs


def branch_expectations(
    model: LcqnnModel, theta, obs: Observable, input_state: StateVector | None = None
) -> np.ndarray:
    """Per-branch expectations <input| U_j' O U_j |input> on the working register."""
    blocks = branch_angles(model, theta)
    n = model.num_working
    psi_in = working_amps(model, input_state, obs).reshape((2,) * n)
    gates = branch_gates(model)
    vals = np.empty(model.branch_count)
    for j, block in enumerate(blocks):
        psi = apply_gates(psi_in, gates, block)
        vals[j] = expectation(StateVector(n, psi.reshape(-1)), obs)
    return vals


def cost(
    model: LcqnnModel, alpha, theta, obs: Observable, input_state: StateVector | None = None
) -> float:
    """Expectation of the working-register observable over the forward state.

    Equals ``sum_j p_j(alpha) * <input| U_j' O U_j |input>``.
    """
    working_amps(model, input_state, obs)
    return expectation(lcqnn_forward(model, alpha, theta, input_state), obs)


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(model: LcqnnModel) -> dict:
    """JSON-ready architecture document; groups included when non-default."""
    doc = {
        "m": model.num_controls,
        "n": model.num_working,
        "L": model.branch_count,
        "k": model.locality,
        "D": model.depth,
    }
    parts = tuple(g.qubits for g in model.groups)
    if parts != default_groups(model.num_working, model.locality):
        doc["groups"] = [list(g) for g in parts]
    return doc


def model_from_dict(doc: dict) -> LcqnnModel:
    try:
        return make_model(
            int(doc["m"]),
            int(doc["n"]),
            int(doc["L"]),
            int(doc["k"]),
            int(doc["D"]),
            groups=doc.get("groups"),
        )
    except KeyError as exc:
        raise ArchitectureError(f"missing model field {exc}") from exc
