"""Gradients of the model cost: exact two-point shift rules, finite
differences, a fast analytic full-gradient pass, and streaming variance
estimation over random parameter draws.

Flat parameter layout: indices ``0 .. L-2`` are the coefficient-tree angles
(node order), followed by the branch angles, one ``model.branch_angles`` row
per branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LcqnnError
from .model import (
    LcqnnModel,
    branch_angles,
    branch_gates,
    coeff_probabilities,
    coeff_probability_gradients,
    cost,
    costs,
    light_cone,
    theta_layout_size,
    tree_node,
    working_amps,
)
from .sim import (
    PauliZSum,
    RngStream,
    StateVector,
    adjoint_gradient,
    apply_gates,
    chunk_generators,
    gate_matrix,  # noqa: F401  (perfbench/spans.py counts calls through this name)
)

TWO_PI = 2.0 * math.pi
FD_STEP = 1e-5  # central-difference step of finite_diff_grad and shift_and_fd_grads

# ---------------------------------------------------------------------------
# flat parameter vectors


def num_params(model: LcqnnModel) -> int:
    return model.num_alpha + theta_layout_size(model)


def split_params(model: LcqnnModel, flat) -> tuple[np.ndarray, np.ndarray]:
    """Tree and branch angles of flat parameters on the last axis; leading
    axes are a batch of parameter rows."""
    flat = np.atleast_1d(np.asarray(flat, dtype=np.float64))
    if flat.shape[-1] != num_params(model):
        raise LcqnnError(f"expected {num_params(model)} parameters, got {flat.shape[-1]}")
    return flat[..., : model.num_alpha], flat[..., model.num_alpha :]


def default_probe_param(model: LcqnnModel) -> int:
    """Flat index of the first branch rotation's polar angle (branch 0)."""
    if theta_layout_size(model) == 0:
        raise LcqnnError("model has no branch angles to probe")
    return model.num_alpha


def alpha_probe_param(model: LcqnnModel) -> int:
    """Flat index of the first deepest-level tree angle.

    Deepest-level nodes multiply a single leaf pair, which makes their
    gradient statistics comparable across tree sizes; the root would instead
    see its scale change with every extra level below it.
    """
    if model.branch_count < 2:
        raise LcqnnError("a single-branch model has no coefficient angles")
    return tree_node(model.tree_depth - 1)


def sample_params(model: LcqnnModel, generator) -> np.ndarray:
    """Draw every angle independently and uniformly from [0, 2*pi)."""
    return generator.uniform(0.0, TWO_PI, num_params(model))


def angle_rows(generators, size: int) -> np.ndarray:
    """One row of ``size`` angles drawn uniformly from [0, 2*pi) by each
    generator, in order: shape (len(generators), size)."""
    rows = [gen.uniform(0.0, TWO_PI, size) for gen in generators]
    return np.array(rows).reshape(len(rows), size)


def cost_flat(
    model: LcqnnModel, flat, obs: PauliZSum, input_state: StateVector | None = None
) -> float | np.ndarray:
    """``cost`` of flat parameters, batched like ``split_params``."""
    alpha, theta = split_params(model, flat)
    return cost(model, alpha, theta, obs, input_state)


# ---------------------------------------------------------------------------
# point rules


def _check_param_id(model: LcqnnModel, param_id: int) -> None:
    if not 0 <= param_id < num_params(model):
        raise LcqnnError(
            f"parameter id {param_id} out of range 0..{num_params(model) - 1}"
        )


def _rule_differences(
    models,
    flats,
    obs: PauliZSum,
    param_ids,
    steps,
    input_state: StateVector | None = None,
) -> np.ndarray:
    """``C(x + s) - C((x + s) - 2s)`` for each step ``s`` of each row
    ``(model, x, i, steps)`` of ``models``, ``flats``, ``param_ids`` and
    ``steps`` (shape (B, S) to (B, S)), with ``s`` added to parameter ``i``
    alone. The models share one branch circuit: the points of a model's rows
    are the parameter rows of its tree stage, and every point runs in one
    ``costs`` pass. Rows never mix, so a row's value does not depend on the
    rows around it."""
    steps = np.asarray(steps, dtype=np.float64)
    by_model: dict[LcqnnModel, list[int]] = {}
    for row, (model, param_id) in enumerate(zip(models, param_ids)):
        _check_param_id(model, param_id)
        by_model.setdefault(model, []).append(row)
    parts = []
    for model, rows in by_model.items():
        flat = np.array([flats[row] for row in rows], dtype=np.float64)
        points = np.empty((len(rows), steps.shape[1], 2, flat.shape[1]))
        points[...] = flat[:, None, None]
        index, ids = np.arange(len(rows)), [param_ids[row] for row in rows]
        points[index, :, :, ids] += steps[rows, :, None]
        points[index, :, 1, ids] -= 2.0 * steps[rows]
        parts.append((model, *split_params(model, points)))
    diffs = np.empty(steps.shape)
    for rows, values in zip(by_model.values(), costs(parts, obs, input_state)):
        diffs[rows] = values[..., 0] - values[..., 1]
    return diffs


def _shift_rule(model: LcqnnModel, param_id: int, shift_scale: float = 1.0) -> tuple:
    """Shift and prefactor of the exact rule of ``param_id`` (see
    ``param_shift_grad``)."""
    if param_id < model.num_alpha:
        return math.pi / 4.0 * shift_scale, 1.0
    return math.pi / 2.0 * shift_scale, 0.5


def param_shift_grad(
    model: LcqnnModel,
    flat,
    obs: PauliZSum,
    param_id: int,
    input_state: StateVector | None = None,
    shift_scale: float = 1.0,
) -> float:
    """Exact derivative from two shifted cost evaluations.

    Branch angles generate a single frequency, so the standard rule
    ``(C(+pi/2) - C(-pi/2)) / 2`` applies.  A tree angle ``a`` enters the
    circuit as a rotation by ``2a``; rescaling the rule gives shift ``pi/4``
    with unit prefactor.  ``shift_scale`` multiplies the shift offsets and
    exists only as a negative-control hook: any value other than 1 breaks
    the rule on purpose.
    """
    shift, prefactor = _shift_rule(model, param_id, shift_scale)
    diff = _rule_differences([model], [np.ravel(flat)], obs, [param_id], [[shift]], input_state)
    return prefactor * float(diff[0, 0])


def finite_diff_grad(
    model: LcqnnModel,
    flat,
    obs: PauliZSum,
    param_id: int,
    input_state: StateVector | None = None,
    h: float = FD_STEP,
) -> float:
    """Central difference, for cross-checking the exact rules."""
    if not 1e-7 <= h <= 1e-3:
        raise LcqnnError(f"step {h} outside the stable range [1e-7, 1e-3]")
    diff = _rule_differences([model], [np.ravel(flat)], obs, [param_id], [[h]], input_state)
    return float(diff[0, 0]) / (2.0 * h)


def shift_and_fd_grads(
    models,
    flats,
    obs: PauliZSum,
    param_ids,
    input_state: StateVector | None = None,
    shift_scale: float = 1.0,
) -> tuple[list[float], list[float]]:
    """``param_shift_grad`` and ``finite_diff_grad`` (step ``FD_STEP``) at
    every probe ``(model, x, i)`` of ``models``, ``flats`` and
    ``param_ids``, bit-equal to those calls. The models share one branch
    circuit (``model.groups``), and one branch pass evaluates the four
    points of every probe: ``x + s``, ``(x + s) - 2s``, ``x + h`` and
    ``(x + h) - 2h``."""
    rules = [_shift_rule(model, pid, shift_scale) for model, pid in zip(models, param_ids)]
    steps = [(shift, FD_STEP) for shift, _ in rules]
    diffs = _rule_differences(models, flats, obs, param_ids, steps, input_state)
    shifts = [prefactor * float(d) for (_, prefactor), d in zip(rules, diffs[:, 0])]
    return shifts, [float(d) / (2.0 * FD_STEP) for d in diffs[:, 1]]


# ---------------------------------------------------------------------------
# analytic full gradient via the branch mixture
#
# C = sum_j p_j(alpha) e_j(theta_j) with e_j = <in| U_j' O U_j |in>, so the
# tree part is the probability Jacobian against the branch expectations and
# each branch part is p_j times an adjoint-mode sweep over that branch's
# gates on the working register alone.


def mixture_gradients(model: LcqnnModel, alpha, values, local) -> np.ndarray:
    """Flat gradients, shape (B, P), of B costs sum_j p_j(alpha) e_j from
    their branch values e_j, shape (B, L), and the gradients of each e_j in
    its own branch angles, shape (B, L, S).

    Every sum runs within one row, so a row's gradient does not depend on
    the batch around it.
    """
    batch = values.shape[0]
    out = np.empty((batch, num_params(model)))
    jac = coeff_probability_gradients(alpha)
    out[:, : model.num_alpha] = np.sum(jac * values[:, None, :], axis=-1)
    probs = coeff_probabilities(alpha)
    out[:, model.num_alpha :] = (probs[:, None] * local).reshape(batch, -1)
    return out


def grad_full(
    model: LcqnnModel, flat, obs: PauliZSum, input_state: StateVector | None = None
) -> np.ndarray:
    """Gradient with respect to every parameter, in flat layout order: one
    forward and one adjoint sweep over the L branch rows."""
    alpha, theta = split_params(model, flat)
    psi_in = working_amps(model, input_state, obs).reshape((2,) * model.num_working)
    blocks = branch_angles(model, theta)
    gates = branch_gates(model)
    rows = np.broadcast_to(psi_in, (len(blocks),) + psi_in.shape)
    values, local = adjoint_gradient(
        apply_gates(rows, gates, blocks), gates, blocks, obs.diagonal()
    )
    return mixture_gradients(model, alpha, values[None], local[None])[0]


# ---------------------------------------------------------------------------
# streaming statistics


@dataclass
class GradStats:
    """Streaming mean/variance accumulator with exact pairwise merging."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def extend(self, values) -> "GradStats":
        """Add every value of ``values`` in order."""
        for value in values:
            self.add(float(value))
        return self

    def merge(self, other: "GradStats") -> "GradStats":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total
        return self

    @property
    def variance(self) -> float:
        if self.count < 2:
            return float("nan")
        return self.m2 / (self.count - 1)

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return float("nan")
        return math.sqrt(self.variance / self.count)


#: component indices inside one sample's seed stream
ALPHA_COMPONENT = 0
THETA_COMPONENT = 1

#: samples per reduction chunk — fixed so that the accumulation order (and
#: therefore every floating-point result) never changes
REDUCTION_CHUNK = 64


def run_chunked(num_samples: int, chunk_fn) -> list:
    """``chunk_fn(lo, hi)`` over fixed-size sample ranges, in index order."""
    return [
        chunk_fn(lo, min(lo + REDUCTION_CHUNK, num_samples))
        for lo in range(0, num_samples, REDUCTION_CHUNK)
    ]


def sample_param_draw(
    model: LcqnnModel, root_seed: int, sample_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one (alpha, theta) pair from the per-sample component streams.

    Tree angles and branch angles come from separate child streams of
    ``(root_seed, sample_index)``, so two scans that share a root seed see
    identical draws on the sub-vectors their models have in common.
    """
    stream = RngStream(root_seed, sample_index)
    alpha = stream.component_generator(ALPHA_COMPONENT).uniform(
        0.0, TWO_PI, model.num_alpha
    )
    theta = stream.component_generator(THETA_COMPONENT).uniform(
        0.0, TWO_PI, theta_layout_size(model)
    )
    return alpha, theta


def sample_param_draws(
    model: LcqnnModel, root_seed: int, lo: int, hi: int, num_theta: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``alpha[b], theta[b]`` equal to ``sample_param_draw(model,
    root_seed, lo + b)`` for the samples ``lo .. hi-1``, from streams seeded
    for the whole range in one pass.

    ``num_theta``, when given, draws only the leading ``num_theta`` branch
    angles of each row: a generator fills its output in order, so they are
    the same numbers as the leading values of the full draw.
    """
    alpha_gens, theta_gens = chunk_generators(
        root_seed, lo, hi, (ALPHA_COMPONENT, THETA_COMPONENT)
    )
    if num_theta is None:
        num_theta = theta_layout_size(model)
    return angle_rows(alpha_gens, model.num_alpha), angle_rows(theta_gens, num_theta)


def probe_gradients(
    model: LcqnnModel,
    obs: PauliZSum,
    param_id: int,
    root_seed: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Gradient of parameter ``param_id`` at the draws of samples
    ``lo .. hi-1``, with the working register starting at |0...0>.

    The samples run as one batch through the branch mixture, never the full
    register, and each branch only on the observable's ``light_cone``. A
    tree angle needs every branch expectation at the drawn point; a branch
    angle needs only that branch, at its two shifted points, weighted by its
    probability, and is exactly 0 outside the cone. Sample ``i`` draws what
    ``sample_param_draw(model, root_seed, i)`` draws (a probe in branch
    ``j`` only the leading ``j + 1`` blocks of it), so its value does not
    depend on ``lo`` and ``hi``.
    """
    _check_param_id(model, param_id)
    cone = light_cone(model, obs)
    batch, L, stride = hi - lo, model.branch_count, model.branch_param_count
    if param_id < model.num_alpha:
        alpha, theta = sample_param_draws(model, root_seed, lo, hi)
        jac_row = coeff_probability_gradients(alpha)[:, param_id]
        values = cone.expectations(theta.reshape(batch, L, stride))
        return np.sum(jac_row * values, axis=-1)

    j, slot = divmod(param_id - model.num_alpha, stride)
    if slot not in cone.columns:
        return np.zeros(batch)
    alpha, theta = sample_param_draws(model, root_seed, lo, hi, (j + 1) * stride)
    block = theta[:, j * stride :]
    shifted = np.concatenate((block, block))
    shifted[:, slot] += math.pi / 2.0
    shifted[batch:, slot] -= math.pi
    values = cone.expectations(shifted)
    prob = coeff_probabilities(alpha)[:, j]
    return prob * 0.5 * (values[:batch] - values[batch:])


def estimate_grad_stats(
    model: LcqnnModel,
    obs: PauliZSum,
    param_id: int,
    num_samples: int,
    root_seed: int,
) -> GradStats:
    """Mean/variance of one parameter's gradient over random angle draws,
    with the working register starting at |0...0>.

    Sample ``i`` draws from ``RngStream(root_seed, i)``; each fixed sample
    range is one ``probe_gradients`` batch, folded in index order, and the
    ranges are merged in order.
    """
    _check_param_id(model, param_id)
    if num_samples < 1:
        raise LcqnnError("need at least one sample")

    def chunk(lo: int, hi: int) -> GradStats:
        return GradStats().extend(probe_gradients(model, obs, param_id, root_seed, lo, hi))

    stats = GradStats()
    for part in run_chunked(num_samples, chunk):
        stats.merge(part)
    return stats
