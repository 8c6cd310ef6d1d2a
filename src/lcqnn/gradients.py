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

# ---------------------------------------------------------------------------
# flat parameter vectors


def num_params(model: LcqnnModel) -> int:
    return model.num_alpha + theta_layout_size(model)


def split_params(model: LcqnnModel, flat) -> tuple[np.ndarray, np.ndarray]:
    flat = np.asarray(flat, dtype=np.float64).ravel()
    if flat.size != num_params(model):
        raise LcqnnError(f"expected {num_params(model)} parameters, got {flat.size}")
    return flat[: model.num_alpha], flat[model.num_alpha :]


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


def cost_flat(
    model: LcqnnModel, flat, obs: PauliZSum, input_state: StateVector | None = None
) -> float:
    alpha, theta = split_params(model, flat)
    return cost(model, alpha, theta, obs, input_state)


# ---------------------------------------------------------------------------
# point rules


def _check_param_id(model: LcqnnModel, param_id: int) -> None:
    if not 0 <= param_id < num_params(model):
        raise LcqnnError(
            f"parameter id {param_id} out of range 0..{num_params(model) - 1}"
        )


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
    _check_param_id(model, param_id)
    flat = np.asarray(flat, dtype=np.float64).ravel().copy()
    if param_id < model.num_alpha:
        shift, prefactor = math.pi / 4.0, 1.0
    else:
        shift, prefactor = math.pi / 2.0, 0.5
    shift *= shift_scale
    flat[param_id] += shift
    up = cost_flat(model, flat, obs, input_state)
    flat[param_id] -= 2.0 * shift
    down = cost_flat(model, flat, obs, input_state)
    return prefactor * (up - down)


def finite_diff_grad(
    model: LcqnnModel,
    flat,
    obs: PauliZSum,
    param_id: int,
    input_state: StateVector | None = None,
    h: float = 1e-5,
) -> float:
    """Central difference, for cross-checking the exact rules."""
    if not 1e-7 <= h <= 1e-3:
        raise LcqnnError(f"step {h} outside the stable range [1e-7, 1e-3]")
    _check_param_id(model, param_id)
    flat = np.asarray(flat, dtype=np.float64).ravel().copy()
    flat[param_id] += h
    up = cost_flat(model, flat, obs, input_state)
    flat[param_id] -= 2.0 * h
    down = cost_flat(model, flat, obs, input_state)
    return (up - down) / (2.0 * h)


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
    model: LcqnnModel, root_seed: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``alpha[b], theta[b]`` equal to ``sample_param_draw(model,
    root_seed, lo + b)`` for the samples ``lo .. hi-1``, from streams seeded
    for the whole range in one pass."""
    alpha_gens, theta_gens = chunk_generators(
        root_seed, lo, hi, (ALPHA_COMPONENT, THETA_COMPONENT)
    )
    batch, num_theta = hi - lo, theta_layout_size(model)
    alpha = np.array([gen.uniform(0.0, TWO_PI, model.num_alpha) for gen in alpha_gens])
    theta = np.array([gen.uniform(0.0, TWO_PI, num_theta) for gen in theta_gens])
    return alpha.reshape(batch, model.num_alpha), theta.reshape(batch, num_theta)


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
    ``sample_param_draw(model, root_seed, i)`` draws, so its value does not
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
    alpha, theta = sample_param_draws(model, root_seed, lo, hi)
    block = theta.reshape(batch, L, stride)[:, j]
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
        part = GradStats()
        for grad in probe_gradients(model, obs, param_id, root_seed, lo, hi):
            part.add(float(grad))
        return part

    stats = GradStats()
    for part in run_chunked(num_samples, chunk):
        stats.merge(part)
    return stats
