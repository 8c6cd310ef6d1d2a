"""Gradients of the model cost: exact two-point shift rules, finite
differences, a fast analytic full-gradient pass, and streaming variance
estimation over random parameter draws.

Flat parameter layout: indices ``0 .. L-2`` are the coefficient-tree angles
(node order), followed by every branch angle in ``theta_index`` order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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
    theta_layout_size,
    tree_node,
    working_amps,
)
from .sim import (
    Observable,
    RngStream,
    StateVector,
    adjoint_gradient,
    apply_gates,
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


def join_params(alpha, theta) -> np.ndarray:
    return np.concatenate(
        [np.asarray(alpha, dtype=np.float64).ravel(), np.asarray(theta, dtype=np.float64).ravel()]
    )


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
    model: LcqnnModel, flat, obs: Observable, input_state: StateVector | None = None
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
    obs: Observable,
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
    obs: Observable,
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


def grad_full(
    model: LcqnnModel, flat, obs: Observable, input_state: StateVector | None = None
) -> np.ndarray:
    """Gradient with respect to every parameter, in flat layout order."""
    alpha, theta = split_params(model, flat)
    psi_in = working_amps(model, input_state, obs).reshape((2,) * model.num_working)
    layer = model.coefficient_layer(alpha)
    probs = coeff_probabilities(layer)
    gates = branch_gates(model)
    values = np.empty(model.branch_count)
    out = np.empty(num_params(model))
    branch_out = out[model.num_alpha :].reshape(model.branch_count, model.branch_param_count)
    for j, block in enumerate(branch_angles(model, theta)):
        values[j], grad_local = adjoint_gradient(psi_in, gates, block, obs)
        branch_out[j] = probs[j] * grad_local
    out[: model.num_alpha] = coeff_probability_gradients(layer) @ values
    return out


def _probe_gradient(
    model: LcqnnModel,
    alpha: np.ndarray,
    theta: np.ndarray,
    obs: Observable,
    param_id: int,
    input_amps: np.ndarray,
) -> float:
    """Single-parameter gradient through the branch mixture (no full register).

    For a tree angle this needs every branch expectation; for a branch angle
    only that branch, evaluated at its two shifted points, weighted by its
    probability.
    """
    layer = model.coefficient_layer(alpha)
    gates = branch_gates(model)
    blocks = branch_angles(model, theta)
    psi_in = input_amps.reshape((2,) * model.num_working)

    def branch_value(local: np.ndarray) -> float:
        psi = apply_gates(psi_in, gates, local).reshape(-1)
        return float(np.vdot(psi, obs.apply(psi)).real)

    if param_id < model.num_alpha:
        values = np.array([branch_value(block) for block in blocks])
        return float(coeff_probability_gradients(layer)[param_id] @ values)

    j, slot = divmod(param_id - model.num_alpha, model.branch_param_count)
    prob = coeff_probabilities(layer)[j]
    if prob == 0.0:
        return 0.0
    local = blocks[j].copy()
    local[slot] += math.pi / 2.0
    up = branch_value(local)
    local[slot] -= math.pi
    down = branch_value(local)
    return float(prob) * 0.5 * (up - down)


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
#: therefore every floating-point result) is independent of thread count
REDUCTION_CHUNK = 64


def run_chunked(num_samples: int, chunk_fn, threads: int = 1) -> list:
    """Evaluate ``chunk_fn(lo, hi)`` over fixed-size sample ranges.

    The chunk boundaries never depend on ``threads``; workers only race to
    compute chunks whose results are still combined in index order, so any
    thread count reproduces the single-threaded output bit for bit.
    """
    bounds = [
        (lo, min(lo + REDUCTION_CHUNK, num_samples))
        for lo in range(0, num_samples, REDUCTION_CHUNK)
    ]
    if threads <= 1 or len(bounds) == 1:
        return [chunk_fn(lo, hi) for lo, hi in bounds]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda b: chunk_fn(*b), bounds))


def sample_param_draw(
    model: LcqnnModel, root_seed: int, sample_index: int, fixed_alpha=None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one (alpha, theta) pair from the per-sample component streams.

    Tree angles and branch angles come from separate child streams of
    ``(root_seed, sample_index)``, so two scans that share a root seed see
    identical draws on the sub-vectors their models have in common.
    """
    stream = RngStream(root_seed, sample_index)
    if fixed_alpha is not None:
        alpha = np.asarray(fixed_alpha, dtype=np.float64).ravel()
        if alpha.size != model.num_alpha:
            raise LcqnnError(
                f"expected {model.num_alpha} fixed tree angle(s), got {alpha.size}"
            )
    else:
        alpha = stream.component_generator(ALPHA_COMPONENT).uniform(
            0.0, TWO_PI, model.num_alpha
        )
    theta = stream.component_generator(THETA_COMPONENT).uniform(
        0.0, TWO_PI, theta_layout_size(model)
    )
    return alpha, theta


def estimate_grad_stats(
    model: LcqnnModel,
    obs: Observable,
    param_id: int,
    num_samples: int,
    root_seed: int,
    *,
    input_state: StateVector | None = None,
    fixed_alpha=None,
    threads: int = 1,
) -> GradStats:
    """Mean/variance of one parameter's gradient over random angle draws.

    Sample ``i`` draws from ``RngStream(root_seed, i)``; the reduction is
    chunked in fixed sample ranges, so results are identical at any thread
    count.
    """
    _check_param_id(model, param_id)
    if num_samples < 1:
        raise LcqnnError("need at least one sample")
    amps = working_amps(model, input_state, obs)

    def chunk(lo: int, hi: int) -> GradStats:
        part = GradStats()
        for i in range(lo, hi):
            alpha, theta = sample_param_draw(model, root_seed, i, fixed_alpha)
            part.add(_probe_gradient(model, alpha, theta, obs, param_id, amps))
        return part

    stats = GradStats()
    for part in run_chunked(num_samples, chunk, threads):
        stats.merge(part)
    return stats
