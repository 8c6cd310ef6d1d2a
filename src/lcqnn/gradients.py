"""Gradients of the model cost: exact two-point shift rules, finite
differences, a fast analytic full-gradient pass, and streaming variance
estimation over random parameter draws.

Flat parameter layout: indices ``0 .. L-2`` are the coefficient-tree angles
(node order), followed by the branch angles, one ``model.branch_angles`` row
per branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LcqnnError
from .model import (
    LcqnnModel,
    branch_sweep,
    coeff_probabilities,
    coeff_probability_gradients,
    cost,
    costs,
    light_cone,
    shared_branch_gates,
    theta_layout_size,
    working_amps,
)
from .sim import (
    PauliZSum,
    RngStream,
    StateVector,
    adjoint_gradient,
    chunk_seeds,
    gate_matrix,  # noqa: F401  (perfbench/spans.py counts calls through this name)
    pcg64_random,
    rotation_entries,
)

TWO_PI = 2.0 * math.pi
FD_STEP = 1e-5  # central-difference step of shift_and_fd_grads

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


def sample_params(model: LcqnnModel, generator) -> np.ndarray:
    """Draw every angle uniformly from [0, 2*pi) by any ``generator`` with NumPy's ``uniform``."""
    return generator.uniform(0.0, TWO_PI, num_params(model))


def cost_flat(model: LcqnnModel, flat, obs: PauliZSum) -> float | np.ndarray:
    """``cost`` of flat parameters, batched like ``split_params``."""
    return cost(model, *split_params(model, flat), obs)


# ---------------------------------------------------------------------------
# point rules


def _check_param_id(model: LcqnnModel, param_ids) -> None:
    """Raise for the first of ``param_ids`` (an int or an array of them)
    outside the flat layout of ``model``."""
    ids = np.atleast_1d(param_ids)
    bad = ids[(ids < 0) | (ids >= num_params(model))]
    if bad.size:
        raise LcqnnError(f"parameter id {bad[0]} out of range 0..{num_params(model) - 1}")


def shift_and_fd_grads(
    parts, obs: PauliZSum, shift_scale: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The exact shift-rule gradient and the central difference (step
    ``FD_STEP``) of every probe ``(x, i)`` of each ``(model, flats (R, P),
    param_ids (R,))`` of ``parts``: one ``(shifts, fds)`` pair of arrays of
    shape (R,) per part.

    Branch angles generate a single frequency, so the standard rule
    ``(C(+pi/2) - C(-pi/2)) / 2`` applies. A tree angle ``a`` enters the
    circuit as a rotation by ``2a``; rescaling the rule gives shift ``pi/4``
    with unit prefactor. ``shift_scale`` multiplies the shift offsets: 1 is
    the exact rule, and grad-check's negative control breaks it on purpose
    with any other value.

    The models share one branch circuit (``model.groups``), and one
    ``costs`` pass evaluates the four points of every probe, with the step
    added to parameter ``i`` alone: ``x + s``, ``(x + s) - 2s``, ``x + h``
    and ``(x + h) - 2h``. Rows never mix, so a probe's values do not depend
    on the probes around it.
    """
    points, prefactors = [], []
    for model, flats, param_ids in parts:
        flats, ids = np.asarray(flats, dtype=np.float64), np.asarray(param_ids)
        _check_param_id(model, ids)
        tree = ids < model.num_alpha
        shift = np.where(tree, math.pi / 4.0, math.pi / 2.0) * shift_scale
        steps = np.stack((shift, np.full(len(ids), FD_STEP)), axis=1)
        x = np.empty((len(ids), 2, 2, flats.shape[1]))
        x[...] = flats[:, None, None]
        rows = np.arange(len(ids))
        x[rows, :, :, ids] += steps[..., None]
        x[rows, :, 1, ids] -= 2.0 * steps
        points.append((model, *split_params(model, x)))
        prefactors.append(np.where(tree, 1.0, 0.5))
    grads = []
    for values, prefactor in zip(costs(points, obs), prefactors):
        diffs = values[..., 0] - values[..., 1]
        grads.append((prefactor * diffs[:, 0], diffs[:, 1] / (2.0 * FD_STEP)))
    return grads


def param_shift_grad(model: LcqnnModel, flat, obs: PauliZSum, param_id: int) -> float:
    """Exact derivative of one probe: ``shift_and_fd_grads``'s shift rule."""
    probe = [(model, np.ravel(flat)[None], [param_id])]
    return float(shift_and_fd_grads(probe, obs, 1.0)[0][0][0])


def finite_diff_grad(model: LcqnnModel, flat, obs: PauliZSum, param_id: int) -> float:
    """Central difference of one probe, for cross-checking the exact rules:
    ``shift_and_fd_grads``'s finite difference."""
    probe = [(model, np.ravel(flat)[None], [param_id])]
    return float(shift_and_fd_grads(probe, obs, 1.0)[0][1][0])


# ---------------------------------------------------------------------------
# analytic full gradient via the branch mixture
#
# C = sum_j p_j(alpha) e_j(theta_j) with e_j = <in| U_j' O U_j |in>, so the
# tree part is the probability Jacobian against the branch expectations and
# each branch part is p_j times an adjoint-mode sweep over that branch's
# gates on the working register alone.


def mixture_gradients(parts, psi, blocks, diag) -> list[np.ndarray]:
    """Flat gradients, shape (B, P), of each ``(model, alpha)`` of
    ``parts``: the B costs sum_j p_j(alpha) e_j of its column block of the
    ``model.branch_sweep`` output ``psi``, run under ``blocks``, where e_j
    is ``diag . |psi|**2`` on its row (``diag`` broadcasts to (B, C, 2**n),
    so each row may carry its own).

    One adjoint sweep over every row gives each e_j and its gradient in
    its own branch angles; each part folds its columns through its tree.
    Every sum runs within one row, so a row's gradient does not depend on
    the batch or the parts around it.
    """
    gates = shared_branch_gates([model for model, _ in parts])
    values, local = adjoint_gradient(psi, gates, blocks[None], diag)
    batch, out, lo = len(values), [], 0
    for model, alpha in parts:
        hi = lo + model.branch_count
        grads = np.empty((batch, num_params(model)))
        jac = coeff_probability_gradients(alpha)
        grads[:, : model.num_alpha] = np.sum(jac * values[:, None, lo:hi], axis=-1)
        probs = coeff_probabilities(alpha)
        grads[:, model.num_alpha :] = (probs[:, None] * local[:, lo:hi]).reshape(batch, -1)
        out.append(grads)
        lo = hi
    return out


def grad_full(
    model: LcqnnModel, flat, obs: PauliZSum, input_state: StateVector | None = None
) -> np.ndarray:
    """Gradient with respect to every parameter, in flat layout order: the
    one-part, one-input ``branch_sweep`` and ``mixture_gradients``."""
    alpha, theta = split_params(model, flat)
    psi, blocks = branch_sweep([(model, theta, working_amps(model, input_state, obs)[None])])
    return mixture_gradients([(model, alpha)], psi, blocks, obs.diagonal())[0][0]


# ---------------------------------------------------------------------------
# streaming statistics


@dataclass
class GradStats:
    """Streaming mean/variance accumulator with exact pairwise merging."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def extend(self, values) -> "GradStats":
        """Add every value of ``values`` in order (Welford's update), folded
        in local variables."""
        count, mean, m2 = self.count, self.mean, self.m2
        for value in np.asarray(values, dtype=np.float64).tolist():
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        self.count, self.mean, self.m2 = count, mean, m2
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
#: samples per ``chunk_fn`` call, so each kernel call sees a few chunks' rows
SAMPLE_BLOCK = 4 * REDUCTION_CHUNK


def run_chunked(num_samples: int, chunk_fn) -> list[GradStats]:
    """One ``GradStats`` per statistic of ``chunk_fn(lo, hi)``, which returns
    an array of per-sample values for each over a block of up to
    ``SAMPLE_BLOCK`` samples: every ``REDUCTION_CHUNK`` range of each array
    is folded in sample order, and the ranges are merged in index order."""
    if num_samples < 1:
        raise LcqnnError("need at least one sample")
    folds = []
    for lo in range(0, num_samples, SAMPLE_BLOCK):
        hi = min(lo + SAMPLE_BLOCK, num_samples)
        block = chunk_fn(lo, hi)
        for start in range(0, hi - lo, REDUCTION_CHUNK):
            folds.append([GradStats().extend(v[start : start + REDUCTION_CHUNK]) for v in block])
    return [functools.reduce(GradStats.merge, parts, GradStats()) for parts in zip(*folds)]


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
    root_seed, lo + b)`` for the samples ``lo .. hi-1``, drawn for the
    whole range at once by ``sim.pcg64_random``.

    ``num_theta``, when given, draws only the leading ``num_theta`` branch
    angles of each row: a stream yields its draws in order, so they are
    the same numbers as the leading values of the full draw.
    """
    alpha_words, theta_words = chunk_seeds(
        root_seed, lo, hi, (ALPHA_COMPONENT, THETA_COMPONENT)
    )
    if num_theta is None:
        num_theta = theta_layout_size(model)
    alpha = TWO_PI * pcg64_random(alpha_words, model.num_alpha)
    return alpha, TWO_PI * pcg64_random(theta_words, num_theta)


def _probe_width(model: LcqnnModel, obs: PauliZSum, param_id: int) -> int:
    """Leading branch angles of a sample that probe ``param_id`` reads: all
    of them for a tree angle, up to the last ``light_cone`` column of block
    ``j`` for a branch angle of branch ``j`` inside the cone, else none."""
    if not 0 <= param_id < num_params(model):
        return 0
    if param_id < model.num_alpha:
        return theta_layout_size(model)
    j, slot = divmod(param_id - model.num_alpha, model.branch_param_count)
    columns = light_cone(model, obs).columns
    return j * model.branch_param_count + max(columns) + 1 if slot in columns else 0


def _probe_values(
    model: LcqnnModel, obs: PauliZSum, param_id: int, theta, table, weights
) -> np.ndarray:
    """Gradient of parameter ``param_id`` at each row of ``theta``, a batch
    of drawn branch angles at least ``_probe_width`` wide whose column
    triples have the ``rotation_entries`` ``table``, shape (T, 4, batch),
    where ``weights(rule, size)`` is ``coeff_probabilities`` or
    ``coeff_probability_gradients`` of the rows' leading ``size`` tree angles.

    The samples run as one batch through the branch mixture, never the full
    register, and each branch only on the observable's ``light_cone``, its
    gates reading their rows of ``table``. A tree angle needs every branch
    expectation at the drawn point; a branch angle needs only that branch,
    at its two shifted points, where only the probed gate's entries change,
    weighted by its probability, and is exactly 0 outside the cone.
    """
    _check_param_id(model, param_id)
    cone = light_cone(model, obs)
    batch, L, stride = len(theta), model.branch_count, model.branch_param_count
    if param_id < model.num_alpha:
        jac_row = weights(coeff_probability_gradients, model.num_alpha)[:, param_id]
        rows = table[cone.triples[:, None] + np.arange(L) * (stride // 3)]
        values = cone.expectations(np.moveaxis(rows, 1, -1))
        return np.sum(jac_row * values, axis=-1)

    j, slot = divmod(param_id - model.num_alpha, stride)
    if slot not in cone.columns:
        return np.zeros(batch)
    entries = np.tile(table[cone.triples + j * (stride // 3)], 2)
    first, at = j * stride + slot - slot % 3, slot % 3
    shifted = np.tile(theta[:, first : first + 3], (2, 1))
    shifted[:, at] += math.pi / 2.0
    shifted[batch:, at] -= math.pi
    entries[cone.columns.index(slot) // 3] = rotation_entries(shifted)[0]
    values = cone.expectations(entries)
    prob = weights(coeff_probabilities, model.num_alpha)[:, j]
    return prob * 0.5 * (values[:batch] - values[batch:])


def probe_gradients(
    model: LcqnnModel, obs: PauliZSum, param_id: int, root_seed: int, lo: int, hi: int
) -> np.ndarray:
    """Gradient of parameter ``param_id`` at the draws of samples
    ``lo .. hi-1``, with the working register starting at |0...0>: the
    one-probe view of ``estimate_grad_stats``' blocks.

    Sample ``i`` draws what ``sample_param_draw(model, root_seed, i)``
    draws (only its leading ``_probe_width`` branch angles), so its value
    does not depend on ``lo`` and ``hi``.
    """
    alpha, theta = sample_param_draws(model, root_seed, lo, hi, _probe_width(model, obs, param_id))
    table = rotation_entries(theta)
    return _probe_values(model, obs, param_id, theta, table, lambda rule, size: rule(alpha))


def estimate_grad_stats(
    probes, num_samples: int, root_seed: int, start=lambda index: None
) -> list[GradStats]:
    """Mean/variance of the gradient of each ``(model, obs, param_id)`` of
    ``probes`` over random angle draws, with the working register starting
    at |0...0>: one ``GradStats`` per probe.

    Sample ``i`` draws from ``RngStream(root_seed, i)`` for every probe,
    and each probe reads a prefix of those draws, so the probes run in
    lockstep: each fixed sample block is seeded and drawn once, at the
    longest prefix any probe reads, its rotation entries computed once in a
    table of its column triples, and weighted once per tree size; each probe
    reads its rows of the table in its own kernel call, and its values are
    those of its ``probe_gradients`` batch, folded by ``run_chunked``.
    ``start(p)`` runs just before probe ``p``'s work on the first block.
    """
    widest = max((model for model, _, _ in probes), key=lambda model: model.num_alpha)
    width = max(_probe_width(*probe) for probe in probes)

    def chunk(lo: int, hi: int) -> list[np.ndarray]:
        alpha, theta = sample_param_draws(widest, root_seed, lo, hi, width)
        weights = functools.cache(lambda rule, size: rule(alpha[:, :size]))
        table = rotation_entries(theta)
        values = []
        for index, probe in enumerate(probes):
            if lo == 0:
                start(index)
            values.append(_probe_values(*probe, theta, table, weights))
        return values

    return run_chunked(num_samples, chunk)
