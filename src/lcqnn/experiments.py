"""Trainability experiments: gradient-variance scans over register size,
branch count, and block-structured mixtures of group-symmetric costs.

All scans estimate the mean and variance of a single probe parameter's
gradient over uniform angle draws and return plain records ready for CSV/JSON
emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import gradients
from .errors import ArchitectureError, CapacityError, LcqnnError
from .gradients import (
    TWO_PI,
    GradStats,
    estimate_grad_stats,  # noqa: F401  (perfbench/spans.py times calls through this name)
    run_chunked,
)
from .model import (
    coeff_probabilities,
    coeff_probability_gradients,
    entangling_gates,
    tree_node,
)
from .sim import (
    PauliZSum,
    chunk_generators,
    chunk_seeds,
    diagonal_expectations,
    diagonal_readout,
    haar_columns,
    pcg64_random,
    rotation_entries,
)
# perfbench/spans.py wraps these names here to count or time their calls
from .sim import gate_matrix, haar_unitary  # noqa: F401


def z0_observable(num_qubits: int) -> PauliZSum:
    """Default scan observable: Z on working qubit 0."""
    return PauliZSum([(1.0, (0,))], num_qubits=num_qubits)


# ---------------------------------------------------------------------------
# architecture scans


@dataclass(frozen=True)
class ScanRecord:
    """One variance measurement; field names match the CSV columns."""

    m: int
    n: int
    L: int
    k: int
    D: int
    observable: str
    param_id: int
    samples: int
    seed: int
    mean: float
    variance: float
    stderr: float


def run_variance_point(
    points, samples: int, root_seed: int, start=lambda index: None
) -> list[ScanRecord]:
    """Estimate every ``(model, k, obs, param_id)`` point of one scan, each
    recorded with the locality ``k`` its model was built with, in one
    lockstep ``estimate_grad_stats`` call; ``start(p)`` runs just before
    point ``p``'s first sample block."""
    probes = [(model, obs, param_id) for model, _, obs, param_id in points]
    return [
        ScanRecord(m=model.num_controls, n=model.num_working, L=model.branch_count, k=k,
                   D=model.depth, observable=obs.describe(), param_id=param_id,
                   samples=samples, seed=root_seed, mean=stats.mean,
                   variance=stats.variance, stderr=stats.stderr)
        for (model, k, obs, param_id), stats in zip(
            points, gradients.estimate_grad_stats(probes, samples, root_seed, start)
        )
    ]


def fit_log2_slope(xs, variances) -> float:
    """Least-squares slope of log2(variance) against ``xs``."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(variances, dtype=np.float64)
    if xs.size != ys.size or xs.size < 2:
        raise LcqnnError("slope fit needs at least two matching points")
    if np.any(ys <= 0) or not np.all(np.isfinite(ys)):
        raise LcqnnError("slope fit needs positive finite variances")
    return float(np.polyfit(xs, np.log2(ys), 1)[0])


# ---------------------------------------------------------------------------
# block spectra (group-symmetric costs)


@dataclass(frozen=True)
class BlockSpectrum:
    """Retained blocks of a block-diagonal cost, as (dimension, multiplicity)."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ArchitectureError("a spectrum needs at least one block")
        norm = []
        for d, mult in self.blocks:
            d, mult = int(d), int(mult)
            if d < 1 or mult < 1:
                raise ArchitectureError(
                    f"block dimensions and multiplicities must be >= 1, got ({d},{mult})"
                )
            norm.append((d, mult))
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def d_max(self) -> int:
        return max(d * mult for d, mult in self.blocks)


def su2_block_dims(N: int) -> BlockSpectrum:
    """Collective-SU(2) block structure of N qubits.

    Block j (j = 0..floor(N/2)) has dimension N - 2j + 1 and multiplicity
    C(N, j) - C(N, j-1) (1 for j = 0), in exact integer arithmetic.  Low-j
    blocks stay polynomial in N while mid-j multiplicities grow
    exponentially.
    """
    if N < 1:
        raise ArchitectureError(f"need at least one qubit, got {N}")
    if N > 64:
        raise CapacityError(f"supported range is N <= 64, got {N}")
    return BlockSpectrum(tuple(
        (N - 2 * j + 1, math.comb(N, j) - math.comb(N, j - 1) if j else 1)
        for j in range(N // 2 + 1)
    ))


def select_blocks(spectrum: BlockSpectrum, indices) -> BlockSpectrum:
    """Keep only the blocks at the given positions (e.g. chosen j values)."""
    chosen = []
    for i in indices:
        i = int(i)
        if not 0 <= i < spectrum.num_blocks:
            raise ArchitectureError(
                f"block index {i} out of range 0..{spectrum.num_blocks - 1}"
            )
        chosen.append(spectrum.blocks[i])
    return BlockSpectrum(tuple(chosen))


def balanced_z_diag(dim: int) -> np.ndarray:
    """Traceless diagonal: +1 on the first half, -1 on the last half, one 0
    in the middle when ``dim`` is odd.  Equals Z on the leading qubit when
    ``dim`` is a power of two."""
    if dim < 1:
        raise LcqnnError(f"dimension must be >= 1, got {dim}")
    diag = np.zeros(dim)
    half = dim // 2
    diag[:half] = 1.0
    diag[dim - half :] = -1.0
    return diag


#: block unitaries live in component streams starting here (0 = tree angles,
#: 1 = the rotation-probe angle)
_BLOCK_COMPONENT_BASE = 2

#: haar mode draws dense matrices; keep them small
_HAAR_DIM_LIMIT = 256

#: padded qubit registers in ansatz mode; d*mult may not exceed 2**12
_BLOCK_DIM_LIMIT = 1 << 12


def _haar_values(dim: int, words, angles) -> np.ndarray:
    """Block expectations under Haar unitaries, one drawn from the Generator
    of each stream's seed ``words`` (B, 4).

    The probe is a rotation by ``angles[s, b]`` in the span of the first two
    basis states, applied before sample ``b``'s unitary; mode-invariant
    thanks to Haar left-invariance. ``angles`` has shape (k, B) and so has
    the result; ``None`` is one row of zeros. Only the two columns the probe
    reaches are orthonormalized.
    """
    gens = chunk_generators(words)
    normals = np.empty((2, dim, dim))  # sim.ginibre's draws: real parts, then imaginary
    kept = np.empty((2, len(gens), dim, 2))
    for b, gen in enumerate(gens):
        gen.standard_normal(out=normals)
        kept[:, b] = normals[:, :, :2]
    cols = haar_columns((kept[0] + 1j * kept[1]) / math.sqrt(2.0))
    if angles is None:
        angles = np.zeros((1, len(gens)))
    c, s = np.cos(angles / 2.0), np.sin(angles / 2.0)
    psi = cols[..., 0] * c[..., None] + cols[..., 1] * s[..., None]
    return diagonal_readout(balanced_z_diag(dim), psi)


def _ansatz_values(depth: int, dim: int, words, angles) -> np.ndarray:
    """Block expectations under layered circuits on the block's padded qubit
    register, with the angles of each stream's seed ``words`` (B, 4).

    Row ``s`` of ``angles`` (shape (k, B)) replaces every sample's first
    rotation polar angle (the probe); ``None`` keeps the drawn angles. The
    drawn rotations' entries are computed once, and only the first
    rotation's again for each row of ``angles``. The observable is zero on
    the padding, so only the block itself carries weight.
    """
    q = (dim - 1).bit_length()
    gates = entangling_gates(range(q), depth)
    drawn = TWO_PI * pcg64_random(words, 3 * q * depth)
    entries = rotation_entries(drawn)[:, :, None]
    if angles is not None:
        entries = np.repeat(entries, len(angles), axis=2)
        probed = np.repeat(drawn[None, :, :3], len(angles), axis=0)
        probed[..., 0] = angles
        entries[0] = rotation_entries(probed)[0]
    diag = np.zeros(1 << q)
    diag[:dim] = balanced_z_diag(dim)
    return diagonal_expectations(q, gates, entries, diag)


@dataclass
class GroupScanResult:
    """Gradient statistics of a block-mixture cost's two probe parameters."""

    spectrum: BlockSpectrum
    mode: str
    samples: int
    seed: int
    depth: int
    theta_stats: GradStats
    alpha_stats: GradStats | None  # None for a single-block spectrum


def check_spectrum(spectrum: BlockSpectrum, mode: str) -> None:
    """Raise unless ``mode`` names a block state and every block of
    ``spectrum`` fits it."""
    if mode not in ("haar", "ansatz"):
        raise LcqnnError(f"mode must be 'haar' or 'ansatz', got {mode!r}")
    for d, mult in spectrum.blocks:
        if d * mult > _BLOCK_DIM_LIMIT:
            raise CapacityError(
                f"block dimension {d * mult} exceeds the supported {_BLOCK_DIM_LIMIT}"
            )
        if mode == "haar" and d * mult > _HAAR_DIM_LIMIT:
            raise CapacityError(
                f"haar mode draws dense matrices only up to dimension {_HAAR_DIM_LIMIT}"
            )


def group_block_variance(
    spectrum: BlockSpectrum, samples: int, mode: str, root_seed: int, depth: int
) -> GroupScanResult:
    """Gradient statistics of C = sum_mu p_mu(alpha) <psi_mu| O_mu |psi_mu>.

    The mixture weights come from a coefficient tree over ceil(log2 L)
    qubits (leaves beyond the retained blocks carry a zero operator); each
    block state is prepared by a Haar unitary on the exact block dimension or
    by a layered circuit on its padded qubit register.  Probes: a rotation
    angle inside block 0 (theta) and the first deepest-level tree angle
    (alpha, absent for a single block).
    """
    check_spectrum(spectrum, mode)
    if mode == "ansatz" and depth < 1:
        raise LcqnnError("ansatz mode needs depth >= 1: the probe is its first rotation")
    values_of = _haar_values if mode == "haar" else partial(_ansatz_values, depth)
    L = spectrum.num_blocks
    tree_depth = (L - 1).bit_length()
    num_leaves = 1 << tree_depth
    probe_node = tree_node(tree_depth - 1) if tree_depth else None
    dims = [d * mult for d, mult in spectrum.blocks]
    # balanced_z_diag(1) is 0: a dimension-1 block's value and gradient vanish
    drawn = [b for b, dim in enumerate(dims) if dim != 1]
    components = [0, 1] + [_BLOCK_COMPONENT_BASE + b for b in drawn]

    def chunk(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        alpha_words, probe_words, *block_words = chunk_seeds(root_seed, lo, hi, components)
        batch = hi - lo
        alpha = TWO_PI * pcg64_random(alpha_words, num_leaves - 1)
        probe = TWO_PI * pcg64_random(probe_words, 1)[:, 0]
        values = np.zeros((batch, num_leaves))
        grad0 = np.zeros(batch)
        for b, words in zip(drawn, block_words):
            dim = dims[b]
            if b == 0:
                at, up, down = values_of(
                    dim, words, np.stack((probe, probe + math.pi / 2, probe - math.pi / 2))
                )
                values[:, 0] = at
                grad0 = 0.5 * (up - down)
            else:
                values[:, b] = values_of(dim, words, None)[0]
        theta = coeff_probabilities(alpha)[:, 0] * grad0
        if probe_node is None:
            return theta, np.empty(0)
        jac_row = coeff_probability_gradients(alpha)[:, probe_node]
        return theta, np.sum(jac_row * values, axis=-1)

    theta_stats, alpha_stats = run_chunked(samples, chunk)
    return GroupScanResult(
        spectrum=spectrum,
        mode=mode,
        samples=samples,
        seed=root_seed,
        depth=depth,
        theta_stats=theta_stats,
        alpha_stats=alpha_stats if probe_node is not None else None,
    )
