"""Trainability experiments: gradient-variance scans over register size,
branch count, and block-structured mixtures of group-symmetric costs.

Each scan estimates the mean and variance of probe gradients over uniform
angle draws (a variance scan's probe per point, a group scan's theta and alpha
per spectrum) and returns plain records ready for CSV/JSON emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def run_variance_point(probes, samples: int, root_seed: int) -> list[ScanRecord]:
    """Estimate every ``(model, obs, param_id)`` probe of one scan, each
    recorded with its model's locality as ``k``, in one lockstep
    ``estimate_grad_stats`` call."""
    return [
        ScanRecord(m=model.num_controls, n=model.num_working, L=model.branch_count,
                   k=model.locality, D=model.depth, observable=obs.describe(),
                   param_id=param_id, samples=samples, seed=root_seed, mean=stats.mean,
                   variance=stats.variance, stderr=stats.stderr)
        for (model, obs, param_id), stats in zip(
            probes, gradients.estimate_grad_stats(probes, samples, root_seed)
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
#: normals a pass of ``_haar_values`` buffers: 256 KB, or one stream's draw
_HAAR_PASS_NORMALS = 1 << 15

#: padded qubit registers in ansatz mode; d*mult may not exceed 2**12
_BLOCK_DIM_LIMIT = 1 << 12


def _haar_values(dims, words, angles) -> dict:
    """Block expectations under Haar unitaries of each dimension in
    ``dims``, keyed by dimension, from the Generator of each stream's seed
    ``words`` (B, 4). Each stream draws once, for the largest dimension, into
    a row of a pass of at most ``_HAAR_PASS_NORMALS`` normals (or one row);
    it yields its normals in order, so dimension d reads the first 2*d*d.

    The probe is a rotation by ``angles[s, b]`` in the span of the first two
    basis states, applied before sample ``b``'s unitary; mode-invariant
    thanks to Haar left-invariance. ``angles`` has shape (k, B) and so has
    each result; ``None`` is one row, read from column 0 alone. Only the
    columns read are orthonormalized.
    """
    gens = chunk_generators(words)
    size = 2 * max(dims) ** 2  # sim.ginibre's draws: real parts, then imaginary
    normals = np.empty((min(len(gens), max(1, _HAAR_PASS_NORMALS // size)), size))
    width = 1 if angles is None else 2
    kept = {dim: np.empty((len(gens), 2, dim, width)) for dim in dims}
    for lo in range(0, len(gens), len(normals)):
        part = normals[: len(gens) - lo]  # a ragged last pass fills its leading rows
        for row, gen in zip(part, gens[lo:]):
            gen.standard_normal(out=row)
        for dim, cols in kept.items():
            cols[lo : lo + len(part)] = part[:, : 2 * dim * dim].reshape(-1, 2, dim, dim)[..., :width]
    if angles is not None:
        c, s = np.cos(angles / 2.0)[..., None], np.sin(angles / 2.0)[..., None]
    values = {}
    for dim, pairs in kept.items():
        cols = haar_columns((pairs[:, 0] + 1j * pairs[:, 1]) / math.sqrt(2.0))
        psi = cols[None, ..., 0] if angles is None else cols[..., 0] * c + cols[..., 1] * s
        values[dim] = diagonal_readout(balanced_z_diag(dim), psi)
    return values


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
    return group_block_variances([spectrum], samples, mode, root_seed, depth)[0]


def group_block_variances(
    spectra, samples: int, mode: str, root_seed: int, depth: int
) -> list[GroupScanResult]:
    """``[group_block_variance(s, ...) for s in spectra]``, bit for bit, in
    one pass over the sample blocks.

    Every spectrum reads block ``b`` from the same stream, so each sample
    block seeds every stream once, draws the widest tree's angles (a smaller
    tree reads their prefix) and the probe angle once, and evaluates each
    (block, dimension) once. A Haar stream draws once, at the largest
    dimension held there, and only the probed block 0 keeps two columns.
    """
    for spectrum in spectra:
        check_spectrum(spectrum, mode)
    if mode == "ansatz" and depth < 1:
        raise LcqnnError("ansatz mode needs depth >= 1: the probe is its first rotation")
    values_of = _haar_values if mode == "haar" else lambda dims, words, angles: {
        dim: _ansatz_values(depth, dim, words, angles) for dim in dims}
    dims = [[d * mult for d, mult in spectrum.blocks] for spectrum in spectra]
    trees = [(len(blocks) - 1).bit_length() for blocks in dims]
    # balanced_z_diag(1) is 0: a dimension-1 block's value and gradient vanish
    held = {}  # block index -> the dimensions drawn there
    for blocks in dims:
        for b, dim in enumerate(blocks):
            if dim != 1:
                held.setdefault(b, set()).add(dim)
    components = [0, 1] + [_BLOCK_COMPONENT_BASE + b for b in held]

    def chunk(lo: int, hi: int) -> list[np.ndarray]:
        alpha_words, probe_words, *block_words = chunk_seeds(root_seed, lo, hi, components)
        alpha = TWO_PI * pcg64_random(alpha_words, (1 << max(trees)) - 1)
        probe = TWO_PI * pcg64_random(probe_words, 1)[:, 0]
        shifted = np.stack((probe, probe + math.pi / 2, probe - math.pi / 2))
        values = {}  # (block index, dimension) -> its rows of values
        for (b, block_dims), words in zip(held.items(), block_words):
            rows = values_of(sorted(block_dims), words, shifted if b == 0 else None)
            values.update(((b, dim), v) for dim, v in rows.items())
        stats = []
        for blocks, t in zip(dims, trees):
            tree = alpha[:, : (1 << t) - 1]
            leaves = np.zeros((hi - lo, 1 << t))
            for b, dim in enumerate(blocks):
                if dim != 1:
                    leaves[:, b] = values[b, dim][0]
            _, up, down = values.get((0, blocks[0]), np.zeros(3))  # zero at a dimension-1 block 0
            stats.append(coeff_probabilities(tree)[:, 0] * (0.5 * (up - down)))
            stats.append(np.sum(coeff_probability_gradients(tree)[:, tree_node(t - 1)] * leaves,
                                axis=-1) if t else np.empty(0))
        return stats

    stats = run_chunked(samples, chunk)
    return [
        GroupScanResult(spectrum=spectrum, mode=mode, samples=samples, seed=root_seed,
                        depth=depth, theta_stats=theta_stats,
                        alpha_stats=alpha_stats if t else None)
        for spectrum, t, theta_stats, alpha_stats in zip(spectra, trees, stats[::2], stats[1::2])
    ]
