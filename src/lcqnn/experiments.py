"""Trainability experiments: gradient-variance scans over register size,
branch count, and block-structured mixtures of group-symmetric costs.

All scans estimate the mean and variance of a single probe parameter's
gradient over uniform angle draws and return plain records ready for CSV/JSON
emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArchitectureError, CapacityError, LcqnnError
from .gradients import (
    TWO_PI,
    GradStats,
    default_probe_param,
    estimate_grad_stats,
    run_chunked,
)
from .model import (
    LcqnnModel,
    coeff_probabilities,
    coeff_probability_gradients,
    entangling_gates,
    make_model,
    tree_node,
)
from .sim import (
    PauliZSum,
    RngStream,
    diagonal_expectations,
    ginibre,
    haar_columns,
    init_zero,
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


def _record(
    model: LcqnnModel, requested_k: int, obs, param_id, samples, seed, stats: GradStats
) -> ScanRecord:
    return ScanRecord(
        m=model.num_controls,
        n=model.num_working,
        L=model.branch_count,
        k=requested_k,
        D=model.depth,
        observable=obs.describe(),
        param_id=param_id,
        samples=samples,
        seed=seed,
        mean=stats.mean,
        variance=stats.variance,
        stderr=stats.stderr,
    )


def run_variance_point(
    m: int,
    n: int,
    L: int,
    k: int,
    D: int,
    samples: int,
    root_seed: int,
    *,
    obs=None,
    param_id: int | None = None,
) -> ScanRecord:
    """Estimate one configuration; the probe defaults to branch 0's first
    rotation angle, which exists for every architecture with D >= 1."""
    model = make_model(m, n, L, k, D)
    if obs is None:
        obs = z0_observable(n)
    if param_id is None:
        param_id = default_probe_param(model)
    stats = estimate_grad_stats(model, obs, param_id, samples, root_seed)
    return _record(model, k, obs, param_id, samples, root_seed, stats)


def scan_variance_vs_L(
    m: int = 3,
    n: int = 6,
    k: int = 5,
    D: int = 3,
    L_list=(1, 2, 4, 8),
    samples: int = 500,
    root_seed: int = 42,
    *,
    obs=None,
    param_id: int | None = None,
) -> list[ScanRecord]:
    """Variance against branch count at fixed register and depth.

    The probe lives in branch 0, which keeps a nonzero weight for every L.
    """
    for L in L_list:
        if L < 1 or L & (L - 1):
            raise ArchitectureError(f"branch counts must be powers of two, got {L}")
        if L > (1 << m):
            raise ArchitectureError(f"branch count {L} does not fit {m} control qubit(s)")
    return [
        run_variance_point(m, n, L, k, D, samples, root_seed, obs=obs, param_id=param_id)
        for L in L_list
    ]


def scan_variance_global(
    m_list=(1, 2),
    n_list=(2, 3, 4, 5),
    D: int = 3,
    samples: int = 500,
    root_seed: int = 42,
) -> list[ScanRecord]:
    """Fully global variant: one branch per control basis state (L = 2^m)
    and a single working-register-wide block (k = n), scanned over total
    register size m + n."""
    return [
        run_variance_point(m, n, 1 << m, n, D, samples, root_seed)
        for m in m_list
        for n in n_list
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

    @property
    def total_dimension(self) -> int:
        return sum(d * mult for d, mult in self.blocks)


def su2_block_dims(N: int) -> BlockSpectrum:
    """Collective-SU(2) block structure of N qubits.

    Block j (j = 0..floor(N/2)) has dimension N - 2j + 1 and multiplicity
    N! (N-2j+1)! / ((N-j+1)! j! (N-2j)!), evaluated in exact integer
    arithmetic.  Low-j blocks stay polynomial in N while mid-j multiplicities
    grow exponentially.
    """
    if N < 1:
        raise ArchitectureError(f"need at least one qubit, got {N}")
    if N > 64:
        raise CapacityError(f"supported range is N <= 64, got {N}")
    blocks = []
    for j in range(N // 2 + 1):
        d = N - 2 * j + 1
        mult_num = math.factorial(N) * math.factorial(N - 2 * j + 1)
        mult_den = (
            math.factorial(N - j + 1) * math.factorial(j) * math.factorial(N - 2 * j)
        )
        mult, rem = divmod(mult_num, mult_den)
        if rem:
            raise LcqnnError(f"non-integer multiplicity for N={N}, j={j}")
        blocks.append((d, mult))
    return BlockSpectrum(tuple(blocks))


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


def _haar_values(dim: int, gens, angles) -> np.ndarray:
    """Block expectations under Haar unitaries, one drawn from each generator.

    The probe is a rotation by ``angles[s, b]`` in the span of the first two
    basis states, applied before sample ``b``'s unitary; mode-invariant
    thanks to Haar left-invariance. ``angles`` has shape (k, B) and so has
    the result; ``None`` is one row of zeros. Only the two columns the probe
    reaches are orthonormalized.
    """
    z = np.empty((len(gens), dim, 2), dtype=np.complex128)
    for b, gen in enumerate(gens):
        z[b] = ginibre(dim, gen)[:, :2]
    cols = haar_columns(z)
    if angles is None:
        angles = np.zeros((1, len(gens)))
    c, s = np.cos(angles / 2.0), np.sin(angles / 2.0)
    psi = cols[..., 0] * c[..., None] + cols[..., 1] * s[..., None]
    return np.sum(balanced_z_diag(dim) * np.abs(psi) ** 2, axis=-1)


def _ansatz_values(dim: int, depth: int, gens, angles) -> np.ndarray:
    """Block expectations under layered circuits on the block's padded qubit
    register, angles drawn from each generator.

    Row ``s`` of ``angles`` (shape (k, B)) replaces every sample's first
    rotation polar angle (the probe); ``None`` keeps the drawn angles. The
    observable is zero on the padding, so only the block itself carries
    weight.
    """
    q = (dim - 1).bit_length()
    gates = entangling_gates(range(q), depth)
    params = np.array([gen.uniform(0.0, TWO_PI, 3 * q * depth) for gen in gens])
    if angles is not None:
        params = np.tile(params, (len(angles), 1))
        params[:, 0] = np.ravel(angles)
    diag = np.zeros(1 << q)
    diag[:dim] = balanced_z_diag(dim)
    psi_in = init_zero(q).amps.reshape((2,) * q)
    return diagonal_expectations(psi_in, gates, params, diag).reshape(-1, len(gens))


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


def group_block_variance(
    spectrum: BlockSpectrum,
    samples: int = 500,
    mode: str = "haar",
    root_seed: int = 42,
    depth: int = 8,
) -> GroupScanResult:
    """Gradient statistics of C = sum_mu p_mu(alpha) <psi_mu| O_mu |psi_mu>.

    The mixture weights come from a coefficient tree over ceil(log2 L)
    qubits (leaves beyond the retained blocks carry a zero operator); each
    block state is prepared by a Haar unitary on the exact block dimension or
    by a layered circuit on its padded qubit register.  Probes: a rotation
    angle inside block 0 (theta) and the first deepest-level tree angle
    (alpha, absent for a single block).
    """
    if mode not in ("haar", "ansatz"):
        raise LcqnnError(f"mode must be 'haar' or 'ansatz', got {mode!r}")
    if samples < 1:
        raise LcqnnError("need at least one sample")
    if mode == "ansatz" and depth < 1:
        raise LcqnnError("ansatz mode needs depth >= 1: the probe is its first rotation")
    for d, mult in spectrum.blocks:
        if d * mult > _BLOCK_DIM_LIMIT:
            raise CapacityError(
                f"block dimension {d * mult} exceeds the supported {_BLOCK_DIM_LIMIT}"
            )
        if mode == "haar" and d * mult > _HAAR_DIM_LIMIT:
            raise CapacityError(
                f"haar mode draws dense matrices only up to dimension {_HAAR_DIM_LIMIT}"
            )
    L = spectrum.num_blocks
    tree_depth = (L - 1).bit_length()
    num_leaves = 1 << tree_depth
    probe_node = tree_node(tree_depth - 1) if tree_depth else None
    dims = [d * mult for d, mult in spectrum.blocks]

    def block_values(dim, gens, angles):
        if mode == "haar":
            return _haar_values(dim, gens, angles)
        return _ansatz_values(dim, depth, gens, angles)

    def chunk(lo: int, hi: int) -> tuple[GradStats, GradStats]:
        streams = [RngStream(root_seed, i) for i in range(lo, hi)]
        batch = hi - lo
        alpha = np.array(
            [s.component_generator(0).uniform(0.0, TWO_PI, num_leaves - 1) for s in streams]
        ).reshape(batch, num_leaves - 1)
        probe = np.array([s.component_generator(1).uniform(0.0, TWO_PI) for s in streams])
        values = np.zeros((batch, num_leaves))
        grad0 = np.zeros(batch)
        for b, dim in enumerate(dims):
            if dim == 1:
                continue  # balanced_z_diag(1) is 0: value and gradient vanish
            gens = [s.component_generator(_BLOCK_COMPONENT_BASE + b) for s in streams]
            if b == 0:
                at, up, down = block_values(
                    dim, gens, np.stack((probe, probe + math.pi / 2, probe - math.pi / 2))
                )
                values[:, 0] = at
                grad0 = 0.5 * (up - down)
            else:
                values[:, b] = block_values(dim, gens, None)[0]
        theta_part, alpha_part = GradStats(), GradStats()
        for grad in coeff_probabilities(alpha)[:, 0] * grad0:
            theta_part.add(float(grad))
        if probe_node is not None:
            jac_row = coeff_probability_gradients(alpha)[:, probe_node]
            for grad in np.sum(jac_row * values, axis=-1):
                alpha_part.add(float(grad))
        return theta_part, alpha_part

    theta_stats, alpha_stats = GradStats(), GradStats()
    for theta_part, alpha_part in run_chunked(samples, chunk):
        theta_stats.merge(theta_part)
        alpha_stats.merge(alpha_part)
    return GroupScanResult(
        spectrum=spectrum,
        mode=mode,
        samples=samples,
        seed=root_seed,
        depth=depth,
        theta_stats=theta_stats,
        alpha_stats=alpha_stats if probe_node is not None else None,
    )
