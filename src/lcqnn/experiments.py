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
from .sim import PauliZSum, RngStream, apply_gates, haar_unitary, init_zero
from .sim import gate_matrix  # noqa: F401  (perfbench/spans.py counts calls through this name)


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


def _haar_block_value(dim, gen):
    """Expectation under a Haar unitary, as a function of the probe angle.

    The probe is a rotation in the span of the first two basis states applied
    before the unitary; mode-invariant thanks to Haar left-invariance.
    Without an argument the probe angle is 0.
    """
    diag = balanced_z_diag(dim)
    u = haar_unitary(dim, gen)

    def value(theta=0.0):
        r = np.zeros(dim)
        r[0] = math.cos(theta / 2.0)
        r[1] = math.sin(theta / 2.0)
        psi = u @ r
        return float(diag @ (np.abs(psi) ** 2))

    return value


def _ansatz_block_value(dim, depth, gen):
    """Expectation under a layered circuit on the block's padded qubit
    register, as a function of the probe (the first rotation's polar angle).
    Without an argument the drawn first angle is kept.  The observable is
    zero on the padding, so only the block itself carries weight."""
    q = (dim - 1).bit_length()
    gates = entangling_gates(range(q), depth)
    params = gen.uniform(0.0, TWO_PI, 3 * q * depth)
    diag = np.zeros(1 << q)
    diag[:dim] = balanced_z_diag(dim)

    psi_in = init_zero(q).amps.reshape((2,) * q)

    def value(theta=None):
        ps = params if theta is None else np.concatenate(([theta], params[1:]))
        psi = apply_gates(psi_in, gates, ps)
        return float(diag @ (np.abs(psi.reshape(-1)) ** 2))

    return value


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

    def chunk(lo: int, hi: int) -> tuple[GradStats, GradStats]:
        theta_part, alpha_part = GradStats(), GradStats()
        for i in range(lo, hi):
            stream = RngStream(root_seed, i)
            alpha = stream.component_generator(0).uniform(0.0, TWO_PI, num_leaves - 1)
            probe_theta = float(stream.component_generator(1).uniform(0.0, TWO_PI))
            values = np.zeros(num_leaves)
            grad0 = 0.0
            for b, dim in enumerate(dims):
                if dim == 1:
                    continue  # balanced_z_diag(1) is 0: value and gradient vanish
                gen = stream.component_generator(_BLOCK_COMPONENT_BASE + b)
                if mode == "haar":
                    value = _haar_block_value(dim, gen)
                else:
                    value = _ansatz_block_value(dim, depth, gen)
                if b == 0:
                    values[b] = value(probe_theta)
                    grad0 = 0.5 * (
                        value(probe_theta + math.pi / 2) - value(probe_theta - math.pi / 2)
                    )
                else:
                    values[b] = value()
            probs = coeff_probabilities(alpha)
            theta_part.add(float(probs[0]) * grad0)
            if probe_node is not None:
                jac = coeff_probability_gradients(alpha)
                alpha_part.add(float(jac[probe_node] @ values))
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
