"""Variance scans, block spectra, and group-symmetric cost statistics."""

import math

import numpy as np
import pytest

from lcqnn.errors import ArchitectureError, CapacityError, LcqnnError
from lcqnn.experiments import (
    BlockSpectrum,
    balanced_z_diag,
    fit_log2_slope,
    group_block_variance,
    run_variance_point,
    scan_variance_global,
    scan_variance_vs_L,
    scan_variance_vs_n,
    select_blocks,
    su2_block_dims,
    z0_observable,
)

# ---------------------------------------------------------------------------
# SU(2) block arithmetic


def test_su2_block_dims_small_cases():
    assert su2_block_dims(2).blocks == ((3, 1), (1, 1))
    assert su2_block_dims(3).blocks == ((4, 1), (2, 2))
    n4 = su2_block_dims(4)
    assert n4.blocks == ((5, 1), (3, 3), (1, 2))
    assert n4.blocks[2] == (1, 2)  # smallest block, multiplicity 2
    assert n4.d_max == 9
    assert n4.total_dimension == 16


def test_su2_block_dims_completeness():
    for N in range(1, 21):
        spectrum = su2_block_dims(N)
        assert spectrum.total_dimension == 1 << N
        assert all(d >= 1 and m >= 1 for d, m in spectrum.blocks)


def test_su2_multiplicity_growth():
    # mid-spectrum multiplicities grow exponentially while dimensions shrink.
    spectrum = su2_block_dims(20)
    dims = [d for d, _ in spectrum.blocks]
    mults = [m for _, m in spectrum.blocks]
    assert max(dims) == 21 and dims[-1] == 1
    assert max(mults) > 10000


def test_su2_block_dims_validation():
    with pytest.raises(ArchitectureError):
        su2_block_dims(0)
    with pytest.raises(CapacityError):
        su2_block_dims(65)


def test_select_blocks():
    spectrum = su2_block_dims(6)
    kept = select_blocks(spectrum, [0, 1])
    assert kept.blocks == ((7, 1), (5, 5))
    with pytest.raises(ArchitectureError):
        select_blocks(spectrum, [9])
    with pytest.raises(ArchitectureError):
        BlockSpectrum(())


def test_balanced_z_diag():
    np.testing.assert_array_equal(balanced_z_diag(4), [1, 1, -1, -1])
    np.testing.assert_array_equal(balanced_z_diag(5), [1, 1, 0, -1, -1])
    np.testing.assert_array_equal(balanced_z_diag(1), [0])
    for dim in range(1, 12):
        assert balanced_z_diag(dim).sum() == 0


# ---------------------------------------------------------------------------
# architecture scans


def test_run_variance_point_record_fields():
    rec = run_variance_point(2, 3, 4, 5, 1, samples=30, root_seed=5)
    assert (rec.m, rec.n, rec.L, rec.D) == (2, 3, 4, 1)
    assert rec.k == 5  # requested locality recorded even though capped to n
    assert rec.observable == "Z0"
    assert rec.param_id == 3  # first branch angle after the 3 tree angles
    assert rec.samples == 30 and rec.seed == 5
    assert rec.variance > 0
    assert math.isfinite(rec.stderr)


def test_scan_vs_n_shape_and_determinism():
    records = scan_variance_vs_n(
        m=1, L=2, D=1, k_list=(2,), n_list=(2, 3), samples=25, root_seed=9
    )
    assert [(r.k, r.n) for r in records] == [(2, 2), (2, 3)]
    again = scan_variance_vs_n(
        m=1, L=2, D=1, k_list=(2,), n_list=(2, 3), samples=25, root_seed=9
    )
    assert [(r.mean, r.variance) for r in records] == [
        (r.mean, r.variance) for r in again
    ]


def test_scan_vs_L_validation_and_single_branch_equivalence():
    with pytest.raises(ArchitectureError):
        scan_variance_vs_L(m=2, L_list=(3,), samples=2)
    with pytest.raises(ArchitectureError):
        scan_variance_vs_L(m=2, L_list=(8,), samples=2)

    # L=1 with idle control qubits is exactly a plain QNN: the branch-0 probe
    # sees identical draws and weights, so the estimates agree bit for bit.
    combined = run_variance_point(3, 2, 1, 2, 1, samples=60, root_seed=21)
    plain = run_variance_point(0, 2, 1, 2, 1, samples=60, root_seed=21)
    assert combined.mean == plain.mean
    assert combined.variance == plain.variance


def test_scan_global_uses_full_tree_and_global_blocks():
    records = scan_variance_global(
        m_list=(1,), n_list=(2, 3), D=1, samples=20, root_seed=3
    )
    assert [(r.m, r.n, r.L, r.k) for r in records] == [(1, 2, 2, 2), (1, 3, 2, 3)]


def test_scan_records_zero_mean():
    rec = run_variance_point(1, 2, 2, 2, 2, samples=200, root_seed=13)
    assert abs(rec.mean) <= 4 * rec.stderr


def test_fit_log2_slope():
    xs = [1.0, 2.0, 3.0]
    assert fit_log2_slope(xs, [0.5, 0.25, 0.125]) == pytest.approx(-1.0, abs=1e-12)
    assert fit_log2_slope([0, 1], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(LcqnnError):
        fit_log2_slope([1.0], [0.5])
    with pytest.raises(LcqnnError):
        fit_log2_slope(xs, [0.5, 0.0, 0.1])


def test_custom_observable_flows_into_record():
    obs = z0_observable(2)
    rec = run_variance_point(1, 2, 2, 2, 1, samples=10, root_seed=1, obs=obs)
    assert rec.observable == "Z0"


# ---------------------------------------------------------------------------
# group-symmetric block costs


def test_single_block_haar_matches_analytic_variance():
    # one 2-dimensional block: the rotation-probe gradient under a Haar
    # unitary has variance 1/(d+1) = 1/3.
    result = group_block_variance(
        BlockSpectrum(((2, 1),)), samples=20000, mode="haar", root_seed=101
    )
    assert result.alpha_stats is None
    assert result.theta_stats.variance == pytest.approx(1.0 / 3.0, rel=0.1)
    assert abs(result.theta_stats.mean) <= 4 * result.theta_stats.stderr


def test_group_scan_two_blocks_has_alpha_probe():
    result = group_block_variance(
        BlockSpectrum(((4, 1), (4, 1))), samples=400, mode="haar", root_seed=7
    )
    assert result.alpha_stats is not None
    assert result.alpha_stats.count == 400
    assert abs(result.alpha_stats.mean) <= 4 * result.alpha_stats.stderr
    assert abs(result.theta_stats.mean) <= 4 * result.theta_stats.stderr


def test_group_scan_deterministic_and_thread_invariant():
    spectrum = BlockSpectrum(((4, 1), (2, 2)))
    a = group_block_variance(spectrum, samples=130, mode="haar", root_seed=5)
    b = group_block_variance(spectrum, samples=130, mode="haar", root_seed=5)
    assert (a.theta_stats.mean, a.alpha_stats.variance) == (
        b.theta_stats.mean,
        b.alpha_stats.variance,
    )
    threaded = group_block_variance(
        spectrum, samples=130, mode="haar", root_seed=5, threads=4
    )
    assert threaded.theta_stats.m2 == a.theta_stats.m2
    assert threaded.alpha_stats.m2 == a.alpha_stats.m2
    other = group_block_variance(spectrum, samples=130, mode="haar", root_seed=6)
    assert other.theta_stats.variance != a.theta_stats.variance


def test_group_scan_dimension_halving_ratio():
    # doubling every block dimension should roughly halve the probe variance.
    small = group_block_variance(
        BlockSpectrum(((8, 1), (8, 1))), samples=2000, mode="haar", root_seed=31
    )
    large = group_block_variance(
        BlockSpectrum(((16, 1), (16, 1))), samples=2000, mode="haar", root_seed=31
    )
    ratio = large.theta_stats.variance / small.theta_stats.variance
    assert 0.3 <= ratio <= 0.8


def test_haar_and_ansatz_modes_agree_on_power_of_two_block():
    # at depth >= 8 the layered circuit is close enough to Haar for the
    # second-moment probe statistics to match within 50%.
    spectrum = BlockSpectrum(((8, 1),))
    haar = group_block_variance(spectrum, samples=4000, mode="haar", root_seed=19)
    ansatz = group_block_variance(
        spectrum, samples=4000, mode="ansatz", root_seed=19, depth=8
    )
    rel = abs(haar.theta_stats.variance - ansatz.theta_stats.variance) / (
        haar.theta_stats.variance
    )
    assert rel <= 0.5


def test_group_scan_validation():
    spectrum = BlockSpectrum(((2, 1),))
    with pytest.raises(LcqnnError):
        group_block_variance(spectrum, mode="random")
    with pytest.raises(LcqnnError):
        group_block_variance(spectrum, samples=0)
    with pytest.raises(LcqnnError, match="depth"):
        group_block_variance(spectrum, mode="ansatz", depth=0)
    with pytest.raises(CapacityError):
        group_block_variance(BlockSpectrum(((512, 1),)), mode="haar", samples=2)
    with pytest.raises(CapacityError):
        group_block_variance(BlockSpectrum(((1 << 13, 1),)), mode="ansatz", samples=2)
    with pytest.raises(ArchitectureError):
        BlockSpectrum(((0, 1),))
