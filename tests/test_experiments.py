"""Variance scans, block spectra, and group-symmetric cost statistics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lcqnn import experiments, sim
from lcqnn.errors import ArchitectureError, CapacityError, LcqnnError
from lcqnn.experiments import (
    BlockSpectrum,
    balanced_z_diag,
    fit_log2_slope,
    group_block_variance,
    group_block_variances,
    run_variance_point,
    select_blocks,
    su2_block_dims,
    z0_observable,
)
from lcqnn.gradients import TWO_PI, default_probe_param
from lcqnn.model import (
    coeff_probabilities,
    coeff_probability_gradients,
    entangling_gates,
    make_model,
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
    assert sum(d * mult for d, mult in n4.blocks) == 16


def test_su2_block_dims_completeness():
    for N in range(1, 21):
        spectrum = su2_block_dims(N)
        assert sum(d * mult for d, mult in spectrum.blocks) == 1 << N
        assert all(d >= 1 and m >= 1 for d, m in spectrum.blocks)


def test_su2_multiplicity_growth():
    # mid-spectrum multiplicities grow exponentially while dimensions shrink.
    spectrum = su2_block_dims(20)
    dims = [d for d, _ in spectrum.blocks]
    mults = [m for _, m in spectrum.blocks]
    assert max(dims) == 21 and dims[-1] == 1
    assert max(mults) > 10000


def test_su2_multiplicities_equal_the_factorial_formula():
    # the multiplicity of total spin N/2 - j among N spin-1/2s, in its
    # factorial form N! (N-2j+1)! / ((N-j+1)! j! (N-2j)!)
    f = math.factorial
    for N in range(1, 65):
        expected = [
            (N - 2 * j + 1, f(N) * f(N - 2 * j + 1) // (f(N - j + 1) * f(j) * f(N - 2 * j)))
            for j in range(N // 2 + 1)
        ]
        assert list(su2_block_dims(N).blocks) == expected, f"N={N}"


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


def _point(m, n, L, k, D, samples, root_seed):
    """run_variance_point with the CLI's default observable and probe."""
    model = make_model(m, n, L, k, D)
    return run_variance_point(
        [(model, k, z0_observable(n), default_probe_param(model))], samples, root_seed
    )[0]


def test_run_variance_point_record_fields():
    rec = _point(2, 3, 4, 5, 1, samples=30, root_seed=5)
    assert (rec.m, rec.n, rec.L, rec.D) == (2, 3, 4, 1)
    assert rec.k == 5  # requested locality recorded even though capped to n
    assert rec.observable == "Z0"
    assert rec.param_id == 3  # first branch angle after the 3 tree angles
    assert rec.samples == 30 and rec.seed == 5
    assert rec.variance > 0
    assert math.isfinite(rec.stderr)


def test_single_branch_equivalence():
    # L=1 with idle control qubits is exactly a plain QNN: the branch-0 probe
    # sees identical draws and weights, so the estimates agree bit for bit.
    combined = _point(3, 2, 1, 2, 1, samples=60, root_seed=21)
    plain = _point(0, 2, 1, 2, 1, samples=60, root_seed=21)
    assert combined.mean == plain.mean
    assert combined.variance == plain.variance


def test_scan_global_uses_full_tree_and_global_blocks():
    # the global scan: one branch per control state and a register-wide block
    records = [_point(1, n, 2, n, 1, samples=20, root_seed=3) for n in (2, 3)]
    assert [(r.m, r.n, r.L, r.k) for r in records] == [(1, 2, 2, 2), (1, 3, 2, 3)]


def test_scan_records_zero_mean():
    rec = _point(1, 2, 2, 2, 2, samples=200, root_seed=13)
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
    for obs, name in ((z0_observable(2), "Z0"), (sim.PauliZSum([(1.0, (1,))], num_qubits=2), "Z1")):
        rec, = run_variance_point([(make_model(1, 2, 2, 2, 1), 2, obs, 1)], 10, 1)
        assert rec.observable == name


# ---------------------------------------------------------------------------
# group-symmetric block costs


def test_single_block_haar_matches_analytic_variance():
    # one 2-dimensional block: the rotation-probe gradient under a Haar
    # unitary has variance 1/(d+1) = 1/3.
    result = group_block_variance(
        BlockSpectrum(((2, 1),)), samples=20000, mode="haar", root_seed=101, depth=8
    )
    assert result.alpha_stats is None
    assert result.theta_stats.variance == pytest.approx(1.0 / 3.0, rel=0.1)
    assert abs(result.theta_stats.mean) <= 4 * result.theta_stats.stderr


def test_group_scan_two_blocks_has_alpha_probe():
    result = group_block_variance(
        BlockSpectrum(((4, 1), (4, 1))), samples=400, mode="haar", root_seed=7, depth=8
    )
    assert result.alpha_stats is not None
    assert result.alpha_stats.count == 400
    assert abs(result.alpha_stats.mean) <= 4 * result.alpha_stats.stderr
    assert abs(result.theta_stats.mean) <= 4 * result.theta_stats.stderr


def test_group_scan_deterministic_and_thread_invariant():
    spectrum = BlockSpectrum(((4, 1), (2, 2)))
    a = group_block_variance(spectrum, samples=130, mode="haar", root_seed=5, depth=8)
    b = group_block_variance(spectrum, samples=130, mode="haar", root_seed=5, depth=8)
    assert (a.theta_stats.mean, a.alpha_stats.variance) == (
        b.theta_stats.mean,
        b.alpha_stats.variance,
    )
    other = group_block_variance(spectrum, samples=130, mode="haar", root_seed=6, depth=8)
    assert other.theta_stats.variance != a.theta_stats.variance


def test_group_scan_dimension_halving_ratio():
    # doubling every block dimension should roughly halve the probe variance.
    small = group_block_variance(
        BlockSpectrum(((8, 1), (8, 1))), samples=2000, mode="haar", root_seed=31, depth=8
    )
    large = group_block_variance(
        BlockSpectrum(((16, 1), (16, 1))), samples=2000, mode="haar", root_seed=31, depth=8
    )
    ratio = large.theta_stats.variance / small.theta_stats.variance
    assert 0.3 <= ratio <= 0.8


def test_haar_and_ansatz_modes_agree_on_power_of_two_block():
    # at depth >= 8 the layered circuit is close enough to Haar for the
    # second-moment probe statistics to match within 50%.
    spectrum = BlockSpectrum(((8, 1),))
    haar = group_block_variance(spectrum, samples=4000, mode="haar", root_seed=19, depth=8)
    ansatz = group_block_variance(
        spectrum, samples=4000, mode="ansatz", root_seed=19, depth=8
    )
    rel = abs(haar.theta_stats.variance - ansatz.theta_stats.variance) / (
        haar.theta_stats.variance
    )
    assert rel <= 0.5


def _group_scan_per_sample(spectrum, samples, mode, seed, depth):
    """One sample at a time, with full Haar unitaries: the probe and tree
    gradients of each sample, from the documented component streams."""
    L = spectrum.num_blocks
    t = (L - 1).bit_length()
    theta_grads, alpha_grads = [], []
    for i in range(samples):
        stream = sim.RngStream(seed, i)
        alpha = stream.component_generator(0).uniform(0.0, TWO_PI, (1 << t) - 1)
        probe = stream.component_generator(1).uniform(0.0, TWO_PI)
        values, grad0 = np.zeros(1 << t), 0.0
        for b, (d, mult) in enumerate(spectrum.blocks):
            dim = d * mult
            if dim == 1:
                continue
            gen = stream.component_generator(2 + b)
            if mode == "haar":
                u = sim.haar_unitary(dim, gen)
                diag = balanced_z_diag(dim)

                def value(theta, u=u, diag=diag):
                    psi = u[:, 0] * math.cos(theta / 2) + u[:, 1] * math.sin(theta / 2)
                    return diag @ np.abs(psi) ** 2
            else:
                q = (dim - 1).bit_length()
                gates = entangling_gates(range(q), depth)
                params = gen.uniform(0.0, TWO_PI, 3 * q * depth)
                diag = np.zeros(1 << q)
                diag[:dim] = balanced_z_diag(dim)

                def value(theta, gates=gates, params=params, diag=diag, q=q):
                    ps = np.concatenate(([theta], params[1:]))
                    psi = sim.apply_gates(
                        sim.init_zero(q).amps.reshape((1,) + (2,) * q), gates, ps[None]
                    )
                    return diag @ np.abs(psi.reshape(-1)) ** 2
            if b == 0:
                values[0] = value(probe)
                grad0 = 0.5 * (value(probe + math.pi / 2) - value(probe - math.pi / 2))
            else:
                values[b] = value(0.0) if mode == "haar" else value(params[0])
        theta_grads.append(coeff_probabilities(alpha)[0] * grad0)
        if t:
            alpha_grads.append(coeff_probability_gradients(alpha)[(1 << (t - 1)) - 1] @ values)
    return np.array(theta_grads), np.array(alpha_grads)


@pytest.mark.parametrize("mode", ["haar", "ansatz"])
def test_group_scan_matches_per_sample_reference(mode):
    spectrum = BlockSpectrum(((3, 1), (2, 2), (1, 1), (5, 1), (4, 1)))
    # scanned beside it, a spectrum with larger blocks at the same indexes:
    # the first's blocks then read a prefix of each stream's draw for these
    wider = BlockSpectrum(((8, 1), (3, 2), (1, 1), (9, 1)))
    results = group_block_variances([spectrum, wider], samples=70, mode=mode, root_seed=8,
                                    depth=2)
    for spec, result in zip((spectrum, wider), results):
        theta, alpha = _group_scan_per_sample(spec, 70, mode, 8, 2)
        for stats, grads in ((result.theta_stats, theta), (result.alpha_stats, alpha)):
            assert stats.count == 70
            assert stats.mean == pytest.approx(grads.mean(), rel=0, abs=1e-12)
            assert stats.variance == pytest.approx(grads.var(ddof=1), rel=0, abs=1e-12)


@pytest.mark.parametrize("mode", ["haar", "ansatz"])
def test_lockstep_group_scan_equals_each_spectrum_alone(mode):
    # block indexes shared at equal dimensions (4 at block 0) and at
    # different ones: smaller and larger powers of two (2, 8, 16) and odd
    # dimensions (3, 5, 7), a dimension-1 block beside drawn ones, and a
    # single-block spectrum
    spectra = [
        BlockSpectrum(((4, 1), (3, 1), (1, 1), (8, 1))),
        BlockSpectrum(((4, 1), (16, 1), (5, 1))),
        BlockSpectrum(((2, 1),)),
        BlockSpectrum(((1, 1), (2, 2), (7, 1), (2, 1), (3, 1))),
    ]
    together = group_block_variances(spectra, 300, mode, 6, depth=2)
    assert together == [group_block_variance(s, 300, mode, 6, depth=2) for s in spectra]
    assert together[2].alpha_stats is None


def test_group_scan_is_bit_identical_under_any_amplitude_budget(monkeypatch):
    spectrum = BlockSpectrum(((3, 1), (5, 1), (2, 2)))
    reference = group_block_variance(spectrum, samples=70, mode="ansatz", root_seed=4, depth=2)
    for budget in (1, 24):  # one row per sub-batch, then three of a 3-qubit block
        monkeypatch.setattr(sim, "BATCH_AMPLITUDES", budget)
        rows = group_block_variance(spectrum, samples=70, mode="ansatz", root_seed=4, depth=2)
        assert rows == reference


# the spectra of tests/golden/group_scan_haar_large.json: dimensions 256 and
# 100 draw one stream per pass, 32 sixteen and 16 sixty-four
_LARGE_HAAR = [BlockSpectrum(((256, 1), (32, 1))), BlockSpectrum(((100, 1), (1, 1), (16, 1)))]


def test_haar_scan_is_bit_identical_under_any_pass_budget(monkeypatch):
    reference = group_block_variances(_LARGE_HAAR, 260, "haar", 5, depth=8)
    # one stream per pass; three 32-dimension or twelve 16-dimension streams,
    # which leave a ragged last pass in each block; the whole block at once
    for budget in (1, 3 << 11, 1 << 40):
        monkeypatch.setattr(experiments, "_HAAR_PASS_NORMALS", budget)
        rows = group_block_variances(_LARGE_HAAR, 260, "haar", 5, depth=8)
        for row, ref in zip(rows, reference):
            for stats, ref_stats in ((row.theta_stats, ref.theta_stats),
                                     (row.alpha_stats, ref.alpha_stats)):
                assert dataclasses.astuple(stats) == dataclasses.astuple(ref_stats), budget


@pytest.mark.parametrize("dims, probe, parent_mib", [([256], False, 9.34),
                                                     ([100, 256], True, 13.28)])
def test_haar_values_peak_memory_is_bounded(dims, probe, parent_mib):
    # one 256-stream call at dimension 256: the draws' buffer holds one
    # stream (1 MiB), never a block of them; the bound is the peak of the
    # former one-stream 1-D buffer with 5 % slack
    words = sim.chunk_seeds(5, 0, 256, [2])[0]
    angles = None
    if probe:
        theta = TWO_PI * sim.pcg64_random(sim.chunk_seeds(5, 0, 256, [1])[0], 1)[:, 0]
        angles = np.stack((theta, theta + math.pi / 2, theta - math.pi / 2))
    experiments._haar_values([2], words[:1], None)  # load numpy.random outside the trace
    tracemalloc.start()
    try:
        experiments._haar_values(dims, words, angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * parent_mib * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_group_scan_validation():
    spectrum = BlockSpectrum(((2, 1),))
    with pytest.raises(LcqnnError):
        group_block_variance(spectrum, 500, "random", 42, 8)
    with pytest.raises(LcqnnError):
        group_block_variance(spectrum, 0, "haar", 42, 8)
    with pytest.raises(LcqnnError, match="depth"):
        group_block_variance(spectrum, 500, "ansatz", 42, 0)
    with pytest.raises(CapacityError):
        group_block_variance(BlockSpectrum(((512, 1),)), 2, "haar", 42, 8)
    with pytest.raises(CapacityError):
        group_block_variance(BlockSpectrum(((1 << 13, 1),)), 2, "ansatz", 42, 8)
    with pytest.raises(ArchitectureError):
        BlockSpectrum(((0, 1),))
