"""Acceptance suite: ten end-to-end checks at pinned tolerances.

These are the slow, statistics-heavy tests; each prints a one-line summary
of the measured quantities next to its band.  Sampling configurations are
shared between checks through module-scoped fixtures, so the whole suite
costs one pass over each experiment.
"""

import math
import time

import numpy as np
import pytest

from lcqnn import (
    BlockSpectrum,
    fit_log2_slope,
    lcqnn_forward,
    make_model,
    run_variance_point,
    su2_block_dims,
    z0_observable,
)
from lcqnn.cli import main
from lcqnn.experiments import group_block_variances
from lcqnn.gradients import TWO_PI, default_probe_param, probe_gradients
from lcqnn.mnist import (
    classifier,
    data_files_present,
    default_data_dir,
    fetch_instructions,
    load_dataset,
    run_accuracy_grid,
)
from test_mnist import train_config

SAMPLES = 500
ROOT_SEED = 42
LAYER_SEEDS = (11, 42, 97)


def variance_point(m, n, L, k, D, seed=ROOT_SEED):
    """One scan row as the CLI runs it: Z0 and branch 0's first angle."""
    model = make_model(m, n, L, k, D)
    return run_variance_point(
        [(model, z0_observable(n), default_probe_param(model))], SAMPLES, seed
    )[0]


def data_rows(text: str) -> list[str]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[1:]


# ---------------------------------------------------------------------------
# shared experiment runs


@pytest.fixture(scope="module")
def fig4_records():
    """Variance vs register size for local blocks, applicable points only."""
    start = time.monotonic()
    records = {}
    for k in (3, 5):
        for n in (3, 4, 6, 8):
            if k <= n:
                records[(k, n)] = variance_point(3, n, 8, k, 3)
    assert time.monotonic() - start < 900.0
    return records


@pytest.fixture(scope="module")
def companion_records():
    """Same architecture with one register-wide block per branch (k = n)."""
    start = time.monotonic()
    records = [variance_point(3, n, 8, n, 3) for n in (3, 4, 6, 8)]
    assert time.monotonic() - start < 900.0
    return records


@pytest.fixture(scope="module")
def layers_by_seed():
    """Variance vs branch count, repeated under three seeds."""
    start = time.monotonic()
    scans = {
        seed: [variance_point(3, 6, L, 5, 3, seed) for L in (1, 2, 4, 8)]
        for seed in LAYER_SEEDS
    }
    assert time.monotonic() - start < 900.0
    return scans


@pytest.fixture(scope="module")
def global_records():
    """One branch per control state and a register-wide block, vs m + n."""
    start = time.monotonic()
    records = [
        variance_point(m, n, 1 << m, n, 3)
        for m in (1, 2)
        for n in (2, 3, 4, 5)
    ]
    assert time.monotonic() - start < 600.0
    return records


GROUP_SPECTRA = {
    "16x2": BlockSpectrum(((16, 1), (16, 1))),
    "32x2": BlockSpectrum(((32, 1), (32, 1))),
    "16x4": BlockSpectrum(((16, 1),) * 4),
}

#: the ratio targets sit 0.025 from the band edge, so the ratio checks use a
#: larger sample count than the zero-mean checks (paired streams keep the
#: estimate tight; the runtime cost is seconds)
RATIO_SAMPLES = 20000


@pytest.fixture(scope="module")
def group_results_high():
    start = time.monotonic()
    results = dict(zip(GROUP_SPECTRA, group_block_variances(
        list(GROUP_SPECTRA.values()), RATIO_SAMPLES, "haar", ROOT_SEED, depth=8
    )))
    assert time.monotonic() - start < 600.0
    return results


@pytest.fixture(scope="module")
def group_results_500():
    return dict(zip(GROUP_SPECTRA, group_block_variances(
        list(GROUP_SPECTRA.values()), SAMPLES, "haar", ROOT_SEED, depth=8
    )))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_gradient_crosscheck(capsys):
    start = time.monotonic()
    code = main(["grad-check", "--probes", "50", "--seed", "42"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    print(f"criterion 1: grad-check exit {code} in {elapsed:.1f}s -> "
          f"{'PASS' if code == 0 else 'FAIL'}")
    assert code == 0, out
    assert elapsed < 120.0


def test_criterion_02_coefficient_exactness():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(0, 5))
        L = 1 << int(rng.integers(0, m + 1))
        alpha = rng.uniform(0.0, TWO_PI, L - 1)
        model = make_model(m, 1, L, 1, 0)
        state = lcqnn_forward(model, alpha, np.zeros(0))
        blocks = state.amps.reshape(1 << m, 2)[:: 1 << (m - model.tree_depth)]
        simulated = np.sum(np.abs(blocks) ** 2, axis=1)
        t = int(math.log2(L)) if L > 1 else 0
        closed = np.empty(L)
        for j in range(L):
            p = 1.0
            for level in range(t):
                node = (1 << level) - 1 + (j >> (t - level))
                bit = (j >> (t - 1 - level)) & 1
                factor = math.cos(alpha[node]) if bit == 0 else math.sin(alpha[node])
                p *= factor * factor
            closed[j] = p
        worst = max(worst, float(np.max(np.abs(simulated - closed))))
        worst = max(worst, abs(float(simulated.sum()) - 1.0))
    print(f"criterion 2: 200 spectra, worst deviation {worst:.3e} "
          f"(bound 1e-12) -> {'PASS' if worst <= 1e-12 else 'FAIL'}")
    assert worst <= 1e-12


def test_criterion_03_zero_mean_gradients(
    fig4_records, companion_records, layers_by_seed, global_records,
    group_results_500,
):
    checks = []
    scan_records = (
        list(fig4_records.values())
        + companion_records
        + [r for records in layers_by_seed.values() for r in records]
        + list(global_records)
    )
    for rec in scan_records:
        label = f"m={rec.m} n={rec.n} L={rec.L} k={rec.k} seed={rec.seed}"
        checks.append((label, rec.mean, rec.stderr))
    for label, res in group_results_500.items():
        checks.append((f"group {label} theta", res.theta_stats.mean,
                       res.theta_stats.stderr))
        if res.alpha_stats is not None:
            checks.append((f"group {label} alpha", res.alpha_stats.mean,
                           res.alpha_stats.stderr))
    worst = max(abs(mean) / stderr for _, mean, stderr in checks)
    print(f"criterion 3: {len(checks)} configurations, worst |mean|/stderr "
          f"{worst:.2f} (bound 4) -> {'PASS' if worst <= 4.0 else 'FAIL'}")
    for label, mean, stderr in checks:
        assert abs(mean) <= 4.0 * stderr, (
            f"{label}: |mean| {abs(mean):.3e} exceeds 4 x stderr {stderr:.3e}"
        )


def test_criterion_04_local_block_flatness(fig4_records, companion_records):
    ratio_k3 = fig4_records[(3, 8)].variance / fig4_records[(3, 3)].variance
    ratio_k5 = fig4_records[(5, 8)].variance / fig4_records[(5, 6)].variance
    slope = fit_log2_slope(
        [rec.n for rec in companion_records],
        [rec.variance for rec in companion_records],
    )
    ok = 0.5 <= ratio_k3 <= 2.0 and 0.5 <= ratio_k5 <= 2.0 and -1.35 <= slope <= -0.65
    print(f"criterion 4: k=3 ratio {ratio_k3:.3f}, k=5 ratio {ratio_k5:.3f} "
          f"(band [0.5, 2.0]); k=n slope {slope:.3f} (band -1 +/- 0.35) -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert 0.5 <= ratio_k3 <= 2.0
    assert 0.5 <= ratio_k5 <= 2.0
    assert -1.35 <= slope <= -0.65


def test_criterion_04_theory_equal_light_cones(fig4_records):
    # Z0 sees only the block group holding qubit 0, and that group's angles
    # are drawn alike for every n: qubits 0-2 at k=3, qubits 0-4 at k=5 once
    # n >= 5. Rows with equal light cones run the same circuit on the same
    # draws, so they are bit-equal, not merely close.
    cones = {3: (3, 4, 6, 8), 5: (6, 8)}
    rows = {k: [fig4_records[(k, n)] for n in sizes] for k, sizes in cones.items()}
    same = {k: len({(r.mean, r.variance, r.stderr) for r in recs}) == 1
            for k, recs in rows.items()}
    rendered = ", ".join(f"k={k} n in {list(cones[k])} bit-equal: {same[k]}" for k in cones)
    print(f"criterion 4 theory: {rendered} -> {'PASS' if all(same.values()) else 'FAIL'}")
    for k, recs in rows.items():
        for rec in recs[1:]:
            assert (rec.mean, rec.variance, rec.stderr) == (
                recs[0].mean, recs[0].variance, recs[0].stderr
            ), f"k={k}: n={rec.n} differs from n={recs[0].n}"


def test_criterion_05_branch_count_slope(layers_by_seed):
    # The probe gradient factorizes as p_0(alpha) * (d e_0 / d theta), and
    # each tree level contributes E[cos^4] = 3/8 to E[p_0^2], so the measured
    # slope concentrates near log2(3/8) ~ -1.415.  The pinned band is
    # -1 +/- 0.33; the decay is faster than its center.
    slopes = {
        seed: fit_log2_slope(
            [math.log2(rec.L) for rec in records],
            [rec.variance for rec in records],
        )
        for seed, records in layers_by_seed.items()
    }
    ok = all(-1.33 <= s <= -0.67 for s in slopes.values())
    rendered = ", ".join(f"seed {s}: {v:.3f}" for s, v in slopes.items())
    print(f"criterion 5: slopes {rendered} (band -1 +/- 0.33) -> "
          f"{'PASS' if ok else 'FAIL'}")
    for seed, slope in slopes.items():
        assert -1.33 <= slope <= -0.67, (
            f"seed {seed}: slope {slope:.3f} outside [-1.33, -0.67]"
        )


def test_criterion_05_theory_branch_count_ratio():
    # Criterion 5's probe is branch 0's first angle.  Its theta draws are the
    # same for every L (one stream, branch 0 first) and alpha is drawn
    # independently of theta, so the gradient p_0(alpha) * d_i pairs with
    # the L=1 gradient d_i and Var(L) / Var(1) = E[p_0^2] = (3/8)^log2(L)
    # exactly.  Test the paired ratio against its delta-method error, at a
    # smaller shape than criterion 5's (n=3, k=3, D=2) to keep it fast.
    samples, seed = 2000, ROOT_SEED

    def branch_gradients(L):
        model = make_model(3, 3, L, 3, 2)
        pid = default_probe_param(model)
        return probe_gradients([(model, z0_observable(3), pid)], seed, 0, samples)[0]

    base = branch_gradients(1)
    base_sq = (base - base.mean()) ** 2
    report = []
    for L in (2, 4, 8):
        grads = branch_gradients(L)
        grads_sq = (grads - grads.mean()) ** 2
        ratio = grads_sq.mean() / base_sq.mean()
        stderr = np.std(grads_sq - ratio * base_sq) / (
            math.sqrt(samples) * base_sq.mean()
        )
        expected = (3 / 8) ** math.log2(L)
        report.append((L, ratio, expected, (ratio - expected) / stderr))
    rendered = ", ".join(
        f"L={L}: {r:.4f} vs {e:.4f} (z {z:+.2f})" for L, r, e, z in report
    )
    ok = all(abs(z) <= 4.0 for *_, z in report)
    print(f"criterion 5 theory: Var(L)/Var(1) {rendered} -> "
          f"{'PASS' if ok else 'FAIL'}")
    for L, ratio, expected, z in report:
        assert abs(z) <= 4.0, (
            f"L={L}: ratio {ratio:.4f} is {z:+.2f} standard errors from {expected:.4f}"
        )


def test_criterion_06_global_size_slope(global_records):
    slope = fit_log2_slope(
        [rec.m + rec.n for rec in global_records],
        [rec.variance for rec in global_records],
    )
    sizes = sorted({rec.m + rec.n for rec in global_records})
    ok = -1.35 <= slope <= -0.65 and len(sizes) >= 4
    print(f"criterion 6: slope {slope:.3f} over sizes {sizes} "
          f"(band -1 +/- 0.35) -> {'PASS' if ok else 'FAIL'}")
    assert len(sizes) >= 4
    assert -1.35 <= slope <= -0.65


def test_criterion_07_block_dimension_scaling(group_results_high):
    theta_ratio = (
        group_results_high["32x2"].theta_stats.variance
        / group_results_high["16x2"].theta_stats.variance
    )
    alpha_ratio = (
        group_results_high["16x4"].alpha_stats.variance
        / group_results_high["16x2"].alpha_stats.variance
    )
    ok = 0.35 <= theta_ratio <= 0.7 and 0.35 <= alpha_ratio <= 0.7
    print(f"criterion 7: d_max 16->32 theta ratio {theta_ratio:.3f}, "
          f"L 2->4 alpha ratio {alpha_ratio:.3f} (band [0.35, 0.7]) -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert 0.35 <= theta_ratio <= 0.7
    assert 0.35 <= alpha_ratio <= 0.7


def test_criterion_08_su2_spectrum_arithmetic():
    for N in range(1, 21):
        spectrum = su2_block_dims(N)
        assert sum(d * mult for d, mult in spectrum.blocks) == 2**N, f"N={N}"
    three = su2_block_dims(3).blocks
    print(f"criterion 8: completeness holds for N <= 20; N=3 spectrum {three} "
          f"-> {'PASS' if three == ((4, 1), (2, 2)) else 'FAIL'}")
    assert three == ((4, 1), (2, 2))


@pytest.fixture(scope="module")
def mnist_grid():
    data_dir = default_data_dir()
    if not data_files_present(data_dir):
        pytest.skip(
            "digit-classification data not found; place the IDX files and "
            f"re-run.\n{fetch_instructions(data_dir)}"
        )
    train_set, test_set = load_dataset(data_dir, 4000, 1000)
    start = time.monotonic()
    models = [classifier(L, D) for L in (1, 4) for D in (1, 2, 4, 8)]
    config = train_config(runs=5, root_seed=ROOT_SEED)
    cells = run_accuracy_grid(train_set, test_set, models, config, progress=print)
    elapsed = time.monotonic() - start
    return cells, elapsed


def test_criterion_09_digit_accuracy_trends(mnist_grid):
    cells, elapsed = mnist_grid
    acc = {(cell.L, cell.D): cell.mean_accuracy for cell in cells}
    ok = (
        acc[(4, 8)] >= 0.60
        and 0.25 <= acc[(1, 1)] <= 0.55
        and all(acc[(4, D)] > acc[(1, D)] for D in (2, 4, 8))
        and acc[(4, 8)] > acc[(4, 1)]
    )
    rendered = ", ".join(
        f"L={L} D={D}: {value:.3f}" for (L, D), value in sorted(acc.items())
    )
    print(f"criterion 9: {rendered} ({elapsed:.0f}s) -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert acc[(4, 8)] >= 0.60
    assert 0.25 <= acc[(1, 1)] <= 0.55
    for D in (2, 4, 8):
        assert acc[(4, D)] > acc[(1, D)], f"L trend broken at D={D}"
    assert acc[(4, 8)] > acc[(4, 1)]
    assert elapsed < 3600.0


def test_criterion_10_thread_and_rerun_determinism(tmp_path, capsys):
    scan_argv = ["variance-scan", "--n-list", "3", "--k-list", "2",
                 "--samples", "60", "--seed", "5"]
    scan_rows = []
    for threads, name in ((1, "a"), (2, "b"), (5, "c"), (1, "rerun")):
        path = tmp_path / f"scan_{name}.csv"
        assert main(scan_argv + ["--threads", str(threads), "--out", str(path)]) == 0
        scan_rows.append(data_rows(path.read_text()))
    group_argv = ["group-scan", "--dims", "8:1,8:1", "--samples", "40",
                  "--seed", "5"]
    group_rows = []
    for threads, name in ((1, "a"), (3, "b"), (1, "rerun")):
        path = tmp_path / f"group_{name}.csv"
        assert main(group_argv + ["--threads", str(threads), "--out", str(path)]) == 0
        group_rows.append(data_rows(path.read_text()))
    capsys.readouterr()
    ok = all(rows == scan_rows[0] for rows in scan_rows) and all(
        rows == group_rows[0] for rows in group_rows
    )
    print(f"criterion 10: scan rows x{len(scan_rows)} and group rows "
          f"x{len(group_rows)} bit-identical -> {'PASS' if ok else 'FAIL'}")
    for rows in scan_rows[1:]:
        assert rows == scan_rows[0]
    for rows in group_rows[1:]:
        assert rows == group_rows[0]
