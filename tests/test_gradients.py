"""Shift rules, adjoint full gradient, and gradient-variance estimation."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import oracles
from lcqnn.errors import LcqnnError
from lcqnn.gradients import (
    GradStats,
    cost_flat,
    default_probe_param,
    estimate_grad_stats,
    finite_diff_grad,
    grad_full,
    num_params,
    param_shift_grad,
    probe_gradients,
    sample_param_draw,
    shift_and_fd_grads,
    split_params,
)
from lcqnn import gradients, sim
from lcqnn.cli import main
from lcqnn.model import (
    coeff_probabilities,
    coeff_probability_gradients,
    cost,
    costs,
    light_cone,
    make_model,
    theta_layout_size,
    tree_node,
)
from lcqnn.sim import PauliZSum, RngStream, StateVector

Z0_1 = PauliZSum([(1.0, (0,))], num_qubits=1)


def _z0(n):
    return PauliZSum([(1.0, (0,))], num_qubits=n)


# ---------------------------------------------------------------------------
# point rules on closed-form costs


def test_shift_rule_on_cosine_curve():
    # single qubit, single branch: C(theta) = cos(theta), independent of phi/lam.
    model = make_model(0, 1, 1, 1, 1)
    for angle in (0.0, 0.9, math.pi / 2, 2.4):
        flat = np.array([angle, 0.3, -0.8])
        assert cost_flat(model, flat, Z0_1) == pytest.approx(math.cos(angle), abs=1e-12)
        grad = param_shift_grad(model, flat, Z0_1, 0)
        assert grad == pytest.approx(-math.sin(angle), abs=1e-12)
        assert grad_full(model, flat, Z0_1)[0] == pytest.approx(
            -math.sin(angle), abs=1e-12
        )
        fd = finite_diff_grad(model, flat, Z0_1, 0)
        assert fd == pytest.approx(-math.sin(angle), abs=1e-8)


def test_shift_rule_on_tree_angle():
    # branch 0 fixed at <Z>=+1, branch 1 rotated to <Z>=-1:
    # C(a) = cos^2(a) - sin^2(a) = cos(2a), dC/da = -2 sin(2a).
    model = make_model(1, 1, 2, 1, 1)
    theta = np.array([0.0, 0.0, 0.0, math.pi, 0.0, 0.0])
    for a in (0.0, 0.35, 1.2, 2.8):
        flat = np.concatenate(([a], theta))
        assert cost_flat(model, flat, Z0_1) == pytest.approx(math.cos(2 * a), abs=1e-12)
        assert param_shift_grad(model, flat, Z0_1, 0) == pytest.approx(
            -2 * math.sin(2 * a), abs=1e-12
        )
        assert grad_full(model, flat, Z0_1)[0] == pytest.approx(
            -2 * math.sin(2 * a), abs=1e-12
        )


def test_point_rules_cross_check_property():
    rng = np.random.default_rng(71)
    cases = [(1, 1, 2, 1, 1), (2, 2, 4, 2, 1), (2, 2, 2, 1, 2), (3, 2, 8, 2, 1)]
    for m, n, L, k, D in cases:
        model = make_model(m, n, L, k, D)
        obs = PauliZSum([(1.0, (0,)), (-0.7, (n - 1,))], num_qubits=n)
        for _ in range(4):
            flat = rng.uniform(0, 2 * math.pi, num_params(model))
            full = grad_full(model, flat, obs)
            for pid in rng.choice(num_params(model), size=3, replace=False):
                pid = int(pid)
                shift = param_shift_grad(model, flat, obs, pid)
                fd = finite_diff_grad(model, flat, obs, pid)
                assert shift == pytest.approx(fd, abs=2e-6)
                assert full[pid] == pytest.approx(shift, abs=1e-9)


def _two_single_row_costs(model, flat, obs, pid, step):
    """cost_flat at x + step and at (x + step) - 2 step, one call each."""
    up = np.array(flat, dtype=np.float64)
    up[pid] += step
    down = up.copy()
    down[pid] -= 2.0 * step
    return cost_flat(model, up, obs), cost_flat(model, down, obs)


def _single_probe_rules(model, flat, obs, pid, scale):
    """Both rules of one probe, each in a call of its own: param_shift_grad
    and finite_diff_grad at the exact shift, a one-probe shift_and_fd_grads
    at any other shift scale."""
    if scale == 1.0:
        return param_shift_grad(model, flat, obs, pid), finite_diff_grad(model, flat, obs, pid)
    [(shifts, fds)] = shift_and_fd_grads([(model, flat[None], [pid])], obs, scale)
    return shifts[0], fds[0]


@pytest.mark.parametrize("shape", [(2, 3, 4, 2, 2), (3, 2, 2, 1, 1), (0, 2, 1, 2, 1)])
def test_point_rules_equal_two_single_row_costs(shape, branch_passes):
    # each rule runs its two points as the rows of one forward pass; a row
    # is bit-equal to its own single-row cost, so each rule is too
    model = make_model(*shape)
    n = model.num_working
    obs = PauliZSum([(1.0, (0,)), (-0.6, (0, n - 1)), (0.2, ())], num_qubits=n)
    rng = np.random.default_rng(sum(shape))
    flat = rng.uniform(0, 2 * math.pi, num_params(model))
    h = gradients.FD_STEP
    for pid in range(num_params(model)):
        shift, prefactor = (math.pi / 4, 1.0) if pid < model.num_alpha else (math.pi / 2, 0.5)
        fd_up, fd_down = _two_single_row_costs(model, flat, obs, pid, h)
        for scale in (1.0, 1.1):
            up, down = _two_single_row_costs(model, flat, obs, pid, scale * shift)
            before = len(branch_passes)
            [(shifts, fds)] = shift_and_fd_grads([(model, flat[None], [pid])], obs, scale)
            assert len(branch_passes) == before + 1
            assert shifts.shape == fds.shape == (1,)
            assert shifts[0] == prefactor * (up - down)
            assert fds[0] == (fd_up - fd_down) / (2.0 * h)
            if scale == 1.0:
                assert param_shift_grad(model, flat, obs, pid) == shifts[0]
        assert finite_diff_grad(model, flat, obs, pid) == fds[0]


@pytest.mark.parametrize("shape", [(2, 3, 4, 2, 2), (3, 2, 8, 1, 1), (0, 2, 1, 2, 1)])
def test_batched_rules_equal_per_probe_rules(shape, branch_passes):
    # a stack of probes of one model runs its four points per probe as the
    # rows of one branch pass; each row is bit-equal to its own rule calls
    model = make_model(*shape)
    n = model.num_working
    obs = PauliZSum([(1.0, (0,)), (-0.6, (0, n - 1))], num_qubits=n)
    rng = np.random.default_rng(sum(shape) + 5)
    flats = rng.uniform(0, 2 * math.pi, (12, num_params(model)))
    param_ids = [int(pid) for pid in rng.integers(0, num_params(model), len(flats))]
    param_ids[:2] = [0, num_params(model) - 1]  # a tree angle when there is one
    for scale in (1.0, 1.25):
        before = len(branch_passes)
        [(shifts, fds)] = shift_and_fd_grads([(model, flats, param_ids)], obs, scale)
        assert len(branch_passes) == before + 1
        assert shifts.shape == fds.shape == (len(flats),)
        for flat, pid, shift, fd in zip(flats, param_ids, shifts, fds):
            assert (shift, fd) == _single_probe_rules(model, flat, obs, pid, scale)


@pytest.mark.parametrize("layout", [(2, 1, 2), (3, 2, 1), (4, 3, 1)])
def test_grouped_rules_equal_each_models_own_rules_and_dense_oracle(layout, branch_passes):
    # models of every control width m <= 3 and branch count L <= 2**m (idle
    # controls among them) share the branch circuit of (n, k, D): a part of
    # probes per model runs in one branch pass, and each row is bit-equal to
    # its own model's rule calls
    n, k, D = layout
    models = [make_model(m, n, 1 << t, k, D) for m in range(4) for t in range(m + 1)]
    obs = PauliZSum([(1.0, (0,)), (-0.6, (0, n - 1)), (0.2, ())], num_qubits=n)
    rng = np.random.default_rng(sum(layout))
    probes = []
    for model in [models[i] for i in rng.permutation(len(models))]:
        flats = rng.uniform(0, 2 * math.pi, (2, num_params(model)))
        probes.append((model, flats, rng.integers(0, num_params(model), 2)))
    probes[0][2][:] = [0, num_params(probes[0][0]) - 1]  # a tree angle when there is one
    for scale in (1.0, 1.25):
        before = len(branch_passes)
        grads = shift_and_fd_grads(probes, obs, scale)
        assert len(branch_passes) == before + 1
        assert len(grads) == len(probes)
        for (model, flats, param_ids), (shifts, fds) in zip(probes, grads):
            for flat, pid, shift, fd in zip(flats, param_ids, shifts, fds):
                assert (shift, fd) == _single_probe_rules(model, flat, obs, pid, scale)
    # the costs of every model, from any input state, match the dense oracle
    observable = oracles.dense_observable(obs, n)
    for input_state in (None, oracles.random_state(n, rng)):
        parts = [
            (model, *split_params(model, rng.uniform(0, 2 * math.pi, (2, num_params(model)))))
            for model in models
        ]
        before = len(branch_passes)
        values = costs(parts, obs, input_state)
        assert len(branch_passes) == before + 1
        for (model, alphas, thetas), row_values in zip(parts, values):
            assert row_values.shape == (2,)
            for alpha, theta, value in zip(alphas, thetas, row_values):
                dense = oracles.dense_cost(model, alpha, theta, observable, input_state)
                assert abs(value - dense) <= 1e-12
    apart = [make_model(1, n, 2, k, D), make_model(1, n, 2, k, D + 1)]
    with pytest.raises(LcqnnError, match="share their block groups"):
        shift_and_fd_grads(
            [(each, np.zeros((1, num_params(each))), [0]) for each in apart], obs, 1.0
        )


@pytest.mark.parametrize("scale", [1.0, 1.25, 1e308])
@pytest.mark.parametrize("layout", [(3, 2, 1), (4, 3, 2)])
def test_live_register_part_equals_each_control_widths_own_call(layout, scale):
    # models that differ only in control width m run the same live rows, so
    # one part at m = t = log2 L, holding the probes of every m from t to 3,
    # gives each probe the bits of its own model's call: shift and finite
    # difference, tree angles included, and NaN costs (scale 1e308) too
    n, k, D = layout
    obs = PauliZSum([(1.0, (0,)), (-0.6, (0, n - 1)), (0.2, ())], num_qubits=n)
    rng = np.random.default_rng(sum(layout))
    for t in range(4):
        models = [make_model(m, n, 1 << t, k, D) for m in range(t, 4)]
        live = dataclasses.replace(models[-1], num_controls=t)
        P = num_params(live)
        probes = [(model, rng.uniform(0, 2 * math.pi, (3, P)), rng.integers(0, P, 3))
                  for model in models]
        probes[-1][2][0] = 0 if t else P - 1  # a tree angle when there is one
        flats, ids = (np.concatenate(rows) for rows in list(zip(*probes))[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            [(shifts, fds)] = shift_and_fd_grads([(live, flats, ids)], obs, scale)
            own = [shift_and_fd_grads([probe], obs, scale)[0] for probe in probes]
        assert shifts.tobytes() == np.concatenate([shift for shift, _ in own]).tobytes()
        assert fds.tobytes() == np.concatenate([fd for _, fd in own]).tobytes()
        assert np.isnan(shifts).any() == (scale == 1e308)


def test_out_of_range_id_in_any_row_raises_before_a_branch_pass(branch_passes):
    # every row's id of every part is checked before the call's branch pass
    models = [make_model(1, 2, 2, 1, 1), make_model(2, 2, 4, 1, 1)]
    obs = PauliZSum([(1.0, (0,))], num_qubits=2)
    for part, model in enumerate(models):
        P = num_params(model)
        for bad in (-1, P, P + 3):
            probes = [(each, np.zeros((3, num_params(each))), [0, 1, 2]) for each in models]
            probes[part][2][1] = bad
            message = rf"parameter id {bad} out of range 0\.\.{P - 1}$"
            with pytest.raises(LcqnnError, match=message):
                shift_and_fd_grads(probes, obs, 1.0)
    assert branch_passes == []


def test_out_of_layout_probe_raises_before_any_draw(monkeypatch):
    # probe_gradients checks every probe's id before it seeds its block, and
    # estimate_grad_stats' blocks are probe_gradients calls
    models = [make_model(1, 2, 2, 1, 1), make_model(2, 2, 4, 1, 1)]
    obs, seeded = _z0(2), []
    monkeypatch.setattr(gradients, "chunk_seeds", lambda *args: seeded.append(args))
    for part, model in enumerate(models):
        P = num_params(model)
        for bad in (-1, P, P + 3):
            probes = [(each, obs, 0) for each in models]
            probes[part] = (model, obs, bad)
            message = rf"parameter id {bad} out of range 0\.\.{P - 1}$"
            with pytest.raises(LcqnnError, match=message):
                probe_gradients(probes, 3, 0, 10)
            with pytest.raises(LcqnnError, match=message):
                estimate_grad_stats(probes, 10, 3)
    assert seeded == []


def test_grad_full_matches_shift_rule_everywhere():
    model = make_model(2, 2, 4, 2, 2)
    rng = np.random.default_rng(73)
    flat = rng.uniform(0, 2 * math.pi, num_params(model))
    obs = PauliZSum([(0.8, (0,)), (0.4, (0, 1))], num_qubits=2)
    full = grad_full(model, flat, obs)
    shifts = np.array(
        [param_shift_grad(model, flat, obs, pid) for pid in range(num_params(model))]
    )
    np.testing.assert_allclose(full, shifts, atol=1e-9)
    observable = oracles.dense_observable(obs, 2)
    dense = [oracles.dense_shift_grad(model, flat, observable, pid) for pid in range(len(full))]
    np.testing.assert_allclose(full, dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("L", [1, 2, 4])
@pytest.mark.parametrize("D", [0, 1, 3])
def test_grad_full_on_an_input_state_matches_central_differences_of_cost(L, D):
    # grad_full runs the branch sweep on the working register alone; cost
    # runs the full register and shares only the gate kernel with it
    model = make_model(2, 3, L, 2, D)
    rng = np.random.default_rng(10 * L + D)
    obs = PauliZSum([(0.8, (0,)), (-0.5, (1, 2))], num_qubits=3)
    step, P = 1e-5, num_params(model)
    for _ in range(3):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector(3, amps / np.linalg.norm(amps))
        flat = rng.uniform(0, 2 * math.pi, P)
        full = grad_full(model, flat, obs, state)
        assert full.shape == (P,)
        if P == 0:
            continue
        shifted = flat + step * np.concatenate((np.eye(P), -np.eye(P)))
        values = cost(model, *split_params(model, shifted), obs, input_state=state)
        np.testing.assert_allclose(full, (values[:P] - values[P:]) / (2 * step), rtol=0, atol=1e-6)


def test_dead_branch_gradients_vanish():
    # alpha = 0 kills branch 1, so its angle gradients are exactly zero.
    model = make_model(1, 1, 2, 1, 1)
    flat = np.array([0.0, 0.4, 1.1, -0.3, 2.2, 0.9, 0.5])
    full = grad_full(model, flat, Z0_1)
    np.testing.assert_array_equal(full[4:], np.zeros(3))
    assert param_shift_grad(model, flat, Z0_1, 4) == pytest.approx(0.0, abs=1e-15)


def test_point_rule_validation():
    model = make_model(1, 1, 2, 1, 1)
    flat = np.zeros(num_params(model))
    with pytest.raises(LcqnnError):
        param_shift_grad(model, flat, Z0_1, num_params(model))
    with pytest.raises(LcqnnError):
        grad_full(model, flat, PauliZSum([(1.0, (0,))], num_qubits=2))


# ---------------------------------------------------------------------------
# layout helpers


def test_param_layout_helpers():
    model = make_model(2, 4, 4, 2, 8)
    assert num_params(model) == 3 + theta_layout_size(model)
    assert default_probe_param(model) == 3

    flat = np.arange(num_params(model), dtype=float)
    alpha, theta = split_params(model, flat)
    assert alpha.tolist() == [0.0, 1.0, 2.0]
    assert theta.size == theta_layout_size(model)
    np.testing.assert_array_equal(np.concatenate((alpha, theta)), flat)
    with pytest.raises(LcqnnError):
        split_params(model, flat[:-1])


# ---------------------------------------------------------------------------
# streaming statistics


def test_grad_stats_matches_numpy():
    rng = np.random.default_rng(79)
    data = rng.standard_normal(257)
    stats = GradStats().extend(data)
    assert stats.count == data.size
    assert stats.mean == pytest.approx(data.mean(), abs=1e-12)
    assert stats.variance == pytest.approx(data.var(ddof=1), abs=1e-12)
    assert stats.stderr == pytest.approx(
        data.std(ddof=1) / math.sqrt(data.size), abs=1e-12
    )


def test_grad_stats_merge_invariance():
    rng = np.random.default_rng(83)
    data = rng.standard_normal(300)
    whole = GradStats().extend(data)
    for cut in (1, 57, 150, 299):
        left, right = GradStats().extend(data[:cut]), GradStats().extend(data[cut:])
        merged = left.merge(right)
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean, abs=1e-12)
        assert merged.variance == pytest.approx(whole.variance, abs=1e-12)
    empty = GradStats()
    merged = empty.merge(whole)
    assert merged.mean == pytest.approx(whole.mean, abs=1e-12)
    assert math.isnan(GradStats().variance)


@pytest.mark.parametrize("start", [GradStats(), GradStats(3, -0.5, 2.25)])
def test_grad_stats_extend_in_one_call_equals_one_value_at_a_time(start):
    # extend folds in local variables; every field must be bit for bit what
    # extending by one value at a time gives, signed zeros and non-finite
    # values too
    rng = np.random.default_rng(5)
    cases = [
        rng.standard_normal(70),
        np.array([0.0, -0.0, -0.0, 0.0, 1e-300, -1e308, 1e308, 1e308]),
        np.array([-0.0, 1.0, np.inf, 2.0]),
        np.array([1.0, -np.inf, np.inf, 3.0]),
        np.array([np.nan, 1.0, -0.0]),
        np.array([], dtype=np.float64),
    ]
    for values in cases:
        looped = GradStats(start.count, start.mean, start.m2)
        for value in values:
            looped.extend([value])
        folded = GradStats(start.count, start.mean, start.m2).extend(values)
        assert folded.count == looped.count
        for field in ("mean", "m2"):
            assert np.float64(getattr(folded, field)).tobytes() == np.float64(
                getattr(looped, field)
            ).tobytes()


def test_run_chunked_folds_each_statistic_per_range_in_order():
    # 600 samples reach chunk_fn as the blocks 0..256, 256..512 and 512..600;
    # each statistic folds every 64-sample range of a block in sample order
    # and merges the ranges in index order, bit for bit
    data = np.random.default_rng(89).standard_normal((2, 600))
    blocks = []

    def chunk(lo, hi):
        blocks.append((lo, hi))
        return data[0, lo:hi], data[1, lo:hi], np.empty(0)

    first, second, empty = gradients.run_chunked(600, chunk)
    assert blocks == [(0, 256), (256, 512), (512, 600)]
    for row, stats in zip(data, (first, second)):
        expected = GradStats()
        for lo in range(0, 600, 64):
            expected.merge(GradStats().extend(row[lo : lo + 64]))
        assert (stats.count, stats.mean, stats.m2) == (600, expected.mean, expected.m2)
    assert empty.count == 0
    with pytest.raises(LcqnnError, match="need at least one sample"):
        gradients.run_chunked(0, chunk)


def _shift_loop(model, obs, pid, seed, samples):
    """Per-sample shift-rule gradients of the documented draws, twice: from
    the full-register ``param_shift_grad`` and from the dense oracle."""
    observable = oracles.dense_observable(obs, model.num_working)
    flats = [np.concatenate(sample_param_draw(model, seed, i)) for i in range(samples)]
    return (
        np.array([param_shift_grad(model, flat, obs, pid) for flat in flats]),
        np.array([oracles.dense_shift_grad(model, flat, observable, pid) for flat in flats]),
    )


def test_estimate_matches_explicit_shift_loop():
    # the estimator must reproduce a hand-rolled loop over the documented
    # per-sample streams, with gradients from the full-register shift rule
    # and from the dense oracle.
    model = make_model(2, 2, 4, 2, 1)
    obs = _z0(2)
    pid = default_probe_param(model)
    seed, samples = 424242, 12
    stats = estimate_grad_stats([(model, obs, pid)], samples, seed)[0]
    assert stats.count == samples
    for manual in _shift_loop(model, obs, pid, seed, samples):
        assert stats.mean == pytest.approx(manual.mean(), abs=1e-12)
        assert stats.variance == pytest.approx(manual.var(ddof=1), abs=1e-12)


def test_estimate_alpha_probe_matches_shift_loop():
    model = make_model(2, 1, 4, 1, 1)
    obs = Z0_1
    pid = tree_node(model.tree_depth - 1)
    stats = estimate_grad_stats([(model, obs, pid)], 10, 7)[0]
    for manual in _shift_loop(model, obs, pid, 7, 10):
        assert stats.mean == pytest.approx(np.mean(manual), abs=1e-12)
        assert stats.variance == pytest.approx(np.var(manual, ddof=1), abs=1e-12)


@pytest.mark.parametrize("shape", [(2, 2, 4, 2, 1), (0, 2, 1, 2, 2)])
@pytest.mark.parametrize("seed", [424242, 2**32 + 1, -1])
def test_probe_chunk_draws_equal_per_sample_draws(shape, seed, monkeypatch):
    # probe_gradients seeds a chunk's streams in one pass; every (alpha,
    # blocks) row it uses must be the per-sample draw, bit for bit. A probe
    # in branch j draws only the leading j + 1 blocks of it: branch 0 one
    # block, the last branch all of them.
    model = make_model(*shape)
    draws, seen = gradients.sample_param_draws, []

    def recording(*args):
        seen.append(draws(*args))
        return seen[-1]

    monkeypatch.setattr(gradients, "sample_param_draws", recording)
    stride = model.branch_param_count
    for pid, width in (
        (default_probe_param(model), stride),
        (num_params(model) - 1, theta_layout_size(model)),
    ):
        seen.clear()
        probe_gradients([(model, _z0(2), pid)], seed, 64, 128)
        (alpha, theta), = seen
        assert alpha.shape == (64, model.num_alpha)
        assert theta.shape == (64, width)
        for b in range(64):
            a_ref, t_ref = sample_param_draw(model, seed, 64 + b)
            np.testing.assert_array_equal(alpha[b], a_ref)
            np.testing.assert_array_equal(theta[b], t_ref[:width])


@pytest.mark.parametrize("samples, blocks", [(192, 1), (500, 2)])
def test_scan_seeds_draws_and_weights_each_block_once(samples, blocks, monkeypatch, capsys):
    # variance-scan's 8 points run in lockstep: each sample block is seeded
    # once, drawn once per component and weighted once for its one tree
    # size, however many points read it
    calls = Counter()
    for name in ("chunk_seeds", "pcg64_random", "coeff_probabilities"):
        def counting(*args, name=name, original=getattr(gradients, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(gradients, name, counting)
    assert main(["variance-scan", "--samples", str(samples)]) == 0
    assert len(capsys.readouterr().err.splitlines()) == 8
    assert calls == {"chunk_seeds": blocks, "pcg64_random": 2 * blocks,
                     "coeff_probabilities": blocks}


def test_scan_computes_each_block_triple_once_and_runs_each_point(monkeypatch, capsys):
    # variance-scan --samples 192 is one block whose widest prefix holds 15
    # column triples: one table of 15 x 192 triple-rows of rotation entries,
    # then each of the 8 branch probes recomputes only its probed gate on
    # its 384 shifted rows (3072), 5952 in all; per-point trig took 33 408
    # (87 cone gates x 384 rows). Every point still makes its own kernel call.
    triple_rows, kernel_calls = [], []
    entries, kernel = sim.rotation_entries, sim.diagonal_expectations

    def counting_entries(angles, *args):
        out = entries(angles, *args)
        triple_rows.append(len(out) * math.prod(out.shape[2:]))
        return out

    def counting_kernel(*args):
        kernel_calls.append(None)
        return kernel(*args)

    for module in (sim, gradients):
        monkeypatch.setattr(module, "rotation_entries", counting_entries)
    monkeypatch.setattr("lcqnn.model.diagonal_expectations", counting_kernel)
    assert main(["variance-scan", "--samples", "192"]) == 0
    assert len(capsys.readouterr().err.splitlines()) == 8
    assert triple_rows == [15 * 192] + [384] * 8
    assert sum(triple_rows) == 5952
    assert len(kernel_calls) == 8


def _shifted_angle_values(model, obs, pid, alpha, theta):
    """The angle path: a probe's values from explicitly concatenated shifted
    copies of its branch block, every rotation's entries computed from them."""
    cone = light_cone(model, obs)
    batch, L, stride = len(theta), model.branch_count, model.branch_param_count

    def expectations(blocks):
        return cone.expectations(sim.rotation_entries(blocks[..., cone.columns]))

    if pid < model.num_alpha:
        values = expectations(theta[:, : L * stride].reshape(batch, L, stride))
        return np.sum(coeff_probability_gradients(alpha)[:, pid] * values, axis=-1)
    j, slot = divmod(pid - model.num_alpha, stride)
    if slot not in cone.columns:
        return np.zeros(batch)
    block = theta[:, j * stride : (j + 1) * stride]
    shifted = np.concatenate((block, block))
    shifted[:, slot] += math.pi / 2.0
    shifted[batch:, slot] -= math.pi
    values = expectations(shifted)
    return coeff_probabilities(alpha)[:, j] * 0.5 * (values[:batch] - values[batch:])


@pytest.mark.parametrize("budget", [1, sim.BATCH_AMPLITUDES])
@pytest.mark.parametrize("case", range(6))
def test_rotation_table_rows_equal_the_shifted_angle_path(case, budget, monkeypatch):
    # random (m, n, L, k, D) with at least two branches and two groups: the
    # rows a probe gathers from a block's rotation table, and its probed
    # gate's patch, equal the angle path bit for bit, for the theta, phi and
    # lam slots of one cone gate in the last branch, every tree angle, and
    # one slot outside the cone; the table covers every branch angle, wider
    # than the probe's own prefix, as in a lockstep scan, and probe_gradients
    # reads a table of its own prefix
    rng = np.random.default_rng(900 + case)
    m = int(rng.integers(1, 3))
    n = int(rng.integers(3, 7))
    model = make_model(m, n, 1 << int(rng.integers(1, m + 1)), int(rng.integers(1, n)),
                       int(rng.integers(1, 3)))
    obs = PauliZSum([(1.0, (int(rng.integers(n)),)), (0.5, ())], n)
    cone, stride = light_cone(model, obs), model.branch_param_count
    outside = sorted(set(range(stride)) - set(cone.columns))
    gate = int(rng.integers(len(cone.triples)))
    last = model.num_alpha + (model.branch_count - 1) * stride
    probes = list(range(model.num_alpha)) + [
        last + cone.columns[3 * gate] + at for at in range(3)
    ] + [last + outside[int(rng.integers(len(outside)))]]
    monkeypatch.setattr(sim, "BATCH_AMPLITUDES", budget)
    alpha, theta = gradients.sample_param_draws(model, case, 3, 45)
    table = sim.rotation_entries(theta)
    for pid in probes:
        oracle = _shifted_angle_values(model, obs, pid, alpha, theta).tobytes()
        values = gradients._probe_values(
            model, obs, pid, theta, table, lambda rule, size: rule(alpha)
        )
        assert values.tobytes() == oracle
        assert probe_gradients([(model, obs, pid)], case, 3, 45)[0].tobytes() == oracle


def test_branch_probe_draws_only_the_columns_its_cone_reads(monkeypatch):
    # k=3 blocks on n=8 qubits at depth 3: Z0 meets the first block only, so
    # a probe in branch j reads columns 0..26 of block j and draws
    # j * 72 + 27 branch angles, not (j + 1) * 72; its rows are those of
    # the full draw, bit for bit
    model = make_model(2, 8, 4, 3, 3)
    obs, stride = _z0(8), model.branch_param_count
    assert stride == 72
    draw, widths = sim.pcg64_random, []

    def recording(words, size):
        widths.append(size)
        return draw(words, size)

    full_draws = gradients.sample_param_draws
    for j in (0, 1, 3):
        pid = model.num_alpha + j * stride
        monkeypatch.setattr(gradients, "pcg64_random", recording)
        widths.clear()
        rows = probe_gradients([(model, obs, pid)], 7, 0, 40)[0]
        assert widths == [model.num_alpha, j * stride + 27]
        monkeypatch.setattr(
            gradients, "sample_param_draws", lambda model, seed, lo, hi, _: full_draws(
                model, seed, lo, hi
            )
        )
        full = probe_gradients([(model, obs, pid)], 7, 0, 40)[0]
        monkeypatch.undo()
        assert rows.tobytes() == full.tobytes()


def test_estimate_is_deterministic():
    model = make_model(1, 1, 2, 1, 1)
    a = estimate_grad_stats([(model, Z0_1, 1)], 20, 99)[0]
    b = estimate_grad_stats([(model, Z0_1, 1)], 20, 99)[0]
    assert (a.mean, a.variance) == (b.mean, b.variance)
    c = estimate_grad_stats([(model, Z0_1, 1)], 20, 100)[0]
    assert (a.mean, a.variance) != (c.mean, c.variance)


def test_estimate_single_qubit_variance_closed_form():
    # C = cos(theta) with theta uniform on [0, 2pi): the polar-angle gradient
    # -sin(theta) has mean 0 and variance 1/2.
    model = make_model(0, 1, 1, 1, 1)
    stats = estimate_grad_stats([(model, Z0_1, 0)], 4000, 11)[0]
    assert abs(stats.mean) <= 4 * stats.stderr
    assert stats.variance == pytest.approx(0.5, rel=0.1)


def test_estimate_stderr_scales_with_samples():
    model = make_model(1, 1, 2, 1, 1)
    small = estimate_grad_stats([(model, Z0_1, 1)], 250, 17)[0]
    large = estimate_grad_stats([(model, Z0_1, 1)], 500, 17)[0]
    assert 1.3 <= small.stderr / large.stderr <= 1.6


def test_sample_draws_are_paired_across_models():
    # models sharing a root seed see identical theta draws on the slots they
    # have in common (branch-0 prefix), and identical leading tree angles.
    small = make_model(1, 1, 2, 1, 1)
    large = make_model(2, 1, 4, 1, 1)
    a_small, t_small = sample_param_draw(small, 5, 3)
    a_large, t_large = sample_param_draw(large, 5, 3)
    np.testing.assert_array_equal(a_small, a_large[: a_small.size])
    np.testing.assert_array_equal(t_small[:3], t_large[:3])


@pytest.mark.parametrize("samples", [65, 130])
def test_estimate_tail_chunks_match_shift_loop(samples):
    # 65 and 130 samples end in a 1- and a 2-sample chunk
    model = make_model(2, 2, 4, 2, 1)
    obs = PauliZSum([(1.0, (0,)), (-0.5, (0, 1))], num_qubits=2)
    for pid in (default_probe_param(model) + 4, tree_node(model.tree_depth - 1)):
        stats = estimate_grad_stats([(model, obs, pid)], samples, 5)[0]
        assert stats.count == samples
        for manual in _shift_loop(model, obs, pid, 5, samples):
            assert stats.mean == pytest.approx(manual.mean(), rel=0, abs=1e-12)
            assert stats.variance == pytest.approx(manual.var(ddof=1), rel=0, abs=1e-12)


def test_probe_gradients_match_shift_rule():
    model = make_model(2, 3, 4, 2, 2)
    obs = _z0(3)
    for pid in (0, 2, model.num_alpha, model.num_alpha + 2 * model.branch_param_count + 5):
        grads = probe_gradients([(model, obs, pid)], 9, 3, 10)[0]
        for manual in _shift_loop(model, obs, pid, 9, 10):
            np.testing.assert_allclose(grads, manual[3:], rtol=0, atol=1e-12)


def test_probe_gradients_split_invariance():
    # a sample's gradient does not depend on the batch it is evaluated in
    model = make_model(3, 3, 8, 2, 2)
    obs = PauliZSum([(1.0, (0,)), (0.3, (1, 2))], num_qubits=3)
    for pid in (1, 5, model.num_alpha + 3, model.num_alpha + 7 * model.branch_param_count):
        whole = probe_gradients([(model, obs, pid)], 21, 4, 37)[0]
        for mid in (4, 5, 17, 36, 37):
            parts = np.concatenate((
                probe_gradients([(model, obs, pid)], 21, 4, mid)[0],
                probe_gradients([(model, obs, pid)], 21, mid, 37)[0],
            ))
            np.testing.assert_array_equal(parts, whole)


def test_estimate_is_bit_identical_under_any_amplitude_budget(monkeypatch):
    model = make_model(2, 3, 4, 3, 2)
    obs = _z0(3)
    probes = (tree_node(model.tree_depth - 1), default_probe_param(model))
    reference = [estimate_grad_stats([(model, obs, pid)], 70, 3)[0] for pid in probes]
    # one row per sub-batch, then three
    for budget in (1, 3 << model.num_working):
        monkeypatch.setattr(sim, "BATCH_AMPLITUDES", budget)
        for pid, ref in zip(probes, reference):
            assert estimate_grad_stats([(model, obs, pid)], 70, 3)[0] == ref


# ---------------------------------------------------------------------------
# light cone against the full register and a dense oracle

@pytest.mark.parametrize("shape", [(2, 5, 4, 2, 1), (1, 4, 2, 1, 2), (2, 6, 2, 3, 1)])
def test_probe_gradients_light_cone_matches_full_register_and_dense_oracle(shape):
    # every shape has several groups; the first observable's Z-string spans
    # two of them, and a branch probe in a group no term meets is exactly 0
    model = make_model(*shape)
    n, stride = model.num_working, model.branch_param_count
    rng = np.random.default_rng(sum(shape))
    slot_group = np.repeat(np.arange(len(model.groups)), [g.param_count for g in model.groups])
    observables = [
        PauliZSum([(1.0, (0,)), (-0.6, (1, n - 1)), (0.25, ())], n),
        PauliZSum([(0.8, ())], n),
        PauliZSum([(1.0, (n - 1,))], n),
    ]
    seed, lo, hi = 13, 5, 7
    draws = [np.concatenate(sample_param_draw(model, seed, i)) for i in range(lo, hi)]
    for obs in observables:
        observable = oracles.dense_observable(obs, n)
        touched = {q for _, qs in obs.terms for q in qs}
        met = [bool(touched & set(g.qubits)) for g in model.groups]
        # every tree angle, and one branch angle of each group in a random branch
        probes = list(range(model.num_alpha)) + [
            model.num_alpha + int(rng.integers(model.branch_count)) * stride
            + int(rng.choice(np.flatnonzero(slot_group == g)))
            for g in range(len(model.groups))
        ]
        for pid in probes:
            grads = probe_gradients([(model, obs, pid)], seed, lo, hi)[0]
            inside = pid < model.num_alpha or met[slot_group[(pid - model.num_alpha) % stride]]
            if not inside:
                assert grads.tolist() == [0.0] * (hi - lo)
            for grad, flat in zip(grads, draws):
                assert abs(grad - param_shift_grad(model, flat, obs, pid)) <= 1e-12
                assert abs(grad - oracles.dense_shift_grad(model, flat, observable, pid)) <= 1e-12
