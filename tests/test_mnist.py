"""Tests for IDX parsing, preprocessing, the classifier, and training."""

import gzip
import math
import struct
import zlib

import numpy as np
import pytest

from lcqnn import gradients, mnist, sim
from lcqnn import model as model_module
from lcqnn.cli import build_parser
from lcqnn import (
    EncodingError,
    IdxFormatError,
    LcqnnError,
    PauliZSum,
    TrainingError,
    amplitude_encode,
    cost,
    expectation,
    grad_full,
    lcqnn_forward,
    make_model,
    num_params,
    split_params,
)
from lcqnn.mnist import (
    AdamOptimizer,
    GridCell,
    MnistExample,
    RunMetrics,
    TrainConfig,
    classifier,
    cross_entropy,
    data_files_present,
    encode_examples,
    evaluate_accuracy,
    example_loss_and_grad,
    fetch_instructions,
    find_data_file,
    load_dataset,
    load_examples,
    minibatch_loss_and_grads,
    parse_idx,
    preprocess,
    run_accuracy_grid,
    softmax,
    train_runs,
    working_z_expectations,
)


def pack_images(images: np.ndarray) -> bytes:
    count, rows, cols = images.shape
    return struct.pack(">IIII", 0x803, count, rows, cols) + images.astype(
        np.uint8
    ).tobytes()


def pack_labels(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x801, labels.size) + labels.tobytes()


def parse_blob(tmp_path, blob: bytes):
    """parse_idx of ``blob``, written to a file first."""
    path = tmp_path / "blob"
    path.write_bytes(blob)
    return parse_idx(path)


def block_image(block_row: int, block_col: int, value: int = 255) -> np.ndarray:
    """A 28x28 image lighting exactly one 7x7 pooling block."""
    img = np.zeros((28, 28), dtype=np.uint8)
    img[
        7 * block_row : 7 * (block_row + 1), 7 * block_col : 7 * (block_col + 1)
    ] = value
    return img


# ---------------------------------------------------------------------------
# IDX parsing


def test_parse_idx_images_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint8)
    decoded = parse_blob(tmp_path, pack_images(images))
    assert decoded.shape == (2, 28, 28)
    assert decoded.dtype == np.uint8
    np.testing.assert_array_equal(decoded, images)


def test_parse_idx_labels_round_trip(tmp_path):
    decoded = parse_blob(tmp_path, pack_labels([3, 0, 1, 2, 9]))
    np.testing.assert_array_equal(decoded, [3, 0, 1, 2, 9])


def test_parse_idx_reads_files_and_gzip(tmp_path):
    images = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
    plain = tmp_path / "imgs"
    plain.write_bytes(pack_images(images))
    zipped = tmp_path / "imgs.gz"
    zipped.write_bytes(gzip.compress(pack_images(images)))
    np.testing.assert_array_equal(parse_idx(plain), images)
    np.testing.assert_array_equal(parse_idx(zipped), images)


def test_parse_idx_rejects_bad_magic(tmp_path):
    blob = struct.pack(">II", 0x802, 1)
    with pytest.raises(IdxFormatError, match="magic"):
        parse_blob(tmp_path, blob)


def test_parse_idx_rejects_short_and_truncated(tmp_path):
    with pytest.raises(IdxFormatError, match="short"):
        parse_blob(tmp_path, b"\x00\x00")
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    with pytest.raises(IdxFormatError, match="header"):
        parse_blob(tmp_path, pack_images(images)[:10])
    with pytest.raises(IdxFormatError, match="payload"):
        parse_blob(tmp_path, pack_images(images)[:-5])
    with pytest.raises(IdxFormatError, match="payload"):
        parse_blob(tmp_path, pack_images(images) + b"\x00")


@pytest.mark.parametrize(
    "corrupt, cause",
    [
        (lambda blob: blob[: len(blob) // 2], EOFError),  # truncated stream
        (lambda blob: blob[:10] + b"\xff" + blob[11:], zlib.error),  # bad block type
        (lambda blob: blob[:-8] + bytes(4) + blob[-4:], gzip.BadGzipFile),  # bad CRC
    ],
)
def test_parse_idx_rejects_corrupt_gzip(tmp_path, corrupt, cause):
    blob = gzip.compress(pack_labels(np.arange(50) % 4))
    with pytest.raises(IdxFormatError, match="corrupt gzip") as info:
        parse_blob(tmp_path, corrupt(blob))
    assert isinstance(info.value.__cause__, cause)


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_constant_image():
    vec = preprocess(np.full((28, 28), 255, dtype=np.uint8))
    np.testing.assert_allclose(vec, np.full(16, 0.25), atol=1e-15)


def test_preprocess_single_block_is_basis_vector():
    vec = preprocess(block_image(1, 2))
    expected = np.zeros(16)
    expected[4 * 1 + 2] = 1.0
    np.testing.assert_allclose(vec, expected, atol=1e-15)


def test_preprocess_pools_before_normalizing():
    img = np.zeros((28, 28), dtype=np.uint8)
    img[0, 0] = 49  # a single pixel spreads over its 7x7 block mean
    vec = preprocess(img)
    expected = np.zeros(16)
    expected[0] = 1.0
    np.testing.assert_allclose(vec, expected, atol=1e-15)
    assert math.isclose(np.linalg.norm(vec), 1.0, rel_tol=1e-12)


def test_preprocess_rejects_blank_and_misshaped():
    with pytest.raises(EncodingError, match="blank"):
        preprocess(np.zeros((28, 28), dtype=np.uint8))
    with pytest.raises(EncodingError, match="28x28"):
        preprocess(np.zeros((27, 28), dtype=np.uint8))


# ---------------------------------------------------------------------------
# dataset assembly


def synthetic_split(count_per_digit: int, digits=range(10), seed: int = 7):
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for digit in digits:
        for _ in range(count_per_digit):
            images.append(rng.integers(1, 256, size=(28, 28), dtype=np.uint8))
            labels.append(digit)
    order = rng.permutation(len(labels))
    return (
        np.stack(images)[order],
        np.asarray(labels, dtype=np.uint8)[order],
    )


def test_load_examples_filters_and_stratifies():
    images, labels = synthetic_split(6)
    examples = load_examples(images, labels, limit=12)
    assert len(examples) == 12
    counts = np.bincount([ex.label for ex in examples], minlength=4)
    np.testing.assert_array_equal(counts, [3, 3, 3, 3])
    assert all(ex.label <= 3 for ex in examples)
    for ex in examples:
        assert math.isclose(np.linalg.norm(ex.pixels), 1.0, rel_tol=1e-12)


def test_load_examples_keeps_file_order_within_class():
    images = np.stack([block_image(0, c) for c in (0, 1, 2, 3)])
    labels = np.zeros(4, dtype=np.uint8)
    examples = load_examples(images, labels, limit=8)  # cap 2 per class
    assert len(examples) == 2
    assert examples[0].pixels[0] == 1.0
    assert examples[1].pixels[1] == 1.0


def test_load_examples_drops_blank_with_warning():
    images = np.stack([np.zeros((28, 28), np.uint8), block_image(0, 0)])
    labels = np.asarray([1, 1], dtype=np.uint8)
    with pytest.warns(UserWarning, match="blank"):
        examples = load_examples(images, labels, limit=4)
    assert len(examples) == 1
    assert examples[0].label == 1


def test_load_examples_validates_counts_and_shape():
    images, labels = synthetic_split(2)
    with pytest.raises(IdxFormatError, match="labels"):
        load_examples(images, labels[:-1], limit=8)
    with pytest.raises(IdxFormatError, match="28"):
        load_examples(images[:, :27, :], labels, limit=8)
    with pytest.raises(IdxFormatError, match="no usable"):
        load_examples(images, labels, limit=0)


def test_load_dataset_from_files(tmp_path):
    train_images, train_labels = synthetic_split(3, seed=1)
    test_images, test_labels = synthetic_split(2, seed=2)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(pack_images(train_images))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(pack_labels(train_labels))
    (tmp_path / "t10k-images-idx3-ubyte.gz").write_bytes(
        gzip.compress(pack_images(test_images))
    )
    (tmp_path / "t10k-labels-idx1-ubyte.gz").write_bytes(
        gzip.compress(pack_labels(test_labels))
    )
    assert data_files_present(tmp_path)
    train_set, test_set = load_dataset(tmp_path, train_limit=8, test_limit=4)
    assert len(train_set) == 8
    assert len(test_set) == 4


def test_missing_data_dir_reports_instructions(tmp_path):
    assert not data_files_present(tmp_path)
    with pytest.raises(FileNotFoundError):
        find_data_file(tmp_path, "train-images-idx3-ubyte")
    text = fetch_instructions(tmp_path)
    assert "train-images-idx3-ubyte" in text
    assert "t10k-labels-idx1-ubyte" in text
    assert "LCQNN_DATA_DIR" in text
    assert str(tmp_path) in text


# ---------------------------------------------------------------------------
# classifier


def _logits(model, alpha, theta, pixels):
    """The four working-qubit <Z> of amplitude-encoded pixels."""
    return working_z_expectations(model, alpha, theta, amplitude_encode(pixels))


def test_logits_at_zero_theta_reflect_the_input_state():
    # with no entangling layers the blocks are exactly identity, so the
    # logits are the <Z> values of the encoded input, whatever alpha is
    model = make_model(2, 4, 4, 2, 0)
    pixels = preprocess(np.arange(1, 785, dtype=np.float64).reshape(28, 28) % 256)
    logits = _logits(model, [0.3, 0.9, 1.4], np.zeros(0), pixels)
    state = amplitude_encode(pixels)
    expected = [
        expectation(state, PauliZSum([(1.0, (c,))], num_qubits=4)) for c in range(4)
    ]
    np.testing.assert_allclose(logits, expected, atol=1e-12)


def test_logits_at_zero_theta_on_basis_zero_input():
    # CNOT rings fix |0...0>, so zero angles leave the basis-zero input alone
    model = make_model(2, 4, 4, 2, 2)
    theta = np.zeros(model.branch_count * model.branch_param_count)
    logits = _logits(model, [0.3, 0.9, 1.4], theta, np.eye(16)[0])
    np.testing.assert_allclose(logits, np.ones(4), atol=1e-12)


def test_logits_match_full_register_expectations():
    model = make_model(2, 4, 4, 2, 2)
    rng = np.random.default_rng(11)
    alpha = rng.uniform(0, 2 * math.pi, model.num_alpha)
    theta = rng.uniform(0, 2 * math.pi, model.branch_count * model.branch_param_count)
    pixels = preprocess(rng.integers(0, 256, size=(28, 28), dtype=np.uint8))
    logits = _logits(model, alpha, theta, pixels)
    state = lcqnn_forward(model, alpha, theta, input_state=amplitude_encode(pixels))
    for c in range(4):
        full_obs = PauliZSum([(1.0, (model.num_controls + c,))], num_qubits=6)
        assert math.isclose(logits[c], expectation(state, full_obs), abs_tol=1e-10)


def test_logits_single_branch_match_plain_circuit():
    wrapped = make_model(2, 4, 1, 2, 3)
    plain = make_model(0, 4, 1, 2, 3)
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, 2 * math.pi, wrapped.branch_param_count)
    pixels = preprocess(rng.integers(0, 256, size=(28, 28), dtype=np.uint8))
    wrapped_logits = _logits(wrapped, [], theta, pixels)
    plain_logits = _logits(plain, [], theta, pixels)
    np.testing.assert_allclose(wrapped_logits, plain_logits, atol=1e-12)


def test_logits_stay_bounded():
    model = make_model(2, 4, 2, 2, 1)
    rng = np.random.default_rng(5)
    for _ in range(25):
        alpha = rng.uniform(0, 2 * math.pi, model.num_alpha)
        theta = rng.uniform(
            0, 2 * math.pi, model.branch_count * model.branch_param_count
        )
        pixels = preprocess(rng.integers(0, 256, size=(28, 28), dtype=np.uint8))
        logits = _logits(model, alpha, theta, pixels)
        assert np.all(np.abs(logits) <= 1.0 + 1e-12)


def test_working_z_matches_cost_per_observable():
    model = make_model(2, 3, 4, 3, 2)
    rng = np.random.default_rng(9)
    alpha = rng.uniform(0, 2 * math.pi, model.num_alpha)
    theta = rng.uniform(0, 2 * math.pi, model.branch_count * model.branch_param_count)
    state = amplitude_encode(rng.uniform(0.1, 1.0, 8))
    values = working_z_expectations(model, alpha, theta, state)
    for c in range(3):
        obs = PauliZSum([(1.0, (c,))], num_qubits=3)
        assert math.isclose(
            values[c], cost(model, alpha, theta, obs, input_state=state), abs_tol=1e-12
        )


# ---------------------------------------------------------------------------
# loss and gradient


def test_softmax_and_cross_entropy_basics():
    logits = np.array([0.2, -0.4, 0.9, 0.0])
    probs = softmax(logits)
    assert math.isclose(probs.sum(), 1.0, rel_tol=1e-12)
    assert np.all(probs > 0)
    assert math.isclose(
        cross_entropy(logits, 2), -math.log(probs[2]), rel_tol=1e-12
    )
    # shift invariance
    np.testing.assert_allclose(softmax(logits + 100.0), probs, atol=1e-12)


def test_example_loss_matches_direct_evaluation():
    model = make_model(2, 4, 2, 2, 1)
    rng = np.random.default_rng(21)
    params = rng.uniform(0, 2 * math.pi, num_params(model))
    example = MnistExample(
        preprocess(rng.integers(0, 256, size=(28, 28), dtype=np.uint8)), 2
    )
    loss, grad = example_loss_and_grad(model, params, example)
    logits = _logits(
        model, params[: model.num_alpha], params[model.num_alpha :], example.pixels
    )
    assert math.isclose(loss, cross_entropy(logits, 2), rel_tol=1e-12)
    assert grad.shape == (num_params(model),)


def test_example_gradient_against_finite_differences():
    model = make_model(2, 4, 2, 2, 1)
    rng = np.random.default_rng(33)
    params = rng.uniform(0, 2 * math.pi, num_params(model))
    example = MnistExample(
        preprocess(rng.integers(0, 256, size=(28, 28), dtype=np.uint8)), 1
    )
    _, grad = example_loss_and_grad(model, params, example)

    def loss_at(p):
        logits = _logits(
            model, p[: model.num_alpha], p[model.num_alpha :], example.pixels
        )
        return cross_entropy(logits, example.label)

    h = 1e-6
    picks = rng.choice(num_params(model), size=10, replace=False)
    for i in picks:
        plus, minus = params.copy(), params.copy()
        plus[i] += h
        minus[i] -= h
        fd = (loss_at(plus) - loss_at(minus)) / (2 * h)
        assert math.isclose(grad[i], fd, abs_tol=5e-6)


def _random_examples(rng, count):
    return [
        MnistExample(
            preprocess(rng.integers(0, 256, size=(28, 28), dtype=np.uint8)),
            int(rng.integers(0, 4)),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("L", [1, 2, 4])
@pytest.mark.parametrize("D", [0, 1, 3])
def test_minibatch_matches_example_loss_and_grad(L, D):
    # one batched forward and adjoint sweep over B x L rows gives each
    # example exactly its one-example loss and gradient, which in turn match
    # the logits' cross-entropy and grad_full on the example's effective
    # observable sum_c (softmax_c - onehot_c) Z_c
    model = make_model(2, 4, L, 2, D)
    rng = np.random.default_rng(100 * L + D)
    params = rng.uniform(0, 2 * math.pi, num_params(model))
    examples = _random_examples(rng, 7)
    states = np.stack([amplitude_encode(ex.pixels).amps for ex in examples])
    labels = np.array([ex.label for ex in examples])
    [(losses, grads)] = minibatch_loss_and_grads([(model, params, states, labels)])
    assert losses.shape == (7,) and grads.shape == (7, num_params(model))
    alpha, theta = split_params(model, params)
    for b, ex in enumerate(examples):
        loss, grad = example_loss_and_grad(model, params, ex)
        assert loss == losses[b]
        assert np.array_equal(grad, grads[b])
        logits = _logits(model, alpha, theta, ex.pixels)
        assert abs(loss - cross_entropy(logits, ex.label)) <= 1e-12
        residual = softmax(logits) - np.eye(4)[ex.label]
        effective = PauliZSum([(residual[c], (c,)) for c in range(4)], num_qubits=4)
        reference = grad_full(model, params, effective, amplitude_encode(ex.pixels))
        np.testing.assert_allclose(grad, reference, rtol=0, atol=1e-12)


def test_minibatch_parts_must_share_a_branch_circuit():
    data = encode_examples(tiny_dataset(per_class=1))
    parts = [
        (model, np.zeros(num_params(model)), data.states, data.labels)
        for model in (make_model(2, 4, 2, 2, 1), make_model(2, 4, 2, 2, 2))
    ]
    with pytest.raises(LcqnnError, match="share their block groups"):
        minibatch_loss_and_grads(parts)


def test_training_is_bit_identical_under_any_amplitude_budget(monkeypatch):
    data = encode_examples(tiny_dataset(per_class=5))
    config = train_config(epochs=2, batch_size=8, runs=1, root_seed=6)
    [reference] = train_runs(config, [(classifier(4, 1), 0)], data, data)
    # one example per forward and adjoint run; then three examples (twelve
    # rows) per run, which splits every minibatch
    for budget in (16, 3 * 4 * 16):
        monkeypatch.setattr(sim, "BATCH_AMPLITUDES", budget)
        [metrics] = train_runs(config, [(classifier(4, 1), 0)], data, data)
        assert metrics.epoch_losses == reference.epoch_losses
        assert metrics.test_accuracy == reference.test_accuracy


def test_lockstep_group_is_bit_identical_under_any_amplitude_budget(monkeypatch):
    # a group of 2 runs at each of L = 1, 2, 4 holds 14 columns per example:
    # at 16 amplitudes and at 3 * 4 * 16 every kernel run holds one example
    data = encode_examples(tiny_dataset(per_class=5))
    config = train_config(epochs=2, batch_size=8, runs=2, root_seed=6)
    jobs = [(classifier(L, 1), run) for L in (1, 2, 4) for run in range(2)]
    reference = train_runs(config, jobs, data, data)
    for budget in (16, 3 * 4 * 16):
        monkeypatch.setattr(sim, "BATCH_AMPLITUDES", budget)
        assert train_runs(config, jobs, data, data) == reference


def _count_sweeps(monkeypatch) -> dict:
    """Counts of the forward kernel calls of ``model.branch_sweep`` and the
    adjoint kernel calls of ``gradients.mixture_gradients``."""
    calls = {"forward": 0, "adjoint": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        model_module, "apply_gates", counting("forward", model_module.apply_gates)
    )
    monkeypatch.setattr(
        gradients, "adjoint_gradient", counting("adjoint", gradients.adjoint_gradient)
    )
    return calls


def test_grad_full_makes_one_forward_and_one_adjoint_sweep(monkeypatch):
    # grad_full is the one-part, one-input case of the sweep and the fold
    # that a training step makes
    calls = _count_sweeps(monkeypatch)
    model = make_model(2, 4, 4, 2, 2)
    flat = np.zeros(num_params(model))
    grad_full(model, flat, PauliZSum([(1.0, (0,))], num_qubits=4))
    assert calls == {"forward": 1, "adjoint": 1}


def test_training_step_makes_one_forward_and_one_adjoint_sweep(monkeypatch):
    # before minibatches were batched, each example ran every branch's
    # forward pass twice and an adjoint sweep per branch; before runs
    # trained in lockstep, each run made its own sweeps
    calls = _count_sweeps(monkeypatch)
    examples = tiny_dataset(per_class=4)
    # the kernel splits a sweep into runs itself: at 16 amplitudes a run holds
    # one row, and the sweeps stay one call each
    for budget in (sim.BATCH_AMPLITUDES, 16):
        monkeypatch.setattr(sim, "BATCH_AMPLITUDES", budget)
        for runs in (1, 4):
            config = train_config(epochs=1, batch_size=8, runs=runs, root_seed=2)
            calls.update(forward=0, adjoint=0)
            train_runs(
                config,
                [(classifier(4, 2), run) for run in range(runs)],
                encode_examples(examples),
                encode_examples(examples[:5]),
            )
            # two training steps for the whole group, then one forward sweep
            # per run over the five test examples
            assert calls == {"forward": 2 + runs, "adjoint": 2}


@pytest.mark.parametrize("budget, groups", [(mnist.LOCKSTEP_ELEMENTS, 1), (4 * 8 * 28, 4), (1, 6)])
def test_lockstep_groups_stay_under_the_step_budget(monkeypatch, budget, groups):
    # at D=1 an (example, column) row holds 16 amplitudes and 12 gradient
    # entries, so at batch 8 a step holds 8 * 28 entries per column. The
    # runs hold 1, 1, 2, 2, 4 and 4 columns: 4 * 8 * 28 entries fit the
    # groups [1, 1, 2], [2], [4], [4]; 1 entry fits one run per group.
    data = encode_examples(tiny_dataset(per_class=5))
    config = train_config(epochs=2, batch_size=8, runs=2, root_seed=6)
    jobs = [(classifier(L, 1), run) for L in (1, 2, 4) for run in range(2)]
    reference = train_runs(config, jobs, data, data)
    monkeypatch.setattr(mnist, "LOCKSTEP_ELEMENTS", budget)
    calls = _count_sweeps(monkeypatch)
    assert train_runs(config, jobs, data, data) == reference
    # 20 examples in minibatches of 8: three steps per epoch for each group,
    # then one forward sweep per run over the test examples
    assert calls == {"forward": 6 * groups + 6, "adjoint": 6 * groups}


def test_initial_loss_sits_near_uniform_prediction():
    model = make_model(2, 4, 4, 2, 2)
    rng = np.random.default_rng(17)
    losses = []
    for _ in range(30):
        params = rng.uniform(0, 2 * math.pi, num_params(model))
        pixels = preprocess(rng.integers(0, 256, size=(28, 28), dtype=np.uint8))
        example = MnistExample(pixels, int(rng.integers(0, 4)))
        loss, _ = example_loss_and_grad(model, params, example)
        losses.append(loss)
    assert abs(np.mean(losses) - math.log(4.0)) <= 0.35


# ---------------------------------------------------------------------------
# optimizer and training loop


def test_adam_minimizes_a_quadratic():
    opt = AdamOptimizer(size=3, lr=0.1)
    params = np.array([2.0, -1.5, 0.7])
    for _ in range(300):
        params = opt.step(params, 2.0 * params)
    assert np.all(np.abs(params) < 1e-3)


def train_config(**fields):
    """A TrainConfig with the mnist subcommand's defaults for every field
    not given."""
    args = build_parser().parse_args(["mnist"])
    defaults = dict(learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch,
                    runs=args.runs, root_seed=args.seed, optimizer=args.optimizer)
    return TrainConfig(**{**defaults, **fields})


def tiny_dataset(per_class: int = 4, seed: int = 0):
    """Separable toy data: each class lights a distinct pooling block."""
    rng = np.random.default_rng(seed)
    examples = []
    for label in range(4):
        for _ in range(per_class):
            img = block_image(label // 2, label % 2, value=200)
            noise = rng.integers(0, 30, size=(28, 28), dtype=np.uint8)
            examples.append(MnistExample(preprocess(img + noise), label))
    rng.shuffle(examples)
    return examples


def test_training_run_is_reproducible():
    data = encode_examples(tiny_dataset())
    config = train_config(epochs=1, batch_size=4, runs=1, root_seed=5)
    model = classifier(2, 1)
    [first] = train_runs(config, [(model, 0)], data, data)
    [second] = train_runs(config, [(model, 0)], data, data)
    assert first.epoch_losses == second.epoch_losses
    assert first.test_accuracy == second.test_accuracy
    [third] = train_runs(config, [(model, 1)], data, data)
    assert third.epoch_losses != first.epoch_losses


def test_training_learns_separable_data():
    data = encode_examples(tiny_dataset(per_class=8))
    config = train_config(learning_rate=0.05, epochs=6, batch_size=8, runs=1, root_seed=3)
    [metrics] = train_runs(config, [(classifier(1, 2), 0)], data, data)
    assert metrics.epoch_losses[-1] < metrics.epoch_losses[0]
    assert metrics.test_accuracy >= 0.5


def test_training_with_sgd_flag():
    data = encode_examples(tiny_dataset())
    config = train_config(epochs=1, batch_size=8, runs=1, optimizer="sgd", learning_rate=0.1)
    [metrics] = train_runs(config, [(classifier(1, 1), 0)], data, data)
    assert len(metrics.epoch_losses) == 1
    assert math.isfinite(metrics.epoch_losses[0])
    with pytest.raises(TrainingError, match="optimizer"):
        train_runs(train_config(optimizer="momentum"), [(classifier(1, 1), 0)], data, data)


def test_training_rejects_degenerate_inputs():
    data = encode_examples(tiny_dataset())
    with pytest.raises(TrainingError, match="empty"):
        train_runs(train_config(), [(classifier(1, 1), 0)], encode_examples([]), data)
    with pytest.raises(TrainingError, match=">= 1"):
        train_runs(train_config(batch_size=0), [(classifier(1, 1), 0)], data, data)


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(optimizer="momentum"), "unknown optimizer"),
        (dict(batch_size=0), ">= 1"),
        (dict(epochs=0), ">= 1"),
        (dict(runs=0), ">= 1"),
    ],
)
def test_the_grid_config_is_checked_before_any_run_trains(monkeypatch, bad, message):
    steps = []
    real = mnist.minibatch_loss_and_grads
    monkeypatch.setattr(
        mnist, "minibatch_loss_and_grads", lambda parts: steps.append(parts) or real(parts)
    )
    data = tiny_dataset()
    config = train_config(**{**dict(epochs=1, batch_size=8, runs=1), **bad})
    with pytest.raises(TrainingError, match=message):
        run_accuracy_grid(data, data, [classifier(1, 1), classifier(2, 2)], config,
                          progress=lambda line: None)
    assert steps == []


def test_training_flags_nonfinite_loss():
    data = encode_examples(tiny_dataset())
    config = train_config(learning_rate=np.inf, epochs=2, batch_size=4, runs=1)
    with pytest.raises(TrainingError, match="non-finite"):
        train_runs(config, [(classifier(1, 1), 0)], data, data)


def test_nonfinite_loss_raises_the_earliest_failing_run_in_job_order(monkeypatch):
    # the L=2 and L=4 runs share a branch circuit (D=1) and step together;
    # L=4 fails at its first step, L=2 only at its seventh, yet L=2 comes
    # first in job order, so its error is the one that training the runs
    # one by one would raise. The failed L=4 run stops stepping.
    real = mnist.minibatch_loss_and_grads
    steps = []

    def failing(parts):
        branch_counts = [model.branch_count for model, *_ in parts]
        out = real(parts)
        if 1 not in branch_counts:
            steps.append(branch_counts)
            for (losses, _), L in zip(out, branch_counts):
                if (L, len(steps)) in ((4, 1), (2, 7)):
                    losses[0] = np.nan
        return out

    monkeypatch.setattr(mnist, "minibatch_loss_and_grads", failing)
    data = encode_examples(tiny_dataset())
    jobs = [(classifier(L, D), 0) for L, D in ((1, 2), (2, 1), (4, 1))]
    with pytest.raises(TrainingError) as info:
        train_runs(train_config(epochs=2, batch_size=4, runs=1), jobs, data, data)
    assert str(info.value) == "non-finite loss in run 0, epoch 1, batch starting at 8"
    assert steps == [[2, 4]] + [[2]] * 6


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_lockstep_grid_runs_equal_each_run_trained_alone(optimizer):
    # 20 examples in minibatches of 8 leave a ragged last minibatch of 4;
    # the three cells of each D share one branch circuit, and all six runs
    # of a D train in lockstep
    examples = tiny_dataset(per_class=5)
    data = encode_examples(examples)
    config = train_config(epochs=2, batch_size=8, runs=2, root_seed=4, optimizer=optimizer,
                          learning_rate=0.05)
    grid = [(L, D) for L in (1, 2, 4) for D in (1, 2)]
    models = [classifier(L, D) for L, D in grid]
    cells = run_accuracy_grid(examples, examples, models, config, progress=lambda line: None)
    assert [(cell.L, cell.D) for cell in cells] == grid
    for model, cell in zip(models, cells):
        for run, metrics in enumerate(cell.metrics):
            assert [metrics] == train_runs(config, [(model, run)], data, data)


def test_grid_cell_trains_one_metrics_record_per_run():
    data = tiny_dataset()
    config = train_config(epochs=1, batch_size=8, runs=3, root_seed=9)
    [cell] = run_accuracy_grid(data, data, [classifier(1, 1)], config, progress=lambda line: None)
    metrics = cell.metrics
    assert [m.run_index for m in metrics] == [0, 1, 2]
    assert all(m.run_seed == 9 for m in metrics)
    assert len({tuple(m.epoch_losses) for m in metrics}) == 3


def test_accuracy_grid_shapes_and_stats():
    data = tiny_dataset()
    seen = []
    config = train_config(epochs=1, batch_size=8, runs=2)
    cells = run_accuracy_grid(data, data, [classifier(L, 1) for L in (1, 2)], config,
                              progress=seen.append)
    assert [(c.L, c.D) for c in cells] == [(1, 1), (2, 1)]
    assert len(seen) == 2
    for cell in cells:
        assert len(cell.metrics) == 2
        accs = [m.test_accuracy for m in cell.metrics]
        assert math.isclose(cell.mean_accuracy, np.mean(accs), rel_tol=1e-12)
        assert math.isclose(cell.std_accuracy, np.std(accs, ddof=1), rel_tol=1e-12)
    lone = GridCell(classifier(1, 1), metrics=[RunMetrics(0, 0, [1.0], 0.5)])
    assert lone.std_accuracy == 0.0


def test_evaluate_accuracy_counts_argmax_matches():
    model = make_model(2, 4, 1, 2, 1)
    params = np.zeros(num_params(model))
    # at theta = 0 the logits are the encoded input's <Z> values
    basis_hit = MnistExample(np.eye(16)[0], 0)  # |0000> -> argmax is class 0
    basis_miss = MnistExample(np.eye(16)[15], 3)  # |1111> -> argmax stays at 0
    acc = evaluate_accuracy(model, params, encode_examples([basis_hit, basis_miss]))
    assert acc == 0.5


def test_evaluate_accuracy_matches_per_example_argmax():
    model = make_model(2, 4, 4, 2, 2)
    rng = np.random.default_rng(8)
    params = rng.uniform(0, 2 * math.pi, num_params(model))
    examples = _random_examples(rng, 40)
    alpha, theta = split_params(model, params)
    hits = [
        int(np.argmax(_logits(model, alpha, theta, ex.pixels))) == ex.label
        for ex in examples
    ]
    accuracy = evaluate_accuracy(model, params, encode_examples(examples))
    assert accuracy == sum(hits) / len(examples)


def test_evaluate_accuracy_rejects_an_empty_set():
    model = make_model(2, 4, 1, 2, 1)
    with pytest.raises(TrainingError, match="no examples"):
        evaluate_accuracy(model, np.zeros(num_params(model)), encode_examples([]))
