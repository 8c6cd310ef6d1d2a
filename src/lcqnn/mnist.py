"""Digit-classification pipeline: IDX ingestion, 4x4 average-pool
preprocessing, amplitude encoding, and the accuracy grid over branch count
and depth.

The classifier is the combination model of shape ``CLASSIFIER_SHAPE``: m=2
control and n=4 working qubits in k=2 local blocks.  The four class logits
are the Pauli-Z expectations of the working qubits and training minimizes
softmax cross-entropy with minibatch Adam.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import warnings
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import EncodingError, IdxFormatError, TrainingError
from .gradients import (
    TWO_PI,
    grad_full,  # noqa: F401  (perfbench/spans.py times calls through this name)
    mixture_gradients,
    num_params,
    split_params,
)
from .model import (
    LcqnnModel,
    branch_angles,
    branch_gates,
    coeff_probabilities,
    make_model,
    tree_angles,
)
from .sim import (
    PauliZSum,
    Pcg64Stream,
    StateVector,
    adjoint_gradient,
    amplitude_encode,
    apply_gates,
    chunk_seeds,
    diagonal_readout,
    gate_matrix,  # noqa: F401  (perfbench/spans.py counts calls through this name)
    pcg64_random,
)

# ---------------------------------------------------------------------------
# IDX ingestion

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

#: canonical file stems; a trailing ".gz" is also accepted on disk
DATA_FILE_STEMS = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)

_DOWNLOAD_BASE = "https://ossci-datasets.s3.amazonaws.com/mnist"

DATA_DIR_ENV = "LCQNN_DATA_DIR"


def default_data_dir() -> Path:
    return Path(os.environ.get(DATA_DIR_ENV, "data"))


def parse_idx(path) -> np.ndarray:
    """Decode the IDX file at ``path``, plain or gzipped (detected by magic).

    Images (magic ``0x803``) come back as a (count, rows, cols) uint8 array,
    labels (magic ``0x801``) as a (count,) uint8 array.
    """
    data = Path(path).read_bytes()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise IdxFormatError(f"corrupt gzip stream: {exc}") from exc
    if len(data) < 4:
        raise IdxFormatError(f"file too short for an IDX header ({len(data)} bytes)")
    (magic,) = struct.unpack(">I", data[:4])
    if magic == IMAGES_MAGIC:
        ndim = 3
    elif magic == LABELS_MAGIC:
        ndim = 1
    else:
        raise IdxFormatError(f"unrecognized IDX magic 0x{magic:08x}")
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise IdxFormatError("truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", data[4:header_end])
    expected = math.prod(dims)
    payload = data[header_end:]
    if len(payload) != expected:
        raise IdxFormatError(
            f"IDX payload holds {len(payload)} bytes, header promises {expected}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def preprocess(image) -> np.ndarray:
    """28x28 bytes -> unit-norm 16-vector.

    Average-pool over the sixteen aligned 7x7 blocks, scale into [0, 1],
    flatten row-major, and l2-normalize.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.shape != (28, 28):
        raise EncodingError(f"expected a 28x28 image, got shape {img.shape}")
    pooled = img.reshape(4, 7, 4, 7).mean(axis=(1, 3)) / 255.0
    flat = pooled.reshape(16)
    norm = float(np.linalg.norm(flat))
    if norm <= 1e-12:
        raise EncodingError("blank image cannot be amplitude encoded")
    return flat / norm


@dataclass(frozen=True, eq=False)
class MnistExample:
    pixels: np.ndarray  # 16 entries, unit norm
    label: int  # 0..3


def load_examples(images: np.ndarray, labels: np.ndarray, limit: int) -> list[MnistExample]:
    """Filter to digits 0-3 and keep the first ``limit // 4`` of each class.

    Blank images are dropped with a warning rather than aborting the load.
    """
    if images.ndim != 3 or images.shape[1:] != (28, 28):
        raise IdxFormatError(f"expected (count, 28, 28) images, got {images.shape}")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"{images.shape[0]} images but {labels.shape[0]} labels"
        )
    per_class = limit // 4
    counts = [0, 0, 0, 0]
    out: list[MnistExample] = []
    for i in range(images.shape[0]):
        label = int(labels[i])
        if label > 3 or counts[label] >= per_class:
            continue
        try:
            pixels = preprocess(images[i])
        except EncodingError:
            warnings.warn(f"dropping blank image at index {i}")
            continue
        out.append(MnistExample(pixels, label))
        counts[label] += 1
        if len(out) == 4 * per_class:
            break
    if not out:
        raise TrainingError("no usable examples after filtering to digits 0-3")
    return out


def find_data_file(data_dir, stem: str) -> Path:
    base = Path(data_dir)
    for name in (stem, stem + ".gz"):
        candidate = base / name
        if candidate.is_file():
            return candidate
    raise FileNotFoundError(f"{stem}[.gz] not found under {base}")


def data_files_present(data_dir) -> bool:
    try:
        for stem in DATA_FILE_STEMS:
            find_data_file(data_dir, stem)
    except FileNotFoundError:
        return False
    return True


def fetch_instructions(data_dir) -> str:
    lines = [
        f"MNIST IDX files were not found under '{data_dir}'.",
        "Download the four files into that directory:",
    ]
    lines += [f"  {_DOWNLOAD_BASE}/{stem}.gz" for stem in DATA_FILE_STEMS]
    lines += [
        "For example:",
        f"  mkdir -p '{data_dir}' && cd '{data_dir}'",
        f"  for f in {' '.join(DATA_FILE_STEMS)}; do curl -fsSLO {_DOWNLOAD_BASE}/$f.gz; done",
        "Gzipped files are read directly; gunzip is optional.",
        f"Set ${DATA_DIR_ENV} or pass --data-dir to use another location.",
    ]
    return "\n".join(lines)


def load_dataset(
    data_dir, train_limit: int, test_limit: int
) -> tuple[list[MnistExample], list[MnistExample]]:
    """Load and preprocess both splits, stratified to digits 0-3."""
    train = load_examples(
        parse_idx(find_data_file(data_dir, DATA_FILE_STEMS[0])),
        parse_idx(find_data_file(data_dir, DATA_FILE_STEMS[1])),
        train_limit,
    )
    test = load_examples(
        parse_idx(find_data_file(data_dir, DATA_FILE_STEMS[2])),
        parse_idx(find_data_file(data_dir, DATA_FILE_STEMS[3])),
        test_limit,
    )
    return train, test


# ---------------------------------------------------------------------------
# classifier


@lru_cache(maxsize=None)
def _z_diagonals(num_qubits: int) -> np.ndarray:
    """Rows: the diagonal of Z on each working qubit."""
    return np.stack(
        [
            PauliZSum([(1.0, (q,))], num_qubits=num_qubits).diagonal()
            for q in range(num_qubits)
        ]
    )


@dataclass(frozen=True, eq=False)
class EncodedExamples:
    """Examples as arrays: amplitude-encoded pixels, one row each, and labels."""

    states: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def encode_examples(examples) -> EncodedExamples:
    """Amplitude-encode a list of MnistExample: one state row and one label each."""
    return EncodedExamples(
        np.array([amplitude_encode(ex.pixels).amps for ex in examples], dtype=np.complex128),
        np.array([ex.label for ex in examples], dtype=np.int64),
    )


def _forward_sweep(model: LcqnnModel, alpha, theta, states) -> tuple:
    """One batched forward sweep over the rows (b, j): example ``b``'s
    encoded state ``states[b]`` under branch ``j``'s angles, which every
    example shares.

    Returns the output tensor, shape (B, L, 2, ..., 2), and the logits,
    shape (B, n): each working qubit's <Z> under the branch mixture,
    accumulated in branch order.
    """
    n, L = model.num_working, model.branch_count
    probs = coeff_probabilities(tree_angles(model, alpha))
    batch = states.shape[0]
    rows = np.broadcast_to(states.reshape((batch, 1) + (2,) * n), (batch, L) + (2,) * n)
    psi = apply_gates(rows, branch_gates(model), branch_angles(model, theta)[None])
    z = diagonal_readout(_z_diagonals(n), psi.reshape(batch, L, 1, -1))
    logits = np.zeros((batch, n))
    for j in range(L):
        logits += probs[j] * z[:, j]
    return psi, logits


def working_z_expectations(
    model: LcqnnModel, alpha, theta, input_state: StateVector
) -> np.ndarray:
    """Per-working-qubit <Z> of the forward state, via the branch mixture:
    the one-example case of the batched forward sweep."""
    return _forward_sweep(model, alpha, theta, input_state.amps[None])[1][0]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, label):
    """Softmax cross-entropy over the last axis against ``label``, one label
    per row of a batch."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    picked = np.take_along_axis(shifted, np.asarray(label)[..., None], axis=-1)
    return np.log(np.exp(shifted).sum(axis=-1)) - picked[..., 0]


def minibatch_loss_and_grads(
    model: LcqnnModel, flat_params: np.ndarray, states: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy losses, shape (B,), and full parameter gradients,
    shape (B, P), of B encoded examples ``states`` with ``labels``.

    One forward sweep over the (example, branch) rows and one adjoint sweep
    back. The chain rule folds each example's softmax residuals into one
    diagonal sum_c (softmax_c - onehot_c) Z_c on its rows, so the adjoint
    sweep covers all four logits and reuses the forward sweep's output.
    Rows never mix, so an example's loss and gradient do not depend on the
    batch around it.
    """
    alpha, theta = split_params(model, flat_params)
    diags = _z_diagonals(model.num_working)
    psi, logits = _forward_sweep(model, alpha, theta, states)
    losses = cross_entropy(logits, labels)
    residual = softmax(logits)
    residual[np.arange(len(labels)), labels] -= 1.0
    diag = np.zeros((len(labels), 1, diags.shape[1]))
    for c in range(model.num_working):
        diag += residual[:, c, None, None] * diags[c]
    values, local = adjoint_gradient(
        psi, branch_gates(model), branch_angles(model, theta)[None], diag
    )
    return losses, mixture_gradients(model, alpha, values, local)


def example_loss_and_grad(
    model: LcqnnModel, flat_params: np.ndarray, example: MnistExample
) -> tuple[float, np.ndarray]:
    """Cross-entropy loss and its full parameter gradient for one example:
    the one-example minibatch."""
    data = encode_examples([example])
    losses, grads = minibatch_loss_and_grads(model, flat_params, data.states, data.labels)
    return float(losses[0]), grads[0]


def evaluate_accuracy(
    model: LcqnnModel, flat_params: np.ndarray, data: EncodedExamples
) -> float:
    """Fraction of the encoded examples ``data`` whose largest logit is
    their label, from one batched forward sweep."""
    if len(data) == 0:
        raise TrainingError("no examples to evaluate")
    logits = _forward_sweep(model, *split_params(model, flat_params), data.states)[1]
    return int(np.sum(np.argmax(logits, axis=-1) == data.labels)) / len(data)


# ---------------------------------------------------------------------------
# training


#: classifier (m control qubits, n working qubits, block locality k); n=4
#: holds the 16-amplitude pixel encoding
CLASSIFIER_SHAPE = (2, 4, 2)


@dataclass(frozen=True)
class TrainConfig:
    L: int
    D: int
    learning_rate: float
    epochs: int
    batch_size: int
    runs: int
    root_seed: int
    optimizer: str

    def make_model(self) -> LcqnnModel:
        m, n, k = CLASSIFIER_SHAPE
        return make_model(m, n, self.L, k, self.D)


@dataclass
class RunMetrics:
    run_index: int
    run_seed: int
    epoch_losses: list[float]
    test_accuracy: float


class AdamOptimizer:
    """Standard Adam with bias correction, minimizing the loss."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class SgdOptimizer:
    """Plain minibatch gradient descent (available behind a flag)."""

    def __init__(self, size: int, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return params - self.lr * grad


def _make_optimizer(name: str, size: int, lr: float):
    if name == "adam":
        return AdamOptimizer(size, lr)
    if name == "sgd":
        return SgdOptimizer(size, lr)
    raise TrainingError(f"unknown optimizer {name!r} (expected 'adam' or 'sgd')")


def train_single_run(
    config: TrainConfig, train_set: EncodedExamples, test_set: EncodedExamples, run_index: int
) -> RunMetrics:
    """One training run: init and epoch shuffles as the run's RngStream components
    0 and 1 draw them, minibatch descent, then held-out accuracy.  Batch gradients
    accumulate in example order, so a rerun reproduces the loss curve bit for
    bit."""
    if not train_set or not test_set:
        raise TrainingError("empty training or test set")
    model = config.make_model()
    param_words, shuffle_words = chunk_seeds(config.root_seed, run_index, run_index + 1, (0, 1))
    params = TWO_PI * pcg64_random(param_words, num_params(model))[0]
    shuffle = Pcg64Stream(shuffle_words[0])
    optimizer = _make_optimizer(
        config.optimizer, num_params(model), config.learning_rate
    )
    if config.batch_size < 1 or config.epochs < 1:
        raise TrainingError("batch_size and epochs must be >= 1")

    states, labels = train_set.states, train_set.labels
    epoch_losses = []
    for epoch in range(config.epochs):
        order = shuffle.permutation(len(train_set))
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            losses, grads = minibatch_loss_and_grads(
                model, params, states[batch], labels[batch]
            )
            grad_sum = np.zeros(num_params(model))
            for loss, grad in zip(losses, grads):
                loss_sum += float(loss)
                grad_sum += grad
            if not math.isfinite(loss_sum):
                raise TrainingError(
                    f"non-finite loss in run {run_index}, epoch {epoch}, "
                    f"batch starting at {start}"
                )
            params = optimizer.step(params, grad_sum / len(batch))
            if not np.all(np.isfinite(params)):
                raise TrainingError(
                    f"non-finite parameters after the update in run {run_index}, "
                    f"epoch {epoch}, batch starting at {start}"
                )
        epoch_losses.append(loss_sum / len(order))
    accuracy = evaluate_accuracy(model, params, test_set)
    return RunMetrics(
        run_index=run_index,
        run_seed=config.root_seed,
        epoch_losses=epoch_losses,
        test_accuracy=accuracy,
    )


def train(
    config: TrainConfig, train_set: EncodedExamples, test_set: EncodedExamples
) -> list[RunMetrics]:
    """All runs of one configuration, seeded independently per run."""
    return [train_single_run(config, train_set, test_set, run) for run in range(config.runs)]


# ---------------------------------------------------------------------------
# accuracy grid


@dataclass
class GridCell:
    L: int
    D: int
    metrics: list[RunMetrics] = field(default_factory=list)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([m.test_accuracy for m in self.metrics]))

    @property
    def std_accuracy(self) -> float:
        accs = [m.test_accuracy for m in self.metrics]
        return float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0


def run_accuracy_grid(train_set, test_set, configs, progress) -> list[GridCell]:
    """Train every cell's TrainConfig, in order, on lists of MnistExample
    encoded once for all cells and runs, and collect per-run metrics;
    ``progress`` gets one line as each cell starts.

    Every cell's model is built before the first one trains, so a bad L or D
    fails at once rather than after the cells before it."""
    for config in configs:
        config.make_model()
    train_set, test_set = encode_examples(train_set), encode_examples(test_set)
    cells = []
    for config in configs:
        progress(f"training L={config.L} D={config.D} ({config.runs} run(s))")
        cells.append(
            GridCell(L=config.L, D=config.D, metrics=train(config, train_set, test_set))
        )
    return cells
