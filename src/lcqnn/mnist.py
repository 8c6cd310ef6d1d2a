"""Digit-classification pipeline: IDX ingestion, 4x4 average-pool
preprocessing, amplitude encoding, and the accuracy grid over branch count
and depth.

The classifier is the combination model of shape ``CLASSIFIER_SHAPE``: m=2
control and n=4 working qubits in k=2 local blocks.  The four class logits
are the Pauli-Z expectations of the working qubits and training minimizes
softmax cross-entropy with minibatch Adam or SGD.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import warnings
import zlib
from dataclasses import dataclass
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
from .model import LcqnnModel, branch_sweep, coeff_probabilities, tree_angles
from .sim import (
    PauliZSum,
    Pcg64Stream,
    StateVector,
    amplitude_encode,
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
        raise IdxFormatError("no usable examples after filtering to digits 0-3")
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


def _forward_sweep(parts) -> tuple:
    """``model.branch_sweep`` over each part's ``theta`` and ``states`` of
    the ``(model, alpha, theta, states)`` of ``parts``: its output and
    branch angles, then each part's logits, shape (B, n), each working
    qubit's <Z> under the part's branch mixture, accumulated in branch
    order."""
    psi, blocks = branch_sweep([(model, theta, states) for model, _, theta, states in parts])
    batch, n = psi.shape[0], parts[0][0].num_working
    z = diagonal_readout(_z_diagonals(n), psi.reshape(batch, len(blocks), 1, -1))
    all_logits, lo = [], 0
    for model, alpha, _, _ in parts:
        probs = coeff_probabilities(tree_angles(model, alpha))
        logits = np.zeros((batch, n))
        for j in range(model.branch_count):
            logits += probs[j] * z[:, lo + j]
        all_logits.append(logits)
        lo += model.branch_count
    return psi, blocks, all_logits


def working_z_expectations(
    model: LcqnnModel, alpha, theta, input_state: StateVector
) -> np.ndarray:
    """Per-working-qubit <Z> of the forward state, via the branch mixture:
    the one-example case of the batched forward sweep."""
    return _forward_sweep([(model, alpha, theta, input_state.amps[None])])[2][0][0]


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


def minibatch_loss_and_grads(parts) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cross-entropy losses, shape (B,), and full parameter gradients,
    shape (B, P), of each ``(model, flat_params, states, labels)`` of
    ``parts``: B encoded examples ``states`` with ``labels``, the same B for
    every part, under models that share their block groups.

    One forward sweep over the (example, branch) rows of every part and one
    adjoint sweep back. The chain rule folds each example's softmax
    residuals into one diagonal sum_c (softmax_c - onehot_c) Z_c on its
    rows, so the adjoint sweep covers all four logits and reuses the
    forward sweep's output. Rows never mix, so an example's loss and
    gradient do not depend on the batch or the parts around it.
    """
    split = [(model, *split_params(model, flat), states) for model, flat, states, _ in parts]
    psi, blocks, all_logits = _forward_sweep(split)
    diags = _z_diagonals(parts[0][0].num_working)
    losses, diag = [], []
    for (model, _, _, labels), logits in zip(parts, all_logits):
        losses.append(cross_entropy(logits, labels))
        residual = softmax(logits)
        residual[np.arange(len(labels)), labels] -= 1.0
        rows = np.zeros((len(labels), 1, diags.shape[1]))
        for c in range(model.num_working):
            rows += residual[:, c, None, None] * diags[c]
        diag.append(np.broadcast_to(rows, (len(labels), model.branch_count, diags.shape[1])))
    folds = [(model, alpha) for model, alpha, _, _ in split]
    return list(zip(losses, mixture_gradients(folds, psi, blocks, np.concatenate(diag, axis=1))))


def example_loss_and_grad(
    model: LcqnnModel, flat_params: np.ndarray, example: MnistExample
) -> tuple[float, np.ndarray]:
    """Cross-entropy loss and its full parameter gradient for one example:
    the one-example minibatch."""
    data = encode_examples([example])
    [(losses, grads)] = minibatch_loss_and_grads([(model, flat_params, data.states, data.labels)])
    return float(losses[0]), grads[0]


def evaluate_accuracy(
    model: LcqnnModel, flat_params: np.ndarray, data: EncodedExamples
) -> float:
    """Fraction of the encoded examples ``data`` whose largest logit is
    their label, from one batched forward sweep."""
    if len(data) == 0:
        raise TrainingError("no examples to evaluate")
    logits = _forward_sweep([(model, *split_params(model, flat_params), data.states)])[2][0]
    return int(np.sum(np.argmax(logits, axis=-1) == data.labels)) / len(data)


# ---------------------------------------------------------------------------
# training


#: classifier (m control qubits, n working qubits, block locality k); n=4
#: holds the 16-amplitude pixel encoding
CLASSIFIER_SHAPE = (2, 4, 2)


def classifier(L: int, D: int) -> LcqnnModel:
    """The classifier model with L branches of depth D: one grid cell."""
    m, n, k = CLASSIFIER_SHAPE
    return LcqnnModel(m, n, L, k, D)


@dataclass(frozen=True)
class TrainConfig:
    """The training settings that every cell and run of a grid shares."""

    learning_rate: float
    epochs: int
    batch_size: int
    runs: int
    root_seed: int
    optimizer: str


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


class _Run:
    """One training run's own state: init and epoch shuffles as the run's
    RngStream components 0 and 1 draw them, its optimizer, its loss curve,
    and the error that stopped it, if any."""

    def __init__(self, model: LcqnnModel, run_index: int, config: TrainConfig, optimizer):
        self.model, self.run_index = model, run_index
        param_words, shuffle_words = chunk_seeds(config.root_seed, run_index, run_index + 1, (0, 1))
        self.params = TWO_PI * pcg64_random(param_words, num_params(model))[0]
        self.shuffle = Pcg64Stream(shuffle_words[0])
        self.optimizer = optimizer(num_params(model), config.learning_rate)
        self.order, self.loss_sum = np.arange(0), 0.0  # the epoch's shuffle and loss sum
        self.epoch_losses: list[float] = []
        self.error: TrainingError | None = None

    def descend(self, losses, grads, epoch: int, start: int) -> None:
        """Add a minibatch's losses to the epoch's sum and step on its mean
        gradient, both summed in example order; a non-finite loss or
        parameter stops the run."""
        grad_sum = np.zeros(len(self.params))
        for loss, grad in zip(losses.tolist(), grads):
            self.loss_sum += loss
            grad_sum += grad
        where = f"run {self.run_index}, epoch {epoch}, batch starting at {start}"
        if not math.isfinite(self.loss_sum):
            self.error = TrainingError(f"non-finite loss in {where}")
            return
        self.params = self.optimizer.step(self.params, grad_sum / len(losses))
        if not np.all(np.isfinite(self.params)):
            self.error = TrainingError(f"non-finite parameters after the update in {where}")


#: the most entries one lockstep step may hold: each (example, column) row
#: of its stack counts its 2**n amplitudes and its P gradient entries
LOCKSTEP_ELEMENTS = 1 << 15


def _lockstep_groups(runs: list[_Run], batch: int) -> list[list[_Run]]:
    """``runs`` in groups that train in lockstep, each in run order: runs
    whose models share their block groups, cut into groups whose steps over
    minibatches of ``batch`` examples hold at most ``LOCKSTEP_ELEMENTS``
    entries (one run at least), so a step's memory does not grow with the
    runs beyond that."""
    groups: dict[tuple, list[list[_Run]]] = {}
    for run in runs:
        model = run.model
        per_column = batch * ((1 << model.num_working) + model.branch_param_count)
        cut = groups.setdefault(model.groups, [[]])
        held = sum(other.model.branch_count for other in cut[-1]) * per_column
        if cut[-1] and held + model.branch_count * per_column > LOCKSTEP_ELEMENTS:
            cut.append([])
        cut[-1].append(run)
    return [group for cut in groups.values() for group in cut]


def train_runs(
    config: TrainConfig, jobs, train_set: EncodedExamples, test_set: EncodedExamples
) -> list[RunMetrics]:
    """Train the run ``run_index`` of each ``(model, run_index)`` of
    ``jobs`` under ``config``, then measure its held-out accuracy; metrics
    come back in job order.

    ``config`` is checked before any run is built. Runs whose models share
    their block groups (for the classifier, the same D) train in lockstep,
    in groups of at most ``LOCKSTEP_ELEMENTS`` entries per step, and all
    groups follow one schedule: at each minibatch start of each epoch, one
    ``minibatch_loss_and_grads`` call per group, whose part ``r`` is run
    ``r``'s own shuffled minibatch. Everything else is each run's own, and
    rows never mix, so a run's loss curve and accuracy are bit for bit those
    of the run trained alone. A run that fails stops stepping; if runs fail,
    the earliest one in job order raises its error, as training them one by
    one would.
    """
    if not train_set or not test_set:
        raise TrainingError("empty training or test set")
    optimizer = {"adam": AdamOptimizer, "sgd": SgdOptimizer}.get(config.optimizer)
    if optimizer is None:
        raise TrainingError(f"unknown optimizer {config.optimizer!r} (expected 'adam' or 'sgd')")
    if min(config.batch_size, config.epochs, config.runs) < 1:
        raise TrainingError("batch_size, epochs and runs must be >= 1")
    runs = [_Run(model, run_index, config, optimizer) for model, run_index in jobs]
    count, batch = len(train_set), config.batch_size
    groups = _lockstep_groups(runs, min(batch, count))
    for epoch in range(config.epochs):
        for run in runs:
            run.order, run.loss_sum = run.shuffle.permutation(count), 0.0
        for start in range(0, count, batch):
            groups = [[run for run in group if run.error is None] for group in groups]
            for group in filter(None, groups):
                batches = [run.order[start : start + batch] for run in group]
                parts = [
                    (run.model, run.params, train_set.states[b], train_set.labels[b])
                    for run, b in zip(group, batches)
                ]
                for run, (losses, grads) in zip(group, minibatch_loss_and_grads(parts)):
                    run.descend(losses, grads, epoch, start)
        for run in runs:
            run.epoch_losses.append(run.loss_sum / count)
    for run in runs:
        if run.error is not None:
            raise run.error
    return [
        RunMetrics(
            run_index=run.run_index,
            run_seed=config.root_seed,
            epoch_losses=run.epoch_losses,
            test_accuracy=evaluate_accuracy(run.model, run.params, test_set),
        )
        for run in runs
    ]


# ---------------------------------------------------------------------------
# accuracy grid


@dataclass
class GridCell:
    model: LcqnnModel  # the cell's classifier
    metrics: list[RunMetrics]

    @property
    def L(self) -> int:
        return self.model.branch_count

    @property
    def D(self) -> int:
        return self.model.depth

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([m.test_accuracy for m in self.metrics]))

    @property
    def std_accuracy(self) -> float:
        accs = [m.test_accuracy for m in self.metrics]
        return float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0


def run_accuracy_grid(train_set, test_set, models, config: TrainConfig, progress) -> list[GridCell]:
    """Train ``config.runs`` runs of each classifier model of ``models``, one
    grid cell each, on lists of MnistExample encoded once for all cells and
    runs, and collect per-run metrics in model order; ``progress`` gets one
    line per cell, in order, before the grid trains. The runs of all cells
    go to ``train_runs`` together, so runs of different cells that share a
    branch circuit train in lockstep."""
    train_set, test_set = encode_examples(train_set), encode_examples(test_set)
    for model in models:
        progress(f"training L={model.branch_count} D={model.depth} ({config.runs} run(s))")
    jobs = [(model, run) for model in models for run in range(config.runs)]
    metrics = iter(train_runs(config, jobs, train_set, test_set))
    return [GridCell(model, [next(metrics) for _ in range(config.runs)]) for model in models]
