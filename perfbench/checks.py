"""Correctness checks on lcqnn's reports, and the oracles they compare with.

Every check raises ``CheckError`` on a wrong answer.  ``reject()`` runs a
check on a deliberately corrupted copy of an answer and fails if the check
accepts it, so each run also shows that its checks can fail.

The oracles build circuits as dense Kronecker-embedded matrices
(``tests/oracles.py``), apart from the tensordot kernel in ``lcqnn.sim``; the
random draws come from the program's public ``gradients.sample_param_draw``
so that a change to the random streams leaves the comparison valid.
"""

from __future__ import annotations

import math

import numpy as np

#: standard errors a Monte-Carlo mean may lie from zero
MEAN_SIGMAS = 4.0
#: z-score of the variance tolerance against the closed forms
VARIANCE_SIGMAS = 4.0


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def reject(check, corrupted, what: str) -> None:
    """Fail unless ``check`` rejects the corrupted answer."""
    try:
        check(corrupted)
    except CheckError:
        return
    raise CheckError(f"check accepted a corrupted answer: {what}")


# ---------------------------------------------------------------------------
# report parsing


def data_lines(text: str) -> list[str]:
    """CSV lines after the ``#`` metadata header, column row included."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def parse_rows(text: str) -> list[dict]:
    """CSV data rows as dicts; numeric cells become int or float."""
    lines = data_lines(text)
    require(len(lines) >= 2, "report has no data rows")
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        require(len(cells) == len(columns), f"malformed row {line!r}")
        row = {}
        for column, cell in zip(columns, cells):
            try:
                row[column] = int(cell)
            except ValueError:
                try:
                    row[column] = float(cell)
                except ValueError:
                    row[column] = cell
        rows.append(row)
    return rows


def close(a: float, b: float, rel: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


# ---------------------------------------------------------------------------
# shared row checks


def check_unbiased(rows) -> None:
    """Gradients of these costs average to zero: |mean| <= 4 stderr."""
    for row in rows:
        require(
            math.isfinite(row["mean"]) and row["stderr"] > 0
            and abs(row["mean"]) <= MEAN_SIGMAS * row["stderr"],
            f"mean {row['mean']!r} exceeds {MEAN_SIGMAS:g} stderr "
            f"({row['stderr']!r}) in {row}",
        )


# ---------------------------------------------------------------------------
# variance-scan


def check_light_cone(rows) -> None:
    """Rows whose probe sees the same circuit must agree within 1e-12.

    Z0 depends only on the block group holding qubit 0; with k=3 that group
    is qubits 0-2 for every n, and with k=5 it is qubits 0-4 once n >= 5.
    The draws for that group are shared across n, so those rows coincide.
    """
    by_key = {(r["k"], r["n"]): r for r in rows}
    for group in (
        [by_key[(3, n)] for n in (3, 4, 6, 8)],
        [by_key[(5, n)] for n in (6, 8)],
    ):
        for other in group[1:]:
            for field in ("mean", "variance", "stderr"):
                require(
                    close(group[0][field], other[field], 1e-12),
                    f"{field} differs across a shared light cone: "
                    f"{group[0]} vs {other}",
                )


def _leaf0_probability(alpha: np.ndarray, tree_depth: int) -> float:
    """Weight of branch 0: the cos^2 factors along the all-zero tree path."""
    return float(np.prod([math.cos(alpha[(1 << level) - 1]) ** 2
                          for level in range(tree_depth)]))


def _z_expectations(psi: np.ndarray, n: int) -> np.ndarray:
    """<Z_q> for each qubit q of an n-qubit state (qubit 0 = MSB)."""
    probs = np.abs(psi) ** 2
    index = np.arange(1 << n)
    return np.array(
        [probs @ (1.0 - 2.0 * ((index >> (n - 1 - q)) & 1)) for q in range(n)]
    )


def oracle_probe_stats(row, seed: int) -> tuple[float, float]:
    """Mean and variance of the probe gradient of one variance-scan row,
    recomputed with dense matrices from the program's own draws."""
    import oracles
    from lcqnn.gradients import default_probe_param, sample_param_draw
    from lcqnn.model import branch_gates, make_model

    model = make_model(row["m"], row["n"], row["L"], row["k"], row["D"])
    require(row["param_id"] == default_probe_param(model),
            "the oracle covers branch 0's first rotation only")
    gates = branch_gates(model)
    stride = model.branch_param_count
    zero = np.zeros(1 << model.num_working, dtype=complex)
    zero[0] = 1.0

    def z0(local):
        psi = oracles.dense_circuit(gates, local, model.num_working) @ zero
        return _z_expectations(psi, model.num_working)[0]

    grads = np.empty(row["samples"])
    for i in range(row["samples"]):
        alpha, theta = sample_param_draw(model, seed, i)
        local = theta[:stride].copy()
        local[0] += math.pi / 2
        up = z0(local)
        local[0] -= math.pi
        down = z0(local)
        grads[i] = _leaf0_probability(alpha, model.tree_depth) * 0.5 * (up - down)
    return float(np.mean(grads)), float(np.var(grads, ddof=1))


def check_against_oracle(row, oracle: tuple[float, float]) -> None:
    """The mean's natural scale is its stderr, so a mean near zero is
    compared relative to that, not to its own tiny size."""
    mean, variance = oracle
    require(close(row["mean"], mean, 1e-9, scale=row["stderr"]),
            f"mean {row['mean']!r} differs from the dense oracle's {mean!r}")
    require(close(row["variance"], variance, 1e-9),
            f"variance {row['variance']!r} differs from the dense oracle's {variance!r}")


# ---------------------------------------------------------------------------
# group-scan


#: kurtosis E[g^4]/E[g^2]^2 of each probe's gradient, measured at 8 000 and
#: 40 000 samples and rounded up with a margin (README)
KURTOSIS = {
    ("16:1;16:1", "theta"): 7.0,
    ("16:1;16:1", "alpha"): 5.5,
    ("32:1;32:1", "theta"): 7.5,
    ("32:1;32:1", "alpha"): 5.5,
    ("16:1;16:1;16:1;16:1", "theta"): 13.0,
    ("16:1;16:1;16:1;16:1", "alpha"): 10.5,
}


def closed_form_variance(row) -> float:
    """Haar-block closed forms with t = log2 L tree levels and block dim d:
    theta: (3/8)^t d / (2 (d^2 - 1)); alpha: (3/8)^(t-1) / (d + 1)."""
    d = row["d_max"]
    t = (row["L"] - 1).bit_length()
    if row["probe"] == "theta":
        return 0.375**t * d / (2.0 * (d * d - 1))
    return 0.375 ** (t - 1) / (d + 1)


def variance_tolerance(row) -> float:
    """4 standard errors of a sample variance: sqrt((kurtosis - 1) / N)."""
    kurtosis = KURTOSIS[(row["dims"], row["probe"])]
    return VARIANCE_SIGMAS * math.sqrt((kurtosis - 1.0) / row["samples"])


def pool_rows(reports) -> list[dict]:
    """Merge the rows of several reports on disjoint draws (one row per
    spectrum and probe in each) into rows over all their samples."""
    pooled = []
    for rows in zip(*reports):
        require(len({(r["dims"], r["probe"]) for r in rows}) == 1,
                "reports to pool list different rows")
        n = sum(r["samples"] for r in rows)
        mean = sum(r["samples"] * r["mean"] for r in rows) / n
        m2 = sum((r["samples"] - 1) * r["variance"] + r["samples"] * (r["mean"] - mean) ** 2
                 for r in rows)
        variance = m2 / (n - 1)
        pooled.append(dict(rows[0], samples=n, mean=mean, variance=variance,
                           stderr=math.sqrt(variance / n)))
    return pooled


def check_closed_forms(rows) -> None:
    for row in rows:
        expected = closed_form_variance(row)
        tol = variance_tolerance(row)
        require(
            abs(row["variance"] / expected - 1.0) <= tol,
            f"{row['dims']} {row['probe']} variance {row['variance']!r} is not "
            f"within {tol:.3f} of the closed form {expected!r}",
        )


def check_same_rows(pair) -> None:
    """Reports of one command at two thread counts: identical data rows."""
    one, two = pair
    require(data_lines(one) == data_lines(two),
            "--threads 2 rows differ from --threads 1 rows")


# ---------------------------------------------------------------------------
# mnist


LOSS_RANGE = (math.log(1 + 3 * math.exp(-2)), math.log(1 + 3 * math.exp(2)))


def check_training_rows(rows, test_size: int) -> None:
    """Each logit is a <Z> in [-1, 1], which bounds the cross-entropy; an
    accuracy is a count of correct test examples over the test size."""
    lo, hi = LOSS_RANGE
    for row in rows:
        losses = [v for k, v in row.items() if k.startswith("epoch_loss_")]
        require(losses, "no epoch losses in a training row")
        for loss in losses:
            require(math.isfinite(loss) and lo <= loss <= hi,
                    f"epoch loss {loss!r} outside [{lo:.4f}, {hi:.4f}]")
        hits = row["test_accuracy"] * test_size
        require(0.0 <= row["test_accuracy"] <= 1.0 and abs(hits - round(hits)) < 1e-9,
                f"accuracy {row['test_accuracy']!r} is not k/{test_size}")


def _oracle_weights(model, alpha: np.ndarray) -> np.ndarray:
    """Branch weights: cos^2/sin^2 of each tree angle along the branch's path."""
    weights = np.ones(model.branch_count)
    for j in range(model.branch_count):
        for level in range(model.tree_depth):
            node = (1 << level) - 1 + (j >> (model.tree_depth - level))
            bit = (j >> (model.tree_depth - 1 - level)) & 1
            weights[j] *= (math.sin if bit else math.cos)(alpha[node]) ** 2
    return weights


def _oracle_branch_z(model, local: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Working-qubit <Z> after one branch's dense unitary."""
    import oracles
    from lcqnn.model import branch_gates

    unitary = oracles.dense_circuit(branch_gates(model), local, model.num_working)
    return _z_expectations(unitary @ pixels, model.num_working)


def _cross_entropy(weights, branch_z, label: int) -> float:
    logits = weights @ branch_z
    top = logits.max()
    return float(top + math.log(np.exp(logits - top).sum()) - logits[label])


def oracle_loss_and_fd(model, flat, pixels, label, h: float = 1e-5):
    """Dense-oracle cross-entropy of the four working-qubit <Z> logits, and
    its central differences in every parameter.  A step in a branch angle
    changes only that branch, so only its unitary is rebuilt."""
    alpha, theta = flat[: model.num_alpha], flat[model.num_alpha :]
    stride = model.branch_param_count
    weights = _oracle_weights(model, alpha)
    branch_z = np.array([_oracle_branch_z(model, theta[j * stride : (j + 1) * stride], pixels)
                         for j in range(model.branch_count)])
    fd = np.empty(flat.size)
    for i in range(flat.size):
        sides = []
        for sign in (1.0, -1.0):
            if i < model.num_alpha:
                shifted = alpha.copy()
                shifted[i] += sign * h
                sides.append(_cross_entropy(_oracle_weights(model, shifted), branch_z, label))
            else:
                j, slot = divmod(i - model.num_alpha, stride)
                local = theta[j * stride : (j + 1) * stride].copy()
                local[slot] += sign * h
                z = branch_z.copy()
                z[j] = _oracle_branch_z(model, local, pixels)
                sides.append(_cross_entropy(weights, z, label))
        fd[i] = (sides[0] - sides[1]) / (2 * h)
    return _cross_entropy(weights, branch_z, label), fd


def mnist_gradient_cases(seed: int) -> list[tuple]:
    """(model, params, pixels, label, loss, grad, oracle) for random unit
    inputs: loss and gradient from ``example_loss_and_grad``, and the dense
    oracle's loss and central differences."""
    from lcqnn.gradients import num_params
    from lcqnn.mnist import MnistExample, example_loss_and_grad
    from lcqnn.model import make_model

    rng = np.random.default_rng(seed)
    cases = []
    for L, D in ((4, 1), (2, 2)):
        model = make_model(2, 4, L, 2, D)
        for _ in range(2):
            flat = rng.uniform(0.0, 2 * math.pi, num_params(model))
            pixels = rng.uniform(0.0, 1.0, 16)
            pixels /= np.linalg.norm(pixels)
            label = int(rng.integers(0, 4))
            loss, grad = example_loss_and_grad(model, flat, MnistExample(pixels, label))
            oracle = oracle_loss_and_fd(model, flat, pixels, label)
            cases.append((model, flat, pixels, label, loss, grad, oracle))
    return cases


def check_example_gradients(cases) -> None:
    """Loss equals the dense oracle's to 1e-10; the gradient matches central
    differences of the oracle loss (step 1e-5) to 1e-6."""
    for model, flat, pixels, label, loss, grad, oracle in cases:
        expected, fd = oracle
        require(abs(loss - expected) <= 1e-10,
                f"loss {loss!r} differs from the dense oracle's {expected!r}")
        worst = int(np.argmax(np.abs(grad - fd)))
        require(abs(grad[worst] - fd[worst]) <= 1e-6,
                f"gradient component {worst} is {grad[worst]!r}, "
                f"central difference {fd[worst]!r}")


# ---------------------------------------------------------------------------
# grad-check


def check_grad_report(stdout: str, probes: int) -> None:
    first = stdout.splitlines()[0] if stdout else ""
    require(first.startswith(f"grad-check: {probes}/{probes} probes within 1e-05"),
            f"grad-check did not pass every probe: {first!r}")
