"""Command-line surface: variance scans, group-spectrum scans, the digit
training grid, and a gradient cross-check.

Exit codes: 0 success, 1 check or run failure, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import gc
import math
import re
import sys

import numpy as np

from . import reporting
from .errors import LcqnnError, TrainingError
from .experiments import (
    BlockSpectrum,
    check_spectrum,
    group_block_variance,
    run_variance_point,
    select_blocks,
    su2_block_dims,
    z0_observable,
)
from .gradients import (
    default_probe_param,
    finite_diff_grad,  # noqa: F401  (perfbench/spans.py times calls through this name)
    num_params,
    param_shift_grad,  # noqa: F401  (perfbench/spans.py times calls through this name)
    sample_params,
    shift_and_fd_grads,
)
from .mnist import (
    TrainConfig,
    classifier,
    data_files_present,
    default_data_dir,
    fetch_instructions,
    load_dataset,
    run_accuracy_grid,
)
from .model import make_model
from .sim import PauliZSum, Pcg64Stream

GRAD_CHECK_TOLERANCE = 1e-5

#: probes that grad-check draws before it evaluates them, grouped by branch circuit:
#: the rows held at once are bounded by this, whatever ``--probes`` is
GRAD_CHECK_WINDOW = 4096


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# flag parsing


def _int_list(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if not items:
        raise argparse.ArgumentTypeError("need at least one value")
    return items


def _dims_spec(text: str) -> tuple[tuple[int, int], ...]:
    blocks = []
    for part in text.split(","):
        match = re.fullmatch(r"\s*(\d+):(\d+)\s*", part)
        if match is None:
            raise argparse.ArgumentTypeError(
                f"expected d:mult pairs like 16:1,16:1, got {text!r}"
            )
        blocks.append((int(match.group(1)), int(match.group(2))))
    return tuple(blocks)


def _observable_for(spec: str, num_working: int) -> PauliZSum:
    match = re.fullmatch(r"[Zz](\d+)", spec.strip())
    if match is None:
        raise LcqnnError(f"unsupported observable {spec!r}; use Z<qubit>, e.g. Z0")
    qubit = int(match.group(1))
    if qubit >= num_working:
        raise LcqnnError(
            f"observable qubit {qubit} is outside the {num_working}-qubit register"
        )
    return PauliZSum([(1.0, (qubit,))], num_qubits=num_working)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise LcqnnError(message)


def _check_common(args) -> None:
    _require(args.samples >= 2, "--samples must be >= 2")
    _require(args.threads >= 1, "--threads must be >= 1")


def _scan_point(args, obs: PauliZSum, L: int, k: int):
    """A scan point ``(model, k, obs, param_id)`` on ``obs``' register: its
    probe is ``--param-id``, or by default branch 0's first rotation."""
    model = make_model(args.m, obs.num_qubits, L, k, args.depth)
    return model, k, obs, default_probe_param(model) if args.param_id is None else args.param_id


def _config(args, flags, **normalised) -> dict:
    """A report's replayed settings, keyed in ``flags`` order: each flag's
    parsed value (tuples as lists), or the normalised value passed for it."""
    values = {**vars(args), **normalised}
    return {k: list(values[k]) if isinstance(values[k], tuple) else values[k] for k in flags}


# ---------------------------------------------------------------------------
# subcommands


def cmd_variance_scan(args) -> int:
    _check_common(args)
    points = [_scan_point(args, _observable_for(args.obs, n), args.L, k)
              for k in args.k_list for n in args.n_list]
    config = _config(args, ("m", "L", "k_list", "n_list", "depth", "samples", "seed", "obs",
                            "param_id", "format", "threads"), obs=points[0][2].describe())
    records = run_variance_point(points, args.samples, args.seed, lambda p: _progress(
        f"variance-scan: k={points[p][1]} n={points[p][0].num_working} ({args.samples} samples)"))
    _emit_scan(args, "variance-scan", config, records)
    return 0


def cmd_variance_layers(args) -> int:
    _check_common(args)
    _require(len(set(args.L_list)) >= 2, "--L-list needs two distinct values for the slope fit")
    # the flat layout puts the L - 1 tree angles first, so only a tree angle
    # present at every L names one parameter across the scan
    _require(args.param_id is None or 0 <= args.param_id < min(args.L_list) - 1,
             f"--param-id must name a tree angle at every L, below min(--L-list) - 1 = "
             f"{min(args.L_list) - 1}, got {args.param_id}")
    obs = _observable_for(args.obs, args.n)
    config = _config(args, ("m", "n", "k", "depth", "L_list", "samples", "seed", "obs",
                            "param_id", "format", "threads"), obs=obs.describe())
    _progress(
        f"variance-layers: L in {list(args.L_list)} ({args.samples} samples each)"
    )
    for L in args.L_list:
        _require(L >= 1 and not L & (L - 1), f"branch counts must be powers of two, got {L}")
        _require(args.m >= 0 and L <= 1 << args.m,
                 f"branch count {L} does not fit {args.m} control qubit(s)")
    points = [_scan_point(args, obs, L, args.k) for L in args.L_list]
    records = run_variance_point(points, args.samples, args.seed)
    summary = reporting.layers_summary(records)
    slope = summary["log2_slope_vs_log2_L"]
    _progress(f"variance-layers: slope {'n/a' if slope is None else f'{slope:+.4f}'}")
    _emit_scan(args, "variance-layers", config, records, summary)
    return 0


def _emit(args, subcommand, config, columns, rows, records, summary=None) -> None:
    """Write a report under its replayable ``# command:`` header in
    ``args.format``: CSV ``columns`` over ``rows()``, or JSON ``records()``
    and ``summary``."""
    command = reporting.build_command(subcommand, config)
    if args.format == "csv":
        text = reporting.render_csv(command, config, columns, rows())
    else:
        text = reporting.render_json(command, config, records(), summary)
    reporting.write_output(text, args.out)


def _emit_scan(args, subcommand, config, records, summary=None) -> None:
    _emit(
        args, subcommand, config, reporting.SCAN_COLUMNS,
        lambda: [reporting.scan_row(r) for r in records],
        lambda: [reporting.scan_dict(r) for r in records],
        summary,
    )


def _ratio_text(ratio: float | None) -> str:
    return "n/a" if ratio is None else f"{ratio:.4f}"


def cmd_group_scan(args) -> int:
    _check_common(args)
    _require(args.depth >= 1, "--depth must be >= 1")
    if args.dims and (args.su2_N is not None or args.select_j is not None):
        raise LcqnnError("pass either --dims or --su2-N/--select-j, not both")
    if args.dims:
        spectra = [BlockSpectrum(blocks) for blocks in args.dims]
    elif args.su2_N is not None:
        spectrum = su2_block_dims(args.su2_N)
        if args.select_j is not None:
            spectrum = select_blocks(spectrum, args.select_j)
        spectra = [spectrum]
    else:
        raise LcqnnError("one of --dims or --su2-N is required")
    for spectrum in spectra:
        check_spectrum(spectrum, args.mode)
    dims = [",".join(f"{d}:{mult}" for d, mult in s.blocks) for s in spectra]
    config = _config(args, ("dims", "su2_N", "select_j", "mode", "depth", "samples", "seed",
                            "format", "threads"), dims=dims if args.dims else None)
    results = []
    for spectrum in spectra:
        _progress(
            f"group-scan: dims {reporting.spectrum_label(spectrum)} "
            f"mode {args.mode} ({args.samples} samples)"
        )
        results.append(
            group_block_variance(spectrum, args.samples, args.mode, args.seed, args.depth)
        )
    summary = reporting.group_summary(results)
    for ratio in summary["ratios"]:
        line = f"group-scan: spectrum {ratio['pair'][1]} / spectrum " \
            f"{ratio['pair'][0]} theta-variance ratio {_ratio_text(ratio['theta'])}"
        if "alpha" in ratio:
            line += f", alpha ratio {_ratio_text(ratio['alpha'])}"
        _progress(line)
    _emit(
        args, "group-scan", config, reporting.GROUP_COLUMNS,
        lambda: [row for res in results for row in reporting.group_rows(res)],
        lambda: [rec for res in results for rec in reporting.group_dicts(res)],
        summary,
    )
    return 0


def cmd_mnist(args) -> int:
    _require(args.epochs >= 1, "--epochs must be >= 1")
    _require(args.runs >= 1, "--runs must be >= 1")
    _require(args.batch >= 1, "--batch must be >= 1")
    _require(math.isfinite(args.lr) and args.lr > 0, "--lr must be finite and > 0")
    _require(
        args.train_limit >= 4 and args.test_limit >= 4,
        "--train-limit and --test-limit must be >= 4 (one example per class)",
    )
    models = [classifier(L, D) for L in args.L_list for D in args.D_list]
    data_dir = args.data_dir if args.data_dir is not None else default_data_dir()
    if not data_files_present(data_dir):
        print(fetch_instructions(data_dir), file=sys.stderr)
        return 2
    config = _config(args, ("data_dir", "L_list", "D_list", "runs", "epochs", "lr", "batch",
                            "train_limit", "test_limit", "seed", "optimizer", "format"),
                     data_dir=str(data_dir))
    _progress(
        f"mnist: loading up to {args.train_limit}/{args.test_limit} examples "
        f"from {data_dir}"
    )
    train_set, test_set = load_dataset(data_dir, args.train_limit, args.test_limit)
    _progress(f"mnist: {len(train_set)} train / {len(test_set)} test examples")
    training = TrainConfig(learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch,
                           runs=args.runs, root_seed=args.seed, optimizer=args.optimizer)
    cells = run_accuracy_grid(train_set, test_set, models, training, progress=_progress)
    summary = reporting.mnist_summary(cells)
    for cell in summary["cells"]:
        _progress(
            f"mnist: L={cell['L']} D={cell['D']} "
            f"accuracy {cell['mean_accuracy']:.4f} +/- {cell['std_accuracy']:.4f}"
        )
    _emit(
        args, "mnist", config, reporting.mnist_columns(args.epochs),
        lambda: reporting.mnist_rows(cells), lambda: reporting.mnist_dicts(cells), summary,
    )
    return 0


def _grad_check_results(rng, probes: int, shift_scale: float):
    """Draw ``probes`` probes in order, in windows of ``GRAD_CHECK_WINDOW``,
    and evaluate both rules of a window's probes one branch circuit at a
    time: the probes whose models share their block groups (any control
    width and branch count) make one ``shift_and_fd_grads`` call, with one
    part per model. Yields, in probe order, each probe's label, shift-rule
    gradient and finite difference."""
    for first in range(0, probes, GRAD_CHECK_WINDOW):
        count = min(GRAD_CHECK_WINDOW, probes - first)
        labels, circuits = [], {}
        for probe in range(first, first + count):
            m = int(rng.integers(0, 4))
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, n + 1))
            D = int(rng.integers(1, 4))
            L = 1 << int(rng.integers(0, m + 1))
            model = make_model(m, n, L, k, D)
            flat = sample_params(model, rng)
            param_id = int(rng.integers(0, num_params(model)))
            labels.append(f"probe {probe} (m={m} n={n} L={L} k={k} D={D}, param {param_id})")
            by_model = circuits.setdefault(model.groups, {})
            by_model.setdefault(model, []).append((probe - first, flat, param_id))
        shifts, fds = np.empty(count), np.empty(count)
        observables = {}  # the Z0 observable of each working width
        for by_model in circuits.values():
            n = next(iter(by_model)).num_working
            if n not in observables:
                observables[n] = z0_observable(n)
            grouped = [tuple(map(np.array, zip(*entries))) for entries in by_model.values()]
            parts = [(model, flats, ids) for model, (_, flats, ids) in zip(by_model, grouped)]
            # an overflowing --shift-scale makes NaN costs, reported as failed probes
            with np.errstate(over="ignore", invalid="ignore"):
                grads = shift_and_fd_grads(parts, observables[n], shift_scale=shift_scale)
            for (indices, _, _), (shift, fd) in zip(grouped, grads):
                shifts[indices], fds[indices] = shift, fd
        yield from zip(labels, shifts.tolist(), fds.tolist())


def cmd_grad_check(args) -> int:
    _require(args.probes >= 1, "--probes must be >= 1")
    _require(args.seed >= 0, "--seed must be >= 0")
    _require(math.isfinite(args.shift_scale), "--shift-scale must be finite")
    rng = Pcg64Stream.from_seed(args.seed)
    worst_rel = -1.0
    worst_detail = ""
    failures = 0
    for label, shift, fd in _grad_check_results(rng, args.probes, args.shift_scale):
        # the error scale floors at 1e-3: parameters outside the observable's
        # block have exactly zero gradient, where a pure ratio would divide
        # finite-difference rounding noise (~1e-10) by itself
        rel = abs(shift - fd) / max(abs(shift), abs(fd), 1e-3)
        # a NaN error outranks every other, the first one staying worst
        if rel > worst_rel or (math.isnan(rel) and not math.isnan(worst_rel)):
            worst_rel = rel
            worst_detail = f"{label}: shift={shift!r} fd={fd!r} rel={rel:.3e}"
        if not rel <= GRAD_CHECK_TOLERANCE:  # a NaN error fails too
            failures += 1
    if failures:
        print(
            f"grad-check: {failures}/{args.probes} probes exceeded "
            f"{GRAD_CHECK_TOLERANCE:g} relative error"
        )
        print(f"worst offender: {worst_detail}")
        return 1
    print(
        f"grad-check: {args.probes}/{args.probes} probes within "
        f"{GRAD_CHECK_TOLERANCE:g} relative error"
    )
    print(f"worst: {worst_detail}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_output_flags(parser) -> None:
    parser.add_argument("--seed", type=int, default=42, help="root random seed")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_variance_flags(parser) -> None:
    parser.add_argument("--m", type=int, default=3, help="control qubits")
    parser.add_argument("--depth", type=int, default=3, help="entangling layers per block")
    parser.add_argument("--obs", default="Z0", help="observable, Z<qubit>")
    parser.add_argument(
        "--param-id", type=int, default=None,
        help="flat probe-parameter index (default: branch 0's first rotation)",
    )


def _add_sampling_flags(parser) -> None:
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted so that recorded commands replay; has no effect "
        "(sampling runs in one thread)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcqnn",
        description="Trainability experiments and a digit classifier for "
        "linear combinations of quantum neural networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    scan = sub.add_parser(
        "variance-scan", help="gradient variance vs working-register size"
    )
    _add_variance_flags(scan)
    scan.add_argument("--L", type=int, default=8, help="branch count (power of two)")
    scan.add_argument("--k-list", type=_int_list, default=(3, 5), help="block localities")
    scan.add_argument(
        "--n-list", type=_int_list, default=(3, 4, 6, 8), help="working-register sizes"
    )
    _add_sampling_flags(scan)
    _add_output_flags(scan)
    scan.set_defaults(handler=cmd_variance_scan)

    layers = sub.add_parser(
        "variance-layers", help="gradient variance vs branch count"
    )
    _add_variance_flags(layers)
    layers.add_argument("--n", type=int, default=6)
    layers.add_argument("--k", type=int, default=5)
    layers.add_argument("--L-list", type=_int_list, default=(1, 2, 4, 8))
    _add_sampling_flags(layers)
    _add_output_flags(layers)
    layers.set_defaults(handler=cmd_variance_layers)

    group = sub.add_parser(
        "group-scan", help="gradient variance of block-structured mixtures"
    )
    group.add_argument(
        "--dims",
        type=_dims_spec,
        action="append",
        default=None,
        help="spectrum as d:mult pairs, e.g. 16:1,16:1 (repeatable)",
    )
    group.add_argument("--su2-N", type=int, default=None, help="qubit count for the SU(2) spectrum")
    group.add_argument(
        "--select-j", type=_int_list, default=None, help="block indices kept from --su2-N"
    )
    group.add_argument("--mode", choices=("haar", "ansatz"), default="haar")
    group.add_argument("--depth", type=int, default=8, help="ansatz-mode circuit depth")
    _add_sampling_flags(group)
    _add_output_flags(group)
    group.set_defaults(handler=cmd_group_scan)

    mnist = sub.add_parser("mnist", help="train the digit classifier grid")
    mnist.add_argument(
        "--data-dir", default=None,
        help="IDX file directory (default: $LCQNN_DATA_DIR or ./data)",
    )
    mnist.add_argument("--L-list", type=_int_list, default=(1, 2, 4))
    mnist.add_argument("--D-list", type=_int_list, default=(1, 2, 4, 8))
    mnist.add_argument("--runs", type=int, default=5)
    mnist.add_argument("--epochs", type=int, default=2)
    mnist.add_argument("--lr", type=float, default=0.008)
    mnist.add_argument("--batch", type=int, default=32)
    mnist.add_argument("--train-limit", type=int, default=4000)
    mnist.add_argument("--test-limit", type=int, default=1000)
    mnist.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    _add_output_flags(mnist)
    mnist.set_defaults(handler=cmd_mnist)

    check = sub.add_parser(
        "grad-check", help="parameter-shift vs finite-difference cross-check"
    )
    check.add_argument("--probes", type=int, default=50)
    check.add_argument("--seed", type=int, default=42)
    check.add_argument(
        "--shift-scale", type=float, default=1.0, help=argparse.SUPPRESS
    )
    check.set_defaults(handler=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. The first call per process freezes the import-time
    heap (``gc.freeze``) so that interpreter exit skips collecting it."""
    args = build_parser().parse_args(argv)
    if not gc.get_freeze_count():
        gc.freeze()
    try:
        return args.handler(args)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LcqnnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
