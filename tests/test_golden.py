"""Byte identity of the CLI: stdout, stderr and exit code of a fixed command
set, compared with the files under ``tests/golden/``; a few of them are also
replayed in a fresh ``python -m lcqnn.cli`` process, up to its exit.

After a deliberate change to the output, regenerate the files with
``LCQNN_REGEN_GOLDEN=1 python -m pytest tests/test_golden.py`` and review
their diff before committing it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcqnn.cli import main
from test_mnist import pack_images, pack_labels, synthetic_split

GOLDEN_DIR = Path(__file__).parent / "golden"
REGENERATE = os.environ.get("LCQNN_REGEN_GOLDEN") == "1"

_SCAN = ["variance-scan", "--m", "2", "--L", "4", "--depth", "2", "--seed", "7"]
_LAYERS = ["variance-layers", "--m", "2", "--n", "4", "--depth", "2", "--samples", "40",
           "--seed", "3"]
_DIM1 = ["group-scan", "--dims", "1:1,3:1,2:2,4:1,5:1", "--samples", "150", "--seed", "11"]
_MNIST = ["mnist", "--data-dir", "data", "--batch", "8", "--train-limit", "48",
          "--test-limit", "24", "--seed", "4"]

COMMANDS = {
    "variance_scan": _SCAN + ["--k-list", "2,3", "--n-list", "3,4", "--samples", "70"],
    "variance_scan_json_threads2": _SCAN + [
        "--k-list", "2", "--n-list", "3,5", "--samples", "70", "--obs", "Z1",
        "--format", "json", "--threads", "2",
    ],
    "variance_scan_tree_probe": _SCAN + [
        "--k-list", "2", "--n-list", "3,4", "--samples", "70", "--param-id", "1",
    ],
    # a tree-angle probe at L = 8 draws 288 branch angles per sample, past
    # sim.DRAW_BLOCK, so the jump-ahead's later blocks reach the report
    "variance_scan_tree_probe_long": [
        "variance-scan", "--m", "3", "--L", "8", "--k-list", "2", "--n-list", "4",
        "--depth", "3", "--param-id", "0", "--samples", "70", "--seed", "7",
    ],
    # Z0's light cone is group 0; parameter 15 is branch 0's first angle in group 1
    "variance_scan_outside_cone": _SCAN + [
        "--k-list", "2", "--n-list", "4", "--samples", "70", "--param-id", "15",
    ],
    "variance_scan_single_branch": [
        "variance-scan", "--m", "0", "--L", "1", "--k-list", "2", "--n-list", "2,3",
        "--depth", "1", "--samples", "40", "--seed", "2",
    ],
    # several kernel blocks and a ragged tail; the k = 5, n = 5 cone's 32-amplitude
    # rows split at sim.BATCH_AMPLITUDES
    "variance_scan_multiblock": _SCAN + [
        "--k-list", "2,5", "--n-list", "3,5", "--samples", "600",
    ],
    "variance_scan_bad_param_id": _SCAN + [
        "--k-list", "2", "--n-list", "3", "--samples", "10", "--param-id", "9999",
    ],
    "variance_layers": _LAYERS + ["--k", "2", "--L-list", "1,2,4"],
    "variance_layers_json_threads2": _LAYERS + [
        "--k", "3", "--L-list", "2,4", "--param-id", "0", "--format", "json",
        "--threads", "2",
    ],
    "variance_layers_bad_branch_count": _LAYERS + ["--k", "2", "--L-list", "1,3"],
    "group_scan_haar": [
        "group-scan", "--dims", "4:1,4:1", "--dims", "8:1,8:1", "--samples", "100",
        "--seed", "5",
    ],
    "group_scan_haar_multiblock": [
        "group-scan", "--dims", "4:1,4:1", "--dims", "8:1,8:1", "--samples", "600",
        "--seed", "5",
    ],
    # Haar blocks past one 256-sample pass: dimensions 256 and 100 fill one
    # stream per pass, dimension 32 sixteen; the second sample block is
    # ragged, and block 1 of the second spectrum has dimension 1
    "group_scan_haar_large": [
        "group-scan", "--mode", "haar", "--dims", "256:1,32:1", "--dims", "100:1,1:1,16:1",
        "--samples", "260", "--seed", "5",
    ],
    "group_scan_su2_ansatz_json_threads2": [
        "group-scan", "--su2-N", "4", "--select-j", "0,1", "--mode", "ansatz",
        "--depth", "3", "--samples", "80", "--seed", "5", "--format", "json",
        "--threads", "2",
    ],
    "group_scan_ansatz": [
        "group-scan", "--dims", "3:1,5:1,2:2", "--mode", "ansatz", "--depth", "2",
        "--samples", "70", "--seed", "9",
    ],
    "group_scan_dim1_haar": _DIM1,
    "group_scan_dim1_ansatz_json_threads2": _DIM1 + [
        "--mode", "ansatz", "--depth", "2", "--threads", "2", "--format", "json",
    ],
    "group_scan_dim1_ansatz_middle": [
        "group-scan", "--dims", "1:1", "--dims", "4:1", "--dims", "1:1", "--mode", "ansatz",
        "--depth", "2", "--samples", "70", "--seed", "3",
    ],
    "group_scan_dim1_ansatz_depth1": [
        "group-scan", "--dims", "6:1,1:1,2:3", "--mode", "ansatz", "--depth", "1",
        "--samples", "130", "--seed", "4",
    ],
    "group_scan_zero_variance_json": [
        "group-scan", "--dims", "1:1,1:1", "--dims", "2:1,2:1", "--samples", "64",
        "--seed", "0", "--format", "json",
    ],
    # root seeds of two 32-bit words: the per-sample seed keys grow a word
    "variance_scan_seed_two_words": [
        "variance-scan", "--m", "2", "--L", "4", "--depth", "2", "--k-list", "2",
        "--n-list", "3,4", "--samples", "130", "--seed", "4294967297",
    ],
    "group_scan_haar_seed_two_words": [
        "group-scan", "--dims", "4:1,4:1", "--dims", "3:1,1:1,8:1", "--samples", "130",
        "--seed", "18446744073709551615",
    ],
    "group_scan_ansatz_seed_two_words": [
        "group-scan", "--dims", "3:1,5:1,2:2", "--mode", "ansatz", "--depth", "2",
        "--samples", "100", "--seed", "4294967296",
    ],
    "mnist": _MNIST + ["--L-list", "1,2", "--D-list", "1,2", "--runs", "1", "--epochs", "2"],
    "mnist_sgd_json": _MNIST + [
        "--L-list", "2,4", "--D-list", "1", "--runs", "2", "--epochs", "1",
        "--optimizer", "sgd", "--format", "json",
    ],
    "grad_check": ["grad-check", "--probes", "30", "--seed", "42"],
    "grad_check_negative_control": [
        "grad-check", "--probes", "8", "--seed", "1", "--shift-scale", "1.1",
    ],
    "grad_check_probes400": ["grad-check", "--probes", "400", "--seed", "42"],
    # 2 * shift overflows to inf: every shifted cost, and so every error, is NaN
    "grad_check_overflow": [
        "grad-check", "--probes", "50", "--seed", "2", "--shift-scale", "1e308",
    ],
}


def write_idx_dir(directory: Path) -> None:
    """Synthetic digits 0-3: 12 train and 6 test images per digit."""
    directory.mkdir()
    for prefix, per_digit, seed in (("train", 12, 1), ("t10k", 6, 2)):
        images, labels = synthetic_split(per_digit, digits=range(4), seed=seed)
        (directory / f"{prefix}-images-idx3-ubyte").write_bytes(pack_images(images))
        (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(pack_labels(labels))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch, capsys):
    argv = COMMANDS[name]
    # a relative --data-dir keeps the temporary path out of the output
    monkeypatch.chdir(tmp_path)
    if argv[0] == "mnist":
        write_idx_dir(tmp_path / "data")
    code = main(argv)
    captured = capsys.readouterr()
    actual = {
        "argv": " ".join(argv),
        "exit": code,
        "stdout": captured.out.splitlines(keepends=True),
        "stderr": captured.err.splitlines(keepends=True),
    }
    path = GOLDEN_DIR / f"{name}.json"
    if REGENERATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=1) + "\n")
    assert actual == json.loads(path.read_text())


@pytest.mark.parametrize("name", [
    "variance_scan", "group_scan_haar", "grad_check", "variance_scan_bad_param_id",
])
def test_cli_process_output_matches_golden(name):
    # what a real process writes up to its exit, frozen heap and all
    proc = subprocess.run(
        [sys.executable, "-m", "lcqnn.cli", *COMMANDS[name]],
        cwd=Path(__file__).parents[1] / "src", capture_output=True, timeout=60,
    )
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert proc.returncode == golden["exit"]
    assert proc.stdout == "".join(golden["stdout"]).encode()
    assert proc.stderr == "".join(golden["stderr"]).encode()
