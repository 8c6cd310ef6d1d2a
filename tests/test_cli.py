"""CLI contract tests: flags, exit codes, emission formats, and headers."""

import gzip
import json
import shlex
import struct
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from lcqnn import GridCell, RunMetrics, __version__, cli, sim
from lcqnn import model as model_module
from lcqnn.cli import main
from lcqnn.mnist import classifier
from lcqnn.reporting import (
    GROUP_COLUMNS,
    SCAN_COLUMNS,
    build_command,
    format_value,
    mnist_columns,
    mnist_summary,
    render_json,
)
from test_mnist import pack_images, pack_labels


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text: str) -> list[str]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[1:]  # drop the column header


def load_schema(name: str) -> dict:
    path = resources.files("lcqnn") / "schemas" / name
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# reporting helpers


def test_format_value_round_trips_floats():
    assert format_value(0.1) == "0.1"
    assert format_value(np.float64(1.0) / 3.0) == repr(1.0 / 3.0)
    assert format_value(7) == "7"
    assert format_value("Z0") == "Z0"


def test_build_command_handles_lists_and_repeats():
    cmd = build_command(
        "variance-scan",
        {"m": 3, "k_list": [3, 5], "param_id": None, "format": "csv"},
    )
    assert cmd == "lcqnn variance-scan --m 3 --k-list 3,5 --format csv"
    cmd = build_command("group-scan", {"dims": ["16:1,16:1", "32:1,32:1"]})
    assert cmd == "lcqnn group-scan --dims 16:1,16:1 --dims 32:1,32:1"
    cmd = build_command("mnist", {"data_dir": "my data", "seed": 4})
    assert cmd == "lcqnn mnist --data-dir 'my data' --seed 4"


def test_mnist_summary_comparisons():
    def cell(L, D, acc):
        return GridCell(classifier(L, D), metrics=[RunMetrics(0, 0, [1.0], acc)])

    cells = [cell(1, 1, 0.3), cell(1, 8, 0.35), cell(4, 1, 0.5), cell(4, 8, 0.7)]
    summary = mnist_summary(cells)
    assert summary["comparisons"]["acc(L=4,D=1) > acc(L=1,D=1)"] is True
    assert summary["comparisons"]["acc(L=4,D=8) > acc(L=1,D=8)"] is True
    assert summary["comparisons"]["acc(L=4,D=8) > acc(L=4,D=1)"] is True
    assert summary["comparisons"]["acc(L=1,D=8) > acc(L=1,D=1)"] is True
    assert len(summary["cells"]) == 4
    assert mnist_columns(2) == ("L", "D", "run", "seed", "epoch_loss_1", "epoch_loss_2", "test_accuracy")


def test_render_json_writes_non_finite_values_as_null():
    # strict JSON has no NaN or Infinity; a parser that rejects them must
    # read every non-finite value, at any depth, as null
    records = [{"variance": float("nan"), "mean": np.float64(0.5), "ratios": [1.0, np.inf]}]
    summary = {"slope": -np.inf, "pairs": ({"theta": np.float64("nan")},)}
    text = render_json("lcqnn x", {"seed": 1}, records, summary)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(text, parse_constant=reject)
    assert payload["records"] == [{"mean": 0.5, "ratios": [1.0, None], "variance": None}]
    assert payload["summary"] == {"pairs": [{"theta": None}], "slope": None}


# ---------------------------------------------------------------------------
# variance-scan


def test_variance_scan_smoke_to_stdout(capsys):
    code, out, err = run_cli(
        capsys, ["variance-scan", "--n-list", "3", "--samples", "2", "--seed", "7"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"# lcqnn {__version__}"
    assert lines[1].startswith("# command: lcqnn variance-scan --m 3 --L 8")
    assert lines[2].startswith("# config: ")
    assert lines[3] == ",".join(SCAN_COLUMNS)
    assert len(data_rows(out)) == 2  # k in {3,5}, one n
    assert "variance-scan: k=3 n=3" in err


def test_variance_scan_out_file_matches_stdout(tmp_path, capsys):
    argv = ["variance-scan", "--n-list", "3", "--samples", "5", "--seed", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    out_path = tmp_path / "scan.csv"
    assert main(argv + ["--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text() == out


def test_variance_scan_out_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        ["variance-scan", "--samples", "2", "--n-list", "2", "--k-list", "1",
         "--L", "1", "--m", "0", "--out", str(tmp_path)],
    )
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err


def test_variance_scan_json_validates(capsys):
    code, out, _ = run_cli(
        capsys,
        ["variance-scan", "--n-list", "3,4", "--k-list", "2", "--samples", "3",
         "--format", "json"],
    )
    assert code == 0
    jsonschema = pytest.importorskip("jsonschema")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("variance_scan.schema.json"))
    assert len(payload["records"]) == 2
    assert payload["records"][0]["observable"] == "Z0"
    assert payload["config"]["seed"] == 42


def test_variance_scan_flag_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["variance-scan", "--k-list", "three"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, ["variance-scan", "--samples", "1"])[0] == 2
    assert run_cli(capsys, ["variance-scan", "--obs", "X0"])[0] == 2
    assert run_cli(capsys, ["variance-scan", "--obs", "Z5", "--n-list", "3"])[0] == 2
    assert run_cli(capsys, ["variance-scan", "--L", "3", "--samples", "2"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["variance-scan", "--n-list", "40", "--k-list", "3", "--samples", "2"],
    ["variance-layers", "--n", "40", "--samples", "2"],
])
def test_register_too_wide_exits_2(capsys, argv):
    # the observable's 2**n diagonal must not be allocated before the check
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: num_qubits=40 exceeds the supported maximum of 24\n"


def test_wide_scan_allocates_only_its_light_cone(capsys):
    # Z0 on 24 qubits reads a 3-qubit light cone, so no 2**24 diagonal
    # (128 MB) of the full-width observable may be built for the scan
    tracemalloc.start()
    try:
        code, _, err = run_cli(
            capsys, ["variance-scan", "--n-list", "24", "--k-list", "3", "--samples", "2"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak < 64 << 20, f"peak {peak / 2**20:.0f} MB"


# ---------------------------------------------------------------------------
# variance-layers


def test_variance_layers_records_and_slope(capsys):
    code, out, err = run_cli(
        capsys,
        ["variance-layers", "--L-list", "1,2", "--n", "3", "--k", "3",
         "--samples", "40", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["L"] for r in payload["records"]] == [1, 2]
    summary = payload["summary"]
    assert summary["L_values"] == [1, 2]
    assert "log2_slope_vs_log2_L" in summary
    assert "slope" in err


def test_variance_layers_probe_outside_cone_has_no_slope(capsys):
    # Z3 sits in group 1 and the default probe in group 0: every gradient
    # is exactly zero, so the rows print and the slope is null
    argv = ["variance-layers", "--m", "2", "--n", "4", "--k", "2", "--depth", "2",
            "--L-list", "1,2,4", "--samples", "40", "--seed", "3", "--obs", "Z3"]
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    assert "variance-layers: slope n/a" in err
    payload = json.loads(out)
    assert [r["variance"] for r in payload["records"]] == [0.0, 0.0, 0.0]
    assert payload["summary"]["log2_slope_vs_log2_L"] is None
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(payload, load_schema("variance_scan.schema.json"))
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert len(data_rows(out)) == 3


def _scan_rows(capsys, argv) -> list[str]:
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    return data_rows(out)


@pytest.mark.parametrize("probe", [[], ["--param-id", "88"]])
def test_variance_scan_rows_equal_each_point_scanned_alone(capsys, probe):
    # a scan's points share each sample block's draws, each reading its own
    # prefix of them; every row is still bit for bit that point's own scan.
    # 600 samples are three blocks, the last one short. Parameter 88 is
    # branch 1's slot 27 at stride 54 (n=6) and slot 18 at stride 63 (n=7):
    # inside Z0's light cone at k=6 and at k=3, n=7, outside it elsewhere
    base = ["variance-scan", "--samples", "600", *probe]
    rows = _scan_rows(capsys, base + ["--k-list", "1,3,6", "--n-list", "6,7"])
    alone = [
        _scan_rows(capsys, base + ["--k-list", str(k), "--n-list", str(n)])[0]
        for k in (1, 3, 6) for n in (6, 7)
    ]
    assert rows == alone
    if probe:
        variance = SCAN_COLUMNS.index("variance")
        zero = [row.split(",")[variance] == "0.0" for row in rows]
        assert zero == [True, True, True, False, False, False]


@pytest.mark.parametrize("flags", [["--L-list", "1,2,4,8"],
                                   ["--L-list", "2,4,8", "--param-id", "0"]])
def test_variance_layers_rows_equal_each_branch_count_scanned_alone(capsys, flags):
    # variance-layers runs its branch counts in lockstep, with the default
    # branch probe (a different flat id at each L) or a tree probe; its row
    # at L is variance-scan's lone point at L, n=6, k=5
    rows = _scan_rows(capsys, ["variance-layers", "--samples", "700", *flags])
    alone = [
        _scan_rows(capsys, ["variance-scan", "--L", L, "--k-list", "5", "--n-list", "6",
                            "--samples", "700", *flags[2:]])[0]
        for L in flags[1].split(",")
    ]
    assert rows == alone


def test_variance_layers_bad_branch_count(capsys):
    # every branch count is checked, by make_model, before the first point runs
    not_power = "branch_count must be a power of two, got 3"
    two_values = "--L-list needs two distinct values for the slope fit"
    for flags, message in (
        (["--L-list", "1,3"], not_power),
        (["--L-list", "4"], two_values),
        (["--L-list", "2,2"], two_values),
        (["--m", "2", "--L-list", "1,3,8"], not_power),
        (["--m", "2", "--L-list", "1,8"], "branch_count 8 does not fit 2 control qubit(s)"),
        (["--m", "2", "--L-list", "1,8,3"], "branch_count 8 does not fit 2 control qubit(s)"),
        (["--m", "-1", "--L-list", "1,2"], "control register size must be non-negative"),
    ):
        code, out, err = run_cli(capsys, ["variance-layers", *flags, "--samples", "2"])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("flags, trees", [
    (["--L-list", "1,2", "--param-id", "0"], 0),
    (["--L-list", "2,4", "--param-id", "1"], 1),
    (["--L-list", "4,2,8", "--param-id", "1"], 1),
    (["--L-list", "2,4", "--param-id", "-1"], 1),
])
def test_variance_layers_param_id_must_name_one_tree_angle(capsys, flags, trees):
    # the flat layout puts the L - 1 tree angles first: an id below
    # min(L) - 1 is the same tree angle at every L, any other id names a
    # different parameter at each L, so the scan exits before its progress line
    code, out, err = run_cli(capsys, ["variance-layers", "--n", "3", "--k", "3", *flags,
                                      "--samples", "2"])
    assert (code, out) == (2, "")
    assert err == (f"error: --param-id must name a tree angle at every L, below "
                   f"min(--L-list) - 1 = {trees}, got {flags[-1]}\n")


# ---------------------------------------------------------------------------
# group-scan


def test_group_scan_csv_rows_and_ratio_report(capsys):
    code, out, err = run_cli(
        capsys,
        ["group-scan", "--dims", "4:1,4:1", "--dims", "8:1,8:1",
         "--samples", "20", "--seed", "3"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == ",".join(GROUP_COLUMNS)
    rows = data_rows(out)
    assert len(rows) == 4  # theta + alpha per spectrum
    assert rows[0].startswith("4:1;4:1,haar,")
    assert rows[2].startswith("8:1;8:1,haar,")
    assert "theta-variance ratio" in err
    assert "--dims 4:1,4:1 --dims 8:1,8:1" in lines[1]


def test_group_scan_su2_selection(capsys):
    code, out, _ = run_cli(
        capsys,
        ["group-scan", "--su2-N", "6", "--select-j", "0,1", "--mode", "ansatz",
         "--depth", "2", "--samples", "4", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["records"][0]["dims"] == "7:1;5:5"
    assert payload["records"][0]["d_max"] == 25
    assert {r["probe"] for r in payload["records"]} == {"theta", "alpha"}
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(payload, load_schema("group_scan.schema.json"))


def test_group_scan_single_block_has_no_alpha_row(capsys):
    code, out, _ = run_cli(
        capsys, ["group-scan", "--dims", "4:1", "--samples", "8"]
    )
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 1
    assert ",theta," in rows[0]


def test_group_scan_zero_variance_ratio_is_null(capsys):
    # a dimension-1 block has exactly zero gradient variance
    code, out, err = run_cli(
        capsys,
        ["group-scan", "--dims", "1:1,1:1", "--dims", "2:1,2:1", "--format", "json"],
    )
    assert code == 0
    assert "Traceback" not in err
    assert "theta-variance ratio n/a, alpha ratio n/a" in err
    payload = json.loads(out)
    assert payload["summary"]["ratios"] == [{"pair": [0, 1], "theta": None, "alpha": None}]
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(payload, load_schema("group_scan.schema.json"))


def _loads_numpy_random(argv) -> bool:
    """Whether a whole CLI run of ``argv``, in a fresh interpreter, leaves
    ``numpy.random`` in ``sys.modules``; the run must succeed, and its
    stderr is the failure message if it does not."""
    code = (
        "import contextlib, io, sys\n"
        "from lcqnn.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=Path(__file__).resolve().parents[1] / "src", capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    return loaded == "True"


@pytest.mark.parametrize(
    "argv",
    [
        ["variance-scan", "--samples", "8"],
        ["group-scan", "--mode", "ansatz", "--dims", "3:1,5:1", "--depth", "2",
         "--samples", "8"],
        ["grad-check", "--probes", "20"],
        ["mnist", "--data-dir", "{data}", "--L-list", "1", "--D-list", "1", "--runs", "1",
         "--epochs", "2"],
        ["variance-layers", "--samples", "8"],
    ],
)
def test_uniform_scans_leave_numpy_random_unloaded(argv, tmp_path):
    # every uniform angle, integer and shuffle is a jump-ahead PCG64 draw
    # (sim.pcg64_random, sim.Pcg64Stream), so a run that draws no normals
    # never loads numpy.random
    if argv[0] == "mnist":
        write_synthetic_idx(tmp_path)
    assert not _loads_numpy_random([arg.format(data=tmp_path) for arg in argv])


def test_haar_group_scan_loads_numpy_random():
    # the control: Haar blocks draw their normals from numpy Generators
    assert _loads_numpy_random(
        ["group-scan", "--mode", "haar", "--dims", "3:1,5:1", "--samples", "8"]
    )


def test_haar_group_scan_builds_generators_for_haar_blocks_only(capsys, monkeypatch):
    # a Generator per Haar block stream, for its normals, and none for the
    # tree and probe angles: 64 samples x 2 blocks, which every spectrum of
    # the run shares, so a second spectrum on the same block indexes adds none
    make = sim._pcg64_generator()
    built = []

    def counting(words):
        built.append(words)
        return make(words)

    monkeypatch.setattr(sim, "_pcg64_generator", lambda: counting)
    for dims in (["16:1,16:1"], ["16:1,16:1", "32:1,32:1"]):
        built.clear()
        argv = ["group-scan", "--mode", "haar", "--samples", "64"]
        code, _, _ = run_cli(capsys, argv + [arg for d in dims for arg in ("--dims", d)])
        assert code == 0
        assert len(built) == 128, dims


def test_group_scan_usage_errors(capsys):
    assert run_cli(capsys, ["group-scan", "--samples", "4"])[0] == 2
    assert (
        run_cli(
            capsys,
            ["group-scan", "--dims", "4:1", "--su2-N", "4", "--samples", "4"],
        )[0]
        == 2
    )
    assert run_cli(capsys, ["group-scan", "--select-j", "0", "--samples", "4"])[0] == 2
    # haar mode caps the dense block dimension
    assert (
        run_cli(capsys, ["group-scan", "--dims", "512:1", "--samples", "4"])[0] == 2
    )
    with pytest.raises(SystemExit) as exc:
        main(["group-scan", "--dims", "16,1"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# mnist


def write_synthetic_idx(directory, per_digit_train=6, per_digit_test=3, seed=0):
    rng = np.random.default_rng(seed)

    def split(per_digit):
        images, labels = [], []
        for digit in range(4):
            for _ in range(per_digit):
                images.append(rng.integers(1, 256, size=(28, 28), dtype=np.uint8))
                labels.append(digit)
        return np.stack(images), np.asarray(labels, dtype=np.uint8)

    train_images, train_labels = split(per_digit_train)
    test_images, test_labels = split(per_digit_test)
    (directory / "train-images-idx3-ubyte").write_bytes(pack_images(train_images))
    (directory / "train-labels-idx1-ubyte").write_bytes(pack_labels(train_labels))
    (directory / "t10k-images-idx3-ubyte.gz").write_bytes(
        gzip.compress(pack_images(test_images))
    )
    (directory / "t10k-labels-idx1-ubyte.gz").write_bytes(
        gzip.compress(pack_labels(test_labels))
    )


def test_mnist_missing_data_prints_fetch_instructions(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["mnist", "--data-dir", str(tmp_path)])
    assert code == 2
    assert "train-images-idx3-ubyte" in err
    assert "https://" in err
    assert str(tmp_path) in err


def test_mnist_env_var_sets_data_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LCQNN_DATA_DIR", str(tmp_path / "nowhere"))
    code, _, err = run_cli(capsys, ["mnist"])
    assert code == 2
    assert str(tmp_path / "nowhere") in err


def test_mnist_malformed_idx_exits_2(tmp_path, capsys):
    for stem in (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    ):
        (tmp_path / stem).write_bytes(struct.pack(">II", 0xDEAD, 1))
    code, _, err = run_cli(capsys, ["mnist", "--data-dir", str(tmp_path)])
    assert code == 2
    assert "magic" in err


def test_mnist_truncated_gzip_exits_2(tmp_path):
    # a separate process, so an escaping exception would print its traceback
    write_synthetic_idx(tmp_path)
    images = tmp_path / "t10k-images-idx3-ubyte.gz"
    images.write_bytes(images.read_bytes()[:-40])
    proc = subprocess.run(
        [sys.executable, "-m", "lcqnn.cli", "mnist", "--data-dir", str(tmp_path),
         "--L-list", "1", "--D-list", "1", "--runs", "1", "--epochs", "1"],
        cwd=Path(__file__).resolve().parents[1] / "src", capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [
        "error: corrupt gzip stream: Compressed file ended before the end-of-stream "
        "marker was reached"
    ]


@pytest.mark.parametrize("lr", ["nan", "inf", "-0.5", "0"])
def test_mnist_bad_learning_rate_exits_2(tmp_path, capsys, lr):
    write_synthetic_idx(tmp_path)
    code, out, err = run_cli(
        capsys,
        ["mnist", "--data-dir", str(tmp_path), "--L-list", "1", "--D-list", "1",
         "--runs", "1", "--epochs", "1", "--train-limit", "8", "--test-limit", "4",
         "--lr", lr],
    )
    assert code == 2
    assert out == ""
    assert err == "error: --lr must be finite and > 0\n"  # before any loading


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--L-list", "1,3"], "branch_count must be a power of two, got 3"),
        (["--L-list", "1,8"], "branch_count 8 does not fit 2 control qubit(s)"),
        (["--L-list", "1", "--D-list", "1,-1"], "depth must be non-negative"),
    ],
)
def test_mnist_bad_grid_cell_fails_before_training(tmp_path, capsys, grid, message):
    write_synthetic_idx(tmp_path)
    argv = ["mnist", "--data-dir", str(tmp_path), "--D-list", "1", "--runs", "1",
            "--epochs", "1", "--train-limit", "8", "--test-limit", "4"]
    code, out, err = run_cli(capsys, argv + grid)
    assert code == 2
    assert out == ""
    assert "training" not in err  # no cell trained before the bad one was seen
    assert "mnist:" not in err  # nor was the data loaded
    assert err.endswith(f"error: {message}\n")


def test_mnist_bad_grid_fails_before_looking_for_data(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["mnist", "--data-dir", str(tmp_path), "--L-list", "3"])
    assert (code, out, err) == (2, "", "error: branch_count must be a power of two, got 3\n")


def test_mnist_idx_without_digits_0_to_3_exits_2(tmp_path, capsys):
    write_synthetic_idx(tmp_path)
    (tmp_path / "t10k-labels-idx1-ubyte.gz").write_bytes(
        gzip.compress(pack_labels(np.full(12, 7, dtype=np.uint8)))
    )
    code, out, err = run_cli(
        capsys,
        ["mnist", "--data-dir", str(tmp_path), "--L-list", "1", "--D-list", "1",
         "--runs", "1", "--epochs", "1"],
    )
    assert code == 2
    assert out == ""
    assert err.endswith("error: no usable examples after filtering to digits 0-3\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["variance-scan", "--n-list", "3,25", "--k-list", "3"],
         "num_qubits=25 exceeds the supported maximum of 24"),
        (["variance-scan", "--k-list", "3,0", "--n-list", "3"], "locality must be >= 1, got 0"),
        (["group-scan", "--dims", "4:1,4:1", "--dims", "300:1"],
         "haar mode draws dense matrices only up to dimension 256"),
        (["group-scan", "--mode", "ansatz", "--depth", "2", "--dims", "4:1", "--dims", "5000:1"],
         "block dimension 5000 exceeds the supported 4096"),
        # the default probe, branch 0's first rotation, is resolved with the grid
        (["variance-scan", "--depth", "0"], "model has no branch angles to probe"),
        (["variance-scan", "--param-id", "9999"], "parameter id 9999 out of range 0..222"),
        # the first point, n=8, has a parameter 300; the second, n=3, does not
        (["variance-scan", "--k-list", "3", "--n-list", "8,3", "--param-id", "300"],
         "parameter id 300 out of range 0..222"),
        (["variance-scan", "--obs", "Z5", "--n-list", "3"],
         "observable qubit 5 out of range for 3 qubit(s)"),
        (["variance-layers", "--L-list", "1,3"], "branch_count must be a power of two, got 3"),
        (["variance-layers", "--m", "2", "--L-list", "1,8"],
         "branch_count 8 does not fit 2 control qubit(s)"),
        (["variance-layers", "--k", "0", "--L-list", "1,2"], "locality must be >= 1, got 0"),
        (["variance-layers", "--depth", "0"], "model has no branch angles to probe"),
    ],
)
def test_scan_bad_grid_point_fails_before_sampling(capsys, argv, message):
    code, out, err = run_cli(capsys, argv + ["--samples", "4"])
    assert code == 2
    assert out == ""
    # no progress line: no point sampled before the bad one was seen
    assert err == f"error: {message}\n"


def test_mnist_header_replays_data_dir_with_space(tmp_path, capsys):
    data_dir = tmp_path / "my data"
    data_dir.mkdir()
    write_synthetic_idx(data_dir)
    argv = ["mnist", "--data-dir", str(data_dir), "--L-list", "1", "--D-list", "1",
            "--runs", "1", "--epochs", "1", "--batch", "8",
            "--train-limit", "8", "--test-limit", "4"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    command_line = next(ln for ln in out.splitlines() if ln.startswith("# command: "))
    replay_argv = shlex.split(command_line.removeprefix("# command: "))
    assert replay_argv[0] == "lcqnn"
    code, replay, _ = run_cli(capsys, replay_argv[1:])
    assert code == 0
    assert replay == out


def test_mnist_smoke_grid(tmp_path, capsys):
    write_synthetic_idx(tmp_path)
    out_path = tmp_path / "grid.csv"
    code, _, err = run_cli(
        capsys,
        ["mnist", "--data-dir", str(tmp_path), "--L-list", "1", "--D-list", "1",
         "--runs", "1", "--epochs", "1", "--batch", "8",
         "--train-limit", "16", "--test-limit", "8", "--out", str(out_path)],
    )
    assert code == 0
    text = out_path.read_text()
    lines = text.splitlines()
    assert lines[3] == "L,D,run,seed,epoch_loss_1,test_accuracy"
    rows = data_rows(text)
    assert len(rows) == 1
    assert rows[0].startswith("1,1,0,42,")
    assert "accuracy" in err


def test_mnist_json_validates_and_reruns_identically(tmp_path, capsys):
    write_synthetic_idx(tmp_path)
    argv = [
        "mnist", "--data-dir", str(tmp_path), "--L-list", "1,2", "--D-list", "1",
        "--runs", "2", "--epochs", "1", "--batch", "8",
        "--train-limit", "8", "--test-limit", "4", "--format", "json",
    ]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    code, second, _ = run_cli(capsys, argv)
    assert code == 0
    assert first == second
    payload = json.loads(first)
    assert len(payload["records"]) == 4  # 2 cells x 2 runs
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(payload, load_schema("mnist.schema.json"))
    assert len(payload["summary"]["cells"]) == 2
    assert payload["summary"]["comparisons"]  # L trend comparison present


# ---------------------------------------------------------------------------
# grad-check


def test_grad_check_passes(capsys):
    code, out, _ = run_cli(capsys, ["grad-check", "--probes", "5", "--seed", "3"])
    assert code == 0
    assert "5/5 probes within" in out
    assert "worst:" in out


def test_grad_check_negative_control(capsys):
    code, out, _ = run_cli(
        capsys,
        ["grad-check", "--probes", "5", "--seed", "3", "--shift-scale", "1.25"],
    )
    assert code == 1
    assert "worst offender" in out


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
def test_grad_check_non_finite_shift_exits_2(capsys, scale):
    code, out, err = run_cli(
        capsys, ["grad-check", "--probes", "3", f"--shift-scale={scale}"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: --shift-scale must be finite\n"


def test_grad_check_nan_error_counts_as_failure(capsys, monkeypatch):
    def nan_grads(parts, obs, **kwargs):
        return [(np.full(len(ids), np.nan), np.full(len(ids), np.nan)) for _, _, ids in parts]

    monkeypatch.setattr("lcqnn.cli.shift_and_fd_grads", nan_grads)
    code, out, _ = run_cli(capsys, ["grad-check", "--probes", "3"])
    assert code == 1
    assert out.startswith("grad-check: 3/3 probes exceeded")
    assert "worst offender: probe 0 (" in out


def test_grad_check_overflowing_shift_names_first_nan_probe(capsys):
    # 2 * shift overflows to inf, so every shifted cost and every error is NaN
    with np.errstate(all="ignore"):
        code, out, _ = run_cli(capsys, ["grad-check", "--probes", "3", "--shift-scale", "1e308"])
    assert code == 1
    first, worst = out.splitlines()
    assert first == "grad-check: 3/3 probes exceeded 1e-05 relative error"
    assert worst.startswith("worst offender: probe 0 (")
    assert worst.endswith("rel=nan")


def test_grad_check_overflowing_shift_keeps_stderr_clean():
    # a separate process with NumPy's default error handling: the overflow
    # shows only as NaN probes in the report, with no RuntimeWarning
    proc = subprocess.run(
        [sys.executable, "-m", "lcqnn.cli", "grad-check", "--probes", "3",
         "--shift-scale", "1e308"],
        cwd=Path(__file__).resolve().parents[1] / "src", capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout.startswith("grad-check: 3/3 probes exceeded")
    assert proc.stdout.rstrip().endswith("rel=nan")
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "42"],
        ["--seed", "7"],
        ["--seed", "5", "--shift-scale", "1.3"],
    ],
)
def test_grad_check_report_is_identical_at_any_probe_window(
    argv, capsys, monkeypatch, branch_passes
):
    # probes are drawn in order and grouped by branch circuit within a
    # window; rows never mix, so the window size changes neither the report
    # nor the exit
    argv = ["grad-check", "--probes", "200", *argv]
    code, reference, _ = run_cli(capsys, argv)
    circuits = list(branch_passes)
    assert len(circuits) < 200  # several probes share a branch circuit and its pass
    assert len(set(circuits)) == len(circuits)  # one pass per distinct branch circuit
    for window in (7, 1):
        monkeypatch.setattr(cli, "GRAD_CHECK_WINDOW", window)
        branch_passes.clear()
        assert run_cli(capsys, argv) == (code, reference, "")
    assert len(branch_passes) == 200  # one pass per probe at a window of 1
    assert set(branch_passes) == set(circuits)


def test_grad_check_makes_one_branch_pass_per_branch_circuit(
    capsys, monkeypatch, branch_passes
):
    # the 400 probes of seed 42 draw 259 architectures (m, n, L, k, D), 157
    # live registers (n, k, D, L) and only 62 branch circuits (n, k, D): one
    # shift_and_fd_grads call and one branch kernel pass each, with one part
    # per live register, since architectures that differ only in m run the
    # same live rows, and the coefficient tree, in closed form, makes no
    # kernel call of its own. Only the live control rows run (3408; 6036
    # with the idle rows), and each live register's costs are read out in
    # one expectation call (259 with one per architecture, 1600 per row)
    kernel_rows, readouts, rule_parts = [], [], []
    apply_gates, expectation = model_module.apply_gates, model_module.expectation
    shift_and_fd_grads = cli.shift_and_fd_grads

    def counting_rules(parts, *args, **kwargs):
        rule_parts.append(len(parts))
        return shift_and_fd_grads(parts, *args, **kwargs)

    def counting_kernel(tensor, *args, **kwargs):
        kernel_rows.append(len(tensor))
        return apply_gates(tensor, *args, **kwargs)

    def counting_readout(*args, **kwargs):
        readouts.append(None)
        return expectation(*args, **kwargs)

    monkeypatch.setattr(model_module, "apply_gates", counting_kernel)
    monkeypatch.setattr(model_module, "expectation", counting_readout)
    monkeypatch.setattr(cli, "shift_and_fd_grads", counting_rules)
    code, out, _ = run_cli(capsys, ["grad-check", "--probes", "400", "--seed", "42"])
    assert code == 0
    assert out.startswith("grad-check: 400/400 probes within")
    assert len(rule_parts) == 62
    assert sum(rule_parts) == 157
    assert len(branch_passes) == len(set(branch_passes)) == 62
    assert len(kernel_rows) == 62
    assert sum(kernel_rows) == 3408
    assert len(readouts) == 157


def test_grad_check_builds_each_input_state_once(capsys, monkeypatch):
    # the 157 live registers of the 400 probes of seed 42 (259
    # architectures) each build their |0...0> input once, in the tree stage
    # of their branch pass; checking the observable builds none
    built = []
    init_zero = model_module.init_zero

    def counting_init_zero(num_qubits):
        built.append(num_qubits)
        return init_zero(num_qubits)

    monkeypatch.setattr(model_module, "init_zero", counting_init_zero)
    code, out, _ = run_cli(capsys, ["grad-check", "--probes", "400", "--seed", "42"])
    assert code == 0
    assert out.startswith("grad-check: 400/400 probes within")
    assert len(built) == 157


def test_grad_check_zero_probes(capsys):
    assert run_cli(capsys, ["grad-check", "--probes", "0"])[0] == 2


def test_grad_check_negative_seed_exits_2(capsys):
    code, out, err = run_cli(capsys, ["grad-check", "--probes", "3", "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be >= 0\n"


# ---------------------------------------------------------------------------
# cross-cutting invariants


def test_thread_count_does_not_change_output(tmp_path, capsys):
    base = ["variance-scan", "--n-list", "3", "--k-list", "2", "--samples", "50",
            "--seed", "11"]
    one = tmp_path / "t1.csv"
    four = tmp_path / "t4.csv"
    assert main(base + ["--threads", "1", "--out", str(one)]) == 0
    assert main(base + ["--threads", "4", "--out", str(four)]) == 0
    capsys.readouterr()
    # identical data rows; headers differ only in the --threads flag they echo
    assert data_rows(one.read_text()) == data_rows(four.read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ["variance-scan", "--m", "2", "--L", "4", "--depth", "2", "--k-list", "2,3",
         "--n-list", "3,5", "--samples", "300", "--seed", "7"],
        # a tree-angle probe
        ["variance-scan", "--m", "2", "--L", "4", "--depth", "1", "--k-list", "3",
         "--n-list", "4", "--param-id", "1", "--samples", "70", "--seed", "7"],
        ["group-scan", "--dims", "3:1,5:1,2:2", "--mode", "ansatz", "--depth", "2",
         "--samples", "130", "--seed", "9"],
    ],
)
def test_scan_rows_are_bit_identical_under_any_amplitude_budget(argv, monkeypatch, capsys):
    # rows never mix, so the budget that sizes kernel calls changes no row:
    # 1 amplitude leaves one row per kernel run (the floor of sim._row_runs),
    # 2**6 splits every 256-sample block, 2**16 splits none
    code, reference, _ = run_cli(capsys, argv)
    assert code == 0
    for budget in (1, 1 << 6, 1 << 16):
        monkeypatch.setattr(sim, "BATCH_AMPLITUDES", budget)
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == reference


def test_header_command_reproduces_output(tmp_path, capsys):
    argv = ["variance-layers", "--L-list", "1,2", "--n", "3", "--k", "2",
            "--samples", "25", "--seed", "9"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    command_line = next(
        ln for ln in out.splitlines() if ln.startswith("# command: ")
    )
    replay_argv = shlex.split(command_line.removeprefix("# command: "))[1:]
    code, replay, _ = run_cli(capsys, replay_argv)
    assert code == 0
    assert replay == out
