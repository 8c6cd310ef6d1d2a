"""Property test of the CLI contract: small random argv for every subcommand.

Each drawn command must end in exit code 0, 1 or 2 without a traceback. On
success its CSV must parse, its JSON must load strictly and validate against
the subcommand's schema, and replaying the command its output records must
reproduce stdout byte for byte. Draws are derandomized, so the suite runs the
same commands every time.
"""

import contextlib
import csv
import io
import json
import shlex
from importlib import resources

import pytest

pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")

from hypothesis import HealthCheck, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lcqnn.cli import main  # noqa: E402
from test_mnist import pack_images, pack_labels, synthetic_split  # noqa: E402

CONTRACT = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEMAS = {
    "variance-scan": "variance_scan.schema.json",
    "variance-layers": "variance_scan.schema.json",
    "group-scan": "group_scan.schema.json",
    "mnist": "mnist.schema.json",
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def recorded_command(argv, out: str) -> str:
    """Parse the output strictly and return the command it records."""
    if "json" in argv:
        payload = json.loads(out, parse_constant=_reject_constant)
        schema = (resources.files("lcqnn") / "schemas" / SCHEMAS[argv[0]]).read_text()
        jsonschema.validate(payload, json.loads(schema))
        return payload["command"]
    lines = out.splitlines()
    assert lines[1].startswith("# command: ")
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    assert len(rows) >= 2
    assert all(len(row) == len(rows[0]) for row in rows)
    return lines[1].removeprefix("# command: ")


def check_contract(argv) -> None:
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    event(f"exit {code}")
    if code != 0 or argv[0] == "grad-check":
        return
    command = recorded_command(argv, out)
    replay = shlex.split(command)
    assert replay[0] == "lcqnn"
    assert run(replay[1:])[:2] == (0, out)


# ---------------------------------------------------------------------------
# argv strategies
#
# A flag is (name, valid values, wide values, optional). Most draws keep every
# flag valid, so they run to the end; some of those write to ``--out .``, a
# directory, which must exit 2. The rest roam the wide ranges, which hold
# invalid values too.


def flag(name, values):
    return values.map(lambda v: [name, str(v)])


def maybe(name, values):
    return st.one_of(st.just([]), flag(name, values))


def int_list(values, max_size, min_size=1, unique=False):
    return st.lists(values, min_size=min_size, max_size=max_size, unique=unique).map(
        lambda xs: ",".join(map(str, xs))
    )


def _concat(parts):
    return [token for part in parts for token in part]


def argv_of(command, flags, wide: bool):
    """Draw every flag from its valid or its wide values. A flag without a
    name draws whole argv fragments."""
    parts = []
    for name, valid, wide_values, optional in flags:
        values = wide_values if wide else valid
        if name is None:
            parts.append(values)
        else:
            parts.append((maybe if optional else flag)(name, values))
    return st.tuples(*parts).map(lambda ps: [command] + _concat(ps))


def command_argv(command, *flags, has_out=True):
    valid, wide = argv_of(command, flags, False), argv_of(command, flags, True)
    if not has_out:
        return st.one_of(valid, valid, wide)
    return st.one_of(valid, valid, valid.map(lambda argv: argv + ["--out", "."]), wide)


SAMPLING = (
    ("--samples", st.integers(2, 64), st.integers(0, 64), False),
    ("--threads", st.integers(1, 2), st.integers(0, 2), True),
    ("--seed", st.integers(0, 2**40), st.integers(-3, 2**40), True),
    ("--format", st.sampled_from(["csv", "json"]), st.sampled_from(["csv", "json"]), True),
)
OBS = ("--obs", st.just("Z0"), st.sampled_from(["Z0", "Z1", "Z3", "X0"]), True)
WIDE_PARAM_ID = st.integers(-1, 40)
CONTROLS = ("--m", st.integers(2, 3), st.integers(0, 3), False)
DEPTH = ("--depth", st.integers(1, 2), st.integers(0, 2), False)
BRANCHES = st.sampled_from([1, 2, 4])

variance_scan_argv = command_argv(
    "variance-scan",
    CONTROLS,
    ("--L", BRANCHES, st.sampled_from([0, 1, 2, 3, 4, 8]), False),
    ("--k-list", int_list(st.integers(1, 4), 2), int_list(st.integers(0, 4), 2), False),
    ("--n-list", int_list(st.integers(1, 4), 2), int_list(st.integers(0, 4), 2), False),
    DEPTH,
    OBS,
    ("--param-id", st.integers(0, 2), WIDE_PARAM_ID, True),
    *SAMPLING,
)


def _layers_probe(branch_counts):
    """--L-list, and a --param-id only where it is a tree angle at every L:
    any other id names a different parameter at each L and exits 2."""
    trees = min(branch_counts) - 1
    probe = maybe("--param-id", st.integers(0, trees - 1)) if trees else st.just([])
    return probe.map(lambda ids: ["--L-list", ",".join(map(str, branch_counts)), *ids])


variance_layers_argv = command_argv(
    "variance-layers",
    CONTROLS,
    ("--n", st.integers(1, 4), st.integers(0, 4), False),
    ("--k", st.integers(1, 4), st.integers(0, 4), False),
    DEPTH,
    (None,
     st.lists(BRANCHES, min_size=2, max_size=3, unique=True).flatmap(_layers_probe),
     st.tuples(flag("--L-list", int_list(st.integers(0, 8), 3)),
               maybe("--param-id", WIDE_PARAM_ID)).map(_concat),
     False),
    OBS,
    *SAMPLING,
)


def _dims(d, mult, min_spectra):
    spectrum = st.lists(st.tuples(d, mult), min_size=1, max_size=3).map(
        lambda blocks: ",".join(f"{a}:{b}" for a, b in blocks)
    )
    return st.lists(spectrum, min_size=min_spectra, max_size=3).map(
        lambda specs: _concat(["--dims", spec] for spec in specs)
    )


#: --dims, or --su2-N with an optional --select-j; the wide draws may mix
#: them or give neither
SPECTRA = (
    None,
    st.one_of(
        _dims(st.integers(1, 6), st.integers(1, 2), 1),
        st.tuples(
            flag("--su2-N", st.integers(1, 5)),
            maybe("--select-j", int_list(st.integers(0, 1), 2)),
        ).map(_concat),
    ),
    st.tuples(
        _dims(st.integers(0, 6), st.integers(0, 2), 0),
        maybe("--su2-N", st.integers(0, 6)),
        maybe("--select-j", int_list(st.integers(-1, 4), 2)),
    ).map(_concat),
    False,
)

group_scan_argv = command_argv(
    "group-scan",
    SPECTRA,
    ("--mode", st.sampled_from(["haar", "ansatz"]), st.sampled_from(["haar", "ansatz"]), True),
    ("--depth", st.integers(1, 3), st.integers(0, 3), False),
    *SAMPLING,
)

grad_check_argv = command_argv(
    "grad-check",
    ("--probes", st.integers(1, 4), st.integers(0, 4), False),
    ("--seed", st.integers(0, 2**64), st.integers(-3, 3), True),
    ("--shift-scale", st.sampled_from([1.0, 1.25]), st.sampled_from([0.5, 1.0]), True),
    has_out=False,
)


def mnist_argv(data_dir):
    return command_argv(
        "mnist",
        ("--data-dir", st.just(data_dir), st.sampled_from([data_dir, data_dir + "-missing"]),
         False),
        ("--L-list", int_list(BRANCHES, 2), int_list(st.integers(0, 4), 2), False),
        ("--D-list", int_list(st.integers(1, 2), 2), int_list(st.integers(0, 2), 2), False),
        ("--runs", st.integers(1, 2), st.integers(0, 2), False),
        ("--epochs", st.integers(1, 2), st.integers(0, 2), False),
        ("--batch", st.integers(1, 8), st.integers(0, 8), False),
        ("--train-limit", st.integers(4, 8), st.integers(0, 8), False),
        ("--test-limit", st.integers(4, 8), st.integers(0, 8), False),
        ("--lr", st.sampled_from([0.008, 0.5]), st.sampled_from([0.008, 0.5]), True),
        ("--optimizer", st.sampled_from(["adam", "sgd"]), st.sampled_from(["adam", "sgd"]),
         True),
        ("--seed", st.integers(0, 2**40), st.integers(-3, 2**40), True),
        ("--format", st.sampled_from(["csv", "json"]), st.sampled_from(["csv", "json"]), True),
    )


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory) -> str:
    # the space makes the replay check cover the header's shell quoting
    directory = tmp_path_factory.mktemp("idx data")
    for prefix, seed in (("train", 1), ("t10k", 2)):
        images, labels = synthetic_split(2, digits=range(5), seed=seed)
        (directory / f"{prefix}-images-idx3-ubyte").write_bytes(pack_images(images))
        (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(pack_labels(labels))
    return str(directory)


# ---------------------------------------------------------------------------
# the contract, per subcommand


@CONTRACT
@given(variance_scan_argv)
def test_variance_scan_contract(argv):
    check_contract(argv)


@CONTRACT
@given(variance_layers_argv)
def test_variance_layers_contract(argv):
    check_contract(argv)


@CONTRACT
@given(group_scan_argv)
def test_group_scan_contract(argv):
    check_contract(argv)


@CONTRACT
@given(grad_check_argv)
def test_grad_check_contract(argv):
    check_contract(argv)


@CONTRACT
@given(data=st.data())
def test_mnist_contract(idx_dir, data):
    check_contract(data.draw(mnist_argv(idx_dir)))
