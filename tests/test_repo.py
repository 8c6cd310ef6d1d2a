"""Checks on the files around the package: the README's example and module
table, the benchmark's trace hooks, the committed BENCH files, the version
each file records, what importing the CLI loads and what its first run
freezes."""

import ast
import importlib.util
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from lcqnn import __version__

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_layout_has_one_row_per_module():
    # a module added to or deleted from src/lcqnn without its Layout row fails
    layout = (ROOT / "README.md").read_text().split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(lcqnn\.\w+)` \|", layout, re.M)
    modules = [f"lcqnn.{path.stem}" for path in (ROOT / "src" / "lcqnn").glob("*.py")
               if path.name != "__init__.py"]
    assert sorted(rows) == sorted(modules + ["lcqnn.schemas"])


def test_benchmark_trace_hooks_install(tmp_path):
    # Tracer.install() wraps every name perfbench/spans.py lists, whatever the
    # command, so one short traced run fails as soon as a wrapped name is gone;
    # each scan also runs its chunks through the benchmark's run_chunked wrapper
    report = tmp_path / "report.json"
    for argv, chunk_span in (
        (["grad-check", "--probes", "2", "--seed", "1"], None),
        (["variance-scan", "--samples", "2", "--n-list", "3", "--k-list", "3"],
         "gradients.estimate_grad_stats.chunk"),
        (["group-scan", "--dims", "4:1,4:1", "--samples", "2"],
         "experiments.group_block_variances.chunk"),
    ):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "op.py"), str(report), "--trace", "--",
             *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        spans = json.loads(report.read_text())["trace"]["spans"]
        assert spans
        if chunk_span is not None:
            assert chunk_span in {name for _, name, *_ in spans}


def test_patch_only_imports_are_wrapped_by_the_benchmark():
    # an import kept only for perfbench/spans.py to wrap (marked noqa: F401)
    # must name a TIMED or COUNTED entry in that same module, so no dead
    # import hides behind the marker and each is deleted with its entry
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = {(module, attr) for module, attr, _ in spans.TIMED + spans.COUNTED}
    marked = set()
    for path in sorted((ROOT / "src" / "lcqnn").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                marked |= {
                    (f"lcqnn.{path.stem}", alias.asname or alias.name)
                    for alias in node.names
                    if "# noqa: F401" in lines[alias.lineno - 1]
                }
    assert marked, "no patch-only import found: drop this check with the last one"
    assert marked <= wrapped, f"not wrapped by perfbench/spans.py: {sorted(marked - wrapped)}"


def _public_definitions(tree):
    """The public functions and classes of a parsed module, and the public
    methods and properties of those classes, as (label, node) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _reads(tree, skip=None):
    """What a parsed module reads, outside the subtree ``skip``: the
    attributes it loads from receivers that are not an ``np.``, ``numpy.``
    or ``args.`` chain, and its string constants other than docstrings and
    bare string statements."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    skipped |= {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    attributes, strings = set(), []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in ("np", "numpy", "args")):
                attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.append(node.value)
    return attributes, strings


def _loads(tree, skip=None) -> set:
    """The names a parsed module's code loads, as a bare name or as an
    attribute, outside the subtree ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        and id(node) not in skipped
    }


def _unread_public_names(sources: dict, readers: list) -> list:
    """The public names of the ``sources`` modules (stem -> text) that are
    read nowhere besides their own definition: neither elsewhere in the
    sources nor in the ``readers`` texts. A function or class counts as read
    where source code loads it (see ``_loads``; a docstring or comment that
    names it does not count), or by its name as a whole word in a reader; a
    method or property only as an attribute read (see ``_reads``) or as its
    qualified ``Class.name`` inside a string."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    reader_reads = [_reads(ast.parse(text)) for text in readers]
    unread = []
    for stem in sources:
        other_loads = set().union(*(_loads(tree) for key, tree in trees.items() if key != stem))
        other_reads = [_reads(tree) for key, tree in trees.items() if key != stem]
        for label, node in _public_definitions(trees[stem]):
            if "." in label:
                qualified = re.compile(rf"\b{re.escape(label)}\b")
                read = any(
                    node.name in attributes or any(map(qualified.search, strings))
                    for attributes, strings in [
                        _reads(trees[stem], skip=node), *other_reads, *reader_reads
                    ]
                )
            else:
                word = re.compile(rf"\b{node.name}\b")
                read = (
                    node.name in _loads(trees[stem], skip=node) | other_loads
                    or any(map(word.search, readers))
                )
            if not read:
                unread.append(f"{stem}.{label}")
    return unread


def test_every_public_name_is_read_outside_the_tests():
    # each public name of src/lcqnn must appear somewhere besides its own
    # definition: elsewhere in the package (the exports in __init__.py do
    # not count), in perfbench/*.py or in a README example. A name that
    # only the tests read is code no production path needs.
    sources = {
        path.stem: path.read_text()
        for path in sorted((ROOT / "src" / "lcqnn").glob("*.py"))
        if path.name != "__init__.py"
    }
    readers = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    readers += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    unread = _unread_public_names(sources, readers)
    assert not unread, f"read only by the tests, or by nobody: {unread}"


def test_public_name_check_flags_methods_matched_only_by_foreign_reads():
    # a method that shares its name with a NumPy function or a CLI flag is
    # not read by np.linalg.norm or args.trace; a real attribute read and a
    # qualified name in a string still count
    module = (
        "class Meter:\n"
        "    def norm(self): ...\n"
        "    def trace(self): ...\n"
        "    def reading(self): ...\n"
        "    def label(self): ...\n"
    )
    reader = (
        '"""Meter.norm and Meter.trace, named in a docstring only."""\n'
        "import numpy as np\n"
        "from meters import Meter\n"
        "def report(args, values):\n"
        "    print(np.linalg.norm(values), args.trace, Meter().reading())\n"
        "WRAPPED = ('meters', 'Meter.label')\n"
    )
    assert _unread_public_names({"meters": module}, [reader]) == [
        "meters.Meter.norm", "meters.Meter.trace"
    ]


def test_public_name_check_counts_only_code_loads_in_the_sources():
    # in the sources a docstring or comment mention is no read, but a call,
    # a bare reference or an attribute load is; a reader still counts by
    # its text, as perfbench names what it wraps in strings
    module = (
        "def probe():\n"
        '    """Unlike probe_block, which nobody calls."""\n'
        "def probe_block(): ...\n"
        "def fold():  # see tally\n"
        "    return probe()\n"
        "def tally(): ...\n"
        "def wrapped(): ...\n"
    )
    other = "import mod\nHANDLERS = [mod.fold]\n"
    reader = "WRAPPED = ('mod', 'wrapped')\n"
    assert _unread_public_names({"mod": module, "other": other}, [reader]) == [
        "mod.probe_block", "mod.tally"
    ]


def _unused_imports(text: str) -> list:
    """The names a module imports and never reads, as ``name (line N)``;
    ``from __future__`` imports and ``# noqa: F401`` lines are exempt."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # the exports of __init__.py are the package's API, and a patch-only
    # import is covered by test_patch_only_imports_are_wrapped_by_the_benchmark
    unused = {
        path.name: found
        for path in sorted((ROOT / "src" / "lcqnn").glob("*.py"))
        if path.name != "__init__.py" and (found := _unused_imports(path.read_text()))
    }
    assert not unused, f"imported but never used: {unused}"


def test_unused_import_check_flags_a_dead_import():
    module = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from sys import argv, exit\n"
        "from json import dumps  # noqa: F401  (kept for a wrapper)\n"
        "exit(os.path.basename(argv[0]))\n"
    )
    assert _unused_imports(module) == ["math (line 2)"]


def test_bench_files_record_parent_machine_claim_and_runs():
    # a performance claim counts only with the commit it is measured against,
    # the machine it ran on, the claim itself and the runs behind it: a
    # workload and a metric that BENCHMARK.json declares, and the pairs won,
    # "k/N" with at least 9 of every 10 of N >= 10 pairs, each side of which
    # is a run of the claimed workload in "runs"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        missing = {"parent_commit", "machine", "claim", "runs"} - bench.keys()
        assert not missing, f"{path.name} lacks {sorted(missing)}"
        claim = bench["claim"]
        assert claim.get("workload") in workloads, f"{path.name}: unknown claim workload"
        assert claim.get("metric") in metrics, f"{path.name}: unknown claim metric"
        assert "pairs_won" in claim, f"{path.name}: claim lacks pairs_won"
        won = re.fullmatch(r"(\d+)/(\d+)", str(claim["pairs_won"]))
        assert won, f"{path.name}: pairs_won {claim['pairs_won']!r} is not k/N"
        k, pairs = map(int, won.groups())
        assert pairs >= 10 and 10 * k >= 9 * pairs, f"{path.name}: won only {k}/{pairs}"
        sides = Counter(
            run["side"] for run in bench["runs"] if run["workload"] == claim["workload"]
        )
        for side in ("parent", "change"):
            assert sides[side] >= pairs, f"{path.name}: {sides[side]} {side} runs, {pairs} pairs"


def test_version_is_one_across_pyproject_package_and_golden_files():
    # a version bump lands whole: the project metadata, the package and every
    # golden report header (text "# lcqnn V", JSON "version") carry one version
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == __version__
    header = re.compile(r'^(?:# lcqnn |  "version": ")(\S+?)"?$')
    versioned = 0
    for path in sorted((ROOT / "tests" / "golden").glob("*.json")):
        lines = json.loads(path.read_text())["stdout"]
        found = {m[1] for m in map(header.match, (line.rstrip("\n") for line in lines)) if m}
        assert found <= {__version__}, f"{path.name} records version {sorted(found)}"
        versioned += bool(found)
    assert versioned, "no golden file records a version"


def _run_python(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports from src/."""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "src", capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads with the first Generator a run builds, never at
    # import, so importing the CLI (the benchmark's set-up time) pays nothing
    # for it; nor does the import freeze a library user's collector
    code = "import gc, sys, lcqnn.cli; print('numpy.random' in sys.modules, gc.get_freeze_count())"
    assert _run_python(code).split() == ["False", "0"]


def test_cli_main_freezes_the_heap_once_per_process():
    # main moves the heap it finds into the permanent generation, so that
    # interpreter exit does not collect it; a later call in the same process
    # (pytest makes hundreds) freezes nothing more
    code = (
        "import contextlib, gc, io, lcqnn.cli\n"
        "counts = []\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert lcqnn.cli.main(['grad-check', '--probes', '2']) == 0\n"
        "    counts.append(gc.get_freeze_count())\n"
        "print(*counts)\n"
    )
    first, second = map(int, _run_python(code).split())
    assert first > 0
    assert second == first


#: top-level names of what a run may load beyond ``import numpy``: the
#: package and the standard-library modules it imports
RUN_MODULES = {"lcqnn", "__future__", "_json", "_locale", "argparse", "copy", "dataclasses",
               "gc", "gettext", "gzip", "json", "locale", "shlex"}


def _modules_beyond_numpy(statement: str) -> set:
    """The modules a fresh interpreter loads in ``statement`` after ``import numpy``."""
    code = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        f"    {statement}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    return set(_run_python(code).split())


@pytest.mark.parametrize(
    "argv",
    [
        ["variance-scan", "--samples", "8"],
        ["variance-layers", "--samples", "8", "--format", "json"],
        ["group-scan", "--mode", "haar", "--dims", "3:1,5:1", "--dims", "8:1", "--samples", "8"],
        ["group-scan", "--mode", "ansatz", "--dims", "3:1,5:1", "--depth", "2", "--samples", "8"],
        ["grad-check", "--probes", "20"],
        ["mnist", "--data-dir", "{data}", "--L-list", "1", "--D-list", "1", "--runs", "1",
         "--epochs", "1", "--train-limit", "8", "--test-limit", "4"],
    ],
)
def test_each_subcommand_loads_only_allowed_modules(argv, tmp_path):
    # a module a run loads costs every fresh process its import time, which
    # in-process timings never show (np.unique, for one, loads numpy.ma);
    # numpy.random and what it imports are allowed only where Haar blocks
    # draw normals
    from test_mnist import pack_images, pack_labels, synthetic_split

    for prefix, seed in (("train", 1), ("t10k", 2)):
        images, labels = synthetic_split(2, digits=range(4), seed=seed)
        (tmp_path / f"{prefix}-images-idx3-ubyte").write_bytes(pack_images(images))
        (tmp_path / f"{prefix}-labels-idx1-ubyte").write_bytes(pack_labels(labels))
    argv = [arg.format(data=tmp_path) for arg in argv]
    loaded = _modules_beyond_numpy(f"assert __import__('lcqnn.cli').cli.main({argv!r}) == 0")
    allowed = {m for m in loaded if m.partition(".")[0] in RUN_MODULES}
    if "haar" in argv:
        random = _modules_beyond_numpy("import numpy.random")
        assert not any(m.partition(".")[::2] == ("numpy", "ma") for m in random)
        allowed |= loaded & random
    assert sorted(loaded - allowed) == []


def _exit_finalizers(text: str) -> list:
    """What in a module would run at interpreter exit, as ``what (line N)``:
    a ``__del__`` method, a ``weakref.finalize`` and an ``atexit`` registration."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__del__":
            found.append((node.lineno, "__del__"))
        elif isinstance(node, ast.Attribute) and (
            isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in {("weakref", "finalize"), ("atexit", "register")}
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "atexit"
            or node.module == "weakref" and any(a.name == "finalize" for a in node.names)
        ):
            found.append((node.lineno, f"from {node.module} import"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_no_module_runs_code_at_interpreter_exit():
    # cli.main freezes the heap, and the collector never finalises frozen
    # objects, so nothing in the package may rely on a finaliser at exit
    found = {
        path.name: hits
        for path in sorted((ROOT / "src" / "lcqnn").glob("*.py"))
        if (hits := _exit_finalizers(path.read_text()))
    }
    assert not found, f"finalisers that a frozen heap would skip: {found}"


def test_exit_finalizer_check_flags_each_kind():
    module = (
        "import atexit, weakref\n"
        "from weakref import finalize, ref\n"
        "class Handle:\n"
        "    def __del__(self):\n"
        "        pass\n"
        "weakref.finalize(Handle(), print)\n"
        "atexit.register(print)\n"
        "ref(Handle)\n"
    )
    assert _exit_finalizers(module) == [
        "from weakref import (line 2)",
        "__del__ (line 4)",
        "weakref.finalize (line 6)",
        "atexit.register (line 7)",
    ]
    assert _exit_finalizers("import weakref\nweakref.ref(print)\n") == []


def _reaches_numpy_random(node) -> bool:
    """Whether an AST node reads ``np.random``/``numpy.random`` or imports it."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or (
            module == "numpy" and any(alias.name == "random" for alias in node.names)
        )
    return False


def _numpy_random_uses(tree):
    """The nodes of a parsed module that load or import ``numpy.random``,
    with the top-level function or class each sits in (None at module level).
    Annotations are skipped: under ``from __future__ import annotations``
    they stay strings, and nothing evaluates them."""
    future = any(
        isinstance(node, ast.ImportFrom) and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
        for node in tree.body
    )
    annotations = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.add(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            annotations.add(node.returns)
    skipped = {id(n) for a in annotations for n in ast.walk(a)} if future else set()
    for top in tree.body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if id(node) not in skipped and _reaches_numpy_random(node):
                yield scope, node


def test_only_haar_streams_evaluate_numpy_random():
    # importing numpy.random costs a process about 10-13 ms and 6 MB, and
    # only the Haar normals need it: every other draw is a jump-ahead PCG64
    # one, so only sim.RngStream and sim._pcg64_generator may reach it
    allowed = {("sim", "RngStream"), ("sim", "_pcg64_generator")}
    seen, stray = set(), []
    for path in sorted((ROOT / "src" / "lcqnn").glob("*.py")):
        for scope, node in _numpy_random_uses(ast.parse(path.read_text())):
            if (path.stem, scope) in allowed:
                seen.add((path.stem, scope))
            else:
                stray.append(f"{path.name}:{node.lineno} (in {scope or 'module'})")
    assert not stray, f"numpy.random evaluated outside the Haar streams: {stray}"
    assert seen == allowed, "the check no longer finds the Haar streams' own uses"


def test_a_failing_hypothesis_test_leaves_the_rest_of_the_run_going(tmp_path):
    # Hypothesis reports a failure through a plugin import chain that warns;
    # under the project's warnings-as-errors that warning must not turn into
    # an INTERNALERROR that stops every later test
    pytest.importorskip("hypothesis")
    (tmp_path / "test_sample.py").write_text(
        "import hypothesis\n"
        "from hypothesis import strategies as st\n\n\n"
        "@hypothesis.settings(database=None)\n"
        "@hypothesis.given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
