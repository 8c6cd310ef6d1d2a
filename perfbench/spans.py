"""Spans and counters recorded around lcqnn's module boundaries.

``Tracer.install()`` replaces the public functions that one lcqnn module calls
in another by timing wrappers, in the namespace of the calling module (the
modules import by name, so ``lcqnn.experiments.estimate_grad_stats`` is the
name ``run_variance_point`` actually looks up).  Spans stay in
memory; ``Tracer.dump()`` returns them for writing when the invocation ends.
``summarize()`` turns a dump into per-layer figures.

Nothing here changes what the program computes: every wrapper calls the
original function with the original arguments and returns its result.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict

#: (module, attribute, span name): timed boundary calls
TIMED = (
    ("lcqnn.sim", "RngStream.generator", "sim.rng_stream"),
    ("lcqnn.sim", "RngStream.component_generator", "sim.rng_stream"),
    ("lcqnn.experiments", "haar_unitary", "sim.haar_unitary"),
    ("lcqnn.model", "expectation", "sim.expectation"),
    ("lcqnn.model", "lcqnn_forward", "model.lcqnn_forward"),
    ("lcqnn.gradients", "coeff_probability_gradients", "model.coeff_probability_gradients"),
    ("lcqnn.experiments", "coeff_probability_gradients", "model.coeff_probability_gradients"),
    ("lcqnn.experiments", "estimate_grad_stats", "gradients.estimate_grad_stats"),
    ("lcqnn.gradients", "sample_param_draw", "gradients.sample_param_draw"),
    ("lcqnn.mnist", "grad_full", "gradients.grad_full"),
    ("lcqnn.cli", "param_shift_grad", "gradients.param_shift_grad"),
    ("lcqnn.cli", "finite_diff_grad", "gradients.finite_diff_grad"),
    ("lcqnn.cli", "run_variance_point", "experiments.run_variance_point"),
    ("lcqnn.cli", "group_block_variance", "experiments.group_block_variance"),
    ("lcqnn.cli", "load_dataset", "mnist.load_dataset"),
    ("lcqnn.mnist", "example_loss_and_grad", "mnist.example_loss_and_grad"),
    ("lcqnn.mnist", "working_z_expectations", "mnist.working_z_expectations"),
    ("lcqnn.mnist", "evaluate_accuracy", "mnist.evaluate_accuracy"),
) + tuple(
    ("lcqnn.reporting", name, "reporting." + name)
    for name in (
        "build_command", "render_csv", "render_json", "write_output",
        "scan_row", "scan_dict", "layers_summary", "group_rows", "group_dicts",
        "group_summary", "mnist_columns", "mnist_rows", "mnist_dicts",
        "mnist_summary",
    )
)

#: (module, attribute, counter name): calls too frequent to keep a span each
COUNTED = (
    ("lcqnn.sim", "gate_matrix", "sim.gate_matrix"),
    ("lcqnn.gradients", "gate_matrix", "sim.gate_matrix"),
    ("lcqnn.experiments", "gate_matrix", "sim.gate_matrix"),
    ("lcqnn.mnist", "gate_matrix", "sim.gate_matrix"),
    ("lcqnn.sim", "PauliZSum.diagonal", "sim.z_diagonal_builds"),
    ("lcqnn.gradients", "coeff_probabilities", "model.coeff_probabilities"),
    ("lcqnn.experiments", "coeff_probabilities", "model.coeff_probabilities"),
    ("lcqnn.mnist", "coeff_probabilities", "model.coeff_probabilities"),
)

#: ``run_chunked`` is wrapped in both namespaces that call it
CHUNKED = (("lcqnn.gradients", "run_chunked"), ("lcqnn.experiments", "run_chunked"))


def _resolve(module, dotted):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        #: (span id, name, parent id, start, end); parent 0 is the root
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[Counter] = []
        self._useful_qubits = None

    # -- per-thread state ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._lock:
                self._counters.append(counter)
        counter[name] += amount

    def _run_span(self, name, parent, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, start, end))

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            return self._run_span(name, self._stack()[-1], fn, args, kwargs)

        return wrapper

    def counted(self, name, fn, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            if before is not None:
                before(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def chunked(self, fn):
        """Wrap ``run_chunked`` so each chunk is a span under the call.

        A chunk runs the caller's per-sample loop, so its span is named after
        the function that built ``chunk_fn`` (for example
        ``experiments.group_block_variance.chunk``).
        """

        @functools.wraps(fn)
        def wrapper(num_samples, chunk_fn, *args, **kwargs):
            owner = chunk_fn.__qualname__.split(".<locals>")[0]
            layer = chunk_fn.__module__.rsplit(".", 1)[-1]
            chunk_name = f"{layer}.{owner}.chunk"
            call_id = next(self._ids)

            def chunk(lo, hi):
                return self._run_span(chunk_name, call_id, chunk_fn, (lo, hi), {})

            stack = self._stack()
            parent = stack[-1]
            stack.append(call_id)
            start = time.perf_counter()
            try:
                return fn(num_samples, chunk, *args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((call_id, "gradients.run_chunked", parent, start, end))

        return wrapper

    # -- hooks for the ratio metrics ----------------------------------------

    def _note_gate(self, args, kwargs):
        useful = self._useful_qubits
        if useful is not None:
            self.count("gradients.applied_gates")
            if set(args[0].qubits) <= useful:
                self.count("gradients.useful_gates")

    def _note_haar(self, args, kwargs):
        self.count("sim.haar_columns_drawn", int(args[0]))

    def _note_group_scan(self, fn):
        signature = inspect.signature(fn)

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            first_dim = bound.arguments["spectrum"].blocks[0]
            if bound.arguments["mode"] == "haar" and first_dim[0] * first_dim[1] > 1:
                # block 0 reads two columns of its unitary (the probe
                # rotation mixes basis states 0 and 1), the others one
                self.count("sim.haar_block0_samples", bound.arguments["samples"])

        return before

    def _grad_stats_span(self, fn):
        """Timed ``estimate_grad_stats`` that marks the observable's group,
        so gate counts can tell gates inside its light cone from the rest."""
        wrapped = self.timed("gradients.estimate_grad_stats", fn)

        @functools.wraps(fn)
        def wrapper(model, obs, *args, **kwargs):
            qubits = {q for _, term in obs.terms for q in term}
            self._useful_qubits = set().union(
                *(set(g.qubits) for g in model.groups if qubits & set(g.qubits))
            )
            try:
                return wrapped(model, obs, *args, **kwargs)
            finally:
                self._useful_qubits = None

        return wrapper

    def _note_output(self, args, kwargs):
        self.count("reporting.output_bytes", len(args[0].encode()))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib

        #: span name -> factory of the hook run before each call
        hooks = {
            "sim.haar_unitary": lambda fn: self._note_haar,
            "experiments.group_block_variance": self._note_group_scan,
            "reporting.write_output": lambda fn: self._note_output,
        }

        def patch(module_name, dotted, make):
            owner, attr = _resolve(importlib.import_module(module_name), dotted)
            setattr(owner, attr, make(getattr(owner, attr)))

        for module_name, dotted, name in TIMED:
            if name == "gradients.estimate_grad_stats":
                patch(module_name, dotted, self._grad_stats_span)
                continue
            hook = hooks.get(name)
            patch(module_name, dotted,
                  lambda fn, n=name, h=hook: self.timed(n, fn, h and h(fn)))
        for module_name, dotted, name in COUNTED:
            gate_hook = (module_name, dotted) == ("lcqnn.gradients", "gate_matrix")
            patch(module_name, dotted,
                  lambda fn, n=name, h=gate_hook: self.counted(n, fn, self._note_gate if h else None))
        for module_name, dotted in CHUNKED:
            patch(module_name, dotted, self.chunked)

    def dump(self) -> dict:
        counts = Counter()
        with self._lock:
            for counter in self._counters:
                counts.update(counter)
        return {"spans": [list(s) for s in self.spans], "counts": dict(counts)}


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def summarize(dump: dict) -> dict:
    """Per-name calls, inclusive and self seconds, and the raw extras.

    A span's self time is its duration minus the part of it that its child
    spans cover; chunks that ran in parallel pool threads are merged first.
    """
    spans = dump["spans"]
    children = defaultdict(list)
    for sid, name, parent, start, end in spans:
        children[parent].append((start, end))
    names = {sid: name for sid, name, *_ in spans}
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    chunk_ms = []
    forward_in_example = 0
    for sid, name, parent, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += (end - start) - _covered(children.get(sid, ()))
        if name.endswith(".chunk"):
            chunk_ms.append(1e3 * (end - start))
        if (
            name in ("mnist.working_z_expectations", "gradients.grad_full")
            and names.get(parent) == "mnist.example_loss_and_grad"
        ):
            forward_in_example += 1
    return {
        "calls": dict(calls),
        "total_s": dict(total),
        "self_s": dict(own),
        "chunk_ms": chunk_ms,
        "counts": dict(dump["counts"]),
        "forward_in_example": forward_in_example,
    }


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer figures for one round of invocations (a list of summaries)."""
    calls, total, own, counts = Counter(), Counter(), Counter(), Counter()
    chunk_ms = []
    forward_in_example = 0
    for s in summaries:
        calls.update(s["calls"])
        total.update(s["total_s"])
        own.update(s["self_s"])
        counts.update(s["counts"])
        chunk_ms += s["chunk_ms"]
        forward_in_example += s["forward_in_example"]

    def ratio(num, den):
        return num / den if den else 0.0

    chunk_total = sum(v for k, v in total.items() if k.endswith(".chunk"))
    haar_calls = calls["sim.haar_unitary"]
    return {
        "sim.gate_matrix.calls": counts["sim.gate_matrix"],
        "sim.rng_stream.calls": calls["sim.rng_stream"],
        "sim.rng_stream.self_s": own["sim.rng_stream"],
        "sim.haar_unitary.calls": haar_calls,
        "sim.haar_unitary.self_s": own["sim.haar_unitary"],
        "sim.haar_columns_used_fraction": ratio(
            haar_calls + counts["sim.haar_block0_samples"],
            counts["sim.haar_columns_drawn"],
        ),
        "sim.z_diagonal_builds": counts["sim.z_diagonal_builds"],
        "sim.expectation.self_s": own["sim.expectation"],
        "model.lcqnn_forward.calls": calls["model.lcqnn_forward"],
        "model.lcqnn_forward.self_s": own["model.lcqnn_forward"],
        "model.coeff_probability_gradients.calls": calls["model.coeff_probability_gradients"],
        "model.coeff_probability_gradients.self_s": own["model.coeff_probability_gradients"],
        "model.coeff_probabilities.calls": counts["model.coeff_probabilities"],
        "gradients.estimate_grad_stats.self_s": (
            own["gradients.estimate_grad_stats"] + own["gradients.estimate_grad_stats.chunk"]
        ),
        "gradients.sample_param_draw.self_s": own["gradients.sample_param_draw"],
        "gradients.useful_gate_fraction": ratio(
            counts["gradients.useful_gates"], counts["gradients.applied_gates"]
        ),
        "gradients.grad_full.calls": calls["gradients.grad_full"],
        "gradients.grad_full.self_s": own["gradients.grad_full"],
        "gradients.param_shift_grad.self_s": own["gradients.param_shift_grad"],
        "gradients.finite_diff_grad.self_s": own["gradients.finite_diff_grad"],
        "gradients.run_chunked.chunks": len(chunk_ms),
        "gradients.chunk_ms": statistics.median(chunk_ms) if chunk_ms else 0.0,
        "gradients.pool_overlap": ratio(chunk_total, total["gradients.run_chunked"]),
        "experiments.run_variance_point.calls": calls["experiments.run_variance_point"],
        "experiments.group_block_variance.self_s": (
            own["experiments.group_block_variance"]
            + own["experiments.group_block_variance.chunk"]
        ),
        "mnist.load_dataset_s": total["mnist.load_dataset"],
        "mnist.example_loss_and_grad.calls": calls["mnist.example_loss_and_grad"],
        "mnist.example_loss_and_grad.self_s": own["mnist.example_loss_and_grad"],
        "mnist.working_z_expectations.calls": calls["mnist.working_z_expectations"],
        "mnist.working_z_expectations.self_s": own["mnist.working_z_expectations"],
        "mnist.forward_passes_per_example": ratio(
            forward_in_example, calls["mnist.example_loss_and_grad"]
        ),
        "mnist.evaluate_accuracy_s": total["mnist.evaluate_accuracy"],
        "reporting.render_s": sum(v for k, v in own.items() if k.startswith("reporting.")),
        "reporting.output_bytes": counts["reporting.output_bytes"],
    }
