"""Spans around the calls into each layer of qwhile.

A span is (name, start, end, parent). Spans live in memory; a run writes
them out when it ends. A span's name is `<layer>.<function>`, and the
layers are qwhile's modules: lang, fqasm, engine, core, synth,
experiments and cli.

Wrappers go on the module attribute the caller looks up: `from x import
f` binds `f` in the caller's namespace, so `qwhile.cli.parse` and
`qwhile.experiments.qloop.parse` are wrapped separately. Nothing is
wrapped unless `installed()` is active, and everything is restored when
it exits.
"""
from __future__ import annotations

import contextlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("lang", "fqasm", "engine", "core", "synth", "experiments", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()   # targets the toolchain no longer has

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _count_tokens(t, args, result):
    t.counts["lang.tokens"] += len(result)


def _count_bfs(t, args, result):
    t.counts["engine.bfs_steps"] += 1
    t.counts["engine.forks"] += max(0, len(result) - 1)


def _count_terminals(t, args, result):
    t.counts["engine.terminals"] += len(result.terminals)
    t.counts["engine.residual"] += result.residual


def _count_instructions(t, args, result):
    t.counts["fqasm.instructions"] += len(result.instructions)


def _count_text(t, args, result):
    t.counts["fqasm.text_bytes"] += len(result.encode())


def _count_exact(t, args, result):
    t.counts["synth.exact_1q_ops"] += sum(1 for op in result.ops if len(op.qubits) == 1)


def _count_nonbasic(t, args, result):
    t.counts["synth.nonbasic_1q_ops"] += result is None


def _count_letters(t, args, result):
    t.counts["synth.letters"] += len(result.ops)


def _count_gates(t, args, result):
    t.counts["synth.gates"] += len(result.ops)
    t.counts["synth.unitaries"] += 1


# (module, attribute, span name, result hook). A dotted attribute names a
# method on a class of that module.
TARGETS = (
    ("qwhile.cli", "parse", "lang.parse", None),
    ("qwhile.cli", "validate_program", "lang.validate", None),
    ("qwhile.cli", "prepare", "engine.prepare", None),
    ("qwhile.cli", "run_distribution", "engine.run_distribution", _count_terminals),
    ("qwhile.cli", "run_shots", "engine.run_shots", None),
    ("qwhile.cli", "match_distributions", "engine.match", None),
    ("qwhile.cli", "compile_program", "fqasm.compile", _count_instructions),
    ("qwhile.cli", "serialize", "fqasm.serialize", _count_text),
    ("qwhile.cli", "parse_fqasm", "fqasm.parse", None),
    ("qwhile.cli", "vm_distribution", "fqasm.vm_distribution", None),
    ("qwhile.cli", "synthesize", "synth.synthesize", _count_gates),
    ("qwhile.cli", "reconstruct", "synth.reconstruct", None),
    ("qwhile.cli", "phase_dist", "synth.phase_dist", None),
    ("qwhile.lang.parser", "tokenize", "lang.tokenize", _count_tokens),
    ("qwhile.lang.checker", "validate_program", "lang.validate", None),
    ("qwhile.fqasm.text", "tokenize", "fqasm.tokenize", None),
    ("qwhile.fqasm.vm", "prepare_vm", "fqasm.prepare_vm", None),
    ("qwhile.engine.runtime", "prepare", "engine.prepare", None),
    ("qwhile.engine.runtime", "step", "engine.step", _count_bfs),
    ("qwhile.engine.runtime", "run_shot", "engine.run_shot", None),
    ("qwhile.engine.runtime", "sample_outcome", "engine.sample_outcome", None),
    ("qwhile.engine.runtime", "DistributionResult.merged", "engine.merge", None),
    ("qwhile.engine.runtime", "conjugate_density", "core.conjugate_density", None),
    ("qwhile.engine.runtime", "partial_trace", "core.partial_trace", None),
    ("qwhile.engine.runtime", "embed", "core.embed", None),
    ("qwhile.core.ops", "apply_superoperator", "core.apply_superoperator", None),
    ("qwhile.core.ops", "measurement_probabilities", "core.measurement_probabilities", None),
    ("qwhile.experiments", "qloop_run", "experiments.qloop_run", None),
    ("qwhile.experiments", "bb84_channel_sweep", "experiments.bb84_channel_sweep", None),
    ("qwhile.experiments.qloop", "parse", "lang.parse", None),
    ("qwhile.experiments.qloop", "prepare", "engine.prepare", None),
    ("qwhile.experiments.qloop", "run_shots", "engine.run_shots", None),
    ("qwhile.experiments.bb84", "bb84_run", "experiments.bb84_run", None),
    ("qwhile.experiments.bb84", "sample_outcome", "engine.sample_outcome", None),
    ("qwhile.synth.pipeline", "qsd_decompose", "synth.factor", _count_exact),
    ("qwhile.synth.pipeline", "solovay_kitaev", "synth.sk", _count_letters),
    ("qwhile.synth.sk", "build_net", "synth.net_build", None),
    ("qwhile.synth.sequences", "GateSet.match_single_qubit", "synth.match_basic",
     _count_nonbasic),
)


def _wrap(tracer: Tracer, fn, name: str, hook):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _lookup(module_name: str, attr: str):
    """(owner, leaf name) of a target, or None when the toolchain has no
    such attribute, e.g. after a refactor moved the function."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or leaf not in owner.__dict__:
        return None
    return owner, leaf


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block. A target that is
    missing is recorded in tracer.missing, and its metrics read 0."""
    saved = []
    try:
        for module_name, attr, name, hook in TARGETS:
            found = _lookup(module_name, attr)
            if found is None:
                tracer.missing.add(f"{module_name}.{attr}")
                continue
            owner, leaf = found
            original = owner.__dict__[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, _wrap(tracer, original, name, hook))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def summarize(spans: list[list]) -> dict:
    """Per span name: inclusive seconds and calls of the outermost spans of
    that name (so recursion is not counted twice), plus self seconds per
    layer. Self time is a span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_time: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent) in enumerate(spans):
        self_time[name.split(".", 1)[0]] += (end - start) - child_time[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += end - start
            calls[name] += 1
    return {"inclusive": dict(inclusive), "calls": dict(calls), "self": dict(self_time)}


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]
