"""The four workloads, their timed loops and their metrics.

Every operation goes through `qwhile.cli.main` in this process, with its
standard output captured; only that call is timed. Output checks,
digests, input files and host-speed samples are made off the clock.
End-to-end times are scaled by the host speed measured around them
(host.py); the raw values go into the record and the printed summary.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import host
import inputs
import oracles
import tracing

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5  # timed set-up processes per run, after one untimed one
SELF_LAYERS = tuple(layer for layer in tracing.LAYERS if layer != "cli")  # cli is cli.self_s

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ops_per_s", "1/s", "higher"),
)

PER_LAYER = (
    ("lang.tokens", "count", "lower"),
    ("lang.tokenize_s", "s", "lower"),
    ("lang.parse_s", "s", "lower"),
    ("lang.validate_s", "s", "lower"),
    ("lang.validate_calls", "count", "lower"),
    ("fqasm.compile_s", "s", "lower"),
    ("fqasm.instructions", "count", "lower"),
    ("fqasm.serialize_s", "s", "lower"),
    ("fqasm.text_bytes", "bytes", "lower"),
    ("fqasm.parse_s", "s", "lower"),
    ("fqasm.prepare_vm_s", "s", "lower"),
    ("fqasm.vm_distribution_s", "s", "lower"),
    ("engine.prepare_s", "s", "lower"),
    ("engine.run_shots_s", "s", "lower"),
    ("engine.steps", "count", "lower"),
    ("engine.measurements", "count", "lower"),
    ("engine.step.init_s", "s", "lower"),
    ("engine.step.unitary_s", "s", "lower"),
    ("engine.step.measure_s", "s", "lower"),
    ("engine.sample_outcome_s", "s", "lower"),
    ("engine.sample_outcome_calls", "count", "lower"),
    ("engine.draws", "count", "lower"),
    ("engine.run_distribution_s", "s", "lower"),
    ("engine.bfs_steps", "count", "lower"),
    ("engine.forks", "count", "lower"),
    ("engine.terminals", "count", "lower"),
    ("engine.residual", "mass", "lower"),
    ("engine.merge_s", "s", "lower"),
    ("engine.match_s", "s", "lower"),
    ("core.apply_superoperator_s", "s", "lower"),
    ("core.apply_superoperator_calls", "count", "lower"),
    ("core.measurement_probabilities_s", "s", "lower"),
    ("core.measurement_probabilities_calls", "count", "lower"),
    ("core.conjugate_density_s", "s", "lower"),
    ("core.conjugate_density_calls", "count", "lower"),
    ("core.partial_trace_s", "s", "lower"),
    ("core.partial_trace_calls", "count", "lower"),
    ("core.embed_s", "s", "lower"),
    ("core.embed_calls", "count", "lower"),
    ("synth.net_build_s", "s", "lower"),
    ("synth.factor_s", "s", "lower"),
    ("synth.exact_1q_ops", "count", "lower"),
    ("synth.nonbasic_1q_ops", "count", "lower"),
    ("synth.sk_calls", "count", "lower"),
    ("synth.sk_s", "s", "lower"),
    ("synth.sk_cache_hit_ratio", "ratio", "higher"),
    ("synth.reconstruct_s", "s", "lower"),
    ("synth.letters_per_rotation", "letters", "lower"),
    ("synth.gates_per_unitary", "gates", "lower"),
    ("bb84.session_ms_p50", "ms", "lower"),
    ("bb84.session_ms_tail", "ms", "lower"),
    ("bb84.session_tail_pct", "%", "higher"),
    ("bb84.sessions", "count", "higher"),
) + tuple((f"check.{name}_s", "s", "lower") for name in inputs.CHECK_PROGRAMS) + (
    ("cli.self_s", "s", "lower"),
) + tuple((f"layer.{layer}.self_s", "s", "lower") for layer in SELF_LAYERS) + (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.rounds", "count", "higher"),
    ("host.reference_s", "s", "lower"),
)


def call_cli(argv: list[str], tracer: tracing.Tracer | None = None):
    """Run `qwhile.cli.main(argv)`; returns (exit code, seconds, stdout, stderr)."""
    import qwhile.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if tracer is not None:
            stack.enter_context(tracing.installed(tracer))
        start = perf_counter()
        if tracer is not None:
            with tracer.span("cli.main"):
                code = qwhile.cli.main(argv)
        else:
            code = qwhile.cli.main(argv)
        seconds = perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


@dataclass
class OpResult:
    seconds: float = 0.0       # time inside qwhile.cli.main
    units: float = 0.0         # shots, sessions, programs or unitaries completed
    attempted: int = 1
    failed: int = 0
    failures: list = field(default_factory=list)
    output: str = ""           # the primary output, for the digest
    gates: int = 0
    replay: "Replay | None" = None


class Workload:
    name = ""
    unit = ""             # what ops_per_s counts
    op_kind = ""          # what one attempted operation is
    pass_ops = 1          # operations in one pass over the fixed inputs

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def warmup_argv(self) -> list[str]:
        raise NotImplementedError

    def run_op(self, i: int, tracer: tracing.Tracer | None) -> OpResult:
        raise NotImplementedError

    def round_ops(self, n: int) -> list[int]:
        """The operations of round n of a traced run: the first pass, so
        every round does the same work."""
        return list(range(self.pass_ops))

    def op(self, i: int, tracer: tracing.Tracer | None = None) -> OpResult:
        try:
            res = self.run_op(i, tracer)
        except Exception:  # a crash inside the toolchain fails this operation only
            attempted = self.attempted_per_op()
            res = OpResult(attempted=attempted, failed=attempted,
                           failures=[traceback.format_exc()])
        return res

    def attempted_per_op(self) -> int:
        return 1

    def throughput(self, results: list[tuple[int, OpResult]]) -> float:
        seconds = sum(r.seconds for _, r in results)
        return sum(r.units for _, r in results) / seconds if seconds > 0 else 0.0

    def summary_lines(self, results: list[tuple[int, OpResult]]) -> list[tuple[str, float, str]]:
        return []


def _failed(code: int, err: str, what: str) -> list[str]:
    return [] if code == 0 else [f"{what}: exit code {code}: {err.strip()}"]


class Qloop(Workload):
    name, unit, op_kind = "qloop", "shots", "shot batches"

    def warmup_argv(self):
        return ["experiment", "qloop", "--shots", "1", "--seed", "0"]

    def batch_seed(self, i: int) -> int:
        return inputs.derive(self.seed, "qloop", i)

    def run_op(self, i, tracer):
        shots = inputs.QLOOP_SHOTS
        code, seconds, out, err = call_cli(
            ["experiment", "qloop", "--shots", str(shots), "--seed", str(self.batch_seed(i))],
            tracer)
        res = OpResult(seconds, shots, output=out, failures=_failed(code, err, "qloop"))
        if code == 0:
            payload = json.loads(out)
            res.failures += oracles.qloop(payload, shots)
            if tracer is not None:
                res.replay = replay_qloop(self.batch_seed(i), shots)
                res.failures += res.replay.mismatch(payload)
        res.failed = int(bool(res.failures))
        return res


class Bb84(Workload):
    name, unit, op_kind = "bb84", "sessions", "sweep cells"

    def warmup_argv(self):
        return ["experiment", "bb84-sweep", "--sessions", "1", "--seed", "0",
                "--out", str(self.tmp / "warm.csv")]

    def attempted_per_op(self):
        return inputs.BB84_CELLS

    def run_op(self, i, tracer):
        path = self.tmp / "sweep.csv"
        sessions = inputs.BB84_SESSIONS
        code, seconds, out, err = call_cli(
            ["experiment", "bb84-sweep", "--sessions", str(sessions),
             "--seed", str(inputs.derive(self.seed, "bb84", i)), "--out", str(path)], tracer)
        res = OpResult(seconds, inputs.BB84_CELLS * sessions, attempted=inputs.BB84_CELLS)
        if code != 0:
            res.failures, res.failed = _failed(code, err, "bb84"), inputs.BB84_CELLS
            return res
        res.output = path.read_text()
        res.failed, res.failures = oracles.bb84_sweep(res.output, sessions)
        return res


class Check(Workload):
    name, unit, op_kind = "check", "programs", "programs"
    pass_ops = len(inputs.CHECK_PROGRAMS)

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        from qwhile import experiments

        bundled = {n: experiments.program_source(n) for n in inputs.BUNDLED_PROGRAMS}
        sources, self.grover_target = inputs.check_sources(seed, bundled)
        for name, text in sources.items():
            (tmp / f"{name}.qw").write_text(text)
        (tmp / "warm.qw").write_text(bundled["coin"])
        self.texts: dict[str, str] = {}  # program -> f-QASM text of its first compile

    def warmup_argv(self):
        return ["compile", str(self.tmp / "warm.qw"), "--check",
                "--out", str(self.tmp / "warm.fqasm")]

    def run_op(self, i, tracer):
        name = inputs.CHECK_PROGRAMS[i % self.pass_ops]
        src, dst = self.tmp / f"{name}.qw", self.tmp / f"{name}.fqasm"
        code, seconds, out, err = call_cli(["compile", str(src), "--check", "--out", str(dst)],
                                           tracer)
        res = OpResult(seconds, 1, failures=_failed(code, err, f"check {name}"))
        if code == 0 and "agree" not in out:
            res.failures.append(f"check {name}: no agreement reported")
        if not res.failures:
            res.output = dst.read_text()
            first = self.texts.get(name)
            if first is None:
                self.texts[name] = res.output
                res.failures += self.distribution_check(name, src)
            elif first != res.output:
                res.failures.append(f"check {name}: f-QASM text differs between compiles")
        res.failed = int(bool(res.failures))
        return res

    def distribution_check(self, name: str, src: Path) -> list[str]:
        dst = self.tmp / f"{name}.dist.json"
        code, _, _, err = call_cli(["run", str(src), "--mode", "distribution",
                                    "--format", "json", "--out", str(dst)])
        if code != 0:
            return _failed(code, err, f"run {name}")
        grover = None
        if name == "grover7":
            grover = (self.grover_target, inputs.grover_success(inputs.GROVER_QUBITS))
        return [f"{name}: {m}" for m in oracles.distribution(json.loads(dst.read_text()), grover)]

    def throughput(self, results):
        """Programs in the set over the sum of each program's median time."""
        times: dict[int, list[float]] = {}
        for i, r in results:
            times.setdefault(i % self.pass_ops, []).append(r.seconds)
        total = sum(statistics.median(t) for t in times.values())
        return len(times) / total if total > 0 else 0.0


class Synth(Workload):
    name, unit, op_kind = "synth", "unitaries", "unitaries"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        from qwhile.synth import GateSet

        self.basic_names = GateSet.default().names
        h = oracles.GATES_1Q["H"]
        (tmp / "warm.json").write_text(inputs.matrix_json(h @ oracles.GATES_1Q["T"]))

    def warmup_argv(self):
        return ["synthesize", str(self.tmp / "warm.json"), "--method", "qsd",
                "--format", "json", "--epsilon", inputs.SYNTH_EPSILON,
                "--out", str(self.tmp / "warm.out.json")]

    def round_ops(self, n):
        return [n]  # a repeated unitary would hit the synthesis cache

    def run_op(self, i, tracer):
        u = inputs.haar_unitary(inputs.rng_for(self.seed, "synth", i), 4)
        src, dst = self.tmp / "u.json", self.tmp / "u.out.json"
        src.write_text(inputs.matrix_json(u))
        code, seconds, out, err = call_cli(
            ["synthesize", str(src), "--method", "qsd", "--format", "json",
             "--epsilon", inputs.SYNTH_EPSILON, "--out", str(dst)], tracer)
        res = OpResult(seconds, 1, failures=_failed(code, err, "synth"))
        if code == 0:
            res.output = dst.read_text()
            payload = json.loads(res.output)
            res.gates = int(payload.get("gates", 0))
            res.failures += oracles.synthesis(payload, u, self.basic_names)
        res.failed = int(bool(res.failures))
        return res

    def summary_lines(self, results):
        gates = [r.gates for _, r in results]
        return [("gates_per_unitary", sum(gates) / len(gates), "gates")]


WORKLOADS = {w.name: w for w in (Qloop, Bb84, Check, Synth)}


# --- qloop replay through the public step() -----------------------------------


@dataclass
class Replay:
    shots: int
    circles: Counter          # loop-body entries -> shots
    steps: int
    measurements: int
    draws: int
    spans: list

    def mismatch(self, payload: dict) -> list[str]:
        """The replay must reproduce the CLI's seeded counts exactly."""
        mine = {str(k): v for k, v in sorted(self.circles.items()) if k >= 1}
        theirs = {str(k): v for k, v in payload.get("circles", {}).items()}
        entering = self.shots - self.circles.get(0, 0)
        if mine != theirs or entering != payload.get("shots_entering"):
            return [f"qloop replay: circles {mine} vs run_shots {theirs}"]
        return []


def replay_qloop(seed: int, shots: int) -> Replay:
    """Drive `qwhile.engine.step` over the shots `run_shots(plan, shots,
    seed)` makes, timing each step by the kind of statement it executes."""
    from qwhile.engine import SamplerState, initial_configuration, step
    from qwhile.experiments import qloop_program
    from qwhile.lang import Case, Init, Unitary, While

    kinds = ((Init, "engine.step.init"), (Unitary, "engine.step.unitary"),
             ((Case, While), "engine.step.measure"))
    plan = qloop_program()
    tracer = tracing.Tracer()
    base = SamplerState(seed)
    circles: Counter = Counter()
    steps = measurements = draws = 0
    for k in range(shots):
        rng = base.child(k)
        c = initial_configuration(plan)
        entries = 0
        while not c.terminated:
            s = c.remaining[0]
            name = next((n for cls, n in kinds if isinstance(s, cls)), "engine.step.other")
            with tracer.span(name):
                [succ] = step(c, rng)
            steps += 1
            if isinstance(s, (Case, While)):
                measurements += 1
                if isinstance(s, While) and len(succ.remaining) >= len(c.remaining):
                    entries += 1
            c = succ
        circles[entries] += 1
        draws += rng.draw_count
    return Replay(shots, circles, steps, measurements, draws, tracer.spans)


# --- set-up -----------------------------------------------------------------


def measure_setup(argv: list[str]) -> tuple[float, float, list[str]]:
    """Median over fresh processes of `import qwhile` plus one small first
    CLI call, scaled by host speed and raw. The first process is not
    timed: it writes bytecode caches."""
    speed = host.HostSpeed()
    scaled, raw, failures = [], [], []
    for k in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv],
                              capture_output=True, text=True, timeout=150,
                              cwd=HERE.parent, env=os.environ.copy())
        speed.sample(k + 1)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures.append(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
        elif k > 0:
            raw.append(json.loads(lines[-1])["setup_s"])
            scaled.append(raw[-1] * speed.scale(k))
    if not raw:
        return 0.0, 0.0, failures
    return statistics.median(scaled), statistics.median(raw), failures


# --- runs ---------------------------------------------------------------------


@dataclass
class RunOutcome:
    result: dict
    record: dict
    summary: list


def _digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def run(name: str, seed: int, seconds: float, traced: bool, tmp: Path) -> RunOutcome:
    wl = WORKLOADS[name](seed, tmp)
    setup_s, setup_raw, failures = 0.0, 0.0, []
    if not traced:
        setup_s, setup_raw, failures = measure_setup(wl.warmup_argv())

    setup_tracer = tracing.Tracer() if traced else None
    code, _, _, err = call_cli(wl.warmup_argv(), setup_tracer)  # lazy set-up, off the clock
    failures += _failed(code, err, "warm-up")

    results: list[tuple[int, OpResult]] = []
    extra: dict = {}
    if traced:
        metrics, extra = _traced_loop(wl, seconds, results, setup_tracer)
    else:
        speed = host.HostSpeed()
        i, timed = 0, 0.0
        while i < wl.pass_ops or timed < seconds:
            res = wl.op(i)
            results.append((i, res))
            timed += res.seconds
            i += 1
            speed.after_op(i)
        speed.finish(i)
        scaled = [(k, replace(r, seconds=r.seconds * speed.scale(n)))
                  for n, (k, r) in enumerate(results)]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": wl.throughput(scaled),
        }
        extra = {"raw": {"setup_s": setup_raw, "ops_per_s": wl.throughput(results)},
                 "host_reference_s": speed.points}

    attempted = sum(r.attempted for _, r in results)
    failed = sum(r.failed for _, r in results)
    for _, r in results:
        failures += r.failures
    first_pass = [r.output for i, r in results if i < wl.pass_ops][:wl.pass_ops]
    spec = PER_LAYER if traced else END_TO_END
    units = {n: u for n, u, _ in spec}
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n, _, _ in spec},
    }
    summary = []
    if not traced:
        summary = [
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MiB"),
            ("failed_ratio", failed / attempted if attempted else 1.0, "fraction"),
            (f"{wl.unit}_per_s", metrics["ops_per_s"], f"{wl.unit}/s"),
        ] + wl.summary_lines(results) + [
            ("setup_s_raw", extra["raw"]["setup_s"], "s"),
            (f"{wl.unit}_per_s_raw", extra["raw"]["ops_per_s"], f"{wl.unit}/s"),
            ("host_reference_s", speed.median(), "s"),
        ]
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "operations": len(results),
        "op_seconds": [r.seconds for _, r in results],
        "op_kind": wl.op_kind,
        "first_pass_digest": _digest(first_pass),
        "failures": failures[:20],
        "summary": {n: {"value": v, "unit": u} for n, v, u in summary},
        "result": result,
        **extra,
    }
    return RunOutcome(result, record, summary)


def _traced_loop(wl: Workload, seconds: float, results: list, setup_tracer: tracing.Tracer):
    """Alternate untraced and traced rounds of the same work until
    `seconds` of CLI time have passed; per-layer values are means over the
    traced rounds."""
    setup_spans, _ = setup_tracer.take()
    setup = tracing.summarize(setup_spans)
    untraced, traced = [], []   # per round: (cli seconds, gates, [(op index, OpResult)])
    rounds_spans, tracers = [], [setup_tracer]
    speed = host.HostSpeed()
    elapsed = 0.0
    while not traced or elapsed < seconds:
        for tracer in (None, tracing.Tracer()):
            done = [(i, wl.op(i, tracer)) for i in wl.round_ops(len(untraced) + len(traced))]
            results.extend(done)
            cli_s = sum(res.seconds for _, res in done)
            elapsed += cli_s
            gates = sum(res.gates for _, res in done)
            if tracer is None:
                untraced.append((cli_s, gates, done))
            else:
                spans, counts = tracer.take()
                tracers.append(tracer)
                replay = next((res.replay for _, res in done if res.replay is not None), None)
                rounds_spans.append((spans, counts, replay))
                traced.append((cli_s, gates, done))
        speed.sample(len(traced))

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    summaries = [(tracing.summarize(spans), counts, replay) for spans, counts, replay in rounds_spans]

    def incl(name):
        return mean([s["inclusive"].get(name, 0.0) for s, _, _ in summaries])

    def calls(name):
        return mean([s["calls"].get(name, 0) for s, _, _ in summaries])

    def count(key):
        return mean([c.get(key, 0) for _, c, _ in summaries])

    def self_s(layer):
        return mean([s["self"].get(layer, 0.0) for s, _, _ in summaries])

    replays = [rp for _, _, rp in summaries if rp is not None]
    replay_sums = [tracing.summarize(rp.spans) for rp in replays]

    def replay_incl(name):
        return mean([s["inclusive"].get(name, 0.0) for s in replay_sums])

    sk_calls = calls("synth.sk")
    nonbasic = count("synth.nonbasic_1q_ops")
    unitaries = count("synth.unitaries")
    sessions_ms = sorted(d * 1e3 for spans, _, _ in rounds_spans
                         for d in tracing.durations(spans, "experiments.bb84_run"))
    tail_pct = _tail_percentile(len(sessions_ms))
    check_times: dict[str, list[float]] = {}
    if isinstance(wl, Check):
        for _, _, done in untraced:
            for i, res in done:
                check_times.setdefault(inputs.CHECK_PROGRAMS[i % wl.pass_ops], []).append(res.seconds)
    if isinstance(wl, Synth):
        untraced_cost = sum(c for c, _, _ in untraced) / max(1, sum(g for _, g, _ in untraced))
        traced_cost = sum(c for c, _, _ in traced) / max(1, sum(g for _, g, _ in traced))
    else:
        untraced_cost = statistics.median(c for c, _, _ in untraced)
        traced_cost = statistics.median(c for c, _, _ in traced)

    m = {
        "lang.tokens": count("lang.tokens"),
        "lang.tokenize_s": incl("lang.tokenize"),
        "lang.parse_s": incl("lang.parse"),
        "lang.validate_s": incl("lang.validate"),
        "lang.validate_calls": calls("lang.validate"),
        "fqasm.compile_s": incl("fqasm.compile"),
        "fqasm.instructions": count("fqasm.instructions"),
        "fqasm.serialize_s": incl("fqasm.serialize"),
        "fqasm.text_bytes": count("fqasm.text_bytes"),
        "fqasm.parse_s": incl("fqasm.parse"),
        "fqasm.prepare_vm_s": incl("fqasm.prepare_vm"),
        "fqasm.vm_distribution_s": incl("fqasm.vm_distribution"),
        "engine.prepare_s": incl("engine.prepare"),
        "engine.run_shots_s": incl("engine.run_shots"),
        "engine.steps": mean([rp.steps for rp in replays]),
        "engine.measurements": mean([rp.measurements for rp in replays]),
        "engine.step.init_s": replay_incl("engine.step.init"),
        "engine.step.unitary_s": replay_incl("engine.step.unitary"),
        "engine.step.measure_s": replay_incl("engine.step.measure"),
        "engine.sample_outcome_s": incl("engine.sample_outcome"),
        "engine.sample_outcome_calls": calls("engine.sample_outcome"),
        "engine.draws": mean([rp.draws for rp in replays]),
        "engine.run_distribution_s": incl("engine.run_distribution"),
        "engine.bfs_steps": count("engine.bfs_steps"),
        "engine.forks": count("engine.forks"),
        "engine.terminals": count("engine.terminals"),
        "engine.residual": count("engine.residual"),
        "engine.merge_s": incl("engine.merge"),
        "engine.match_s": incl("engine.match"),
        "synth.net_build_s": setup["inclusive"].get("synth.net_build", 0.0),
        "synth.factor_s": incl("synth.factor"),
        "synth.exact_1q_ops": count("synth.exact_1q_ops"),
        "synth.nonbasic_1q_ops": nonbasic,
        "synth.sk_calls": sk_calls,
        "synth.sk_s": incl("synth.sk"),
        "synth.sk_cache_hit_ratio": 1.0 - sk_calls / nonbasic if nonbasic else 0.0,
        "synth.reconstruct_s": incl("synth.reconstruct"),
        "synth.letters_per_rotation": count("synth.letters") / sk_calls if sk_calls else 0.0,
        "synth.gates_per_unitary": count("synth.gates") / unitaries if unitaries else 0.0,
        "bb84.session_ms_p50": _percentile(sessions_ms, 50.0),
        "bb84.session_ms_tail": _percentile(sessions_ms, tail_pct),
        "bb84.session_tail_pct": tail_pct,
        "bb84.sessions": len(sessions_ms),
        "cli.self_s": self_s("cli"),
        "trace.overhead_ratio": traced_cost / untraced_cost if untraced_cost else 0.0,
        "trace.untraced_s": statistics.median(c for c, _, _ in untraced),
        "trace.traced_s": statistics.median(c for c, _, _ in traced),
        "trace.rounds": len(traced),
        "host.reference_s": speed.median(),
    }
    for fn in ("apply_superoperator", "measurement_probabilities", "conjugate_density",
               "partial_trace", "embed"):
        m[f"core.{fn}_s"] = incl(f"core.{fn}")
        m[f"core.{fn}_calls"] = calls(f"core.{fn}")
    for layer in SELF_LAYERS:
        m[f"layer.{layer}.self_s"] = self_s(layer)
    for name in inputs.CHECK_PROGRAMS:
        m[f"check.{name}_s"] = statistics.median(check_times[name]) if name in check_times else 0.0

    first_spans, _, first_replay = rounds_spans[0]
    extra = {
        "unwrapped": sorted(set().union(*(t.missing for t in tracers))),
        "setup_spans": setup_spans,
        "spans": first_spans,
        "replay_spans": first_replay.spans if first_replay is not None else [],
    }
    return m, extra


def _tail_percentile(n: int) -> float:
    """The highest of a fixed ladder of percentiles with at least ten
    samples beyond it."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 0.0


def _percentile(sorted_values: list[float], pct: float) -> float:
    if not sorted_values or pct <= 0.0:
        return 0.0
    return float(np.percentile(sorted_values, pct))
