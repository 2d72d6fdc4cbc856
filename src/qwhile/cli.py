"""Command-line front door: run programs, compile to f-QASM, synthesize
unitaries, and reproduce the experiments.

Every randomized command prints the seed it used, so published numbers
are reproducible; identical command lines with identical seeds produce
byte-identical primary outputs. Exit code 0 means no error was
reported. Input the toolchain refuses is one `error:` line and exit code
1; a command line argparse refuses exits with code 2.

`qwhile experiment <name>` has one subcommand per experiment, and each
accepts exactly the options it reads (defaults in brackets):

    qloop       --shots [100000] --seed [0]
    bb84        --n [1024] --channel [identity] --fraction [0.2]
                --sessions [100] --seed [0]
    bb84-multi  --clients [8] --n [1024] --seed [0]
    bb84-sweep  --sessions [100] --seed [0] --out [stdout]
    grover      --n [3] --targets [5] --mode [single] --seed [0]

`--n` is the raw key length for BB84 and the qubit count for Grover. A
`--channel` is one of `experiments.paper_channels()`. `bb84` is one cell
of `bb84-sweep`, so its session seeds are those of the sweep's first
cell.

Each command loads only the layers it runs: `run` loads `lang` and
`engine`, `compile` those and `fqasm`, `synthesize` `core` and `synth`,
and `experiment <name>` the `experiments` package with what that
experiment imports (Qloop is loaded with the package; BB84 and Grover on
first use). Importing this module loads `core` and no other layer. The
functions of the other layers that the commands call (`parse`,
`prepare`, `run_distribution`, `run_shots`, `match_distributions`,
`compile_program`, `serialize`, `parse_fqasm`, `vm_distribution`,
`synthesize`, `reconstruct` and `phase_dist`) are still attributes of
this module, and the handlers look them up here at each call, so that a
profiler can wrap them here. Until its first call each one is a stand-in
that imports its layer (`lazy.on_first_call`).
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .core.linalg import DEFAULT_DISTRIBUTION_STEP_LIMIT, DEFAULT_STEP_LIMIT
from .core.types import DensityOperator
from .errors import QwhileError
from .lazy import on_first_call

parse = on_first_call(globals(), "qwhile.lang", "parse")
prepare = on_first_call(globals(), "qwhile.engine", "prepare")
run_distribution = on_first_call(globals(), "qwhile.engine", "run_distribution")
run_shots = on_first_call(globals(), "qwhile.engine", "run_shots")
match_distributions = on_first_call(globals(), "qwhile.engine", "match_distributions")
compile_program = on_first_call(globals(), "qwhile.fqasm", "compile_program")
serialize = on_first_call(globals(), "qwhile.fqasm", "serialize")
parse_fqasm = on_first_call(globals(), "qwhile.fqasm", "parse_fqasm")
vm_distribution = on_first_call(globals(), "qwhile.fqasm", "vm_distribution")
synthesize = on_first_call(globals(), "qwhile.synth", "synthesize")
reconstruct = on_first_call(globals(), "qwhile.synth", "reconstruct")
phase_dist = on_first_call(globals(), "qwhile.synth", "phase_dist")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load(path: str, decode):
    """decode(text of the file at path); a file that cannot be read or
    decoded is a QwhileError that names the path."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise QwhileError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        return decode(text)
    except QwhileError as exc:
        raise QwhileError(f"{path}: {exc}") from exc


def _emit(write, out: str | None) -> None:
    """Call write(fh) with the file at out open for writing, or with
    stdout; a file that cannot be written is a QwhileError that names
    the path."""
    if not out:
        write(sys.stdout)
        return
    try:
        with open(out, "w") as fh:
            write(fh)
    except OSError as exc:
        raise QwhileError(f"{out}: {exc.strerror or exc}") from exc
    print(f"wrote {out}")


def _write_or_print(text: str, out: str | None) -> None:
    """Write text to the file at out, or print it."""
    if out:
        _emit(lambda fh: fh.write(text), out)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _write_json(payload, out: str | None) -> None:
    """Write payload as indented, key-sorted JSON and a newline to the
    file at out, or to stdout, a piece at a time: the whole text is never
    built."""
    def write(fh) -> None:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _emit(write, out)


def _state_summary(state: DensityOperator, limit: int = 16) -> list:
    """The state's entries up to dimension `limit`, else its diagonal (read
    from the support, so no dense matrix is built)."""
    # adding 0.0 turns a rounded -0.0 into 0.0, so kernel noise does not show
    if state.dim <= limit:
        return [[[round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0] for z in row]
                for row in state.matrix]
    return [round(x, 9) + 0.0 for x in state.diagonal().tolist()]


# --- run ----------------------------------------------------------------------


def cmd_run(args) -> int:
    if args.mode == "distribution" and args.format == "csv":
        raise QwhileError("--format csv needs --mode sampled; "
                          "distribution mode writes text or json")
    program = _load(args.file, parse)
    plan = prepare(program)
    step_limit = args.step_limit
    if step_limit is None:
        step_limit = (DEFAULT_DISTRIBUTION_STEP_LIMIT if args.mode == "distribution"
                      else DEFAULT_STEP_LIMIT)
    if args.mode == "distribution":
        dist = run_distribution(plan, mass_threshold=args.mass_threshold,
                                step_limit=step_limit)
        # listed by printed weight, then printed state, so that noise below
        # the printed precision cannot reorder the lines
        listed = sorted(((round(w, 12), _state_summary(s), w, s.dim)
                         for w, s in dist.terminals),
                        key=lambda t: (-t[0], json.dumps(t[1])))
        payload = {
            "file": args.file,
            "mode": "distribution",
            "terminals": [{"weight": w, "state": state} for w, state, _, _ in listed],
            "residual": round(dist.residual, 12),
            "node_limited": round(dist.node_limited, 12),
        }
        if args.format == "json":
            _write_json(payload, args.out)
        else:
            lines = [f"terminals: {len(listed)}  residual: {dist.residual:.3e}"]
            for _, _, w, dim in listed:
                lines.append(f"  weight {w:.9f}  dim {dim}")
            _write_or_print("\n".join(lines) + "\n", args.out)
        return 0

    stats = run_shots(plan, args.shots, args.seed, step_limit=step_limit)
    if args.format == "json":
        payload = stats.to_json_dict()
        payload["file"] = args.file
        payload["mean_final_state"] = _state_summary(stats.mean_final_state)
        _write_json(payload, args.out)
    elif args.format == "csv":
        rows = ["kind,site,key,count"] + [f"{k},{s},{key},{c}"
                                          for k, s, key, c in stats.to_csv_rows()]
        _write_or_print("\n".join(rows) + "\n", args.out)
    else:
        lines = [f"shots: {stats.shots}  seed: {stats.seed}"]
        for sid, kind, label in stats.site_meta:
            counts = dict(sorted(stats.site_outcomes[sid].items()))
            lines.append(f"site {sid} ({label}): outcomes {counts}")
            if kind == "while":
                hist = dict(sorted(stats.loop_histogram[sid].items()))
                lines.append(f"  circles: {hist}")
                lines.append(f"  shots entering: {stats.shots_entering(sid)}"
                             f"  total entries: {stats.total_entries(sid)}")
        _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


# --- compile ------------------------------------------------------------------


def cmd_compile(args) -> int:
    program = _load(args.file, parse)
    compiled = compile_program(program)
    text = serialize(compiled)
    if args.check:
        lhs = run_distribution(program)
        rhs = vm_distribution(parse_fqasm(text))
        if not match_distributions(lhs, rhs):
            # The executors count steps differently (statements against
            # instructions), so mass cut by the step limit need not agree.
            if lhs.step_limited > 0 or rhs.step_limited > 0:
                return _fail("inconclusive: step limit reached (step-limited mass: "
                             f"program {lhs.step_limited:.6g}, "
                             f"compiled {rhs.step_limited:.6g})")
            if lhs.node_limited > 0 or rhs.node_limited > 0:
                return _fail("inconclusive: node budget reached (node-limited mass: "
                             f"program {lhs.node_limited:.6g}, "
                             f"compiled {rhs.node_limited:.6g})")
            return _fail("cross-engine check failed: program and compiled "
                         "distributions disagree")
        print("check: program and compiled f-QASM agree in distribution mode")
    out = args.out or (str(Path(args.file).with_suffix(".fqasm")))
    _write_or_print(text, out)
    return 0


# --- synthesize -----------------------------------------------------------------


def _decode_matrix(text: str) -> np.ndarray:
    """JSON 2-D array of [re, im] pairs."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QwhileError(f"not JSON: {exc}") from exc
    try:
        return np.array([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError) as exc:
        raise QwhileError("expected a 2-D array of [re, im] pairs") from exc


def cmd_synthesize(args) -> int:
    u = _load(args.matrix, _decode_matrix)
    seq = synthesize(u, method=args.method, epsilon=args.epsilon)
    n = int(np.log2(u.shape[0]))
    err = phase_dist(reconstruct(seq, n), u)
    report = {
        "method": args.method,
        "epsilon": args.epsilon,
        "gates": len(seq.ops),
        "gate_counts": seq.gate_counts,
        "eps_total": seq.eps_total,
        "reconstruction_error": err,
    }
    if args.format == "json":
        payload = dict(report)
        payload["sequence"] = [[op.name, list(op.qubits)] for op in seq.ops]
        _write_json(payload, args.out)
    else:
        lines = [f"{op.name} " + " ".join(f"q{q}" for q in op.qubits) for op in seq.ops]
        _write_or_print("\n".join(lines) + "\n", args.out)
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# --- experiment -----------------------------------------------------------------


def exp_qloop(args) -> int:
    from . import experiments

    result = experiments.qloop_run(args.shots, args.seed)
    print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    return 0


def exp_bb84(args) -> int:
    from . import experiments

    channels = experiments.paper_channels()
    if args.channel not in channels:
        raise QwhileError(f"unknown channel {args.channel!r}; "
                          f"choose from {', '.join(channels)}")
    [cell] = experiments.bb84_channel_sweep({args.channel: channels[args.channel]},
                                            (args.n,), (args.fraction,),
                                            args.sessions, args.seed)
    print(json.dumps({"channel": args.channel, "n": args.n,
                      "fraction": args.fraction, "sessions": args.sessions,
                      "seed": args.seed, "successes": cell.successes},
                     indent=2, sort_keys=True))
    return 0


def exp_bb84_multi(args) -> int:
    from . import experiments

    transcripts = experiments.bb84_multi_client(args.clients, args.n, args.seed)
    print(json.dumps({
        "clients": args.clients, "n": args.n, "seed": args.seed,
        "verdicts": [t.verdict for t in transcripts],
        "sifted_lengths": [t.sifted_length for t in transcripts],
    }, indent=2, sort_keys=True))
    return 0


def exp_bb84_sweep(args) -> int:
    from . import experiments

    cells = experiments.bb84_channel_sweep(sessions=args.sessions, seed=args.seed)
    _write_or_print(experiments.sweep_csv(cells), args.out)
    return 0


def exp_grover(args) -> int:
    from . import experiments

    spec = experiments.GroverSpec(args.n, tuple(args.targets))
    result = experiments.grover_run(spec, args.mode, seed=args.seed)
    print(json.dumps({
        "n_qubits": args.n, "targets": sorted(args.targets),
        "mode": args.mode, "seed": args.seed,
        "rounds": [{"oracle_calls": r.oracle_calls, "measured": r.measured,
                    "correct": r.correct,
                    "success_probability": round(r.success_probability, 9)}
                   for r in result.rounds],
        "found": result.found,
        "oracle_calls_total": result.oracle_calls_total,
    }, indent=2, sort_keys=True))
    return 0


_SEED = ("--seed", dict(type=int, default=0))
_SESSIONS = ("--sessions", dict(type=int, default=100))
_KEY_LENGTH = ("--n", dict(type=int, default=1024, help="raw key length"))

# name -> (handler, summary, (flag, add_argument keywords) of each option the
# handler reads); the experiment's subcommand accepts exactly these options.
_EXPERIMENTS = {
    "qloop": (exp_qloop, "Qloop: the measured loop behind a decaying channel", (
        ("--shots", dict(type=int, default=100_000)), _SEED)),
    "bb84": (exp_bb84, "BB84 sessions over one channel", (
        _KEY_LENGTH,
        ("--channel", dict(default="identity", help="a channel of the sweep")),
        ("--fraction", dict(type=float, default=0.2, help="sampling fraction")),
        _SESSIONS, _SEED)),
    "bb84-multi": (exp_bb84_multi, "one Alice against several Bobs", (
        ("--clients", dict(type=int, default=8)), _KEY_LENGTH, _SEED)),
    "bb84-sweep": (exp_bb84_sweep, "BB84 success counts over channels, key lengths "
                   "and fractions", (
        _SESSIONS, _SEED, ("--out", dict(help="CSV file (default: stdout)")))),
    "grover": (exp_grover, "Grover search, single or multi round", (
        # 3 qubits is the smallest register that holds the default target
        ("--n", dict(type=int, default=3, help="qubit count")),
        ("--targets", dict(type=int, nargs="+", default=[5])),
        ("--mode", dict(choices=("single", "multi"), default="single")),
        _SEED)),
}


# --- argument wiring --------------------------------------------------------------


@cache  # once per process, however often main runs; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qwhile",
                                  description="quantum while-language toolchain")
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a .qw program")
    run.add_argument("file")
    run.add_argument("--shots", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--mode", choices=("sampled", "distribution"), default="sampled")
    run.add_argument("--format", choices=("text", "json", "csv"), default="text")
    run.add_argument("--step-limit", type=int, default=None,
                     help=f"default {DEFAULT_STEP_LIMIT} sampled, "
                          f"{DEFAULT_DISTRIBUTION_STEP_LIMIT} in distribution mode")
    run.add_argument("--mass-threshold", type=float, default=1e-6)
    run.add_argument("--out")
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compile", help="compile a .qw program to f-QASM")
    comp.add_argument("file")
    comp.add_argument("--out")
    comp.add_argument("--check", action="store_true",
                      help="verify compiled output against the interpreter")
    comp.set_defaults(func=cmd_compile)

    syn = sub.add_parser("synthesize", help="decompose a unitary into basic gates")
    syn.add_argument("matrix", help="JSON file: 2-D array of [re, im] pairs")
    syn.add_argument("--method", choices=("qr", "qsd"), default="qsd")
    syn.add_argument("--epsilon", type=float, default=1e-3)
    syn.add_argument("--format", choices=("text", "json"), default="text")
    syn.add_argument("--out")
    syn.set_defaults(func=cmd_synthesize)

    exp = sub.add_parser("experiment", help="run a built-in experiment")
    names = exp.add_subparsers(dest="name", required=True)
    for name, (handler, summary, options) in _EXPERIMENTS.items():
        cmd = names.add_parser(name, help=summary)
        for flag, kwargs in options:
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(func=handler)
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QwhileError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
