"""The command line: byte-identical output for a fixed seed, errors with a
position, stable distribution output, input checks, and the options each
experiment accepts."""
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qwhile.cli
import qwhile.lang.checker
import qwhile.synth.pipeline
from qwhile.engine import DistributionResult
from qwhile.experiments import program_names, program_source
from qwhile.lang.parser import KEYWORDS


def cli(capsys, *argv) -> tuple[int, str, str]:
    code = qwhile.cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def numbers(node):
    if isinstance(node, list):
        for item in node:
            yield from numbers(item)
    else:
        yield node


@pytest.mark.parametrize("name", program_names())
def test_distribution_json_is_rounded_and_has_no_negative_zero(name, tmp_path, capsys):
    path = tmp_path / f"{name}.qw"
    path.write_text(program_source(name))
    argv = ("run", str(path), "--mode", "distribution", "--format", "json")
    code, text, _ = cli(capsys, *argv)
    assert code == 0
    assert cli(capsys, *argv)[1] == text
    payload = json.loads(text)
    assert payload["residual"] == round(payload["residual"], 12)
    assert payload["terminals"]
    for terminal in payload["terminals"]:
        assert terminal["weight"] == round(terminal["weight"], 12)
        for x in numbers(terminal["state"]):
            assert x == round(x, 9)
            assert not (x == 0.0 and math.copysign(1.0, x) < 0.0)  # no -0.0


@pytest.mark.parametrize("name", ["grover8", "coin", "qloop"])
def test_distribution_listing_ignores_terminal_order_and_weight_noise(
        name, tmp_path, capsys, monkeypatch):
    # terminals are listed by printed weight, then printed state: neither
    # their order nor noise below the printed precision moves a line
    path = tmp_path / f"{name}.qw"
    path.write_text(program_source(name))
    argv = ("run", str(path), "--mode", "distribution", "--format", "json")
    code, want, _ = cli(capsys, *argv)
    assert code == 0 and len(json.loads(want)["terminals"]) > 1
    text = cli(capsys, *argv[:-1], "text")[1]
    run_distribution = qwhile.cli.run_distribution
    rng = np.random.default_rng(17)
    for _ in range(4):
        def noisy(*args, **kwargs):
            dist = run_distribution(*args, **kwargs)
            terminals = [(w + rng.choice([-1e-15, 0.0, 1e-15]), s)
                         for w, s in dist.terminals]
            return DistributionResult([terminals[i] for i in rng.permutation(len(terminals))],
                                      dist.residual, dist.step_limited, dist.node_limited)
        monkeypatch.setattr(qwhile.cli, "run_distribution", noisy)
        assert cli(capsys, *argv) == (0, want, "")
        assert cli(capsys, *argv[:-1], "text") == (0, text, "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["run", "compile"])
def test_overflowing_literal_is_one_error_line(command, tmp_path, capsys):
    # 1e999 reads as inf; the residual is decided without a matrix product,
    # so numpy warns of nothing
    path = tmp_path / "bad.qw"
    path.write_text("q : qubit;\ngate G = [[1e999, 0], [0, 1]];\nG[q];\n")
    code, out, err = cli(capsys, command, str(path), "--out", str(tmp_path / "bad.out"))
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: line 2, col 6: NotUnitary at gate G: "
                   "gate 'G' is not unitary (residual inf)\n")


def test_synthesize_rejects_a_non_unitary_matrix(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[[1, 0], [1, 0]], [[0, 0], [1, 0]]]))
    code, out, err = cli(capsys, "synthesize", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: synthesis input is not unitary (residual 1.618e+00")


def test_synthesize_accepts_a_unitary_matrix(tmp_path, capsys):
    path = tmp_path / "h.json"
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    path.write_text(json.dumps([[[float(z), 0.0] for z in row] for row in h]))
    code, out, _ = cli(capsys, "synthesize", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sequence"] == [["H", [0]]]
    assert payload["reconstruction_error"] <= 1e-10


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    (b"[[1, 0], [0, 1]", "not JSON: "),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
])
def test_synthesize_refuses_an_unreadable_or_non_json_file(content, message, tmp_path, capsys):
    path = tmp_path / "u.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = cli(capsys, "synthesize", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("method", ["qr", "qsd"])
@pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1e-3"])
def test_synthesize_refuses_an_epsilon_that_is_not_finite_and_positive(
        method, epsilon, tmp_path, capsys, monkeypatch):
    # H needs no rotation, so only the up-front check can refuse epsilon 0
    path = tmp_path / "h.json"
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    path.write_text(json.dumps([[[float(z), 0.0] for z in row] for row in h]))
    # refused before any work: not even the input's unitarity is checked
    monkeypatch.setattr(qwhile.synth.pipeline, "require_unitary", None)
    code, out, err = cli(capsys, "synthesize", str(path), "--method", method,
                         f"--epsilon={epsilon}", "--format", "json")
    assert (code, out) == (1, "")
    assert err == f"error: epsilon must be a finite positive number, got {float(epsilon)!r}\n"


@pytest.mark.parametrize("method", ["qr", "qsd"])
def test_synthesize_refuses_a_one_by_one_matrix(method, tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps([[[1.0, 0.0]]]))
    code, out, err = cli(capsys, "synthesize", str(path), "--method", method)
    assert (code, out) == (1, "")
    assert err == "error: synthesis input is 1x1; it needs at least one qubit\n"


@pytest.mark.parametrize("argv", [("bb84-sweep", "--sessions", "-1"),
                                  ("bb84", "--sessions", "0")])
def test_bb84_refuses_fewer_than_one_session(argv, capsys):
    code, out, err = cli(capsys, "experiment", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: need at least one session, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [("--n", "0"), ("--n", "0", "--targets", "0"),
                                  ("--n", "-2")])
def test_grover_refuses_fewer_than_one_qubit(argv, capsys):
    code, out, err = cli(capsys, "experiment", "grover", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: Grover search needs at least one qubit, got {argv[1]}\n"


def test_distribution_mode_refuses_csv(tmp_path, capsys):
    path = tmp_path / "coin.qw"
    path.write_text(program_source("coin"))
    code, out, err = cli(capsys, "run", str(path), "--mode", "distribution",
                         "--format", "csv", "--out", str(tmp_path / "coin.csv"))
    assert (code, out) == (1, "")
    assert err == "error: --format csv needs --mode sampled; distribution mode writes text or json\n"
    assert not (tmp_path / "coin.csv").exists()


@pytest.mark.parametrize("options, message", [
    (("--mode", "distribution", "--mass-threshold", "nan"), "mass threshold must be at least 0, got nan"),
    (("--mode", "distribution", "--mass-threshold", "-1"), "mass threshold must be at least 0, got -1.0"),
    (("--mode", "distribution", "--step-limit", "-3"), "step limit must be at least 1, got -3"),
    (("--mode", "distribution", "--step-limit", "0"), "step limit must be at least 1, got 0"),
    (("--mode", "sampled", "--step-limit", "0"), "step limit must be at least 1, got 0"),
    (("--mode", "sampled", "--step-limit", "-1"), "step limit must be at least 1, got -1"),
])
def test_run_refuses_a_limit_out_of_range(options, message, tmp_path, capsys):
    path = tmp_path / "qloop.qw"
    path.write_text(program_source("qloop"))
    code, out, err = cli(capsys, "run", str(path), *options)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


SEEDED = [("run", "{qw}", "--shots", "3"), ("experiment", "qloop", "--shots", "3"),
          ("experiment", "bb84", "--n", "8", "--sessions", "1"),
          ("experiment", "bb84-multi", "--n", "8", "--clients", "1"),
          ("experiment", "bb84-sweep", "--sessions", "1"),
          ("experiment", "grover", "--n", "3")]


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
@pytest.mark.parametrize("command", SEEDED, ids=lambda argv: " ".join(argv[:2]))
def test_a_seed_outside_64_bits_is_refused(command, seed, tmp_path, capsys):
    # masked to 64 bits, 2**64 would run the stream of seed 0 and -1 that of 2**64 - 1
    path = tmp_path / "qloop.qw"
    path.write_text(program_source("qloop"))
    argv = [arg.format(qw=path) for arg in command]
    code, out, err = cli(capsys, *argv, "--seed", seed)
    assert (code, out) == (1, "")
    assert err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert cli(capsys, *argv, "--seed", "18446744073709551615")[0] == 0  # the widest seed runs


# --- the same seed gives the same bytes --------------------------------------------


def _haar_1q(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def files(tmp_path):
    """Input files of every subcommand, by name."""
    qloop = tmp_path / "qloop.qw"
    qloop.write_text(program_source("qloop"))
    matrix = tmp_path / "u.json"
    matrix.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in _haar_1q(3)]))
    return {"qw": str(qloop), "matrix": str(matrix), "fqasm": str(tmp_path / "qloop.fqasm"),
            "dist": str(tmp_path / "qloop.txt"), "gates": str(tmp_path / "u.txt"),
            "csv": str(tmp_path / "sweep.csv")}


@pytest.mark.parametrize("argv", [
    ("run", "{qw}", "--shots", "5"),
    ("run", "{qw}", "--mode", "distribution", "--format", "json"),
    ("compile", "{qw}"),
    ("compile", "{qw}", "--check"),
    ("synthesize", "{matrix}", "--method", "qr", "--epsilon", "1e-2"),
    ("synthesize", "{matrix}", "--epsilon", "1e-2", "--format", "json"),
    ("experiment", "bb84-sweep", "--sessions", "1"),
])
def test_an_unwritable_out_path_is_one_error_line(argv, files, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    code, _, err = cli(capsys, *[arg.format(**files) for arg in argv], "--out", str(out))
    assert (code, err) == (1, f"error: {out}: No such file or directory\n")
    assert not out.parent.exists()


def test_synthesize_json_is_the_same_bytes_on_stdout_and_in_the_file(files, tmp_path, capsys):
    argv = ("synthesize", files["matrix"], "--method", "qr", "--epsilon", "1e-2",
            "--format", "json")
    code, printed, _ = cli(capsys, *argv)
    assert code == 0
    expected = json.dumps(json.loads(printed), indent=2, sort_keys=True) + "\n"
    assert printed == expected
    out = tmp_path / "seq.json"
    code, printed, _ = cli(capsys, *argv, "--out", str(out))
    assert (code, printed) == (0, f"wrote {out}\n")
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("argv", [
    ("run", "{qw}", "--shots", "50", "--seed", "4"),
    ("run", "{qw}", "--shots", "50", "--seed", "4", "--format", "json"),
    ("run", "{qw}", "--shots", "50", "--seed", "4", "--format", "csv"),
    ("run", "{qw}", "--mode", "distribution"),
    ("compile", "{qw}", "--check", "--out", "{fqasm}"),
    ("synthesize", "{matrix}", "--method", "qr", "--epsilon", "1e-2"),
    ("synthesize", "{matrix}", "--method", "qsd", "--epsilon", "1e-2"),
    ("experiment", "qloop", "--shots", "200", "--seed", "5"),
    ("experiment", "bb84", "--n", "32", "--sessions", "3", "--seed", "5"),
    ("experiment", "bb84-multi", "--n", "32", "--clients", "3", "--seed", "5"),
    ("experiment", "bb84-sweep", "--sessions", "1", "--seed", "5"),
    ("experiment", "grover", "--n", "4", "--targets", "3", "9", "--mode", "multi", "--seed", "5"),
])
def test_same_seed_same_output(argv, files, capsys):
    argv = [arg.format(**files) for arg in argv]
    first = cli(capsys, *argv)
    written = Path(files["fqasm"]).read_text() if "compile" in argv else None
    assert first[0] == 0 and first[1]
    assert cli(capsys, *argv) == first
    if written is not None:
        assert Path(files["fqasm"]).read_text() == written


# --- every .qw error exits 1 at a line and column --------------------------------------


@pytest.mark.parametrize("source, line, col", [
    ("q : qubit;\nH[q]\n", 3, 1),                                                 # syntax
    ("q : qubit;\nX[e];\n", 2, 3),                                                # undeclared
    ("q : qubit;\nCNOT[q];\n", 2, 1),                                             # dimension
    ("q : qubit;\nmeasure M = computational;\nif M[q] = 2 -> skip; fi;\n", 3, 4),  # outcome
    ("q : qubit;\ngate G = [[1, 1], [0, 1]];\nH[q];\n", 2, 6),                    # non-unitary
    ("q : qubit;\nmeasure M = {[[1, 0], [0, 0]]};\nH[q];\n", 2, 9),               # incomplete
    ("q : qubit[7];\ne : qubit[6];\nH[q];\n", 2, 1),                              # 13 qubits
])
@pytest.mark.parametrize("command", ["run", "compile"])
def test_qw_errors_exit_1_with_a_position(command, source, line, col, tmp_path, capsys):
    path = tmp_path / "bad.qw"
    path.write_text(source)
    code, out, err = cli(capsys, command, str(path), "--out", str(tmp_path / "bad.out"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: line {line}, col {col}: ")
    assert not (tmp_path / "bad.out").exists()


# A word either text form reads as syntax, declared as a `.qw` gate, would
# compile to f-QASM that reads differently; it is rejected where declared.
RESERVED_WORDS = sorted(KEYWORDS) + [
    "QREG", "CREG", "GATE", "MEASURE", "INIT", "MOV", "CMP", "JMP", "JE", "APPLY",
    "hGate", "xGate", "zGate", "iGate", "tGate", "sGate", "cnotGate",
]


@pytest.mark.parametrize("word", RESERVED_WORDS)
def test_reserved_gate_name_exits_1_at_its_declaration(word, tmp_path, capsys):
    path = tmp_path / "bad.qw"
    path.write_text(f"q : qubit;\ngate {word} = X;\n{word}[q];\n")
    code, out, err = cli(capsys, "compile", str(path), "--check",
                         "--out", str(tmp_path / "bad.fqasm"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: line 2, col 6: BadName at gate {word}: ")


# --- each program is checked once ----------------------------------------------------


@pytest.mark.parametrize("command, residuals, passes", [
    (("compile", "{qw}", "--check", "--out", "{fqasm}"), 6, 1),
    (("run", "{qw}"), 3, 0),
])
def test_grover8_is_checked_once(command, residuals, passes, tmp_path, capsys, monkeypatch):
    """`parse` checks the program's 3 gates; `compile --check` checks them
    once more, in the f-QASM text it reads back (`parse_fqasm` does not
    check, so `prepare_vm` does)."""
    path = tmp_path / "grover8.qw"
    path.write_text(program_source("grover8"))
    calls = Counter()
    for name in ("unitary_residual", "validate_program"):
        def wrapper(*args, _fn=getattr(qwhile.lang.checker, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(qwhile.lang.checker, name, wrapper)
    argv = [arg.format(qw=path, fqasm=tmp_path / "grover8.fqasm") for arg in command]
    assert cli(capsys, *argv)[0] == 0
    assert (calls["unitary_residual"], calls["validate_program"]) == (residuals, passes)


# --- each experiment accepts exactly the options it reads ------------------------------


EXPERIMENT_OPTIONS = {
    "qloop": {"--shots", "--seed"},
    "bb84": {"--n", "--channel", "--fraction", "--sessions", "--seed"},
    "bb84-multi": {"--clients", "--n", "--seed"},
    "bb84-sweep": {"--sessions", "--seed", "--out"},
    "grover": {"--n", "--targets", "--mode", "--seed"},
}
# a value each option parses, so a refusal is about the option, not its value
OPTION_VALUES = {"--shots": "10", "--seed": "1", "--n": "3", "--channel": "identity",
                 "--fraction": "0.5", "--sessions": "1", "--clients": "2",
                 "--targets": "5", "--mode": "single", "--out": "out.csv"}
REFUSED_SLOTS = [(name, option) for name in EXPERIMENT_OPTIONS for option in OPTION_VALUES
                 if option not in EXPERIMENT_OPTIONS[name]]


@pytest.mark.parametrize("name, option", REFUSED_SLOTS)
def test_an_option_the_experiment_does_not_read_is_refused(name, option, capsys):
    with pytest.raises(SystemExit) as exit_:
        qwhile.cli.main(["experiment", name, option, OPTION_VALUES[option]])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {option} " in err


@pytest.mark.parametrize("name", EXPERIMENT_OPTIONS)
def test_help_lists_exactly_the_options_the_experiment_reads(name, capsys):
    with pytest.raises(SystemExit) as exit_:
        qwhile.cli.main(["experiment", name, "--help"])
    assert exit_.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == EXPERIMENT_OPTIONS[name] | {"--help"}


def test_grover_runs_with_its_defaults(capsys):
    code, out, _ = cli(capsys, "experiment", "grover")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n_qubits"], payload["targets"], payload["mode"]) == (3, [5], "single")
    assert payload["found"] == [5]


def test_an_unknown_channel_is_refused_with_the_channel_names(capsys):
    code, out, err = cli(capsys, "experiment", "bb84", "--channel", "nope")
    assert (code, out) == (1, "")
    assert err == ("error: unknown channel 'nope'; choose from identity, bit_flip_p025, "
                   "bit_flip_p05, bit_flip_p075, depolarizing_p05, amplitude_damping_g05\n")


# --- cold start: each command loads only the layers it runs ----------------------

# In a fresh interpreter: import the CLI, run one command (none without
# arguments), then print its exit code and the scipy and qwhile modules
# loaded.
COLD_START = ("import json, sys\n"
              "import qwhile.cli\n"
              "code = qwhile.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "print(json.dumps([code, sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('scipy', 'qwhile'))]))\n")


def _fresh_interpreter(script: str, *argv: str):
    """What the last line of the script's output decodes to as JSON, the
    script run by a fresh interpreter with the given arguments."""
    src = str(Path(qwhile.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cold_start(*argv: str) -> tuple[int, list[str]]:
    """The exit code of one CLI command run in a fresh interpreter, and
    the scipy and qwhile modules it loaded."""
    return tuple(_fresh_interpreter(COLD_START, *argv))


def _under(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


# the layers a command does not run, and scipy unless it synthesizes
@pytest.mark.parametrize("argv, unloaded", [
    ((), ("scipy", "qwhile.lang", "qwhile.engine", "qwhile.fqasm", "qwhile.synth",
          "qwhile.experiments")),
    (("run", "{qw}", "--shots", "20"),
     ("scipy", "qwhile.fqasm", "qwhile.synth", "qwhile.experiments")),
    (("compile", "{qw}", "--check", "--out", "{fqasm}"),
     ("scipy", "qwhile.synth", "qwhile.experiments")),
    (("experiment", "qloop", "--shots", "200"),
     ("scipy", "qwhile.fqasm", "qwhile.synth", "qwhile.experiments.bb84",
      "qwhile.experiments.grover")),
    (("experiment", "bb84-sweep", "--sessions", "1", "--out", "{csv}"),
     ("scipy", "qwhile.fqasm", "qwhile.synth", "qwhile.experiments.grover")),
    (("synthesize", "{matrix}", "--epsilon", "1e-1", "--out", "{gates}"),
     ("qwhile.lang", "qwhile.engine", "qwhile.fqasm", "qwhile.experiments")),
], ids=["import", "run", "compile-check", "experiment-qloop", "experiment-bb84-sweep",
        "synthesize"])
def test_each_command_loads_only_the_layers_it_runs(argv, unloaded, files):
    code, modules = cold_start(*[arg.format(**files) for arg in argv])
    assert code == 0
    assert [m for m in modules if _under(m, unloaded)] == []


# In a fresh interpreter: wrap each named attribute (module.attribute)
# with a counter, as perfbench/tracing.py does, run one command twice,
# then print the exit codes and how often each wrapper was called.
COUNTED_RUNS = ("import importlib, json, sys\n"
                "import qwhile.cli\n"
                "names, argv = json.loads(sys.argv[1]), sys.argv[2:]\n"
                "calls = dict.fromkeys(names, 0)\n"
                "def counting(name, fn):\n"
                "    def wrapper(*args, **kwargs):\n"
                "        calls[name] += 1\n"
                "        return fn(*args, **kwargs)\n"
                "    return wrapper\n"
                "for name in names:\n"
                "    module, attr = name.rsplit('.', 1)\n"
                "    owner = importlib.import_module(module)\n"
                "    setattr(owner, attr, counting(name, owner.__dict__[attr]))\n"
                "codes = [qwhile.cli.main(argv) for _ in range(2)]\n"
                "print(json.dumps([codes, calls]))\n")

# command -> the entry names it calls, once each
ENTRY_CALLS = {
    ("run", "{qw}", "--shots", "20"): ("qwhile.cli.parse", "qwhile.cli.prepare",
                                       "qwhile.cli.run_shots"),
    ("run", "{qw}", "--mode", "distribution", "--out", "{dist}"): (
        "qwhile.cli.parse", "qwhile.cli.prepare", "qwhile.cli.run_distribution"),
    ("compile", "{qw}", "--check", "--out", "{fqasm}"): (
        "qwhile.cli.parse", "qwhile.cli.compile_program", "qwhile.cli.serialize",
        "qwhile.cli.run_distribution", "qwhile.cli.parse_fqasm",
        "qwhile.cli.vm_distribution", "qwhile.cli.match_distributions"),
    ("synthesize", "{matrix}", "--epsilon", "1e-1", "--out", "{gates}"): (
        "qwhile.cli.synthesize", "qwhile.cli.reconstruct", "qwhile.cli.phase_dist"),
    ("experiment", "qloop", "--shots", "200"): ("qwhile.experiments.qloop_run",),
    ("experiment", "bb84-sweep", "--sessions", "1", "--out", "{csv}"): (
        "qwhile.experiments.bb84_channel_sweep",),
    ("experiment", "bb84", "--n", "64", "--sessions", "2"): (
        "qwhile.experiments.bb84_channel_sweep",),
}


@pytest.mark.parametrize("argv", list(ENTRY_CALLS), ids=" ".join)
def test_each_entry_a_command_calls_is_looked_up_where_the_benchmark_wraps_it(argv, files):
    # from the first call on, even while a layer is still to be loaded: a
    # handler that imported its function itself, or a stand-in that
    # replaced the wrapper, would zero the benchmark's metric of that call
    names = ENTRY_CALLS[argv]
    codes, calls = _fresh_interpreter(COUNTED_RUNS, json.dumps(names),
                                      *[arg.format(**files) for arg in argv])
    assert codes == [0, 0]
    assert calls == dict.fromkeys(names, 2)


def test_the_entry_cases_cover_every_trace_target_of_the_cli_and_experiments():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {f"{module}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if module in ("qwhile.cli", "qwhile.experiments")
               and tracing._lookup(module, attr) is not None}
    assert targets == {name for names in ENTRY_CALLS.values() for name in names}


def test_synthesize_qsd_loads_scipy_on_first_use(tmp_path):
    # three qubits, so the decomposition runs both cossin and schur
    q, r = np.linalg.qr(np.random.default_rng(3).normal(size=(8, 8, 2)) @ [1, 1j])
    u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    path = tmp_path / "u.json"
    path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in u]))
    code, modules = cold_start("synthesize", str(path), "--method", "qsd", "--epsilon", "1e-1")
    assert code == 0 and "scipy.linalg" in modules
