"""The command line: byte-identical output for a fixed seed, errors with a
position, stable distribution output, input checks, and the options each
experiment accepts."""
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qwhile.cli
import qwhile.lang.checker
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


def test_distribution_mode_refuses_csv(tmp_path, capsys):
    path = tmp_path / "coin.qw"
    path.write_text(program_source("coin"))
    code, out, err = cli(capsys, "run", str(path), "--mode", "distribution",
                         "--format", "csv", "--out", str(tmp_path / "coin.csv"))
    assert (code, out) == (1, "")
    assert err == "error: --format csv needs --mode sampled; distribution mode writes text or json\n"
    assert not (tmp_path / "coin.csv").exists()


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
    return {"qw": str(qloop), "matrix": str(matrix), "fqasm": str(tmp_path / "qloop.fqasm")}


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
