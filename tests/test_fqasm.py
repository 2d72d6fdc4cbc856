"""The compiler cross-check: f-QASM text round trips, `compile --check`,
the f-QASM parser and VM, and agreement of the two executors."""
import json
import math
import time
from functools import partial

import numpy as np
import pytest

import qwhile.cli
from qwhile.engine import DistributionResult, match_distributions, run_distribution, run_shot
from qwhile.engine import runtime
from qwhile.engine.runtime import DEFAULT_DISTRIBUTION_STEP_LIMIT
from qwhile.errors import (
    DuplicateLabel,
    DuplicateName,
    FqasmSyntaxError,
    IncompleteMeasurement,
    NotUnitary,
    ParseError,
    QwhileError,
    StepLimitExceeded,
    UndeclaredName,
    UninitializedRegisterRead,
    UnknownLabel,
    UnknownRegister,
)
from qwhile.experiments import grover_source, program_names, program_source
from qwhile.fqasm import (
    FqasmProgram, Jmp, Label, check_wellformed, compile_program, parse_fqasm, serialize,
    vm_distribution, vm_run,
)
from qwhile.fqasm.text import _FqasmParser
from qwhile.lang import parse
from qwhile.lang.parser import tokenize

from genprog import random_program

AGREEMENT = "check: program and compiled f-QASM agree in distribution mode"


@pytest.fixture(params=program_names())
def bundled(request, tmp_path):
    """(name, path) of a bundled program written to a temporary file."""
    path = tmp_path / f"{request.param}.qw"
    path.write_text(program_source(request.param))
    return request.param, path


def test_serialized_text_is_a_fixpoint(bundled):
    name, _ = bundled
    text = serialize(compile_program(parse(program_source(name))))
    assert serialize(parse_fqasm(text)) == text


def test_compile_check_agrees(bundled, tmp_path, capsys):
    name, path = bundled
    out = tmp_path / f"{name}.fqasm"
    assert qwhile.cli.main(["compile", str(path), "--check", "--out", str(out)]) == 0
    assert AGREEMENT in capsys.readouterr().out.splitlines()
    assert out.read_text() == serialize(compile_program(parse(program_source(name))))


def test_compile_check_reports_disagreement(bundled, tmp_path, capsys, monkeypatch):
    # the VM side loses all of its mass to the residual
    name, path = bundled
    monkeypatch.setattr(qwhile.cli, "vm_distribution",
                        lambda prog: DistributionResult([], 1.0))
    out = tmp_path / f"{name}.fqasm"
    assert qwhile.cli.main(["compile", str(path), "--check", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert AGREEMENT not in captured.out
    assert "cross-engine check failed" in captured.err
    assert not out.exists()


# --- one grammar for matrix literals ------------------------------------------


@pytest.mark.parametrize("literal, col, message", [
    ("[[1.0, 0.0], [0.0]]", 8, "matrix rows have unequal lengths"),
    ("[[1.0, 0.0], [0.0, 1.0]", 31, "expected ']', found ';'"),
    ("[[1.0, 0.0], [0.0, 1.0 2.0]]", 31, "expected ']', found '2.0'"),
    ("[[1.0, 0.0], [0.0, +]]", 28, "expected number, found ']'"),
    ("[1.0]", 9, "expected matrix row, found '1.0'"),
])
def test_matrix_literal_errors_carry_position(literal, col, message):
    with pytest.raises(FqasmSyntaxError) as exc:
        parse_fqasm(f"QREG q1 1;\nGATE G {literal};\n")
    assert (exc.value.line, exc.value.column, exc.value.message) == (2, col, message)
    # the .qw parser reads the same literal with the same grammar
    with pytest.raises(ParseError) as qw:
        parse(f"q : qubit;\ngate G = {literal};\n")
    assert (qw.value.line, qw.value.column - 2, qw.value.message) == (2, col, message)


def test_matrix_literal_values():
    prog = parse_fqasm("QREG q1 1;\nGATE G [[0.5-0.5i, -2i], [1e-3+2i, --1]];\n")
    np.testing.assert_array_equal(prog.gates[0].matrix,
                                  [[0.5 - 0.5j, -2j], [1e-3 + 2j, 1.0]])


def test_measure_operators_of_unequal_shape_rejected():
    ops = "{[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0]]}"
    with pytest.raises(FqasmSyntaxError) as exc:
        parse_fqasm(f"QREG q1 1;\nMEASURE M {ops};\n")
    assert (exc.value.line, exc.value.column) == (2, 11)
    assert exc.value.message == "measurement operators must share one square dim"
    with pytest.raises(ParseError) as qw:
        parse(f"q : qubit;\nmeasure M = {ops};\n")
    assert (qw.value.line, qw.value.column, qw.value.message) == (2, 13, exc.value.message)


MULTILINE_GATE = "[[0.0, 1.0],\n          [1.0, 0.0]]"
MULTILINE_OPS = "{[[1, 0],\n   [0, 0]],\n  [[0, 0],\n   [0, 1]]}"


@pytest.mark.parametrize("text, error, line, col, message", [
    (f"q : qubit;\ngate G = {MULTILINE_GATE} junk;\nG[q];\n",
     ParseError, 3, 23, "expected ';', found 'junk'"),
    (f"q : qubit;\ngate G = {MULTILINE_GATE};\nmeasure M = {MULTILINE_OPS};\nG[q];\nq := |0>; @\n",
     ParseError, 9, 11, "unexpected character '@'"),
    (f"q : qubit;\nmeasure M = {MULTILINE_OPS};\nif M[q] = 0 -> skip; fi\n",
     ParseError, 7, 1, "expected ';', found 'end of input'"),
    ("q : qubit;\ngate G = [[0.0, 1.0],\n   [1.0 0.0]];\n",
     ParseError, 3, 9, "expected ']', found '0.0'"),
    ("q : qubit;\ngate G = [[0.0, 1.0], // X\n   [1.0, 0.0]];\nG[q]; G[r];\n",
     UndeclaredName, 4, 9, "undeclared register 'r'"),
    (f"QREG q1 1;\nGATE G {MULTILINE_GATE} junk;\n",
     FqasmSyntaxError, 3, 23, "expected ';', found 'junk'"),
    (f"QREG q1 1;\nGATE G {MULTILINE_GATE};\nMEASURE M {MULTILINE_OPS};\n\nhGate(q1,0);\nG(q1,1) ;;\n",
     FqasmSyntaxError, 10, 10, "expected a command, found ';'"),
    (f"QREG q1 1;\nMEASURE M {MULTILINE_OPS}\nINIT(q1);\n",
     FqasmSyntaxError, 6, 1, "expected ';', found 'INIT'"),
])
def test_errors_after_multiline_literals_keep_their_position(text, error, line, col, message):
    # positions as the token-by-token lexer gave them before literals were spans
    with pytest.raises(error) as exc:
        (parse_fqasm if text.startswith("QREG") else parse)(text)
    assert type(exc.value) is error
    assert (exc.value.line, exc.value.column, exc.value.message) == (line, col, message)


def test_nine_qubit_grover_text_round_trip():
    text = serialize(compile_program(parse(grover_source(9, (5,)))))
    assert serialize(parse_fqasm(text)) == text


# --- the shared kernel table ----------------------------------------------------


def test_non_unitary_gate_rejected():
    prog = parse_fqasm("QREG q1 1;\nGATE G [[1.0, 1.0], [0.0, 1.0]];\n\n"
                       "hGate(q1,0);\nG(q1,1);\n")
    with pytest.raises(NotUnitary, match="gate 'G'"):
        vm_distribution(prog)
    with pytest.raises(NotUnitary, match="gate 'G'"):
        vm_run(prog, seed=0)


def test_incomplete_measurement_rejected():
    prog = parse_fqasm("QREG q1 1;\nCREG r1;\n"
                       "MEASURE M {[[1.0, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.0, 0.5]]};\n\n"
                       "MOV(r1,{M}(q1));\n")
    with pytest.raises(IncompleteMeasurement, match="measurement 'M'"):
        vm_distribution(prog)
    with pytest.raises(IncompleteMeasurement, match="measurement 'M'"):
        vm_run(prog, seed=0)


def test_declarations_are_checked_even_when_never_applied():
    # as in .qw, where validate_program checks every declaration
    gate = "GATE G [[1.0, 1.0], [0.0, 1.0]];\n"
    meas = "MEASURE M {[[1.0, 0.0], [0.0, 0.0]]};\n"
    for decl, error in ((gate, NotUnitary), (meas, IncompleteMeasurement)):
        prog = parse_fqasm(f"QREG q1 1;\n{decl}\nhGate(q1,0);\n")
        with pytest.raises(error):
            vm_run(prog, seed=0)
    with pytest.raises(QwhileError, match="NotUnitary at gate G"):
        run_shot(parse(f"q : qubit;\ngate G = [[1.0, 1.0], [0.0, 1.0]];\nH[q];\n"), seed=0)


# --- the step limit in compile --check ------------------------------------------

# 0.01 rad rotation with the exact digits of math.cos / math.sin
SLOW_LOOP = (
    "q : qubit;\n"
    f"gate R = [[{math.cos(0.01)!r}, {-math.sin(0.01)!r}], "
    f"[{math.sin(0.01)!r}, {math.cos(0.01)!r}]];\n"
    "measure M = computational;\n"
    "q := |0>;\nX[q];\n"
    "while M[q] = 1 do R[q]; od;\n"
)


def test_step_limit_makes_compile_check_inconclusive(tmp_path, capsys):
    # The loop continues with probability cos^2(0.01) per round, so both
    # executors stop on the step limit: the interpreter after about 5000
    # rounds of 2 statements, the VM after about 1666 of 6 instructions.
    # The interpreter's 10,000 steps are the init, X and 4999 guard
    # checks, the first of which is certain.
    program = parse(SLOW_LOOP)
    lhs = run_distribution(program)
    rhs = vm_distribution(compile_program(program))
    assert lhs.step_limited == pytest.approx(math.cos(0.01) ** (2 * 4998), rel=1e-9)
    assert lhs.residual == lhs.step_limited
    assert rhs.step_limited > lhs.step_limited
    assert lhs.merged().step_limited == lhs.step_limited
    path = tmp_path / "slow.qw"
    path.write_text(SLOW_LOOP)
    assert qwhile.cli.main(["compile", str(path), "--check", "--out",
                            str(tmp_path / "slow.fqasm")]) == 1
    err = capsys.readouterr().err
    assert "inconclusive: step limit reached" in err
    assert "cross-engine check failed" not in err
    assert f"program {lhs.step_limited:.6g}" in err
    assert f"compiled {rhs.step_limited:.6g}" in err


def test_truncation_by_mass_is_not_step_limited():
    dist = run_distribution(parse(program_source("qloop")))
    assert 0 < dist.residual < 1e-6
    assert dist.step_limited == 0.0


def test_distribution_json_has_no_step_limited_field(tmp_path, capsys):
    path = tmp_path / "slow.qw"
    path.write_text(SLOW_LOOP)
    assert qwhile.cli.main(["run", str(path), "--mode", "distribution",
                            "--format", "json", "--step-limit", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["file", "mode", "node_limited", "residual", "terminals"]


def test_run_distribution_uses_the_distribution_step_limit(tmp_path, capsys):
    # without --step-limit, `run --mode distribution` truncates where
    # run_distribution and compile --check do (10,000 steps), not at the
    # sampled default of 10**6
    path = tmp_path / "slow.qw"
    path.write_text(SLOW_LOOP)
    assert qwhile.cli.main(["run", str(path), "--mode", "distribution", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = run_distribution(parse(SLOW_LOOP))
    assert expected.step_limited > 0.5
    assert payload["residual"] == round(expected.residual, 12)  # printed to 12 digits


# --- the node budget of distribution mode ----------------------------------------


def test_node_budget_ends_a_frontier_that_keeps_growing():
    # The 17th generated program nests `while M[q] = 1` loops behind H and
    # ends in a loop that cannot exit once q2 is |1>: its frontier grows
    # until the budget (100,000 expanded configurations at the default step
    # limit) cuts it.
    rng = np.random.default_rng(5)
    program = [random_program(rng) for _ in range(17)][-1]
    start = time.perf_counter()
    dist = run_distribution(program)
    assert time.perf_counter() - start < 30.0
    assert dist.node_limited > 0
    assert dist.residual >= dist.node_limited
    assert sum(w for w, _ in dist.terminals) + dist.residual == pytest.approx(1.0, abs=1e-9)


def test_a_long_loop_is_cut_by_the_step_limit_it_was_given(tmp_path, capsys):
    # SLOW_LOOP does not branch except to exit, so however many steps it is
    # given, the step limit and not the node budget ends it
    path = tmp_path / "slow.qw"
    path.write_text(SLOW_LOOP)
    assert qwhile.cli.main(["run", str(path), "--mode", "distribution", "--format", "json",
                            "--step-limit", "110000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["node_limited"] == 0.0
    assert payload["residual"] == pytest.approx(math.cos(0.01) ** (2 * 54998), rel=1e-9)


# eight rounds of H and a measurement: 256 branches of one length
FORKS = ("q : qubit;\nmeasure M = computational;\nq := |0>;\n"
         + "H[q];\nif M[q] = 0 -> skip; [] 1 -> skip; fi;\n" * 8)


@pytest.mark.parametrize("step_limit", [60, 80, 100])
def test_node_budget_in_both_executors(step_limit):
    # every branch ends within 60 steps in both executors, but the tree
    # needs more than ten branches' worth of expansions
    program = parse(FORKS)
    for dist in (run_distribution(program, step_limit=step_limit),
                 vm_distribution(compile_program(program), step_limit=step_limit)):
        assert dist.node_limited > 0
        assert dist.step_limited == 0.0
        assert sum(w for w, _ in dist.terminals) + dist.residual == pytest.approx(1.0, abs=1e-12)
    unlimited = run_distribution(program)
    assert unlimited.node_limited == unlimited.residual == 0.0
    assert match_distributions(unlimited, vm_distribution(compile_program(program)))


def test_node_budget_makes_compile_check_inconclusive(tmp_path, capsys, monkeypatch):
    # a budget of 8 configurations at the default step limit; the executors
    # count steps differently, so it cuts them at different points and the
    # distributions disagree
    monkeypatch.setattr(runtime, "BRANCH_BUDGET", 8 / DEFAULT_DISTRIBUTION_STEP_LIMIT)
    path = tmp_path / "qloop.qw"
    path.write_text(program_source("qloop"))
    assert qwhile.cli.main(["compile", str(path), "--check",
                            "--out", str(tmp_path / "qloop.fqasm")]) == 1
    err = capsys.readouterr().err
    assert "inconclusive: node budget reached (node-limited mass: program " in err
    assert "cross-engine check failed" not in err
    assert qwhile.cli.main(["run", str(path), "--mode", "distribution", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = run_distribution(parse(program_source("qloop")))
    assert payload["node_limited"] == round(expected.node_limited, 12) > 0


# --- the two executors agree shot for shot ----------------------------------------


def _shot_programs():
    rng = np.random.default_rng(5)
    programs = [(name, parse(program_source(name))) for name in program_names()]
    programs += [(f"genprog{k}", random_program(rng, max_depth=3, max_block=3))
                 for k in range(40)]
    return programs


def test_executors_agree_shot_for_shot():
    # The longest run that halts takes 81 VM steps; a program that does
    # not halt (genprog #22 on seeds 1 and 2) hits any limit on both sides.
    limit = 10_000
    limited = []
    for name, program in _shot_programs():
        compiled = compile_program(program)
        for seed in range(5):
            try:
                a = run_shot(program, seed, step_limit=limit)
            except StepLimitExceeded:
                with pytest.raises(StepLimitExceeded):
                    vm_run(compiled, seed, step_limit=limit)
                limited.append((name, seed))
                continue
            b = vm_run(compiled, seed, step_limit=limit)
            assert [o for _, o in a.outcomes] == [o for _, o in b.outcomes], (name, seed)
            assert np.array_equal(a.final_state.matrix, b.final_state.matrix), (name, seed)
    assert limited == [("genprog22", 1), ("genprog22", 2)]


# --- classical register names -------------------------------------------------------


def test_duplicate_classical_register_rejected():
    text = ("QREG q 1;\nCREG r;\nCREG r;\nMEASURE M computational;\n\n"
            "hGate(q,0);\nMOV(r,{M}(q));\n")
    with pytest.raises(DuplicateName, match="classical register 'r'") as err:
        parse_fqasm(text)
    assert (err.value.line, err.value.column) == (3, 6)


def test_classical_names_are_their_own_namespace():
    # the compiler names classical registers r1, r2, ..., so the .qw
    # register r1 compiles to QREG r1 1 beside CREG r1
    program = parse("r1 : qubit;\nmeasure M = computational;\n"
                    "r1 := |0>;\nH[r1];\nif M[r1] = 1 -> X[r1]; fi;\n")
    text = serialize(compile_program(program))
    assert text.startswith("QREG r1 1;\nCREG r1;\n")
    for seed in range(4):
        a = run_shot(program, seed)
        b = vm_run(parse_fqasm(text), seed)
        assert [o for _, o in a.outcomes] == [o for _, o in b.outcomes]
        assert np.array_equal(a.final_state.matrix, b.final_state.matrix)
    assert match_distributions(run_distribution(program), vm_distribution(parse_fqasm(text)))


@pytest.mark.parametrize("prog, message", [
    (FqasmProgram((("q", 1),), (), (), (Label("QREG"), Jmp("QREG")), ()),
     "BadName at label QREG: name 'QREG' is an f-QASM command"),
    (FqasmProgram((("q", 1),), (), (), (), ("a b",)),
     "BadName at classical register a b: name 'a b' is not an identifier"),
    (FqasmProgram((("q", 1),), (), (), (), ("skip",)),
     "BadName at classical register skip: name 'skip' is a .qw keyword"),
])
def test_labels_and_classical_registers_follow_the_name_rule(prog, message):
    # serialize would write text that parse_fqasm cannot read back
    for use in (check_wellformed, serialize, partial(vm_run, seed=0), vm_distribution):
        with pytest.raises(ParseError, match=message):
            use(prog)


def test_reserved_names_in_text_are_reported_at_the_name():
    for text, line, column in [("QREG q 1;\nINIT(q);\nskip:\n", 3, 1),
                               ("QREG q 1;\nCREG r;\nCREG qubit;\n", 3, 6)]:
        with pytest.raises(ParseError, match="BadName") as err:
            parse_fqasm(text)
        assert (err.value.line, err.value.column) == (line, column)


def test_compiler_labels_and_registers_pass_the_name_rule():
    compiled = compile_program(parse(program_source("paper_loop")))
    labels = [ins.name for ins in compiled.instructions if isinstance(ins, Label)]
    assert labels and compiled.cregs
    assert all(name[0] in "Lr" and name[1:].isdigit() for name in labels + list(compiled.cregs))
    check_wellformed(compiled)
    assert parse_fqasm(serialize(compiled)) == compiled


# --- input-only forms, register reads and well-formedness ------------------------------


HEADER = ("QREG q1 1;\nQREG q2 1;\nCREG r1;\nCREG r2;\nCREG r3;\n"
          "MEASURE M computational;\n\n")


def test_input_forms_read_as_their_canonical_form():
    # q1 := H|0> is measured into r1 and moved to r2; q2 := X|0> measures 1
    # into r3. CMP of two registers skips the final X iff r2 = 1, so q1
    # ends in |1> on every run.
    text = HEADER + ("APPLY H q1 0;\nAPPLY X q2 0;\nr1 := {M}(q1);\nMOV(r2,r1);\n"
                     "r3 := {M}(q2);\nCMP(r2,r3);\nJE L1;\nAPPLY X q1 0;\nL1:\n")
    canonical = HEADER + ("hGate(q1,0);\nxGate(q2,0);\nMOV(r1,{M}(q1));\nMOV(r2,r1);\n"
                          "MOV(r3,{M}(q2));\nCMP(r2,r3);\nJE L1;\nxGate(q1,0);\nL1:\n")
    prog = parse_fqasm(text)
    assert serialize(prog) == canonical
    assert prog == parse_fqasm(canonical)
    seen = set()
    for seed in range(8):
        a, b = vm_run(prog, seed), vm_run(parse_fqasm(canonical), seed)
        assert a.outcomes == b.outcomes
        np.testing.assert_array_equal(a.final_state.matrix, b.final_state.matrix)
        assert [site for site, _ in a.outcomes] == [2, 4] and a.outcomes[1][1] == 1
        np.testing.assert_allclose(a.final_state.matrix, np.diag([0, 0, 0, 1]), atol=1e-12)
        seen.add(a.outcomes[0][1])
    assert seen == {0, 1}


@pytest.mark.parametrize("body, message", [
    ("CMP(r1,0);\n", "register 'r1' is empty"),
    ("MOV(r1,{M}(q1));\nMOV(r2,r1);\nCMP(r1,0);\n", "register 'r1' is empty"),  # MOV empties
    ("CMP(r2,r1);\n", "register 'r2' is empty"),
    ("JE L1;\nL1:\n", "JE before any CMP"),
])
def test_reading_an_empty_register_is_an_error(body, message):
    prog = parse_fqasm(HEADER + body)
    for use in (partial(vm_run, seed=0), vm_distribution):
        with pytest.raises(UninitializedRegisterRead, match=message):
            use(prog)


@pytest.mark.parametrize("body, error, message, line, column", [
    ("L1:\nL1:\n", DuplicateLabel, "label 'L1' defined twice", 9, 1),
    ("JMP L9;\n", UnknownLabel, "jump target 'L9' does not exist", 8, 5),
    ("JE L9;\n", UnknownLabel, "jump target 'L9' does not exist", 8, 4),
    ("INIT(e);\n", UnknownRegister, "quantum register 'e' not declared", 8, 6),
    ("hGate(e,0);\n", UnknownRegister, "quantum register 'e' not declared", 8, 7),
    ("APPLY H q1 e 0;\n", UnknownRegister, "quantum register 'e' not declared", 8, 12),
    ("MOV(r1,{M}(e));\n", UnknownRegister, "quantum register 'e' not declared", 8, 12),
    ("MOV(r9,{M}(q1));\n", UnknownRegister, "classical register 'r9' not declared", 8, 5),
    ("r9 := {M}(q1);\n", UnknownRegister, "classical register 'r9' not declared", 8, 1),
    ("MOV(r1,r9);\n", UnknownRegister, "classical register 'r9' not declared", 8, 8),
    ("MOV(r9,r1);\n", UnknownRegister, "classical register 'r9' not declared", 8, 5),
    ("CMP(r9,0);\n", UnknownRegister, "classical register 'r9' not declared", 8, 5),
    ("CMP(r1,r9);\n", UnknownRegister, "classical register 'r9' not declared", 8, 8),
])
def test_ill_formed_programs_are_refused(body, error, message, line, column):
    # in text, a syntax error at the offending name
    with pytest.raises(FqasmSyntaxError, match=message) as err:
        parse_fqasm(HEADER + body)
    assert (err.value.line, err.value.column) == (line, column)
    # built in code, the typed error without a position
    prog = _FqasmParser(tokenize(HEADER + body)).parse()
    for use in (check_wellformed, serialize, vm_distribution):
        with pytest.raises(error, match=message) as err:
            use(prog)
        assert (err.value.line, err.value.column) == (0, 0)
