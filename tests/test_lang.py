"""Parser, validator, and pretty-printer round trips."""
import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qwhile.engine.runtime
import qwhile.fqasm.text
import qwhile.fqasm.vm
import qwhile.lang.checker
from qwhile.engine import prepare
from qwhile.errors import (
    CapacityExceeded, DimensionError, DuplicateName, ParseError, QwhileError, UndeclaredName,
)
from qwhile.experiments import program_names, program_source
from qwhile.fqasm import (
    compile_program, parse_fqasm, prepare_vm, serialize, vm_distribution, vm_run,
)
from qwhile.lang import (
    Case, Init, Seq, Skip, SourceProgram, Unitary, While,
    parse, pretty_print, seq_of, validate_program,
)
from qwhile.lang.checker import ERRORS
from qwhile.lang.parser import (
    KEYWORDS, _TOKEN_RE, Span, Token, TokenParser, _lex, _real_value, tokenize)
from qwhile.lang.syntax import GateDecl, MeasDecl, format_complex, format_matrix

from genprog import random_program

QLOOP_SRC = """
q : qubit;
e : qubit;
gate DILATE = [[1, 0, 0, 0],
               [0, 0.7071067811865476, 0.7071067811865476, 0],
               [0, -0.7071067811865476, 0.7071067811865476, 0],
               [0, 0, 0, 1]];
measure M = computational;
q := |0>;
e := |0>;
H[q];
DILATE[q, e];
while M[q] = 1 do
  H[q];
od;
"""


class TestParse:
    def test_single_init(self):
        p = parse("q : qubit; q := |0>;")
        assert p.body == Init("q")
        assert p.registers == (("q", 1),)

    def test_loop_program_shape(self):
        p = parse(QLOOP_SRC)
        loop = p.body.stmts[-1]
        assert loop == While("M", ("q",), Unitary("H", ("q",)))

    def test_three_outcome_guard_rejected(self):
        src = """q : qubit; e : qubit;
        measure M = { [[1,0],[0,0]], [[0,0],[0,0.7071067811865476]], [[0,0],[0,0.7071067811865476]] };
        while M[q] = 1 do skip; od;"""
        with pytest.raises(DimensionError):
            parse(src)

    def test_guard_zero_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse("q : qubit; measure M = computational; while M[q] = 0 do skip; od;")

    def test_undeclared_names(self):
        with pytest.raises(UndeclaredName):
            parse("q : qubit; X[r];")
        with pytest.raises(UndeclaredName):
            parse("q : qubit; BADGATE[q];")
        with pytest.raises(UndeclaredName):
            parse("q : qubit; if M[q] = 0 -> skip; fi;")

    def test_error_location(self):
        with pytest.raises(ParseError) as err:
            parse("q : qubit;\nq := |0>;\nY[q];\n")
        assert err.value.line == 3
        assert err.value.column == 1

    def test_comments_ignored(self):
        p = parse("// header\nq : qubit; // reg\nskip; // done\n")
        assert p.body == Skip()

    def test_branch_outcome_range_checked(self):
        with pytest.raises(DimensionError):
            parse("q : qubit; measure M = computational; if M[q] = 2 -> skip; fi;")

    def test_missing_branches_allowed(self):
        p = parse("q : qubit; measure M = computational; if M[q] = 1 -> X[q]; fi;")
        assert p.body.branches == ((1, Unitary("X", ("q",))),)

    def test_multi_qubit_register(self):
        p = parse("qs : qubit[3]; qs := |0>;")
        assert p.registers == (("qs", 3),)
        assert p.n_qubits == 3

    def test_inline_measurement(self):
        p = parse("""q : qubit;
            measure MPM = { [[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]] };
            if MPM[q] = 0 -> skip; fi;""")
        decl = p.meas_decl("MPM")
        assert decl.n_outcomes(2) == 2
        assert validate_program(p).ok

    def test_complex_literals(self):
        p = parse("q : qubit; gate G = [[0, 1i], [-1i, 0]]; G[q];")
        np.testing.assert_allclose(p.gate_decl("G").matrix, [[0, 1j], [-1j, 0]])
        p = parse("q : qubit; gate G = [[0.6+0.8i, 0], [0, 0.6-0.8i]]; G[q];")
        np.testing.assert_allclose(p.gate_decl("G").matrix,
                                   [[0.6 + 0.8j, 0], [0, 0.6 - 0.8j]])


INTERLEAVED_SRC = """q : qubit;
q := |0>;
H[q];
measure P = plusminus;
e : qubit;
gate G = X;
if P[q] = 0 -> G[e]; [] 1 -> skip; fi;
"""

DECLS_FIRST_SRC = """q : qubit;
measure P = plusminus;
e : qubit;
gate G = X;
q := |0>;
H[q];
if P[q] = 0 -> G[e]; [] 1 -> skip; fi;
"""


class TestInterleavedDeclarations:
    """Top-level declarations may follow statements; names are still
    declared before use, and declarations stay top-level only."""

    def test_same_program_as_declarations_first(self):
        assert parse(INTERLEAVED_SRC) == parse(DECLS_FIRST_SRC)

    def test_pretty_print_lists_declarations_first(self):
        p = parse(INTERLEAVED_SRC)
        text = pretty_print(p)
        assert text == ("q : qubit;\n"
                        "e : qubit;\n"
                        "gate G = X;\n"
                        "measure P = plusminus;\n"
                        "\n"
                        "q := |0>;\n"
                        "H[q];\n"
                        "if P[q] = 0 ->\n"
                        "  G[e];\n"
                        "[] 1 ->\n"
                        "  skip;\n"
                        "fi;\n")
        assert parse(text) == p
        assert pretty_print(parse(text)) == text

    @pytest.mark.parametrize("src, line, col", [
        ("q : qubit;\nq := |0>;\nif P[q] = 0 -> skip; fi;\nmeasure P = plusminus;\n", 3, 4),
        ("q : qubit;\nwhile P[q] = 1 do skip; od;\nmeasure P = computational;\n", 2, 7),
        ("q : qubit;\nH[e];\ne : qubit;\n", 2, 3),
        ("q : qubit;\ne := |0>;\ne : qubit;\n", 2, 1),
        ("q : qubit;\nG[q];\ngate G = X;\n", 2, 1),
    ])
    def test_use_before_declaration(self, src, line, col):
        with pytest.raises(UndeclaredName) as err:
            parse(src)
        assert (err.value.line, err.value.column) == (line, col)

    @pytest.mark.parametrize("src, line, col", [
        ("q : qubit;\nmeasure M = computational;\nwhile M[q] = 1 do\n"
         "  X[q];\n  measure P = plusminus;\nod;\n", 5, 3),
        ("q : qubit;\nmeasure M = computational;\n"
         "if M[q] = 0 -> e : qubit; fi;\n", 3, 16),
    ])
    def test_declaration_in_block_rejected(self, src, line, col):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert not isinstance(err.value, UndeclaredName)
        assert (err.value.line, err.value.column) == (line, col)


class TestReservedKeywords:
    """A declaration may not bind a keyword; the error points at the name."""

    @pytest.mark.parametrize("word", sorted(KEYWORDS))
    @pytest.mark.parametrize("template, line, col", [
        ("{w} : qubit;\n", 1, 1),
        ("q : qubit;\nH[q];\n  {w} : qubit[2];\n", 3, 3),
        ("q : qubit;\ngate {w} = X;\n", 2, 6),
        ("q : qubit;\nmeasure {w} = computational;\n", 2, 9),
        ("q : qubit;\nmeasure {w} = {{[[1, 0], [0, 0]], [[0, 0], [0, 1]]}};\n", 2, 9),
    ])
    def test_keyword_declaration_rejected(self, word, template, line, col):
        with pytest.raises(ParseError) as err:
            parse(template.format(w=word))
        assert "keyword" in err.value.message
        assert (err.value.line, err.value.column) == (line, col)

    def test_keywords_are_the_grammar_words(self):
        assert KEYWORDS == {"skip", "if", "fi", "while", "do", "od", "gate", "measure", "qubit"}

    def test_names_containing_keywords_allowed(self):
        p = parse("skipper : qubit; gate gates = X; measure odd = computational;\n"
                  "skipper := |0>; gates[skipper]; if odd[skipper] = 0 -> skip; fi;")
        assert p.registers == (("skipper", 1),)


class TestValidate:
    def test_bb84_encode_ok(self):
        p = parse("""q : qubit; measure MPM = plusminus;
                     q := |0>; X[q]; H[q];
                     if MPM[q] = 0 -> skip; [] 1 -> skip; fi;""")
        assert validate_program(p).ok

    def test_wrong_arity(self):
        p = SourceProgram((("q", 1),), (), (MeasDecl("M", builtin="computational"),),
                          Unitary("CNOT", ("q",)))
        report = validate_program(p)
        assert not report.ok
        assert any(i.kind == "DimensionError" for i in report.issues)

    def test_nonunitary_gate(self):
        p = SourceProgram((("q", 1),), (GateDecl("G", np.array([[1, 0], [0, 2.0]])),),
                          (), Unitary("G", ("q",)))
        report = validate_program(p)
        assert any(i.kind == "NotUnitary" for i in report.issues)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_literal_is_not_unitary(self):
        # 1e999 reads as inf: a NotUnitary at the declaration, not a numpy
        # error, and no numpy warning either
        with pytest.raises(ERRORS["NotUnitary"]) as err:
            parse("q : qubit;\ngate G = [[1e999, 0], [0, 1]];\nG[q];\n")
        assert (err.value.line, err.value.column, err.value.message) == (
            2, 6, "NotUnitary at gate G: gate 'G' is not unitary (residual inf)")

    @pytest.mark.parametrize("literal, error", [
        ("[[1e300+1e300i, 0], [0, 1]]", ERRORS["NotUnitary"]),
        ("[[6e304+9i, 4, 0], [6, 9e302, 0.25i], [-0.3-50i, 0i, -67]]", QwhileError),
        ("[[1e200, 0], [0, 1]]", ERRORS["NotUnitary"]),
    ])
    def test_finite_literal_whose_products_overflow_is_refused(self, literal, error):
        # finite entries, but M†M overflows: a typed error at the declaration,
        # never a pass (residual 0), a numpy LinAlgError or a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as err:
                parse(f"q : qubit;\ngate G = {literal};\nG[q];\n")
        assert (err.value.line, err.value.column) == (2, 6)

    def test_incomplete_measurement(self):
        p = SourceProgram((("q", 1),), (),
                          (MeasDecl("M", operators=(np.diag([1.0, 0.0]),)),),
                          Case("M", ("q",), ((0, Skip()),)))
        report = validate_program(p)
        assert any(i.kind == "IncompleteMeasurement" for i in report.issues)

    def test_generated_programs_valid(self, rng):
        for _ in range(50):
            assert validate_program(random_program(rng)).ok


class TestPrettyPrint:
    def test_skip_sequence(self):
        p = parse("q : qubit; skip; skip;")
        assert "skip;\nskip;\n" in pretty_print(p)

    def test_case_shape(self):
        p = parse("q : qubit; measure M = computational; "
                  "if M[q] = 0 -> skip; [] 1 -> X[q]; fi;")
        text = pretty_print(p)
        assert "if M[q] = 0 ->" in text
        assert "[] 1 ->" in text
        assert text.rstrip().endswith("fi;")

    def test_fixpoint_on_sources(self):
        for src in (QLOOP_SRC, "q : qubit; skip;"):
            p = parse(src)
            text = pretty_print(p)
            assert parse(text) == p
            assert pretty_print(parse(text)) == text

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_generated(self, seed):
        p = random_program(np.random.default_rng(seed))
        assert parse(pretty_print(p)) == p

    def test_format_complex_round_trip(self):
        for z in (0.5, -0.25, 1j, -0.7071067811865476j, 0.6 + 0.8j, 1 - 2e-3j, 0.0):
            text = format_complex(complex(z))
            assert complex(text.replace("i", "j")) == complex(z)


class TestConstructCoverage:
    """Every language construct is expressible and parses."""

    def test_all_constructs(self):
        src = """
        a : qubit;
        b : qubit;
        measure M = computational;
        skip;
        a := |0>;
        H[a];
        CNOT[a, b];
        if M[a] = 0 -> skip; [] 1 -> X[a]; fi;
        while M[b] = 1 do X[b]; od;
        """
        p = parse(src)
        kinds = [type(s) for s in p.body.stmts]
        assert kinds == [Skip, Init, Unitary, Unitary, Case, While]


# --- one rule set: the parser and the checker agree ----------------------------

X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]])


def _then(p: SourceProgram, stmt, gates=(), measurements=(), registers=()) -> SourceProgram:
    """p with extra declarations and `stmt` appended to its body."""
    body = p.body if stmt is None else seq_of([p.body, stmt])
    return SourceProgram(p.registers + tuple(registers), p.gates + tuple(gates),
                         p.measurements + tuple(measurements), body)


def _with_site(p: SourceProgram, build) -> SourceProgram:
    """p measuring its first register with a fresh computational
    measurement in the statement `build(meas, reg, n_outcomes)`."""
    reg, width = p.registers[0]
    return _then(p, build("MutM", reg, 1 << width),
                 measurements=(MeasDecl("MutM", builtin="computational"),))


def _three_outcome_guard(p: SourceProgram) -> SourceProgram:
    reg, width = p.registers[0]
    dim = 1 << width
    rest = np.diag([0.0] + [np.sqrt(0.5)] * (dim - 1))
    ops = (np.diag([1.0] + [0.0] * (dim - 1)), rest, rest)
    return _then(p, While("Mut3", (reg,), Skip()),
                 measurements=(MeasDecl("Mut3", operators=ops),))


# one rule broken each, on a valid program
MUTATIONS = {
    "wrong arity": lambda p: _then(p, Unitary("CNOT", (p.registers[0][0],))),
    "register listed twice": lambda p: _then(p, Unitary("CNOT", (p.registers[0][0],) * 2)),
    "outcome out of range": lambda p: _with_site(p, lambda m, r, n: Case(m, (r,), ((n, Skip()),))),
    "duplicate outcome": lambda p: _with_site(
        p, lambda m, r, n: Case(m, (r,), ((0, Skip()), (0, Init(r))))),
    "3-outcome guard": _three_outcome_guard,
    "width 0": lambda p: SourceProgram(((p.registers[0][0], 0),) + p.registers[1:],
                                       p.gates, p.measurements, p.body),
    "13 qubits": lambda p: _then(p, None, registers=(("mutwide", 13 - p.n_qubits),)),
    "register and gate share a name": lambda p: _then(
        p, None, gates=(GateDecl(p.registers[0][0], X_MATRIX),)),
    "declared gate named H": lambda p: _then(p, None, gates=(GateDecl("H", X_MATRIX),)),
    "non-unitary gate": lambda p: _then(
        p, None, gates=(GateDecl("MutNU", np.array([[1.0, 1.0], [0.0, 1.0]])),)),
    "incomplete measurement": lambda p: _then(
        p, None, measurements=(MeasDecl("MutInc", operators=(np.diag([1.0, 0.0]),)),)),
    "register named skip": lambda p: _then(p, None, registers=(("skip", 1),)),
    "gate named JMP": lambda p: _then(p, None, gates=(GateDecl("JMP", X_MATRIX),)),
    "no registers": lambda p: SourceProgram((), p.gates, p.measurements, Skip()),
}


def _agreement_inputs():
    bases = [parse(program_source(name)) for name in program_names()]
    rng = np.random.default_rng(5)
    bases += [random_program(rng) for _ in range(50)]
    inputs = [("valid", p) for p in bases]
    inputs += [(rule, mutate(p)) for p in bases for rule, mutate in MUTATIONS.items()]
    return inputs


class TestParserAgreesWithChecker:
    """`validate_program` and `parse` apply one rule set: the parser
    raises exactly when the checker reports, with the error class the
    checker's table gives the first issue, at a line and column."""

    def test_parse_raises_exactly_when_validate_reports(self):
        rejected = set()
        for rule, p in _agreement_inputs():
            report = validate_program(p)
            assert report.ok == (rule == "valid"), (rule, str(report))
            if report.ok:
                assert parse(pretty_print(p)) == p
                continue
            with pytest.raises(QwhileError) as err:
                parse(pretty_print(p))
            assert type(err.value) is ERRORS[report.issues[0].kind], (rule, str(report))
            assert err.value.line >= 1 and err.value.column >= 1
            assert str(err.value).startswith(f"line {err.value.line}, col {err.value.column}: ")
            rejected.add(rule)
        assert rejected == set(MUTATIONS)

    @pytest.mark.parametrize("rule, kind", [
        ("13 qubits", "CapacityExceeded"),
        ("register and gate share a name", "DuplicateName"),
        ("declared gate named H", "DuplicateName"),
        ("no registers", "NoRegisters"),
    ])
    def test_rules_the_parser_alone_had(self, rule, kind):
        report = validate_program(MUTATIONS[rule](parse(QLOOP_SRC)))
        assert [issue.kind for issue in report.issues] == [kind]

    def test_the_empty_program_is_one_issue_in_both(self):
        empty = SourceProgram((), (), (), Skip())
        report = validate_program(empty)
        assert [str(issue) for issue in report.issues] == [
            "NoRegisters at program: program declares no quantum registers"]
        with pytest.raises(ParseError) as err:
            parse(pretty_print(empty))
        assert str(err.value) == f"line 2, col 1: {report.issues[0]}"
        with pytest.raises(ParseError, match="program declares no quantum registers"):
            prepare(empty)

    def test_capacity_is_checked_before_any_state(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("kernel table built for a program over the cap")

        monkeypatch.setattr(qwhile.engine.runtime, "KernelTable", no_table)
        monkeypatch.setattr(qwhile.fqasm.vm, "KernelTable", no_table)
        wide = SourceProgram(tuple((f"q{i}", 1) for i in range(13)), (), (), Skip())
        with pytest.raises(CapacityExceeded):
            prepare(wide)
        with pytest.raises(CapacityExceeded):
            prepare_vm(parse_fqasm("QREG q 13;\n"))

    @pytest.mark.parametrize("text, error", [
        ("QREG q 1;\nQREG q 1;\n", DuplicateName),
        ("QREG q 1;\nGATE G [[0, 1], [1, 0]];\nGATE G [[0, 1], [1, 0]];\n", DuplicateName),
        ("QREG q 1;\nMEASURE M computational;\nMEASURE M computational;\n", DuplicateName),
        ("QREG q 1;\nCREG r;\nCREG r;\n", DuplicateName),
        ("QREG q 0;\n", DimensionError),
        ("QREG q 13;\n", CapacityExceeded),
    ])
    def test_fqasm_duplicates_and_widths_rejected(self, text, error):
        with pytest.raises(error):
            prepare_vm(parse_fqasm(text + "INIT(q);\n"))


class TestReservedNames:
    """A declared name of any kind is an identifier that neither text form
    reads as syntax."""

    @pytest.mark.parametrize("name", ["a b", "1q", "q-1", "", "q\u00e9", "skip", "qubit",
                                      "JMP", "MEASURE", "hGate", "cnotGate"])
    def test_bad_name_of_each_kind(self, name):
        for p in (SourceProgram(((name, 1),), (), (), Skip()),
                  SourceProgram((("q", 1),), (GateDecl(name, X_MATRIX),), (), Skip()),
                  SourceProgram((("q", 1),), (), (MeasDecl(name, builtin="computational"),),
                                Skip())):
            assert [issue.kind for issue in validate_program(p).issues] == ["BadName"]
            with pytest.raises(ParseError):
                prepare(p)

    def test_names_that_contain_reserved_words_allowed(self):
        regs = tuple((name, 1) for name in ("_q1", "skipped", "JMPS", "hgate", "Init"))
        assert validate_program(SourceProgram(regs, (), (), Skip())).ok

    def test_fqasm_gate_may_not_take_a_listing_spelling(self):
        prog = parse_fqasm("QREG q 1;\nGATE hGate [[0.0, 1.0], [1.0, 0.0]];\n"
                           "INIT(q);\nhGate(q,1);\n")
        with pytest.raises(ParseError, match="BadName at gate hGate"):
            vm_run(prog, seed=0)


def _counting(monkeypatch, *names: str) -> Counter:
    """Count the calls of each `qwhile.lang.checker.<name>`."""
    calls = Counter()
    for name in names:
        def wrapper(*args, _fn=getattr(qwhile.lang.checker, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(qwhile.lang.checker, name, wrapper)
    return calls


class TestCheckedOnce:
    """A program is checked where it enters and never again: `checked`
    marks it, takes no part in equality and is never copied."""

    def test_parse_returns_a_checked_program(self):
        assert parse(QLOOP_SRC).checked

    def test_built_program_is_checked_once(self, monkeypatch):
        p = dataclasses.replace(parse(QLOOP_SRC))
        calls = _counting(monkeypatch, "validate_program")
        assert not p.checked
        prepare(p)
        assert p.checked
        compile_program(p)
        assert calls["validate_program"] == 1

    def test_replaced_program_is_unchecked(self):
        p = dataclasses.replace(parse(QLOOP_SRC), body=Unitary("CNOT", ("q",)))
        assert not p.checked
        with pytest.raises(DimensionError):
            prepare(p)

    def test_checked_program_equals_its_unchecked_twin(self):
        p = parse(QLOOP_SRC)
        twin = SourceProgram(p.registers, p.gates, p.measurements, p.body)
        assert p.checked and not twin.checked
        assert p == twin and repr(p) == repr(twin)
        compiled = compile_program(p)
        reparsed = parse_fqasm(serialize(compiled))
        assert compiled.checked and not reparsed.checked
        assert compiled == reparsed

    def test_compiled_program_runs_without_a_check(self, monkeypatch):
        compiled = compile_program(parse(QLOOP_SRC))
        calls = _counting(monkeypatch, "validate_program", "unitary_residual")
        vm_run(compiled, seed=0)
        vm_distribution(compiled)
        assert calls == Counter()

    def test_declared_operators_cannot_change_after_the_check(self):
        matrix, op = X_MATRIX.copy(), np.diag([1.0, 0.0])
        gate = GateDecl("G", matrix)
        meas = MeasDecl("M", operators=(op, np.diag([0.0, 1.0])))
        matrix[0, 0] = op[0, 0] = 2.0  # the declarations hold copies
        assert gate.matrix[0, 0] == 0.0 and meas.operators[0][0, 0] == 1.0
        p = parse(QLOOP_SRC)
        with pytest.raises(ValueError):
            p.gates[0].matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            meas.operators[1][0, 0] = 1.0

    def test_parsed_fqasm_is_checked_by_its_first_prepare_vm(self, monkeypatch):
        prog = parse_fqasm(serialize(compile_program(parse(QLOOP_SRC))))
        calls = _counting(monkeypatch, "validate_program")
        prepare_vm(prog)
        prepare_vm(prog)
        assert prog.checked and calls["validate_program"] == 1


# --- matrix literals: reals as one lexer span, written in bulk -------------------

def plain_tokens(text: str) -> list[Token]:
    """`text` lexed token by token, with no spans."""
    tokens, line, col = _lex(_TOKEN_RE, text, 1, 1)
    return tokens + [Token("eof", "", line, col)]


def expanded_tokens(text: str) -> list[Token]:
    """The tokens of `text` with every span read token by token."""
    return [t for tok in tokenize(text)
            for t in (tok.tokens() if isinstance(tok, Span) else [tok])]


def matrix_outcome(lex, text: str):
    """What `parse_matrix` makes of `text` lexed by `lex`: the array's
    bytes and the token it stops at, or the error with its position."""
    try:
        parser = TokenParser(lex(text))
        m = parser.parse_matrix()
    except QwhileError as exc:
        return type(exc), exc.message, exc.line, exc.column
    end = parser.cur
    return m.dtype.str, m.shape, m.tobytes(), (end.kind, end.text, end.line, end.col)


def outcome_both_ways(text: str):
    """`matrix_outcome` through the lexer's spans and token by token."""
    return [matrix_outcome(tokenize, text), matrix_outcome(plain_tokens, text)]


WS = st.sampled_from(["", " ", "  ", "\n", "\n  ", "\t"])
DIGITS = st.text("0123456789", min_size=1, max_size=3)


@st.composite
def numbers(draw) -> str:
    """A NUM lexeme: zeros in every spelling, decimals with and without
    digits on either side of the point, and exponents, some past a float."""
    zero = st.sampled_from(["0", "0.0", "0.", ".0", "00"])
    decimal = st.builds("{}.{}".format, DIGITS, st.text("0123456789", max_size=3))
    lead = st.builds(".{}".format, DIGITS)
    mantissa = draw(st.one_of(zero, DIGITS, decimal, lead))
    exponent = draw(st.one_of(st.just(""), st.builds(
        "{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), DIGITS)))
    return mantissa + exponent


@st.composite
def entries(draw) -> str:
    """`[+-]? NUM i?` or `[+-]? NUM [+-] NUM i`, whitespace between tokens."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    head = sign + (draw(WS) if sign else "") + draw(numbers())
    form = draw(st.sampled_from(["real", "imaginary", "mixed"]))
    if form == "imaginary":
        return head + "i"
    if form == "mixed":
        return head + draw(WS) + draw(st.sampled_from("+-")) + draw(WS) + draw(numbers()) + "i"
    return head


@st.composite
def literals(draw) -> str:
    """A numeric matrix literal with equal rows and whitespace, newlines
    included, around every token."""
    n_rows, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def sep() -> str:
        return draw(WS) + "," + draw(WS)

    rows = ["[" + draw(WS) + sep().join(draw(entries()) for _ in range(width)) + draw(WS) + "]"
            for _ in range(n_rows)]
    return "[" + draw(WS) + sep().join(rows) + draw(WS) + "]"


# Text the span rule does not accept.
BREAKS = [
    ("repeated sign", lambda t: t.replace("[[", "[[- -1, ", 1)),
    ("imaginary first", lambda t: t.replace("[[", "[[2i+1, ", 1)),
    ("real sum", lambda t: t.replace("[[", "[[1+2, ", 1)),
    ("comment", lambda t: t.replace(",", ", // note\n", 1)),
    ("unknown character", lambda t: t.replace("[[", "[[@", 1)),
    ("unequal rows", lambda t: t[:-1] + ", [1]]"),
    ("missing bracket", lambda t: t[:-1]),
    ("doubled comma", lambda t: t.replace("[[", "[[0,, ", 1)),
    ("missing comma", lambda t: t.replace("[[", "[[1 ", 1)),
    ("name", lambda t: t.replace("[[", "[[x, ", 1)),
    ("overflow", lambda t: t.replace("[[", "[[1e999i, ", 1)),
    ("trailing i", lambda t: t.replace("[[", "[[1ii, ", 1)),
    # text the bracket scan takes from '[[' to ']]' that is no literal
    ("letter e", lambda t: t.replace("[[", "[[e, ", 1)),
    ("entry between rows", lambda t: t.replace("[[", "[[1],2,[", 1)),
    ("underscore", lambda t: t.replace("[[", "[[1_0, ", 1)),
    ("inf", lambda t: t.replace("[[", "[[inf, ", 1)),
    ("nan", lambda t: t.replace("[[", "[[nan, ", 1)),
    ("non-ASCII digit", lambda t: t.replace("[[", "[[\u0661, ", 1)),
    ("no closing ']]'", lambda t: t[:-1].rstrip()[:-1]),
]

# The same, as whole literals.
SCANNED = ["[[e]]", "[[1],2,[3]]", "[[1,,2]]", "[[1 2]]", "[[1_0]]", "[[inf]]", "[[nan]]",
           "[[\u0661]]", "[[1, 0], [0, 1]"]


def parsed_both_ways(literal: str) -> list[list]:
    """What `parse` and `parse_fqasm` make of a program that declares a
    gate with `literal`, through the lexer's spans and token by token:
    the gates' matrices, or the error with its position."""
    texts = [(parse, f"q : qubit;\n// G\ngate G = {literal};\nG[q];\n"),
             (parse_fqasm, f"QREG q 1;\n// G\n  GATE G {literal};\nINIT(q);\n")]
    pairs = []
    for parse_text, text in texts:
        pair = []
        for lex in (tokenize, plain_tokens):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qwhile.lang.parser, "tokenize", lex)
                mp.setattr(qwhile.fqasm.text, "tokenize", lex)
                try:
                    prog = parse_text(text)
                except QwhileError as exc:
                    pair.append((type(exc), exc.message, exc.line, exc.column))
                else:
                    pair.append([(g.name, g.matrix.tobytes()) for g in prog.gates])
        pairs.append(pair)
    return pairs


class TestMatrixSpans:
    """The lexer makes each matrix literal that `_real_value` reads one
    `Span`, which `parse_matrix` takes whole; every other literal, complex
    entries included, is lexed in place. The token-by-token path stays
    the reference for values, errors and positions."""

    @given(literals())
    def test_fast_path_equals_token_path(self, text):
        tokens = tokenize(text)
        if _real_value(text) is None:
            assert tokens == plain_tokens(text)
        else:
            assert isinstance(tokens[0], Span) and len(tokens) == 2
            assert tokens[0].value is not None
        fast, slow = outcome_both_ways(text)
        assert fast == slow

    @given(literals(), st.sampled_from(BREAKS))
    def test_fallbacks_equal_token_path(self, text, brk):
        fast, slow = outcome_both_ways(brk[1](text))
        assert fast == slow

    @given(literals(), st.sampled_from(BREAKS))
    def test_fallbacks_equal_token_path_through_both_parsers(self, text, brk):
        for fast, slow in parsed_both_ways(brk[1](text)):
            assert fast == slow

    @pytest.mark.parametrize("literal", SCANNED)
    def test_scanned_text_reads_as_the_token_path(self, literal):
        fast, slow = outcome_both_ways(literal)
        assert fast == slow
        assert expanded_tokens(literal) == plain_tokens(literal)
        for fast, slow in parsed_both_ways(literal):
            assert fast == slow

    def test_scanned_text_keeps_the_token_path_value_and_error(self):
        # a non-ASCII digit is a number to the token path, and `float` reads it
        [(_, value)] = parsed_both_ways("[[\u0661]]")[1][0]  # through parse_fqasm
        assert np.frombuffer(value, dtype=complex).tolist() == [1.0]
        assert parsed_both_ways("[[inf]]")[0][0] == (
            ParseError, "expected number, found 'inf'", 3, 12)

    def test_a_refused_candidate_is_lexed_in_place(self):
        # a comment inside the brackets hides the first ']]' from the token path
        text = "[[1, // ]] x\n 2]]"
        assert not any(isinstance(t, Span) for t in tokenize(text))
        assert tokenize(text) == plain_tokens(text)
        # a '[[' inside a refused candidate starts no span
        assert not any(isinstance(t, Span) for t in tokenize("[[[1]]]"))

    @given(literals(), literals())
    def test_positions_carry_across_spans(self, a, b):
        text = f"gate G = {a};\nmeasure M = {{{a},\n{b}}};\n  @"
        reals = 2 * (_real_value(a) is not None) + (_real_value(b) is not None)
        assert sum(isinstance(t, Span) for t in tokenize(text[:-1])) == reals
        plain = plain_tokens(text[:-1])
        assert expanded_tokens(text[:-1]) == plain
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert (err.value.line, err.value.column) == (plain[-1].line, plain[-1].col)

    @pytest.mark.parametrize("entry, real, imag", [
        ("-0.0+1i", 0.0, 1.0),
        ("-2i", -0.0, -2.0),
        ("0.0-0.0i", 0.0, 0.0),
        ("1-0.0i", 1.0, 0.0),
        ("-0.0-0.0i", -0.0, 0.0),
    ], ids=["-0.0+1i", "-2i", "0.0-0.0i", "1-0.0i", "-0.0-0.0i"])
    def test_signed_zeros_follow_the_token_path(self, entry, real, imag):
        literal = f"[[{entry}]]"
        assert tokenize(literal) == plain_tokens(literal)  # a complex literal is no span
        expected = np.empty((1, 1), dtype=complex)
        expected.real, expected.imag = real, imag
        assert [way[2] for way in outcome_both_ways(literal)] == [expected.tobytes()] * 2
        # reading the entry as a Python complex literal gives other zeros
        assert np.array([[complex(entry.replace("i", "j"))]]).tobytes() != expected.tobytes()

    def test_each_operator_is_its_own_span(self):
        kinds = [type(t).__name__ + t.kind for t in tokenize("{[[1, 0], [0, 0]], [[0, 0], [0, 1]]}")]
        assert kinds == ["Token{", "Span[", "Token,", "Span[", "Token}", "Tokeneof"]

    def test_a_span_read_as_tokens_expands_in_place(self):
        # a literal where register names belong reads as the tokens it lexes to
        with pytest.raises(ParseError) as err:
            parse("q : qubit;\nH[[0, 1]];\n")
        assert (err.value.line, err.value.column, err.value.message) == (
            2, 3, "expected register name, found '['")

    def test_a_large_complex_literal_round_trips_bit_for_bit(self, monkeypatch):
        m = qft_matrix(5)
        text = f"q : qubit[5];\ngate QFT = {format_matrix(m)};\nQFT[q];\n"
        assert not any(isinstance(t, Span) for t in tokenize(text))
        value = parse(text).gates[0].matrix
        assert np.array_equal(value, m) and np.signbit(value.real[value.real == 0]).any()
        reread = parse_fqasm(serialize(compile_program(parse(text)))).gates[0].matrix
        monkeypatch.setattr(qwhile.lang.parser, "tokenize", plain_tokens)
        plain = parse(text).gates[0].matrix
        assert value.tobytes() == reread.tobytes() == plain.tobytes()


def qft_matrix(n_qubits: int) -> np.ndarray:
    """The n-qubit quantum Fourier transform: mixed entries, real and
    imaginary-only ones, exact on the axes, and every zero part -0.0."""
    n = 1 << n_qubits
    k = np.outer(np.arange(n), np.arange(n)) % n
    m = np.exp(2j * np.pi * k / n) / np.sqrt(n)
    axis = k % (n // 4) == 0
    m[axis] = np.array([1, 1j, -1, -1j])[k[axis] // (n // 4)] / np.sqrt(n)
    m.real[m.real == 0] = -0.0
    m.imag[m.imag == 0] = -0.0
    return m


FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e-300, 1e300, 5e-324, 0.1, 2.0 / 3.0,
          0.7071067811865476, np.inf, -np.inf, np.nan]


@st.composite
def matrices(draw) -> np.ndarray:
    """Complex matrices whose entries are real-only, imaginary-only or
    mixed, zeros of either sign included."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    part = st.one_of(st.sampled_from(FLOATS), st.floats(allow_nan=False, width=64))
    m = np.empty(shape, dtype=complex)
    for index in np.ndindex(shape):
        form = draw(st.sampled_from(["real", "imaginary", "mixed"]))
        m.real[index] = draw(part) if form != "imaginary" else draw(st.sampled_from([0.0, -0.0]))
        m.imag[index] = draw(part) if form != "real" else draw(st.sampled_from([0.0, -0.0]))
    return m


def format_entries(m: np.ndarray) -> str:
    """`format_matrix` entry by entry, as `format_complex` writes each."""
    rows = ", ".join("[" + ", ".join(format_complex(z) for z in row) + "]" for row in m)
    return f"[{rows}]"


class TestFormatMatrix:
    @given(matrices())
    def test_bulk_writer_equals_format_complex(self, m):
        assert format_matrix(m) == format_entries(m)

    def test_random_matrices(self, rng):
        for shape in [(1, 1), (2, 2), (3, 5), (16, 16)]:
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            m.real[rng.random(shape) < 0.3] = -0.0
            m.imag[rng.random(shape) < 0.3] = -0.0
            assert format_matrix(m) == format_entries(m)

    def test_real_and_integer_input(self):
        assert format_matrix(np.eye(2)) == "[[1.0, 0.0], [0.0, 1.0]]"
        assert format_matrix([[1, -2]]) == "[[1.0, -2.0]]"
        assert format_matrix(np.array([[-0.0, -0.0j, 1 - 0.5j, -2j]])) == (
            "[[0.0, 0.0, 1.0-0.5i, -2.0i]]")
