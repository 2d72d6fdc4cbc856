"""Lexer and recursive-descent parser for `.qw` source files.

Grammar (comments run `//` to end of line; statements end with `;`):

    program   := { decl | stmt }
    decl      := NAME ':' 'qubit' [ '[' INT ']' ] ';'
               | 'gate' NAME '=' (NAME | matrix) ';'
               | 'measure' NAME '=' (NAME | '{' matrix {',' matrix} '}') ';'
    stmt_list := { stmt }
    stmt      := 'skip' ';'
               | NAME ':=' '|0>' ';'
               | NAME '[' NAME {',' NAME} ']' ';'
               | 'if' app '=' branch { '[]' branch } 'fi' ';'
               | 'while' app '=' '1' 'do' stmt_list 'od' ';'
    app       := NAME '[' NAME {',' NAME} ']'
    branch    := INT '->' stmt_list
    matrix    := '[' row {',' row} ']' ;  row := '[' cnum {',' cnum} ']'
    cnum      := complex literal, e.g. 1, -0.5, 2i, 0.5-0.5i, 1e-3+2i

Matrix literals of reals are lexed at data speed. Where `tokenize` meets
'[' followed, past whitespace, by '[', one search finds the first ']'
followed, past whitespace, by ']'; the text from the '[' to that ']' is
a span candidate. The candidate is one `Span` token, which reads as its
opening '[' token, when it holds only ASCII digits, '.', 'e', 'E', signs,
commas, brackets and whitespace, its rows `'[' ... ']'` are one comma
apart and of equal length, and `float` reads every entry. Then each
entry is `[+-]? NUM` amid whitespace, and the span keeps the value
`float` gives, which is the token path's. Such a span holds no comment
and no character the token path refuses, so it lexes alone to the tokens
it lexes to in place. Any other candidate (complex entries, `[[e]]`,
`[[1 2]]`, `[[inf]]`, a non-ASCII digit), and one with no closing ']]',
is lexed token by token in place, and so is every '[[' inside it; the
matrix-literal grammar of `TokenParser` reads it. A span that anything
but `parse_matrix` reads expands in place into the tokens its text lexes
to, at their lines and columns. So every value, signed zero, error, line
and column stays as the token path makes them. Line and column counting
carries across spans.

Declarations and statements may interleave at top level, but a name
must be declared before its first use, and declarations are top-level
only: a declaration inside an `if` branch or a `while` body is a
ParseError. `pretty_print` lists all declarations first, so the canonical form of
an interleaved program is the program with its declarations moved to
the front.

Declared measurement names bound to `computational` adapt their outcome
count to the register width at each use site; `plusminus` is the fixed
2-dimensional |+>/|-> basis.

The parser owns the grammar and declare-before-use; every other rule,
the reserved names (`KEYWORDS` among them) included, lives in `checker`,
the one home of the rules of a well-formed program. The parser runs the
checker's declaration check as it finishes each declaration and its
statement check as it finishes each gate application, `if` and `while`,
and its whole-program check (at least one quantum register) at the end,
and raises the first issue at the declared name, at the statement's
gate or measurement name, or at the end of the input. So a program that parses is one that
`checker.validate_program` accepts, and `parse` returns it marked
`checked`: no later layer checks it again.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParseError, UndeclaredName
from ..core.gates import STANDARD_LIBRARY
from .checker import ERRORS, QW_KEYWORDS, Scope, mark_checked
from .syntax import (
    Case,
    GateDecl,
    Init,
    MeasDecl,
    Skip,
    SourceProgram,
    Stmt,
    Unitary,
    While,
    seq_of,
)

BUILTIN_MEASUREMENTS = ("computational", "plusminus")

# Words the grammar reads as keywords; the checker reserves them.
KEYWORDS = QW_KEYWORDS

_TOKENS = r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<ket0>\|0>)
  | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?i?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>:=|->|\[\]|[{}\[\]():;,=+-])
"""
_TOKEN_RE = re.compile(_TOKENS, re.VERBOSE)
# The lexer's pattern: the grammar's tokens, and '[' that, past
# whitespace, is followed by '[' (where a span candidate starts).
_SCAN_RE = re.compile(rf"(?P<open>\[(?=\s*\[))|{_TOKENS}", re.VERBOSE)
# The end of a span candidate: ']' followed, past whitespace, by ']'.
_CLOSE_RE = re.compile(r"\]\s*\]")
# The characters of a literal of reals: ASCII digits, '.', 'e', 'E', signs,
# commas, brackets and whitespace.
_REAL_CHARS = b"0123456789.eE+-,[] \t\n\r\f\v"


@dataclass(frozen=True)
class Token:
    kind: str       # 'num' | 'name' | 'ket0' | literal operator text | 'eof'
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class Span(Token):
    """A matrix literal of reals lexed as one token. It reads as the
    literal's opening '[' token; `tokens()` gives the tokens the literal
    lexes to on its own, at their positions in the source. `value` is
    the literal's value, as `_real_value` read it."""
    literal: str = field(repr=False)
    value: np.ndarray = field(repr=False, compare=False)

    def tokens(self) -> list[Token]:
        return _lex(_TOKEN_RE, self.literal, self.line, self.col)[0]


def _rows(literal: str) -> list[str] | None:
    """The text of each row of a span candidate, or None unless the rows
    are `'[' ... ']'`, one comma apart, with equal counts of entries."""
    # split at each ']': a row's text follows the '[' of its piece
    pieces = [piece.split("[") for piece in literal.split("]")[:-2]]
    if (len(pieces[0]) != 3 or pieces[0][1].strip()
            or any(len(p) != 2 or p[0].strip() != "," for p in pieces[1:])):
        return None
    rows = [p[-1] for p in pieces]
    width = rows[0].count(",")
    if any(row.count(",") != width for row in rows):
        return None
    return rows


def _real_value(literal: str) -> np.ndarray | None:
    """The value of a span candidate of reals, each entry read with
    `float`, or None: a character other than `_REAL_CHARS`, rows that
    `_rows` refuses, or an entry `float` refuses. Where `float` reads
    every entry, each is `[+-]? NUM` amid whitespace, which the token
    path reads to the same float: complex(s * x) is (float(entry), 0.0)."""
    if not literal.isascii() or literal.encode().translate(None, _REAL_CHARS):
        return None
    rows = _rows(literal)
    if rows is None:
        return None
    shape = (len(rows), rows[0].count(",") + 1)
    try:
        x = np.fromiter(map(float, ",".join(rows).split(",")), float, shape[0] * shape[1])
    except ValueError:  # "e", "1 2", "", "1.,.", or a sign apart from its number
        return None
    return x.reshape(shape).astype(complex)


def _lex(pattern: re.Pattern, text: str, line: int, col: int) -> tuple[list[Token], int, int]:
    """The tokens of `text`, which starts at (line, col), and the
    position just past its end."""
    tokens: list[Token] = []
    pos = 0
    plain_until = 0  # the end of the last candidate: no span starts before it
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "open" and pos >= plain_until:
            close = _CLOSE_RE.search(text, pos)
            plain_until = close.end() if close else len(text)
            literal = text[pos:plain_until]
            value = _real_value(literal) if close else None
            if value is not None:
                kind, lexeme = "span", literal
                tokens.append(Span("[", "[", line, col, literal, value))
        if kind == "open":
            tokens.append(Token("[", "[", line, col))
        elif kind not in ("ws", "comment", "span"):
            k = lexeme if kind == "op" else kind
            tokens.append(Token(k, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos += len(lexeme)
    return tokens, line, col


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending in an 'eof' token. Each matrix literal
    of reals is one `Span`; the rest are the tokens of the grammar."""
    tokens, line, col = _lex(_SCAN_RE, text, 1, 1)
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenParser:
    """Token plumbing and the matrix-literal grammar, shared by the `.qw`
    parser and the `.fqasm` parser. Errors are ParseErrors at a token.

    A `Span` reads as its opening '[' token: `parse_matrix` takes it
    whole, and advancing past it any other way reads it token by token."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if isinstance(tok, Span):  # read token by token: splice in its tokens
            self.tokens[self.pos:self.pos + 1] = tok.tokens()
            tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.cur.kind != kind:
            want = what or f"{kind!r}"
            raise ParseError(f"expected {want}, found {self.cur.text or 'end of input'!r}",
                             self.cur.line, self.cur.col)
        return self.advance()

    def error(self, msg: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.cur
        return ParseError(msg, tok.line, tok.col)

    # --- matrix literals ---

    def parse_matrix(self) -> np.ndarray:
        span = self.cur
        if isinstance(span, Span):
            self.pos += 1
            return span.value
        tok = self.expect("[", "matrix")
        rows = [self.parse_row()]
        while self.cur.kind == ",":
            self.advance()
            rows.append(self.parse_row())
        self.expect("]")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise self.error("matrix rows have unequal lengths", tok)
        return np.array(rows, dtype=complex)

    def parse_row(self) -> list[complex]:
        self.expect("[", "matrix row")
        entries = [self.parse_complex()]
        while self.cur.kind == ",":
            self.advance()
            entries.append(self.parse_complex())
        self.expect("]")
        return entries

    def _signed_part(self) -> complex:
        sign = 1.0
        while self.cur.kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -sign
        tok = self.expect("num", "number")
        if tok.text.endswith("i"):
            return sign * complex(0.0, float(tok.text[:-1]))
        return complex(sign * float(tok.text))

    def parse_complex(self) -> complex:
        z = self._signed_part()
        if self.cur.kind in ("+", "-"):
            z += self._signed_part()
        return z

    def parse_operators(self) -> tuple[np.ndarray, ...]:
        """`'{' matrix {',' matrix} '}'`: operators that share one square dim."""
        tok = self.expect("{")
        ops = [self.parse_matrix()]
        while self.cur.kind == ",":
            self.advance()
            ops.append(self.parse_matrix())
        self.expect("}")
        d = ops[0].shape[0]
        if any(op.shape != (d, d) for op in ops):
            raise self.error("measurement operators must share one square dim", tok)
        return tuple(ops)


class _Parser(TokenParser):
    def __init__(self, tokens: list[Token]):
        super().__init__(tokens)
        self.scope = Scope()
        self.registers: list[tuple[str, int]] = []
        self.gates: list[GateDecl] = []
        self.measurements: list[MeasDecl] = []
        self.names: dict[str, str] = {}  # name -> 'register' | 'gate' | 'measurement'

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind == "name" and self.cur.text == word

    def eat_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise ParseError(f"expected {word!r}, found {self.cur.text or 'end of input'!r}",
                             self.cur.line, self.cur.col)
        self.advance()

    @staticmethod
    def require(issues: list, tok: Token) -> None:
        """Raise the first of the checker's issues at tok."""
        if issues:
            raise ERRORS[issues[0].kind](str(issues[0]), tok.line, tok.col)

    # --- declarations ---

    def parse_program(self) -> SourceProgram:
        stmts: list[Stmt] = []
        while True:
            if self._at_declaration():
                self.parse_decl()
            elif self._at_statement():
                stmts.append(self.parse_stmt())
            else:
                break
        body = seq_of(stmts)
        if self.cur.kind != "eof":
            raise self.error(f"unexpected {self.cur.text!r}")
        self.require(self.scope.close(), self.cur)
        return mark_checked(SourceProgram(
            registers=tuple(self.registers),
            gates=tuple(self.gates),
            measurements=tuple(self.measurements),
            body=body,
        ))

    def _at_declaration(self) -> bool:
        if self.at_keyword("gate") or self.at_keyword("measure"):
            return True
        return (self.cur.kind == "name"
                and self.tokens[self.pos + 1].kind == ":")

    def _declare(self, tok: Token, kind: str, decl, into: list) -> None:
        self.require(self.scope.declare(decl), tok)
        self.names[tok.text] = kind
        into.append(decl)

    def parse_decl(self) -> None:
        # `gate : qubit;` declares a register, which the checker rejects by its name
        register = self.tokens[self.pos + 1].kind == ":"
        if self.at_keyword("gate") and not register:
            self.advance()
            name = self.expect("name", "gate name")
            self.expect("=")
            if self.cur.kind == "name":
                ref = self.advance()
                if ref.text not in STANDARD_LIBRARY:
                    raise UndeclaredName(f"unknown library gate {ref.text!r}",
                                         ref.line, ref.col)
                decl = GateDecl(name.text, STANDARD_LIBRARY[ref.text], library_ref=ref.text)
            else:
                decl = GateDecl(name.text, self.parse_matrix())
            self._declare(name, "gate", decl, self.gates)
        elif self.at_keyword("measure") and not register:
            self.advance()
            name = self.expect("name", "measurement name")
            self.expect("=")
            if self.cur.kind == "name":
                ref = self.advance()
                if ref.text not in BUILTIN_MEASUREMENTS:
                    raise UndeclaredName(
                        f"unknown built-in measurement {ref.text!r} "
                        f"(expected one of {', '.join(BUILTIN_MEASUREMENTS)})",
                        ref.line, ref.col)
                decl = MeasDecl(name.text, builtin=ref.text)
            else:
                decl = MeasDecl(name.text, operators=self.parse_operators())
            self._declare(name, "measurement", decl, self.measurements)
        else:
            name = self.expect("name", "register name")
            self.expect(":")
            self.eat_keyword("qubit")
            width = 1
            if self.cur.kind == "[":
                self.advance()
                width_tok = self.expect("num", "register width")
                try:
                    width = int(width_tok.text)
                except ValueError:
                    raise self.error("register width must be an integer", width_tok)
                self.expect("]")
            self._declare(name, "register", (name.text, width), self.registers)
        self.expect(";")

    # --- statements ---

    def _at_statement(self) -> bool:
        if self.at_keyword("skip") or self.at_keyword("if") or self.at_keyword("while"):
            return True
        return (self.cur.kind == "name"
                and self.tokens[self.pos + 1].kind in (":=", "["))

    def parse_stmt_list(self) -> list[Stmt]:
        """Statements of an `if` branch or a `while` body."""
        stmts: list[Stmt] = []
        while self._at_statement():
            stmts.append(self.parse_stmt())
        if self._at_declaration():
            raise self.error("declarations are allowed only at top level")
        return stmts

    def _lookup(self, tok: Token, kind: str) -> str:
        declared = self.names.get(tok.text)
        if declared is None:
            if kind == "gate" and tok.text in STANDARD_LIBRARY:
                return tok.text
            raise UndeclaredName(f"undeclared {kind} {tok.text!r}", tok.line, tok.col)
        if declared != kind:
            raise self.error(f"{tok.text!r} is a {declared}, expected a {kind}", tok)
        return tok.text

    def parse_reg_list(self) -> tuple[str, ...]:
        """Parse `[q1, q2]`, each name a declared register."""
        self.expect("[")
        regs = [self._lookup(self.expect("name", "register name"), "register")]
        while self.cur.kind == ",":
            self.advance()
            regs.append(self._lookup(self.expect("name", "register name"), "register"))
        self.expect("]")
        return tuple(regs)

    def parse_stmt(self) -> Stmt:
        if self.at_keyword("skip"):
            self.advance()
            self.expect(";")
            return Skip()

        if self.at_keyword("if"):
            return self.parse_case()

        if self.at_keyword("while"):
            return self.parse_while()

        name = self.expect("name")
        if self.cur.kind == ":=":
            self._lookup(name, "register")
            self.advance()
            self.expect("ket0", "'|0>'")
            self.expect(";")
            return Init(name.text)

        # gate application: NAME [ regs ] ;
        self._lookup(name, "gate")
        stmt = Unitary(name.text, self.parse_reg_list())
        self.expect(";")
        self.require(self.scope.check(stmt), name)
        return stmt

    def parse_case(self) -> Stmt:
        self.eat_keyword("if")
        meas = self.expect("name", "measurement name")
        self._lookup(meas, "measurement")
        regs = self.parse_reg_list()
        self.expect("=")
        branches: list[tuple[int, Stmt]] = []
        while True:
            outcome_tok = self.expect("num", "branch outcome")
            try:
                outcome = int(outcome_tok.text)
            except ValueError:
                raise self.error("branch outcome must be an integer", outcome_tok)
            self.expect("->")
            branches.append((outcome, seq_of(self.parse_stmt_list())))
            if self.cur.kind == "[]":
                self.advance()
                continue
            break
        self.eat_keyword("fi")
        self.expect(";")
        stmt = Case(meas.text, regs, tuple(branches))
        self.require(self.scope.check(stmt), meas)
        return stmt

    def parse_while(self) -> Stmt:
        self.eat_keyword("while")
        meas = self.expect("name", "measurement name")
        self._lookup(meas, "measurement")
        regs = self.parse_reg_list()
        self.expect("=")
        guard = self.expect("num", "guard literal")
        if guard.text != "1":
            raise ParseError("while guard must compare to 1 (outcome 1 continues)",
                             guard.line, guard.col)
        self.eat_keyword("do")
        body = seq_of(self.parse_stmt_list())
        self.eat_keyword("od")
        self.expect(";")
        stmt = While(meas.text, regs, body)
        self.require(self.scope.check(stmt), meas)
        return stmt


def parse(text: str) -> SourceProgram:
    """Parse `.qw` source text into a SourceProgram that
    `checker.validate_program` accepts, marked checked.

    Every error carries its 1-based line and column: a ParseError or
    UndeclaredName from the grammar and the name table, else the error
    the checker's `ERRORS` gives the first issue found.
    """
    return _Parser(tokenize(text)).parse_program()
