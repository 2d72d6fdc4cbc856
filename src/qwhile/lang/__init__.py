"""Quantum while-language: AST, parser, validator, and pretty-printer."""
from .checker import ProgramReport, require_valid, validate_program
from .parser import parse, tokenize
from .syntax import (
    Case,
    GateDecl,
    Init,
    MeasDecl,
    Seq,
    Skip,
    SourceProgram,
    Stmt,
    Unitary,
    While,
    pretty_print,
    seq_of,
)

__all__ = [
    "Case", "GateDecl", "Init", "MeasDecl", "Seq", "Skip", "SourceProgram",
    "Stmt", "Unitary", "While", "pretty_print", "seq_of",
    "parse", "tokenize",
    "ProgramReport", "require_valid", "validate_program",
]
