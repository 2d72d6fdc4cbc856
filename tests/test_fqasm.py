"""The compiler cross-check: f-QASM text round trips and `compile --check`."""
import pytest

import qwhile.cli
from qwhile.engine import DistributionResult
from qwhile.experiments import program_names, program_source
from qwhile.fqasm import compile_program, parse_fqasm, serialize
from qwhile.lang import parse

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
