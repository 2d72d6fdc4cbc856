"""The command line: stable distribution output and synthesis input checks."""
import json
import math

import numpy as np
import pytest

import qwhile.cli
from qwhile.experiments import program_names, program_source


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
