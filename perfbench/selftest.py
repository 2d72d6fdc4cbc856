"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/selftest.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a run takes about a second."""
    monkeypatch.setattr(workloads, "SETUP_RUNS", 1)
    monkeypatch.setattr(inputs, "QLOOP_SHOTS", 400)
    monkeypatch.setattr(inputs, "BB84_SESSIONS", 1)
    monkeypatch.setattr(inputs, "GROVER_QUBITS", 3)
    monkeypatch.setattr(inputs, "WIDE_PROGRAMS", tuple((n, 3) for n, _ in inputs.WIDE_PROGRAMS))


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(workloads.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(tiny, tmp_path, name):
    out = workloads.run(name, seed=3, seconds=0.0, traced=False, tmp=tmp_path)
    assert out.result["correct"], out.record["failures"]
    assert out.result["failed"] == 0 and out.result["attempted"] >= 1
    assert set(out.result["metrics"]) == {n for n, _, _ in workloads.END_TO_END}
    assert all(m["value"] > 0 for m in out.result["metrics"].values())
    shown = {line[0] for line in out.summary}
    wl = workloads.WORKLOADS[name]
    assert {"setup_s", "peak_rss_mb", "failed_ratio", f"{wl.unit}_per_s"} <= shown
    assert ("gates_per_unitary" in shown) == (name == "synth")
    assert dict((n, v) for n, v, _ in out.summary)["failed_ratio"] == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(tiny, tmp_path, name):
    out = workloads.run(name, seed=3, seconds=0.0, traced=True, tmp=tmp_path)
    assert out.result["correct"], out.record["failures"]
    metrics = out.result["metrics"]
    assert set(metrics) == {n for n, _, _ in workloads.PER_LAYER}
    assert metrics["trace.rounds"]["value"] >= 1
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert out.record["spans"]
    busy = {"qloop": "engine.steps", "bb84": "bb84.sessions",
            "check": "lang.validate_calls", "synth": "synth.sk_calls"}[name]
    assert metrics[busy]["value"] > 0


def test_step_replay_reproduces_run_shots():
    seed, shots = inputs.derive(5, "qloop", 0), 300
    code, _, out, _ = workloads.call_cli(
        ["experiment", "qloop", "--shots", str(shots), "--seed", str(seed)])
    assert code == 0
    replay = workloads.replay_qloop(seed, shots)
    assert replay.mismatch(json.loads(out)) == []
    assert replay.steps > replay.measurements > 0
    assert replay.draws <= replay.measurements
    other = workloads.replay_qloop(seed + 1, shots)
    assert other.mismatch(json.loads(out))


def _corrupting(monkeypatch, mutate):
    """Make every CLI call's output pass through `mutate(argv, stdout)`."""
    real = workloads.call_cli

    def call(argv, tracer=None):
        code, seconds, out, err = real(argv, tracer)
        return code, seconds, mutate(argv, out), err

    monkeypatch.setattr(workloads, "call_cli", call)


def test_corrupted_qloop_counts_as_failure(tiny, tmp_path, monkeypatch):
    def mutate(argv, out):
        payload = json.loads(out)
        payload["shots_entering"] = payload["shots"] // 2
        return json.dumps(payload)

    _corrupting(monkeypatch, mutate)
    res = workloads.Qloop(3, tmp_path).op(0)
    assert res.failed == 1 and res.failures


def test_corrupted_bb84_counts_as_failure(tiny, tmp_path, monkeypatch):
    def mutate(argv, out):
        path = Path(argv[argv.index("--out") + 1])
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:4] + ["0"])  # first identity cell
        path.write_text("\n".join(lines) + "\n")
        return out

    _corrupting(monkeypatch, mutate)
    res = workloads.Bb84(3, tmp_path).op(0)
    assert res.failed == 1 and res.attempted == inputs.BB84_CELLS


def test_corrupted_check_counts_as_failure(tiny, tmp_path, monkeypatch):
    check = workloads.Check(3, tmp_path)
    assert check.op(0).failed == 0

    def mutate(argv, out):
        if argv[0] == "compile":
            path = Path(argv[argv.index("--out") + 1])
            path.write_text(path.read_text() + "// changed\n")
        return out

    _corrupting(monkeypatch, mutate)
    assert check.op(0).failed == 1


def test_corrupted_synthesis_counts_as_failure(tiny, tmp_path, monkeypatch):
    def mutate(argv, out):
        path = Path(argv[argv.index("--out") + 1])
        payload = json.loads(path.read_text())
        payload["sequence"].insert(0, ["H", [0]])
        payload["gates"] += 1
        path.write_text(json.dumps(payload))
        return out

    _corrupting(monkeypatch, mutate)
    res = workloads.Synth(3, tmp_path).op(0)
    assert res.failed == 1 and "reconstruction error" in res.failures[0]


def test_crash_fails_the_operation_only(tiny, tmp_path, monkeypatch):
    def crash(argv, tracer=None):
        raise FloatingPointError("injected")

    monkeypatch.setattr(workloads, "call_cli", crash)
    res = workloads.Bb84(3, tmp_path).op(0)
    assert res.failed == res.attempted == inputs.BB84_CELLS
    assert "injected" in res.failures[0]


def test_two_qubit_product_matches_reconstruct():
    from qwhile.synth import GateOp, GateSequence, GateSet, reconstruct

    basic = GateSet.default()
    rng = np.random.default_rng(0)
    names = ["H", "T", "Tdg", "S", "Sdg", "X", "CNOT"]
    seq = []
    for _ in range(60):
        name = names[rng.integers(len(names))]
        qubits = [0, 1] if name == "CNOT" else [int(rng.integers(2))]
        if name == "CNOT" and rng.random() < 0.5:
            qubits.reverse()
        seq.append([name, qubits])
    ours = oracles.two_qubit_product(seq)
    theirs = reconstruct(GateSequence(tuple(GateOp(n, tuple(q), basic[n]) for n, q in seq)), 2)
    assert np.allclose(ours, theirs, atol=1e-12)


def test_phase_distance_and_grover_formula_match_the_toolchain():
    from qwhile.experiments import iteration_count, success_probability
    from qwhile.synth import phase_dist

    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = inputs.haar_unitary(rng, 4), inputs.haar_unitary(rng, 4)
        assert abs(oracles.phase_distance(a, b) - phase_dist(a, b)) < 1e-9
        assert oracles.phase_distance(a, np.exp(0.7j) * a) < 1e-9
    for n in (3, 7):
        assert inputs.grover_iterations(n) == iteration_count(1 << n, 1)
        assert abs(inputs.grover_success(n) - success_probability(1 << n, 1, iteration_count(1 << n, 1))) < 1e-12


def test_inputs_depend_only_on_the_seed():
    bundled = {n: "" for n in inputs.BUNDLED_PROGRAMS}
    assert inputs.check_sources(4, bundled) == inputs.check_sources(4, bundled)
    assert inputs.check_sources(4, bundled) != inputs.check_sources(5, bundled)
    a = inputs.haar_unitary(inputs.rng_for(4, "synth", 0), 4)
    assert np.allclose(a.conj().T @ a, np.eye(4), atol=1e-12)
    assert np.array_equal(a, inputs.haar_unitary(inputs.rng_for(4, "synth", 0), 4))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qloop",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_scale_uses_the_samples_around_each_operation(monkeypatch):
    import host

    samples = iter([0.1, 0.2, 0.05])
    monkeypatch.setattr(host, "reference_seconds", lambda: next(samples))
    speed = host.HostSpeed()          # before operation 0
    speed.sample(2)                   # after operations 0 and 1
    speed.finish(3)                   # after operation 2
    assert speed.scale(0) == speed.scale(1) == pytest.approx(host.REFERENCE_S / 0.15)
    assert speed.scale(2) == pytest.approx(host.REFERENCE_S / 0.125)
