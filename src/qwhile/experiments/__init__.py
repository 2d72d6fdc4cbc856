"""Runnable experiments: Qloop, BB84 (simple/multi-client/noisy), Grover."""
from importlib import resources

from .bb84 import (
    BB84Session,
    BB84Transcript,
    SweepCell,
    bb84_channel_sweep,
    bb84_multi_client,
    bb84_run,
    paper_channels,
    sweep_csv,
)
from .grover import (
    GroverResult,
    GroverSpec,
    degradation_probe,
    diffusion_matrix,
    grover_run,
    grover_source,
    iteration_count,
    oracle_matrix,
    success_probability,
)
from .qloop import (
    QloopResult,
    qloop_program,
    qloop_run,
    qloop_source,
)


def program_source(name: str) -> str:
    """Text of a bundled `.qw` program (e.g. 'qloop', 'coin', 'grover8')."""
    return resources.files(__package__).joinpath(f"programs/{name}.qw").read_text()


def program_names() -> list[str]:
    files = resources.files(__package__).joinpath("programs")
    return sorted(p.name[:-3] for p in files.iterdir() if p.name.endswith(".qw"))


__all__ = [
    "BB84Session", "BB84Transcript", "SweepCell", "bb84_channel_sweep",
    "bb84_multi_client", "bb84_run", "paper_channels", "sweep_csv",
    "GroverResult", "GroverSpec", "degradation_probe", "diffusion_matrix",
    "grover_run", "grover_source", "iteration_count", "oracle_matrix",
    "success_probability",
    "QloopResult", "qloop_program", "qloop_run", "qloop_source",
    "program_source", "program_names",
]
