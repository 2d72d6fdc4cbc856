"""Runnable experiments: Qloop, BB84 (simple/multi-client/noisy), Grover.

Importing the package loads Qloop (and with it `lang` and `engine`), not
BB84 or Grover: their names load `bb84` or `grover` on first use (PEP
562 `__getattr__`), so a command pays only for the experiment it runs.
`bb84_channel_sweep` is bound here all the same, as a stand-in that
loads `bb84` on its first call, so that a profiler can wrap it as an
attribute of the package.
"""
from importlib import import_module, resources

from ..lazy import on_first_call
from .qloop import (
    QloopResult,
    qloop_program,
    qloop_run,
    qloop_source,
)

bb84_channel_sweep = on_first_call(globals(), "qwhile.experiments.bb84", "bb84_channel_sweep")

# name -> the module that defines it, loaded on the name's first use
_LAZY = {
    **dict.fromkeys(("BB84Session", "BB84Transcript", "SweepCell", "bb84_multi_client",
                     "bb84_run", "paper_channels", "sweep_csv"), "bb84"),
    **dict.fromkeys(("GroverResult", "GroverSpec", "degradation_probe", "diffusion_matrix",
                     "grover_run", "grover_source", "iteration_count", "oracle_matrix",
                     "success_probability"), "grover"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


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
