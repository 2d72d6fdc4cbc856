"""Benchmark of the qwhile toolchain, run through its CLI.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {qloop,bb84,check,synth} --seed N \\
        --seconds S --trace {0,1}

Workloads (one process, one thread; BLAS is pinned to one thread):

  qloop  `experiment qloop` in batches of 1000 seeded shots: the sampled
         engine on 2 qubits, many tiny steps.
  bb84   `experiment bb84-sweep --sessions 2`: 6 channels x key lengths
         {16, 32, 64} x sampling fractions {0.2, 0.5}; channel application,
         measurement probabilities and sampling, no engine.
  check  `compile FILE --check` over the bundled programs, a 7-qubit
         Grover program of 600 KB of matrix literals, and seeded
         programs on 7 qubits (dense kernels) and 9 qubits (tensordot
         kernels); distribution mode in both executors, no sampling.
  synth  `synthesize --method qsd --format json --epsilon 1e-2` on seeded
         Haar 2-qubit unitaries, including the CLI's reconstruction report.

With --trace 0 the run measures end to end, with tracing off:

  setup_s      median over fresh processes of `import qwhile` plus one
               small first CLI call of the workload (s)
  peak_rss_mb  ru_maxrss of the process running the workload (MiB)
  ops_per_s    shots, sessions, programs or unitaries completed per
               second of CLI time; check uses the sum of each program's
               median time

The times behind setup_s and ops_per_s are scaled to a host of fixed
speed by a reference loop timed between operations (host.py), because
the host's speed drifts by more than the bounds over whole runs; the
raw figures are printed and recorded beside them. The run also prints
failed_ratio (operations that raised or failed their check over
operations attempted) and, for synth, gates_per_unitary.

With --trace 1 the run alternates untraced and traced rounds of the same
work and reports per-layer metrics (means over the traced rounds), the
per-program times of check, and the tracing overhead; see workloads.py.

Every output is checked off the clock against an oracle that does not
use qwhile (oracles.py). The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. A
record with the environment, output digest, failures and spans goes to
.perfbench-out/ at the root of the repository.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


def _commit() -> str | None:
    """HEAD of the repository, read without starting git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": _commit(),
        "source_digest": _source_digest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("qloop", "bb84", "check", "synth"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qwhile" / "cli.py").is_file():
        print(f"error: no qwhile sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(args.seed)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"environment": env, **outcome.record}))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={outcome.record['operations']} {outcome.record['op_kind']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value, unit in outcome.summary:
        print(f"  {name:<22} {value:.6g} {unit}")
    if args.trace:
        for name, metric in outcome.result["metrics"].items():
            print(f"  {name:<38} {metric['value']:.6g} {metric['unit']}")
        if outcome.record["unwrapped"]:
            print("  not traced, so their metrics read 0 (no longer in qwhile): "
                  + ", ".join(outcome.record["unwrapped"]))
    print(f"  digest {outcome.record['first_pass_digest']}  record {record_path.relative_to(ROOT)}")
    for failure in outcome.record["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps(outcome.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
