"""One set-up measurement in a fresh process.

Usage: python3 perfbench/child.py <qwhile CLI arguments...>

Times `import qwhile.cli` plus one call of the CLI with the given
arguments, and prints {"setup_s": seconds, "code": exit code} as JSON.
The parent sets the BLAS thread pins in the environment.
"""
import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = perf_counter()
    import qwhile.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = qwhile.cli.main(sys.argv[1:])
    seconds = perf_counter() - start
    print(json.dumps({"setup_s": seconds, "code": code}))
    sys.exit(code)
