"""Fresh-interpreter child of the benchmark.  It imports splinecomb, times
that import, does one step, and prints JSON with ``started`` (its
``time.monotonic`` at start, comparable with the parent's clock),
``import_s`` and the step's own fields.

    python3 perfbench/child.py setup WORKLOAD SEED
        builds the workload's inputs and reports when it was ``ready``.
    python3 perfbench/child.py cli '["eulerian", "row", "--d", "4"]'
        runs ``splinecomb.cli.main(argv)`` the way ``python -m splinecomb``
        would, with every imported layer traced, and reports its exit
        code, output and spans.
"""

import time

STARTED = time.monotonic()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def setup(workload: str, seed: str) -> dict:
    import workloads

    workloads.WORKLOADS[workload].make_inputs(int(seed))
    return {"ready": time.monotonic()}


def cli(argv_json: str) -> dict:
    import splinecomb.cli
    from spans import Tracer

    out, err = io.StringIO(), io.StringIO()
    with Tracer() as tracer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = splinecomb.cli.main(json.loads(argv_json))
        except SystemExit as exc:  # argparse usage errors exit here
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an uncaught error: what the interpreter would print
            traceback.print_exc()
            code = 1
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "spans": tracer.export()}


STEPS = {"setup": ("splinecomb", setup), "cli": ("splinecomb.cli", cli)}


def main() -> None:
    mode, *args = sys.argv[1:]
    package, step = STEPS[mode]
    before = time.monotonic()
    importlib.import_module(package)
    import_s = time.monotonic() - before
    print(json.dumps({"started": STARTED, "import_s": import_s, **step(*args)}))


if __name__ == "__main__":
    main()
