"""Run one splinecomb benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the library is imported from the
checkout's own ``src/`` and nothing else, and the run stops with exit code 2
when that tree is missing.  The run repeats whole passes of the workload
until ``--seconds`` of operation time have elapsed and checks every output.
Between passes it starts ``SETUP_PROBES`` fresh interpreters, spread over
the run, to time set-up; their time is not counted in ``--seconds``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced phase, followed
by an untraced phase of the same length whose ``op_s_p50`` gives the
tracing overhead.  The line before the last is a full record of the run.
Spans and per-seed counts of traced runs are kept under ``.perfbench/`` at
the checkout root.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 120
TAIL_MIN_SAMPLES = 20


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import splinecomb from this checkout's src/ or exit with code 2."""
    if not (SRC / "splinecomb" / "__init__.py").is_file():
        die(f"no splinecomb sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import splinecomb

    if Path(splinecomb.__file__).resolve().parent != SRC / "splinecomb":
        die(f"imported splinecomb from {splinecomb.__file__}, not from {SRC}")


# --------------------------------------------------------------------------
# Running operations
# --------------------------------------------------------------------------


def in_process_ops(workload, inp):
    """One pass is one operation, route comparisons included.  A pass that
    raises is a failed operation; the run goes on."""
    from workloads import FAILED, Outcome

    start = time.perf_counter()
    try:
        outcome = workload.run_pass(inp)
    except Exception as exc:  # the library under test may raise anything
        outcome = Outcome(FAILED, 0, detail=f"raised {type(exc).__name__}: {exc}")
    return [(time.perf_counter() - start, outcome)]


def spawn(*argv: str):
    """Run a fresh interpreter on `argv` inside the checkout and wait for it.

    Returns (start, elapsed, exit code, stdout, stderr, peak RSS in kB) with
    `start` on the monotonic clock, which child processes read too.  The
    child is reaped with wait4 so that its own peak RSS is known.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    with ThreadPoolExecutor(2) as pool:
        stdout, stderr = pool.submit(proc.stdout.read), pool.submit(proc.stderr.read)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.monotonic() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out, err = stdout.result(), stderr.result()
    proc.stdout.close()
    proc.stderr.close()
    return start, elapsed, proc.returncode, out, err, usage.ru_maxrss


class UntracedCli:
    """One `python -m splinecomb` subprocess per call, timed from spawn to exit."""

    def __init__(self):
        self.peak_rss_kb = 0

    def __call__(self, calls):
        from workloads import judge_cli

        results = []
        for call in calls:
            _, elapsed, code, out, err, rss_kb = spawn("-m", "splinecomb", *call.argv)
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
            results.append((elapsed, judge_cli(call, code, out, err)))
        return results


def ops_runner(workload):
    """The function that runs one input set of `workload` untraced."""
    return UntracedCli() if workload.cli else functools.partial(in_process_ops, workload)


class TracedCli:
    """Runs each call in `child.py cli`, which calls cli.main(argv) under a
    tracer and hands back its output and spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.interp_s: list[float] = []
        self.import_s: list[float] = []

    def __call__(self, calls):
        from workloads import judge_cli

        results = []
        for call in calls:
            start, elapsed, code, out, err, _ = spawn(str(BENCH / "child.py"), "cli", json.dumps(call.argv))
            if code != 0:
                raise RuntimeError(f"traced CLI runner failed for {call.argv}: {err}")
            child = json.loads(out)
            self.tracer.merge(child["spans"])
            self.interp_s.append(child["started"] - start)
            self.import_s.append(child["import_s"])
            results.append((elapsed, judge_cli(call, child["exit"], child["stdout"], child["stderr"])))
        return results


def load_digests(workload: str, seed: int) -> list:
    """Frozen per-operation digests for this workload, or [] for other seeds."""
    frozen = json.loads((BENCH / "digests.json").read_text())
    if seed != frozen["seed"]:
        return []
    return frozen["workloads"].get(workload, [])


def measure(run_set, inputs, seconds: float, digests: list, after_pass=None, probes=None):
    """Closed loop: whole passes until `seconds` of operation time have elapsed.

    Returns (ops, passes) where ops holds (seconds, Outcome) per operation.
    An operation whose output differs from its frozen digest has failed.
    With `probes`, set-up probes run between passes, spread evenly over the
    run; their time does not count toward `seconds`.
    """
    from workloads import FAILED, OK

    ops = []
    start = time.perf_counter()
    probing = 0.0
    passes = 0
    while True:
        index = passes % len(inputs)
        for k, (elapsed, outcome) in enumerate(run_set(inputs[index])):
            frozen = digests[index][k] if index < len(digests) else None
            if outcome.outcome == OK and frozen and outcome.digest != frozen:
                outcome.outcome, outcome.detail = FAILED, "differs from the frozen digest"
            ops.append((elapsed, outcome))
        passes += 1
        if after_pass:
            after_pass(passes)
        elapsed = time.perf_counter() - start - probing
        if probes is not None:
            before = time.perf_counter()
            probes.run_share(elapsed / seconds if seconds > 0 else 1.0)
            probing += time.perf_counter() - before
        if elapsed >= seconds:
            return ops, passes


class SetupProbes:
    """Fresh interpreters that import splinecomb and build the workload's
    inputs.  Run between passes, they sample the whole run rather than one
    moment of it, and their median is steady against short bursts of load
    from other processes on the machine."""

    def __init__(self, workload: str, seed: int, count: int = SETUP_PROBES):
        self.workload, self.seed, self.count = workload, seed, count
        self.runs: list[dict] = []

    def run_share(self, share: float) -> None:
        """Run probes until `share` (capped at 1) of the count has run."""
        while len(self.runs) < math.ceil(self.count * min(share, 1.0)):
            start, _, code, out, err, _ = spawn(str(BENCH / "child.py"), "setup", self.workload, str(self.seed))
            if code != 0:
                raise RuntimeError(f"set-up probe failed: {err}")
            child = json.loads(out)
            self.runs.append(
                {
                    "setup_s": child["ready"] - start,
                    "interp_s": child["started"] - start,
                    "import_s": child["import_s"],
                }
            )


# --------------------------------------------------------------------------
# Statistics and metrics
# --------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with at least ten
    samples beyond it, by nearest rank.  Below TAIL_MIN_SAMPLES that
    percentile would not lie above the median, so the slowest sample
    (percentile 100) is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], 100
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return ordered[rank - 1], pct


def failed_frac(ops) -> float:
    """Share of operations that broke their contract, known defects included."""
    from workloads import OK

    return sum(o.outcome != OK for _, o in ops) / len(ops)


def end_to_end(ops, probes, peak_rss_kb: int) -> dict:
    times = [t for t, _ in ops]
    tail_value, _ = tail(times)
    return {
        "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
        "op_s_p50": {"value": statistics.median(times), "unit": "s"},
        "op_s_tail": {"value": tail_value, "unit": "s"},
        "checks_per_s": {"value": sum(o.checks for _, o in ops) / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
        "ok_frac": {"value": 1 - failed_frac(ops), "unit": "ratio"},
    }


COUNT_METRICS = {
    # metric: (span names whose calls are summed) or a hook count
    "polyring.mul.calls": ("polyring.Polynomial.__mul__", "polyring.Polynomial.__rmul__"),
    "polyring.pow.calls": ("polyring.Polynomial.__pow__",),
    "polyring.interpolate.calls": ("polyring.interpolate",),
    "eulerian.lambda.calls": ("eulerian.refined_lambda_extraction",),
    "geometry.minkowski.calls": ("geometry.minkowski_poly",),
    "splinecore.eval.calls": ("splinecore.bspline_eval_explicit", "splinecore.bspline_eval_recurrence"),
    "splinecore.piece.calls": ("splinecore.bspline_piece",),
}


def pass_counts(snapshot: dict) -> dict:
    """Counts of the first traced pass: a function of the seed and the code only."""
    calls = snapshot["calls"]
    counts = {name: sum(calls.get(span, 0) for span in spans) for name, spans in COUNT_METRICS.items()}
    counts["numcore.calls"] = sum(c for span, c in calls.items() if span.startswith("numcore."))
    counts["polyring.mul.coeff_products"] = snapshot["counts"].get("polyring.mul.coeff_products", 0)
    counts["verify.cases"] = snapshot["counts"].get("verify.cases", 0)
    for family, call_metric in (("eulerian.lambda", "eulerian.lambda.calls"), ("geometry.minkowski", "geometry.minkowski.calls")):
        n = counts[call_metric]
        counts[f"{family}.distinct_ratio"] = snapshot["distinct"].get(family, 0) / n if n else 0.0
    return counts


def per_layer(tracer, marks: list[int], pass0: dict, interp_s, import_s, overhead: float) -> dict:
    """Per-layer metrics of the traced phase.

    Self times and suite times are medians over passes of seconds per pass;
    rates divide work counted over every traced pass by the inclusive time
    of the calls that did it; cli.* are medians per fresh interpreter.
    """
    import numpy as np
    from spans import LAYERS

    name_ids, _, durations, selfs = tracer.arrays()
    layer_index = np.array([LAYERS.index(n.split(".", 1)[0]) for n in tracer.names], dtype=np.int64)
    span_layer = layer_index[name_ids]
    bounds = list(zip([0] + marks[:-1], marks))

    def per_pass(values, mask):
        """Median over passes of the per-pass sum of values[mask]."""
        return statistics.median(float(values[a:b][mask[a:b]].sum()) for a, b in bounds)

    def spans_named(*names):
        return np.isin(name_ids, [i for i, n in enumerate(tracer.names) if n in names])

    def rate(count_key, *names):
        busy = float(durations[spans_named(*names)].sum())
        return tracer.counts.get(count_key, 0) / busy if busy else 0.0

    main_spans = durations[spans_named("cli.main")]
    metrics = {name: {"value": value, "unit": "count"} for name, value in pass_counts(pass0).items()}
    for family in ("eulerian.lambda", "geometry.minkowski"):
        metrics[f"{family}.distinct_ratio"]["unit"] = "ratio"
    for layer in ("polyring", "eulerian", "descent", "splinecore", "numcore", "geometry", "verify"):
        metrics[f"{layer}.self_s"] = {"value": per_pass(selfs, span_layer == LAYERS.index(layer)), "unit": "s"}
    metrics["eulerian.brute.perms_per_s"] = {
        "value": rate("eulerian.brute.perms", "eulerian.eulerian_bruteforce", "eulerian.refined_bruteforce"),
        "unit": "1/s",
    }
    metrics["descent.brute.objects_per_s"] = {"value": rate("descent.brute.objects", "descent.indexed_bruteforce"), "unit": "1/s"}
    metrics["geometry.mc.samples_per_s"] = {"value": rate("geometry.mc.samples", "geometry.mc_volume"), "unit": "1/s"}
    metrics["geometry.mc.self_s"] = {"value": per_pass(selfs, spans_named("geometry.mc_volume")), "unit": "s"}
    for suite in ("bspline", "eulerian", "descent", "geometry", "mc"):
        metrics[f"verify.{suite}_s"] = {"value": per_pass(durations, spans_named(f"verify.verify_{suite}")), "unit": "s"}
    metrics["cli.interp_s"] = {"value": statistics.median(interp_s), "unit": "s"}
    metrics["cli.import_s"] = {"value": statistics.median(import_s), "unit": "s"}
    metrics["cli.main_s"] = {"value": float(np.median(main_spans)) if len(main_spans) else 0.0, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def check_counts_repeat(workload: str, seed: int, counts: dict, source: str) -> str | None:
    """Compare the first pass's counts with the last traced run of the same
    seed on the same sources; return a description of any mismatch."""
    STATE.mkdir(exist_ok=True)
    path = STATE / f"counts-{workload}-{seed}.json"
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous["source_sha256"] == source and previous["counts"] != counts:
            diff = sorted(k for k in counts if previous["counts"].get(k) != counts[k])
            return f"counts differ from the previous traced run of seed {seed}: {diff}"
    path.write_text(json.dumps({"source_sha256": source, "counts": counts}, sort_keys=True))
    return None


# --------------------------------------------------------------------------
# Provenance
# --------------------------------------------------------------------------


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "splinecomb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
    }


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def run(args) -> tuple[dict, dict]:
    """Returns (record, result) for one run."""
    import workloads
    from spans import Tracer
    from workloads import FAILED, KNOWN_DEFECT

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    digests = load_digests(workload.name, args.seed)
    run_set = ops_runner(workload)
    probes = SetupProbes(workload.name, args.seed)

    record = provenance(args)
    extra_interp, extra_import = [], []
    problems = []
    if args.trace:
        tracer = Tracer()
        marks, first = [], {}

        def after_pass(passes):
            marks.append(tracer.mark())
            if passes == 1:
                first.update(tracer.snapshot())

        half = args.seconds / 2
        if workload.cli:
            traced_cli = TracedCli(tracer)
            traced_ops, traced_passes = measure(traced_cli, inputs, half, digests, after_pass)
            extra_interp, extra_import = traced_cli.interp_s, traced_cli.import_s
        else:
            with tracer:
                traced_ops, traced_passes = measure(run_set, inputs, half, digests, after_pass)
        ops, passes = measure(run_set, inputs, half, digests, probes=probes)
        ops_all = traced_ops + ops
    else:
        ops, passes = measure(run_set, inputs, args.seconds, digests, probes=probes)
        ops_all = ops
    peak_rss_kb = run_set.peak_rss_kb if workload.cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes.run_share(1.0)
    failed = [o for _, o in ops_all if o.outcome == FAILED]
    defects = [o for _, o in ops_all if o.outcome == KNOWN_DEFECT]
    times = [t for t, _ in ops]
    _, tail_pct = tail(times)
    record.update(
        {
            "passes": passes,
            "ops": len(ops),
            "op_s_tail_percentile": tail_pct,
            "op_s_samples": len(times),
            "attempted": len(ops_all),
            "failed_frac": failed_frac(ops_all),
            "known_defect_ops": len(defects),
            "failures": sorted({o.detail for o in failed})[:10],
            "known_defects": sorted({o.detail for o in defects}),
        }
    )

    if args.trace:
        traced_times = [t for t, _ in traced_ops]
        overhead = statistics.median(traced_times) / statistics.median(times) - 1
        metrics = per_layer(
            tracer,
            marks,
            first,
            [p["interp_s"] for p in probes.runs] + extra_interp,
            [p["import_s"] for p in probes.runs] + extra_import,
            overhead,
        )
        counts = {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio") and not k.startswith("trace.")}
        mismatch = check_counts_repeat(workload.name, args.seed, counts, record["source_sha256"])
        if mismatch:
            problems.append(mismatch)
        STATE.mkdir(exist_ok=True)
        tracer.write(STATE / f"spans-{workload.name}.npz")
        record.update(
            {
                "traced_passes": traced_passes,
                "traced_op_s_p50": statistics.median(traced_times),
                "untraced_op_s_p50": statistics.median(times),
                "spans": len(tracer.starts),
                "untraced_layers": sorted(set(tracer.untraced_layers()) | tracer.merged_untraced),
            }
        )
    else:
        metrics = end_to_end(ops, probes.runs, peak_rss_kb)
    record["problems"] = problems
    record["metrics"] = metrics
    result = {
        "correct": not failed and not problems,
        "attempted": len(ops_all),
        "failed": len(failed),
        "metrics": metrics,
    }
    return record, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    record, result = run(args)
    for problem in record["problems"] + record["failures"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
