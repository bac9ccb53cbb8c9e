"""Tests of the benchmark harness itself (not of splinecomb).

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

run.import_library()

import spans  # noqa: E402
import workloads  # noqa: E402
from splinecomb import eulerian, verify  # noqa: E402

SMALL_VERIFY = verify.VerifyConfig(d_max=3, n_max=2, mc_samples=2_000, mc_dilated_d_max=2, sample_points=5)
SMALL_TABLES = workloads.TablesInput(
    descent_d=6,
    descent_n=3,
    refined_d=4,
    minkowski_d=4,
    eval_d=5,
    eval_points=(Fraction(7, 3), Fraction(1, 2)),
    piece_d=4,
    piece_points=(Fraction(1, 3), Fraction(5, 4), Fraction(9, 4), Fraction(13, 4)),
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    make = workloads.WORKLOADS[name].make_inputs
    first = make(7)
    assert len(first) == workloads.WORKLOADS[name].input_sets
    assert make(7) == first
    assert make(8) != first


def test_cli_mix_covers_every_leaf_subcommand_once():
    calls = workloads.cli_cold_input(3, 0)
    leaves = {c.argv[:2] for c in calls if c.expect == "ok"}
    assert len(leaves) == 11  # every leaf except `verify --all`
    assert sum(c.kind == "geometry-mc" for c in calls) == 2
    assert sum(c.expect == "usage" for c in calls) == 4


def _in_process(name):
    return run.ops_runner(workloads.WORKLOADS[name])


def _perturbed_lambda(monkeypatch):
    original = eulerian.refined_lambda_extraction

    def off_by_one(d, k, j):
        return original(d, k, j) + (1 if (k, j) == (1, 1) else 0)

    monkeypatch.setattr(eulerian, "refined_lambda_extraction", off_by_one)


def test_perturbed_route_counts_in_failed_frac(monkeypatch):
    run_set = _in_process("tables-large")
    clean, _ = run.measure(run_set, [SMALL_TABLES], 0, [])
    assert run.failed_frac(clean) == 0

    _perturbed_lambda(monkeypatch)
    ops, _ = run.measure(run_set, [SMALL_TABLES], 0, [])
    assert run.failed_frac(ops) == 1
    assert ops[0][1].detail == "refined lambda"


def test_perturbed_verify_case_counts_in_failed_frac(monkeypatch):
    _perturbed_lambda(monkeypatch)
    ops, _ = run.measure(_in_process("exact-deep"), [SMALL_VERIFY], 0, [])
    assert run.failed_frac(ops) == 1
    assert "eulerian" in ops[0][1].detail


def test_raising_pass_counts_in_failed_frac(monkeypatch):
    def broken(d, k, j):
        raise ZeroDivisionError("perturbed")

    monkeypatch.setattr(eulerian, "refined_lambda_extraction", broken)
    ops, _ = run.measure(_in_process("exact-deep"), [SMALL_VERIFY], 0, [])
    assert run.failed_frac(ops) == 1
    assert ops[0][1].detail == "raised ZeroDivisionError: perturbed"


def test_output_differing_from_frozen_digest_fails():
    run_set = _in_process("tables-large")
    good, _ = run.measure(run_set, [SMALL_TABLES], 0, [])
    frozen = [[good[0][1].digest]]
    again, _ = run.measure(run_set, [SMALL_TABLES], 0, frozen)
    assert run.failed_frac(again) == 0
    wrong, _ = run.measure(run_set, [SMALL_TABLES], 0, [["0" * 64]])
    assert run.failed_frac(wrong) == 1


def test_cli_judgement():
    call = workloads.Call("eulerian-row", ("eulerian", "row", "--d", "4", "--route", "spline"), params={"d": 4, "route": "spline"})
    right = json.dumps({"d": 4, "route": "spline", "values": ["1", "11", "11", "1"]}) + "\n"
    wrong = right.replace('"11", "1"]', '"12", "1"]')
    assert workloads.judge_cli(call, 0, right, "").outcome == workloads.OK
    assert workloads.judge_cli(call, 0, wrong, "").outcome == workloads.FAILED
    assert workloads.judge_cli(call, 1, "", "Traceback (most recent call last):\n").outcome == workloads.FAILED

    usage = workloads.Call("usage-piece", ("bspline", "piece", "--d", "2", "--j", "5"), expect="usage", known_defect="IndexOutOfSupport")
    assert workloads.judge_cli(usage, 2, "", "error: piece index 5 outside support\n").outcome == workloads.OK
    defect = "Traceback (most recent call last):\nsplinecomb.errors.IndexOutOfSupport: piece index 5\n"
    assert workloads.judge_cli(usage, 1, "", defect).outcome == workloads.KNOWN_DEFECT
    assert workloads.judge_cli(usage, 0, "", "").outcome == workloads.FAILED
    ops = [(1.0, workloads.judge_cli(usage, 1, "", defect)), (1.0, workloads.judge_cli(call, 0, right, ""))]
    assert run.failed_frac(ops) == 0.5


def test_self_times_on_a_synthetic_span_tree():
    # root(10) -> a(3) -> c(1);  root -> b(4)
    parents = np.array([-1, 0, 1, 0])
    durations = np.array([10.0, 3.0, 1.0, 4.0])
    assert spans.self_times(parents, durations).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_traced_self_times_add_up_to_the_traced_time():
    with spans.Tracer() as tracer:
        workloads.verify_default_pass(SMALL_VERIFY)
    _, parents, durations, selfs = tracer.arrays()
    roots = parents < 0
    assert selfs.min() >= 0
    assert selfs.sum() == pytest.approx(durations[roots].sum())


def test_tracer_restores_original_bindings():
    before = (eulerian.refined_explicit, verify.verify_all, eulerian.Polynomial.__mul__)
    with spans.Tracer():
        assert eulerian.refined_explicit is not before[0]
    assert (eulerian.refined_explicit, verify.verify_all, eulerian.Polynomial.__mul__) == before


@pytest.mark.parametrize(
    "run_pass, inp",
    [(workloads.verify_default_pass, SMALL_VERIFY), (workloads.tables_large_pass, SMALL_TABLES)],
)
def test_traced_and_untraced_outputs_are_identical(run_pass, inp):
    untraced = run_pass(inp)
    with spans.Tracer():
        traced = run_pass(inp)
    assert untraced.outcome == workloads.OK
    assert traced.digest == untraced.digest


def test_traced_cli_output_matches_the_real_cli():
    calls = [c for c in workloads.cli_cold_input(5, 0) if c.kind in ("bspline-eval", "descent-table", "usage-budget")]
    assert len(calls) == 3
    tracer = spans.Tracer()
    traced = run.TracedCli(tracer)(calls)
    untraced = run.UntracedCli()(calls)
    assert [o.digest for _, o in traced] == [o.digest for _, o in untraced]
    assert [o.outcome for _, o in traced] == [workloads.OK] * 3
    assert tracer.snapshot()["calls"]["cli.main"] == 3


def test_counts_repeat_exactly():
    def first_pass_counts():
        with spans.Tracer() as tracer:
            workloads.exact_deep_pass(SMALL_VERIFY)
        return run.pass_counts(tracer.snapshot())

    first = first_pass_counts()
    assert first["polyring.mul.calls"] > 0 and first["verify.cases"] > 0
    assert first_pass_counts() == first


def test_tracer_names_a_layer_imported_after_install(monkeypatch):
    monkeypatch.delitem(sys.modules, "splinecomb.cli", raising=False)
    with spans.Tracer() as tracer:
        assert tracer.untraced_layers() == []
        importlib.import_module("splinecomb.cli")
        assert tracer.untraced_layers() == ["cli"]
        assert tracer.export()["untraced_layers"] == ["cli"]


def test_tracer_does_not_load_numpy():
    code = "import sys, spans; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=run.BENCH, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr


def test_setup_probes_are_spread_over_the_run():
    class Probes:
        shares = []

        def run_share(self, share):
            self.shares.append(share)

    probes = Probes()

    def timed_pass(inp):
        time.sleep(0.01)
        return [(0.01, workloads.Outcome(workloads.OK, 1))]

    _, n = run.measure(timed_pass, [None], 0.05, [], probes=probes)
    assert len(probes.shares) == n > 1
    assert probes.shares == sorted(probes.shares) and probes.shares[-1] >= 1


def test_spawn_reports_the_child_exit_output_and_peak_rss():
    _, elapsed, code, out, err, rss_kb = run.spawn("-c", "import sys; print('out'); sys.exit(3)")
    assert (code, out, err) == (3, "out\n", "")
    assert elapsed > 0 and rss_kb > 1000


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90)
    assert sum(v > 90.0 for v in values) == 10


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "digests.json").write_bytes((run.BENCH / "digests.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cli-cold", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
