"""Tests of the benchmark's own machinery: self-time arithmetic, the tracer's
install and removal, and how the checker counts NaN and raised ops."""

import json
import math
import os
import sys
from pathlib import Path

import pytest

import bellforge
import harness
import tracing
import workloads
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
REFUSAL = bellforge.BellforgeError


def _bellforge_functions() -> dict:
    return {
        (name, attr): obj
        for name, module in list(sys.modules.items())
        if name == "bellforge" or name.startswith("bellforge.")
        for attr, obj in vars(module).items()
        if callable(obj)
    }


def test_self_time_subtracts_the_union_of_child_spans():
    # Root 0 [0,10] has children 1 [1,4], 4 [2,3] (inside 1), 2 [5,9] and
    # 5 [9.5,12], which runs past the root's end: only the union of the
    # children inside [0,10] is subtracted. 2 has child 3 [6,7].
    starts = [0.0, 1.0, 5.0, 6.0, 2.0, 9.5]
    ends = [10.0, 4.0, 9.0, 7.0, 3.0, 12.0]
    parents = [-1, 0, 0, 2, 0, 0]
    assert tracing.self_times(starts, ends, parents) == pytest.approx([2.5, 3.0, 3.0, 1.0, 1.0, 2.5])


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    from bellforge import bell, cli, coherent, flatmaps

    before = _bellforge_functions()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bell.coherent_cp1 is coherent.coherent_cp1
        assert bell.coherent_cp1.__wrapped__ is before[("bellforge.coherent", "coherent_cp1")]
        assert cli.verify_antimap is flatmaps.verify_antimap is bellforge.verify_antimap
        assert cli.main is not before[("bellforge.cli", "main")]
    finally:
        tracer.uninstall()
    after = _bellforge_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_pass_records_nested_spans_and_removes_wrappers():
    before = _bellforge_functions()
    ops, _ = workloads.quad_ladder(bellforge, seed=3)
    small = [op for op in ops if op.rung == 2] + [Op("raises", lambda: 1 / 0)]
    tracer = tracing.Tracer()
    results = harness.run_pass(small, tracer, REFUSAL)
    after = _bellforge_functions()
    assert all(after[key] is before[key] for key in before)

    assert [r.ok for r in results] == [True] * (len(small) - 1) + [False]
    names = tracer.names
    fivel = names.index("bell.fivel_bell")
    child = names.index("coherent.coherent_cp1", fivel)
    chain = []
    while child >= 0:
        chain.append(names[child])
        child = tracer.parents[child]
    assert chain[-1].startswith("bench.op fivel_bell")
    assert "quadrature.integrate_cp1" in chain and "bell.fivel_bell" in chain
    counts = harness.per_pass_layers(tracer)[0]
    # 2j = 2: four Bell integrals, unity, measure and three moments, each 4 x 7 nodes
    assert counts["quadrature.nodes"] == 9 * 4 * 7
    assert counts["coherent.coherent_cp1.calls"] == 5 * 4 * 7


def test_nan_and_raised_ops_count_toward_ops_failed_frac():
    ops = [
        Op("passes", lambda: [(1e-12, 1e-10)]),
        Op("nan behind a finite residual", lambda: [(0.0, 1e-10), (math.nan, 1e-10)]),
        Op("raises", lambda: 1 / 0),
    ]
    summary = harness.op_summary([workloads.run_op(op, REFUSAL) for op in ops])
    assert (summary["attempted"], summary["failed"], summary["unexpected"]) == (3, 2, 2)
    assert summary["ops_failed_frac"] == pytest.approx(2 / 3)
    assert summary["tol_margin_digits"] == pytest.approx(2.0)


def test_known_defect_failures_are_counted_but_expected():
    def refused():
        raise bellforge.DomainError("outside the supported range")

    defect = "known"
    cases = {
        "nan": (Op("nan", lambda: [(math.nan, 1e-10)], defect=defect), True),
        "refused": (Op("refused", refused, defect=defect), True),
        "crash": (Op("crash", lambda: 1 / 0, defect=defect), False),
        "wrong": (Op("wrong", lambda: [(1.0, 1e-10)], defect=defect), False),
    }
    for op, expected in cases.values():
        result = workloads.run_op(op, REFUSAL)
        assert not result.ok and result.expected is expected, op.name
    probe = [op for op in workloads.quad_ladder(bellforge, 0)[0] if op.defect][-1]
    result = workloads.run_op(probe, REFUSAL)
    assert result.ok or result.expected


def test_report_checks_reads_values_nan_aware():
    text = (
        "command: verify all\n"
        "check a: value=1e-15 <= 1e-10 PASS\n"
        "check rank: value=3 == 3 PASS\n"
        "result: PASS (2/2)\n"
    )
    checks = workloads.report_checks(text)
    assert checks == [(1e-15, 1e-10), (0.0, None)]
    assert workloads.judge(checks) == (None, pytest.approx(5.0))
    nan_text = text.replace("value=1e-15", "value=nan")
    assert workloads.judge(workloads.report_checks(nan_text))[0] == "non-finite residual"
    with pytest.raises(RuntimeError):
        workloads.report_checks(text.replace("result: PASS", "result: FAIL"))


def test_traced_cli_op_adopts_child_spans(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = workloads.CliCommands(env, tmp_path)
    op = Op("verify fourier", lambda: commands.run(["verify", "fourier", "--n", "3"], workloads.report_checks))
    tracer = tracing.Tracer()
    (result,) = harness.run_pass([op], tracer, REFUSAL, commands)
    assert result.ok and commands.tracer is None
    main = tracer.names.index("cli.main")
    assert tracer.names[tracer.parents[main]] == "bench.op verify fourier"
    inner = tracer.names.index("fourier.verify_shift_diagonalization")
    assert tracer.parents[inner] == main
    assert list(tmp_path.iterdir()) == []


def test_tail_and_cost_exponent():
    assert harness.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    with pytest.raises(ValueError):
        harness.tail([1.0] * harness.TAIL_BEYOND)
    rung_s = {two_j: 3e-7 * two_j**4 for two_j in harness.COST_RUNGS}
    assert harness.cost_exponent(rung_s) == pytest.approx(4.0)


def test_benchmark_json_names_only_metrics_the_benchmark_produces():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    known = harness.known_metric_names()
    assert [m["name"] for m in spec["per_layer"] if m["name"] not in known] == []
    results = [workloads.run_op(Op(f"op{i}", lambda: [(1e-12, 1e-10)]), REFUSAL) for i in range(11)]
    passes = [harness.Pass(False, 1.0, results)]
    values, _ = harness.end_to_end(passes, harness.op_summary(results), [0.1, 0.2, 0.3], in_process=True)
    assert {m["name"] for m in spec["end_to_end"]} == set(values)
