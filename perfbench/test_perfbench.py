"""Tests of the benchmark itself; no timing is asserted.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import cProfile
import pstats
import random
import statistics
import sys

import pytest

import calibration
import probe
import run
import tracer
import worker
import workloads
from workloads import Op

CLI, _SETUP_S = probe.import_cli()

COMPLETENESS_OPS = (
    Op(("verify", "-n", "3", "-l", "3,1"), 3, (3, 1)),
    Op(("verify", "-n", "3", "--all-upto", "2"), 3, ()),
)

# Small ops covering every command the workloads run.
MINI_OPS = (
    Op(("verify", "-n", "3", "-l", "2,1", "--json"), 3, (2, 1)),
    Op(("verify", "-n", "4", "-l", "2,1", "--json"), 4, (2, 1)),
    Op(("graph", "-n", "4", "-l", "2,1", "--model", "ssyt", "--format", "json"), 4, (2, 1)),
    Op(("enumerate", "-n", "4", "-l", "3,1"), 4, (3, 1)),
    Op(("enumerate", "-n", "4", "-l", "2,1", "--model", "ssyt"), 4, (2, 1)),
)


def cprofile_counts(op):
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = worker.run_op(CLI, op, {})
    finally:
        profile.disable()
    return pstats.Stats(profile).stats, result


def traced_run(op, expected):
    trace = tracer.Tracer()
    trace.install()
    try:
        bindings = {
            "bijection.validate_pattern": sys.modules["gtcrystal.bijection"].validate_pattern,
            "cli.weyl_dimension": CLI.weyl_dimension,
            "cli.partitions_up_to": CLI.partitions_up_to,
            "package.verify_axioms": sys.modules["gtcrystal"].verify_axioms,
        }
        result = worker.run_op(CLI, op, expected)
    finally:
        trace.uninstall()
    return trace, bindings, result


@pytest.mark.parametrize("op", COMPLETENESS_OPS, ids=lambda op: op.key)
def test_traced_call_counts_equal_cprofile_primitive_counts(op):
    stats, untraced = cprofile_counts(op)
    trace, bindings, traced = traced_run(op, {op.key: untraced.digest})

    calls = trace.calls()
    mismatches = {}
    for name, fn in trace.originals.items():
        code = fn.__code__
        primitive = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0,))[0]
        if calls[name] != primitive:
            mismatches[name] = {"traced": calls[name], "cprofile": primitive}
    assert not mismatches
    assert calls["cli.main"] == 1 and calls["gtpattern.lower_gtp"] > 0
    assert traced.witness is None  # same stdout digest as the untraced run, and exit code 0
    for name, bound in bindings.items():
        assert getattr(bound, "__wrapped__", None) is not None, f"{name} was not rebound"


def test_uninstall_restores_every_binding():
    modules = [m for name, m in sys.modules.items() if name == "gtcrystal" or name.startswith("gtcrystal.")]
    before = [dict(vars(m)) for m in modules]
    methods = {cls: dict(vars(cls)) for m in modules for cls in vars(m).values() if isinstance(cls, type)}
    trace = tracer.Tracer()
    trace.install()
    assert sys.modules["gtcrystal.ssyt"].Tableau.cell is not methods[sys.modules["gtcrystal.ssyt"].Tableau]["cell"]
    trace.uninstall()
    for module, namespace in zip(modules, before):
        assert all(vars(module)[key] is value for key, value in namespace.items())
    for cls, namespace in methods.items():
        assert all(vars(cls)[key] is value for key, value in namespace.items())


def traced_pass_metrics(ops, seed):
    expected = {op.key: worker.run_op(CLI, op, {}).digest for op in ops}
    order = list(range(len(ops)))
    random.Random(seed).shuffle(order)
    trace = tracer.Tracer()
    trace.install()
    try:
        results = worker.run_pass(CLI, ops, order, expected, 0, trace)
    finally:
        trace.uninstall()
    assert [r.witness for r in results] == [None] * len(ops)
    elements = sum(op.elements for op in ops)
    return tracer.layer_metrics(trace, elements, sum(r.nbytes for r in results))


def test_counts_and_ratios_repeat_across_runs_and_seeds():
    runs = [traced_pass_metrics(MINI_OPS, seed) for seed in (1, 1, 2)]
    assert set(runs[0]) == {name for name, _unit in tracer.PER_LAYER} - {tracer.OVERHEAD}
    for name in tracer.EXACT:
        assert runs[0][name] == runs[1][name] == runs[2][name], name
    assert runs[0]["gtpattern.entry.calls"] > 0 and runs[0]["ssyt.reading.per_query"] == 1.0
    assert runs[0]["cli.output_bytes"] > 0 and runs[0]["crystal.op.calls_per_distinct"] > 1.0


def test_workload_element_counts_use_the_weyl_product():
    sweep = workloads.WORKLOADS["verify-sweep"]
    assert len(sweep) == 102 and sum(op.elements for op in sweep) == 3906
    assert [op.elements for op in workloads.WORKLOADS["verify-large"]] == [1024, 896]
    assert [op.elements for op in workloads.WORKLOADS["export"]] == [8064, 22050, 8064]


def test_output_checks_name_a_witness():
    verify = MINI_OPS[0]
    graph = MINI_OPS[2]
    enum = MINI_OPS[3]
    texts = {op.key: worker.run_op(CLI, op, {}, keep=True).text for op in (verify, graph, enum)}
    for op in (verify, graph, enum):
        assert workloads.check_output(op, texts[op.key]) is None

    assert "pass" in workloads.check_output(verify, texts[verify.key].replace('"pass": true', '"pass": false'))
    assert "Weyl" in workloads.check_output(verify, texts[verify.key].replace('"elements": 8', '"elements": 7'))
    dangling = texts[graph.key].replace('"to": "', '"to": "x', 1)
    assert "edge endpoint" in workloads.check_output(graph, dangling)
    lines = texts[enum.key].splitlines(keepends=True)
    assert "distinct" in workloads.check_output(enum, "".join(lines + lines[:1]))
    assert "Weyl" in workloads.check_output(enum, "".join(lines[:-1]))
    assert "parse" in workloads.check_output(verify, "{")


def test_end_to_end_statistics_of_a_run():
    ref = calibration.REFERENCE_S
    # 7 passes of verify-large; op 1 is 1 s slower; latencies grow 10 ms a pass.
    records = [[k, p, 2.0 + k + p / 100, 0.5, ref] for p in range(7) for k in (0, 1)]
    measured = {"ops": records, "witnesses": ["FAIL one op"], "peak_rss_mb": 10.0}
    setup = [[0.04, ref], [0.05, 2 * ref]]  # the second ran on a machine half as fast
    metrics, _notes = run.end_to_end(measured, workloads.WORKLOADS["verify-large"], 6, setup)

    assert metrics["op_tail_s"] == (pytest.approx(2.02), "s")  # 11th slowest of the last 6 passes
    assert metrics["op_p50_s"] == (pytest.approx((2.06 + 3.0) / 2), "s")
    assert metrics["elements_per_s"][0] == pytest.approx(statistics.median(1920 / (5 + p / 50) for p in range(7)))
    assert metrics["first_output_s"] == (pytest.approx(0.5), "s")
    assert metrics["setup_s"] == (pytest.approx((0.04 + 0.025) / 2), "s")
    assert metrics["success_rate"] == (pytest.approx(1 - 1 / 14), "ratio")
