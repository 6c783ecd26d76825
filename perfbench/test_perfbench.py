"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import workload  # noqa: E402
from tracing import per_layer_names  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_benchmark(name: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--limit", "2"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(name, trace):
    result = run_benchmark(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # a traced run adds one untraced round, the baseline of its overhead
    assert (result["attempted"], result["failed"]) == (4 if trace else 2, 0)
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_declared_per_layer_metrics_match_the_tracer():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == per_layer_names()


def scenario_and_report(spec):
    sys.path.insert(0, str(workload.SOURCE))
    from mlwb.pipeline import parse_scenario, run_pipeline
    return run_pipeline(parse_scenario(gen.scenario_text(spec), spec.name))


def test_check_rejects_a_wrong_root_value():
    spec = gen.horn_closure(3)[1]
    item = (spec, gen.scenario_text(spec))
    report = scenario_and_report(spec)
    assert workload.check_scenario(item, report) == (None, False)
    flipped = not report.kripke_value
    for wrong in (dataclasses.replace(report, kripke_value=flipped),
                  dataclasses.replace(report, dense_value=flipped)):
        reason, wrong_output = workload.check_scenario(item, wrong)
        assert reason is not None and wrong_output


def test_check_rejects_a_wrong_closure_edge_count():
    spec = next(s for s in gen.horn_closure(3) if oracle.closure_edges(s))
    item = (spec, gen.scenario_text(spec))
    report = scenario_and_report(spec)
    closure = next(s for s in report.stages
                   if s.name == "unravelling-and-closure")
    closure.detail["closure_edges"] += 1
    reason, wrong_output = workload.check_scenario(item, report)
    assert "closure_edges" in reason and wrong_output


def test_oracle_closure_matches_a_hand_count():
    # the 2-cycle a <-> b unravelled to depth 3 is a -> b -> a; R^2 <= R adds
    # the one pair (a, aba)
    spec = gen.Spec(name="cycle", worlds=("a", "b"),
                    edges=(("a", "b"), ("b", "a")),
                    domains={"a": frozenset("d"), "b": frozenset("d")},
                    valuation={p: {"a": frozenset(), "b": frozenset()}
                               for p in gen.PREDICATES},
                    formula=("false",), horn_k=2, depth=3, j_max=1,
                    max_sigma=2)
    assert oracle.closure_edges(spec) == 1


def test_generation_is_seeded():
    assert [gen.scenario_text(s) for s in gen.dense_eval(7)] == \
        [gen.scenario_text(s) for s in gen.dense_eval(7)]
    assert [gen.scenario_text(s) for s in gen.horn_closure(7)] != \
        [gen.scenario_text(s) for s in gen.horn_closure(8)]
