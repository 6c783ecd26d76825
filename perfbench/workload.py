"""One workload in one fresh interpreter; ``run.py`` starts it.

Prints ``ready`` as soon as mlwb is imported and the inputs exist, then runs
whole rounds of the workload's operations until ``--seconds`` have passed
(never cutting a round short), checks every output, and prints one JSON
line with the operation times and check results.  ``--setup-only`` stops
after ``ready``; ``run.py`` uses it to sample set-up time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SOURCE = CHECKOUT / "src"

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("dense-eval", "horn-closure", "selftest")


def import_mlwb(module: str):
    """Import an mlwb module from this checkout's source tree only."""
    sys.path.insert(0, str(SOURCE))
    imported = importlib.import_module(f"mlwb.{module}")
    found = Path(imported.__file__).resolve()
    if SOURCE.resolve() not in found.parents:
        raise SystemExit(f"mlwb was imported from {found}, not from {SOURCE}")
    return imported


def make_operations(workload: str, seed: int) -> list:
    """(name, input) pairs; the input is the .scn text with its Spec for the
    scenario workloads, and the criterion number for the selftest."""
    if workload == "selftest":
        return [(f"criterion-{n:02d}", n) for n in range(1, 12)]
    specs = gen.dense_eval(seed) if workload == "dense-eval" \
        else gen.horn_closure(seed)
    return [(spec.name, (spec, gen.scenario_text(spec))) for spec in specs]


# ---------------------------------------------------------------------------
# operations and their checks


def check_scenario(item, report) -> tuple:
    """(failure reason or None, whether an output disagreed with the
    benchmark's own computation)."""
    spec, _ = item
    if not report.ok:
        failed = [s for s in report.stages if not s.ok]
        stage = failed[0].name if failed else "pipeline"
        return f"report not ok at {stage}", False
    if not report.dense_certified:
        return "dense value uncertified", False
    expected = oracle.root_value(spec)
    if report.kripke_value != expected:
        return f"kripke_value {report.kripke_value} != {expected}", True
    if report.dense_value != expected:
        return f"dense_value {report.dense_value} != {expected}", True
    closure = {s.name: s for s in report.stages}["unravelling-and-closure"]
    edges = oracle.closure_edges(spec)
    if closure.detail["closure_edges"] != edges:
        return (f"closure_edges {closure.detail['closure_edges']}"
                f" != {edges}"), True
    return None, False


def check_criterion(number, result) -> tuple:
    if not result.ok:
        return f"criterion {number} not ok: {result.detail}", False
    return None, False


# ---------------------------------------------------------------------------
# rounds


def run_round(operations, run_one, check_one, times, failures):
    """Runs every operation once; returns the round's operation seconds."""
    total = 0.0
    for index, (name, item) in enumerate(operations):
        t0 = time.perf_counter()
        try:
            output = run_one(item)
            error = None
        except Exception as exc:  # a crash is one failed operation
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        total += elapsed
        times[index].append(elapsed)
        if error is None:
            reason, wrong = check_one(item, output)
        else:
            reason, wrong = error, False
        if reason is not None:
            failures.append({"operation": name, "reason": reason,
                             "wrong_output": wrong})
    return total


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (statistics' inclusive
    method), so that a set of equal operation times gives that time."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--limit", type=int,
                        help="run only the first LIMIT operations")
    args = parser.parse_args(argv)

    if args.workload == "selftest":
        acceptance = import_mlwb("acceptance")

        def run_one(number):
            return acceptance.run_criterion(number)
        check_one = check_criterion
    else:
        pipeline = import_mlwb("pipeline")

        def run_one(item):
            spec, text = item
            return pipeline.run_pipeline(
                pipeline.parse_scenario(text, spec.name))
        check_one = check_scenario
    operations = make_operations(args.workload, args.seed)[:args.limit]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    times = [[] for _ in operations]
    failures = []
    round_s = []
    start = time.perf_counter()
    tracer = None
    if args.trace:
        # one untraced round gives the baseline for trace.overhead_s
        baseline = run_round(operations, run_one, check_one, times, failures)
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        # one span per operation, the parent of its parse and pipeline spans
        run_one = tracer.timed("operation", True)(run_one)
    # whole rounds only: another one starts if, at the length of the last,
    # it ends within the run's seconds
    while True:
        round_start = time.perf_counter()
        round_s.append(run_round(operations, run_one, check_one, times,
                                 failures))
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    result = {
        "attempted": sum(len(t) for t in times),
        "failed": len(failures),
        "correct": not any(f["wrong_output"] for f in failures),
        "failures": failures[:20],
        "round_s": round_s,
        "operation_s": {name: t for (name, _), t in zip(operations, times)},
    }
    if tracer is None:
        # every operation ran once per round, so pooling weights them alike
        verdicts = sorted(t for samples in times for t in samples)
        result["metrics"] = {
            "run_s": [statistics.fmean(round_s), "s"],
            "verdict_s.p50": [quantile(verdicts, 0.5), "s"],
            "verdict_s.p90": [quantile(verdicts, 0.9), "s"],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"],
        }
    else:
        rounds = len(round_s)
        traced = statistics.fmean(round_s)
        metrics = tracer.layer_metrics(rounds)
        metrics["trace.run_s"] = (traced, "s")
        metrics["trace.unaccounted_s"] = (
            traced - tracer.accounted_s(rounds, args.workload == "selftest"),
            "s")
        metrics["trace.overhead_s"] = (traced - baseline, "s")
        result["metrics"] = {k: list(v) for k, v in metrics.items()}
        if args.trace_out is not None:
            tracer.write_spans(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
