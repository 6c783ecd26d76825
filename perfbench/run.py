"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-eval --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout.  The workload runs in a fresh interpreter
(``workload.py``) started from this process; nothing runs in parallel.
Before it, a few more fresh interpreters only import mlwb and make the
inputs, so that ``setup_s`` is a median.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The full result (with any failure reasons) and, for a
traced run, the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = HERE / "out"
WORKLOAD = HERE / "workload.py"

sys.path.insert(0, str(HERE))

from tracing import per_layer_names  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
END_TO_END = ("run_s", "verdict_s.p50", "verdict_s.p90", "peak_rss_mb")
# the whole run must end within 180 s; a workload gets what is left after
# the set-up probes, less a margin for reporting
DEADLINE_S = 170.0


def start(workload: str, seed: int, *extra) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(WORKLOAD), "--workload", workload,
         "--seed", str(seed), *extra],
        cwd=CHECKOUT, stdout=subprocess.PIPE, text=True)


def wait_ready(proc: subprocess.Popen, started: float) -> float:
    """Seconds from starting the interpreter until it reports ready."""
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"workload did not start (exit {proc.returncode})")
    return time.perf_counter() - started


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """The process's remaining output, once it has exited with code 0."""
    try:
        output, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("workload ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"workload exited with {proc.returncode}")
    return output


def setup_sample(workload: str, seed: int, deadline: float) -> float:
    started = time.perf_counter()
    proc = start(workload, seed, "--setup-only")
    seconds = wait_ready(proc, started)
    finish(proc, deadline)
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--limit", type=int,
                        help="run only the first LIMIT operations of each"
                             " round (a quick check of the benchmark itself)")
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "mlwb" / "pipeline.py").is_file():
        print(f"no mlwb source tree under {CHECKOUT}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    if not args.trace:
        setups = [setup_sample(args.workload, args.seed, deadline)
                  for _ in range(SETUP_PROBES - 1)]
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.limit is not None:
        extra += ["--limit", str(args.limit)]
    if args.trace:
        extra += ["--trace-out", str(OUT / f"trace-{stem}.json")]
    started = time.perf_counter()
    proc = start(args.workload, args.seed, *extra)
    setups.append(wait_ready(proc, started))
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = [statistics.median(setups), "s"]
        result["setup_samples_s"] = setups
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))

    names = per_layer_names() if args.trace else ("setup_s",) + END_TO_END
    metrics = {name: {"value": result["metrics"][name][0],
                      "unit": result["metrics"][name][1]} for name in names}
    for failure in result["failures"]:
        print(f"failed: {failure['operation']}: {failure['reason']}",
              file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
