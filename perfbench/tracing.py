"""Tracing wrappers installed around mlwb's public functions, from outside.

Only the traced run installs them.  ``pipeline``, ``entangle`` and
``acceptance`` bind functions such as ``f0``, ``uk_members`` and ``xi`` by
name at import time, so a wrapper replaces the name in every mlwb module
that holds the original, not only in the defining one.

A wrapped call records its duration and subtracts it from its caller's self
time, so ``<name>.self_s`` is the span's duration minus the time its child
spans cover.  Spans at layer boundaries are kept in memory as (name, start,
end, parent) and written out when the run ends; the hottest functions are
aggregated in place so that memory stays small.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

STAGES = ("scenario-validation", "unravelling-and-closure", "psi-morphism",
          "f0-xi-morphism", "composition", "pullback-evaluation")

# (module, attribute, metric name, span kept): functions timed with spans
TIMED = [
    ("pipeline", "parse_scenario", "pipeline.parse_scenario", True),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", True),
    ("horn", "gamma_close", "horn.gamma_close", True),
    ("kripke", "unravel", "kripke.unravel", True),
    ("dense", "f0", "dense.f0", False),
    ("dense", "uk_members", "dense.uk_members", False),
    ("entangle", "xi", "entangle.xi", False),
    ("entangle", "build_psi", "entangle.build_psi", True),
    ("entangle", "xi_locality_check", "entangle.xi_locality_check", True),
    ("entangle", "xi_surjectivity_check", "entangle.xi_surjectivity_check",
     True),
    ("predicate", "eval_pred_kripke", "predicate.eval_pred_kripke", False),
    ("predicate", "eval_pred_nbhd", "predicate.eval_pred_nbhd", False),
    ("neighbourhood", "eval_nbhd", "neighbourhood.eval_nbhd", False),
    ("kripke", "brute_validity", "kripke.brute_validity", False),
    ("entangle", "equiv_bruteforce", "entangle.equiv_bruteforce", False),
    ("acceptance", "run_criterion", "acceptance.run_criterion", True),
]

# (module, attribute, metric name): functions only counted
COUNTED = [
    ("kripke", "reachable", "kripke.reachable"),
    ("dense", "DenseFrame.extensions", "dense.DenseFrame.extensions"),
    ("kripke", "KripkeFrame.successors", "kripke.KripkeFrame.successors"),
]

SELF_METRICS = [
    "pipeline.parse_scenario", "horn.gamma_close", "kripke.unravel",
    "dense.f0", "dense.uk_members", "entangle.xi", "entangle.build_psi",
    "entangle.xi_locality_check", "entangle.xi_surjectivity_check",
    "predicate.eval_pred_kripke", "predicate.eval_pred_nbhd",
    "neighbourhood.eval_nbhd", "kripke.brute_validity",
    "entangle.equiv_bruteforce",
]
CALL_METRICS = [
    "horn.gamma_close", "kripke.reachable", "kripke.KripkeFrame.successors",
    "dense.f0", "dense.uk_members", "dense.DenseFrame.extensions",
    "entangle.xi", "pipeline.DenseEvaluator.eval", "pipeline.eta",
]
SIZE_METRICS = ["horn.gamma_close.edges_added", "dense.closed_paths",
                "dense.closure_edges", "pipeline.dstar_size",
                "pipeline.enumerate_dstar.words",
                "pipeline.DenseEvaluator.eval.distinct"]
CRITERION_METRICS = [f"acceptance.criterion_{n:02d}_s" for n in range(1, 12)]


def per_layer_names() -> list:
    """Every per-layer metric the traced run prints, in print order."""
    return ([f"stage.{s}_s" for s in STAGES]
            + [f"{m}.self_s" for m in SELF_METRICS]
            + [f"{m}.calls" for m in CALL_METRICS]
            + SIZE_METRICS + CRITERION_METRICS
            + ["trace.run_s", "trace.unaccounted_s", "trace.overhead_s"])


class Tracer:
    def __init__(self):
        self.stack = []          # [name, start, child seconds, span context]
        self.spans = []          # (name, start, end, parent index or -1)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sizes = defaultdict(float)
        self.stage_s = defaultdict(float)
        self.criterion_s = defaultdict(float)
        self._distinct = set()
        self._free_vars = {}

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"mlwb.{name}") for name in
                   ("pipeline", "horn", "kripke", "dense", "entangle",
                    "predicate", "neighbourhood", "acceptance")}
        self._modules = modules
        for mod, attr, name, keep in TIMED:
            self._replace(modules[mod], attr, self.timed(name, keep))
        for mod, attr, name in COUNTED:
            self._replace(modules[mod], attr, self._counted(name))
        pipeline = modules["pipeline"]
        self._replace(pipeline, "DenseEvaluator.eval", self._evaluator_eval)
        self._replace(pipeline, "make_eta", self._make_eta)
        self._replace(pipeline, "enumerate_dstar", self._enumerate_dstar)

    def _replace(self, module, dotted, make_wrapper):
        """Swap ``module.dotted`` for a wrapper, in every mlwb module that
        bound the same object by name (a method is swapped on its class)."""
        owner = module
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        holders = [owner] if path else [
            m for m in self._modules.values() if getattr(m, attr, None) is original]
        for holder in holders:
            setattr(holder, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, keep):
        """A wrapper factory that times each call as a span named ``name``,
        kept in ``spans`` if ``keep``."""
        def make(fn):
            def wrapper(*args, **kwargs):
                stack = self.stack
                parent_ctx = stack[-1][3] if stack else -1
                ctx = len(self.spans) if keep else parent_ctx
                if keep:
                    self.spans.append(None)  # filled in on exit
                frame = [name, time.perf_counter(), 0.0, ctx]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    duration = end - frame[1]
                    self.self_s[name] += duration - frame[2]
                    self.calls[name] += 1
                    if stack:
                        stack[-1][2] += duration
                    if keep:
                        self.spans[ctx] = (name, frame[1], end, parent_ctx)
                self._observe(name, args, result)
                return result
            return wrapper
        return make

    def _counted(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _observe(self, name, args, result):
        if name == "horn.gamma_close":
            self.sizes["horn.gamma_close.edges_added"] += \
                len(result.relation - args[0].relation)
        elif name == "pipeline.run_pipeline":
            self._record_report(result)
        elif name == "acceptance.run_criterion":
            self.criterion_s[result.number] += result.seconds

    def _record_report(self, report):
        for stage in report.stages:
            self.stage_s[stage.name] += stage.seconds
            if stage.name == "unravelling-and-closure" and stage.ok:
                self.sizes["dense.closed_paths"] += stage.detail["paths"]
                self.sizes["dense.closure_edges"] += \
                    stage.detail["closure_edges"]
            if stage.name == "composition" and "dstar_size" in stage.detail:
                self.sizes["pipeline.dstar_size"] += stage.detail["dstar_size"]
        self.sizes["pipeline.DenseEvaluator.eval.distinct"] += \
            len(self._distinct)
        self._distinct = set()
        self._free_vars = {}

    def _evaluator_eval(self, fn):
        free_vars = sys.modules["mlwb.syntax"].free_vars

        def wrapper(evaluator, alpha, a, env):
            self.calls["pipeline.DenseEvaluator.eval"] += 1
            # keyed by id, with the subformula kept alive so that the id
            # stays its own until the scenario ends
            fv = self._free_vars.get(id(a))
            if fv is None:
                fv = self._free_vars[id(a)] = (a, sorted(free_vars(a)))
            point = tuple(alpha)
            while point and point[-1] == "0":
                point = point[:-1]
            self._distinct.add((point, id(a),
                                tuple(env.get(v) for v in fv[1])))
            return fn(evaluator, alpha, a, env)
        return wrapper

    def _make_eta(self, fn):
        def wrapper(*args, **kwargs):
            eta = fn(*args, **kwargs)

            def counted_eta(alpha, gamma):
                self.calls["pipeline.eta"] += 1
                return eta(alpha, gamma)
            return counted_eta
        return wrapper

    def _enumerate_dstar(self, fn):
        def wrapper(*args, **kwargs):
            words = fn(*args, **kwargs)
            self.sizes["pipeline.enumerate_dstar.words"] += len(words)
            return words
        return wrapper

    # -- results ----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round averages of every per-layer metric except the trace.*
        ones, which the caller adds."""
        out = {}
        for stage in STAGES:
            out[f"stage.{stage}_s"] = (self.stage_s[stage] / rounds, "s")
        for m in SELF_METRICS:
            out[f"{m}.self_s"] = (self.self_s[m] / rounds, "s")
        for m in CALL_METRICS:
            out[f"{m}.calls"] = (self.calls[m] / rounds, "count")
        for m in SIZE_METRICS:
            out[m] = (self.sizes[m] / rounds, "count")
        for n in range(1, 12):
            out[f"acceptance.criterion_{n:02d}_s"] = \
                (self.criterion_s[n] / rounds, "s")
        return out

    def accounted_s(self, rounds: int, selftest: bool) -> float:
        """Per round, the criterion times on the selftest, else the stage
        times plus parse time."""
        if selftest:
            return sum(self.criterion_s.values()) / rounds
        return (sum(self.stage_s.values())
                + self.self_s["pipeline.parse_scenario"]) / rounds

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans},
                      out)
