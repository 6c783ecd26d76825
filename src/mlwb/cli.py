"""Command-line front end.

Exit codes: 0 on success, 1 when a check finds a refutation or violation
(the report is still printed), 2 on input errors and exceeded budgets.
"""

from __future__ import annotations

import argparse
import sys

from .dense import counterexample_g
from .horn import gamma_close, parse_horn_theory
from .kripke import BudgetExceeded, KripkeModel, KripkeMorphism, \
    check_pmorphism, eval_kripke, format_frame, parse_frame, \
    parse_valuation, unravel
from .neighbourhood import NMorphism, check_n_pmorphism, parse_nframe
from .predicate import PredKKMorphism, PredNKMorphism, check_kk_morphism, \
    check_nk_morphism, parse_domains
from .syntax import content_lines, keyed_lines, only_line, parse_prop, \
    parse_set, split_sections, to_text
from .pipeline import parse_scenario, render_report, run_pipeline


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(str(e)) from None


def _parse_map(text: str) -> dict:
    """Lines ``x -> y``."""
    return {x: y for x, (_, y)
            in keyed_lines(content_lines(text), "->").items()}


def _parse_element_map(text: str) -> dict:
    """Lines ``at w : a -> d``, as ``{w: {a: d}}``."""
    mapping = {}
    for (where, left), (_, right) in keyed_lines(
            content_lines(text), ":", "->", lead="at").items():
        mapping.setdefault(where, {})[left] = right
    return mapping


# ---------------------------------------------------------------------------
# commands


def cmd_parse(args) -> int:
    text = _read(args.file)
    kind = args.kind
    if kind == "scenario":
        s = parse_scenario(text, name=args.file)
        print(f"scenario ok: {len(s.pframe.frame.worlds)} worlds,"
              f" formula {to_text(s.formula)}")
    elif kind == "frame":
        frame = parse_frame(text)
        print(format_frame(frame), end="")
    elif kind == "horn":
        theory = parse_horn_theory(text)
        print(f"horn theory ok: {len(theory.sentences)} sentences")
    elif kind == "formula":
        print(to_text(parse_prop(text.strip())))
    return 0


def cmd_eval(args) -> int:
    sections = split_sections(_read(args.model), "frame", "valuation")
    frame = parse_frame(sections["frame"])
    model = KripkeModel(frame, parse_valuation(sections["valuation"]))
    a = parse_prop(args.formula)
    value = eval_kripke(model, args.at, a)
    print(f"{to_text(a)} at {args.at}: {value}")
    return 0 if value else 1


def cmd_close(args) -> int:
    frame = parse_frame(_read(args.frame))
    theory = parse_horn_theory(_read(args.horn))
    closed = gamma_close(frame, theory)
    for u, v in sorted(closed.relation):
        marker = "" if (u, v) in frame.relation else "   # added"
        print(f"{u} -> {v}{marker}")
    return 0


def cmd_unravel(args) -> int:
    frame = parse_frame(_read(args.frame))
    if frame.root is None:
        raise ValueError("unravelling needs a rooted frame")
    u = unravel(frame, args.depth)
    for path in sorted(u.frame.worlds, key=lambda p: (len(p), p)):
        tag = "" if path in u.interior else "   # frontier"
        print(".".join(path) + tag)
    return 0


def cmd_pmorph(args) -> int:
    text = _read(args.file)
    if args.kind in ("kripke", "nframe"):
        parse, morphism, check = {
            "kripke": (parse_frame, KripkeMorphism, check_pmorphism),
            "nframe": (parse_nframe, NMorphism, check_n_pmorphism)}[args.kind]
        sections = split_sections(text, "source", "target", "map")
        verdict = check(morphism(parse(sections["source"]),
                                 parse(sections["target"]),
                                 _parse_map(sections["map"])))
    elif args.kind == "kk":
        sections = split_sections(text, "source", "source-domains", "target",
                                  "target-domains", "map", "elements")
        source = parse_domains(sections["source-domains"],
                               parse_frame(sections["source"]))
        target = parse_domains(sections["target-domains"],
                               parse_frame(sections["target"]))
        phi0 = KripkeMorphism(source.frame, target.frame,
                              _parse_map(sections["map"]))
        m = PredKKMorphism(source, target, phi0,
                           _parse_element_map(sections["elements"]))
        verdict = check_kk_morphism(m)
    else:
        sections = split_sections(text, "space", "dstar", "target",
                                  "target-domains", "map", "elements")
        message = "expected one 'dstar = {...}' line in [dstar]"
        lineno, line = only_line(sections["dstar"], message)
        entry = keyed_lines([(lineno, line)], "=").get("dstar")
        if entry is None:
            raise ValueError(f"line {lineno}: {message}")
        dstar = frozenset(parse_set(entry[1], lineno))
        target = parse_domains(sections["target-domains"],
                               parse_frame(sections["target"]))
        m = PredNKMorphism(parse_nframe(sections["space"]), target, dstar,
                           _parse_map(sections["map"]),
                           _parse_element_map(sections["elements"]))
        verdict = check_nk_morphism(m)
    if verdict:
        print(f"{args.kind} p-morphism: ok")
        return 0
    print(f"{args.kind} p-morphism: VIOLATION {verdict.condition}"
          f" at {verdict.witness!r}")
    return 1


def cmd_dense_counterexample(args) -> int:
    report = counterexample_g(args.kmax)
    for name in ("dia_p", "dia_not_p", "box_p"):
        print(f"{name.replace('_', ' ')} at eps: {report[name]}")
    print("witnesses per neighbourhood (p-true word / p-false word):")
    for k in sorted(report["witnesses"]):
        true_w, false_w = report["witnesses"][k]
        print(f"  k={k}: {true_w} / {false_w}")
    print(f"kripke side validates dia p -> box p:"
          f" {report['kripke_validates_dia_p_implies_box_p']}")
    print(f"result: {'ok' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


def cmd_pipeline(args) -> int:
    report = run_pipeline(parse_scenario(_read(args.scenario),
                                         name=args.scenario))
    print(render_report(report), end="")
    return 0 if report.ok else 1


def cmd_selftest(args) -> int:
    from .acceptance import run_all
    results = run_all(verbose=True)
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlwb",
        description="workbench for quantified pretransitive Horn modal"
                    " logics: frames, closures, dense frames, morphisms,"
                    " and the end-to-end pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a file and echo its canonical form")
    p.add_argument("file")
    p.add_argument("--kind", choices=["scenario", "frame", "horn", "formula"],
                   default="scenario")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a modal formula in a model")
    p.add_argument("--model", required=True,
                   help="file with [frame] and [valuation] sections")
    p.add_argument("--at", required=True, help="world to evaluate at")
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("close", help="Horn closure of a frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--horn", required=True)
    p.set_defaults(fn=cmd_close)

    p = sub.add_parser("unravel", help="truncated tree unravelling")
    p.add_argument("--frame", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=cmd_unravel)

    p = sub.add_parser("pmorph", help="check a serialized morphism")
    p.add_argument("file")
    p.add_argument("--kind", choices=["kripke", "nframe", "kk", "nk"],
                   required=True)
    p.set_defaults(fn=cmd_pmorph)

    p = sub.add_parser("dense", help="dense-frame constructions")
    dsub = p.add_subparsers(dest="dense_command", required=True)
    c = dsub.add_parser("counterexample",
                        help="the parity countermodel on the dense frame")
    c.add_argument("--kmax", type=int, default=10,
                   help="witnesses for k = 0..KMAX")
    c.set_defaults(fn=cmd_dense_counterexample)

    p = sub.add_parser("pipeline", help="run a scenario end to end")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
