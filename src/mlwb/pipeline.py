"""End-to-end desk-scale pipeline: from a refuting expanding-domain Kripke
countermodel to a certified refutation on the constant-domain dense side.

Stages: validate the scenario, build the (Gamma-closed) truncated
unravelling, set up psi at the least max_sigma up to the scenario's that
covers the domains (refuse a too small domain alphabet at every closed
path and check psi's frame part, each path to its endpoint, as a
p-morphism of the whole closed unravelling), pull the valuation back along
the composed morphism and evaluate the target formula at the all-stops
point of the dense frame, then check the (f0, xi) morphism and the
composition at the points that evaluation visited.

Dense-side predicate evaluation is ``DenseEvaluator``, a lazy
three-valued evaluator; it works directly on pseudo-infinite paths and is
exact.  The Kripke root value it is compared with comes from the
finite-model evaluator, ``predicate.truth_vectors`` (through
``eval_pred_kripke``), so that one fault in a rule cannot make the two
sides agree.  The domain maps are local: past the stopping length of every
word in the environment, the zero paddings of an extension family do not
change the image of any word, so the box quantifier evaluates each family
once, unpadded, and the universal quantifier runs over a profile-complete
finite family of constant-domain stop words, one representative per class
at the binding point (plus overflow words for the classes beyond the
truncated domains; see ``ClassTables``).  A verdict is undecided for one reason only: a box
reached a frontier path of the truncated unravelling and the rest of the
formula did not decide the value; the verdict names that path.

Certification rests on the checks at the points the evaluator recorded,
which are the obligations of the truth-preservation proof where the verdict
used them: at each ``forall`` point the class table covers the D-sharp
classes and eta maps its words onto the local domain; at each box point the
extensions used are exactly the closed successors of the point's path; at
each atom eta gives the word the element it gives at the variable's binding
point; and psi's domain maps satisfy the morphism conditions at the paths
eta read and their ancestors.  psi's domains grow along the tree order, so
a path's map needs only its ancestors' maps: ``entangle.PsiMaps`` builds a
map the first time eta reads it, and no other map is built.

Each point is validated once per scenario (``PointPaths``) and each (point,
word) pair classified once (``XiClasses``): a class table classifies its
family by one walk of ``h`` and enters the words a ``forall`` binds, and
eta classifies by xi only the pairs of an atom at another point than the
binding one.  The locality check at an atom compares those two pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .dense import DenseFrame, STOP, canonical, f0, restrict, st
from .entangle import EntangleSpace, PsiMaps, check_psi_maps, class_table, \
    enumerate_dstar, least_max_sigma, xi, xi_surjectivity_check
from .horn import HornTheory, chain_power, parse_horn_theory
from .kripke import BudgetExceeded, EvaluationError, check_axiom_inclusion, \
    check_pmorphism, parse_frame
from .predicate import PredKripkeFrame, PredKripkeModel, check_formula, \
    eval_pred_kripke, parse_domains, parse_pred_valuation
from .syntax import Atom, Box, Falsum, Forall, Formula, Implies, \
    horn_to_text, keyed_lines, only_line, parse_pred, parse_set, read_line, \
    split_sections, to_text, universal_closure


@dataclass(frozen=True)
class Scenario:
    """A pipeline input, checked once here, however it is built: every
    formula predicate has a valuation of the arity it is applied at, Gamma
    consists of chain sentences the frame validates, the bounds are in
    range and the domain alphabet is disjoint from the worlds and the stop
    symbol.  ``max_sigma`` is a ceiling: the pipeline runs at the least
    value up to it that covers the domains."""

    name: str
    pframe: PredKripkeFrame
    model: PredKripkeModel
    formula: object
    gamma: Optional[HornTheory]
    depth: int = 5
    max_sigma: int = 2
    sigma2: tuple = ("1", "2")
    space: EntangleSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_formula(self.model, self.formula)
        frame = self.pframe.frame
        if self.gamma is not None:
            powers = [chain_power(sentence) for sentence in self.gamma]
            if None in powers:
                raise ValueError("Gamma must consist of chain sentences")
            for sentence, k in zip(self.gamma, powers):
                if not check_axiom_inclusion(frame, k):
                    raise ValueError(f"the frame violates the [horn] sentence"
                                     f" {horn_to_text(sentence)!r}")
        _check_bounds(self)
        object.__setattr__(self, "space", EntangleSpace(frame, self.sigma2))


@dataclass
class Stage:
    name: str
    ok: bool
    detail: dict
    seconds: float


@dataclass
class PipelineReport:
    scenario: str
    stages: list = field(default_factory=list)
    dense_value: Optional[bool] = None
    dense_certified: bool = False
    kripke_value: Optional[bool] = None
    ok: bool = False


# ---------------------------------------------------------------------------
# scenario files


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    sections = split_sections(text, "frame", "domains", "valuation", "formula",
                              optional=("horn", "bounds"))
    frame = parse_frame(sections["frame"])
    pframe = parse_domains(sections["domains"], frame)
    model = parse_pred_valuation(sections["valuation"], pframe)
    lineno, line = only_line(sections["formula"],
                             "[formula] must contain exactly one formula")
    formula = universal_closure(read_line(parse_pred, lineno, line))
    gamma = None
    if sections.get("horn"):
        gamma = parse_horn_theory(sections["horn"])
    bounds = {}
    for key, (lineno, value) in keyed_lines(
            sections.get("bounds", []), "=").items():
        if key == "dalphabet":
            bounds["sigma2"] = tuple(parse_set(value, lineno))
            if not bounds["sigma2"]:
                raise ValueError(f"line {lineno}: empty dalphabet")
        elif key in ("depth", "j_max", "max_sigma", "seed", "k_max"):
            try:
                bounds[key] = int(value)
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    for key in ("k_max", "j_max", "seed"):
        bounds.pop(key, None)  # accepted for older files; nothing reads them
    return Scenario(name, pframe, model, formula, gamma, **bounds)


def _check_bounds(s: Scenario) -> None:
    """Rejects bounds under which a stage must fail.  The unravelling of
    depth d holds the paths of at most d worlds, so it reaches every world
    from one more than the root's eccentricity."""
    frame = s.pframe.frame
    reached, frontier, eccentricity = set(), {frame.root}, -1
    while frontier:
        reached |= frontier
        frontier = {v for u in frontier for v in frame.successors(u)} - reached
        eccentricity += 1
    if reached != frame.worlds:
        raise ValueError("the frame must be rooted: every world reachable"
                         " from the root")
    least = {"depth": eccentricity + 1, "max_sigma": 1}
    for key, value in least.items():
        if getattr(s, key) < value:
            raise ValueError(f"{key} = {getattr(s, key)} is below its minimum"
                             f" {value} for this scenario")


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(s: Scenario) -> PipelineReport:
    report = PipelineReport(scenario=s.name)

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            detail = fn()
            ok = detail.pop("ok", True)
        except (ValueError, EvaluationError, BudgetExceeded, AssertionError) as e:
            detail = {"error": str(e)}
            ok = False
        report.stages.append(Stage(name, ok, detail, time.perf_counter() - t0))
        return ok

    frame = s.pframe.frame
    paths = PointPaths(frame)
    classes = XiClasses(s.space)
    ctx = {}

    def validate():
        root_value = eval_pred_kripke(s.model, frame.root, s.formula)
        report.kripke_value = root_value
        return {"formula": to_text(s.formula), "kripke_root_value": root_value}

    def build_dense():
        df = DenseFrame(frame, gamma=s.gamma, depth=s.depth)
        ctx["df"] = df
        return {"paths": len(df.closed_unravelling().worlds),
                "closure_edges": df.closure_edges(),
                "interior": len(df.interior_paths())}

    def psi_stage():
        max_sigma = least_max_sigma(s.pframe, ctx["df"], len(s.sigma2),
                                    s.max_sigma)
        phi1 = ctx["phi1"] = PsiMaps(s.space, s.pframe, ctx["df"], max_sigma)
        verdict = check_pmorphism(phi1.phi0)
        if not verdict:
            return {"ok": False, "condition": verdict.condition,
                    "witness": verdict.witness}
        return {"source_paths": len(phi1.closed.worlds),
                "classes_at_root": phi1.fresh_counts[0],
                "max_sigma": max_sigma}

    def evaluation_stage():
        eta = make_eta(classes, ctx["phi1"], s.pframe, paths)
        ev = DenseEvaluator(ctx["df"], classes, eta, s.model,
                            ctx["phi1"].max_sigma, paths)
        value = ev.eval((), s.formula, {})
        ctx["ev"] = ev
        certified = isinstance(value, bool)
        report.dense_value = value if certified else None
        report.dense_certified = certified
        detail = {"ok": value is report.kripke_value,
                  "dense_value": report.dense_value, "certified": certified,
                  "point": "eps (the all-stops point over the root)"}
        if not certified:
            detail["reason"], detail["frontier"] = value
        return detail

    def f0_xi_stage():
        ev = ctx["ev"]
        classes = 0
        for alpha, table in ev.tables.items():
            out = xi_surjectivity_check(ctx["phi1"].domain(paths[alpha]),
                                        table)
            if not out["ok"]:
                return {"ok": False, "stage": "xi-surjectivity",
                        "alpha": alpha, "missed": out["missed"][:3]}
            classes += out["classes"]
        # read off the closed relation, not through DenseFrame.extensions
        closed = ctx["df"].closed_unravelling()
        for alpha, exts in ev.box_points.items():
            path = paths[alpha]
            used = {path + ext for ext in exts}
            successors = set(closed.successors(path))
            if used != successors:
                return {"ok": False, "stage": "box-extensions",
                        "alpha": alpha, "missed": sorted(successors - used),
                        "outside": sorted(used - successors)}
        return {"forall_points": len(ev.tables),
                "xi_classes_checked": classes,
                "box_points": len(ev.box_points)}

    def composition_stage():
        ev = ctx["ev"]
        surj_fail = loc_fail = None
        words = 0
        for alpha, table in ev.tables.items():
            words += len(table)
            want = set(s.pframe.domain(paths[alpha][-1]))
            got = {ev.eta(alpha, gamma) for gamma in table.values()}
            if got != want:
                surj_fail = (alpha, sorted(want - got))
                break
        for bound, beta, gamma in ev.atom_sites:
            if ev.eta(beta, gamma) != ev.eta(bound, gamma):
                loc_fail = (bound, beta, gamma)
                break
        # after the last eta call, so every map eta read is checked
        maps = check_psi_maps(ctx["phi1"])
        if not maps:
            return {"ok": False, "stage": "psi-domain-maps",
                    "condition": maps.condition, "witness": maps.witness}
        return {"ok": surj_fail is None and loc_fail is None,
                "eta_surjectivity_failure": surj_fail,
                "eta_locality_failure": loc_fail,
                "dstar_size": words, "atom_sites": len(ev.atom_sites)}

    ok = stage("scenario-validation", validate)
    ok = ok and stage("unravelling-and-closure", build_dense)
    ok = ok and stage("psi-morphism", psi_stage)
    ok = ok and stage("pullback-evaluation", evaluation_stage)
    if "ev" in ctx:  # the checks read the points the evaluation visited
        checked = stage("f0-xi-morphism", f0_xi_stage) \
            and stage("composition", composition_stage)
        ok = ok and checked
    report.ok = ok
    return report


class PointPaths(dict):
    """Point -> f0 path, for one scenario: ``f0`` validates each point the
    first time it is looked up, so no point is validated twice.  A caller
    that makes a point from a path it already holds may enter that path
    itself."""

    def __init__(self, frame):
        super().__init__()
        self.frame = frame

    def __missing__(self, alpha):
        path = self[alpha] = f0(alpha, self.frame)
        return path


class XiClasses(dict):
    """(point, word) -> the class xi(point, word), for one scenario: each
    pair is classified the first time it is looked up and never again, by
    ``xi`` looked up through this module's name (so that a wrapper put
    there sees every computation).  The class tables enter the first word
    of each of their classes, which is every word a ``forall`` binds, so
    eta and the checks look a bound word up at its binding point without
    classifying it again."""

    def __init__(self, space: EntangleSpace):
        super().__init__()
        self.space = space

    def __missing__(self, key):
        alpha, gamma = key
        cls = self[key] = xi(self.space, alpha, gamma)
        return cls


class ClassTables(dict):
    """Point -> the class table (``entangle.class_table``) of the family a
    ``forall`` at the point ranges over, built once per point and scenario
    by one walk of ``h`` over the family, so that the evaluator and the
    checks read the same table.  Each table's (point, first word) pairs
    go into the scenario's ``XiClasses`` memo with their classes.  The
    family is ``enumerate_dstar`` with zero runs capped at st(alpha), which
    hits every class that a word with at most max_sigma letters hits at
    alpha, then the overflow words (max_sigma + 1 copies of the first
    domain letter after at most st(alpha) zeros), which stand for the
    classes beyond the truncated domains.  ``max_sigma`` is psi's (the
    least value that covers the domains, in the pipeline), so the family
    hits every class of the D-sharp domain at f0(alpha).
    ``enumerate_dstar`` counts the family before it builds it, so a family
    past its budget fails the evaluation stage with ``BudgetExceeded``."""

    def __init__(self, classes: XiClasses, max_sigma: int):
        super().__init__()
        self.classes = classes
        self.max_sigma = max_sigma

    def __missing__(self, alpha):
        gap_max = st(alpha)
        sigma2 = self.classes.space.sigma2
        overflow = (sigma2[0],) * (self.max_sigma + 1)
        family = enumerate_dstar(sigma2, self.max_sigma, gap_max) \
            + [(STOP,) * g + overflow for g in range(gap_max + 1)]
        table = self[alpha] = class_table(self.classes.space, alpha, family)
        for cls, gamma in table.items():
            self.classes[alpha, gamma] = cls
        return table


def make_eta(classes: XiClasses, phi1: PsiMaps, pframe: PredKripkeFrame,
             paths: PointPaths):
    """The composite domain map: a point (a stop word over the base frame)
    and a constant-domain stop word go to an element of the target domain at
    the point's endpoint, via the class of their interleaving and psi's
    domain map at the point's f0 path.  Classes with more domain letters
    than the truncated assignments carry land on the designated element of
    the parent domain of the path they were born at, matching the overflow
    rule of the psi construction.  ``classes`` is the scenario's memo of
    those classes, shared with its class tables, ``phi1`` psi's lazily
    built domain maps and ``paths`` the map from points to f0 paths."""
    space = classes.space
    frame = space.frame

    def eta(alpha, gamma):
        path = paths[alpha]
        if path not in phi1.closed.worlds:
            raise BudgetExceeded(
                f"point {alpha!r} lies outside the truncated unravelling")
        mapping = phi1[path]
        cls = classes[alpha, gamma]
        if cls in mapping:
            return mapping[cls]
        born = (frame.root,) + tuple(c for c in cls if space.is_w(c))
        world = born[-2] if len(born) >= 2 else born[-1]
        return sorted(pframe.domain(world))[0]

    return eta


class DenseEvaluator:
    """Exact predicate evaluation at points of the dense frame (the finite
    models have an evaluator of their own).  ``eval(alpha, a, env)``
    returns True, False or the witness of an undecided value by Kleene's
    strong three-valued rules; an undecided value is ``("frontier",
    path)``, the f0 path whose extensions lie beyond the truncated
    unravelling.  env maps each variable to its constant-domain stop word
    and the point that bound it.  An implication with a false left side is
    true without its right side.  A box ranges over one family and a
    ``forall`` binds (word, point) for each entry of the point's class
    table; each is a conjunction, false at its first false part and
    otherwise carrying the witness of its first undecided part.  An atom
    reads each argument through eta.

    The evaluator records where it looks: its ``tables`` hold one class
    table per ``forall`` point, ``box_points`` the extensions each box read
    at an interior point, and ``atom_sites`` each (binding point, atom
    point, word) of a variable at an atom.  The lemma and corollary below
    make a verdict exact given the morphism conditions at those points, and
    the pipeline's f0-xi-morphism and composition stages check exactly
    those conditions there; certification rests on those checks.

    Lemma (one padding per family).  Let m = max(st(alpha), st(gamma) for
    gamma in env) and pre = restrict(alpha, m).  For an extension ext = c1
    ... cr of f0(alpha), every padded member beta = pre . 0^j1 c1 ... 0^jr cr
    of the family satisfies the same formulas under env, whatever the j:

    - every such beta has the same f0 image, f0(alpha) + ext;
    - the letters of beta beyond m >= st(gamma) are never consumed by the
      walk of ``entangle.h`` over gamma; they are appended after gamma's
      letters, and ``canonicalize`` strips them, so xi(beta, gamma) =
      xi(alpha, gamma) for every j;
    - so eta, and with it every atom value, is the same for every j, and by
      induction so is every value under nested boxes, since each ``forall``
      family is profile-complete at the points its body reaches (see
      ``entangle.enumerate_dstar`` and the corollary below).

    For k >= m, U_k(alpha) consists of padded members of these families
    (with alpha itself on a reflexive step), and U_k only grows as k falls.
    So the box holds at alpha iff its body holds at the unpadded member
    canonical(pre + ext) of each family; ext = () is the reflexive step
    back to alpha itself.

    Corollary (one body evaluation per class).  Bind gamma at alpha.  Every
    point beta that the body reaches from alpha through boxes is
    canonical(restrict(., m) + ext) with m >= st(gamma), so ``h`` never
    consumes a letter of beta beyond alpha's letters, and xi(beta, gamma) =
    xi(alpha, gamma).  The body's value (or undecided witness) therefore
    depends on gamma only through xi(alpha, gamma), and the ``forall``
    family only has to hit every class at alpha, which
    ``entangle.enumerate_dstar`` does at gap_max = st(alpha).  The body is
    evaluated once per entry of the point's class table (``ClassTables``):
    once per class, at its first word in the family.  The table is read
    off one walk of ``h`` over the family (``entangle.class_table``), and
    eta finds those first words already classified at alpha.

    ``paths`` maps each point to its f0 path and ``classes`` each (point,
    word) pair to its xi class; shared with ``make_eta``, they validate each
    point and classify each pair of the scenario once.  ``max_sigma`` sizes
    the ``forall`` families (``ClassTables``) and is the value psi runs at
    (``PsiMaps.max_sigma``), the least one that covers the domains."""

    def __init__(self, df: DenseFrame, classes: XiClasses, eta,
                 model: PredKripkeModel, max_sigma: int, paths: PointPaths):
        self.df = df
        self.eta = eta
        self.model = model
        self.paths = paths
        self.tables = ClassTables(classes, max_sigma)
        self.box_points = {}   # point -> extensions its box read
        self.atom_sites = {}   # (binding point, atom point, word) -> None

    def eval(self, alpha, a: Formula, env: dict):
        if isinstance(a, Falsum):
            return False
        if isinstance(a, Atom):
            args = []
            for term in a.args:
                gamma, bound = env[term.name]
                self.atom_sites[(bound, alpha, gamma)] = None
                args.append(self.eta(alpha, gamma))
            return self.model.holds(a.name, self.paths[alpha][-1],
                                    tuple(args))
        if isinstance(a, Implies):
            left = self.eval(alpha, a.left, env)
            if left is False:
                return True
            right = self.eval(alpha, a.right, env)
            return right if left is True or right is True else left
        if isinstance(a, Box):
            path = self.paths[alpha]
            try:
                exts = self.df.extensions(path)
            except BudgetExceeded:
                return ("frontier", path)
            self.box_points[alpha] = exts
            m = max([st(alpha)] + [st(gamma) for gamma, _ in env.values()])
            pre = restrict(alpha, m)
            cases = []
            for ext in sorted(exts):
                beta = canonical(pre + ext)
                self.paths.setdefault(beta, path + ext)
                cases.append((beta, env))
            return self._all(a.body, cases)
        if isinstance(a, Forall):
            return self._all(a.body, ((alpha, {**env, a.var: (gamma, alpha)})
                                      for gamma in self.tables[alpha].values()))
        raise EvaluationError(f"unsupported formula node {a!r}")

    def _all(self, a: Formula, cases):
        """Kleene's conjunction of ``a`` over (point, env) cases: False at
        the first false case, else the first undecided witness, else
        True."""
        value = True
        for alpha, env in cases:
            v = self.eval(alpha, a, env)
            if v is False:
                return False
            if value is True:
                value = v
        return value


# ---------------------------------------------------------------------------
# report rendering


def render_report(report: PipelineReport) -> str:
    lines = [f"pipeline report: {report.scenario}"]
    for stg in report.stages:
        lines.append(f"stage {stg.name}: {'ok' if stg.ok else 'FAILED'}")
        for key in sorted(stg.detail):
            lines.append(f"  {key}: {_show(stg.detail[key])}")
        lines.append(f"# time {stg.name}: {stg.seconds:.3f}s")
    lines.append("summary:")
    lines.append(f"  kripke_root_value: {_show(report.kripke_value)}")
    lines.append(f"  dense_value: {_show(report.dense_value)}")
    lines.append(f"  dense_certified: {_show(report.dense_certified)}")
    lines.append(f"  refutation_reproduced: "
                 f"{_show(report.ok and report.dense_value is False)}")
    lines.append(f"  result: {'ok' if report.ok else 'FAILED'}")
    return "\n".join(lines) + "\n"


def _show(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_show(v) for v in value) + ")"
    if isinstance(value, (list, set, frozenset)):
        return "[" + ", ".join(_show(v) for v in sorted(value, key=repr)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_show(v)}"
                               for k, v in sorted(value.items(), key=repr)) + "}"
    return str(value)
