"""Predicate semantics: expanding-domain Kripke frames, constant-domain
neighbourhood frames, and the two predicate p-morphism notions.

One evaluator, ``PredEvaluator``, computes predicate truth for every model:
a Kripke model is the principal-filter case of a neighbourhood model, and
the dense frame of ``pipeline`` is a neighbourhood frame with a lazy model.
A model supplies three hooks: the sets a box ranges over, the values a
``forall`` binds (the local domain on the Kripke side, the single constant
domain on the neighbourhood side -- the asymmetry behind the Barcan
formula's different status in the two semantics) and how an atom reads its
arguments.  Evaluation is defined for closed formulas.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .kripke import EvaluationError, KripkeFrame, KripkeMorphism, Verdict, \
    check_pmorphism, sample_truth_preservation
from .neighbourhood import NFrame, NMorphism, check_n_pmorphism, nf_from_kripke
from .syntax import (
    Atom, Box, Falsum, Forall, Implies, Formula, Var,
    content_lines, keyed_lines, parse_pred, parse_set, term_scan,
)

PredFormula = Formula


# ---------------------------------------------------------------------------
# evaluation


class Undecided(Exception):
    """Raised by ``boxes`` when the sets a box ranges over lie beyond what
    the model holds; ``args[0]`` is the witness that the box's value
    becomes."""


class PredEvaluator:
    """Predicate truth at a point ``x`` under ``env``, which binds the
    variables in scope, by Kleene's strong three-valued rules: ``eval``
    returns True, False or the witness of an undecided value (a tuple, never
    a bool).  An implication with a false left side is true without its
    right side; a conjunction over the points of a box member or over the
    bindings of a ``forall`` is false at its first false part, and otherwise
    carries the witness of its first undecided part.

    A model supplies three hooks:

    - ``boxes(x, env)``: the sets a box at ``x`` ranges over; the box holds
      iff its body holds throughout one of them.  It may raise
      ``Undecided``;
    - ``binds(x)``: the values a ``forall`` at ``x`` binds its variable to;
    - ``atom(x, a, env)``: the truth of the atom ``a`` at ``x``.

    A finite model never raises ``Undecided``, so its values are bools."""

    def eval(self, x, a: Formula, env: dict):
        if isinstance(a, Falsum):
            return False
        if isinstance(a, Atom):
            return self.atom(x, a, env)
        if isinstance(a, Implies):
            left = self.eval(x, a.left, env)
            if left is False:
                return True
            right = self.eval(x, a.right, env)
            return right if left is True or right is True else left
        if isinstance(a, Box):
            try:
                base = self.boxes(x, env)
            except Undecided as e:
                return e.args[0]
            value = False
            for u in base:
                part = True
                for y in u:
                    v = self.eval(y, a.body, env)
                    if v is False:
                        part = False
                        break
                    if part is True:
                        part = v
                if part is True:
                    return True
                if value is False:
                    value = part
            return value
        if isinstance(a, Forall):
            value = True
            inner = dict(env)  # rebound per value, so no hook may keep it
            for d in self.binds(x):
                inner[a.var] = d
                v = self.eval(x, a.body, inner)
                if v is False:
                    return False
                if value is True:
                    value = v
            return value
        raise EvaluationError(f"unsupported formula node {a!r}")


class _FiniteModel(PredEvaluator):
    """The hooks of a finite model whose ``__post_init__`` sets ``base``
    (point -> filter base) and ``binding`` (point -> its quantifier domain,
    sorted once) and calls ``_set_arities``: an atom reads its arguments
    from ``env``."""

    def _set_arities(self) -> None:
        """Set ``arities``: each predicate's row arity, or None when it has
        no rows; refuse a predicate whose rows have two arities."""
        arities = {}
        for name, per_point in self.valuation.items():
            arity = None
            for rows in per_point.values():
                for t in rows:
                    if arity is None:
                        arity = len(t)
                    elif len(t) != arity:
                        raise ValueError(f"inconsistent arity for {name!r}")
            arities[name] = arity
        object.__setattr__(self, "arities", arities)

    def boxes(self, x, env):
        return self.base[x]

    def binds(self, x):
        return self.binding[x]

    def atom(self, x, a, env):
        return self.holds(a.name, x, tuple([env[t.name] for t in a.args]))

    def holds(self, name: str, w, args: tuple) -> bool:
        """``check_formula`` has refused a predicate without a valuation."""
        return args in self.valuation[name].get(w, ())


# ---------------------------------------------------------------------------
# frames and models


@dataclass(frozen=True)
class PredKripkeFrame:
    frame: KripkeFrame
    domains: dict  # world -> frozenset of element names

    def __post_init__(self):
        object.__setattr__(self, "domains",
                           {w: frozenset(d) for w, d in self.domains.items()})
        missing = set(self.frame.worlds) - set(self.domains)
        if missing:
            raise ValueError(f"the worlds {sorted(missing, key=repr)} have no"
                             " domain")
        extra = set(self.domains) - set(self.frame.worlds)
        if extra:
            raise ValueError(f"domains at worlds the frame lacks:"
                             f" {sorted(extra, key=repr)}")
        for d in self.domains.values():
            if not d:
                raise ValueError("domains must be nonempty")
        for u, v in self.frame.relation:
            if not self.domains[u] <= self.domains[v]:
                raise ValueError(f"domains must expand along the relation:"
                                 f" D_{u!r} is not contained in D_{v!r}")

    def domain(self, w) -> frozenset:
        return self.domains[w]


@dataclass(frozen=True)
class PredKripkeModel(_FiniteModel):
    pframe: PredKripkeFrame
    valuation: dict  # predicate name -> world -> frozenset of tuples

    def __post_init__(self):
        # the principal filter base (the successors) and the local domain
        frame = self.pframe.frame
        object.__setattr__(self, "base",
                           {w: (frame.successors(w),) for w in frame.worlds})
        object.__setattr__(self, "binding", {
            w: tuple(sorted(d)) for w, d in self.pframe.domains.items()})
        self._set_arities()
        for name, per_world in self.valuation.items():
            for w, rows in per_world.items():
                if w not in self.pframe.domains:
                    raise ValueError(f"valuation of {name!r} at {w!r}: the"
                                     f" frame has no world {w!r}")
                dom = self.pframe.domain(w)
                for t in rows:
                    if not set(t) <= dom:
                        raise ValueError(
                            f"valuation of {name!r} at {w!r} uses elements"
                            f" outside the local domain: {t!r}")


@dataclass(frozen=True)
class PredNFrame:
    space: NFrame
    dstar: frozenset  # the constant domain

    def __post_init__(self):
        object.__setattr__(self, "dstar", frozenset(self.dstar))
        if not self.dstar:
            raise ValueError("constant domain must be nonempty")


@dataclass(frozen=True)
class PredNModel(_FiniteModel):
    pframe: PredNFrame
    valuation: dict  # predicate name -> point -> frozenset of tuples

    def __post_init__(self):
        # the filter bases, and D* everywhere
        space = self.pframe.space
        object.__setattr__(self, "base", space.base)
        object.__setattr__(self, "binding", dict.fromkeys(
            space.points, tuple(sorted(self.pframe.dstar))))
        self._set_arities()
        for name, per_point in self.valuation.items():
            for x, rows in per_point.items():
                for t in rows:
                    if not set(t) <= self.pframe.dstar:
                        raise ValueError(
                            f"valuation of {name!r} at {x!r} leaves D*: {t!r}")


# ---------------------------------------------------------------------------
# entry points


def eval_pred_kripke(model: PredKripkeModel, u, a: PredFormula) -> bool:
    return _evaluate(model, u, a)


def eval_pred_nbhd(model: PredNModel, x, a: PredFormula) -> bool:
    return _evaluate(model, x, a)


def truth_set(model: _FiniteModel, a: PredFormula) -> frozenset:
    """The points of a finite model where ``a`` holds; ``a`` is checked once."""
    check_formula(model, a)
    return frozenset(x for x in model.binding if model.eval(x, a, {}))


def _evaluate(model: _FiniteModel, x, a: PredFormula) -> bool:
    if x not in model.binding:
        raise EvaluationError(f"unknown point {x!r}")
    check_formula(model, a)
    return model.eval(x, a, {})


def check_formula(model: _FiniteModel, a: PredFormula) -> None:
    """Refuse, anywhere in ``a``, also on a branch that evaluation never
    reaches: a free variable, a variable bound again inside its scope, and
    an atom whose predicate has no valuation entry in ``model`` or rows of
    another arity (a predicate whose rows are all empty has no arity)."""
    free, rebound, atoms = term_scan(a)
    if free:
        raise EvaluationError(f"formula must be closed; free: {sorted(free)}")
    if rebound:
        raise EvaluationError(f"variables {sorted(rebound)} are bound again"
                              f" inside their scope")
    for name, arity in atoms:
        if name not in model.arities:
            raise EvaluationError(f"predicate {name!r} has no valuation"
                                  " entry")
        found = model.arities[name]
        if found is not None and found != arity:
            raise EvaluationError(
                f"predicate {name!r} is applied at arity {arity},"
                f" but its [valuation] rows have arity {found}")


def barcan_formula(pred: str = "P") -> PredFormula:
    return parse_pred(f"forall x. box {pred}(x) -> box forall x. {pred}(x)")


def converse_barcan_formula(pred: str = "P") -> PredFormula:
    return parse_pred(f"box forall x. {pred}(x) -> forall x. box {pred}(x)")


# ---------------------------------------------------------------------------
# predicate p-morphisms


@dataclass(frozen=True)
class PredKKMorphism:
    """Kripke-to-Kripke: a frame p-morphism plus per-world surjections that
    agree along the relation."""

    source: PredKripkeFrame
    target: PredKripkeFrame
    phi0: KripkeMorphism
    phi1: dict  # world -> dict element -> element


def check_kk_morphism(m: PredKKMorphism) -> Verdict:
    base = check_pmorphism(m.phi0)
    if not base:
        return base
    maps = check_domain_maps(m.phi1, m.source.frame.worlds, m.source.domain,
                             lambda w: m.target.domain(m.phi0.map[w]))
    if not maps:
        return maps
    return check_agreement(m.phi1, m.source.frame.relation)


def check_agreement(phi1: dict, edges) -> Verdict:
    """Along each edge (u, v), the map at v extends the map at u."""
    for u, v in edges:
        if phi1[u].items() <= phi1[v].items():
            continue
        # a failing pair: walk the map only to name the witness
        for d, e in phi1[u].items():
            if phi1[v].get(d) != e:
                return Verdict(False, "domain-map-disagreement", (u, v, d))
    return Verdict(True)


@dataclass(frozen=True)
class PredNKMorphism:
    """Neighbourhood-to-Kripke: an n-frame p-morphism onto N(target frame)
    plus per-point surjections from the constant domain, locally stable."""

    space: NFrame
    target: PredKripkeFrame
    dstar: frozenset
    phi0: dict  # point -> world
    phi1: dict  # point -> dict element of D* -> element

    def __post_init__(self):
        object.__setattr__(self, "dstar", frozenset(self.dstar))


def check_nk_morphism(m: PredNKMorphism) -> Verdict:
    target_nf = nf_from_kripke(m.target.frame)
    base = check_n_pmorphism(NMorphism(m.space, target_nf, dict(m.phi0)))
    if not base:
        return base
    maps = check_domain_maps(m.phi1, m.space.points, lambda x: m.dstar,
                             lambda x: m.target.domain(m.phi0[x]))
    if not maps:
        return maps
    for x in m.space.points:
        for d in m.dstar:
            if not any(all(m.phi1[y][d] == m.phi1[x][d] for y in u)
                       for u in m.space.base[x]):
                return Verdict(False, "domain-map-not-locally-stable", (x, d))
    return Verdict(True)


def check_domain_maps(phi1: dict, points, domain_at, codomain_at) -> Verdict:
    """At each point, phi1 maps the point's domain onto the codomain at the
    point's image; phi1 holds no map at any other point."""
    extra = set(phi1).difference(points)
    if extra:
        return Verdict(False, "domain-map-at-unknown-point",
                       (sorted(extra, key=repr)[0],))
    for x in points:
        fx = phi1.get(x)
        if fx is None:
            return Verdict(False, "missing-domain-map", (x,))
        if set(fx) != set(domain_at(x)):
            return Verdict(False, "domain-map-not-total", (x,))
        cod, image = set(codomain_at(x)), set(fx.values())
        if not image <= cod:
            return Verdict(False, "domain-map-not-into",
                           (x, sorted(image - cod)[0]))
        if image != cod:
            return Verdict(False, "domain-map-not-surjective",
                           (x, sorted(cod - image)[0]))
    return Verdict(True)


def pullback_kk(model: PredKripkeModel, m: PredKKMorphism) -> PredKripkeModel:
    """Pull a target valuation back along a KK morphism."""
    return PredKripkeModel(m.source, _pull_back(
        model, m.target, m.source.frame.worlds, m.source.domain, m.phi0.map,
        m.phi1))


def pullback_nk(model: PredKripkeModel, m: PredNKMorphism) -> PredNModel:
    return PredNModel(PredNFrame(m.space, m.dstar), _pull_back(
        model, m.target, m.space.points, lambda x: m.dstar, m.phi0, m.phi1))


def _pull_back(model: PredKripkeModel, target, points, domain_at, phi0,
               phi1) -> dict:
    """At each point, the tuples over its domain whose phi1-images hold at
    its phi0-image."""
    if model.pframe is not target and model.pframe != target:
        raise ValueError("valuation must live on the morphism's target")
    val = {}
    for name, arity in model.arities.items():
        val[name] = {
            x: frozenset(t for t in itertools.product(sorted(domain_at(x)),
                                                      repeat=arity or 0)
                         if model.holds(name, phi0[x],
                                        tuple(phi1[x][d] for d in t)))
            for x in points}
    return val


# ---------------------------------------------------------------------------
# truth preservation


def random_pred_formula(rng: random.Random, preds: dict,
                        depth: int = 2) -> PredFormula:
    """Closed random formula of modal depth <= depth over the given
    predicate arities, with at most two quantified variables.  An atom
    takes only variables in scope, and one with arguments outside any scope
    becomes falsum, so the formula is closed as built."""
    variables = ["x0", "x1"]
    names = sorted(preds)

    def build(d, scope, budget):
        options = ["atom"]
        if budget > 0:
            options.append("implies")
            if d > 0:
                options += ["box", "forall"]
        if scope:
            options.append("atom")
        kind = rng.choice(options)
        if kind == "atom":
            name = rng.choice(names)
            if not scope and preds[name] > 0:
                return Falsum()
            args = tuple(Var(rng.choice(scope)) for _ in range(preds[name]))
            return Atom(name, args)
        if kind == "implies":
            return Implies(build(d, scope, budget - 1),
                           build(d, scope, budget - 1))
        if kind == "box":
            return Box(build(d - 1, scope, budget - 1))
        fresh = next((v for v in variables if v not in scope), None)
        if fresh is None:
            return build(d, scope, budget - 1)
        return Forall(fresh, build(d - 1, scope + [fresh], budget - 1))

    return build(depth, [], budget=6)


def pred_truth_preservation_test(m: PredNKMorphism, model: PredKripkeModel,
                                 samples: int = 200, seed: int = 0) -> dict:
    """Bidirectional truth preservation under the pulled-back valuation."""
    verdict = check_nk_morphism(m)
    # the pullback reads the maps that the verdict checks
    pulled = pullback_nk(model, m) if verdict else None
    preds = {name: arity or 0 for name, arity in model.arities.items()}
    return sample_truth_preservation(
        verdict, m.phi0, m.space.points,
        lambda rng: (pulled, model, random_pred_formula(rng, preds)),
        truth_set, samples, seed)


# ---------------------------------------------------------------------------
# text formats


def parse_domains(text: str, frame: KripkeFrame) -> PredKripkeFrame:
    """Lines ``domain w = {d1,d2}``."""
    domains = {}
    for w, (lineno, value) in keyed_lines(content_lines(text), "=",
                                          lead="domain").items():
        if w not in frame.worlds:
            raise ValueError(f"line {lineno}: domain {w}: the frame has no"
                             f" world {w!r}")
        domains[w] = frozenset(parse_set(value, lineno))
    return PredKripkeFrame(frame, domains)


def parse_pred_valuation(text: str, pframe: PredKripkeFrame) -> PredKripkeModel:
    """Lines ``val P @ w = {(d1),(d1,d2)}`` (0-ary: ``{()}`` or ``{}``)."""
    val = {}
    for (name, world), (lineno, value) in keyed_lines(
            content_lines(text), "@", "=", lead="val").items():
        if world not in pframe.domains:
            raise ValueError(f"line {lineno}: val {name} @ {world}: the frame"
                             f" has no world {world!r}")
        rows = parse_set(value, lineno)
        if rows and not isinstance(rows[0], tuple):
            raise ValueError(f"line {lineno}: expected tuples, found {value!r}")
        val.setdefault(name, {})[world] = frozenset(rows)
    return PredKripkeModel(pframe, val)
