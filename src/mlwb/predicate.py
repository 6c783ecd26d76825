"""Predicate semantics on finite models: expanding-domain Kripke frames,
constant-domain neighbourhood frames, and the two predicate p-morphism
notions.

``truth_vectors`` evaluates a closed formula on a finite model, once for a
whole family of valuations of its frame: a point's value is an int whose
bit k is the value under the k-th valuation, as in
``kripke._truth_vectors``.  ``truth_set``, ``eval_pred_kripke`` and
``eval_pred_nbhd`` are its one-valuation case.  The dense model of
``pipeline``, which holds more points than any walk can visit, has an
evaluator of its own, ``pipeline.DenseEvaluator``.  The pipeline compares a
Kripke root value with a dense one, so if both came from one recursion, a
fault in its rules would make the two sides agree.

A Kripke model is the principal-filter case of a neighbourhood model, so a
box ranges over a filter base (the successors, on the Kripke side), and a
``forall`` binds the point's quantifier domain (the local domain on the
Kripke side, the single constant domain on the neighbourhood side -- the
asymmetry behind the Barcan formula's different status in the two
semantics).  Evaluation is defined for closed formulas.
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
# frames and finite models


class _FiniteModel:
    """A finite model.  Its ``__post_init__`` hands ``_set_frame`` the
    frame's filter bases (point -> tuple of sets) and quantifier domains
    (point -> the frozenset a ``forall`` there binds).  A subclass names its
    points (``point_kind``) and what an element outside a point's domain
    leaves (``outside``) for the refusals."""

    def _set_frame(self, base: dict, domains: dict) -> None:
        """Set ``domains``, ``index`` and the model's own ``arities`` and
        ``rows`` (``read_valuations``).  ``index`` is the frame as
        ``_truth_vectors`` reads it: the points in a fixed order, each
        point's position, each position's filter base as lists of
        positions, and each element's bit-mask of the positions whose
        domain lacks it."""
        points = list(domains)
        position = {x: i for i, x in enumerate(points)}
        present = {}
        for i, x in enumerate(points):
            for d in domains[x]:
                present[d] = present.get(d, 0) | 1 << i
        every = (1 << len(points)) - 1
        index = (points, position,
                 [[[position[y] for y in u] for u in base[x]] for x in points],
                 {d: every ^ mask for d, mask in present.items()})
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "index", index)
        (arities,), rows = self.read_valuations([self.valuation])
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "rows", rows)

    def read_valuations(self, valuations: list) -> tuple:
        """(each valuation's arities, the rows of all of them) for
        valuations of this model's frame.  An arity is None when the
        predicate has no rows.  The rows map predicate -> row -> the int
        whose bit i * len(valuations) + k says that the row holds at the
        point of position i (in ``index``) under ``valuations[k]``.
        Refuses rows of two arities, a point the frame lacks and a row with
        an element outside its point's domain."""
        position, width = self.index[1], len(valuations)
        tables, rows = [], {}
        for k, valuation in enumerate(valuations):
            arities = {}
            for name, per_point in valuation.items():
                arity = None
                by_row = rows.setdefault(name, {})
                for x, ts in per_point.items():
                    domain = self.domains.get(x)
                    if domain is None:
                        raise ValueError(f"valuation of {name!r} at {x!r}: the"
                                         f" frame has no {self.point_kind}"
                                         f" {x!r}")
                    bit = 1 << position[x] * width + k
                    for t in ts:
                        if arity is None:
                            arity = len(t)
                        elif len(t) != arity:
                            raise ValueError(
                                f"inconsistent arity for {name!r}")
                        if not domain.issuperset(t):
                            raise ValueError(f"valuation of {name!r} at"
                                             f" {x!r} {self.outside}: {t!r}")
                        by_row[t] = by_row.get(t, 0) | bit
                arities[name] = arity
            tables.append(arities)
        return tables, rows

    def holds(self, name: str, w, args: tuple) -> bool:
        """``check_formula`` has refused a predicate without a valuation."""
        return args in self.valuation[name].get(w, ())


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
        domains = self.domains
        shrinking = [(u, v) for u, v in self.frame.relation
                     if not domains[u] <= domains[v]]
        if shrinking:
            u, v = min(shrinking, key=repr)
            raise ValueError(f"domains must expand along the relation:"
                             f" D_{u!r} is not contained in D_{v!r}")

    def domain(self, w) -> frozenset:
        return self.domains[w]


@dataclass(frozen=True)
class PredKripkeModel(_FiniteModel):
    pframe: PredKripkeFrame
    valuation: dict  # predicate name -> world -> frozenset of tuples

    point_kind = "world"
    outside = "uses elements outside the local domain"

    def __post_init__(self):
        # the principal filter base (the successors) and the local domain
        frame = self.pframe.frame
        self._set_frame({w: (frame.successors(w),) for w in frame.worlds},
                        self.pframe.domains)


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

    point_kind = "point"
    outside = "leaves D*"

    def __post_init__(self):
        # the filter bases, and D* everywhere
        space = self.pframe.space
        self._set_frame(space.base,
                        dict.fromkeys(space.points, self.pframe.dstar))


# ---------------------------------------------------------------------------
# evaluation on finite models


def eval_pred_kripke(model: PredKripkeModel, u, a: PredFormula) -> bool:
    return _evaluate(model, u, a)


def eval_pred_nbhd(model: PredNModel, x, a: PredFormula) -> bool:
    return _evaluate(model, x, a)


def truth_set(model: _FiniteModel, a: PredFormula) -> frozenset:
    """The points of a finite model where ``a`` holds; ``a`` is checked once."""
    check_formula(model, a)
    value = _truth_vectors(model.index, a, model.rows, 1)
    return frozenset(x for i, x in enumerate(model.index[0]) if value >> i & 1)


def _evaluate(model: _FiniteModel, x, a: PredFormula) -> bool:
    i = model.index[1].get(x)
    if i is None:
        raise EvaluationError(f"unknown point {x!r}")
    check_formula(model, a)
    return _truth_vectors(model.index, a, model.rows, 1) >> i & 1 == 1


def truth_vectors(model: _FiniteModel, a: PredFormula, valuations) -> dict:
    """Point -> an int whose bit k is the value of the closed formula ``a``
    at the point under ``valuations[k]``, a valuation of the frame of
    ``model`` (whose own valuation is not read).  Each valuation is refused
    as the model's constructor refuses its own (``read_valuations``), and
    ``a`` as ``check_formula`` refuses it against each; ``a`` is scanned
    once."""
    valuations = list(valuations)
    atoms = _closed_atoms(a)
    tables, rows = model.read_valuations(valuations)
    for arities in tables:
        _check_atoms(atoms, arities)
    points, width = model.index[0], len(valuations)
    if not width:
        return dict.fromkeys(points, 0)
    value = _truth_vectors(model.index, a, rows, width)
    full = (1 << width) - 1
    return {x: value >> i * width & full for i, x in enumerate(points)}


def _truth_vectors(index: tuple, a: PredFormula, rows: dict,
                   width: int) -> int:
    """The value of the checked closed formula ``a`` at every point of a
    finite model's ``index`` under ``width`` valuations, as one int: bit
    i * width + k is the value at the point of position i under valuation
    k.  ``rows`` gives each atom's value the same way (``read_valuations``).
    So an implication is one operation on ints, and a ``forall`` one per
    element.

    A subformula under ``env`` is evaluated at every point at once, also
    where an element of ``env`` lies outside the local domain.  Those
    values are never read: a ``forall`` reads its body only where it bound
    the element, and a box reads successors, whose domains hold every
    element of the point's."""
    points, _, members, absent = index
    full = (1 << width) - 1
    every = (1 << len(points) * width) - 1
    if width > 1:  # each position's bit becomes all its valuations' bits
        absent = {d: sum(full << i * width for i in range(len(points))
                         if mask >> i & 1) for d, mask in absent.items()}

    def ev(b, env):
        if isinstance(b, Atom):
            return rows[b.name].get(tuple([env[t.name] for t in b.args]), 0)
        if isinstance(b, Implies):
            left = ev(b.left, env)
            if not left:  # false everywhere, under every valuation
                return every
            return (every ^ left) | ev(b.right, env)
        if isinstance(b, Box):
            body = ev(b.body, env)
            out = 0
            for i, base in enumerate(members):
                value = 0
                for u in base:
                    part = full
                    for j in u:
                        part &= body >> j * width
                    value |= part
                out |= value << i * width
            return out
        if isinstance(b, Forall):
            out = every
            inner = dict(env)  # rebound per element; ``ev`` keeps no env
            for d, outside in absent.items():
                if not out:
                    break
                inner[b.var] = d
                body = ev(b.body, inner)
                out &= body | outside
            return out
        if isinstance(b, Falsum):
            return 0
        raise EvaluationError(f"unsupported formula node {b!r}")
    return ev(a, {})


def check_formula(model: _FiniteModel, a: PredFormula) -> None:
    """Refuse, anywhere in ``a``, also on a branch that evaluation never
    reaches: a free variable, a variable bound again inside its scope, and
    an atom whose predicate has no valuation entry in ``model`` or rows of
    another arity (a predicate whose rows are all empty has no arity)."""
    _check_atoms(_closed_atoms(a), model.arities)


def _closed_atoms(a: PredFormula) -> list:
    """The (predicate, argument count) of each atom of ``a``, once ``a`` is
    found closed and without a variable bound again inside its scope."""
    free, rebound, atoms = term_scan(a)
    if free:
        raise EvaluationError(f"formula must be closed; free: {sorted(free)}")
    if rebound:
        raise EvaluationError(f"variables {sorted(rebound)} are bound again"
                              f" inside their scope")
    return atoms


def _check_atoms(atoms, arities: dict) -> None:
    """Refuse an atom whose predicate has no entry in ``arities``, one
    valuation's arities, or rows of another arity."""
    for name, arity in atoms:
        if name not in arities:
            raise EvaluationError(f"predicate {name!r} has no valuation"
                                  " entry")
        found = arities[name]
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
    """Along each edge (u, v), the map at v extends the map at u.  A
    failure names its least witness (u, v, d) by ``repr``."""
    broken = [(u, v) for u, v in edges
              if not phi1[u].items() <= phi1[v].items()]
    if broken:  # walk the failing maps only to name the witness
        return Verdict(False, "domain-map-disagreement", min(
            ((u, v, d) for u, v in broken for d, e in phi1[u].items()
             if phi1[v].get(d) != e), key=repr))
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
    for x in sorted(m.space.points, key=repr):
        for d in sorted(m.dstar, key=repr):
            if not any(all(m.phi1[y][d] == m.phi1[x][d] for y in u)
                       for u in m.space.base[x]):
                return Verdict(False, "domain-map-not-locally-stable", (x, d))
    return Verdict(True)


def check_domain_maps(phi1: dict, points, domain_at, codomain_at) -> Verdict:
    """At each point, phi1 maps the point's domain onto the codomain at the
    point's image; phi1 holds no map at any other point.  A failure names
    the least point by ``repr``."""
    extra = set(phi1).difference(points)
    if extra:
        return Verdict(False, "domain-map-at-unknown-point",
                       (sorted(extra, key=repr)[0],))
    for x in sorted(points, key=repr):
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
