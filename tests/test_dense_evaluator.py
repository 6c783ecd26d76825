"""The exact dense evaluator against the padding-window, word-by-word
evaluator it replaced, on seeded scenarios built here, and the locality of
xi that lets a ``forall`` quantify over classes."""

import random
import re
from pathlib import Path

import pytest

from mlwb.dense import STOP, DenseFrame, canonical, \
    enumerate_paths_with_stops, f0, padded_words, restrict, st
from mlwb.entangle import EntangleSpace, PsiMaps, canonicalize, \
    class_table, enumerate_dstar, xi
from mlwb.horn import chain_axiom_powers
from mlwb.kripke import BudgetExceeded
from mlwb.pipeline import DenseEvaluator, PointPaths, XiClasses, make_eta, \
    parse_scenario
from mlwb.predicate import eval_pred_kripke
from mlwb.syntax import Atom, Box, Falsum, Forall, Implies, modal_depth, \
    parse_pred

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def forall_family(sigma2, max_sigma, gap_max):
    """The words a forall ranges over with zero runs capped at gap_max: the
    capped D* family plus the overflow words."""
    overflow = (sigma2[0],) * (max_sigma + 1)
    return enumerate_dstar(sigma2, max_sigma, gap_max) \
        + [(STOP,) * g + overflow for g in range(gap_max + 1)]


class WindowEvaluator:
    """Reference: the padding-window evaluator, quantifying word by word,
    with (value, certified) verdicts.  A box evaluates every padding 0^j
    (j <= j_max) of each extension family and certifies a true value only
    when the paddings from j_max - 1 on agree; a false value is certified
    only when every padding is false.  A forall evaluates its body at every
    word of its family, widened to the deepest padded point a nested box
    can reach (ext_cap letters per step, the largest power of a chain
    sentence of Gamma).  An implication evaluates both sides and is
    certified when a certified side decides it; a conjunction stops at its
    first false part, certified or not.  env maps each variable to its
    word."""

    def __init__(self, df, eta, model, max_sigma, sigma2, paths, gamma=None):
        self.df = df
        self.eta = eta
        self.model = model
        self.max_sigma = max_sigma
        self.sigma2 = sigma2
        self.paths = paths
        powers = chain_axiom_powers(gamma) if gamma is not None else None
        self.ext_cap = max(powers) if powers else 1

    def eval(self, alpha, a, env):
        if isinstance(a, Falsum):
            return False, True
        if isinstance(a, Atom):
            args = tuple(self.eta(alpha, env[t.name]) for t in a.args)
            return self.model.holds(a.name, self.paths[alpha][-1], args), True
        if isinstance(a, Implies):
            left, left_cert = self.eval(alpha, a.left, env)
            right, right_cert = self.eval(alpha, a.right, env)
            if left_cert and not left or right_cert and right:
                return True, True
            return not left or right, left_cert and right_cert
        if isinstance(a, Forall):
            family = forall_family(self.sigma2, self.max_sigma,
                                   self._gap_cap(alpha, a.body))
            return self._all(self.eval(alpha, a.body, {**env, a.var: gamma})
                             for gamma in family)
        if isinstance(a, Box):
            return self._eval_box(alpha, a, env)
        raise TypeError(a)

    @staticmethod
    def _all(verdicts):
        certified = True
        for value, cert in verdicts:
            if value is False:
                return False, cert
            certified = certified and cert
        return True, certified

    def _gap_cap(self, alpha, body):
        cap = st(alpha)
        for _ in range(modal_depth(body)):
            cap += self.ext_cap * (self.df.j_max + 1)
        return cap + 1

    def _eval_box(self, alpha, a, env):
        m = max([st(alpha)] + [st(gamma) for gamma in env.values()])
        try:
            exts = self.df.extensions(f0(alpha, self.df.frame))
        except BudgetExceeded:
            return True, False
        pre = restrict(alpha, m)
        j_max = self.df.j_max
        certified = True
        for ext in sorted(exts):
            if ext == ():
                value, cert = self.eval(canonical(alpha), a.body, env)
                if value is False:
                    return False, cert
                certified = certified and cert
                continue
            verdicts = {js: self.eval(word, a.body, env)
                        for js, word in padded_words(pre, ext, j_max)}
            generic, generic_cert = verdicts[(j_max,) * len(ext)]
            deep = {value for js, (value, _) in verdicts.items()
                    if min(js) >= j_max - 1}
            sub_cert = all(cert for _, cert in verdicts.values())
            if generic is False:
                robust = all(value is False for value, _ in verdicts.values())
                return False, robust and sub_cert
            certified = certified and len(deep) == 1 and sub_cert \
                and generic_cert
        return True, certified


# the formula templates of the dense-eval benchmark workload, each with the
# most worlds and the largest j_max it is drawn with: two variables under a
# box cost the window reference seconds beyond two worlds and j_max = 1
TEMPLATES = [
    ("box forall x. P(x)", 4, 2),
    ("forall x. box P(x)", 4, 2),
    ("(forall x. box P(x)) -> box forall x. P(x)", 4, 2),
    ("(box forall x. P(x)) -> forall x. box P(x)", 4, 2),
    ("forall x. (P(x) -> box P(x))", 4, 2),
    ("box box forall x. P(x)", 4, 2),
    ("forall x. box box P(x)", 4, 2),
    ("box forall x. box P(x)", 4, 2),
    ("box box box forall x. (P(x) -> Q(x))", 4, 2),
    ("forall x. box box box P(x)", 4, 2),
    ("forall x. forall y. box (P(x) -> P(y))", 2, 1),
    ("(forall x. forall y. (P(x) -> Q(y))) -> box forall x. P(x)", 4, 2),
]


def random_scenario(rng: random.Random, kind: str, formula: str,
                    max_worlds: int, max_j: int) -> str:
    """A rooted frame of at most max_worlds worlds (a tree, a DAG, or a frame
    with a loop or cycle), expanding domains and unary P/Q valuations."""
    n = rng.randint(2, max_worlds)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    if kind in ("dag", "loop"):
        edges |= {(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.3}
    if kind == "loop":
        j = rng.randrange(1, n)
        edges.add((j, rng.randrange(1, j + 1)))
    reach = {i: {i} for i in range(n)}
    for _ in range(n):
        for i, j in edges:
            reach[i] |= reach[j]
    born = [i for i in range(n) if i == 0 or rng.random() < 0.5]
    domains = {w: sorted(f"e{i}" for i in born if w in reach[i])
               for w in range(n)}
    if kind == "loop":
        # the least depth allowed, so that boxes may reach the frontier
        seen, eccentricity = {0}, 0
        while len(seen) < n:
            seen |= {j for i, j in edges if i in seen}
            eccentricity += 1
        depth = eccentricity + 1 + rng.randint(0, 1)
    else:
        # every box of the formula stays inside the interior
        depth = max(_longest_path(edges, 0),
                    modal_depth(parse_pred(formula))) + 1 + rng.randint(0, 1)
    lines = ["[frame]", "worlds " + " ".join(f"w{i}" for i in range(n)),
             "root w0",
             "edges " + " ".join(f"w{i}->w{j}" for i, j in sorted(edges)),
             "[domains]"]
    lines += [f"domain w{w} = {{{', '.join(domains[w])}}}" for w in range(n)]
    lines.append("[valuation]")
    for pred in ("P", "Q"):
        for w in range(n):
            rows = [f"({d})" for d in domains[w] if rng.random() < 0.6]
            lines.append(f"val {pred} @ w{w} = {{{', '.join(rows)}}}")
    lines += ["[formula]", formula, "[bounds]",
              f"depth = {depth}",
              f"j_max = {rng.randint(1, max_j)}", "max_sigma = 2"]
    return "\n".join(lines) + "\n"


def _longest_path(edges, i):
    return max((1 + _longest_path(edges, j) for u, j in edges if u == i),
               default=0)


def evaluators(s, j_max):
    """The exact and the window evaluator over one eta, and a check that
    psi's domain maps were built only where eta was asked, plus their
    ancestors."""
    df = DenseFrame(s.pframe.frame, gamma=s.gamma, depth=s.depth,
                    j_max=j_max)
    phi1 = PsiMaps(s.space, s.pframe, df, s.max_sigma)
    paths = PointPaths(df.frame)
    classes = XiClasses(s.space)
    built = make_eta(classes, phi1, s.pframe, paths)
    asked = set()

    def eta(alpha, gamma):
        value = built(alpha, gamma)
        asked.add(paths[alpha])
        return value

    def built_where_asked():
        return set(phi1) == {p[:i] for p in asked
                             for i in range(1, len(p) + 1)}
    return DenseEvaluator(df, classes, eta, s.model, s.max_sigma, paths), \
        WindowEvaluator(df, eta, s.model, s.max_sigma, s.sigma2, paths,
                        gamma=s.gamma), built_where_asked


@pytest.mark.parametrize("kind", ["tree", "dag", "loop"])
def test_agrees_with_window_evaluator(kind):
    rng = random.Random(f"dense-evaluator-{kind}")
    uncertified = 0
    for formula, max_worlds, max_j in TEMPLATES:
        for _ in range(2):
            text = random_scenario(rng, kind, formula, max_worlds, max_j)
            s = parse_scenario(text, kind)
            j_max = int(re.search(r"^j_max = (\d+)$", text, re.M).group(1))
            exact, window, built_where_asked = evaluators(s, j_max)
            got = exact.eval((), s.formula, {})
            want, want_certified = window.eval((), s.formula, {})
            assert built_where_asked(), text
            if want_certified:
                assert got is want, text
            if isinstance(got, bool):
                assert got == eval_pred_kripke(
                    s.model, s.pframe.frame.root, s.formula), text
            else:
                assert got[0] == "frontier", text
                uncertified += 1
    assert (uncertified > 0) == (kind == "loop")


@pytest.mark.parametrize("kind", ["tree", "dag", "loop"])
def test_box_chains_keep_the_class(kind):
    """For a point alpha, a word gamma of the family a forall binds at alpha
    and a point beta that a chain of boxes reaches from alpha, each step at
    m >= st(gamma), xi(beta, gamma) = xi(alpha, gamma)."""
    rng = random.Random(f"class-locality-{kind}")
    checked = 0
    for _ in range(6):
        text = random_scenario(rng, kind, "box box box P(x)", 4, 2)
        s = parse_scenario(text, kind)
        df = DenseFrame(s.pframe.frame, depth=s.depth)
        for alpha in enumerate_paths_with_stops(df.frame, 3):
            if alpha != canonical(alpha):
                continue
            for gamma in forall_family(s.sigma2, s.max_sigma, st(alpha)):
                want = xi(s.space, alpha, gamma)
                beta = alpha
                for _ in range(3):
                    try:
                        exts = df.extensions(f0(beta, df.frame))
                    except BudgetExceeded:
                        break
                    if not exts:
                        break
                    m = max(st(beta), st(gamma))
                    beta = canonical(restrict(beta, m) + rng.choice(exts))
                    assert xi(s.space, beta, gamma) == want, \
                        (text, alpha, gamma, beta)
                    checked += 1
    assert checked > 0


def h_by_definition(space, alpha, gamma) -> tuple:
    """``entangle.h`` read from its definition, kept apart from its walk:
    each zero of gamma takes the next unused base letter of alpha whose
    position in alpha the zero's position has reached, a domain letter is
    copied, and the letters of alpha left over are appended."""
    pending = [(pos, a) for pos, a in enumerate(canonical(alpha), start=1)
               if a != STOP]
    out = []
    for pos, c in enumerate(canonical(gamma), start=1):
        if c != STOP:
            out.append(c)
        elif pending and pending[0][0] <= pos:
            out.append(pending.pop(0)[1])
    return tuple(out) + tuple(a for _, a in pending)


def walk_frames():
    """The frames of the three bundled scenarios and of seeded
    ``random_scenario`` trees, DAGs and loops."""
    frames = [parse_scenario(path.read_text(), path.name).pframe.frame
              for path in sorted(SCENARIOS.glob("*.scn"))]
    rng = random.Random("class-table-walk")
    for kind in ("tree", "dag", "loop"):
        for _ in range(3):
            text = random_scenario(rng, kind, "box P(x)", 4, 1)
            frames.append(parse_scenario(text, kind).pframe.frame)
    return frames


def test_class_table_walk_matches_xi_word_by_word():
    """At every point alpha with st(alpha) <= 3, the class table that one
    walk of ``h`` builds over the forall family (overflow words included)
    is the first-hit table of ``xi`` applied word by word, and ``xi`` is
    ``h``'s definition with the trailing base letters stripped."""
    checked = 0
    for frame in walk_frames():
        points = {canonical(w) for w in enumerate_paths_with_stops(frame, 3)}
        for sigma2 in (("1",), ("1", "2")):
            space = EntangleSpace(frame, sigma2)
            for max_sigma in (1, 2, 3):
                for alpha in sorted(points):
                    family = forall_family(sigma2, max_sigma, st(alpha))
                    want = {}
                    for gamma in family:
                        cls = xi(space, alpha, gamma)
                        assert cls == canonicalize(
                            space, h_by_definition(space, alpha, gamma)), \
                            (alpha, gamma)
                        want.setdefault(cls, gamma)
                    got = class_table(space, alpha, family)
                    assert list(got.items()) == list(want.items()), \
                        (frame, sigma2, max_sigma, alpha)
                    checked += 1
    assert checked > 500


KLEENE = """[frame]
worlds u v
root u
edges u->v v->v
[domains]
domain u = {d}
domain v = {d, e}
[valuation]
val P @ u = {(d)}
val P @ v = {(d)}
val Q @ u = {}
val Q @ v = {(d)}
[formula]
forall x. P(x)
[bounds]
depth = 3
"""

# At depth 3, ``box box P(x)`` at the point over u v reaches the frontier
# path u v v, so UNDECIDED is undecided; TRUE and FALSE are decided at u.
UNDECIDED = "box forall x. box box P(x)"
TRUE, FALSE = "forall x. P(x)", "forall x. Q(x)"
FRONTIER = ("frontier", ("u", "v", "v"))



def kleene_evaluator():
    s = parse_scenario(KLEENE, "kleene")
    df = DenseFrame(s.pframe.frame, gamma=s.gamma, depth=s.depth)
    phi1 = PsiMaps(s.space, s.pframe, df, s.max_sigma)
    paths = PointPaths(df.frame)
    classes = XiClasses(s.space)
    return DenseEvaluator(df, classes,
                          make_eta(classes, phi1, s.pframe, paths), s.model,
                          s.max_sigma, paths)


@pytest.mark.parametrize("formula, value", [
    (UNDECIDED, FRONTIER),
    (TRUE, True),
    (FALSE, False),
    (f"({UNDECIDED}) -> {TRUE}", True),
    (f"({UNDECIDED}) -> {FALSE}", FRONTIER),
    (f"({FALSE}) -> {UNDECIDED}", True),
    (f"({TRUE}) -> {UNDECIDED}", FRONTIER),
    (f"({UNDECIDED}) -> {UNDECIDED}", FRONTIER),
    # the parts at d come first (test_kleene_forall_binds_d_first)
    ("box forall x. (Q(x) & box box P(x))", False),
    ("box forall x. (Q(x) -> box box P(x))", FRONTIER),
    ("box forall x. ((Q(x) -> false) -> box box P(x))", FRONTIER),
], ids=["undecided", "true", "false", "undecided->true", "undecided->false",
        "false->undecided", "true->undecided", "undecided->undecided",
        "forall-undecided-then-false", "forall-undecided-then-true",
        "forall-true-then-undecided-then-true"])
def test_kleene_rules(formula, value):
    """Each rule of ``DenseEvaluator.eval`` on one undecided part: an
    implication is true at a false left or a true right side and otherwise
    carries its left side's witness, unless that side is true; a ``forall``
    is false at a false part, also after an undecided one, and otherwise
    carries the witness of an undecided part, whatever parts follow it."""
    got = kleene_evaluator().eval((), parse_pred(formula), {})
    assert got == value and type(got) is type(value), got


def test_kleene_forall_binds_d_first():
    """Over v, the first class a ``forall`` binds goes to d, and a later
    one to e, where Q fails."""
    ev = kleene_evaluator()
    over_v = [ev.eta(("v",), gamma) for gamma in ev.tables[("v",)].values()]
    assert over_v[0] == "d" and "e" in over_v, over_v
