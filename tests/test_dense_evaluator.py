"""The exact dense evaluator against the padding-window evaluator it
replaced, on seeded scenarios built here."""

import random

import pytest

from mlwb.dense import DenseFrame, EvalVerdict, canonical, f0, padded_words, \
    restrict, st
from mlwb.entangle import build_psi
from mlwb.kripke import BudgetExceeded
from mlwb.pipeline import DenseEvaluator, make_eta, parse_scenario
from mlwb.predicate import eval_pred_kripke
from mlwb.syntax import modal_depth, parse_pred


class WindowEvaluator(DenseEvaluator):
    """Reference: the padding-window evaluator.  A box evaluates every
    padding 0^j (j <= j_max) of each extension family and certifies a true
    value only when the paddings from j_max - 1 on agree; a false value is
    certified only when every padding is false.  Each forall family is
    widened to the deepest padded point a nested box can reach."""

    def _gap_cap(self, alpha, body):
        cap = st(alpha)
        for _ in range(modal_depth(body)):
            cap += self.ext_cap * (self.df.j_max + 1)
        return cap + 1

    def _eval_box(self, alpha, a, env):
        m = max([st(alpha)] + [st(g) for g in env.values()])
        try:
            exts = self.df.extensions(f0(alpha, self.df.frame))
        except BudgetExceeded:
            return EvalVerdict(True, False)
        pre = restrict(alpha, m)
        j_max = self.df.j_max
        certified = True
        for ext in sorted(exts):
            if ext == ():
                v = self.eval(canonical(alpha), a.body, env)
                if v.value is False:
                    return EvalVerdict(False, v.certified)
                certified = certified and v.certified
                continue
            verdicts = {js: self.eval(word, a.body, env)
                        for js, word in padded_words(pre, ext, j_max)}
            generic = verdicts[(j_max,) * len(ext)]
            deep = {v.value for js, v in verdicts.items()
                    if min(js) >= j_max - 1}
            sub_cert = all(v.certified for v in verdicts.values())
            if generic.value is False:
                robust = all(v.value is False for v in verdicts.values())
                return EvalVerdict(False, robust and sub_cert)
            certified = certified and len(deep) == 1 and sub_cert \
                and generic.certified
        return EvalVerdict(True, certified)


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


def evaluators(s):
    df = DenseFrame(s.pframe.frame, gamma=s.gamma, depth=s.depth,
                    k_max=s.k_max, j_max=s.j_max)
    psi = build_psi(s.space, s.pframe, df, max_sigma=s.max_sigma)
    eta = make_eta(s.space, psi, s.pframe)
    return [cls(df, s.space, eta, s.model, s.sigma2, s.max_sigma,
                gamma=s.gamma) for cls in (DenseEvaluator, WindowEvaluator)]


@pytest.mark.parametrize("kind", ["tree", "dag", "loop"])
def test_agrees_with_window_evaluator(kind):
    rng = random.Random(f"dense-evaluator-{kind}")
    uncertified = 0
    for formula, max_worlds, max_j in TEMPLATES:
        for _ in range(2):
            text = random_scenario(rng, kind, formula, max_worlds, max_j)
            s = parse_scenario(text, kind)
            exact, window = evaluators(s)
            got = exact.eval((), s.formula, {})
            want = window.eval((), s.formula, {})
            assert (got.value, got.certified) == \
                (want.value, want.certified), text
            if got.certified:
                assert got.value == eval_pred_kripke(
                    s.model, s.pframe.frame.root, s.formula), text
            else:
                assert got.witness[0] == "frontier", text
                uncertified += 1
    assert (uncertified > 0) == (kind == "loop")
