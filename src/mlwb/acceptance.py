"""The acceptance suite: eleven numbered criteria covering the whole
workbench, from the dense-frame countermodel to the end-to-end pipeline.

Each criterion is a zero-argument callable returning a dict with at least
``ok``; ``run_all`` executes them in order and can print one line per
criterion.  The suite is deterministic: all sampling is seeded.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from pathlib import Path

from .dense import DenseFrame, STOP, canonical, counterexample_g, \
    density_witness, enumerate_paths_with_stops, f0, f0_image_check, \
    is_member_uk, uk_members, validate_stopword
from .entangle import EntangleSpace, build_psi, canonicalize, \
    decompositions, entangle_enumerate, equiv, h, t, xi
from .horn import HornTheory, axiom_to_horn, axioms_to_theory, gamma_close, \
    transitive_closure_squaring
from .kripke import KripkeFrame, KripkeModel, axiom_inclusion_formula, \
    brute_validity, check_axiom_inclusion, check_pretransitive, \
    pretransitivity_formula, sample_truth_preservation, \
    truth_preservation_test, unravel
from .kripke import truth_set as kripke_truth_set
from .neighbourhood import NFrame, NModel, nf_from_kripke, \
    n_morphism_from_kripke, n_truth_preservation_test
from .neighbourhood import truth_set as nbhd_truth_set
from .predicate import PredKripkeFrame, PredKripkeModel, PredNFrame, \
    PredNKMorphism, PredNModel, barcan_formula, check_kk_morphism, \
    converse_barcan_formula, eval_pred_kripke, pullback_kk, \
    pred_truth_preservation_test, random_pred_formula
from .predicate import truth_set as pred_truth_set
from .predicate import truth_vectors as pred_truth_vectors
from .pipeline import parse_scenario, render_report, run_pipeline
from .syntax import Box, Falsum, Implies, Letter, neg

SCENARIO_DIR = Path(__file__).resolve().parent.parent.parent / "scenarios"


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    seconds: float
    detail: dict


# ---------------------------------------------------------------------------
# small frame enumerations (shared by criteria 5 and 7)


def _frames_up_to(n_exhaustive: int, n_sampled: int, sample_count: int,
                  seed: int):
    """All rooted frames with <= n_exhaustive worlds, plus a seeded sample
    of frames with n_sampled worlds, one at a time: a frame keeps its
    successor index, so holding them all would hold every index."""
    for n in range(1, n_exhaustive + 1):
        worlds = [f"w{i}" for i in range(n)]
        pairs = [(u, v) for u in worlds for v in worlds]
        for bits in range(2 ** len(pairs)):
            relation = frozenset(p for i, p in enumerate(pairs)
                                 if bits >> i & 1)
            yield KripkeFrame(frozenset(worlds), relation, worlds[0])
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(n_sampled)]
    pairs = [(u, v) for u in worlds for v in worlds]
    for _ in range(sample_count):
        relation = frozenset(p for p in pairs if rng.random() < 0.4)
        yield KripkeFrame(frozenset(worlds), relation, worlds[0])


# ---------------------------------------------------------------------------
# criteria


def criterion_1_counterexample() -> dict:
    """The parity countermodel on the dense frame over the next-relation
    chain, with per-neighbourhood witnesses up to k = 20."""
    report = counterexample_g(20)
    expected = {}
    for k in range(21):
        true_k = k if k % 2 == 0 else k + 1
        false_k = k + 1 if k % 2 == 0 else k
        expected[k] = (STOP * true_k + "1", STOP * false_k + "1")
    return {"ok": report["ok"] and report["witnesses"] == expected,
            "witness_count": len(report["witnesses"])}


def criterion_2_fixed_vectors() -> dict:
    frame = KripkeFrame(frozenset("rabc"), frozenset(
        {("r", "a"), ("a", "b"), ("b", "c")}), "r")
    space = EntangleSpace(frame, sigma2=("1", "2", "3", "4"))
    got_h = "".join(h(space, tuple("a0b00c"), tuple("1034")))
    got_t = "".join(t(space, tuple("ab00c"), tuple("a12bc3")))
    got_xi = "".join(xi(space, tuple("ab00c"), tuple("0120003")))
    ok = got_h == "1a34bc" and got_t == "a12b00c3" and got_xi == "a12bc3"
    return {"ok": ok, "h": got_h, "t": got_t, "xi": got_xi}


def criterion_3_stop_words() -> dict:
    chain = KripkeFrame(frozenset({"a0", "b"}), frozenset({("a0", "b")}), "a0")
    got = {tuple(w) for w in enumerate_paths_with_stops(chain, 5)}
    expected = {(STOP,) * k for k in range(6)}
    expected |= {(STOP,) * k + ("b",) + (STOP,) * m
                 for k in range(5) for m in range(5 - k)}
    cycle = KripkeFrame(frozenset({"a0", "b"}),
                        frozenset({("a0", "b"), ("b", "a0")}), "a0")
    accepted = bool(validate_stopword(("b", "a0", "b", "a0"), cycle))
    rejected = not validate_stopword(("a0",), cycle)
    return {"ok": got == expected and accepted and rejected,
            "enumerated": len(got)}


def criterion_4_horn_closure() -> dict:
    rng = random.Random(4)
    trans = HornTheory.of(axiom_to_horn(2))
    refl_trans = axioms_to_theory([0, 2])
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        worlds = [f"w{i}" for i in range(n)]
        relation = frozenset((u, v) for u in worlds for v in worlds
                             if rng.random() < 0.3)
        frame = KripkeFrame(frozenset(worlds), relation, worlds[0])
        closed = gamma_close(frame, trans)
        oracle = transitive_closure_squaring(relation)
        if closed.relation != oracle:
            mismatches += 1
            continue
        closed_rt = gamma_close(frame, refl_trans)
        diag = frozenset((w, w) for w in worlds)
        if closed_rt.relation != transitive_closure_squaring(relation | diag):
            mismatches += 1
    return {"ok": mismatches == 0, "frames": 1000, "mismatches": mismatches}


def criterion_5_axiom_equivalences() -> dict:
    frames = mismatches = 0
    for frame in _frames_up_to(3, 4, 150, seed=5):
        frames += 1
        for k in range(1, 4):
            lhs = bool(check_axiom_inclusion(frame, k))
            rhs = brute_validity(frame, axiom_inclusion_formula(k))
            if lhs != rhs:
                mismatches += 1
        for k in range(1, 3):
            lhs = bool(check_pretransitive(frame, k))
            rhs = brute_validity(frame, pretransitivity_formula(k))
            if lhs != rhs:
                mismatches += 1
    return {"ok": mismatches == 0, "frames": frames,
            "mismatches": mismatches}


def _diamond_frame() -> KripkeFrame:
    return KripkeFrame(frozenset("rabc"), frozenset(
        {("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")}), "r")


def criterion_6_truth_preservation() -> dict:
    detail = {}
    base = _diamond_frame()
    # the unravelling of a DAG at sufficient depth is total, so the
    # endpoint map is an everywhere-lifting p-morphism
    u = unravel(base, 5)
    kripke_rep = truth_preservation_test(u.pi, samples=1000, seed=6)
    detail["kripke"] = kripke_rep["passed"]
    nf = n_morphism_from_kripke(u.pi)
    n_rep = n_truth_preservation_test(nf, samples=1000, seed=6)
    detail["nframe"] = n_rep["passed"]

    # KK: psi on the two-chain with growing domains, sampled both ways
    chain = KripkeFrame(frozenset({"u", "v"}), frozenset({("u", "v")}), "u")
    target = PredKripkeFrame(chain, {"u": frozenset({"d"}),
                                     "v": frozenset({"d", "e"})})
    space = EntangleSpace(chain, sigma2=("1", "2"))
    kk = build_psi(space, target, DenseFrame(chain, depth=3), max_sigma=2)
    rng = random.Random(6)
    # sorted, so that the draws do not follow the string hash seed
    val = {"P": {w: frozenset((d,) for d in sorted(target.domain(w))
                              if rng.random() < 0.6)
                 for w in sorted(chain.worlds)}}
    model = PredKripkeModel(target, val)
    pulled = pullback_kk(model, kk)
    kk_rep = sample_truth_preservation(
        check_kk_morphism(kk), kk.phi0.map, kk.phi0.lifting_points(),
        lambda r: (pulled, model, random_pred_formula(r, {"P": 1}, depth=1)),
        pred_truth_set, samples=1000, seed=6)
    detail["kk"] = kk_rep["passed"]

    # NK: the neighbourhood space of the chain with a constant domain and
    # pointwise-identical element maps (locally stable by construction)
    const = PredKripkeFrame(chain, {w: frozenset({"d", "e"})
                                    for w in chain.worlds})
    spacex = nf_from_kripke(chain)
    nk = PredNKMorphism(spacex, const, frozenset({"d", "e"}),
                        {x: x for x in spacex.points},
                        {x: {"d": "d", "e": "e"} for x in spacex.points})
    val2 = {"P": {w: frozenset((d,) for d in sorted(const.domain(w))
                               if rng.random() < 0.6)
                  for w in sorted(chain.worlds)}}
    nk_rep = pred_truth_preservation_test(nk, PredKripkeModel(const, val2),
                                          samples=1000, seed=6)
    detail["nk"] = nk_rep["passed"]
    return {"ok": all(n == 1000 for n in detail.values()), **detail}


def _formula_enumeration() -> list:
    p, q = Letter("p"), Letter("q")
    base = [p, q, neg(p), Implies(p, q), Implies(q, p), Falsum()]
    depth1 = [Box(a) for a in base] + [neg(Box(a)) for a in base]
    depth2 = [Box(a) for a in depth1[:6]] + \
        [Implies(Box(p), Box(Box(p))), Box(Box(neg(q)))]
    return base + depth1 + depth2


def criterion_7_logic_agreement() -> dict:
    formulas = _formula_enumeration()
    rng = random.Random(7)
    mismatches = 0
    checked = 0
    for frame in _frames_up_to(3, 4, 60, seed=7):
        worlds = sorted(frame.worlds)
        val = {"p": frozenset(w for w in worlds if rng.random() < 0.5),
               "q": frozenset(w for w in worlds if rng.random() < 0.5)}
        km = KripkeModel(frame, val)
        nm = NModel(nf_from_kripke(frame), val)
        for a in formulas:
            checked += len(worlds)
            mismatches += len(kripke_truth_set(km, a) ^ nbhd_truth_set(nm, a))
    return {"ok": checked > 0 and mismatches == 0, "checked": checked,
            "mismatches": mismatches}


def criterion_8_density_and_image() -> dict:
    rng = random.Random(8)
    pool = [
        KripkeFrame(frozenset({"r", "a"}), frozenset({("r", "a")}), "r"),
        KripkeFrame(frozenset({"r", "a", "b"}),
                    frozenset({("r", "a"), ("a", "b")}), "r"),
        KripkeFrame(frozenset({"r", "a", "b"}),
                    frozenset({("r", "a"), ("r", "b"), ("a", "b"),
                               ("b", "a")}), "r"),
    ]
    density_checked = image_checked = failures = anti_failures = 0
    for _ in range(100):
        frame = rng.choice(pool)
        df = DenseFrame(frame, depth=5, j_max=3)
        alphas = [w for w in _small_points(df) if len(f0(w, frame)) <= 2]
        alpha = rng.choice(alphas)
        n = rng.randint(0, 3)
        members, _ = uk_members(alpha, n, df)
        for beta in members:
            density_checked += 1
            try:
                density_witness(alpha, n, beta, df)
            except (ValueError, AssertionError):
                failures += 1
        if not f0_image_check(alpha, n, df):
            failures += 1
        image_checked += 1
        # antitonicity: enumerated members at n+1 are members at n
        deeper, _ = uk_members(alpha, n + 1, df)
        for beta in deeper:
            if not is_member_uk(beta, alpha, n, df):
                anti_failures += 1
    return {"ok": failures == 0 and anti_failures == 0,
            "density_members": density_checked,
            "image_instances": image_checked}


def _small_points(df: DenseFrame) -> list:
    out = []
    for path in sorted(df.interior_paths(), key=lambda p: (len(p), p)):
        if len(path) <= df.depth - 2:
            out.append(canonical(path[1:]))
            if len(path) >= 2:
                out.append((STOP,) + canonical(path[1:]))
    return out


def criterion_9_equiv_oracle() -> dict:
    """Canonical forms against the brute-force ~ oracle on every ordered
    pair of words, over two frames: the chain ``a -> b`` (length 6), where
    a word ends in at most one world letter, and ``a -> b`` with a loop at
    ``b`` (length 5), where trailing runs of world letters are long.  A
    pair is ~ exactly when its two sets of ``decompositions`` meet, which
    is ``equiv_bruteforce``; the oracle side never calls ``canonicalize``.
    The pairs are counted by a join, not one by one: each decomposition is
    indexed to the words that have it, so the words ~ to ``u`` are the
    union of the lists of ``u``'s decompositions.  A pair mismatches when
    ``v`` is in exactly one of that union and ``u``'s canonical class, so
    the symmetric difference per ``u`` sums to the all-pairs count."""
    rng = random.Random(9)
    ok = True
    detail = {}
    for name, relation, max_len in (("chain", {("a", "b")}, 6),
                                    ("loop", {("a", "b"), ("b", "b")}, 5)):
        frame = KripkeFrame(frozenset({"a", "b"}), frozenset(relation), "a")
        space = EntangleSpace(frame, sigma2=("1", "2"))
        words = entangle_enumerate(space, max_len)
        canonical_of = {w: canonicalize(space, w) for w in words}
        decomposed = {w: decompositions(space, w) for w in words}
        same_class, sharing = {}, {}
        for w in words:
            same_class.setdefault(canonical_of[w], set()).add(w)
            for d in decomposed[w]:
                sharing.setdefault(d, []).append(w)
        mismatches = 0
        for u in words:
            equivalent = set().union(*(sharing[d] for d in decomposed[u]))
            mismatches += len(equivalent ^ same_class[canonical_of[u]])
        # spot-check that the public equiv agrees with the canonical forms
        for _ in range(500):
            u, v = rng.choice(words), rng.choice(words)
            if equiv(space, u, v) != (canonical_of[u] == canonical_of[v]):
                mismatches += 1
        detail[name] = {"words": len(words), "pairs": len(words) ** 2,
                        "mismatches": mismatches}
        ok = ok and mismatches == 0
    return {"ok": ok, **detail}


def criterion_10_barcan() -> dict:
    barcan = barcan_formula()
    converse = converse_barcan_formula()
    failures = 0
    checked = 0
    # constant-domain n-frames: every point carries one or two base sets
    for n_points in (1, 2, 3):
        points = [f"x{i}" for i in range(n_points)]
        subsets = [frozenset(c) for r in range(1, n_points + 1)
                   for c in itertools.combinations(points, r)]
        per_point = [(s,) for s in subsets]
        per_point += [(s1, s2) for s1 in subsets for s2 in subsets if s1 < s2]
        if n_points == 3:  # keep the product tractable but varied
            per_point = per_point[::3]
        for combo in itertools.islice(
                itertools.product(per_point, repeat=n_points), 400):
            space = NFrame(frozenset(points),
                           {x: tuple(combo[i]) for i, x in enumerate(points)})
            for dom in (("d",), ("d", "e")):
                # with one element the last two rows coincide: each
                # distinct valuation is checked once
                options = dict.fromkeys((frozenset(), frozenset({(dom[0],)}),
                                         frozenset((d,) for d in dom)))
                family = [{"P": dict(zip(points, rows))} for rows in
                          itertools.product(options, repeat=n_points)]
                # one model of the frame; bit k of a point's value is
                # Barcan's value there under the k-th valuation
                model = PredNModel(PredNFrame(space, frozenset(dom)),
                                   family[0])
                values = pred_truth_vectors(model, barcan, family)
                checked += len(family)
                failures += sum(len(family) - v.bit_count()
                                for v in values.values())
    # the expanding-domain refutation of Barcan on the Kripke side
    chain = KripkeFrame(frozenset({"u", "v"}), frozenset({("u", "v")}), "u")
    witness = PredKripkeModel(
        PredKripkeFrame(chain, {"u": frozenset({"d"}),
                                "v": frozenset({"d", "e"})}),
        {"P": {"u": frozenset({("d",)}), "v": frozenset({("d",)})}})
    barcan_refuted = not eval_pred_kripke(witness, "u", barcan)
    # converse Barcan on generated expanding-domain instances
    rng = random.Random(10)
    cb_failures = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        worlds = [f"w{i}" for i in range(n)]
        relation = frozenset((u, v) for i, u in enumerate(worlds)
                             for v in worlds[i:] if rng.random() < 0.6)
        frame = KripkeFrame(frozenset(worlds), relation, worlds[0])
        doms = {}
        grow = ["d"]
        for w in worlds:
            doms[w] = frozenset(grow)
            if len(grow) < 2 and rng.random() < 0.5:
                grow.append("e")
        # expanding along the (order-respecting) relation by construction
        pframe = PredKripkeFrame(frame, doms)
        val = {"P": {w: frozenset((d,) for d in doms[w]
                                  if rng.random() < 0.5) for w in worlds}}
        model = PredKripkeModel(pframe, val)
        cb_failures += n - len(pred_truth_set(model, converse))
    ok = failures == 0 and barcan_refuted and cb_failures == 0
    return {"ok": ok, "nframe_instances": checked,
            "barcan_refuted_on_witness": barcan_refuted,
            "converse_failures": cb_failures}


def criterion_11_pipeline() -> dict:
    names = ["barcan-two-chain", "transitive-three-chain", "degenerate-point"]
    detail = {}
    ok = True
    for name in names:
        path = SCENARIO_DIR / f"{name}.scn"
        scenario = parse_scenario(path.read_text(encoding="utf-8"), name)
        report = run_pipeline(scenario)
        text1 = _stable_text(render_report(report))
        text2 = _stable_text(render_report(run_pipeline(scenario)))
        stages_ok = all(s.ok for s in report.stages)
        deterministic = text1 == text2
        matches = report.dense_certified and \
            report.dense_value == report.kripke_value
        detail[name] = {"stages_ok": stages_ok, "certified": matches,
                        "deterministic": deterministic,
                        "dense_value": report.dense_value}
        ok = ok and stages_ok and matches and deterministic and report.ok
        if name != "degenerate-point":
            ok = ok and report.dense_value is False
    return {"ok": ok, **detail}


def _stable_text(text: str) -> str:
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith("# time"))


CRITERIA = [
    (1, "dense counterexample", criterion_1_counterexample, 5.0),
    (2, "worked-example fixed vectors", criterion_2_fixed_vectors, None),
    (3, "paths-with-stops vectors", criterion_3_stop_words, None),
    (4, "horn closure oracle", criterion_4_horn_closure, 10.0),
    (5, "axiom-relation equivalences", criterion_5_axiom_equivalences, None),
    (6, "truth-preservation suites", criterion_6_truth_preservation, None),
    (7, "logic agreement", criterion_7_logic_agreement, None),
    (8, "density and image lemmas", criterion_8_density_and_image, None),
    (9, "canonicalization oracle", criterion_9_equiv_oracle, None),
    (10, "barcan behavior", criterion_10_barcan, None),
    (11, "end-to-end pipeline", criterion_11_pipeline, 60.0),
]


def run_criterion(number: int) -> CriterionResult:
    num, name, fn, budget = CRITERIA[number - 1]
    t0 = time.perf_counter()
    detail = fn()
    seconds = time.perf_counter() - t0
    ok = detail.pop("ok", False)
    if budget is not None and seconds > budget:
        ok = False
        detail["time_budget_exceeded"] = f"{seconds:.1f}s > {budget:.0f}s"
    return CriterionResult(num, name, ok, seconds, detail)


def run_all(verbose: bool = False) -> list:
    results = []
    for num, _, _, _ in CRITERIA:
        res = run_criterion(num)
        results.append(res)
        if verbose:
            status = "pass" if res.ok else "FAIL"
            print(f"criterion {res.number:2d} ({res.name}): {status}"
                  f"  [{res.seconds:.2f}s]")
            if not res.ok:
                print(f"    {res.detail}")
    return results
