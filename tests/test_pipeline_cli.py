import dataclasses
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mlwb.cli import main
from mlwb.dense import DenseFrame, f0
from mlwb.entangle import PsiMaps, build_psi
from mlwb.horn import parse_horn_theory
from mlwb.pipeline import parse_scenario, render_report, run_pipeline
from mlwb.predicate import check_kk_morphism
from mlwb.syntax import parse_pred, universal_closure
from test_dense_evaluator import TEMPLATES, random_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

BARCAN = (SCENARIOS / "barcan-two-chain.scn").read_text()
TRANSITIVE = (SCENARIOS / "transitive-three-chain.scn").read_text()


class TestScenarioParsing:
    def test_barcan_scenario(self):
        s = parse_scenario(BARCAN, "barcan")
        assert s.name == "barcan"
        assert s.sigma2
        assert s.gamma is None or s.gamma.sentences is not None

    def test_missing_section(self):
        with pytest.raises(ValueError, match="missing"):
            parse_scenario("[frame]\nworlds u\nroot u\n")

    def test_duplicate_section(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_scenario("[frame]\n[frame]\n")

    def test_two_formulas_rejected(self):
        text = BARCAN.replace("[formula]", "[formula]\nfalse")
        with pytest.raises(ValueError, match="exactly one"):
            parse_scenario(text)

    def test_k_max_is_accepted_and_ignored(self):
        s = parse_scenario(BARCAN.replace("[bounds]", "[bounds]\nk_max = 1"))
        assert s == parse_scenario(BARCAN)

    def test_unknown_bound_rejected(self):
        text = BARCAN.replace("[bounds]", "[bounds]\nwibble = 3")
        with pytest.raises(ValueError, match="unknown key"):
            parse_scenario(text)


CHAIN = """[frame]
worlds a b c d
root a
edges a->b b->c c->d
[domains]
domain a = {e}
domain b = {e}
domain c = {e}
domain d = {e}
[valuation]
val P @ d = {(e)}
[formula]
box box box P(x)
[bounds]
depth = 3
"""


@pytest.mark.parametrize("text, message", [
    (BARCAN.replace("(forall x. box P(x)) -> box forall x. P(x)",
                    "forall x. Q(x)"), "'Q' has no valuation entry"),
    (BARCAN + "[horn]\nx R y & x R z => y R z\n", "chain sentences"),
    (CHAIN, "depth = 3 is below its minimum 4"),
    (CHAIN.replace("root a\n", ""), "must be rooted"),
    (BARCAN.replace("depth = 5", "depth = 0"), "depth = 0"),
    (BARCAN.replace("max_sigma = 2", "max_sigma = 0"), "max_sigma = 0"),
    (BARCAN.replace("[bounds]", "[bounds]\ndalphabet = {}"), "empty dalphabet"),
    (BARCAN.replace("domain v = {d, e}", "domain v = {d,,e}"), "empty member"),
    (TRANSITIVE.replace(" w0->w2", ""),
     "the frame violates the [horn] sentence 'x R y & y R z => x R z'"),
    (BARCAN + "[horn]\ntrue => x R x\n",
     "the frame violates the [horn] sentence 'true => x R x'"),
    (BARCAN.replace("[bounds]", "[bounds]\ndalphabet = {u, 2}"),
     "alphabets must be disjoint: ['u']"),
    (BARCAN.replace("val P @ v = {(d)}",
                    "val P @ v = {(d)}\nval P @ v = {(d), (e)}"),
     "line 18: duplicate key ('P', 'v')"),
    (BARCAN.replace("[bounds]", "[bounds]\nk_max = x"),
     "invalid literal for int()"),
    (BARCAN.replace("j_max = 3", "j_max = x"), "line 24: invalid literal"),
    (BARCAN.replace("seed = 0", "seed = 0.5"), "line 26: invalid literal"),
    (BARCAN.replace("depth = 5", "depth = 5\ndepth = 9"),
     "line 24: duplicate key 'depth'"),
    (BARCAN.replace("root u", "root u\nroot v"), "line 9: duplicate key 'root'"),
    (BARCAN.replace("val P @ v = {(d)}", "val P @ v = {(d),,(e)}"),
     "line 17: expected names or tuples"),
    (BARCAN.replace("val P @ v = {(d)}", "val P @ v = {(d)(e)}"),
     "line 17: expected names or tuples"),
    (BARCAN.replace("val P @ v = {(d)}", "val P @ v = {(d}"),
     "line 17: expected names or tuples"),
    (BARCAN.replace("val P @ v = {(d)}", "val P @ v = {(d, )}"),
     "line 17: empty member"),
    (BARCAN.replace("val P @ v = {(d)}", "val P @ v = {d}"),
     "line 17: expected tuples, found '{d}'"),
    (BARCAN.replace("root u", "root"), "line 8: expected 'root _'"),
    (BARCAN.replace("root u", "root u v"), "line 8: expected one root world"),
    (BARCAN + "[horn]\nx R y & y R z\n",
     "line 28: missing '=>' in Horn sentence (at position 13)"),
    (BARCAN.replace("(forall x. box P(x)) -> box forall x. P(x)",
                    "forall x. box P(x) ->"),
     "line 20: unexpected token '' (at position 21)"),
    (BARCAN.replace("[formula]", "[formula]\nfalse"),
     "line 21: [formula] must contain exactly one formula"),
    (BARCAN.replace("(forall x. box P(x)) -> box forall x. P(x)", ""),
     "line 19: [formula] must contain exactly one formula"),
    (BARCAN.replace("val P @ v = {(d)}",
                    "val P @ v = {(d)}\nval P @ w = {(d)}"),
     "line 18: val P @ w: the frame has no world 'w'"),
    (BARCAN.replace("[bounds]", "[bounds]\ndalphabet = {1, 1}"),
     "domain alphabet repeats a letter: ['1']"),
    (BARCAN.replace("(forall x. box P(x)) -> box forall x. P(x)",
                    "forall x. P(x, x)"),
     "predicate 'P' is applied at arity 2, but its [valuation]"
     " rows have arity 1"),
    (BARCAN.replace("(forall x. box P(x)) -> box forall x. P(x)",
                    "forall x. Q(x)").replace(
                        "val P @ v = {(d)}", "val P @ v = {(d)}\n"
                        "val Q @ u = {()}"),
     "predicate 'Q' is applied at arity 1, but its [valuation]"
     " rows have arity 0"),
    (BARCAN.replace("domain v = {d, e}", "domain v = {d, e}\ndomain w = {d}"),
     "line 14: domain w: the frame has no world 'w'"),
    (BARCAN.replace("domain v = {d, e}\n", ""),
     "the worlds ['v'] have no domain"),
    (TRANSITIVE.replace("[horn]", "[gamma]"),
     "line 21: unknown section [gamma]"),
    (BARCAN + "[bogus]\n", "line 27: unknown section [bogus]"),
], ids=["predicate-without-val", "non-chain-horn", "depth-below-eccentricity",
        "frame-without-root", "depth-zero", "zero-max_sigma",
        "empty-dalphabet", "empty-domain-member", "frame-violates-transitivity",
        "frame-violates-reflexivity", "dalphabet-overlaps-worlds",
        "repeated-val-line", "non-integer-k_max", "non-integer-j_max",
        "non-integer-seed", "repeated-bounds-key",
        "repeated-root-line", "tuple-set-double-comma", "tuple-set-no-comma",
        "tuple-set-unclosed", "tuple-set-empty-member", "name-set-as-tuples",
        "root-without-world", "root-with-two-worlds", "horn-without-arrow",
        "formula-cut-short", "two-formula-lines", "empty-formula-section",
        "val-at-unknown-world", "dalphabet-repeats-a-letter",
        "atom-arity-above-valuation", "atom-arity-above-nullary-valuation",
        "domain-at-unknown-world", "world-without-domain",
        "misspelt-horn-section", "unknown-section"])
def test_malformed_scenario_exits_2(tmp_path, capsys, text, message):
    f = tmp_path / "bad.scn"
    f.write_text(text)
    assert main(["pipeline", str(f)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("changes, message", [
    ({"depth": 0}, "depth = 0"),
    ({"gamma": parse_horn_theory("x R y & x R z => y R z")}, "chain sentences"),
    ({"gamma": parse_horn_theory("true => x R x")}, "violates"),
    ({"sigma2": ("1", "0")}, "alphabets must be disjoint"),
    ({"sigma2": ("1", "2", "1")}, "repeats a letter: ['1']"),
], ids=["depth-zero", "non-chain-gamma",
        "frame-violates-gamma", "dalphabet-holds-stop", "dalphabet-repeats"])
def test_scenario_is_checked_on_construction(changes, message):
    s = parse_scenario(BARCAN, "barcan")
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(s, **changes)


@pytest.mark.parametrize("text, gamma, refused", [
    (TRANSITIVE.replace(" w0->w2", ""), "x R z1 & z1 R y => x R y", True),
    (TRANSITIVE, "x R z1 & z1 R y => x R y", False),
    (TRANSITIVE, "x R z1 & z1 R z2 & z2 R y => x R y", False),
    (BARCAN, "true => x R x", True),
    (BARCAN, "x R y => x R y", False),
], ids=["square-violated", "square-held", "cube-held", "reflexivity-violated",
        "first-power"])
def test_gamma_is_checked_by_its_powers(text, gamma, refused):
    """Each chain sentence R^k <= R is checked on the frame by its power k
    (R^0 is the identity, so k = 0 is reflexivity, and k = 1 always
    holds); a violated one is named."""
    s = parse_scenario(re.sub(r"\[horn\][^[]*", "", text), "gamma")
    theory = parse_horn_theory(gamma)
    if not refused:
        assert dataclasses.replace(s, gamma=theory).gamma == theory
        return
    with pytest.raises(ValueError, match=re.escape(
            f"the frame violates the [horn] sentence {gamma!r}")):
        dataclasses.replace(s, gamma=theory)


ROOT_OF_FOUR = """[frame]
worlds u v
root u
edges u->v
[domains]
domain u = {a, b, c, d}
domain v = {a, b, c, d, e}
[valuation]
val P @ u = {(a), (b), (c), (d)}
val P @ v = {(a), (b), (c), (d)}
[formula]
(forall x. box P(x)) -> box forall x. P(x)
[bounds]
depth = 3
max_sigma = 3
"""


def _strip_times(text: str) -> str:
    return re.sub(r"# time .*\n", "", text)


class TestPipeline:
    @pytest.mark.parametrize("name", ["barcan-two-chain",
                                      "transitive-three-chain",
                                      "degenerate-point"])
    def test_scenario_runs_clean(self, name):
        s = parse_scenario((SCENARIOS / f"{name}.scn").read_text(), name)
        report = run_pipeline(s)
        assert report.ok, render_report(report)
        assert all(stage.ok for stage in report.stages)
        assert report.dense_certified
        assert report.dense_value == report.kripke_value

    @pytest.mark.parametrize("name", ["barcan-two-chain",
                                      "transitive-three-chain",
                                      "degenerate-point"])
    def test_report_matches_golden(self, name):
        s = parse_scenario((SCENARIOS / f"{name}.scn").read_text(), name)
        report = _strip_times(render_report(run_pipeline(s)))
        assert report == (GOLDEN / f"{name}.report").read_text()

    @pytest.mark.parametrize("name", ["barcan-two-chain",
                                      "transitive-three-chain",
                                      "degenerate-point"])
    def test_xi_once_per_point_and_word(self, monkeypatch, name):
        """The class tables, eta and the checks share one memo, so a run
        classifies each (point, word) pair once, and reports the same."""
        import mlwb.pipeline as pipeline
        xi = pipeline.xi
        calls = []

        def recorder(space, alpha, gamma):
            calls.append((alpha, gamma))
            return xi(space, alpha, gamma)
        monkeypatch.setattr(pipeline, "xi", recorder)
        s = parse_scenario((SCENARIOS / f"{name}.scn").read_text(), name)
        report = _strip_times(render_report(run_pipeline(s)))
        assert report == (GOLDEN / f"{name}.report").read_text()
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("formula, max_sigma", [
        pytest.param(formula, max_sigma, id=formula if max_sigma == 2
                     else f"max_sigma={max_sigma}: {formula}")
        for formula, max_sigma in [
            ("forall x. forall y. (P(x) -> box P(x))", 2),
            ("forall x. forall y. box (P(x) -> P(y))", 2),
            ("forall x. forall y. box (P(x) -> P(y))", 3),
            ("forall x. forall y. box box (P(x) -> P(y))", 3),
        ]])
    def test_two_variable_formula_certified(self, formula, max_sigma):
        s = dataclasses.replace(
            parse_scenario(BARCAN, "barcan"), max_sigma=max_sigma,
            formula=universal_closure(parse_pred(formula)))
        report = run_pipeline(s)
        assert report.dense_certified, render_report(report)
        assert report.dense_value == report.kripke_value

    def test_uncertified_report_names_the_frontier(self):
        text = ("[frame]\nworlds u v\nroot u\nedges u->v v->v\n"
                "[domains]\ndomain u = {d}\ndomain v = {d}\n"
                "[valuation]\nval P @ u = {(d)}\nval P @ v = {(d)}\n"
                "[formula]\nbox box box box forall x. P(x)\n"
                "[bounds]\ndepth = 2\n")
        report = run_pipeline(parse_scenario(text, "loop"))
        assert not report.dense_certified
        out = render_report(report)
        assert "  reason: frontier\n" in out
        assert "  frontier: (u, v)\n" in out
        assert "  dense_value: None\n" in out

    @pytest.mark.parametrize("depth", [3, 4, 5, 6])
    def test_gamma_closed_cycle_stays_undecided(self, tmp_path, capsys,
                                                depth):
        """The limit at Gamma-closed cycles, pinned as it stands: under
        R^2 <= R the closed successors of the root include paths of every
        length up to the truncation, so the nested box that the refutation
        needs true always reaches the frontier (u, v, ..., v) of ``depth``
        worlds, and raising ``depth`` only moves it down."""
        f = tmp_path / "cycle.scn"
        f.write_text("[frame]\nworlds u v\nroot u\nedges u->v v->v\n"
                     "[domains]\ndomain u = {d}\ndomain v = {d, e}\n"
                     "[valuation]\nval P @ u = {}\n"
                     "val P @ v = {(d), (e)}\n"
                     "[horn]\nx R y & y R z => x R z\n"
                     "[formula]\n(box box forall x. P(x)) -> forall x. P(x)\n"
                     f"[bounds]\ndepth = {depth}\n")
        assert main(["pipeline", str(f)]) == 1
        out = capsys.readouterr().out
        frontier = ", ".join(["u"] + ["v"] * (depth - 1))
        assert f"  frontier: ({frontier})\n" in out
        assert "  reason: frontier\n" in out
        assert "  kripke_root_value: False\n" in out
        assert "  dense_value: None\n" in out

    def test_false_part_decides_past_an_undecided_one(self):
        """The root box's first successor v leaves its implication undecided
        (box box P(x) reaches the frontier path (u, v, v) and Q(x) is
        false), the second, w, falsifies it: the conjunction goes on past
        the undecided part to a certified False."""
        text = ("[frame]\nworlds u v w\nroot u\nedges u->v u->w v->v\n"
                "[domains]\ndomain u = {d}\ndomain v = {d}\ndomain w = {d}\n"
                "[valuation]\nval P @ u = {(d)}\nval P @ v = {(d)}\n"
                "val P @ w = {(d)}\nval Q @ u = {}\nval Q @ v = {}\n"
                "val Q @ w = {}\n"
                "[formula]\nbox ((box box P(x)) -> Q(x))\n"
                "[bounds]\ndepth = 3\n")
        report = run_pipeline(parse_scenario(text, "decided"))
        assert report.ok, render_report(report)
        assert report.dense_certified
        assert report.dense_value is False and report.kripke_value is False

    def test_depth_two_checks_the_root_point(self):
        text = ("[frame]\nworlds u v\nroot u\nedges u->v\n"
                "[domains]\ndomain u = {d}\ndomain v = {d, e}\n"
                "[valuation]\nval P @ u = {(d)}\nval P @ v = {(d)}\n"
                "[formula]\nforall x. box P(x)\n[bounds]\ndepth = 2\n")
        report = run_pipeline(parse_scenario(text, "depth-two"))
        assert all(stage.ok for stage in report.stages), render_report(report)
        detail = {key: value for stage in report.stages
                  for key, value in stage.detail.items()}
        for key in ("xi_classes_checked", "box_points", "dstar_size",
                    "atom_sites"):
            assert detail[key] > 0, render_report(report)

    def test_barcan_refuted(self):
        report = run_pipeline(parse_scenario(BARCAN, "barcan"))
        assert report.dense_value is False
        assert report.kripke_value is False

    def test_max_sigma_is_a_ceiling(self):
        """max_sigma = 40 is a ceiling: the run takes the least value that
        covers the domains, 1 here, and certifies.  (The budgets that a
        run at 40 would meet are pinned by the entangle tests.)"""
        report = run_pipeline(parse_scenario(
            BARCAN.replace("max_sigma = 2", "max_sigma = 40"), "barcan"))
        assert report.ok and report.dense_certified, render_report(report)
        psi = {stage.name: stage for stage in report.stages}["psi-morphism"]
        assert psi.detail["max_sigma"] == 1
        assert psi.detail["classes_at_root"] == 3

    @pytest.mark.parametrize("ceiling, stage_ok", [(3, True), (1, False)])
    def test_four_root_elements_need_max_sigma_two(self, ceiling, stage_ok):
        """Two letters give the root 3 classes at max_sigma = 1 and 7 at
        2: four root elements run at 2 under a ceiling of 3 and certify
        the refutation, and a ceiling of 1 is refused."""
        report = run_pipeline(parse_scenario(ROOT_OF_FOUR.replace(
            "max_sigma = 3", f"max_sigma = {ceiling}"), "root-of-four"))
        psi = {stage.name: stage for stage in report.stages}["psi-morphism"]
        assert psi.ok is stage_ok and report.ok is stage_ok
        if stage_ok:
            assert psi.detail["max_sigma"] == 2
            assert psi.detail["classes_at_root"] == 7
            assert report.dense_certified and report.dense_value is False
        else:
            assert psi.detail["error"] == (
                "alphabet too small: 3 fresh classes cannot cover 4 new"
                " elements at ('u',)")

    def test_deterministic(self):
        r1 = run_pipeline(parse_scenario(BARCAN, "barcan"))
        r2 = run_pipeline(parse_scenario(BARCAN, "barcan"))
        assert _strip_times(render_report(r1)) == _strip_times(render_report(r2))


def _drop_last_extension(monkeypatch) -> list:
    """Makes DenseFrame.extensions drop the last of two or more extensions;
    returns the list of the extension counts it is asked for."""
    extensions = DenseFrame.extensions
    counts = []

    def dropped(self, path):
        out = extensions(self, path)
        counts.append(len(out))
        return out[:-1] if len(out) >= 2 else out
    monkeypatch.setattr(DenseFrame, "extensions", dropped)
    return counts


class TestRecordedPointChecks:
    @pytest.mark.parametrize("name, code", [
        ("transitive-three-chain", 1), ("barcan-two-chain", 0),
        ("degenerate-point", 0)])
    def test_dropped_extension_fails_at_a_box_point(self, monkeypatch, capsys,
                                                     name, code):
        """The box-point check reads the closed relation, so an extensions
        enumeration that drops a successor fails f0-xi-morphism wherever a
        visited box point has two or more extensions, and only there."""
        counts = _drop_last_extension(monkeypatch)
        assert main(["pipeline", str(SCENARIOS / f"{name}.scn")]) == code
        out = capsys.readouterr().out
        if code:
            assert "stage f0-xi-morphism: FAILED\n  alpha: ()\n" in out
            assert "  stage: box-extensions\n" in out
            assert max(counts) >= 2
        else:
            assert "  result: ok\n" in out
            assert max(counts, default=0) < 2

    def test_class_table_missing_a_class_fails(self, monkeypatch):
        import mlwb.pipeline as pipeline
        table = pipeline.class_table
        monkeypatch.setattr(pipeline, "class_table", lambda *args: dict(
            list(table(*args).items())[1:]))
        report = run_pipeline(parse_scenario(BARCAN, "barcan"))
        stages = {stage.name: stage for stage in report.stages}
        assert not report.ok
        assert not stages["f0-xi-morphism"].ok
        assert stages["f0-xi-morphism"].detail["stage"] == "xi-surjectivity"
        assert () in stages["f0-xi-morphism"].detail["missed"]

    def test_non_local_eta_fails_composition(self, monkeypatch):
        """An eta that swaps the two elements at v, and so stays onto at
        every point, gives a word bound at the root another element at v."""
        import mlwb.pipeline as pipeline
        make_eta = pipeline.make_eta
        swap = {"d": "e", "e": "d"}

        def swapped(*args):
            eta = make_eta(*args)
            return lambda alpha, gamma: \
                swap[eta(alpha, gamma)] if alpha else eta(alpha, gamma)
        monkeypatch.setattr(pipeline, "make_eta", swapped)
        report = run_pipeline(parse_scenario(BARCAN, "barcan"))
        stages = {stage.name: stage for stage in report.stages}
        assert not report.ok
        assert stages["f0-xi-morphism"].ok
        detail = stages["composition"].detail
        assert not stages["composition"].ok
        assert detail["eta_surjectivity_failure"] is None
        bound, beta, _ = detail["eta_locality_failure"]
        assert bound == () and beta != ()


def _record_psi(monkeypatch) -> dict:
    """Wraps make_eta so that each run leaves psi's lazily built domain maps
    under "phi1" and the f0 path of every point eta is asked about under
    "asked"."""
    import mlwb.pipeline as pipeline
    make_eta = pipeline.make_eta
    seen = {}

    def recording(classes, phi1, pframe, paths):
        asked = set()
        seen.update(phi1=phi1, asked=asked)
        eta = make_eta(classes, phi1, pframe, paths)

        def recorded(alpha, gamma):
            asked.add(f0(alpha, pframe.frame))
            return eta(alpha, gamma)
        return recorded
    monkeypatch.setattr(pipeline, "make_eta", recording)
    return seen


def _with_ancestors(paths) -> set:
    return {p[:i] for p in paths for i in range(1, len(p) + 1)}


def _generated_scenarios(kind: str) -> list:
    rng = random.Random(f"whole-psi-{kind}")
    return [parse_scenario(random_scenario(rng, kind, formula, max_worlds,
                                           max_j), kind)
            for formula, max_worlds, max_j in TEMPLATES]


THIN_ALPHABET = """[frame]
worlds u v w
root u
edges u->v u->w
[domains]
domain u = {d}
domain v = {d}
domain w = {d, e, f, g}
[valuation]
val P @ u = {(d)}
val P @ v = {(d)}
val P @ w = {(d)}
[formula]
forall x. P(x)
[bounds]
depth = 3
max_sigma = 1
"""


BUNDLED = ["barcan-two-chain", "transitive-three-chain", "degenerate-point"]


class TestPsiOnDemand:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_maps_built_only_where_eta_read(self, monkeypatch, name):
        """psi's domain maps are built at the paths eta read and at their
        ancestors, and nowhere else, and the report is unchanged."""
        seen = _record_psi(monkeypatch)
        s = parse_scenario((SCENARIOS / f"{name}.scn").read_text(), name)
        report = _strip_times(render_report(run_pipeline(s)))
        assert report == (GOLDEN / f"{name}.report").read_text()
        assert set(seen["phi1"]) == _with_ancestors(seen["asked"])

    @pytest.mark.parametrize("name", BUNDLED + ["tree", "dag", "loop"])
    def test_lazy_maps_are_the_whole_psi(self, monkeypatch, name):
        """On the bundled scenarios (the transitive three-chain under its
        Gamma among them) and on generated ones, the whole psi at the
        max_sigma the report prints passes check_kk_morphism, and the maps
        the pipeline built are the whole psi's maps there."""
        if name in BUNDLED:
            scenarios = [parse_scenario(
                (SCENARIOS / f"{name}.scn").read_text(), name)]
        else:
            scenarios = _generated_scenarios(name)
        seen = _record_psi(monkeypatch)
        asked = 0
        for s in scenarios:
            report = run_pipeline(s)
            max_sigma = {stage.name: stage for stage in report.stages}[
                "psi-morphism"].detail["max_sigma"]
            df = DenseFrame(s.pframe.frame, gamma=s.gamma, depth=s.depth)
            psi = build_psi(s.space, s.pframe, df, max_sigma=max_sigma)
            assert check_kk_morphism(psi)
            for path, mapping in seen["phi1"].items():
                assert mapping == psi.phi1[path], path
            asked += len(seen["asked"])
        assert asked > 0 or name == "degenerate-point"

    def test_alphabet_too_small_where_eta_never_reads(self, monkeypatch):
        """One letter per class cannot cover the three elements new at w,
        and the refusal holds although eta reads only the root's path."""
        report = run_pipeline(parse_scenario(THIN_ALPHABET, "thin"))
        stages = {stage.name: stage for stage in report.stages}
        assert not report.ok and not stages["psi-morphism"].ok
        assert "alphabet too small" in stages["psi-morphism"].detail["error"]
        assert "('u', 'w')" in stages["psi-morphism"].detail["error"]
        seen = _record_psi(monkeypatch)
        wide = THIN_ALPHABET + "dalphabet = {1, 2, 3, 4}\n"
        assert run_pipeline(parse_scenario(wide, "wide")).ok
        assert seen["asked"] == {("u",)}

    @pytest.mark.parametrize("condition, change", [
        # every class at v to d, so e is not hit
        ("domain-map-not-surjective",
         lambda m: m.update(dict.fromkeys(m, "d"))),
        ("domain-map-not-into", lambda m: m.update({(): "zz"})),
        ("domain-map-not-total", lambda m: m.pop(())),
        # the empty class, d at the root, to e at v, which stays onto
        ("domain-map-disagreement", lambda m: m.update({(): "e"})),
    ])
    def test_broken_map_at_a_read_path_fails(self, monkeypatch, condition,
                                             change):
        """A domain map broken at v, a path eta reads, fails the run in the
        composition stage, which names the condition and, in its witness,
        the path."""
        build = PsiMaps.__missing__

        def broken(self, path):
            out = build(self, path)
            if path == ("u", "v"):
                change(out)
            return out
        monkeypatch.setattr(PsiMaps, "__missing__", broken)
        seen = _record_psi(monkeypatch)
        report = run_pipeline(parse_scenario(BARCAN, "barcan"))
        assert ("u", "v") in seen["asked"]
        stages = {stage.name: stage for stage in report.stages}
        assert not report.ok and not stages["composition"].ok
        detail = stages["composition"].detail
        assert detail["stage"] == "psi-domain-maps"
        assert detail["condition"] == condition
        assert ("u", "v") in detail["witness"]
        assert f"  condition: {condition}\n" in render_report(report)


class TestCli:
    def test_pipeline_command(self, capsys):
        rc = main(["pipeline", str(SCENARIOS / "barcan-two-chain.scn")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "refutation_reproduced" in out or "ok" in out

    def test_parse_formula_file(self, tmp_path, capsys):
        f = tmp_path / "a.txt"
        f.write_text("box (p -> q)\n")
        assert main(["parse", "--kind", "formula", str(f)]) == 0
        assert "box" in capsys.readouterr().out

    def test_parse_frame_file(self, tmp_path, capsys):
        f = tmp_path / "frame.txt"
        f.write_text("worlds u v\nroot u\nedges u->v\n")
        assert main(["parse", "--kind", "frame", str(f)]) == 0
        assert "u" in capsys.readouterr().out

    def test_eval_exit_codes(self, tmp_path, capsys):
        m = tmp_path / "model.txt"
        m.write_text("[frame]\nworlds u v\nroot u\nedges u->v\n"
                     "[valuation]\nval p = {v}\n")
        assert main(["eval", "--model", str(m), "--at", "u",
                     "--formula", "box p"]) == 0
        assert main(["eval", "--model", str(m), "--at", "u",
                     "--formula", "p"]) == 1

    def test_eval_missing_letter_exits_2(self, tmp_path, capsys):
        m = tmp_path / "model.txt"
        m.write_text("[frame]\nworlds u v\nroot u\nedges u->v\n"
                     "[valuation]\nval p = {v}\n")
        assert main(["eval", "--model", str(m), "--at", "u",
                     "--formula", "false -> q"]) == 2
        assert "letter 'q' has no valuation entry" in capsys.readouterr().err

    def test_close_command(self, tmp_path, capsys):
        f = tmp_path / "frame.txt"
        f.write_text("worlds u v w\nroot u\nedges u->v v->w\n")
        h = tmp_path / "horn.txt"
        h.write_text("x R y & y R z => x R z\n")
        assert main(["close", "--frame", str(f), "--horn", str(h)]) == 0
        out = capsys.readouterr().out
        assert "# added" in out

    def test_close_reports_head_error_position(self, tmp_path, capsys):
        f = tmp_path / "frame.txt"
        f.write_text("worlds u v w\nroot u\nedges u->v v->w\n")
        h = tmp_path / "horn.txt"
        h.write_text("# transitivity\nx R y & y R z => x R z extra\n")
        assert main(["close", "--frame", str(f), "--horn", str(h)]) == 2
        assert "line 2: Horn head must be a single atom (at position 23)" \
            in capsys.readouterr().err

    def test_unravel_command(self, tmp_path, capsys):
        f = tmp_path / "frame.txt"
        f.write_text("worlds u v\nroot u\nedges u->v\n")
        assert main(["unravel", "--frame", str(f), "--depth", "3"]) == 0

    def test_unravel_over_budget_exits_2(self, tmp_path, capsys):
        f = tmp_path / "frame.txt"
        f.write_text("worlds u v\nroot u\nedges u->u u->v v->u v->v\n")
        assert main(["unravel", "--frame", str(f), "--depth", "40"]) == 2
        assert "error: unravelling to depth 40 has" in capsys.readouterr().err

    def test_dense_counterexample(self, capsys):
        assert main(["dense", "counterexample", "--kmax", "4"]) == 0
        assert capsys.readouterr().out == """\
dia p at eps: True
dia not p at eps: True
box p at eps: False
witnesses per neighbourhood (p-true word / p-false word):
  k=0: 1 / 01
  k=1: 001 / 01
  k=2: 001 / 0001
  k=3: 00001 / 0001
  k=4: 00001 / 000001
kripke side validates dia p -> box p: True
result: ok
"""

    def test_dense_counterexample_over_budget_exits_2(self, monkeypatch,
                                                      capsys):
        """The witnesses are counted before the frame is built."""
        import mlwb.dense
        monkeypatch.setattr(mlwb.dense, "next_frame", None)
        assert main(["dense", "counterexample", "--kmax", "100000000"]) == 2
        assert "over the budget WITNESS_LETTERS = 1048576" in \
            capsys.readouterr().err

    def test_repeated_val_line_exits_2(self, tmp_path, capsys):
        m = tmp_path / "model.txt"
        m.write_text("[frame]\nworlds u v\nroot u\nedges u->v\n"
                     "[valuation]\nval p = {v}\nval p = {}\n")
        assert main(["eval", "--model", str(m), "--at", "u",
                     "--formula", "box p"]) == 2
        assert "line 7: duplicate key 'p'" in capsys.readouterr().err

    def test_duplicate_sections_exit_2(self, tmp_path, capsys):
        m = tmp_path / "model.txt"
        m.write_text("[frame]\nworlds u v\nroot u\nedges u->v\n"
                     "[valuation]\nval p = {v}\n[valuation]\nval p = {}\n")
        assert main(["eval", "--model", str(m), "--at", "u",
                     "--formula", "box p"]) == 2
        f = tmp_path / "morphism.txt"
        f.write_text("[source]\nworlds a b\nroot a\nedges a->b\n"
                     "[target]\nworlds x\nroot x\nedges x->x\n"
                     "[map]\na -> x\nb -> x\n[map]\na -> x\n")
        assert main(["pmorph", "--kind", "kripke", str(f)]) == 2
        assert "duplicate section [map]" in capsys.readouterr().err

    def test_unknown_sections_exit_2(self, tmp_path, capsys):
        """``mlwb eval`` and every ``mlwb pmorph`` kind refuse a section
        they do not read, and name it with its line."""
        m = tmp_path / "model.txt"
        m.write_text("[frame]\nworlds u v\nroot u\nedges u->v\n"
                     "[valuation]\nval p = {v}\n[bogus]\n")
        assert main(["eval", "--model", str(m), "--at", "u",
                     "--formula", "box p"]) == 2
        assert "line 7: unknown section [bogus]" in capsys.readouterr().err
        for kind, text in [("kripke", KRIPKE_MORPHISM),
                           ("nframe", NFRAME_MORPHISM),
                           ("kk", KK_MORPHISM), ("nk", NK_MORPHISM)]:
            f = tmp_path / f"{kind}.txt"
            f.write_text(text + "[bogus]\n")
            assert main(["pmorph", "--kind", kind, str(f)]) == 2, kind
            lineno = len(text.splitlines()) + 1
            assert f"line {lineno}: unknown section [bogus]" \
                in capsys.readouterr().err, kind

    def test_bad_input_exits_2(self, tmp_path, capsys):
        f = tmp_path / "frame.txt"
        f.write_text("this is not a frame\n")
        assert main(["parse", "--kind", "frame", str(f)]) == 2

    def test_missing_file_exits_2(self):
        assert main(["parse", "--kind", "frame", "/nonexistent/frame"]) == 2


KRIPKE_MORPHISM = """[source]
worlds a b
root a
edges a->b b->a
[target]
worlds x
root x
edges x->x
[map]
a -> x
b -> x
"""

NFRAME_MORPHISM = """[source]
points a b c
base a = {b, c}
base b = {b}
base c = {c}
[target]
points x y
base x = {y}
base y = {y}
[map]
a -> x
b -> y
c -> y
"""

KK_MORPHISM = """[source]
worlds r s
root r
edges r->s
[source-domains]
domain r = {d}
domain s = {d, e}
[target]
worlds u v
root u
edges u->v
[target-domains]
domain u = {m}
domain v = {m, n}
[map]
r -> u
s -> v
[elements]
at r : d -> m
at s : d -> m
at s : e -> n
"""

NK_MORPHISM = """[space]
points a b
base a = {b}
base b = {b}
[dstar]
dstar = {d, e}
[target]
worlds u v
root u
edges u->v v->v
[target-domains]
domain u = {m, n}
domain v = {m, n}
[map]
a -> u
b -> v
[elements]
at a : d -> m
at a : e -> n
at b : d -> m
at b : e -> n
"""


class TestPmorphCommand:
    @pytest.mark.parametrize("kind, text", [
        ("kripke", KRIPKE_MORPHISM), ("nframe", NFRAME_MORPHISM),
        ("kk", KK_MORPHISM), ("nk", NK_MORPHISM)],
        ids=["kripke", "nframe", "kk", "nk"])
    def test_valid_morphism_exits_0(self, tmp_path, capsys, kind, text):
        f = tmp_path / "morphism.txt"
        f.write_text(text)
        assert main(["pmorph", "--kind", kind, str(f)]) == 0
        assert f"{kind} p-morphism: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, text, condition", [
        ("nframe", NFRAME_MORPHISM.replace("c -> y", "c -> x"), "zag"),
        ("kk", KK_MORPHISM.replace("at s : d -> m", "at s : d -> n")
                          .replace("at s : e -> n", "at s : e -> m"),
         # the one pair that disagrees, named by the witness walk
         "domain-map-disagreement at ('r', 's', 'd')"),
        ("nk", NK_MORPHISM.replace("at b : d -> m", "at b : d -> n")
                          .replace("at b : e -> n", "at b : e -> m"),
         "domain-map-not-locally-stable"),
        # entries at a point the source lacks
        ("kripke", KRIPKE_MORPHISM + "zz -> x\n",
         "map-at-unknown-point at ('zz',)"),
        ("nframe", NFRAME_MORPHISM + "zz -> x\n",
         "map-at-unknown-point at ('zz',)"),
        ("kk", KK_MORPHISM + "at zz : d -> e\n",
         "domain-map-at-unknown-point at ('zz',)"),
        ("nk", NK_MORPHISM + "at zz : d -> m\n",
         "domain-map-at-unknown-point at ('zz',)"),
    ], ids=["nframe", "kk", "nk", "kripke-map-at-unknown-point",
            "nframe-map-at-unknown-point", "kk-elements-at-unknown-point",
            "nk-elements-at-unknown-point"])
    def test_violated_morphism_exits_1(self, tmp_path, capsys, kind, text,
                                       condition):
        f = tmp_path / "morphism.txt"
        f.write_text(text)
        assert main(["pmorph", "--kind", kind, str(f)]) == 1
        assert f"VIOLATION {condition}" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, text", [
        ("kripke", KRIPKE_MORPHISM.replace("b -> x", "b -> z")),
        ("nframe", NFRAME_MORPHISM.replace("b -> y", "b -> z"))],
        ids=["kripke", "nframe"])
    def test_map_leaving_the_target_exits_1(self, tmp_path, capsys, kind,
                                            text):
        """The map sends b to z, which is not a point of the target."""
        f = tmp_path / "morphism.txt"
        f.write_text(text)
        assert main(["pmorph", "--kind", kind, str(f)]) == 1
        out = capsys.readouterr().out
        assert f"{kind} p-morphism: VIOLATION into at ('b', 'z')" in out

    @pytest.mark.parametrize("kind, text, message", [
        ("nframe", NFRAME_MORPHISM.replace("base c = {c}",
                                           "base c = {c}\nbase c = {b,c}"),
         "line 6: duplicate key 'c'"),
        ("kk", KK_MORPHISM.replace("s -> v", "s -> v\ns -> u"),
         "line 18: duplicate key 's'"),
        ("kk", KK_MORPHISM.replace("at s : e -> n",
                                   "at s : e -> n\nat s : e -> m"),
         "line 22: duplicate key ('s', 'e')"),
        ("nk", NK_MORPHISM.replace("root u", "root u\nroot v"),
         "line 10: duplicate key 'root'"),
        ("nk", NK_MORPHISM.replace("dstar = {d, e}", "dstar = {d, e}\nx = {d}"),
         "line 7: expected one 'dstar = {...}' line in [dstar]"),
        ("nk", NK_MORPHISM.replace("dstar = {d, e}", "star = {d, e}"),
         "line 6: expected one 'dstar = {...}' line in [dstar]"),
        ("nframe", NFRAME_MORPHISM.replace("base c = {c}",
                                           "base c = {c}\nbase zz = {a}"),
         "base given at 'zz', which is not a point"),
    ], ids=["nframe-base-line", "map-line", "elements-line", "root-line",
            "extra-dstar-line", "dstar-line-with-another-key",
            "nframe-base-at-unknown-point"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, kind, text,
                                     message):
        f = tmp_path / "morphism.txt"
        f.write_text(text)
        assert main(["pmorph", "--kind", kind, str(f)]) == 2
        assert message in capsys.readouterr().err


MONOTONICITY_TWICE = """[source]
worlds a b c
root a
edges a->b a->c
[target]
worlds x y
root x
edges x->y
[map]
a -> y
b -> x
c -> x
"""

LIFTING_TWICE = """[source]
worlds a b c d
root a
edges a->b
[target]
worlds x y z w
root x
edges x->y x->z x->w
[map]
a -> x
b -> y
c -> z
d -> w
"""

SHRINKING_DOMAINS = """[frame]
worlds u v w
root u
edges u->v u->w
[domains]
domain u = {d, e}
domain v = {d}
domain w = {d}
[valuation]
val P @ u = {(d)}
[formula]
forall x. P(x)
"""

DISAGREEING_TWICE = """[source]
worlds r s t
root r
edges r->s r->t
[source-domains]
domain r = {d, e}
domain s = {d, e}
domain t = {d, e}
[target]
worlds u v
root u
edges u->v
[target-domains]
domain u = {m, n}
domain v = {m, n}
[map]
r -> u
s -> v
t -> v
[elements]
at r : d -> m
at r : e -> n
at s : d -> n
at s : e -> m
at t : d -> n
at t : e -> m
"""

EDGES_OUTSIDE = "worlds a\nroot a\nedges a->y a->x\n"

# zig fails at a, whose one base member {b, c} goes to {x}
ZIG_AT_A_SET = """[source]
points a b c d
base a = {b, c}
base b = {b}
base c = {c}
base d = {d}
[target]
points x y z
base x = {y, z}
base y = {y}
base z = {z}
[map]
a -> x
b -> y
c -> x
d -> z
"""

UNSTABLE_TWICE = NK_MORPHISM.replace("at a : d -> m", "at a : d -> n") \
    .replace("at a : e -> n", "at a : e -> m")


def test_failing_checks_name_one_witness_under_any_set_order(tmp_path):
    """A check that fails at several witnesses names the least by repr,
    with a set shown sorted, so the message does not depend on the hash
    seed that orders the sets."""
    cases = [(["pmorph", "--kind", "kripke"], MONOTONICITY_TWICE,
              "VIOLATION monotonicity at ('a', 'b')"),
             (["pmorph", "--kind", "kripke"], LIFTING_TWICE,
              "VIOLATION lifting at ('a', 'w')"),
             (["pmorph", "--kind", "kk"], DISAGREEING_TWICE,
              "VIOLATION domain-map-disagreement at ('r', 's', 'd')"),
             (["pipeline"], SHRINKING_DOMAINS,
              "D_'u' is not contained in D_'v'"),
             (["parse", "--kind", "frame"], EDGES_OUTSIDE,
              "relation pair ('a', 'x') outside worlds"),
             (["pmorph", "--kind", "nframe"], ZIG_AT_A_SET,
              "VIOLATION zig at ('a', ('b', 'c'))"),
             (["pmorph", "--kind", "nk"], UNSTABLE_TWICE,
              "VIOLATION domain-map-not-locally-stable at ('a', 'd')")]
    argvs = []
    for i, (argv, text, _) in enumerate(cases):
        f = tmp_path / f"input{i}.txt"
        f.write_text(text)
        argvs.append(argv + [str(f)])
    script = ("import sys\nfrom mlwb.cli import main\n"
              f"for argv in {argvs!r}:\n"
              "    main(argv)\n    sys.stdout.flush(); sys.stderr.flush()\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("1", "2"):  # two seeds that order these sets differently
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True))
    assert outputs[0].stdout == outputs[1].stdout
    assert outputs[0].stderr == outputs[1].stderr
    both = outputs[0].stdout + outputs[0].stderr
    for _, _, message in cases:
        assert message in both, both


def _repeated_line_cases():
    """Each file of the repository's formats with one line repeated right
    after itself: every line that sets a key (``root``, ``domain``, ``val``,
    ``base``, ``at``, ``dstar`` and the lines of ``[bounds]`` and ``[map]``)
    or names worlds or points."""
    files = [(f"scenarios/{path.name}", path.read_text(), None)
             for path in sorted(SCENARIOS.glob("*.scn"))]
    files += [("nframe", NFRAME_MORPHISM, "nframe"), ("kk", KK_MORPHISM, "kk"),
              ("nk", NK_MORPHISM, "nk")]
    heads = {"root", "domain", "val", "base", "at", "dstar", "worlds", "points"}
    cases = []
    for name, text, kind in files:
        lines = text.splitlines(keepends=True)
        section = None
        for i, line in enumerate(lines):
            words = line.split("#", 1)[0].split()
            if line.startswith("["):
                section = line.strip()
            elif words and (words[0] in heads
                            or section in ("[bounds]", "[map]")):
                repeated = "".join(lines[:i + 1] + [line] + lines[i + 1:])
                cases.append(pytest.param(kind, repeated, i + 2,
                                          id=f"{name}:{i + 1}"))
    return cases


@pytest.mark.parametrize("kind, text, lineno", _repeated_line_cases())
def test_repeated_line_is_reported_at_its_file_line(tmp_path, capsys, kind,
                                                    text, lineno):
    f = tmp_path / "input.txt"
    f.write_text(text)
    argv = ["pipeline", str(f)] if kind is None \
        else ["pmorph", "--kind", kind, str(f)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: line {lineno}:")
