import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import kirbycalc
from kirbycalc import framedlinks, pipeline, slopes
from kirbycalc.acsearch import core
from kirbycalc.certify import certification_report
from kirbycalc.cli import main
from kirbycalc.pipeline import run_pipeline
from kirbycalc.presentations import Presentation
from kirbycalc.slopes import SlopeError
from kirbycalc.wirtinger import hopf_link_pd, trefoil_pd, unknot_pd


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def ak0(tmp_path):
    return write(tmp_path, "ak0.json",
                 {"generators": ["x", "y"], "relators": ["Y X Y x y x", "x"]})


@pytest.fixture
def zero2(tmp_path):
    comp = {"kind": "plain", "framing": 0, "unknotted": True}
    return write(tmp_path, "zero2.json",
                 {"components": [comp, comp], "linking": [[0, 0], [0, 0]]})


class TestCurves:
    def test_classify(self, capsys):
        code, out, _ = run(capsys, "curves", "classify", "1/0")
        assert code == 0
        record = json.loads(out)
        assert record["lift_type"] == "gamma"
        assert record["conditions"]["image_not_isotopic"]["satisfied"] is False

    def test_enumerate_json(self, capsys):
        code, out, _ = run(capsys, "curves", "enumerate", "--max-q", "1", "--json")
        assert code == 0
        assert json.loads(out)["slopes"] == ["-1/1", "0/1", "1/1"]

    def test_enumerate_text(self, capsys):
        code, out, _ = run(capsys, "curves", "enumerate", "--max-q", "1")
        assert code == 0 and out.splitlines() == ["-1/1", "0/1", "1/1"]

    def test_bad_slope_is_usage_error(self, capsys):
        code, _, err = run(capsys, "curves", "classify", "pi")
        assert code == 1 and "error" in err

    def test_classify_negative_slope(self, capsys):
        # the help text's own example: a value, not an option
        code, out, err = run(capsys, "curves", "classify", "-3/5")
        assert code == 0 and err == ""
        assert json.loads(out) == json.loads(json.dumps(
            slopes.classify(slopes.Slope.from_text("-3/5"))))

    def test_unknown_option_still_refused(self, capsys):
        code, out, err = run(capsys, "curves", "classify", "-x")
        assert code == 1 and out == ""
        assert "the following arguments are required: slope" in err


class TestCertify:
    def test_report(self, capsys, ak0):
        code, out, _ = run(capsys, "certify", ak0)
        assert code == 0
        report = json.loads(out)
        assert report["coset"] == {"status": "closed", "order": 1, "live": 1,
                                   "defined": 7, "verified": True,
                                   "index": 1, "subgroup": ["x"],
                                   "coincidences": 1, "peak_live": 7}

    def test_abelianization(self, capsys, ak0):
        code, out, _ = run(capsys, "abelianization", ak0)
        assert code == 0
        assert json.loads(out) == {"rank": 0, "torsion": []}

    def test_unknown_symbol_error_is_hash_seed_free(self, tmp_path):
        path = write(tmp_path, "p.json",
                     {"generators": ["x"], "relators": ["p q r"]})
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run(
                [sys.executable, "-m", "kirbycalc.cli", "certify", path],
                capture_output=True, text=True, env=env, check=False)
            assert proc.returncode == 1
            assert proc.stderr == "error: unknown generator symbol 'p'\n"

    @pytest.mark.parametrize("command", ["certify", "abelianization",
                                         "ac-search"])
    def test_float_sign_is_a_bad_word(self, capsys, tmp_path, command):
        path = write(tmp_path, "p.json", {"generators": ["x", "y"],
                                          "relators": [[["x", 1.0]], "x"]})
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == ""
        assert err.startswith("error: bad word [['x', 1.0]]")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "certify", "/nonexistent.json")
        assert code == 1 and "cannot read" in err


class TestDeepJson:
    """A file nested past the JSON parser's recursion limit is bad input
    for every command that reads one."""

    @pytest.mark.parametrize("argv", [
        ["certify", "DEEP"], ["abelianization", "DEEP"], ["ac-search", "DEEP"],
        ["wirtinger", "DEEP"], ["kirby", "check", "DEEP"],
        ["kirby", "h1", "DEEP"], ["kirby", "apply", "DEEP", "MODEL"],
        ["kirby", "apply", "MODEL", "DEEP"]])
    def test_exit_one_without_traceback(self, capsys, tmp_path, zero2, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        paths = {"DEEP": str(deep), "MODEL": zero2}
        code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 1 and out == ""
        assert err == f"error: {deep} is nested too deeply\n"


class TestErrorReport:
    """main writes the one error line for every bad input: a usage error
    after argparse's usage line, a file that cannot be parsed, and a file
    whose top level is not a JSON object."""

    def test_usage_error(self, capsys):
        code, out, err = run(capsys, "pipeline")
        assert code == 1 and out == ""
        assert err.startswith("usage: kirbycalc pipeline [-h] --n N")
        assert err.endswith(
            "\nerror: the following arguments are required: --n\n")

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: kirbycalc") and err == ""

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, out, err = run(capsys, "certify", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} is not valid JSON: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, what", [
        (["certify", "BAD"], "presentation"),
        (["abelianization", "BAD"], "presentation"),
        (["ac-search", "BAD"], "presentation"),
        (["wirtinger", "BAD"], "PD code"),
        (["kirby", "check", "BAD"], "model"),
        (["kirby", "h1", "BAD"], "model"),
        (["kirby", "apply", "BAD", "BAD"], "model")])
    @pytest.mark.parametrize("data, kind", [([1, 2], "list"), ("x", "str")])
    def test_top_level_must_be_an_object(self, capsys, tmp_path, argv, what,
                                         data, kind):
        path = write(tmp_path, "bad.json", data)
        code, out, err = run(capsys, *[path if a == "BAD" else a for a in argv])
        assert code == 1 and out == ""
        assert err == f"error: a {what} is a JSON object, got {kind}\n"


    @pytest.mark.parametrize("argv, data, message", [
        (["kirby", "check", "BAD"], {"components": 5, "linking": []},
         "model field 'components' must be a list"),
        (["kirby", "h1", "BAD"], {"components": [], "linking": 5},
         "model field 'linking' must be a list"),
        (["wirtinger", "BAD"], {"crossings": 5, "components": [[1]]},
         "PD code field 'crossings' must be a list"),
        (["wirtinger", "BAD"], {"crossings": [[1]], "components": [[1]]},
         "a crossing is a JSON object, got list")])
    def test_field_of_the_wrong_type(self, capsys, tmp_path, argv, data,
                                     message):
        path = write(tmp_path, "bad.json", data)
        code, out, err = run(capsys, *[path if a == "BAD" else a for a in argv])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestAcSearch:
    def test_search_outcome(self, capsys, tmp_path):
        path = write(tmp_path, "p.json",
                     {"generators": ["x", "y"], "relators": ["x y", "y"]})
        code, out, _ = run(capsys, "ac-search", path,
                           "--max-total-length", "6", "--max-depth", "2")
        assert code == 0
        outcome = json.loads(out)
        assert outcome["status"] == "trivialized"
        assert len(outcome["trace"]) <= 2

    def test_reported_config(self, capsys, tmp_path):
        path = write(tmp_path, "p.json",
                     {"generators": ["x", "y"], "relators": ["x y", "y"]})
        _, out, _ = run(capsys, "ac-search", path)
        assert json.loads(out)["config"] == {
            "max_total_length": 11, "max_depth": 5, "conjugator_depth": 1,
            "node_budget": 5000, "stabilizations": 0, "workers": 1}
        _, out, _ = run(capsys, "ac-search", path, "--max-total-length", "7",
                        "--max-depth", "3", "--conj-depth", "2",
                        "--budget", "40", "--stabilizations", "1")
        assert json.loads(out)["config"] == {
            "max_total_length": 7, "max_depth": 3, "conjugator_depth": 2,
            "node_budget": 40, "stabilizations": 1, "workers": 1}

    def test_threads_flag_is_gone(self, capsys, tmp_path):
        path = write(tmp_path, "p.json",
                     {"generators": ["x", "y"], "relators": ["x y", "y"]})
        for argv in (("ac-search", path), ("pipeline", "--n", "1")):
            code, out, err = run(capsys, *argv, "--threads", "1")
            assert code == 1 and out == ""
            assert "unrecognized arguments: --threads 1" in err

    def test_exhausted_is_still_exit_zero(self, capsys, tmp_path):
        path = write(tmp_path, "p.json",
                     {"generators": ["x", "y"], "relators": ["x y", "y"]})
        code, out, _ = run(capsys, "ac-search", path,
                           "--max-total-length", "3", "--max-depth", "1")
        assert code == 0
        assert json.loads(out)["status"] == "exhausted"

    def test_unbalanced_input_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "p.json",
                     {"generators": ["x", "y"], "relators": ["x y"]})
        code, _, err = run(capsys, "ac-search", path,
                           "--max-total-length", "6", "--max-depth", "1")
        assert code == 1 and "unbalanced" in err

    def test_trace_that_does_not_apply_is_internal(self, capsys, tmp_path,
                                                   monkeypatch):
        # the input is valid, so a goal move that does not apply is the
        # search's own fault: exit 2, not a bad-input exit 1
        def bogus_expand(rels, cfg, base_gens, conjugate_sets):
            yield {"move": "invert", "i": 7}, (b"\x00", b"\x02")

        monkeypatch.setattr(core, "_expand", bogus_expand)
        path = write(tmp_path, "p.json",
                     {"generators": ["x", "y"], "relators": ["x y", "y"]})
        code, out, err = run(capsys, "ac-search", path)
        assert code == 2 and out == ""
        assert err.startswith("internal invariant violation:")
        assert "Traceback" not in err

        # a conjugator letter past the generators fails while its move is
        # named, and a move that applies may not reach a trivial form
        for move in ({"move": "multiply", "i": 0, "j": 1, "conj": b"\x09"},
                     {"move": "invert", "i": 0}):
            def other_expand(*args, move=move):
                yield move, (b"\x00", b"\x02")

            monkeypatch.setattr(core, "_expand", other_expand)
            code, out, err = run(capsys, "ac-search", path)
            assert code == 2 and out == ""
            assert err.startswith("internal invariant violation:")
            assert "Traceback" not in err

    @pytest.mark.parametrize("data", [
        {"generators": ["x", "y"], "relators": [5, "y"]},
        {"generators": ["x", ""], "relators": ["x", "x"]},
        {"generators": ["x", "Xa"], "relators": ["x", "x"]},
    ], ids=["integer-relator", "empty-generator", "uppercase-generator"])
    def test_malformed_presentation_rejected(self, capsys, tmp_path, data):
        path = write(tmp_path, "p.json", data)
        code, _, err = run(capsys, "ac-search", path,
                           "--max-total-length", "6", "--max-depth", "1")
        assert code == 1 and err.startswith("error:")
        assert "Traceback" not in err


class TestKirby:
    def test_apply_check_h1(self, capsys, zero2, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"move": "slide", "u": 0, "v": 1,
                                       "sign": 1}]))
        code, out, _ = run(capsys, "kirby", "apply", zero2, str(script))
        assert code == 0
        assert json.loads(out)["linking"] == [[0, 0], [0, 0]]

        code, out, _ = run(capsys, "kirby", "check", zero2)
        assert code == 0 and json.loads(out)["passes"] is True

        code, out, _ = run(capsys, "kirby", "h1", zero2)
        assert code == 0 and json.loads(out) == {"rank": 2, "torsion": []}

    def test_illegal_dotted_slide_quotes_rule(self, capsys, tmp_path):
        model = write(tmp_path, "dotted.json", {
            "components": [{"kind": "dotted"},
                           {"kind": "plain", "framing": 0}],
            "linking": [[0, 1], [1, 0]]})
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"move": "slide", "u": 0, "v": 1,
                                       "sign": 1}]))
        code, _, err = run(capsys, "kirby", "apply", model, str(script))
        assert code == 1
        assert "cannot slide over non-dotted components" in err

    @pytest.mark.parametrize("data", [
        {"components": [], "linking": 5},
        {"components": ["x"], "linking": [[0]]},
        {"components": [{"kind": "plain", "framing": 1}] * 2,
         "linking": [[1, 0.5], [0.5, 1]]},
    ], ids=["integer-linking", "string-component", "half-integer-linking"])
    def test_malformed_model_rejected(self, capsys, tmp_path, data):
        path = write(tmp_path, "model.json", data)
        for command in ("check", "h1"):
            code, out, err = run(capsys, "kirby", command, path)
            assert code == 1 and err.startswith("error:") and not out
            assert "Traceback" not in err

    def test_string_linking_row(self, capsys, tmp_path):
        # a string row is not read character by character
        path = write(tmp_path, "model.json",
                     {"components": [{"kind": "plain", "framing": 1}],
                      "linking": ["1"]})
        code, out, err = run(capsys, "kirby", "h1", path)
        assert code == 1 and out == ""
        assert err == ("error: linking matrix: a matrix is a list of rows "
                       "of integers\n")

    def test_hopf_pair_script_returns_the_input(self, capsys, tmp_path):
        """The moves of the weaker Property 2R: a canceling Hopf pair is
        added, its 2-handle slid over the dotted circle and back, and the
        pair removed, which gives back the input; a distant 0-framed unknot
        adds one free summand to H1."""
        plain = [{"kind": "plain", "framing": f, "unknotted": True}
                 for f in (2, -3, 0)]
        data = {"components": plain[:2], "linking": [[2, 1], [1, -3]]}
        model = write(tmp_path, "model.json", data)
        pair = [{"move": "add_hopf_pair"},
                {"move": "slide_over_dotted", "h": 3, "d": 2},
                {"move": "slide_over_dotted", "h": 3, "d": 2, "sign": -1},
                {"move": "remove_hopf_pair", "d": 2, "h": 3}]

        def apply(script):
            code, out, err = run(capsys, "kirby", "apply", model,
                                 write(tmp_path, "script.json", script))
            assert code == 0 and err == ""
            return json.loads(out)

        slid = apply(pair[:2])
        assert slid["components"][2:] == [{"kind": "dotted"},
                                          {**plain[2], "framing": 2}]
        assert slid["linking"][3] == [0, 0, 1, 2]
        assert apply(pair) == data
        after = apply(pair + [{"move": "add_distant_unknot"}])
        assert after == {"components": plain,
                         "linking": [[2, 1, 0], [1, -3, 0], [0, 0, 0]]}
        h1 = {}
        for name, result in (("before", data), ("after", after)):
            code, out, _ = run(capsys, "kirby", "h1",
                               write(tmp_path, f"{name}.json", result))
            assert code == 0
            h1[name] = json.loads(out)
        assert h1 == {"before": {"rank": 0, "torsion": [7]},
                      "after": {"rank": 1, "torsion": [7]}}

    # every move kind, in the order the unknown-kind message lists them,
    # with the parameters a record must give ("sign" defaults to +1)
    REQUIRED = {"slide": ("u", "v"), "slide_over_dotted": ("h", "d"),
                "blow_up": (), "blow_down": ("i",), "add_distant_unknot": (),
                "add_hopf_pair": (), "remove_hopf_pair": ("d", "h")}

    def test_move_kinds(self):
        assert framedlinks.MOVES == tuple(self.REQUIRED)

    @pytest.mark.parametrize("kind, missing", [
        (kind, p) for kind, params in REQUIRED.items() for p in params])
    def test_missing_parameter(self, capsys, zero2, tmp_path, kind, missing):
        record = {"move": kind,
                  **{p: 0 for p in self.REQUIRED[kind] if p != missing}}
        code, out, err = run(capsys, "kirby", "apply", zero2,
                             write(tmp_path, "script.json", [record]))
        assert code == 1 and out == ""
        assert err == (f"error: script step 0: move {kind!r} is missing "
                       f"parameter {missing!r}\n")

    def test_script_must_be_an_array(self, capsys, zero2, tmp_path):
        code, out, err = run(capsys, "kirby", "apply", zero2,
                             write(tmp_path, "script.json", {"move": "blow_up"}))
        assert code == 1 and out == ""
        assert err == "error: move script must be a JSON array\n"

    @pytest.mark.parametrize("script", [
        [5], [{"move": "slide", "u": "a", "v": 0}],
    ], ids=["integer-record", "string-index"])
    def test_malformed_script_rejected(self, capsys, zero2, tmp_path, script):
        code, _, err = run(capsys, "kirby", "apply", zero2,
                           write(tmp_path, "script.json", script))
        assert code == 1 and err.startswith("error: script step 0:")
        assert "Traceback" not in err


class TestWirtinger:
    def test_presentation_output(self, capsys, tmp_path):
        pd = write(tmp_path, "hopf.json", {
            "crossings": [{"arcs": [1, 4, 2, 3], "sign": 1},
                          {"arcs": [3, 2, 4, 1], "sign": 1}],
            "components": [[1, 2], [3, 4]]})
        code, out, _ = run(capsys, "wirtinger", pd)
        assert code == 0
        data = json.loads(out)
        assert len(data["generators"]) == 2

    def test_surgery_output(self, capsys, tmp_path):
        pd = write(tmp_path, "unknot.json", {"crossings": [],
                                             "components": [[1]]})
        code, out, _ = run(capsys, "wirtinger", pd, "--framings", "0")
        assert code == 0
        data = json.loads(out)
        assert data["abelianization"] == {"rank": 1, "torsion": []}

    def test_malformed_pd_rejected(self, capsys, tmp_path):
        pd = write(tmp_path, "pd.json", {"crossings": [], "components": 5})
        code, _, err = run(capsys, "wirtinger", pd)
        assert code == 1 and err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("label, message", [
        ("1", "crossing needs 4 integer edge labels, got ('1', 4, 2, 3)"),
        (1.0, "crossing needs 4 integer edge labels, got (1.0, 4, 2, 3)"),
        (True, "crossing needs 4 integer edge labels, got (True, 4, 2, 3)"),
    ], ids=["str", "float", "bool"])
    def test_edge_labels_must_be_integers(self, capsys, tmp_path, label,
                                          message):
        # edge 1 of the Hopf link relabelled everywhere: a consistent code
        # whose labels JSON would not read back as written
        data = hopf_link_pd().to_json()
        for labels in [x["arcs"] for x in data["crossings"]] + data["components"]:
            labels[:] = [label if e == 1 else e for e in labels]
        code, out, err = run(capsys, "wirtinger", write(tmp_path, "pd.json", data))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_framings_count_must_match_components(self, capsys, tmp_path):
        pd = write(tmp_path, "unknot.json", {"crossings": [],
                                             "components": [[1]]})
        code, out, err = run(capsys, "wirtinger", pd, "--framings", "0,0")
        assert code == 1 and err.startswith("error:") and out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("framings", ["0,,1", "0,1,", ",0,1", ""])
    def test_empty_framing_field_refused(self, capsys, tmp_path, framings):
        pd = write(tmp_path, "hopf.json", hopf_link_pd().to_json())
        code, out, err = run(capsys, "wirtinger", pd, "--framings", framings)
        assert code == 1 and out == ""
        assert err == (f"error: bad framings {framings!r}: expected integers "
                       "separated by commas\n")

    @pytest.mark.parametrize("argv", [("--framings", "-1,2"),
                                      ("--framings=-1,2",)])
    def test_negative_first_framing(self, capsys, tmp_path, argv):
        pd = write(tmp_path, "hopf.json", hopf_link_pd().to_json())
        code, out, err = run(capsys, "wirtinger", pd, *argv)
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["framings"] == [-1, 2]
        # linking matrix [[-1, 1], [1, 2]] up to the sign of the linking
        assert data["abelianization"] == {"rank": 0, "torsion": [3]}

    def test_double_dash_framings_refused(self, capsys, tmp_path):
        # argparse reads "--framings=--" as an empty list, not as text
        pd = write(tmp_path, "unknot.json", {"crossings": [],
                                             "components": [[1]]})
        code, out, err = run(capsys, "wirtinger", pd, "--framings=--")
        assert code == 1 and out == ""
        assert err == ("error: bad framings []: expected integers separated "
                       "by commas\n")


class TestPipeline:
    def test_n0_report(self, capsys):
        code, out, err = run(capsys, "pipeline", "--n", "0")
        assert code == 0
        report = json.loads(out)
        assert report["abelianization"] == {"rank": 0, "torsion": []}
        assert report["coset"]["order"] == 1
        assert report["search"]["status"] == "trivialized"
        assert "family member n=0" in err
        # the hypothesis check runs on a fixed model, labelled as assumed
        assert report["gpr_hypothesis"] == {
            "assumed_model": framedlinks.zero_model(2).to_json(),
            "passes": True, "nonzero_entries": []}
        assert "hypothesis on the assumed 2-component model" in err
        assert "abelianization: trivial" in err

    def test_n1_certifies_trivial_group(self, capsys):
        code, out, _ = run(capsys, "pipeline", "--n", "1")
        assert code == 0
        report = json.loads(out)
        assert report["abelianization"] == {"rank": 0, "torsion": []}
        assert report["coset"]["status"] == "closed"
        assert report["coset"]["order"] == 1

    def test_summary_names_the_certificate(self):
        report = run_pipeline(1)
        summary = pipeline.summarize(report)
        assert "coset enumeration: closed over ⟨x⟩, index 1: trivial" in summary
        # the table check proves index >= rows, not the order
        assert "rows verified: index ≥ rows" in summary
        assert "verified=" not in summary
        # the binary icosahedral group: perfect, of order 120
        p = Presentation(("s", "t"), ("s t s t S S S", "s s s T T T T T"))
        report["coset"] = certification_report(p, 10_000)["coset"]
        assert ("coset enumeration: closed, group order 120"
                in pipeline.summarize(report))
        report = run_pipeline(5, coset_budget=20)
        assert ("coset enumeration: budget exhausted (20 live / 20 defined)"
                in pipeline.summarize(report))

    def test_meta_names_version_and_stage_times(self):
        meta = run_pipeline(1)["meta"]
        assert meta["version"] == kirbycalc.__version__
        assert meta["kernel"] == "python"
        stages = meta["stage_seconds"]
        assert set(stages) == {"slopes", "certify", "search"}
        assert all(t >= 0 for t in stages.values())
        assert sum(stages.values()) <= meta["elapsed_seconds"] + 0.003

    def test_version_matches_pyproject(self):
        # a regex, not tomllib, which Python 3.10 lacks
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
        assert match and match.group(1) == kirbycalc.__version__

    def test_reports_are_deterministic_outside_meta(self, capsys):
        def clean(raw):
            data = json.loads(raw)
            data.pop("meta")
            return json.dumps(data, sort_keys=True)

        _, out1, _ = run(capsys, "pipeline", "--n", "1")
        _, out2, _ = run(capsys, "pipeline", "--n", "1")
        assert clean(out1) == clean(out2)

    def test_defaults_match_run_pipeline(self, capsys):
        _, out, _ = run(capsys, "pipeline", "--n", "1")
        report = json.loads(out)
        expected = json.loads(json.dumps(run_pipeline(1)))
        report.pop("meta")
        expected.pop("meta")
        assert report == expected

    def test_search_flags_reach_the_search(self, capsys):
        _, out, _ = run(capsys, "pipeline", "--n", "1", "--max-depth", "2",
                        "--budget", "7")
        config = json.loads(out)["search"]["config"]
        assert config == {"max_total_length": 17, "max_depth": 2,
                          "conjugator_depth": 1, "node_budget": 7,
                          "stabilizations": 0, "workers": 1}

    def test_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "pipeline", "--n", "0")
        data = json.loads(out)
        assert json.loads(json.dumps(data)) == data

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "pipeline")
        assert code == 1

    def test_bool_index_refused(self):
        with pytest.raises(ValueError, match="family index must be an integer"):
            run_pipeline(True)

    def test_bad_max_q_refused_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "certification_report",
                            lambda *args: calls.append(args))
        with pytest.raises(SlopeError):
            run_pipeline(200, max_q=-1)
        assert calls == []


# -- fuzzing ------------------------------------------------------------------

_junk = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6))
_malformed = st.one_of(
    st.fixed_dictionaries({
        "generators": st.lists(st.sampled_from(["x", "y", "a1", "Xa", ""])
                               | _junk, max_size=3) | _junk,
        "relators": st.lists(
            st.lists(st.sampled_from(["x", "Y", "q"]), max_size=60).map(" ".join)
            | _junk | st.lists(_junk | st.lists(_junk, max_size=2), max_size=3),
            max_size=3) | _junk}),
    _junk, st.lists(_junk, max_size=3))


@st.composite
def _well_formed(draw):
    """1-3 generators and, mostly, as many relators of up to 60 letters."""
    gens = ["x", "y", "z"][:draw(st.integers(min_value=1, max_value=3))]
    word = st.lists(st.sampled_from(gens + [g.upper() for g in gens]),
                    max_size=60).map(" ".join)
    count = len(gens) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return {"generators": gens,
            "relators": draw(st.lists(word, min_size=count, max_size=count))}


_search_flags = st.lists(
    st.tuples(st.sampled_from(["--max-depth", "--conj-depth", "--budget",
                               "--stabilizations"]),
              st.integers(min_value=-2, max_value=2))
    | st.tuples(st.just("--max-total-length"),
                st.integers(min_value=-5, max_value=40)),
    max_size=3)


@st.composite
def _model(draw):
    """A consistent model of 0-3 plain or dotted components, linking
    numbers in -2..2."""
    comps = draw(st.lists(
        st.fixed_dictionaries({"kind": st.just("plain"),
                               "framing": st.integers(-2, 2),
                               "unknotted": st.booleans()})
        | st.just({"kind": "dotted"}), max_size=3))
    n = len(comps)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = comps[i].get("framing", 0)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.integers(-2, 2))
    return {"components": comps, "linking": m}


_number = _junk | st.floats(-2, 2)
_models = _model() | st.fixed_dictionaries({
    "components": st.lists(
        st.fixed_dictionaries({"kind": st.sampled_from(["plain", "dotted"])
                               | _junk, "framing": _number})
        | _junk, max_size=2) | _junk,
    "linking": st.lists(st.lists(_number, max_size=2) | _junk, max_size=2)
    | _junk}) | _junk

_index = st.integers(-1, 4) | _junk | st.floats(0, 2)
_scripts = st.lists(
    st.fixed_dictionaries(
        {"move": st.sampled_from(framedlinks.MOVES + ("warp",)) | _junk},
        optional={k: _index for k in ("u", "v", "h", "d", "i", "sign")})
    | _junk, max_size=4) | _junk

_pd_codes = st.sampled_from(
    [unknot_pd().to_json(), hopf_link_pd().to_json(), trefoil_pd().to_json()]
) | st.fixed_dictionaries({
    "crossings": st.lists(
        st.fixed_dictionaries({
            "arcs": st.lists(st.integers(1, 6) | _junk, max_size=5) | _junk,
            "sign": st.sampled_from([1, -1, 0]) | _junk}) | _junk,
        max_size=3) | _junk,
    "components": st.lists(st.lists(st.integers(1, 6) | _number, max_size=4)
                           | _junk, max_size=3) | _junk}) | _junk

_framings = (st.lists(st.integers(-3, 3), max_size=3).map(
    lambda fs: ",".join(map(str, fs))) | st.text("0123456789,-x. ", max_size=6))

# tmp_path and capsys are safe to share between examples: the files are
# rewritten and the output drained each time.  On a failure, shrinking
# every distinct error and the explain phase take minutes; one error,
# shrunk without the explain phase, takes seconds.
_fuzz = settings(max_examples=100, deadline=None, report_multiple_bugs=False,
                 phases=[p for p in Phase if p is not Phase.explain],
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _keeps_contract(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err


class TestFuzz:
    """Random input JSON, part of it well formed so that the commands run,
    and random flags, zero and negative values included: every run keeps
    the exit-code contract and prints no traceback."""

    @given(st.booleans().flatmap(
               lambda ok: _well_formed() if ok else _malformed),
           _search_flags, st.integers(min_value=-2, max_value=200))
    @_fuzz
    def test_exit_codes(self, capsys, tmp_path, data, flags, max_cosets):
        path = write(tmp_path, "p.json", data)
        # the default budget is large; keep every search small
        search = ["ac-search", path, "--budget", "3"]
        for flag, value in flags:
            search += [flag, str(value)]
        _keeps_contract(capsys, *search)
        _keeps_contract(capsys, "certify", path, "--max-cosets", str(max_cosets))

    @given(_models, _scripts)
    @_fuzz
    def test_kirby_exit_codes(self, capsys, tmp_path, model, script):
        path = write(tmp_path, "model.json", model)
        for command in ("check", "h1"):
            _keeps_contract(capsys, "kirby", command, path)
        _keeps_contract(capsys, "kirby", "apply", path,
                        write(tmp_path, "script.json", script))

    @given(_pd_codes, _framings)
    @_fuzz
    def test_wirtinger_exit_codes(self, capsys, tmp_path, pd, framings):
        path = write(tmp_path, "pd.json", pd)
        _keeps_contract(capsys, "wirtinger", path)
        _keeps_contract(capsys, "wirtinger", path, f"--framings={framings}")
