import json

import pytest

from kirbycalc.cli import main


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


class TestCertify:
    def test_report(self, capsys, ak0):
        code, out, _ = run(capsys, "certify", ak0)
        assert code == 0
        report = json.loads(out)
        assert report["coset"] == {"status": "closed", "order": 1, "live": 1,
                                   "defined": 10, "verified": True}

    def test_abelianization(self, capsys, ak0):
        code, out, _ = run(capsys, "abelianization", ak0)
        assert code == 0
        assert json.loads(out) == {"rank": 0, "torsion": []}

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "certify", "/nonexistent.json")
        assert code == 1 and "cannot read" in err


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
        code, out, _ = run(capsys, "wirtinger", pd, "--framings", "0",
                           "--surgery")
        assert code == 0
        data = json.loads(out)
        assert data["abelianization"] == {"rank": 1, "torsion": []}

    def test_surgery_requires_framings(self, capsys, tmp_path):
        pd = write(tmp_path, "unknot.json", {"crossings": [],
                                             "components": [[1]]})
        code, _, err = run(capsys, "wirtinger", pd, "--surgery")
        assert code == 1 and "--framings" in err


class TestPipeline:
    def test_n0_report(self, capsys):
        code, out, err = run(capsys, "pipeline", "--n", "0")
        assert code == 0
        report = json.loads(out)
        assert report["abelianization"] == {"rank": 0, "torsion": []}
        assert report["coset"]["order"] == 1
        assert report["search"]["status"] == "trivialized"
        assert "family member n=0" in err

    def test_n1_certifies_trivial_group(self, capsys):
        code, out, _ = run(capsys, "pipeline", "--n", "1")
        assert code == 0
        report = json.loads(out)
        assert report["abelianization"] == {"rank": 0, "torsion": []}
        assert report["coset"]["status"] == "closed"
        assert report["coset"]["order"] == 1

    def test_reports_are_deterministic_outside_meta(self, capsys):
        def clean(raw):
            data = json.loads(raw)
            data.pop("meta")
            return json.dumps(data, sort_keys=True)

        _, out1, _ = run(capsys, "pipeline", "--n", "1")
        _, out2, _ = run(capsys, "pipeline", "--n", "1")
        assert clean(out1) == clean(out2)

    def test_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "pipeline", "--n", "0")
        data = json.loads(out)
        assert json.loads(json.dumps(data)) == data

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "pipeline")
        assert code == 1
