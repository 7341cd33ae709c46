import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from kirbycalc.certify import AbelianGroup
from kirbycalc.framedlinks import (DOTTED, DOTTED_SLIDE_RULE, MOVES, PLAIN,
                                   Component, FramedLinkModel, IllegalMove,
                                   ModelError, apply_move, apply_script,
                                   hopf_link_model, zero_model)


def model(framings, linking, marks=None):
    marks = marks or [True] * len(framings)
    comps = [Component(PLAIN, f, m) for f, m in zip(framings, marks)]
    return FramedLinkModel(comps, linking)


class TestModelInvariants:
    def test_symmetry_required(self):
        with pytest.raises(ModelError):
            model([0, 0], [[0, 1], [0, 0]])

    def test_diagonal_must_match_framing(self):
        with pytest.raises(ModelError):
            model([1, 0], [[0, 0], [0, 0]])

    def test_dotted_has_no_framing(self):
        with pytest.raises(ModelError):
            Component(DOTTED, 3)
        with pytest.raises(ModelError):
            FramedLinkModel([Component(DOTTED)], [[2]])

    @pytest.mark.parametrize("linking", [
        [[1, 0.5], [0.5, 1]], [[1.0, 0], [0, 1]], [[1, "0"], ["0", 1]],
        [[1, False], [False, 1]], 5, [5, 5], [[1, 0], [0]],
    ], ids=["half", "float", "string", "bool", "int", "int-rows", "ragged"])
    def test_linking_entries_must_be_integers(self, linking):
        with pytest.raises(ModelError):
            model([1, 1], linking)

    def test_framing_must_be_an_integer(self):
        for framing in (0.5, 1.0, "1", True):
            with pytest.raises(ModelError):
                Component(PLAIN, framing)

    def test_unknotted_must_be_a_boolean(self):
        # "false" used to be read as true, letting a knot be blown down
        for mark in ("false", 1, None):
            with pytest.raises(ModelError):
                Component.from_json({"kind": "plain", "framing": 1,
                                     "unknotted": mark})

    def test_from_json_rejects_malformed_records(self):
        for data in ({"components": [], "linking": 5},
                     {"components": ["x"], "linking": [[0]]},
                     {"components": 5, "linking": []},
                     {"components": [{"kind": "plain", "framing": 1}] * 2,
                      "linking": [[1, 0.5], [0.5, 1]]},
                     [], 5):
            with pytest.raises(ModelError):
                FramedLinkModel.from_json(data)

    @pytest.mark.parametrize("data, field", [
        ({"components": 5, "linking": []}, "components"),
        ({"components": {"a": 1}, "linking": []}, "components"),
        ({"components": [], "linking": 5}, "linking"),
        ({"components": [], "linking": {"a": [1]}}, "linking"),
    ])
    def test_json_field_of_the_wrong_type_is_named(self, data, field):
        # a wrong type is not a missing field
        with pytest.raises(ModelError,
                           match=f"^model field '{field}' must be a list$"):
            FramedLinkModel.from_json(data)

    @pytest.mark.parametrize("data, kind", [([1, 2], "list"), ("x", "str"),
                                            (5, "int")])
    def test_json_top_level_must_be_an_object(self, data, kind):
        with pytest.raises(ModelError,
                           match=f"^a model is a JSON object, got {kind}$"):
            FramedLinkModel.from_json(data)

    def test_json_roundtrip(self):
        m = zero_model(2).add_hopf_pair().blow_up(-1)
        data = json.loads(json.dumps(m.to_json()))
        assert FramedLinkModel.from_json(data) == m


class TestSlide:
    def test_framing_formula(self):
        m = model([2, 3], [[2, 1], [1, 3]])
        assert m.slide(0, 1, 1).framing(0) == 7
        assert m.slide(0, 1, -1).framing(0) == 3

    def test_zero_data_closed_under_slides(self):
        m = zero_model(2)
        assert m.slide(0, 1, 1) == m
        assert m.slide(1, 0, -1) == m

    def test_opposite_signs_cancel(self):
        m = model([2, -1, 3], [[2, 1, 0], [1, -1, 2], [0, 2, 3]])
        assert m.slide(0, 2, 1).slide(0, 2, -1) == m

    def test_symmetry_preserved(self):
        m = model([2, -1, 3], [[2, 1, 0], [1, -1, 2], [0, 2, 3]])
        s = m.slide(1, 2, 1)
        for i in range(3):
            for j in range(3):
                assert s.link(i, j) == s.link(j, i)

    def test_dotted_rejected(self):
        m = FramedLinkModel([Component(DOTTED), Component(PLAIN, 0, True)],
                            [[0, 1], [1, 0]])
        with pytest.raises(IllegalMove) as err:
            m.slide(0, 1, 1)
        assert "cannot slide over non-dotted" in str(err.value)
        with pytest.raises(IllegalMove):
            m.slide(1, 0, 1)


class TestBlowMoves:
    def test_blow_up_then_down_is_identity(self):
        m = model([5, -2], [[5, 3], [3, -2]])
        for sign in (1, -1):
            assert m.blow_up(sign).blow_down(2) == m

    def test_meridian_example(self):
        # +1-framed unknot linking a single 0-framed component once
        m = model([1, 0], [[1, 1], [1, 0]])
        down = m.blow_down(0)
        assert down.framing(0) == -1
        m = model([-1, 0], [[-1, 1], [1, 0]])
        assert m.blow_down(0).framing(0) == 1

    def test_blow_down_requires_unit_framing(self):
        with pytest.raises(IllegalMove):
            model([2], [[2]]).blow_down(0)

    def test_blow_down_requires_mark(self):
        m = model([1], [[1]], marks=[False])
        with pytest.raises(IllegalMove) as err:
            m.blow_down(0)
        assert "unknotted" in str(err.value)


class TestHopfPairs:
    def test_add_then_remove_round_trips(self):
        m = zero_model(2)
        assert m.add_hopf_pair().remove_hopf_pair(2, 3) == m
        assert m.add_distant_unknot().components[-1].framing == 0

    def test_framed_two_handle_rejected(self):
        m = FramedLinkModel([Component(DOTTED), Component(PLAIN, 2, True)],
                            [[0, 1], [1, 2]])
        with pytest.raises(IllegalMove) as err:
            m.remove_hopf_pair(0, 1)
        assert "framing 0" in str(err.value)

    def test_linked_pair_rejected(self):
        m = FramedLinkModel(
            [Component(DOTTED), Component(PLAIN, 0, True), Component(PLAIN, 0, True)],
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        with pytest.raises(IllegalMove) as err:
            m.remove_hopf_pair(0, 1)
        assert "links component" in str(err.value)


def pair_and(*rest):
    """A canceling Hopf pair (dotted 0, 2-handle 1), then plain unknots
    with the given framings, linked as ``rest`` says: ``rest`` is a list
    of (framing, link with 0, link with 1)."""
    comps = [Component(DOTTED), Component(PLAIN, 0, True)]
    n = 2 + len(rest)
    m = [[0] * n for _ in range(n)]
    m[0][1] = m[1][0] = 1
    for k, (framing, to_dotted, to_handle) in enumerate(rest, 2):
        comps.append(Component(PLAIN, framing, True))
        m[k][k] = framing
        m[k][0] = m[0][k] = to_dotted
        m[k][1] = m[1][k] = to_handle
    return FramedLinkModel(comps, m)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Component("solid", 0), ModelError,
     "component kind must be plain or dotted, got 'solid'"),
    (lambda: Component(PLAIN), ModelError, "plain components need a framing"),
    (lambda: FramedLinkModel([Component(PLAIN, 0)], [[0, 0], [0, 0]]),
     ModelError, "linking matrix must be 1x1"),
    (lambda: pair_and().framing(0), ModelError,
     "component 0 is dotted and has no framing"),
    (lambda: pair_and().slide_over_dotted(0, 0, 1), IllegalMove,
     f"component 0 must be plain: {DOTTED_SLIDE_RULE}"),
    (lambda: pair_and((0, 0, 0)).slide_over_dotted(1, 2, 1), IllegalMove,
     "component 2 is not dotted"),
    (lambda: pair_and().blow_down(0), IllegalMove,
     "component 0 is dotted and cannot be blown down"),
    (lambda: pair_and((1, 1, 0)).blow_down(2), IllegalMove,
     "component 2 links dotted circle 0; blowing down would twist a 1-handle"),
    (lambda: pair_and().remove_hopf_pair(0, 0), IllegalMove,
     "d and h must be distinct components"),
    (lambda: pair_and().remove_hopf_pair(1, 0), IllegalMove,
     "component 1 is not dotted"),
    (lambda: pair_and().add_hopf_pair().remove_hopf_pair(0, 2), IllegalMove,
     "component 2 is not a 2-handle"),
    (lambda: FramedLinkModel([Component(DOTTED), Component(PLAIN, 0, True)],
                             [[0, 2], [2, 0]]).remove_hopf_pair(0, 1),
     IllegalMove, "link(d,h) = 2, a canceling pair needs +-1"),
    (lambda: pair_and((0, 1, 0)).remove_hopf_pair(0, 1), IllegalMove,
     "dotted circle 0 links component 2"),
], ids=["kind", "plain-without-framing", "matrix-shape", "dotted-framing",
        "dotted-slides-over-dotted", "slide-over-plain", "blow-down-dotted",
        "blow-down-links-dotted", "pair-of-one", "pair-dotted-is-plain",
        "pair-handle-is-dotted", "pair-links-twice", "pair-dotted-linked"])
def test_refusals_name_the_rule(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


move_records = st.builds(
    lambda kind, u, v, sign: {"move": kind, "u": u, "v": v, "h": u, "d": v,
                              "i": u, "sign": sign},
    st.sampled_from(MOVES), st.integers(0, 5), st.integers(0, 5),
    st.sampled_from((1, -1)))


@given(st.sampled_from((zero_model(2), hopf_link_model((1, -2)), pair_and())),
       st.lists(move_records, max_size=10))
@settings(max_examples=200)
def test_every_model_a_script_reaches_round_trips(start, script):
    m = start
    for move in script:
        try:
            m = apply_move(m, move)
        except IllegalMove:
            pass
        data = json.loads(json.dumps(m.to_json()))
        back = FramedLinkModel.from_json(data)
        assert back == m and back.to_json() == data


class TestSlideOverDotted:
    def test_even_framing_change(self):
        m = FramedLinkModel([Component(PLAIN, 0, True), Component(DOTTED)],
                            [[0, 1], [1, 0]])
        assert m.slide_over_dotted(0, 1, 1).framing(0) == 2
        assert m.slide_over_dotted(0, 1, 1).slide_over_dotted(0, 1, 1).framing(0) == 4

    def test_opposite_applications_cancel(self):
        m = FramedLinkModel([Component(PLAIN, 4, True), Component(DOTTED)],
                            [[4, 1], [1, 0]])
        assert m.slide_over_dotted(0, 1, 1).slide_over_dotted(0, 1, -1) == m

    def test_zero_linking_rejected(self):
        m = FramedLinkModel([Component(PLAIN, 0, True), Component(DOTTED)],
                            [[0, 0], [0, 0]])
        with pytest.raises(IllegalMove):
            m.slide_over_dotted(0, 1, 1)


class TestSurgeryInvariants:
    def test_gpr_check_examples(self):
        assert zero_model(2).gpr_hypothesis_check().passes
        report = hopf_link_model().gpr_hypothesis_check()
        assert not report.passes and (0, 1) in report.nonzero_entries
        assert zero_model(1).gpr_hypothesis_check().passes

    def test_gpr_rejects_dotted(self):
        with pytest.raises(ModelError):
            zero_model(1).add_hopf_pair().gpr_hypothesis_check()

    def test_h1_examples(self):
        assert zero_model(2).h1_of_surgery() == AbelianGroup(2)
        assert hopf_link_model().h1_of_surgery().is_trivial()
        assert model([1], [[1]]).h1_of_surgery().is_trivial()
        assert model([-1], [[-1]]).h1_of_surgery().is_trivial()

    def test_h1_rejects_dotted(self):
        with pytest.raises(ModelError):
            zero_model(1).add_hopf_pair().h1_of_surgery()

    def test_gpr_invariant_under_slides(self):
        rng = random.Random(77)
        m = zero_model(3)
        for _ in range(60):
            u = rng.randrange(3)
            v = rng.randrange(3)
            if u == v:
                continue
            m = m.slide(u, v, rng.choice((1, -1)))
            assert m.gpr_hypothesis_check().passes

    def test_h1_invariant_under_moves(self):
        rng = random.Random(123)
        for _ in range(40):
            n = rng.randrange(1, 5)
            linking = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = rng.randrange(-5, 6)
                    linking[i][j] = linking[j][i] = v
            m = model([linking[i][i] for i in range(n)], linking)
            h1 = m.h1_of_surgery()
            for _ in range(6):
                kind = rng.choice(("slide", "blow_up", "blow_down"))
                if kind == "slide" and len(m) >= 2:
                    u, v = rng.sample(range(len(m)), 2)
                    m = m.slide(u, v, rng.choice((1, -1)))
                elif kind == "blow_up":
                    m = m.blow_up(rng.choice((1, -1)))
                else:
                    targets = [i for i in range(len(m))
                               if m.components[i].unknotted
                               and m.linking[i][i] in (1, -1)]
                    if targets:
                        m = m.blow_down(rng.choice(targets))
                assert m.h1_of_surgery() == h1


class TestScripts:
    def test_apply_script(self):
        script = [{"move": "blow_up", "sign": 1},
                  {"move": "slide", "u": 0, "v": 2, "sign": 1},
                  {"move": "blow_down", "i": 2}]
        m = apply_script(zero_model(2), script)
        # blow-up, slide across it, blow-down: net effect is the identity
        assert m == zero_model(2)

    def test_bad_step_reports_index(self):
        with pytest.raises(IllegalMove) as err:
            apply_script(zero_model(2), [{"move": "slide", "u": 0, "v": 0}])
        assert "step 0" in str(err.value)

    @pytest.mark.parametrize("script", ["ab", 5, None, {"move": "blow_up"},
                                        ({"move": "blow_up"},)])
    def test_script_must_be_a_list(self, script):
        with pytest.raises(IllegalMove,
                           match="^move script must be a JSON array$"):
            apply_script(zero_model(1), script)

    def test_unknown_move(self):
        with pytest.raises(IllegalMove):
            apply_script(zero_model(1), [{"move": "warp"}])

    @pytest.mark.parametrize("move", [
        5, "slide", [0, 1], None,
        {"move": "slide", "u": "a", "v": 0},
        {"move": "slide", "u": 0.0, "v": 1},
        {"move": "blow_down", "i": True},
        {"move": "remove_hopf_pair", "d": [0], "h": 1},
        {"move": "blow_up", "sign": 1.0},
        {"move": "blow_up", "sign": True},
        {"move": "slide", "u": 0, "v": 1, "sign": "1"},
    ])
    def test_malformed_records_rejected(self, move):
        with pytest.raises(IllegalMove) as err:
            apply_script(zero_model(2), [move])
        assert "step 0" in str(err.value)


class TestLinkingPrimitives:
    """Each move against the linking matrix written out by hand."""

    def test_slides(self):
        m = model([2, -1, 3], [[2, 1, 0], [1, -1, 2], [0, 2, 3]])
        assert m.slide(0, 1, -1).linking == ((-1, 2, -2), (2, -1, 2),
                                             (-2, 2, 3))
        d = FramedLinkModel([Component(PLAIN, 0), Component(DOTTED)],
                            [[0, 1], [1, 0]])
        assert d.slide_over_dotted(0, 1, 1).linking == ((2, 1), (1, 0))

    def test_appends(self):
        m = model([2], [[2]])
        assert m.blow_up(-1).linking == ((2, 0), (0, -1))
        assert m.add_distant_unknot().linking == ((2, 0), (0, 0))
        pair = m.add_hopf_pair()
        assert pair.linking == ((2, 0, 0), (0, 0, 1), (0, 1, 0))
        assert [c.kind for c in pair.components] == [PLAIN, DOTTED, PLAIN]

    def test_deletes(self):
        m = model([2, 1, 3], [[2, 1, 0], [1, 1, 2], [0, 2, 3]])
        down = m.blow_down(1)
        assert down.linking == ((1, -2), (-2, -1))
        assert [c.framing for c in down.components] == [1, -1]
        pair = m.add_hopf_pair()
        assert pair.remove_hopf_pair(3, 4) == m
