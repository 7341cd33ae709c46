import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from kirbycalc.certify import exponent_matrix, todd_coxeter
from kirbycalc.presentations import (BalancedPresentation, MoveError,
                                     Presentation, PresentationError,
                                     ac_conjugate, ac_invert, ac_multiply,
                                     ak_presentation, destabilize, stabilize,
                                     tietze_simplify)
from kirbycalc.words import UnknownGeneratorError, Word, WordSyntaxError


def texts(p):
    return [r.to_text() for r in p.relators]


B = BalancedPresentation

# the signs a caller might pass; only the ints 1 and -1 are letters
SIGNS = (1, -1, 1, -1, 2, 0, -2, True, False, 1.0, -1.0)


def is_letter_sign(sign):
    return type(sign) is int and sign in (1, -1)


@st.composite
def presentation_inputs(draw):
    """Generators, relators given as word text, letter lists or Word
    instances, and whether every letter the constructor sees has a sign
    of +1 or -1 (a Word has already cancelled its inverse pairs)."""
    gens = draw(st.lists(st.sampled_from(("x", "y", "z2", "ab")),
                         min_size=1, max_size=3, unique=True))
    rels, valid = [], True
    for _ in range(draw(st.integers(0, 3))):
        letters = draw(st.lists(st.tuples(st.sampled_from(gens),
                                          st.sampled_from(SIGNS)), max_size=6))
        kind = draw(st.sampled_from(("text", "letters", "word")))
        if kind == "text":
            rels.append(" ".join(g if s > 0 else g[0].upper() + g[1:]
                                 for g, s in letters))
            continue
        if kind == "word":
            letters = Word(letters).letters
        rels.append(letters if kind == "letters" else Word(letters))
        valid = valid and all(is_letter_sign(s) for _, s in letters)
    return gens, rels, valid


class TestStructure:
    def test_balance_enforced(self):
        with pytest.raises(PresentationError):
            B(("x", "y"), ("x",))

    def test_relators_stored_freely_reduced(self):
        p = B(("x",), ("x X x",))
        assert texts(p) == ["x"]

    def test_unknown_relator_symbol(self):
        with pytest.raises(UnknownGeneratorError):
            B(("x",), ("y",))

    def test_replace_checks_relators(self):
        for p in (Presentation(("x", "y"), ("x",)), B(("x", "y"), ("x", "y"))):
            with pytest.raises(UnknownGeneratorError):
                p.replace(relators=("x", "z"))
            with pytest.raises(PresentationError, match="bad word"):
                p.replace(relators=("x", 5))
            q = p.replace(relators=("y", "X x y"))
            assert type(q) is type(p) and q.generators == ("x", "y")
            assert texts(q) == ["y", "y"]
        with pytest.raises(PresentationError, match="unbalanced"):
            B(("x", "y"), ("x", "y")).replace(relators=("x",))
        with pytest.raises(PresentationError, match="bad generator name"):
            B(("x", "y"), ("x", "y")).replace(generators=("x", "Y"))

    @pytest.mark.parametrize("gens", [("x", ""), ("x", "Xa"), ("x", "y z"),
                                      ("x", 3), ("x", "2y")])
    def test_bad_generator_names(self, gens):
        with pytest.raises(PresentationError, match="bad generator name"):
            Presentation(gens, ())

    @pytest.mark.parametrize("rel", [5, None, [("x", 2)], ["x"], [(1, 1)]])
    def test_bad_relators(self, rel):
        with pytest.raises(PresentationError, match="bad word"):
            Presentation(("x",), (rel,))

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0])
    def test_letter_signs_are_ints(self, sign):
        # bools and floats compare equal to +-1 but are not signs
        with pytest.raises(PresentationError, match="bad word"):
            Presentation(("x",), [[("x", sign)]])

    def test_relator_as_letters(self):
        p = Presentation(("x", "y"), ([("x", 1), ("y", -1)],))
        assert texts(p) == ["x Y"]

    def test_json_fields_must_be_lists(self):
        # the message names the one field of the wrong type
        with pytest.raises(PresentationError, match=(
                "^presentation field 'generators' must be a list$")):
            Presentation.from_json({"generators": 5, "relators": []})
        with pytest.raises(PresentationError, match=(
                "^presentation field 'relators' must be a list$")):
            Presentation.from_json({"generators": ["x"], "relators": 5})

    @pytest.mark.parametrize("data, kind", [([1, 2], "list"), ("x", "str"),
                                            (5, "int"), (None, "NoneType")])
    def test_json_top_level_must_be_an_object(self, data, kind):
        with pytest.raises(PresentationError,
                           match=f"^a presentation is a JSON object, got {kind}$"):
            Presentation.from_json(data)

    def test_json_roundtrip(self):
        p = ak_presentation(2, "y x")
        data = json.loads(json.dumps(p.to_json()))
        assert B.from_json(data) == p
        assert data == {"generators": ["x", "y"],
                        "relators": ["Y X Y x y x", "x x x Y Y"]}

    @given(presentation_inputs())
    @settings(max_examples=300)
    def test_every_accepted_presentation_round_trips(self, case):
        # the constructor refuses what JSON could not carry, so what it
        # accepts reads back as the same group
        gens, rels, valid = case
        try:
            p = Presentation(gens, rels)
        except ValueError:
            assert not valid
            return
        assert valid
        data = json.loads(json.dumps(p.to_json()))
        back = Presentation.from_json(data)
        assert back == p and back.to_json() == data

    def test_repr(self):
        assert repr(Presentation(("x", "y"), ("x Y", ""))) == "<x,y | x Y, 1>"

    @pytest.mark.parametrize("make, error, message", [
        (lambda: Presentation(("x", "y", "x"), ()), PresentationError,
         "duplicate generators in ('x', 'y', 'x')"),
        (lambda: Presentation(("x",), (Word([("x", 2)]),)), WordSyntaxError,
         "bad letter ('x', 2): a sign is the integer +1 or -1"),
        (lambda: B(("x", "y"), ("x", Word([("y", True)]))), WordSyntaxError,
         "bad letter ('y', True): a sign is the integer +1 or -1"),
        (lambda: ak_presentation(1, Word([("x", 1.0)])), WordSyntaxError,
         "bad letter ('x', 1.0): a sign is the integer +1 or -1"),
        (lambda: ac_multiply(B(("x", "y"), ("x", "y")), 0, 1, Word([("x", 2)])),
         WordSyntaxError, "bad letter ('x', 2): a sign is the integer +1 or -1"),
        (lambda: todd_coxeter(Presentation(("x",), ("x x",)),
                              subgroup=[Word([("x", 0)])]),
         WordSyntaxError, "bad letter ('x', 0): a sign is the integer +1 or -1"),
    ], ids=["duplicate-generators", "word-sign-2", "word-sign-bool",
            "family-word-float", "multiply-conjugator", "subgroup-word"])
    def test_refusals_name_the_rule(self, make, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()


class TestMoves:
    def test_multiply_direct_concatenation(self):
        p = B(("x", "y"), ("x y", "y"))
        assert texts(ac_multiply(p, 0, 1)) == ["x y y", "y"]

    def test_multiply_after_inversion_cancels(self):
        p = B(("x", "y"), ("x y", "y"))
        q = ac_invert(ac_multiply(ac_invert(p, 1), 0, 1), 1)
        assert texts(q) == ["x", "y"]

    def test_multiply_with_conjugator_hand_oracle(self):
        # hand concatenation: r1 * (y r0 y^-1) with r1 = y, r0 = x
        p = B(("x", "y"), ("x", "y"))
        got = ac_multiply(p, 1, 0, "y")
        hand = ["x", "y" + " y x Y"]
        assert texts(got) == ["x", "y y x Y"] == [h.strip() for h in hand]

    def test_multiply_rejects_same_index(self):
        with pytest.raises(MoveError):
            ac_multiply(B(("x", "y"), ("x", "y")), 1, 1)

    def test_invert_examples(self):
        p = B(("x",), ("x",))
        assert texts(ac_invert(p, 0)) == ["X"]
        assert ac_invert(ac_invert(p, 0), 0) == p
        q = B(("x", "y"), ("x y", "y"))
        assert texts(ac_invert(q, 0)) == ["Y X", "y"]

    def test_conjugate_examples(self):
        p = B(("x", "y"), ("x", "y"))
        assert texts(ac_conjugate(p, 0, "y")) == ["x", "y"]
        assert ac_conjugate(p, 0, "") == p
        q = ac_conjugate(B(("x", "y"), ("x y", "y")), 0, "x")
        # cyclic form of x x y X, i.e. x y up to rotation
        assert texts(q)[0] in ("x y", "y x")

    def test_conjugate_hand_rotation_oracle(self):
        # x * (x y) * X frees to x x y X; stripping the inverse ends leaves x y
        raw = ["x", "x", "y", "X"]
        while raw and raw[0].swapcase() == raw[-1]:
            raw = raw[1:-1]
        got = ac_conjugate(B(("x", "y"), ("x y", "y")), 0, "x")
        assert texts(got)[0] == " ".join(raw)

    @pytest.mark.parametrize("conj, error", [
        (Word([("y", 2)]), WordSyntaxError), ("z", UnknownGeneratorError)],
        ids=["bad-sign", "unknown-generator"])
    def test_bad_conjugator_is_refused(self, conj, error):
        # cyclic reduction would cut the conjugator off x y, and its
        # conjugate of the empty relator is empty: neither hides it
        p = B(("x", "y"), ("x y", ""))
        with pytest.raises(error):
            ac_conjugate(p, 0, conj)
        with pytest.raises(error):
            ac_multiply(p, 0, 1, conj)

    def test_stabilize_destabilize_examples(self):
        p = B(("x",), ("x",))
        s = stabilize(p)
        assert s.generators == ("x", "g") and texts(s) == ["x", "g"]
        assert destabilize(s, 1) == p
        with pytest.raises(MoveError) as err:
            destabilize(B(("x", "y"), ("x y", "y")), 1)
        assert "occurs in relator 0" in str(err.value)

    def test_destabilize_requires_single_letter(self):
        with pytest.raises(MoveError) as err:
            destabilize(B(("x", "y"), ("x y", "y")), 0)
        assert "single letter" in str(err.value)

    def test_stabilize_picks_fresh_symbol(self):
        p = B(("g", "x"), ("g", "x"))
        s = stabilize(p)
        assert s.generators == ("g", "x", "g2")

    def test_moves_preserve_balance_and_abelianization(self):
        rng = random.Random(20260810)
        p = ak_presentation(2, "y x")
        det = exponent_matrix(p).det()
        for _ in range(200):
            kind = rng.choice(("mul", "inv", "conj"))
            i = rng.randrange(2)
            conj = Word([(rng.choice("xy"), rng.choice((1, -1)))
                         for _ in range(rng.randrange(3))])
            if kind == "mul":
                if p.total_relator_length() > 400:
                    continue    # keep the walk at desk scale
                p = ac_multiply(p, i, 1 - i, conj)
            elif kind == "inv":
                p = ac_invert(p, i)
            else:
                p = ac_conjugate(p, i, conj)
            assert len(p.relators) == len(p.generators)
            assert abs(exponent_matrix(p).det()) == abs(det)


class TestFamily:
    def test_members(self):
        assert texts(ak_presentation(2, "y x")) == ["Y X Y x y x", "x x x Y Y"]
        assert texts(ak_presentation(0, "y x")) == ["Y X Y x y x", "x"]
        assert texts(ak_presentation(1, "y x")) == ["Y X Y x y x", "x x Y"]

    def test_exponent_matrices(self):
        for n in range(0, 11):
            mat = exponent_matrix(ak_presentation(n, "y x"))
            assert mat.entries == ((1, -1), (n + 1, -n))
            assert mat.det() == 1

    def test_rejections(self):
        with pytest.raises(UnknownGeneratorError):
            ak_presentation(1, "y z")
        with pytest.raises(ValueError):
            ak_presentation(1, "")
        with pytest.raises(ValueError):
            ak_presentation(-1, "y x")

    @pytest.mark.parametrize("n", [True, 2.5, 2.0, "2"])
    def test_index_is_an_int(self, n):
        with pytest.raises(ValueError, match="family index must be an integer"):
            ak_presentation(n)


class TestTietze:
    def test_eliminates_defined_generator(self):
        p = B(("x", "y"), ("y X", "y"))
        assert tietze_simplify(p) == B(("x",), ("x",))

    def test_preserves_balance(self):
        q = tietze_simplify(ak_presentation(1, "y x"))
        assert len(q.generators) == len(q.relators)
        assert isinstance(q, BalancedPresentation)

    def test_family_member_strictly_reduced_same_group(self):
        p = ak_presentation(1, "y x")
        q = tietze_simplify(p)
        assert q.total_relator_length() < p.total_relator_length()
        # both enumerate to the trivial group
        assert todd_coxeter(p, 10_000).order == 1
        assert todd_coxeter(q, 10_000).order == 1

    def test_unbalanced_input_allowed(self):
        # c = b, then b = a^-1: the cascade leaves a free group of rank 1
        p = Presentation(("a", "b", "c"), ("c B", "c a"))
        q = tietze_simplify(p)
        assert q.generators == ("a",)
        assert q.relators == ()
