import pytest
from hypothesis import given, strategies as st

from kirbycalc.certify import IntegerMatrix
from kirbycalc.framedlinks import hopf_link_model
from kirbycalc.presentations import BalancedPresentation, Presentation
from kirbycalc.wirtinger import trefoil_pd
from kirbycalc.words import (IDENTITY, UnknownGeneratorError, Word,
                             WordSyntaxError, check_symbols, cyclic_reduce,
                             decode_word, encode_word, is_generator_name,
                             letter_codes)

letters = st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from((1, -1))),
                   max_size=30)


def test_reduce_examples():
    assert Word.from_text("x X") == IDENTITY
    assert Word.from_text("x y Y x").to_text() == "x x"
    assert Word.from_text("y X Y x y x").to_text() == "y X Y x y x"
    assert Word([("x", 1), ("y", 1), ("y", -1), ("x", 1)]).to_text() == "x x"


def test_reduce_rejects_unknown_symbols():
    with pytest.raises(UnknownGeneratorError) as err:
        check_symbols((Word.from_text("x z"),), ("x", "y"))
    assert err.value.symbol == "z"
    check_symbols((Word.from_text("x y"),), ("x", "y"))
    # several unknown symbols: the first in letter order is named
    with pytest.raises(UnknownGeneratorError) as err:
        check_symbols((Word.from_text("x"), Word.from_text("p q r")), ("x",))
    assert err.value.symbol == "p"


@given(letters)
def test_reduce_idempotent_and_nonincreasing(raw):
    once = Word(raw)
    assert Word(once.letters) == once
    assert len(once) <= len(raw)


@given(letters)
def test_no_adjacent_inverse_pairs(raw):
    w = Word(raw)
    for a, b in zip(w.letters, w.letters[1:]):
        assert not (a[0] == b[0] and a[1] == -b[1])


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(Word.from_text("x y X"))
    assert core.to_text() == "y" and conj.to_text() == "x"
    assert cyclic_reduce(IDENTITY) == (IDENTITY, IDENTITY)
    w = Word.from_text("X y x y")
    assert cyclic_reduce(w) == (w, IDENTITY)


@given(letters)
def test_cyclic_reduce_conjugation_identity(raw):
    w = Word(raw)
    core, conj = cyclic_reduce(w)
    # the core is cyclically reduced: its ends are not inverse letters
    if len(core) > 1:
        (first, a), (last, b) = core.letters[0], core.letters[-1]
        assert not (first == last and a == -b)
    assert conj * core * conj.inverse() == w


def test_word_algebra():
    w = Word.from_text("x y")
    assert (w * w.inverse()) == IDENTITY
    assert (w ** 3).to_text() == "x y x y x y"
    assert (w ** -1) == w.inverse()
    assert (w ** 0) == IDENTITY
    assert w.exponent_sum("x") == 1
    assert Word.from_text("x X x").to_text() == "x"


def test_token_syntax():
    assert Word.from_text("G2 g2") == IDENTITY
    assert Word.from_text("Y").letters == (("y", -1),)
    with pytest.raises(WordSyntaxError):
        Word.from_text("1x")
    assert is_generator_name("g2")
    for name in ("G2", "2g", "", "g h", 3):
        assert not is_generator_name(name)


def test_words_hashable_and_immutable():
    w = Word.from_text("x y")
    assert hash(w) == hash(Word.from_text("x y"))
    with pytest.raises(AttributeError):
        w.letters = ()


@pytest.mark.parametrize("value, field", [
    (Word.from_text("x y"), "letters"),
    (Presentation(("x", "y"), ("x y",)), "relators"),
    (BalancedPresentation(("x",), ("x",)), "generators"),
    (IntegerMatrix([[1, 2]]), "cols"),
    (trefoil_pd(), "crossings"),
    (hopf_link_model(), "linking"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_value_types_refuse_assignment_and_deletion(value, field):
    # one guard for every value type; the message names the type
    before = getattr(value, field)
    for change in (lambda: setattr(value, field, before),
                   lambda: delattr(value, field),
                   lambda: setattr(value, "extra", 1)):
        with pytest.raises(AttributeError,
                           match=f"^{type(value).__name__} is immutable$"):
            change()
    assert getattr(value, field) is before
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("sign", [2, 0, -2, True, 1.0, -1.0, "1"],
                         ids=["2", "0", "-2", "bool", "float", "-float", "str"])
def test_check_symbols_refuses_signs_other_than_one(sign):
    # a Word keeps the signs it is given; check_symbols, which every
    # presentation runs, is the gate
    w = Word([("x", 1), ("y", sign)])
    with pytest.raises(WordSyntaxError) as err:
        check_symbols((w,), ("x", "y"))
    assert str(err.value) == (f"bad letter ('y', {sign!r}): a sign is the "
                              "integer +1 or -1")


def test_letter_codes():
    codes = letter_codes(("x", "y"))
    assert codes == {("x", 1): 0, ("x", -1): 1, ("y", 1): 2, ("y", -1): 3}
    assert encode_word(Word.from_text("x Y y y"), codes) == (0, 2)
    assert decode_word((3, 0, 0), ("x", "y")).to_text() == "Y x x"


@given(letters)
def test_letter_coding_round_trips(raw):
    gens = ("x", "y", "z")
    w = Word(raw)
    code = encode_word(w, letter_codes(gens))
    assert decode_word(code, gens) == w
    # xor 1 inverts a code
    assert decode_word(tuple(a ^ 1 for a in reversed(code)), gens) == w.inverse()
