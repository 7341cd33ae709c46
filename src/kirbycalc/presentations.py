"""Group presentations and the Andrews-Curtis move set on balanced ones.

Relators are kept freely reduced exactly as the moves produce them; cyclic
reduction happens only where an operation performs it (conjugation moves,
Tietze passes).  Canonicalization across rotation and inversion belongs to
the search layer, not here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .records import check_index, check_int, json_list, json_object
from .words import (IDENTITY, Immutable, Word, check_symbols, cyclic_reduce,
                    is_generator_name)


class MoveError(ValueError):
    """A move's precondition failed."""


class PresentationError(ValueError):
    """Structurally invalid presentation."""


def _as_word(value) -> Word:
    if isinstance(value, Word):
        return value
    if isinstance(value, str):
        return Word.from_text(value)
    try:
        letters = [(sym, sign) for sym, sign in value]
        ok = all(isinstance(sym, str) and type(sign) is int and sign in (1, -1)
                 for sym, sign in letters)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise PresentationError(
            f"bad word {value!r}: expected word text or (generator, +-1) letters")
    return Word(letters)


class Presentation(Immutable):
    """Generators plus relator words, not necessarily balanced."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Iterable[str], relators: Iterable = ()):
        gens = tuple(generators)
        for g in gens:
            if not is_generator_name(g):
                raise PresentationError(
                    f"bad generator name {g!r}: generator names are single "
                    "tokens that start with a lowercase letter")
        if len(set(gens)) != len(gens):
            raise PresentationError(f"duplicate generators in {gens}")
        rels = tuple(_as_word(r) for r in relators)
        check_symbols(rels, gens)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", rels)

    def replace(self, generators=None, relators=None):
        return type(self)(self.generators if generators is None else generators,
                          self.relators if relators is None else relators)

    def total_relator_length(self) -> int:
        return sum(len(r) for r in self.relators)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Presentation)
                and self.generators == other.generators
                and self.relators == other.relators)

    def __hash__(self) -> int:
        return hash((self.generators, self.relators))

    def __repr__(self) -> str:
        gens = ",".join(self.generators)
        rels = ", ".join(r.to_text() or "1" for r in self.relators)
        return f"<{gens} | {rels}>"

    def to_json(self) -> dict:
        return {"generators": list(self.generators),
                "relators": [r.to_text() for r in self.relators]}

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        json_object(data, "presentation", PresentationError)
        return cls(json_list(data, "presentation", "generators", PresentationError),
                   json_list(data, "presentation", "relators", PresentationError))


class BalancedPresentation(Presentation):
    """Equally many generators and relators; the Andrews-Curtis carrier."""

    __slots__ = ()

    def __init__(self, generators: Iterable[str], relators: Iterable = ()):
        super().__init__(generators, relators)
        if len(self.relators) != len(self.generators):
            raise PresentationError(
                f"unbalanced: {len(self.generators)} generators, "
                f"{len(self.relators)} relators")


def _check_index(p: Presentation, i: int) -> None:
    check_index(i, len(p.relators), "relator", MoveError)


def ac_multiply(p: BalancedPresentation, i: int, j: int, conj=IDENTITY):
    """Replace relator i by r_i * conj * r_j * conj^-1."""
    _check_index(p, i)
    _check_index(p, j)
    if i == j:
        raise MoveError("multiplying a relator by its own conjugate is not an "
                        "Andrews-Curtis move")
    conj = _as_word(conj)
    check_symbols((conj,), p.generators)
    rels = list(p.relators)
    rels[i] = rels[i] * conj * rels[j] * conj.inverse()
    return p.replace(relators=rels)


def ac_invert(p: BalancedPresentation, i: int):
    """Replace relator i by its inverse."""
    _check_index(p, i)
    rels = list(p.relators)
    rels[i] = rels[i].inverse()
    return p.replace(relators=rels)


def ac_conjugate(p: BalancedPresentation, i: int, conj):
    """Replace relator i by the cyclic reduction of conj * r_i * conj^-1."""
    _check_index(p, i)
    conj = _as_word(conj)
    check_symbols((conj,), p.generators)
    rels = list(p.relators)
    core, _ = cyclic_reduce(conj * rels[i] * conj.inverse())
    rels[i] = core
    return p.replace(relators=rels)


def fresh_generator(used: Sequence[str]) -> str:
    if "g" not in used:
        return "g"
    k = 2
    while f"g{k}" in used:
        k += 1
    return f"g{k}"


def stabilize(p: BalancedPresentation):
    """Append a fresh generator g together with the relator g."""
    g = fresh_generator(p.generators)
    return p.replace(generators=p.generators + (g,),
                     relators=p.relators + (Word([(g, 1)]),))


def destabilize(p: BalancedPresentation, i: int):
    """Remove relator i (a bare generator) and its generator.

    Requires relator i to be a single letter whose generator appears in no
    other relator.
    """
    _check_index(p, i)
    r = p.relators[i]
    if len(r) != 1:
        raise MoveError(
            f"destabilize: relator {i} ({r.to_text() or '1'!s}) is not a single letter")
    g = r.letters[0][0]
    for k, other in enumerate(p.relators):
        if k != i and g in other.symbols:
            raise MoveError(
                f"destabilize: generator {g!r} occurs in relator {k}")
    gens = tuple(s for s in p.generators if s != g)
    rels = tuple(r for k, r in enumerate(p.relators) if k != i)
    return p.replace(generators=gens, relators=rels)


def ak_presentation(n: int, w="y x") -> BalancedPresentation:
    """The two-generator family <x, y | y = w^-1 x w, x^(n+1) = y^n>.

    ``w`` is any nonempty word in x, y; the n-th member stores the relators
    as the free reductions of Y w^-1 x w and x^(n+1) Y^n.
    """
    check_int(n, 0, "family index", ValueError)
    w = _as_word(w)
    if not w:
        raise ValueError("conjugating word w must be nonempty")
    check_symbols((w,), ("x", "y"))
    x = Word([("x", 1)])
    y = Word([("y", 1)])
    r1 = y.inverse() * w.inverse() * x * w
    r2 = x ** (n + 1) * y ** (-n)
    return BalancedPresentation(("x", "y"), (r1, r2))


def _substitute(word: Word, symbol: str, value: Word) -> Word:
    out: list = []
    inv = value.inverse().letters
    for sym, sign in word.letters:
        if sym == symbol:
            out.extend(value.letters if sign > 0 else inv)
        else:
            out.append((sym, sign))
    return Word(out)


def tietze_simplify(p: Presentation) -> Presentation:
    """Eliminate generators that some relator defines in terms of the others.

    A relator whose cyclic core uses a generator exactly once pins that
    generator to a word in the rest; the pair is removed and the definition
    substituted everywhere.  Relators are kept cyclically reduced.  Applied
    to a balanced presentation this preserves balance.
    """
    gens = list(p.generators)
    rels = [cyclic_reduce(r)[0] for r in p.relators]
    while True:
        target = None
        for idx in sorted(range(len(rels)), key=lambda k: (len(rels[k]), k)):
            core = rels[idx]
            if len(core) < 2:
                continue    # a bare letter pins g = 1 but defines no substitution
            for pos, (sym, sign) in enumerate(core.letters):
                if core.count(sym) == 1:
                    target = (idx, pos, sym, sign)
                    break
            if target:
                break
        if target is None:
            break
        idx, pos, sym, sign = target
        letters = rels[idx].letters
        rest = letters[pos + 1:] + letters[:pos]
        # core = g * rest (up to rotation), so g = rest^-1; inverted relator
        # when the single occurrence is g^-1.
        value = Word(rest).inverse() if sign > 0 else Word(rest)
        gens.remove(sym)
        del rels[idx]
        rels = [cyclic_reduce(_substitute(r, sym, value))[0] for r in rels]
    return type(p)(gens, rels)
