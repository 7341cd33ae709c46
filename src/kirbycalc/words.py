"""Freely reduced words in a free group, with a plain-text token syntax.

A word is a sequence of signed generator symbols.  The text form is
space-separated tokens: a lowercase token names a generator, the same token
with its first letter uppercased names the inverse ("x" vs "X", "g2" vs "G2").
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

Letter = Tuple[str, int]


class WordSyntaxError(ValueError):
    """Malformed word text, or a letter whose sign is not +1 or -1."""


class UnknownGeneratorError(ValueError):
    """A word uses a symbol outside the allowed generator set."""

    def __init__(self, symbol):
        self.symbol = symbol
        super().__init__(f"unknown generator symbol {symbol!r}")


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[Letter] = []
    for sym, sign in letters:
        if stack and stack[-1][0] == sym and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((sym, sign))
    return tuple(stack)


def is_generator_name(name) -> bool:
    """Whether ``name`` is a generator name of the token syntax: a single
    token with a lowercase first letter, since the uppercased token names
    the inverse."""
    return (isinstance(name, str) and name.split() == [name]
            and name[0].isalpha() and name[0].islower())


class Immutable:
    """Base of the value types: ``__init__`` fills the subclass's
    ``__slots__`` with ``object.__setattr__``; nothing may set or delete
    them later."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Word(Immutable):
    """An immutable, freely reduced word.

    >>> Word.from_text("x y Y x")
    Word('x x')
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", free_reduce(letters))

    @classmethod
    def from_text(cls, text: str) -> "Word":
        letters = []
        for token in text.split():
            if token[0].isupper():
                sym = token[0].lower() + token[1:]
                sign = -1
            else:
                sym = token
                sign = 1
            if not is_generator_name(sym):
                raise WordSyntaxError(f"bad token {token!r}: generator names start "
                                      "with a lowercase letter")
            letters.append((sym, sign))
        return cls(letters)

    def to_text(self) -> str:
        return " ".join(sym if sign > 0 else sym[0].upper() + sym[1:]
                        for sym, sign in self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((sym, -sign) for sym, sign in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.to_text()!r})"

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(sym for sym, _ in self.letters)

    def exponent_sum(self, symbol: str) -> int:
        return sum(sign for sym, sign in self.letters if sym == symbol)

    def count(self, symbol: str) -> int:
        """Occurrences of the generator, counting both signs."""
        return sum(1 for sym, _ in self.letters if sym == symbol)


IDENTITY = Word()


def check_symbols(words: Iterable[Word], generators) -> None:
    """Reject the first letter, in letter order, whose symbol is not one of
    ``generators`` or whose sign is not the int +1 or -1, so the error names
    the same letter on every run."""
    allowed = set(generators)
    for word in words:
        for sym, sign in word.letters:
            if sym not in allowed:
                raise UnknownGeneratorError(sym)
            if type(sign) is not int or sign not in (1, -1):
                raise WordSyntaxError(f"bad letter {(sym, sign)!r}: "
                                      "a sign is the integer +1 or -1")


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w`` as conjugator * core * conjugator^-1 with the core
    cyclically reduced.  Returns (core, conjugator)."""
    letters = w.letters
    i, j = 0, len(letters) - 1
    conj = []
    while i < j and letters[i][0] == letters[j][0] and letters[i][1] == -letters[j][1]:
        conj.append(letters[i])
        i += 1
        j -= 1
    return Word(letters[i:j + 1]), Word(conj)


def letter_codes(generators) -> dict[Letter, int]:
    """The int coding of letters: generator k is 2k and its inverse 2k+1,
    so xor 1 inverts a code."""
    codes = {}
    for k, g in enumerate(generators):
        codes[(g, 1)] = 2 * k
        codes[(g, -1)] = 2 * k + 1
    return codes


def encode_word(word: Word, codes: dict[Letter, int]) -> tuple[int, ...]:
    return tuple(codes[letter] for letter in word.letters)


def decode_word(code, generators) -> Word:
    """Inverse of the coding given by ``letter_codes(generators)``."""
    return Word([(generators[a >> 1], -1 if a & 1 else 1) for a in code])
