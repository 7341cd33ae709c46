"""Slope calculus on the 4-punctured sphere.

Essential simple closed curves correspond to reduced rationals p/q (with 1/0
for the vertical class).  The four punctures b1..b4 carry poles: b1, b2 are
the north-pole pair (the branch points coming from the left fiber half), b3,
b4 the south-pole pair.  A slope's parity class determines which pair of
punctures its curve separates; the curve's triple cover is connected exactly
when the two same-side poles agree, and those slopes form the gamma class.
The remaining slopes project homeomorphically from the fiber and are the
candidate surgery partners.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


PUNCTURES = ("b1", "b2", "b3", "b4")
POLES = {"b1": "N", "b2": "N", "b3": "S", "b4": "S"}
FIBER_LEFT_PAIR = frozenset({"b1", "b2"})

# parity (p mod 2, q mod 2) -> the 2|2 split of punctures, b1's side first
PARTITION_BY_PARITY = {
    (1, 0): (frozenset({"b1", "b2"}), frozenset({"b3", "b4"})),
    (0, 1): (frozenset({"b1", "b4"}), frozenset({"b2", "b3"})),
    (1, 1): (frozenset({"b1", "b3"}), frozenset({"b2", "b4"})),
}


class SlopeError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Slope:
    """Reduced rational p/q with q >= 0; 1/0 is the slope at infinity."""

    p: int
    q: int

    def __post_init__(self):
        if type(self.p) is not int or type(self.q) is not int:
            raise SlopeError(f"{self.p!r}/{self.q!r}: p and q must be integers")
        if (self.p, self.q) == (0, 0):
            raise SlopeError("0/0 is not a slope")
        if self.q < 0:
            raise SlopeError("store slopes with q >= 0")
        if self.q == 0 and self.p != 1:
            raise SlopeError("the infinite slope is stored as 1/0")
        if gcd(abs(self.p), self.q) != 1:
            raise SlopeError(f"{self.p}/{self.q} is not reduced")

    @classmethod
    def make(cls, p: int, q: int) -> "Slope":
        if q == 0 and p == 0:
            raise SlopeError("0/0 is not a slope")
        if q < 0:
            p, q = -p, -q
        if q == 0:
            return cls(1, 0)
        g = gcd(abs(p), q)
        return cls(p // g, q // g)

    @classmethod
    def from_text(cls, text: str) -> "Slope":
        try:
            ptxt, qtxt = text.strip().split("/")
            return cls.make(int(ptxt), int(qtxt))
        except (ValueError, TypeError) as exc:
            raise SlopeError(f"cannot parse slope {text!r}: expected p/q") from exc

    def __str__(self):
        return f"{self.p}/{self.q}"

    def value(self) -> Fraction:
        if self.q == 0:
            raise SlopeError("1/0 has no finite value")
        return Fraction(self.p, self.q)


class CurveClass(enum.Enum):
    GAMMA = "gamma"              # connected triple cover, separating upstairs
    CANDIDATE = "candidate"      # three disjoint homeomorphic lifts

    def __str__(self):
        return self.value


class Z3Class(enum.Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"

    def __str__(self):
        return self.value


def parity_class(s: Slope) -> tuple[int, int]:
    """(p mod 2, q mod 2); never (0,0) since p and q are coprime."""
    return (s.p % 2, s.q % 2)


def partition(s: Slope) -> tuple[frozenset, frozenset]:
    """The 2|2 split of punctures separated by the slope's curve, the side
    containing b1 first."""
    return PARTITION_BY_PARITY[parity_class(s)]


def z3_class(s: Slope) -> Z3Class:
    """Image of the curve under the order-3 character of the branched cover:
    trivial exactly when either same-side puncture pair mixes a north and a
    south pole (either pair gives the same answer)."""
    side = partition(s)[0]
    poles = {POLES[b] for b in side}
    return Z3Class.TRIVIAL if len(poles) == 2 else Z3Class.NONTRIVIAL


def lift_type(s: Slope) -> CurveClass:
    """Connected (gamma) versus threefold disjoint (candidate) preimage."""
    return (CurveClass.GAMMA if z3_class(s) is Z3Class.NONTRIVIAL
            else CurveClass.CANDIDATE)


def is_candidate(s: Slope) -> bool:
    """True when the curve lifts homeomorphically, equivalently when its
    partition separates b1 from b2."""
    return lift_type(s) is CurveClass.CANDIDATE


def geometric_intersection(s1: Slope, s2: Slope) -> int:
    """Minimal intersection number of the two curves: 2|p1 q2 - p2 q1|."""
    return 2 * abs(s1.p * s2.q - s2.p * s1.q)


def enumerate_candidates(max_q: int) -> list[Slope]:
    """All candidate slopes with q <= max_q and |p| <= max(max_q, 1),
    sorted by value."""
    if type(max_q) is not int or max_q < 0:
        raise SlopeError("max_q must be an integer >= 0")
    p_cap = max(max_q, 1)
    pool = [Slope(p, q) for q in range(1, max_q + 1)
            for p in range(-p_cap, p_cap + 1) if gcd(abs(p), q) == 1]
    return sorted(filter(is_candidate, pool), key=lambda s: s.value())


@dataclass(frozen=True)
class ConditionReport:
    satisfied: bool
    note: str

    def to_json(self) -> dict:
        return {"satisfied": self.satisfied, "note": self.note}


@dataclass(frozen=True)
class SurgeryPartnerReport:
    """The four conditions a curve must meet to be a surgery partner living
    on the fiber."""

    slope: Slope
    in_fiber: ConditionReport
    image_disjoint: ConditionReport
    image_not_isotopic: ConditionReport
    zero_framing: ConditionReport

    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in
                   (self.in_fiber, self.image_disjoint,
                    self.image_not_isotopic, self.zero_framing))

    def to_json(self) -> dict:
        return {"slope": str(self.slope),
                "in_fiber": self.in_fiber.to_json(),
                "image_disjoint": self.image_disjoint.to_json(),
                "image_not_isotopic": self.image_not_isotopic.to_json(),
                "zero_framing": self.zero_framing.to_json()}


def prop_conditions_report(s: Slope) -> SurgeryPartnerReport:
    """Evaluate the surgery-partner conditions for a slope's curve."""
    kind = lift_type(s)
    in_fiber = ConditionReport(
        True, "by construction: the slope names a curve on the fiber quotient")
    image_disjoint = ConditionReport(
        True, "the curve is a lift of an embedded curve, so its monodromy "
              "image isotopes off it")
    if kind is CurveClass.CANDIDATE:
        image_not_isotopic = ConditionReport(
            True, "nonseparating lift: the rotation moves it to a disjoint, "
                  "non-isotopic copy")
    else:
        image_not_isotopic = ConditionReport(
            False, "gamma class: the lift is rotation-invariant, so its image "
                   "is isotopic to it")
    zero_framing = ConditionReport(
        True, "holds for every homeomorphic projection by the Seifert-surface "
              "framing lemma; cited, not computed")
    return SurgeryPartnerReport(s, in_fiber, image_disjoint,
                                image_not_isotopic, zero_framing)


def classify(s: Slope) -> dict:
    """Full classification record for one slope, JSON-ready."""
    side1, side2 = partition(s)
    return {
        "slope": str(s),
        "parity": list(parity_class(s)),
        "partition": [sorted(side1), sorted(side2)],
        "z3": str(z3_class(s)),
        "lift_type": str(lift_type(s)),
        "candidate": is_candidate(s),
        "conditions": prop_conditions_report(s).to_json(),
    }
