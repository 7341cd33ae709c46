"""Homological bookkeeping for framed links with 1-handles (dotted circles).

A model is a symmetric integer linking matrix together with per-component
data: plain components carry a framing (the diagonal entry), dotted circles
are 0 on the diagonal and stand for 1-handles.  Moves rewrite the matrix
exactly; knotting is not tracked, so blow-downs require an explicit
unknotted mark on the component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .certify import AbelianGroup, IntegerMatrix, MatrixError, h1_from_matrix

PLAIN = "plain"
DOTTED = "dotted"

DOTTED_SLIDE_RULE = "dotted circles cannot slide over non-dotted components"
HOPF_FRAMING_RULE = "the 2-handle of a canceling Hopf pair must have framing 0"


class ModelError(ValueError):
    pass


class IllegalMove(ValueError):
    pass


@dataclass(frozen=True)
class Component:
    kind: str = PLAIN
    framing: Optional[int] = None
    unknotted: bool = False

    def __post_init__(self):
        if self.framing is not None and type(self.framing) is not int:
            raise ModelError(f"framing must be an integer, got {self.framing!r}")
        if type(self.unknotted) is not bool:
            raise ModelError(f"unknotted must be true or false, got {self.unknotted!r}")
        if self.kind not in (PLAIN, DOTTED):
            raise ModelError(f"component kind must be plain or dotted, got {self.kind!r}")
        if self.kind == DOTTED and self.framing is not None:
            raise ModelError("dotted circles carry no framing")
        if self.kind == PLAIN and self.framing is None:
            raise ModelError("plain components need a framing")

    def to_json(self) -> dict:
        data = {"kind": self.kind}
        if self.kind == PLAIN:
            data["framing"] = self.framing
        if self.unknotted:
            data["unknotted"] = True
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Component":
        if not isinstance(data, dict):
            raise ModelError(f"a component is a JSON object, got {data!r}")
        return cls(kind=data.get("kind", PLAIN),
                   framing=data.get("framing"),
                   unknotted=data.get("unknotted", False))


def _check_sign(sign) -> None:
    if type(sign) is not int or sign not in (1, -1):
        raise IllegalMove("sign must be +1 or -1")


class FramedLinkModel:
    """Components plus a symmetric linking matrix; immutable."""

    __slots__ = ("components", "linking")

    def __init__(self, components: Iterable[Component], linking):
        comps = tuple(components)
        n = len(comps)
        try:
            mat = IntegerMatrix(linking)
        except MatrixError as exc:
            raise ModelError(f"linking matrix: {exc}") from None
        if (mat.rows, mat.cols) != (n, n):
            raise ModelError(f"linking matrix must be {n}x{n}")
        matrix = mat.entries
        for i in range(n):
            for j in range(i + 1, n):
                if matrix[i][j] != matrix[j][i]:
                    raise ModelError(f"linking matrix not symmetric at ({i},{j})")
        for i, c in enumerate(comps):
            expected = c.framing if c.kind == PLAIN else 0
            if matrix[i][i] != expected:
                raise ModelError(
                    f"diagonal entry {matrix[i][i]} at component {i} does not match "
                    f"{'framing ' + str(expected) if c.kind == PLAIN else 'dotted (0)'}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "linking", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("FramedLinkModel is immutable")

    def __len__(self):
        return len(self.components)

    def __eq__(self, other):
        return (isinstance(other, FramedLinkModel)
                and self.components == other.components
                and self.linking == other.linking)

    def __repr__(self):
        return f"FramedLinkModel({len(self)} components)"

    def link(self, i: int, j: int) -> int:
        return self.linking[i][j]

    def framing(self, i: int) -> int:
        c = self.components[i]
        if c.kind != PLAIN:
            raise ModelError(f"component {i} is dotted and has no framing")
        return self.linking[i][i]

    def has_dotted(self) -> bool:
        return any(c.kind == DOTTED for c in self.components)

    def _check(self, *indices: int) -> None:
        for i in indices:
            if type(i) is not int:
                raise IllegalMove(f"component index must be an integer, got {i!r}")
            if not 0 <= i < len(self):
                raise IllegalMove(f"component index {i} out of range")

    def _rebuild(self, comps, matrix) -> "FramedLinkModel":
        # re-sync framings from the diagonal before validating
        fixed = []
        for k, c in enumerate(comps):
            if c.kind == PLAIN and c.framing != matrix[k][k]:
                fixed.append(Component(PLAIN, matrix[k][k], c.unknotted))
            else:
                fixed.append(c)
        return FramedLinkModel(fixed, matrix)

    def _add_row_and_column(self, u: int, v: int, sign: int) -> "FramedLinkModel":
        """Add sign times v's row and column to u's: the linking update of
        sliding u over v."""
        m = [list(row) for row in self.linking]
        n = len(self)
        for k in range(n):
            m[u][k] += sign * m[v][k]
        for k in range(n):
            m[k][u] += sign * m[k][v]
        return self._rebuild(list(self.components), m)

    def _append(self, comps, block) -> "FramedLinkModel":
        """Append components unlinked from the rest, with ``block`` as their
        linking matrix among themselves."""
        n, k = len(self), len(comps)
        m = [list(row) + [0] * k for row in self.linking]
        m.extend([0] * n + list(row) for row in block)
        return FramedLinkModel(self.components + tuple(comps), m)

    def _delete(self, drop, pivot: int = 0, eps: int = 0) -> "FramedLinkModel":
        """Delete the components in ``drop``; each remaining link(j,k) first
        loses eps*link(pivot,j)*link(pivot,k), the twist of blowing down
        pivot (eps = 0 deletes without twisting)."""
        keep = [k for k in range(len(self)) if k not in drop]
        row = self.linking[pivot]
        m = [[self.linking[j][k] - eps * row[j] * row[k] for k in keep]
             for j in keep]
        return self._rebuild([self.components[k] for k in keep], m)

    # -- moves --------------------------------------------------------------

    def slide(self, u: int, v: int, sign: int) -> "FramedLinkModel":
        """Slide component u over v: framing becomes m + n + sign*2*link(u,v)
        and u's linking row gains sign times v's row."""
        self._check(u, v)
        if u == v:
            raise IllegalMove("cannot slide a component over itself")
        _check_sign(sign)
        if self.components[u].kind == DOTTED:
            raise IllegalMove(f"component {u} is dotted: {DOTTED_SLIDE_RULE}")
        if self.components[v].kind == DOTTED:
            raise IllegalMove(
                f"component {v} is dotted: sliding over a 1-handle is the "
                "slide_over_dotted move")
        return self._add_row_and_column(u, v, sign)

    def slide_over_dotted(self, h: int, d: int, sign: int) -> "FramedLinkModel":
        """Slide the 2-handle h over the dotted circle d; changes h's framing
        by sign*2*link(h,d), so framing 0 reaches any even framing when the
        linking number is +-1."""
        self._check(h, d)
        _check_sign(sign)
        if self.components[h].kind != PLAIN:
            raise IllegalMove(f"component {h} must be plain: {DOTTED_SLIDE_RULE}")
        if self.components[d].kind != DOTTED:
            raise IllegalMove(f"component {d} is not dotted")
        if self.link(h, d) == 0:
            raise IllegalMove("slide_over_dotted needs a nonzero linking number "
                              "with the dotted circle")
        return self._add_row_and_column(h, d, sign)

    def blow_up(self, sign: int) -> "FramedLinkModel":
        """Append a distant unknotted +-1-framed component."""
        _check_sign(sign)
        return self._append([Component(PLAIN, sign, True)], [[sign]])

    def blow_down(self, i: int) -> "FramedLinkModel":
        """Delete an unknotted +-1-framed component, twisting everything that
        links it: link(j,k) loses eps*link(i,j)*link(i,k)."""
        self._check(i)
        c = self.components[i]
        if c.kind != PLAIN:
            raise IllegalMove(f"component {i} is dotted and cannot be blown down")
        eps = self.linking[i][i]
        if eps not in (1, -1):
            raise IllegalMove(f"blow_down needs framing +1 or -1, got {eps}")
        if not c.unknotted:
            raise IllegalMove(f"component {i} is not marked unknotted")
        for j, other in enumerate(self.components):
            if other.kind == DOTTED and self.linking[i][j] != 0:
                raise IllegalMove(
                    f"component {i} links dotted circle {j}; blowing down would "
                    "twist a 1-handle")
        return self._delete((i,), i, eps)

    def add_distant_unknot(self) -> "FramedLinkModel":
        """Append a 0-framed unknot unlinked from everything."""
        return self._append([Component(PLAIN, 0, True)], [[0]])

    def add_hopf_pair(self) -> "FramedLinkModel":
        """Append a canceling Hopf pair: dotted circle plus a 0-framed
        2-handle linking it once, both unlinked from the rest."""
        return self._append([Component(DOTTED), Component(PLAIN, 0, True)],
                            [[0, 1], [1, 0]])

    def remove_hopf_pair(self, d: int, h: int) -> "FramedLinkModel":
        """Delete a canceling Hopf pair.  Requires d dotted, h plain with
        framing 0, link(d,h) = +-1, and both unlinked from everything else."""
        self._check(d, h)
        if d == h:
            raise IllegalMove("d and h must be distinct components")
        if self.components[d].kind != DOTTED:
            raise IllegalMove(f"component {d} is not dotted")
        if self.components[h].kind != PLAIN:
            raise IllegalMove(f"component {h} is not a 2-handle")
        if self.linking[h][h] != 0:
            raise IllegalMove(
                f"component {h} has framing {self.linking[h][h]}: {HOPF_FRAMING_RULE}")
        if self.link(d, h) not in (1, -1):
            raise IllegalMove(
                f"link(d,h) = {self.link(d, h)}, a canceling pair needs +-1")
        for k in range(len(self)):
            if k in (d, h):
                continue
            if self.link(d, k) != 0:
                raise IllegalMove(f"dotted circle {d} links component {k}")
            if self.link(h, k) != 0:
                raise IllegalMove(f"2-handle {h} links component {k}")
        return self._delete((d, h))

    # -- surgery invariants ---------------------------------------------------

    def _surgery_matrix(self, what: str) -> IntegerMatrix:
        if self.has_dotted():
            raise ModelError(
                f"{what} applies to surgery links only; this model has dotted "
                "circles (1-handles)")
        return IntegerMatrix(self.linking)

    def gpr_hypothesis_check(self) -> "GprReport":
        """Zero framings and zero linking numbers: the condition forced on
        any link surgering to a connected sum of S1 x S2 factors."""
        mat = self._surgery_matrix("the hypothesis check")
        nonzero = [(i, j) for i in range(len(self)) for j in range(i, len(self))
                   if mat[i, j] != 0]
        return GprReport(not nonzero, tuple(nonzero))

    def h1_of_surgery(self) -> AbelianGroup:
        """First homology of the surgered manifold: cokernel of the linking
        matrix with framings on the diagonal."""
        return h1_from_matrix(self._surgery_matrix("h1_of_surgery"))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"components": [c.to_json() for c in self.components],
                "linking": [list(row) for row in self.linking]}

    @classmethod
    def from_json(cls, data: dict) -> "FramedLinkModel":
        try:
            comps = [Component.from_json(c) for c in data["components"]]
            linking = data["linking"]
        except (KeyError, TypeError) as exc:
            raise ModelError(f"model JSON missing field: {exc}")
        return cls(comps, linking)


@dataclass(frozen=True)
class GprReport:
    passes: bool
    nonzero_entries: tuple

    def to_json(self) -> dict:
        return {"passes": self.passes,
                "nonzero_entries": [list(e) for e in self.nonzero_entries]}


MOVES = ("slide", "slide_over_dotted", "blow_up", "blow_down",
         "add_distant_unknot", "add_hopf_pair", "remove_hopf_pair")


def apply_move(model: FramedLinkModel, move: dict) -> FramedLinkModel:
    if not isinstance(move, dict):
        raise IllegalMove(f"a move is a JSON object, got {move!r}")
    kind = move.get("move")
    try:
        if kind == "slide":
            return model.slide(move["u"], move["v"], move.get("sign", 1))
        if kind == "slide_over_dotted":
            return model.slide_over_dotted(move["h"], move["d"], move.get("sign", 1))
        if kind == "blow_up":
            return model.blow_up(move.get("sign", 1))
        if kind == "blow_down":
            return model.blow_down(move["i"])
        if kind == "add_distant_unknot":
            return model.add_distant_unknot()
        if kind == "add_hopf_pair":
            return model.add_hopf_pair()
        if kind == "remove_hopf_pair":
            return model.remove_hopf_pair(move["d"], move["h"])
    except KeyError as exc:
        raise IllegalMove(f"move {kind!r} is missing parameter {exc}")
    raise IllegalMove(f"unknown move kind {kind!r} (expected one of {MOVES})")


def apply_script(model: FramedLinkModel, script) -> FramedLinkModel:
    """Apply a move script (list of tagged move records) in order."""
    current = model
    for step, move in enumerate(script):
        try:
            current = apply_move(current, move)
        except IllegalMove as exc:
            raise IllegalMove(f"script step {step}: {exc}") from exc
    return current


def zero_model(n: int) -> FramedLinkModel:
    """n-component 0-framed model with zero linking matrix."""
    return FramedLinkModel([Component(PLAIN, 0, True) for _ in range(n)],
                           [[0] * n for _ in range(n)])


def hopf_link_model(framings=(0, 0)) -> FramedLinkModel:
    f1, f2 = framings
    return FramedLinkModel([Component(PLAIN, f1, True), Component(PLAIN, f2, True)],
                           [[f1, 1], [1, f2]])
