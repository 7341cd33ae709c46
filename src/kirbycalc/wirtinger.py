"""Link-group machinery from planar diagram codes.

A crossing is recorded as the 4-tuple of edge labels met counterclockwise
starting from the incoming under-strand edge, plus a sign: positive when the
over-strand runs from the second entry to the fourth.  Edges are the
diagram segments between crossings; Wirtinger arcs (the generators) are the
unions of edges joined by passing over a crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .certify import AbelianGroup, IntegerMatrix, abelianization
from .presentations import Presentation
from .words import Word


class PDCodeError(ValueError):
    pass


@dataclass(frozen=True)
class Crossing:
    arcs: tuple[int, int, int, int]
    sign: int

    def __post_init__(self):
        if len(self.arcs) != 4:
            raise PDCodeError(f"crossing needs 4 edge labels, got {self.arcs}")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise PDCodeError(f"crossing sign must be +1 or -1, got {self.sign}")

    @property
    def under_in(self):
        return self.arcs[0]

    @property
    def under_out(self):
        return self.arcs[2]

    @property
    def over_in(self):
        return self.arcs[1] if self.sign > 0 else self.arcs[3]

    @property
    def over_out(self):
        return self.arcs[3] if self.sign > 0 else self.arcs[1]


class PDCode:
    """Crossing list plus the partition of edges into component cycles."""

    __slots__ = ("crossings", "components")

    def __init__(self, crossings: Iterable, components: Iterable[Sequence[int]]):
        xs = tuple(c if isinstance(c, Crossing) else Crossing(tuple(c[0]), c[1])
                   for c in crossings)
        comps = tuple(tuple(c) for c in components)
        self._validate(xs, comps)
        object.__setattr__(self, "crossings", xs)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("PDCode is immutable")

    @staticmethod
    def _validate(xs, comps):
        declared = [e for comp in comps for e in comp]
        if len(set(declared)) != len(declared):
            raise PDCodeError("an edge label appears in two components")
        declared_set = set(declared)
        counts: dict[int, int] = {}
        for x in xs:
            for e in x.arcs:
                if e not in declared_set:
                    raise PDCodeError(f"edge {e} used by a crossing but not "
                                      "listed in any component")
                counts[e] = counts.get(e, 0) + 1
        for e, k in counts.items():
            if k != 2:
                raise PDCodeError(f"edge {e} appears {k} times in crossings, "
                                  "expected exactly 2")
        succ: dict[int, int] = {}

        def set_succ(e, f):
            if e in succ:
                raise PDCodeError(f"edge {e} leaves two different crossings")
            succ[e] = f

        for x in xs:
            set_succ(x.under_in, x.under_out)
            set_succ(x.over_in, x.over_out)
        for comp in comps:
            if not comp:
                raise PDCodeError("empty component")
            crossing_edges = [e for e in comp if e in counts]
            if not crossing_edges:
                if len(comp) != 1:
                    raise PDCodeError(
                        f"crossingless component {comp} must be a single edge")
                continue
            if len(crossing_edges) != len(comp):
                raise PDCodeError(f"component {comp} mixes crossing and "
                                  "crossingless edges")
            for k, e in enumerate(comp):
                f = comp[(k + 1) % len(comp)]
                if succ.get(e) != f:
                    raise PDCodeError(
                        f"component cycle {comp} does not close: edge {e} is "
                        f"followed by {succ.get(e)}, not {f}")

    # -- arcs -----------------------------------------------------------------

    def arc_classes(self) -> dict[int, int]:
        """Map each edge to its Wirtinger arc, named by the least edge in the
        arc (edges fuse when the strand passes over a crossing)."""
        parent = {e: e for comp in self.components for e in comp}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        for x in self.crossings:
            a, b = find(x.over_in), find(x.over_out)
            if a != b:
                parent[max(a, b)] = min(a, b)
        return {e: find(e) for e in parent}

    def mirror(self) -> "PDCode":
        """The mirror image: every crossing changed.  The old over-strand
        becomes the under-strand, so each edge tuple is rotated to start at
        the old incoming over-edge, and every sign flips."""
        return PDCode([Crossing(x.arcs[1:] + x.arcs[:1] if x.sign > 0
                                else x.arcs[3:] + x.arcs[:3], -x.sign)
                       for x in self.crossings], self.components)

    # -- linking data ----------------------------------------------------------

    def writhe(self, component: int) -> int:
        """Sum of signs over self-crossings of one component."""
        comp = set(self.components[component])
        return sum(x.sign for x in self.crossings
                   if x.under_in in comp and x.over_in in comp)

    def linking_matrix(self, framings: Sequence[int]) -> IntegerMatrix:
        """Framings on the diagonal; off-diagonal entries are half the signed
        count of crossings between the two components."""
        n = len(self.components)
        if len(framings) != n:
            raise PDCodeError(f"need {n} framings, got {len(framings)}")
        comp_of = {e: k for k, comp in enumerate(self.components) for e in comp}
        m = [[0] * n for _ in range(n)]
        for x in self.crossings:
            cu, co = comp_of[x.under_in], comp_of[x.over_in]
            if cu != co:
                m[cu][co] += x.sign
                m[co][cu] += x.sign
        for i in range(n):
            for j in range(n):
                if i != j:
                    if m[i][j] % 2:
                        raise PDCodeError("odd inter-component crossing count")
                    m[i][j] //= 2
            m[i][i] = int(framings[i])
        return IntegerMatrix(m)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"crossings": [{"arcs": list(x.arcs), "sign": x.sign}
                              for x in self.crossings],
                "components": [list(c) for c in self.components]}

    @classmethod
    def from_json(cls, data: dict) -> "PDCode":
        try:
            xs = [(tuple(c["arcs"]), c["sign"]) for c in data["crossings"]]
            comps = [tuple(c) for c in data["components"]]
        except (KeyError, TypeError) as exc:
            raise PDCodeError(f"malformed PD JSON: {exc}")
        for labels in [arcs for arcs, _ in xs] + comps:
            if any(type(e) is not int for e in labels):
                raise PDCodeError(f"edge labels must be integers, got {list(labels)}")
        return cls(xs, comps)


def wirtinger_presentation(pd: PDCode) -> Presentation:
    """One generator per arc; per crossing the relation saying the outgoing
    under-arc is the incoming one conjugated by the over-arc."""
    classes = pd.arc_classes()
    gens = sorted(set(classes.values()))
    names = {g: f"a{g}" for g in gens}
    relators = []
    for x in pd.crossings:
        o = names[classes[x.over_in]]
        a = names[classes[x.under_in]]
        c = names[classes[x.under_out]]
        relators.append(Word([(o, x.sign), (a, 1), (o, -x.sign), (c, -1)]))
    return Presentation([names[g] for g in gens], relators)


def meridian_word(pd: PDCode, component: int) -> Word:
    """The distinguished meridian generator: the arc of the component's first
    listed edge."""
    if not 0 <= component < len(pd.components):
        raise PDCodeError(f"no component {component}")
    arc = pd.arc_classes()[pd.components[component][0]]
    return Word([(f"a{arc}", 1)])


def longitude_word(pd: PDCode, component: int, framing: int) -> Word:
    """Read off the over-arcs passed under while traveling the component,
    then correct by meridian^(framing - writhe) so the exponent sum of the
    component's own meridians equals the framing exactly."""
    meridian = meridian_word(pd, component)     # checks the component index
    classes = pd.arc_classes()
    under_at = {x.under_in: x for x in pd.crossings}
    letters = []
    for e in pd.components[component]:
        x = under_at.get(e)
        if x is not None:
            letters.append((f"a{classes[x.over_in]}", x.sign))
    correction = framing - pd.writhe(component)
    return Word(letters) * meridian ** correction


@dataclass(frozen=True)
class SurgeryPresentation:
    """Wirtinger presentation extended by one framed-longitude relator per
    component; the meridians normally generate the surgered manifold's
    fundamental group."""

    presentation: Presentation
    meridian_words: tuple[Word, ...]
    longitude_words: tuple[Word, ...]
    framings: tuple[int, ...]

    def abelianization(self) -> AbelianGroup:
        return abelianization(self.presentation)

    def to_json(self) -> dict:
        return {"presentation": self.presentation.to_json(),
                "meridians": [w.to_text() for w in self.meridian_words],
                "longitudes": [w.to_text() for w in self.longitude_words],
                "framings": list(self.framings)}


def surgery_presentation(pd: PDCode, framings: Sequence[int]) -> SurgeryPresentation:
    """Presentation of the manifold obtained by integral surgery with the
    given framings, one per component."""
    n = len(pd.components)
    if len(framings) != n:
        raise PDCodeError(f"need {n} framings for {n} components, "
                          f"got {len(framings)}")
    base = wirtinger_presentation(pd)
    longitudes = tuple(longitude_word(pd, c, framings[c]) for c in range(n))
    meridians = tuple(meridian_word(pd, c) for c in range(n))
    full = Presentation(base.generators, base.relators + longitudes)
    return SurgeryPresentation(full, meridians, longitudes, tuple(framings))


def connected_sum(a: PDCode, b: PDCode) -> PDCode:
    """Connected sum of two oriented knot diagrams, cut at the first listed
    edge e of ``a`` and f of ``b`` (``b``'s labels are shifted past
    ``a``'s): the strand arriving along e goes on into ``b`` where f did,
    and the strand arriving along f goes on into ``a`` where e did."""
    for pd in (a, b):
        if len(pd.components) != 1:
            raise PDCodeError(f"connected_sum joins two knots, got a "
                              f"{len(pd.components)}-component link")
    if not b.crossings:
        return a
    if not a.crossings:
        return b
    shift = max(a.components[0]) - min(b.components[0]) + 1
    e, f = a.components[0][0], b.components[0][0] + shift

    def rejoin(x: Crossing, offset: int, old: int, new: int) -> Crossing:
        # only the position where ``old`` comes in changes
        incoming = (0, 1 if x.sign > 0 else 3)
        return Crossing(tuple(new if k in incoming and label + offset == old
                              else label + offset
                              for k, label in enumerate(x.arcs)), x.sign)

    crossings = ([rejoin(x, 0, e, f) for x in a.crossings]
                 + [rejoin(x, shift, f, e) for x in b.crossings])
    rest_a = list(a.components[0][1:])
    rest_b = [label + shift for label in b.components[0][1:]]
    return PDCode(crossings, [[e] + rest_b + [f] + rest_a])


# -- standard small diagrams --------------------------------------------------

def unknot_pd() -> PDCode:
    return PDCode([], [[1]])


def hopf_link_pd() -> PDCode:
    """Positive Hopf link (linking number +1)."""
    return PDCode([((1, 4, 2, 3), 1), ((3, 2, 4, 1), 1)], [[1, 2], [3, 4]])


def trefoil_pd() -> PDCode:
    """Right-handed trefoil, writhe +3."""
    return PDCode([((1, 4, 2, 5), 1), ((5, 2, 6, 3), 1), ((3, 6, 4, 1), 1)],
                  [[1, 2, 3, 4, 5, 6]])


def square_knot_pd() -> PDCode:
    """Square knot: the right-handed trefoil summed with its mirror,
    writhe 0."""
    return connected_sum(trefoil_pd(), trefoil_pd().mirror())


def granny_knot_pd() -> PDCode:
    """Granny knot: two right-handed trefoils summed, writhe +6."""
    return connected_sum(trefoil_pd(), trefoil_pd())
