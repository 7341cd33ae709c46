import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from kirbycalc.certify import (AbelianGroup, abelianization, h1_from_matrix,
                               todd_coxeter)
from kirbycalc.presentations import Presentation, tietze_simplify
from kirbycalc.wirtinger import (Crossing, PDCode, PDCodeError, connected_sum,
                                 granny_knot_pd, hopf_link_pd, longitude_word,
                                 meridian_word, square_knot_pd,
                                 surgery_presentation, trefoil_pd, unknot_pd,
                                 wirtinger_presentation)
from kirbycalc.words import Word


def relabel(pd, mapping):
    """The crossings and components of ``pd`` with each label mapped."""
    return ([(tuple(mapping[e] for e in x.arcs), x.sign) for x in pd.crossings],
            [[mapping[e] for e in comp] for comp in pd.components])


@st.composite
def pd_inputs(draw):
    """A disjoint union of standard diagrams under a random labelling, as
    constructor input; one label may be swapped everywhere for a string or
    float of equal value, or for a bool.  Returns the crossings (as tuples
    or Crossing instances), the components and whether a label was
    swapped."""
    pieces = draw(st.lists(st.sampled_from(
        (unknot_pd(), hopf_link_pd(), trefoil_pd(), trefoil_pd().mirror(),
         square_knot_pd(), granny_knot_pd())), min_size=1, max_size=3))
    crossings, components = [], []
    for piece in pieces:
        shift = 1 + max((e for comp in components for e in comp), default=0)
        xs, comps = relabel(piece, {e: e + shift for comp in piece.components
                                    for e in comp})
        crossings += xs
        components += comps
    labels = sorted(e for comp in components for e in comp)
    # no fresh label is 0 or 1, so a bool stands for no other label
    fresh = draw(st.lists(st.integers(2, 10**9) | st.integers(-10**9, -1),
                          min_size=len(labels), max_size=len(labels),
                          unique=True))
    mapping = dict(zip(labels, fresh))
    poison = draw(st.sampled_from((None, None, str, float, bool)))
    if poison is not None:
        target = draw(st.sampled_from(labels))
        mapping[target] = (draw(st.booleans()) if poison is bool
                           else poison(mapping[target]))
    crossings, components = relabel(PDCode(crossings, components), mapping)
    if draw(st.booleans()):
        try:
            crossings = [Crossing(arcs, sign) for arcs, sign in crossings]
        except PDCodeError:
            assert poison is not None
    return crossings, components, poison is not None


class TestPDValidation:
    def test_edge_used_once_rejected(self):
        with pytest.raises(PDCodeError) as err:
            PDCode([((1, 2, 3, 4), 1)], [[1, 3], [2, 4]])
        assert "appears 1" in str(err.value)

    def test_unlisted_edge_rejected(self):
        with pytest.raises(PDCodeError):
            PDCode([((1, 4, 2, 3), 1), ((3, 2, 4, 1), 1)], [[1, 2]])

    def test_cycle_must_close(self):
        with pytest.raises(PDCodeError) as err:
            PDCode([((1, 4, 2, 3), 1), ((3, 2, 4, 1), 1)], [[1, 4], [2, 3]])
        assert "does not close" in str(err.value)

    def test_rotated_cycle_is_accepted(self):
        PDCode([((1, 4, 2, 3), 1), ((3, 2, 4, 1), 1)], [[2, 1], [4, 3]])

    def test_crossingless_component_must_be_single_edge(self):
        with pytest.raises(PDCodeError):
            PDCode([], [[1, 2]])

    def test_bad_sign(self):
        with pytest.raises(PDCodeError):
            PDCode([((1, 4, 2, 3), 2)], [[1, 2], [3, 4]])

    @pytest.mark.parametrize("data", [
        {"crossings": [], "components": 5},
        {"crossings": [], "components": [5]},
        {"crossings": [], "components": [["1"]]},
        {"crossings": [], "components": [[1.5]]},
        {"crossings": [{"arcs": [1, 4, 2, "3"], "sign": 1},
                       {"arcs": [3, 2, 4, 1], "sign": 1}],
         "components": [[1, 2], [3, 4]]},
        {"crossings": [{"arcs": [1, 4, 2, 3], "sign": True},
                       {"arcs": [3, 2, 4, 1], "sign": 1}],
         "components": [[1, 2], [3, 4]]},
        {"crossings": 5, "components": [[1]]},
        {"crossings": [5], "components": [[1]]},
        {"components": [[1]]},
        [],
    ])
    def test_from_json_rejects_malformed_records(self, data):
        with pytest.raises(PDCodeError):
            PDCode.from_json(data)

    @pytest.mark.parametrize("data, message", [
        ({"crossings": 5, "components": [[1]]},
         "PD code field 'crossings' must be a list"),
        ({"crossings": [], "components": {"a": 1}},
         "PD code field 'components' must be a list"),
        ({"components": [[1]]}, "PD code JSON missing field: 'crossings'"),
        ({"crossings": []}, "PD code JSON missing field: 'components'"),
        ({"crossings": [[1]], "components": [[1]]},
         "a crossing is a JSON object, got list"),
        ({"crossings": [{"sign": 1}], "components": [[1]]},
         "crossing JSON missing field: 'arcs'"),
        ({"crossings": [{"arcs": 5, "sign": 1}], "components": [[1]]},
         "crossing field 'arcs' must be a list"),
        ({"crossings": [{"arcs": [1, 2, 1, 2]}], "components": [[1, 2]]},
         "crossing JSON missing field: 'sign'"),
        ({"crossings": [], "components": [5]},
         "a component is a list of edge labels, got int"),
    ])
    def test_from_json_names_the_field(self, data, message):
        # a missing field and a field of the wrong type each say which
        with pytest.raises(PDCodeError, match=f"^{re.escape(message)}$"):
            PDCode.from_json(data)

    @pytest.mark.parametrize("data, kind", [([1, 2], "list"), ("x", "str")])
    def test_json_top_level_must_be_an_object(self, data, kind):
        with pytest.raises(PDCodeError,
                           match=f"^a PD code is a JSON object, got {kind}$"):
            PDCode.from_json(data)

    def test_json_roundtrip(self):
        pd = trefoil_pd()
        data = json.loads(json.dumps(pd.to_json()))
        back = PDCode.from_json(data)
        assert back.crossings == pd.crossings
        assert back.components == pd.components

    def test_crossing_arcs_are_a_tuple(self):
        # arcs given as a list are stored as a tuple: the crossing hashes
        # and equals the one given the same labels as a tuple
        listed = Crossing([1, 4, 2, 3], 1)
        assert listed.arcs == (1, 4, 2, 3)
        assert listed == Crossing((1, 4, 2, 3), 1)
        assert hash(listed) == hash(Crossing((1, 4, 2, 3), 1))
        assert listed != Crossing((1, 4, 2, 3), -1)

    def test_pd_codes_compare_by_crossings_and_components(self):
        pd = trefoil_pd()
        back = PDCode.from_json(json.loads(json.dumps(pd.to_json())))
        assert back == pd and hash(back) == hash(pd)
        assert len({pd, back, trefoil_pd()}) == 1
        assert pd != pd.mirror()
        assert pd != pd.to_json()
        # the same link with its components listed in another order is a
        # different code; equality up to relabeling is not attempted
        crossings = [((1, 4, 2, 3), 1), ((3, 2, 4, 1), 1)]
        assert (PDCode(crossings, [[1, 2], [3, 4]])
                != PDCode(crossings, [[3, 4], [1, 2]]))

    @given(pd_inputs())
    @settings(max_examples=200)
    def test_every_accepted_code_round_trips(self, case):
        # the constructor refuses the labels JSON would not carry, so what
        # it accepts reads back as written
        crossings, components, poisoned = case
        try:
            pd = PDCode(crossings, components)
        except PDCodeError as exc:
            assert poisoned, exc
            return
        assert not poisoned
        data = json.loads(json.dumps(pd.to_json()))
        assert PDCode.from_json(data).to_json() == data
        assert PDCode.from_json(data) == pd

    @pytest.mark.parametrize("crossings, components, message", [
        ([((1, 4, 2), 1)], [[1, 2]], "crossing needs 4 integer edge labels, "
         "got (1, 4, 2)"),
        ([((1, 4, 2, 3.0), 1)], [[1, 2], [3, 4]],
         "crossing needs 4 integer edge labels, got (1, 4, 2, 3.0)"),
        ([], [["1"]], "edge labels must be integers, got ['1']"),
        ([], [[1.0]], "edge labels must be integers, got [1.0]"),
        ([], [[True]], "edge labels must be integers, got [True]"),
        ([], [[1], [1]], "an edge label appears in two components"),
        ([((1, 4, 2, 3), 1), ((1, 3, 2, 4), 1)], [[1, 2], [3, 4]],
         "edge 1 leaves two different crossings"),
        ([], [[]], "empty component"),
        ([((1, 4, 2, 3), 1), ((3, 2, 4, 1), 1)], [[1, 2, 5], [3, 4]],
         "component (1, 2, 5) mixes crossing and crossingless edges"),
    ], ids=["three-labels", "float-in-crossing", "str-label", "float-label",
            "bool-label", "shared-label", "edge-leaves-twice", "empty",
            "mixed-component"])
    def test_refusals_name_the_rule(self, crossings, components, message):
        with pytest.raises(PDCodeError, match=f"^{re.escape(message)}$"):
            PDCode(crossings, components)

    def test_odd_inter_component_crossing_count(self):
        # one crossing between two components, each closed by a kink: the
        # code is consistent, but no diagram has it
        pd = PDCode([((1, 4, 2, 5), 1), ((2, 3, 3, 1), 1), ((5, 6, 6, 4), 1)],
                    [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(PDCodeError,
                           match="^odd inter-component crossing count$"):
            pd.linking_matrix([0, 0])


class TestWirtingerPresentation:
    def test_unknot_is_free_of_rank_one(self):
        p = wirtinger_presentation(unknot_pd())
        assert len(p.generators) == 1 and p.relators == ()

    def test_hopf_commuting_conjugate_relation(self):
        p = wirtinger_presentation(hopf_link_pd())
        assert len(p.generators) == 2 and len(p.relators) == 2
        a, b = p.generators
        # both relators say the generators' conjugates commute past each other
        expected = {Word.from_text(f"{b} {a} {b.capitalize()} {a.capitalize()}"),
                    Word.from_text(f"{a} {b} {a.capitalize()} {b.capitalize()}")}
        assert set(p.relators) == expected

    def test_trefoil_simplifies_to_braid_relation(self):
        p = wirtinger_presentation(trefoil_pd())
        assert len(p.generators) == 3 and len(p.relators) == 3
        q = tietze_simplify(p)
        assert len(q.generators) == 2
        assert any(len(r) == 6 for r in q.relators)

    def test_trefoil_group_has_the_right_small_quotient(self):
        # adding a^2 and the braid relators forces the symmetric group S3
        p = wirtinger_presentation(trefoil_pd())
        g = p.generators[0]
        killed = Presentation(p.generators,
                              p.relators + (Word.from_text(f"{g} {g}"),))
        table = todd_coxeter(killed, 1000)
        assert table.closed() and table.order == 6


class TestLongitudes:
    def test_zero_framed_unknot_longitude_empty(self):
        assert longitude_word(unknot_pd(), 0, 0) == Word()

    def test_framed_unknot_longitude_is_meridian_power(self):
        for f in range(-3, 4):
            assert longitude_word(unknot_pd(), 0, f) == \
                meridian_word(unknot_pd(), 0) ** f

    def test_trefoil_writhe_correction(self):
        pd = trefoil_pd()
        assert pd.writhe(0) == 3
        # hand computation: under-passes meet the over-arcs a4, a1, a2 in
        # travel order, multiplied in reverse order, then the meridian (a1)
        # to the power 0 - 3
        assert longitude_word(pd, 0, 0).to_text() == "a2 a1 a4 A1 A1 A1"
        assert sum(longitude_word(pd, 0, 0).exponent_sum(g)
                   for g in wirtinger_presentation(pd).generators) == 0

    def test_exponent_sum_equals_framing(self):
        for pd, comps in ((unknot_pd(), 1), (hopf_link_pd(), 2),
                          (trefoil_pd(), 1)):
            gens_by_comp = []
            classes = pd.arc_classes()
            for comp in pd.components:
                gens_by_comp.append({f"a{classes[e]}" for e in comp})
            for c in range(comps):
                for f in range(-3, 4):
                    lw = longitude_word(pd, c, f)
                    own = sum(lw.exponent_sum(g) for g in gens_by_comp[c])
                    assert own == f

    def test_unknown_component_rejected(self):
        with pytest.raises(PDCodeError):
            longitude_word(unknot_pd(), 3, 0)

    @pytest.mark.parametrize("framing", [0.5, True, "1"])
    def test_framing_is_an_int(self, framing):
        # 0.5 and "1" would fail inside Word.__pow__, and True read as 1
        with pytest.raises(PDCodeError, match=(
                f"^framing must be an integer, got {re.escape(repr(framing))}$")):
            longitude_word(trefoil_pd(), 0, framing)

    @pytest.mark.parametrize("component, message", [
        (-1, "component index must be an integer >= 0, got -1"),
        (True, "component index must be an integer >= 0, got True"),
        (2, "component index 2 out of range for 2 components")],
        ids=["negative", "bool", "past-the-end"])
    @pytest.mark.parametrize("read", ["writhe", "meridian"])
    def test_component_index_is_checked(self, read, component, message):
        pd = hopf_link_pd()
        with pytest.raises(PDCodeError, match=f"^{re.escape(message)}$"):
            if read == "writhe":
                pd.writhe(component)
            else:
                meridian_word(pd, component)

    @pytest.mark.parametrize("group", ["S3", "A4"])
    @pytest.mark.parametrize("pd, component", [
        (trefoil_pd(), 0), (square_knot_pd(), 0), (granny_knot_pd(), 0),
        (hopf_link_pd(), 0), (hopf_link_pd(), 1)],
        ids=["trefoil", "square", "granny", "hopf-0", "hopf-1"])
    def test_longitude_commutes_with_meridian(self, pd, component, group):
        # the longitude is peripheral, so [meridian, longitude] = 1 in
        # every representation.  In S3 an odd product of transpositions is
        # its own reverse, so S3 is blind to the letter order; A4 sees it.
        group = GROUPS[group]
        meridian = meridian_word(pd, component)
        longitude = longitude_word(pd, component, 0)
        homs = list(homomorphisms(wirtinger_presentation(pd), group))
        # the homomorphisms onto one element number |G|; these are more
        assert len(homs) > len(group)
        for images in homs:
            mu, lam = _image(meridian, images), _image(longitude, images)
            assert _compose(mu, lam) == _compose(lam, mu)


class TestSurgery:
    def test_zero_framed_unknot_gives_infinite_cyclic(self):
        sp = surgery_presentation(unknot_pd(), [0])
        ab = sp.abelianization()
        assert ab.rank == 1 and not ab.torsion

    def test_zero_framed_unlink_gives_free_rank_two(self):
        pd = PDCode([], [[1], [2]])
        ab = surgery_presentation(pd, [0, 0]).abelianization()
        assert ab.rank == 2 and not ab.torsion

    def test_zero_framed_hopf_link_trivial_abelianization(self):
        assert surgery_presentation(hopf_link_pd(), [0, 0]).abelianization() \
            .is_trivial()

    def test_framing_count_mismatch(self):
        with pytest.raises(PDCodeError):
            surgery_presentation(hopf_link_pd(), [0])

    def test_framing_count_has_one_message(self):
        messages = set()
        for build in (hopf_link_pd().linking_matrix,
                      lambda framings: surgery_presentation(hopf_link_pd(),
                                                            framings)):
            with pytest.raises(PDCodeError) as err:
                build([0])
            messages.add(str(err.value))
        assert messages == {"need 2 framings for 2 components, got 1"}

    @pytest.mark.parametrize("build", ["linking_matrix", "surgery"])
    @pytest.mark.parametrize("framing", [0.7, 0.5, True, "1"])
    def test_framings_are_ints(self, build, framing):
        # int() would truncate 0.7 to 0 and read True as 1
        pd = trefoil_pd()
        with pytest.raises(PDCodeError, match=(
                f"^framing must be an integer, got {re.escape(repr(framing))}$")):
            if build == "linking_matrix":
                pd.linking_matrix([framing])
            else:
                surgery_presentation(pd, [framing])

    def test_abelianization_matches_linking_matrix(self):
        fixtures = ((unknot_pd(), 1), (hopf_link_pd(), 2), (trefoil_pd(), 1))
        for pd, ncomp in fixtures:
            for framings in itertools.product(range(-2, 3), repeat=ncomp):
                got = surgery_presentation(pd, list(framings)).abelianization()
                want = h1_from_matrix(pd.linking_matrix(list(framings)))
                assert (got.rank, got.torsion) == (want.rank, want.torsion)

    @pytest.mark.parametrize("framing, order, defined", [
        (1, 120, 233), (5, 5, 43), (7, 7, 126)])
    def test_trefoil_surgery_orders(self, framing, order, defined):
        # +1 gives the Poincare homology sphere, whose fundamental group is
        # the binary icosahedral group; +5 and +7 give lens spaces
        table = todd_coxeter(
            surgery_presentation(trefoil_pd(), [framing]).presentation, 10_000)
        assert (table.status, table.order, table.defined) == \
            ("closed", order, defined)

    def test_minus_one_trefoil_surgery_is_infinite(self):
        # -1 gives the Brieskorn sphere of type (2, 3, 7) up to orientation,
        # whose fundamental group is infinite: no budget closes it
        table = todd_coxeter(
            surgery_presentation(trefoil_pd(), [-1]).presentation, 2_000)
        assert table.status == "budget"

    def test_meridians_normally_generate(self):
        # free-abelianization fixtures: adding the meridians must kill the
        # whole group, certified by coset enumeration closing at order 1
        cases = ((unknot_pd(), [0]), (hopf_link_pd(), [0, 0]),
                 (trefoil_pd(), [0]), (PDCode([], [[1], [2]]), [0, 0]))
        for pd, framings in cases:
            sp = surgery_presentation(pd, framings)
            killed = Presentation(sp.presentation.generators,
                                  sp.presentation.relators + sp.meridian_words)
            table = todd_coxeter(killed, 10_000)
            assert table.closed() and table.order == 1


class TestLinkingMatrix:
    def test_hopf_positive(self):
        assert hopf_link_pd().linking_matrix([0, 0]).entries == ((0, 1), (1, 0))

    def test_framings_on_diagonal(self):
        mat = hopf_link_pd().linking_matrix([-2, 5])
        assert mat.entries == ((-2, 1), (1, 5))

    def test_trefoil_is_a_knot(self):
        assert trefoil_pd().linking_matrix([7]).entries == ((7,),)


def fox_colorings(pd: PDCode, p: int = 3) -> int:
    """Count Fox p-colorings of the arcs by brute force: at each crossing
    twice the over-arc's color is the sum of the two under-arcs' colors."""
    classes = pd.arc_classes()
    arcs = sorted(set(classes.values()))
    count = 0
    for colors in itertools.product(range(p), repeat=len(arcs)):
        color = dict(zip(arcs, colors))
        if all((2 * color[classes[x.over_in]] - color[classes[x.under_in]]
                - color[classes[x.under_out]]) % p == 0 for x in pd.crossings):
            count += 1
    return count


def _even(p) -> bool:
    return sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0


# permutation groups, the identity first
GROUPS = {"S3": tuple(itertools.permutations(range(3))),
          "A4": tuple(filter(_even, itertools.permutations(range(4))))}


def _compose(p, q):
    """The permutation p after q."""
    return tuple(p[i] for i in q)


def _inverse(p):
    return tuple(p.index(i) for i in range(len(p)))


def _image(word, images):
    """The permutation a word maps to, given the images of its generators."""
    out = tuple(range(len(next(iter(images.values())))))
    for symbol, sign in word:
        g = images[symbol]
        out = _compose(out, g if sign > 0 else _inverse(g))
    return out


def homomorphisms(p: Presentation, group):
    """Every homomorphism from the group of ``p`` to the permutation group
    ``group``, as a dict from generator to permutation, by backtracking over
    the generators in order; a relator is checked once all its generators
    have images."""
    identity = group[0]
    ready = [[r for r in p.relators if r.symbols <= set(p.generators[:k + 1])
              and not r.symbols <= set(p.generators[:k])]
             for k in range(len(p.generators))]

    def extend(images, k):
        if k == len(p.generators):
            yield dict(images)
            return
        for g in group:
            images[p.generators[k]] = g
            if all(_image(r, images) == identity for r in ready[k]):
                yield from extend(images, k + 1)
        del images[p.generators[k]]

    yield from extend({}, 0)


class TestMirrorAndConnectedSum:
    def test_mirror_changes_signs_and_is_an_involution(self):
        assert trefoil_pd().mirror().writhe(0) == -3
        assert hopf_link_pd().mirror().linking_matrix([0, 0]).entries == \
            ((0, -1), (-1, 0))
        assert trefoil_pd().mirror().mirror().to_json() == trefoil_pd().to_json()

    def test_unknot_is_the_unit(self):
        assert connected_sum(trefoil_pd(), unknot_pd()).to_json() == \
            trefoil_pd().to_json()
        assert connected_sum(unknot_pd(), trefoil_pd()).to_json() == \
            trefoil_pd().to_json()

    def test_labels_of_the_second_summand_are_moved_apart(self):
        # a trefoil labelled -6..-1 would collide with a shift of 6
        shifted = PDCode([(tuple(e - 7 for e in x.arcs), x.sign)
                          for x in trefoil_pd().crossings],
                         [range(-6, 0)])
        pd = connected_sum(trefoil_pd(), shifted)
        assert pd.writhe(0) == 6 and fox_colorings(pd) == 27

    def test_rejects_links(self):
        with pytest.raises(PDCodeError):
            connected_sum(trefoil_pd(), hopf_link_pd())

    @pytest.mark.parametrize("build, writhe", [(square_knot_pd, 0),
                                               (granny_knot_pd, 6)],
                             ids=["square", "granny"])
    def test_square_and_granny_knots(self, build, writhe):
        pd = build()
        assert len(pd.components) == 1 and len(pd.crossings) == 6
        assert pd.writhe(0) == writhe
        assert abelianization(wirtinger_presentation(pd)) == AbelianGroup(1)
        assert surgery_presentation(pd, [0]).abelianization() == AbelianGroup(1)
        # a sum of two trefoils: 3^3 Fox 3-colorings, against the
        # trefoil's 3^2 and the unknot's 3
        assert fox_colorings(pd) == 27
        # the meridian normally generates the knot group
        sp = surgery_presentation(pd, [0])
        killed = Presentation(sp.presentation.generators,
                              sp.presentation.relators + sp.meridian_words)
        assert todd_coxeter(killed, 10_000).order == 1

    def test_fox_colorings_of_the_summands(self):
        assert fox_colorings(unknot_pd()) == 3
        assert fox_colorings(trefoil_pd()) == 9
        assert fox_colorings(trefoil_pd().mirror()) == 9

