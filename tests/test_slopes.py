from math import gcd

import pytest

from kirbycalc.slopes import (CurveClass, Slope, SlopeError, Z3Class, classify,
                              enumerate_candidates, geometric_intersection,
                              is_candidate, lift_type, parity_class, partition,
                              prop_conditions_report, z3_class)


def all_slopes(max_p, max_q):
    out = [Slope(1, 0)]
    for q in range(1, max_q + 1):
        for p in range(-max_p, max_p + 1):
            if gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return out


class TestSlopeType:
    def test_validation(self):
        with pytest.raises(SlopeError):
            Slope(0, 0)
        with pytest.raises(SlopeError):
            Slope(2, 0)
        with pytest.raises(SlopeError):
            Slope(2, 4)
        with pytest.raises(SlopeError):
            Slope(1, -2)

    @pytest.mark.parametrize("p, q", [(True, 1), (1, True), (1.0, 1), (1, 2.0)])
    def test_terms_are_ints(self, p, q):
        with pytest.raises(SlopeError, match="must be integers"):
            Slope(p, q)

    def test_make_normalizes(self):
        assert Slope.make(2, 4) == Slope(1, 2)
        assert Slope.make(-3, 0) == Slope(1, 0)
        assert Slope.make(1, -2) == Slope(-1, 2)

    def test_from_text(self):
        assert Slope.from_text("1/0") == Slope(1, 0)
        assert Slope.from_text("-3/5") == Slope(-3, 5)
        with pytest.raises(SlopeError):
            Slope.from_text("x")


class TestPunctureModel:
    def test_two_poles_each(self):
        from kirbycalc.slopes import POLES, PUNCTURES
        assert sorted(POLES[b] for b in PUNCTURES) == ["N", "N", "S", "S"]

    def test_left_fiber_pair_is_the_north_pair(self):
        from kirbycalc.slopes import FIBER_LEFT_PAIR, POLES
        assert {POLES[b] for b in FIBER_LEFT_PAIR} == {"N"}

    def test_partition_table_covers_the_three_parities(self):
        from kirbycalc.slopes import PARTITION_BY_PARITY, PUNCTURES
        assert set(PARTITION_BY_PARITY) == {(1, 0), (0, 1), (1, 1)}
        for side1, side2 in PARTITION_BY_PARITY.values():
            assert side1 | side2 == set(PUNCTURES)
            assert len(side1) == len(side2) == 2
            assert "b1" in side1


class TestParityAndPartition:
    def test_parity_examples(self):
        assert parity_class(Slope(1, 0)) == (1, 0)
        assert parity_class(Slope(0, 1)) == (0, 1)
        assert parity_class(Slope(3, 5)) == (1, 1)

    def test_partition_examples(self):
        assert partition(Slope(1, 0)) == (frozenset({"b1", "b2"}),
                                          frozenset({"b3", "b4"}))
        assert partition(Slope(2, 1)) == partition(Slope(0, 1))

    def test_one_north_one_south_for_candidates(self):
        side1, _ = partition(Slope(0, 1))
        assert side1 == frozenset({"b1", "b4"})
        side1, _ = partition(Slope(1, 1))
        assert side1 == frozenset({"b1", "b3"})


class TestZ3AndLift:
    def test_examples(self):
        assert z3_class(Slope(1, 0)) is Z3Class.NONTRIVIAL
        assert z3_class(Slope(0, 1)) is Z3Class.TRIVIAL
        assert lift_type(Slope(1, 0)) is CurveClass.GAMMA
        assert lift_type(Slope(0, 1)) is CurveClass.CANDIDATE
        assert lift_type(Slope(1, 1)) is CurveClass.CANDIDATE

    def test_either_pair_gives_the_same_answer(self):
        from kirbycalc.slopes import POLES
        for s in all_slopes(10, 10):
            side1, side2 = partition(s)
            verdict1 = len({POLES[b] for b in side1}) == 2
            verdict2 = len({POLES[b] for b in side2}) == 2
            assert verdict1 == verdict2
            assert (z3_class(s) is Z3Class.TRIVIAL) == verdict1

    def test_exactly_one_parity_class_is_gamma(self):
        seen = {}
        for s in all_slopes(50, 50):
            seen.setdefault(parity_class(s), set()).add(lift_type(s))
        assert set(seen) == {(1, 0), (0, 1), (1, 1)}
        assert seen[(1, 0)] == {CurveClass.GAMMA}
        assert seen[(0, 1)] == {CurveClass.CANDIDATE}
        assert seen[(1, 1)] == {CurveClass.CANDIDATE}

    def test_three_way_equivalence(self):
        for s in all_slopes(12, 12):
            a = is_candidate(s)
            b = z3_class(s) is Z3Class.TRIVIAL
            side1, side2 = partition(s)
            c = not ({"b1", "b2"} <= side1 or {"b1", "b2"} <= side2)
            assert a == b == c


class TestIntersection:
    def test_examples(self):
        assert geometric_intersection(Slope(0, 1), Slope(1, 0)) == 2
        assert geometric_intersection(Slope(1, 1), Slope(1, 0)) == 2
        assert geometric_intersection(Slope(3, 5), Slope(3, 5)) == 0

    def test_symmetric_and_diagonal(self):
        slopes = all_slopes(6, 6)
        for a in slopes:
            for b in slopes:
                ab = geometric_intersection(a, b)
                assert ab == geometric_intersection(b, a)
                assert (ab == 0) == (a == b)

    def test_shear_invariance(self):
        # T: p/q -> (p+q)/q is a mapping-class action, so it preserves the
        # intersection pairing
        def shear(s):
            return Slope.make(s.p + s.q, s.q)

        for a in all_slopes(5, 5):
            for b in all_slopes(5, 5):
                assert geometric_intersection(shear(a), shear(b)) == \
                    geometric_intersection(a, b)


class TestEnumerate:
    def test_small_values(self):
        assert enumerate_candidates(0) == []
        assert enumerate_candidates(1) == [Slope(-1, 1), Slope(0, 1), Slope(1, 1)]

    @pytest.mark.parametrize("max_q", [1.5, True, "2"])
    def test_max_q_is_an_int(self, max_q):
        with pytest.raises(SlopeError, match="max_q must be an integer"):
            enumerate_candidates(max_q)

    def test_excludes_vertical(self):
        assert Slope(1, 0) not in enumerate_candidates(5)

    def test_no_new_denominator_two_candidates(self):
        assert all(s.q != 2 for s in enumerate_candidates(2))

    def test_strictly_increasing_as_sets(self):
        prev = set()
        for max_q in range(0, 6):
            cur = set(enumerate_candidates(max_q))
            assert prev <= cur
            if max_q >= 1:
                assert prev < cur
            prev = cur

    def test_sorted_and_duplicate_free(self):
        got = enumerate_candidates(7)
        values = [s.value() for s in got]
        assert values == sorted(values)
        assert len(set(got)) == len(got)

    def test_negative_slopes_are_distinct(self):
        got = enumerate_candidates(3)
        assert Slope(1, 3) in got and Slope(-1, 3) in got


class TestConditionReports:
    def test_candidate_satisfies_all(self):
        assert prop_conditions_report(Slope(0, 1)).all_satisfied()
        assert prop_conditions_report(Slope(5, 3)).all_satisfied()

    def test_gamma_fails_only_the_isotopy_condition(self):
        report = prop_conditions_report(Slope(1, 0))
        assert report.in_fiber.satisfied
        assert report.image_disjoint.satisfied
        assert not report.image_not_isotopic.satisfied
        assert report.zero_framing.satisfied

    def test_zero_framing_is_cited_not_computed(self):
        report = prop_conditions_report(Slope(0, 1))
        assert "not computed" in report.zero_framing.note

    def test_classify_record(self):
        record = classify(Slope(1, 0))
        assert record["lift_type"] == "gamma"
        assert record["candidate"] is False
        assert record["parity"] == [1, 0]
