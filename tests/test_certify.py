import dataclasses
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from kirbycalc.certify import (AbelianGroup, IntegerMatrix, MatrixError,
                               abelianization, certification_report, exponent_matrix,
                               h1_from_matrix, smith_normal_form,
                               todd_coxeter, verify_coset_table)
from kirbycalc.framedlinks import PLAIN, Component, FramedLinkModel
from kirbycalc.presentations import (BalancedPresentation, Presentation,
                                     PresentationError, ac_conjugate,
                                     ac_invert, ac_multiply, ak_presentation)
from kirbycalc.words import UnknownGeneratorError, Word

from oracles import invariant_factors, ref_smith_normal_form, ref_todd_coxeter


class TestExponentMatrix:
    def test_family_member(self):
        assert exponent_matrix(ak_presentation(2, "y x")).entries == ((1, -1), (3, -2))

    def test_identity(self):
        p = BalancedPresentation(("x", "y"), ("x", "y"))
        assert exponent_matrix(p).entries == ((1, 0), (0, 1))

    def test_empty_relator_zero_row(self):
        p = BalancedPresentation(("x",), ("",))
        assert exponent_matrix(p).entries == ((0,),)


def check_snf(mat):
    result = smith_normal_form(mat)
    n = min(mat.rows, mat.cols)
    assert (result.left * mat * result.right
            == result.diagonal_matrix(mat.rows, mat.cols))
    assert abs(result.left.det()) == 1
    assert abs(result.right.det()) == 1
    for a, b in zip(result.diagonal, result.diagonal[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert all(d >= 0 for d in result.diagonal)
    assert len(result.diagonal) == n
    return result


class TestSmithNormalForm:
    def test_permutation_matrix(self):
        assert check_snf(IntegerMatrix([[0, 1], [1, 0]])).diagonal == (1, 1)

    def test_brute_force_oracle_example(self):
        assert check_snf(IntegerMatrix([[2, 0], [0, 3]])).diagonal == (1, 6)

    def test_zero_matrix(self):
        assert check_snf(IntegerMatrix([[0, 0], [0, 0]])).diagonal == (0, 0)

    def test_random_against_minor_gcd_oracle(self):
        rng = random.Random(4)
        for _ in range(60):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            mat = IntegerMatrix([[rng.randrange(-6, 7) for _ in range(cols)]
                                 for _ in range(rows)])
            result = check_snf(mat)
            assert result.diagonal == invariant_factors(mat.entries)

    def test_preserves_square_determinant(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randrange(1, 5)
            mat = IntegerMatrix([[rng.randrange(-5, 6) for _ in range(n)]
                                 for _ in range(n)])
            result = check_snf(mat)
            prod = 1
            for d in result.diagonal:
                prod *= d
            assert prod == abs(mat.det())


@st.composite
def small_matrices(draw):
    """0-6 rows by 0-6 columns, entries in [-6, 6], often zero.  A matrix
    with no rows is IntegerMatrix([]), which is 0 x 0, so 0 x k is drawn as
    0 x 0; k x 0 is k empty rows."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    return IntegerMatrix([[draw(entry) for _ in range(cols)]
                          for _ in range(rows)])


def _chain_linkings(rng, k, slides):
    """Linking matrices of a chain of k unknots, each linking the next once,
    framings +-2..4, before and after random handle slides."""
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        m[i][i] = rng.choice((-4, -3, -2, 2, 3, 4))
        if i + 1 < k:
            m[i][i + 1] = m[i + 1][i] = 1
    model = FramedLinkModel([Component(PLAIN, m[i][i], True)
                             for i in range(k)], m)
    before = IntegerMatrix(model.linking)
    for _ in range(slides):
        u, v = rng.sample(range(k), 2)
        model = model.slide(u, v, rng.choice((1, -1)))
    return before, IntegerMatrix(model.linking)


class TestSmithNormalFormAgainstReference:
    """The one-augmented-matrix elimination gives the same SmithNormalForm,
    field for field and transforms included, as the three-matrix
    implementation it replaced."""

    @staticmethod
    def _same_as_reference(mat):
        got, ref = check_snf(mat), ref_smith_normal_form(mat)
        assert got.diagonal == ref.diagonal
        assert got.left == ref.left
        assert got.right == ref.right

    @given(small_matrices())
    @settings(max_examples=300, deadline=None)
    def test_small_matrices(self, mat):
        self._same_as_reference(mat)

    @pytest.mark.parametrize("entries", [
        [], [[]], [[], [], []], [[0] * 5] * 2, [[0] * 2] * 5, [[0]],
    ], ids=["0x0", "1x0", "3x0", "zero-2x5", "zero-5x2", "zero-1x1"])
    def test_empty_and_zero(self, entries):
        self._same_as_reference(IntegerMatrix(entries))

    @pytest.mark.parametrize("k", [15, 20, 25, 30])
    def test_kirby_chain_matrices(self, k):
        # five slides, as in a perfbench certify-heavy Kirby script; a few
        # dozen can grow the transforms' entries to 10^5 bits and more
        for mat in _chain_linkings(random.Random(k), k, slides=5):
            self._same_as_reference(mat)


class TestH1:
    def test_zero_matrix_free_rank_two(self):
        assert h1_from_matrix(IntegerMatrix([[0, 0], [0, 0]])) == AbelianGroup(2)

    def test_hopf_link_matrix_trivial(self):
        assert h1_from_matrix(IntegerMatrix([[0, 1], [1, 0]])).is_trivial()

    def test_family_members_trivial(self):
        for n in range(0, 11):
            mat = exponent_matrix(ak_presentation(n, "y x"))
            assert h1_from_matrix(mat).is_trivial()

    def test_rejects_non_square(self):
        with pytest.raises(MatrixError):
            h1_from_matrix(IntegerMatrix([[1, 2, 3]]))

    def test_empty_matrix(self):
        assert h1_from_matrix(IntegerMatrix([])) == AbelianGroup(0)

    def test_torsion(self):
        assert h1_from_matrix(IntegerMatrix([[2, 0], [0, 3]])) == \
            AbelianGroup(0, (6,))


class TestCosetEnumeration:
    def test_single_relator_generator(self):
        p = Presentation(("x",), ("x",))
        table = todd_coxeter(p, 100)
        assert table.closed() and table.order == 1
        assert verify_coset_table(table, p)

    def test_cyclic_group_of_order_three(self):
        p = Presentation(("x",), ("x x x",))
        table = todd_coxeter(p, 100)
        assert table.order == 3
        assert verify_coset_table(table, p)

    def test_family_base_member(self):
        p = ak_presentation(0, "y x")
        table = todd_coxeter(p, 10_000)
        assert table.closed() and table.order == 1
        assert verify_coset_table(table, p)

    def test_budget_is_a_status_not_an_error(self):
        p = Presentation(("x", "y"), ("y",))     # presents Z, never closes
        table = todd_coxeter(p, 50)
        assert table.status == "budget"
        assert not table.closed()
        assert table.defined >= 50
        with pytest.raises(ValueError):
            verify_coset_table(table, p)

    def test_deterministic(self):
        p = ak_presentation(1, "y x")
        a = todd_coxeter(p, 10_000)
        b = todd_coxeter(p, 10_000)
        assert (a.order, a.defined, a.table) == (b.order, b.defined, b.table)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            todd_coxeter(Presentation(("x",), ("x",)), 0)

    @pytest.mark.parametrize("budget", [True, 2.5, 100.0])
    def test_budget_is_an_int(self, budget):
        with pytest.raises(ValueError, match="max_cosets must be an integer"):
            todd_coxeter(Presentation(("x",), ("x",)), budget)
        with pytest.raises(ValueError, match="max_cosets must be an integer"):
            certification_report(ak_presentation(2), budget)

    def test_quaternion_order_eight(self):
        p = Presentation(("a", "b"), ("a a a a", "a a B B", "B a b a"))
        table = todd_coxeter(p, 1000)
        assert table.order == 8
        assert verify_coset_table(table, p)


def _same_as_reference(p, budget):
    # dataclass equality: status, table, order, live, defined and generators
    got = todd_coxeter(p, budget)
    assert got == ref_todd_coxeter(p, budget)
    return got


@st.composite
def small_presentations(draw):
    gens = ("x", "y", "z")[:draw(st.integers(1, 3))]
    letters = gens + tuple(g.upper() for g in gens)
    rels = draw(st.lists(st.lists(st.sampled_from(letters), max_size=10),
                         max_size=4))
    return Presentation(gens, [" ".join(r) for r in rels])


# finite groups whose enumeration hits many coincidences
FINITE_GROUPS = {
    "A5": (Presentation(("x", "y"), ("x x", "y y y", "x y x y x y x y x y")), 60),
    "S3": (Presentation(("x", "y"), ("x x", "y y y", "x y x y")), 6),
    "Q8": (Presentation(("a", "b"), ("a a a a", "a a B B", "B a b a")), 8),
    "S4": (Presentation(("x", "y", "z"), ("x x", "y y", "z z", "x y x y x y",
                                          "y z y z y z", "x z x z")), 24),
}


class TestToddCoxeterAgainstReference:
    """The flat-table enumerator gives the same CosetTable, field for field,
    as the list-of-rows implementation it replaced."""

    @given(small_presentations(), st.integers(1, 3000))
    @settings(max_examples=200, deadline=None)
    def test_random_presentations(self, p, budget):
        _same_as_reference(p, budget)

    @pytest.mark.parametrize("name", sorted(FINITE_GROUPS))
    def test_finite_groups_at_every_budget_scale(self, name):
        p, order = FINITE_GROUPS[name]
        statuses = set()
        for budget in (1, 2, 3, 5, 8, 13, 20, 40, 70, 100, 300, 1000, 10_000):
            table = _same_as_reference(p, budget)
            statuses.add(table.status)
            if table.closed():
                assert table.order == order
                assert verify_coset_table(table, p)
        assert statuses == {"budget", "closed"}

    def test_family_members(self):
        for n in range(41):
            for w in ("y x", "Y X"):
                table = _same_as_reference(ak_presentation(n, w), 50_000)
                assert table.closed() and table.order == 1


def _cycle_length(table, x):
    """Length of the cycle of letter column ``x`` through coset 0."""
    c, k = table.table[0][x], 1
    while c != 0:
        c, k = table.table[c][x], k + 1
    return k


# <s, t | (st)^2 = s^3 = t^5>: perfect, of order 120, and <s> has index 20
BINARY_ICOSAHEDRAL = Presentation(("s", "t"), ("s t s t S S S", "s s s T T T T T"))


class TestSubgroupEnumeration:
    @pytest.mark.parametrize("name", ["S3", "Q8", "A5"])
    def test_index_times_cyclic_order_is_the_order(self, name):
        p, order = FINITE_GROUPS[name]
        regular = todd_coxeter(p, 10_000)
        for k, g in enumerate(p.generators):
            over = todd_coxeter(p, 10_000, subgroup=(g,))
            assert over.closed() and over.order is None
            assert over.index * _cycle_length(regular, 2 * k) == order
            assert over.subgroup == (Word.from_text(g),)
            assert verify_coset_table(over, p)

    def test_whole_group_has_index_one(self):
        p, _ = FINITE_GROUPS["A5"]
        table = todd_coxeter(p, 1000, subgroup=p.generators)
        assert table.index == 1 and table.order is None

    def test_verify_checks_the_subgroup_fixes_coset_0(self):
        p, _ = FINITE_GROUPS["S3"]
        over_x = todd_coxeter(p, 1000, subgroup=("x",))
        assert over_x.index == 3 and verify_coset_table(over_x, p)
        wrong = dataclasses.replace(over_x, subgroup=(Word.from_text("y"),))
        assert not verify_coset_table(wrong, p)

    def test_subgroup_words_are_checked(self):
        p, _ = FINITE_GROUPS["S3"]
        with pytest.raises(UnknownGeneratorError):
            todd_coxeter(p, 1000, subgroup=("z",))
        with pytest.raises(PresentationError):
            todd_coxeter(p, 1000, subgroup=(5,))

    def test_budget_over_a_subgroup(self):
        p = Presentation(("x", "y"), ("x",))     # presents Z = <y>
        table = todd_coxeter(p, 50, subgroup=("x",))
        assert table.status == "budget" and table.index is None

    def test_family_over_x_closes_at_index_one(self):
        for n in (0, 1, 5, 20):
            for w in ("y x", "Y X"):
                p = ak_presentation(n, w)
                table = todd_coxeter(p, 50_000, subgroup=("x",))
                assert table.index == 1 and verify_coset_table(table, p)
                assert table.defined < todd_coxeter(p, 50_000).defined


class TestEnumerationCounts:
    """coincidences and peak_live are read at each coincidence and at the
    end; they are bounded by the other counts and fixed by the input."""

    @pytest.mark.parametrize("name", sorted(FINITE_GROUPS))
    def test_bounds(self, name):
        p, _ = FINITE_GROUPS[name]
        for subgroup in ((), p.generators[:1]):
            table = todd_coxeter(p, 10_000, subgroup=subgroup)
            # a coset dies only in a coincidence
            assert (table.coincidences == 0) == (table.defined == table.live)
            assert table.live <= table.peak_live <= table.defined
            again = todd_coxeter(p, 10_000, subgroup=subgroup)
            assert ((again.coincidences, again.peak_live)
                    == (table.coincidences, table.peak_live))

    def test_no_coincidence_keeps_every_coset_live(self):
        table = todd_coxeter(Presentation(("x",), ("x x x",)), 100)
        assert table.coincidences == 0
        assert table.peak_live == table.defined == table.live == 3

    def test_budget_table_reports_its_peak(self):
        table = todd_coxeter(Presentation(("x", "y"), ("y",)), 50)
        assert table.peak_live >= table.live and table.peak_live <= 50

    def test_to_json(self):
        data = todd_coxeter(Presentation(("x",), ("x x x",)), 100).to_json()
        assert data == {"status": "closed", "live": 3, "defined": 3,
                        "subgroup": [], "coincidences": 0, "peak_live": 3,
                        "index": 3, "order": 3}


@st.composite
def two_generator_presentations(draw):
    """Two generators, often with power relators, so that many groups are
    finite and both enumerations close."""
    letters = ("x", "y", "X", "Y")
    rels = [" ".join(draw(st.lists(st.sampled_from(letters), min_size=1,
                                   max_size=8)))
            for _ in range(draw(st.integers(1, 3)))]
    for g in ("x", "y"):
        k = draw(st.integers(0, 5))
        if k:
            rels.append(" ".join([g] * k))
    return Presentation(("x", "y"), rels)


class TestCertificationReport:
    def test_perfect_group_order_is_not_the_index_of_x(self):
        # <s> has index 20, so the report must fall back to the order
        assert abelianization(BINARY_ICOSAHEDRAL).is_trivial()
        assert todd_coxeter(BINARY_ICOSAHEDRAL, 10_000, subgroup=("s",)).index == 20
        coset = certification_report(BINARY_ICOSAHEDRAL, 10_000)["coset"]
        assert coset["status"] == "closed"
        assert coset["order"] == 120
        assert coset["verified"] is True
        assert coset["subgroup"] == []

    def test_trivial_group_certified_over_x(self):
        coset = certification_report(ak_presentation(3, "y x"), 10_000)["coset"]
        assert coset["subgroup"] == ["x"]
        assert (coset["status"], coset["index"], coset["order"]) == ("closed", 1, 1)
        assert coset["verified"] is True

    def test_nontrivial_abelianization_enumerates_the_order(self):
        p, order = FINITE_GROUPS["S3"]
        coset = certification_report(p, 1000)["coset"]
        assert (coset["subgroup"], coset["order"]) == ([], order)

    def test_budget_over_x_falls_back(self):
        # the report is then the trivial-subgroup pass, as it always was
        p = ak_presentation(5, "y x")
        assert todd_coxeter(p, 10, subgroup=("x",)).status == "budget"
        report = certification_report(p, 10)
        assert report["coset"] == todd_coxeter(p, 10).to_json()
        assert report["coset"]["status"] == "budget"

    @given(two_generator_presentations(), st.integers(50, 2000))
    @settings(max_examples=150, deadline=None)
    def test_order_one_exactly_when_the_group_is_trivial(self, p, budget):
        regular = todd_coxeter(p, budget)
        over_x = todd_coxeter(p, budget, subgroup=("x",))
        assume(regular.closed() and over_x.closed())
        coset = certification_report(p, budget)["coset"]
        assert coset["verified"] is True
        assert (coset["order"] == 1) == (regular.order == 1)
        if coset["subgroup"]:
            assert coset["order"] == 1
        else:
            assert coset["order"] == regular.order


class TestAcMoveInvariance:
    def test_h1_invariant_under_single_moves(self):
        rng = random.Random(99)
        p = ak_presentation(2, "y x")
        base = h1_from_matrix(exponent_matrix(p))
        for _ in range(80):
            kind = rng.choice(("mul", "inv", "conj"))
            i = rng.randrange(2)
            conj = Word([(rng.choice("xy"), rng.choice((1, -1)))
                         for _ in range(rng.randrange(3))])
            if kind == "mul":
                q = ac_multiply(p, i, 1 - i, conj)
            elif kind == "inv":
                q = ac_invert(p, i)
            else:
                q = ac_conjugate(p, i, conj)
            assert h1_from_matrix(exponent_matrix(q)) == base
            p = q


class TestIntegerMatrix:
    @pytest.mark.parametrize("entries", [
        [[1, 0.5], [0.5, 1]], [[1.0]], [["1"]], [[True, 0], [0, 1]], 5,
        [5], [[None]],
    ], ids=["half", "float-one", "string", "bool", "int", "int-row", "none"])
    def test_rejects_non_integer_entries(self, entries):
        with pytest.raises(MatrixError):
            IntegerMatrix(entries)

    def test_ragged(self):
        with pytest.raises(MatrixError, match="ragged"):
            IntegerMatrix([[1, 2], [3]])


class TestAbelianization:
    def test_no_relators_is_free_abelian(self):
        assert abelianization(Presentation(("x", "y"), ())) == AbelianGroup(2)

    def test_rectangular(self):
        p = Presentation(("x", "y", "z"), ("x x", "x y X Y"))
        assert abelianization(p) == AbelianGroup(2, (2,))


def test_certification_report_shape():
    report = certification_report(ak_presentation(0, "y x"), 10_000)
    assert report["abelianization"] == {"rank": 0, "torsion": []}
    assert report["coset"]["status"] == "closed"
    assert report["coset"]["order"] == 1
    assert report["coset"]["verified"] is True
    assert report["presentation"]["generators"] == ["x", "y"]
