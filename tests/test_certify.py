import random

import pytest
from hypothesis import given, settings, strategies as st

from kirbycalc.certify import (AbelianGroup, IntegerMatrix, MatrixError,
                               abelianization, certification_report, exponent_matrix,
                               h1_from_matrix, smith_normal_form,
                               todd_coxeter, verify_coset_table)
from kirbycalc.presentations import (BalancedPresentation, Presentation,
                                     ac_conjugate, ac_invert, ac_multiply,
                                     ak_presentation)
from kirbycalc.words import Word

from oracles import invariant_factors, ref_todd_coxeter


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
