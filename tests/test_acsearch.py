import itertools
import json
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from kirbycalc.acsearch import (BoundsError, SearchConfig, SearchStats,
                                TraceError, canonical_key, is_trivial_form,
                                replay_trace, search)
from kirbycalc.acsearch import core, kernel
from kirbycalc.acsearch.core import (_conjugates, _expand, _name_moves,
                                     encode_presentation)
from kirbycalc.pipeline import run_pipeline
from kirbycalc.presentations import (BalancedPresentation, ak_presentation,
                                     stabilize)
from kirbycalc.words import decode_word

from oracles import (brute_force_trivializable, ref_canonical_key,
                     ref_conjugators, ref_expand, ref_reduce_word,
                     ref_search_key)

B = BalancedPresentation

encoded_words = st.lists(st.integers(min_value=0, max_value=5), max_size=16)


class TestCanonicalKey:
    def test_relator_order(self):
        assert canonical_key(B(("x", "y"), ("x", "y"))) == \
            canonical_key(B(("x", "y"), ("y", "x")))

    def test_relator_inversion(self):
        assert canonical_key(B(("x", "y"), ("x y", "y"))) == \
            canonical_key(B(("x", "y"), ("Y X", "y")))

    def test_distinct_presentations_distinct_keys(self):
        assert canonical_key(B(("x", "y"), ("x", "y"))) != \
            canonical_key(B(("x", "y"), ("x y", "y")))

    def test_rotation_and_relabeling(self):
        assert canonical_key(B(("x", "y"), ("x y x", "y"))) == \
            canonical_key(B(("x", "y"), ("x x y", "y")))
        assert canonical_key(B(("x", "y"), ("x x y", "y"))) == \
            canonical_key(B(("x", "y"), ("y y x", "x")))

    def test_stable_across_processes(self):
        # pinned bytes: no interpreter-hash dependence allowed
        key = canonical_key(ak_presentation(0, "y x"))
        assert key == canonical_key(ak_presentation(0, "y x"))
        assert isinstance(key, bytes) and key[0] == 2



def _rotated(word, shift):
    k = shift % len(word) if word else 0
    return word[k:] + word[:k]


def _family_word(n, shift):
    """x^(n+1) Y^n, rotated: the long relator of the family."""
    return _rotated(b"\0" * (n + 1) + b"\3" * n, shift)


@st.composite
def key_inputs(draw):
    """1-3 generators and up to 3 bytes relators of 0-300 letters: reduced
    words, unreduced ones, words whose cores cancel completely, and, with
    two generators or more, rotated family words."""
    n_gens = draw(st.integers(min_value=1, max_value=3))
    letters = st.integers(min_value=0, max_value=2 * n_gens - 1)
    words = st.integers(min_value=0, max_value=300).flatmap(
        lambda n: st.lists(letters, min_size=n, max_size=n)).map(bytes)
    relators = [
        words.map(ref_reduce_word),
        words,
        words.map(lambda w: w[:150] + kernel.invert_word(w[:150]))]
    if n_gens >= 2:     # the family word's letter 3 is Y
        relators.append(st.builds(
            _family_word, st.integers(min_value=0, max_value=149),
            st.integers(min_value=0)))
    return draw(st.lists(st.one_of(relators), max_size=3)), n_gens


class TestKeyBytes:
    """The byte-level keys equal the reference tuple implementation."""

    @given(key_inputs())
    @settings(max_examples=150, deadline=None)
    def test_keys_equal_reference(self, case):
        rels, n_gens = case
        key = kernel.search_key(rels, n_gens, {})
        assert key == ref_search_key(rels, n_gens)
        assert kernel.canonical_key(rels, n_gens) == \
            ref_canonical_key(rels, n_gens)
        # a warm memo, holding other relators' columns and these relators'
        # columns at another generator count, gives the same key
        columns = {}
        kernel.search_key([kernel.invert_word(r) for r in rels], n_gens,
                          columns)
        kernel.search_key(rels, n_gens + 1, columns)
        assert kernel.search_key(rels, n_gens, columns) == key

    @pytest.mark.parametrize("rels, n_gens", [
        pytest.param((b"\0\2", b"\3\5\0"), 3, id="three-generators"),
        pytest.param((b"\0" * 128 + b"\3" * 127,), 2, id="relator-255-letters"),
        pytest.param((_family_word(127, 5), b"\4"), 3,
                     id="rotated-relator-255-letters"),
    ])
    def test_edge_cases_match_reference(self, rels, n_gens):
        assert kernel.search_key(rels, n_gens, {}) == \
            ref_search_key(rels, n_gens)
        assert kernel.canonical_key(rels, n_gens) == \
            ref_canonical_key(rels, n_gens)

    def test_many_generators(self):
        # past the cached relabeling tables
        rels = (bytes((0, 4, 9, 14, 3)), bytes((15, 2, 2, 6)))
        assert kernel.search_key(rels, 8, {}) == ref_search_key(rels, 8)
        assert kernel.canonical_key(rels, 8) == ref_canonical_key(rels, 8)

    def test_empty_relator_is_kept(self):
        assert kernel.search_key([], 2, {}) != \
            kernel.search_key([b""], 2, {})
        assert kernel.canonical_key([], 2) != kernel.canonical_key([b""], 2)

    def test_too_many_generators(self, monkeypatch):
        # 0xFF would be a letter; refused at the boundary, before any
        # relabeling
        def no_tables(n_gens):
            raise AssertionError("relabelings enumerated")
        monkeypatch.setattr(kernel, "_relabel_tables", no_tables)
        monkeypatch.setattr(kernel, "_cached_relabel_tables", no_tables)
        gens = tuple(f"g{k}" for k in range(128))
        cfg = SearchConfig(max_total_length=200, max_depth=1)
        for call in (canonical_key, is_trivial_form,
                     lambda p: search(p, cfg)):
            with pytest.raises(ValueError, match="at most 127 generators"):
                call(B(gens, gens))
        # a stabilization would add the 128th generator
        with pytest.raises(ValueError, match="at most 127 generators"):
            search(B(gens[:127], gens[:127]),
                   SearchConfig(max_total_length=200, max_depth=1,
                                stabilizations=1))


class TestLeastRotation:
    @given(st.one_of(
        st.builds(lambda a, k: bytes((a,)) * k,
                  st.integers(min_value=0, max_value=5),
                  st.integers(min_value=0, max_value=40)),
        st.builds(lambda k, s: _rotated(b"\0\2" * k, s),
                  st.integers(min_value=1, max_value=40), st.integers()),
        st.builds(_family_word, st.integers(min_value=0, max_value=60),
                  st.integers()),
        st.lists(st.integers(min_value=0, max_value=5), max_size=60).map(bytes)))
    @settings(max_examples=300)
    def test_is_least_of_all_rotations(self, word):
        least = min((_rotated(word, k) for k in range(len(word))), default=b"")
        assert kernel.least_rotation(word) == least

    def test_examples(self):
        assert kernel.least_rotation(b"\2\2\2") == b"\2\2\2"
        assert kernel.least_rotation(b"\2\0\2\0") == b"\0\2\0\2"
        assert kernel.least_rotation(b"\3\0\0\3\0") == b"\0\0\3\0\3"
        assert kernel.least_rotation(b"") == b""

    @pytest.mark.parametrize("word, least", [
        pytest.param(b"\0\0\1\0\0\2", b"\0\0\1\0\0\2", id="equal-longest-runs"),
        pytest.param(b"\0\0\2\0\0\1", b"\0\0\1\0\0\2",
                     id="equal-longest-runs-second-least"),
        pytest.param(b"\0\0\2\0\0\2\0\0\1", b"\0\0\1\0\0\2\0\0\2",
                     id="three-equal-runs-last-least"),
        pytest.param(b"\0\1\2\0\0", b"\0\0\0\1\2", id="longest-run-wraps"),
        pytest.param(b"\0\1\0\0\2\0", b"\0\0\1\0\0\2",
                     id="wrapping-run-least-of-two"),
        pytest.param(b"\0\2\0\0\0\1", b"\0\0\0\1\0\2",
                     id="longest-run-not-first"),
        pytest.param(b"\5\3\5\3\3\5", b"\3\3\5\5\3\5", id="least-letter-3"),
        pytest.param(b"\1\0", b"\0\1", id="two-letters"),
        pytest.param(b"\0\1", b"\0\1", id="two-letters-least-first"),
        pytest.param(b"\3\3", b"\3\3", id="two-equal-letters"),
    ])
    def test_run_edge_cases(self, word, least):
        assert kernel.least_rotation(word) == least

    @given(st.builds(
        _rotated,
        st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                           st.one_of(st.integers(min_value=1, max_value=3),
                                     st.integers(min_value=1, max_value=12))),
                 min_size=1, max_size=12).map(
            lambda runs: b"".join(kernel.LETTERS[a] * k for a, k in runs)),
        st.integers()))
    @settings(max_examples=300)
    def test_runs_of_random_lengths(self, word):
        # several runs of the least letter, often of equal length, up to 24
        # letters when two runs meet: the binary search over run length and
        # the walk over equal longest runs are exercised
        least = min(_rotated(word, k) for k in range(len(word)))
        assert kernel.least_rotation(word) == least


reduced_words = encoded_words.map(ref_reduce_word)


@st.composite
def join_inputs(draw):
    """Reduced r, s and c (c often empty), where r and s are now and then
    built to cancel partly or fully against c and each other."""
    inv, red = kernel.invert_word, ref_reduce_word
    c = draw(st.one_of(st.just(b""), reduced_words))
    w = draw(reduced_words)
    r = draw(st.one_of(reduced_words, st.just(red(inv(c) + w + c))))
    s = draw(st.one_of(reduced_words, st.just(inv(r)),
                       st.just(red(inv(c) + inv(r) + c)),
                       st.just(red(inv(c) + inv(r) + c + w))))
    return r, s, c


def _suffix_tree(c):
    """The conjugator prefix tree of c's suffixes c[k:], as _conjugators
    lays one out: each entry one letter longer than the one before it."""
    n = len(c)
    return ((b"", None, None),
            *((c[k:], c[k], n - 1 - k) for k in reversed(range(n))))


def _product(r, s, c):
    """r * c * s * c^-1 as _expand builds it: the conjugate t of s by c
    from _conjugates, then r and t cut at their junction.  A set keeps each
    conjugate once, under its first conjugator, so t is looked up by value
    in the set over c's suffixes, where it must be."""
    t = ref_reduce_word(c + s + kernel.invert_word(c))
    assert t in _conjugates(s, _suffix_tree(c))
    k = kernel.junction_cancellation(r, t)
    return r[:len(r) - k] + t[k:]


class TestJoinReduced:
    """The junction-only products equal free reduction of the plain
    concatenation, for freely reduced inputs."""

    @given(join_inputs())
    @settings(max_examples=200)
    def test_matches_plain_reduction(self, case):
        r, s, c = case
        inv, red = kernel.invert_word, ref_reduce_word
        assert kernel.join_reduced(r, s) == red(r + s)
        assert _product(r, s, c) == red(r + c + s + inv(c))
        assert kernel.conjugate_relator(r, c) == \
            kernel.cyclic_core(red(c + r + inv(c)))

    def test_full_cancellation(self):
        r, c = b"\0\2\1", b"\3\4"
        assert kernel.join_reduced(r, kernel.invert_word(r)) == b""
        s = ref_reduce_word(kernel.invert_word(c) + kernel.invert_word(r) + c)
        assert _product(r, s, c) == b""
        assert kernel.conjugate_relator(b"\5\2\0\3\4", c) == b"\0"
        assert _product(b"", b"", b"") == b""


@st.composite
def conjugate_inputs(draw):
    """A generator count of 1-3, a conjugator depth of 0-3 and a freely
    reduced word s over those generators: now and then empty, and now and
    then u * w * u^-1, not cyclically reduced."""
    n = draw(st.integers(min_value=1, max_value=3))
    word = st.lists(st.integers(min_value=0, max_value=2 * n - 1),
                    max_size=8).map(bytes).map(ref_reduce_word)
    u, w = draw(word), draw(word)
    s = draw(st.sampled_from(
        [b"", w, ref_reduce_word(u + w + kernel.invert_word(u))]))
    return n, draw(st.integers(min_value=0, max_value=3)), s


class TestConjugateTree:
    """The conjugator table is a prefix tree in length-lex order, and the
    conjugate sets built down it are the sets of reduced c * s * c^-1, each
    under its first conjugator, in the same order."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_entries_name_their_suffix(self, n, depth):
        table = core._conjugators(n, depth)
        assert [c for c, _, _ in table] == list(ref_conjugators(n, depth))
        assert table[0] == (b"", None, None)
        for c, a, k in table[1:]:
            assert a == c[0] and table[k][0] == c[1:]

    @given(conjugate_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_reduced_conjugates(self, case):
        n, depth, s = case
        table = core._conjugators(n, depth)
        expected = {}
        for c, _, _ in table:
            expected.setdefault(
                ref_reduce_word(c + s + kernel.invert_word(c)), c)
        assert list(_conjugates(s, table).items()) == list(expected.items())


@st.composite
def expand_inputs(draw):
    """A node of 1-4 generators, one freely reduced relator each, whose
    last generator is now and then stabilized (a lone one-letter relator:
    a destabilize child), and a base generator count that now and then
    leaves room for a stabilization."""
    n = draw(st.integers(min_value=1, max_value=4))
    free = n - draw(st.integers(min_value=0, max_value=1))
    word = (st.lists(st.integers(min_value=0, max_value=2 * free - 1),
                     max_size=8).map(bytes).map(ref_reduce_word)
            if free else st.just(b""))
    rels = [draw(word) for _ in range(free)]
    rels += [kernel.LETTERS[2 * g] for g in range(free, n)]
    rels = tuple(draw(st.permutations(rels)))
    return rels, draw(st.integers(min_value=n - 1, max_value=n))


def _check_child_keys(rels, cfg, base_gens):
    """Each child's key, from a memo that holds its parent's columns, equals
    the reference key.  Returns the move kinds and the children."""
    columns = {}
    kernel.search_key(rels, len(rels), columns)
    kinds, children = set(), []
    for move, child in _expand(rels, cfg, base_gens, {}):
        assert kernel.search_key(child, len(child), columns) == \
            ref_search_key(child, len(child))
        kinds.add(move["move"])
        children.append(child)
    return kinds, children


# the benchmark's W1 bounds, with one stabilization so that both kinds of
# generator-count change occur
W1_CFG = SearchConfig(max_total_length=16, max_depth=30, conjugator_depth=2,
                      stabilizations=1)


class TestChildKeys:
    @given(expand_inputs())
    @settings(max_examples=60, deadline=None)
    def test_child_keys_equal_full_keys(self, case):
        rels, base_gens = case
        cfg = SearchConfig(max_total_length=40, max_depth=1,
                           conjugator_depth=1, stabilizations=1)
        _check_child_keys(rels, cfg, base_gens)

    def test_w1_first_two_levels(self):
        root = encode_presentation(ak_presentation(1))
        kinds, level = _check_child_keys(root, W1_CFG, len(root))
        for rels in level:
            kinds |= _check_child_keys(rels, W1_CFG, len(root))[0]
        # no node of these levels has a conjugate child that is the goal
        assert kinds == {"invert", "multiply", "stabilize", "destabilize"}
        # y x Y has cyclic core x, so conjugating it is the goal: the
        # conjugate child is yielded, keyed like the others, and traced
        p = B(("x", "y"), ("y x Y", "y"))
        node = encode_presentation(p)
        assert "conjugate" in _check_child_keys(node, W1_CFG, len(node))[0]
        out = search(p, SearchConfig(max_total_length=4, max_depth=1))
        assert out.status == "trivialized"
        assert out.trace == [{"move": "conjugate", "i": 0, "conj": "x"}]

    @given(expand_inputs())
    @settings(max_examples=30, deadline=None)
    def test_one_memo_across_generator_counts(self, case):
        # as in a search, one memo serves a node and its stabilize and
        # destabilize children, whose relators it may hold at the node's
        # generator count; two levels, so a child's columns are read back
        rels, base_gens = case
        cfg = SearchConfig(max_total_length=40, max_depth=1,
                           conjugator_depth=1, stabilizations=1)
        columns, conjugate_sets = {}, {}
        level = [rels]
        for _ in range(2):
            next_level = []
            for node in level:
                n = len(node)
                assert kernel.search_key(node, n, columns) == \
                    ref_search_key(node, n)
                for _, child in _expand(node, cfg, base_gens, conjugate_sets):
                    m = len(child)
                    assert kernel.search_key(child, m, columns) == \
                        ref_search_key(child, m)
                    if m != n:
                        next_level.append(child)
            level = next_level

    @given(expand_inputs())
    @settings(max_examples=100, deadline=None)
    def test_conjugate_child_has_parent_key(self, case):
        # a conjugation only rotates the cyclic core of its relator, so
        # _expand need not build or key conjugate children
        rels, _ = case
        n = len(rels)
        columns = {}
        key = kernel.search_key(rels, n, columns)
        assert key == ref_search_key(rels, n)
        for i, r in enumerate(rels):
            for a in kernel.LETTERS[:2 * n]:
                child = rels[:i] + (kernel.conjugate_relator(r, a),) \
                    + rels[i + 1:]
                assert kernel.search_key(child, n, columns) == key


def _pruned_reference(rels, cfg, base_gens):
    """ref_expand's children less the ones _expand does not build: conjugate
    children that are not the goal or repeat an earlier child, and multiply
    children that repeat an earlier one with the same i and j.  Each child
    left out is checked to be one that cannot change the search: it repeats
    an earlier child, or it is not the goal and has its parent's key.
    ``ref_expand`` yields (move, slot, child) triples; the children kept are
    projected to the (move, child) pairs that _expand yields."""
    columns = {}
    parent_key = kernel.search_key(rels, len(rels), columns)
    seen, products, kept = set(), set(), []
    for move, _, child in ref_expand(rels, cfg, base_gens):
        trivial = kernel.is_trivial_encoded(child, len(child))
        if move["move"] == "conjugate":
            drop = child in seen or not trivial
        elif move["move"] == "multiply":
            product = (move["i"], move["j"], child)
            drop = product in products
            products.add(product)
        else:
            drop = False
        if drop:
            assert child in seen or (
                not trivial
                and kernel.search_key(child, len(child), columns)
                == parent_key)
        else:
            kept.append((move, child))
        seen.add(child)
    return kept


class TestPrunedExpansion:
    """_expand yields the reference generator's children less only those
    that repeat an earlier child or have their parent's key without being
    the goal, in the same order, so the search's first occurrence of every
    key and of the goal are unchanged."""

    # depth 0 leaves the conjugator tree its root b"" alone; depth 3
    # chains two prefix steps
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @given(case=expand_inputs())
    @settings(max_examples=100, deadline=None)
    def test_matches_pruned_reference(self, depth, case):
        rels, base_gens = case
        # the search expands no trivial node: the root returns at once and
        # a trivial child ends the search at its level
        assume(not kernel.is_trivial_encoded(rels, len(rels)))
        cfg = SearchConfig(max_total_length=40, max_depth=1,
                           conjugator_depth=depth, stabilizations=1)
        expected = _pruned_reference(rels, cfg, base_gens)
        conjugate_sets = {}
        assert list(_expand(rels, cfg, base_gens, conjugate_sets)) == expected
        # a second call finds every conjugate set in the memo
        with mock.patch.object(core, "_conjugates",
                               side_effect=AssertionError("set rebuilt")):
            assert list(_expand(rels, cfg, base_gens, conjugate_sets)) == \
                expected

    def test_w1_first_two_levels(self):
        root = encode_presentation(ak_presentation(1))
        level = [child for _, _, child in ref_expand(root, W1_CFG, len(root))]
        for rels in [root, *level]:
            if not kernel.is_trivial_encoded(rels, len(rels)):
                assert list(_expand(rels, W1_CFG, len(root), {})) == \
                    _pruned_reference(rels, W1_CFG, len(root))


class TestTrivialForm:
    def test_examples(self):
        assert is_trivial_form(B(("x", "y"), ("y", "x")))
        assert not is_trivial_form(B(("x", "y"), ("x", "x")))
        assert not is_trivial_form(B(("x", "y"), ("x y", "y")))
        assert is_trivial_form(B(("x", "y"), ("Y", "x")))


class TestSearch:
    def test_already_trivial(self):
        out = search(B(("x", "y"), ("x", "y")),
                     SearchConfig(max_total_length=2, max_depth=0))
        assert out.status == "trivialized" and out.trace == []

    def test_two_move_case(self):
        p = B(("x", "y"), ("x y", "y"))
        out = search(p, SearchConfig(max_total_length=6, max_depth=2))
        assert out.status == "trivialized"
        assert len(out.trace) <= 2
        assert is_trivial_form(replay_trace(p, out.trace))
        assert brute_force_trivializable(("x", "y"),
                                         [(("x", 1), ("y", 1)), (("y", 1),)],
                                         6, 2)

    def test_family_base_member(self):
        p = ak_presentation(0, "y x")
        out = search(p, SearchConfig(max_total_length=12, max_depth=8,
                                     conjugator_depth=2))
        assert out.status == "trivialized"
        assert is_trivial_form(replay_trace(p, out.trace))
        ak0 = [tuple(r.letters) for r in p.relators]
        assert brute_force_trivializable(("x", "y"), ak0, 12, 8, conj_depth=2)

    def test_bounds_rejection(self):
        p = ak_presentation(0, "y x")
        with pytest.raises(BoundsError):
            search(p, SearchConfig(max_total_length=3, max_depth=2))

    def test_budget_status(self):
        p = ak_presentation(2, "y x")
        out = search(p, SearchConfig(max_total_length=20, max_depth=10,
                                     node_budget=5))
        assert out.status == "budget"
        assert out.stats.nodes_expanded <= 5

    def test_exhausted_is_not_found(self):
        p = B(("x", "y"), ("x y", "y"))
        out = search(p, SearchConfig(max_total_length=3, max_depth=1))
        assert out.status == "exhausted"

    def test_status_independent_of_workers(self):
        p = ak_presentation(0, "y x")
        cfg = dict(max_total_length=12, max_depth=8, conjugator_depth=2)
        outcomes = [search(p, SearchConfig(workers=w, **cfg)) for w in (1, 4)]
        assert len({o.status for o in outcomes}) == 1
        assert len({o.stats.nodes_expanded for o in outcomes}) == 1
        p3 = ak_presentation(3, "y x")
        cfg = dict(max_total_length=15, max_depth=3)
        outcomes = [search(p3, SearchConfig(workers=w, **cfg)) for w in (1, 4)]
        assert len({o.status for o in outcomes}) == 1

    def test_monotone_in_bounds(self):
        p = B(("x", "y"), ("x y", "y"))
        small = SearchConfig(max_total_length=6, max_depth=2)
        assert search(p, small).status == "trivialized"
        for bigger in (SearchConfig(max_total_length=8, max_depth=4),
                       SearchConfig(max_total_length=6, max_depth=2,
                                    conjugator_depth=2),
                       SearchConfig(max_total_length=10, max_depth=6,
                                    conjugator_depth=2, stabilizations=1)):
            assert search(p, bigger).status == "trivialized"

    def test_stabilization_allows_extra_generator(self):
        p = B(("x",), ("x",))
        out = search(p, SearchConfig(max_total_length=4, max_depth=2,
                                     stabilizations=1))
        assert out.status == "trivialized" and out.trace == []
        # force at least one stabilize to appear among reachable nodes
        q = B(("x", "y"), ("x y", "y"))
        out = search(q, SearchConfig(max_total_length=8, max_depth=3,
                                     stabilizations=1))
        assert out.status == "trivialized"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(max_total_length=-1, max_depth=1)
        with pytest.raises(ValueError):
            SearchConfig(max_total_length=1, max_depth=1, node_budget=0)
        with pytest.raises(ValueError):
            SearchConfig(max_total_length=1, max_depth=1, workers=0)

    @pytest.mark.parametrize("value", [True, 2.0, "3"])
    @pytest.mark.parametrize("name", [f.name for f in fields(SearchConfig)])
    def test_config_bounds_are_ints(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SearchConfig(**{"max_total_length": 12, "max_depth": 2,
                            name: value})


class TestLongRelators:
    @pytest.mark.parametrize("n, w", [(123, "y x"), (144, "Y X")])
    def test_family_members_complete(self, n, w):
        # relators of 2n+1 letters; keys carry no relator length
        assert run_pipeline(n, w)["search"]["status"] == "exhausted"


class TestPinnedSearch:
    """Statuses, stats and traces pinned from the search as it stood before
    nodes lost their generator names; any change to them is a change of the
    search itself.  Two budget edges were corrected since: a budget that the
    last allowed level uses up exactly, (4, 30) and (1, 1), leaves nothing
    unsearched, so they read exhausted, no longer budget.  max_frontier
    was corrected too: it counts the last level's new keys also when the
    goal or the budget ends the search, so (4, 29) reads 26, not 16, and
    the AK(1) trace 208, not 159."""

    REPRO = B(("x", "y"), ("x y", "x y y y x"))
    BUDGET_EDGES = [
        (4, 100_000, "exhausted", (30, 60, 30)),
        (4, 31, "exhausted", (30, 60, 30)),
        (4, 30, "exhausted", (30, 60, 30)),
        (4, 29, "budget", (29, 56, 26)),
        (1, 1, "exhausted", (1, 5, 4)),
        (1, 2, "exhausted", (1, 5, 4)),
    ]

    @staticmethod
    def _edge_config(depth, budget):
        return SearchConfig(max_total_length=9, max_depth=depth,
                            conjugator_depth=1, node_budget=budget)

    @pytest.mark.parametrize("depth, budget, status, stats", BUDGET_EDGES)
    def test_budget_edges(self, depth, budget, status, stats):
        out = search(self.REPRO, self._edge_config(depth, budget))
        assert out.status == status
        assert (out.stats.nodes_expanded, out.stats.distinct_keys,
                out.stats.max_frontier) == stats
        # the level records add up to the totals and survive JSON
        levels = out.stats.levels
        assert sum(level["frontier"] for level in levels) == \
            out.stats.nodes_expanded
        assert 1 + sum(level["new"] for level in levels) == \
            out.stats.distinct_keys
        assert SearchStats(**json.loads(json.dumps(out.stats.to_json()))) \
            == out.stats

    def test_level_counts(self):
        full = [{"frontier": 1, "children": 4, "new": 4},
                {"frontier": 4, "children": 14, "new": 9},
                {"frontier": 9, "children": 33, "new": 16}]
        out = search(self.REPRO, self._edge_config(4, 100_000))
        assert out.stats.levels == \
            full + [{"frontier": 16, "children": 59, "new": 30}]
        # a level cut short by the budget counts what it expanded
        out = search(self.REPRO, self._edge_config(4, 29))
        assert out.stats.levels == \
            full + [{"frontier": 15, "children": 53, "new": 26}]

    def test_memo_caps_do_not_change_the_search(self, monkeypatch):
        ak3 = stabilize(ak_presentation(3))
        cases = [(self.REPRO, self._edge_config(depth, budget))
                 for depth, budget, _, _ in self.BUDGET_EDGES]
        cases += [
            (ak_presentation(1), SearchConfig(
                max_total_length=11, max_depth=30, conjugator_depth=2,
                node_budget=30_000)),
            (ak3, SearchConfig(
                max_total_length=ak3.total_relator_length() + 6, max_depth=40,
                node_budget=100, stabilizations=1)),
        ]
        builds = []

        def counted(s, conjugators):
            builds.append(s)
            return _conjugates(s, conjugators)

        monkeypatch.setattr(core, "_conjugates", counted)
        outcomes = [search(p, cfg) for p, cfg in cases]
        memoized = len(builds)
        # caps of 1 clear each memo on every insert
        monkeypatch.setattr(kernel, "MEMO_ROTATIONS", 1)
        monkeypatch.setattr(core, "MEMO_CONJUGATES", 1)
        assert [search(p, cfg) for p, cfg in cases] == outcomes
        assert len(builds) > 2 * memoized

    def test_trace_with_two_letter_conjugators(self):
        out = search(ak_presentation(1), SearchConfig(
            max_total_length=11, max_depth=30, conjugator_depth=2,
            node_budget=30_000))
        assert out.status == "trivialized"
        assert (out.stats.nodes_expanded, out.stats.distinct_keys,
                out.stats.max_frontier) == (362, 570, 208)
        assert out.trace == [
            {"move": "invert", "i": 0},
            {"move": "multiply", "i": 0, "j": 1, "conj": "Y"},
            {"move": "invert", "i": 0},
            {"move": "multiply", "i": 1, "j": 0, "conj": "y x"},
            {"move": "multiply", "i": 0, "j": 1, "conj": "X"},
            {"move": "invert", "i": 0},
            {"move": "multiply", "i": 1, "j": 0, "conj": "x x"},
            {"move": "conjugate", "i": 0, "conj": "x"},
        ]

    def test_conjugators_named_at_their_step(self):
        # code 4 is the stabilizing generator g; after x is destabilized,
        # g is generator 1 and its code is 2
        moves = [{"move": "stabilize"},
                 {"move": "conjugate", "i": 2, "conj": (4,)},
                 {"move": "destabilize", "i": 0},
                 {"move": "multiply", "i": 1, "j": 0, "conj": (2,)}]
        p = B(("x", "y"), ("x", "y"))
        trace, final = _name_moves(p, moves)
        assert [m.get("conj") for m in trace] == [None, "g", None, "g"]
        assert final == replay_trace(p, trace) == B(("y", "g"), ("y", "g g y G"))


@st.composite
def clamp_inputs(draw):
    """A 2-generator presentation with a cap of 1-6 on its total length, a
    conjugator depth one or two beyond the cap, and a search depth of 1-3."""
    cap = draw(st.integers(min_value=1, max_value=6))
    rels = []
    for _ in range(2):
        word = draw(st.lists(st.integers(min_value=0, max_value=3),
                             max_size=cap - sum(map(len, rels))))
        rels.append(ref_reduce_word(bytes(word)))
    p = B(("x", "y"), tuple(decode_word(r, ("x", "y")).to_text()
                            for r in rels))
    return p, SearchConfig(
        max_total_length=cap, max_depth=draw(st.integers(1, 3)),
        conjugator_depth=cap + draw(st.integers(1, 2)), node_budget=60)


class TestConjugatorDepthCap:
    """A conjugator longer than the cap adds no kept product, so the search
    takes its conjugators to depth min(conjugator_depth, max_total_length)
    and gives the outcome of the unclamped depth."""

    @given(clamp_inputs())
    @settings(max_examples=40, deadline=None)
    def test_clamped_search_matches_unclamped(self, case):
        p, cfg = case
        table = core._conjugators
        with mock.patch.object(core, "_conjugators", lambda n, depth:
                               table(n, cfg.conjugator_depth)):
            unclamped = search(p, cfg)
        assert search(p, cfg).to_json() == unclamped.to_json()

    def test_depth_beyond_cap_builds_no_deeper_table(self):
        depths = []
        table = core._conjugators

        def recorded(n, depth):
            depths.append(depth)
            return table(n, depth)

        repro = TestPinnedSearch.REPRO
        with mock.patch.object(core, "_conjugators", recorded):
            out = search(repro, SearchConfig(9, 2, 12))
        assert set(depths) == {9}
        assert out == search(repro, SearchConfig(9, 2, 9))


class TestReplay:
    def test_empty_trace(self):
        p = ak_presentation(1, "y x")
        assert replay_trace(p, []) == p

    def test_bad_step_is_reported_with_index(self):
        p = B(("x", "y"), ("x", "y"))
        with pytest.raises(TraceError) as err:
            replay_trace(p, [{"move": "invert", "i": 0},
                             {"move": "invert", "i": 7}])
        assert err.value.step == 1

    def test_unknown_move_kind(self):
        with pytest.raises(TraceError):
            replay_trace(B(("x",), ("x",)), [{"move": "frobnicate"}])

    @pytest.mark.parametrize("conj", [5, "1x"], ids=["not-a-word", "bad-token"])
    def test_bad_conjugator_is_reported_with_index(self, conj):
        p = B(("x",), ("x",))
        with pytest.raises(TraceError) as err:
            replay_trace(p, [{"move": "invert", "i": 0},
                             {"move": "conjugate", "i": 0, "conj": conj}])
        assert err.value.step == 1

    @pytest.mark.parametrize("move", [5, "invert", [0], None])
    def test_move_must_be_an_object(self, move):
        p = B(("x",), ("x",))
        with pytest.raises(TraceError) as err:
            replay_trace(p, [{"move": "invert", "i": 0}, move])
        assert err.value.step == 1
        assert str(err.value) == ("trace step 1: a move is a JSON object, "
                                  f"got {type(move).__name__}")

    @pytest.mark.parametrize("trace", [5, {"move": "invert", "i": 0},
                                       ({"move": "invert", "i": 0},)])
    def test_trace_must_be_a_list(self, trace):
        p = B(("x",), ("x",))
        with pytest.raises(ValueError,
                           match="^trace must be a JSON array$") as err:
            replay_trace(p, trace)
        assert not isinstance(err.value, TraceError)

    @pytest.mark.parametrize("move, missing", [
        ({"move": "invert"}, "i"),
        ({"move": "conjugate", "i": 0}, "conj"),
        ({"move": "conjugate", "conj": "x"}, "i"),
        ({"move": "multiply", "i": 0, "j": 1}, "conj"),
        ({"move": "multiply", "i": 0, "conj": ""}, "j"),
        ({"move": "destabilize"}, "i"),
    ])
    def test_missing_parameter_is_named(self, move, missing):
        with pytest.raises(TraceError) as err:
            replay_trace(B(("x", "y"), ("x", "y")), [move])
        assert err.value.step == 0
        assert str(err.value) == (f"trace step 0: move {move['move']!r} is "
                                  f"missing parameter {missing!r}")

    @pytest.mark.parametrize("move, value", [
        ({"move": "invert", "i": True}, True),
        ({"move": "invert", "i": 1.0}, 1.0),
        ({"move": "destabilize", "i": True}, True),
        ({"move": "multiply", "i": 0, "j": True, "conj": ""}, True),
        ({"move": "conjugate", "i": 1.0, "conj": "x"}, 1.0),
    ])
    def test_index_must_be_an_int(self, move, value):
        # True and 1.0 equal 1, but are not relator indices
        with pytest.raises(TraceError) as err:
            replay_trace(B(("x", "y"), ("x", "y")), [move])
        assert err.value.step == 0
        assert str(err.value) == ("trace step 0: relator index must be an "
                                  f"integer >= 0, got {value!r}")

    @pytest.mark.parametrize("kind", ["frobnicate", ["invert"], None])
    def test_unknown_kind_lists_the_known_kinds(self, kind):
        with pytest.raises(TraceError) as err:
            replay_trace(B(("x",), ("x",)), [{"move": kind}])
        assert str(err.value) == (
            f"trace step 0: unknown move kind {kind!r} (expected one of "
            "('invert', 'conjugate', 'multiply', 'stabilize', 'destabilize'))")


class TestOrbitAgreement:
    """Key equality must match the declared equivalence exactly, checked by
    explicit orbit closure on small presentations (the exhaustive length-6
    sweep lives in the acceptance suite)."""

    @staticmethod
    def words_up_to(length):
        alphabet = ("x", "X", "y", "Y")
        out = [""]
        level = [[]]
        for _ in range(length):
            nxt = []
            for w in level:
                for a in alphabet:
                    if w and w[-1] == a.swapcase():
                        continue
                    nxt.append(w + [a])
            out.extend(" ".join(w) for w in nxt)
            level = nxt
        return out

    @staticmethod
    def neighbors(p):
        r0, r1 = p.relators
        yield B(p.generators, (r1, r0))
        yield B(p.generators, (r0.inverse(), r1))
        yield B(p.generators, (r0, r1.inverse()))
        for i, r in enumerate((r0, r1)):
            if len(r) > 1:
                rotated = r.letters[1:] + r.letters[:1]
                rels = list(p.relators)
                rels[i] = rotated
                yield B(p.generators, rels)
        swapped = []
        for r in (r0, r1):
            swapped.append([("y" if s == "x" else "x", sg) for s, sg in r.letters])
        yield B(p.generators, swapped)

    def test_orbits_match_key_classes(self):
        words = self.words_up_to(2)
        presentations = [B(("x", "y"), (a, b))
                         for a, b in itertools.product(words, repeat=2)]
        index = {p: k for k, p in enumerate(presentations)}
        parent = list(range(len(presentations)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for p in presentations:
            for q in self.neighbors(p):
                a, b = find(index[p]), find(index[q])
                if a != b:
                    parent[max(a, b)] = min(a, b)
        orbits = {}
        keys = {}
        for k, p in enumerate(presentations):
            orbits.setdefault(find(k), set()).add(k)
            keys.setdefault(canonical_key(p), set()).add(k)
        assert set(map(frozenset, orbits.values())) == \
            set(map(frozenset, keys.values()))
