"""Independent brute-force oracles used by the test suite.

Nothing here imports the code paths under test: Smith normal forms are
checked through determinantal divisors and against the three-matrix
elimination that the one augmented matrix replaced (it borrows only the
package's result types), slope classification through exact curve tracing
on the flat pillowcase, intersection numbers by literally counting
crossings in a fundamental domain, and the trivialization search against a
dumb exhaustive BFS on raw presentations.  The search keys are checked
against the plain tuple implementation the byte-level kernel replaced, and
the coset enumerator against the list-of-rows implementation the flat
table replaced, which defines one coset per call (it borrows only the
package's letter coding, word coercion and result type).  The successor
generator the search used before it pruned children that cannot add a node
is kept as ``ref_expand``; it reduces its products and conjugates by plain
free reduction, ``ref_reduce_word``, and its own cyclic core, and takes
nothing from the search kernel.  ``ref_search`` is a breadth-first search
over its pruned children, keyed by ``ref_search_key``, that finishes every
level it starts, so the search's stop at its goal is checked against a
search that does not stop early.
"""

from fractions import Fraction as F
from itertools import combinations, permutations
from math import gcd
from typing import Optional

from kirbycalc.certify import CosetTable, IntegerMatrix, SmithNormalForm
from kirbycalc.presentations import Presentation
from kirbycalc.words import encode_word, letter_codes


# ---------------------------------------------------------------------------
# integer matrices: invariant factors via determinantal divisors
# ---------------------------------------------------------------------------

def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def invariant_factors(entries):
    """Diagonal of the Smith form from gcds of k x k minors."""
    rows = [list(r) for r in entries]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    n = min(nr, nc)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                minor = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(_det(minor)))
        divisors.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, n + 1):
        if k >= len(divisors) or divisors[k] == 0:
            factors.append(0)
        else:
            factors.append(divisors[k] // divisors[k - 1])
    return tuple(factors)


# ---------------------------------------------------------------------------
# slopes on the pillowcase
# ---------------------------------------------------------------------------
# Flat model: the 4-punctured sphere is the quotient of the plane by integer
# translations and point reflection.  Fundamental domain [0,1] x [0,1/2] with
# folds along the top and bottom edges and a left-right wrap.  The puncture
# positions are forced by the package's labeling convention (the 1/0 curve
# separates {b1,b2}, the 0/1 curve separates {b1,b4}):
#   b1=(0,0)  b2=(0,1/2)  b3=(1/2,1/2)  b4=(1/2,0)
# and b1, b2 carry the north poles.  The p/q curve is the image of a line
# with direction (q, p) at the generic offset p*x - q*y = 1/4.

PUNCTURE_POSITIONS = {
    "b1": (F(0), F(0)),
    "b2": (F(0), F(1, 2)),
    "b3": (F(1, 2), F(1, 2)),
    "b4": (F(1, 2), F(0)),
}
Z3_ASSIGNMENT = {1: 1, 2: 1, 3: -1, 4: -1}     # north poles +1, south -1

HALF = F(1, 2)


def partition_oracle(p, q):
    """Which punctures lie on which side of the p/q curve.

    The complement of the curve's full preimage in the torus is the pair of
    strips 1/4 < p*x - q*y < 3/4 and 3/4 < ... < 5/4 (mod 1); a puncture's
    side is decided by which strip its value p*x - q*y (always 0 or 1/2)
    falls into.  Returns (side containing b1, other side).
    """
    side_of = {}
    for name, (x, y) in PUNCTURE_POSITIONS.items():
        value = (p * x - q * y) % 1
        assert value in (0, HALF)
        side_of[name] = value
    side1 = frozenset(n for n, v in side_of.items() if v == side_of["b1"])
    side2 = frozenset(n for n in side_of) - side1
    return side1, side2


def _canonize(x, y, dx, dy):
    x, y = x % 1, y % 1
    if y > HALF:
        x, y, dx, dy = (-x) % 1, 1 - y, -dx, -dy
    return x, y, dx, dy


def _start_state(p, q):
    if p == 0:
        # horizontal line -q*y = 1/4; q = 1 for a reduced slope
        y = (F(-1, 4) / q) % 1
        x, y, dx, dy = _canonize(F(1, 8), y, q, 0)
        return x, y, dx, dy
    for y0 in (F(1, 8), F(1, 16), F(3, 16), F(1, 32), F(5, 32)):
        x0 = ((F(1, 4) + q * y0) / p) % 1
        if x0 != 0:
            return x0, y0, q, p
    raise AssertionError("no generic start point found")


def cutting_word_oracle(p, q):
    """Trace the p/q curve once around and return its cutting-sequence word
    as a list of (puncture index, exponent) letters.

    The cut system is the two fold seams (arcs b1-b4 and b2-b3) plus the
    left edge (arc b1-b2).  A crossing of the bottom seam at chart sign s
    contributes x4^-s, the top seam x3^-s, and the wrap contributes the
    loop (x1 x4)^s enclosing the bottom region.
    """
    x, y, dx, dy = _start_state(p, q)
    word = []
    anchor = None
    first = True
    guard = 0
    while True:
        guard += 1
        assert guard < 64 * (abs(p) + abs(q) + 2), "trace failed to close"
        times = []
        if dy > 0:
            times.append(((HALF - y) / dy, "top"))
        if dy < 0:
            times.append((-y / dy, "bottom"))
        if dx > 0:
            times.append(((1 - x) / dx, "right"))
        if dx < 0:
            times.append((-x / dx, "left"))
        t, kind = min(times)
        hits = [k for tt, k in times if tt == t]
        assert len(hits) == 1, "degenerate corner hit"
        ex, ey = x + t * dx, y + t * dy
        key = (ex, ey, dx, dy)
        if first:
            anchor = key
            first = False
        elif key == anchor:
            break
        if kind in ("top", "bottom"):
            chart_dy = dy if ex < HALF else -dy
            s = 1 if chart_dy > 0 else -1
            word.append((3 if kind == "top" else 4, -s))
            x, y, dx, dy = 1 - ex, ey, -dx, -dy
        else:
            s = -1 if dx > 0 else 1
            if s == 1:
                word.extend([(1, 1), (4, 1)])
            else:
                word.extend([(4, -1), (1, -1)])
            x, y = (F(0) if kind == "right" else F(1)), ey
    return word


def z3_value_oracle(p, q):
    """The curve's order-3 character value, straight from the traced word."""
    return sum(Z3_ASSIGNMENT[g] * e for g, e in cutting_word_oracle(p, q)) % 3


def word_class_vector(word):
    vec = [0, 0, 0, 0]
    for g, e in word:
        vec[g - 1] += e
    return tuple(vec)


def word_matches_partition(word, side_with_b1):
    """Self-check: the traced word abelianizes to +- the indicator of one
    side, modulo the boundary relation (1,1,1,1)."""
    vec = word_class_vector(word)
    names = ("b1", "b2", "b3", "b4")
    indicator = tuple(1 if n in side_with_b1 else 0 for n in names)
    for mu in (1, -1):
        diffs = {v - mu * i for v, i in zip(vec, indicator)}
        if len(diffs) == 1:
            return True
    return False


def intersection_count_oracle(p1, q1, p2, q2):
    """Count the crossings of the two curves in a fundamental domain of the
    torus (offset representatives 1/4 and 1/3), then halve for the fold."""
    det = p1 * q2 - p2 * q1
    if det == 0:
        return 0
    count = 0

    def window(p, q):
        # p*x - q*y over the unit square lies between these bounds
        lo = min(0, p) + min(0, -q)
        hi = max(0, p) + max(0, -q)
        return range(lo - 2, hi + 2)

    m_range = window(p1, q1)
    n_range = window(p2, q2)
    # exact integers: every right-hand side is scaled by 12, so the offsets
    # 1/4, 3/4 become 3, 9 and 1/3, 2/3 become 4, 8; x and y below are the
    # crossing's coordinates times d > 0
    d = -12 * det
    sign = 1 if d > 0 else -1
    d *= sign
    for a in (3, 9):
        for b in (4, 8):
            for m in m_range:
                for n in n_range:
                    # p1 x - q1 y = a + m ; p2 x - q2 y = b + n
                    rhs1, rhs2 = a + 12 * m, b + 12 * n
                    x = sign * (-q2 * rhs1 + q1 * rhs2)
                    y = sign * (p1 * rhs2 - p2 * rhs1)
                    if 0 <= x < d and 0 <= y < d:
                        count += 1
    assert count % 2 == 0
    return count // 2


# ---------------------------------------------------------------------------
# raw exhaustive search over presentations (no canonicalization at all)
# ---------------------------------------------------------------------------
# words are tuples of (symbol, sign) pairs

def _reduce(letters):
    out = []
    for sym, sg in letters:
        if out and out[-1] == (sym, -sg):
            out.pop()
        else:
            out.append((sym, sg))
    return tuple(out)


def _inv(word):
    return tuple((s, -g) for s, g in reversed(word))


def brute_force_trivializable(generators, relators, max_total, max_depth,
                              conj_depth=1):
    """Plain BFS over exact presentations using the three relator moves,
    deduplicating only on literal equality.  Small bounds only."""
    gens = tuple(generators)
    letters = [(g, 1) for g in gens] + [(g, -1) for g in gens]
    conjugators = [()]
    level = [()]
    for _ in range(conj_depth):
        nxt = []
        for w in level:
            for l in letters:
                if w and w[-1] == (l[0], -l[1]):
                    continue
                nxt.append(w + (l,))
        conjugators.extend(nxt)
        level = nxt

    def trivial(rels):
        if len(rels) != len(gens):
            return False
        seen = {r[0][0] for r in rels if len(r) == 1}
        return all(len(r) == 1 for r in rels) and seen == set(gens)

    start = tuple(_reduce(tuple(r)) for r in relators)
    if trivial(start):
        return True
    seen = {start}
    frontier = [start]
    for _ in range(max_depth):
        nxt = []
        for rels in frontier:
            total = sum(len(r) for r in rels)
            children = []
            for i in range(len(rels)):
                children.append(rels[:i] + (_inv(rels[i]),) + rels[i + 1:])
            for i in range(len(rels)):
                for c in conjugators:
                    if len(c) != 1:
                        continue
                    w = _reduce(c + rels[i] + _inv(c))
                    # cyclic reduction, as the conjugation move performs it
                    while len(w) > 1 and w[0] == (w[-1][0], -w[-1][1]):
                        w = w[1:-1]
                    if total - len(rels[i]) + len(w) <= max_total:
                        children.append(rels[:i] + (w,) + rels[i + 1:])
            for i in range(len(rels)):
                for j in range(len(rels)):
                    if i == j:
                        continue
                    for c in conjugators:
                        w = _reduce(rels[i] + c + rels[j] + _inv(c))
                        if total - len(rels[i]) + len(w) <= max_total:
                            children.append(rels[:i] + (w,) + rels[i + 1:])
            for child in children:
                if trivial(child):
                    return True
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# search keys: the reference tuple implementation
# ---------------------------------------------------------------------------
# Letters are ints, generator i is 2*i and its inverse 2*i+1.  Every
# rotation is sliced and compared, and every relator is relabeled letter by
# letter, once per generator permutation.  A key is one byte n_gens, then
# each relator of the least form followed by the terminator 0xFF.

def ref_reduce_word(seq):
    """Free reduction of a sequence of letter codes, by a stack, as bytes."""
    stack = []
    for a in seq:
        if stack and stack[-1] == a ^ 1:
            stack.pop()
        else:
            stack.append(a)
    return bytes(stack)


def _ref_cyclic_core(word):
    i, j = 0, len(word) - 1
    while i < j and word[i] == word[j] ^ 1:
        i += 1
        j -= 1
    return tuple(word[i:j + 1])


def _ref_least_rotation(word):
    n = len(word)
    if n < 2:
        return tuple(word)
    doubled = word + word
    best = 0
    for k in range(1, n):
        if doubled[k:k + n] < doubled[best:best + n]:
            best = k
    return tuple(doubled[best:best + n])


def _ref_canon_relator(word):
    core = _ref_cyclic_core(word)
    if not core:
        return ()
    a = _ref_least_rotation(core)
    b = _ref_least_rotation(tuple(x ^ 1 for x in reversed(core)))
    return a if a <= b else b


def _ref_minimized_form(relators, n_gens, fold_inversion):
    for r in relators:
        for a in r:
            if not 0 <= a < 2 * n_gens:
                raise ValueError(f"letter {a} out of range for {n_gens} generators")
    cores = [_ref_cyclic_core(r) for r in relators]
    best = None
    for perm in permutations(range(n_gens)):
        relabeled = [tuple((perm[a >> 1] << 1) | (a & 1) for a in c)
                     for c in cores]
        if fold_inversion:
            rels = (_ref_canon_relator(c) for c in relabeled)
        else:
            rels = (_ref_least_rotation(c) for c in relabeled)
        form = tuple(sorted(rels))
        if best is None or form < best:
            best = form
    return best if best is not None else ()


def _ref_serialize(form, n_gens):
    out = bytearray()
    out.append(n_gens)
    for rel in form:
        out.extend(rel)
        out.append(0xFF)
    return bytes(out)


def ref_search_key(relators, n_gens):
    return _ref_serialize(_ref_minimized_form(relators, n_gens, False), n_gens)


def ref_canonical_key(relators, n_gens):
    return _ref_serialize(_ref_minimized_form(relators, n_gens, True), n_gens)


# ---------------------------------------------------------------------------
# search successors: every child, as generated before pruning
# ---------------------------------------------------------------------------
# The search's successor generator as it stood before conjugate children,
# repeated conjugates and products over the cap were left unbuilt: every
# legal child, each product built in full and then measured against the cap.

def ref_conjugators(n_gens, depth):
    """Freely reduced conjugator words of length <= depth, in length-lex
    order over the letters x0, X0, x1, X1, ..."""
    words = [b""]
    level = [b""]
    for _ in range(depth):
        nxt = []
        for w in level:
            for a in range(2 * n_gens):
                if w and w[-1] == a ^ 1:
                    continue
                nxt.append(w + bytes((a,)))
        words.extend(nxt)
        level = nxt
    return tuple(words)


def _ref_invert_word(word):
    return bytes(a ^ 1 for a in reversed(word))


def _ref_multiply_relator(r, s, conj):
    """Freely reduced r * conj * s * conj^-1."""
    return ref_reduce_word(r + conj + s + _ref_invert_word(conj))


def ref_conjugate(r, conj):
    """Cyclically reduced conj * r * conj^-1, as the conjugation move
    leaves it."""
    return bytes(_ref_cyclic_core(ref_reduce_word(
        conj + r + _ref_invert_word(conj))))


def ref_expand(rels, cfg, base_gens):
    """All legal single-move successors as (move, slot, child) triples, in
    the fixed enumeration order: inversions, single-letter conjugations,
    multiplications (conjugators in length-lex order), stabilization,
    destabilization.  ``slot`` is the one relator index a move replaces,
    or None when it changes the generator count.  A node is balanced, so
    it has len(rels) generators; relators and conjugators are ``bytes``
    words."""
    n = len(rels)
    total = sum(len(r) for r in rels)
    cap = cfg.max_total_length

    for i in range(n):
        yield {"move": "invert", "i": i}, i, \
            rels[:i] + (_ref_invert_word(rels[i]),) + rels[i + 1:]

    for i in range(n):
        rest = total - len(rels[i])
        for conj in (bytes((a,)) for a in range(2 * n)):
            new = ref_conjugate(rels[i], conj)
            if rest + len(new) <= cap:
                yield {"move": "conjugate", "i": i, "conj": conj}, i, \
                    rels[:i] + (new,) + rels[i + 1:]

    conjugators = ref_conjugators(n, cfg.conjugator_depth)
    for i in range(n):
        rest = total - len(rels[i])
        for j in range(n):
            if i == j:
                continue
            for conj in conjugators:
                new = _ref_multiply_relator(rels[i], rels[j], conj)
                if rest + len(new) <= cap:
                    move = {"move": "multiply", "i": i, "j": j, "conj": conj}
                    yield move, i, rels[:i] + (new,) + rels[i + 1:]

    if n - base_gens < cfg.stabilizations and total + 1 <= cap:
        yield {"move": "stabilize"}, None, rels + (bytes((n << 1,)),)

    for i in range(n):
        if len(rels[i]) != 1:
            continue
        sym = rels[i][0] >> 1
        if any(k != i and any(a >> 1 == sym for a in r)
               for k, r in enumerate(rels)):
            continue
        yield {"move": "destabilize", "i": i}, None, tuple(
            bytes(a - 2 if a >> 1 > sym else a for a in r)
            for k, r in enumerate(rels) if k != i)


def _ref_is_trivial(rels):
    """True when the relators of a balanced node are, up to order and
    inversion, exactly its generators, each once."""
    return (all(len(r) == 1 for r in rels)
            and {r[0] >> 1 for r in rels} == set(range(len(rels))))


def ref_pruned_expand(rels, cfg, base_gens):
    """``ref_expand``'s successors as (move, child, kept) triples.  ``kept``
    is False for the children the search does not build, which cannot
    change it: a conjugate child that is not the goal or repeats an earlier
    child (a conjugation rotates the cyclic core, which the key quotients),
    and a product that repeats an earlier one with the same i and j."""
    seen, products = set(), set()
    for move, _, child in ref_expand(rels, cfg, base_gens):
        if move["move"] == "conjugate":
            kept = child not in seen and _ref_is_trivial(child)
        elif move["move"] == "multiply":
            product = (move["i"], move["j"], child)
            kept = product not in products
            products.add(product)
        else:
            kept = True
        seen.add(child)
        yield move, child, kept


def ref_search(rels, cfg):
    """Breadth-first search from the encoded node ``rels`` over the kept
    children of ``ref_pruned_expand``, deduplicated by ``ref_search_key``.
    Every level it starts, it expands in full (up to the node budget) and
    keys in full, trivial children included; the goal is the first trivial
    child of the first level that has one.  The status rules are the
    search's: a level cut short by the budget, or not started for want of
    it, gives budget, and the depth bound or an empty frontier gives
    exhausted.  Returns (status, moves, nodes_expanded, distinct_keys,
    max_frontier), where ``moves`` are the encoded move records from
    ``rels`` to the goal, or None."""
    base_gens = len(rels)
    if _ref_is_trivial(rels):
        return "trivialized", [], 0, 1, 1
    root = ref_search_key(rels, base_gens)
    parents = {root: (None, None)}
    frontier = [(root, rels)]
    expanded, max_frontier, cut_short = 0, 1, False
    for _ in range(cfg.max_depth):
        take = min(len(frontier), cfg.node_budget - expanded)
        cut_short = take < len(frontier)
        if not take:
            break
        expanded += take
        goal, level = None, []
        for key, node in frontier[:take]:
            for move, child, kept in ref_pruned_expand(node, cfg, base_gens):
                if not kept:
                    continue
                if goal is None and _ref_is_trivial(child):
                    goal = (key, move)
                child_key = ref_search_key(child, len(child))
                if child_key not in parents:
                    parents[child_key] = (key, move)
                    level.append((child_key, child))
        max_frontier = max(max_frontier, len(level))
        if goal is not None:
            key, move = goal
            moves = []
            while move is not None:
                moves.append(move)
                key, move = parents[key]
            return ("trivialized", moves[::-1], expanded, len(parents),
                    max_frontier)
        if cut_short:
            break
        frontier = level
    return ("budget" if cut_short else "exhausted", None, expanded,
            len(parents), max_frontier)


# ---------------------------------------------------------------------------
# Smith normal form: the reference three-matrix implementation
# ---------------------------------------------------------------------------
# The elimination as it stood before the one-augmented-matrix rewrite: the
# working matrix and the two transforms are kept apart, and every row or
# column operation is applied to each.  The rewrite must give the same
# SmithNormalForm, transforms included.  It uses the package's result
# types, not its elimination.

def ref_smith_normal_form(mat: IntegerMatrix) -> SmithNormalForm:
    """Diagonalize by unimodular row/column operations.

    Returns (diagonal, left, right) with left * mat * right diagonal,
    nonnegative entries in a divisibility chain, and det(left), det(right)
    in {1, -1}.
    """
    rows, cols = mat.rows, mat.cols
    a = [list(r) for r in mat.entries]
    left = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    right = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + c * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in right:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    n = min(rows, cols)
    for t in range(n):
        # smallest nonzero entry in the remaining block becomes the pivot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (pivot is None or v < pivot[0]):
                    pivot = (v, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            # clear column t, then row t, restarting while remainders appear
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            culprit = None
            d = a[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, t, 1)
        if a[t][t] < 0:
            negate_row(t)
    diag = tuple(a[i][i] for i in range(n))
    return SmithNormalForm(diag, IntegerMatrix(left), IntegerMatrix(right))


# ---------------------------------------------------------------------------
# coset enumeration: the reference list-of-rows implementation
# ---------------------------------------------------------------------------
# The HLT enumerator as it stood before the flat-table rewrite: one list per
# coset row, find() on every entry a scan reads, and one coset defined per
# call.  The rewrite must give the same CosetTable, field for field, and the
# same counts of primary coincidences and peak live cosets.  It uses the
# package's letter coding, word coercion and result type, not its
# enumerator.

def ref_todd_coxeter(p: Presentation, max_cosets: int = 100_000,
                     subgroup=()) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by ``subgroup``.

    Relator-driven strategy: scan every subgroup word at coset 0, then
    process live cosets in definition order, scan every relator through
    each, filling gaps by defining new cosets, then complete the row.
    Deterministic for a fixed presentation, subgroup and budget.  Budget
    exhaustion is reported as status "budget", never an error.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    gens = p.generators
    codes = letter_codes(gens)
    width = 2 * len(gens)
    relator_paths = [encode_word(r, codes) for r in p.relators]
    subgroup = Presentation(gens, subgroup).relators
    subgroup_paths = [path for path in (encode_word(w, codes) for w in subgroup)
                      if path]

    table: list[list[Optional[int]]] = [[None] * width]
    rep: list[int] = [0]            # union-find for coincidences
    defined = 1
    dead = coincidences = 0
    peak_live = 1                   # live cosets, read after every definition

    def find(c: int) -> int:
        while rep[c] != c:
            rep[c] = rep[rep[c]]
            c = rep[c]
        return c

    def define(alpha: int, x: int) -> Optional[int]:
        nonlocal defined, peak_live
        if defined >= max_cosets:
            return None
        beta = len(table)
        table.append([None] * width)
        rep.append(beta)
        defined += 1
        peak_live = max(peak_live, defined - dead)
        table[alpha][x] = beta
        table[beta][x ^ 1] = alpha
        return beta

    def coincidence(alpha: int, beta: int) -> None:
        nonlocal dead, coincidences
        queue: list[int] = []

        def merge(u: int, v: int) -> None:
            u, v = find(u), find(v)
            if u != v:
                lo, hi = min(u, v), max(u, v)
                rep[hi] = lo
                queue.append(hi)

        merge(alpha, beta)
        if queue:
            coincidences += 1
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]       # a dead coset whose row must be rewired
            qi += 1
            for x in range(width):
                delta = table[gamma][x]
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu, nu = find(gamma), find(delta)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
        dead += len(queue)

    def scan_and_fill(alpha: int, path: tuple[int, ...]) -> bool:
        """Trace a relator at alpha, defining cosets as needed.

        Returns False when the coset budget is exhausted.
        """
        if not path:
            return True
        f, i = alpha, 0
        b, j = alpha, len(path) - 1
        while True:
            while i <= j and table[f][path[i]] is not None:
                f = find(table[f][path[i]])
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return True
            while j >= i and table[b][path[j] ^ 1] is not None:
                b = find(table[b][path[j] ^ 1])
                j -= 1
            if j < i:
                coincidence(f, b)
                return True
            if i == j:
                # deduction closes the gap
                table[f][path[i]] = b
                table[b][path[i] ^ 1] = f
                return True
            new = define(f, path[i])
            if new is None:
                return False

    exhausted = False
    alpha = 0
    while alpha < len(table):
        if find(alpha) != alpha:
            alpha += 1
            continue
        # coset 0 is the subgroup: its words are scanned there first
        paths = subgroup_paths + relator_paths if alpha == 0 else relator_paths
        for path in paths:
            if not scan_and_fill(alpha, path):
                exhausted = True
                break
            if find(alpha) != alpha:
                break
        if exhausted:
            break
        if find(alpha) == alpha:
            for x in range(width):
                if table[alpha][x] is None:
                    if define(alpha, x) is None:
                        exhausted = True
                        break
        if exhausted:
            break
        alpha += 1

    live_ids = [c for c in range(len(table)) if find(c) == c]
    counts = dict(subgroup=subgroup, coincidences=coincidences,
                  peak_live=peak_live)
    if exhausted:
        return CosetTable("budget", (), None, len(live_ids), defined,
                          **counts)

    renumber = {c: k for k, c in enumerate(live_ids)}
    compact = tuple(
        tuple(renumber[find(table[c][x])] for x in range(width))
        for c in live_ids)
    live = len(live_ids)
    order = None if subgroup_paths else live
    return CosetTable("closed", compact, order, live, defined, **counts)
