"""Exact certification tools: integer linear algebra and coset enumeration.

Everything here runs on arbitrary-precision integers; no floating point.
One Smith elimination serves every cokernel.  ``smith_normal_form`` alone
builds the unimodular transforms, which ride on the same row and column
operations of one augmented matrix; H1 and abelianization run the same
elimination on a bare copy of the matrix and read only its diagonal.  A
relator-driven coset enumerator (with an independent post-hoc
verification pass) counts the cosets of a subgroup given by generating
words.  Over the trivial subgroup that certifies a finite group order.
Order 1 is certified more cheaply: if the first generator x has index 1,
the group is the cyclic group <x>, hence equal to its abelianization, so a
trivial abelianization makes it trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .presentations import Presentation
from .records import check_int
from .words import Immutable, Word, encode_word, letter_codes


class MatrixError(ValueError):
    pass


class IntegerMatrix(Immutable):
    """Immutable rectangular matrix of Python ints."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries):
        try:
            rows = tuple(entries)
        except TypeError:
            rows = None
        # a row that is a string would be read character by character
        if rows is None or not all(isinstance(r, (list, tuple)) for r in rows):
            raise MatrixError("a matrix is a list of rows of integers")
        rows = tuple(map(tuple, rows))
        for row in rows:
            for v in row:
                if type(v) is not int:
                    raise MatrixError(f"matrix entries must be integers, got {v!r}")
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise MatrixError("ragged rows")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, IntegerMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntegerMatrix({[list(r) for r in self.entries]})"

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise MatrixError(f"shape mismatch {self.rows}x{self.cols} * "
                              f"{other.rows}x{other.cols}")
        return IntegerMatrix(
            [[sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
              for j in range(other.cols)] for i in range(self.rows)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square():
            raise MatrixError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


def exponent_matrix(p: Presentation) -> IntegerMatrix:
    """Row i, column j: exponent sum of generator j in relator i."""
    return IntegerMatrix([[r.exponent_sum(g) for g in p.generators]
                          for r in p.relators])


@dataclass(frozen=True)
class SmithNormalForm:
    diagonal: tuple[int, ...]
    left: IntegerMatrix
    right: IntegerMatrix

    def diagonal_matrix(self, rows: int, cols: int) -> IntegerMatrix:
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(self.diagonal):
            m[i][i] = d
        return IntegerMatrix(m)


def smith_normal_form(mat: IntegerMatrix) -> SmithNormalForm:
    """Diagonalize by unimodular row/column operations.

    Returns (diagonal, left, right) with left * mat * right diagonal,
    nonnegative entries in a divisibility chain, and det(left), det(right)
    in {1, -1}.
    """
    rows, cols = mat.rows, mat.cols
    # One working matrix, [mat | I_rows] over [I_cols | 0]: an operation on
    # rows of mat also builds left, one on columns of mat also builds right.
    w = ([list(r) + [1 if i == j else 0 for j in range(rows)]
          for i, r in enumerate(mat.entries)]
         + [[1 if i == j else 0 for j in range(cols)] + [0] * rows
            for i in range(cols)])
    diag = _diagonalize(w, rows, cols)
    return SmithNormalForm(diag, IntegerMatrix(row[cols:] for row in w[:rows]),
                           IntegerMatrix(row[:cols] for row in w[rows:]))


def _diagonalize(w: list, rows: int, cols: int) -> tuple[int, ...]:
    """Bring the leading ``rows`` x ``cols`` block of the working matrix
    ``w``, a list of row lists, to Smith normal form in place, and return
    its diagonal.  Every row operation acts on the whole of a row of ``w``,
    every column operation on the whole of a column, and the pivot and
    divisibility searches read only the block."""

    def swap_cols(i, j):
        for row in w:
            row[i], row[j] = row[j], row[i]

    n = min(rows, cols)
    for t in range(n):
        # smallest nonzero entry in the remaining block becomes the pivot;
        # the first entry of absolute value 1 is the first minimal one
        best = 0
        for i in range(t, rows):
            row = w[i]
            for j in range(t, cols):
                v = abs(row[j])
                if v and (not best or v < best):
                    best, pi, pj = v, i, j
                    if v == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            w[t], w[pi] = w[pi], w[t]
        if pj != t:
            swap_cols(t, pj)
        while True:
            # clear column t, then row t, restarting while remainders appear
            dirty = False
            for i in range(t + 1, rows):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    if w[i][t]:
                        w[t], w[i] = w[i], w[t]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if w[t][j]:
                    q = w[t][j] // w[t][t]
                    for row in w:
                        row[j] -= q * row[t]
                    if w[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot; a
            # unit divides every entry
            d = w[t][t]
            if d == 1 or d == -1:
                break
            culprit = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if w[i][j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            w[t] = [x + y for x, y in zip(w[t], w[culprit])]
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
    return tuple(w[i][i] for i in range(n))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus torsion factors."""

    rank: int
    torsion: tuple[int, ...] = ()

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "trivial"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


def _cokernel(mat: IntegerMatrix, cols: int) -> AbelianGroup:
    """Cokernel of ``mat`` as a map into Z^cols: the free rank counts the
    columns without a nonzero pivot, the torsion is the pivots above 1."""
    diag = _diagonalize([list(r) for r in mat.entries], mat.rows, mat.cols)
    free = cols - sum(1 for d in diag if d != 0)
    return AbelianGroup(free, tuple(d for d in diag if d > 1))


def h1_from_matrix(mat: IntegerMatrix) -> AbelianGroup:
    """Cokernel of a square integer matrix as an abelian group."""
    if not mat.is_square():
        raise MatrixError(
            f"cokernel descriptor needs a square matrix, got {mat.rows}x{mat.cols}")
    return _cokernel(mat, mat.cols)


def abelianization(p: Presentation) -> AbelianGroup:
    """Abelianization of a presented group (rectangular matrices allowed)."""
    return _cokernel(exponent_matrix(p), len(p.generators))


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (relator-driven, with coincidence handling)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosetTable:
    """Result of a coset enumeration over the subgroup generated by the
    words ``subgroup`` (the trivial subgroup when there are none).

    ``status`` is "closed" or "budget".  A closed table has one row per live
    coset, coset 0 being the subgroup itself, and one column per generator
    letter (x0, X0, x1, X1, ...); ``index`` is its number of rows.  ``order``
    is the group order, set only for a closed table over the trivial
    subgroup.  ``defined`` counts every coset ever defined, including those
    later merged away; ``coincidences`` counts the primary coincidences
    (a relator or subgroup word that closed on two distinct cosets), and
    ``peak_live`` is the largest number of live cosets at any time.
    """

    status: str
    table: tuple[tuple[int, ...], ...]
    order: Optional[int]
    live: int
    defined: int
    subgroup: tuple[Word, ...] = ()
    coincidences: int = field(default=0, compare=False)
    peak_live: int = field(default=0, compare=False)

    def closed(self) -> bool:
        return self.status == "closed"

    @property
    def index(self) -> Optional[int]:
        return self.live if self.closed() else None

    def to_json(self) -> dict:
        data = {"status": self.status, "live": self.live, "defined": self.defined,
                "subgroup": [w.to_text() for w in self.subgroup],
                "coincidences": self.coincidences, "peak_live": self.peak_live}
        if self.closed():
            data["index"] = self.index
        if self.order is not None:
            data["order"] = self.order
        return data


def todd_coxeter(p: Presentation, max_cosets: int = 100_000,
                 subgroup=()) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by the words
    ``subgroup`` (word text or Words in the generators of ``p``; none gives
    the trivial subgroup).

    Relator-driven (HLT) strategy (Holt-Eick-O'Brien, Handbook of
    Computational Group Theory, ch. 5): first scan every subgroup word at
    coset 0, then process live cosets in definition order, scan every
    relator through each, filling gaps by defining new cosets, and complete
    the row.  Deterministic for a fixed presentation, subgroup and budget.
    Budget exhaustion is reported as status "budget", never an error.

    When a scan stalls on a gap whose two ends are distinct cosets, the
    gap is defined as one run of new cosets, up to the budget.  Defining
    one coset per stall, as HLT does, would stall both scans again at once
    after each definition: the new row holds only its inverse entry, which
    the next letter of a freely reduced word never reads, and the backward
    end's row is untouched.  So the run defines the same cosets on the same
    entries in the same order, and every result, counts included, is the
    HLT result letter for letter.

    The table is one list per letter: ``cols[x][c]`` is the coset reached
    from ``c`` by letter ``x``, or -1.  A scan holds the columns of its
    word's letters, so each step is one list read, and COINC walks each
    letter's column paired with its inverse's.  A run is written in bulk:
    the columns grow at most once, and each maximal block of one letter in
    the run is one slice assignment into that letter's column and one into
    its inverse's, from one list of the new coset numbers.  The union-find
    array ``rep`` holds the same int objects, so a coset costs one int
    object however many entries name it, which keeps the peak memory down.

    Coincidences are processed as in COINC (Holt-Eick-O'Brien, Handbook of
    Computational Group Theory, 5.1), after which rows of live cosets name
    only live cosets; so a scan, and the compaction of a closed table, read
    entries directly, and the union-find is consulted only while
    coincidences are processed.  A live row that names a dead coset breaks
    that invariant and raises ``AssertionError``.
    """
    check_int(max_cosets, 1, "max_cosets", ValueError)
    gens = p.generators
    codes = letter_codes(gens)
    width = 2 * len(gens)
    # subgroup words are checked and coerced as relators are
    subgroup = Presentation(gens, subgroup).relators

    # rows n and beyond are blank room for the next definitions
    cols = [[-1] * 64 for _ in range(width)]
    pairs = tuple((cols[x], cols[x ^ 1]) for x in range(width))
    # the columns each letter of a row completion writes, as a one-letter run
    singles = tuple(((col,), (inv,), (1,)) for col, inv in pairs)

    def scans_of(words):
        """Each nonempty word as the columns its forward scan reads, the
        columns its backward scan reads, the end of the letter block at
        each position, and its last position."""
        out = []
        for w in words:
            path = encode_word(w, codes)
            if path:
                ends = list(range(1, len(path) + 1))
                for k in range(len(path) - 2, -1, -1):
                    if path[k] == path[k + 1]:
                        ends[k] = ends[k + 1]
                out.append((tuple(cols[x] for x in path),
                            tuple(cols[x ^ 1] for x in path),
                            tuple(ends), len(path) - 1))
        return out

    scans = scans_of(p.relators)
    subgroup_scans = scans_of(subgroup)

    rep = [0]                       # union-find over coset numbers
    n = 1                           # cosets defined, len(rep)
    # Live cosets only grow between coincidences, so their peak is read
    # at each coincidence and at the end.
    coincidences = dead = peak_live = 0

    def define(f: int, fwd, bwd, ends, i: int, run: int) -> int:
        """Define cosets n, ..., n + run - 1 along the letters i, ..., i +
        run - 1 of a scan from f, and return the last."""
        nonlocal n
        ids = list(range(n, n + run))   # shared with the table (see above)
        rep.extend(ids)
        if n + run > len(cols[0]):
            # the columns at least double, rather than grow by each run:
            # fewer reallocations, which measured a lower peak RSS
            grow = [-1] * max(run, len(cols[0]))
            for col in cols:
                col += grow
        fwd[i][f] = ids[0]
        bwd[i][ids[0]] = f
        # letters i + 1, ...: coset ids[t - 1] to ids[t], t = k - i,
        # written one block of equal letters at a time
        k, stop = i + 1, i + run
        while k < stop:
            e = min(ends[k], stop)
            t, u = k - i, e - i
            fwd[k][n + t - 1:n + u - 1] = ids[t:u]
            bwd[k][n + t:n + u] = ids[t - 1:u - 1]
            k = e
        n += run
        return ids[-1]

    def coincidence(alpha: int, beta: int) -> None:
        """Merge two live cosets and every coincidence that follows."""
        nonlocal coincidences, dead, peak_live
        coincidences += 1
        peak_live = max(peak_live, len(rep) - dead)
        if alpha > beta:
            alpha, beta = beta, alpha
        rep[beta] = alpha
        queue = [beta]
        for gamma in queue:             # a dead coset whose row is rewired
            # gamma's root, followed once per row: if a merge on one letter
            # kills it, it joins the queue after gamma, so what a later
            # letter writes into its row is carried on when it is processed
            mu = gamma
            while rep[mu] != mu:
                rep[mu] = mu = rep[rep[mu]]
            for col, inv in pairs:
                delta = col[gamma]
                if delta < 0:
                    continue
                inv[delta] = -1
                nu = delta
                while rep[nu] != nu:
                    rep[nu] = nu = rep[rep[nu]]
                u = col[mu]
                if u >= 0:
                    v = nu
                else:
                    v = inv[nu]
                    if v < 0:
                        col[mu] = nu
                        inv[nu] = mu
                        continue
                    u = mu
                # merge u and v; the smaller root survives
                while rep[u] != u:
                    rep[u] = u = rep[rep[u]]
                while rep[v] != v:
                    rep[v] = v = rep[rep[v]]
                if u != v:
                    if u > v:
                        u, v = v, u
                    rep[v] = u
                    queue.append(v)
        dead += len(queue)

    exhausted = False
    alpha = 0
    # coset 0, the subgroup, is never merged away; its subgroup words
    # return to it, so they are scanned there like relators, before them
    pending = subgroup_scans + scans
    while alpha < n and not exhausted:
        if rep[alpha] != alpha:
            alpha += 1
            continue
        for fwd, bwd, ends, last in pending:
            # trace the relator forward from alpha and backward to it
            f, i = alpha, 0
            b, j = alpha, last
            while True:
                while i <= j:
                    nxt = fwd[i][f]
                    if nxt < 0:
                        break
                    f = nxt
                    i += 1
                while j >= i:
                    nxt = bwd[j][b]
                    if nxt < 0:
                        break
                    b = nxt
                    j -= 1
                if j < i:
                    # the relator closed up: f and b are one coset
                    if f != b:
                        coincidence(f, b)
                    break
                if i < j:
                    # define the gap path[i..j-1] as one run (see above);
                    # when f == b the first definition writes b's row, so
                    # define one coset and scan again
                    run = min(j - i if f != b else 1, max_cosets - n)
                    if not run:
                        exhausted = True
                        break
                    f = define(f, fwd, bwd, ends, i, run)
                    i += run
                    if i < j:
                        continue
                # deduction closes the gap
                fwd[i][f] = b
                bwd[i][b] = f
                break
            if exhausted or rep[alpha] != alpha:
                break
        else:
            for fwd, bwd, ends in singles:
                if fwd[0][alpha] < 0:
                    if n >= max_cosets:
                        exhausted = True
                        break
                    define(alpha, fwd, bwd, ends, 0, 1)
        pending = scans
        alpha += 1

    live_ids = [c for c in range(n) if rep[c] == c]
    defined = n
    live = len(live_ids)
    counts = dict(subgroup=subgroup, coincidences=coincidences,
                  peak_live=max(peak_live, live))
    if exhausted:
        return CosetTable("budget", (), None, live, defined, **counts)

    renumber = {c: k for k, c in enumerate(live_ids)}
    try:
        compact = tuple(tuple(renumber[col[c]] for col in cols)
                        for c in live_ids)
    except KeyError as exc:
        raise AssertionError(
            f"a live coset row names coset {exc.args[0]}, which is not live"
        ) from None
    # over a trivial subgroup the index is the group order
    order = None if subgroup_scans else live
    return CosetTable("closed", compact, order, live, defined, **counts)


def verify_coset_table(result: CosetTable, p: Presentation) -> bool:
    """Independent check of a closed table: inverse-consistency, columns are
    permutations, all cosets reachable from 0, every relator traces to the
    identity at every coset, and every subgroup word fixes coset 0.  This
    proves a lower bound only (index >= rows): a one-row table passes for
    any presentation, so order 1 rests on ``todd_coxeter`` closing."""
    if not result.closed():
        raise ValueError("only closed tables can be verified")
    table = result.table
    n = len(table)
    width = 2 * len(p.generators)
    codes = letter_codes(p.generators)
    for c in range(n):
        if len(table[c]) != width:
            return False
        for x in range(width):
            d = table[c][x]
            if not (0 <= d < n) or table[d][x ^ 1] != c:
                return False
    seen = {0}
    stack = [0]
    while stack:
        c = stack.pop()
        for x in range(width):
            d = table[c][x]
            if d not in seen:
                seen.add(d)
                stack.append(d)
    if len(seen) != n:
        return False
    for words, starts in ((p.relators, range(n)), (result.subgroup, (0,))):
        for w in words:
            path = encode_word(w, codes)
            for c in starts:
                d = c
                for x in path:
                    d = table[d][x]
                if d != c:
                    return False
    return True


def certification_report(p: Presentation, max_cosets: int = 100_000) -> dict:
    """Abelianization plus coset-enumeration status, as a JSON-ready dict.

    When the abelianization is trivial, the cosets of <x>, x the first
    generator, are enumerated first.  Index 1 makes the group cyclic, so
    equal to its trivial abelianization: the report reads order 1 over that
    subgroup.  A budget stop over <x> is reported as it stands, with no
    second pass: the trivial subgroup has at least as many cosets, so its
    pass seldom closes where this one did not, and would spend the budget
    twice.  Index above 1, or a nontrivial abelianization, enumerates the
    cosets of the trivial subgroup, whose index is the order.  The order of
    a perfect group is thus never read off the index of <x>.  ``verified``
    proves only that the index is at least the number of rows (see
    ``verify_coset_table``), so order 1 rests on ``todd_coxeter`` closing.
    """
    abel = abelianization(p)
    coset = None
    if abel.is_trivial() and p.generators:
        coset = todd_coxeter(p, max_cosets, subgroup=p.generators[:1])
    if coset is None or coset.index not in (None, 1):
        coset = todd_coxeter(p, max_cosets)
    report = {
        "presentation": p.to_json(),
        "abelianization": abel.to_json(),
        "coset": coset.to_json(),
    }
    if coset.closed():
        report["coset"]["verified"] = verify_coset_table(coset, p)
        if coset.subgroup:
            # index 1: the group is cyclic, so it is its trivial
            # abelianization
            report["coset"]["order"] = 1
    return report
