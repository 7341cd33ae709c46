"""Word kernel of the trivialization search.

Letters are the int codes of ``words.letter_codes``: generator i is 2*i, its
inverse 2*i+1, so xor 1 inverts a letter.  Words are ``bytes`` from encoding
to key: a relator is relabeled with ``bytes.translate`` and rotated by
comparing ``bytes`` slices, and a key is the minimized relators, each ended
by the terminator 0xFF.

A least rotation starts a longest cyclic run of the least letter, so only
those rotations are compared, and the run and its starts are found with
C-level ``bytes`` searches (``in``, ``count``, ``find``).  A key minimizes,
over the generator relabelings, the sorted least rotations of the relators'
cyclic cores.  A relator's *column* is its least rotation under every
relabeling, in ``_tables`` order, so row k across a node's columns is the
node under relabeling k.  A key reads its columns from a memo, a dict keyed
by generator count and relator (stabilizing keeps the relators but changes
the relabelings): ``search_key`` takes the search's memo, so each column is
built once per search, and ``canonical_key`` keeps one for the call.  The
memo is cleared once it would hold more than ``MEMO_WORDS`` least
rotations, but keeps the columns of the node being keyed, so it never holds
less than one node's worth (``make_room``); the search's conjugate memo
shares that bound and that rule.

Precondition: relators are ``bytes`` whose letters are below 2 * n_gens,
and n_gens <= 127, so 0xFF is never a letter.  ``core.encode_presentation``
and the entry of ``core.search`` check it with ``check_generator_count``;
the other functions here take their words as given.
"""

from functools import lru_cache
from itertools import permutations
from math import factorial

# One-letter words, indexed by letter.
LETTERS = tuple(bytes((a,)) for a in range(256))
_INVERSE = bytes(a ^ 1 for a in range(256))


def check_generator_count(n_gens):
    """0xFF ends a relator in a key, so it must not be a letter."""
    if 2 * n_gens > 255:
        raise ValueError(f"the search kernel takes at most 127 generators, "
                         f"got {n_gens}")


def invert_word(word):
    return word[::-1].translate(_INVERSE)


def cyclic_core(word):
    i, j = 0, len(word) - 1
    while i < j and word[i] == word[j] ^ 1:
        i += 1
        j -= 1
    return word[i:j + 1]


def junction_cancellation(u, v):
    """Letters that cancel at the junction of u * v, for freely reduced u
    and v: the length k of the longest suffix of u that is the inverse of a
    prefix of v.  Only the junction can cancel, so u * v reduces to
    u[:len(u) - k] + v[k:], of length len(u) + len(v) - 2k."""
    if not u or not v or u[-1] != v[0] ^ 1:     # most junctions
        return 0
    n = len(u)
    m = min(n, len(v))
    k = 1
    while k < m and u[n - 1 - k] == v[k] ^ 1:
        k += 1
    return k


def least_rotation(word):
    """Least rotation of a word.

    The least rotation starts with the least letter m, at the start of a
    longest cyclic run of m: a rotation that starts with a shorter run has
    a larger letter where the other still has m.  The run length comes
    from ``in`` on the doubled word (one run holding every m, else a binary
    search), and ``find`` gives the run starts; only those rotations are
    compared.
    """
    n = len(word)
    if n < 2:
        return word
    for m in LETTERS:
        if m in word:
            break
    doubled = word + word
    run = m * word.count(m)
    k = doubled.find(run)
    if k >= 0:          # every m in one cyclic run
        return doubled[k:k + n]
    lo, hi = 1, len(run) - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if m * mid in doubled:
            lo = mid
        else:
            hi = mid - 1
    # a longest run is maximal wherever it occurs, so the next start is
    # past the letter that ends it
    run = m * lo
    k = doubled.find(run)
    best = doubled[k:k + n]
    k = doubled.find(run, k + lo + 1)
    while 0 <= k < n:
        rotation = doubled[k:k + n]
        if rotation < best:
            best = rotation
        k = doubled.find(run, k + lo + 1)
    return best


def _relabel_tables(n_gens):
    """Per generator permutation, a bytes.translate table that relabels a
    word; a relabeling keeps each letter's pair, so it commutes with
    inversion."""
    pairs = [bytes((2 * g, 2 * g + 1)) for g in range(n_gens)]
    unused = bytes(range(2 * n_gens, 256))
    for perm in permutations(range(n_gens)):
        yield b"".join([pairs[g] for g in perm]) + unused


# Tables are kept for up to 7 generators (5040 permutations, about 1.3 MB);
# beyond that they are built afresh for each key.
_CACHED_TABLE_GENS = 7


@lru_cache(maxsize=None)
def _cached_relabel_tables(n_gens):
    return tuple(_relabel_tables(n_gens))


def _tables(n_gens):
    return (_cached_relabel_tables(n_gens) if n_gens <= _CACHED_TABLE_GENS
            else _relabel_tables(n_gens))


# Each memo of a search is cleared by ``make_room`` once it would hold more
# words than this: the column memo least rotations (n_gens! per column, so
# its size does not grow with the generator count), ``core._expand``'s
# conjugate memo conjugated words (at most one per conjugator in a set).
MEMO_WORDS = 8192


def make_room(memo, n_gens, relators):
    """Clear a memo that has reached its bound, but never below one node's
    worth: a memo of fewer entries than the node ``relators`` is left as it
    is, and the node's own entries, keyed (n_gens, relator), are kept, so no
    value of the node being worked on is built twice."""
    if len(memo) >= len(relators):
        kept = {key: memo[key] for key in ((n_gens, r) for r in relators)
                if key in memo}
        memo.clear()
        memo.update(kept)


def _column(relator, n_gens, columns, relators):
    """The column of one of a node's ``relators``, from the memo
    ``columns`` (keyed by generator count and relator) or built and stored
    there."""
    key = (n_gens, relator)
    column = columns.get(key)
    if column is None:
        if len(columns) >= MEMO_WORDS // factorial(n_gens):
            make_room(columns, n_gens, relators)
        core = cyclic_core(relator)
        column = columns[key] = tuple([least_rotation(core.translate(relabel))
                                       for relabel in _tables(n_gens)])
    return column


def _least_key(rows, n_gens):
    """The least of the rows, each sorted (the form minimized over
    relabelings), as one byte n_gens and then each relator followed by
    0xFF."""
    form = min(map(sorted, rows), default=[])
    return bytes((n_gens,)) + b"\xff".join([*form, b""])


def search_key(relators, n_gens, columns):
    """Dedup key for the move search: quotients relator order, rotation and
    relabeling but NOT inversion, which is itself a move.  The relators'
    columns come from the memo ``columns``; row k across them is the node
    under relabeling k."""
    get = columns.get
    cols = [get((n_gens, r)) or _column(r, n_gens, columns, relators)
            for r in relators]
    return _least_key(zip(*cols), n_gens)


def canonical_key(relators, n_gens):
    """Stable byte key: equal exactly up to relator order, relator
    inversion, cyclic rotation, and generator relabeling."""
    columns = {}
    cols = [_column(r, n_gens, columns, relators) for r in relators]
    return _least_key(
        ([min(r, least_rotation(invert_word(r))) for r in row]
         for row in zip(*cols)), n_gens)


def is_trivial_encoded(relators, n_gens):
    """True when the relators are, up to order and inversion, exactly the
    generators, each once."""
    if len(relators) != n_gens:
        return False
    seen = set()
    for r in relators:
        if len(r) != 1:
            return False
        seen.add(r[0] >> 1)
    return len(seen) == n_gens
