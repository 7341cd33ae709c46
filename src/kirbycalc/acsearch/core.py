"""Bounded breadth-first search for Andrews-Curtis trivializations.

Nodes are the encoded relator tuples of balanced presentations,
deduplicated by a canonical form that folds in relator order, cyclic
rotation, and generator relabeling.  Relator inversion is deliberately NOT
folded into the dedup key: inversion is a move, and multiplication only ever
uses r_j itself, so collapsing a node with its inverted variants would prune
reachable successors.  The full-equivalence key (inversion included) is
exposed separately as canonical_key.  Generator names are written only along
a reported trivialization, which is replayed through the public move
operations before it is returned.

Only children that can be the goal or add a key are built.  A conjugation
rotates the cyclic core of its relator, which the key quotients, so a
conjugate child shares its parent's key: it is yielded only where it is
the goal.  The conjugated relators c * r_j * c^-1 of a relator are
deduplicated, since equal ones give equal products.  They are built down
the conjugator prefix tree: the conjugate by c = a * c' comes from the one
by c' in two one-letter steps, and conjugators stop at the cap, as a longer
one gives no product within it.  A product's length follows from the
cancellation at its junction, which is looked for only where the conjugate
starts with the inverse of the relator's last letter, so the cap is checked
before the product is allocated.

The root and every child are keyed by one call, ``kernel.search_key``, over
their relators' rotation columns (a relator's least rotations under every
relabeling).  A child shares all its relators but one with its parent, so
each search memoizes per relator, keyed by generator count and relator
``bytes``, its rotation column and its set of conjugates; keying a child
builds the column of its new relator only.  Both memos are plain dicts
that live for one ``search`` call and are cleared whole at a fixed size
(``kernel.MEMO_ROTATIONS`` least rotations, ``MEMO_CONJUGATES`` conjugated
words), so no state carries from one search to the next.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional

from .. import presentations as pres
from .. import records
from ..presentations import BalancedPresentation
from ..words import decode_word, encode_word, letter_codes
from . import kernel


class BoundsError(ValueError):
    """Input violates the configured search bounds."""


class TraceError(ValueError):
    """A trace step could not be applied."""

    def __init__(self, step: int, reason: str):
        self.step = step
        super().__init__(f"trace step {step}: {reason}")


@dataclass(frozen=True)
class SearchConfig:
    """Bounds of one search, each an ``int`` (not a ``bool``) no smaller
    than its least value: 1 for ``node_budget`` and ``workers``, else 0.
    The search runs in one thread: ``workers`` changes nothing, and stays
    only as an input of the benchmark's ac-wide workload (``workers=2``)."""

    max_total_length: int
    max_depth: int
    conjugator_depth: int = 1
    node_budget: int = 100_000
    stabilizations: int = 0
    workers: int = 1

    def __post_init__(self):
        for name, least in (("max_total_length", 0), ("max_depth", 0),
                            ("conjugator_depth", 0), ("node_budget", 1),
                            ("stabilizations", 0), ("workers", 1)):
            records.check_int(getattr(self, name), least, name, ValueError)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SearchStats:
    """Counts of one search.  ``levels`` holds one record per expanded
    level: ``frontier`` (nodes expanded), ``children`` (children keyed) and
    ``new`` (keys added).  ``max_frontier`` is the largest ``new`` of any
    level, or 1, the root."""

    nodes_expanded: int = 0
    distinct_keys: int = 0
    max_frontier: int = 0
    levels: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


TRIVIALIZED = "trivialized"
EXHAUSTED = "exhausted"
BUDGET = "budget"


@dataclass
class SearchOutcome:
    status: str
    stats: SearchStats
    trace: Optional[list[dict]] = None

    def to_json(self) -> dict:
        data = {"status": self.status, "stats": self.stats.to_json()}
        if self.trace is not None:
            data["trace"] = self.trace
        return data


# -- encoding ---------------------------------------------------------------

def encode_presentation(p: BalancedPresentation):
    """The relators as ``bytes`` words of letter codes."""
    kernel.check_generator_count(len(p.generators))
    codes = letter_codes(p.generators)
    return tuple(bytes(encode_word(r, codes)) for r in p.relators)


def canonical_key(p: BalancedPresentation) -> bytes:
    """Stable key, equal exactly for presentations that agree up to relator
    order, relator inversion, cyclic rotation, and generator relabeling."""
    return kernel.canonical_key(encode_presentation(p), len(p.generators))


def is_trivial_form(p: BalancedPresentation) -> bool:
    """True when the relators are, up to order and inversion, exactly the
    generators, each occurring once."""
    return kernel.is_trivial_encoded(encode_presentation(p), len(p.generators))


@lru_cache(maxsize=None)
def _conjugators(n_gens: int, depth: int):
    """Freely reduced conjugator words of length <= depth, in length-lex
    order over the letters x0, X0, x1, X1, ..., as a prefix tree: each entry
    is (c, a, k) for c = a * c[1:], where a is c's first letter and k the
    index of c[1:] in the table.  The root b"" comes first, with a and k
    None."""
    words = [b""]
    level = [b""]
    for _ in range(depth):
        nxt = []
        for w in level:
            for a in range(2 * n_gens):
                if w and w[-1] == a ^ 1:
                    continue
                nxt.append(w + kernel.LETTERS[a])
        words.extend(nxt)
        level = nxt
    index = {w: k for k, w in enumerate(words)}
    return ((b"", None, None),
            *((w, w[0], index[w[1:]]) for w in words[1:]))


# -- move application (symbolic, for replay) --------------------------------

# move kind -> its move function and parameters, in call order
_MOVE_TABLE = {
    "invert": (pres.ac_invert, ("i",)),
    "conjugate": (pres.ac_conjugate, ("i", "conj")),
    "multiply": (pres.ac_multiply, ("i", "j", "conj")),
    "stabilize": (pres.stabilize, ()),
    "destabilize": (pres.destabilize, ("i",)),
}


def apply_move(p: BalancedPresentation, move: dict) -> BalancedPresentation:
    return records.apply_move(p, move, _MOVE_TABLE, pres.MoveError)


def replay_trace(p: BalancedPresentation, trace) -> BalancedPresentation:
    """Apply a trace, a list of move records, in order.  A trace that is not
    a list is a ValueError.  Every input error of a step (a record that is
    not an object, an unknown kind, a missing parameter, a bad index or
    conjugator; the package's input errors are ValueErrors) is a
    TraceError that names the step."""
    if not isinstance(trace, list):
        raise ValueError("trace must be a JSON array")
    current = p
    for step, move in enumerate(trace):
        try:
            current = apply_move(current, move)
        except ValueError as exc:
            raise TraceError(step, str(exc)) from exc
    return current


def _name_moves(p: BalancedPresentation,
                moves) -> tuple[list[dict], BalancedPresentation]:
    """Write the encoded conjugators of a move sequence from ``p`` as word
    text, each in the generator names in force at its step.  Returns the
    named trace and the presentation it leads to."""
    trace = []
    for move in moves:
        if "conj" in move:
            conj = decode_word(move["conj"], p.generators)
            move = {**move, "conj": conj.to_text()}
        trace.append(move)
        p = apply_move(p, move)
    return trace, p


# -- expansion --------------------------------------------------------------

def _conjugates(s, conjugators):
    """Each distinct freely reduced conj * s * conj^-1, mapped to its first
    conjugator in the order of ``conjugators``, a prefix tree as
    ``_conjugators`` builds it; s must be freely reduced.  The conjugate by
    c = a * c' is built from the one by c' in one-letter steps: a left
    factor a cancels a leading a^-1 or is prepended, and a right factor
    a^-1 cancels a trailing a or is appended."""
    words = [s]
    conjugates = {s: b""}
    for conj, a, k in conjugators[1:]:
        u = words[k]
        u = u[1:] if u and u[0] == a ^ 1 else kernel.LETTERS[a] + u
        u = u[:-1] if u and u[-1] == a else u + kernel.LETTERS[a ^ 1]
        words.append(u)
        conjugates.setdefault(u, conj)
    return conjugates


# A search's conjugate memo is cleared whole once it would hold more
# conjugated words than this; a set holds one per conjugator at most.
MEMO_CONJUGATES = 8192


def _expand(rels, cfg: SearchConfig, base_gens: int, conjugate_sets: dict):
    """The single-move successors that can be the goal or add a key, as
    (move, child) pairs, in the fixed enumeration order: inversions, a
    conjugation, multiplications (conjugators in length-lex order),
    stabilization, destabilization.  A node is balanced, so it has
    len(rels) generators; relators and conjugators are ``bytes`` words.
    ``rels`` is a non-trivial node within the cap, as the search expands no
    other.

    Children that cannot add to the search are not built:
    - a conjugation rotates the cyclic core of its relator, which the key
      quotients, so a conjugate child has its parent's key.  Only where it
      is the goal (every other relator one letter, and the cyclic core of
      this one a single letter) is it yielded, once, with the first
      conjugator; the search keys it like any other child, and finds its
      parent's key;
    - r_i * t is the same word for equal conjugates t = c * r_j * c^-1, so
      each distinct t is kept with its first conjugator.  The set of them
      for a relator is built once per search and generator count, in the
      memo ``conjugate_sets`` (a child shares all relators but one with
      its parent), down the conjugator prefix tree, each t from the one
      by c[1:] in one-letter steps;
    - conjugators are taken to depth at most the cap, since a longer one
      adds no product within it;
    - r_i * t cancels at its junction only when t starts with the inverse
      of r_i's last letter.  Only then is the cancellation counted; else
      the product is r_i + t, and either way only a product within the
      cap is built.
    """
    n = len(rels)
    total = sum(len(r) for r in rels)
    room = cfg.max_total_length - total

    for i in range(n):
        yield {"move": "invert", "i": i}, \
            rels[:i] + (kernel.invert_word(rels[i]),) + rels[i + 1:]

    longer = [i for i, r in enumerate(rels) if len(r) != 1]
    if len(longer) == 1:
        i = longer[0]
        conj = kernel.LETTERS[0]
        child = rels[:i] + (kernel.conjugate_relator(rels[i], conj),) \
            + rels[i + 1:]
        if kernel.is_trivial_encoded(child, n):
            yield {"move": "conjugate", "i": i, "conj": conj}, child

    # A conjugator longer than the cap adds no kept product.  A product
    # r * t with t = c * s * c^-1 is kept when |t| - 2k <= room, where
    # k <= |r| letters cancel and room <= cap - |r| - |s|, so
    # |t| + |s| <= cap + |r| <= 2 * cap - |s|.  Write s = u * s0 * u^-1 and
    # t = v * s0' * v^-1 with s0 cyclically reduced and s0' = p^-1 * s0 * p
    # a rotation of it (|p| < |s0|, or t = s = b"").  Then c = v * p^-1 *
    # u^-1 gives t and has length <= (|t| + |s|) / 2 - 1 < cap, so t's
    # length-lex first conjugator is no longer: the kept entries of a set,
    # their conjugators and their order are those of the unclamped depth.
    conjugators = _conjugators(
        n, min(cfg.conjugator_depth, cfg.max_total_length))
    conjugates = []
    for s in rels:
        key = (n, s)
        found = conjugate_sets.get(key)
        if found is None:
            if len(conjugate_sets) >= MEMO_CONJUGATES // len(conjugators):
                conjugate_sets.clear()
            found = conjugate_sets[key] = _conjugates(s, conjugators)
        conjugates.append(found)
    for i in range(n):
        r = rels[i]
        head, tail = rels[:i], rels[i + 1:]
        # only a t that starts with this letter cancels against r
        cancel = r[-1] ^ 1 if r else None
        for j in range(n):
            if i == j:
                continue
            for t, conj in conjugates[j].items():
                if t and t[0] == cancel:
                    k = kernel.junction_cancellation(r, t)
                    if len(t) - 2 * k <= room:
                        yield {"move": "multiply", "i": i, "j": j,
                               "conj": conj}, \
                            head + (r[:len(r) - k] + t[k:],) + tail
                elif len(t) <= room:
                    yield {"move": "multiply", "i": i, "j": j,
                           "conj": conj}, head + (r + t,) + tail

    if n - base_gens < cfg.stabilizations and room >= 1:
        yield {"move": "stabilize"}, rels + (kernel.LETTERS[n << 1],)

    for i in range(n):
        if len(rels[i]) != 1:
            continue
        sym = rels[i][0] >> 1
        if any(k != i and any(a >> 1 == sym for a in r)
               for k, r in enumerate(rels)):
            continue
        yield {"move": "destabilize", "i": i}, tuple(
            bytes(a - 2 if a >> 1 > sym else a for a in r)
            for k, r in enumerate(rels) if k != i)


# -- the search -------------------------------------------------------------

def search(p: BalancedPresentation, cfg: SearchConfig) -> SearchOutcome:
    """Breadth-first bounded search for a trivializing move sequence.

    The search runs in one thread on encoded relators; generator names are
    written only along the returned trace.  The status (trivialized /
    exhausted / budget), the stats and the trace are deterministic for a
    fixed config and do not depend on ``cfg.workers``; a trace is validated
    by replay before it is reported.

    Known defect: ``exhausted`` does not yet certify the searched bounds.
    The dedup key quotients cyclic rotation, but a node's successors depend
    on its stored linear words, so the first representative of a key can
    cut off classes reachable within the bounds.  For example
    ``<x, y | x y, x y y y x>`` with ``SearchConfig(9, 4, 1)`` reads
    ``exhausted`` after 30 nodes, yet is trivialized by a depth-4 sequence.
    """
    if not isinstance(p, BalancedPresentation):
        raise BoundsError("search requires a balanced presentation")
    # stabilizing adds generators to the encoded nodes, which must stay
    # within the kernel's letter range
    kernel.check_generator_count(len(p.generators) + cfg.stabilizations)
    if p.total_relator_length() > cfg.max_total_length:
        raise BoundsError(
            f"input total relator length {p.total_relator_length()} exceeds "
            f"max_total_length {cfg.max_total_length}")

    rels = encode_presentation(p)
    base_gens = len(rels)
    # per generator count, each relator's rotation column and conjugate
    # set, built once per search (kernel.MEMO_ROTATIONS, MEMO_CONJUGATES)
    columns: dict = {}
    conjugate_sets: dict = {}
    root_key = kernel.search_key(rels, base_gens, columns)
    stats = SearchStats(nodes_expanded=0, distinct_keys=1, max_frontier=1)

    if kernel.is_trivial_encoded(rels, base_gens):
        return SearchOutcome(TRIVIALIZED, stats, trace=[])

    parents: dict[bytes, tuple[Optional[bytes], Optional[dict]]] = {root_key: (None, None)}
    frontier = [(root_key, rels)]
    goal: Optional[tuple[bytes, dict]] = None
    cut_short = False
    for _depth in range(cfg.max_depth):
        take = min(len(frontier), cfg.node_budget - stats.nodes_expanded)
        # a level that cannot be expanded in full leaves the bounds unsearched
        cut_short = take < len(frontier)
        if not take:
            break
        stats.nodes_expanded += take

        next_frontier = []
        children = 0
        for node_key, nrels in frontier[:take]:
            for move, crels in _expand(nrels, cfg, base_gens, conjugate_sets):
                children += 1
                if goal is None and kernel.is_trivial_encoded(crels, len(crels)):
                    goal = (node_key, move)
                key = kernel.search_key(crels, len(crels), columns)
                if key not in parents:
                    parents[key] = (node_key, move)
                    next_frontier.append((key, crels))
        stats.levels.append({"frontier": take, "children": children,
                             "new": len(next_frontier)})
        if goal is not None or cut_short:
            break
        frontier = next_frontier

    stats.distinct_keys = len(parents)
    stats.max_frontier = max([1, *(level["new"] for level in stats.levels)])

    if goal is not None:
        node_key, last_move = goal
        moves = [last_move]
        while True:
            parent_key, move = parents[node_key]
            if move is None:
                break
            moves.append(move)
            node_key = parent_key
        # the input passed its checks at entry, so a move that does not
        # apply here is a fault of the search, not of its input
        try:
            trace, final = _name_moves(p, reversed(moves))
        except (ValueError, KeyError, TypeError) as exc:
            raise AssertionError(f"search produced a move that does not "
                                 f"apply: {exc}") from exc
        if not is_trivial_form(final):
            raise AssertionError("search produced a trace that does not replay "
                                 "to a trivial form")
        return SearchOutcome(TRIVIALIZED, stats, trace=trace)

    # budget only when a level was cut short or never started for want of
    # budget; a last allowed level expanded in full is exhausted
    return SearchOutcome(BUDGET if cut_short else EXHAUSTED, stats)
