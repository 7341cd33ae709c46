"""The four seeded workloads: their inputs, their ops and the checks on them.

A workload is a batch of ops.  Each op runs one public entry point of
kirbycalc on one generated input; its check then validates the output and
returns the op's exact-count fingerprint.  A check raises ``CheckFailure``
when an output is wrong.  Inputs depend only on the seed.

Why these inputs, and which layer each workload stresses, is written down in
``perfbench/README.md``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

STATUSES = ("trivialized", "exhausted", "budget")

# Words w for which r1 = Y w^-1 x w needs no free reduction: w starts with
# y or Y and does not end in Y.  Both relators of ak_presentation(n, w) then
# have lengths fixed by |w| and n alone (2|w|+2 and 2n+1), so word length is
# a controlled variable rather than an accident of cancellation.
SHORT_WORDS = ("y x", "y y", "y X", "Y x", "Y X")
# The four that are one y-letter then one x-letter: r1 = Y b^-1 a^-1 x a b
# has the same shape for each, only the signs differ.
XY_WORDS = ("y x", "y X", "Y x", "Y X")
SHORT_WORDS_3 = tuple(f"{a} {b} {c}" for a in "yY" for b in "xyXY" for c in "xyX"
                      if a.lower() != b.lower() or a == b
                      if b.lower() != c.lower() or b == c)


class CheckFailure(Exception):
    """An op returned a wrong output."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


@dataclass
class Batch:
    ops: list[Op]
    # presentations for the acsearch.canonical_key probe
    key_inputs: list


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer from each of ``count`` equal slices of [lo, hi], so every
    seed covers the whole range evenly.  Slices are drawn in pairs: the
    first gets the offset o from its bottom, the second o from its top.
    So each pair's sum is the same for every seed, and so, nearly, is the
    batch's cost, which grows with n."""
    span = hi - lo + 1
    edges = [lo + span * k // count for k in range(count + 1)]
    picks = []
    for k in range(0, count - 1, 2):
        width = min(edges[k + 1] - edges[k], edges[k + 2] - edges[k + 1])
        offset = rng.randrange(width)
        picks += [edges[k] + offset, edges[k + 2] - 1 - offset]
    if count % 2:
        picks.append(rng.randrange(edges[-2], edges[-1]))
    return picks


# -- checks shared by several workloads --------------------------------------

def _check_search(kc, p, outcome) -> dict:
    if outcome.status not in STATUSES:
        raise CheckFailure(f"unknown search status {outcome.status!r}")
    trace_len = None
    if outcome.status == "trivialized":
        if outcome.trace is None:
            raise CheckFailure("trivialized without a trace")
        final = kc.acsearch.replay_trace(p, outcome.trace)
        if not kc.acsearch.is_trivial_form(final):
            raise CheckFailure("trace does not replay to a trivial form")
        trace_len = len(outcome.trace)
    stats = outcome.stats
    return {"status": outcome.status, "nodes": stats.nodes_expanded,
            "keys": stats.distinct_keys, "frontier": stats.max_frontier,
            "trace_len": trace_len}


def _check_family_certificate(abel: dict, coset: dict) -> dict:
    """AK(n) presents the trivial group, so abelianization and every closed
    coset table must say so; a closed table must also have verified."""
    if abel["rank"] != 0 or abel["torsion"]:
        raise CheckFailure(f"abelianization of a trivial group is {abel}")
    if coset["status"] == "closed":
        if coset.get("verified") is not True:
            raise CheckFailure("closed coset table failed verify_coset_table")
        if coset["order"] != 1:
            raise CheckFailure(f"coset table of a trivial group has order "
                               f"{coset['order']}")
    elif coset["status"] != "budget":
        raise CheckFailure(f"unknown coset status {coset['status']!r}")
    return {"coset_status": coset["status"], "cosets": coset["defined"],
            "live": coset["live"]}


# -- ac-trivialize -----------------------------------------------------------

W1_CONFIG = dict(max_total_length=16, max_depth=30, conjugator_depth=2,
                 node_budget=30_000)


def _random_trivial(kc, rng: random.Random, moves: int):
    P = kc.presentations
    p = P.BalancedPresentation(("x", "y"), ("x", "y"))
    for _ in range(moves):
        i = rng.randrange(2)
        r = rng.random()
        if r < 0.2:
            p = P.ac_invert(p, i)
        elif r < 0.4:
            p = P.ac_conjugate(p, i, rng.choice(("x", "X", "y", "Y")))
        else:
            p = P.ac_multiply(p, i, 1 - i, rng.choice(("", "x", "X", "y", "Y")))
    return p


def _search_op(kc, label, p, cfg) -> Op:
    return Op(label, lambda: kc.acsearch.search(p, cfg),
              lambda outcome: _check_search(kc, p, outcome))


# Random inputs per total relator length.  An op's cost is set by the depth
# at which its search succeeds: about 0.5, 4 and 15 ms at depths 1, 2 and 3.
# Length 3 succeeds by depth 2, lengths 4 and 6 mostly at depth 3, length 5
# at either.  Fixed quotas keep every seed's batch equally hard.  Most inputs
# have length 6, so the median op is a length-6 search whatever the seed;
# with a more even mix it sat on the edge between cost clusters and moved by
# a third from seed to seed.
# Length 2 is already trivial; from length 7 on, one op can cost 25 to 340 ms,
# and the share of such ops would decide the batch's cost.
LENGTH_QUOTAS = {3: 4, 4: 6, 5: 4, 6: 50}

# The ROADMAP's repro of the unsound dedup: AC-trivial within these bounds,
# yet the search reports exhausted after 30 nodes.
EXHAUSTED_REPRO = (("x y", "x y y y x"),
                   dict(max_total_length=9, max_depth=4, conjugator_depth=1))


def ac_trivialize(kc, rng: random.Random) -> Batch:
    """64 presentations two or three random AC moves from <x,y | x,y>, in
    fixed numbers per total length 3..6, searched at conj-depth 2 and depth
    5 with cap = length + 4; plus the ROADMAP W1 query and the exhausted
    repro."""
    SearchConfig = kc.acsearch.SearchConfig
    have = dict.fromkeys(LENGTH_QUOTAS, 0)
    ops, keys = [], []
    draws = 0
    while len(ops) < sum(LENGTH_QUOTAS.values()):
        p = _random_trivial(kc, rng, 2 + draws % 2)
        draws += 1
        length = p.total_relator_length()
        if have.get(length, 0) >= LENGTH_QUOTAS.get(length, 0):
            continue
        have[length] += 1
        cfg = SearchConfig(max_total_length=length + 4, max_depth=5,
                           conjugator_depth=2, node_budget=30_000)
        ops.append(_search_op(kc, f"random{len(ops)}/len{length}", p, cfg))
        keys.append(p)
    fixed = [("W1", kc.presentations.ak_presentation(1),
              SearchConfig(**W1_CONFIG))]
    relators, cfg = EXHAUSTED_REPRO
    fixed.append(("exhausted-repro",
                  kc.presentations.BalancedPresentation(("x", "y"), relators),
                  SearchConfig(**cfg)))
    for label, p, cfg in fixed:
        ops.insert(rng.randrange(len(ops) + 1), _search_op(kc, label, p, cfg))
        keys.append(p)
    return Batch(ops, keys)


# -- ac-wide -----------------------------------------------------------------

def ac_wide(kc, rng: random.Random) -> Batch:
    """AK(3, w) with one stabilization, two workers and a 100-node budget."""
    ops, keys = [], []
    P = kc.presentations
    for k in range(32):
        w = rng.choice(SHORT_WORDS if k % 2 else SHORT_WORDS_3)
        p = P.ak_presentation(3, w)
        cfg = kc.acsearch.SearchConfig(
            max_total_length=p.total_relator_length() + 6, max_depth=40,
            conjugator_depth=1, node_budget=100, stabilizations=1, workers=2)
        ops.append(_search_op(kc, f"AK(3,{w})#{k}", p, cfg))
        keys.append(P.stabilize(p))
    return Batch(ops, keys)


# -- family-sweep ------------------------------------------------------------

KEY_LENGTH_ERROR = "relator too long for key serialization"


def _pipeline_op(kc, n: int, w: str) -> Op:
    def check(report):
        search = report["search"]
        p = kc.presentations.ak_presentation(n, w)
        # rebuild the outcome's shape for the shared search check
        outcome = kc.acsearch.SearchOutcome(
            search["status"], kc.acsearch.SearchStats(**search["stats"]),
            search.get("trace"))
        if not report["gpr_hypothesis"]["passes"]:
            raise CheckFailure("zero-linking hypothesis check failed")
        return {**_check_search(kc, p, outcome),
                **_check_family_certificate(report["abelianization"],
                                            report["coset"]),
                "slopes": len(report["candidate_slopes"]["slopes"])}

    return Op(f"n={n},w={w}", lambda: kc.pipeline.run_pipeline(n, w), check)


def family_sweep(kc, rng: random.Random) -> Batch:
    """run_pipeline at default settings, one n from each of 24 slices of
    [16, 144]; members whose search keys pass 254 letters fail and count."""
    ops, keys = [], []
    # The i-th slice always gets the same word, so each word is spread
    # evenly over n and every seed's batch has nearly the same cost.  The
    # slice edges fall on n = 123, where the key-length failures start for
    # each of these words, so every seed has the same four failing members.
    for i, n in enumerate(_strata(rng, 16, 144, 24)):
        w = XY_WORDS[i % len(XY_WORDS)]
        ops.append(_pipeline_op(kc, n, w))
        keys.append(kc.presentations.ak_presentation(n, w))
    rng.shuffle(ops)
    return Batch(ops, keys)


# -- certify-heavy -----------------------------------------------------------

COSET_BUDGET = 200_000
KIRBY_SESSIONS = 48


def _certify_op(kc, n: int, w: str) -> Op:
    p = kc.presentations.ak_presentation(n, w)

    def check(report):
        return _check_family_certificate(report["abelianization"],
                                         report["coset"])

    return Op(f"certify n={n},w={w}",
              lambda: kc.certify.certification_report(p, COSET_BUDGET), check)


def _chain_model(kc, rng: random.Random, k: int):
    """Linear plumbing: a chain of k unknots, each linking the next once,
    framings drawn from +-2..4."""
    F = kc.framedlinks
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        m[i][i] = rng.choice((-4, -3, -2, 2, 3, 4))
        if i + 1 < k:
            m[i][i + 1] = m[i + 1][i] = 1
    return F.FramedLinkModel([F.Component(F.PLAIN, m[i][i], True)
                              for i in range(k)], m)


# Moves of every Kirby script.  A session's cost depends on how many
# components its blow-ups add, so every script has the same mix; the seed
# draws their order, components and signs.
SCRIPT_MIX = Counter(slide=5, blow_up=2, blow_down=1)


def _kirby_script(rng: random.Random, k: int) -> list[dict]:
    """A random script with the moves of SCRIPT_MIX, drawn until one has
    that mix."""
    while True:
        script = _random_script(rng, k, sum(SCRIPT_MIX.values()))
        if Counter(m["move"] for m in script) == SCRIPT_MIX:
            return script


def _random_script(rng: random.Random, k: int, length: int) -> list[dict]:
    """Random slides, blow-ups and blow-downs that are legal by
    construction: only a blown-up component that has not itself been slid
    is blown down, so it is still an unknot framed +-1."""
    script, pristine, size = [], set(), k
    for _ in range(length):
        r = rng.random()
        if r < 0.2:
            script.append({"move": "blow_up", "sign": rng.choice((1, -1))})
            pristine.add(size)
            size += 1
        elif r < 0.35 and pristine:
            i = rng.choice(sorted(pristine))
            script.append({"move": "blow_down", "i": i})
            pristine = {c - 1 if c > i else c for c in pristine if c != i}
            size -= 1
        else:
            u, v = rng.sample(range(size), 2)
            pristine.discard(u)
            script.append({"move": "slide", "u": u, "v": v,
                           "sign": rng.choice((1, -1))})
    return script


def _kirby_op(kc, label: str, model, script) -> Op:
    def run():
        before = model.h1_of_surgery()
        after = kc.framedlinks.apply_script(model, script)
        return before, after, after.h1_of_surgery()

    def check(result):
        before, after, h1_after = result
        if before != h1_after:
            raise CheckFailure(f"H1 changed under the script: {before} -> "
                               f"{h1_after}")
        return {"h1": str(before), "components": len(after)}

    return Op(label, run, check)


def certify_heavy(kc, rng: random.Random) -> Batch:
    """12 certifications of AK(n, w) for n in [150, 300] with a 200k coset
    budget, and KIRBY_SESSIONS Kirby sessions on 15- to 30-component
    chains."""
    # as in family_sweep, the i-th slice always gets the same word
    ops = [_certify_op(kc, n, XY_WORDS[i % len(XY_WORDS)])
           for i, n in enumerate(_strata(rng, 150, 300, 12))]
    # Session cost grows with the chain's size, so every seed gets the same
    # sizes, 15 to 30 in even steps; the seed draws framings and scripts.
    for k in range(KIRBY_SESSIONS):
        size = 15 + 16 * k // KIRBY_SESSIONS
        script = _kirby_script(rng, size)
        ops.append(_kirby_op(kc, f"kirby{k}/{size}comp",
                             _chain_model(kc, rng, size), script))
    rng.shuffle(ops)
    return Batch(ops, [])


WORKLOADS = {
    "ac-trivialize": ac_trivialize,
    "ac-wide": ac_wide,
    "family-sweep": family_sweep,
    "certify-heavy": certify_heavy,
}


def classify_error(exc: BaseException) -> Optional[str]:
    """Name the known limitation an exception stands for, or None."""
    if isinstance(exc, ValueError) and KEY_LENGTH_ERROR in str(exc):
        return "key_length"
    return None
