"""End-to-end report for one member of the two-generator link family.

Ties the pieces together: build the presentation, check the zero-linking
hypothesis on an assumed 2-component model (the 0-framed unlink, not derived
from n and w; the report labels it so), certify the group
(abelianization plus coset enumeration, over <x> when the abelianization is
trivial), run the bounded trivialization search, and list candidate partner
slopes.  The search can only ever certify facts relative to its bounds; the
fixed caveat below rides along in every report.
"""

from __future__ import annotations

import time

from . import __version__, acsearch
from .acsearch import SearchConfig
from .certify import AbelianGroup, certification_report
from .framedlinks import zero_model
from .presentations import ak_presentation
from .slopes import enumerate_candidates

CAVEAT = ("A search that exhausts its bounds, or runs out of budget, certifies "
          "only that no trivialization exists within those bounds; it says "
          "nothing about the Andrews-Curtis class itself, for which no "
          "distinguishing invariant is known.")

DEFAULT_COSET_BUDGET = 100_000
DEFAULT_MAX_Q = 3


def default_search_config(p, **given) -> SearchConfig:
    """Desk-scale bounds: SearchConfig's defaults but depth 5, budget 5,000
    and a length cap of the input's total length + 8, room for one relator
    to be multiplied through another; the search keywords given win."""
    return SearchConfig(**{"max_total_length": p.total_relator_length() + 8,
                           "max_depth": 5, "node_budget": 5_000, **given})


def run_pipeline(n: int, w: str = "y x",
                 coset_budget: int = DEFAULT_COSET_BUDGET,
                 max_q: int = DEFAULT_MAX_Q, **search) -> dict:
    """Produce the full JSON-ready report for family member n.  ``search``
    holds default_search_config keywords; the rest keep its defaults.
    ``meta`` holds the fields that are not about the member: the
    timestamp, the kernel and package version, and the seconds of the whole
    run and of its slopes, certify and search stages."""
    start = time.perf_counter()
    stage_seconds = {}

    def timed(stage, fn, *args):
        t = time.perf_counter()
        result = fn(*args)
        stage_seconds[stage] = round(time.perf_counter() - t, 3)
        return result

    # slopes first, so a bad max_q is refused before certify and search run
    slopes = [str(s) for s in timed("slopes", enumerate_candidates, max_q)]
    p = ak_presentation(n, w)
    search_cfg = default_search_config(p, **search)

    assumed_model = zero_model(2)
    gpr = assumed_model.gpr_hypothesis_check()
    cert = timed("certify", certification_report, p, coset_budget)

    outcome = timed("search", acsearch.search, p, search_cfg)

    report = {
        "input": {"n": n, "w": w},
        "presentation": cert["presentation"],
        "gpr_hypothesis": {"assumed_model": assumed_model.to_json(),
                           **gpr.to_json()},
        "abelianization": cert["abelianization"],
        "coset": cert["coset"],
        "search": {"config": search_cfg.to_json(), **outcome.to_json()},
        "candidate_slopes": {"max_q": max_q, "slopes": slopes},
        "caveat": CAVEAT,
        "meta": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                 "elapsed_seconds": round(time.perf_counter() - start, 3),
                 "stage_seconds": stage_seconds,
                 "kernel": acsearch.KERNEL_IMPL,
                 "version": __version__},
    }
    return report


def summarize(report: dict) -> str:
    """Human-readable digest of a pipeline report."""
    lines = []
    inp = report["input"]
    lines.append(f"family member n={inp['n']}, w={inp['w']!r}")
    gpr = report["gpr_hypothesis"]
    lines.append("zero-linking hypothesis on the assumed 2-component model "
                 "(not derived from n and w): "
                 + ("passes" if gpr["passes"] else "FAILS"))
    ab = report["abelianization"]
    lines.append(f"abelianization: "
                 f"{AbelianGroup(ab['rank'], tuple(ab['torsion']))}")
    coset = report["coset"]
    # verify_coset_table proves a lower bound on the index, not the order
    rows = ("rows verified: index ≥ rows" if coset.get("verified")
            else "rows not verified")
    done = f"({coset['defined']} cosets defined, {rows})"
    if coset["status"] == "closed" and coset["subgroup"]:
        lines.append(f"coset enumeration: closed over "
                     f"⟨{', '.join(coset['subgroup'])}⟩, index "
                     f"{coset['index']}: trivial {done}")
    elif coset["status"] == "closed":
        lines.append(f"coset enumeration: closed, group order {coset['order']} "
                     + done)
    else:
        lines.append(f"coset enumeration: budget exhausted "
                     f"({coset['live']} live / {coset['defined']} defined)")
    s = report["search"]
    lines.append(f"trivialization search: {s['status']} "
                 f"(nodes={s['stats']['nodes_expanded']}, "
                 f"forms={s['stats']['distinct_keys']})")
    if s["status"] == "trivialized":
        lines.append(f"  trace length {len(s['trace'])}")
    cand = report["candidate_slopes"]
    lines.append(f"candidate slopes up to q={cand['max_q']}: "
                 + ", ".join(cand["slopes"]))
    lines.append(report["caveat"])
    return "\n".join(lines)
