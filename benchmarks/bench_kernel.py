#!/usr/bin/env python3
"""Benchmark the compiled word kernel against the pure-Python twin.

Runs the canonicalization micro-kernels, the keys of long family relators
(ak_presentation(n) for n = 60 and 120, 2n+1 letters) and a full bounded
search with each implementation and prints a comparison table.  Usable
whether or not the compiled kernel is built; run
`python setup.py build_ext --inplace` first to see the compiled column.
"""

import random
import time

from kirbycalc.acsearch import _kernel_py

try:
    from kirbycalc.acsearch import _kernel_c
except ImportError:
    _kernel_c = None


def make_presentations(count, n_gens=2, maxlen=14, seed=11):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rels = tuple(
            _kernel_py.reduce_word(
                tuple(rng.randrange(2 * n_gens) for _ in range(rng.randrange(2, maxlen))))
            for _ in range(n_gens))
        out.append(rels)
    return out


def time_keys(kernel, presentations, n_gens=2):
    t0 = time.perf_counter()
    acc = 0
    for rels in presentations:
        acc += len(kernel.search_key(rels, n_gens))
        acc += len(kernel.canonical_key(rels, n_gens))
    return time.perf_counter() - t0, acc


LONG_N = (60, 120)


def time_long_keys(kernel, n, repeats=200):
    """Both keys of the n-th family member, whose x^(n+1) Y^n relator is
    the long-word regime of the pipeline's search."""
    from kirbycalc.acsearch.core import encode_presentation
    from kirbycalc.presentations import ak_presentation

    rels, gens = encode_presentation(ak_presentation(n))
    t0 = time.perf_counter()
    for _ in range(repeats):
        kernel.search_key(rels, len(gens))
        kernel.canonical_key(rels, len(gens))
    return time.perf_counter() - t0


def time_word_ops(kernel, presentations):
    t0 = time.perf_counter()
    for rels in presentations:
        r = rels[0]
        for s in rels[1:]:
            r = kernel.multiply_relator(r, s, (0, 2))
            kernel.conjugate_relator(r, (1,))
            kernel.canon_relator(r)
    return time.perf_counter() - t0


def time_search(impl_name):
    """Full bounded search of the n=1 family member, forced onto one kernel."""
    import importlib
    import os

    os.environ.pop("KIRBYCALC_PURE", None)
    if impl_name == "python":
        os.environ["KIRBYCALC_PURE"] = "1"
    import kirbycalc.acsearch.kernel as kmod
    import kirbycalc.acsearch.core as cmod
    importlib.reload(kmod)
    importlib.reload(cmod)
    from kirbycalc.presentations import ak_presentation

    p = ak_presentation(1, "y x")
    cfg = cmod.SearchConfig(max_total_length=14, max_depth=4,
                            conjugator_depth=2, node_budget=20_000)
    t0 = time.perf_counter()
    outcome = cmod.search(p, cfg)
    dt = time.perf_counter() - t0
    os.environ.pop("KIRBYCALC_PURE", None)
    return dt, outcome.status, outcome.stats.nodes_expanded


def main():
    presentations = make_presentations(8_000)
    rows = []

    kernels = [("python", _kernel_py)]
    if _kernel_c is not None:
        kernels.append(("cython", _kernel_c))

    for name, kernel in kernels:
        tk, _ = time_keys(kernel, presentations)
        tl = [time_long_keys(kernel, n) for n in LONG_N]
        tw = time_word_ops(kernel, presentations)
        ts, status, nodes = time_search(name)
        rows.append((name, tk, tl, tw, ts, status, nodes))

    long_heads = "".join(f"{f'keys ak({n})':>13}" for n in LONG_N)
    print(f"{'kernel':<8} {'keys(16k)':>10}{long_heads} {'word ops':>10} "
          f"{'search ak(1)':>13}  search result")
    for name, tk, tl, tw, ts, status, nodes in rows:
        long_cols = "".join(f"{t:>12.3f}s" for t in tl)
        print(f"{name:<8} {tk:>9.3f}s{long_cols} {tw:>9.3f}s {ts:>12.3f}s  "
              f"{status} ({nodes} nodes)")
    if len(rows) == 2:
        long_speedups = ", ".join(
            f"keys ak({n}) {a / b:.1f}x"
            for n, a, b in zip(LONG_N, rows[0][2], rows[1][2]))
        print(f"\nspeedup: keys {rows[0][1] / rows[1][1]:.1f}x, "
              f"{long_speedups}, "
              f"word ops {rows[0][3] / rows[1][3]:.1f}x, "
              f"search {rows[0][4] / rows[1][4]:.1f}x")
    else:
        print("\ncompiled kernel not built; showing pure Python only")


if __name__ == "__main__":
    main()
