#!/usr/bin/env python3
"""kirbycalc benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ac-trivialize --seed 1 --seconds 25 --trace 0

One caller runs the workload's ops one at a time (a closed loop), in passes
over the seeded batch, until ``--seconds`` have gone by.  Every output is
checked.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
public functions at each layer boundary (see spans.py) and prints the
per-layer metrics.  ``--workload all`` runs every workload, each in its own
process.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

Timing model: on a machine that shares its cores with others, contention
slows the run by up to three quarters, in stretches from under a second to
minutes.  So a fixed probe of pure interpreter work, which uses no kirbycalc
code, runs after every op and every set-up.  Each timing is scaled by the
probe times around it to reference seconds: the time it would have taken
where the probe takes PROBE_REF_S.  An op's latency is the median of its
scaled repetitions, and wall_s is the batch's time at those latencies.  See
README.md for every metric's definition.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import spans as spans_mod
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("acsearch", "certify", "framedlinks", "pipeline", "presentations",
           "slopes")
SETUP_REPS = 21           # set-ups timed before the first pass
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
UNTRACED_SHARE = 0.4      # share of a traced run spent measuring untraced
KEY_PROBE_SECONDS = 1.0
PROBE_STEPS = 3000        # about 1 ms of interpreter work
PROBE_REF_S = 1e-3        # the probe's time at reference speed
PROBE_WINDOW = 2          # probes on each side that set a timing's scale
# An op that runs longer than this fails as "timeout" and is not run again.
# It bounds a run when an input hits a pathological case, such as the Smith
# normal form's coefficient growth on a rare Kirby session.
OP_TIME_LIMIT_S = 10.0


class OpTimeout(BaseException):
    """Raised into an op that overran OP_TIME_LIMIT_S.  A BaseException, so
    that no handler inside kirbycalc can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"op ran longer than {OP_TIME_LIMIT_S} s")


# -- set-up ------------------------------------------------------------------

def import_kirbycalc() -> SimpleNamespace:
    """Import kirbycalc from scratch, dropping any copy already loaded."""
    for name in [name for name in sys.modules
                 if name == "kirbycalc" or name.startswith("kirbycalc.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"kirbycalc.{m}")
                              for m in MODULES})


def setup_once(workload: str, seed: int):
    """Import plus input generation; returns kirbycalc, the batch and the
    time taken.  The garbage of earlier set-ups is collected first, so that
    no set-up pays for another's."""
    gc.collect()
    t0 = time.perf_counter()
    kc = import_kirbycalc()
    batch = wl.WORKLOADS[workload](kc, random.Random(seed))
    return kc, batch, time.perf_counter() - t0


# -- measurement -------------------------------------------------------------

class Speed:
    """Probe times, one after every timed op or set-up, and the scaling of
    a timing to reference seconds by the probes around it."""

    def __init__(self):
        self.probes: list[float] = []

    def take(self) -> int:
        """Run the probe once; returns its index.  The probe allocates
        almost nothing and runs with the garbage collector off, so the
        program's own heap cannot change its time."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            table, row, acc = {}, list(range(64)), 0
            for i in range(PROBE_STEPS):
                j = (i * 7 + acc) & 63
                acc = (acc + row[j] * i) % 1000003
                row[j] = acc & 0xFFFF
                key = j * 4 + (acc & 3)
                table[key] = table.get(key, 0) + 1
            self.probes.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        return len(self.probes) - 1

    def scale(self, seconds: float, index: int) -> float:
        """``seconds``, timed just before probe ``index``, in reference
        seconds."""
        window = self.probes[max(0, index - PROBE_WINDOW):
                             index + PROBE_WINDOW + 1]
        # the mean, not the median: a long op runs through the machine's
        # fast and slow moments alike, and so does the mean of the probes
        return seconds * PROBE_REF_S / statistics.fmean(window)


@dataclass
class OpRecord:
    # (seconds, index of the probe taken right after) of every execution
    samples: list = field(default_factory=list)
    fingerprint: object = None
    error: str = ""         # "" when the op succeeded and passed its checks


@dataclass
class PassLayers:
    """Per-layer totals of one traced pass."""
    op_s: float = 0.0
    self_s: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


class Run:
    def __init__(self, batch, speed: Speed):
        self.batch = batch
        self.speed = speed
        self.records = [OpRecord() for _ in batch.ops]
        self.executions = 0     # op runs, repetitions included
        self.pass_s: list[float] = []   # wall time of each complete pass
        self.failures: dict[str, int] = {}
        self.wrong = 0          # failures that mean a wrong or changed output

    def fail(self, rec: OpRecord, kind: str, detail: str, wrong: bool):
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if wrong:
            self.wrong += 1
        if not rec.error:
            rec.error = f"{kind}: {detail}"
            print(f"FAIL {kind}: {detail}", file=sys.stderr)

    def passes(self, deadline: float, tracer=None) -> list[PassLayers]:
        """Complete passes while time remains; the first pass always
        completes.  Returns per-layer totals of the traced full passes."""
        layers = []
        first = True
        while first or time.perf_counter() < deadline:
            acc = PassLayers() if tracer else None
            t0 = time.perf_counter()
            complete = self._one_pass(deadline, first, tracer, acc)
            if complete:
                self.pass_s.append(time.perf_counter() - t0)
            if acc is not None and complete:
                layers.append(acc)
            first = False
        return layers

    def _one_pass(self, deadline, must_finish, tracer, acc) -> bool:
        for op, rec in zip(self.batch.ops, self.records):
            if not must_finish and time.perf_counter() >= deadline:
                return False
            if rec.error.startswith("timeout"):
                continue        # it would only spend the limit again
            self.executions += 1
            result, exc = None, None
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
            try:
                result = op.run()
            except (Exception, OpTimeout) as e:  # counted, never aborts
                exc = e
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            rec.samples.append((elapsed, len(self.speed.probes)))
            self.speed.take()
            if tracer is not None:
                tracer.paused = True
            try:
                self._after_op(op, rec, result, exc, tracer, acc, elapsed)
            finally:
                if tracer is not None:
                    tracer.paused = False
        return True

    def _after_op(self, op, rec, result, exc, tracer, acc, elapsed):
        if acc is not None:
            acc.op_s += elapsed
            self._account(tracer.take(), acc, rec, op.label)
        if exc is not None:
            kind = "timeout" if isinstance(exc, OpTimeout) else \
                wl.classify_error(exc)
            self.fail(rec, kind or "error", f"{op.label}: {exc!r}",
                      wrong=kind is None)
            fingerprint = {"error": kind or type(exc).__name__}
        else:
            try:
                fingerprint = op.check(result)
            except Exception as e:  # a check that cannot run is a failed check
                self.fail(rec, "check", f"{op.label}: {e}", wrong=True)
                fingerprint = {"check_failed": str(e)}
        if rec.fingerprint is None:
            rec.fingerprint = fingerprint
        elif rec.fingerprint != fingerprint:
            self.fail(rec, "nondeterministic",
                      f"{op.label}: {rec.fingerprint} then {fingerprint}",
                      wrong=True)

    def _account(self, spans, acc: PassLayers, rec, label):
        for s in spans:
            acc.self_s[s.name] = acc.self_s.get(s.name, 0.0) + s.self_s
            acc.add(s.name + ".calls", 1)
            r = s.result
            if r is None:
                continue
            if s.name == "acsearch.search":
                acc.add("nodes", r.stats.nodes_expanded)
                acc.add("keys", r.stats.distinct_keys)
                acc.counts["frontier"] = max(acc.counts.get("frontier", 0),
                                             r.stats.max_frontier)
                acc.add(r.status, 1)
            elif s.name == "acsearch.replay_trace":
                acc.add("replay_moves", len(s.args[1]))
            elif s.name == "certify.todd_coxeter":
                acc.add("cosets", r.defined)
                acc.add("coset_budget_hits", r.status == "budget")
            elif s.name == "framedlinks.apply_script":
                acc.add("moves", len(s.args[1]))
            elif s.name == "certify.smith_normal_form":
                bits = check_snf(s.args[0], r)
                if bits is None:
                    self.fail(rec, "check", f"{label}: SNF transforms do not "
                              "diagonalize the matrix unimodularly", wrong=True)
                else:
                    acc.counts["snf_max_bits"] = max(
                        acc.counts.get("snf_max_bits", 0), bits)


def check_snf(mat, snf):
    """Largest bit length in the transforms, or None unless
    left * mat * right is the diagonal and both transforms have det +-1."""
    product = snf.left * mat * snf.right
    if product != snf.diagonal_matrix(mat.rows, mat.cols):
        return None
    if snf.left.det() not in (1, -1) or snf.right.det() not in (1, -1):
        return None
    entries = [v for m in (snf.left, snf.right) for row in m.entries for v in row]
    return max((abs(v).bit_length() for v in entries), default=0)


def key_probe(kc, presentations) -> float:
    """Microseconds per acsearch.canonical_key call on the workload's own
    presentations; a relator too long for the key raises, and that call is
    timed like any other."""
    if not presentations:
        return 0.0
    key = kc.acsearch.canonical_key
    sweeps = []
    deadline = time.perf_counter() + KEY_PROBE_SECONDS
    while len(sweeps) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for p in presentations:
            try:
                key(p)
            except ValueError:
                pass
        sweeps.append((time.perf_counter() - t0) / len(presentations))
    return statistics.median(sweeps) * 1e6


# -- metrics -----------------------------------------------------------------

def latencies(run: Run) -> list:
    """Each op's median repetition, in reference seconds; None for an op
    that did not run, which only an op that timed out earlier can be."""
    return [statistics.median(run.speed.scale(t, k) for t, k in rec.samples)
            if rec.samples else None for rec in run.records]


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    lat = latencies(run)
    # a failed op's time still counts in wall_s: the work it did before it
    # failed is work the user waited for
    wall = sum(lat)
    best = [None if rec.error else t for rec, t in zip(run.records, lat)]
    ok = len(best) - best.count(None)
    # a failed op ranks at the time limit, beyond every real latency, so it
    # misses every latency limit
    ranked = sorted(OP_TIME_LIMIT_S if t is None else t for t in best)
    n = len(ranked)
    failed_ops = n - ok
    # highest rank with TAIL_BEYOND samples beyond it that is not a failed
    # op, but never below the median
    tail_index = max((n - 1) // 2, min(n - TAIL_BEYOND - 1, ok - 1))
    info = {"ops": n, "tail_percentile": round(100 * (tail_index + 1) / n, 1),
            "failed_ops": failed_ops, "fail_frac": failed_ops / n,
            # unscaled, for comparison: the fastest repetitions' sum and the
            # median probe time
            "raw_wall_s": round(sum(min(t for t, _ in rec.samples)
                                    for rec in run.records), 4),
            "probe_ms": round(statistics.median(run.speed.probes) * 1e3, 4)}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (wall, "s"),
        "ops_per_s": (ok / wall if wall else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(ranked) * 1e3, "ms"),
        "op_tail_ms": (ranked[tail_index] * 1e3, "ms"),
        "ok_frac": (ok / n, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, info


LAYER_TIMES = {
    "acsearch.search_ms": "acsearch.search",
    "acsearch.replay_ms": "acsearch.replay_trace",
    "certify.todd_coxeter_ms": "certify.todd_coxeter",
    "certify.verify_ms": "certify.verify_coset_table",
    "certify.snf_ms": "certify.smith_normal_form",
    "certify.abelianization_ms": "certify.abelianization",
    "framedlinks.script_ms": "framedlinks.apply_script",
    "framedlinks.h1_ms": "framedlinks.h1_of_surgery",
    "slopes.enumerate_ms": "slopes.enumerate_candidates",
    "pipeline.self_ms": "pipeline.run_pipeline",
}


def per_layer(layers: list[PassLayers], key_us: float,
              overhead: float) -> dict:
    """Self times and counts of the traced pass with the median op time;
    its self times plus trace.unattributed_ms add up to trace.pass_s."""
    acc = sorted(layers, key=lambda a: a.op_s)[(len(layers) - 1) // 2]
    c = acc.counts
    ms = {name: acc.self_s.get(span, 0.0) * 1e3
          for name, span in LAYER_TIMES.items()}
    todd_s = acc.self_s.get("certify.todd_coxeter", 0.0)
    nodes = c.get("nodes", 0)
    out = {name: (value, "ms") for name, value in ms.items()}
    out.update({
        "acsearch.us_per_node": (ms["acsearch.search_ms"] * 1e3 / nodes
                                 if nodes else 0.0, "us"),
        "acsearch.key_us": (key_us, "us"),
        "acsearch.nodes_expanded": (nodes, "count"),
        "acsearch.distinct_keys": (c.get("keys", 0), "count"),
        "acsearch.max_frontier": (c.get("frontier", 0), "count"),
        "acsearch.keys_per_node": (c.get("keys", 0) / nodes if nodes else 0.0,
                                   "ratio"),
        "acsearch.trivialized": (c.get("trivialized", 0), "count"),
        "acsearch.exhausted": (c.get("exhausted", 0), "count"),
        "acsearch.budget": (c.get("budget", 0), "count"),
        "acsearch.replay_moves": (c.get("replay_moves", 0), "count"),
        "certify.cosets_defined": (c.get("cosets", 0), "count"),
        "certify.cosets_per_s": (c.get("cosets", 0) / todd_s if todd_s else 0.0,
                                 "1/s"),
        "certify.coset_budget_hits": (c.get("coset_budget_hits", 0), "count"),
        "certify.snf_calls": (c.get("certify.smith_normal_form.calls", 0),
                              "count"),
        "certify.snf_max_bits": (c.get("snf_max_bits", 0), "count"),
        "framedlinks.moves": (c.get("moves", 0), "count"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.unattributed_ms": ((acc.op_s - sum(acc.self_s.values())) * 1e3,
                                  "ms"),
        "trace.pass_s": (acc.op_s, "s"),
    })
    return out


def batch_fingerprint(run: Run) -> dict:
    """Exact counts over the batch; equal for two runs of the same code and
    seed.  The digest covers every op's own fingerprint."""
    fps = [rec.fingerprint for rec in run.records]
    total = {"ops": len(fps), "statuses": {}, "nodes": 0, "keys": 0,
             "trace_moves": 0, "cosets": 0, "errors": {}}
    for fp in fps:
        if "status" in fp:
            total["statuses"][fp["status"]] = total["statuses"].get(fp["status"], 0) + 1
            total["nodes"] += fp["nodes"]
            total["keys"] += fp["keys"]
            total["trace_moves"] += fp["trace_len"] or 0
        total["cosets"] += fp.get("cosets", 0)
        for key in ("error", "check_failed"):
            if key in fp:
                total["errors"][fp[key]] = total["errors"].get(fp[key], 0) + 1
    blob = json.dumps(fps, sort_keys=True).encode()
    total["digest"] = hashlib.sha256(blob).hexdigest()[:16]
    return total


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# -- entry point -------------------------------------------------------------

def run_one(args) -> dict:
    if not (SRC / "kirbycalc" / "__init__.py").is_file():
        raise SystemExit(f"error: no kirbycalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    speed = Speed()
    setups = []
    for _ in range(SETUP_REPS):
        kc, batch, elapsed = setup_once(args.workload, args.seed)
        setups.append((elapsed, speed.take()))
    setup_s = statistics.median(speed.scale(t, k) for t, k in setups)
    run = Run(batch, speed)
    start = time.perf_counter()
    meta = {"workload": args.workload, "seed": args.seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "kernel": kc.acsearch.KERNEL_IMPL, "git_sha": git_sha(),
            "loop": "closed, 1 caller"}
    if args.trace:
        run.passes(start + UNTRACED_SHARE * args.seconds)
        untraced = latencies(run)
        for rec in run.records:
            rec.samples.clear()
        tracer = spans_mod.Tracer()
        tracer.install()
        try:
            layers = run.passes(start + args.seconds, tracer)
        finally:
            tracer.uninstall()
        traced = latencies(run)
        # over the ops that succeeded
        both = [(u, t) for u, t, rec in zip(untraced, traced, run.records)
                if not rec.error]
        overhead = (sum(t for _, t in both) / sum(u for u, _ in both) - 1
                    if both else 0.0)
        metrics = per_layer(layers, key_probe(kc, batch.key_inputs), overhead)
        meta["traced_passes"] = len(layers)
        meta["trace.overhead_frac"] = round(overhead, 4)
    else:
        run.passes(start + args.seconds)
        metrics, info = end_to_end(run, setup_s)
        meta.update(info)
    meta["measured_s"] = round(time.perf_counter() - start, 3)
    meta["repetitions"] = [min(len(r.samples) for r in run.records),
                           max(len(r.samples) for r in run.records)]
    meta["failures"] = run.failures
    meta["executions"] = run.executions
    meta["pass_s"] = [round(t, 3) for t in run.pass_s]
    fp = batch_fingerprint(run)
    correct = run.wrong == 0
    if args.expect_fingerprint and fp["digest"] != args.expect_fingerprint:
        print(f"FAIL fingerprint {fp['digest']} != expected "
              f"{args.expect_fingerprint}", file=sys.stderr)
        correct = False
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    # every op of the batch runs at least once, so these counts depend on
    # the seed alone, never on how many repetitions fit into --seconds
    return {"correct": correct, "attempted": len(run.records),
            "failed": sum(1 for rec in run.records if rec.error),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-fingerprint", default=None,
                        help="digest a previous run of this seed printed; a "
                             "different digest makes the run incorrect")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all" and args.expect_fingerprint:
        parser.error("--expect-fingerprint needs a single workload")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
