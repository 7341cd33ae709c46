"""Command-line front end.

Exit codes: 0 = ran to completion (search exhaustion is a finding, not a
failure), 1 = usage or input error, 2 = internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import acsearch, framedlinks, pipeline, slopes, wirtinger
from .certify import abelianization, certification_report
from .presentations import BalancedPresentation, Presentation


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    except RecursionError:
        raise SystemExit(f"error: {path} is nested too deeply")


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _search_flags(sub) -> None:
    """Search flags, kept under SearchConfig field names and only when given:
    pipeline.default_search_config owns the defaults."""
    given_int = dict(type=int, default=argparse.SUPPRESS)
    sub.add_argument("--max-total-length", **given_int,
                     help="cap on the sum of relator lengths")
    sub.add_argument("--max-depth", **given_int)
    sub.add_argument("--conj-depth", dest="conjugator_depth", **given_int,
                     help="conjugators enumerated up to this length")
    sub.add_argument("--budget", dest="node_budget", **given_int,
                     help="node expansion budget")
    sub.add_argument("--stabilizations", **given_int)


def _search_overrides(args) -> dict:
    """The search flags the user gave, as SearchConfig keyword arguments."""
    given = vars(args)
    return {f.name: given[f.name] for f in fields(acsearch.SearchConfig)
            if f.name in given}


def build_parser() -> _Parser:
    parser = _Parser(prog="kirbycalc")
    sub = parser.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("pipeline", help="full report for one family member")
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--w", default="y x", help="conjugating word, token syntax")
    pl.add_argument("--max-cosets", type=int, default=pipeline.DEFAULT_COSET_BUDGET)
    pl.add_argument("--max-q", type=int, default=pipeline.DEFAULT_MAX_Q)
    _search_flags(pl)

    ac = sub.add_parser("ac-search", help="bounded trivialization search")
    ac.add_argument("presentation", help="presentation JSON file")
    _search_flags(ac)

    ce = sub.add_parser("certify", help="abelianization + coset enumeration")
    ce.add_argument("presentation")
    ce.add_argument("--max-cosets", type=int, default=pipeline.DEFAULT_COSET_BUDGET)

    abel = sub.add_parser("abelianization", help="cokernel of the exponent matrix")
    abel.add_argument("presentation")

    wi = sub.add_parser("wirtinger", help="presentations from a PD code")
    wi.add_argument("pdcode", help="PD JSON file")
    wi.add_argument("--framings", default=None,
                    help="comma-separated framings, one per component: emit "
                         "the surgery presentation")

    ki = sub.add_parser("kirby", help="framed-link model operations")
    ki_sub = ki.add_subparsers(dest="kirby_command", required=True)
    ka = ki_sub.add_parser("apply", help="apply a move script")
    ka.add_argument("model")
    ka.add_argument("script")
    kc = ki_sub.add_parser("check", help="zero framing/linking hypothesis check")
    kc.add_argument("model")
    kh = ki_sub.add_parser("h1", help="homology of the surgered manifold")
    kh.add_argument("model")

    cu = sub.add_parser("curves", help="slope calculus on the 4-punctured sphere")
    cu_sub = cu.add_subparsers(dest="curves_command", required=True)
    cc = cu_sub.add_parser("classify")
    cc.add_argument("slope", help="p/q, e.g. 1/0 or -3/5")
    ce2 = cu_sub.add_parser("enumerate")
    ce2.add_argument("--max-q", type=int, required=True)
    ce2.add_argument("--json", action="store_true")
    return parser


def _cmd_pipeline(args) -> int:
    report = pipeline.run_pipeline(args.n, args.w, coset_budget=args.max_cosets,
                                   max_q=args.max_q, **_search_overrides(args))
    _emit(report)
    sys.stderr.write(pipeline.summarize(report) + "\n")
    return 0


def _load_balanced(path: str) -> BalancedPresentation:
    return BalancedPresentation.from_json(_load_json(path))


def _cmd_ac_search(args) -> int:
    p = _load_balanced(args.presentation)
    cfg = pipeline.default_search_config(p, **_search_overrides(args))
    outcome = acsearch.search(p, cfg)
    _emit({"config": cfg.to_json(), **outcome.to_json()})
    return 0


def _cmd_certify(args) -> int:
    p = Presentation.from_json(_load_json(args.presentation))
    _emit(certification_report(p, args.max_cosets))
    return 0


def _cmd_abelianization(args) -> int:
    p = Presentation.from_json(_load_json(args.presentation))
    _emit(abelianization(p).to_json())
    return 0


def _parse_framings(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise SystemExit(f"error: bad framings {text!r}: expected integers "
                         "separated by commas")


def _cmd_wirtinger(args) -> int:
    pd = wirtinger.PDCode.from_json(_load_json(args.pdcode))
    if args.framings is None:
        _emit(wirtinger.wirtinger_presentation(pd).to_json())
    else:
        sp = wirtinger.surgery_presentation(pd, _parse_framings(args.framings))
        data = sp.to_json()
        data["abelianization"] = sp.abelianization().to_json()
        _emit(data)
    return 0


def _cmd_kirby(args) -> int:
    model = framedlinks.FramedLinkModel.from_json(_load_json(args.model))
    if args.kirby_command == "apply":
        script = _load_json(args.script)
        if not isinstance(script, list):
            raise SystemExit("error: move script must be a JSON array")
        result = framedlinks.apply_script(model, script)
        _emit(result.to_json())
    elif args.kirby_command == "check":
        _emit(model.gpr_hypothesis_check().to_json())
    else:
        _emit(model.h1_of_surgery().to_json())
    return 0


def _cmd_curves(args) -> int:
    if args.curves_command == "classify":
        s = slopes.Slope.from_text(args.slope)
        _emit(slopes.classify(s))
    else:
        cands = slopes.enumerate_candidates(args.max_q)
        if args.json:
            _emit({"max_q": args.max_q, "slopes": [str(s) for s in cands]})
        else:
            for s in cands:
                sys.stdout.write(f"{s}\n")
    return 0


_COMMANDS = {
    "pipeline": _cmd_pipeline,
    "ac-search": _cmd_ac_search,
    "certify": _cmd_certify,
    "abelianization": _cmd_abelianization,
    "wirtinger": _cmd_wirtinger,
    "kirby": _cmd_kirby,
    "curves": _cmd_curves,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        if exc.code and not isinstance(exc.code, int):
            sys.stderr.write(str(exc.code) + "\n")
            return 1
        return exc.code or 0
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except AssertionError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
