"""Command-line surface: construct squares, classify cells, reproduce the
reference table of transversal-free counts, and emit machine-readable
certificates.

Exit codes: 0 success, 2 input/domain error, 3 node budget exceeded (partial
output is still emitted by ``classify``, ``bounds``, ``blocks`` and ``table1``;
``transversal`` and ``pinned`` print only the error).  All JSON output is
deterministic; the ``meta`` block (tool, version, timestamp) is dropped with
``--no-meta`` so byte-identical reruns can be compared.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, blocks, bounds, engine
from .core import (
    DomainError,
    LatinSquare,
    LatinSquareError,
    ParseError,
    _integer,
    from_json,
    parse,
    serialize,
)
from .delta import forced_entry_certificate
from .engine import BudgetExceeded, SearchMode
from .families import FAMILIES, PINNED_FAMILIES, build_family, family_of_order

DEFAULT_BUDGET = 1_000_000_000


def _meta() -> dict:
    return {
        "tool": "latintrav",
        "version": __version__,
        "generatedAt": datetime.now(timezone.utc).isoformat(),
    }


def _emit(args, payload: dict, text_renderer) -> None:
    if args.format == "text":
        out = text_renderer(payload)
    else:
        body = dict(payload)
        if not args.no_meta:
            body["meta"] = _meta()
        out = json.dumps(body, indent=2, sort_keys=True)
    print(out)


def _load_square(args) -> LatinSquare:
    if args.square:
        if args.family or args.order is not None or args.m is not None:
            raise DomainError("a square file takes no --family, --order or --m")
        text = Path(args.square).read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            return from_json(text)
        return parse(text)
    if args.family:
        return build_family(args.family, n=args.order, m=args.m)
    raise LatinSquareError("provide a square file or --family/--order")


def _plain_int(text: str) -> int:
    """An integer option value: plain ``-?[0-9]+`` only, the rule `core.parse` applies."""
    try:
        return _integer(text, "not a plain integer", 1)
    except ParseError:
        raise argparse.ArgumentTypeError(f"not a plain integer: {text!r}") from None


def _add_square_source(p: argparse.ArgumentParser, positional: bool = True) -> None:
    """A square file or family options; without the file, --family is required."""
    if positional:
        p.add_argument("square", nargs="?", help="square file (text or JSON form)")
    p.add_argument("--family", choices=FAMILIES, required=not positional)
    p.add_argument("--order", type=_plain_int)
    p.add_argument("--m", type=_plain_int, help="block size for family L")


def _add_common(p: argparse.ArgumentParser, budget: int | None = None) -> None:
    p.add_argument("--budget", type=_plain_int, default=budget, help="node budget per search")
    p.add_argument("--format", choices=["text", "json"], default="json")
    p.add_argument("--no-meta", action="store_true", help="omit timestamp/meta block")


def cmd_construct(args) -> int:
    square = build_family(args.family, n=args.order, m=args.m)
    text = serialize(square)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_classify(args) -> int:
    square = _load_square(args)
    code = 0
    report = engine.classify(square, node_budget=args.budget)
    if report.partial:
        code = 3
    _emit(args, report.to_json_dict(), _render_classify)
    return code


def _render_classify(payload: dict) -> str:
    return "\n".join([
        f"order {payload['order']}  family {payload['family'] or '-'}",
        f"tau {payload['tau']}  hasTransversal {payload['hasTransversal']}",
        f"pinned {payload['pinned']}",
    ])


def _spec(spec: str, metavar: str) -> tuple[int, ...]:
    """One ``--require`` (R,C,S) or ``--forbid`` (R,C) value as its integers."""
    try:
        values = tuple(map(_plain_int, spec.split(",")))
    except argparse.ArgumentTypeError:
        values = ()
    if len(values) != metavar.count(",") + 1:
        raise DomainError(f"expected {metavar} as integers, got {spec!r}")
    return values


def cmd_transversal(args) -> int:
    if args.action == "disjoint-pair" and (args.mode or args.require or args.forbid):
        raise DomainError("disjoint-pair takes no --mode, --require or --forbid")
    square = _load_square(args)
    mode = SearchMode.SUITABLE_DIAGONAL if args.mode == "suitable" else SearchMode.TRANSVERSAL
    required = tuple(_spec(spec, "R,C,S") for spec in args.require or ())
    forbidden = tuple(_spec(spec, "R,C") for spec in args.forbid or ())
    kwargs = dict(required=required, forbidden_cells=forbidden, mode=mode,
                  node_budget=args.budget)
    if args.action == "find":
        sol = engine.find(square, **kwargs)
        payload = {"found": sol is not None,
                   "cols": list(sol.cols) if sol else None,
                   "mode": mode.value}
        _emit(args, payload, lambda p: str(p["cols"]) if p["found"] else "none")
        return 0
    if args.action == "count":
        count = engine.enumerate_solutions(square, **kwargs)
        _emit(args, {"count": count, "mode": mode.value}, lambda p: str(p["count"]))
        return 0
    if args.action == "enumerate":
        sols = [list(d.cols) for d in engine.iter_solutions(square, **kwargs)]
        _emit(args, {"count": len(sols), "solutions": sols, "mode": mode.value},
              lambda p: "\n".join(str(s) for s in p["solutions"]) or "none")
        return 0
    pair = engine.find_disjoint_pair(square, node_budget=args.budget)
    payload = {"found": pair is not None,
               "pair": [list(t.cols) for t in pair] if pair else None}
    _emit(args, payload, lambda p: str(p["pair"]) if p["found"] else "none")
    return 0


def cmd_pinned(args) -> int:
    square = build_family(args.family, n=args.order, m=args.m)
    cert = forced_entry_certificate(square)
    verdicts = engine.pinned_verdicts(square, cert.forced, node_budget=args.budget)
    entries = [{"entry": list(e.as_tuple()), "pinned": verdict}
               for e, verdict in zip(cert.forced, verdicts)]
    payload = {
        "family": args.family,
        "order": square.order,
        "floor": square.order // 6,
        "certificate": cert.to_json_dict(),
        "entries": entries,
    }
    _emit(args, payload, lambda p: json.dumps(p["certificate"]))
    return 0


def cmd_bounds(args) -> int:
    code = 0
    if args.sets_only:
        check = bounds.check_sets_only(args.family, args.order)
    else:
        square = build_family(args.family, n=args.order)
        report = engine.classify(square, node_budget=args.budget)
        if report.partial:
            check = bounds.check_sets_only(args.family, args.order)
            code = 3
        else:
            check = bounds.verify_bound(args.family, args.order, report)
    _emit(args, check.to_json_dict(),
          lambda p: f"{p['family']}{p['n']}: union {p['unionSize']} >= "
                    f"{p['formulaValue']}, subsetOK {p['subsetOK']}, tau {p['tau']}")
    return code


def cmd_blocks(args) -> int:
    check = blocks.verify_hit_theorem(args.m, node_budget=args.budget)
    _emit(args, check.to_json_dict(),
          lambda p: f"m {p['m']}: pass {p['pass']} (count {p['transversalCount']}, "
                    f"min hits {p['minBlockHits']})")
    return 3 if check.budget_exhausted else 0


def cmd_table1(args) -> int:
    if args.max_order % 2 or not 10 <= args.max_order <= 32:
        raise LatinSquareError(f"--max-order must be even in 10..32, got {args.max_order}")
    rows = []
    code = 0
    for n in range(10, args.max_order + 2, 2):
        family = family_of_order(n)
        square = build_family(family, n)
        report = engine.classify(square, node_budget=args.budget)
        if report.partial:
            code = 3
            break
        rows.append({
            "label": f"{family}{n}",
            "order": n,
            "family": family,
            "lowerBound": bounds.lower_bound(family, n),
            "tau": report.tau,
        })
    payload = {"rows": rows}

    def render(p):
        lines = ["L      lower  tau"]
        for row in p["rows"]:
            lines.append(f"{row['label']:<6} {row['lowerBound']:<6} {row['tau']}")
        return "\n".join(lines)

    _emit(args, payload, render)
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="latintrav",
        description="Latin square transversal analysis: constructions, "
                    "classification, certificates.")
    ap.add_argument("--version", action="version", version=f"latintrav {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family square and print/write it")
    _add_square_source(p, positional=False)
    p.add_argument("--output", "-o", help="write to file instead of stdout")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("classify", help="per-cell FREE/COVERED/PINNED report")
    _add_square_source(p)
    _add_common(p, DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("transversal", help="find/enumerate/count transversals")
    p.add_argument("action", choices=["find", "enumerate", "count", "disjoint-pair"])
    _add_square_source(p)
    p.add_argument("--mode", choices=["transversal", "suitable"])
    p.add_argument("--require", action="append", metavar="R,C,S",
                   help="entry the solution must contain (repeatable)")
    p.add_argument("--forbid", action="append", metavar="R,C",
                   help="cell the solution must avoid (repeatable)")
    _add_common(p)
    p.set_defaults(fn=cmd_transversal)

    p = sub.add_parser("pinned", help="forced-entry certificate plus search verdicts")
    _add_square_source(p, positional=False)
    _add_common(p)
    p.set_defaults(fn=cmd_pinned)

    p = sub.add_parser("bounds", help="transversal-free lower-bound check")
    p.add_argument("--family", choices=PINNED_FAMILIES, required=True)
    p.add_argument("--order", type=_plain_int, required=True)
    p.add_argument("--sets-only", action="store_true",
                   help="skip classification; set arithmetic only")
    _add_common(p, DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("blocks", help="block-hit theorem verification")
    p.add_argument("--m", type=_plain_int, required=True)
    _add_common(p, DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_blocks)

    p = sub.add_parser("table1", help="lower bound vs computed tau per even order")
    p.add_argument("--max-order", type=_plain_int, default=16)
    _add_common(p, DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_table1)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        engine._check_budget(getattr(args, "budget", None))
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LatinSquareError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
