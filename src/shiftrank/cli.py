"""Command-line surface.

Subcommands: towers, rank, bratteli, measure, periodic, check.
Exit codes: 0 ok, 1 property failure, 2 config error, 3 parse error.
Identical (config, input, seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .checks import SUITES, run_suite
from .crossed import CrossedElement
from .engine import rank_interval, rational_decimal
from .errors import (
    BadConfig,
    BadLetter,
    DivisionByZero,
    ExprSyntaxError,
    ShiftRankError,
    ZeroEvaluationPoint,
)
from .expressions import parse_expr
from .fields import field_from_spec, parse_rational, render_rational
from .linalg import matrix_rank
from .periodic import PeriodicPoint, evaluation_rank, periodic_rank_kt, rho_finite
from .space import SystemConfig, parse_system
from .towers import LevelScheme, _require_nonnegative, bratteli_export, enumerate_return_words

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3

DEFAULT_SYSTEM = "bernoulli:2:1/2,1/2"
DEFAULT_MARKER = 1


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--system", default=DEFAULT_SYSTEM,
                   help="bernoulli:M:p0,p1,... (default binary 1/2,1/2)")
    p.add_argument("--marker", type=int, default=DEFAULT_MARKER,
                   help="marker letter generating the tower bases (default 1)")
    p.add_argument("--field", default="q", help="scalar field: q or f:<prime>")
    p.add_argument("--level", type=int, default=1, help="tower level n (default 1)")
    p.add_argument("--kmax", type=int, default=24,
                   help="return-word length cap (default 24)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", type=int, default=0, help="seed for check suites")
    p.add_argument("--preset", default=None,
                   help="lamplighter:N sets the binary system at level N "
                        "(generators s_i = e_i t, i = -N..N)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shiftrank",
        description="Certified exact rank intervals on the crossed product of the full shift.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("towers", help="list return words, measures, and tail mass")
    _common_flags(p)

    p = sub.add_parser("rank", help="certified rank interval of an expression or matrix")
    _common_flags(p)
    p.add_argument("--expr", help="element expression, e.g. 'chi(0;1)*t + chi(0;0)'")
    p.add_argument("--matrix", help="JSON file: array of arrays of expressions")

    p = sub.add_parser("bratteli", help="export one diagram slice (level n to n+1)")
    _common_flags(p)
    p.add_argument("--from", dest="from_level", type=int, default=0,
                   help="coarse level n (default 0)")
    p.add_argument("--format", dest="fmt", choices=("dot", "json"), default="dot")

    p = sub.add_parser("measure", help="exact measure of a clopen set")
    _common_flags(p)
    p.add_argument("--clopen", required=True,
                   help="indicator expression, e.g. 'chi(-1;111)'")

    p = sub.add_parser("periodic", help="periodic-orbit ranks of an expression")
    _common_flags(p)
    p.add_argument("--word", required=True, help="repeating letter word of the point")
    p.add_argument("--expr", required=True, help="element expression")
    p.add_argument("--eval", dest="eval_at", default=None,
                   help="also evaluate the Laurent image at this nonzero rational")

    p = sub.add_parser("check", help="run a property-check suite")
    _common_flags(p)
    p.add_argument("--suite", required=True, help="|".join(SUITES))

    return ap


def _configure(args) -> tuple[SystemConfig, object, int]:
    level = args.level
    system = args.system
    marker = args.marker
    if args.preset:
        name, _, val = args.preset.partition(":")
        if name != "lamplighter":
            raise BadConfig(f"unknown preset {args.preset!r}")
        system = DEFAULT_SYSTEM
        marker = 1
        level = int(val) if val else 1
    _require_nonnegative(level=level, kmax=args.kmax)
    config = parse_system(system, marker)
    field = field_from_spec(args.field)
    return config, field, level


def _parse_matrix_file(path: str, config, field) -> list[list[CrossedElement]]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise BadConfig(f"{path}: expected a JSON array of arrays of expressions")
    return [[parse_expr(cell, config, field) for cell in row] for row in doc]


def cmd_towers(args) -> int:
    config, _, level = _configure(args)
    family = enumerate_return_words(LevelScheme(config, level), args.kmax)
    if args.json:
        doc = {
            "level": level,
            "kmax": args.kmax,
            "words": [w.to_json_dict() for w in family.words],
            "tail": render_rational(family.tail),
            "tail_dec": rational_decimal(family.tail),
        }
        print(json.dumps(doc, indent=2))
    else:
        for w in family.words:
            print(f"{w.content}  k={w.length}  mu={render_rational(w.measure)}")
        print(f"words: {len(family.words)}  tail: {render_rational(family.tail)}"
              f"  ({rational_decimal(family.tail)})")
    return EXIT_OK


def cmd_rank(args) -> int:
    config, field, level = _configure(args)
    if bool(args.expr) == bool(args.matrix):
        raise BadConfig("rank needs exactly one of --expr or --matrix")
    if args.expr:
        m = parse_expr(args.expr, config, field)
        entries = [[m]]
    else:
        entries = _parse_matrix_file(args.matrix, config, field)
    max_radius = max(e.radius for row in entries for e in row)
    if level < max_radius:
        print(f"note: raising level {level} -> {max_radius} (expression radius)",
              file=sys.stderr)
        level = max_radius
    iv = rank_interval(entries, level, args.kmax)
    if args.json:
        print(json.dumps(iv.to_json_dict(), indent=2))
    else:
        print(f"rank interval  [{render_rational(iv.lower)}, {render_rational(iv.upper)}]")
        print(f"  decimal      [{rational_decimal(iv.lower)}, {rational_decimal(iv.upper)}]")
        print(f"  partial      {render_rational(iv.partial)}")
        print(f"  epsilon      {render_rational(iv.epsilon)}")
        print(f"  tail         {render_rational(iv.tail)}")
        print(f"  level={iv.level} kmax={iv.kmax} dim={iv.dim} "
              f"words={iv.words_used} field={iv.field_name}")
    return EXIT_OK


def cmd_bratteli(args) -> int:
    config, _, _ = _configure(args)
    print(bratteli_export(config, args.from_level, args.kmax, args.fmt), end="")
    return EXIT_OK


def cmd_measure(args) -> int:
    config, field, _ = _configure(args)
    e = parse_expr(args.clopen, config, field)
    if e.degrees() not in ([], [0]):
        raise BadConfig("--clopen expression must have degree 0")
    f = e.coeff(0)
    if not f.is_indicator():
        raise BadConfig("--clopen expression is not a 0/1 indicator")
    mu = f.support().measure()
    if args.json:
        print(json.dumps({"measure": render_rational(mu),
                          "measure_dec": rational_decimal(mu)}))
    else:
        print(render_rational(mu))
    return EXIT_OK


def cmd_periodic(args) -> int:
    config, field, _ = _configure(args)
    x = PeriodicPoint(config, args.word)
    e = parse_expr(args.expr, config, field)
    kt = periodic_rank_kt(e, x)
    rho = Fraction(matrix_rank(rho_finite(e, x)), x.period)
    doc = {
        "period": x.period,
        "kt_rank": render_rational(kt),
        "rho_rank": render_rational(rho),
    }
    if args.eval_at is not None:
        alpha = field.from_fraction(parse_rational(args.eval_at))
        doc["eval_at"] = args.eval_at
        doc["eval_rank"] = render_rational(evaluation_rank(e, x, alpha))
    if args.json:
        print(json.dumps(doc))
    else:
        line = f"period {doc['period']}  kt-rank {doc['kt_rank']}  rho-rank {doc['rho_rank']}"
        if "eval_rank" in doc:
            line += f"  eval({doc['eval_at']})-rank {doc['eval_rank']}"
        print(line)
    return EXIT_OK


def cmd_check(args) -> int:
    config, field, _ = _configure(args)
    results = run_suite(args.suite, config, field, args.seed)
    ok = all(r.ok for r in results)
    if args.json:
        print(json.dumps({
            "suite": args.suite,
            "seed": args.seed,
            "ok": ok,
            "results": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
            "failures": [r.name for r in results if not r.ok],
        }, indent=2))
    else:
        for r in results:
            print(r.line())
        print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "towers": cmd_towers,
    "rank": cmd_rank,
    "bratteli": cmd_bratteli,
    "measure": cmd_measure,
    "periodic": cmd_periodic,
    "check": cmd_check,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (BadLetter, DivisionByZero) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (BadConfig, ZeroEvaluationPoint, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ShiftRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
