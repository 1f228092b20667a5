"""Command-line entry point: `cover <subcommand> ...`.

Subcommands: validate, greedy, bounds, lp, exact, gen (cs|gf2|random),
table (1|2|3), convert.  Exit codes: 0 success, 1 usage error, 2 parse
error, 3 invalid/infeasible instance, 4 budget or iteration limit or out of
memory, 5 solver numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import exact as exact_mod
from . import experiments as exp_mod
from . import lp as lp_mod
from .errors import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, ScpError
from .generators import (
    DEFAULT_EPSILON,
    RandomSpec,
    SequenceSpec,
    gen_class_cs,
    gen_gf2,
    gen_random,
)
from .greedy import TIE_LOWEST_INDEX, TIE_MAX_RESIDUAL, greedy, trace_to_csv
from .instance import (
    Instance,
    decode_text,
    detect_format,
    format_weight,
    parse_native,
    parse_orlib,
    parse_weight,
    write_native,
)

TIE_FLAGS = {"index": TIE_LOWEST_INDEX, "max-size": TIE_MAX_RESIDUAL}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(path: str, source: str) -> Instance:
    with open(path, "rb") as fh:
        text = decode_text(fh.read())
    fmt = detect_format(text) if source == "auto" else source
    parse = parse_native if fmt == "native" else parse_orlib
    return parse(text, name=path)


def _write_out(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    instance = _load(args.file, args.source)
    print(f"ok: m={instance.m} n={instance.n}")
    return EXIT_OK


def _cmd_greedy(args) -> int:
    instance = _load(args.file, args.source)
    trace = greedy(instance, tie=TIE_FLAGS[args.tie_break])
    if args.format == "csv":
        _write_out(trace_to_csv(trace), args.output)
        return EXIT_OK
    lines = [
        f"chosen={' '.join(str(i) for i in trace.chosen)}",
        f"s={' '.join(str(v) for v in trace.s)}",
        f"iterations={len(trace.chosen)}",
        f"total_weight={format_weight(trace.total_weight)}",
    ]
    _write_out("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    instance = _load(args.file, args.source)
    trace = greedy(instance, tie=TIE_FLAGS[args.tie_break])
    opt = None
    if instance.n <= exact_mod.AUTO_EXHAUSTIVE_MAX_N:
        opt = exact_mod.exact_opt(instance).cover
    report = bounds_mod.bound_report(instance, trace, opt)
    text = bounds_mod.report_to_csv(report) if args.format == "csv" \
        else bounds_mod.report_to_kv(report)
    _write_out(text, args.output)
    return EXIT_OK


def _cmd_lp(args) -> int:
    instance = _load(args.file, args.source)
    if args.export_lp:
        text = lp_mod.write_lp_format(instance)
        with open(args.export_lp, "w") as fh:
            fh.write(text)
    outcome = lp_mod.solve_lp(instance)
    if args.format == "csv":
        _write_out(lp_mod.solution_to_csv(outcome), args.output)
    else:
        lines = [
            f"objective={outcome.objective:.9f}",
            f"status={outcome.status}",
            f"iterations={outcome.iterations}",
        ]
        if outcome.exact_objective is not None:
            lines.append(f"exact_objective={format_weight(outcome.exact_objective)}")
        _write_out("\n".join(lines) + "\n", args.output)
    return EXIT_OK if outcome.status == lp_mod.STATUS_OPTIMAL else EXIT_BUDGET


def _cmd_exact(args) -> int:
    instance = _load(args.file, args.source)
    budget = exact_mod.SolveBudget(
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        method=args.method,
    )
    result = exact_mod.exact_opt(instance, budget)
    _write_out(exact_mod.result_to_kv(result), args.output)
    return EXIT_OK if result.status == exact_mod.STATUS_OPTIMAL else EXIT_BUDGET


def _fraction(flag: str, text: str) -> Fraction:
    """A rational flag value, read as a file weight; a malformed value names its flag."""
    try:
        return parse_weight(text)
    except ZeroDivisionError:
        reason = "zero denominator"
    except ValueError as exc:
        if str(exc).startswith("exponent of"):  # parse_weight's refusal names the value
            raise
        reason = "not a decimal or p/q number"
    raise ValueError(f"{flag} {text}: {reason}")


def _cmd_gen(args) -> int:
    if args.family == "cs":
        try:  # int() and SequenceSpec refuse a malformed value: name its flag
            spec = SequenceSpec(tuple(int(p) for p in args.s.split(",")))
        except ValueError:
            raise ValueError(f"--s {args.s}: not a comma-separated list of positive integers") \
                from None
        instance = gen_class_cs(spec, _fraction("--eps", args.eps))
    elif args.family == "gf2":
        instance = gen_gf2(args.k)
    else:
        spec = RandomSpec(
            m=args.m, n=args.n, density=args.density,
            weight_lo=_fraction("--weight-lo", args.weight_lo),
            weight_hi=_fraction("--weight-hi", args.weight_hi),
            seed=args.seed,
        )
        instance = gen_random(spec)
    _write_out(write_native(instance), args.output)
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.which == "3":
        report = exp_mod.table3(args.k_lo, args.k_hi)
    else:
        maker = exp_mod.table1 if args.which == "1" else exp_mod.table2
        report = maker(args.m, mode=args.mode)
    text = exp_mod.emit_csv(report) if args.format == "csv" \
        else exp_mod.emit_markdown(report)
    _write_out(text, args.output)
    return EXIT_OK


def _cmd_convert(args) -> int:
    _write_out(write_native(_load(args.file, args.source)), args.output)
    return EXIT_OK


def _add_io_flags(p, formats=("kv", "csv")):
    p.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p.add_argument("--from", dest="source", choices=("auto", "native", "orlib"),
                   default="auto", help="input format (default: sniff the header)")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check instance invariants")
    p.add_argument("file")
    _add_io_flags(p, formats=None)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("greedy", help="run the charged-weight greedy")
    p.add_argument("file")
    p.add_argument("--tie-break", choices=tuple(TIE_FLAGS), default="index")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_greedy)

    p = sub.add_parser("bounds", help="all accuracy bounds for an instance")
    p.add_argument("file")
    p.add_argument("--tie-break", choices=tuple(TIE_FLAGS), default="index")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("lp", help="solve the covering LP relaxation")
    p.add_argument("file")
    p.add_argument("--export-lp", default=None,
                   help="also write the LP-format text here")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_lp)

    p = sub.add_parser("exact", help="exact optimum by depth-first search with the "
                       "incumbent cut: exhaustive (ties to the lowest bitmask) or "
                       "branch-and-bound (first cover found)")
    p.add_argument("file")
    p.add_argument("--node-limit", type=int, default=exact_mod.SolveBudget.node_limit)
    p.add_argument("--time-limit", type=float, default=exact_mod.SolveBudget.time_limit)
    p.add_argument("--method", choices=exact_mod.METHODS, default=exact_mod.METHOD_AUTO)
    _add_io_flags(p, formats=None)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("gen", help="generate an instance")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("cs", help="sequence-class instance")
    g.add_argument("--s", required=True, help="comma-separated parts, e.g. 2,1")
    g.add_argument("--eps", default=str(DEFAULT_EPSILON))
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(fn=_cmd_gen)
    g = gen_sub.add_parser("gf2", help="GF(2) inner-product instance")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(fn=_cmd_gen)
    g = gen_sub.add_parser("random", help="seeded random instance")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--density", type=float, default=0.3)
    g.add_argument("--weight-lo", default="1")
    g.add_argument("--weight-hi", default="10")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("table", help="reproduce a report table")
    p.add_argument("which", choices=("1", "2", "3"))
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--mode", choices=(
        "auto", exp_mod.MODE_COMPOSITIONS, exp_mod.MODE_PARTITIONS,
    ), default="auto")
    p.add_argument("--k-lo", type=int, default=5)
    p.add_argument("--k-hi", type=int, default=10)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("convert", help="re-emit any readable file as native")
    p.add_argument("file")
    _add_io_flags(p, formats=None)
    p.set_defaults(fn=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except ScpError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print("limit exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
