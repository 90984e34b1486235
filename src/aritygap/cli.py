"""Command-line surface: analyze, construct, decompose, census, verify.

All input and output goes through files or standard streams; reports come
in a human-readable text form and a stable JSON form (``--format json``).
Exit codes: 0 success/pass, 1 domain or verification failure, 2 usage or
validation error. Identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .core import (
    BudgetError,
    DecompositionError,
    DomainError,
    PreconditionError,
    range_of,
)
from .minors import essential_variables, gap_profile
from .subfunctions import dominants, separable_sets, weak_dominants
from .symmetric import (
    construct_gap2_ternary,
    construct_gap_n,
    construct_linear,
    diagonal_values,
    extract_decomposition,
    is_symmetric,
    orbit_sum,
    recompose,
)
from .enumeration import DEFAULT_BUDGET, census
from .suites import SUITE_NAMES, UnknownSuiteError, run_suite
from . import documents as docs

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _analyze_doc(f) -> dict:
    profile = gap_profile(f)
    symmetric = is_symmetric(f)
    report = {
        "k": f.k,
        "n": f.n,
        "essential_count": profile.ess,
        "essential_vars": sorted(essential_variables(f)),
        "symmetric": symmetric,
        "gap": profile.gap,
        "gap_index": profile.index,
        "class_label": list(profile.class_label) if profile.class_label else None,
        "range": sorted(range_of(f)),
        "range_size": len(range_of(f)),
        "diagonal": list(diagonal_values(f)),
    }
    sep = separable_sets(f)
    report["sub_count"] = sep.sub_count
    report["sep_count"] = sep.sep_count
    report["separable_sets"] = sorted(sorted(s) for s in sep.separable_sets)
    if symmetric and f.n >= 1:
        report["dominants"] = sorted(dominants(f))
    else:
        report["dominants"] = None
    if symmetric and profile.ess >= 2:
        try:
            report["weak_dominants"] = sorted(weak_dominants(f))
        except PreconditionError:
            report["weak_dominants"] = None
    else:
        report["weak_dominants"] = None
    return report


def _render_analyze(report: dict) -> str:
    lines = [
        f"function: k={report['k']} n={report['n']}",
        f"essential: {report['essential_count']} {report['essential_vars']}",
        f"symmetric: {report['symmetric']}",
        f"gap: {report['gap']}  gap index: {report['gap_index']}",
        f"class: {report['class_label']}",
        f"range: {report['range']} (size {report['range_size']})",
        f"dominants: {report['dominants']}  weak dominants: {report['weak_dominants']}",
        f"subfunctions: {report['sub_count']}  separable sets: {report['sep_count']}",
        f"diagonal: {report['diagonal']}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    try:
        f = docs.load_function(docs.parse_json(_read_text(args.input)))
    except docs.DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = _analyze_doc(f)
    if args.format == "json":
        _write_text(args.output, docs.to_json(report))
    else:
        _write_text(args.output, _render_analyze(report))
    return EXIT_OK


_CONSTRUCT_KINDS = ("gap-n", "gap2-ternary", "linear", "orbit-sum", "recompose")


def _cmd_construct(args) -> int:
    try:
        obj = docs.parse_json(_read_text(args.spec))
    except docs.DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.kind == "gap-n":
            k, n, spec = docs.load_gap_n_spec(obj)
            f = construct_gap_n(k, n, spec)
        elif args.kind == "gap2-ternary":
            k, spec = docs.load_gap2_ternary_spec(obj)
            f = construct_gap2_ternary(k, spec)
        elif args.kind == "linear":
            k, spec = docs.load_linear_spec(obj)
            f = construct_linear(k, spec)
        elif args.kind == "orbit-sum":
            k, n, alpha = docs.load_orbit_sum_spec(obj)
            f = orbit_sum(n, alpha, k)
        else:
            g, h = docs.load_recompose_spec(obj)
            f = recompose(g, h)
    except docs.DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _write_text(args.output, docs.to_json(docs.dump_function(f)))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    try:
        f = docs.load_function(docs.parse_json(_read_text(args.input)))
    except docs.DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        pair = extract_decomposition(f)
    except (DecompositionError, PreconditionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if recompose(pair.g, pair.h).table != f.table:
        print("error: decomposition failed verification", file=sys.stderr)
        return EXIT_FAILURE
    doc = {"g": docs.dump_function(pair.g), "h": docs.dump_function(pair.h)}
    _write_text(args.output, docs.to_json(doc))
    return EXIT_OK


def _cmd_census(args) -> int:
    try:
        result = census(
            args.k,
            args.n,
            budget=args.budget,
            override=args.budget_override,
        )
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.stats:
        st = result.stats
        print(
            f"stats: population={result.population} specs_indexed={st['specs_indexed']} "
            f"count_s={st['count_s']:.3f} list_s={st['list_s']:.3f} "
            f"index_s={st['index_s']:.3f}",
            file=sys.stderr,
        )
    doc = result.to_doc()
    if args.format == "json":
        _write_text(args.output, docs.to_json(doc))
    else:
        lines = [
            f"census: k={doc['k']} n={doc['n']} population={doc['population']}"
        ]
        for row in doc["counts"]:
            lines.append(
                f"  ess={row['ess']} gap={row['gap']}: {row['count']}"
            )
        lines.append(f"non-trivial gap: {doc['nontrivial_count']}")
        for row in doc["ind_distribution"]:
            lines.append(f"  ind={row['ind']}: {row['count']}")
        _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        report = run_suite(
            args.suite,
            args.k,
            args.n,
            mode=args.mode,
            seed=args.seed,
            sample=args.sample,
            workers=args.workers,
            budget=args.budget,
        )
    except (UnknownSuiteError, BudgetError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.stats:
        st = report.stats
        print(
            f"stats: population={st['source']} instances={st['instances']} "
            f"draws={st['draws']} checker_rows={st['checker_rows']} "
            f"build_s={st['build_s']:.3f} check_s={st['check_s']:.3f} "
            f"merge_s={st['merge_s']:.3f} workers={st['workers']}",
            file=sys.stderr,
        )
    doc = report.to_doc()
    if args.format == "json":
        _write_text(args.output, docs.to_json(doc))
    else:
        lines = [
            f"suite {doc['suite']} (k={doc['k']}, n={doc['n']}, {doc['mode']})",
            f"instances checked: {doc['instances_checked']}",
            f"violations: {doc['violations_total']}",
            f"vacuous: {doc['vacuous']}",
        ]
        for key, sub in sorted(doc["subcases"].items()):
            lines.append(
                f"  subcase {key}: instances={sub['instances']}"
                + (" (vacuous)" if sub["vacuous"] else "")
            )
        for note in doc["notes"]:
            lines.append(f"note: {note}")
        lines.append("PASS" if doc["passed"] else "FAIL")
        _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_FAILURE


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return parse


def _worker_count(text: str) -> int:
    """argparse type: a worker count from 1 to the machine's CPU count."""
    value = _int_at_least(1)(text)
    cap = os.cpu_count() or 1
    if value > cap:
        raise argparse.ArgumentTypeError(f"must be at most {cap} (the CPU count), got {text}")
    return value


def _add_output(p):
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")


def _add_analyze(p):
    p.add_argument("input", nargs="?", default="-", help="function document path or - for stdin")
    _add_output(p)
    p.set_defaults(fn=_cmd_analyze)


def _add_construct(p):
    p.add_argument("kind", choices=_CONSTRUCT_KINDS)
    p.add_argument("spec", nargs="?", default="-", help="spec document path or - for stdin")
    _add_output(p)
    p.set_defaults(fn=_cmd_construct)


def _add_decompose(p):
    p.add_argument("input", nargs="?", default="-")
    _add_output(p)
    p.set_defaults(fn=_cmd_decompose)


def _add_census(p):
    p.add_argument("-k", type=_int_at_least(2), required=True)
    p.add_argument("-n", type=_int_at_least(0), required=True)
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="accepted; the census runs in one process")
    p.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_BUDGET)
    p.add_argument("--budget-override", action="store_true")
    p.add_argument(
        "--stats", action="store_true",
        help="print one line of run statistics to stderr (not part of the report)",
    )
    _add_output(p)
    p.set_defaults(fn=_cmd_census)


def _add_verify(p):
    p.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    p.add_argument("-k", type=_int_at_least(2), required=True)
    p.add_argument("-n", type=_int_at_least(0), required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--sample", type=_int_at_least(1), default=None)
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="accepted; every suite runs in one process")
    p.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_BUDGET)
    p.add_argument(
        "--stats", action="store_true",
        help="print one line of run statistics to stderr (not part of the report)",
    )
    _add_output(p)
    p.set_defaults(fn=_cmd_verify)


# Each command's help line and the function that adds its arguments: the
# full parser and the one-command parsers are both built from these.
_COMMANDS = {
    "analyze": ("report the analysis of one function document", _add_analyze),
    "construct": ("build a function table from a constructor spec", _add_construct),
    "decompose": ("extract the pairwise-conjunction decomposition", _add_decompose),
    "census": ("classify all symmetric functions at (k, n)", _add_census),
    "verify": ("run one registered verification suite", _add_verify),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The full parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="aritygap",
        description=(
            "Analyze finite k-valued functions given as value tables: "
            "essential variables, identification minors, arity gap, "
            "subfunctions, separability, symmetric constructions, censuses "
            "and verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone, built once per process. It is
    built as the full parser builds its subparser for ``name``, so its help,
    usage and errors read the same."""
    parser = argparse.ArgumentParser(prog=f"aritygap {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the parser of the command it names, if it names
    one, and with the full parser otherwise. Arguments left over by the
    command's parser are reported by the full parser, under its usage, as
    the full parser reports them."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (OSError, UnicodeDecodeError) as exc:  # a file named in argv
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())
