"""Command-line front end.

Subcommands:

    census    print the reconciled model/cone census
    verify    recompute everything and audit all claims; exit 1 on any
              unexpected verdict
    orbits    print the orbit, stabilizer order and canonical form of a
              triple
    closure   run the closure engine on a graph file with a named move set
    audit     evaluate a claims file and print the verdict table

Each subcommand builds one payload, the dict that ``--format json``
prints, and an exit status; ``--format`` only picks how ``main`` prints
it: as JSON, or through the subcommand's two views of the payload, the
``table`` lines (the default) and the csv ``rows``.
Exit codes: 0 success, 1 verification failure, 2 input or parse error,
141 when stdout is closed before the output is written (the status a
shell shows after a SIGPIPE death).

``main(argv)`` is the in-process API. ``run()`` is the process entry,
which both ``python -m moricensus.cli`` and the installed ``moricensus``
command call: it returns ``main``'s status and then freezes every
object alive, so the interpreter's shutdown collections skip them. Exit
still runs atexit handlers, flushes stdout and stderr and frees objects
no cycle holds; only cyclic garbage is left to the operating system.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from typing import TYPE_CHECKING

# ``audit`` and ``graphs`` stay at the top: ``perfbench`` reads both from
# ``sys.modules`` after ``import moricensus.cli``.  The census modules
# (``claims``, ``cones``, ``declared``, ``families``) load in the
# subcommands that run them.
from . import triples
from .audit import default_claims_text, run_full_verification
from .closure import MOVE_SETS, closure
from .errors import ConfigError, MoricensusError
from .graphs import canonical_backend, parse_graph_file
from .triples import ELEMENTS, Triple

if TYPE_CHECKING:
    from .claims import AuditReport

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BROKEN_PIPE = 141


def _read(path: str | None, default_text) -> str:
    if path is None:
        return default_text()
    # a byte-order mark, as some editors save, is not part of the text
    with open(path, encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path!r} is not UTF-8: {exc}") from None


def _declared(args):
    from .declared import default_declared_text, load_declared

    return load_declared(_read(args.config, default_declared_text))


def _claims(args):
    from .claims import parse_claims

    return parse_claims(_read(args.claims, default_claims_text))


def _findings(payload: dict):
    if payload["findings"]:
        yield "findings"
        for finding in payload["findings"]:
            yield f"  - {finding}"


def _metric_rows(payload: dict):
    """The csv view of ``census`` and ``closure``: their integer fields."""
    return [["metric", "value"],
            *([k, v] for k, v in payload.items() if isinstance(v, int))]


def _cmd_census(args):
    from .cones import RECORDED_FINDINGS, build_census_report
    from .families import regular_models

    report = build_census_report(regular_models(), _declared(args))
    return {
        "p_models": report.p_models,
        "t_models": report.t_models,
        "p_cones": report.p_cones,
        "t_cones": report.t_cones,
        "total_cones": report.total_cones,
        "p_symmetric": [
            {
                "source": "computed" if record.triple else "declared",
                "family": record.family,
                "triple": list(record.triple) if record.triple else None,
                "orbit_length": record.orbit_length,
                "symmetry_order": record.symmetry_order,
            }
            for record in report.p_symmetric
        ],
        "findings": list(RECORDED_FINDINGS),
    }, EXIT_OK


def _census_table(payload: dict):
    yield "model census"
    yield f"  three-component models : {payload['p_models']}"
    yield f"  two-component models   : {payload['t_models']}"
    yield "maximal cones"
    yield f"  three-component cones  : {payload['p_cones']}"
    yield f"  two-component cones    : {payload['t_cones']}"
    yield f"  total                  : {payload['total_cones']}"
    yield f"symmetric three-component models ({len(payload['p_symmetric'])})"
    for record in payload["p_symmetric"]:
        shown = str(tuple(record["triple"])) if record["triple"] else record["family"]
        yield (
            f"  {shown:<18} orbit length {record['orbit_length']}, "
            f"symmetry order {record['symmetry_order']}"
        )
    yield from _findings(payload)


def _verdicts(report: AuditReport):
    """The payload and exit status of ``verify`` and ``audit``."""
    return {
        "verdicts": [
            {
                "name": v.name,
                "holds": v.holds,
                "lhs": v.lhs_value,
                "rhs": v.rhs_value,
                "expected": "holds" if v.expect_holds else "fails",
                "as_expected": v.as_expected,
                "cite": v.cite,
            }
            for v in report.verdicts
        ],
        "findings": list(report.findings),
        "exit_status": report.exit_status,
    }, EXIT_OK if report.exit_status == 0 else EXIT_VERIFICATION


def _verdicts_table(payload: dict):
    verdicts = payload["verdicts"]
    width = max((len(v["name"]) for v in verdicts), default=4)
    for v in verdicts:
        status = "ok" if v["as_expected"] else "UNEXPECTED"
        detail = f"{v['lhs']} {'==' if v['holds'] else '!='} {v['rhs']}"
        yield f"  {v['name']:<{width}}  {detail:<24} expect={v['expected']:<5} {status}"
    yield from _findings(payload)
    yield f"exit status: {payload['exit_status']}"


def _verdicts_rows(payload: dict):
    return [["name", "holds", "lhs", "rhs", "expected", "as_expected", "cite"],
            *(list(v.values()) for v in payload["verdicts"])]


def _cmd_verify(args):
    return _verdicts(run_full_verification(_declared(args), _claims(args)))


def _cmd_audit(args):
    from .claims import evaluate_claims

    return _verdicts(evaluate_claims(_claims(args)))


def _cmd_orbits(args):
    try:
        t = Triple(args.a, args.b, args.c)
    except ValueError as exc:  # Triple's checks name the component at fault
        raise ConfigError(str(exc)) from None
    # both looked up at each call, so every field reads the one table
    canonical, length, order = triples.orbit(t)
    images = triples._images(*t)
    return {
        "triple": list(t),
        "orbit": [list(m) for m in sorted(set(images))],
        "orbit_length": length,
        "stabilizer_order": order,
        "stabilizer": [g for g, image in zip(ELEMENTS, images) if image == tuple(t)],
        "canonical": list(canonical),
    }, EXIT_OK


def _orbits_table(payload: dict):
    return [
        f"triple           : {tuple(payload['triple'])}",
        f"orbit length     : {payload['orbit_length']}",
        f"stabilizer order : {payload['stabilizer_order']}"
        f"  ({', '.join(payload['stabilizer'])})",
        f"canonical form   : {tuple(payload['canonical'])}",
        "orbit            : " + ", ".join(str(tuple(m)) for m in payload["orbit"]),
    ]


def _orbits_rows(payload: dict):
    images = triples._images(*payload["triple"])
    return [["element", "a", "b", "c"],
            *([g, *image] for g, image in zip(ELEMENTS, images))]


def _cmd_closure(args):
    seed = parse_graph_file(_read(args.graph, None))
    if args.moves not in MOVE_SETS:
        known = ", ".join(sorted(MOVE_SETS))
        raise ConfigError(f"unknown move set {args.moves!r} (known: {known})")
    result = closure(seed, MOVE_SETS[args.moves])
    return {
        "class_count": result.class_count,
        "expansion_steps": result.expansion_steps,
        "moves": args.moves,
        "backend": canonical_backend(),
    }, EXIT_OK


def _closure_table(payload: dict):
    return [
        f"move set        : {payload['moves']}",
        f"class count     : {payload['class_count']}",
        f"expansion steps : {payload['expansion_steps']}",
        f"backend         : {payload['backend']}",
    ]


# a pattern string, compiled by ``re``'s cache on the first integer
# argument: only ``orbits`` takes one
_INT_RE = r"-?[0-9]+"


def _int(text: str) -> int:
    """An argparse type: an integer of ASCII digits with an optional '-'.

    ``int`` alone would also take other scripts' digits, underscores and
    surrounding spaces.
    """
    if re.fullmatch(_INT_RE, text) is None:
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # argparse names it in "invalid int value"


class _Parser(argparse.ArgumentParser):
    # argparse's own ``print_help`` drops write errors, or leaves them to
    # the flush at interpreter exit; this one lets a closed stdout raise
    # into ``main``, which exits 141.  Subparsers take the parent's class.
    def print_help(self, file=None):
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moricensus",
        description="Exact model and maximal-cone census with claims auditing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default: table)",
        )

    p_census = sub.add_parser("census", help="print the model/cone census")
    p_census.add_argument("--config", help="declared-census config file")
    add_format(p_census)
    p_census.set_defaults(func=_cmd_census, table=_census_table, rows=_metric_rows)

    p_verify = sub.add_parser("verify", help="recompute all counts and audit claims")
    p_verify.add_argument("--claims", help="claims DSL file")
    p_verify.add_argument("--config", help="declared-census config file")
    add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify, table=_verdicts_table, rows=_verdicts_rows)

    p_orbits = sub.add_parser("orbits", help="orbit analysis of one triple")
    p_orbits.add_argument("a", type=_int)
    p_orbits.add_argument("b", type=_int)
    p_orbits.add_argument("c", type=_int)
    add_format(p_orbits)
    p_orbits.set_defaults(func=_cmd_orbits, table=_orbits_table, rows=_orbits_rows)

    p_closure = sub.add_parser("closure", help="close a graph under a move set")
    p_closure.add_argument("--graph", required=True, help="graph spec file")
    p_closure.add_argument(
        "--moves", required=True, help="move set name (e.g. triple_group)"
    )
    add_format(p_closure)
    p_closure.set_defaults(func=_cmd_closure, table=_closure_table, rows=_metric_rows)

    p_audit = sub.add_parser("audit", help="evaluate a claims file")
    p_audit.add_argument("--claims", help="claims DSL file")
    add_format(p_audit)
    p_audit.set_defaults(func=_cmd_audit, table=_verdicts_table, rows=_verdicts_rows)

    return parser


# every input fault raises one of these, as does a stdout whose encoding
# cannot write the input's text; any other exception is a program fault
# and leaves ``main`` with its traceback
_INPUT_ERRORS = (OSError, ConfigError, UnicodeEncodeError)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, code = args.func(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        elif args.format == "csv":
            import csv  # only ``--format csv`` loads the module

            csv.writer(sys.stdout).writerows(args.rows(payload))
        else:
            print("\n".join(args.table(payload)))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: no fault of the input or the census.
        # Python flushes stdout again at exit, so point it at devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MoricensusError as exc:
        # Census-level faults (duplicate classes, broken invariants) are
        # verification failures.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def run() -> int:
    """The process entry: ``main()``'s status, for ``sys.exit``.

    A process about to end needs neither the shutdown collections' scan
    of what it loaded nor their frees, so every live object is frozen
    out of their reach; ``main`` never freezes.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
