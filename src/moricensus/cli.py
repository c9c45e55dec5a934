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

One table, ``_COMMANDS``, names each subcommand's options, integers and
functions.  ``main`` reads a plainly spelled command line from it
without argparse (``_plain_args``); argparse, built from the same table
by ``build_parser``, reads any other line, so it alone prints help and
usage errors.  JSON is printed by ``_json``, which returns the text of
``json.dumps(payload, indent=2)`` and hands ``json`` only a string that
needs an escape, so a plainly spelled run on printable-ASCII text loads
neither argparse nor ``json``.
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

import gc
import os
import re
import sys
import types
from typing import TYPE_CHECKING

# ``audit`` alone stays at the top, as perfbench's verify workload reads
# it from ``sys.modules`` after ``import moricensus.cli``; the graph layer
# and the census modules load in the subcommands that run them.
from . import triples
from .audit import default_claims_text, run_full_verification
from .closure import MOVE_SETS, closure
from .errors import ConfigError, MoricensusError
from .triples import ELEMENTS, Triple

if TYPE_CHECKING:
    import argparse

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
    t = Triple(args.a, args.b, args.c)
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
    from .graphs import canonical_backend, parse_graph_file

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

_FORMATS = ("table", "json", "csv")
_CONFIG = ("declared-census config file", False)
_CLAIMS = ("claims DSL file", False)
# name: (help, {option: (help, required)}, int positionals, and the names
# of the payload function and of the table and csv views), looked up
# when a command line is read
_COMMANDS = {
    "census": ("print the model/cone census", {"config": _CONFIG}, (),
               "_cmd_census", "_census_table", "_metric_rows"),
    "verify": ("recompute all counts and audit claims",
               {"claims": _CLAIMS, "config": _CONFIG}, (),
               "_cmd_verify", "_verdicts_table", "_verdicts_rows"),
    "orbits": ("orbit analysis of one triple", {}, ("a", "b", "c"),
               "_cmd_orbits", "_orbits_table", "_orbits_rows"),
    "closure": ("close a graph under a move set",
                {"graph": ("graph spec file", True),
                 "moves": ("move set name (e.g. triple_group)", True)}, (),
                "_cmd_closure", "_closure_table", "_metric_rows"),
    "audit": ("evaluate a claims file", {"claims": _CLAIMS}, (),
              "_cmd_audit", "_verdicts_table", "_verdicts_rows"),
}


def _functions(names) -> dict:
    return {key: globals()[name] for key, name in zip(("func", "table", "rows"), names)}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only a command line the plain reader declines needs it

    class _Parser(argparse.ArgumentParser):
        # argparse's own ``print_help`` drops write errors, or leaves them
        # to the flush at interpreter exit; this one lets a closed stdout
        # raise into ``main``, which exits 141.  Subparsers take the
        # parent's class.
        def print_help(self, file=None):
            file = file or sys.stdout
            file.write(self.format_help())
            file.flush()

    parser = _Parser(
        prog="moricensus",
        description="Exact model and maximal-cone census with claims auditing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options, ints, *names) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for option, (option_help, required) in options.items():
            p.add_argument(f"--{option}", required=required, help=option_help)
        for name in ints:
            p.add_argument(name, type=_int)
        p.add_argument("--format", choices=_FORMATS, default="table",
                       help="output format (default: table)")
        p.set_defaults(**_functions(names))
    return parser


def _plain_args(argv: list[str]):
    """The namespace ``build_parser().parse_args(argv)`` returns, for a
    plainly spelled command line; None for any other.

    Plain is a subcommand, then its options spelled in full as ``--name
    value``, each value non-empty, not starting with '-' and for
    ``--format`` one of its choices, and for ``orbits`` three integers,
    which may follow one ``--``.  Help, abbreviations, ``--name=value``,
    values that look like options and every fault are left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, options, ints, *names = _COMMANDS[argv[0]]
    rest, tail = argv[1:], []
    if "--" in rest:
        cut = rest.index("--")
        rest, tail = rest[:cut], rest[cut + 1:]
        # argparse refuses ``census --``, so a ``--`` that no integer
        # follows is left to it; a second ``--`` fails the integer check
        if not tail:
            return None
    args = {"command": argv[0], **dict.fromkeys(options), "format": "table"}
    numbers = []
    tokens = iter(rest)
    for token in tokens:
        if token[:1] != "-":
            numbers.append(token)
            continue
        value = next(tokens, "")
        name = token[2:]
        if (token[:2] != "--" or name not in options and name != "format"
                or value[:1] in ("", "-")
                or name == "format" and value not in _FORMATS):
            return None
        args[name] = value
    numbers += tail
    # a short integer, which ``int`` converts under any digit limit
    if (len(numbers) != len(ints)
            or not all(len(n) < 20 and re.fullmatch(_INT_RE, n) for n in numbers)
            or any(args[o] is None for o, (_, required) in options.items()
                   if required)):
        return None
    args.update(zip(ints, map(int, numbers)))
    return types.SimpleNamespace(**args, **_functions(names))


def _string(text: str) -> str:
    """``text`` as ``json.dumps`` writes it; printable ASCII, as most
    payload strings are, needs no escape and skips the call."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json  # only a string that needs an escape loads the module

    return json.dumps(text)


def _json(value, indent: str = "\n") -> str:
    """The text ``json.dumps(value, indent=2)`` returns, for the str,
    int, bool, None, list and tuple values and str-keyed dicts that
    payloads hold; a value of any other type raises ``TypeError``."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{_string(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json(v, inner) for v in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# every input fault raises one of these, as does a stdout whose encoding
# cannot write the input's text; any other exception is a program fault
# and leaves ``main`` with its traceback
_INPUT_ERRORS = (OSError, ConfigError, UnicodeEncodeError)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _plain_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            args = build_parser().parse_args(argv)
        payload, code = args.func(args)
        if args.format == "json":
            print(_json(payload))
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
