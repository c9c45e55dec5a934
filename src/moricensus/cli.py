"""Command-line front end.

Subcommands:

    census    print the reconciled model/cone census
    verify    recompute everything and audit all claims; exit 1 on any
              unexpected verdict
    orbits    print the orbit, stabilizer order and canonical form of a
              triple
    closure   run the closure engine on a graph file with a named move set
    audit     evaluate a claims file and print the verdict table

Output is a plain table by default; ``--format json`` and
``--format csv`` emit machine-readable forms with stable keys.
Exit codes: 0 success, 1 verification failure, 2 input or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit import default_claims_text, run_full_verification
from .claims import AuditReport, evaluate_claims, parse_claims
from .closure import MOVE_SETS, closure
from .cones import CensusReport, build_census_report
from .declared import default_declared_text, load_declared
from .errors import ConfigError, MoricensusError, ParseError, SizeLimitError
from .families import regular_models
from .graphs import canonical_backend, parse_graph_file
from .triples import GroupElement, Triple, apply, canonical, orbit, stabilizer

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _read(path: str | None, default_text) -> str:
    if path is None:
        return default_text()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _csv_writer():
    # imported here so that only ``--format csv`` loads the module
    import csv

    return csv.writer(sys.stdout)


def _triple_json(t: Triple) -> list[int]:
    return [t.a, t.b, t.c]


def _census_payload(report: CensusReport) -> dict:
    return {
        "p_models": report.p_models,
        "t_models": report.t_models,
        "p_cones": report.p_cones,
        "t_cones": report.t_cones,
        "total_cones": report.total_cones,
        "p_symmetric": [
            {
                "source": record.source.value,
                "family": record.family.value
                if hasattr(record.family, "value")
                else record.family,
                "triple": _triple_json(record.triple) if record.triple else None,
                "orbit_length": record.orbit_length,
                "symmetry_order": record.symmetry_order,
            }
            for record in report.p_symmetric
        ],
        "findings": list(report.findings),
    }


def _print_census(report: CensusReport, fmt: str) -> None:
    payload = _census_payload(report)
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    if fmt == "csv":
        out = _csv_writer()
        out.writerow(["metric", "value"])
        for key in ("p_models", "t_models", "p_cones", "t_cones", "total_cones"):
            out.writerow([key, payload[key]])
        return
    print("model census")
    print(f"  three-component models : {report.p_models}")
    print(f"  two-component models   : {report.t_models}")
    print("maximal cones")
    print(f"  three-component cones  : {report.p_cones}")
    print(f"  two-component cones    : {report.t_cones}")
    print(f"  total                  : {report.total_cones}")
    print(f"symmetric three-component models ({len(report.p_symmetric)})")
    for record in report.p_symmetric:
        shown = record.triple if record.triple else record.family
        print(
            f"  {str(shown):<18} orbit length {record.orbit_length}, "
            f"symmetry order {record.symmetry_order}"
        )
    if report.findings:
        print("findings")
        for finding in report.findings:
            print(f"  - {finding}")


def _audit_payload(report: AuditReport) -> dict:
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
    }


def _print_audit(report: AuditReport, fmt: str) -> None:
    payload = _audit_payload(report)
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    if fmt == "csv":
        out = _csv_writer()
        out.writerow(["name", "holds", "lhs", "rhs", "expected", "as_expected", "cite"])
        for v in payload["verdicts"]:
            out.writerow(
                [v["name"], v["holds"], v["lhs"], v["rhs"], v["expected"],
                 v["as_expected"], v["cite"]]
            )
        return
    width = max((len(v.name) for v in report.verdicts), default=4)
    for v in report.verdicts:
        status = "ok" if v.as_expected else "UNEXPECTED"
        detail = f"{v.lhs_value} == {v.rhs_value}" if v.holds else \
            f"{v.lhs_value} != {v.rhs_value}"
        expected = "holds" if v.expect_holds else "fails"
        print(f"  {v.name:<{width}}  {detail:<24} expect={expected:<5} {status}")
    if report.findings:
        print("findings")
        for finding in report.findings:
            print(f"  - {finding}")
    print(f"exit status: {report.exit_status}")


def _cmd_census(args) -> int:
    declared = load_declared(_read(args.config, default_declared_text))
    report = build_census_report(regular_models(), declared)
    _print_census(report, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    declared = load_declared(_read(args.config, default_declared_text))
    claims = parse_claims(_read(args.claims, default_claims_text))
    report = run_full_verification(declared, claims)
    _print_audit(report, args.format)
    return EXIT_OK if report.exit_status == 0 else EXIT_VERIFICATION


def _cmd_orbits(args) -> int:
    t = Triple(args.a, args.b, args.c)
    record = orbit(t)
    members = sorted(record.members)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "triple": _triple_json(t),
                    "orbit": [_triple_json(m) for m in members],
                    "orbit_length": record.length,
                    "stabilizer_order": record.stabilizer_order,
                    "stabilizer": [g.value for g in stabilizer(t)],
                    "canonical": _triple_json(canonical(t)),
                },
                indent=2,
            )
        )
        return EXIT_OK
    if args.format == "csv":
        out = _csv_writer()
        out.writerow(["element", "a", "b", "c"])
        for g in GroupElement:
            image = apply(g, t)
            out.writerow([g.value, image.a, image.b, image.c])
        return EXIT_OK
    print(f"triple           : {t}")
    print(f"orbit length     : {record.length}")
    print(f"stabilizer order : {record.stabilizer_order}"
          f"  ({', '.join(g.value for g in stabilizer(t))})")
    print(f"canonical form   : {canonical(t)}")
    print("orbit            : " + ", ".join(str(m) for m in members))
    return EXIT_OK


def _cmd_closure(args) -> int:
    with open(args.graph, encoding="utf-8") as handle:
        seed = parse_graph_file(handle.read())
    if args.moves not in MOVE_SETS:
        known = ", ".join(sorted(MOVE_SETS))
        print(f"unknown move set {args.moves!r} (known: {known})", file=sys.stderr)
        return EXIT_INPUT
    result = closure(
        seed,
        MOVE_SETS[args.moves],
        max_classes=args.max_classes,
        max_steps=args.max_steps,
        workers=args.workers,
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "class_count": result.class_count,
                    "expansion_steps": result.expansion_steps,
                    "moves": args.moves,
                    "backend": canonical_backend(),
                },
                indent=2,
            )
        )
        return EXIT_OK
    if args.format == "csv":
        out = _csv_writer()
        out.writerow(["metric", "value"])
        out.writerow(["class_count", result.class_count])
        out.writerow(["expansion_steps", result.expansion_steps])
        return EXIT_OK
    print(f"move set        : {args.moves}")
    print(f"class count     : {result.class_count}")
    print(f"expansion steps : {result.expansion_steps}")
    print(f"backend         : {canonical_backend()}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    claims = parse_claims(_read(args.claims, default_claims_text))
    report = evaluate_claims(claims)
    _print_audit(report, args.format)
    return EXIT_OK if report.exit_status == 0 else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_census.set_defaults(func=_cmd_census)

    p_verify = sub.add_parser("verify", help="recompute all counts and audit claims")
    p_verify.add_argument("--claims", help="claims DSL file")
    p_verify.add_argument("--config", help="declared-census config file")
    add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_orbits = sub.add_parser("orbits", help="orbit analysis of one triple")
    p_orbits.add_argument("a", type=int)
    p_orbits.add_argument("b", type=int)
    p_orbits.add_argument("c", type=int)
    add_format(p_orbits)
    p_orbits.set_defaults(func=_cmd_orbits)

    p_closure = sub.add_parser("closure", help="close a graph under a move set")
    p_closure.add_argument("--graph", required=True, help="graph spec file")
    p_closure.add_argument(
        "--moves", required=True, help="move set name (e.g. triple_group)"
    )
    p_closure.add_argument("--max-classes", type=int, default=None)
    p_closure.add_argument("--max-steps", type=int, default=None)
    p_closure.add_argument("--workers", type=int, default=1)
    add_format(p_closure)
    p_closure.set_defaults(func=_cmd_closure)

    p_audit = sub.add_parser("audit", help="evaluate a claims file")
    p_audit.add_argument("--claims", help="claims DSL file")
    add_format(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    return parser


_INPUT_ERRORS = (OSError, ConfigError, ParseError, SizeLimitError, ValueError,
                 OverflowError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MoricensusError as exc:
        # Census-level faults (duplicate classes, blown budgets) are
        # verification failures.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
