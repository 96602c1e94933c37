"""Command line front end for model files.

Subcommands:
  validate      parse and validate one or more model files
  render        print a model file back in canonical form
  query         evaluate one (resource, functionality) cell of a diagram
  sweep         tabulate a full diagram (text, CSV, or JSON)
  lax-check     grade a declared map by evidence
  classify-lax  enumerate lax maps from a cost grid to bool

Exit codes: 0 success, 1 model or laxity failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CodesignError
from .lax import check_lax, classify_cost_to_bool
from .model import load_model


def _add_file(p):
    p.add_argument("file", help="path to a .model file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qodesign",
        description="evaluate co-design models over ordered cost structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate model files")
    p.add_argument("files", nargs="+", help="paths to .model files")

    p = sub.add_parser("render", help="print a model file in canonical form")
    _add_file(p)

    p = sub.add_parser("query", help="evaluate one cell of a diagram")
    _add_file(p)
    p.add_argument("--name", help="a query declared in the file")
    p.add_argument("--diagram", help="diagram to evaluate")
    p.add_argument("--resource", help="resource object")
    p.add_argument("--functionality", help="functionality object")
    p.add_argument(
        "--verbose",
        action="store_true",
        help="show per-interface-object contributions for series and "
        "hetero_series diagrams",
    )

    p = sub.add_parser("sweep", help="tabulate a diagram over all pairs")
    _add_file(p)
    p.add_argument("--name", required=True, help="a sweep declared in the file")
    p.add_argument("--csv", metavar="PATH", help="write CSV here ('-' for stdout)")
    p.add_argument("--json", metavar="PATH", help="write JSON here ('-' for stdout)")

    p = sub.add_parser("lax-check", help="grade a declared map by evidence")
    _add_file(p)
    p.add_argument("--map", required=True, dest="map_name", help="map to check")

    p = sub.add_parser(
        "classify-lax", help="classify maps from a cost grid to bool"
    )
    p.add_argument(
        "--grid",
        required=True,
        help="comma separated cost points, e.g. 0,1,10,inf",
    )
    return parser


def _cmd_validate(args) -> int:
    for path in args.files:
        doc = load_model(path)
        counts = ", ".join(
            f"{len(reg)} {label}"
            for label, reg in (
                ("quantales", doc.quantales),
                ("categories", doc.categories),
                ("maps", doc.maps),
                ("catalogs", doc.catalogs),
                ("problems", doc.problems),
                ("diagrams", doc.diagrams),
            )
            if reg
        )
        print(f"{doc.name}: ok ({counts})")
    return 0


def _cmd_render(args) -> int:
    sys.stdout.write(load_model(args.file).render())
    return 0


def _cmd_query(args) -> int:
    doc = load_model(args.file)
    if args.name is None and args.diagram is None:
        print(
            "query needs --name or --diagram/--resource/--functionality",
            file=sys.stderr,
        )
        return 2
    res = doc.run_query(
        name=args.name,
        diagram=args.diagram,
        resource=args.resource,
        functionality=args.functionality,
        verbose=args.verbose,
    )
    print(res.format(verbose=args.verbose))
    return 0


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _cmd_sweep(args) -> int:
    doc = load_model(args.file)
    table = doc.run_sweep(args.name)
    if args.csv is None and args.json is None:
        print(table.format_text())
        return 0
    if args.csv is not None:
        _write(args.csv, table.to_csv())
    if args.json is not None:
        _write(args.json, table.to_json() + "\n")
    return 0


def _cmd_lax_check(args) -> int:
    doc = load_model(args.file)
    if args.map_name not in doc.maps:
        known = ", ".join(sorted(doc.maps)) or "none declared"
        print(f"unknown map {args.map_name!r} (known: {known})", file=sys.stderr)
        return 1
    report = check_lax(doc.maps[args.map_name])
    print(report.format())
    return 0 if report.verdict in ("strict", "lax") else 1


def _cmd_classify(args) -> int:
    grid = []
    for piece in args.grid.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            grid.append(float(piece))
        except ValueError:
            print(f"error: --grid: {piece!r} is not a number", file=sys.stderr)
            return 2
    print(classify_cost_to_bool(grid).format())
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "render": _cmd_render,
    "query": _cmd_query,
    "sweep": _cmd_sweep,
    "lax-check": _cmd_lax_check,
    "classify-lax": _cmd_classify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CodesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
