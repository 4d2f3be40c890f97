"""Command-line interface.

Conventions: machine-readable JSON goes to stdout (or --output), a short
human summary goes to stderr.  Output is deterministic byte for byte for a
fixed command line.  Exit codes:

    0   success, all checked residuals exactly zero
    1   I/O failure, malformed input, bad configuration, missing data
    2   a requested descendent index is not reducible
    3   a residual or consistency violation is nonzero
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .correlators import (
    CorrelatorTable,
    load_correlators,
    ring_from_target,
    table_consistency_check,
)
from .descendents import descendent_euler
from .errors import NotReducible, QKError
from .frobenius import (
    assemble_potential,
    build_frobenius_data,
    classical_limit_residual,
    flatness_residuals,
    unit_residual,
    wdvv_residual,
)
from .qde import (
    assemble_fundamental_solution,
    gwdvv_residuals,
    is_complete,
    qde_residual,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_REDUCIBLE = 2
EXIT_RESIDUAL = 3

_INTEGER_RE = re.compile(r"-?[0-9]+")
_DIMENSION_RE = re.compile(r"[0-9]+")


def _at_least(least: int):
    """argparse type for an order: an integer in ASCII digits, no smaller
    than least."""
    def order(text: str) -> int:
        if not _INTEGER_RE.fullmatch(text) or int(text) < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}")
        return int(text)
    return order


def _emit(args: argparse.Namespace, doc: dict, summary: str) -> None:
    _write(args, json.dumps(doc, indent=2, sort_keys=True) + "\n", summary)


def _write(args: argparse.Namespace, text: str, summary: str) -> None:
    """The report to --output or stdout, then the summary to stderr."""
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _read_json(path: str) -> object:
    """One JSON document from a file; nesting too deep to parse is bad input."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _parse_index(raw_index: str) -> list[int]:
    """Comma-separated ASCII integers; int() alone would take ' 2', '+3',
    '1_0' and non-ASCII digits."""
    parts = raw_index.split(",")
    for part in parts:
        if not _INTEGER_RE.fullmatch(part):
            raise ValueError(f"index part {part!r} is not an integer")
    return [int(part) for part in parts]


def parse_target(text: str) -> dict:
    if text == "point":
        return {"type": "point"}
    if text.startswith("projective:"):
        tail = text.split(":", 1)[1]
        if not _DIMENSION_RE.fullmatch(tail):
            raise ValueError(f"projective target needs a dimension: {text!r}")
        return {"type": "projective", "n": int(tail)}
    if text.startswith("custom:"):
        return {"type": "custom", "ring": _read_json(text.split(":", 1)[1])}
    raise ValueError(f"unknown target {text!r}")


def _resolve_table(args: argparse.Namespace) -> CorrelatorTable:
    """Table from --input, or an empty table for the named target."""
    if args.input_path:
        table = load_correlators(_read_json(args.input_path))
        if (args.target is not None
                and ring_from_target(parse_target(args.target)) != table.ring):
            raise ValueError("--target disagrees with the ring of the input table")
        return table
    if args.target is None:
        raise ValueError("need --target or --input")
    target_doc = parse_target(args.target)
    return CorrelatorTable.empty(ring_from_target(target_doc),
                                 0 if target_doc["type"] == "point" else 1, target_doc)


def cmd_descendent(args: argparse.Namespace) -> int:
    if args.input_path:
        batch = _read_json(args.input_path)
        if not isinstance(batch, list) or not all(
                isinstance(idx, list) and {int}.issuperset(map(type, idx))
                for idx in batch):
            raise ValueError("batch file must be a JSON array of integer arrays")
        any_irreducible = False
        lines = []
        for position, idx in enumerate(batch):
            try:
                value = str(descendent_euler(idx))
            except NotReducible:
                value = "NotReducible"
                any_irreducible = True
            except ValueError as exc:
                raise ValueError(f"batch entry {position} {idx}: {exc}") from None
            # A list of plain ints prints as JSON, so this is json.dumps's line.
            lines.append('{"index": %s, "value": "%s"}\n' % (idx, value))
        _write(args, "".join(lines), f"evaluated {len(batch)} descendent indices")
        return EXIT_NOT_REDUCIBLE if any_irreducible else EXIT_OK
    if args.index is None:
        raise ValueError("give an index like 2,3,0,1 or --input batch.json")
    exponents = _parse_index(args.index)
    try:
        value = descendent_euler(exponents)
    except NotReducible as exc:
        _write(args, "NotReducible\n", str(exc))
        return EXIT_NOT_REDUCIBLE
    _write(args, f"{value}\n", f"E({len(exponents)}; {exponents}) computed")
    return EXIT_OK


def cmd_potential(args: argparse.Namespace) -> int:
    potential = assemble_potential(_resolve_table(args), args.t_order,
                                   args.novikov_order)
    _emit(args, potential.series.to_json_dict(),
          f"potential assembled at t order {args.t_order}, "
          f"Novikov order {args.novikov_order}")
    return EXIT_OK


def cmd_frobenius_check(args: argparse.Namespace) -> int:
    potential = assemble_potential(_resolve_table(args), args.t_order,
                                   args.novikov_order)
    fd = build_frobenius_data(potential)
    flat = flatness_residuals(fd)
    families = {"wdvv": wdvv_residual(fd), "r1": flat.r1, "r2": flat.r2,
                "metric": flat.metric, "levicivita": flat.levi_civita,
                "unit": unit_residual(fd), "q0_classical": classical_limit_residual(fd)}
    doc = {name: summary.to_json_dict() for name, summary in families.items()}
    doc["flatness"] = {name: doc.pop(name) for name in ("r1", "r2", "metric")}
    doc["certified_orders"] = {
        "potential_t": args.t_order,
        "novikov": args.novikov_order,
        "windows": {name: summary.window for name, summary in families.items()},
    }
    all_zero = all(summary.is_zero for summary in families.values())
    _emit(args, doc,
          "all residuals exactly zero on certified windows" if all_zero
          else "NONZERO residuals found; see report")
    return EXIT_OK if all_zero else EXIT_RESIDUAL


def cmd_qde_check(args: argparse.Namespace) -> int:
    table = _resolve_table(args)
    # Potential three orders higher so the product is certified on the
    # same t window as the derivative of the solution.
    potential = assemble_potential(table, args.t_order + 3, args.novikov_order)
    fd = build_frobenius_data(potential)
    solution = assemble_fundamental_solution(table, args.t_order,
                                             args.novikov_order,
                                             args.desc_order)
    residuals = qde_residual(solution, fd)
    gwdvv = gwdvv_residuals(solution, fd)
    complete = is_complete(solution)
    doc = {
        "certified_window": residuals[0].window,
        "qde_residuals": [
            {"k": k, **s.to_json_dict()} for k, s in enumerate(residuals)
        ],
        "gwdvv_residuals": [
            {"pair": list(pair), **s.to_json_dict()} for pair, s in gwdvv
        ],
        "complete": complete,
    }
    all_zero = (all(s.is_zero for s in residuals)
                and all(s.is_zero for _, s in gwdvv))
    _emit(args, doc,
          "connection equation and generalized associativity hold exactly"
          if all_zero and complete else "NONZERO residuals found; see report")
    return EXIT_OK if all_zero and complete else EXIT_RESIDUAL


def cmd_table_check(args: argparse.Namespace) -> int:
    if not args.input_path:
        raise ValueError("table-check needs --input")
    table = load_correlators(_read_json(args.input_path))
    report = table_consistency_check(table)
    _emit(args, report.to_json_dict(),
          f"checked {report.checked_pairs} unit-insertion pairs, "
          f"{len(report.violations)} violations")
    return EXIT_OK if report.ok else EXIT_RESIDUAL


def cmd_kring_info(args: argparse.Namespace) -> int:
    if args.target is None:
        raise ValueError("kring info needs --target")
    ring = ring_from_target(parse_target(args.target))
    _emit(args, ring.to_json_dict(),
          f"rank {ring.rank} presentation, labels {list(ring.labels)}")
    return EXIT_OK


# Every flag a subcommand may declare; each declares only those it reads.
_FLAGS = {
    "--target": {"help": "point | projective:N | custom:ring.json"},
    "--t-order": {"type": _at_least(3), "default": 6,
                  "help": "truncation order in the deformation variables"},
    "--q-order": {"type": _at_least(0), "default": 0, "dest": "novikov_order",
                  "help": "truncation order in the Novikov variables"},
    "--desc-order": {"type": _at_least(0), "default": 0,
                     "help": "truncation order in the descendent variable q"},
    "--input": {"dest": "input_path", "help": "input JSON document"},
    "--output": {"dest": "output_path",
                 "help": "write the JSON report here instead of stdout"},
}
_ASSEMBLY_FLAGS = ("--target", "--input", "--t-order", "--q-order", "--output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkzero",
        description="Exact genus-zero quantum K-theory calculator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(run=run)
        return p

    command("descendent", cmd_descendent,
            "evaluate descendent Euler characteristics", ("--input", "--output")
            ).add_argument("index", nargs="?",
                           help="comma-separated cotangent powers, e.g. 2,3,0,1")
    command("potential", cmd_potential, "assemble and print the potential",
            _ASSEMBLY_FLAGS)
    command("frobenius-check", cmd_frobenius_check,
            "verify WDVV, flatness, unit, and classical limits", _ASSEMBLY_FLAGS)
    command("qde-check", cmd_qde_check, "verify the quantum differential equation",
            _ASSEMBLY_FLAGS + ("--desc-order",))
    command("table-check", cmd_table_check,
            "check a correlator table for unit-insertion consistency",
            ("--input", "--output"))
    command("kring", cmd_kring_info, "inspect ring presentations",
            ("--target", "--output")).add_argument("action", choices=["info"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the help (status 0) or a usage message
        return EXIT_OK if exc.code == 0 else EXIT_BAD_INPUT

    try:
        return args.run(args)
    except (QKError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
