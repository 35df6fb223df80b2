"""Command-line interface: case verification and ad-hoc computations.

Exit codes: 0 all checks match (or command succeeded); 1 some expected
value mismatched; 2 unknown case / unreadable input; 3 engine error.
All configuration is via flags so invocations are reproducible.  Each
command imports the engine modules it uses, so ``definite`` does not load
the catalog.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from g2forms.exterior import parse_form

__all__ = ["main"]


class _InputError(Exception):
    """Bad user input (unknown case, unparsable file): exit code 2."""


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_form_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read form file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "form" not in doc or "dimension" not in doc:
        raise _InputError(
            f"form file {path} must be a JSON object with 'dimension' and 'form'"
        )
    return doc


def _parse_form_doc(doc: dict, degree=None):
    text, dimension, degree = doc["form"], doc["dimension"], doc.get("degree", degree)
    context = doc.get("context", [])
    if not isinstance(text, str):
        raise _InputError(f"form must be a string, got {text!r}")
    if type(dimension) is not int or dimension < 1:  # JSON ints, not booleans
        raise _InputError(f"dimension must be a positive integer, got {dimension!r}")
    if degree is not None and (type(degree) is not int or degree < 0):
        raise _InputError(f"degree must be a non-negative integer, got {degree!r}")
    if not isinstance(context, list) or not all(isinstance(s, str) for s in context):
        raise _InputError(f"context must be a list of strings, got {context!r}")
    try:
        return parse_form(text, dimension, degree, context)
    except ValueError as exc:
        raise _InputError(f"invalid form: {exc}") from exc


def _load_form(path: str, dimension: int, degree: int, role: str):
    """The form in a form file, which must be a degree-form in the given dimension."""
    form = _parse_form_doc(_load_form_file(path), degree=degree)
    if (form.dim, form.degree) != (dimension, degree):
        raise _InputError(
            f"{role} needs a {degree}-form on a {dimension}-dimensional space, "
            f"got a {form.degree}-form in dimension {form.dim}"
        )
    return form


def _load_case_file(path: str):
    from g2forms import catalog

    try:
        return catalog.load_case(path)
    except OSError as exc:
        raise _InputError(f"cannot read case file {path}: {exc}") from exc
    except catalog.SchemaError as exc:
        raise _InputError(f"invalid case file {path}: {exc}") from exc


def _cmd_verify(args) -> int:
    from g2forms import catalog

    if args.case:
        try:
            reports = [catalog.verify_case(args.case)]
        except KeyError as exc:
            raise _InputError(exc.args[0]) from exc
    else:
        reports = catalog.verify_all(args.filter)
        if not reports:
            raise _InputError(f"no bundled case matches the filter {args.filter!r}")
    if args.format == "json":
        _emit_json([r.to_dict() for r in reports])
    else:
        for r in reports:
            print(r.render())
            print()
        total = sum(len(r.results) for r in reports)
        failed = [r.case_id for r in reports if not r.ok]
        if failed:
            print(f"{len(reports)} case(s), {total} check(s); MISMATCH in: {', '.join(failed)}")
        else:
            print(f"{len(reports)} case(s), {total} check(s); all match")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_invariants(args) -> int:
    from g2forms.invariants import invariant_forms

    record = _load_case_file(args.input)
    data = record.homog_num()
    space = invariant_forms(data, args.degree)
    if args.format == "json":
        _emit_json(
            {
                "case": record.case_id,
                "degree": args.degree,
                "dimension": space.dim,
                "basis": [form.render() for form in space.basis],
            }
        )
    else:
        print(f"invariant {args.degree}-forms of {record.case_id}")
        print(f"dimension: {space.dim}")
        for form in space.basis:
            print(f"  {form.render()}")
    return 0


def _cmd_closed(args) -> int:
    from g2forms.invariants import closed_forms

    record = _load_case_file(args.input)
    data = record.homog_num()
    family = closed_forms(data, args.degree)
    if args.format == "json":
        _emit_json(
            {
                "case": record.case_id,
                "degree": args.degree,
                "free_parameters": family.dim,
                "invariant_dimension": family.invariant_dim,
                "basis": [form.render() for form in family.basis],
                "generic": family.generic.render(),
                "partial_data": data.partial,
            }
        )
    else:
        print(f"closed invariant {args.degree}-forms of {record.case_id}")
        if data.partial:
            print("note: partial homogeneous data; d o d = 0 not guaranteed by construction")
        print(family.describe())
        for form in family.basis:
            print(f"  {form.render()}")
        print(f"generic member: {family.generic.render()}")
    return 0


def _cmd_definite(args) -> int:
    from g2forms.gstruct import definiteness

    phi = _load_form(args.form, 7, 3, "definite")
    report = definiteness(phi)
    if args.format == "json":
        _emit_json({"verdict": report.verdict, "report": report.render()})
    else:
        print(report.render())
    return 0


def _cmd_su3(args) -> int:
    from g2forms import catalog
    from g2forms.gstruct import su3_check

    record = _load_case_file(args.input)
    omega = _load_form(args.omega, 6, 2, "su3 --omega")
    psi = _load_form(args.psi, 6, 3, "su3 --psi")
    try:
        pair = catalog.su3_pair(record.homog_num(), omega, psi)
    except ValueError as exc:  # no SU(3) data on the case, or a symbol the case lacks
        raise _InputError(f"su3 on {record.case_id}: {exc}") from exc
    report = su3_check(*pair)
    if args.format == "json":
        _emit_json({"case": record.case_id, "flags": report.flags()})
    else:
        print(f"SU(3) pair check on {record.case_id}")
        print(report.render())
        yes = "yes" if report.symplectic_half_flat else "no"
        strict = "yes" if report.strictly_symplectic_half_flat else "no"
        print(f"symplectic half-flat: {yes}; strict: {strict}")
    return 0


def _cmd_schema(args) -> int:
    from g2forms import catalog

    print(catalog.SCHEMA_TEXT)
    return 0


def _degree(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2forms",
        description="Exact invariant-form computations on reductive homogeneous "
        "spaces, with G2/SU(3) structure verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify bundled cases against expected values")
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--case", help="single case id")
    group.add_argument("--all", action="store_true", help="all canonical cases (default)")
    group.add_argument("--filter", help="glob over all bundled ids, exploratory included")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_inv = sub.add_parser("invariants", help="invariant k-forms of a case file")
    p_inv.add_argument("--input", required=True, help="case file (JSON, see `schema`)")
    p_inv.add_argument("--degree", type=_degree, required=True)
    p_inv.add_argument("--format", choices=("text", "json"), default="text")
    p_inv.set_defaults(func=_cmd_invariants)

    p_closed = sub.add_parser("closed", help="closed invariant forms of a case file")
    p_closed.add_argument("--input", required=True)
    p_closed.add_argument("--degree", type=_degree, default=3)
    p_closed.add_argument("--format", choices=("text", "json"), default="text")
    p_closed.set_defaults(func=_cmd_closed)

    p_def = sub.add_parser("definite", help="definiteness report for a 3-form file")
    p_def.add_argument("--form", required=True, help="form file (JSON with dimension/form)")
    p_def.add_argument("--format", choices=("text", "json"), default="text")
    p_def.set_defaults(func=_cmd_definite)

    p_su3 = sub.add_parser("su3", help="SU(3)-pair report for (omega, psi) on a case")
    p_su3.add_argument("--input", required=True)
    p_su3.add_argument("--omega", required=True)
    p_su3.add_argument("--psi", required=True)
    p_su3.add_argument("--format", choices=("text", "json"), default="text")
    p_su3.set_defaults(func=_cmd_su3)

    p_schema = sub.add_parser("schema", help="print the case-file schema")
    p_schema.set_defaults(func=_cmd_schema)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # engine failure: diagnostic + dedicated exit code
        print(f"engine error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
