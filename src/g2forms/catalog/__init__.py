"""Bundled homogeneous-space cases with expected values, and their verifier.

Each case is a JSON document (see :data:`SCHEMA_TEXT`) holding the raw
input data (a matrix basis, structure constants, or partial homogeneous
data), parameter instantiations, and a list of expected check results with
source citations.  :func:`verify_case` runs the full pipeline on a case and
compares every expected value exactly; :func:`verify_all` aggregates.

Filter semantics: without a filter, :func:`verify_all` runs the canonical
cases only (``exploratory`` cases are excluded); an explicit filter glob is
matched against *all* bundled ids, exploratory included.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fnmatch import fnmatch
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path

from g2forms.catalog._runner import _CHECKS, CaseReport, CheckResult, schema_checks
from g2forms.exterior import AltForm, parse_form
from g2forms.liealg import (
    HomogeneousSpaceData,
    JacobiReport,
    LieStructureError,
    MatrixBasis,
    from_matrices,
    homogeneous_from_partial,
    jacobi_check,
    reductive_split,
)
from g2forms.scalars import PolyScalar, parse_rational

__all__ = [
    "CaseRecord",
    "CaseReport",
    "CheckResult",
    "SCHEMA_TEXT",
    "SchemaError",
    "bundled_ids",
    "load_bundled",
    "load_case",
    "verify_all",
    "verify_case",
]


class SchemaError(ValueError):
    """A case document violates the schema."""


SOURCES = ("matrix-basis", "structure-constants", "partial-homogeneous")

SCHEMA_TEXT = """\
Case file schema (JSON, one document per case)
===============================================

Required fields
---------------
id            unique case identifier (string)
description   human-readable summary (string)
source        one of: matrix-basis | structure-constants | partial-homogeneous
dimension     matrix-basis / structure-constants: dimension of the full
              Lie algebra; partial-homogeneous: dimension of m
basis_names   list of `dimension` names (full algebra order for full
              sources; m order for partial data)
expected      list of {check, args, value, cite}; cite is a non-empty
              source label for the expected value

Payload (exactly one, matching `source`)
----------------------------------------
matrices      list of square matrices, row-major; each entry is either a
              rational string "p/q" or a two-element list [re, im] of
              rational strings (a complex entry; complex matrices are
              realified on load, which preserves all brackets)
structure_constants
              list of [i, j, k, coeff] with 1 <= i < j <= n and coeff a
              polynomial string; [e_i, e_j] = sum_k coeff * e_k.  Only
              i < j entries are stored (antisymmetry is implicit).
homogeneous   {"isotropy_action": [matrix, ...],
               "projected_bracket": [[i, j, [coeff, ...]], ...]}
              with dim-m square matrices of polynomial strings and
              bracket component vectors of length dim m

Optional fields
---------------
h_indices     distinct 1-based indices of the isotropy subalgebra basis (full
              sources; must form a subalgebra with [h, m] in m)
m_indices     distinct 1-based indices of the complement m (full sources)
context       ordered list of distinct parameter symbols for every polynomial
              string in the document (default: empty)
parameters    {symbol: rational string} instantiation applied before any
              numeric computation (invariant bases, closed families,
              definiteness); symbolic evaluations (d_eval, b_entry) run
              on the uninstantiated data
enumerations  list of {symbol: rational string} partial assignments;
              checks that need numeric data are repeated for
              parameters+enumeration and must hold for every entry
gammas        printed invariant-form basis (form strings); the generic
              form sum_i gamma_symbols[i] * gammas[i] feeds d_eval,
              b_entry and closed_component_zero
gamma_symbols one parameter symbol per gamma
exploratory   boolean (default false); exploratory cases are skipped by
              verify_all unless an explicit filter matches them

Scalar and form grammar
-----------------------
rational      "p" or "p/q" (q > 0)
polynomial    signed monomial sums with symbols in context order,
              e.g. "6*b - 2", "-a3", "1/2*a1 + 2*a2", "6*a3*a6^2"
form          signed sums "c*e^{i j k}" with rational c and 1-based,
              single-digit indices, e.g. "e^{1 2 4} - e^{1 3 5}";
              "0" denotes the zero form

Checks
------
""" + schema_checks() + """
Exit semantics: a report line is `match` (or `span-match` for span
comparisons) when computed equals expected; any `mismatch` fails the case.
"""


@dataclass
class CaseRecord:
    """A validated case document and the pipeline objects built from it.

    ``raw`` preserves the canonical content.  The algebra, its Jacobi
    report, the symbolic homogeneous data and the generic form are built
    once, on first use, and kept on the record: :func:`load_case` builds the
    ones it validates and the checks reuse them.  Everything derived from
    the data (instantiations, invariant spaces, closed families) is memoized
    on the data itself.  Do not mutate ``raw`` or the built objects.
    """

    raw: dict

    @property
    def case_id(self) -> str:
        return self.raw["id"]

    @property
    def description(self) -> str:
        return self.raw.get("description", "")

    @property
    def source(self) -> str:
        return self.raw["source"]

    @property
    def dimension(self) -> int:
        return self.raw["dimension"]

    @property
    def basis_names(self) -> list:
        return list(self.raw["basis_names"])

    @property
    def context(self) -> tuple:
        return tuple(self.raw.get("context", ()))

    @property
    def parameters(self) -> dict:
        return {k: parse_rational(v) for k, v in self.raw.get("parameters", {}).items()}

    @property
    def enumerations(self) -> list:
        enums = self.raw.get("enumerations")
        if not enums:
            return [self.parameters]
        return [
            {**self.parameters, **{k: parse_rational(v) for k, v in entry.items()}}
            for entry in enums
        ]

    @property
    def gammas(self) -> list:
        return list(self.raw.get("gammas", ()))

    @property
    def gamma_symbols(self) -> list:
        return list(self.raw.get("gamma_symbols", ()))

    @property
    def expected(self) -> list:
        return list(self.raw.get("expected", ()))

    @property
    def exploratory(self) -> bool:
        return bool(self.raw.get("exploratory", False))

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))

    def to_canonical_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"

    @cached_property
    def algebra(self) -> HomogeneousSpaceData:
        """The full Lie algebra of a matrix-basis or structure-constants case.

        It is homogeneous data with no isotropy (m = g), in the case context.
        """
        context = self.context
        if self.source == "matrix-basis":
            mats = self.raw["matrices"]
            if any(isinstance(entry, list) for m in mats for row in m for entry in row):
                basis = MatrixBasis.from_complex(
                    [[[_complex_entry(x) for x in row] for row in m] for m in mats]
                )
            else:
                basis = MatrixBasis([[[parse_rational(x) for x in row] for row in m] for m in mats])
            return from_matrices(basis, self.basis_names).with_symbols(context)
        if self.source == "structure-constants":
            constants: dict[tuple, dict] = {}
            for i, j, k, coeff in self.raw["structure_constants"]:
                comps = constants.setdefault((i, j), {})
                value = PolyScalar.parse(coeff, context)
                comps[k] = comps[k] + value if k in comps else value
            return HomogeneousSpaceData(
                self.dimension, [], constants, self.basis_names, context
            )
        raise ValueError(f"case {self.case_id} has no full algebra payload")

    @cached_property
    def jacobi(self) -> JacobiReport:
        return jacobi_check(self.algebra)

    @cached_property
    def homog_sym(self) -> HomogeneousSpaceData:
        """Symbolic homogeneous data of the case (no parameters substituted)."""
        if self.source != "partial-homogeneous":
            return reductive_split(self.algebra, self.raw["h_indices"], self.raw["m_indices"])
        hom, context = self.raw["homogeneous"], self.context
        isotropy = [
            {
                (r, c): PolyScalar.parse(x, context)
                for r, row in enumerate(m, 1)
                for c, x in enumerate(row, 1)
            }
            for m in hom["isotropy_action"]
        ]
        bracket = {
            (i, j): {r: PolyScalar.parse(x, context) for r, x in enumerate(comps, 1)}
            for i, j, comps in hom["projected_bracket"]
        }
        return homogeneous_from_partial(
            self.dimension, isotropy, bracket, self.basis_names, context
        )

    def homog_num(self, assignment=None) -> HomogeneousSpaceData:
        """The data instantiated at ``assignment`` (default: the first enumeration)."""
        if assignment is None:
            assignment = self.enumerations[0]
        return self.homog_sym.instantiate(assignment)

    @property
    def dim_m(self) -> int:
        return self.homog_sym.dim_m

    @cached_property
    def generic_form(self) -> AltForm:
        """sum_i gamma_symbols[i] * gammas[i] on the symbolic data."""
        if not self.gammas:
            raise ValueError(f"case {self.case_id} declares no gammas")
        phi = AltForm(self.dim_m, 3, self.context)
        for symbol, text in zip(self.gamma_symbols, self.gammas):
            gamma = parse_form(text, self.dim_m, 3, self.context)
            phi = phi + gamma.scale(PolyScalar.symbol(symbol, self.context))
        return phi

    def gamma_forms(self) -> list:
        return [parse_form(text, self.dim_m, 3, ()) for text in self.gammas]

    def numeric_form(self, text: str, degree=None) -> AltForm:
        return parse_form(text, self.dim_m, degree, self.homog_num().symbols)


def _complex_entry(entry):
    if isinstance(entry, list):
        return (parse_rational(entry[0]), parse_rational(entry[1]))
    return (parse_rational(entry), Fraction(0))


_ALLOWED_KEYS = {
    "id",
    "description",
    "source",
    "dimension",
    "basis_names",
    "matrices",
    "structure_constants",
    "homogeneous",
    "h_indices",
    "m_indices",
    "context",
    "parameters",
    "enumerations",
    "gammas",
    "gamma_symbols",
    "expected",
    "exploratory",
}

_PAYLOAD_BY_SOURCE = {
    "matrix-basis": "matrices",
    "structure-constants": "structure_constants",
    "partial-homogeneous": "homogeneous",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_strings(value, length=None) -> bool:
    """A list of strings, of the given length if one is given."""
    return (
        isinstance(value, list)
        and all(isinstance(x, str) for x in value)
        and length in (None, len(value))
    )


def _is_string_matrix(value, dim: int) -> bool:
    return isinstance(value, list) and len(value) == dim and all(_is_strings(r, dim) for r in value)


def _is_string_map(value) -> bool:
    return isinstance(value, dict) and all(isinstance(x, str) for x in value.values())


def validate_case_dict(doc: dict) -> None:
    """Raise :class:`SchemaError` with a field-level message on violation."""
    if not isinstance(doc, dict):
        raise SchemaError("case document must be a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise SchemaError(f"unknown field(s): {sorted(unknown)}")
    for key in ("id", "source", "dimension", "basis_names"):
        if key not in doc:
            raise SchemaError(f"missing required field {key!r}")
    if not isinstance(doc["id"], str) or not doc["id"]:
        raise SchemaError("id: must be a non-empty string")
    if doc["source"] not in SOURCES:
        raise SchemaError(f"source: expected one of {SOURCES}, got {doc['source']!r}")
    dim = doc["dimension"]
    if not _is_int(dim) or dim < 1:
        raise SchemaError("dimension: must be a positive integer")
    names = doc["basis_names"]
    if not isinstance(names, list) or len(names) != dim:
        raise SchemaError(f"basis_names: expected {dim} names")
    payload_key = _PAYLOAD_BY_SOURCE[doc["source"]]
    present = [k for k in _PAYLOAD_BY_SOURCE.values() if k in doc]
    if present != [payload_key]:
        raise SchemaError(
            f"payload: source {doc['source']!r} requires exactly the field {payload_key!r}"
        )
    if payload_key == "matrices":
        mats = doc["matrices"]
        if not isinstance(mats, list) or len(mats) != dim:
            raise SchemaError(f"matrices: expected {dim} matrices")
        size = None
        for pos, m in enumerate(mats):
            if not isinstance(m, list) or (size is not None and len(m) != size):
                raise SchemaError(f"matrices[{pos}]: inconsistent matrix size")
            size = len(m)
            for row in m:
                if not isinstance(row, list) or len(row) != size:
                    raise SchemaError(f"matrices[{pos}]: matrix is not square")
                if not all(isinstance(x, str) or _is_strings(x, 2) for x in row):
                    raise SchemaError(
                        f"matrices[{pos}]: entries must be rational strings or [re, im] pairs"
                    )
    elif payload_key == "structure_constants":
        if not isinstance(doc["structure_constants"], list):
            raise SchemaError("structure_constants: expected a list")
        for pos, entry in enumerate(doc["structure_constants"]):
            if (
                not isinstance(entry, list)
                or len(entry) != 4
                or not all(_is_int(x) for x in entry[:3])
                or not isinstance(entry[3], str)
            ):
                raise SchemaError(
                    f"structure_constants[{pos}]: expected [i, j, k, coeff-string]"
                )
            i, j, k = entry[:3]
            if not (1 <= i < j <= dim and 1 <= k <= dim):
                raise SchemaError(
                    f"structure_constants[{pos}]: indices ({i},{j},{k}) out of range"
                )
    else:
        hom = doc["homogeneous"]
        if not isinstance(hom, dict) or set(hom) != {"isotropy_action", "projected_bracket"}:
            raise SchemaError(
                "homogeneous: expected exactly the fields isotropy_action and projected_bracket"
            )
        if not all(isinstance(value, list) for value in hom.values()):
            raise SchemaError("homogeneous: isotropy_action and projected_bracket must be lists")
        for pos, m in enumerate(hom["isotropy_action"]):
            if not _is_string_matrix(m, dim):
                raise SchemaError(
                    f"homogeneous.isotropy_action[{pos}]: expected a {dim}x{dim} matrix of strings"
                )
        pairs = set()
        for pos, entry in enumerate(hom["projected_bracket"]):
            if (
                not isinstance(entry, list)
                or len(entry) != 3
                or not all(_is_int(x) for x in entry[:2])
                or not _is_strings(entry[2], dim)
            ):
                raise SchemaError(
                    f"homogeneous.projected_bracket[{pos}]: expected [i, j, [{dim} components]]"
                )
            i, j = entry[0], entry[1]
            if not (1 <= i <= dim and 1 <= j <= dim and i != j):
                raise SchemaError(
                    f"homogeneous.projected_bracket[{pos}]: invalid pair ({i},{j})"
                )
            if (i, j) in pairs:
                raise SchemaError(
                    f"homogeneous.projected_bracket[{pos}]: pair ({i},{j}) listed twice"
                )
            pairs.add((i, j))
    if doc["source"] != "partial-homogeneous":
        for key in ("h_indices", "m_indices"):
            if key not in doc:
                raise SchemaError(f"missing field {key!r} for source {doc['source']!r}")
            indices = doc[key]
            if not isinstance(indices, list) or not all(_is_int(i) for i in indices):
                raise SchemaError(f"{key}: expected a list of integers")
            if any(not (1 <= i <= dim) for i in indices):
                raise SchemaError(f"{key}: index out of range 1..{dim}")
            if len(set(indices)) != len(indices):
                raise SchemaError(f"{key}: repeated index")
    context = doc.get("context", [])
    if not _is_strings(context) or len(set(context)) != len(context):
        raise SchemaError("context: expected a list of distinct symbol names")
    parameters, enumerations = doc.get("parameters", {}), doc.get("enumerations", [])
    if not _is_string_map(parameters):
        raise SchemaError("parameters: expected a {symbol: rational string} object")
    if not isinstance(enumerations, list) or not all(_is_string_map(e) for e in enumerations):
        raise SchemaError("enumerations: expected a list of {symbol: rational string} objects")
    gammas = doc.get("gammas", [])
    gamma_symbols = doc.get("gamma_symbols", [])
    if not (_is_strings(gammas) and _is_strings(gamma_symbols)):
        raise SchemaError("gammas and gamma_symbols must be lists of strings")
    if len(gammas) != len(gamma_symbols):
        raise SchemaError("gammas and gamma_symbols must have equal length")
    for sym in gamma_symbols:
        if sym not in context:
            raise SchemaError(f"gamma_symbols: {sym!r} is not declared in context")
    if not isinstance(doc.get("expected", []), list):
        raise SchemaError("expected: must be a list")
    for pos, item in enumerate(doc.get("expected", [])):
        if not isinstance(item, dict) or not {"check", "value", "cite"} <= set(item):
            raise SchemaError(f"expected[{pos}]: needs check, value and cite fields")
        if item["check"] not in _CHECKS:
            raise SchemaError(f"expected[{pos}]: unknown check {item['check']!r}")
        if not isinstance(item["cite"], str) or not item["cite"]:
            raise SchemaError(f"expected[{pos}]: cite must be a non-empty string")


def load_case(path) -> CaseRecord:
    """Load and validate a case file.

    Supplied structure constants get a Jacobi check and a reductive-split
    validation at load time; partial homogeneous payloads are checked for
    bracket antisymmetry.  The objects this validation reads
    (``algebra``, ``jacobi``, ``homog_sym``) stay on the record for the
    checks.  Matrix payloads are validated on first use (the exact solve
    that derives their constants is the validation).
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    validate_case_dict(doc)
    record = CaseRecord(doc)
    if record.source == "structure-constants":
        try:
            record.algebra
        except ValueError as exc:  # an unparsable coefficient
            raise SchemaError(f"invalid structure constants: {exc}") from exc
        if not record.jacobi.ok:
            raise SchemaError(f"structure constants violate Jacobi:\n{record.jacobi.render()}")
        try:
            record.homog_sym
        except LieStructureError as exc:
            raise SchemaError(f"reductive split fails: {exc}") from exc
    elif record.source == "partial-homogeneous":
        try:
            record.homog_sym
        except ValueError as exc:  # LieStructureError included
            raise SchemaError(f"invalid homogeneous payload: {exc}") from exc
    return record


def _case_dir():
    return resources.files("g2forms.catalog") / "cases"


def bundled_ids() -> list:
    """Sorted ids of every bundled case, exploratory ones included."""
    out = []
    for entry in _case_dir().iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[: -len(".json")])
    return sorted(out)


def load_bundled(case_id: str) -> CaseRecord:
    target = _case_dir() / f"{case_id}.json"
    if not target.is_file():
        raise KeyError(f"unknown case id {case_id!r} (known: {', '.join(bundled_ids())})")
    return load_case(target)


def verify_case(case) -> CaseReport:
    """Run every expected check of a case and compare exactly.

    ``case`` is a bundled id or a :class:`CaseRecord`.
    """
    record = load_bundled(case) if isinstance(case, str) else case
    report = CaseReport(record.case_id, record.description)
    start = time.perf_counter()
    for item in record.expected:
        check, value = item["check"], item["value"]
        args = dict(item.get("args", {}))
        status, computed = _CHECKS[check][0](record, args, value)
        expected = "; ".join(map(str, value)) if isinstance(value, list) else str(value)
        report.results.append(CheckResult(check, args, status, computed, expected, item["cite"]))
    report.seconds = time.perf_counter() - start
    return report


def verify_all(pattern: str | None = None) -> list:
    """Verify bundled cases, reports in id order.

    Without a pattern the canonical cases run (exploratory ones excluded);
    with a pattern, every bundled id matching the glob runs, exploratory
    included.
    """
    records = (load_bundled(i) for i in bundled_ids() if pattern is None or fnmatch(i, pattern))
    return [verify_case(r) for r in records if pattern is not None or not r.exploratory]
