"""Bundled homogeneous-space cases with expected values, and their verifier.

Each case is a JSON document (see :data:`SCHEMA_TEXT`) holding the raw
input data (a matrix basis, structure constants, or partial homogeneous
data), parameter instantiations, and a list of expected check results with
source citations.  Every source is built and checked when the case loads
(:func:`validate_case_dict`), so a record that loads is complete.
:func:`verify_case` runs the checks of a case and compares every expected
value exactly; :func:`verify_all` aggregates.

Filter semantics: without a filter, :func:`verify_all` runs the canonical
cases only (``exploratory`` cases are excluded); an explicit filter glob is
matched against *all* bundled ids, exploratory included.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch
from functools import cached_property
from importlib import resources
from pathlib import Path

from g2forms.catalog._runner import (
    _ARGS, _CHECKS, CaseReport, CheckResult, WrongType, _is_bool, _is_int, _is_ints, _is_list_of,
    _is_map, _is_object, _is_str, _is_strings, schema_checks, schema_entry,
)
from g2forms.exterior import AltForm, parse_form
from g2forms.liealg import (
    HomogeneousSpaceData,
    JacobiReport,
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
FULL_SOURCES = SOURCES[:2]


def _is_matrix(value, size, entry) -> bool:
    """A size x size list of rows whose entries pass ``entry``."""
    return _is_list_of(value, lambda row: _is_list_of(row, entry, size), size)


def _is_matrices(value, dim) -> bool:
    """``dim`` square matrices of one size, entries "p/q" or [re, im]."""
    return _is_list_of(value, lambda m: isinstance(m, list), dim) and all(
        _is_matrix(m, len(value[0]), lambda x: _is_str(x) or _is_strings(x, 2)) for m in value
    )


def _is_bracket_entry(entry, dim) -> bool:
    """[i, j, [coeff, ...]] with i != j in 1..dim and dim coefficient strings."""
    return (
        isinstance(entry, list) and len(entry) == 3 and _is_ints(entry[:2], 1, dim)
        and entry[0] != entry[1] and _is_strings(entry[2], dim)
    )


def _is_constant_entry(entry, dim) -> bool:
    """[i, j, k, coeff] with 1 <= i < j <= dim, 1 <= k <= dim and a coefficient string."""
    return (
        isinstance(entry, list) and len(entry) == 4 and _is_ints(entry[:3], 1, dim)
        and entry[0] < entry[1] and _is_str(entry[3])
    )


_EXPECTED_ITEM = {
    "check": _is_str,
    "args": lambda x: isinstance(x, dict),
    "value": lambda x: True,
    "cite": lambda x: _is_str(x) and x != "",
}

# The case schema, one entry per field: name, the sources that require the
# field (none for an optional one; a field that some sources require is
# rejected for the others), its type test(value, dimension) and its schema
# lines.  validate_case_dict checks each entry, and SCHEMA_TEXT lists them.
_FIELDS = (
    ("id", SOURCES, lambda x, n: _is_str(x) and x != "", "unique case identifier (string)"),
    ("description", SOURCES, lambda x, n: _is_str(x), "human-readable summary (string)"),
    ("source", SOURCES, lambda x, n: x in SOURCES, "one of: " + " | ".join(SOURCES)),
    ("dimension", SOURCES, lambda x, n: _is_int(x) and x >= 1, """\
matrix-basis / structure-constants: dimension of the full
Lie algebra; partial-homogeneous: dimension of m"""),
    ("basis_names", SOURCES, _is_strings, """\
list of `dimension` names (full algebra order for full
sources; m order for partial data)"""),
    ("h_indices", FULL_SOURCES, lambda x, n: _is_ints(x, 1, n), """\
distinct 1-based indices of the isotropy subalgebra basis (full
sources; must form a subalgebra with [h, m] in m)"""),
    ("m_indices", FULL_SOURCES, lambda x, n: _is_ints(x, 1, n),
     "distinct 1-based indices of the complement m (full sources)"),
    ("expected", SOURCES, lambda x, n: _is_list_of(x, lambda y: _is_object(y, _EXPECTED_ITEM)), """\
list of {check, args, value, cite}; cite is a non-empty
source label for the expected value"""),
    ("matrices", ("matrix-basis",), _is_matrices, """\
list of square matrices, row-major; each entry is either a
rational string "p/q" or a two-element list [re, im] of
rational strings (a complex entry; complex matrices are
realified on load, which preserves all brackets)"""),
    ("structure_constants", ("structure-constants",),
     lambda x, n: _is_list_of(x, lambda e: _is_constant_entry(e, n)), """\
list of [i, j, k, coeff] with 1 <= i < j <= n and coeff a
polynomial string; [e_i, e_j] = sum_k coeff * e_k.  Only
i < j entries are stored (antisymmetry is implicit), and
each (i, j, k) at most once."""),
    ("homogeneous", ("partial-homogeneous",), lambda x, n: _is_object(x, {
        "isotropy_action": lambda y: _is_list_of(y, lambda m: _is_matrix(m, n, _is_str)),
        "projected_bracket": lambda y: _is_list_of(y, lambda e: _is_bracket_entry(e, n)),
    }), """\
{"isotropy_action": [matrix, ...],
 "projected_bracket": [[i, j, [coeff, ...]], ...]}
with dim-m square matrices of polynomial strings and
bracket component vectors of length dim m; each (i, j)
at most once"""),
    ("context", (), lambda x, n: _is_strings(x) and len(set(x)) == len(x), """\
ordered list of distinct parameter symbols for every polynomial
string in the document (default: empty)"""),
    ("parameters", (), lambda x, n: _is_map(x, _is_str), """\
{symbol: rational string} instantiation applied before any
numeric computation (invariant bases, closed families,
definiteness); symbolic evaluations (d_eval, b_entry) run
on the uninstantiated data"""),
    ("enumerations", (), lambda x, n: _is_list_of(x, lambda y: _is_map(y, _is_str)), """\
list of {symbol: rational string} partial assignments;
checks that need numeric data are repeated for
parameters+enumeration and must hold for every entry"""),
    ("gammas", (), lambda x, n: _is_strings(x), """\
printed invariant-form basis (form strings); the generic
form sum_i gamma_symbols[i] * gammas[i] feeds d_eval,
b_entry and closed_component_zero"""),
    ("gamma_symbols", (), lambda x, n: _is_strings(x), "one parameter symbol per gamma"),
    ("exploratory", (), lambda x, n: _is_bool(x), """\
boolean (default false); exploratory cases are skipped by
verify_all unless an explicit filter matches them"""),
)


def _schema_block(title: str, fields) -> str:
    lines = [title, "-" * len(title), *(schema_entry(f[0], f[3], 14) for f in fields)]
    return "\n".join(lines) + "\n"


SCHEMA_TEXT = f"""\
Case file schema (JSON, one document per case)
===============================================

{_schema_block("Required fields", (f for f in _FIELDS if len(f[1]) > 1))}
{_schema_block("Payload (exactly one, matching `source`)", (f for f in _FIELDS if len(f[1]) == 1))}
{_schema_block("Optional fields", (f for f in _FIELDS if not f[1]))}
Scalar and form grammar
-----------------------
rational      "p" or "p/q" (q > 0)
polynomial    signed monomial sums with symbols in context order,
              e.g. "6*b - 2", "-a3", "1/2*a1 + 2*a2", "6*a3*a6^2"
form          signed sums "c*e^{{i j k}}" with rational c and 1-based,
              single-digit indices, e.g. "e^{{1 2 4}} - e^{{1 3 5}}";
              "0" denotes the zero form

Checks
------
{schema_checks()}
Exit semantics: a report line is `match` (or `span-match` for span
comparisons) when computed equals expected; any `mismatch` fails the case.
"""


@dataclass
class CaseRecord:
    """A case document, its parsed strings and the pipeline objects built from it.

    ``raw`` preserves the canonical content.  ``checks`` holds each expected
    item as ``(check, value, args)``, parsed into what the check takes.
    :func:`validate_case_dict` builds and checks, for every source, the
    parsed parameters and gammas, the algebra, its Jacobi report and the
    symbolic homogeneous data; they stay on the record for the checks (a
    record made straight from a document builds each on first use).
    Everything derived from the data (instantiations, invariant spaces,
    closed families) is memoized on the data.  Do not mutate any of them.
    """

    raw: dict
    checks: list = field(default_factory=list)

    @property
    def case_id(self) -> str:
        return self.raw["id"]

    @property
    def description(self) -> str:
        return self.raw["description"]

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

    @cached_property
    def parameters(self) -> dict:
        return {k: parse_rational(v) for k, v in self.raw.get("parameters", {}).items()}

    @cached_property
    def enumerations(self) -> list:
        return [
            {**self.parameters, **{k: parse_rational(v) for k, v in entry.items()}}
            for entry in self.raw.get("enumerations") or [{}]
        ]

    @property
    def gammas(self) -> list:
        return list(self.raw.get("gammas", ()))

    @property
    def gamma_symbols(self) -> list:
        return list(self.raw.get("gamma_symbols", ()))

    @property
    def expected(self) -> list:
        return list(self.raw["expected"])

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

        It is homogeneous data with no isotropy (m = g), in the case context;
        complex matrices are realified before the solve.
        """
        context = self.context
        if self.source == "matrix-basis":
            mats = [[[_matrix_entry(x) for x in row] for row in m] for m in self.raw["matrices"]]
            complex_entries = any(isinstance(x, list) for m in mats for row in m for x in row)
            basis = MatrixBasis.from_complex(mats) if complex_entries else MatrixBasis(mats)
            return from_matrices(basis, self.basis_names, context)
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
                if x != "0"
            }
            for m in hom["isotropy_action"]
        ]
        bracket = {
            (i, j): {r: PolyScalar.parse(x, context) for r, x in enumerate(comps, 1) if x != "0"}
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
        return self.dimension if self.source == "partial-homogeneous" else len(self.raw["m_indices"])

    @cached_property
    def generic_form(self) -> AltForm:
        """sum_i gamma_symbols[i] * gammas[i] on the symbolic data."""
        phi = AltForm(self.dim_m, 3, self.context)
        for symbol, gamma in zip(self.gamma_symbols, self.gamma_forms):
            phi = phi + gamma.scale(PolyScalar.symbol(symbol, self.context))
        return phi

    @cached_property
    def gamma_forms(self) -> list:
        if not self.gammas:
            raise ValueError(f"case {self.case_id} declares no gammas")
        return [parse_form(text, self.dim_m, 3, self.context) for text in self.gammas]


def _matrix_entry(entry):
    """A rational, or a complex entry as its [re, im] pair of rationals."""
    if isinstance(entry, list):
        return [parse_rational(x) for x in entry]
    return parse_rational(entry)


def _schema_error(where: str, text: str) -> SchemaError:
    return SchemaError(f"{where}; schema: {' '.join(text.split())}")


def _no_repeats(field: str, keys) -> None:
    seen = set()
    for pos, key in enumerate(keys):
        if key in seen:
            raise SchemaError(f"{field}[{pos}]: repeated index {key}")
        seen.add(key)


def _parse(where: str, text: str, parse, *values):
    """``parse(*values)``, with its WrongType and ValueError turned into a SchemaError."""
    try:
        return parse(*values)
    except WrongType:
        raise _schema_error(where, text) from None
    except ValueError as exc:  # a string it cannot parse, or a case its check cannot run on
        raise SchemaError(f"{where}: {exc}") from exc


def validate_case_dict(doc: dict) -> CaseRecord:
    """The record of a case document; :class:`SchemaError` names the field at fault.

    Each field is checked against its :data:`_FIELDS` entry.  Then the rules
    that span fields are checked, and the case is built from its payload:
    a full source gets its algebra (matrices solved), a Jacobi check and
    the reductive split, partial data its antisymmetry check.  Each expected
    item is parsed for its check: the args bind to the check's keyword
    parameters and go through their :data:`_ARGS` parsers, then the value
    goes through the check's item parser, and ``record.checks`` keeps both.
    """
    if not isinstance(doc, dict):
        raise SchemaError("case document must be a JSON object")
    unknown = set(doc) - {name for name, *_ in _FIELDS}
    if unknown:
        raise SchemaError(f"unknown field(s): {sorted(unknown)}")
    for name, sources, test, text in _FIELDS:
        allowed = sources in (SOURCES, ()) or doc["source"] in sources
        if name not in doc:
            if sources and allowed:
                raise SchemaError(f"missing required field {name!r}")
        elif not test(doc[name], doc.get("dimension")):
            raise _schema_error(f"{name}: invalid value", text)
        elif not allowed:
            raise SchemaError(f"{name}: not a field of source {doc['source']!r}")
    record = CaseRecord(doc)
    if doc["source"] == "partial-homogeneous":
        pairs = [tuple(e[:2]) for e in doc["homogeneous"]["projected_bracket"]]
        _no_repeats("homogeneous.projected_bracket", pairs)
    else:
        _no_repeats("h_indices", doc["h_indices"])
        _no_repeats("m_indices", doc["m_indices"])
        triples = [tuple(e[:3]) for e in doc.get("structure_constants", ())]
        _no_repeats("structure_constants", triples)
    symbols = {*doc.get("parameters", {}), *doc.get("gamma_symbols", [])}
    symbols.update(*doc.get("enumerations", []))
    if not symbols <= set(doc.get("context", [])):
        undeclared = sorted(symbols - set(doc.get("context", [])))
        raise SchemaError(f"symbols not declared in context: {undeclared}")
    gammas = len(doc.get("gammas", []))
    if gammas != len(doc.get("gamma_symbols", [])):
        raise SchemaError("gammas and gamma_symbols must have equal length")
    _parse("parameters", "", lambda: record.parameters)
    _parse("enumerations", "", lambda: record.enumerations)
    payload = next(name for name, sources, *_ in _FIELDS if sources == (doc["source"],))
    full = doc["source"] in FULL_SOURCES
    if full and not _parse(payload, "", lambda: record.jacobi).ok:
        raise SchemaError(f"{payload}: the Jacobi identity fails:\n{record.jacobi.render()}")
    _parse("reductive split fails" if full else payload, "", lambda: record.homog_sym)
    if doc.get("gammas"):
        _parse("gammas", "", lambda: record.gamma_forms)
    for pos, item in enumerate(doc["expected"]):
        name, value, where = item["check"], item["value"], f"expected[{pos}]: {item['check']}"
        if name not in _CHECKS:
            raise SchemaError(f"expected[{pos}]: unknown check {name!r}")
        check, parse_item, check_doc = _CHECKS[name]
        try:
            inspect.signature(check).bind(None, value, **item["args"])
        except TypeError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        args = {}
        for arg, x in item["args"].items():
            parse, arg_doc = _ARGS[arg]
            args[arg] = _parse(f"{where} arg {arg}={x!r}", arg_doc, parse, x, record.dim_m, gammas)
        value = _parse(f"{where} value {value!r}", check_doc, parse_item, value, args, record)
        record.checks.append((check, value, args))
    return record


def _read(path):
    """The JSON document of a case file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def load_case(path) -> CaseRecord:
    """The record of a case file, built and checked by :func:`validate_case_dict`."""
    return validate_case_dict(_read(path))


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
    for item, (check, value, args) in zip(record.expected, record.checks, strict=True):
        status, computed = check(record, value, **args)
        raw = item["value"]
        expected = "; ".join(map(str, raw)) if isinstance(raw, list) else str(raw)
        report.results.append(
            CheckResult(item["check"], dict(item["args"]), status, computed, expected, item["cite"])
        )
    report.seconds = time.perf_counter() - start
    return report


def verify_all(pattern: str | None = None) -> list:
    """Verify bundled cases, reports in id order.

    Without a pattern the canonical cases run (exploratory ones excluded);
    with a pattern, every bundled id matching the glob runs, exploratory
    included.
    """
    ids = (i for i in bundled_ids() if pattern is None or fnmatch(i, pattern))
    docs = (_read(_case_dir() / f"{i}.json") for i in ids)
    # without a pattern, an exploratory document is skipped before it is built
    return [verify_case(validate_case_dict(d)) for d in docs
            if pattern is not None or d.get("exploratory") is not True]
