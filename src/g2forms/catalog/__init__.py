"""Bundled homogeneous-space cases with expected values, and their verifier.

Each case is a JSON document (see :data:`SCHEMA_TEXT`) holding the raw
input data (a matrix basis, structure constants, or partial homogeneous
data), parameter instantiations, and a list of expected check results with
source citations.  A case is parsed and built when it loads
(:func:`validate_case_dict`): each field goes through its parser once, and
the record holds the parsed values and the data built from them, so a
record that loads is complete.  :func:`verify_case` runs the checks of a
case and compares every expected value exactly; :func:`verify_all`
aggregates.

Filter semantics: without a filter, :func:`verify_all` runs the canonical
cases only (``exploratory`` cases are excluded); an explicit filter glob is
matched against *all* bundled ids, exploratory included.
"""

from __future__ import annotations

import json
import time
from fnmatch import fnmatch
from pathlib import Path

from g2forms.catalog._runner import (
    _ARGS, _CHECKS, CaseReport, CheckResult, WrongType, _is_bool, _is_int, _is_ints, _is_list_of,
    _is_map, _is_object, _is_str, _is_strings, _strings, _typed, bind_error, schema_checks,
    schema_entry,
)
from g2forms.exterior import AltForm, combination, parse_form
from g2forms.liealg import (
    HomogeneousSpaceData,
    MatrixBasis,
    from_matrices,
    homogeneous_from_partial,
    jacobi_check,
    reductive_split,
)
from g2forms.scalars import PolyScalar, check_context, parse_rational

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


# -- field parsers ------------------------------------------------------------
# A parser(value, values) gets the field's JSON value and the values of the
# fields parsed before it, returns the typed value, and raises WrongType on a
# value of the wrong type and ValueError on one it cannot parse.

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


def _repeated(key, where) -> ValueError:
    return ValueError(f"repeated index {key} at {where}")


def _dim_m(values) -> int:
    """The number of m_indices for full sources, the dimension for partial data."""
    return len(values["m_indices"]) if values["source"] in FULL_SOURCES else values["dimension"]


def _indices(value, values) -> list:
    """Distinct basis indices 1..dimension."""
    if not _is_ints(value, 1, values["dimension"]):
        raise WrongType
    for pos, index in enumerate(value):
        if index in value[:pos]:
            raise _repeated(index, f"[{pos}]")
    return value


def _matrices(value, values) -> list:
    """The matrices with each entry a Fraction, or a complex one an [re, im] pair of them."""
    def entry(x):
        return [parse_rational(y) for y in x] if isinstance(x, list) else parse_rational(x)

    if not _is_matrices(value, values["dimension"]):
        raise WrongType
    return [[[entry(x) for x in row] for row in m] for m in value]


def _structure_constants(value, values) -> dict:
    """The table {(i, j): {k: coeff}}; ValueError on a repeated (i, j, k)."""
    n, context = values["dimension"], values["context"]
    if not _is_list_of(value, lambda e: _is_constant_entry(e, n)):
        raise WrongType
    table: dict[tuple, dict] = {}
    for pos, (i, j, k, coeff) in enumerate(value):
        comps = table.setdefault((i, j), {})
        if k in comps:
            raise _repeated((i, j, k), f"[{pos}]")
        comps[k] = PolyScalar.parse(coeff, context)
    return table


def _homogeneous(value, values) -> tuple:
    """The isotropy tables {(r, c): a} and the bracket {(i, j): {r: c}}.

    ValueError on a repeated (i, j).
    """
    n, context = values["dimension"], values["context"]
    if not _is_object(value, {
        "isotropy_action": lambda y: _is_list_of(y, lambda m: _is_matrix(m, n, _is_str)),
        "projected_bracket": lambda y: _is_list_of(y, lambda e: _is_bracket_entry(e, n)),
    }):
        raise WrongType
    isotropy = [
        {
            (r, c): PolyScalar.parse(x, context)
            for r, row in enumerate(m, 1)
            for c, x in enumerate(row, 1)
            if x != "0"
        }
        for m in value["isotropy_action"]
    ]
    bracket: dict[tuple, dict] = {}
    for pos, (i, j, comps) in enumerate(value["projected_bracket"]):
        if (i, j) in bracket:
            raise _repeated((i, j), f"projected_bracket[{pos}]")
        bracket[i, j] = {
            r: PolyScalar.parse(x, context) for r, x in enumerate(comps, 1) if x != "0"
        }
    return isotropy, bracket


def _declared(symbols, values):
    """``symbols``; ValueError when one is not in the context."""
    undeclared = sorted(set(symbols) - set(values["context"]))
    if undeclared:
        raise ValueError(f"symbols not declared in context: {undeclared}")
    return symbols


def _assignment(value, values) -> dict:
    """{symbol: Fraction} over symbols of the context."""
    if not _is_map(value, _is_str):
        raise WrongType
    return {k: parse_rational(x) for k, x in _declared(value, values).items()}


def _enumerations(value, values) -> list:
    """A list of assignments."""
    if not isinstance(value, list):
        raise WrongType
    return [_assignment(x, values) for x in value]


_EXPECTED_ITEM = {
    "check": _is_str,
    "args": lambda x: isinstance(x, dict),
    "value": lambda x: True,
    "cite": lambda x: _is_str(x) and x != "",
}

# The case schema, one entry per field: name, the sources that require the
# field (none for an optional one; a field that some sources require is
# rejected for the others), its parser and its schema lines.
# validate_case_dict parses each field with its entry, and SCHEMA_TEXT lists
# them.  The expected items are parsed for their checks once the case is built.
_FIELDS = (
    ("id", SOURCES, _typed(lambda x, v: _is_str(x) and x != ""), "unique case identifier (string)"),
    ("description", SOURCES, _typed(_is_str), "human-readable summary (string)"),
    ("source", SOURCES, _typed(lambda x, v: x in SOURCES), "one of: " + " | ".join(SOURCES)),
    ("dimension", SOURCES, _typed(lambda x, v: _is_int(x) and x >= 1), """\
matrix-basis / structure-constants: dimension of the full
Lie algebra; partial-homogeneous: dimension of m"""),
    ("basis_names", SOURCES, _typed(lambda x, v: _is_strings(x, v["dimension"])), """\
list of `dimension` names (full algebra order for full
sources; m order for partial data)"""),
    ("h_indices", FULL_SOURCES, _indices, """\
distinct 1-based indices of the isotropy subalgebra basis (full
sources; must form a subalgebra with [h, m] in m)"""),
    ("m_indices", FULL_SOURCES, _indices,
     "distinct 1-based indices of the complement m (full sources)"),
    ("expected", SOURCES,
     _typed(lambda x, v: _is_list_of(x, lambda y: _is_object(y, _EXPECTED_ITEM))), """\
list of {check, args, value, cite}; cite is a non-empty
source label for the expected value"""),
    ("matrices", ("matrix-basis",), _matrices, """\
list of square matrices, row-major; each entry is either a
rational string "p/q" or a two-element list [re, im] of
rational strings (a complex entry; complex matrices are
solved on their (re, im) coordinates)"""),
    ("structure_constants", ("structure-constants",), _structure_constants, """\
list of [i, j, k, coeff] with 1 <= i < j <= n and coeff a
polynomial string; [e_i, e_j] = sum_k coeff * e_k.  Only
i < j entries are stored (antisymmetry is implicit), and
each (i, j, k) at most once."""),
    ("homogeneous", ("partial-homogeneous",), _homogeneous, """\
{"isotropy_action": [matrix, ...],
 "projected_bracket": [[i, j, [coeff, ...]], ...]}
with dim-m square matrices of polynomial strings and
bracket component vectors of length dim m; each (i, j)
at most once"""),
    ("context", (), lambda x, v: check_context(_strings(x)), """\
ordered list of distinct parameter symbols for every polynomial
string in the document (default: empty)"""),
    ("parameters", (), _assignment, """\
{symbol: rational string} instantiation applied before any
numeric computation (invariant bases, closed families,
definiteness); symbolic evaluations (d_eval, b_entry) run
on the uninstantiated data"""),
    ("enumerations", (), _enumerations, """\
list of {symbol: rational string} partial assignments;
checks that need numeric data are repeated for
parameters+enumeration and must hold for every entry"""),
    ("gammas", (), lambda x, v: [parse_form(t, _dim_m(v), 3, v["context"]) for t in _strings(x)],
     """\
printed invariant-form basis (form strings); the generic
form sum_i gamma_symbols[i] * gammas[i] feeds d_eval,
b_entry and closed_component_zero"""),
    ("gamma_symbols", (), lambda x, v: _declared(_strings(x), v), "one parameter symbol per gamma"),
    ("exploratory", (), _typed(_is_bool), """\
boolean (default false); exploratory cases are skipped by
verify_all unless an explicit filter matches them"""),
)
# the payload is parsed last, because its parser reads the context
_PARSE_ORDER = sorted(_FIELDS, key=lambda f: len(f[1]) == 1)


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


class CaseRecord:
    """A loaded case: the parsed values of its document and the data built from them.

    :func:`validate_case_dict` builds every record, when the case loads.
    ``algebra`` is the full Lie algebra of a matrix-basis or
    structure-constants case (m = g, no isotropy), None for partial data;
    load refuses it when the Jacobi identity fails.  ``homog_sym`` is the
    symbolic homogeneous data, ``generic_form`` the sum of
    ``gamma_symbols[i] * gammas[i]`` on it, and ``enumerations`` the
    parameters merged into each enumeration entry, as Fractions.  ``checks`` holds each expected item as
    ``(check, value, args)``, parsed into what the check takes, and ``raw``
    the document, which the report quotes.  Everything derived from the
    data (instantiations, invariant spaces, closed families) is memoized on
    the data.  Do not mutate any of them.
    """

    def __init__(self, case_id: str, description: str, source: str, dim_m: int, context: tuple,
                 enumerations: list, algebra: HomogeneousSpaceData | None,
                 homog_sym: HomogeneousSpaceData, gamma_forms: list, generic_form: AltForm,
                 checks: list, raw: dict):
        self.case_id, self.description, self.source = case_id, description, source
        self.dim_m, self.context, self.enumerations = dim_m, context, enumerations
        self.algebra, self.homog_sym = algebra, homog_sym
        self.gamma_forms, self.generic_form = gamma_forms, generic_form
        self.checks, self.raw = checks, raw

    def homog_num(self, assignment=None) -> HomogeneousSpaceData:
        """The data instantiated at ``assignment`` (default: the first enumeration)."""
        if assignment is None:
            assignment = self.enumerations[0]
        return self.homog_sym.instantiate(assignment)


def _algebra(values) -> HomogeneousSpaceData:
    """The full Lie algebra of the case; complex matrices are solved on their (re, im) parts."""
    names, context = values["basis_names"], values["context"]
    if values["source"] == "structure-constants":
        constants = values["structure_constants"]
        return HomogeneousSpaceData(values["dimension"], [], constants, names, context)
    mats = values["matrices"]
    complex_entries = any(isinstance(x, list) for m in mats for row in m for x in row)
    basis = MatrixBasis.from_complex(mats) if complex_entries else MatrixBasis(mats)
    return from_matrices(basis, names, context)


def _parse(where: str, text: str, parse, *values):
    """``parse(*values)``, with its WrongType and ValueError turned into a SchemaError."""
    try:
        return parse(*values)
    except WrongType:
        raise SchemaError(f"{where}: invalid value; schema: {' '.join(text.split())}") from None
    except ValueError as exc:  # a string it cannot parse, or a case its check cannot run on
        raise SchemaError(f"{where}: {exc}") from exc


def validate_case_dict(doc: dict) -> CaseRecord:
    """The record of a case document; :class:`SchemaError` names the field at fault.

    Each field goes through its :data:`_FIELDS` parser.  Then the case is
    built from its payload: a full source gets its algebra (matrices
    solved), a Jacobi check and the reductive split, partial data its
    antisymmetry check.  Each expected item is parsed for its check: the
    args bind to the check's keyword parameters and go through their
    :data:`_ARGS` parsers, then the value goes through the check's item
    parser, and ``record.checks`` keeps both.
    """
    if not isinstance(doc, dict):
        raise SchemaError("case document must be a JSON object")
    unknown = set(doc) - {name for name, *_ in _FIELDS}
    if unknown:
        raise SchemaError(f"unknown field(s): {sorted(unknown)}")
    # the optional fields that the build reads, at their defaults
    values = dict(context=(), parameters={}, enumerations=[], gammas=[], gamma_symbols=[])
    for name, sources, parse, text in _PARSE_ORDER:
        allowed = sources in (SOURCES, ()) or values["source"] in sources
        if name not in doc:
            if sources and allowed:
                raise SchemaError(f"missing required field {name!r}")
        elif not allowed:
            raise SchemaError(f"{name}: not a field of source {values['source']!r}")
        else:
            values[name] = _parse(name, text, parse, doc[name], values)
    if len(values["gammas"]) != len(values["gamma_symbols"]):
        raise SchemaError("gammas and gamma_symbols must have equal length")
    source, context = values["source"], values["context"]
    payload = next(name for name, sources, *_ in _FIELDS if sources == (source,))
    if source in FULL_SOURCES:
        algebra = _parse(payload, "", _algebra, values)
        jacobi = jacobi_check(algebra)
        if not jacobi.ok:
            raise SchemaError(f"{payload}: the Jacobi identity fails:\n{jacobi.render()}")
        homog_sym = _parse("reductive split fails", "", reductive_split, algebra,
                           values["h_indices"], values["m_indices"])
    else:
        algebra = None
        homog_sym = _parse(payload, "", homogeneous_from_partial, values["dimension"],
                           *values["homogeneous"], values["basis_names"], context)
    dim_m = _dim_m(values)
    generic_form = combination(dim_m, 3, context, zip(values["gamma_symbols"], values["gammas"]))
    record = CaseRecord(
        values["id"], values["description"], source, dim_m, context,
        [{**values["parameters"], **entry} for entry in values["enumerations"] or [{}]],
        algebra, homog_sym, values["gammas"], generic_form, [], doc,
    )
    gammas = len(values["gammas"])
    for pos, item in enumerate(doc["expected"]):
        name, value, where = item["check"], item["value"], f"expected[{pos}]: {item['check']}"
        if name not in _CHECKS:
            raise SchemaError(f"expected[{pos}]: unknown check {name!r}")
        check, parse_item, check_doc = _CHECKS[name]
        error = bind_error(check, item["args"])
        if error:
            raise SchemaError(f"{where}: {error}")
        args = {}
        for arg, x in item["args"].items():
            parse, arg_doc = _ARGS[arg]
            args[arg] = _parse(f"{where} arg {arg}={x!r}", arg_doc, parse, x, dim_m, gammas)
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
    return Path(__file__).parent / "cases"


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
    for item, (check, value, args) in zip(record.raw["expected"], record.checks, strict=True):
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
