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

Each check takes a :class:`CaseRecord`, the expected value and the case's
arguments as keyword parameters, reads the pipeline objects the record owns,
and returns ``(status, computed)``.  :data:`_CHECKS` lists the checks by
name with the item parser of their values, and :data:`_ARGS` the parser of
each argument; the loader runs these parsers once too, so the value and the
arguments come parsed and no check parses a string.  A check that reads
numeric data takes each enumeration entry's as a keyword-only ``data``, no
case argument.  The span checks compare int RREF rows: the engine's bases
and the printed forms as :func:`_forms_item` reduces them.

Filter semantics: without a filter, :func:`verify_all` runs the canonical
cases only (``exploratory`` cases are excluded); an explicit filter glob is
matched against *all* bundled ids, exploratory included.
"""

from __future__ import annotations

import json
import time
from fnmatch import fnmatch
from pathlib import Path

from g2forms import _linalg
from g2forms.exterior import AltForm, combination, contract, form_to_vector, monomials, parse_form
from g2forms.gstruct import (
    b_entries,
    b_matrix,
    g2_torsion_report,
    hitchin_stability,
    obstruction_certificate,
    su3_check,
)
from g2forms.invariants import ce_differential, closed_forms, d_squared_check, invariant_forms
from g2forms.liealg import HomogeneousSpaceData, from_matrices, jacobi_check, reductive_split
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
    "su3_pair",
    "verify_all",
    "verify_case",
]


class SchemaError(ValueError):
    """A case document violates the schema."""


SOURCES = ("matrix-basis", "structure-constants", "partial-homogeneous")
FULL_SOURCES = SOURCES[:2]


# The reports here and in the engine are plain classes, not dataclasses:
# importing dataclasses imports inspect, which costs every CLI start.
class CheckResult:
    def __init__(self, check: str, args: dict, status: str, computed: str, expected: str,
                 cite: str):
        self.check, self.args = check, args
        self.status = status  # match | span-match | mismatch
        self.computed, self.expected, self.cite = computed, expected, cite

    @property
    def ok(self) -> bool:
        return self.status in ("match", "span-match")

    def to_dict(self) -> dict:
        """The result as JSON data, its args copied deep: they come from the case document."""
        return {"check": self.check, "args": _copied(self.args), "status": self.status,
                "computed": self.computed, "expected": self.expected, "cite": self.cite}


def _copied(x):
    """A deep copy of JSON-like data: fresh dicts, lists and tuples, shared scalars."""
    if isinstance(x, dict):
        return {k: _copied(v) for k, v in x.items()}
    return type(x)(map(_copied, x)) if isinstance(x, (list, tuple)) else x


class CaseReport:
    def __init__(self, case_id: str, description: str):
        self.case_id, self.description, self.seconds, self.results = case_id, description, 0.0, []

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "description": self.description,
            "ok": self.ok,
            "seconds": round(self.seconds, 6),
            "checks": [r.to_dict() for r in self.results],
        }

    def render(self) -> str:
        status = "all match" if self.ok else "MISMATCH"
        lines = [
            f"case {self.case_id}: {self.description}",
            f"  {len(self.results)} check(s), {status}, {self.seconds:.2f}s",
        ]
        for r in self.results:
            arg_text = ", ".join(f"{k}={v}" for k, v in r.args.items() if not isinstance(v, str))
            head = f"  [{r.status}] {r.check}({arg_text})"
            lines.append(f"{head}: {r.computed}")
            if r.status == "mismatch":
                lines.append(f"      expected: {r.expected}")
            lines.append(f"      [source: {r.cite}]")
        return "\n".join(lines)


# -- type tests ---------------------------------------------------------------

class WrongType(Exception):
    """A value whose JSON type or range the schema rules out."""


def _typed(test):
    """The parser that returns a value passing ``test`` as it is, and raises WrongType otherwise."""
    def parse(value, *context):
        if not test(value, *context):
            raise WrongType
        return value
    return parse


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value, *_) -> bool:
    return isinstance(value, str)


def _is_bool(value, *_) -> bool:
    return isinstance(value, bool)


def _is_list_of(value, test, length=None) -> bool:
    """A list whose items pass ``test``, of the given length if one is given."""
    return isinstance(value, list) and all(map(test, value)) and length in (None, len(value))


def _is_ints(value, low, high, length=None) -> bool:
    return _is_list_of(value, lambda x: _is_int(x) and low <= x <= high, length)


def _is_strings(value, length=None) -> bool:
    return _is_list_of(value, _is_str, length)


def _is_map(value, test) -> bool:
    """A JSON object whose values pass ``test``."""
    return isinstance(value, dict) and all(map(test, value.values()))


def _is_object(value, tests: dict) -> bool:
    """A JSON object with exactly the keys of ``tests``, each value passing its test."""
    return isinstance(value, dict) and set(value) == set(tests) and all(
        test(value[key]) for key, test in tests.items()
    )


_string, _bool, _strings = _typed(_is_str), _typed(_is_bool), _typed(_is_strings)
_count = _typed(lambda x, *_: _is_int(x) and x >= 0)
_flags = _typed(lambda x, *_: _is_map(x, _is_bool))


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
# validate_case_dict parses the fields in this order, the payload last (its parser
# reads the context), and SCHEMA_TEXT lists them by kind.  The expected items are
# parsed for their checks once the case is built.
_FIELDS = (
    ("id", SOURCES, _typed(lambda x, v: _is_str(x) and x != ""), "unique case identifier (string)"),
    ("description", SOURCES, _string, "human-readable summary (string)"),
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
    ("exploratory", (), _bool, """\
boolean (default false); exploratory cases are skipped by
verify_all unless an explicit filter matches them"""),
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
)


# -- individual checks --------------------------------------------------------

def _rows(forms, monos) -> list:
    """Each rational form's integer layer over monos: den times the form, the same span."""
    layers = [next(iter(f.layers.values()), {}) for f in forms]
    return [[layer.get(idx, 0) for idx in monos] for layer in layers]


def _span_result(ok: bool, basis) -> tuple:
    """span-match or mismatch, and the computed basis."""
    return ("span-match" if ok else "mismatch"), "; ".join(map(str, basis)) or "(zero space)"


def _check_invariant_dim(record, value, degree, *, data):
    return _compare(invariant_forms(data, degree).dim, value)


def _check_invariant_span(record, value, degree, *, data):
    space = invariant_forms(data, degree)
    return _span_result(_rows(space.basis, monomials(record.dim_m, degree)) == value, space.basis)


def _check_invariant_dim_in_support(record, value, degree, groups, counts, *, data):
    space = invariant_forms(data, degree)
    outside = tuple(idx for idx in monomials(record.dim_m, degree)
                    if not all(len(set(idx).intersection(g)) == c for g, c in zip(groups, counts)))
    # the combinations of the invariant basis with no component outside; entries
    # of equal isotropy share the rank through the memo
    rank = data.cached(("support_rank", degree, outside),
                       lambda: _linalg.rank(_rows(space.basis, outside)), isotropy=True)
    return _compare(len(space.basis) - rank, value)


def _check_d_eval(record, value, vectors):
    computed = ce_differential(record.homog_sym, record.generic_form).eval_basis(tuple(vectors))
    return _status(computed == value), computed.render()


def _check_b_entry(record, value, i, j):
    computed = b_entries(record.generic_form, [(i, j)])[i, j]
    return _status(computed == value), computed.render()


def _check_closed_param_count(record, value, degree=3, *, data):
    return _compare(closed_forms(data, degree).dim, value)


def _check_closed_span(record, value, *, data):
    family = closed_forms(data, 3)
    return _span_result(_rows(family.basis, monomials(record.dim_m, 3)) == value, family.basis)


def _check_closed_subset_of(record, value, *, data):
    family, monos = closed_forms(data, 3), monomials(record.dim_m, 3)
    # value is the RREF of the printed span: the family lies in it when it adds no rank
    contained = _linalg.rank(value + _rows(family.basis, monos)) == len(value)
    return _span_result(contained, family.basis)


def _check_closed_component_zero(record, value, indices, *, data):
    family, monos = closed_forms(data, 3), monomials(record.dim_m, 3)
    # exact Fraction rows, not integer layers: the printed components depend on their scale
    gamma_cols = _linalg.transpose([form_to_vector(f, monos) for f in record.gamma_forms])
    members = _linalg.transpose([form_to_vector(f, monos) for f in family.basis])
    solutions = _linalg.solve_many(gamma_cols, members) if members else []
    if None in solutions:
        return "mismatch", "closed form outside the span of the declared gammas"
    details = [f"component {p} = {c[p - 1]}" for c in solutions for p in indices if c[p - 1]]
    computed = "; ".join(details) or "all listed components vanish on the closed family"
    return _status((not details) == value), computed


def _check_not_definite(record, value):
    outcomes = []
    excluded = True
    for assignment in record.enumerations:
        family = closed_forms(record.homog_num(assignment), 3)
        report = obstruction_certificate(family)
        excluded = excluded and report.excludes_definite
        identity = f" ({report.identity})" if report.identity else ""
        outcomes.append(f"{_entry_tag(assignment)}: {report.verdict}{identity}")
    return _status(excluded == value), " | ".join(outcomes)


def _check_b_matrix_scalar(record, value, form):
    b = b_matrix(form)
    ok = all(b[i][j] == (value if i == j else 0) for i in range(7) for j in range(7))
    diag = ", ".join(str(b[i][i]) for i in range(7))
    return _status(ok), f"diagonal ({diag})"


def _check_torsion_flags(record, value, form, *, data):
    report = g2_torsion_report(data, form.with_symbols(data.symbols))
    computed = {"definite": report.definite, "closed": report.closed, "coclosed": report.coclosed}
    return _status(computed == value), report.render()


def _check_contract_vector(record, value, form, vector):
    computed = contract(vector, form)
    return _status(computed == value), computed.render()


def _check_hitchin(record, value, psi):
    report = hitchin_stability(psi)
    ok = report.lam == value["lambda"] and report.k_squared_is_scalar == value["k_squared_scalar"]
    computed = f"{report.render()}; K^2 == lambda*Id: {report.k_squared_is_scalar}"
    return _status(ok), computed


def su3_pair(data: HomogeneousSpaceData, omega: AltForm, psi: AltForm) -> tuple:
    """The arguments of :func:`g2forms.gstruct.su3_check` for the pair (omega, psi) on
    ``data``: on a 7-dimensional m the pair lives on e1..e6, the flat factor being e^7 as
    in :func:`g2forms.gstruct.product_g2`, and the forms move into the data's context."""
    if data.dim_m not in (6, 7):
        raise ValueError(f"an SU(3) pair needs dim m = 6 or 7, not {data.dim_m}")
    data = data.restrict(range(1, 7)) if data.dim_m == 7 else data
    return data, omega.with_symbols(data.symbols), psi.with_symbols(data.symbols)


def _check_su3_flags(record, value, omega, psi, *, data):
    report = su3_check(*su3_pair(data, omega, psi))
    flags = report.flags()
    computed = ", ".join(f"{k}={v}" for k, v in flags.items())
    return _status(flags == value), computed


def _check_jacobi(record, value):
    # no failing report to render: load refuses a case whose Jacobi identity fails
    return _status(value == "valid"), "valid"


def _check_d_squared(record, value, degrees, *, data):
    reports = [d_squared_check(data, degree) for degree in degrees]
    computed = "; ".join(r.render() for r in reports if not r.ok) or "pass"
    return _status(computed == value), computed


def run_check(record, check, value, args) -> tuple:
    """(status, computed) of one check.  A check with a keyword-only ``data``
    parameter runs at every enumeration entry, on ``record.homog_num(entry)``,
    and matches only when every entry matches; unless all entries give the
    same result, computed is each entry's text after its tag."""
    code = check.__code__
    if "data" not in code.co_varnames[code.co_argcount:code.co_argcount + code.co_kwonlyargcount]:
        return check(record, value, **args)
    entries = record.enumerations
    results = [check(record, value, **args, data=record.homog_num(a)) for a in entries]
    if results.count(results[0]) == len(results):
        return results[0]
    status = "mismatch" if any(s == "mismatch" for s, _ in results) else results[0][0]
    return status, " | ".join(f"{_entry_tag(a)}: {text}" for a, (_, text) in zip(entries, results))


def _entry_tag(assignment) -> str:
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(assignment.items())) + "}"


def _status(ok: bool) -> str:
    return "match" if ok else "mismatch"


def _compare(computed, expected):
    return _status(computed == expected), str(computed)


# -- the tables of checks and their arguments ---------------------------------

_INDEX = (_typed(lambda x, m, g: _is_ints([x], 1, m)), "basis index 1..dim m")

# argument name -> (parser(value, dim m, number of gammas), schema lines); the
# parser returns the argument as the check takes it (forms parsed with no
# context) and raises WrongType or ValueError.  A check takes its arguments
# as keyword parameters, and a parameter with a default is an optional argument
_ARGS = {
    "degree": (_typed(lambda x, m, g: _is_ints([x], 0, m)), "integer 0..dim m"),
    "degrees": (
        _typed(lambda x, m, g: _is_ints(x, 0, m) and x != []),
        "non-empty list of integers 0..dim m",
    ),
    "i": _INDEX,
    "j": _INDEX,
    "vector": _INDEX,
    "vectors": (
        _typed(lambda x, m, g: _is_ints(x, 1, m, 4)), "list of four basis indices 1..dim m"
    ),
    "groups": (
        _typed(lambda x, m, g: _is_list_of(x, lambda y: _is_ints(y, 1, m))),
        "list of lists of basis indices 1..dim m",
    ),
    "counts": (_typed(lambda x, m, g: _is_ints(x, 0, m)), """\
list of integers 0..dim m, one per group; the
selected monomials have counts[g] indices in groups[g]"""),
    "indices": (
        _typed(lambda x, m, g: _is_ints(x, 1, g) and x != []),
        "non-empty list of gamma positions 1..len(gammas)",
    ),
    "form": (lambda x, m, g: parse_form(_string(x), m), 'form string on m other than "0"'),
    "omega": (lambda x, m, g: parse_form(_string(x), 6, 2), "2-form string on e1..e6"),
    "psi": (lambda x, m, g: parse_form(_string(x), 6, 3), "3-form string on e1..e6"),
}


# An item parser(value, args, record) runs once the args are parsed, and gets
# them parsed.  It returns the value as the check takes it, and raises
# WrongType on a value of the wrong type and ValueError on a string it cannot
# parse or on a case that the check cannot run on.
def _full_source_item(value, args, record) -> str:
    if record.source not in FULL_SOURCES:
        raise ValueError("needs a full-algebra source")
    return _string(value)


def _gammas(record) -> bool:
    """True when the case declares gammas (the generic form sums them); ValueError otherwise."""
    if not record.gamma_forms:
        raise ValueError(f"case {record.case_id} declares no gammas")
    return True


def _polynomial_item(value, args, record):
    """A polynomial about the generic form."""
    return _gammas(record) and PolyScalar.parse(_string(value), record.context)


def _support_item(value, args, record) -> int:
    if len(args["groups"]) != len(args["counts"]):
        raise ValueError("needs one count per group")
    return _count(value)


def _forms_item(value, args, record) -> list:
    """Printed forms at the check's degree (3 for the closed family), as the int
    RREF rows of their span (``_linalg._reduced`` without its dens), which the
    span checks compare with the engine's bases."""
    degree = args.get("degree", 3)
    forms = [parse_form(t, record.dim_m, degree) for t in _strings(value)]
    return [row for row, _ in _linalg._reduced(_rows(forms, monomials(record.dim_m, degree)))]


def _dims(record, *dims) -> bool:
    """True when dim m is one of ``dims``; ValueError otherwise."""
    if record.dim_m not in dims:
        raise ValueError(f"needs dim m = {' or '.join(map(str, dims))}, not {record.dim_m}")
    return True


def _three_form_item(parse):
    """A value parser, on a 7-dimensional m with a 3-form as the ``form`` arg."""
    def item(value, args, record):
        if _dims(record, 7) and args["form"].degree != 3:
            raise ValueError("needs a 3-form as its form arg")
        return parse(value)
    return item


def _su3_item(value, args, record) -> dict:
    """Flags, on a case with data for the SU(3) pair at every enumeration entry."""
    for entry in record.enumerations:
        su3_pair(record.homog_num(entry), args["omega"], args["psi"])
    return _flags(value)


def _hitchin_item(value, args, record) -> dict:
    if not _is_object(value, {"lambda": _is_str, "k_squared_scalar": _is_bool}):
        raise WrongType
    return {**value, "lambda": parse_rational(value["lambda"])}


# name -> (check, item parser, schema lines): the Checks block of the case
# schema is built from this table, one entry per check, in this order
_CHECKS = {
    "invariant_dim": (_check_invariant_dim, _count, "value: integer dimension"),
    "invariant_span": (_check_invariant_span, _forms_item, """\
value: list of forms; passes when
the computed space equals their span (span-match)"""),
    "invariant_dim_in_support": (_check_invariant_dim_in_support, _support_item, """\
value: dimension of the
invariant forms supported on the selected monomials"""),
    "d_eval": (_check_d_eval, _polynomial_item, """\
value: polynomial; the
coset differential of the generic form, evaluated
on the named basis vectors, kept symbolic"""),
    "b_entry": (_check_b_entry, lambda x, a, r: _dims(r, 7) and _polynomial_item(x, a, r), """\
value: polynomial; entry of the
bilinear form of the generic form"""),
    "closed_param_count": (_check_closed_param_count, _count, """\
value: number of free parameters
of the closed family"""),
    "closed_span": (
        _check_closed_span, _forms_item, "value: list of forms; closed family spans them"
    ),
    "closed_subset_of": (
        _check_closed_subset_of, _forms_item, "value: list of forms; closed family lies in span"
    ),
    "closed_component_zero": (
        _check_closed_component_zero,
        lambda x, args, record: _gammas(record) and _bool(x),
        """\
value true; every closed form has
zero component along the named gammas""",
    ),
    "not_definite": (_check_not_definite, lambda x, a, r: _dims(r, 7) and _bool(x), """\
value true; an obstruction certificate excludes
definite members of the closed family, for every
enumeration entry"""),
    "b_matrix_scalar": (
        _check_b_matrix_scalar,
        _three_form_item(lambda x: parse_rational(_string(x))),
        "value: rational c with B = c * Id",
    ),
    "torsion_flags": (
        _check_torsion_flags,
        _three_form_item(_typed(
            lambda x: _is_object(x, dict.fromkeys(("definite", "closed", "coclosed"), _is_bool))
        )),
        "value {definite, closed, coclosed}",
    ),
    "contract_vector": (
        _check_contract_vector,
        lambda x, args, record: parse_form(_string(x), record.dim_m, args["form"].degree - 1),
        "value: the contracted form",
    ),
    "hitchin": (_check_hitchin, _hitchin_item, "value {lambda, k_squared_scalar}"),
    "su3_flags": (_check_su3_flags, _su3_item, """\
value: flag dict as rendered
by the SU(3) report"""),
    "jacobi": (_check_jacobi, _full_source_item, 'value "valid" (full-algebra sources only)'),
    "d_squared": (_check_d_squared, _full_source_item, """\
value "pass"; d o d = 0 on the
invariant basis (full-algebra sources only)"""),
}


def schema_entry(name: str, doc: str, width: int) -> str:
    """``name``, then ``doc`` from column ``width`` (below it when ``name`` is wider)."""
    head = f"{name:<{width}}" if len(name) < width else name + "\n" + " " * width
    return head + doc.replace("\n", "\n" + " " * width)


def check_params(check) -> tuple:
    """The keyword parameters of a check and the required ones among them, read
    from its code: the parameters after (record, value), the last
    ``len(check.__defaults__)`` of them optional; a keyword-only one is none."""
    code = check.__code__
    params = code.co_varnames[2:code.co_argcount]
    return params, params[:len(params) - len(check.__defaults__ or ())]


def bind_error(check, given) -> str | None:
    """Why ``check(record, value, **given)`` would not bind, in the order and
    words of ``inspect``'s bind, or None when it binds."""
    params, required = check_params(check)
    errors = [f"multiple values for argument {a!r}" for a in check.__code__.co_varnames[:2]
              if a in given]
    errors += [f"missing a required argument: {a!r}" for a in required if a not in given]
    errors += [f"got an unexpected keyword argument {a!r}" for a in given if a not in params]
    return errors[0] if errors else None


def schema_checks() -> str:
    """The Checks block of the case schema: each check with its args (its
    keyword parameters) and schema lines, then each argument with its type."""
    lines = []
    for name, (check, _, doc) in _CHECKS.items():
        params, required = check_params(check)
        if params:
            names = [p + ("?" if p not in required else "") for p in params]
            doc = f"args {{{', '.join(names)}}}; {doc}"
        lines.append(schema_entry(name, doc, 25))
    lines += ["", "Check arguments", "---------------"]
    lines += [schema_entry(name, doc, 25) for name, (_, doc) in _ARGS.items()]
    lines += [
        "An argument marked ? is optional.  dim m is the number of m_indices",
        "for full sources and the dimension for partial data.",
    ]
    return "\n".join(lines) + "\n"


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
    parameters merged into each enumeration entry, as Fractions.  ``checks``
    holds each expected item as ``(check, value, args)``, parsed into what the
    check takes, and ``raw`` the document, which the report quotes.  Everything derived from the
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
    """The full Lie algebra of the case, from its structure constants or its matrices."""
    names, context = values["basis_names"], values["context"]
    if values["source"] == "structure-constants":
        constants = values["structure_constants"]
        return HomogeneousSpaceData(values["dimension"], [], constants, names, context)
    return from_matrices(values["matrices"], names, context)


def _parse(where: str, text: str, parse, *values, **options):
    """``parse(*values, **options)``; its WrongType and ValueError become a SchemaError."""
    try:
        return parse(*values, **options)
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
    for name, sources, parse, text in _FIELDS:
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
        homog_sym = _parse(payload, "", HomogeneousSpaceData, values["dimension"],
                           *values["homogeneous"], values["basis_names"], context, partial=True)
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
        status, computed = run_check(record, check, value, args)
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
