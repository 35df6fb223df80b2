"""Expected-value checks for catalog cases, and their reports.

Each check takes a :class:`~g2forms.catalog.CaseRecord`, the expected value
and the case's arguments as keyword parameters, reads the pipeline objects
the record owns, and returns ``(status, computed)``.  The value and the
arguments come parsed: :data:`_CHECKS` lists the checks by name with the
item parser of their values, and :data:`_ARGS` the parser of each argument.
The loader runs these parsers once, so no check parses a string.
"""

from __future__ import annotations

from g2forms import _linalg
from g2forms.exterior import contract, form_to_vector, monomials, parse_form
from g2forms.gstruct import (
    b_entries,
    b_matrix,
    g2_torsion_report,
    hitchin_stability,
    obstruction_certificate,
    su3_check,
)
from g2forms.invariants import ce_differential, closed_forms, d_squared_check, invariant_forms
from g2forms.scalars import PolyScalar, parse_rational

__all__ = ["CaseReport", "CheckResult"]


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
    def __init__(self, case_id: str, description: str, results: list | None = None,
                 seconds: float = 0.0):
        self.case_id, self.description, self.seconds = case_id, description, seconds
        self.results = [] if results is None else results

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


def _rows(forms, monos) -> list:
    """Each rational form's integer layer over monos: den times the form, the same span."""
    layers = [next(iter(f.layers.values()), {}) for f in forms]
    return [[layer.get(idx, 0) for idx in monos] for layer in layers]


def _span_result(ok: bool, basis) -> tuple:
    """span-match or mismatch, and the computed basis."""
    return ("span-match" if ok else "mismatch"), "; ".join(map(str, basis)) or "(zero space)"


# -- individual checks --------------------------------------------------------


def _check_invariant_dim(record, value, degree):
    space = invariant_forms(record.homog_num(), degree)
    return _compare(space.dim, value)


# The next two read only the invariant space, so each eliminates once per isotropy
# action: enumeration entries of equal isotropy share the result through its memo.
def _check_invariant_span(record, value, degree):
    data, monos = record.homog_num(), monomials(record.dim_m, degree)
    space, expected = invariant_forms(data, degree), _rows(value, monos)
    key = ("invariant_span", degree, tuple(map(tuple, expected)))
    equal = data.cached(key, lambda: _linalg.spans_equal(_rows(space.basis, monos), expected),
                        isotropy=True)
    return _span_result(equal, space.basis)


def _check_invariant_dim_in_support(record, value, degree, groups, counts):
    data = record.homog_num()
    space = invariant_forms(data, degree)
    outside = tuple(idx for idx in monomials(record.dim_m, degree)
                    if not all(len(set(idx).intersection(g)) == c for g, c in zip(groups, counts)))
    # the combinations of the invariant basis with no component outside
    rank = data.cached(("support_rank", degree, outside),
                       lambda: _linalg.rank(_rows(space.basis, outside)), isotropy=True)
    return _compare(len(space.basis) - rank, value)


def _check_d_eval(record, value, vectors):
    computed = ce_differential(record.homog_sym, record.generic_form).eval_basis(tuple(vectors))
    return _status(computed == value), computed.render()


def _check_b_entry(record, value, i, j):
    computed = b_entries(record.generic_form, [(i, j)])[i, j]
    return _status(computed == value), computed.render()


def _check_closed_param_count(record, value, degree=3):
    family = closed_forms(record.homog_num(), degree)
    return _compare(family.dim, value)


def _check_closed_span(record, value):
    family, monos = closed_forms(record.homog_num(), 3), monomials(record.dim_m, 3)
    equal = _linalg.spans_equal(_rows(family.basis, monos), _rows(value, monos))
    return _span_result(equal, family.basis)


def _check_closed_subset_of(record, value):
    family, monos = closed_forms(record.homog_num(), 3), monomials(record.dim_m, 3)
    contained = _linalg.span_contains(_rows(value, monos), _rows(family.basis, monos))
    return _span_result(contained, family.basis)


def _check_closed_component_zero(record, value, indices):
    family, monos = closed_forms(record.homog_num(), 3), monomials(record.dim_m, 3)
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


def _check_torsion_flags(record, value, form):
    data = record.homog_num()
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


def _check_su3_flags(record, value, omega, psi):
    data = record.homog_num()
    if data.dim_m == 7:
        data = data.restrict([1, 2, 3, 4, 5, 6])
    report = su3_check(data, omega.with_symbols(data.symbols), psi.with_symbols(data.symbols))
    flags = report.flags()
    computed = ", ".join(f"{k}={v}" for k, v in flags.items())
    return _status(flags == value), computed


def _check_jacobi(record, value):
    # no failing report to render: load refuses a case whose Jacobi identity fails
    return _status(value == "valid"), "valid"


def _check_d_squared(record, value, degrees):
    data = record.homog_num()
    reports = [d_squared_check(data, degree) for degree in degrees]
    computed = "; ".join(r.render() for r in reports if not r.ok) or "pass"
    return _status(computed == value), computed


# the checks that read numeric data through record.homog_num(), for run_check
_PER_ENTRY = frozenset({
    _check_invariant_dim, _check_invariant_span, _check_invariant_dim_in_support,
    _check_closed_param_count, _check_closed_span, _check_closed_subset_of,
    _check_closed_component_zero, _check_torsion_flags, _check_su3_flags, _check_d_squared})


def run_check(record, check, value, args) -> tuple:
    """(status, computed) of one check.  A check in :data:`_PER_ENTRY` runs at
    every enumeration entry and matches only when every entry matches; unless
    all entries give the same result, computed is each entry's text after its tag."""
    if check not in _PER_ENTRY:
        return check(record, value, **args)
    entries = record.enumerations
    results = [check(record.at(a), value, **args) for a in entries]
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


# -- parsers, and the tables of checks and their arguments --------------------


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


def _is_count(value, *_) -> bool:
    return _is_int(value) and value >= 0


_string, _bool, _count = _typed(_is_str), _typed(_is_bool), _typed(_is_count)
_strings = _typed(_is_strings)
_flags = _typed(lambda x, *_: _is_map(x, _is_bool))
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
    if record.source == "partial-homogeneous":
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
    """Printed forms at the check's degree (3 for the closed family)."""
    degree = args.get("degree", 3)
    return [parse_form(t, record.dim_m, degree) for t in _strings(value)]


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
    "b_entry": (_check_b_entry, _polynomial_item, """\
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
    "not_definite": (_check_not_definite, _bool, """\
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
    "su3_flags": (_check_su3_flags, lambda x, a, r: _dims(r, 6, 7) and _flags(x), """\
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
    ``len(check.__defaults__)`` of them optional."""
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
