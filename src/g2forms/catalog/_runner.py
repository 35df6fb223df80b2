"""Expected-value checks for catalog cases, and their reports.

Each check takes a :class:`~g2forms.catalog.CaseRecord`, its arguments and
the expected value, reads the pipeline objects the record owns, and returns
``(status, computed)``.  :data:`_CHECKS` lists them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from g2forms import _linalg
from g2forms.exterior import basis_vector, contract, form_to_vector, monomials, parse_form
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


@dataclass
class CheckResult:
    check: str
    args: dict
    status: str  # match | span-match | mismatch | skipped
    computed: str
    expected: str
    cite: str

    @property
    def ok(self) -> bool:
        return self.status in ("match", "span-match", "skipped")

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "args": self.args,
            "status": self.status,
            "computed": self.computed,
            "expected": self.expected,
            "cite": self.cite,
        }


@dataclass
class CaseReport:
    case_id: str
    description: str
    results: list = field(default_factory=list)
    seconds: float = 0.0

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
            arg_text = ", ".join(f"{k}={v}" for k, v in r.args.items() if k not in ("form", "omega", "psi"))
            head = f"  [{r.status}] {r.check}({arg_text})"
            lines.append(f"{head}: {r.computed}")
            if r.status == "mismatch":
                lines.append(f"      expected: {r.expected}")
            lines.append(f"      [source: {r.cite}]")
        return "\n".join(lines)


def _coefficient_rows(record, forms, degree, texts):
    """Coefficient rows of the computed forms and of the printed ones."""
    monos = monomials(record.dim_m, degree)
    printed = [parse_form(t, record.dim_m, degree, ()) for t in texts]
    return (
        [form_to_vector(f, monos) for f in forms],
        [form_to_vector(f, monos) for f in printed],
    )


def _render_forms(forms) -> str:
    if not forms:
        return "(zero space)"
    return "; ".join(f.render() for f in forms)


# -- individual checks --------------------------------------------------------


def _check_invariant_dim(record, args, value):
    space = invariant_forms(record.homog_num(), args["degree"])
    return _compare(space.dim, value)


def _check_invariant_span(record, args, value):
    degree = args["degree"]
    space = invariant_forms(record.homog_num(), degree)
    computed, target = _coefficient_rows(record, space.basis, degree, value)
    equal = _linalg.spans_equal(computed, target)
    status = "span-match" if equal else "mismatch"
    return status, _render_forms(space.basis)


def _check_invariant_dim_in_support(record, args, value):
    degree = args["degree"]
    groups = [set(g) for g in args["groups"]]
    counts = list(args["counts"])
    space = invariant_forms(record.homog_num(), degree)
    outside = [
        idx
        for idx in monomials(record.dim_m, degree)
        if not all(len(set(idx) & g) == c for g, c in zip(groups, counts))
    ]
    rows = [form_to_vector(f, outside) for f in space.basis]
    if not space.basis:
        dim = 0
    else:
        # combinations of the invariant basis supported inside the monomial set
        dim = len(_linalg.nullspace(_linalg.transpose(rows), len(space.basis)))
    return _compare(dim, value)


def _check_d_eval(record, args, value):
    phi = record.generic_form
    d_phi = ce_differential(record.homog_sym, phi)
    computed = d_phi.eval_basis(tuple(args["vectors"]))
    expected = PolyScalar.parse(str(value), record.context)
    status = "match" if computed == expected else "mismatch"
    return status, computed.render()


def _check_b_entry(record, args, value):
    i, j = args["i"], args["j"]
    computed = b_entries(record.generic_form, [(i, j)])[i, j]
    expected = PolyScalar.parse(str(value), record.context)
    status = "match" if computed == expected else "mismatch"
    return status, computed.render()


def _check_closed_param_count(record, args, value):
    family = closed_forms(record.homog_num(), args.get("degree", 3))
    return _compare(family.dim, value)


def _check_closed_span(record, args, value):
    family = closed_forms(record.homog_num(), 3)
    computed, target = _coefficient_rows(record, family.basis, family.degree, value)
    equal = _linalg.spans_equal(computed, target)
    return ("span-match" if equal else "mismatch"), _render_forms(family.basis)


def _check_closed_subset_of(record, args, value):
    family = closed_forms(record.homog_num(), 3)
    computed, target = _coefficient_rows(record, family.basis, family.degree, value)
    contained = _linalg.span_contains(target, computed)
    return ("span-match" if contained else "mismatch"), _render_forms(family.basis)


def _check_closed_component_zero(record, args, value):
    family = closed_forms(record.homog_num(), 3)
    monos = monomials(record.dim_m, family.degree)
    gamma_cols = _linalg.transpose([form_to_vector(g, monos) for g in record.gamma_forms()])
    members = _linalg.transpose([form_to_vector(m, monos) for m in family.basis])
    solutions = _linalg.solve_many(gamma_cols, members) if members else []
    if None in solutions:
        return "mismatch", "closed form outside the span of the declared gammas"
    indices = list(args["indices"])
    all_zero = True
    details = []
    for coords in solutions:
        for pos in indices:
            if coords[pos - 1]:
                all_zero = False
                details.append(
                    f"component {pos} = {coords[pos - 1]}"
                )
    computed = (
        "all listed components vanish on the closed family"
        if all_zero
        else "; ".join(details)
    )
    status = "match" if all_zero == bool(value) else "mismatch"
    return status, computed


def _check_not_definite(record, args, value):
    outcomes = []
    excluded = True
    for assignment in record.enumerations:
        family = closed_forms(record.homog_num(assignment), 3)
        report = obstruction_certificate(family)
        excluded = excluded and report.excludes_definite
        tag = (
            "{" + ", ".join(f"{k}={v}" for k, v in sorted(assignment.items())) + "}"
            if assignment
            else "{}"
        )
        outcomes.append(f"{tag}: {report.verdict}" + (f" ({report.identity})" if report.identity else ""))
    status = "match" if excluded == bool(value) else "mismatch"
    return status, " | ".join(outcomes)


def _check_b_matrix_scalar(record, args, value):
    b = b_matrix(record.numeric_form(args["form"], 3))
    scalar = parse_rational(str(value))
    ok = all(b[i][j] == (scalar if i == j else 0) for i in range(7) for j in range(7))
    diag = ", ".join(str(b[i][i]) for i in range(7))
    return ("match" if ok else "mismatch"), f"diagonal ({diag})"


def _check_torsion_flags(record, args, value):
    phi = record.numeric_form(args["form"], 3)
    report = g2_torsion_report(record.homog_num(), phi)
    computed = {
        "definite": report.definite,
        "closed": report.closed,
        "coclosed": report.coclosed,
    }
    status = "match" if computed == dict(value) else "mismatch"
    return status, report.render()


def _check_contract_vector(record, args, value):
    phi = record.numeric_form(args["form"], None)
    data = record.homog_num()
    vec = basis_vector(phi.dim, args["vector"], data.symbols)
    computed = contract(vec, phi)
    expected = parse_form(str(value), phi.dim, phi.degree - 1, data.symbols)
    status = "match" if computed == expected else "mismatch"
    return status, computed.render()


def _check_hitchin(record, args, value):
    psi = parse_form(args["psi"], 6, 3, ())
    report = hitchin_stability(psi)
    ok = report.lam == parse_rational(str(value["lambda"]))
    ok = ok and report.k_squared_is_scalar == bool(value.get("k_squared_scalar", True))
    computed = f"{report.render()}; K^2 == lambda*Id: {report.k_squared_is_scalar}"
    return ("match" if ok else "mismatch"), computed


def _check_su3_flags(record, args, value):
    data = record.homog_num()
    if data.dim_m == 7:
        data = data.restrict([1, 2, 3, 4, 5, 6])
    omega = parse_form(args["omega"], 6, 2, data.symbols)
    psi = parse_form(args["psi"], 6, 3, data.symbols)
    report = su3_check(data, omega, psi)
    flags = report.flags()
    mismatches = {
        key: flags.get(key) for key in value if flags.get(key) != value[key]
    }
    computed = ", ".join(f"{k}={v}" for k, v in flags.items())
    return ("match" if not mismatches else "mismatch"), computed


def _check_jacobi(record, args, value):
    report = record.jacobi
    computed = "valid" if report.ok else report.render()
    return ("match" if computed == value else "mismatch"), computed


def _check_d_squared(record, args, value):
    data = record.homog_num()
    failures = []
    for degree in args["degrees"]:
        report = d_squared_check(data, degree)
        if not report.ok:
            failures.append(report.render())
    computed = "pass" if not failures else "; ".join(failures)
    return ("match" if computed == value else "mismatch"), computed


def _compare(computed, expected):
    status = "match" if computed == expected else "mismatch"
    return status, str(computed)


# name -> (check, schema lines): the Checks block of the case schema is
# built from this table, one entry per check, in this order
_CHECKS = {
    "invariant_dim": (_check_invariant_dim, "args {degree}; value: integer dimension"),
    "invariant_span": (
        _check_invariant_span,
        "args {degree}; value: list of forms; passes when",
        "the computed space equals their span (span-match)",
    ),
    "invariant_dim_in_support": (
        _check_invariant_dim_in_support,
        "args {degree, groups: [[i..], ...], counts: [..]};",
        "value: dimension of the invariant forms supported",
        "on monomials with counts[g] indices in groups[g]",
    ),
    "d_eval": (
        _check_d_eval,
        "args {vectors: [i..]}; value: polynomial; the",
        "coset differential of the generic form, evaluated",
        "on the named basis vectors, kept symbolic",
    ),
    "b_entry": (
        _check_b_entry,
        "args {i, j}; value: polynomial; entry of the",
        "bilinear form of the generic form",
    ),
    "closed_param_count": (
        _check_closed_param_count,
        "args {degree?}; value: number of free parameters",
        "of the closed family",
    ),
    "closed_span": (_check_closed_span, "value: list of forms; closed family spans them"),
    "closed_subset_of": (
        _check_closed_subset_of, "value: list of forms; closed family lies in span"
    ),
    "closed_component_zero": (
        _check_closed_component_zero,
        "args {indices}; value true; every closed form has",
        "zero component along the named gammas",
    ),
    "not_definite": (
        _check_not_definite,
        "value true; an obstruction certificate excludes",
        "definite members of the closed family, for every",
        "enumeration entry",
    ),
    "b_matrix_scalar": (_check_b_matrix_scalar, "args {form}; value: rational c with B = c * Id"),
    "torsion_flags": (_check_torsion_flags, "args {form}; value {definite, closed, coclosed}"),
    "contract_vector": (_check_contract_vector, "args {form, vector}; value: the contracted form"),
    "hitchin": (_check_hitchin, "args {psi}; value {lambda, k_squared_scalar}"),
    "su3_flags": (
        _check_su3_flags,
        "args {omega, psi}; value: flag dict as rendered",
        "by the SU(3) report",
    ),
    "jacobi": (_check_jacobi, 'value "valid" (full-algebra sources only)'),
    "d_squared": (
        _check_d_squared,
        'args {degrees}; value "pass"; d o d = 0 on the',
        "invariant basis (full-algebra sources only)",
    ),
}


def schema_checks() -> str:
    """The Checks block of the case schema: each name with its schema lines."""
    lines = []
    for name, (_, first, *rest) in _CHECKS.items():
        lines.append(f"{name:<24} {first}")
        lines.extend(" " * 25 + line for line in rest)
    return "\n".join(lines) + "\n"
