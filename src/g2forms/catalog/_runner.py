"""Pipeline construction and expected-value checking for catalog cases."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fnmatch import fnmatch
from fractions import Fraction
from functools import cached_property

from g2forms import _linalg
from g2forms.exterior import AltForm, basis_vector, contract, form_to_vector, monomials, parse_form
from g2forms.gstruct import (
    b_entries,
    b_matrix,
    g2_torsion_report,
    hitchin_stability,
    obstruction_certificate,
    su3_check,
)
from g2forms.invariants import ce_differential, closed_forms, d_squared_check, invariant_forms
from g2forms.liealg import (
    HomogeneousSpaceData,
    JacobiReport,
    LieAlgebra,
    MatrixBasis,
    from_matrices,
    homogeneous_from_partial,
    jacobi_check,
    reductive_split,
)
from g2forms.scalars import PolyScalar, format_rational, parse_rational

__all__ = ["CaseReport", "CheckResult", "build_algebra", "build_homogeneous", "verify_all", "verify_case"]


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


def build_algebra(record) -> LieAlgebra:
    """The full Lie algebra of a matrix-basis or structure-constants case."""
    context = record.context
    if record.source == "matrix-basis":
        mats = record.raw["matrices"]
        has_complex = any(
            isinstance(entry, list) for m in mats for row in m for entry in row
        )
        if has_complex:
            basis = MatrixBasis.from_complex(
                [[[_entry_to_complex(x) for x in row] for row in m] for m in mats]
            )
        else:
            basis = MatrixBasis([[[parse_rational(x) for x in row] for row in m] for m in mats])
        algebra = from_matrices(basis, record.basis_names)
        return algebra.with_symbols(context)
    if record.source == "structure-constants":
        constants = {}
        for i, j, k, coeff in record.raw["structure_constants"]:
            comps = constants.setdefault(
                (i, j), [PolyScalar.zero(context) for _ in range(record.dimension)]
            )
            comps[k - 1] = comps[k - 1] + PolyScalar.parse(coeff, context)
        return LieAlgebra(
            record.dimension,
            {k: tuple(v) for k, v in constants.items()},
            record.basis_names,
            context,
        )
    raise ValueError(f"case {record.case_id} has no full algebra payload")


def _entry_to_complex(entry):
    if isinstance(entry, list):
        return (parse_rational(entry[0]), parse_rational(entry[1]))
    return (parse_rational(entry), Fraction(0))


def build_homogeneous(record) -> HomogeneousSpaceData:
    """Symbolic homogeneous data of a case (no parameters substituted)."""
    return _Engine(record).homog_sym


class _Engine:
    """The pipeline objects of one case, each built once.

    The algebra, its Jacobi report and the symbolic data are built on first
    use, unless :func:`~g2forms.catalog.load_case` already built them while
    validating the record; everything derived from the data
    (instantiations, invariant spaces, closed families) is memoized on the
    data itself.
    """

    def __init__(self, record):
        self.record = record
        self.context = record.context
        # seeds the cached properties below with what load_case built
        vars(self).update(record.built)

    @cached_property
    def algebra(self) -> LieAlgebra:
        return build_algebra(self.record)

    @cached_property
    def jacobi(self) -> JacobiReport:
        return jacobi_check(self.algebra)

    @cached_property
    def homog_sym(self) -> HomogeneousSpaceData:
        record = self.record
        if record.source != "partial-homogeneous":
            return reductive_split(self.algebra, record.raw["h_indices"], record.raw["m_indices"])
        hom = record.raw["homogeneous"]
        isotropy = [
            [[PolyScalar.parse(x, self.context) for x in row] for row in m]
            for m in hom["isotropy_action"]
        ]
        bracket = {
            (i, j): tuple(PolyScalar.parse(c, self.context) for c in comps)
            for i, j, comps in hom["projected_bracket"]
        }
        return homogeneous_from_partial(
            record.dimension, isotropy, bracket, record.basis_names, self.context
        )

    def homog_num(self, assignment=None) -> HomogeneousSpaceData:
        """The data instantiated at ``assignment`` (default: the first enumeration)."""
        if assignment is None:
            assignment = self.record.enumerations[0]
        return self.homog_sym.instantiate(assignment)

    @property
    def dim_m(self) -> int:
        return self.homog_sym.dim_m

    @cached_property
    def generic_form(self) -> AltForm:
        record = self.record
        if not record.gammas:
            raise ValueError(f"case {record.case_id} declares no gammas")
        phi = AltForm(self.dim_m, 3, self.context)
        for symbol, text in zip(record.gamma_symbols, record.gammas):
            gamma = parse_form(text, self.dim_m, 3, self.context)
            phi = phi + gamma.scale(PolyScalar.symbol(symbol, self.context))
        return phi

    def gamma_forms(self):
        return [parse_form(text, self.dim_m, 3, ()) for text in self.record.gammas]

    def numeric_form(self, text: str, degree=None) -> AltForm:
        return parse_form(text, self.dim_m, degree, self.homog_num().symbols)


def _coefficient_rows(engine, forms, degree, texts):
    """Coefficient rows of the computed forms and of the printed ones."""
    monos = monomials(engine.dim_m, degree)
    printed = [parse_form(t, engine.dim_m, degree, ()) for t in texts]
    return (
        [form_to_vector(f, monos) for f in forms],
        [form_to_vector(f, monos) for f in printed],
    )


def _render_forms(forms) -> str:
    if not forms:
        return "(zero space)"
    return "; ".join(f.render() for f in forms)


# -- individual checks --------------------------------------------------------


def _check_invariant_dim(engine, args, value):
    space = invariant_forms(engine.homog_num(), args["degree"])
    return _compare(space.dim, value)


def _check_invariant_span(engine, args, value):
    degree = args["degree"]
    space = invariant_forms(engine.homog_num(), degree)
    computed, target = _coefficient_rows(engine, space.basis, degree, value)
    equal = _linalg.spans_equal(computed, target)
    status = "span-match" if equal else "mismatch"
    return status, _render_forms(space.basis)


def _check_invariant_dim_in_support(engine, args, value):
    degree = args["degree"]
    groups = [set(g) for g in args["groups"]]
    counts = list(args["counts"])
    space = invariant_forms(engine.homog_num(), degree)
    outside = [
        idx
        for idx in monomials(engine.dim_m, degree)
        if not all(len(set(idx) & g) == c for g, c in zip(groups, counts))
    ]
    rows = [form_to_vector(f, outside) for f in space.basis]
    if not space.basis:
        dim = 0
    else:
        # combinations of the invariant basis supported inside the monomial set
        dim = len(_linalg.nullspace(_linalg.transpose(rows), len(space.basis)))
    return _compare(dim, value)


def _check_d_eval(engine, args, value):
    phi = engine.generic_form
    d_phi = ce_differential(engine.homog_sym, phi)
    computed = d_phi.eval_basis(tuple(args["vectors"]))
    expected = PolyScalar.parse(str(value), engine.context)
    status = "match" if computed == expected else "mismatch"
    return status, computed.render()


def _check_b_entry(engine, args, value):
    i, j = args["i"], args["j"]
    computed = b_entries(engine.generic_form, [(i, j)])[i, j]
    expected = PolyScalar.parse(str(value), engine.context)
    status = "match" if computed == expected else "mismatch"
    return status, computed.render()


def _check_closed_param_count(engine, args, value):
    family = closed_forms(engine.homog_num(), args.get("degree", 3))
    return _compare(family.dim, value)


def _check_closed_span(engine, args, value):
    family = closed_forms(engine.homog_num(), 3)
    computed, target = _coefficient_rows(engine, family.basis, family.degree, value)
    equal = _linalg.spans_equal(computed, target)
    return ("span-match" if equal else "mismatch"), _render_forms(family.basis)


def _check_closed_subset_of(engine, args, value):
    family = closed_forms(engine.homog_num(), 3)
    computed, target = _coefficient_rows(engine, family.basis, family.degree, value)
    contained = _linalg.span_contains(target, computed)
    return ("span-match" if contained else "mismatch"), _render_forms(family.basis)


def _check_closed_component_zero(engine, args, value):
    family = closed_forms(engine.homog_num(), 3)
    monos = monomials(engine.dim_m, family.degree)
    gamma_cols = _linalg.transpose([form_to_vector(g, monos) for g in engine.gamma_forms()])
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
                    f"component {pos} = {format_rational(coords[pos - 1])}"
                )
    computed = (
        "all listed components vanish on the closed family"
        if all_zero
        else "; ".join(details)
    )
    status = "match" if all_zero == bool(value) else "mismatch"
    return status, computed


def _check_not_definite(engine, args, value):
    outcomes = []
    excluded = True
    for assignment in engine.record.enumerations:
        family = closed_forms(engine.homog_num(assignment), 3)
        report = obstruction_certificate(family)
        excluded = excluded and report.excludes_definite
        tag = (
            "{" + ", ".join(f"{k}={format_rational(v)}" for k, v in sorted(assignment.items())) + "}"
            if assignment
            else "{}"
        )
        outcomes.append(f"{tag}: {report.verdict}" + (f" ({report.identity})" if report.identity else ""))
    status = "match" if excluded == bool(value) else "mismatch"
    return status, " | ".join(outcomes)


def _check_b_matrix_scalar(engine, args, value):
    phi = engine.numeric_form(args["form"], 3)
    gram = b_matrix(phi)
    scalar = parse_rational(str(value))
    ok = True
    for i in range(1, 8):
        for j in range(1, 8):
            expected = scalar if i == j else Fraction(0)
            entry = gram.entry(i, j)
            if not entry.is_constant() or entry.constant_value() != expected:
                ok = False
    diag = ", ".join(gram.entry(i, i).render() for i in range(1, 8))
    return ("match" if ok else "mismatch"), f"diagonal ({diag})"


def _check_torsion_flags(engine, args, value):
    phi = engine.numeric_form(args["form"], 3)
    report = g2_torsion_report(engine.homog_num(), phi)
    computed = {
        "definite": report.definite,
        "closed": report.closed,
        "coclosed": report.coclosed,
    }
    status = "match" if computed == dict(value) else "mismatch"
    return status, report.render()


def _check_contract_vector(engine, args, value):
    phi = engine.numeric_form(args["form"], None)
    data = engine.homog_num()
    vec = basis_vector(phi.dim, args["vector"], data.symbols)
    computed = contract(vec, phi)
    expected = parse_form(str(value), phi.dim, phi.degree - 1, data.symbols)
    status = "match" if computed == expected else "mismatch"
    return status, computed.render()


def _check_hitchin(engine, args, value):
    psi = parse_form(args["psi"], 6, 3, ())
    report = hitchin_stability(psi)
    ok = report.lam == parse_rational(str(value["lambda"]))
    ok = ok and report.k_squared_is_scalar == bool(value.get("k_squared_scalar", True))
    computed = f"{report.render()}; K^2 == lambda*Id: {report.k_squared_is_scalar}"
    return ("match" if ok else "mismatch"), computed


def _check_su3_flags(engine, args, value):
    data = engine.homog_num()
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


def _check_jacobi(engine, args, value):
    report = engine.jacobi
    computed = "valid" if report.ok else report.render()
    return ("match" if computed == value else "mismatch"), computed


def _check_d_squared(engine, args, value):
    data = engine.homog_num()
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


_CHECKS = {
    "invariant_dim": _check_invariant_dim,
    "invariant_span": _check_invariant_span,
    "invariant_dim_in_support": _check_invariant_dim_in_support,
    "d_eval": _check_d_eval,
    "b_entry": _check_b_entry,
    "closed_param_count": _check_closed_param_count,
    "closed_span": _check_closed_span,
    "closed_subset_of": _check_closed_subset_of,
    "closed_component_zero": _check_closed_component_zero,
    "not_definite": _check_not_definite,
    "b_matrix_scalar": _check_b_matrix_scalar,
    "torsion_flags": _check_torsion_flags,
    "contract_vector": _check_contract_vector,
    "hitchin": _check_hitchin,
    "su3_flags": _check_su3_flags,
    "jacobi": _check_jacobi,
    "d_squared": _check_d_squared,
}


def verify_case(case) -> CaseReport:
    """Run every expected check of a case and compare exactly.

    ``case`` is a bundled id or a :class:`~g2forms.catalog.CaseRecord`.
    """
    from g2forms import catalog as _catalog

    record = _catalog.load_bundled(case) if isinstance(case, str) else case
    engine = _Engine(record)
    report = CaseReport(record.case_id, record.description)
    start = time.perf_counter()
    for item in record.expected:
        check = item["check"]
        args = dict(item.get("args", {}))
        status, computed = _CHECKS[check](engine, args, item["value"])
        report.results.append(
            CheckResult(check, args, status, computed, _render_expected(item["value"]), item["cite"])
        )
    report.seconds = time.perf_counter() - start
    return report


def _render_expected(value) -> str:
    if isinstance(value, list):
        return "; ".join(str(v) for v in value)
    return str(value)


def verify_all(pattern: str | None = None) -> list:
    """Verify bundled cases, reports in id order.

    Without a pattern the canonical cases run (exploratory ones excluded);
    with a pattern, every bundled id matching the glob runs, exploratory
    included.
    """
    from g2forms import catalog as _catalog

    reports = []
    for case_id in _catalog.bundled_ids():
        record = _catalog.load_bundled(case_id)
        if pattern is None:
            if record.exploratory:
                continue
        elif not fnmatch(case_id, pattern):
            continue
        reports.append(verify_case(record))
    return reports
