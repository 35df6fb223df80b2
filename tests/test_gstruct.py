import random
from fractions import Fraction

import pytest

import models
from conftest import (
    evaluate_by_permutations,
    hitchin_by_wedges,
    hodge_dual_by_minors,
    poly_mul,
    quadratic_form,
    random_form,
    random_rational,
    random_unimodular,
    su3_gram_by_evaluation,
    two_symbol_form,
    unit_vector,
    vector_to_form,
    wedge_b_matrix,
)
from g2forms import _linalg, gstruct
from g2forms.exterior import (
    AltForm,
    ExteriorOp,
    combination,
    contract,
    parse_form,
    pullback,
    top_coefficient,
    wedge,
)
from g2forms.gstruct import (
    b_entries,
    b_matrix,
    definiteness,
    g2_torsion_report,
    hitchin_stability,
    hodge_dual_up_to_scale,
    obstruction_certificate,
    product_g2,
    su3_check,
)
from g2forms.invariants import ClosedFamily, closed_forms
from g2forms.liealg import HomogeneousSpaceData, from_matrices, reductive_split
from g2forms.scalars import PolyScalar

PHI0 = (
    "e^{1 2 7} + e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5} "
    "+ e^{3 4 7} + e^{5 6 7}"
)
OMEGA0 = "e^{1 2} + e^{3 4} + e^{5 6}"
PSI0 = "e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5}"


def phi0():
    return parse_form(PHI0, 7)


def identity_metric(n=7):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


ALL_PAIRS = [(i, j) for i in range(1, 8) for j in range(1, 8)]


def abelian(dim=7):
    return HomogeneousSpaceData(dim, [], {}, partial=False)


def test_b_matrix_of_standard_form_is_six_identity():
    gram = b_matrix(phi0())
    for i in range(1, 8):
        for j in range(1, 8):
            expected = Fraction(6) if i == j else Fraction(0)
            assert gram[i - 1][j - 1] == expected


def test_b_matrix_against_permutation_evaluation_oracle():
    phi = phi0()
    basis = [unit_vector(7, i) for i in range(1, 8)]
    for i, j in [(1, 1), (7, 7), (1, 2), (3, 5)]:
        seven_form = wedge(wedge(contract(i, phi), contract(j, phi)), phi)
        oracle = evaluate_by_permutations(seven_form, basis)
        assert top_coefficient(seven_form) == oracle


def test_b_matrix_is_exactly_symmetric_on_random_forms():
    rng = random.Random(1231)
    for _ in range(10):
        gram = b_matrix(random_form(rng, 7, 3))
        for i in range(7):
            for j in range(7):
                assert gram[i][j] == gram[j][i]


def test_b_matrix_symbolic_entry_case_n3():
    syms = tuple(f"a{i}" for i in range(1, 6))
    phi = AltForm(7, 3, syms)
    gammas = [
        "e^{1 2 3}",
        "e^{1 2 6} - e^{1 3 5} + e^{2 3 4}",
        "e^{1 5 6} - e^{2 4 6} + e^{3 4 5}",
        "e^{1 4 7} + e^{2 5 7} + e^{3 6 7}",
        "e^{4 5 6}",
    ]
    for name, text in zip(syms, gammas):
        phi = phi + parse_form(text, 7, 3, syms).scale(PolyScalar.parse(name, syms))
    entries = b_entries(phi, ALL_PAIRS)
    assert entries[7, 7].render() == "-6*a4^3"
    oracle = wedge_b_matrix(phi)
    assert entries == {(i, j): oracle[i - 1][j - 1] for i, j in ALL_PAIRS}


def test_b_matrix_of_zero_form_is_zero():
    gram = b_matrix(AltForm(7, 3, ()))
    assert all(x == 0 for row in gram for x in row)


def test_b_matrix_rejects_symbolic_form():
    phi = parse_form("e^{1 2 3}", 7, 3, ("t",)).scale(PolyScalar.parse("t", ("t",)))
    with pytest.raises(ValueError, match="b_entries"):
        b_matrix(phi)
    assert b_entries(phi, [(4, 4)])[4, 4].is_zero()


@pytest.mark.parametrize("kind", ["dense", "sparse", "two-symbol", "quadratic", "ten-symbol",
                                  "zero"])
def test_b_matrix_matches_wedge_oracle(kind):
    # b_matrix mirrors its upper triangle, so symmetry alone proves nothing:
    # all 49 entries are compared with the wedge products; the quadratic
    # coefficients make several triples of exponent layers meet in one sum,
    # and ten symbols give ten sparse layers, as a closed family has
    rng = random.Random(f"b-oracle:{kind}")
    for _ in range(5 if kind in ("dense", "sparse") else 2):
        if kind == "two-symbol":
            phi = two_symbol_form(rng, 7, 3, 0.4)
        elif kind == "quadratic":
            phi = quadratic_form(rng, 7, 3, 0.4)
        elif kind == "ten-symbol":
            names = tuple(f"a{k}" for k in range(1, 11))
            phi = combination(7, 3, names, [(a, random_form(rng, 7, 3, density=0.1)) for a in names])
        elif kind == "zero":
            phi = AltForm(7, 3)
        else:
            phi = random_form(rng, 7, 3, density=1.0 if kind == "dense" else 0.2)
        oracle = wedge_b_matrix(phi)
        if phi.symbols:
            assert b_entries(phi, ALL_PAIRS) == {(i, j): oracle[i - 1][j - 1] for i, j in ALL_PAIRS}
        else:
            assert b_matrix(phi) == [[x.constant_value() for x in row] for row in oracle]
        i, j = rng.randint(1, 7), rng.randint(1, 7)
        assert b_entries(phi, [(i, j)]) == {(i, j): oracle[i - 1][j - 1]}
        assert b_entries(phi, [(i, j), (j, i), (i, j)]) == {
            (i, j): oracle[i - 1][j - 1], (j, i): oracle[j - 1][i - 1]}
    with pytest.raises(ValueError, match="out of range"):
        b_entries(phi, [(0, 1)])


def test_form_kernels_do_no_polyscalar_arithmetic(monkeypatch):
    # the form kernels, the linear structure (+, -, scale), the Hodge dual and
    # the combination helper compute on the forms' integer layers: with
    # PolyScalar's + and - raising, each still runs on rational and symbolic
    # forms and gives what it gave before; PolyScalar has no product at all
    rng = random.Random("lifted-kernels")
    syms = ("a", "b")
    a = PolyScalar.parse("a", syms)
    rational = random_form(rng, 7, 3, density=0.6)
    symbolic = two_symbol_form(rng, 7, 3, 0.4)
    poly_image = {r: [((c,), poly_mul(a, random_rational(rng)) + PolyScalar.constant(1, syms))]
                  for r, c in ((1, 2), (3, 5), (6, 4))}
    half, third = PolyScalar.constant(Fraction(1, 2)), PolyScalar.constant(Fraction(-2, 3))
    differential = HomogeneousSpaceData(7, [], {(1, 2): {3: half}, (4, 5): {6: third}})
    ops = [
        (differential.differential(3), rational),
        (ExteriorOp(7, 3, 0, syms, poly_image), symbolic),
        (ExteriorOp(7, 3, 0, syms, poly_image), rational.with_symbols(syms)),
    ]
    p = [[x / 2 for x in row] for row in random_unimodular(rng, 7)]

    def kernels():
        return [
            wedge(contract(1, rational), rational), wedge(contract(2, symbolic), symbolic),
            pullback(rational, p), pullback(symbolic, p),
            *(op.apply(alpha) for op, alpha in ops),
            b_entries(rational, ALL_PAIRS), b_entries(symbolic, ALL_PAIRS), b_matrix(rational),
            rational + rational.scale(Fraction(1, 3)), symbolic - symbolic.scale(a), -symbolic,
            symbolic.scale(Fraction(-2, 5)), rational.with_symbols(syms).scale(a),
            contract(3, symbolic), hodge_dual_up_to_scale(metric, rational),
            hodge_dual_up_to_scale(metric, symbolic),
            combination(7, 3, syms, [("a", rational), ("b", contract(1, wedge(e1, rational)))]),
        ]

    metric = [[Fraction(2 if i == j else 0) + Fraction(i + j == 5) for j in range(7)]
              for i in range(7)]
    e1 = AltForm(7, 1, (), {(1,): PolyScalar.constant(1)})
    before = kernels()

    # gone from the engine: the ring operations that only test oracles used,
    # and the other code that no product path reached
    removed = {PolyScalar: ("__mul__", "__pow__", "__sub__", "scale", "one"),
               _linalg: ("identity",), HomogeneousSpaceData: ("with_symbols",)}
    assert not [name for owner, names in removed.items() for name in names if hasattr(owner, name)]

    def forbidden(*_args):
        raise AssertionError("PolyScalar arithmetic inside a form kernel")

    for name in ("__add__", "__neg__"):
        monkeypatch.setattr(PolyScalar, name, forbidden)
    assert kernels() == before
    assert not any(form.is_zero() for form in before[:7] + before[10:])


def _b_rows(phi):
    """All of B as PolyScalar rows: b_matrix for a rational phi, b_entries otherwise."""
    if phi.is_rational():
        return [[PolyScalar.constant(x) for x in row] for row in b_matrix(phi)]
    entries = b_entries(phi, ALL_PAIRS)
    return [[entries[i, j] for j in range(1, 8)] for i in range(1, 8)]


def _congruence_violations(phi, p):
    """Entries where B(P*phi) != det(P) * P^T B(phi) P."""
    b, pulled = _b_rows(phi), _b_rows(pullback(phi, p))
    det_p = _linalg.det(p)
    violations = []
    for i in range(7):
        for j in range(7):
            expected = PolyScalar(phi.symbols)
            for r in range(7):
                for s in range(7):
                    factor = det_p * p[r][i] * p[s][j]
                    if factor:
                        expected = expected + poly_mul(b[r][s], factor)
            if pulled[i][j] != expected:
                violations.append((i + 1, j + 1))
    return violations


def test_b_matrix_obeys_the_exact_congruence_law():
    # B(P*phi) = det(P) P^T B(phi) P pins B independently of any wedge product
    rng = random.Random(1968)
    for t in range(6):
        phi = random_form(rng, 7, 3, density=0.6)
        if t % 2:
            p = random_unimodular(rng, 7)
        else:
            p = [[random_rational(rng) for _ in range(7)] for _ in range(7)]
        assert _congruence_violations(phi, p) == []
    assert _congruence_violations(two_symbol_form(rng, 7, 3, 0.3), random_unimodular(rng, 7)) == []


def test_congruence_law_catches_a_sign_flip_in_the_wedge_table(monkeypatch):
    rng = random.Random(1969)
    table = gstruct._wedge_table()  # for each 2-position q, [(3-position r, 2-position p, sign)]
    q = rng.randrange(len(table))
    k = rng.randrange(len(table[q]))
    r, p, sign = table[q][k]
    flipped = list(table)
    flipped[q] = table[q][:k] + [(r, p, -sign)] + table[q][k + 1 :]
    monkeypatch.setattr(gstruct, "_wedge_table", lambda: flipped)
    phi = random_form(rng, 7, 3, density=1.0)
    p = [[random_rational(rng) for _ in range(7)] for _ in range(7)]
    assert _congruence_violations(phi, p)


def test_definiteness_of_standard_form():
    report = definiteness(phi0())
    assert report.verdict == "definite" and report.orientation == "positive"
    assert report.minors[0] == 6
    assert all(m > 0 for m in report.minors)


def test_definiteness_rejects_degenerate_split_form():
    report = definiteness(parse_form("e^{1 2 3} + e^{4 5 6}", 7))
    assert report.verdict in ("degenerate", "indefinite")
    assert not report.is_definite
    # the witness really does satisfy B(v, v) = value
    value, witness = report.witnesses[0]
    gram = b_matrix(parse_form("e^{1 2 3} + e^{4 5 6}", 7))
    quad = sum(
        witness[i] * gram[i][j] * witness[j] for i in range(7) for j in range(7)
    )
    assert str(quad) == value


def test_definiteness_of_branch_c_member():
    phi = parse_form("-e^{2 4 7} + e^{2 5 6} - e^{3 4 6} - e^{3 5 7}", 7)
    assert not definiteness(phi).is_definite


def test_definiteness_requires_rational_input():
    sym = parse_form("e^{1 2 3}", 7, 3, ("t",)).scale(PolyScalar.parse("t", ("t",)))
    with pytest.raises(ValueError, match="obstruction_certificate"):
        definiteness(sym)


def test_definiteness_verdict_is_congruence_invariant():
    rng = random.Random(515)
    split = parse_form("e^{1 2 3} + e^{4 5 6}", 7)
    base_phi = definiteness(phi0()).verdict
    base_split = definiteness(split).verdict
    for _ in range(20):
        t = random_unimodular(rng, 7)
        assert definiteness(pullback(phi0(), t)).verdict == base_phi
        assert definiteness(pullback(split, t)).verdict == base_split


@pytest.mark.parametrize(
    "text, minors, render",
    [
        (
            PHI0,
            "6 36 216 1296 7776 46656 279936",
            "definite (positive), certificate: minors 6, 36, 216, 1296, 7776, 46656, 279936",
        ),
        (
            "-e^{1 2 7} - e^{1 3 5} + e^{1 4 6} + e^{2 3 6} + e^{2 4 5} - e^{3 4 7} - e^{5 6 7}",
            "-6 36 -216 1296 -7776 46656 -279936",
            "definite (negative), certificate: minors -6, 36, -216, 1296, -7776, 46656, -279936",
        ),
        (
            "-e^{1 2 7} + e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5} - e^{3 4 7} + e^{5 6 7}",
            "-6 36 -216 1296 7776 46656 279936",
            "indefinite\n"
            "  witness v = (1, 0, 0, 0, 0, 0, 0) with B(v,v) = -6\n"
            "  witness v = (0, 0, 0, 0, 1, 0, 0) with B(v,v) = 6",
        ),
        (
            "e^{1 2 3}",
            "0 0 0 0 0 0 0",
            "degenerate\n  witness v = (1, 0, 0, 0, 0, 0, 0) with B(v,v) = 0",
        ),
        # zero diagonals: congruence_diagonalize adds a column to clear them
        (
            "e^{1 6 7} + e^{1 2 5} - e^{2 3 4} + e^{1 3 5} - e^{3 5 7} + e^{4 5 6}",
            "0 -9 0 0 0 0 4374",
            "indefinite\n"
            "  witness v = (0, 0, 0, 0, 1, 0, 0) with B(v,v) = -6\n"
            "  witness v = (-1/2, -1/2, 1, 0, 0, 0, 0) with B(v,v) = 3/2",
        ),
        (
            "e^{1 2 3} + e^{1 4 5} + e^{1 6 7} + e^{2 4 6} - e^{3 5 7}",
            "6 0 -54 0 486 0 -4374",
            "indefinite\n"
            "  witness v = (0, -1/2, 1/2, 0, 0, 0, 0) with B(v,v) = -3/2\n"
            "  witness v = (1, 0, 0, 0, 0, 0, 0) with B(v,v) = 6",
        ),
    ],
    ids=["phi0", "minus-phi0", "split", "degenerate", "zero-diagonal-a", "zero-diagonal-b"],
)
def test_definiteness_certificate_is_pinned(text, minors, render):
    # the exact minor chain and witnesses, not only the verdict: another
    # valid witness still passes every B(v, v) check, but changes these
    report = definiteness(parse_form(text, 7))
    assert " ".join(str(m) for m in report.minors) == minors
    assert report.render() == render


def test_obstruction_certificate_on_sl3r_closed_family():
    algebra = from_matrices(models.sl3r_matrices())
    data = reductive_split(algebra, [8], list(range(1, 8)))
    family = closed_forms(data, 3)
    report = obstruction_certificate(family)
    assert report.excludes_definite and report.family
    assert "identically" in report.identity


def scaled_family(phi):
    """The family t * phi on flat R^7, every member closed."""
    return ClosedFamily(
        data=abelian(),
        degree=3,
        parameters=("t",),
        basis=[phi],
        generic=phi.with_symbols(("t",)).scale(PolyScalar.parse("t", ("t",))),
        invariant_dim=35,
        rank=0,
    )


def test_obstruction_certificate_undecided_for_scaled_standard_form():
    report = obstruction_certificate(scaled_family(phi0()))
    assert report.verdict == "undecided-parametric"
    assert report.render() == "undecided-parametric: no vanishing certificate found"


def test_obstruction_certificate_indefinite_for_scaled_split_form():
    # phi0 with e^{127} and e^{347} negated: B = t^3 diag(-6, -6, -6, -6, 6, 6, 6)
    split = parse_form(
        "-e^{1 2 7} + e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5} - e^{3 4 7} + e^{5 6 7}", 7
    )
    assert [b_matrix(split)[i][i] for i in range(7)] == [-6, -6, -6, -6, 6, 6, 6]
    report = obstruction_certificate(scaled_family(split))
    assert (report.verdict, report.family) == ("indefinite", True)
    assert report.identity == (
        "B(e1,e1) + B(e5,e5) = 0 identically, with neither term identically zero"
    )


def test_metric_up_to_scale_and_orientation_flip():
    metric = definiteness(phi0()).metric()
    assert metric[0][0] == 6
    swap = [[Fraction(i == j) for j in range(7)] for i in range(7)]
    swap[0], swap[1] = swap[1], swap[0]
    flipped = pullback(phi0(), swap)  # orientation-reversing relabeling
    report = definiteness(flipped)
    assert report.verdict == "definite" and report.orientation == "negative"
    metric2 = report.metric()
    assert all(m > 0 for m in _linalg.leading_principal_minors(metric2))
    with pytest.raises(ValueError, match="not definite"):
        definiteness(parse_form("e^{1 2 3} + e^{4 5 6}", 7)).metric()


def test_hodge_dual_orthonormal_examples():
    dual = hodge_dual_up_to_scale(identity_metric(), parse_form("e^{1 2 3}", 7))
    assert dual == parse_form("e^{4 5 6 7}", 7)
    dual_phi = hodge_dual_up_to_scale(identity_metric(), phi0())
    expected = parse_form(
        "e^{1 2 3 4} + e^{1 2 5 6} + e^{1 3 6 7} + e^{1 4 5 7} "
        "+ e^{2 3 5 7} - e^{2 4 6 7} + e^{3 4 5 6}",
        7,
    )
    assert dual_phi == expected


def test_hodge_dual_scale_covariance():
    rng = random.Random(616)
    for n in (6, 7):
        for k in (2, 3):
            alpha = random_form(rng, n, k)
            one = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
            doubled = [[Fraction(2 if i == j else 0) for j in range(n)] for i in range(n)]
            base = hodge_dual_up_to_scale(one, alpha)
            scaled = hodge_dual_up_to_scale(doubled, alpha)
            assert scaled == base.scale(Fraction(1, 2 ** k))


@pytest.mark.parametrize("n, k", [(6, 3), (7, 2), (7, 3), (7, 4)])
def test_hodge_dual_matches_per_minor_oracle(n, k):
    rng = random.Random(f"hodge:{n}:{k}")
    for _ in range(4):
        a = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        q = [
            [sum((a[r][i] * a[r][j] for r in range(n)), Fraction(i == j)) for j in range(n)]
            for i in range(n)
        ]  # A^T A + I: positive definite
        alpha = random_form(rng, n, k)
        assert hodge_dual_up_to_scale(q, alpha) == hodge_dual_by_minors(q, alpha)
    # forms with polynomial coefficients in two symbols, on the last metric
    for _ in range(2):
        alpha = two_symbol_form(rng, n, k, 0.6)
        assert hodge_dual_up_to_scale(q, alpha) == hodge_dual_by_minors(q, alpha)


def test_hodge_dual_rejects_indefinite_metric():
    bad = [[Fraction(-1 if i == j else 0) for j in range(7)] for i in range(7)]
    with pytest.raises(ValueError, match="positive definite"):
        hodge_dual_up_to_scale(bad, parse_form("e^{1 2 3}", 7))


def test_hodge_dual_rejects_a_metric_that_is_not_a_metric():
    alpha = parse_form("e^{1 2 3}", 7)
    # 1 on the diagonal and the superdiagonal: every leading minor is 1, but Q^t != Q
    upper = [[Fraction(j in (i, i + 1)) for j in range(7)] for i in range(7)]
    assert _linalg.leading_principal_minors(upper) == [1] * 7
    with pytest.raises(ValueError, match="not symmetric"):
        hodge_dual_up_to_scale(upper, alpha)
    for ragged in (identity_metric()[:6] + [[Fraction(1)] * 6],
                   identity_metric()[:6] + [[Fraction(0)] * 6 + [Fraction(1)] * 2]):
        with pytest.raises(ValueError, match="not a square matrix"):
            hodge_dual_up_to_scale(ragged, alpha)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 0]],  # singular
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],  # a zero leading minor: the pass exchanges rows
    [[1, 0, 0], [0, -1, 0], [0, 0, 1]],  # indefinite
])
def test_hodge_dual_rejects_singular_and_indefinite_metrics(rows):
    q = [[Fraction(x) for x in row] for row in rows]
    with pytest.raises(ValueError, match="metric representative is not positive definite"):
        hodge_dual_up_to_scale(q, parse_form("e^{1}", 3))


def test_torsion_report_on_flat_model():
    report = g2_torsion_report(abelian(), phi0())
    assert report.definite and report.closed and report.coclosed
    assert "torsion-free" in report.classification


def test_torsion_report_on_a_non_definite_form():
    # every iota_i phi ^ iota_j phi ^ phi of phi = e^{123} involves only e^1, e^2,
    # e^3, so B = 0: no metric, no Hodge dual; d = 0 on flat R^7
    report = g2_torsion_report(abelian(), parse_form("e^{1 2 3}", 7))
    assert (report.definite, report.closed, report.coclosed) == (False, True, None)
    assert report.definiteness.verdict == "degenerate"
    assert report.render() == (
        "definite: no; closed: yes; coclosed: n/a (no metric); "
        "=> not a G2-structure (form is not definite)"
    )


def test_hitchin_report_renders_each_type():
    # psi = e^{123} + e^{456}: iota_j psi ^ psi is a 5-form without e^j, so K is
    # diagonal; K[1][1] = top(e^{23456} ^ e^1) = -1, K[4][4] = top(e^{12356} ^ e^4) = 1,
    # and likewise K = diag(-1, -1, -1, 1, 1, 1), K^2 = Id and lambda = 6/6 = 1
    real_type = hitchin_stability(parse_form("e^{1 2 3} + e^{4 5 6}", 6))
    assert real_type.k_matrix == [[(i == j) * (-1 if i < 3 else 1) for j in range(6)]
                                  for i in range(6)]
    assert real_type.render() == "lambda = 1 (real type)"
    # psi = e^{123}: iota_j psi ^ psi = 0 for every j, so K = 0 and lambda = 0
    decomposable = hitchin_stability(parse_form("e^{1 2 3}", 6))
    assert decomposable.render() == "lambda = 0 (degenerate/unstable)"


def test_hitchin_values():
    report = hitchin_stability(parse_form(PSI0, 6))
    assert report.lam == -4
    assert report.k_squared_is_scalar and report.stable_complex
    decomposable = hitchin_stability(parse_form("e^{1 2 3}", 6))
    assert decomposable.lam == 0 and not decomposable.stable_complex
    real_type = hitchin_stability(parse_form("e^{1 2 3} + e^{4 5 6}", 6))
    assert real_type.lam > 0


def test_su3_check_flat_pair():
    data = abelian(6)
    report = su3_check(data, parse_form(OMEGA0, 6), parse_form(PSI0, 6))
    assert report.symplectic_half_flat
    assert not report.strictly_symplectic_half_flat
    assert report.gram[0][0] == 2


def test_su3_check_unstable_psi_skips_rest():
    data = abelian(6)
    report = su3_check(data, parse_form(OMEGA0, 6), parse_form("e^{1 2 3}", 6))
    assert not report.stable
    assert report.compatible is None and report.tamed is None


def test_su3_check_sign_flipped_omega_is_not_tamed():
    data = abelian(6)
    omega = parse_form("e^{1 2} + e^{3 4} - e^{5 6}", 6)
    report = su3_check(data, omega, parse_form(PSI0, 6))
    assert report.nondegenerate and report.stable
    assert not report.tamed and report.gram is not None  # G symmetric, not positive
    skew = su3_check(data, parse_form(OMEGA0, 6), parse_form(PSI0 + " + e^{1 2 3}", 6))
    assert skew.stable and not skew.compatible and not skew.tamed and skew.gram is None


def test_product_g2_examples():
    omega = parse_form(OMEGA0, 6)
    psi = parse_form(PSI0, 6)
    phi = product_g2(omega, psi)
    assert phi == phi0()
    assert definiteness(phi).is_definite
    degenerate = product_g2(AltForm(6, 2, ()), psi)
    report = definiteness(degenerate)
    assert not report.is_definite
    gram = b_matrix(degenerate)
    assert gram[6][6] == 0


def test_product_g2_contraction_recovers_omega():
    rng = random.Random(717)
    for _ in range(50):
        omega = random_form(rng, 6, 2)
        psi = random_form(rng, 6, 3)
        phi = product_g2(omega, psi)
        recovered = contract(7, phi)
        assert recovered == AltForm(7, 2, (), dict(omega.coeffs))


@pytest.mark.parametrize("pairs, classification", [
    ([(1, 2), (3, 4), (5, 6)], "coclosed, not closed"),  # d e^7 = omega
    ([(1, 3)], "neither closed nor coclosed"),
])
def test_torsion_report_on_two_step_nilpotent_algebras(pairs, classification):
    # [e_i, e_j] = -e_7 for each (i, j) in pairs, so d e^7 is the sum of their e^{i j}
    minus_one = PolyScalar.constant(-1)
    data = HomogeneousSpaceData(7, [], {pair: {7: minus_one} for pair in pairs}, partial=False)
    report = g2_torsion_report(data, phi0())
    assert report.definite and not report.closed
    assert report.classification == classification


def test_product_over_strict_half_flat_is_closed_non_parallel():
    # su(2,1) with its full diagonal torus as isotropy carries strictly
    # symplectic half-flat pairs; the product with a flat line is then a
    # definite closed 3-form that is not coclosed.
    raw = models.su21_matrices(0, 1)
    mats = [raw[1], raw[2], raw[3], raw[4], raw[5], raw[6], raw[0], raw[7]]
    algebra = from_matrices(mats)
    data6 = reductive_split(algebra, [7, 8], [1, 2, 3, 4, 5, 6])
    omega = parse_form("-2*e^{1 2} + e^{3 4} - e^{5 6}", 6)
    psi = parse_form("e^{1 3 6} - e^{1 4 5} + e^{2 3 5} + e^{2 4 6}", 6)
    su3 = su3_check(data6, omega, psi)
    assert su3.symplectic_half_flat and su3.strictly_symplectic_half_flat

    data7 = HomogeneousSpaceData(7, data6.isotropy, data6.bracket, partial=False)
    report = g2_torsion_report(data7, product_g2(omega, psi))
    assert report.definite and report.closed and report.coclosed is False
    assert report.classification == "closed non-parallel"


def test_hitchin_on_unimodular_conjugates_of_standard_psi():
    rng = random.Random(818)
    psi0 = parse_form(PSI0, 6)
    for _ in range(5):
        t = random_unimodular(rng, 6)
        report = hitchin_stability(pullback(psi0, t))
        assert report.lam == -4  # det-1 changes leave the invariant fixed
        assert report.k_squared_is_scalar


def reflected_unimodular(rng, n, reflect):
    """A random unimodular matrix, its first row negated (det -1) when reflect."""
    p = random_unimodular(rng, n)
    return [[-x for x in row] if reflect and r == 0 else row for r, row in enumerate(p)]


def test_hitchin_matches_the_wedge_oracle():
    rng = random.Random(3206)
    psi0, real = parse_form(PSI0, 6), parse_form("e^{1 2 3} + e^{4 5 6}", 6)
    forms = [psi0, real, parse_form("e^{1 2 3}", 6), AltForm(6, 3, ())]
    for t in range(60):
        if t % 4 == 0:  # int coefficients
            forms.append(vector_to_form([rng.randint(-3, 3) for _ in range(20)], 6, 3))
        elif t % 4 == 1:  # Fractions with denominators, sparse to dense
            forms.append(random_form(rng, 6, 3, density=rng.choice([0.15, 0.5, 1.0])))
        else:  # unimodular pullbacks of psi0 (complex type) and of the real type
            p = reflected_unimodular(rng, 6, t % 3 == 0)
            forms.append(pullback(psi0 if t % 4 == 2 else real, p))
    signs = set()
    for psi in forms:
        report = hitchin_stability(psi)
        assert (report.lam, report.k_matrix, report.k_squared) == hitchin_by_wedges(psi)
        assert type(report.lam) is Fraction
        assert all(type(x) is Fraction for row in report.k_matrix + report.k_squared for x in row)
        signs.add((report.lam > 0) - (report.lam < 0))
    assert signs == {-1, 0, 1}  # complex, degenerate and real type


def test_su3_gram_matches_the_evaluation_oracle():
    rng = random.Random(3207)
    data, omega0, psi0 = abelian(6), parse_form(OMEGA0, 6), parse_form(PSI0, 6)
    pairs = []
    for t in range(24):
        p = reflected_unimodular(rng, 6, t % 2 == 1)
        omega, psi = pullback(omega0, p), pullback(psi0, p)
        pairs += [
            (omega, psi), (-omega, psi),  # tamed: the volume of -omega flips G's sign back
            (pullback(parse_form("e^{1 2} + e^{3 4} - e^{5 6}", 6), p), psi),  # not tamed
            (omega.scale(Fraction(2, 3)), psi.scale(Fraction(-1, 5))),  # denominators
            (random_form(rng, 6, 2), psi),  # G mostly not symmetric
            (omega, random_form(rng, 6, 3, density=0.3)),  # mostly unstable
            (pullback(parse_form("e^{1 2} + e^{3 4}", 6), p), psi),  # degenerate omega
        ]
    seen = set()
    for omega, psi in pairs:
        report, gram = su3_check(data, omega, psi), su3_gram_by_evaluation(omega, psi)
        assert report.nondegenerate == (gram is not None)
        symmetric = gram is not None and all(gram[i][j] == gram[j][i]
                                             for i in range(6) for j in range(i))
        if report.nondegenerate and report.stable and symmetric:
            assert report.gram == gram
            assert all(type(x) is Fraction for row in report.gram for x in row)
        else:
            assert report.gram is None
        seen.add((report.nondegenerate, report.stable, symmetric, report.tamed))
    assert {(True, True, True, True), (True, True, True, False), (True, True, False, False),
            (True, False, False, None), (False, True, False, None)} <= seen


def test_product_definiteness_tracks_su3_verdict_on_instances():
    # both directions of the pointwise equivalence, on concrete instances
    data = abelian(6)
    pairs = [
        (parse_form(OMEGA0, 6), parse_form(PSI0, 6)),
        (parse_form("e^{1 2} + e^{3 4} - e^{5 6}", 6), parse_form(PSI0, 6)),
        (AltForm(6, 2, ()), parse_form(PSI0, 6)),
        (parse_form(OMEGA0, 6), parse_form("e^{1 2 3}", 6)),
    ]
    for omega, psi in pairs:
        su3 = su3_check(data, omega, psi)
        product_definite = definiteness(product_g2(omega, psi)).is_definite
        assert product_definite == su3.su3_structure


def _count_b_matrix_calls(monkeypatch):
    import g2forms.gstruct as gstruct

    calls = []
    original = gstruct.b_matrix

    def counting(phi):
        calls.append(phi)
        return original(phi)

    monkeypatch.setattr(gstruct, "b_matrix", counting)
    return calls


def test_torsion_report_and_metric_build_b_once(monkeypatch):
    calls = _count_b_matrix_calls(monkeypatch)
    report = g2_torsion_report(HomogeneousSpaceData(7, [], {}), phi0())
    assert report.definite and report.coclosed
    assert len(calls) == 1
    calls.clear()
    assert definiteness(phi0()).metric()[0][0] == 6
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text, verdict",
    [
        (PHI0, "definite"),
        ("e^{1 2 7} + e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5} - e^{3 4 7} - e^{5 6 7}",
         "indefinite"),
        ("e^{1 2 3} + e^{4 5 6}", "degenerate"),
    ],
    ids=["definite", "indefinite", "degenerate"],
)
def test_definiteness_report_carries_its_b_matrix(text, verdict):
    phi = parse_form(text, 7)
    report = definiteness(phi)
    assert report.verdict == verdict
    assert report.gram == b_matrix(phi)


def _metric(entry):
    """The identity metric on R^7 with ``entry`` at (1, 1)."""
    return [[entry if i == j == 0 else Fraction(int(i == j)) for j in range(7)] for i in range(7)]


@pytest.mark.parametrize("call, args, match", [
    (wedge, (phi0(), 1), "wedge takes forms, got AltForm and int"),
    (wedge, (1, phi0()), "wedge takes forms, got int and AltForm"),
    (wedge, (phi0(), PHI0), "wedge takes forms, got AltForm and str"),
    (definiteness, (1,), "definiteness takes a form, got int"),
    (definiteness, (PHI0,), "definiteness takes a form, got str"),
    (hodge_dual_up_to_scale, (_metric(1.0), phi0()), "matrix entries must be ints or Fractions"),
    (hodge_dual_up_to_scale, (_metric("1"), phi0()), "matrix entries must be ints or Fractions"),
    (pullback, (1, _metric(1)), "pullback takes a form, got int"),
    (contract, (1, 1), "contract takes a form, got int"),
    (b_matrix, (1,), "b_matrix takes a form, got int"),
    (hitchin_stability, (1,), "hitchin_stability takes a form, got int"),
    (hodge_dual_up_to_scale, (_metric(1), 1), "hodge_dual_up_to_scale takes a form, got int"),
    (g2_torsion_report, (HomogeneousSpaceData(7, [], {}), 1),
     "g2_torsion_report takes a form, got int"),
], ids=["wedge-form-int", "wedge-int-form", "wedge-form-str", "definiteness-int",
        "definiteness-str", "hodge-float-metric", "hodge-str-metric", "pullback-int",
        "contract-int", "b-matrix-int", "hitchin-int", "hodge-int", "torsion-int"])
def test_entry_points_refuse_a_non_form_and_an_inexact_metric(call, args, match):
    # each raised AttributeError from inside before it was guarded
    with pytest.raises(TypeError, match=match):
        call(*args)


def test_pullback_along_a_bool_matrix_reads_it_as_ints():
    # _exact takes a bool as an int: the all-True matrix is the all-ones one, of
    # rank 1, so it pulls every 3-form back to 0
    ones = [[True] * 7 for _ in range(7)]
    assert pullback(phi0(), ones) == pullback(phi0(), [[1] * 7 for _ in range(7)])
    assert pullback(phi0(), ones) == AltForm(7, 3)
