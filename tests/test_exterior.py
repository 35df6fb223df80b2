import random
from fractions import Fraction
from math import comb

import pytest

from conftest import (
    dense_ce_differential,
    evaluate,
    evaluate_by_permutations,
    leibniz_columns,
    poly_mul,
    pullback_by_evaluation,
    quadratic_form,
    random_form,
    random_rational,
    random_vector,
    two_symbol_form,
    unit_vector,
    vector_to_form,
    wedge_by_products,
)
from g2forms.exterior import (
    AltForm,
    ExteriorOp,
    basis_form,
    combination,
    contract,
    form_to_vector,
    monomials,
    parse_form,
    pullback,
    sort_sign,
    top_coefficient,
    wedge,
)
from g2forms.liealg import HomogeneousSpaceData
from g2forms.scalars import ContextMismatchError, PolyScalar, parse_rational


def F(text, dim=7, degree=None, symbols=()):
    return parse_form(text, dim, degree, symbols)


def test_sign_helpers():
    assert sort_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_sign((2, 1, 3)) == ((1, 2, 3), -1)
    assert sort_sign((1, 1, 2)) is None


def test_wedge_disjoint_and_signed():
    assert wedge(F("e^{1 2}", degree=2), F("e^{3 4 5}", degree=3)) == F("e^{1 2 3 4 5}")
    assert wedge(F("e^{1 3}", degree=2), F("e^{2 4}", degree=2)) == F("-e^{1 2 3 4}")


def test_wedge_beyond_top_degree_is_zero():
    alpha = F("e^{1 2 3 4}", dim=5)
    beta = F("e^{3 4}", dim=5)
    assert wedge(alpha, beta).is_zero()
    assert wedge(alpha, beta).degree == 6


def test_contract_examples():
    assert contract(1, F("e^{1 2 3}")) == F("e^{2 3}", degree=2)
    assert contract(2, F("e^{1 2 3}")) == F("-e^{1 3}", degree=2)
    assert contract(7, F("e^{1 2 7} + e^{3 4 7} + e^{5 6 7}")) == F(
        "e^{1 2} + e^{3 4} + e^{5 6}", degree=2
    )
    assert contract(4, F("e^{1 2 3}")) == AltForm(7, 2, ())
    with pytest.raises(ValueError):
        contract(1, AltForm(7, 0, (), {(): PolyScalar.constant(1)}))
    for index in (0, 8):
        with pytest.raises(ValueError, match="out of range"):
            contract(index, F("e^{1 2 3}"))


def test_top_coefficient():
    assert top_coefficient(F("6*e^{1 2 3 4 5 6 7}")).constant_value() == 6
    ctx = ("a4",)
    snake = basis_form(7, tuple(range(1, 8)), ctx).scale(
        PolyScalar.parse("-6*a4^3", ctx)
    )
    assert top_coefficient(snake).render() == "-6*a4^3"
    zero = AltForm(7, 7, ())
    assert top_coefficient(zero).is_zero()
    with pytest.raises(ValueError):
        top_coefficient(F("e^{1 2 3}"))


def test_evaluate_on_basis_vectors():
    e = [unit_vector(3, i) for i in range(1, 4)]
    form = parse_form("e^{1 2 3}", 3)
    assert evaluate(form, [e[0], e[1], e[2]]).constant_value() == 1
    assert evaluate(form, [e[1], e[0], e[2]]).constant_value() == -1
    assert form.eval_basis((2, 1, 3)).constant_value() == -1
    assert form.eval_basis((1, 1, 3)).is_zero()
    with pytest.raises(ValueError):
        evaluate(form, [e[0]])


def test_graded_commutativity_and_associativity_random():
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randint(2, 7)
        k = rng.randint(0, min(3, n))
        l = rng.randint(0, min(3, n - 1))
        m = rng.randint(0, 2)
        alpha = random_form(rng, n, k)
        beta = random_form(rng, n, l)
        gamma = random_form(rng, n, m)
        lhs = wedge(alpha, beta)
        rhs = wedge(beta, alpha)
        if (k * l) % 2:
            rhs = -rhs
        assert lhs == rhs
        assert wedge(wedge(alpha, beta), gamma) == wedge(alpha, wedge(beta, gamma))


def test_double_contraction_vanishes_random():
    rng = random.Random(202)
    for _ in range(30):
        n = rng.randint(2, 7)
        k = rng.randint(2, min(4, n))
        alpha = random_form(rng, n, k)
        for i in range(1, n + 1):
            assert contract(i, contract(i, alpha)).is_zero()


def test_antiderivation_law_random():
    rng = random.Random(303)
    for _ in range(30):
        n = rng.randint(2, 7)
        k = rng.randint(1, min(3, n))
        l = rng.randint(1, min(3, n))
        alpha = random_form(rng, n, k)
        beta = random_form(rng, n, l)
        for i in range(1, n + 1):
            lhs = contract(i, wedge(alpha, beta))
            rhs = wedge(contract(i, alpha), beta)
            second = wedge(alpha, contract(i, beta))
            if k % 2:
                second = -second
            assert lhs == rhs + second


def test_evaluate_matches_permutation_oracle():
    # acceptance property: 100 random instances, n <= 7
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(1, 7)
        k = rng.randint(1, min(3, n))
        alpha = random_form(rng, n, k)
        vectors = [random_vector(rng, n) for _ in range(k)]
        assert evaluate(alpha, vectors) == evaluate_by_permutations(alpha, vectors)


def test_monomial_coordinates_round_trip():
    assert monomials(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    alpha = F("2*e^{1 3} - e^{3 4}", 4, 2)
    vec = form_to_vector(alpha, monomials(4, 2))
    assert vec == [0, 2, 0, 0, 0, -1]
    assert vector_to_form(vec, 4, 2) == alpha


def test_exterior_op_is_the_leibniz_extension():
    one = PolyScalar.constant(1)
    # e^1 -> e^1 + e^2 (the e^3 terms cancel), e^2, e^3 -> 0
    image = {1: [((1,), one), ((2,), one), ((3,), one), ((3,), -one)]}
    on_1_forms = ExteriorOp(3, 1, 0, (), image)
    # rational image data: Python int entries over one denominator, all at the
    # one exponent vector of the empty context
    assert on_1_forms.columns == {(): {(1,): {(1,): 1, (2,): 1}}} and on_1_forms.den == 1
    entries = [v for column in on_1_forms.columns[()].values() for v in column.values()]
    assert all(type(v) is int for v in entries)
    assert on_1_forms.is_rational()
    assert on_1_forms.apply(F("3*e^{1} + e^{2}", 3, 1)) == F("3*e^{1} + 3*e^{2}", 3, 1)
    on_2_forms = ExteriorOp(3, 2, 0, (), image)
    assert on_2_forms.apply(F("e^{1 2} + e^{1 3}", 3, 2)) == F("e^{1 2} + e^{1 3} + e^{2 3}", 3, 2)
    # an odd derivation picks up (-1)^(deg a) past a: D(e^3 ^ e^4) = -e^3 ^ e^{1 2}
    odd = ExteriorOp(4, 2, 1, (), {4: [((1, 2), one)]})
    assert odd.apply(F("e^{3 4}", 4, 2)) == F("-e^{1 2 3}", 4, 3)
    with pytest.raises(ValueError):
        on_1_forms.apply(F("e^{1 2}", 3, 2))
    with pytest.raises(ContextMismatchError):
        on_1_forms.apply(F("e^{1}", 3, 1, ("t",)))


def _random_image(rng, dim, shift):
    """A seeded rational image: each covector goes to a few terms of shift + 1
    distinct indices in random order, so most come unsorted and many meet
    the other indices of a monomial."""
    image = {}
    for i in range(1, dim + 1):
        for _ in range(rng.randint(0, 3)):
            replacement = tuple(rng.sample(range(1, dim + 1), shift + 1))
            value = random_rational(rng) or Fraction(1)
            image.setdefault(i, []).append((replacement, PolyScalar.constant(value)))
    return image


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_exterior_op_columns_match_the_brute_force_leibniz_rule(shift):
    rng = random.Random(19 + shift)
    one, two_thirds = PolyScalar.constant(1), PolyScalar.constant(Fraction(-2, 3))
    # unsorted replacements (e^1 -> e^{3 2}), a repeated index (e^{3 3}), and
    # replacements that meet the indices left in the monomial
    fixed = {
        0: {1: [((3,), one)], 2: [((2,), two_thirds), ((1,), one)], 4: [((1,), one)]},
        1: {1: [((3, 2), one)], 2: [((2, 4), two_thirds), ((3, 3), one)], 4: [((5, 1), one)]},
        2: {1: [((3, 2, 5), one)], 2: [((5, 1, 4), two_thirds), ((3, 3, 1), one)]},
    }[shift]
    images = [(5, fixed)] + [(rng.randint(shift + 1, 7), None) for _ in range(12)]
    for dim, image in images:
        image = image or _random_image(rng, dim, shift)
        for degree in range(dim + 1):  # empty operators from dim - shift + 1 on
            op = ExteriorOp(dim, degree, shift, (), image)
            engine = {idx: {row: Fraction(v, op.den) for row, v in column.items()}
                      for idx, column in op.columns.get((), {}).items()}
            assert engine == leibniz_columns(dim, degree, shift, image), (dim, degree, image)


_ONE = PolyScalar.constant(1)


@pytest.mark.parametrize("degree, shift, image, error", [
    (-1, 0, {}, ValueError),  # a negative degree
    (1, -1, {}, ValueError),  # a negative shift
    (1, 0, {0: [((1,), _ONE)]}, ValueError),  # a key below 1..dim
    (1, 0, {4: [((1,), _ONE)]}, ValueError),  # a key above 1..dim
    (1, 0, {True: [((1,), _ONE)]}, ValueError),  # a bool key
    (1, 0, {"1": [((1,), _ONE)]}, ValueError),  # a key that is not an int
    (1, 0, {1: [((7,), _ONE)]}, ValueError),  # a replacement index above dim
    (1, 0, {1: [((0,), _ONE)]}, ValueError),  # a replacement index below 1
    (1, 0, {1: [((True,), _ONE)]}, ValueError),  # a bool replacement index
    (1, 0, {1: [((1, 2), _ONE)]}, ValueError),  # a replacement longer than shift + 1
    (2, 1, {1: [((2,), _ONE)]}, ValueError),  # a replacement shorter than shift + 1
    (1, 0, {1: [((2,), 1)]}, TypeError),  # an int value
    (1, 0, {1: [((2,), Fraction(1, 2))]}, TypeError),  # a Fraction value
    (1, 0, {1: [((2,), PolyScalar.constant(1, ("t",)))]}, ContextMismatchError),  # another context
])
def test_exterior_op_rejects_bad_images(degree, shift, image, error):
    with pytest.raises(error):
        ExteriorOp(3, degree, shift, (), image)


def test_exterior_op_entries_share_one_denominator():
    half, third, quarter = (PolyScalar.constant(Fraction(1, q), ("t",)) for q in (2, 3, 4))
    # e^1 -> 1/2 e^2 + 1/3 e^3, e^2 -> -3/4 e^3, in the context (t,): constant
    # entries sit at the zero exponent vector (0,)
    image = {1: [((2,), half), ((3,), third)], 2: [((3,), poly_mul(quarter, -3))]}
    op = ExteriorOp(3, 1, 0, ("t",), image)
    assert op.den == 12 and op.columns == {(0,): {(1,): {(2,): 6, (3,): 4}, (2,): {(3,): -9}}}
    assert op.is_rational()
    alpha = F("e^{1} + 2*e^{2}", 3, 1, ("t",))
    assert op.apply(alpha) == F("1/2*e^{2} - 7/6*e^{3}", 3, 1, ("t",))
    # a symbolic form keeps its polynomial coefficients: t/5 e^1 -> t/10 e^2 + t/15 e^3
    t = PolyScalar.symbol("t", ("t",))
    image_of_t = op.apply(basis_form(3, (1,), ("t",)).scale(poly_mul(t, Fraction(1, 5))))
    assert image_of_t.coeffs == {(2,): poly_mul(t, Fraction(1, 10)),
                                 (3,): poly_mul(t, Fraction(1, 15))}
    # polynomial image data with denominators, e^1 -> t/2 e^2 + (1/3 - t) e^3 and
    # e^2 -> 1/2 e^3: ints over den = 6, one set of columns per power of t
    poly = ExteriorOp(3, 1, 0, ("t",), {1: [((2,), poly_mul(t, Fraction(1, 2))),
                                            ((3,), third + -t)], 2: [((3,), half)]})
    assert poly.den == 6 and not poly.is_rational()
    assert poly.columns == {
        (1,): {(1,): {(2,): 3, (3,): -6}},
        (0,): {(1,): {(3,): 2}, (2,): {(3,): 3}},
    }
    assert poly.apply(alpha) == AltForm(3, 1, ("t",), {(2,): poly_mul(t, Fraction(1, 2)),
                                                       (3,): poly_mul(third, 4) + -t})
    # on t e^1 the exponent vectors add: t^2/2 e^2 + (t/3 - t^2) e^3
    t2 = PolyScalar(("t",), {(2,): 1})
    expected = {(2,): poly_mul(t2, Fraction(1, 2)), (3,): poly_mul(t, Fraction(1, 3)) + -t2}
    assert poly.apply(basis_form(3, (1,), ("t",)).scale(t)) == AltForm(3, 1, ("t",), expected)


def _bracket_constant(rng, symbols, polynomial):
    """A random rational; with ``polynomial``, half the time c1 * symbol + c0."""
    value = PolyScalar.constant(random_rational(rng), symbols)
    if polynomial and rng.random() < 0.5:
        value = poly_mul(value, PolyScalar.symbol(rng.choice(symbols), symbols))
        value = value + PolyScalar.constant(random_rational(rng), symbols)
    return value


def test_rational_differential_on_symbolic_forms_matches_dense_oracle():
    # constants with denominators in a symbolic context (the first six spaces),
    # then polynomial constants with denominators (the last four): the one
    # integer lift applied to forms with polynomial coefficients
    rng = random.Random(1313)
    symbols = ("s", "t")
    s = PolyScalar.symbol("s", symbols)
    dens = {False: set(), True: set()}
    for trial in range(10):
        polynomial = trial >= 6
        n = rng.randint(3, 6)
        bracket = {
            (i, j): {r: _bracket_constant(rng, symbols, polynomial)
                     for r in range(1, n + 1) if rng.random() < 0.4}
            for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.6
        }
        data = HomogeneousSpaceData(n, [], bracket, symbols=symbols)
        for k in range(n):
            op = data.differential(k)
            dens[op.is_rational()].add(op.den)
            alpha = random_form(rng, n, k, symbols).scale(s) + random_form(rng, n, k, symbols)
            assert op.apply(alpha) == dense_ce_differential(data, alpha), (trial, n, k)
    assert max(dens[True]) > 1 and max(dens[False]) > 1


def test_kernels_sum_colliding_exponent_layers():
    # coefficients mixing 1, a, b, a^2, a*b and b^2, so that several pairs
    # of exponent layers add up to one exponent vector in each product
    rng = random.Random("layer-collisions")
    for n, k, l in ((7, 3, 2), (6, 1, 3), (5, 2, 2), (4, 1, 1)):
        alpha, beta = quadratic_form(rng, n, k, 0.6), quadratic_form(rng, n, l, 0.6)
        assert wedge(alpha, beta) == wedge_by_products(alpha, beta), (n, k, l)
        assert wedge(beta, alpha) == wedge_by_products(beta, alpha), (n, k, l)
        odd = alpha if k % 2 else quadratic_form(rng, n, 1, 0.6)
        assert wedge(odd, odd).coeffs == {}  # every sum cancels
        for singular in (False, True):
            matrix = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
            if singular:  # every coefficient of the top-degree pullback cancels
                matrix[-1] = [2 * x for x in matrix[0]]
            gamma = quadratic_form(rng, n, n if singular else k, 1.0)
            assert pullback(gamma, matrix) == pullback_by_evaluation(gamma, matrix), (n, k)
        bracket = {
            (i, j): {r: c for (r,), c in quadratic_form(rng, n, 1, 0.5).coeffs.items()}
            for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.6
        }
        data = HomogeneousSpaceData(n, [], bracket, symbols=("a", "b"))
        for degree in range(n):
            form = quadratic_form(rng, n, degree, 0.6)
            assert data.differential(degree).apply(form) == dense_ce_differential(data, form)


MATRIX_KINDS = ("int", "fraction", "mixed", "sparse", "singular")


def kernel_matrix(rng, n, kind, density=1.0):
    """An n x n matrix of ints, of Fractions, of both, mostly zeros, or of rank
    below n, with about the given share of nonzero entries."""
    density = 0.25 if kind == "sparse" else density
    rows = [[random_rational(rng) if rng.random() < density else Fraction(0) for _ in range(n)]
            for _ in range(n)]
    if kind in ("int", "mixed"):
        rows = [[x.numerator if kind == "int" or (r + c) % 2 else x for c, x in enumerate(row)]
                for r, row in enumerate(rows)]
    if kind == "singular":
        rows[-1] = [2 * x for x in rows[0]] if n > 1 else [0]
    return rows


@pytest.mark.parametrize("n", range(1, 9))
def test_position_kernels_match_their_oracles(n):
    # every degree from 0 to n, on the zero form, a rational form and
    # two-symbol layers, pulled back by each kind of matrix; wedges with every
    # degree in both orders, degree sums past n included
    rng = random.Random(f"positions:{n}")
    kinds = set()
    for k in range(n + 1):
        density = min(1.0, 12 / comb(n, k))
        forms = (AltForm(n, k), random_form(rng, n, k, density=density),
                 two_symbol_form(rng, n, k, density))
        for t, alpha in enumerate(forms):
            kind = MATRIX_KINDS[(k + t) % len(MATRIX_KINDS)]
            kinds.add(kind)
            # the oracle expands k x k determinants by cofactors: fewer entries for large k
            matrix = kernel_matrix(rng, n, kind, min(1.0, 3 / max(k, 1)))
            assert pullback(alpha, matrix) == pullback_by_evaluation(alpha, matrix), (k, t, kind)
            for l in range(n - k + 2):
                sparse = min(1.0, 8 / comb(n, l)) if l <= n else 0
                if alpha.symbols:
                    beta = two_symbol_form(rng, n, l, sparse)
                else:
                    beta = random_form(rng, n, l, density=sparse)
                assert wedge(alpha, beta) == wedge_by_products(alpha, beta), (k, t, l)
                assert wedge(beta, alpha) == wedge_by_products(beta, alpha), (k, t, l)
    assert len(kinds) == len(MATRIX_KINDS) or n < 2


def test_pullback_by_identity_and_swap():
    phi = F("e^{1 2 7} + e^{1 3 5}")
    ident = [[Fraction(i == j) for j in range(7)] for i in range(7)]
    assert pullback(phi, ident) == phi
    swap = [list(row) for row in ident]
    swap[0], swap[1] = swap[1], swap[0]
    swapped = pullback(phi, swap)
    assert swapped == F("-e^{1 2 7} + e^{2 3 5}")
    for matrix in (ident[:6], [row[:6] for row in ident], [row[:6] for row in ident[:6]]):
        with pytest.raises(ValueError, match="matrix shape"):
            pullback(phi, matrix)
    # ints are taken as they are; a float is not an exact rational
    assert pullback(phi, [[int(x) for x in row] for row in swap]) == swapped
    for bad in (0.5, "1/2"):
        inexact = [list(row) for row in ident]
        inexact[3][5] = bad
        with pytest.raises(TypeError, match="ints or Fractions"):
            pullback(phi, inexact)


def test_pullback_matches_evaluation_oracle():
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        symbols = ("t",) if rng.random() < 0.3 else ()
        alpha = random_form(rng, n, k, symbols)
        if symbols:
            alpha = alpha.scale(PolyScalar.symbol("t", symbols)) + random_form(rng, n, k, symbols)
        matrix = [
            [random_rational(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
            for _ in range(n)
        ]
        assert pullback(alpha, matrix) == pullback_by_evaluation(alpha, matrix)
    # dense inputs with polynomial coefficients in two symbols, by dense
    # matrices with denominators (as Q^-1 has in the Hodge dual)
    for n, k in ((7, 3), (7, 4), (6, 3), (6, 2)):
        alpha = two_symbol_form(rng, n, k, 1.0)
        matrix = [[Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))
                   for _ in range(n)] for _ in range(n)]
        assert pullback(alpha, matrix) == pullback_by_evaluation(alpha, matrix)


def test_parse_form_sums_repeated_terms():
    assert F("e^{1 2} + 2*e^{1 2} - e^{2 1}", degree=2) == F("4*e^{1 2}", degree=2)
    for text in ("e^{1 2 3} - e^{1 2 3}", "e^{1 3 2} + e^{1 2 3}"):
        zero = F(text)
        assert zero.is_zero() and zero.degree == 3 and zero.dim == 7
    with pytest.raises(ValueError, match="cannot add forms of different degree"):
        F("e^{1 2} + e^{1 2 3}")
    with pytest.raises(ValueError, match="does not have degree 2"):
        F("e^{1 2} + e^{1 2 3}", degree=2)


def test_render_parse_round_trip():
    samples = [
        "0",
        "e^{1 2 3}",
        "-e^{1 2 3} + 2*e^{4 5 6}",
        "1/2*e^{1 2} - e^{3 4}",
    ]
    for text in samples:
        degree = 3 if "3}" in text or text == "0" else 2
        form = parse_form(text, 7, degree if text == "0" else None)
        assert form.render() == text


def test_render_parse_round_trip_in_every_degree():
    # rational forms of every degree 0..dim, the 0-forms rendered as c*e^{}
    rng = random.Random(3401)
    for n in range(1, 8):
        for k in range(n + 1):
            for density in (0.5, 1.0):
                alpha = random_form(rng, n, k, density=density)
                assert parse_form(alpha.render(), n, k) == alpha
                if not alpha.is_zero():
                    assert parse_form(alpha.render(), n) == alpha
    unit = basis_form(7, ())
    assert unit.render() == "e^{}" and parse_form("e^{}", 7) == parse_form("e^{}", 7, 0) == unit
    for text, value in (("3*e^{}", 3), ("-1/2*e^{}", Fraction(-1, 2)), ("e^{} + e^{}", 2)):
        scaled = unit.scale(Fraction(value))
        assert parse_form(text, 7) == parse_form(text, 7, 0) == scaled
        assert parse_form(scaled.render(), 7) == scaled


def test_parse_form_reads_back_renders_with_extra_terms():
    # a render, then terms with unreduced, zero and unit coefficients, unsorted or
    # repeated indices, and terms that cancel one of the render's
    rng = random.Random(3208)
    for t in range(300):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        symbols = ("a", "b") if t % 3 == 0 else ()
        alpha = random_form(rng, n, k, symbols, density=rng.choice([0.15, 0.5, 1.0]))
        assert parse_form(alpha.render(), n, k, symbols) == alpha
        parts, expected = ([] if alpha.is_zero() else [alpha.render()]), alpha
        for idx, coeff in list(alpha.coeffs.items())[:1] if k > 1 and t % 4 == 0 else ():
            value = coeff.constant_value()  # + value * e^{j i ...} = -value * e^{i j ...}
            swapped = " ".join(map(str, (idx[1], idx[0]) + idx[2:]))
            parts.append(f"{'-' if value < 0 else '+'} {abs(value)}*e^{{{swapped}}}")
            expected = expected - basis_form(n, idx, symbols).scale(value)
        for _ in range(rng.randint(0, 4)):
            idx = (rng.sample(range(1, n + 1), k) if rng.random() < 0.7
                   else [rng.randint(1, n) for _ in range(k)])
            value = rng.choice([random_rational(rng), Fraction(0), Fraction(1), Fraction(-1)])
            mag = abs(value)
            coeff = rng.choice([f"{mag}*", f"{2 * mag.numerator}/{2 * mag.denominator}*",
                                "" if mag == 1 else f"{mag}*"])
            parts.append(f"{'-' if value < 0 else '+'} {coeff}e^{{{' '.join(map(str, idx))}}}")
            expected = expected + basis_form(n, idx, symbols).scale(value)
        if not parts:
            continue
        text = " ".join(parts).removeprefix("+ ")
        assert parse_form(text, n, k, symbols) == expected, text
        assert parse_form(text, n, None, symbols) == expected, text


@pytest.mark.parametrize("text", [
    "e^{1 2 7} - - e^{3 4 7}", "e^{1 2 7} +", "+", "-", "- -e^{1 2 7}",
    "e^{1 2 7} +- e^{3 4 7}", "2*e^{1 2 7} - ",
])
def test_parse_form_rejects_dangling_signs(text):
    with pytest.raises(ValueError, match="dangling sign"):
        parse_form(text, 7, 3)
    with pytest.raises(ValueError, match="dangling sign"):
        parse_form(text, 7)


@pytest.mark.parametrize("text", [
    "e^{1 2 3}\n", "1\t*e^{1 2 3}", "e^{1 2 3}\t", "\te^{1 2 3}",
    "e^{1\n2\u20033} +\r\n0*e^{4 5 6}",  # an em space, a line break between terms
])
def test_parse_form_drops_whitespace_anywhere(text):
    assert parse_form(text, 7, 3) == basis_form(7, (1, 2, 3))
    assert parse_form(text, 7) == basis_form(7, (1, 2, 3))


@pytest.mark.parametrize("text", [
    "e^{\u0660 1 2} + e^{3 4 5}",  # an Arabic-Indic zero is not the index 0
    "e^{1 2 \u0663}", "\u0663*e^{1 2 3}", "1/\u0663*e^{1 2 3}", "\uff13*e^{1 2 3}",
])
def test_parse_form_reads_only_ascii_digits(text):
    with pytest.raises(ValueError):
        parse_form(text, 7, 3)


@pytest.mark.parametrize("text, degree", [
    ("e^{1 2 3} + e^{11 2}", 3),  # read digit by digit: e^{1 1 2} vanishes, a term is lost
    ("e^{1 11}", None),  # read as e^{1 1 1}: the zero 3-form
    (basis_form(12, (1, 2, 10)).render(), None),  # the engine's own render
])
def test_parse_form_rejects_dimensions_above_nine(text, degree):
    with pytest.raises(ValueError, match="single-digit indices: dimension 12 is above 9"):
        parse_form(text, 12, degree)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_form("e^{1 2} + banana", 7)
    with pytest.raises(ValueError):
        parse_form("0", 7)  # zero form needs an explicit degree
    with pytest.raises(ValueError):
        parse_form("e^{9 9}", 7)


@pytest.mark.parametrize("text, dim, degree, message", [
    ("e^{1 2}", 7, 3, "term 'e^{1 2}' does not have degree 3"),
    ("e^{1 2} + ban ana", 7, 2, "cannot parse form term 'ban ana'"),
    ("e^{1 2 9}", 7, 3, "index out of range 1..7 in 'e^{1 2 9}'"),
    ("  e^{1 2} -  e^{1  2 3} ", 7, 2, "term 'e^{1  2 3}' does not have degree 2"),
    ("3 / 4 * e ^{ 1 2 3 }", 7, 2, "term '3 / 4 * e ^{ 1 2 3 }' does not have degree 2"),
    ("e^{1 2}\t+\t2 *e^{0 3}", 7, 2, "index out of range 1..7 in '2 *e^{0 3}'"),
    ("e^{1 2} - b a d e^{3 4}", 7, 2, "invalid rational literal 'b a d'"),
    ("e^{1 2} - e^{3 4 } x ", 7, 2, "cannot parse form term 'e^{3 4 } x'"),
    ("e^{1 2} + 2 / 0 * e^{3 4}", 7, 2, "invalid rational literal '2 / 0'"),
    ("e^{1 2} + 1 . 5*e^{3 4}", 7, 2, "invalid rational literal '1 . 5'"),
])
def test_parse_form_errors_quote_the_term_as_written(text, dim, degree, message):
    # the literal is read without its whitespace, but a message names the
    # characters of text that hold the term, from its first to its last
    with pytest.raises(ValueError) as info:
        parse_form(text, dim, degree)
    assert str(info.value) == message


def test_context_mismatch_is_rejected():
    ctx_form = parse_form("e^{1 2}", 7, 2, ("t",))
    with pytest.raises(ContextMismatchError):
        wedge(ctx_form, parse_form("e^{3 4}", 7, 2))
    with pytest.raises(ValueError):
        wedge(parse_form("e^{1 2}", 6, 2), parse_form("e^{3 4}", 7, 2))


def test_public_constructor_rejects_malformed_input():
    one = PolyScalar.constant(1)
    for idx, message in [
        ((2, 1), "not strictly increasing"),
        ((1, 1), "not strictly increasing"),
        ((1, 8), "out of range 1..7"),
        ((1, 2, 3), "does not have degree 2"),
    ]:
        with pytest.raises(ValueError, match=message):
            AltForm(7, 2, (), {idx: one})
    with pytest.raises(ContextMismatchError):
        AltForm(7, 2, ("t",), {(1, 2): one})
    for context, message in [(("1x",), "invalid symbol name"), (("a", "a"), "duplicate symbol")]:
        with pytest.raises(ValueError, match=message):
            AltForm(7, 3, context)


def test_form_indices_are_ints():
    one = PolyScalar.constant(1)
    for idx in [(1.7,), (1.0,), ("1",), (True,)]:  # (1.7,) is not e^{1}, nor is (True,)
        with pytest.raises(TypeError, match="form indices are ints"):
            AltForm(3, 1, (), {idx: one})
    with pytest.raises(TypeError, match="form indices are ints"):
        basis_form(3, (True,))
    assert AltForm(3, 1, (), {(1,): one}).render() == "e^{1}"


def test_form_coefficients_are_polyscalars():
    for coeff in (Fraction(1), 1, "1"):
        with pytest.raises(TypeError, match="form coefficients are PolyScalars"):
            AltForm(3, 1, (), {(1,): coeff})


def test_contract_index_is_an_int():
    phi = F("e^{1 2 3} + e^{1 4 5}")
    for index in (1.0, True, "1"):  # each was read as e_1
        with pytest.raises(TypeError, match="contraction index is an int"):
            contract(index, phi)
    assert contract(1, phi) == F("e^{2 3} + e^{4 5}", degree=2)


@pytest.mark.parametrize("parse, args, match, error", [
    (parse_form, ("e^{1}", True), "dimension and degree are ints", TypeError),  # dim True
    (parse_form, ("e^{1}", 7, True), "dimension and degree are ints", TypeError),  # degree True
    (parse_form, ("e^{1}", 7.0), "dimension and degree are ints", TypeError),
    (parse_form, (None, 7), "a form literal is a str", TypeError),  # AttributeError
    (parse_form, (b"e^{1}", 7), "a form literal is a str", TypeError),  # AttributeError
    (parse_rational, (3,), "a rational literal is a str", TypeError),  # AttributeError
    (parse_rational, (Fraction(1, 2),), "a rational literal is a str", TypeError),
    (PolyScalar.parse, (3, ()), "a polynomial literal is a str", TypeError),  # AttributeError
    (PolyScalar.parse, (None, ("t",)), "a polynomial literal is a str", TypeError),
    # AltForm's words, in its order: dimension, then degree, then context
    (parse_form, ("e^{1}", 0), "dimension must be positive", ValueError),  # "range 1..0"
    (parse_form, ("e^{1}", -3), "dimension must be positive", ValueError),  # "range 1..-3"
    (parse_form, ("e^{1}", 7, -1), "degree must be nonnegative", ValueError),  # "degree -1"
    (parse_form, ("e^{1}", 0, -1), "dimension must be positive", ValueError),
    (parse_form, ("e^{1}", 7, -1, ("a", "a")), "degree must be nonnegative", ValueError),
])
def test_parsers_refuse_a_non_literal_and_a_bool_size(parse, args, match, error):
    with pytest.raises(error, match=match):
        parse(*args)


def test_combination_matches_the_sum_of_scaled_members():
    # one pass over the members against a + of each member times its symbol, with
    # denominators, zero members, a repeated name and cancelling members
    rng = random.Random(3209)
    for t in range(60):
        n, k = rng.randint(3, 7), rng.randint(0, 3)
        context = tuple(f"c{i}" for i in range(rng.randint(1, 5)))
        pairs = [(rng.choice(context), random_form(rng, n, k, density=rng.choice([0.0, 0.3, 1.0])))
                 for _ in range(rng.randint(0, 6))]
        if pairs and t % 3 == 0:
            pairs.append((pairs[0][0], -pairs[0][1]))
        expected = AltForm(n, k, context)
        for name, member in pairs:
            symbol = PolyScalar.symbol(name, context)
            expected = expected + member.with_symbols(context).scale(symbol)
        assert combination(n, k, context, iter(pairs)) == expected


def test_combination_rejects_what_it_cannot_place():
    phi, context = F("e^{1 2 3} - 1/2*e^{4 5 6}"), ("a", "b")
    generic = combination(7, 3, context, [("a", phi), ("b", F("e^{1 2 4}"))])
    assert generic.render() == "(a)*e^{1 2 3} + (b)*e^{1 2 4} + (-1/2*a)*e^{4 5 6}"
    assert combination(7, 3, context, []) == AltForm(7, 3, context)
    for name, member, message in [
        ("c", phi, "not in context"),
        ("a", F("e^{1 2}"), "rational 3-form on a 7-space"),
        ("a", F("e^{1 2 3}", 6), "rational 3-form on a 7-space"),
        ("a", phi.with_symbols(context).scale(PolyScalar.symbol("b", context)), "rational"),
    ]:
        with pytest.raises(ValueError, match=message):
            combination(7, 3, context, [(name, member)])
