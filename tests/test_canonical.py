"""Canonical-form laws: every operation result equals its public-constructor rebuild.

PolyScalar's ``+`` and ``-x``, ``substitute``, the form operations,
``ExteriorOp.apply`` and ``pullback`` build their results without
validation, so each result here is rebuilt through ``PolyScalar(...)`` or
``AltForm(...)`` (which drop zero coefficients and check every index) and
must come back unchanged.  A form reached by different routes must also
have one integer layout: equal ``(den, layers)``, no zero int and
gcd(den, every int) = 1.
Inputs use tiny coefficients and exponents so that sums cancel often.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from g2forms.exterior import (  # noqa: E402
    AltForm, ExteriorOp, combination, contract, form_to_vector, monomials, parse_form, pullback,
    wedge,
)
from g2forms.scalars import PolyScalar  # noqa: E402
from conftest import poly_mul, vector_to_form  # noqa: E402

CTX = ("s", "t")
DIM = 4

small = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2)])


@st.composite
def polys(draw, symbols=CTX, max_terms=3):
    exponents = st.tuples(*[st.integers(0, 1) for _ in symbols])
    return PolyScalar(symbols, draw(st.dictionaries(exponents, small, max_size=max_terms)))


@st.composite
def forms(draw, degree, symbols=CTX):
    keys = st.sampled_from(monomials(DIM, degree))
    coeffs = draw(st.dictionaries(keys, polys(symbols, max_terms=2), max_size=4))
    return AltForm(DIM, degree, symbols, coeffs)


def canonical_poly(p: PolyScalar) -> None:
    rebuilt = PolyScalar(p.symbols, p.terms)
    assert rebuilt.symbols == p.symbols and rebuilt.terms == p.terms


def canonical_form(alpha: AltForm) -> None:
    rebuilt = AltForm(alpha.dim, alpha.degree, alpha.symbols, alpha.coeffs)
    assert rebuilt.coeffs == alpha.coeffs
    for coeff in alpha.coeffs.values():
        canonical_poly(coeff)


@given(polys(), polys(), polys())
def test_poly_operations_are_canonical_and_obey_ring_laws(p, q, r):
    zero = PolyScalar(CTX)
    for result in (p + q, p + -q, -p, p + -p, p + zero):
        canonical_poly(result)
    assert (p + q) + r == p + (q + r) and p + q == q + p
    assert p + zero == p and (p + -p).is_zero()
    # poly_mul's own laws are tested in test_scalars.py; here it meets the engine's sums
    assert poly_mul(p, q + r) == poly_mul(p, q) + poly_mul(p, r)


@given(polys(), polys(), small | st.just(Fraction(0)), st.sampled_from(CTX))
def test_substitution_is_canonical_and_a_ring_homomorphism(p, q, value, name):
    point = {name: value}
    for result in (p.substitute(point), poly_mul(p, q).substitute(point)):
        canonical_poly(result)
    assert poly_mul(p, q).substitute(point) == poly_mul(p.substitute(point), q.substitute(point))
    assert (p + q).substitute(point) == p.substitute(point) + q.substitute(point)


@given(forms(2), forms(2), forms(1), polys(), small | st.just(Fraction(0)))
def test_form_operations_are_canonical(alpha, beta, gamma, p, c):
    for result in (alpha + beta, alpha - beta, alpha - alpha, alpha.scale(c), alpha.scale(p)):
        canonical_form(result)
    assert alpha.scale(0).is_zero()
    for result in (wedge(alpha, beta), wedge(gamma, alpha), wedge(alpha, wedge(beta, gamma))):
        canonical_form(result)
    assert wedge(wedge(gamma, alpha), beta) == wedge(gamma, wedge(alpha, beta))
    for i in range(1, DIM + 1):
        canonical_form(contract(i, alpha))
        canonical_form(contract(i, wedge(gamma, alpha)))


# rational operators and forms: their sums in ``apply`` cancel far more often
@given(
    st.dictionaries(
        st.integers(1, DIM),
        st.lists(st.tuples(st.sampled_from(monomials(DIM, 1)), polys(())), max_size=3),
        max_size=DIM,
    ),
    forms(2, ()),
)
def test_derivation_apply_is_canonical(image, alpha):
    canonical_form(ExteriorOp(DIM, 2, 0, (), image).apply(alpha))


def _constants(values, symbols=CTX):
    return {i: [(rep, PolyScalar.constant(c, symbols)) for rep, c in pairs] for i, pairs in values}


HALF = Fraction(1, 2)


# rational entries with denominators in a symbolic context: the integer
# lane sums lifted terms per (output monomial, exponents), and its sums
# cancel, as in the example (e^{14} - e^{24} -> e^{34}/2 - e^{34}/2)
@given(
    st.lists(
        st.tuples(
            st.integers(1, DIM),
            st.lists(st.tuples(st.sampled_from(monomials(DIM, 1)),
                               st.sampled_from([HALF, -HALF, Fraction(1, 3), Fraction(-3, 4)])),
                     max_size=3),
        ),
        max_size=DIM,
    ).map(_constants),
    forms(2),
)
@example(
    _constants([(1, [((3,), HALF)]), (2, [((3,), HALF)])]),
    AltForm(DIM, 2, CTX, {(1, 4): PolyScalar.constant(1, CTX),
                          (2, 4): -PolyScalar.constant(1, CTX)}),
)
def test_rational_derivation_apply_is_canonical(image, alpha):
    canonical_form(ExteriorOp(DIM, 2, 0, CTX, image).apply(alpha))


@given(
    st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=DIM, max_size=DIM),
             min_size=DIM, max_size=DIM),
    forms(2, ()),
)
def test_pullback_is_canonical(matrix, alpha):
    canonical_form(pullback(alpha, matrix))


def layout(alpha: AltForm) -> tuple:
    """(den, layers) of alpha, after checking that they are normalized."""
    ints = [v for layer in alpha.layers.values() for v in layer.values()]
    assert all(alpha.layers.values()) and 0 not in ints
    assert alpha.den >= 1 and gcd(alpha.den, *ints) == 1
    return alpha.den, alpha.layers


def basis_1form(i: int, symbols=()) -> AltForm:
    return AltForm(DIM, 1, symbols, {(i,): PolyScalar.constant(1, symbols)})


def same_layout(routes) -> None:
    layouts = [layout(alpha) for alpha in routes]
    assert all(other == layouts[0] for other in layouts[1:])


IDENTITY = [[int(r == c) for c in range(DIM)] for r in range(DIM)]


# ``e^i -> e^i`` extends to the derivation that multiplies a k-form by k
NUMBER_OP = {i: [((i,), PolyScalar.constant(1))] for i in range(1, DIM + 1)}


@given(forms(2, ()), forms(2, ()), st.integers(1, DIM))
def test_rational_routes_to_one_form_give_one_layout(alpha, beta, i):
    e_i = basis_1form(i)
    same_layout([
        alpha,
        AltForm(DIM, 2, (), alpha.coeffs),
        parse_form(alpha.render(), DIM, 2),
        vector_to_form(form_to_vector(alpha, monomials(DIM, 2)), DIM, 2),
        pullback(alpha, IDENTITY),
        ExteriorOp(DIM, 2, 0, (), NUMBER_OP).apply(alpha).scale(HALF),
        contract(i, wedge(e_i, alpha)) + wedge(e_i, contract(i, alpha)),
        (alpha + beta) - beta,
        beta + (alpha - beta),
        alpha.scale(2).scale(HALF),
        -(-alpha),
    ])


@given(forms(2), forms(2), polys(), st.integers(1, DIM))
def test_symbolic_routes_to_one_form_give_one_layout(alpha, beta, p, i):
    e_i, one = basis_1form(i, CTX), AltForm(DIM, 0, CTX, {(): PolyScalar.constant(1, CTX)})
    same_layout([
        alpha,
        AltForm(DIM, 2, CTX, alpha.coeffs),
        wedge(one, alpha),
        contract(i, wedge(e_i, alpha)) + wedge(e_i, contract(i, alpha)),
        (alpha + beta) - beta,
        beta + (alpha - beta),
    ])
    # the product with p, through the test-side PolyScalar product and through the layers
    same_layout([
        AltForm(DIM, 2, CTX, {idx: poly_mul(c, p) for idx, c in alpha.coeffs.items()}),
        alpha.scale(p),
        wedge(AltForm(DIM, 0, CTX, {(): p}), alpha),
    ])


@given(forms(2, ()), forms(2, ()))
def test_combination_is_the_symbolic_sum(gamma, delta):
    s, t = PolyScalar.parse("s", CTX), PolyScalar.parse("t", CTX)
    g, d = gamma.with_symbols(CTX), delta.with_symbols(CTX)
    keys = set(gamma.coeffs) | set(delta.coeffs)
    same_layout([
        combination(DIM, 2, CTX, [("s", gamma), ("t", delta)]),
        combination(DIM, 2, CTX, [("t", delta), ("s", gamma)]),
        g.scale(s) + d.scale(t),
        AltForm(DIM, 2, CTX, {k: poly_mul(g.coefficient(k), s) + poly_mul(d.coefficient(k), t)
                              for k in keys}),
    ])
