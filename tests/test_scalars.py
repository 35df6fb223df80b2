import random
from fractions import Fraction

import pytest

from conftest import poly_mul, random_rational
from g2forms.scalars import ContextMismatchError, PolyScalar, parse_rational


CTX = ("a3", "a6", "a7")


def P(text, symbols=CTX):
    return PolyScalar.parse(text, symbols)


def test_additive_inverse_cancels():
    a3 = PolyScalar.symbol("a3", CTX)
    assert (a3 + (-a3)).is_zero()


def test_product_distributes_over_declared_sum():
    lhs = poly_mul(P("a6^2 + a7^2"), P("a3"))
    assert lhs == P("a3*a6^2 + a3*a7^2")
    assert lhs.render() == "a3*a6^2 + a3*a7^2"


def test_six_b_minus_two_vanishes_at_one_third():
    poly = PolyScalar.parse("6*b - 2", ("b",))
    assert poly.substitute({"b": Fraction(1, 3)}).is_zero()
    assert poly.substitute({"b": Fraction(1)}).constant_value() == 4


def test_substitution_annihilates_and_evaluates():
    assert P("a3*a6^2").substitute({"a3": Fraction(0)}).is_zero()
    poly = PolyScalar.parse("-6*a5^3", ("a5",))
    assert poly.substitute({"a5": Fraction(2)}).constant_value() == -48


def test_substitution_reduces_context():
    poly = P("a3*a6 + a7")
    sub = poly.substitute({"a6": Fraction(2)})
    assert sub.symbols == ("a3", "a7")
    assert sub == PolyScalar.parse("2*a3 + a7", ("a3", "a7"))


def test_unknown_symbol_in_assignment_rejected():
    with pytest.raises(ValueError, match="unknown symbol"):
        P("a3").substitute({"b": Fraction(1)})


def test_context_mismatch_names_both_contexts():
    with pytest.raises(ContextMismatchError) as err:
        P("a3") + PolyScalar.parse("b", ("b",))
    assert "a3" in str(err.value) and "b" in str(err.value)


def test_rationals_are_reduced_with_positive_denominator():
    assert parse_rational("2/4") == Fraction(1, 2)
    q = Fraction(1, -2)
    assert q.denominator > 0 and str(q) == "-1/2"
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_parse_rational_agrees_with_the_fraction_constructor():
    # seeded literals: signs, leading zeros, -0, long numerators and denominators,
    # surrounding whitespace; a zero denominator is refused
    rng = random.Random(28)

    def digits():
        return "0" * rng.randint(0, 2) + str(rng.randint(0, 10 ** rng.randint(1, 30)))

    for _ in range(300):
        den = rng.choice(["", "", "0", "00", digits(), digits()])
        body = rng.choice(["", "-"]) + digits() + ("/" + den if den else "")
        text = rng.choice(["", " ", "\t"]) + body + rng.choice(["", " ", "\n"])
        if den and not int(den):
            with pytest.raises(ValueError, match="invalid rational literal"):
                parse_rational(text)
        else:
            got = parse_rational(text)
            assert type(got) is Fraction and got == Fraction(body), text


@pytest.mark.parametrize("text", ["1.5", "1e3", "+3", "1_0", "\u0663", "1/\u0663", "\uff13"])
def test_parse_rational_reads_only_p_and_p_over_q(text):
    with pytest.raises(ValueError, match="invalid rational literal"):
        parse_rational(text)


def test_parse_reads_a_plain_rational_as_one_canonical_constant():
    for symbols in ((), ("a", "b")):
        assert PolyScalar.parse("-2/4", symbols).terms == {(0,) * len(symbols): Fraction(-1, 2)}
        assert PolyScalar.parse("0/3", symbols).terms == PolyScalar.parse("-0", symbols).terms == {}
        # outside the "p" / "p/q" grammar a literal is a symbol, and unknown
        for text in ("1/0", "1.5", "1e3"):
            with pytest.raises(ValueError):
                PolyScalar.parse(text, symbols)
    with pytest.raises(ValueError, match="invalid symbol"):
        PolyScalar.parse("3", ("1a",))


def test_parse_drops_whitespace_anywhere_and_reads_only_ascii_digits():
    for text in ("2*a^2\n", "2\t*a^2", "2*a^2\t", "\t2*a^2", "2 *\na ^ 2"):
        assert PolyScalar.parse(text, ("a",)) == P("2*a^2", ("a",)), text
    for text in ("\u0663", "\u0663*a", "a^\u0662", "a^\uff12", "1/\u0663*a"):
        with pytest.raises(ValueError):
            PolyScalar.parse(text, ("a",))


@pytest.mark.parametrize("text", ["a--b", "a+", "+", "-", "a+-b", "--a", "2*a - ", "a - - 1/2"])
def test_parse_rejects_dangling_signs(text):
    with pytest.raises(ValueError, match="dangling sign"):
        PolyScalar.parse(text, ("a", "b"))


def test_render_parse_round_trip():
    samples = [
        "0",
        "-a3",
        "6*a3*a6^2 + 6*a3*a7^2",
        "1/2*a3 - 2*a6",
        "a3^2*a7 - 5/3",
    ]
    for text in samples:
        assert P(text).render() == text


def test_constant_value_rejects_non_constant():
    with pytest.raises(ValueError):
        P("a3").constant_value()


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240)
    ctx = ("x", "y", "z")

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            expo = tuple(rng.randint(0, 2) for _ in ctx)
            terms[expo] = terms.get(expo, Fraction(0)) + random_rational(rng)
        return PolyScalar(ctx, terms)

    for _ in range(40):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) + r == p + (q + r)
        assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
        assert poly_mul(p, q + r) == poly_mul(p, q) + poly_mul(p, r)
        assert p + q == q + p
        assert poly_mul(p, q) == poly_mul(q, p)
        assert (p + -p).is_zero()  # canonical form: structural zero
        at = {name: random_rational(rng) for name in ctx}  # the product against evaluation
        assert poly_mul(p, q).substitute(at).constant_value() == (
            p.substitute(at).constant_value() * q.substitute(at).constant_value())


def test_zero_test_agrees_with_random_evaluation():
    rng = random.Random(77)
    ctx = ("x", "y")
    poly = PolyScalar.parse("x^2*y - 3*x + 1/2", ctx)
    zero = poly + -poly
    assert zero.is_zero()
    for _ in range(20):
        point = {"x": random_rational(rng), "y": random_rational(rng)}
        assert zero.substitute(point).constant_value() == 0
    # the nonzero polynomial evaluates nonzero somewhere among the samples
    values = [
        poly.substitute({"x": random_rational(rng), "y": random_rational(rng)})
        for _ in range(20)
    ]
    assert any(not v.is_zero() for v in values)


def test_power_and_scale():
    x = PolyScalar.symbol("x", ("x",))
    assert poly_mul(x, x, x).render() == "x^3"
    assert poly_mul(x, Fraction(-2)).render() == "-2*x"
    for value in (Fraction(-3, 2), Fraction(5)):  # against evaluation
        assert poly_mul(x, x, x, -2).substitute({"x": value}).constant_value() == -2 * value**3


def test_with_symbols_embeds_into_larger_context():
    poly = PolyScalar.parse("2*b - 1", ("b",))
    lifted = poly.with_symbols(("a", "b", "c"))
    assert lifted.symbols == ("a", "b", "c")
    assert lifted.render() == "2*b - 1"
    with pytest.raises(ValueError):
        poly.with_symbols(("a", "c"))


def test_public_constructor_rejects_malformed_input():
    with pytest.raises(ValueError, match="invalid symbol name '1x'"):
        PolyScalar(("1x",))
    with pytest.raises(ValueError, match="duplicate symbol 'a'"):
        PolyScalar(("a", "b", "a"))
    with pytest.raises(ValueError, match="does not match context of 2 symbols"):
        PolyScalar(("a", "b"), {(1,): Fraction(1)})
    with pytest.raises(ValueError, match="negative exponent"):
        PolyScalar(("a",), {(-1,): Fraction(1)})


@pytest.mark.parametrize("build", [
    lambda value: PolyScalar((), {(): value}),
    PolyScalar.constant,
    lambda value: PolyScalar.symbol("b", ("b",)).substitute({"b": value}),
], ids=["constructor", "constant", "substitute"])
def test_scalar_values_are_ints_or_fractions(build):
    # 0.1 is the binary fraction 3602879701896397/36028797018963968, not 1/10
    for value in (0.1, 2.0, "1/2"):
        with pytest.raises(TypeError, match="ints or Fractions"):
            build(value)
    assert build(2) == build(Fraction(2)) == PolyScalar.constant(Fraction(2))
    assert build(Fraction(1, 10)).render() == "1/10"
