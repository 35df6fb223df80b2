import random
from fractions import Fraction

import pytest

import models
from conftest import (
    dense_components,
    dense_jacobi_violations,
    dense_matrix,
    from_matrices_by_span_solve,
    poly_mul,
    random_rational,
    random_unimodular,
    realify_matrix,
)
from g2forms.catalog import bundled_ids, load_bundled
from g2forms.invariants import d_squared_check
from g2forms.liealg import (
    HomogeneousSpaceData,
    LieStructureError,
    MatrixBasis,
    from_matrices,
    homogeneous_from_partial,
    jacobi_check,
    reductive_split,
)
from g2forms.scalars import PolyScalar


def C(value, symbols=()):
    return PolyScalar.constant(value, symbols)


def algebra_from(constants, dim):
    table = {
        key: {r: C(x) for r, x in comps.items()} for key, comps in constants.items()
    }
    return HomogeneousSpaceData(dim, [], table)


def test_sl3r_bracket_e6_e7():
    algebra = from_matrices(MatrixBasis(models.sl3r_matrices()))
    comps = dense_components(algebra.bracket_of(6, 7), 8)
    assert [c.render() for c in comps] == ["0", "0", "0", "0", "0", "0", "0", "-2"]
    assert jacobi_check(algebra).ok


def test_so41_p_block_has_pauli_type_relations():
    # the three p-basis matrices close with [e_i, e_j] = 2 eps_ijk e_k
    p_only = MatrixBasis(models.so41_fixed_matrices()[:3])
    algebra = from_matrices(p_only)
    assert [c.render() for c in dense_components(algebra.bracket_of(1, 2), 3)] == ["0", "0", "2"]
    assert [c.render() for c in dense_components(algebra.bracket_of(2, 3), 3)] == ["2", "0", "0"]
    assert [c.render() for c in dense_components(algebra.bracket_of(3, 1), 3)] == ["0", "2", "0"]


def test_single_zero_matrix_gives_abelian_algebra():
    algebra = from_matrices(MatrixBasis([[[0]]]))
    assert algebra.dim_m == 1 and not algebra.bracket
    assert jacobi_check(algebra).ok


def test_dependent_basis_rejected():
    with pytest.raises(LieStructureError, match="dependent"):
        from_matrices(MatrixBasis([[[1, 0], [0, 1]], [[2, 0], [0, 2]]]))


def test_commutator_outside_span_rejected():
    e12 = [[0, 1], [0, 0]]
    e21 = [[0, 0], [1, 0]]
    with pytest.raises(LieStructureError, match=r"\[e1, e2\]"):
        from_matrices(MatrixBasis([e12, e21]))


def test_first_pair_outside_the_span_is_named():
    # [E13, E12] = 0, but [E13, E21] = -E23 and [E12, E21] = E11 - E22 both
    # leave the span.  Both vanish on the pivot entries (1,3), (1,2), (2,1),
    # so only the check on every entry rejects them; the first pair is named.
    e13, e12, e21 = ([[int((r, c) == rc) for c in range(3)] for r in range(3)]
                     for rc in ((0, 2), (0, 1), (1, 0)))
    as_complex = [[[(x, 0) for x in row] for row in m] for m in (e13, e12, e21)]
    for basis in (MatrixBasis([e13, e12, e21]), MatrixBasis.from_complex(as_complex)):
        with pytest.raises(LieStructureError) as caught:
            from_matrices(basis)
        assert str(caught.value) == "commutator [e1, e3] does not lie in the span of the basis"
        with pytest.raises(LieStructureError, match=r"^commutator \[e1, e3\] does not"):
            from_matrices_by_span_solve(basis)


def test_matrix_basis_refuses_malformed_input():
    one, i = (1, 0), (0, 1)
    for build, square, other, ragged in (
        (MatrixBasis, [[1, 0], [0, 1]], [[1]], [[1, 0], [0]]),
        (MatrixBasis.from_complex, [[one, i], [i, one]], [[i]], None),
    ):
        with pytest.raises(ValueError, match="^empty matrix basis$"):
            build([])
        with pytest.raises(ValueError, match="^matrices must be square and equally sized$"):
            build([square, other])
        if ragged is not None:
            with pytest.raises(ValueError, match="^matrices must be square and equally sized$"):
                build([square, ragged])
    with pytest.raises(ValueError, match="^complex matrix must be square$"):
        MatrixBasis.from_complex([[[one, i], [one]]])
    # a complex basis keeps its size: real parts in matrices, imaginary parts beside them
    basis = MatrixBasis.from_complex([[[one, i], [3, Fraction(1, 2)]]])
    assert basis.size == 2 and MatrixBasis([[[1]]]).imag is None
    assert basis.matrices == [[[1, 0], [3, Fraction(1, 2)]]] and basis.imag == [[[0, 1], [0, 0]]]


def test_complex_entries_are_pairs():
    # (1, 0, 5) was read as the real value 1, and (1,) raised IndexError
    for entry in ((1, 0, 5), (1,), [], [1, 0, 0]):
        with pytest.raises(ValueError, match="pair"):
            MatrixBasis.from_complex([[[entry, 0], [0, 0]], [[0, (0, 1)], [0, 0]]])
    basis = MatrixBasis.from_complex([[[[1, 2], 0], [0, 0]], [[0, (0, 1)], [0, 0]]])
    assert basis.matrices[0][0][0] == 1 and basis.imag[0][0][0] == 2


@pytest.mark.parametrize("build, entries", [
    (MatrixBasis, (0.1, 1.0, "1/2")),
    (MatrixBasis.from_complex, (0.1, 1.0, "1/2", (1, 0.5), (0.5, 1))),
], ids=["real", "complex"])
def test_matrix_entries_are_ints_or_fractions(build, entries):
    # a float entry would reach the bracket as its binary fraction
    for entry in entries:
        with pytest.raises(TypeError, match="ints or Fractions"):
            build([[[entry, 0], [0, 0]], [[0, 1], [0, 0]]])
    basis = build([[[Fraction(1, 10), 0], [0, 0]], [[0, 1], [0, 0]]])
    assert basis.matrices[0][0][0] == Fraction(1, 10)


def test_realified_su2_keeps_structure_constants():
    i = (0, 1)
    u1 = [[i, (0, 0)], [(0, 0), (0, -1)]]
    u2 = [[(0, 0), (1, 0)], [(-1, 0), (0, 0)]]
    u3 = [[(0, 0), i], [i, (0, 0)]]
    algebra = from_matrices(MatrixBasis.from_complex([u1, u2, u3]))
    assert [c.render() for c in dense_components(algebra.bracket_of(1, 2), 3)] == ["0", "0", "2"]
    assert [c.render() for c in dense_components(algebra.bracket_of(2, 3), 3)] == ["2", "0", "0"]
    assert [c.render() for c in dense_components(algebra.bracket_of(3, 1), 3)] == ["0", "2", "0"]
    real = realify_matrix(u1)
    assert real == [
        [Fraction(0), Fraction(0), Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(-1), Fraction(0), Fraction(0)],
    ]


def test_jacobi_violation_reported_with_triple():
    # [e1,e2] = e1, [e1,e3] = e2 fails Jacobi on (1,2,3): the cyclic sum is e2
    broken = algebra_from({(1, 2): {1: 1}, (1, 3): {2: 1}}, 3)
    report = jacobi_check(broken)
    assert not report.ok
    triples = [(i, j, k) for i, j, k, _ in report.violations]
    assert (1, 2, 3) in triples
    assert report.render() == (
        "jacobi: 1 violating triple(s)\n  (1,2,3): cyclic sum = (0, 1, 0)"
    )


def test_diagonal_three_dimensional_brackets_pass_jacobi():
    # flipping one sign of the so(3) constants gives so(2,1)-type data, which
    # still satisfies Jacobi: in dimension 3 every diagonal bracket does.
    flipped = algebra_from({(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: 1}}, 3)
    assert jacobi_check(flipped).ok
    assert jacobi_check(flipped).render() == "jacobi: valid"


def random_bracket_table(rng, n, symbols, density):
    """Random structure constants, rational or linear in the symbols."""
    table = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            comps = {}
            for r in range(1, n + 1):
                if rng.random() < density:
                    comps[r] = C(random_rational(rng, 3), symbols)
                    if symbols and rng.random() < 0.5:
                        symbol = PolyScalar.symbol(rng.choice(symbols), symbols)
                        comps[r] = poly_mul(comps[r], symbol)
            table[(i, j)] = comps
    return table


def test_jacobi_check_matches_dense_cyclic_sum_oracle():
    rng = random.Random(1948)
    violating = 0
    for trial in range(144):
        n = 2 + trial % 6
        symbols = ("a", "b") if trial % 4 >= 2 else ()
        algebra = HomogeneousSpaceData(
            n, [], random_bracket_table(rng, n, symbols, density=0.1 + 0.1 * (trial % 3)),
            symbols=symbols,
        )
        expected = dense_jacobi_violations(algebra)
        assert jacobi_check(algebra).violations == expected, (trial, n, symbols)
        violating += bool(expected)
    assert 40 <= violating <= 120  # both outcomes well represented
    # valid parametric tables: a Lie bracket scaled by a symbol stays one
    sl3r = from_matrices(MatrixBasis(models.sl3r_matrices()))
    scale = PolyScalar.symbol("a", ("a",)) + C(1, ("a",))
    scaled = HomogeneousSpaceData(sl3r.dim_m, [], {
        key: {r: poly_mul(c.with_symbols(("a",)), scale) for r, c in comps.items()}
        for key, comps in sl3r.bracket.items()
    }, symbols=("a",))
    assert dense_jacobi_violations(scaled) == []
    assert jacobi_check(scaled).ok


def test_jacobi_check_matches_the_oracle_at_the_bundled_sizes():
    # the bundled algebras have n = 8, 10 and 15: seeded sparse tables at n = 8..15
    rng = random.Random(1015)
    violating = 0
    for trial in range(48):
        n = 8 + trial % 8
        symbols = ("a", "b") if trial % 4 >= 2 else ()
        density = (1, 2, 4)[trial % 3] / (n * n)  # about n / 2, n or 2 n nonzero constants
        algebra = HomogeneousSpaceData(n, [], random_bracket_table(rng, n, symbols, density),
                                       symbols=symbols)
        expected = dense_jacobi_violations(algebra)
        assert jacobi_check(algebra).violations == expected, (trial, n, symbols)
        violating += bool(expected)
    assert 30 <= violating < 48  # mostly violating, some valid


@pytest.mark.parametrize("case_id", ["T1.n1", "T1.n2a", "T2.n1"])
def test_jacobi_check_refuses_data_with_isotropy(case_id):
    # d o d on the covectors of m is no Jacobi sum: they need not be invariant
    with pytest.raises(LieStructureError, match="needs a Lie algebra; the data has isotropy"):
        jacobi_check(load_bundled(case_id).homog_num())


def test_reductive_split_case_n1_isotropy_blocks():
    algebra = from_matrices(MatrixBasis(models.sl3r_matrices()))
    data = reductive_split(algebra, [8], [1, 2, 3, 4, 5, 6, 7])
    mat = [[entry.constant_value() for entry in row] for row in dense_matrix(data.isotropy[0], 7)]
    expected = [[Fraction(0)] * 7 for _ in range(7)]
    # one trivial direction and three rotation planes, the last at speed 2
    expected[2][1], expected[1][2] = Fraction(-1), Fraction(1)
    expected[4][3], expected[3][4] = Fraction(-1), Fraction(1)
    expected[6][5], expected[5][6] = Fraction(2), Fraction(-2)
    assert mat == expected
    assert not data.partial


def test_reductive_split_empty_isotropy_keeps_full_bracket():
    mats = models.sl3r_matrices()
    so3 = MatrixBasis([mats[1], mats[2], mats[7]])  # e2, e3, e8 close to so(3)
    algebra = from_matrices(so3)
    data = reductive_split(algebra, [], [1, 2, 3])
    assert data.isotropy == ()
    assert set(data.bracket) == set(algebra.bracket)
    assert data.bracket[(1, 2)] == algebra.bracket[(1, 2)]


def test_reductive_split_case_n4_h_acts_trivially_on_p():
    algebra = from_matrices(MatrixBasis(models.so41_fixed_matrices()))
    data = reductive_split(algebra, [8, 9, 10], [1, 2, 3, 4, 5, 6, 7])
    for mat in (dense_matrix(table, 7) for table in data.isotropy):
        for r in range(7):
            for c in range(3):
                assert mat[r][c].is_zero()
                assert mat[c][r].is_zero()


def test_reductive_split_round_trips_against_matrix_commutators():
    # reassembling each [e_h, e_m] from the isotropy columns must reproduce
    # the direct matrix commutator for matrix-born algebras
    mats = [[[Fraction(x) for x in row] for row in m] for m in models.sl3r_matrices()]
    algebra = from_matrices(MatrixBasis(models.sl3r_matrices()))
    data = reductive_split(algebra, [8], [1, 2, 3, 4, 5, 6, 7])
    iso = dense_matrix(data.isotropy[0], 7)
    for j in range(7):
        direct = [
            [
                sum(mats[7][r][k] * mats[j][k][c] - mats[j][r][k] * mats[7][k][c] for k in range(3))
                for c in range(3)
            ]
            for r in range(3)
        ]
        rebuilt = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(7):
            coeff = iso[i][j].constant_value()
            if coeff:
                for r in range(3):
                    for c in range(3):
                        rebuilt[r][c] += coeff * mats[i][r][c]
        assert rebuilt == direct


def test_reductive_split_validates_subalgebra_and_reductivity():
    algebra = from_matrices(MatrixBasis(models.sl3r_matrices()))
    with pytest.raises(LieStructureError, match="not a subalgebra"):
        reductive_split(algebra, [6, 7], [1, 2, 3, 4, 5, 8])
    sl2 = algebra_from({(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}, 3)
    with pytest.raises(LieStructureError, match="reductivity"):
        reductive_split(sl2, [2], [1, 3])
    with pytest.raises(LieStructureError, match="partition"):
        reductive_split(algebra, [8], [1, 2, 3])


def test_partial_data_antisymmetry_validation():
    good = homogeneous_from_partial(
        2, [], {(1, 2): {1: C(0), 2: C(1)}}
    )
    assert good.partial
    assert [c.constant_value() for c in dense_components(good.bracket[(1, 2)], 2)] == [0, 1]
    # a lone (2,1) entry is accepted and normalized
    flipped = homogeneous_from_partial(2, [], {(2, 1): {1: C(0), 2: C(1)}})
    assert [c.constant_value() for c in dense_components(flipped.bracket[(1, 2)], 2)] == [0, -1]
    with pytest.raises(LieStructureError, match="antisymmetric"):
        homogeneous_from_partial(
            2, [], {(1, 2): {1: C(0), 2: C(1)}, (2, 1): {1: C(0), 2: C(1)}}
        )


def test_constructor_validates_sparse_tables():
    one, foreign = C(1), C(1, ("t",))
    for isotropy, bracket, match in [
        ([{(1, 3): one}], {}, "isotropy: invalid index"),
        ([{(1, 2): foreign}], {}, "isotropy: context mismatch"),
        ([], {(1, 3): {1: one}}, "invalid bracket key"),
        ([], {(1, 1): {1: one}}, "invalid bracket key"),
        ([], {(1, 2): {3: one}}, r"bracket \[1,2\]: invalid index"),
        ([], {(1, 2): {1: foreign}}, r"bracket \[1,2\]: context mismatch"),
    ]:
        with pytest.raises(LieStructureError, match=match):
            HomogeneousSpaceData(2, isotropy, bracket)
    # zeros are dropped, and a lone reversed pair is stored negated
    data = HomogeneousSpaceData(2, [{(1, 1): C(0), (2, 1): one}], {(2, 1): {1: C(0), 2: one}})
    assert data.isotropy == ({(2, 1): one},)
    assert data.bracket == {(1, 2): {2: C(-1)}}
    assert HomogeneousSpaceData(2, [], {(1, 2): {1: C(0)}}).bracket == {}


def test_empty_bracket_accepted():
    data = homogeneous_from_partial(3, [], {})
    assert data.partial and not data.bracket


def test_instantiate_substitutes_everywhere():
    ctx = ("b",)
    bracket = {(1, 2): {1: PolyScalar.parse("3*b", ctx), 2: PolyScalar.zero(ctx)}}
    data = homogeneous_from_partial(2, [], bracket, symbols=ctx)
    numeric = data.instantiate({"b": Fraction(2)})
    assert numeric.symbols == ()
    assert dense_components(numeric.bracket[(1, 2)], 2)[0].constant_value() == 6
    # a component that vanishes at the assignment is dropped, and a pair
    # with nothing left is dropped with it
    vanishing = PolyScalar.parse("b - 2", ctx)
    data = homogeneous_from_partial(
        3,
        [{(1, 2): vanishing, (2, 1): PolyScalar.parse("b", ctx)}],
        {(1, 2): {1: PolyScalar.parse("3*b", ctx), 3: vanishing}, (1, 3): {2: vanishing}},
        symbols=ctx,
    )
    numeric = data.instantiate({"b": Fraction(2)})
    assert numeric.bracket == {(1, 2): {1: C(6)}}
    assert numeric.isotropy == ({(2, 1): C(2)},)
    # splitting a table that became zero this way finds no false failure:
    # symbolically [e1, e2] = (b - 2)(e1 + e3) breaks both conditions
    algebra = HomogeneousSpaceData(
        3, [], {(1, 2): {1: vanishing, 3: vanishing}}, symbols=ctx
    )
    with pytest.raises(LieStructureError, match="reductivity"):
        reductive_split(algebra, [1], [2, 3])
    with pytest.raises(LieStructureError, match="not a subalgebra"):
        reductive_split(algebra, [1, 2], [3])
    numeric = algebra.instantiate({"b": Fraction(2)})
    assert numeric.bracket == {}
    assert reductive_split(numeric, [1], [2, 3]).isotropy == ({},)
    assert reductive_split(numeric, [1, 2], [3]).bracket == {}


def test_restrict_checks_closure():
    bracket = {(1, 2): {3: C(1)}}
    data = homogeneous_from_partial(3, [], bracket)
    sub = data.restrict([1, 3])
    assert sub.dim_m == 2
    with pytest.raises(LieStructureError, match="leaves"):
        data.restrict([1, 2])
    rotation = homogeneous_from_partial(2, [{(1, 2): C(1), (2, 1): C(-1)}], {})
    with pytest.raises(LieStructureError, match="isotropy action does not preserve"):
        rotation.restrict([1])


@pytest.mark.parametrize("indices, match", [
    ([0], "ints in 1..3"),  # data named e3: index 0 read index -1
    ([4], "ints in 1..3"),  # IndexError
    ([-1, 1], "ints in 1..3"),
    ([True], "ints in 1..3"),
    ([1.0], "ints in 1..3"),
    ([1, 1], "repeat"),  # 2-dimensional data whose second copy never entered the tables
    ([3, 1, 3], "repeat"),
])
def test_restrict_rejects_bad_indices(indices, match):
    data = homogeneous_from_partial(3, [], {(1, 2): {3: C(1)}})
    with pytest.raises(LieStructureError, match=match):
        data.restrict(indices)


@pytest.mark.parametrize("h, m", [([8], [1, 1, 2, 3, 4, 5, 6, 7]), ([8, 8], [1, 2, 3, 4, 5, 6, 7])])
def test_reductive_split_rejects_repeated_indices(h, m):
    algebra = from_matrices(MatrixBasis(models.sl3r_matrices()))
    with pytest.raises(LieStructureError, match="repeat"):
        reductive_split(algebra, h, m)


def test_reductive_split_rejects_data_with_isotropy():
    algebra = from_matrices(MatrixBasis(models.sl3r_matrices()))
    data = reductive_split(algebra, [8], [1, 2, 3, 4, 5, 6, 7])
    with pytest.raises(LieStructureError, match="has isotropy"):
        reductive_split(data, [], [1, 2, 3, 4, 5, 6, 7])
    # the split keeps the partial flag of the data it splits
    partial = homogeneous_from_partial(3, [], {(1, 2): {3: C(1)}})
    assert reductive_split(partial, [], [1, 2, 3]).partial


MATRIX_MODELS = {
    "sl3r": lambda: MatrixBasis(models.sl3r_matrices()),
    "su21": lambda: MatrixBasis.from_complex(models.su21_matrices(0, 1)),
    "so32": lambda: MatrixBasis(models.so32_matrices()),
    "so41_fixed": lambda: MatrixBasis(models.so41_fixed_matrices()),
    "so41_diagonal": lambda: MatrixBasis(models.so41_diagonal_matrices()),
    "su31": lambda: MatrixBasis.from_complex(models.su31_matrices()),
}


def sheared_basis(rng, basis: MatrixBasis, shears: int) -> MatrixBasis:
    """f_c = sum_k P[k][c] e_k for a seeded rational P: a product of random
    shears with its columns scaled by nonzero rationals; a complex basis has
    its real and imaginary parts sheared alike."""
    n, size = len(basis), basis.size
    scale = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(n)]
    p = [[x * s for x, s in zip(row, scale)] for row in random_unimodular(rng, n, shears=shears)]

    def shear(mats):
        return [
            [[sum(p[k][c] * mats[k][r][s] for k in range(n)) for s in range(size)]
             for r in range(size)]
            for c in range(n)
        ]

    if basis.imag is None:
        return MatrixBasis(shear(basis.matrices))
    return MatrixBasis.from_complex([[list(zip(*rows)) for rows in zip(a, b)]
                                     for a, b in zip(shear(basis.matrices), shear(basis.imag))])


def assert_one_perturbed_constant_breaks_jacobi(rng, algebra, name):
    """Negative control: the violations are exactly those of the dense oracle."""
    table = {pair: dict(comps) for pair, comps in algebra.bracket.items()}
    pair = rng.choice(sorted(table))
    r = rng.randint(1, algebra.dim_m)
    table[pair][r] = table[pair].get(r, C(0)) + C(rng.choice([-2, -1, 1, 2]))
    broken = HomogeneousSpaceData(algebra.dim_m, [], table)
    violations = jacobi_check(broken).violations
    assert violations and violations == dense_jacobi_violations(broken), (name, pair, r)


def test_jacobi_and_d_squared_hold_in_random_matrix_bases():
    # few shears keep the d o d check on 2-forms of every model cheap; the
    # dense su(3,1) basis has a test of its own below
    rng = random.Random(2019)
    for name, builder in MATRIX_MODELS.items():
        algebra = from_matrices(sheared_basis(rng, builder(), shears=5))
        assert jacobi_check(algebra).ok, name
        for degree in (1, 2):
            assert d_squared_check(algebra, degree).ok, (name, degree)
        assert_one_perturbed_constant_breaks_jacobi(rng, algebra, name)


def test_jacobi_and_d_squared_hold_for_su31_in_a_dense_rational_basis():
    # 40 shears fill su(3,1)'s table: most of its 15 * 105 structure
    # constants are nonzero rationals with denominators
    rng = random.Random(40)
    algebra = from_matrices(sheared_basis(rng, MATRIX_MODELS["su31"](), shears=40))
    constants = [c.constant_value() for comps in algebra.bracket.values() for c in comps.values()]
    assert len(constants) > 1000 and any(c.denominator > 1 for c in constants)
    assert jacobi_check(algebra).ok
    for degree in (1, 2):
        assert d_squared_check(algebra, degree).ok, degree
    assert_one_perturbed_constant_breaks_jacobi(rng, algebra, "su31")


def structure_outcome(build, basis):
    """The sorted bracket table of ``build(basis)``, or its LieStructureError message."""
    try:
        algebra = build(basis)
    except LieStructureError as exc:
        return str(exc)
    return sorted((pair, sorted((r, c.render()) for r, c in comps.items()))
                  for pair, comps in algebra.bracket.items())


def bundled_matrix_bases():
    """(case id, complex?, matrices) of each bundled matrix-basis case, entries as
    Fractions or (re, im) pairs of them."""
    for case_id in bundled_ids():
        record = load_bundled(case_id)
        if record.source == "matrix-basis":
            mats = record.raw["matrices"]
            cx = any(isinstance(x, list) for m in mats for row in m for x in row)
            entry = (lambda x: tuple(map(Fraction, x))) if cx else Fraction
            yield case_id, cx, [[[entry(x) for x in row] for row in m] for m in mats]


def combine(p, mats, cx):
    """f_c = sum_k p[k][c] m_k, on (re, im) pairs when ``cx``."""
    def entry(c, r, s):
        if cx:
            return tuple(sum(p[k][c] * m[r][s][part] for k, m in enumerate(mats)) for part in (0, 1))
        return sum(p[k][c] * m[r][s] for k, m in enumerate(mats))
    size = len(mats[0])
    return [[[entry(c, r, s) for s in range(size)] for r in range(size)] for c in range(len(p[0]))]


def basis_variants(rng, mats, cx) -> list:
    """The basis as it is, sheared by two rational P (3 and 8 shears), with one
    matrix made dependent, and cut to three shuffled subsets of the first
    shear (mostly not closed)."""
    n = len(mats)
    variants = [mats]
    for shears in (3, 8):
        scale = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(n)]
        p = [[x * s for x, s in zip(row, scale)] for row in random_unimodular(rng, n, shears)]
        variants.append(combine(p, mats, cx))
    dependent, j = random_unimodular(rng, n, 4), rng.randrange(2, n)
    for row in dependent:
        row[j] = row[0] - 2 * row[1]
    variants.append(combine(dependent, mats, cx))
    for _ in range(3):
        k = rng.randint(2, n - 1)
        variants.append(rng.sample(variants[1], k))
    return variants


def outcome_kind(outcome) -> str:
    return ("brackets" if isinstance(outcome, list)
            else "dependent" if "dependent" in outcome else "outside")


def test_from_matrices_matches_the_full_span_solve():
    # each bundled basis in its variants (in its complex form too): the same
    # brackets or the same error as the oracle
    rng = random.Random(2024)
    seen = {"brackets": 0, "dependent": 0, "outside": 0}
    for case_id, cx, mats in bundled_matrix_bases():
        for variant in basis_variants(rng, mats, cx):
            basis = MatrixBasis.from_complex(variant) if cx else MatrixBasis(variant)
            got = structure_outcome(from_matrices, basis)
            assert got == structure_outcome(from_matrices_by_span_solve, basis), case_id
            seen[outcome_kind(got)] += 1
    assert all(count >= 5 for count in seen.values()), seen


def test_complex_bases_solve_as_their_realification():
    # every complex model and bundled complex basis in its variants: the
    # (re, im) coordinates give the brackets, or the error, of the realified
    # real matrices [[A, -B], [B, A]]
    rng = random.Random(28)
    bases = [("su21", models.su21_matrices(p, q)) for p, q in ((0, 1), (1, 1), (2, -3))]
    bases.append(("su31", models.su31_matrices()))
    bases += [(case_id, mats) for case_id, cx, mats in bundled_matrix_bases() if cx]
    assert {"T1.n2a", "T1.n2b", "T1.n2c", "su31"} <= {name for name, _ in bases}
    seen = {"brackets": 0, "dependent": 0, "outside": 0}
    for name, mats in bases:
        for variant in basis_variants(rng, mats, True):
            got = structure_outcome(from_matrices, MatrixBasis.from_complex(variant))
            real = MatrixBasis([realify_matrix(m) for m in variant])
            assert got == structure_outcome(from_matrices, real), name
            seen[outcome_kind(got)] += 1
    assert all(count >= 5 for count in seen.values()), seen
