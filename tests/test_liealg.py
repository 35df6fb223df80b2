import random
from fractions import Fraction

import pytest

from conftest import dense_jacobi_violations, random_rational
from g2forms.catalog import models
from g2forms.liealg import (
    HomogeneousSpaceData,
    LieStructureError,
    MatrixBasis,
    from_matrices,
    homogeneous_from_partial,
    jacobi_check,
    realify_matrix,
    reductive_split,
)
from g2forms.scalars import PolyScalar


def C(value, symbols=()):
    return PolyScalar.constant(value, symbols)


def algebra_from(constants, dim):
    table = {
        key: tuple(C(x) for x in comps) for key, comps in constants.items()
    }
    return HomogeneousSpaceData(dim, [], table)


def test_sl3r_bracket_e6_e7():
    algebra = from_matrices(MatrixBasis(models.sl3r_matrices()))
    comps = algebra.bracket_of(6, 7)
    assert [c.render() for c in comps] == ["0", "0", "0", "0", "0", "0", "0", "-2"]
    assert jacobi_check(algebra).ok


def test_so41_p_block_has_pauli_type_relations():
    # the three p-basis matrices close with [e_i, e_j] = 2 eps_ijk e_k
    p_only = MatrixBasis(models.so41_fixed_matrices()[:3])
    algebra = from_matrices(p_only)
    assert [c.render() for c in algebra.bracket_of(1, 2)] == ["0", "0", "2"]
    assert [c.render() for c in algebra.bracket_of(2, 3)] == ["2", "0", "0"]
    assert [c.render() for c in algebra.bracket_of(3, 1)] == ["0", "2", "0"]


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


def test_realified_su2_keeps_structure_constants():
    i = (0, 1)
    u1 = [[i, (0, 0)], [(0, 0), (0, -1)]]
    u2 = [[(0, 0), (1, 0)], [(-1, 0), (0, 0)]]
    u3 = [[(0, 0), i], [i, (0, 0)]]
    algebra = from_matrices(MatrixBasis.from_complex([u1, u2, u3]))
    assert [c.render() for c in algebra.bracket_of(1, 2)] == ["0", "0", "2"]
    assert [c.render() for c in algebra.bracket_of(2, 3)] == ["2", "0", "0"]
    assert [c.render() for c in algebra.bracket_of(3, 1)] == ["0", "2", "0"]
    real = realify_matrix(u1)
    assert real == [
        [Fraction(0), Fraction(0), Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(-1), Fraction(0), Fraction(0)],
    ]


def test_jacobi_violation_reported_with_triple():
    # [e1,e2] = e1, [e1,e3] = e2 fails Jacobi on (1,2,3): the cyclic sum is e2
    broken = algebra_from({(1, 2): (1, 0, 0), (1, 3): (0, 1, 0)}, 3)
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
    flipped = algebra_from(
        {(1, 2): (0, 0, 1), (2, 3): (1, 0, 0), (1, 3): (0, 1, 0)}, 3
    )
    assert jacobi_check(flipped).ok


def random_bracket_table(rng, n, symbols, density):
    """Random structure constants, rational or linear in the symbols."""
    table = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            comps = [C(0, symbols)] * n
            for r in range(n):
                if rng.random() < density:
                    comps[r] = C(random_rational(rng, 3), symbols)
                    if symbols and rng.random() < 0.5:
                        comps[r] = comps[r] * PolyScalar.symbol(rng.choice(symbols), symbols)
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
        key: [c.with_symbols(("a",)) * scale for c in comps]
        for key, comps in sl3r.bracket.items()
    }, symbols=("a",))
    assert dense_jacobi_violations(scaled) == []
    assert jacobi_check(scaled).ok


def test_reductive_split_case_n1_isotropy_blocks():
    algebra = from_matrices(MatrixBasis(models.sl3r_matrices()))
    data = reductive_split(algebra, [8], [1, 2, 3, 4, 5, 6, 7])
    mat = [[entry.constant_value() for entry in row] for row in data.isotropy[0]]
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
    for mat in data.isotropy:
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
    iso = data.isotropy[0]
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
    sl2 = algebra_from({(1, 2): (0, 2, 0), (1, 3): (0, 0, -2), (2, 3): (1, 0, 0)}, 3)
    with pytest.raises(LieStructureError, match="reductivity"):
        reductive_split(sl2, [2], [1, 3])
    with pytest.raises(LieStructureError, match="partition"):
        reductive_split(algebra, [8], [1, 2, 3])


def test_partial_data_antisymmetry_validation():
    good = homogeneous_from_partial(
        2, [], {(1, 2): (C(0), C(1))}
    )
    assert good.partial
    assert [c.constant_value() for c in good.bracket[(1, 2)]] == [0, 1]
    # a lone (2,1) entry is accepted and normalized
    flipped = homogeneous_from_partial(2, [], {(2, 1): (C(0), C(1))})
    assert [c.constant_value() for c in flipped.bracket[(1, 2)]] == [0, -1]
    with pytest.raises(LieStructureError, match="antisymmetric"):
        homogeneous_from_partial(
            2, [], {(1, 2): (C(0), C(1)), (2, 1): (C(0), C(1))}
        )


def test_empty_bracket_accepted():
    data = homogeneous_from_partial(3, [], {})
    assert data.partial and not data.bracket


def test_instantiate_substitutes_everywhere():
    ctx = ("b",)
    bracket = {(1, 2): (PolyScalar.parse("3*b", ctx), PolyScalar.zero(ctx))}
    data = homogeneous_from_partial(2, [], bracket, symbols=ctx)
    numeric = data.instantiate({"b": Fraction(2)})
    assert numeric.symbols == ()
    assert numeric.bracket[(1, 2)][0].constant_value() == 6


def test_restrict_checks_closure():
    bracket = {(1, 2): (C(0), C(0), C(1))}
    data = homogeneous_from_partial(3, [], bracket)
    sub = data.restrict([1, 3])
    assert sub.dim_m == 2
    with pytest.raises(LieStructureError, match="leaves"):
        data.restrict([1, 2])


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
    partial = homogeneous_from_partial(3, [], {(1, 2): (C(0), C(0), C(1))})
    assert reductive_split(partial, [], [1, 2, 3]).partial
