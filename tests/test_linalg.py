from fractions import Fraction

from g2forms import _linalg

F = Fraction


def test_rref_and_rank():
    mat = [[F(2), F(4)], [F(1), F(2)]]
    reduced, pivots = _linalg.rref(mat)
    assert pivots == [0]
    assert reduced[0] == [F(1), F(2)]
    assert _linalg.rank(mat) == 1


def test_nullspace_is_canonical():
    mat = [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]
    kernel = _linalg.nullspace(mat)
    assert kernel == [[F(1), F(-1, 2), F(0)]] or kernel == [[F(-2), F(1), F(0)]]
    # canonical: rref'd, so leading entry is 1
    assert kernel[0][0] == 1


def test_solve_many_does_not_mask_inconsistent_columns():
    # two identical inconsistent right-hand sides: both must come back None
    a = [[F(1)], [F(0)]]
    rhs = [[F(0), F(0)], [F(1), F(1)]]
    assert _linalg.solve_many(a, rhs) == [None, None]
    # a consistent column after an inconsistent one is still solved
    rhs = [[F(0), F(3)], [F(1), F(0)]]
    assert _linalg.solve_many(a, rhs) == [None, [F(3)]]


def test_solve_underdetermined_uses_zero_free_variables():
    a = [[F(1), F(1)]]
    assert _linalg.solve_many(a, [[F(5)]]) == [[F(5), F(0)]]
    assert _linalg.solve_many([[F(0)]], [[F(1)]]) == [None]


def test_det_inverse_and_minors():
    mat = [[F(2), F(1)], [F(1), F(1)]]
    assert _linalg.det(mat) == 1
    inv = _linalg.inverse(mat)
    assert _linalg.matmul(mat, inv) == _linalg.identity(2)
    assert _linalg.leading_principal_minors(mat) == [F(2), F(1)]


def test_congruence_diagonalize_gives_exact_witnesses():
    s = [[F(0), F(1)], [F(1), F(0)]]  # hyperbolic plane: inertia (1, 1)
    diag = _linalg.congruence_diagonalize(s)
    signs = sorted(1 if d > 0 else -1 if d < 0 else 0 for d, _ in diag)
    assert signs == [-1, 1]
    for d, v in diag:
        quad = sum(v[i] * s[i][j] * v[j] for i in range(2) for j in range(2))
        assert quad == d


def test_span_helpers():
    a = [[F(1), F(0)], [F(0), F(1)]]
    b = [[F(1), F(1)], [F(1), F(-1)]]
    assert _linalg.spans_equal(a, b)
    assert _linalg.span_contains(a, [[F(2), F(3)]])
    assert not _linalg.span_contains([[F(1), F(0)]], [[F(0), F(1)]])
