import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from conftest import (
    congruence_by_fractions,
    fraction_det,
    fraction_inverse,
    lowered,
    random_symmetric,
)

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
    # canonical: the RREF row (1, -1/2, 0) as primitive ints over its leading entry
    assert _linalg._nullspace_ints(mat, 3) == [([2, -1, 0], 2)]
    assert _linalg._nullspace_ints([[0, 0, 3], [2, 4, 0]], 3) == [([2, -1, 0], 2)]


def test_nullspace_is_one_elimination(monkeypatch):
    calls = []
    original = _linalg._echelon

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_linalg, "_echelon", counting)
    mat = [[1, 2, 0, 3], [0, 0, 1, 1]]
    assert _linalg._nullspace_ints(mat, 4) == [([3, 0, 1, -1], 3), ([0, 3, 2, -2], 3)]
    assert len(calls) == 1


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
    assert _linalg.matmul(mat, inv) == [[F(1), F(0)], [F(0), F(1)]]
    assert _linalg.leading_principal_minors(mat) == [F(2), F(1)]


def test_leading_minors_continue_past_a_zero_pivot():
    swap = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    late = [[F(1), F(1), F(0), F(0)], [F(1), F(1), F(1), F(0)],
            [F(0), F(1), F(1), F(1)], [F(0), F(0), F(1), F(1, 2)]]
    for mat, expected in ((swap, [0, -1, -1]), (late, [1, 0, -1, F(-1, 2)])):
        minors = _linalg.leading_principal_minors(mat)
        assert minors == expected
        assert all(type(m) is Fraction for m in minors)


def test_congruence_diagonalize_gives_exact_witnesses():
    s = [[F(0), F(1)], [F(1), F(0)]]  # hyperbolic plane: inertia (1, 1)
    diag = _linalg.congruence_diagonalize(s)
    signs = sorted(1 if d > 0 else -1 if d < 0 else 0 for d, _ in diag)
    assert signs == [-1, 1]
    for d, v in diag:
        quad = sum(v[i] * s[i][j] * v[j] for i in range(2) for j in range(2))
        assert quad == d


@pytest.mark.parametrize("mat", [[[1, 0, 0], [0, 1, 0]], [[1, 2], [3]]])
def test_inverse_rejects_non_square_input(mat):
    with pytest.raises(ValueError, match="non-square"):
        _linalg.inverse(mat)


@pytest.mark.parametrize("mat", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2]]])
def test_leading_minors_reject_non_square_input(mat):
    with pytest.raises(ValueError, match="non-square"):
        _linalg.leading_principal_minors([[F(x) for x in row] for row in mat])


@pytest.mark.parametrize("a, b", [
    ([[1, 2]], [[1]]),  # two columns against one row
    ([[1]], [[1], [2]]),  # one column against two rows
    ([[1, 2], [3]], [[1], [2]]),  # a ragged left factor
    ([[1, 2]], [[1, 2], [3]]),  # a ragged right factor
])
def test_matmul_rejects_mismatched_shapes(a, b):
    with pytest.raises(ValueError, match="mismatched shapes"):
        _linalg.matmul([[F(x) for x in row] for row in a], [[F(x) for x in row] for row in b])


def test_inverse_exchanges_rows_only_at_a_zero_pivot():
    rng = random.Random(23)
    for n in range(1, 8):
        for _ in range(20):
            mat = [[F(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.6 else F(0)
                    for _ in range(n)] for _ in range(n)]
            mat[0][0] = F(0)  # a zero leading minor: the first step exchanges rows
            if fraction_det(mat) == 0:
                with pytest.raises(ValueError, match="singular"):
                    _linalg.inverse(mat)
            else:
                inverse = _linalg.inverse(mat)
                assert inverse == fraction_inverse(mat)
                assert _all_fractions(inverse)


KINDS = ("dense", "sparse", "zero-diagonal", "zero-row", "low-rank")


def test_congruence_diagonalize_matches_the_fraction_oracle():
    rng = random.Random(2023)
    for n in range(1, 8):
        for kind in KINDS:
            for _ in range(12):
                s = random_symmetric(rng, n, kind)
                diag = _linalg.congruence_diagonalize(s)
                assert diag == congruence_by_fractions(s)
                assert all(type(d) is F for d, _ in diag) and _all_fractions(v for _, v in diag)
                for i, (d, v) in enumerate(diag):  # T^t S T is diagonal, with entries d_i
                    for j, (_, w) in enumerate(diag[i:], start=i):
                        value = sum(v[a] * s[a][b] * w[b] for a in range(n) for b in range(n))
                        assert value == (d if i == j else 0)


def test_span_helpers():
    assert _linalg.rank([[2, 4, 0], [-1, -2, 0], [0, 0, 7]]) == 2


@pytest.mark.parametrize("name, args, match", [
    ("rref", ([[1], [3, 4]],), "ragged"),  # the 4 was dropped
    ("rref", ([[1, 2], [3]],), "ragged"),  # IndexError
    ("rank", ([[1, 2], [3]],), "ragged"),
    ("_nullspace_ints", ([[1, 2], [3]], 2), "ragged"),
    ("solve_many", ([[1, 0], [0, 1]], [[1], [2, 3]]), "ragged"),  # one solution came back
    ("solve_many", ([[1, 0]], [[1], [2]]), "argument 2 is longer"),  # the second row was dropped
    ("solve_many", ([[1, 0], [0, 1]], [[1]]), "argument 2 is shorter"),  # IndexError
])
def test_ragged_input_raises(name, args, match):
    with pytest.raises(ValueError, match=match):
        getattr(_linalg, name)(*args)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_rank_of_stacked_rows_agrees_with_sympy(seed):
    # span(small) lies in span(big) when stacking small adds no rank, as the
    # catalog's closed_subset_of reads it: rank agrees with sympy on the stacks.
    # big: the seeded cases (dependent, zero, int and mixed rows) and no rows;
    # small: no rows, a zero row, int and rational combinations of big's rows,
    # and random rows, alone and mixed in
    sympy = pytest.importorskip("sympy")

    def sympy_rank(rows):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in rows]).rank()

    rng = random.Random(seed)
    verdicts = []
    for big in chain(_oracle_cases(seed, 0.5), _integer_cases(seed, 0.5)):
        ncols = len(big[0])

        def combination(scale):
            coeffs = [rng.randint(-3, 3) for _ in big]
            return [scale * sum(c * row[k] for c, row in zip(coeffs, big)) for k in range(ncols)]

        inside = [combination(1), combination(F(rng.randint(1, 5), rng.randint(1, 5)))]
        outside = [[rng.randint(-3, 3) for _ in range(ncols)],
                   _random_matrix(rng, 1, ncols, 0.5)[0]]
        smalls = [[], [[0] * ncols], [[F(0)] * ncols], inside, outside, inside + outside[:1],
                  outside[1:] + inside, big]
        for bigs in (big, []):
            for small in smalls:
                ranks = _linalg.rank(bigs), _linalg.rank(bigs + small)
                assert ranks == (sympy_rank(bigs), sympy_rank(bigs + small)), (bigs, small)
                verdicts.append(ranks[0] == ranks[1])
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10


@pytest.mark.parametrize("density", [0.1, 1.0])
@pytest.mark.parametrize("seed", [4, 5, 6])
def test_integer_nullspace_rows_are_primitive_over_their_pivot(seed, density):
    # Fraction rows (full rank, rank-deficient, zero rows, wide and tall), int
    # and mixed rows, an all-zero and a full-rank one, and no rows at all
    cases = [(mat, len(mat[0])) for mat in chain(_oracle_cases(seed, density),
                                                 _integer_cases(seed, density))]
    for mat, ncols in cases + [([], 3), ([], 0)]:
        kernel = _linalg._nullspace_ints(mat, ncols)
        assert len(kernel) == ncols - _linalg.rank(mat)
        rows = lowered(kernel)
        if rows:  # the Fraction rows are their own RREF
            assert _linalg.rref(rows)[0] == rows
        for ints, den in kernel:
            assert all(type(x) is int for x in ints) and type(den) is int
            assert den > 0 and gcd(*ints) == 1
            pivot = next(c for c, x in enumerate(ints) if x)
            assert ints[pivot] == den
            for mat_row in mat:  # M row = 0 with bare Fraction arithmetic
                assert sum((Fraction(a) * Fraction(x, den) for a, x in zip(mat_row, ints)),
                           Fraction(0)) == 0


def _random_entry(rng, density):
    if rng.random() >= density:
        return F(0)
    return F(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))


def _random_matrix(rng, nrows, ncols, density, rank=None):
    """Random rational matrix; with ``rank``, a product of two thin factors."""
    if rank is None:
        return [[_random_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]
    left = _random_matrix(rng, nrows, rank, density)
    right = _random_matrix(rng, rank, ncols, density)
    return [
        [sum((left[i][k] * right[k][j] for k in range(rank)), F(0)) for j in range(ncols)]
        for i in range(nrows)
    ]


def _oracle_cases(seed, density):
    """Shapes 1 x n, n x 1, square, wide and tall; full rank, rank-deficient and zero rows."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    shapes = [(1, n), (n, 1), (n, n), (n, n + 2), (n + 2, n)]
    for nrows, ncols in shapes:
        yield _random_matrix(rng, nrows, ncols, density)
        deficient = max(1, rng.randint(0, min(nrows, ncols) - 1))
        yield _random_matrix(rng, nrows, ncols, density, rank=deficient)
        with_zero_rows = _random_matrix(rng, nrows, ncols, density)
        for i in rng.sample(range(nrows), rng.randint(1, nrows)):
            with_zero_rows[i] = [F(0)] * ncols
        yield with_zero_rows


def _integer_cases(seed, density):
    """Rows of Python ints, as ``invariants._kernel`` stacks them (a tall stack
    and a wide matrix), mixed int and Fraction rows, an all-zero matrix and a
    full-rank one."""
    rng = random.Random(seed + 100)
    n = rng.randint(2, 6)

    def ints(nrows, ncols):
        return [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)]

    yield ints(3 * n, n)
    yield ints(n, n + 2)
    mixed = _random_matrix(rng, n + 2, n, density)
    mixed[::2] = ints(len(mixed[::2]), n)
    mixed[1][0] = rng.randint(1, 3)  # a row with int and Fraction entries
    yield mixed
    yield [[0] * n for _ in range(n)]
    # triangular with a nonzero diagonal, rows shuffled
    full = [[rng.choice([-2, -1, 1, 2]) if i == j else rng.randint(-3, 3) * (j > i)
             for j in range(n)] for i in range(n)]
    rng.shuffle(full)
    yield full


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows if row is not None for x in row)


@pytest.mark.parametrize("density", [0.1, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_kernels_agree_with_sympy(seed, density):
    sympy = pytest.importorskip("sympy")

    def to_sympy(mat):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in mat])

    def to_fraction(x):
        return F(int(x.p), int(x.q))

    def from_sympy(mat):
        return [[to_fraction(x) for x in mat.row(i)] for i in range(mat.rows)]

    rng = random.Random(seed * 1000 + int(density * 10))
    for mat in chain(_oracle_cases(seed, density), _integer_cases(seed, density)):
        nrows, ncols = len(mat), len(mat[0])
        sym = to_sympy(mat)

        reduced, pivots = _linalg.rref(mat)
        sym_reduced, sym_pivots = sym.rref()
        assert (reduced, pivots) == (from_sympy(sym_reduced), list(sym_pivots))
        assert _linalg.rank(mat) == sym.rank()

        kernel = lowered(_linalg._nullspace_ints(mat, ncols))
        assert lowered(_linalg._reduced(mat)) == from_sympy(sym_reduced)[: len(sym_pivots)]
        sym_kernel = sym.nullspace()
        if sym_kernel:
            oracle, kernel_pivots = sympy.Matrix.hstack(*sym_kernel).T.rref()
            assert kernel == from_sympy(oracle)[: len(kernel_pivots)]
        else:
            assert kernel == []

        if nrows == ncols:
            det = sym.det()
            assert _linalg.det(mat) == to_fraction(det)
            minors = _linalg.leading_principal_minors(mat)
            assert minors == [to_fraction(sym[:k, :k].det()) for k in range(1, nrows + 1)]
            assert _all_fractions([minors])
            if det != 0:
                inverse = _linalg.inverse(mat)
                assert inverse == from_sympy(sym.inv())
                assert _all_fractions(inverse)
            else:
                with pytest.raises(ValueError):
                    _linalg.inverse(mat)

        # consistent columns mat @ x next to random ones, inconsistent when mat is deficient
        xs = _random_matrix(rng, ncols, 2, density)
        extras = _random_matrix(rng, nrows, 2, density)
        rhs = [row + extra for row, extra in zip(_linalg.matmul(mat, xs), extras)]
        solutions = _linalg.solve_many(mat, rhs)
        for j, solution in enumerate(solutions):
            column = to_sympy([[row[j]] for row in rhs])
            try:
                particular, params = sym.gauss_jordan_solve(column)
            except ValueError:
                assert solution is None
                continue
            free_zero = particular.subs({p: 0 for p in params})
            assert [[x] for x in solution] == from_sympy(free_zero)
        assert solutions[0] is not None and solutions[1] is not None

        other = _random_matrix(rng, ncols, rng.randint(1, 4), density)
        product = _linalg.matmul(mat, other)
        assert product == from_sympy(sym * to_sympy(other))

        assert _all_fractions(reduced) and _all_fractions(product)
        assert _all_fractions(solutions)

    # no rows: every column is free
    assert _linalg._nullspace_ints([], 3) == [([int(i == j) for j in range(3)], 1) for i in range(3)]
