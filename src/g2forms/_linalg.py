"""Exact linear algebra over Fraction matrices (lists of row lists).

Internal helper module: reduced row echelon form, nullspaces, determinants,
inverses and symmetric congruence diagonalization, all over Q with no
rounding.  Matrix sizes in this package stay tiny (n <= 64 or so), so the
implementations favour clarity over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list  # list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def copy(mat: Matrix) -> Matrix:
    return [list(row) for row in mat]


def transpose(mat: Matrix) -> Matrix:
    return [list(col) for col in zip(*mat)] if mat else []


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    m = copy(mat)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def nullspace(mat: Matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Canonical basis of the right nullspace (rows of the returned list)."""
    if ncols is None:
        if not mat:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(mat[0])
    reduced, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(vec)
    return row_space(basis) if basis else []


def row_space(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Canonical (RREF) basis of the span of the given rows."""
    reduced, pivots = rref(rows)
    return [reduced[i] for i in range(len(pivots))]


def spans_equal(rows_a: list, rows_b: list) -> bool:
    return row_space(rows_a) == row_space(rows_b)


def span_contains(big_rows: list, small_rows: list) -> bool:
    """True when span(small) is contained in span(big)."""
    return rank(big_rows) == rank(big_rows + small_rows)


def solve_many(mat: Matrix, rhs_cols: Matrix) -> list:
    """Solve ``mat @ x = b`` for every column b of rhs_cols.

    Returns a list with one solution vector (or None for an inconsistent
    system) per column.  Under-determined systems get the particular
    solution with free variables set to zero.  Each column is judged
    against the RREF of ``mat`` alone (via a tracked row transformation),
    so inconsistent columns cannot mask each other.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    k = len(rhs_cols[0]) if rhs_cols else 0
    aug = [list(mat[i]) + list(rhs_cols[i]) for i in range(nrows)]
    reduced, pivots = rref(aug)
    main = [c for c in pivots if c < ncols]
    # rows below the A-block pivots have a zero A-block; a column is
    # consistent iff all of them vanish there, in which case its entries in
    # the pivot rows are untouched by any cross-column elimination
    residual_rows = range(len(main), len(pivots))
    solutions = []
    for j in range(k):
        col = ncols + j
        if any(reduced[r][col] for r in residual_rows):
            solutions.append(None)
            continue
        x = [Fraction(0)] * ncols
        for r, c in enumerate(main):
            x[c] = reduced[r][col]
        solutions.append(x)
    return solutions


def det(mat: Matrix) -> Fraction:
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    m = copy(mat)
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def leading_principal_minors(mat: Matrix) -> list[Fraction]:
    n = len(mat)
    return [det([row[: k + 1] for row in mat[: k + 1]]) for k in range(n)]


def inverse(mat: Matrix) -> Matrix:
    n = len(mat)
    aug = [list(row) + list(idrow) for row, idrow in zip(mat, identity(n))]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


def congruence_diagonalize(sym: Matrix) -> list[tuple[Fraction, list[Fraction]]]:
    """Diagonalize a symmetric matrix by congruence, T^t S T diagonal.

    Returns pairs ``(d_i, v_i)`` where the v_i are the columns of T, so that
    S(v_i, v_i) = d_i and S(v_i, v_j) = 0 for i != j.  The signs of the d_i
    give the inertia of S; each v_i is an exact witness.
    """
    n = len(sym)
    s = copy(sym)
    t = identity(n)  # columns of t are the witness vectors

    def add_col(dst: int, src: int, factor: Fraction) -> None:
        for i in range(n):
            s[i][dst] += factor * s[i][src]
        for i in range(n):
            s[dst][i] += factor * s[src][i]
        for i in range(n):
            t[i][dst] += factor * t[i][src]

    def swap_col(a: int, b: int) -> None:
        for i in range(n):
            s[i][a], s[i][b] = s[i][b], s[i][a]
        s[a], s[b] = s[b], s[a]
        for i in range(n):
            t[i][a], t[i][b] = t[i][b], t[i][a]

    for k in range(n):
        if not s[k][k]:
            j = next((j for j in range(k + 1, n) if s[j][j]), None)
            if j is not None:
                swap_col(k, j)
            else:
                j = next((j for j in range(k + 1, n) if s[k][j]), None)
                if j is None:
                    continue  # row/column already zero: d_k = 0
                add_col(k, j, Fraction(1))  # s[k][k] becomes 2*s[k][j] != 0
        for j in range(k + 1, n):
            if s[k][j]:
                add_col(j, k, -s[k][j] / s[k][k])
    return [(s[i][i], [t[r][i] for r in range(n)]) for i in range(n)]
