"""Exact linear algebra over Fraction matrices (lists of row lists).

Internal helper module: reduced row echelon form, nullspaces, solves,
inverses, products, determinants and symmetric congruence diagonalization,
all over Q with no rounding.  Every returned entry is a Fraction, never an
int: callers divide entries, and a quotient of two ints is a float.

The kernels compute on Python ints inside, because a gcd per Fraction
operation dominated their cost.  :func:`rref` and :func:`nullspace` share
one elimination: it scales each row to integers by the lcm of its
denominators (a row of ints, as ``ExteriorOp.rows()`` gives, is taken as
it is) and runs Gauss-Jordan fraction-free, keeping rows primitive by their
gcd.  :func:`rref` divides by the pivots once at the end; :func:`nullspace`
builds each kernel vector as ints from the primitive rows and echelonizes
those, with no Fraction in between.  The reduced row echelon form is
unique, so :func:`rank`, :func:`nullspace`, :func:`row_space`,
:func:`solve_many` and :func:`inverse` give the same Fractions as
elimination over Q.
:func:`matmul` scales ``b`` (in ``closed_forms``, the invariant basis) to
integers once and builds one Fraction per output entry from the nonzero
entries alone.  :func:`det` and :func:`leading_principal_minors` run Bareiss
elimination on the row-scaled integers, where every division is exact; one
pass without row exchanges gives the whole minor chain.

:func:`congruence_diagonalize` stays on Fractions: its witness vectors are
printed certificates, and any change to its steps would change them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list  # list[list[Fraction]]

_ZERO = Fraction(0)


def identity(n: int) -> Matrix:
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def transpose(mat: Matrix) -> Matrix:
    return [list(col) for col in zip(*mat)] if mat else []


def _integer_row(row) -> tuple[list[int], int]:
    """(ints, den) with row == ints / den, den the lcm of the denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ncols = len(b[0]) if b else 0
    b_den = lcm(*(x.denominator for row in b for x in row))
    b_rows = [
        [(j, x.numerator * (b_den // x.denominator)) for j, x in enumerate(row) if x]
        for row in b
    ]
    out = []
    for row in a:
        a_ints, a_den = _integer_row(row)
        acc = [0] * ncols
        for x, b_row in zip(a_ints, b_rows):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        den = a_den * b_den
        out.append([Fraction(v, den) if v else _ZERO for v in acc])
    return out


def _echelon(mat: Matrix, ncols: int) -> tuple[list[list[int]], list[int]]:
    """(rows, pivot columns) of the fraction-free Gauss-Jordan behind :func:`rref`
    and :func:`nullspace`: row r < len(pivots) is primitive, with its pivot in
    column pivots[r] and zeros in the other pivot columns."""
    m = [row if {*map(type, row)} <= {int} else _integer_row(row)[0] for row in mat]
    nrows, pivots = len(m), []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        for i in range(nrows):
            if i != r and m[i][c]:
                g = gcd(top[c], m[i][c])
                p, f = top[c] // g, m[i][c] // g
                row = [p * x - f * y for x, y in zip(m[i], top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return m, pivots


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    ncols = len(mat[0]) if mat else 0
    m, pivots = _echelon(mat, ncols)
    reduced = [[Fraction(x, m[r][c]) if x else _ZERO for x in m[r]] for r, c in enumerate(pivots)]
    return reduced + [[_ZERO] * ncols for _ in range(len(m) - len(pivots))], pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def nullspace(mat: Matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Canonical basis of the right nullspace (rows of the returned list)."""
    if ncols is None:
        if not mat:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(mat[0])
    m, pivots = _echelon(mat, ncols)
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        # x_f = 1 and x_c = -m[r][f] / m[r][c] at each pivot (r, c), times their lcm
        rows = [(c, m[r]) for r, c in enumerate(pivots) if m[r][f]]
        vec = [0] * ncols
        vec[f] = den = lcm(*(row[c] for c, row in rows))
        for c, row in rows:
            vec[c] = -row[f] * (den // row[c])
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
    sign, pivots = _bareiss(mat, exchange=True)
    return sign * pivots[-1] if pivots else Fraction(1)


def leading_principal_minors(mat: Matrix) -> list[Fraction]:
    """The pivots of one pass without row exchanges, then from a zero pivot
    on each later minor by its own :func:`det`."""
    _, minors = _bareiss(mat, exchange=False)
    later = range(len(minors), len(mat))
    return minors + [det([row[: k + 1] for row in mat[: k + 1]]) for k in later]


def _bareiss(mat: Matrix, exchange: bool) -> tuple[int, list[Fraction]]:
    """Bareiss elimination on the row-scaled integers: (row exchange sign, pivots).

    The k-th pivot is the leading k x k minor of the rows as exchanged, so
    each division by the previous pivot is exact (Sylvester's identity).
    The pass stops at a zero pivot.
    """
    rows = [_integer_row(row) for row in mat]
    sign, prev, scale, pivots = 1, 1, 1, []
    for c in range(len(rows)):
        r = next((i for i in range(c, len(rows)) if rows[i][0][c]), c) if exchange else c
        if r != c:
            rows[c], rows[r], sign = rows[r], rows[c], -sign
        top, den = rows[c]
        p = top[c]
        scale *= den
        pivots.append(Fraction(p, scale))
        if not p:
            break
        for i, (row, d) in enumerate(rows[c + 1 :], start=c + 1):
            new = [(p * x - row[c] * y) // prev for x, y in zip(row[c + 1 :], top[c + 1 :])]
            rows[i] = row[: c + 1] + new, d
        prev = p
    return sign, pivots


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
    s = [list(row) for row in sym]
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
