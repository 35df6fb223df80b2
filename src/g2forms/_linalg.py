"""Exact linear algebra over Fraction matrices (lists of row lists).

Internal helper module: ranks, RREF rows, nullspaces, solves, determinants
and symmetric congruence diagonalization, all over Q with no rounding.  A
returned matrix holds Fractions, never ints (a quotient of two ints is a
float), but the kernels compute on ints inside: a gcd per Fraction
operation dominated their cost.  The lift to ints refuses any entry but an
int or a Fraction with TypeError, in :func:`_denominator_lcm` alone.

:func:`_echelon`, one fraction-free Gauss-Jordan, scales each row to ints
by the lcm of its denominators (int rows, as ``invariants`` stacks them,
are taken as they are); a ragged row raises ValueError.  Each kernel is one
:func:`_echelon` call.  :func:`_reduced` gives each RREF row as primitive
ints over its pivot, and :func:`_nullspace_ints` so the RREF nullspace
basis, read off one elimination with the columns reversed: the invariant
and closed bases are built from these rows, and the catalog's span checks
compare them with the :func:`_reduced` rows of the printed forms.
:func:`rank` counts echelon pivots, and :func:`solve_many` divides the
echelon ints of [mat | rhs] once per nonzero solution entry.  The RREF is
unique, so every one gives the space of elimination over Q.  :func:`rref`
(the RREF as Fractions), :func:`matmul` (a plain Fraction product) and
:func:`inverse` have no product caller; they stay while the benchmark's
layer table names them.
:func:`det`, :func:`leading_principal_minors` and :func:`inverse` share one
Bareiss pass on D*mat (D the lcm of the denominators), every division
exact; one pass without row exchanges gives the minor chain, and the
inverse and the Hodge dual run its Gauss-Jordan form on [D*mat | I].
:func:`congruence_diagonalize` keeps the pivot sequence of elimination over
Q (its witnesses are printed certificates) on ints, each witness over its
own denominator beside its row of T^t (D*S) T.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list  # list[list[Fraction]]

_ZERO = Fraction(0)


def transpose(mat: Matrix) -> Matrix:
    return [list(col) for col in zip(*mat)] if mat else []


def _denominator_lcm(mat: Matrix) -> int:
    """The lcm of mat's denominators; TypeError unless each entry is an int or a Fraction."""
    try:
        return lcm(*(x.denominator for row in mat for x in row))
    except AttributeError:
        raise TypeError("matrix entries must be ints or Fractions") from None


def _integer_row(row) -> tuple[list[int], int]:
    """(ints, den) with row == ints / den, den the lcm of the denominators."""
    den = _denominator_lcm((row,))
    return [x.numerator * (den // x.denominator) for x in row], den


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ncols = len(b[0]) if b else 0
    if any(len(row) != len(b) for row in a) or any(len(row) != ncols for row in b):
        raise ValueError("matrix product of mismatched shapes")
    return [[sum((x * y for x, y in zip(row, col)), _ZERO) for col in zip(*b)] for row in a]


def _echelon(mat: Matrix, ncols: int) -> tuple[list[list[int]], list[int]]:
    """(rows, pivot columns) of the fraction-free Gauss-Jordan behind every solve:
    row r < len(pivots) has its pivot in column pivots[r] and zeros in the other
    pivot columns, and is primitive once an elimination step has touched it."""
    if any(len(row) != ncols for row in mat):
        raise ValueError(f"ragged matrix: a row does not have {ncols} entries")
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
    return len(_echelon(mat, len(mat[0]) if mat else 0)[1])


def _reduced(mat: Matrix) -> list[tuple[list[int], int]]:
    """The RREF rows as (ints, den), row = ints / den: ints primitive, den = ints[pivot] > 0."""
    m, pivots = _echelon(mat, len(mat[0]) if mat else 0)
    signed = [(row, c, gcd(*row) if row[c] > 0 else -gcd(*row)) for row, c in zip(m, pivots)]
    return [([x // g for x in row], row[c] // g) for row, c, g in signed]


def _nullspace_ints(mat: Matrix, ncols: int) -> list[tuple[list[int], int]]:
    """The RREF basis of the right nullspace, as :func:`_reduced` gives its rows.

    One :func:`_echelon` of ``mat`` with its columns reversed puts each pivot at
    its row's last nonzero column.  So the vector of a free column f is nonzero
    only at f and at pivot columns after it: an RREF row once made primitive."""
    m, reversed_pivots = _echelon([row[::-1] for row in mat], ncols)
    pivots = {ncols - 1 - c: m[r][::-1] for r, c in enumerate(reversed_pivots)}
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        # x_f = 1 and x_c = -row[f] / row[c] at each pivot (c, row), times their lcm
        rows = [(c, row) for c, row in pivots.items() if row[f]]
        vec = [0] * ncols
        vec[f] = den = lcm(*(row[c] for c, row in rows))
        for c, row in rows:
            vec[c] = -row[f] * (den // row[c])
        g = gcd(*vec)
        basis.append(([x // g for x in vec], den // g))
    return basis


def solve_many(mat: Matrix, rhs_cols: Matrix) -> list:
    """Solve ``mat @ x = b`` for every column b of rhs_cols.

    Returns a list with one solution vector (or None for an inconsistent
    system) per column.  Under-determined systems get the particular
    solution with free variables set to zero.  One :func:`_echelon` of
    [mat | rhs_cols] judges each column against the pivots of ``mat``
    alone, so inconsistent columns cannot mask each other.
    """
    ncols = len(mat[0]) if mat else 0
    width = ncols + (len(rhs_cols[0]) if rhs_cols else 0)
    m, pivots = _echelon([[*a, *b] for a, b in zip(mat, rhs_cols, strict=True)], width)
    main = [c for c in pivots if c < ncols]
    # rows below the mat-block pivots are zero on mat; a column is consistent
    # iff all of them vanish there, and then no cross-column elimination touched it
    residual, solutions = m[len(main):len(pivots)], []
    for col in range(ncols, width):
        x = [_ZERO] * ncols
        for row, c in zip(m, main):
            if row[col]:
                x[c] = Fraction(row[col], row[c])
        solutions.append(None if any(row[col] for row in residual) else x)
    return solutions


def det(mat: Matrix) -> Fraction:
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    den, sign, pivots, _ = _bareiss(mat, exchange=True)
    return Fraction(sign * pivots[-1], den**n) if pivots else Fraction(1)


def leading_principal_minors(mat: Matrix) -> list[Fraction]:
    """The pivots of one pass without row exchanges, then from a zero pivot
    on each later minor by its own :func:`det`."""
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("leading principal minors of a non-square matrix")
    den, _, pivots, _ = _bareiss(mat, exchange=False)
    minors = [Fraction(p, den**k) for k, p in enumerate(pivots, 1)]
    later = range(len(minors), len(mat))
    return minors + [det([row[: k + 1] for row in mat[: k + 1]]) for k in later]


def _augmented(mat: Matrix, with_identity: bool) -> tuple[int, list[list[int]]]:
    """(D, the rows of [D*mat | I], or of D*mat alone), D the lcm of mat's denominators."""
    den, n = _denominator_lcm(mat), len(mat)
    rows = [[x.numerator * (den // x.denominator) for x in row] for row in mat]
    for i, row in enumerate(rows if with_identity else ()):
        row += [int(i == j) for j in range(n)]
    return den, rows


def _bareiss(mat: Matrix, exchange: bool, jordan: bool = False) -> tuple:
    """Bareiss elimination on D*mat: (D, row exchange sign, pivots, rows).

    The k-th pivot is the leading k x k minor of D*mat, rows as exchanged
    (only at a zero pivot), so each division by the previous one is exact
    (Sylvester's identity).  The pass stops at a zero pivot.  With ``jordan``
    it runs on [D*mat | I] and updates the rows above the pivot too: after
    a full pass the rows are adj, with mat^{-1} = D*adj / pivots[-1].
    """
    n, (den, m) = len(mat), _augmented(mat, jordan)
    sign, prev, pivots = 1, 1, []
    for c in range(n):  # each row holds columns c.. of the working matrix
        r = next((r for r in range(c, n) if m[r][0]), c) if exchange else c
        if r != c:
            m[c], m[r], sign = m[r], m[c], -sign
        p, *top = m[c]
        pivots.append(p)
        if not p:
            break
        m[c] = top
        for i in range(0 if jordan else c + 1, n):
            if i != c:
                f, *row = m[i]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return den, sign, pivots, m


def inverse(mat: Matrix) -> Matrix:
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("inverse of a non-square matrix")
    den, _, pivots, adj = _bareiss(mat, exchange=True, jordan=True)
    if pivots and not pivots[-1]:
        raise ValueError("matrix is singular")
    return [[Fraction(den * x, pivots[-1]) for x in row] for row in adj]


def congruence_diagonalize(sym: Matrix) -> list[tuple[Fraction, list[Fraction]]]:
    """Diagonalize a symmetric matrix by congruence, T^t S T diagonal.

    Returns pairs ``(d_i, v_i)`` where the v_i are the columns of T, so that
    S(v_i, v_i) = d_i and S(v_i, v_j) = 0 for i != j.  The signs of the d_i
    give the inertia of S; each v_i is an exact witness.  Row j of ``w`` is
    [row j of T^t (D0*S) T | t_j] on ints, v_j = t_j / dens[j].
    """
    n, (d0, w) = len(sym), _augmented(sym, with_identity=True)
    dens = [1] * n

    def combine(j: int, a: int, k: int, b: int, den: int) -> None:
        """v_j <- (a t_j + b t_k) / den, reduced by the gcd of t_j and den."""
        for row in w:
            row[j] = a * row[j] + b * row[k]
        w[j] = [a * x + b * y for x, y in zip(w[j], w[k])]
        g = gcd(den, *w[j][n:])
        dens[j] = den // g
        if g > 1:
            w[j] = [x // g for x in w[j]]
            for row in w:
                row[j] //= g

    for k in range(n):
        if not w[k][k]:
            j = next((j for j in range(k + 1, n) if w[j][j]), None)
            if j is not None:
                for row in w:
                    row[k], row[j] = row[j], row[k]
                w[k], w[j], dens[k], dens[j] = w[j], w[k], dens[j], dens[k]
            else:
                j = next((j for j in range(k + 1, n) if w[k][j]), None)
                if j is None:
                    continue  # row/column already zero: d_k = 0
                den = lcm(dens[k], dens[j])  # v_k += v_j: w[k][k] becomes nonzero
                combine(k, den // dens[k], j, den // dens[j], den)
        p = w[k][k]
        for j in range(k + 1, n):
            if q := w[k][j]:
                combine(j, p, k, -q, p * dens[j])
    return [(Fraction(w[i][i], d0 * dens[i] ** 2), [Fraction(x, dens[i]) for x in w[i][n:]])
            for i in range(n)]
