"""Shared helpers for the test suite: seeded random generators and
independent oracles (kept out of the engine on purpose)."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm
from operator import add
from pathlib import Path

from g2forms.exterior import (
    AltForm,
    contract,
    form_to_vector,
    monomials,
    top_coefficient,
    wedge,
)
from g2forms.scalars import ContextMismatchError, PolyScalar

# the case definitions and the matrix models behind them stay out of the
# package, in tools/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile(
        "g2forms", derandomize=True, database=None, deadline=None, max_examples=50
    )
    settings.load_profile("g2forms")


def poly_mul(first: PolyScalar, *factors) -> PolyScalar:
    """The product of ``first`` and each factor, a PolyScalar in its context
    or a rational (a scaling), term by term on the {exponents: Fraction} maps
    and through the validating constructor: the tests' polynomial product,
    for building inputs and oracles (the engine multiplies no PolyScalars)."""
    terms = first.terms
    for factor in factors:
        if not isinstance(factor, PolyScalar):
            factor = PolyScalar.constant(factor, first.symbols)
        product: dict = {}
        for e1, c1 in terms.items():
            for e2, c2 in factor.terms.items():
                e = tuple(map(add, e1, e2))
                product[e] = product.get(e, 0) + c1 * c2
        terms = product
    return PolyScalar(first.symbols, terms)


def lowered(rows) -> list:
    """The (ints, den) rows of ``_linalg``'s integer kernels as Fraction rows."""
    return [[Fraction(x, den) for x in ints] for ints, den in rows]


def vector_to_form(vec, dim: int, degree: int, symbols=()) -> AltForm:
    """The form with coefficients vec (rationals) over ``monomials(dim, degree)``,
    through the validating constructor: the tests' route from coordinates to
    forms (the engine builds its bases from integer rows)."""
    symbols = tuple(symbols)
    coeffs = {m: PolyScalar.constant(x, symbols) for m, x in zip(monomials(dim, degree), vec) if x}
    return AltForm(dim, degree, symbols, coeffs)


def random_rational(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_form(rng: random.Random, dim: int, degree: int, symbols=(), density=0.5) -> AltForm:
    symbols = tuple(symbols)
    coeffs = {}
    for idx in combinations(range(1, dim + 1), degree):
        if rng.random() < density:
            value = random_rational(rng)
            if value:
                coeffs[idx] = PolyScalar.constant(value, symbols)
    return AltForm(dim, degree, symbols, coeffs)


def two_symbol_form(rng: random.Random, dim: int, degree: int, density: float) -> AltForm:
    """A form whose coefficients are r1*a + r2*b + r0, each r random rational."""
    coeffs = {}
    for idx in combinations(range(1, dim + 1), degree):
        if rng.random() < density:
            r0, r1, r2 = (random_rational(rng) for _ in range(3))
            coeffs[idx] = PolyScalar(("a", "b"), {(1, 0): r1, (0, 1): r2, (0, 0): r0})
    return AltForm(dim, degree, ("a", "b"), coeffs)


QUADRATIC_EXPONENTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def quadratic_form(rng: random.Random, dim: int, degree: int, density: float) -> AltForm:
    """A form in the context (a, b) whose coefficients take a random nonempty
    subset of the terms 1, a, b, a^2, a*b, b^2 with random rational
    coefficients, so that different pairs of exponent vectors (a with b,
    1 with a*b, ...) sum to the same one in any product of two such forms."""
    coeffs = {}
    for idx in combinations(range(1, dim + 1), degree):
        if rng.random() < density:
            exponents = rng.sample(QUADRATIC_EXPONENTS, rng.randint(1, len(QUADRATIC_EXPONENTS)))
            coeffs[idx] = PolyScalar(("a", "b"), {e: random_rational(rng) for e in exponents})
    return AltForm(dim, degree, ("a", "b"), coeffs)


def wedge_by_products(alpha: AltForm, beta: AltForm) -> AltForm:
    """alpha ^ beta as the sum, over the pairs of disjoint index tuples, of the
    PolyScalar product of their coefficients signed by the inversions of the
    joined tuple: an oracle for :func:`g2forms.exterior.wedge`."""
    coeffs: dict = {}
    for i1, x in alpha.coeffs.items():
        for i2, y in beta.coeffs.items():
            if not set(i1) & set(i2):
                key, term = tuple(sorted(i1 + i2)), poly_mul(x, y)
                term = term if _permutation_sign(i1 + i2) == 1 else -term
                coeffs[key] = coeffs[key] + term if key in coeffs else term
    return AltForm(alpha.dim, alpha.degree + beta.degree, alpha.symbols, coeffs)


def random_vector(rng: random.Random, dim: int, symbols=()) -> list:
    """A tangent vector as its list of PolyScalar components."""
    symbols = tuple(symbols)
    return [PolyScalar.constant(random_rational(rng), symbols) for _ in range(dim)]


def unit_vector(dim: int, index: int, symbols=()) -> list:
    """The components of the basis vector e_index (1-based)."""
    return [PolyScalar.constant(int(i == index), symbols) for i in range(1, dim + 1)]


def random_unimodular(rng: random.Random, n: int, shears: int = 8):
    """Product of elementary shears: exact determinant 1."""
    mat = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        factor = Fraction(rng.randint(-2, 2))
        if not factor:
            continue
        for c in range(n):
            mat[i][c] += factor * mat[j][c]
    return mat


def rank_by_reverse_elimination(rows) -> int:
    """Row rank via fraction-free elimination pivoting from the last column.

    Deliberately independent of the engine's RREF (different pivot order,
    no normalization) so it can serve as an oracle for kernel dimensions.
    """
    work = [list(row) for row in rows if any(row)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    used = [False] * len(work)
    for col in range(ncols - 1, -1, -1):
        pivot = None
        for r in range(len(work)):
            if not used[r] and work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        for r in range(len(work)):
            if r != pivot and not used[r] and work[r][col]:
                f = work[r][col]
                p = work[pivot][col]
                work[r] = [p * a - f * b for a, b in zip(work[r], work[pivot])]
    return rank


def evaluate(alpha: AltForm, vectors) -> PolyScalar:
    """Full alternating multilinear evaluation alpha(v_1, ..., v_k), by cofactors;
    each vector is its list of PolyScalar components."""
    if len(vectors) != alpha.degree:
        raise ValueError(f"expected {alpha.degree} vectors, got {len(vectors)}")
    for v in vectors:
        if len(v) != alpha.dim:
            raise ValueError("vector dimension does not match form")
        if any(c.symbols != alpha.symbols for c in v):
            raise ContextMismatchError("vector context does not match form")
    if alpha.degree == 0:
        return alpha.coefficient(())
    total = PolyScalar(alpha.symbols)
    for idx, coeff in alpha.coeffs.items():
        rows = [[v[i - 1] for v in vectors] for i in idx]
        total = total + poly_mul(coeff, _poly_det(rows))
    return total


def _poly_det(rows: list) -> PolyScalar:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    symbols = rows[0][0].symbols
    total = PolyScalar(symbols)
    for c in range(n):
        entry = rows[0][c]
        if entry.is_zero():
            continue
        minor = [row[:c] + row[c + 1 :] for row in rows[1:]]
        term = poly_mul(entry, _poly_det(minor))
        total = total + (term if c % 2 == 0 else -term)
    return total


def pullback_by_evaluation(alpha: AltForm, matrix) -> AltForm:
    """(P*alpha)_J = alpha(P e_{j_1}, ..., P e_{j_k}), one :func:`evaluate` per J:
    an oracle for :func:`g2forms.exterior.pullback`."""
    n = alpha.dim
    cols = [
        [
            x if isinstance(x, PolyScalar) else PolyScalar.constant(x, alpha.symbols)
            for x in (matrix[r][c] for r in range(n))
        ]
        for c in range(n)
    ]
    coeffs = {
        idx: evaluate(alpha, [cols[i - 1] for i in idx]) for idx in monomials(n, alpha.degree)
    }
    return AltForm(n, alpha.degree, alpha.symbols, coeffs)


def wedge_b_matrix(phi: AltForm) -> list:
    """B[i][j] as the top coefficient of iota_i phi ^ iota_j phi ^ phi, all 49
    entries as PolyScalar rows: an oracle for :func:`g2forms.gstruct.b_matrix`
    and :func:`g2forms.gstruct.b_entries`.  Each product of three coefficients
    is taken term by term by :func:`poly_mul`, signed by the inversions of its
    index sequence, so no engine product is involved."""
    iotas = [contract(i, phi).coeffs for i in range(1, 8)]
    zero = PolyScalar(phi.symbols)
    gram = []
    for a in iotas:
        row = []
        for b in iotas:
            total = zero
            for idx_a, x in a.items():
                for idx_b, y in b.items():
                    rest = tuple(sorted(set(range(1, 8)) - set(idx_a) - set(idx_b)))
                    if len(rest) == 3 and rest in phi.coeffs:
                        term = poly_mul(x, y, phi.coeffs[rest])
                        sign = _permutation_sign(idx_a + idx_b + rest)
                        total = total + (term if sign == 1 else -term)
            row.append(total)
        gram.append(row)
    return gram


def fraction_matmul(a: list, b: list) -> list:
    """The matrix product over Fractions, entry by entry."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def hitchin_by_wedges(psi: AltForm) -> tuple:
    """(lambda, K, K^2) of a rational 3-form on R^6 with K[i][j] read off the
    5-form iota_j psi ^ psi, built by ``contract`` and ``wedge``, at the
    complement of i, signed by e^{rest} ^ e^i = (-1)^(6-i) e^{1...6}: an
    oracle for :func:`g2forms.gstruct.hitchin_stability`, which reads the
    product tables instead."""
    rests = [tuple(k for k in range(1, 7) if k != i) for i in range(1, 7)]
    columns = [form_to_vector(wedge(contract(j, psi), psi), rests) for j in range(1, 7)]
    k = [[(-1) ** (6 - i) * column[i - 1] for column in columns] for i in range(1, 7)]
    k_sq = fraction_matmul(k, k)
    return sum((k_sq[i][i] for i in range(6)), Fraction(0)) / 6, k, k_sq


def su3_gram_by_evaluation(omega: AltForm, psi: AltForm) -> list | None:
    """G = Omega . K * 6 / volume, Omega[i][j] = omega(e_i, e_j) by ``eval_basis``,
    K from :func:`hitchin_by_wedges` and the volume the top coefficient of
    omega^3, as Fraction rows; None when omega^3 = 0: an oracle for the gram
    matrix of :func:`g2forms.gstruct.su3_check`."""
    volume = top_coefficient(wedge(wedge(omega, omega), omega)).constant_value()
    if not volume:
        return None
    omega_matrix = [[omega.eval_basis((i, j)).constant_value() for j in range(1, 7)]
                    for i in range(1, 7)]
    return [[x * 6 / volume for x in row]
            for row in fraction_matmul(omega_matrix, hitchin_by_wedges(psi)[1])]


def hodge_dual_by_minors(q: list, alpha: AltForm) -> AltForm:
    """The Hodge dual up to scale with one k x k determinant of Q^{-1} per
    (upper, lower) pair: an oracle for :func:`g2forms.gstruct.hodge_dual_up_to_scale`.
    Q^{-1} and the minors come from :func:`fraction_inverse` and
    :func:`fraction_det`, so no engine elimination is involved."""
    n, k = len(q), alpha.degree
    qinv = fraction_inverse(q)
    coeffs = {}
    for upper in monomials(n, k):
        raised = PolyScalar(alpha.symbols)
        for lower, coeff in alpha.coeffs.items():
            d = fraction_det([[qinv[i - 1][l - 1] for l in lower] for i in upper])
            if d:
                raised = raised + poly_mul(coeff, d)
        complement = tuple(i for i in range(1, n + 1) if i not in upper)
        sign = _permutation_sign(upper + complement)  # e^upper ^ e^complement = sign e^{1...n}
        coeffs[complement] = raised if sign == 1 else -raised
    return AltForm(n, n - k, alpha.symbols, coeffs)


def fraction_inverse(mat: list) -> list:
    """The inverse by Gauss-Jordan over Fractions on [mat | I], with the first
    nonzero entry at or below the diagonal as pivot."""
    n = len(mat)
    m = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(mat)]
    for c in range(n):
        r = next(r for r in range(c, n) if m[r][c])  # StopIteration when singular
        m[c], m[r] = m[r], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def fraction_det(mat: list) -> Fraction:
    """The determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in mat]
    n, result = len(m), Fraction(1)
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c]), None)
        if r is None:
            return Fraction(0)
        if r != c:
            m[c], m[r], result = m[r], m[c], -result
        result *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def congruence_by_fractions(sym: list) -> list:
    """Diagonalize a symmetric matrix by congruence over Fractions: the pairs
    (S(v_i, v_i), v_i) for the columns v_i of T with T^t S T diagonal, by the
    engine's pivot sequence (a diagonal swap, then v_k += v_j on a zero
    diagonal, then elimination).  An oracle for
    :func:`g2forms._linalg.congruence_diagonalize`, which runs on integers."""
    n = len(sym)
    s = [[Fraction(x) for x in row] for row in sym]
    t = [[Fraction(i == j) for j in range(n)] for i in range(n)]  # columns: witnesses

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


def random_symmetric(rng: random.Random, n: int, kind: str) -> list:
    """A seeded symmetric n x n Fraction matrix of one kind: "dense",
    "sparse", "zero-diagonal" (forces the v_k += v_j step of congruence
    diagonalization), "zero-row" (one row and column zero) or "low-rank"
    (a x a^t - b x b^t, rank at most 2)."""
    if kind == "low-rank":
        a, b = ([random_rational(rng) for _ in range(n)] for _ in range(2))
        return [[a[i] * a[j] - b[i] * b[j] for j in range(n)] for i in range(n)]
    density = 0.3 if kind == "sparse" else 0.8
    upper = [[random_rational(rng) if rng.random() < density else Fraction(0)
              for _ in range(n)] for _ in range(n)]
    s = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if kind == "zero-diagonal":
        for i in range(n):
            s[i][i] = Fraction(0)
    if kind == "zero-row":
        z = rng.randrange(n)
        for i in range(n):
            s[z][i] = s[i][z] = Fraction(0)
    return s


def evaluate_by_permutations(alpha: AltForm, vectors) -> PolyScalar:
    """Brute-force evaluation as a sum over all k! permutations.

    Independent of :func:`evaluate`; a cross-checking oracle.
    """
    if len(vectors) != alpha.degree:
        raise ValueError(f"expected {alpha.degree} vectors, got {len(vectors)}")
    if alpha.degree == 0:
        return alpha.coefficient(())
    total = PolyScalar(alpha.symbols)
    k = alpha.degree
    for idx, coeff in alpha.coeffs.items():
        for perm in permutations(range(k)):
            sign = _permutation_sign(perm)
            factors = [vectors[vpos][idx[slot] - 1] for slot, vpos in enumerate(perm)]
            total = total + poly_mul(coeff, sign, *factors)
    return total


def _permutation_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def leibniz_columns(dim: int, degree: int, shift: int, image) -> dict:
    """The columns ``{input monomial: {output monomial: Fraction}}`` of the
    derivation with rational ``image`` (as :class:`ExteriorOp` takes it), by
    brute force: every term splices R into slot t of the input monomial, is
    signed by the permutation that sorts the splice, times (-1)^(t * shift),
    and vanishes on a repeated index.  An oracle for ``ExteriorOp.columns``.
    """
    columns = {}
    for idx in monomials(dim, degree):
        column = {}
        for t, i in enumerate(idx):
            for replacement, value in image.get(i, ()):
                spliced = idx[:t] + tuple(replacement) + idx[t + 1 :]
                if len(set(spliced)) < len(spliced):
                    continue
                row = tuple(sorted(spliced))
                sign = _permutation_sign(spliced) * (-1) ** (t * shift)
                column[row] = column.get(row, 0) + sign * value.constant_value()
        if column := {row: v for row, v in column.items() if v}:
            columns[idx] = column
    return columns


def dense_ce_differential(data, alpha: AltForm) -> AltForm:
    """The coset differential by its defining formula on each (k+1)-tuple,

        d a(X_0, ..., X_k) = sum_{i<j} (-1)^{i+j} a([X_i, X_j]_m, ..., ^X_i, ..., ^X_j, ...),

    read off ``data.bracket``: an oracle for the engine's sparse operator.
    """
    n, k = data.dim_m, alpha.degree
    coeffs = {}
    for jtuple in combinations(range(1, n + 1), k + 1):
        total = PolyScalar(data.symbols)
        for p, q in combinations(range(k + 1), 2):
            rest = jtuple[:p] + jtuple[p + 1 : q] + jtuple[q + 1 :]
            for r, c in data.bracket.get((jtuple[p], jtuple[q]), {}).items():
                term = poly_mul(c, alpha.eval_basis((r,) + rest))
                total = total + (-term if (p + q) % 2 else term)
        coeffs[jtuple] = total
    return AltForm(n, k + 1, data.symbols, coeffs)


def dense_jacobi_violations(algebra) -> list:
    """Jacobi by its defining cyclic sum, with dense brackets of basis vectors,

        [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]   for i < j < k,

    as (i, j, k, component renders) for every nonzero sum: an oracle for
    :func:`g2forms.liealg.jacobi_check`.  Every coefficient term is scaled
    to an integer by the lcm L of their denominators, so each sum is
    accumulated on integers per exponent vector and divided by L^2 once.
    """
    n, symbols = algebra.dim_m, algebra.symbols
    span = range(1, n + 1)
    table = {(a, b): algebra.bracket_of(a, b) for a in span for b in span if a != b}
    den = lcm(*(
        c.denominator for comps in table.values() for x in comps.values() for c in x.terms.values()
    ))
    ints = {  # pair -> [(r, [(exponents, integer coefficient)])]
        pair: [(r, [(e, (c * den).numerator) for e, c in x.terms.items()])
               for r, x in comps.items()]
        for pair, comps in table.items()
    }
    violations = []
    for i, j, k in combinations(span, 3):
        total = [{} for _ in span]  # per component: {exponents: integer sum}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            # [u, e_c] = sum_s u_s [e_s, e_c] for u = [e_a, e_b]
            for s, u in ints[a, b]:
                for r, x in ints[s, c] if s != c else ():
                    acc = total[r - 1]
                    for e1, c1 in u:
                        for e2, c2 in x:
                            e = tuple(map(add, e1, e2))
                            acc[e] = acc.get(e, 0) + c1 * c2
        sums = [PolyScalar(symbols, {e: Fraction(v, den**2) for e, v in t.items()}) for t in total]
        if any(not t.is_zero() for t in sums):
            violations.append((i, j, k, tuple(t.render() for t in sums)))
    return violations


def realify_matrix(entries) -> list[list[Fraction]]:
    """The real 2d x 2d matrix [[A, -B], [B, A]] of a complex d x d matrix
    X = A + iB, entries Fractions (real) or (re, im) pairs.  X -> [[A, -B],
    [B, A]] is an injective homomorphism of real Lie algebras, so a complex
    basis and its realification have the same structure constants."""
    d = len(entries)
    real = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
    for r, row in enumerate(entries):
        for c, entry in enumerate(row):
            pair = entry if isinstance(entry, (tuple, list)) else (entry, 0)
            re_part, im_part = map(Fraction, pair)
            real[r][c] = real[r + d][c + d] = re_part
            real[r][c + d], real[r + d][c] = -im_part, im_part
    return real


def from_matrices_by_span_solve(basis, names=None, symbols=()):
    """The Lie algebra of the matrices ``basis``, as :func:`g2forms.liealg.from_matrices`
    takes them, by the full-span solve: on M_r = L B_r
    (L the lcm of the denominators), every commutator [M_i, M_j] by integer
    matrix products, and a fraction-free Gauss-Jordan elimination of the
    integer rows of [span | commutators], the span's d^2 x n columns the
    flattened M_r (of the span alone first, for its rank); then c_r = x_r / L.
    A complex basis is realified first (:func:`realify_matrix`).
    Raises the same LieStructureError
    messages as :func:`g2forms.liealg.from_matrices`: a dependent basis first,
    then the first pair (i, j) whose commutator leaves the span.  An oracle
    for that function, which solves on n pivot entries and checks the rest."""
    from g2forms.liealg import HomogeneousSpaceData, LieStructureError

    n = len(basis)
    if n == 1:
        return HomogeneousSpaceData(1, [], {}, names, symbols)
    real = basis
    if any(isinstance(x, (tuple, list)) for m in basis for row in m for x in row):
        real = [realify_matrix(m) for m in basis]
    den = lcm(*(x.denominator for m in real for row in m for x in row))
    mats = [[[int(x * den) for x in row] for row in m] for m in real]

    def times(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    def eliminate(rows):
        """Gauss-Jordan on the first n columns, the pivot of column c in row c;
        None when some column has no pivot."""
        for c in range(n):
            p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
            if p is None:
                return None
            rows[c], rows[p] = rows[p], rows[c]
            top = rows[c]
            for r in range(len(rows)):
                if r != c and rows[r][c]:
                    row = [top[c] * x - rows[r][c] * y for x, y in zip(rows[r], top)]
                    g = gcd(*row) or 1
                    rows[r] = [x // g for x in row]
        return rows

    flat = [[x for row in m for x in row] for m in mats]
    span = [list(entry) for entry in zip(*flat)]
    if eliminate(span) is None:
        raise LieStructureError("matrix basis is linearly dependent")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    commutators = [
        [x - y for r1, r2 in zip(times(mats[i], mats[j]), times(mats[j], mats[i]))
         for x, y in zip(r1, r2)]
        for i, j in pairs
    ]
    aug = eliminate([list(entry) for entry in zip(*flat, *commutators)])
    constants = {}
    for k, (i, j) in enumerate(pairs, n):
        if any(row[k] for row in aug[n:]):
            raise LieStructureError(
                f"commutator [e{i + 1}, e{j + 1}] does not lie in the span of the basis"
            )
        constants[i + 1, j + 1] = {
            r: PolyScalar.constant(Fraction(aug[r - 1][k], aug[r - 1][r - 1] * den), symbols)
            for r in range(1, n + 1) if aug[r - 1][k]
        }
    return HomogeneousSpaceData(n, [], constants, names, symbols)


def dense_components(comps, n: int) -> list:
    """The n components of a sparse bracket entry ``{r: c}``, zeros filled in."""
    return [comps.get(r, PolyScalar(())) for r in range(1, n + 1)]


def dense_matrix(mat, n: int) -> list:
    """The n x n matrix of a sparse isotropy table ``{(r, c): a}``, zeros filled in."""
    return [[mat.get((r, c), PolyScalar(())) for c in range(1, n + 1)] for r in range(1, n + 1)]
