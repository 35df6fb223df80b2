"""Lie algebras from structure constants or matrix bases; reductive splits.

:class:`HomogeneousSpaceData` is the one bracket table: the data of G/H is
the isotropy action ad(h)|_m and the projected bracket [m, m]_m, and a Lie
algebra g is the case H = {e}, with no isotropy and m = g.  Its coset
differential (:meth:`HomogeneousSpaceData.differential`) is then the
Chevalley-Eilenberg d, and :func:`jacobi_check` is d o d = 0 on the
covectors of g, summed on ints from the columns of d on 1-forms alone.
Both tables are sparse and hold only nonzero scalars (formats in the
class docstring), so the operators are built from them as stored.
:func:`from_matrices`, the one reader of the matrix-basis format, derives
the structure constants of square matrices of ints or Fractions by one
exact n x n solve; a basis with an (re, im) pair entry is complex, solved
on those coordinates with the brackets of its realification, all in Q.

:func:`reductive_split` turns a Lie algebra into the data of G/H for a
split g = h + m.  Cases where only that projected data is known (no full
algebra) enter as ``HomogeneousSpaceData(..., partial=True)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add, itemgetter, sub
from typing import Iterable, Mapping, Sequence

from g2forms import _linalg
from g2forms.exterior import ExteriorOp, _lower
from g2forms.scalars import PolyScalar, _exact, check_context

__all__ = [
    "HomogeneousSpaceData",
    "JacobiReport",
    "LieStructureError",
    "from_matrices",
    "jacobi_check",
    "reductive_split",
]


class LieStructureError(ValueError):
    """Structural validation of Lie-algebra data failed."""


def from_matrices(
    matrices: Sequence, names: Sequence[str] | None = None, symbols: Iterable[str] = ()
) -> HomogeneousSpaceData:
    """The span of n d x d matrices as a Lie algebra (no isotropy), by exact solve.

    The basis is complex when any entry is an (re, im) pair (a tuple or a list).
    On M_i = L * B_i, L the lcm of all denominators, [B_i, B_j] = sum_r c_r B_r reads
    [M_i, M_j] = sum_r (L c_r) M_r, block j of M_i [M_1 | ... | M_n] minus block i of
    M_j [M_1 | ... | M_n].  A complex matrix A + iB is its d^2 real entries, then its
    imaginary ones, with (A + iB)(A' + iB') = (AA' - BB') + i(AB' + BA'): the span and
    brackets of the realification X -> [[A, -B], [B, A]], an injective homomorphism.
    All pairs are solved on n pivot coordinates of the span at once, then checked on
    every coordinate on ints.  The constants live in the context ``symbols``.  Raises
    :class:`LieStructureError` when the matrices are linearly dependent or a
    commutator leaves the span (with the first such pair).
    """
    symbols = check_context(symbols)
    if not matrices:
        raise ValueError("empty matrix basis")
    n, d = len(matrices), len(matrices[0])
    if any(len(m) != d or any(len(row) != d for row in m) for m in matrices):
        raise ValueError("matrices must be square and equally sized")
    flat = [[x for row in m for x in row] for m in matrices]
    complex_basis = any(isinstance(x, (tuple, list)) for f in flat for x in f)
    for k, f in enumerate(flat if complex_basis else ()):
        im = [0] * len(f)  # A + iB as its d^2 real entries, then its imaginary ones
        for e, x in enumerate(f):
            if isinstance(x, (tuple, list)):
                if len(x) != 2:
                    raise ValueError("a complex entry is a pair (re, im)")
                f[e], im[e] = x
        flat[k] = f + im
    den, flat = _linalg._augmented([[*map(_exact, f)] for f in flat], False)
    if n == 1:
        # a one-dimensional algebra is abelian by antisymmetry, whatever the
        # matrix (including the zero matrix, whose span is degenerate)
        return HomogeneousSpaceData(1, [], {}, names, symbols)
    pivots = _linalg._echelon(flat, len(flat[0]))[1]
    if len(pivots) < n:
        raise LieStructureError("matrix basis is linearly dependent")
    d2 = d * d
    cut = range(0, d2, d)
    wide = [[x for f in flat for x in f[k:k + d]] for k in cut]  # rows of [M_1 | ... | M_n]
    if complex_basis:  # (a + ib)(A + iB) = a [A | B] + b [-B | A], as [re | im]
        im = [[x for f in flat for x in f[k:k + d]] for k in range(d2, 2 * d2, d)]
        wide = [a + b for a, b in zip(wide, im)] + [[-x for x in b] + a for a, b in zip(wide, im)]
    width = len(wide[0])  # n d, twice that for a complex basis
    products = [[] for _ in flat]  # M_i [M_1 | ... | M_n], rows concatenated
    for f, out in zip(flat, products):
        for k in cut:  # the rows of wide at the nonzeros of a row a + ib of M_i (b = [] if real)
            acc = [0] * width
            for a, w in zip(f[k:k + d] + f[d2 + k:d2 + k + d], wide):
                if a:
                    acc = [x + a * y for x, y in zip(acc, w)]
            out += acc
    block = [itemgetter(*[r * width + o + j * d + c for o in range(0, width, n * d)
                          for r in range(d) for c in range(d)]) for j in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    commutators = [list(map(sub, block[j](products[i]), block[i](products[j]))) for i, j in pairs]
    solutions = _linalg.solve_many([[f[p] for f in flat] for p in pivots],
                                   [[c[p] for c in commutators] for p in pivots])
    support = [[(e, x) for e, x in enumerate(f) if x] for f in flat]
    zero = (0,) * len(symbols)
    constants: dict[tuple, dict] = {}
    for (i, j), comm, sol in zip(pairs, commutators, solutions):
        ints, s = _linalg._integer_row(sol)
        residual = [s * x for x in comm]  # s [M_i, M_j] - sum_r (s x_r) M_r
        for c, entries in zip(ints, support):
            for e, y in entries if c else ():
                residual[e] -= c * y
        if any(residual):
            raise LieStructureError(f"commutator [e{i + 1}, e{j + 1}] does not lie in the span"
                                    " of the basis")
        constants[(i + 1, j + 1)] = {r: PolyScalar._trusted(symbols, {zero: x / den})
                                     for r, x in enumerate(sol, 1) if x}
    return HomogeneousSpaceData(n, [], constants, names, symbols)


class JacobiReport:
    """Outcome of a Jacobi-identity check."""

    def __init__(self, dim: int, violations: list | None = None):
        self.dim = dim
        self.violations = [] if violations is None else violations  # (i, j, k, component renders)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "jacobi: valid"
        lines = [f"jacobi: {len(self.violations)} violating triple(s)"]
        for i, j, k, comps in self.violations:
            lines.append(f"  ({i},{j},{k}): cyclic sum = ({', '.join(comps)})")
        return "\n".join(lines)


def jacobi_check(data: HomogeneousSpaceData) -> JacobiReport:
    """List every triple (i, j, k) whose Jacobi cyclic sum is nonzero.

    ``data`` is a Lie algebra (:class:`LieStructureError` on isotropy).  The
    r-th component of [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    is the coefficient of e^{i j k} in d(d e^r), summed on ints from the
    columns of ``differential(1)`` alone: for d e^r = sum v e^{a b},
    d(e^a ^ e^b) = d e^a ^ e^b - d e^b ^ e^a, and e^{p q} ^ e^x is e^{p q x}
    sorted, signed by where x goes; the sums are divided by den^2 once.
    """
    if data.isotropy:
        raise LieStructureError("jacobi_check needs a Lie algebra; the data has isotropy")
    n, d1 = data.dim_m, data.differential(1)
    sums: dict[tuple, dict] = {}  # exponents -> {(i, j, k, r): integer sum}
    for e1, images in d1.columns.items():
        for e2, columns in d1.columns.items():
            acc = sums.setdefault(tuple(map(add, e1, e2)), {})
            for (r,), image in images.items():
                for (a, b), v in image.items():
                    for y, x, u in ((a, b, v), (b, a, -v)):
                        for (p, q), w in columns.get((y,), {}).items():
                            if x < p:
                                key = (x, p, q, r)
                            elif p < x < q:
                                key, w = (p, x, q, r), -w
                            elif x > q:
                                key = (p, q, x, r)
                            else:
                                continue  # x is p or q
                            acc[key] = acc.get(key, 0) + u * w
    violations: dict[tuple, list] = {}
    for (i, j, k, r), c in sorted(_lower(sums, d1.den**2, data.symbols).items()):
        violations.setdefault((i, j, k), ["0"] * n)[r - 1] = c.render()
    return JacobiReport(n, [(*idx, tuple(comps)) for idx, comps in violations.items()])


class HomogeneousSpaceData:
    """Reductive homogeneous data: isotropy action on m and projected bracket.

    Both tables are sparse, with 1-based indices, and hold only nonzero
    scalars.  ``bracket`` maps (i, j) with i < j to ``{r: c}``, the
    components of [e_i, e_j]_m = sum_r c e_r; a pair whose bracket is zero
    is absent.  ``isotropy`` holds one ``{(r, c): a}`` per isotropy
    generator A, with a the e_r component of [A, e_c]_m.  The constructor
    checks indices and context, takes a reversed pair (j, i) as -[e_i, e_j]
    (checking antisymmetry when both are given) and drops zeros, so every
    reader takes the tables as stored.  ``partial`` marks data not backed by
    a full Lie algebra, for which d o d = 0 is not guaranteed by
    construction.  A Lie algebra is the data with no isotropy (H = {e},
    m = g), as :func:`from_matrices` builds it.

    The data never changes after construction, so every object derived
    from it (operators, invariant spaces, closed families, instantiations)
    is built once through :meth:`cached` and shared: callers must not
    mutate what they get back, the tables included.
    """

    def __init__(
        self,
        dim_m: int,
        isotropy: Sequence[Mapping[tuple, PolyScalar]],
        bracket: Mapping[tuple, Mapping[int, PolyScalar]],
        names: Sequence[str] | None = None,
        symbols: Iterable[str] = (),
        partial: bool = False,
    ):
        symbols = check_context(symbols)
        if names is None:
            names = [f"e{i}" for i in range(1, dim_m + 1)]
        if len(names) != dim_m:
            raise ValueError("need one name per m-basis element")
        span = range(1, dim_m + 1)

        def nonzero(entries, indices, what):
            kept = {}
            for key, x in entries.items():
                if key not in indices:
                    raise LieStructureError(f"{what}: invalid index {key}")
                if x.symbols != symbols:
                    raise LieStructureError(f"{what}: context mismatch")
                if not x.is_zero():
                    kept[key] = x
            return kept

        cells = set(product(span, span))
        self.isotropy = tuple(nonzero(mat, cells, "isotropy") for mat in isotropy)
        table: dict[tuple, dict] = {}
        for (i, j), comps in bracket.items():
            if i not in span or j not in span or i == j:
                raise LieStructureError(f"invalid bracket key ({i}, {j})")
            kept = nonzero(comps, span, f"bracket [{i},{j}]")
            if i > j:
                i, j, kept = j, i, {r: -c for r, c in kept.items()}
            if table.get((i, j), kept) != kept:
                raise LieStructureError(f"bracket table is not antisymmetric at ({i}, {j})")
            table[i, j] = kept
        self.dim_m = dim_m
        self.names = tuple(names)
        self.symbols = symbols
        self.bracket = {pair: comps for pair, comps in table.items() if comps}
        self.partial = partial
        self._memo: dict = {}
        self._isotropy_memo = self._memo

    def cached(self, key, build, isotropy: bool = False):
        """``build()``, computed once per key and shared; with ``isotropy`` (it reads only
        the isotropy tables, dim_m and context) also by the siblings of :meth:`instantiate`."""
        memo = self._isotropy_memo if isotropy else self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def bracket_of(self, i: int, j: int) -> dict:
        """Nonzero components ``{r: c}`` of [e_i, e_j]_m for any 1-based i, j."""
        if i > j:
            return {r: -c for r, c in self.bracket_of(j, i).items()}
        return self.bracket.get((i, j), {})

    def derivations(self, degree: int) -> tuple:
        """The isotropy action on degree-forms, one ExteriorOp per generator.

        A generator acts on covectors by the coadjoint action,
        A . e^r = -sum_c a_{rc} e^c.
        """
        return self.cached(("derivations", degree), lambda: tuple(
            self._covector_op(degree, 0, ((r, (c,), a) for (r, c), a in mat.items()))
            for mat in self.isotropy), True)

    def differential(self, degree: int) -> ExteriorOp:
        """The coset differential on degree-forms, from the projected bracket:

            d a(X_0, ..., X_k) = sum_{p<q} (-1)^{p+q} a([X_p, X_q]_m, ..., ^X_p, ..., ^X_q, ...)

        It is the antiderivation with d e^r = -sum_{i<j} c^r_{ij} e^{i j} for
        [e_i, e_j]_m = sum_r c^r_{ij} e_r, the one place this sign convention
        lives.  With no isotropy it is the Chevalley-Eilenberg d of the Lie
        algebra; otherwise it is the exterior derivative only on
        ad(h)-invariant forms.
        """
        return self.cached(("differential", degree), lambda: self._covector_op(
            degree, 1, ((r, pair, c) for pair, comps in self.bracket.items()
                        for r, c in comps.items())))

    def _covector_op(self, degree: int, shift: int, terms) -> ExteriorOp:
        """The derivation on degree-forms, raising degrees by ``shift``, with
        e^r -> -sum of c e^key over the (r, key, c) in ``terms``: the one place
        where the coadjoint action and d negate their table entries."""
        image: dict[int, list] = {}
        for r, key, c in terms:
            image.setdefault(r, []).append((key, -c))
        return ExteriorOp(self.dim_m, degree, shift, self.symbols, image)

    def _map(self, symbols: tuple, f) -> "HomogeneousSpaceData":
        """The data with ``f`` applied to every stored scalar, in context ``symbols``."""
        return HomogeneousSpaceData(
            self.dim_m,
            [{key: f(a) for key, a in mat.items()} for mat in self.isotropy],
            {pair: {r: f(c) for r, c in comps.items()} for pair, comps in self.bracket.items()},
            self.names, symbols, self.partial,
        )

    def instantiate(self, assignment: Mapping[str, Fraction]) -> "HomogeneousSpaceData":
        """Substitute parameter values throughout (reduced context); ``{}`` gives ``self``.
        Siblings with equal isotropy tables and context share derivations and invariant spaces."""
        if not assignment:
            return self
        symbols = tuple(s for s in self.symbols if s not in assignment)
        def build():
            child = self._map(symbols, lambda x: x.substitute(assignment))
            tables = str([sorted((k, a.render()) for k, a in m.items()) for m in child.isotropy])
            child._isotropy_memo = self.cached(("isotropy", symbols, tables), dict)
            return child

        return self.cached(("instantiate", tuple(sorted(assignment.items()))), build)

    def restrict(self, indices: Sequence[int]) -> "HomogeneousSpaceData":
        """Sub-data on a bracket-closed, isotropy-stable subset of the basis."""
        indices = list(indices)
        if any(type(i) is not int or not 1 <= i <= self.dim_m for i in indices):
            raise LieStructureError(f"restrict indices must be ints in 1..{self.dim_m}")
        if len(set(indices)) < len(indices):
            raise LieStructureError("restrict indices must not repeat")
        pos = {idx: p for p, idx in enumerate(indices, start=1)}
        for (i, j), comps in self.bracket.items():
            if i in pos and j in pos and not pos.keys() >= comps.keys():
                raise LieStructureError(f"bracket [{i},{j}] leaves the restricted subspace")
        for mat in self.isotropy:
            if any((r in pos) != (c in pos) for r, c in mat):
                raise LieStructureError(
                    "isotropy action does not preserve the restricted subspace"
                )
        iso = [{(pos[r], pos[c]): a for (r, c), a in mat.items() if r in pos}
               for mat in self.isotropy]
        names = [self.names[i - 1] for i in indices]
        return HomogeneousSpaceData(
            len(indices), iso, _project(self.bracket, pos), names, self.symbols, self.partial
        )


def _project(bracket: Mapping, pos: Mapping[int, int]) -> dict:
    """The brackets among the basis elements in ``pos``, relabelled by it, with
    the components outside ``pos`` dropped."""
    return {
        (pos[i], pos[j]): {pos[r]: c for r, c in comps.items() if r in pos}
        for (i, j), comps in bracket.items()
        if i in pos and j in pos
    }


def reductive_split(
    data: HomogeneousSpaceData, h_indices: Sequence[int], m_indices: Sequence[int]
) -> HomogeneousSpaceData:
    """Split a Lie algebra g = h + m, verifying [h, h] in h and [h, m] in m.

    ``data`` must have no isotropy yet.  The result keeps its ``partial``
    flag: split from a full algebra, the square of the coset differential
    vanishes on invariant forms.
    """
    if data.isotropy:
        raise LieStructureError("reductive_split needs a Lie algebra; the data has isotropy")
    h_set, m_set = set(h_indices), set(m_indices)
    if len(h_set) != len(h_indices) or len(m_set) != len(m_indices):
        raise LieStructureError("h and m indices must not repeat")
    if h_set & m_set:
        raise LieStructureError("h and m indices overlap")
    if h_set | m_set != set(range(1, data.dim_m + 1)):
        raise LieStructureError("h and m indices must partition the basis")
    for (a, b), comps in sorted(data.bracket.items()):
        if a in h_set and b in h_set and not m_set.isdisjoint(comps):
            raise LieStructureError(
                f"h is not a subalgebra: [e{a}, e{b}] has an m-component "
                f"on e{min(m_set.intersection(comps))}"
            )
    m_pos = {idx: p for p, idx in enumerate(m_indices, start=1)}
    isotropy = []
    for a in sorted(h_set):
        action = {}
        for j in m_indices:
            comps = data.bracket_of(a, j)
            if not h_set.isdisjoint(comps):
                raise LieStructureError(
                    f"reductivity failure: [e{a}, e{j}] has an h-component "
                    f"on e{min(h_set.intersection(comps))}"
                )
            for r, c in comps.items():
                action[m_pos[r], m_pos[j]] = c
        isotropy.append(action)
    names = [data.names[i - 1] for i in m_indices]
    return HomogeneousSpaceData(
        len(m_pos), isotropy, _project(data.bracket, m_pos), names, data.symbols, data.partial
    )
