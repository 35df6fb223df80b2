"""Invariant forms on a reductive homogeneous space and their differential.

``invariant_forms`` computes the fixed alternating tensors of the isotropy
action as the exact kernel of the ``columns`` of the derivations
(``HomogeneousSpaceData.derivations``), which must be rational.  Both exact
solves go through ``_kernel``, which eliminates each connected component of
unknowns (monomials that share a row) on its own.  A degree is an ``int``.
The coset differential ``HomogeneousSpaceData.differential`` (formula there), d of
invariant forms on G/H from the m-bracket alone, is used only through
``apply``: by ``ce_differential``, ``closed_forms`` and ``d_squared_check``.

The sign convention is pinned by the calibration values in the test suite
(three independent printed evaluations from the bundled catalog cases);
do not change it without updating those tests.
"""

from __future__ import annotations

from math import lcm

from g2forms import _linalg
from g2forms.exterior import AltForm, combination, monomials
from g2forms.liealg import HomogeneousSpaceData

__all__ = [
    "ClosedFamily",
    "DSquaredReport",
    "InvariantFormSpace",
    "PartialDataError",
    "ce_differential",
    "closed_forms",
    "d_squared_check",
    "invariant_forms",
]


class PartialDataError(ValueError):
    """An operation that needs full-algebra data got partial data."""


class InvariantFormSpace:
    """Echelonized rational basis of the ad(h)-invariant k-forms on m."""

    __slots__ = ("degree", "basis")

    def __init__(self, degree: int, basis: list):
        self.degree, self.basis = degree, basis  # basis: list[AltForm]

    def __eq__(self, other) -> bool:
        if not isinstance(other, InvariantFormSpace):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None

    @property
    def dim(self) -> int:
        return len(self.basis)


def _check_degree(degree) -> None:
    if type(degree) is not int:  # a bool or a float would key the int degree's memo
        raise TypeError(f"degree is an int, got {degree!r}")


def _kernel(blocks, ncols: int) -> list[tuple[list[int], int]]:
    """The kernel of both solves: ``_linalg._nullspace_ints`` of blocks of ``ncols`` int
    columns {output monomial: nonzero int}, one per unknown, stacked with row (b, o) from
    block b.  It is solved per connected component of the unknowns that share a row: a
    lone unknown is free if no row reads it and zero otherwise, a larger component is
    stacked at its own width.  The supports are disjoint, so the components' RREF
    vectors at full width, in order of leading column, are the RREF basis of the whole."""
    rows = {}
    for b, block in enumerate(blocks):
        for j, column in enumerate(block):
            for out, v in column.items():
                rows.setdefault((b, out), {})[j] = v
    root = list(range(ncols))  # union-find over the unknowns

    def find(j):
        while root[j] != j:
            root[j] = root[root[j]]
            j = root[j]
        return j

    for row in rows.values():
        first, *rest = map(find, row)
        for r in rest:
            root[r] = first
    parts = {}  # root -> (its unknowns, the rows that read them)
    for j in range(ncols):
        parts.setdefault(find(j), ([], []))[0].append(j)
    for row in rows.values():
        parts[find(next(iter(row)))][1].append(row)
    basis = []
    for cols, stack in parts.values():
        if len(cols) == 1:
            local = [] if stack else [([1], 1)]
        else:
            local = _linalg._nullspace_ints([[row.get(j, 0) for j in cols] for row in stack],
                                            len(cols))
        for ints, den in local:
            vec = [0] * ncols
            for j, x in zip(cols, ints):
                vec[j] = x
            basis.append((vec, den))
    # leading entries are positive, so descending order is ascending leading column
    return sorted(basis, reverse=True)


def invariant_forms(data: HomogeneousSpaceData, degree: int) -> InvariantFormSpace:
    """Kernel of the isotropy Lie-derivative operators on k-forms.

    Requires a rational (fully instantiated) isotropy action.  The basis is
    returned in reduced echelon form over the lexicographic monomial order,
    so equal invariant subspaces always produce identical bases.  The space
    is solved once per isotropy action and degree, and shared by every data
    of equal isotropy (:meth:`HomogeneousSpaceData.instantiate`): do not mutate it.
    """
    _check_degree(degree)

    def build():
        ops = data.derivations(degree)
        if not all(op.is_rational() for op in ops):
            raise ValueError("parametric isotropy action: instantiate the parameters first")
        n, monos, zero = data.dim_m, monomials(data.dim_m, degree), (0,) * len(data.symbols)
        blocks = [[op.columns.get(zero, {}).get(m, {}) for m in monos] for op in ops]
        kernel = _kernel(blocks, len(monos))
        return InvariantFormSpace(degree, [AltForm._trusted(n, degree, data.symbols, den, {
            zero: dict(zip(monos, ints))}) for ints, den in kernel])

    return data.cached(("invariant_forms", degree), build, isotropy=True)


def ce_differential(data: HomogeneousSpaceData, alpha: AltForm) -> AltForm:
    """Exterior derivative of an invariant form, from the projected bracket.

    The formula is only the pullback of d for ad(h)-invariant input; the
    caller is responsible for invariance.  The form must live on the data's
    m and share its context.
    """
    return data.differential(alpha.degree).apply(alpha)


class ClosedFamily:
    """The full solution space of d(phi) = 0 inside the invariant k-forms.

    ``basis`` spans the family over Q; ``generic`` is sum_i a_i * basis_i
    with fresh parameter symbols a1..ar (its context is exactly those
    parameters, independent of any case context).
    """

    def __init__(self, data: HomogeneousSpaceData, degree: int, parameters: tuple, basis: list,
                 generic: AltForm, invariant_dim: int, rank: int):
        self.data, self.degree, self.parameters = data, degree, parameters
        self.basis = basis  # list[AltForm], rational coefficients, echelonized
        self.generic, self.invariant_dim = generic, invariant_dim
        self.rank = rank  # of the d-matrix, columns d(gamma_i): invariant_dim - dim

    @property
    def dim(self) -> int:
        return len(self.basis)

    def describe(self) -> str:
        return (
            f"closed family: {self.dim} free parameter(s) inside a "
            f"{self.invariant_dim}-dimensional invariant space (d-rank {self.rank})"
        )


def closed_forms(data: HomogeneousSpaceData, degree: int = 3) -> ClosedFamily:
    """Solve d(sum_i a_i gamma_i) = 0 exactly over the invariant basis.

    Column j of the d-matrix is ``d.apply(gamma_j)``, its ints over the lcm L of
    their dens (L times the matrix: the same kernel).  Its kernel K and the basis
    are in RREF, so K times the basis is too: K's row i has its leading 1 at q_i,
    on gamma_{q_i}'s pivot, where K's other rows are 0.  The product runs on ints.
    Solved once per data and degree and shared, like :func:`invariant_forms`.
    """
    _check_degree(degree)

    def build():
        d = data.differential(degree)
        if not d.is_rational():
            raise ValueError("closed_forms needs fully instantiated homogeneous data")
        space = invariant_forms(data, degree)
        n, images = data.dim_m, [d.apply(g) for g in space.basis]
        scale = lcm(*(image.den for image in images))
        block = [{row: v * (scale // image.den) for layer in image.layers.values()
                  for row, v in layer.items()} for image in images]  # a zero image: {}
        kernel = _kernel([block], space.dim)
        scale, basis = lcm(*(g.den for g in space.basis)), []
        members = [[(key, v * (scale // g.den)) for key, v in layer.items()]
                   for g in space.basis for layer in g.layers.values()]  # one layer each
        for ints, den in kernel:
            sums = {}
            for x, member in zip(ints, members):
                for key, v in member if x else ():
                    sums[key] = sums.get(key, 0) + x * v
            basis.append(AltForm._trusted(n, degree, (), den * scale, {(): sums}))
        parameters = tuple(f"a{i}" for i in range(1, len(basis) + 1))
        generic = combination(n, degree, parameters, zip(parameters, basis))
        rank = space.dim - len(kernel)
        return ClosedFamily(data, degree, parameters, basis, generic, space.dim, rank)

    return data.cached(("closed_forms", degree), build)


class DSquaredReport:
    """Witnessed outcome of checking d(d gamma) = 0 on an invariant basis."""

    def __init__(self, degree: int, checked: int, failures: list):
        self.degree, self.checked = degree, checked
        self.failures = failures  # list[(AltForm, AltForm)] as (gamma, dd_gamma)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        if self.ok:
            return f"d o d = 0 on all {self.checked} invariant {self.degree}-forms"
        lines = [f"d o d != 0 on {len(self.failures)} invariant {self.degree}-form(s):"]
        for gamma, dd in self.failures:
            lines.append(f"  gamma = {gamma.render()}")
            lines.append(f"  d(d gamma) = {dd.render()}")
        return "\n".join(lines)


def d_squared_check(data: HomogeneousSpaceData, degree: int) -> DSquaredReport:
    """Verify d(d gamma) = 0 for every invariant basis form of the degree.

    Refuses partial data: without a full algebra behind the projected
    bracket the identity is not guaranteed, so a "pass" would be hollow.
    """
    _check_degree(degree)
    if data.partial:
        raise PartialDataError(
            "d o d = 0 cannot be certified for partial homogeneous data "
            "(no full Lie algebra behind the projected bracket)"
        )
    space = invariant_forms(data, degree)
    d, d_next = data.differential(degree), data.differential(degree + 1)
    failures = []
    for gamma in space.basis:
        dd = d_next.apply(d.apply(gamma))
        if not dd.is_zero():
            failures.append((gamma, dd))
    return DSquaredReport(degree, len(space.basis), failures)
