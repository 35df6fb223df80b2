"""Alternating multilinear forms with exact coefficients.

An :class:`AltForm` of degree k on an n-dimensional space maps strictly
increasing k-tuples of basis indices (1-based, matching the usual
``e^{i j k}`` notation) to polynomial coefficients, stored as ints over one
denominator in one layer per exponent vector: the layout of the columns of
:class:`ExteriorOp`, the one linear map between exterior powers (a
derivation, over the lexicographic monomial coordinates of :func:`monomials`).
Wedge products, pullbacks (one covector at a time), the Leibniz columns of
``ExteriorOp``, and the B sums and Hitchin's K of :mod:`g2forms.gstruct` add
ints over monomial positions through product tables built on first use;
contraction by e_i drops i with its sign.  These kernels and
``ExteriorOp.apply`` add exponent vectors once per pair of layers and
multiply plain ints inside; ``AltForm._trusted`` reduces each result once
(fraction-free, as in Bareiss, Math. Comp. 1968).  No form operation does
PolyScalar arithmetic.

Basis covectors are 1-indexed throughout, so ``basis_form(7, (1, 2, 7))``
is the form usually written ``e^{127}``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from g2forms.scalars import (_ZERO, ContextMismatchError, PolyScalar, _as_written, check_context,
                             parse_rational, signed_terms)

__all__ = [
    "AltForm",
    "ExteriorOp",
    "basis_form",
    "combination",
    "contract",
    "form_to_vector",
    "monomials",
    "parse_form",
    "pullback",
    "sort_sign",
    "top_coefficient",
    "wedge",
]


def sort_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sort indices, returning (sorted tuple, permutation sign).

    Returns None when an index repeats (the alternating form vanishes).
    """
    items = list(indices)
    sign = 1
    # insertion sort: the tuples are short (cases and form literals have dimension <= 9)
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            return None
    return tuple(items), sign


class AltForm:
    """Alternating k-form on an n-dimensional space.

    ``layers`` maps each exponent vector of the context ``symbols`` to
    ``{index tuple: int}``, ints over one denominator ``den`` as in
    ``ExteriorOp.columns``; the ints are nonzero and gcd(den, every int) = 1,
    so equal forms have equal layers.  ``coeffs`` is a read-only
    ``{index tuple: PolyScalar}`` view.  The constructor validates its input;
    ``_trusted`` normalizes the integer sums of operations on valid forms.
    """

    __slots__ = ("dim", "degree", "symbols", "den", "layers")

    def __init__(
        self,
        dim: int,
        degree: int,
        symbols: Iterable[str] = (),
        coeffs: Mapping[tuple, PolyScalar] | None = None,
    ):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        symbols = check_context(symbols)
        clean: dict[tuple, PolyScalar] = {}
        for idx, coeff in (coeffs or {}).items():
            if not all(isinstance(i, int) and not isinstance(i, bool) for i in idx):
                raise TypeError(f"form indices are ints, got {idx!r}")
            if len(idx) != degree:
                raise ValueError(f"index {idx} does not have degree {degree}")
            if any(not 1 <= i <= dim for i in idx):
                raise ValueError(f"index {idx} out of range 1..{dim}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index {idx} is not strictly increasing")
            if not isinstance(coeff, PolyScalar):
                raise TypeError(f"form coefficients are PolyScalars, got {coeff!r}")
            if coeff.symbols != symbols:
                raise ContextMismatchError("coefficient context does not match form")
            clean[idx] = coeff
        self.dim = dim
        self.degree = degree
        self.symbols = symbols
        self.den, self.layers = _lift(clean)

    @classmethod
    def _trusted(cls, dim: int, degree: int, symbols: tuple, den: int, sums: dict) -> "AltForm":
        """The form sums / den, sums being {exponents: {valid index: int}},
        unchecked: the gcd of den and the ints divides out, and zeros drop."""
        g = gcd(den, *(v for layer in sums.values() for v in layer.values()))
        layers = {expo: kept for expo, layer in sums.items()
                  if (kept := {key: v // g for key, v in layer.items() if v})}
        form = object.__new__(cls)
        form.dim, form.degree, form.symbols = dim, degree, symbols
        form.den, form.layers = den // g, layers
        return form

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """{index tuple: PolyScalar}, built from the layers on each access."""
        return _lower(self.layers, self.den, self.symbols)

    def is_zero(self) -> bool:
        return not self.layers

    def coefficient(self, indices: Sequence[int]) -> PolyScalar:
        key = tuple(indices)
        return PolyScalar._trusted(self.symbols, {expo: Fraction(layer[key], self.den)
                                                  for expo, layer in self.layers.items()
                                                  if key in layer})

    def eval_basis(self, indices: Sequence[int]) -> PolyScalar:
        """Evaluate on basis vectors e_{i_1}, ..., e_{i_k} (any order)."""
        if len(indices) != self.degree:
            raise ValueError(f"expected {self.degree} indices, got {len(indices)}")
        sorted_sign = sort_sign(indices)
        if sorted_sign is None:
            return PolyScalar.zero(self.symbols)
        key, sign = sorted_sign
        coeff = self.coefficient(key)
        return coeff if sign == 1 else -coeff

    def is_rational(self) -> bool:
        return all(not any(expo) for expo in self.layers)

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other: "AltForm") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.symbols != other.symbols:
            raise ContextMismatchError(
                f"context mismatch: {self.symbols} vs {other.symbols}"
            )

    def __add__(self, other: "AltForm") -> "AltForm":
        if not isinstance(other, AltForm):
            return NotImplemented
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        den = lcm(self.den, other.den)
        sums = {expo: {key: v * (den // self.den) for key, v in layer.items()}
                for expo, layer in self.layers.items()}
        for expo, layer in other.layers.items():
            acc = sums.setdefault(expo, {})
            for key, v in layer.items():
                acc[key] = acc.get(key, 0) + v * (den // other.den)
        return AltForm._trusted(self.dim, self.degree, self.symbols, den, sums)

    def __neg__(self) -> "AltForm":
        return self.scale(-1)

    def __sub__(self, other: "AltForm") -> "AltForm":
        if not isinstance(other, AltForm):
            return NotImplemented
        return self + (-other)

    def scale(self, value) -> "AltForm":
        """Multiply by a PolyScalar or a plain rational: a wedge with a 0-form."""
        if not isinstance(value, PolyScalar):
            value = PolyScalar.constant(value, self.symbols)
        return wedge(AltForm(self.dim, 0, self.symbols, {(): value}), self)

    def with_symbols(self, symbols: Iterable[str]) -> "AltForm":
        symbols = tuple(symbols)
        return AltForm(
            self.dim,
            self.degree,
            symbols,
            {i: c.with_symbols(symbols) for i, c in self.coeffs.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AltForm):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None

    def render(self) -> str:
        return render_form(self)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"AltForm({self.dim}, {self.degree}, {self.render()!r})"


def basis_form(dim: int, indices: Sequence[int], symbols: Iterable[str] = ()) -> AltForm:
    """The basis form e^{i_1 ... i_k} (indices in any order, sign applied)."""
    symbols = tuple(symbols)
    sorted_sign = sort_sign(indices)
    if sorted_sign is None:
        return AltForm(dim, len(indices), symbols)
    key, sign = sorted_sign
    return AltForm(dim, len(indices), symbols, {key: PolyScalar.constant(sign, symbols)})


def _lift(coeffs: Mapping) -> tuple[int, dict]:
    """(L, {exponents: {key: int}}): the terms of a map to PolyScalars times L,
    the lcm of their denominators, in one layer per exponent vector, the
    layout of ``AltForm.layers`` and ``ExteriorOp.columns``."""
    den = lcm(*(c.denominator for value in coeffs.values() for c in value.terms.values()))
    layers: dict[tuple, dict] = {}
    for key, value in coeffs.items():
        for expo, c in value.terms.items():
            layers.setdefault(expo, {})[key] = c.numerator * (den // c.denominator)
    return den, layers


def _lower(layers: dict, den: int, symbols: tuple) -> dict:
    """{key: PolyScalar} from the integer sums {exponents: {key: int}} divided
    by den; zero sums drop."""
    terms: dict[tuple, dict] = {}
    for expo, sums in layers.items():
        for key, c in sums.items():
            if c:
                terms.setdefault(key, {})[expo] = Fraction(c, den)
    return {key: PolyScalar._trusted(symbols, t) for key, t in terms.items()}


def combination(dim: int, degree: int, symbols: Iterable[str], pairs: Iterable) -> AltForm:
    """The form sum of name * member over the (name, member) pairs, in the
    context symbols, each member a rational degree-form on the dim-space:
    its layer moves to its name's exponent vector, all added in one pass."""
    symbols, pairs, sums = check_context(symbols), list(pairs), {}
    den = lcm(*(member.den for _, member in pairs))
    for name, member in pairs:
        if (member.dim, member.degree) != (dim, degree) or not member.is_rational():
            raise ValueError(f"{name}: expected a rational {degree}-form on a {dim}-space")
        if name not in symbols:
            raise ValueError(f"symbol {name!r} is not in context {symbols}")
        acc = sums.setdefault(tuple(int(s == name) for s in symbols), {})
        for key, v in next(iter(member.layers.values()), {}).items():  # at most one layer
            acc[key] = acc.get(key, 0) + v * (den // member.den)
    return AltForm._trusted(dim, degree, symbols, den, sums)


# -- operations --------------------------------------------------------------


def wedge(alpha: AltForm, beta: AltForm) -> AltForm:
    """Exterior product; graded-commutative and associative."""
    alpha._check_compatible(beta)
    n, a, b = alpha.dim, alpha.degree, beta.degree
    if a + b > n:
        return AltForm._trusted(n, a + b, alpha.symbols, 1, {})
    rows, left = _products(n, a, b), _positions(n, a)
    right = {e2: [layer.get(j, 0) for j in _positions(n, b)] for e2, layer in beta.layers.items()}
    sums: dict[tuple, list] = {}  # exponents -> integer sums over the (a + b)-positions
    for e1, layer in alpha.layers.items():
        for e2, y in right.items():
            acc = sums.setdefault(tuple(map(add, e1, e2)), [0] * comb(n, a + b))
            for i, x in layer.items():
                for q, t, sign in rows[left[i]]:
                    acc[t] += sign * x * y[q]
    return AltForm._trusted(n, a + b, alpha.symbols, alpha.den * beta.den, _keyed(sums, n, a + b))


def contract(index: int, alpha: AltForm) -> AltForm:
    """Interior product of the basis vector e_index (1-based) into a form.

    Each monomial that contains index maps to the one monomial without it,
    with sign (-1)^position, and no two monomials share an image.
    """
    if not isinstance(index, int) or isinstance(index, bool):
        raise TypeError(f"contraction index is an int, got {index!r}")
    if alpha.degree == 0:
        raise ValueError("cannot contract into a 0-form")
    if not 1 <= index <= alpha.dim:
        raise ValueError(f"index {index} out of range 1..{alpha.dim}")
    sums: dict[tuple, dict] = {}
    for expo, layer in alpha.layers.items():
        acc = sums[expo] = {}
        for idx, v in layer.items():
            if index in idx:
                pos = idx.index(index)
                acc[idx[:pos] + idx[pos + 1 :]] = -v if pos % 2 else v
    return AltForm._trusted(alpha.dim, alpha.degree - 1, alpha.symbols, alpha.den, sums)


def top_coefficient(alpha: AltForm) -> PolyScalar:
    """The coefficient of e^{1...n} in a top-degree form."""
    if alpha.degree != alpha.dim:
        raise ValueError(
            f"top_coefficient needs degree {alpha.dim}, got degree {alpha.degree}"
        )
    return alpha.coefficient(tuple(range(1, alpha.dim + 1)))


def pullback(alpha: AltForm, matrix: Sequence[Sequence]) -> AltForm:
    """Pullback of a form along the linear map with the given matrix.

    ``matrix[r][c]`` is the e_r component of the image of e_c; entries are
    ints or Fractions, scaled to integers by the lcm D of their denominators.
    P*(e^{i_1 ... i_k}) = P*e^{i_1} ^ ... ^ P*e^{i_k} with
    P*e^i = sum_c P[i][c] e^c, so each of k rounds places one covector: each
    state, an int list over the positions of the columns J placed, is keyed by
    the indices still to place, whose first moves J to J + {c} through the
    (n, |J|, 1) product table.  Each sum is over alpha's den times D^degree.
    """
    n, k = alpha.dim, alpha.degree
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix shape does not match form dimension")
    try:
        den = lcm(*(x.denominator for row in matrix for x in row))
    except AttributeError:  # a float, a string: not an exact rational
        raise TypeError("pullback matrix entries must be ints or Fractions") from None
    rows = [[x.numerator * (den // x.denominator) for x in row] for row in matrix]
    sums = {}  # exponents -> int list over the k-positions
    for expo, layer in alpha.layers.items():
        states = {rest: [v] for rest, v in layer.items()}  # indices left -> sums over placed
        for r in range(k):
            table, previous, states = _products(n, r, 1), states, {}
            for rest, v in previous.items():
                acc, y = states.setdefault(rest[1:], [0] * comb(n, r + 1)), rows[rest[0] - 1]
                for p, x in enumerate(v):
                    if x:
                        for q, t, sign in table[p]:
                            acc[t] += sign * x * y[q]
        sums[expo] = states[()]
    return AltForm._trusted(n, k, alpha.symbols, alpha.den * den**k, _keyed(sums, n, k))


# -- monomial coordinates and linear operators --------------------------------


def monomials(n: int, k: int) -> list[tuple]:
    """The basis k-forms of an n-space as index tuples, in lexicographic order."""
    return list(_positions(n, k))


@cache
def _positions(n: int, k: int) -> dict:
    """{index tuple: position} of the basis k-forms of an n-space, as in :func:`monomials`."""
    return {idx: pos for pos, idx in enumerate(combinations(range(1, n + 1), k))}


@cache
def _complement_signs(n: int, k: int) -> list:
    """The sign of e^I ^ e^{I'} = sign * e^{1...n} at each k-position t of I; the
    complement I' sits at (n - k)-position C(n, k) - 1 - t."""
    return [-1 if (sum(idx) - k * (k + 1) // 2) % 2 else 1 for idx in _positions(n, k)]


@cache
def _products(n: int, a: int, b: int) -> list:
    """For each a-position p, the (q, t, sign) with e^p ^ e^q = sign * e^t over the b-positions q
    disjoint from p; the a- and b-subsets of each union t pair up as complements in it."""
    left, right = _positions(n, a), _positions(n, b)
    rows, signs = [[] for _ in left], _complement_signs(a + b, a)
    for t, union in enumerate(_positions(n, a + b)):
        for i, j, sign in zip(combinations(union, a), reversed([*combinations(union, b)]), signs):
            rows[left[i]].append((right[j], t, sign))
    return rows


def _keyed(sums: dict, n: int, k: int) -> dict:
    """{exponents: int list over the k-positions} as layers {exponents: {index tuple: int}}."""
    return {e: {i: v for i, v in zip(_positions(n, k), acc) if v} for e, acc in sums.items()}


def form_to_vector(alpha: AltForm, monos: Sequence[tuple]) -> list[Fraction]:
    """Coefficients of alpha along the given monomials, as Fractions.

    Raises ValueError when a coefficient is symbolic.
    """
    if not alpha.is_rational():
        raise ValueError(f"{alpha.render()} does not have rational coefficients")
    layer = next(iter(alpha.layers.values()), {})
    return [Fraction(layer[idx], alpha.den) if idx in layer else _ZERO for idx in monos]


class ExteriorOp:
    """A linear map on the k-forms of an n-space, sparse.

    It is a derivation of the exterior algebra that raises degrees by
    ``shift``, fixed by its values on covectors, e^i -> sum of value * e^{idx}
    over the (idx, value) pairs of ``image[i]``, and the graded Leibniz rule
    D(a ^ b) = D(a) ^ b + (-1)^(shift * deg a) a ^ D(b).  The entries are ints
    over one denominator ``den``, the lcm of the denominators of every image
    term: ``columns`` maps each exponent vector of the context ``symbols`` to
    the integer columns ``{input monomial: {output monomial: entry}}`` of that
    power of the parameters, with nonzero entries.  A rational operator has
    only the zero vector.  Image keys and the shift + 1 indices of each
    replacement lie in 1..dim, and values are PolyScalars in the context.
    """

    __slots__ = ("dim", "degree", "out_degree", "symbols", "columns", "den")

    def __init__(self, dim: int, degree: int, shift: int, symbols, image: Mapping):
        if degree < 0 or shift < 0:
            raise ValueError(f"degree and shift must be nonnegative, got {degree} and {shift}")
        self.dim, self.degree, self.symbols = dim, degree, tuple(symbols)
        self.out_degree = degree + shift
        for i, pairs in image.items():  # the tables below index by position
            if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= dim:
                raise ValueError(f"image key {i!r} is not an index in 1..{dim}")
            for replacement, value in pairs:
                if len(replacement) != shift + 1 or not all(
                        isinstance(j, int) and not isinstance(j, bool) and 1 <= j <= dim
                        for j in replacement):
                    raise ValueError(f"replacement {replacement!r} is not {shift + 1} "
                                     f"indices in 1..{dim}")
                if not isinstance(value, PolyScalar):
                    raise TypeError(f"image values are PolyScalars, got {value!r}")
                if value.symbols != self.symbols:
                    raise ContextMismatchError("image value context does not match the operator")
        values = {(i, p): value for i, pairs in image.items() for p, (_, value) in enumerate(pairs)}
        self.den, layers = _lift(values)
        self.columns = {}
        if not degree or not layers:  # D vanishes on the 0-forms; no tables for the zero map
            return
        # D(e^I) = sum over i in I of s D(e^i) ^ e^{I - i}, where e^i ^ e^{I - i} = s e^I
        ones, images = _products(dim, 1, degree - 1), _products(dim, shift + 1, degree - 1)
        sources, targets = monomials(dim, degree), monomials(dim, degree + shift)
        replacements = _positions(dim, shift + 1)
        for expo, lifted in layers.items():
            sums: dict[int, dict] = {}  # input position -> {output position: int}
            for (i, slot), c in lifted.items():
                if sorted_sign := sort_sign(image[i][slot][0]):  # None on a repeated index
                    replacement, sign = sorted_sign
                    inputs = {rest: (p, s * sign * c) for rest, p, s in ones[i - 1]}
                    for rest, t, s in images[replacements[replacement]]:  # e^R ^ e^rest = s e^t
                        if rest in inputs:
                            p, v = inputs[rest]
                            column = sums.setdefault(p, {})
                            column[t] = column.get(t, 0) + s * v
            if columns := {sources[p]: kept for p, column in sums.items()
                           if (kept := {targets[t]: v for t, v in column.items() if v})}:
                self.columns[expo] = columns

    def is_rational(self) -> bool:
        """Whether every entry is a rational constant (only the zero exponent vector)."""
        return all(not any(expo) for expo in self.columns)

    def apply(self, alpha: AltForm) -> AltForm:
        """The image of alpha: its layers times the integer entries, over
        den times alpha's den."""
        if (alpha.dim, alpha.degree) != (self.dim, self.degree):
            raise ValueError(
                f"operator acts on {self.degree}-forms of a {self.dim}-space, "
                f"got a {alpha.degree}-form of a {alpha.dim}-space"
            )
        if alpha.symbols != self.symbols:
            raise ContextMismatchError("form context does not match the operator")
        sums: dict[tuple, dict] = {}  # exponents -> {output monomial: integer sum}
        for e1, columns in self.columns.items():
            for e2, layer in alpha.layers.items():
                acc = sums.setdefault(tuple(map(add, e1, e2)), {})
                for idx, x in layer.items():
                    for row, entry in columns.get(idx, {}).items():
                        acc[row] = acc.get(row, 0) + entry * x
        return AltForm._trusted(self.dim, self.out_degree, self.symbols, self.den * alpha.den, sums)


# -- rendering / parsing ------------------------------------------------------

# a term at the start of a chunk between signs: its sign, "p" or "p/q", any other
# coefficient text, and its indices (none for a 0-form); digits are ASCII
_TERM_RE = re.compile(r"([+-]?)(?:(?:(\d+)(?:/(\d+))?|([^e+-]*?))\*?)?e\^\{(\d*)\}(?=[+-]|\Z)",
                      re.ASCII)


def render_form(alpha: AltForm) -> str:
    """Signed-sum rendering, e.g. ``e^{1 2 4} - e^{1 3 5}``.

    Multi-indices are printed in lexicographic order.  Non-constant
    coefficients are parenthesized; rational coefficients follow the
    ``c*e^{...}`` convention with 1 and -1 absorbed into the sign.
    """
    parts: list[str] = []
    for idx, coeff in sorted(alpha.coeffs.items()):
        e_part = "e^{" + " ".join(str(i) for i in idx) + "}"
        if coeff.is_constant():
            value = coeff.constant_value()
            mag = abs(value)
            body = e_part if mag == 1 else f"{mag}*{e_part}"
            negative = value < 0
        else:
            body = f"({coeff.render()})*{e_part}"
            negative = False
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts) or "0"


def parse_form(text: str, dim: int, degree: int | None = None,
               symbols: Iterable[str] = ()) -> AltForm:
    """Parse the rendering produced by :func:`render_form`.

    Only rational coefficients are supported (which covers every bundled case
    file); indices are single ASCII digits, so a dim above 9 raises ValueError.
    Whitespace is dropped wherever it stands, but an error quotes the term as
    written in ``text``.  One regex reads each term, its coefficient as ints
    and a sorted index tuple through the position table; the sums go to
    ``_trusted`` over one lcm.
    """
    if type(text) is not str:
        raise TypeError(f"a form literal is a str, got {text!r}")
    if type(dim) is not int or (degree is not None and type(degree) is not int):
        raise TypeError(f"dimension and degree are ints, got {dim!r} and {degree!r}")
    if dim > 9:
        raise ValueError(f"form literals have single-digit indices: dimension {dim} is above 9")
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty form literal")
    if compact in {"0", "+0", "-0"}:
        if degree is None:
            raise ValueError("the zero form needs an explicit degree")
        return AltForm(dim, degree, symbols)
    form_degree, terms, end = degree, [], 0  # terms: (sorted key, signed num, den)
    try:
        while end < len(compact):
            if not (m := _TERM_RE.match(compact, end)):  # name the chunk at end
                start = end + (compact[end] in "+-")
                stop = start + len(signed_terms(text, compact[end:])[0][1])
                raise ValueError(f"cannot parse form term {_as_written(text, start, stop)!r}")
            sign, num, den, other, idx = m.groups()
            start, end = end + len(sign), m.end()  # the term without its sign, in compact
            num, den = int(num or 1), int(den or 1)
            if other or not den:  # q = 0, or not p/q: parse_rational refuses it and says why
                span = m.span(4) if other else (m.start(2), m.end(3))
                parse_rational(_as_written(text, *span))
            indices = tuple(map(int, idx))
            if "0" in idx or (idx and max(indices) > dim):
                raise ValueError(f"index out of range 1..{dim} in "
                                 f"{_as_written(text, start, end)!r}")
            if degree is not None and len(indices) != degree:
                raise ValueError(f"term {_as_written(text, start, end)!r} does not have "
                                 f"degree {degree}")
            if form_degree not in (None, len(indices)):
                raise ValueError("cannot add forms of different degree")
            form_degree = len(indices)
            # a sorted key is a position; above dim an index repeats (min bounds the tables)
            if indices in _positions(dim, min(form_degree, dim)):
                terms.append((indices, -num if sign == "-" else num, den))
            elif sorted_sign := sort_sign(indices):  # None on a repeated index: no term
                key, order = sorted_sign
                terms.append((key, -num if (sign == "-") != (order < 0) else num, den))
    except ValueError:
        signed_terms(text, compact)  # a dangling sign comes before any term error
        raise
    symbols, den, layer = check_context(symbols), lcm(*(q for _, _, q in terms)), {}
    for key, num, q in terms:
        layer[key] = layer.get(key, 0) + num * (den // q)
    return AltForm._trusted(dim, form_degree, symbols, den, {(0,) * len(symbols): layer})
