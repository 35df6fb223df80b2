"""Exact scalar arithmetic: rationals and multivariate polynomials over Q.

The engine never touches floating point.  A scalar is a ``PolyScalar``: a
polynomial with ``fractions.Fraction`` coefficients in a fixed, ordered tuple
of parameter symbols (the *context*).  Plain rationals are the special case
of an empty context or a constant polynomial.

PolyScalar values are immutable and always kept in canonical form: dense
exponent vectors (one entry per context symbol), no zero coefficients
stored.  Because of this, two polynomials are equal if and only if their
term maps are identical, so the zero test is exact and free.  The public
constructors (``PolyScalar(...)``, ``constant``, ``with_symbols``, ``parse``
...) validate and normalize their input, whose values are ints or
Fractions (``_exact``: a float is a binary fraction, not the rational it
prints); the private ``_trusted`` skips that and is only for results of
operations on values already valid.  Signed sums, the text of a polynomial
and of a form, have one writer, :func:`signed_sum`, and one reader, :func:`signed_terms`.

The arithmetic is what the checks need of a scalar: add, negate, compare
and substitute.  The form kernels multiply ints inside their own layers, so
no engine path multiplies two polynomials and none is provided.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "ContextMismatchError",
    "PolyScalar",
    "check_context",
    "parse_rational",
    "signed_sum",
    "signed_terms",
]


class ContextMismatchError(ValueError):
    """Two scalars with different parameter contexts were combined."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` (q > 0) into a Fraction; nothing else is a rational."""
    if type(text) is not str:
        raise TypeError(f"a rational literal is a str, got {text!r}")
    if match := _RATIONAL_RE.match(text.strip()):
        p, q = match.groups()
        if q is None or int(q):
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
    raise ValueError(f"invalid rational literal {text!r}")  # no match, or q = 0


def _exact(value) -> Fraction:
    """An int or a Fraction as a Fraction; TypeError on anything else (a float is not exact)."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, int):
        raise TypeError(f"values are ints or Fractions, got {type(value).__name__} {value!r}")
    return Fraction(value)


def signed_sum(terms: Iterable[tuple[bool, str]]) -> str:
    """The (negative, body) terms as text: the first signed only when negative, the
    others joined by " + " or " - "; "0" for no term."""
    parts: list[str] = []
    for negative, body in terms:
        parts.append((" - " if negative else " + ") if parts else "-" if negative else "")
        parts.append(body)
    return "".join(parts) or "0"


def signed_terms(text: str, compact: str) -> list[tuple[bool, str]]:
    """The terms of the signed sum ``compact`` (``text`` without whitespace) as
    (negative, body) pairs; ValueError on a sign that no term follows."""
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(chunks) != compact:
        raise ValueError(f"dangling sign in {text!r}")
    return [(chunk[0] == "-", chunk.lstrip("+-")) for chunk in chunks]


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$", re.ASCII)


def check_context(symbols: Iterable[str]) -> tuple[str, ...]:
    """The parameter context as a tuple; TypeError on a str (not a sequence of
    names) or a name that is not a str, ValueError on an invalid or repeated name.
    A name is an ASCII letter followed by ASCII letters, digits or underscores."""
    if isinstance(symbols, str):
        raise TypeError(f"a context is a sequence of names, got the str {symbols!r}")
    symbols = tuple(symbols)
    for pos, name in enumerate(symbols):
        if not isinstance(name, str):
            raise TypeError(f"a symbol name is a str, got {name!r}")
        if not (name.isascii() and name.isidentifier() and name[0] != "_"):
            raise ValueError(f"invalid symbol name {name!r}")
        if symbols.index(name) < pos:
            raise ValueError(f"duplicate symbol {name!r} in context")
    return symbols


class PolyScalar:
    """Multivariate polynomial over Q in an ordered parameter context.

    ``symbols`` is the context (a tuple of names); ``terms`` maps dense
    exponent tuples (length ``len(symbols)``) to nonzero Fractions.
    """

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols: Iterable[str], terms: Mapping[tuple, Fraction] | None = None):
        symbols = check_context(symbols)
        nsym = len(symbols)
        clean: dict[tuple, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                if not all(type(e) is int for e in expo):
                    raise TypeError(f"exponents are ints, got {expo!r}")
                expo = tuple(expo)
                if len(expo) != nsym:
                    raise ValueError(
                        f"exponent vector {expo} does not match context of {nsym} symbols"
                    )
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                coeff = _exact(coeff)
                if coeff:
                    acc = clean.get(expo, _ZERO) + coeff
                    if acc:
                        clean[expo] = acc
                    else:
                        clean.pop(expo, None)
        self.symbols = symbols
        self.terms = clean

    @classmethod
    def _trusted(cls, symbols: tuple, terms: dict) -> "PolyScalar":
        """Wrap a valid context and a canonical term map (no zero coefficient), unchecked."""
        poly = object.__new__(cls)
        poly.symbols, poly.terms = symbols, terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, symbols: Iterable[str] = ()) -> "PolyScalar":
        symbols = tuple(symbols)
        return cls(symbols, {(0,) * len(symbols): value})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(expo) for expo in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self.render()} is not a constant")
        return next(iter(self.terms.values()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PolyScalar") -> "PolyScalar":
        if not isinstance(other, PolyScalar):
            return NotImplemented
        if self.symbols != other.symbols:
            raise ContextMismatchError(f"context mismatch: {self.symbols} vs {other.symbols}")
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = terms.get(expo, _ZERO) + coeff
            if acc:
                terms[expo] = acc
            else:
                terms.pop(expo, None)
        return PolyScalar._trusted(self.symbols, terms)

    def __neg__(self) -> "PolyScalar":
        return PolyScalar._trusted(self.symbols, {e: -c for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyScalar):
            return NotImplemented
        return self.symbols == other.symbols and self.terms == other.terms

    __hash__ = None  # mutable dict inside; not hashable

    # -- substitution ------------------------------------------------------

    def substitute(self, assignment: Mapping[str, Fraction]) -> "PolyScalar":
        """Substitute rationals for a subset of the context symbols.

        The result lives in the reduced context (assigned symbols removed,
        order preserved).  Assigning every symbol yields a constant.
        """
        for name in assignment:
            if name not in self.symbols:
                raise ValueError(f"unknown symbol {name!r} in assignment")
        values = {name: _exact(v) for name, v in assignment.items()}
        keep = [i for i, s in enumerate(self.symbols) if s not in values]
        new_symbols = tuple(self.symbols[i] for i in keep)
        terms: dict[tuple, Fraction] = {}
        for expo, coeff in self.terms.items():
            factor = coeff
            for i, s in enumerate(self.symbols):
                if s in values and expo[i]:
                    factor *= values[s] ** expo[i]
            new_expo = tuple(expo[i] for i in keep)
            acc = terms.get(new_expo, _ZERO) + factor
            if acc:
                terms[new_expo] = acc
            else:
                terms.pop(new_expo, None)
        return PolyScalar._trusted(new_symbols, terms)

    def with_symbols(self, symbols: Iterable[str]) -> "PolyScalar":
        """Reinterpret this polynomial in a larger context.

        Every current symbol must appear in the target context.
        """
        symbols = tuple(symbols)
        positions = []
        for name in self.symbols:
            if name not in symbols:
                raise ValueError(f"target context is missing symbol {name!r}")
            positions.append(symbols.index(name))
        nsym = len(symbols)
        terms = {}
        for expo, coeff in self.terms.items():
            new_expo = [0] * nsym
            for pos, e in zip(positions, expo):
                new_expo[pos] = e
            terms[tuple(new_expo)] = coeff
        return PolyScalar(symbols, terms)

    # -- rendering / parsing -----------------------------------------------

    def render(self) -> str:
        """Canonical text form: graded-lex term order, symbols in context order.

        Examples: ``6*b - 2``, ``-a3``, ``1/2*a1 + 2*a2``.
        """
        items = sorted(
            self.terms.items(),
            key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])),
        )
        terms: list[tuple[bool, str]] = []
        for expo, coeff in items:
            monomial = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.symbols, expo)
                if e
            )
            mag = abs(coeff)
            if not monomial:
                body = str(mag)
            elif mag == 1:
                body = monomial
            else:
                body = f"{mag}*{monomial}"
            terms.append((coeff < 0, body))
        return signed_sum(terms)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"PolyScalar({self.symbols!r}, {self.render()!r})"

    @classmethod
    def parse(cls, text: str, symbols: Iterable[str]) -> "PolyScalar":
        """Parse the canonical rendering (and harmless variants of it).

        Whitespace is dropped wherever it stands, but an error quotes the
        factor as written in ``text``."""
        if type(text) is not str:
            raise TypeError(f"a polynomial literal is a str, got {text!r}")
        symbols = check_context(symbols)
        compact = "".join(text.split())
        if not compact:
            raise ValueError("empty polynomial literal")
        if _RATIONAL_RE.match(compact):  # "p" or "p/q", the common case: one constant
            value = _rational(text, compact, 0, len(compact))
            return cls._trusted(symbols, {(0,) * len(symbols): value} if value else {})
        terms, start = {}, int(compact[0] in "+-")
        for negative, chunk in signed_terms(text, compact):
            coeff = Fraction(-1 if negative else 1)
            expo = [0] * len(symbols)
            for factor in chunk.split("*"):  # factor is compact[start:stop]
                stop = start + len(factor)
                if not factor:
                    raise ValueError(f"empty factor in {text!r}")
                if _RATIONAL_RE.match(factor):
                    coeff *= _rational(text, compact, start, stop)
                else:
                    name, caret, power_text = factor.partition("^")
                    if caret and not (power_text.isascii() and power_text.isdigit()):
                        raise ValueError(f"invalid exponent in {_as_written(text, start, stop)!r}")
                    if name not in symbols:
                        written = _as_written(text, start, start + len(name))
                        raise ValueError(f"unknown symbol {written!r} (context {symbols})")
                    expo[symbols.index(name)] += int(power_text) if caret else 1
                start = stop + 1  # past the '*', or the sign of the next term
            terms[tuple(expo)] = terms.get(tuple(expo), 0) + coeff
        return cls(symbols, terms)


_ZERO = Fraction(0)


def _rational(text: str, compact: str, start: int, stop: int) -> Fraction:
    """The rational literal compact[start:stop]; a zero denominator is refused
    quoting the literal as written in ``text``."""
    try:
        return parse_rational(compact[start:stop])
    except ValueError:
        return parse_rational(_as_written(text, start, stop))  # raises: q = 0 there too


def _as_written(text: str, start: int, stop: int) -> str:
    """``text`` from its start-th to its (stop - 1)-th non-whitespace character, as written."""
    spots = [pos for pos, ch in enumerate(text) if not ch.isspace()]
    return text[spots[start]:spots[stop - 1] + 1] if start < stop else ""
