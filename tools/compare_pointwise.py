"""Differential check of the fixed product between two trees: the pointwise G2
path, the Lie tables and solves on seeded inputs, and the CLI's outputs.

Usage, from the repository root::

    git worktree add OTHER_DIR REV
    python3 tools/compare_pointwise.py OTHER_DIR/src [src]

Each tree runs the same seeded inputs in its own interpreter, the two at
once, and the results are rendered to strings and compared exactly.  Both
trees read the case files of the second tree (``src`` by default), in the
``cases`` group as the CLI's ``--input``.  The groups:

* ``b``: all 49 entries of B through ``b_entries`` for 300 random 3-forms
  on R^7 (densities 0.15, 0.5 and 1; every third one with polynomial
  coefficients in two symbols);
* ``definiteness``: verdict, orientation, minor chain, witness vectors and
  the rendered report of every rational one of those forms;
* ``minors``: ``leading_principal_minors`` and ``det`` of 3000 random
  rational matrices of size 1..7, half of them symmetric;
* ``hodge``: ``hodge_dual_up_to_scale`` for (n, k) = (7, 3), (7, 4),
  (6, 3) and (7, 2), with positive-definite metrics A^T A as Fraction rows;
* ``hitchin``: lambda and Hitchin's K of 200 random rational 3-forms on R^6;
* ``lie``: for every bundled case, the ``ExteriorOp.columns`` of
  ``homog_num().derivations(k)`` and ``homog_num().differential(k)`` for
  k = 0..dim m, and ``jacobi_check(record.algebra).render()`` for full
  sources; then the ``columns`` of ``ExteriorOp(n, k, shift, ...)`` for 150
  seeded images on R^n, shift 0..2 and every degree k = 0..n: each covector
  goes to up to three terms, most with distinct indices in random order,
  some with a repeated index, every fifth image with polynomial values in
  two symbols, drawn from a stream of their own so that the inputs of the
  groups below do not move; then ``jacobi_check(...).render()`` for 200
  seeded random structure-constants tables, some symbolic, some with a
  repeated zero or cancelling triple (the child sums them into the table it
  passes to ``HomogeneousSpaceData``); then the same for 40 sparse tables at
  the bundled sizes, n = 7..15, every fourth one symbolic, drawn from a
  stream of their own.  It reads only case documents and
  operators, so it runs whatever table format ``HomogeneousSpaceData``
  stores.  It renders each entry as its polynomial value, from the
  ``columns`` layout: one table ``{input monomial: {output monomial: int}}``
  over the operator's ``den`` per exponent vector of the context;
* ``pullback``: ``pullback`` of 300 random forms of every degree 0..n on
  R^n, n <= 7 (every third one with polynomial coefficients in two
  symbols), by random rational matrices, every fourth one singular;
* ``contract``: ``contract`` of each of those forms of positive degree by
  every basis index;
* ``apply``: for every bundled case and k = 0..dim m, ``apply`` of
  ``derivations(k)`` and ``differential(k)`` to seeded random k-forms:
  rational forms under ``homog_num()``, and under ``homog_sym`` forms in
  the case context, every other one with polynomial coefficients.  It runs
  after the other groups, so their inputs do not depend on it;
* ``wedge``: ``wedge`` of 400 seeded pairs of random forms on R^n, n <= 7,
  with degrees summing to at most n: rational coefficients with
  denominators, and every third pair with polynomial coefficients in two
  symbols.  It runs after the groups above;
* ``hodge_poly``: ``hodge_dual_up_to_scale`` for (n, k) = (7, 3), (7, 4),
  (6, 3) and (6, 2), with metrics as in ``hodge`` and dense forms whose
  coefficients are polynomial in two symbols.  It runs after the groups above;
* ``linalg``: ``rref``, ``rank``, the integer kernels ``_nullspace_ints``
  and ``_reduced`` (``(ints, den)`` rows) and ``solve_many`` of seeded
  matrices: 40 sparse stacks of int rows shaped like the stacked
  derivation rows of ``invariant_forms`` (up to 116 x 35, one or two
  nonzeros per row), 60 dense Fraction matrices, some rank-deficient, and
  60 matrices whose rows alternate between ints and Fractions; each with
  one consistent and one random right-hand side, as ints or Fractions like
  its rows.  Then ``rank`` of each matrix under its own first row, and
  ``_reduced`` of the pivot rows of its ``rref`` (the same rows as
  ``_reduced`` of the matrix), which draw no random number.  It runs after
  the groups above;
* ``parse``: ``parse_form`` of 300 seeded renders of random forms on R^n,
  n <= 7, with extra terms appended (repeated, with unsorted or repeated
  indices, some cancelling a term, with and without rational
  coefficients), in the empty context and in (a, b), with and without the
  degree; then malformed literals: a bad index, a wrong degree, mixed
  degrees, a bad rational, an invalid or repeated context name, and
  combinations of these, whose order of checks shows in which message
  wins.  Each result is its (dim, degree, context, render), or the type
  and message of the exception.  It runs after the groups above;
* ``solve``: for every bundled case, every enumeration and every
  k = 0..dim m, the rendered ``invariant_forms`` basis, the rendered
  ``closed_forms`` basis, its ``rank`` and its ``generic`` form.  It runs
  after the groups above;
* ``congruence``: the rendered pairs (d_i, v_i) of ``congruence_diagonalize``
  for 700 seeded symmetric rational matrices of size 1..7: dense, sparse,
  with a zero diagonal (which forces the v_k += v_j step), with a zero row
  and column, and of rank at most 2.  It runs after the groups above;
* ``inverse``: ``inverse`` of 400 seeded rational matrices of size 2..7
  with a zero leading entry, so that the first step exchanges rows; every
  fourth one is singular, and gives the type and message of its error.
  It runs after the groups above;
* ``structure``: the sorted ``from_matrices`` bracket table, or the type and
  message of its error, for every bundled matrix-basis case: the basis as
  it is, sheared by seeded rational matrices (with denominators), in
  complex form (a real case as (x, 0) pairs) sheared the same way, with one
  matrix a combination of two others (dependent), and cut to shuffled
  subsets (mostly not closed); then 60 seeded random bases of 2 to 4
  rational 2 x 2 or 3 x 3 matrices, every third one complex; then each
  bundled complex basis conjugated by a seeded dense unimodular integer P,
  as it is and cut to two shuffled subsets.  It runs after the groups above;
* ``su3``: ``flags()``, lambda and the gram matrix G (or None) of
  ``su3_check`` for 280 seeded pairs on R^6, flat and with d e^6 = e^{12} +
  e^{34}: (P*omega0, P*psi0) for dense unimodular P, every other one with a
  reflection; -P*omega0, which the omega^3 orientation tames too; P*omega0
  with one term negated (G symmetric, not tamed); both scaled by rationals;
  a random psi (mostly unstable); a random omega (G mostly not symmetric);
  and a degenerate omega of rank 4.  It runs after the groups above;
* ``verify``: ``verify --all --format json`` with each case's ``seconds``
  dropped, re-dumped with ``indent=2`` in the order the report's keys came
  in, and the text report of ``verify --all`` with its ``N.NNs`` case
  times masked;
* ``schema``: the output of ``schema``;
* ``cases``: for every case file, ``invariants --degree 2``,
  ``invariants --degree 3`` and ``closed`` in JSON, then
  ``invariants --degree 3`` and ``closed`` in text.

The last three groups run ``g2forms.cli.main`` in process, after the groups
above.  Each of their results is a command's arguments, exit code, stdout
and stderr, so a command that exits 1, 2 or 3 on one side only differs too;
a command that exits nonzero on the change tree makes its group DIFFERENT
even when the base exits the same way, and is listed under the group.
Exits 1 when any group differs or is missing on one side.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

CHILD = r'''
import io, json, random, re, sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from g2forms import _linalg
from g2forms.cli import main
from g2forms.catalog import bundled_ids, load_bundled
from g2forms.exterior import AltForm, ExteriorOp, contract, parse_form, pullback, wedge
from g2forms.gstruct import (
    b_entries, definiteness, hitchin_stability, hodge_dual_up_to_scale, su3_check,
)
from g2forms.invariants import closed_forms, invariant_forms
from g2forms.liealg import (
    HomogeneousSpaceData, LieStructureError, MatrixBasis, from_matrices, jacobi_check,
)
from g2forms.scalars import PolyScalar
PAIRS = [(i, j) for i in range(1, 8) for j in range(1, 8)]

def rational(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 6))

def coefficient(rng, symbols):
    if symbols and rng.random() < 0.5:
        c1, symbol, c0 = rng.randint(-3, 3), rng.choice(symbols), rng.randint(-3, 3)
        return f"{c1}*{symbol} {'-' if c0 < 0 else '+'} {abs(c0)}"  # no "+ -": a dangling sign
    return str(rational(rng))

def form(rng, n, k, symbols=(), density=0.5):
    coeffs = {}
    for idx in combinations(range(1, n + 1), k):
        if rng.random() < density:
            coeffs[idx] = PolyScalar.parse(coefficient(rng, symbols), symbols)
    return AltForm(n, k, symbols, coeffs)

def metric(rng, n):
    # A^T A as Fraction rows, or None when singular
    a = [[rational(rng) for _ in range(n)] for _ in range(n)]
    q = [[sum((a[r][i] * a[r][j] for r in range(n)), F(0)) for j in range(n)] for i in range(n)]
    return None if _linalg.det(q) == 0 else q

def columns(op):
    # {exponents: {input: {output: int over den}}} as {input: {output: polynomial}}
    terms = {}
    for expo, table in op.columns.items():
        for idx, column in table.items():
            for row, value in column.items():
                terms.setdefault(idx, {}).setdefault(row, {})[expo] = F(value, op.den)
    rendered = {idx: {row: PolyScalar(op.symbols, t).render() for row, t in column.items()}
                for idx, column in terms.items()}
    return [
        [list(idx), [[list(row), text] for row, text in sorted(column.items())]]
        for idx, column in sorted(rendered.items())
    ]

def case_form(rng, data, k, symbolic):
    coeffs = {}
    for idx in combinations(range(1, data.dim_m + 1), k):
        if rng.random() < 0.5:
            text = coefficient(rng, data.symbols if symbolic else ())
            coeffs[idx] = PolyScalar.parse(text, data.symbols)
    return AltForm(data.dim_m, k, data.symbols, coeffs)

out = {
    "b": [], "definiteness": [], "minors": [], "hodge": [], "hitchin": [], "lie": [],
    "pullback": [], "contract": [], "apply": [], "wedge": [], "hodge_poly": [], "linalg": [],
    "parse": [], "solve": [], "congruence": [], "inverse": [], "structure": [], "su3": [],
    "verify": [], "schema": [], "cases": [],
}
rng = random.Random(20261018)
for t in range(300):
    symbols = ("a", "b") if t % 3 == 2 else ()
    phi = form(rng, 7, 3, symbols, density=rng.choice([0.15, 0.5, 1.0]))
    entries = b_entries(phi, PAIRS)
    out["b"].append([entries[pair].render() for pair in PAIRS])
    if not symbols:
        r = definiteness(phi)
        witnesses = [(value, [str(x) for x in vec]) for value, vec in r.witnesses]
        out["definiteness"].append(
            [r.verdict, r.orientation, [str(m) for m in r.minors], witnesses, r.render()]
        )
for t in range(3000):
    n = rng.randint(1, 7)
    m = [[rational(rng) if rng.random() < 0.6 else F(0) for _ in range(n)] for _ in range(n)]
    if t % 2:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    chain = _linalg.leading_principal_minors(m)
    out["minors"].append([str(x) for x in chain] + [str(_linalg.det(m))])
for t in range(160):
    n, k = [(7, 3), (7, 4), (6, 3), (7, 2)][t % 4]
    q = metric(rng, n)
    if q is not None:
        out["hodge"].append(hodge_dual_up_to_scale(q, form(rng, n, k)).render())
for t in range(200):
    r = hitchin_stability(form(rng, 6, 3, density=rng.choice([0.15, 0.5, 1.0])))
    out["hitchin"].append([str(r.lam), [[str(x) for x in row] for row in r.k_matrix]])
for case_id in bundled_ids():
    record = load_bundled(case_id)
    data = record.homog_num()
    for k in range(data.dim_m + 1):
        ops = [columns(op) for op in data.derivations(k)]
        out["lie"].append([case_id, k, ops, columns(data.differential(k))])
    if record.source != "partial-homogeneous":
        out["lie"].append([case_id, jacobi_check(record.algebra).render()])
lie_rng = random.Random(20261021)  # its own stream: the later groups' inputs stay put
for t in range(150):
    shift, symbols = t % 3, ("a", "b") if t % 5 == 4 else ()
    n = lie_rng.randint(shift + 1, 7)
    image = {}
    for i in range(1, n + 1):
        for _ in range(lie_rng.randint(0, 3)):
            replacement = (lie_rng.sample(range(1, n + 1), shift + 1) if lie_rng.random() < 0.8
                           else [lie_rng.randint(1, n) for _ in range(shift + 1)])  # maybe repeated
            value = PolyScalar.parse(coefficient(lie_rng, symbols), symbols)
            image.setdefault(i, []).append((tuple(replacement), value))
    for k in range(n + 1):
        out["lie"].append([n, k, shift, columns(ExteriorOp(n, k, shift, symbols, image))])
for t in range(200):
    n = rng.randint(2, 6)
    symbols = ["a", "b"] if t % 4 == 3 else []
    density = rng.choice([0.05, 0.15, 0.3])
    constants = [
        [i, j, k, coefficient(rng, symbols)]
        for i in range(1, n + 1) for j in range(i + 1, n + 1) for k in range(1, n + 1)
        if rng.random() < density
    ]
    constants += [[i, j, k, "0"] for i, j, k, _ in constants[:1]]
    constants += [[i, j, k, str(-F(c))] for i, j, k, c in constants[1:2] if not symbols]
    table = {}
    for i, j, k, c in constants:
        comps = table.setdefault((i, j), {})
        value = PolyScalar.parse(c, symbols)
        comps[k] = comps[k] + value if k in comps else value
    out["lie"].append(jacobi_check(HomogeneousSpaceData(n, [], table, None, symbols)).render())
jacobi_rng = random.Random(20261035)  # its own stream, as lie_rng: the later groups' inputs stay put
for t in range(40):
    n, symbols = 7 + t % 9, ("a", "b") if t % 4 == 3 else ()
    table = {}
    for i, j in combinations(range(1, n + 1), 2):
        for k in range(1, n + 1):
            if jacobi_rng.random() < 3 / (n * n):  # about 3 n / 2 constants
                value = PolyScalar.parse(coefficient(jacobi_rng, symbols), symbols)
                table.setdefault((i, j), {})[k] = value
    out["lie"].append(jacobi_check(HomogeneousSpaceData(n, [], table, None, symbols)).render())
for t in range(300):
    n = rng.randint(1, 7)
    symbols = ("a", "b") if t % 3 == 2 else ()
    alpha = form(rng, n, rng.randint(0, n), symbols, density=rng.choice([0.15, 0.5, 1.0]))
    p = [[rational(rng) if rng.random() < 0.7 else F(0) for _ in range(n)] for _ in range(n)]
    if t % 4 == 3:  # singular: the last row is a multiple of the first, or zero
        p[-1] = [x * (n - 1) for x in p[0]]
    out["pullback"].append(pullback(alpha, p).render())
    if alpha.degree:
        out["contract"].append([contract(i, alpha).render() for i in range(1, n + 1)])
for case_id in bundled_ids():
    record = load_bundled(case_id)
    for data, symbolic in ((record.homog_num(), False), (record.homog_sym, True)):
        for k in range(data.dim_m + 1):
            ops = [*data.derivations(k), data.differential(k)]
            for t in range(2):
                alpha = case_form(rng, data, k, symbolic and t == 1)
                out["apply"].append([case_id, k, [op.apply(alpha).render() for op in ops]])
for t in range(400):
    n = rng.randint(1, 7)
    symbols = ("a", "b") if t % 3 == 2 else ()
    k = rng.randint(0, n)
    l = rng.randint(0, n - k)
    density = rng.choice([0.15, 0.5, 1.0])
    alpha, beta = form(rng, n, k, symbols, density), form(rng, n, l, symbols, density)
    out["wedge"].append(wedge(alpha, beta).render())
for t in range(80):
    n, k = [(7, 3), (7, 4), (6, 3), (6, 2)][t % 4]
    q = metric(rng, n)
    if q is not None:
        alpha = form(rng, n, k, ("a", "b"), density=1.0)
        out["hodge_poly"].append(hodge_dual_up_to_scale(q, alpha).render())

def sparse_ints(rng, nrows, ncols):
    rows = [[0] * ncols for _ in range(nrows)]
    for row in rows:
        for c in rng.sample(range(ncols), min(ncols, rng.choice([1, 1, 2]))):
            row[c] = rng.choice([-3, -2, -1, 1, 2, 3])
    return rows

def strs(rows):
    return [None if row is None else [str(x) for x in row] for row in rows]

for t in range(160):
    if t < 40:  # a stacked-derivation shape, on a random share of the 35 columns
        ncols = 35
        mat = sparse_ints(rng, rng.choice([12, 30, 116]), ncols)
        for c in rng.sample(range(ncols), rng.randint(0, 8)):
            for row in mat:
                row[c] = 0
    else:
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
        mat = [[rational(rng) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and t % 3 == 0:  # rank-deficient: the last row depends on the first two
            mat[-1] = [x - 2 * y for x, y in zip(mat[0], mat[min(1, nrows - 1)])]
        if t >= 100:
            mat[::2] = sparse_ints(rng, len(mat[::2]), ncols)
    x = [rng.randint(-3, 3) for _ in range(ncols)]
    consistent = [sum(a * b for a, b in zip(row, x)) for row in mat]
    random_rhs = [rng.randint(-3, 3) if t < 40 else rational(rng) for _ in mat]
    rhs = [[u, v] for u, v in zip(consistent, random_rhs)]
    reduced, pivots = _linalg.rref(mat)
    out["linalg"].append([
        strs(reduced), pivots, _linalg.rank(mat), _linalg._nullspace_ints(mat, ncols),
        _linalg._reduced(mat), strs(_linalg.solve_many(mat, rhs)),
        _linalg.rank(mat[:1] + mat), _linalg._reduced(reduced[: len(pivots)]),
    ])

def parsed(text, n, degree=None, symbols=()):
    try:
        alpha = parse_form(text, n, degree, symbols)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return [alpha.dim, alpha.degree, list(alpha.symbols), alpha.render()]

def term(rng, n, k):
    idx = " ".join(map(str, rng.sample(range(1, n + 1), k) if rng.random() < 0.8
                       else [rng.randint(1, n) for _ in range(k)]))  # maybe repeated
    c = rational(rng)
    body = f"e^{{{idx}}}" if abs(c) == 1 or rng.random() < 0.3 else f"{abs(c)}*e^{{{idx}}}"
    return ("- " if c < 0 else "+ ") + body

for t in range(300):
    n = rng.randint(1, 7)
    k = rng.randint(1, n)
    symbols = ("a", "b") if t % 2 else ()
    text = form(rng, n, k, density=rng.choice([0.15, 0.5, 1.0])).render()
    extra = [term(rng, n, k) for _ in range(rng.randint(0, 4))]
    if t % 5 == 0 and text != "0":  # cancel the first rendered term
        first = text.split(" + ")[0].split(" - ")[0].lstrip("-")
        extra.append(("+ " if text.startswith("-") else "- ") + first)
    text = text if not extra or text != "0" else extra.pop(0).lstrip("+ ")
    text = " ".join([text, *extra])
    out["parse"].append([text, parsed(text, n, k, symbols), parsed(text, n, None, symbols)])
malformed = [
    ("e^{1 2 9}", 7, 3), ("e^{0 1 2}", 7, None), ("e^{1 2 3} + e^{4 5 8}", 7, 3),
    ("e^{1 2}", 7, 3), ("e^{1 2 3 4}", 7, 3), ("e^{1 2} + e^{1 2 3}", 7, None),
    ("e^{1 2 3} - e^{1 2}", 7, None), ("e^{1 2} + e^{1 2 3}", 7, 2),
    ("1.5*e^{1 2 3}", 7, 3), ("1/0*e^{1 2 3}", 7, 3), ("x*e^{1 2 3}", 7, 3),
    ("2/-3*e^{1 2 3}", 7, 3), ("1.5*e^{1 2 9}", 7, 3), ("1/0*e^{1 2}", 7, 3),
    ("e^{1 2 9} + e^{1 2}", 7, None), ("e^{}", 7, None), ("banana", 7, 3), ("", 7, 3),
    ("0", 7, None), ("0", 0, 3), ("0", 7, -1), ("e^{1 2 3}", 2, None), ("e^{1 1 2}", 7, 3),
    ("e^{1 2 3} - e^{3 2 1}", 7, 3), ("e^{1 2 3} + e^{1 3 2}", 7, None), ("e^{1 1 2 2}", 3, None),
]
for text, n, degree in malformed:
    for symbols in ((), ("a", "b"), ("1x",), ("a", "a"), ("a", "")):
        out["parse"].append([text, n, degree, list(symbols), parsed(text, n, degree, symbols)])
for case_id in bundled_ids():
    record = load_bundled(case_id)
    for assignment in record.enumerations:
        data = record.homog_num(assignment)
        for k in range(data.dim_m + 1):
            family = closed_forms(data, k)
            out["solve"].append([
                case_id, sorted((name, str(v)) for name, v in assignment.items()), k,
                [g.render() for g in invariant_forms(data, k).basis],
                [g.render() for g in family.basis], family.rank, family.generic.render(),
            ])

def symmetric(rng, n, kind):
    if kind == "low-rank":  # a a^t - b b^t
        a, b = ([rational(rng) for _ in range(n)] for _ in range(2))
        return [[a[i] * a[j] - b[i] * b[j] for j in range(n)] for i in range(n)]
    density = 0.3 if kind == "sparse" else 0.8
    u = [[rational(rng) if rng.random() < density else F(0) for _ in range(n)] for _ in range(n)]
    s = [[u[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    for i in range(n):
        if kind == "zero-diagonal":
            s[i][i] = F(0)
        if kind == "zero-row":
            s[0][i] = s[i][0] = F(0)
    return s

KINDS = ["dense", "sparse", "zero-diagonal", "zero-row", "low-rank"]
for t in range(700):
    diag = _linalg.congruence_diagonalize(symmetric(rng, t % 7 + 1, KINDS[t % 5]))
    out["congruence"].append([[str(d), [str(x) for x in v]] for d, v in diag])
for t in range(400):
    n = rng.randint(2, 7)
    m = [[rational(rng) if rng.random() < 0.6 else F(0) for _ in range(n)] for _ in range(n)]
    m[0][0] = F(0)  # a zero leading minor: the first step exchanges rows
    if t % 4 == 3:  # singular: the last row is a multiple of the first, or zero
        m[-1] = [x * (t % 3) for x in m[0]]
    try:
        out["inverse"].append(strs(_linalg.inverse(m)))
    except Exception as exc:
        out["inverse"].append([type(exc).__name__, str(exc)])

def combine(p, mats, cx):
    # f_c = sum_k p[k][c] m_k, on (re, im) pairs when cx
    size = len(mats[0])
    def entry(c, r, s):
        if cx:
            return [sum((p[k][c] * m[r][s][part] for k, m in enumerate(mats)), F(0)) for part in (0, 1)]
        return sum((p[k][c] * m[r][s] for k, m in enumerate(mats)), F(0))
    return [[[entry(c, r, s) for s in range(size)] for r in range(size)] for c in range(len(p[0]))]

def shear(rng, n, shears):
    # a product of integer shears with its columns scaled by nonzero rationals
    p = [[F(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            f = rng.choice([-2, -1, 1, 2])
            for c in range(n):
                p[i][c] += f * p[j][c]
    scale = [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(n)]
    return [[x * s for x, s in zip(row, scale)] for row in p]

def structure(mats, cx):
    try:
        algebra = from_matrices(MatrixBasis.from_complex(mats) if cx else MatrixBasis(mats))
    except LieStructureError as exc:
        return [type(exc).__name__, str(exc)]
    return [[list(pair), [[r, c.render()] for r, c in sorted(comps.items())]]
            for pair, comps in sorted(algebra.bracket.items())]

for case_id in bundled_ids():
    record = load_bundled(case_id)
    if record.source != "matrix-basis":
        continue
    mats = [[[[F(y) for y in x] if isinstance(x, list) else F(x) for x in row] for row in m]
            for m in record.raw["matrices"]]
    cx = any(isinstance(x, list) for m in mats for row in m for x in row)
    n = len(mats)
    as_complex = mats if cx else [[[[x, F(0)] for x in row] for row in m] for m in mats]
    sheared = combine(shear(rng, n, 10), mats, cx)
    dependent = shear(rng, n, 4)
    j = rng.randrange(2, n)
    for row in dependent:
        row[j] = row[0] - 2 * row[1]
    bases = [(mats, cx), (combine(shear(rng, n, 3), mats, cx), cx), (sheared, cx),
             (combine(shear(rng, n, 6), as_complex, True), True), (combine(dependent, mats, cx), cx)]
    bases += [(rng.sample(sheared, rng.randint(2, n - 1)), cx) for _ in range(4)]
    for basis, is_complex in bases:
        out["structure"].append([case_id, structure(basis, is_complex)])
for t in range(60):
    size, cx = rng.choice([2, 3]), t % 3 == 2
    value = (lambda: [rational(rng), rational(rng)]) if cx else (lambda: rational(rng))
    mats = [[[value() if rng.random() < 0.5 else (F(0) if not cx else [F(0), F(0)])
              for _ in range(size)] for _ in range(size)] for _ in range(rng.randint(2, 4))]
    out["structure"].append(structure(mats, cx))

def unimodular(rng, n):
    # a dense integer P = L U, det P = 1, and its inverse: L and U unit triangular
    # with +-1 off the diagonal, each a product of integer shears I + c E_ij (the
    # generator of the dense-basis benchmark inputs, without the reflection)
    shears = []
    for j in range(n - 1):
        shears += [(i, j, rng.choice((-1, 1))) for i in range(j + 1, n)]
    for j in reversed(range(1, n)):
        shears += [(i, j, rng.choice((-1, 1))) for i in range(j)]
    p = [[F(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for i, j, c in shears:  # P <- P (I + c E_ij)
        for r in range(n):
            p[r][j] += c * p[r][i]
    for i, j, c in reversed(shears):  # P^-1 <- P^-1 (I - c E_ij)
        for r in range(n):
            p_inv[r][j] -= c * p_inv[r][i]
    assert times(p, p_inv) == [[i == j for j in range(n)] for i in range(n)]
    return p, p_inv

def times(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]

for case_id in bundled_ids():
    record = load_bundled(case_id)
    mats = record.raw.get("matrices") if record.source == "matrix-basis" else None
    if not mats or not any(isinstance(x, list) for m in mats for row in m for x in row):
        continue
    rng = random.Random(f"conjugate:{case_id}")
    p, p_inv = unimodular(rng, len(mats[0]))
    dense = []
    for m in mats:  # P (A + iB) P^-1 = P A P^-1 + i P B P^-1, P real
        real, imag = ([[F(x[part]) for x in row] for row in m] for part in (0, 1))
        real, imag = (times(times(p, part), p_inv) for part in (real, imag))
        dense.append([[[a, b] for a, b in zip(r1, r2)] for r1, r2 in zip(real, imag)])
    for basis in [dense] + [rng.sample(dense, rng.randint(2, len(dense) - 1)) for _ in range(2)]:
        out["structure"].append([case_id, "conjugated", structure(basis, True)])

rng = random.Random(20261020)
minus_one = PolyScalar.constant(-1)
spaces = [HomogeneousSpaceData(6, [], {}, None, ()),  # flat, and d e^6 = e^{12} + e^{34}
          HomogeneousSpaceData(6, [], {(1, 2): {6: minus_one}, (3, 4): {6: minus_one}}, None, ())]
omega0, flipped, rank4 = (parse_form(text, 6) for text in (
    "e^{1 2} + e^{3 4} + e^{5 6}", "e^{1 2} + e^{3 4} - e^{5 6}", "e^{1 2} + e^{3 4}"))
psi0 = parse_form("e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5}", 6)
for t in range(40):
    p, _ = unimodular(rng, 6)
    if t % 2:  # a reflection: det P = -1
        p[0] = [-x for x in p[0]]
    omega, psi = pullback(omega0, p), pullback(psi0, p)
    for pair in [(omega, psi), (-omega, psi), (pullback(flipped, p), psi),
                 (omega.scale(F(2, 3)), psi.scale(F(-1, 5))),
                 (omega, form(rng, 6, 3, density=rng.choice([0.15, 0.5, 1.0]))),
                 (form(rng, 6, 2), psi), (pullback(rank4, p), psi)]:
        r = su3_check(spaces[t % 2], *pair)
        out["su3"].append([r.flags(), str(r.lam), None if r.gram is None else strs(r.gram)])

def cli(*argv, keep=lambda text: text):
    # one in-process command: its arguments, exit code, stdout through keep, stderr
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return [list(argv), code, keep(stdout.getvalue()), stderr.getvalue()]

def without_seconds(text):
    # re-dumped as a string, in the order json.loads kept: key order and 1 vs true still show
    try:
        reports = json.loads(text)
    except ValueError:  # no report: the exit code and stderr tell why
        return text
    return json.dumps([{k: v for k, v in r.items() if k != "seconds"} for r in reports], indent=2)

def masked_times(text):  # "  3 check(s), all match, 0.12s"
    return re.sub(r"(check\(s\), [^,\n]+, )\d+\.\d\ds$", r"\1N.NNs", text, flags=re.M)

out["verify"] += [cli("verify", "--all", "--format", "json", keep=without_seconds),
                  cli("verify", "--all", keep=masked_times)]
out["schema"].append(cli("schema"))
for path in sorted(Path(sys.argv[2]).glob("*.json")):
    for command in (["invariants", "--degree", "2"], ["invariants", "--degree", "3"], ["closed"]):
        out["cases"].append(cli(*command, "--input", str(path), "--format", "json"))
    for command in (["invariants", "--degree", "3"], ["closed"]):  # the partial-data note, d-rank
        out["cases"].append(cli(*command, "--input", str(path)))
print(json.dumps(out))
'''


CLI_GROUPS = ("verify", "schema", "cases")  # results [argv, exit code, stdout, stderr]


def run(src: str, cases: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, cases], stdout=subprocess.PIPE, text=True
    )
    if proc.returncode:  # its traceback went to stderr
        raise SystemExit(f"the child on {src} exited {proc.returncode}")
    return json.loads(proc.stdout)


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    src = argv[1] if len(argv) == 2 else "src"
    cases = str(Path(src, "g2forms", "catalog", "cases").resolve())
    with ThreadPoolExecutor(2) as pool:  # both children at once; a failing one still exits
        old, new = pool.map(run, [argv[0], src], [cases, cases])
    same = True
    for key in {**old, **new}:  # a group one side lacks is None there
        # a CLI command must also exit 0 on the change tree, not just as it did on the base
        failed = [r for r in new.get(key, []) if key in CLI_GROUPS and r[1] != 0]
        equal = old.get(key) == new.get(key) and not failed
        same &= equal
        count = len(old[key] if key in old else new[key])
        print(f"{key}: {count} cases, {'identical' if equal else 'DIFFERENT'}")
        for argv_, code, _, _ in failed:
            print(f"  exit {code}: g2forms {' '.join(argv_)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
