"""Matrix models and payload builders behind the bundled case files.

Every bundled case file is generated from this module and
``bundled_cases.py`` (see ``build_cases.py``); the files are frozen into
``src/g2forms/catalog/cases/`` and tests re-derive them from here, so any
drift between the two is caught.  It stays out of the installed package.

Real matrices are lists of Fraction-able rows; complex matrices use
``(re, im)`` pairs for entries and are solved on their real and imaginary
parts, which keeps all structure constants rational.
"""

from __future__ import annotations

from fractions import Fraction

F = Fraction


def _zeros(n: int) -> list:
    return [[F(0)] * n for _ in range(n)]


def _e(n: int, i: int, j: int, value=1) -> list:
    m = _zeros(n)
    m[i - 1][j - 1] = F(value)
    return m


def _add(*mats) -> list:
    n = len(mats[0])
    out = _zeros(n)
    for m in mats:
        for i in range(n):
            for j in range(n):
                out[i][j] += F(m[i][j])
    return out


def _czeros(n: int) -> list:
    return [[(F(0), F(0))] * n for _ in range(n)]


def _cmat(n: int, entries: dict) -> list:
    """Complex matrix from {(i, j): (re, im)} with 1-based keys."""
    m = [[(F(0), F(0))] * n for _ in range(n)]
    for (i, j), (re, im) in entries.items():
        m[i - 1][j - 1] = (F(re), F(im))
    return m


# -- Table 1, case n.1: sl(3, R), isotropy so(2) ------------------------------

def sl3r_matrices() -> list:
    """Basis e1..e7 of m and e8 of h, as printed for the sl(3,R) case."""
    return [
        [[2, 0, 0], [0, -1, 0], [0, 0, -1]],
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 0], [0, -1, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    ]


# -- Table 1, case n.2: su(2,1), isotropy R (parameters p, q) -----------------

def su21_matrices(p: int, q: int) -> list:
    """Complex basis e1..e7 of m and e8 of h for su(2,1) at integers (p, q)."""
    i = lambda v: (F(0), F(v))  # noqa: E731 - purely imaginary entry
    one = (F(1), F(0))
    return [
        _cmat(3, {(1, 1): i(-2 * q - p), (2, 2): i(2 * p + q), (3, 3): i(q - p)}),
        _cmat(3, {(1, 2): one, (2, 1): (F(-1), F(0))}),
        _cmat(3, {(1, 2): i(1), (2, 1): i(1)}),
        _cmat(3, {(1, 3): one, (3, 1): one}),
        _cmat(3, {(1, 3): i(1), (3, 1): i(-1)}),
        _cmat(3, {(2, 3): one, (3, 2): one}),
        _cmat(3, {(2, 3): i(1), (3, 2): i(-1)}),
        _cmat(3, {(1, 1): i(p), (2, 2): i(q), (3, 3): i(-p - q)}),
    ]


# -- Table 1, case n.3: so(3,2), isotropy so(3) -------------------------------

def so32_matrices() -> list:
    """Adapted basis of so(3,2) in the standard 5x5 model.

    Block form [[A, B], [B^t, C]] with A in so(3), C in so(2).  n1 holds
    B = (u, 0) columns (e1..e3), n2 holds B = (0, u) (e4..e6, so that
    e_{i+3} = [e_i, e7]), e7 spans the so(2) center of k, and e8..e10 span
    the so(3) isotropy.
    """
    mats = []
    for col in (0, 1):  # n1 then n2
        for u in range(3):
            m = _zeros(5)
            m[u][3 + col] = F(1)
            m[3 + col][u] = F(1)
            mats.append(m)
    e7 = _zeros(5)
    e7[3][4] = F(1)
    e7[4][3] = F(-1)
    mats.append(e7)
    l1 = _add(_e(5, 3, 2), _e(5, 2, 3, -1))  # E32 - E23
    l2 = _add(_e(5, 1, 3), _e(5, 3, 1, -1))  # E13 - E31
    l3 = _add(_e(5, 2, 1), _e(5, 1, 2, -1))  # E21 - E12
    mats.extend([l1, l2, l3])
    return mats


# -- Table 1, case n.4: so(4,1), isotropy a fixed so(3) ideal of so(4) --------

def so41_fixed_matrices() -> list:
    """Basis e1..e7 (p then n) and e8..e10 (h) for the first so(4,1) case."""

    def block4(rows) -> list:
        m = _zeros(5)
        for r in range(4):
            for c in range(4):
                m[r + 1][c + 1] = F(rows[r][c])
        return m

    def nvec(i: int) -> list:
        m = _zeros(5)
        m[0][i] = F(1)
        m[i][0] = F(1)
        return m

    p_basis = [
        block4([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
        block4([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]),
        block4([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]),
    ]
    n_basis = [nvec(i) for i in range(1, 5)]
    h_basis = [
        block4([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
        block4([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]),
        block4([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]),
    ]
    return p_basis + n_basis + h_basis


# -- Table 1, case n.5: so(4,1), diagonal so(3) isotropy ----------------------

def so41_diagonal_matrices() -> list:
    """Basis e1..e7 (n1, n2, v) and e8..e10 (h), copied entry by entry."""
    e1 = _add(_e(5, 2, 5), _e(5, 5, 2, -1))
    e2 = _add(_e(5, 2, 4), _e(5, 4, 2, -1))
    e3 = _add(_e(5, 2, 3), _e(5, 3, 2, -1))
    e4 = _add(_e(5, 1, 5), _e(5, 5, 1))
    e5 = _add(_e(5, 1, 4), _e(5, 4, 1))
    e6 = _add(_e(5, 1, 3), _e(5, 3, 1))
    e7 = _add(_e(5, 1, 2), _e(5, 2, 1))
    e8 = _add(_e(5, 3, 4), _e(5, 4, 3, -1))
    e9 = _add(_e(5, 3, 5), _e(5, 5, 3, -1))
    e10 = _add(_e(5, 4, 5), _e(5, 5, 4, -1))
    return [e1, e2, e3, e4, e5, e6, e7, e8, e9, e10]


# -- su(3,1) with su(3) isotropy ----------------------------------------------

def su31_matrices() -> list:
    """Complex basis of su(3,1): e1..e6 span n, e7 spans the centralizer line,
    e8..e15 span the su(3) isotropy.

    n(w) = [[0, w], [w*, 0]] for w in C^3; e_{2i} = [e7, e_{2i-1}] holds with
    e7 = diag(i/4, i/4, i/4, -3i/4).
    """

    def nvec(col: int, imag: bool) -> list:
        m = _czeros(4)
        if imag:
            m[col - 1][3] = (F(0), F(1))
            m[3][col - 1] = (F(0), F(-1))
        else:
            m[col - 1][3] = (F(1), F(0))
            m[3][col - 1] = (F(1), F(0))
        return m

    n_basis = []
    for col in (1, 2, 3):
        n_basis.append(nvec(col, imag=False))
        n_basis.append(nvec(col, imag=True))
    e7 = _cmat(
        4,
        {
            (1, 1): (F(0), F(1, 4)),
            (2, 2): (F(0), F(1, 4)),
            (3, 3): (F(0), F(1, 4)),
            (4, 4): (F(0), F(-3, 4)),
        },
    )
    su3 = [
        _cmat(4, {(1, 1): (0, 1), (2, 2): (0, -1)}),
        _cmat(4, {(2, 2): (0, 1), (3, 3): (0, -1)}),
        _cmat(4, {(1, 2): (1, 0), (2, 1): (-1, 0)}),
        _cmat(4, {(1, 2): (0, 1), (2, 1): (0, 1)}),
        _cmat(4, {(1, 3): (1, 0), (3, 1): (-1, 0)}),
        _cmat(4, {(1, 3): (0, 1), (3, 1): (0, 1)}),
        _cmat(4, {(2, 3): (1, 0), (3, 2): (-1, 0)}),
        _cmat(4, {(2, 3): (0, 1), (3, 2): (0, 1)}),
    ]
    return n_basis + [e7] + su3


# -- Table 2, case n.1: three sl(2)-type factors, 2-dimensional isotropy ------

def t2n1_payload() -> dict:
    """Partial homogeneous data for the triple-factor case.

    m = v + p1 + p2 + p3 with e7 spanning v and (e1,e2), (e3,e4), (e5,e6)
    the rotation planes; ad(e7)|_{p_j} is the printed speed-2 rotation.  All
    three factors are taken compact, so [e_{2j-1}, e_{2j}] = 2 A_j whose
    m-projection is (2/3) e7; factor types only flip signs that no expected
    value depends on.  The two isotropy generators realize weights
    (1, 0, -1) and (0, 1, -1) on the planes.
    """
    rot = lambda s: [[F(0), F(-2 * s)], [F(2 * s), F(0)]]  # noqa: E731

    def iso(weights) -> list:
        m = _zeros(7)
        for j, w in enumerate(weights):
            if w:
                block = rot(w)
                for r in range(2):
                    for c in range(2):
                        m[2 * j + r][2 * j + c] = block[r][c]
        return m

    bracket = {}
    for j in range(3):
        a, b = 2 * j + 1, 2 * j + 2
        vec = [F(0)] * 7
        vec[6] = F(2, 3)
        bracket[(a, b)] = vec
    # [e_i, e7] = -ad(e7) e_i
    ad7 = iso([1, 1, 1])
    for i in range(1, 7):
        vec = [F(-ad7[r][i - 1]) for r in range(7)]
        bracket[(i, 7)] = vec
    return {
        "isotropy": [iso([1, 0, -1]), iso([0, 1, -1])],
        "bracket": bracket,
    }


# -- Table 2, case n.3: s1 + s2 with u(2) isotropy ----------------------------

def t2n3_isotropy(a: Fraction) -> list:
    """The four isotropy generators on m = n + p + v at a given value of a.

    The su(2) part acts on n = C^2 (realified on e1..e4, z_j = e_{2j-1} +
    i e_{2j}) and trivially on p and v; Z rotates the n-planes with speed
    3a and the p-plane with speed 2.
    """

    def embed(cols: dict) -> list:
        m = _zeros(7)
        for c, col in cols.items():
            for r, value in col.items():
                m[r - 1][c - 1] = F(value)
        return m

    u1 = embed({1: {2: 1}, 2: {1: -1}, 3: {4: -1}, 4: {3: 1}})
    u2 = embed({1: {3: -1}, 2: {4: -1}, 3: {1: 1}, 4: {2: 1}})
    u3 = embed({1: {4: 1}, 2: {3: -1}, 3: {2: 1}, 4: {1: -1}})
    z = _zeros(7)
    for base in (0, 2):
        z[base][base + 1] = F(-3) * a
        z[base + 1][base] = F(3) * a
    z[4][5] = F(-2)
    z[5][4] = F(2)
    return [u1, u2, u3, z]


def t2n3_bracket_strings(a: Fraction, b_value: Fraction, symbolic_b: bool) -> dict:
    """Projected bracket components as polynomial strings in (b, eps, eta).

    Denominator-bearing coefficients are instantiated at the given (a, b);
    the speed-3b rotations stay symbolic in b when ``symbolic_b`` so single
    evaluations can be reported symbolically.
    """
    eta_coeff = F(1) / (b_value - a)
    eps_coeff = 2 * a / (a - b_value)

    def times_eta(c: Fraction) -> str:
        if c == 1:
            return "eta"
        if c == -1:
            return "-eta"
        return f"{c}*eta"

    def times_eps(c: Fraction) -> str:
        if c == 1:
            return "eps"
        if c == -1:
            return "-eps"
        return f"{c}*eps"

    b_text = "b" if symbolic_b else str(b_value)
    three_b = f"3*{b_text}" if symbolic_b else str(3 * b_value)
    minus_three_b = f"-3*{b_text}" if symbolic_b else str(-3 * b_value)
    zero = ["0"] * 7

    def vec(**components) -> list:
        out = list(zero)
        for key, value in components.items():
            out[int(key[1:]) - 1] = value
        return out

    return {
        (1, 2): vec(c7=times_eta(eta_coeff)),
        (3, 4): vec(c7=times_eta(eta_coeff)),
        (5, 6): vec(c7=times_eps(eps_coeff)),
        (1, 7): vec(c2=minus_three_b),
        (2, 7): vec(c1=three_b),
        (3, 7): vec(c4=minus_three_b),
        (4, 7): vec(c3=three_b),
        (5, 7): vec(c6="-2"),
        (6, 7): vec(c5="2"),
    }
