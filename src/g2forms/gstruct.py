"""G2 and SU(3) structure checks over exact arithmetic.

Conventions fixed here (all scale choices are irrelevant to every verdict,
and are pinned by tests):

* The bilinear form of a 3-form phi on a 7-space is defined by
  ``B[i][j] = top_coefficient(iota_{e_i} phi ^ iota_{e_j} phi ^ phi)``
  and computed by one sum over index pairs on the integer lift of phi,
  rational or symbolic (:func:`b_entries`), with no wedge product.  For a
  definite phi, B is proportional to the induced metric by a positive
  constant, so B itself (sign-normalized) serves as the metric
  representative; the usual unit-norm normalization would need a 9th root
  and leave the rationals.
* ``hodge_dual_up_to_scale`` returns the true Hodge dual times the positive
  constant 1/sqrt(det Q): indices are raised by the pullback along Q^{-1}
  and contracted with the Levi-Civita symbol, so no square roots appear and
  the zero set is exactly that of the true dual.
* Hitchin's endomorphism of a 3-form psi on a 6-space is
  ``K[i][j] = top_coefficient(iota_{e_j} psi ^ psi ^ e^i)``: iota_j psi and
  iota_j psi ^ psi are read off the (1, 2) and (2, 3) product tables of R^6
  on ints, K at the complement of i, and ``lambda = trace(K^2)/6``; the
  standard complex volume real part has lambda = -4 and K^2 = lambda * Id.
  ``su3_check`` renormalizes the volume to omega^3/6 (orientation from
  omega) and forms G = omega(., K .) on ints, which is positive for
  standard SU(3) pairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from operator import add, mul

from g2forms import _linalg
from g2forms.exterior import (
    AltForm,
    _check_form,
    _complement_signs,
    _lower,
    _positions,
    _products,
    monomials,
    parse_form,
    pullback,
    top_coefficient,
    wedge,
)
from g2forms.invariants import ClosedFamily, ce_differential
from g2forms.liealg import HomogeneousSpaceData
from g2forms.scalars import PolyScalar

__all__ = [
    "DefinitenessReport",
    "HitchinReport",
    "SU3Report",
    "TorsionReport",
    "b_entries",
    "b_matrix",
    "definiteness",
    "g2_torsion_report",
    "hitchin_stability",
    "hodge_dual_up_to_scale",
    "obstruction_certificate",
    "product_g2",
    "su3_check",
]


def b_matrix(phi: AltForm) -> list:
    """B[i][j] = top coefficient of iota_i phi ^ iota_j phi ^ phi (n = 7), as Fraction rows.

    phi must be rational; the entries of a symbolic phi are read through
    :func:`b_entries`.
    """
    _check_form("b_matrix", phi)
    if not phi.is_rational():
        raise ValueError(
            "b_matrix needs rational coefficients; read symbolic entries through b_entries"
        )
    b = b_entries(phi, [(i, j) for i in range(1, 8) for j in range(i, 8)])
    return [[b[min(i, j), max(i, j)].constant_value() for j in range(1, 8)] for i in range(1, 8)]


@cache
def _wedge_table() -> list:
    """For each 2-position q, [(r, p, sign)] with e^p ^ e^q ^ e^r = sign * e^{1...7},
    r a 3-position and p a 2-position: the rows of the exterior product table
    of (2, 3) on R^7, each union u moved to its complement p = 20 - u."""
    signs = _complement_signs(7, 2)
    return [[(r, 20 - u, sign * signs[20 - u]) for r, u, sign in row] for row in _products(7, 2, 3)]


def b_entries(phi: AltForm, pairs: list) -> dict:
    """The entries B[i][j] of :func:`b_matrix` for the 1-based (i, j) in pairs,
    as PolyScalars in the context of phi (which may be symbolic).

    B_ij = sum of sign * (iota_i phi)_p * (iota_j phi)_q * phi_r over the
    rows of :func:`_wedge_table`, on int lists over the monomial positions;
    the sum over q is shared by every i.  The sums run over phi's layers (one
    per exponent vector, over phi's den): each pair or triple of layers adds
    its exponent vectors once, and each entry is divided by den^3 once.
    """
    _check_form("b_entries", phi)
    if phi.dim != 7 or phi.degree != 3:
        raise ValueError("b_matrix expects a 3-form on a 7-dimensional space")
    if not all(1 <= k <= 7 for pair in pairs for k in pair):
        raise ValueError(f"B entries {pairs} out of range 1..7")
    contractions, table = _products(7, 1, 2), _wedge_table()
    dense = {e: [layer.get(r, 0) for r in _positions(7, 3)] for e, layer in phi.layers.items()}
    iota = {}  # exponents -> {i: {2-position q: (iota_i phi)_q}}; e^i ^ e^q = sign * e^u
    for expo, y in dense.items():
        iota[expo] = {k: {q: sign * y[u] for q, u, sign in contractions[k - 1] if y[u]}
                      for k in {k for pair in pairs for k in pair}}
    inner = {}  # exponents -> {j: int list over p of the sums over q, r of the wedge table}
    for e2, rows in iota.items():
        for e3, z in dense.items():
            by_j = inner.setdefault(tuple(map(add, e2, e3)), {})
            for j in {j for _, j in pairs}:
                acc = by_j.setdefault(j, [0] * 21)
                for q, y in rows[j].items():
                    for r, p, sign in table[q]:
                        acc[p] += sign * y * z[r]
    sums: dict[tuple, dict] = {}  # exponents -> {(i, j): integer sum}
    for e1, rows in iota.items():
        for e23, by_j in inner.items():
            acc = sums.setdefault(tuple(map(add, e1, e23)), {})
            for i, j in dict.fromkeys(pairs):
                x, v = rows[i], by_j[j]
                acc[i, j] = acc.get((i, j), 0) + sum(map(mul, x.values(), map(v.__getitem__, x)))
    b = _lower(sums, phi.den**3, phi.symbols)
    return {pair: b[pair] if pair in b else PolyScalar._trusted(phi.symbols, {}) for pair in pairs}


class DefinitenessReport:
    """Verdict plus an arithmetically re-checkable certificate.

    For parametrized families (``family`` is True) the verdict refers to
    every member at once: "degenerate" means some probe vector has
    identically vanishing B(v, v), so no member can be definite.
    """

    def __init__(self, verdict: str, orientation: str | None = None, minors: list | None = None,
                 witnesses: list | None = None, identity: str | None = None,
                 family: bool = False, gram: list | None = None):
        self.verdict = verdict  # definite | indefinite | degenerate | undecided-parametric
        self.orientation = orientation  # positive | negative (definite only)
        self.minors = minors  # leading principal minors of B (single forms)
        self.witnesses = [] if witnesses is None else witnesses  # (value render, vector)
        self.identity = identity  # family-level certificate identity
        self.family = family
        self.gram = gram  # Fraction rows of the B the verdict is about (single forms)

    @property
    def is_definite(self) -> bool:
        return self.verdict == "definite"

    @property
    def excludes_definite(self) -> bool:
        return self.verdict in ("indefinite", "degenerate")

    def metric(self) -> list:
        """Positive-definite representative of the induced metric (up to scale),
        as Fraction rows: B or -B."""
        if not self.is_definite:
            raise ValueError(f"form is not definite: verdict {self.verdict}")
        if self.orientation == "positive":
            return self.gram
        return [[-x for x in row] for row in self.gram]

    def render(self) -> str:
        if self.verdict == "definite":
            minors = ", ".join(str(m) for m in self.minors)
            return f"definite ({self.orientation}), certificate: minors {minors}"
        if self.verdict == "undecided-parametric":
            return "undecided-parametric: no vanishing certificate found"
        lines = [f"{self.verdict}" + (" (family-level)" if self.family else "")]
        if self.identity:
            lines.append(f"  certificate: {self.identity}")
        for value, vec in self.witnesses:
            comps = ", ".join(str(x) for x in vec)
            lines.append(f"  witness v = ({comps}) with B(v,v) = {value}")
        return "\n".join(lines)


def definiteness(phi: AltForm) -> DefinitenessReport:
    """Exact definiteness of a rational 3-form on a 7-space.

    Definite verdicts carry the leading-principal-minor sign chain;
    non-definite verdicts carry explicit witness vectors obtained from a
    symmetric congruence diagonalization of B.
    """
    _check_form("definiteness", phi)
    if not phi.is_rational():
        raise ValueError(
            "definiteness needs rational coefficients; "
            "route parametric families through obstruction_certificate"
        )
    b = b_matrix(phi)
    minors = _linalg.leading_principal_minors(b)
    if all(m > 0 for m in minors):
        return DefinitenessReport("definite", "positive", minors, gram=b)
    if all((m > 0 if k % 2 else m < 0) for k, m in enumerate(minors)):
        return DefinitenessReport("definite", "negative", minors, gram=b)
    diag = _linalg.congruence_diagonalize(b)
    if zero := next(((d, v) for d, v in diag if d == 0), None):
        return DefinitenessReport("degenerate", witnesses=[(str(zero[0]), zero[1])],
                                  minors=minors, gram=b)
    negative = next(((str(d), v) for d, v in diag if d < 0), None)
    positive = next(((str(d), v) for d, v in diag if d > 0), None)
    witnesses = [item for item in (negative, positive) if item]
    return DefinitenessReport("indefinite", witnesses=witnesses, minors=minors, gram=b)


def obstruction_certificate(family: ClosedFamily) -> DefinitenessReport:
    """Search for a certificate that no member of a closed family is definite.

    A probe vector v with B(v, v) identically zero in the family parameters
    rules out definiteness for every member (verdict "degenerate").  A pair
    of probes with B(v, v) + B(w, w) identically zero but individually
    nonzero forces every member to be indefinite or isotropic (verdict
    "indefinite").  With no certificate the result is
    "undecided-parametric": the family may well contain definite members.
    """
    if not isinstance(family, ClosedFamily):
        raise TypeError("obstruction_certificate takes a closed family, "
                        f"got {type(family).__name__}")
    generic = family.generic
    if generic.dim != 7 or generic.degree != 3:
        raise ValueError("obstruction certificates apply to 3-form families on a 7-space")
    names = family.data.names  # the probes are the basis vectors e_1..e_7
    values = []
    for i in range(1, 8):
        value = b_entries(generic, [(i, i)])[i, i]
        if value.is_zero():
            label = names[i - 1]
            return DefinitenessReport(
                "degenerate",
                family=True,
                identity=f"B({label},{label}) = 0 identically on the closed family",
                witnesses=[("0", [Fraction(k == i) for k in range(1, 8)])],
            )
        values.append(value)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if (values[i] + values[j]).is_zero():
                return DefinitenessReport(
                    "indefinite",
                    family=True,
                    identity=(
                        f"B({names[i]},{names[i]}) + "
                        f"B({names[j]},{names[j]}) = 0 identically, "
                        "with neither term identically zero"
                    ),
                )
    return DefinitenessReport("undecided-parametric", family=True)


def hodge_dual_up_to_scale(q: list, alpha: AltForm) -> AltForm:
    """The Hodge dual of alpha, times a positive constant depending on Q only.

    Raising the k indices with Q^{-1} and contracting with the Levi-Civita
    symbol yields sqrt(det Q)^{-1} times the true dual; since the constant
    is positive, d(result) = 0 iff d(*alpha) = 0, which is all any caller
    needs.  ``q`` is Q as rows of Fractions and must be symmetric positive
    definite.  With Q^{-1} = D*adj/det, the pullback is (D/det)^k times one along adj.
    Complements and their signs come from the tables of :mod:`g2forms.exterior`.
    """
    _check_form("hodge_dual_up_to_scale", alpha)
    n, k = len(q), alpha.degree
    if alpha.dim != n:
        raise ValueError("form dimension does not match the metric")
    if any(len(row) != n for row in q):
        raise ValueError("metric representative is not a square matrix")
    if any(q[i][j] != q[j][i] for i in range(n) for j in range(i)):
        raise ValueError("metric representative is not symmetric")
    den, _, pivots, adj = _linalg._bareiss(q, exchange=False, jordan=True)
    if not all(p > 0 for p in pivots):  # the leading minors of D*Q (Sylvester)
        raise ValueError("metric representative is not positive definite")
    det = pivots[-1]
    g = gcd(det, *(x for row in adj for x in row))
    raised = pullback(alpha, [[x // g for x in row] for row in adj])
    scale, signs, complements = den**k, _complement_signs(n, k), monomials(n, n - k)[::-1]
    sums = {expo: {key: sign * layer[i] * scale for i, key, sign in
                   zip(_positions(n, k), complements, signs) if i in layer}
            for expo, layer in raised.layers.items()}
    return AltForm._trusted(n, n - k, alpha.symbols, raised.den * (det // g) ** k, sums)


class TorsionReport:
    """Definiteness/closedness/coclosedness verdicts for a 3-form on a 7-space."""

    def __init__(self, definite: bool, orientation: str | None, closed: bool,
                 coclosed: bool | None, classification: str, definiteness: DefinitenessReport):
        self.definite, self.orientation, self.closed = definite, orientation, closed
        self.coclosed = coclosed  # None when not definite (no metric, no dual)
        self.classification, self.definiteness = classification, definiteness

    def render(self) -> str:
        parts = [
            f"definite: {'yes (' + self.orientation + ')' if self.definite else 'no'}",
            f"closed: {'yes' if self.closed else 'no'}",
        ]
        if self.coclosed is None:
            parts.append("coclosed: n/a (no metric)")
        else:
            parts.append(f"coclosed: {'yes' if self.coclosed else 'no'}")
        parts.append(f"=> {self.classification}")
        return "; ".join(parts)


def g2_torsion_report(data: HomogeneousSpaceData, phi: AltForm) -> TorsionReport:
    """Closed/coclosed verdicts of an invariant 3-form on the given space."""
    _check_form("g2_torsion_report", phi)
    if phi.symbols != data.symbols:
        raise ValueError("form and homogeneous data must share one context")
    report = definiteness(phi)
    closed = ce_differential(data, phi).is_zero()
    coclosed = None
    if report.is_definite:
        star = hodge_dual_up_to_scale(report.metric(), phi)
        coclosed = ce_differential(data, star).is_zero()
    if not report.is_definite:
        classification = "not a G2-structure (form is not definite)"
    elif closed and coclosed:
        classification = "torsion-free (closed and coclosed)"
    elif closed:
        classification = "closed non-parallel"
    elif coclosed:
        classification = "coclosed, not closed"
    else:
        classification = "neither closed nor coclosed"
    return TorsionReport(
        report.is_definite, report.orientation, closed, coclosed, classification, report
    )


class HitchinReport:
    """Hitchin invariant of a 3-form on a 6-space.

    ``K[i][j] = top(iota_{e_j} psi ^ psi ^ e^i)`` with the e^{1..6} volume;
    lambda = trace(K^2)/6.  lambda < 0 certifies complex type (stable
    orbit), in which case K^2 = lambda * Id exactly.
    """

    def __init__(self, lam: Fraction, k_matrix: list, k_squared: list):
        self.lam, self.k_matrix, self.k_squared = lam, k_matrix, k_squared

    @property
    def stable_complex(self) -> bool:
        return self.lam < 0

    @property
    def k_squared_is_scalar(self) -> bool:
        size = range(len(self.k_matrix))
        return all(self.k_squared[i][j] == (self.lam if i == j else 0) for i in size for j in size)

    def render(self) -> str:
        kind = "complex type (stable)" if self.lam < 0 else (
            "real type" if self.lam > 0 else "degenerate/unstable"
        )
        return f"lambda = {self.lam} ({kind})"


def hitchin_stability(psi: AltForm) -> HitchinReport:
    """Hitchin's K endomorphism and lambda invariant (n = 6), on ints over psi's
    den^2 from the (6, 1, 2) and (6, 2, 3) product tables, divided once."""
    _check_form("hitchin_stability", psi)
    if psi.dim != 6 or psi.degree != 3:
        raise ValueError("hitchin_stability expects a 3-form on a 6-dimensional space")
    if not psi.is_rational():
        raise ValueError("hitchin_stability needs rational coefficients")
    y = [next(iter(psi.layers.values()), {}).get(r, 0) for r in _positions(6, 3)]
    table, k = _products(6, 2, 3), [[0] * 6 for _ in range(6)]
    for j, row in enumerate(_products(6, 1, 2)):  # (iota_j psi)_q = sign psi_u
        for q, u, sign in row:
            for r, t, s in table[q] if y[u] else ():  # the 5-position t omits i = 6 - t
                k[5 - t][j] += (-s if t % 2 else s) * sign * y[u] * y[r]  # e^t ^ e^i = (-1)^t vol
    k_sq, den = [[sum(map(mul, row, col)) for col in zip(*k)] for row in k], psi.den**2
    return HitchinReport(Fraction(sum(k_sq[i][i] for i in range(6)), 6 * den**2),
                         [[Fraction(x, den) for x in row] for row in k],
                         [[Fraction(x, den**2) for x in row] for row in k_sq])


class SU3Report:
    """Pointwise and torsion conditions for a candidate SU(3) pair.

    ``symplectic_half_flat`` requires the four pointwise conditions
    (nondegenerate, stable, compatible, tamed) together with d(omega) = 0
    and d(psi) = 0; ``strictly`` additionally requires d(*psi) != 0.
    Fields after a failed stability check are left as None (skipped).
    """

    def __init__(self, nondegenerate: bool, stable: bool, lam: Fraction | None = None,
                 compatible: bool | None = None, tamed: bool | None = None,
                 gram: list | None = None, d_omega_zero: bool | None = None,
                 d_psi_zero: bool | None = None, d_star_psi_zero: bool | None = None):
        self.nondegenerate, self.stable, self.lam = nondegenerate, stable, lam
        self.compatible, self.tamed = compatible, tamed
        self.gram = gram  # Fraction rows of G, when G is symmetric
        self.d_omega_zero, self.d_psi_zero = d_omega_zero, d_psi_zero
        self.d_star_psi_zero = d_star_psi_zero

    @property
    def su3_structure(self) -> bool:
        return bool(
            self.nondegenerate and self.stable and self.compatible and self.tamed
        )

    @property
    def symplectic_half_flat(self) -> bool:
        return bool(self.su3_structure and self.d_omega_zero and self.d_psi_zero)

    @property
    def strictly_symplectic_half_flat(self) -> bool:
        return bool(self.symplectic_half_flat and self.d_star_psi_zero is False)

    def flags(self) -> dict:
        return {
            "nondegenerate": self.nondegenerate,
            "stable": self.stable,
            "compatible": self.compatible,
            "tamed": self.tamed,
            "d_omega_zero": self.d_omega_zero,
            "d_psi_zero": self.d_psi_zero,
            "d_star_psi_zero": self.d_star_psi_zero,
            "symplectic_half_flat": self.symplectic_half_flat,
            "strictly_symplectic_half_flat": self.strictly_symplectic_half_flat,
        }

    def render(self) -> str:
        return "\n".join(f"{key}: {value}" for key, value in self.flags().items())


def su3_check(data: HomogeneousSpaceData, omega: AltForm, psi: AltForm) -> SU3Report:
    """Full SU(3)-pair verdict for (omega, psi) on a 6-dimensional space.

    The orientation is taken from omega^3 (so the verdict does not depend
    on the labeling of the basis), and the induced bilinear form is
    G = Omega . K with K renormalized to the omega^3/6 volume; ``tamed``
    requires G to be symmetric positive definite.  Positivity is decided once,
    by the Bareiss pass of :func:`hodge_dual_up_to_scale` on a symmetric G: a
    dual means tamed, and its refusal of G means not tamed.
    """
    _check_form("su3_check", omega, psi)
    if data.dim_m != 6 or omega.dim != 6 or psi.dim != 6:
        raise ValueError("su3_check works on 6-dimensional data")
    if omega.degree != 2 or psi.degree != 3:
        raise ValueError("expected a 2-form omega and a 3-form psi")
    if omega.symbols != data.symbols or psi.symbols != data.symbols:
        raise ValueError("forms and homogeneous data must share one context")
    if not (omega.is_rational() and psi.is_rational()):
        raise ValueError("su3_check needs rational forms")
    volume = top_coefficient(wedge(wedge(omega, omega), omega)).constant_value()
    nondegenerate = volume != 0
    hitchin = hitchin_stability(psi)
    stable = hitchin.stable_complex
    report = SU3Report(nondegenerate, stable, hitchin.lam)
    if not (nondegenerate and stable):
        return report
    w, d = next(iter(omega.layers.values()), {}), psi.den**2  # K is quadratic in psi
    # Omega[i][j] = omega(e_i, e_j) and K, times omega.den and d; G = Omega . K on ints
    omega_ints = [[w.get((i, j), 0) - w.get((j, i), 0) for j in range(1, 7)] for i in range(1, 7)]
    k = [[x.numerator * (d // x.denominator) for x in row] for row in hitchin.k_matrix]
    g = [[sum(map(mul, row, col)) for col in zip(*k)] for row in omega_ints]
    report.compatible = wedge(omega, psi).is_zero()
    report.tamed = False
    if all(g[i][j] == g[j][i] for i in range(6) for j in range(i)):
        num, den = 6 * volume.denominator, volume.numerator * omega.den * d  # 6 / (volume * dens)
        report.gram = g = [[Fraction(num * x, den) for x in row] for row in g]
        try:  # G is symmetric and 6 x 6: the dual refuses it only when not positive definite
            star_psi = hodge_dual_up_to_scale(g, psi)
            report.tamed = True
        except ValueError:
            pass
    report.d_omega_zero = ce_differential(data, omega).is_zero()
    report.d_psi_zero = ce_differential(data, psi).is_zero()
    if report.tamed:
        report.d_star_psi_zero = ce_differential(data, star_psi).is_zero()
    return report


def product_g2(omega: AltForm, psi: AltForm) -> AltForm:
    """The 3-form omega ^ e7 + psi on the 7-space extending a 6-space.

    Contracting e7 back out recovers omega; the result is definite exactly
    when (omega, psi) passes the pointwise SU(3) conditions, which callers
    verify through :func:`su3_check` and :func:`definiteness` rather than
    by assumption.
    """
    _check_form("product_g2", omega, psi)
    if omega.dim != 6 or psi.dim != 6:
        raise ValueError("product_g2 expects forms on a 6-dimensional space")
    if omega.degree != 2 or psi.degree != 3:
        raise ValueError("expected a 2-form omega and a 3-form psi")
    if omega.symbols != psi.symbols:
        raise ValueError("omega and psi must share one context")
    omega7 = AltForm._trusted(7, 2, omega.symbols, omega.den, omega.layers)
    psi7 = AltForm._trusted(7, 3, psi.symbols, psi.den, psi.layers)
    return wedge(omega7, parse_form("e^{7}", 7, 1, omega.symbols)) + psi7
