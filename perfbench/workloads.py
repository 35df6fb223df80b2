"""Seeded inputs and exact oracles for the three benchmark workloads.

Nothing here imports the engine: every expected value is computed with
plain :class:`fractions.Fraction` arithmetic, so a wrong engine answer
cannot also produce a matching oracle.

* ``catalog``: ``verify_case(id)`` on each canonical bundled case, in id
  order.  The inputs do not depend on the seed.
* ``dense-basis``: the canonical matrix-basis cases with every basis matrix
  conjugated by one seeded unimodular integer matrix P per case.  The
  structure constants, hence every expected value and every rendered
  ``computed`` string, are unchanged; only the input density rises.
* ``pointwise``: seeded pullbacks of model 3-forms on R^7 (torsion report on
  flat data) and of the standard SU(3) pair on R^6 (SU(3) check on flat
  data), with oracles B(P*phi) = det P * P^T B(phi) P and
  lambda(P*psi) = det(P)^2 * lambda(psi).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

WORKLOADS = ("catalog", "dense-basis", "pointwise")

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# e^{127} + e^{135} - e^{146} - e^{236} - e^{245} + e^{347} + e^{567}
PHI0 = {(1, 2, 7): 1, (1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1,
        (2, 4, 5): -1, (3, 4, 7): 1, (5, 6, 7): 1}
# phi0 with the e^{127} and e^{347} terms negated
SPLIT = {**PHI0, (1, 2, 7): -1, (3, 4, 7): -1}
DEGENERATE = {(1, 2, 3): 1}
# (base form, B(base)) with B[i][j] = top(iota_i phi ^ iota_j phi ^ phi)
BASES_7 = (
    ("phi0", PHI0, [6] * 7),
    ("split", SPLIT, [-6, -6, -6, -6, 6, 6, 6]),
    ("degenerate", DEGENERATE, [0] * 7),
)
OMEGA0 = {(1, 2): 1, (3, 4): 1, (5, 6): 1}
PSI0 = {(1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1}
LAMBDA_PSI0 = Fraction(-4)

G2_OPS_PER_PASS = 12
SU3_OPS_PER_PASS = 6


# -- exact helpers --------------------------------------------------------------


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: list, b: list) -> list:
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def det(mat: list) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [list(row) for row in mat]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            result = -result
        result *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return result


def unimodular(rng: random.Random, n: int, reflect: bool) -> tuple[list, list]:
    """A dense integer matrix P = (D) L U with det P = +-1, and its inverse.

    L and U are unit triangular with +-1 off the diagonal, each built as a
    product of integer shears I + c E_ij; the inverse is the product of the
    inverse shears I - c E_ij in reverse order.  ``reflect`` puts a
    diagonal -1 (D) in front.  P * P^-1 = I is asserted before use.
    """
    shears = []
    for j in range(n - 1):  # L = L_1 ... L_{n-1}, column j below the diagonal
        shears += [(i, j, rng.choice((-1, 1))) for i in range(j + 1, n)]
    for j in reversed(range(1, n)):  # U = U_n ... U_2, column j above the diagonal
        shears += [(i, j, rng.choice((-1, 1))) for i in range(j)]
    p = identity(n)
    k = rng.randrange(n) if reflect else None
    if reflect:
        p[k][k] = Fraction(-1)
    for i, j, c in shears:  # P <- P (I + c E_ij): column j += c * column i
        for r in range(n):
            p[r][j] += c * p[r][i]
    p_inv = identity(n)
    for i, j, c in reversed(shears):  # P^-1 <- P^-1 (I - c E_ij)
        for r in range(n):
            p_inv[r][j] -= c * p_inv[r][i]
    if reflect:  # P^-1 <- P^-1 D
        for r in range(n):
            p_inv[r][k] = -p_inv[r][k]
    if matmul(p, p_inv) != identity(n):
        raise AssertionError("unimodular generator: P * P^-1 != I")
    return p, p_inv


def pullback(form: dict, p: list) -> dict:
    """Coefficients of P*form: (P*form)_J = sum over I of form_I * det P[I; J].

    ``p[r][c]`` is the e_r component of the image of e_c, as in the engine.
    """
    n = len(p)
    out = {}
    for cols in combinations(range(1, n + 1), len(next(iter(form)))):
        total = Fraction(0)
        for rows, coeff in form.items():
            minor = [[p[r - 1][c - 1] for c in cols] for r in rows]
            total += coeff * det(minor)
        if total:
            out[cols] = total
    return out


def render_form(form: dict) -> str:
    """The engine's ``c*e^{i j k}`` grammar, lexicographic multi-indices."""
    if not form:
        return "0"
    parts = []
    for idx in sorted(form):
        value = Fraction(form[idx])
        mag = abs(value)
        body = "e^{" + " ".join(map(str, idx)) + "}"
        if mag != 1:
            body = f"{mag}*{body}"
        sign = "-" if value < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    return text + "".join(f" {s} {b}" for s, b in parts[1:])


# -- workload inputs ------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def catalog_ops(reference: dict) -> list:
    return [
        {"kind": "verify", "case": case_id, "reference": reference[case_id]}
        for case_id in sorted(reference)
    ]


def _density(mats: list) -> float:
    entries = [x for m in mats for row in m for x in row]
    nonzero = sum(
        1 for x in entries
        if (any(Fraction(y) for y in x) if isinstance(x, list) else Fraction(x))
    )
    return nonzero / len(entries)


def _conjugate(mat: list, p: list, p_inv: list) -> list:
    if any(isinstance(x, list) for row in mat for x in row):
        re = [[Fraction(x[0]) for x in row] for row in mat]
        im = [[Fraction(x[1]) for x in row] for row in mat]
        re, im = (matmul(matmul(p, part), p_inv) for part in (re, im))
        return [[[str(a), str(b)] for a, b in zip(r1, r2)] for r1, r2 in zip(re, im)]
    real = [[Fraction(x) for x in row] for row in mat]
    return [[str(x) for x in row] for row in matmul(matmul(p, real), p_inv)]


def dense_basis_ops(reference: dict, case_dir: Path, out_dir: Path, seed: int) -> list:
    """Write one conjugated case document per matrix-basis case; return ops."""
    ops = []
    for case_id in sorted(reference):
        doc = json.loads((case_dir / f"{case_id}.json").read_text(encoding="utf-8"))
        if doc["source"] != "matrix-basis":
            continue
        rng = random.Random(f"dense-basis:{seed}:{case_id}")
        mats = doc["matrices"]
        p, p_inv = unimodular(rng, len(mats[0]), reflect=False)
        dense = [_conjugate(m, p, p_inv) for m in mats]
        before, after = _density(mats), _density(dense)
        doc["matrices"] = dense
        path = out_dir / f"{case_id}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        ops.append({
            "kind": "load_verify",
            "case": case_id,
            "path": str(path),
            "reference": reference[case_id],
            "density_before": round(before, 4),
            "density_after": round(after, 4),
        })
    return ops


def _leading_minors(mat: list) -> list:
    return [det([row[: k + 1] for row in mat[: k + 1]]) for k in range(len(mat))]


def g2_oracle(base_diag: list, p: list) -> dict:
    """Expected torsion report of P*phi on flat R^7, where B(phi) = diag(base_diag).

    B(P*phi) = det P * P^T B(phi) P, since iota_v P*phi = P*(iota_{Pv} phi).
    """
    n = len(p)
    dp = det(p)
    b = [[dp * sum(p[r][i] * base_diag[r] * p[r][j] for r in range(n)) for j in range(n)]
         for i in range(n)]
    minors = _leading_minors(b)
    if all(m > 0 for m in minors):
        verdict, orientation = "definite", "positive"
    elif all((m > 0) if k % 2 else (m < 0) for k, m in enumerate(minors)):
        verdict, orientation = "definite", "negative"
    else:
        verdict = "degenerate" if det(b) == 0 else "indefinite"
        orientation = None
    definite = verdict == "definite"
    return {
        "verdict": verdict,
        "orientation": orientation,
        "minors": [str(m) for m in minors],
        "b": [[str(x) for x in row] for row in b],
        "closed": True,  # flat data: d = 0
        "coclosed": True if definite else None,
        "classification": (
            "torsion-free (closed and coclosed)" if definite
            else "not a G2-structure (form is not definite)"
        ),
    }


def su3_oracle(p: list) -> dict:
    """Expected SU(3) report of (P*omega0, P*psi0) on flat R^6."""
    return {
        "lambda": str(LAMBDA_PSI0 * det(p) ** 2),
        "flags": {
            "nondegenerate": True,
            "stable": True,
            "compatible": True,
            "tamed": True,
            "d_omega_zero": True,
            "d_psi_zero": True,
            "d_star_psi_zero": True,
            "symplectic_half_flat": True,
            "strictly_symplectic_half_flat": False,
        },
    }


def pointwise_ops(seed: int) -> list:
    rng = random.Random(f"pointwise:{seed}")
    ops = []
    for k in range(G2_OPS_PER_PASS):
        name, base, base_b = BASES_7[k % len(BASES_7)]
        reflect = (k // len(BASES_7)) % 2 == 1
        p, _ = unimodular(rng, 7, reflect)
        form = pullback(base, p)
        ops.append({
            "kind": "g2",
            "base": name,
            "reflect": reflect,
            "form": render_form(form),
            "expect": g2_oracle([Fraction(x) for x in base_b], p),
        })
    for k in range(SU3_OPS_PER_PASS):
        p, _ = unimodular(rng, 6, reflect=k % 2 == 1)
        ops.append({
            "kind": "su3",
            "reflect": k % 2 == 1,
            "omega": render_form(pullback(OMEGA0, p)),
            "psi": render_form(pullback(PSI0, p)),
            "expect": su3_oracle(p),
        })
    return ops
