"""Definitions of the bundled case documents.

``build_all_case_dicts`` produces the canonical JSON-ready dictionaries for
every bundled case.  ``tools/build_cases.py`` freezes them into
``src/g2forms/catalog/cases/``; the test suite rebuilds them from here and
compares byte-for-byte, so the shipped files cannot drift from these
definitions.  This module stays out of the installed package: it imports
``g2forms``, which must be on the path.
"""

from __future__ import annotations

from fractions import Fraction

from g2forms.liealg import from_matrices

import models

F = Fraction


def _mat_strings(mat) -> list:
    return [[str(F(x)) for x in row] for row in mat]


def _cmat_strings(mat) -> list:
    return [[[str(F(re)), str(F(im))] for re, im in row] for row in mat]


def _names(n: int) -> list:
    return [f"e{i}" for i in range(1, n + 1)]


def _expected(check: str, args: dict, value, cite: str) -> dict:
    return {"check": check, "args": args, "value": value, "cite": cite}


SIGN_PAIRS = [
    {"eps": "1", "eta": "1"},
    {"eps": "1", "eta": "-1"},
    {"eps": "-1", "eta": "1"},
    {"eps": "-1", "eta": "-1"},
]


def t1n1_case() -> dict:
    gammas = [
        "e^{1 2 3}",
        "e^{1 4 5}",
        "e^{1 6 7}",
        "e^{1 2 4} + e^{1 3 5}",
        "e^{1 2 5} - e^{1 3 4}",
        "e^{2 4 6} - e^{2 5 7} - e^{3 4 7} - e^{3 5 6}",
        "e^{2 4 7} + e^{2 5 6} + e^{3 4 6} - e^{3 5 7}",
    ]
    return {
        "id": "T1.n1",
        "description": "sl(3,R) with so(2) isotropy: seven invariant 3-forms, "
        "closedness kills the coefficient that definiteness needs.",
        "source": "matrix-basis",
        "dimension": 8,
        "basis_names": _names(8),
        "matrices": [_mat_strings(m) for m in models.sl3r_matrices()],
        "h_indices": [8],
        "m_indices": [1, 2, 3, 4, 5, 6, 7],
        "context": [f"a{i}" for i in range(1, 8)],
        "parameters": {},
        "gammas": gammas,
        "gamma_symbols": [f"a{i}" for i in range(1, 8)],
        "expected": [
            _expected("jacobi", {}, "valid", "Table 1 case n.1, matrix basis of sl(3,R)"),
            _expected(
                "invariant_dim",
                {"degree": 3},
                7,
                "Table 1 case n.1, invariant 3-form space has dimension seven",
            ),
            _expected(
                "invariant_span",
                {"degree": 3},
                gammas,
                "Table 1 case n.1, printed basis gamma_1..gamma_7",
            ),
            _expected(
                "d_eval",
                {"vectors": [3, 5, 6, 7]},
                "-a3",
                "Table 1 case n.1, d phi(e3,e5,e6,e7) = -a3",
            ),
            _expected(
                "b_entry",
                {"i": 7, "j": 7},
                "6*a3*a6^2 + 6*a3*a7^2",
                "Table 1 case n.1, iota_7 phi ^ iota_7 phi ^ phi = 6(a6^2+a7^2) a3 vol",
            ),
            _expected(
                "not_definite",
                {},
                True,
                "Table 1 case n.1, closed invariant 3-forms cannot be definite",
            ),
            _expected(
                "d_squared",
                {"degrees": [2, 3]},
                "pass",
                "consistency certificate for the full-algebra data",
            ),
        ],
    }


def _t1n2_case(tag: str, p: int, q: int, dim: int, closed_span, extra_note: str,
               exploratory: bool = False) -> dict:
    case = {
        "id": f"T1.n2{tag}",
        "description": f"su(2,1) with one-dimensional isotropy at (p,q)=({p},{q}); "
        + extra_note,
        "source": "matrix-basis",
        "dimension": 8,
        "basis_names": _names(8),
        "matrices": [_cmat_strings(m) for m in models.su21_matrices(p, q)],
        "h_indices": [8],
        "m_indices": [1, 2, 3, 4, 5, 6, 7],
        "context": [],
        "parameters": {},
        "expected": [],
    }
    if exploratory:
        case["exploratory"] = True
        return case
    cite = f"Table 1 case n.2 branch ({p},{q})"
    case["expected"] = [
        _expected("jacobi", {}, "valid", f"{cite}, realified matrix basis of su(2,1)"),
        _expected(
            "invariant_dim",
            {"degree": 3},
            dim,
            f"{cite}, dim of the invariant 3-form space",
        ),
        _expected(
            "closed_param_count",
            {},
            len(closed_span),
            f"{cite}, free parameters of the generic closed invariant 3-form",
        ),
        _expected(
            "closed_span",
            {},
            closed_span,
            f"{cite}, printed generic closed invariant 3-form",
        ),
        _expected("not_definite", {}, True, f"{cite}, none of these forms is definite"),
        _expected(
            "d_squared",
            {"degrees": [2, 3]},
            "pass",
            "consistency certificate for the full-algebra data",
        ),
    ]
    return case


def t1n2a_case() -> dict:
    return _t1n2_case(
        "a",
        0,
        1,
        7,
        [
            "e^{1 2 4} - e^{1 3 5}",
            "e^{1 2 5} + e^{1 3 4}",
            "e^{2 4 7} - e^{2 5 6} + e^{3 4 6} + e^{3 5 7}",
        ],
        "three-parameter closed family.",
    )


def t1n2b_case() -> dict:
    return _t1n2_case(
        "b",
        1,
        1,
        13,
        [
            "-3*e^{1 4 6} - 3*e^{1 5 7} + e^{2 4 5} - e^{2 6 7}",
            "-3*e^{1 4 7} + 3*e^{1 5 6} - e^{3 4 5} + e^{3 6 7}",
            "e^{2 4 7} - e^{2 5 6} + e^{3 4 6} + e^{3 5 7}",
        ],
        "trivial m1 module, thirteen invariant 3-forms.",
    )


def t1n2c_case() -> dict:
    return _t1n2_case(
        "c",
        2,
        3,
        5,
        ["-e^{2 4 7} + e^{2 5 6} - e^{3 4 6} - e^{3 5 7}"],
        "inequivalent modules, one-parameter closed family.",
    )


def t1n2x_case() -> dict:
    return _t1n2_case(
        "x12",
        1,
        2,
        0,
        [],
        "exploratory instantiation p=1 < q not covered by the printed branch "
        "conditions; no expected values recorded.",
        exploratory=True,
    )


def t1n3_case() -> dict:
    # Constants frozen from the adapted 5x5 matrix model (tools/build_cases.py
    # re-derives them; tests compare).
    algebra = from_matrices(models.so32_matrices(), _names(10))
    constants = []
    for (i, j), comps in sorted(algebra.bracket.items()):
        for k, coeff in sorted(comps.items()):
            constants.append([i, j, k, coeff.render()])
    gammas = [
        "e^{1 2 3}",
        "e^{1 2 6} - e^{1 3 5} + e^{2 3 4}",
        "e^{1 5 6} - e^{2 4 6} + e^{3 4 5}",
        "e^{1 4 7} + e^{2 5 7} + e^{3 6 7}",
        "e^{4 5 6}",
    ]
    return {
        "id": "T1.n3",
        "description": "so(3,2) with so(3) isotropy: constants reconstructed from "
        "the standard 5x5 model with the adapted basis e_{i+3} = [e_i, e7].",
        "source": "structure-constants",
        "dimension": 10,
        "basis_names": _names(10),
        "structure_constants": constants,
        "h_indices": [8, 9, 10],
        "m_indices": [1, 2, 3, 4, 5, 6, 7],
        "context": [f"a{i}" for i in range(1, 6)],
        "parameters": {},
        "gammas": gammas,
        "gamma_symbols": [f"a{i}" for i in range(1, 6)],
        "expected": [
            _expected("jacobi", {}, "valid", "Table 1 case n.3, reconstructed so(3,2) constants"),
            _expected(
                "invariant_dim",
                {"degree": 3},
                5,
                "Table 1 case n.3, five one-dimensional invariant submodules",
            ),
            _expected(
                "invariant_span",
                {"degree": 3},
                gammas,
                "Table 1 case n.3, printed basis gamma_1..gamma_5",
            ),
            _expected(
                "d_eval",
                {"vectors": [1, 2, 4, 5]},
                "2*a4",
                "Table 1 case n.3, d phi(e1,e2,e4,e5) = 2 a4",
            ),
            _expected(
                "b_entry",
                {"i": 7, "j": 7},
                "-6*a4^3",
                "Table 1 case n.3, iota_7 phi ^ iota_7 phi ^ phi = -6 a4^3 vol",
            ),
            _expected(
                "not_definite",
                {},
                True,
                "Table 1 case n.3, any closed invariant 3-form is not definite",
            ),
            _expected(
                "d_squared",
                {"degrees": [2, 3]},
                "pass",
                "consistency certificate for the full-algebra data",
            ),
        ],
    }


def t1n4_case() -> dict:
    gammas = [
        "e^{1 2 3}",
        "e^{1 4 5} - e^{1 6 7}",
        "e^{1 4 6} + e^{1 5 7}",
        "e^{1 4 7} - e^{1 5 6}",
        "e^{2 4 5} - e^{2 6 7}",
        "e^{2 4 6} + e^{2 5 7}",
        "e^{2 4 7} - e^{2 5 6}",
        "e^{3 4 5} - e^{3 6 7}",
        "e^{3 4 6} + e^{3 5 7}",
        "e^{3 4 7} - e^{3 5 6}",
    ]
    cite = "Table 1 case n.4"
    return {
        "id": "T1.n4",
        "description": "so(4,1) with a fixed so(3) ideal of so(4) as isotropy: "
        "ten invariant 3-forms e^{123}, e^i ^ omega_j.",
        "source": "matrix-basis",
        "dimension": 10,
        "basis_names": _names(10),
        "matrices": [_mat_strings(m) for m in models.so41_fixed_matrices()],
        "h_indices": [8, 9, 10],
        "m_indices": [1, 2, 3, 4, 5, 6, 7],
        "context": [f"a{i}" for i in range(1, 11)],
        "parameters": {},
        "gammas": gammas,
        "gamma_symbols": [f"a{i}" for i in range(1, 11)],
        "expected": [
            _expected("jacobi", {}, "valid", f"{cite}, matrix basis of so(4,1)"),
            _expected(
                "invariant_dim",
                {"degree": 3},
                10,
                f"{cite}, basis e^123 and e^i ^ omega_j of the invariant 3-forms",
            ),
            _expected(
                "invariant_span",
                {"degree": 3},
                gammas,
                f"{cite}, printed invariant basis",
            ),
            _expected(
                "d_eval",
                {"vectors": [2, 3, 6, 7]},
                "1/2*a1 + 2*a2 - 2*a6 - 2*a10",
                f"{cite}, d phi(e2,e3,e6,e7)",
            ),
            _expected(
                "d_eval",
                {"vectors": [1, 3, 5, 7]},
                "1/2*a1 - 2*a2 + 2*a6 - 2*a10",
                f"{cite}, d phi(e1,e3,e5,e7)",
            ),
            _expected(
                "d_eval",
                {"vectors": [1, 2, 5, 6]},
                "1/2*a1 - 2*a2 - 2*a6 + 2*a10",
                f"{cite}, d phi(e1,e2,e5,e6)",
            ),
            _expected(
                "d_eval",
                {"vectors": [4, 5, 6, 7]},
                "a2 + a6 + a10",
                f"{cite}, d phi(e4,e5,e6,e7) = a2 + a6 + a10",
            ),
            _expected(
                "b_entry",
                {"i": 1, "j": 1},
                "-6*a1*a2^2 - 6*a1*a3^2 - 6*a1*a4^2",
                f"{cite}, iota_1 phi ^ iota_1 phi ^ phi = -6 a1 (a2^2+a3^2+a4^2) vol",
            ),
            _expected(
                "closed_component_zero",
                {"indices": [1, 2, 6, 10]},
                True,
                f"{cite}, closedness forces a1 = a2 = a6 = a10 = 0",
            ),
            _expected(
                "not_definite",
                {},
                True,
                f"{cite}, a closed phi is not definite",
            ),
            _expected(
                "d_squared",
                {"degrees": [2, 3]},
                "pass",
                "consistency certificate for the full-algebra data",
            ),
        ],
    }


def t1n5_case() -> dict:
    gammas = [
        "e^{1 2 3}",
        "e^{4 5 6}",
        "e^{1 2 6} - e^{1 3 5} + e^{2 3 4}",
        "e^{1 5 6} - e^{2 4 6} + e^{3 4 5}",
        "e^{1 4 7} + e^{2 5 7} + e^{3 6 7}",
    ]
    cite = "Table 1 case n.5"
    d_evals = [
        _expected(
            "d_eval",
            {"vectors": list(tup)},
            "2*a5",
            f"{cite}, d phi(e{tup[0]},e{tup[1]},e{tup[2]},e{tup[3]}) = 2 a5",
        )
        for tup in [(1, 2, 4, 5), (1, 3, 4, 6), (2, 3, 5, 6)]
    ]
    return {
        "id": "T1.n5",
        "description": "so(4,1) with the diagonal so(3) in so(4) as isotropy: "
        "five invariant 3-forms gamma_1..gamma_5.",
        "source": "matrix-basis",
        "dimension": 10,
        "basis_names": _names(10),
        "matrices": [_mat_strings(m) for m in models.so41_diagonal_matrices()],
        "h_indices": [8, 9, 10],
        "m_indices": [1, 2, 3, 4, 5, 6, 7],
        "context": [f"a{i}" for i in range(1, 6)],
        "parameters": {},
        "gammas": gammas,
        "gamma_symbols": [f"a{i}" for i in range(1, 6)],
        "expected": [
            _expected("jacobi", {}, "valid", f"{cite}, matrix basis of so(4,1)"),
            _expected(
                "invariant_dim",
                {"degree": 3},
                5,
                f"{cite}, five one-dimensional invariant submodules",
            ),
            _expected(
                "invariant_span",
                {"degree": 3},
                gammas,
                f"{cite}, printed basis gamma_1..gamma_5",
            ),
            *d_evals,
            _expected(
                "b_entry",
                {"i": 7, "j": 7},
                "-6*a5^3",
                f"{cite}, iota_7 phi ^ iota_7 phi ^ phi = -6 a5^3 vol",
            ),
            _expected(
                "not_definite",
                {},
                True,
                f"{cite}, no closed invariant 3-form can be definite",
            ),
            _expected(
                "d_squared",
                {"degrees": [2, 3]},
                "pass",
                "consistency certificate for the full-algebra data",
            ),
        ],
    }


def su31_case() -> dict:
    gammas = [
        "e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5}",
        "e^{1 3 6} + e^{1 4 5} + e^{2 3 5} - e^{2 4 6}",
        "e^{1 2 7} + e^{3 4 7} + e^{5 6 7}",
    ]
    cite = "su(3,1) case (g^c = sl(4,C))"
    return {
        "id": "su31",
        "description": "su(3,1) with su(3) isotropy: invariant 3-forms gamma_1, "
        "gamma_2 and the pairing form; closedness kills gamma_1 and gamma_2.",
        "source": "matrix-basis",
        "dimension": 15,
        "basis_names": _names(15),
        "matrices": [_cmat_strings(m) for m in models.su31_matrices()],
        "h_indices": [8, 9, 10, 11, 12, 13, 14, 15],
        "m_indices": [1, 2, 3, 4, 5, 6, 7],
        "context": ["c1", "c2", "c3"],
        "parameters": {},
        "gammas": gammas,
        "gamma_symbols": ["c1", "c2", "c3"],
        "expected": [
            _expected("jacobi", {}, "valid", f"{cite}, realified matrix basis of su(3,1)"),
            _expected(
                "invariant_dim",
                {"degree": 3},
                3,
                f"{cite}, gamma_1, gamma_2 and e^127+e^347+e^567 span the invariants",
            ),
            _expected(
                "invariant_span",
                {"degree": 3},
                gammas,
                f"{cite}, printed generators",
            ),
            _expected(
                "d_eval",
                {"vectors": [7, 1, 3, 5]},
                "-3*c2",
                f"{cite}, d phi(e7,e1,e3,e5) kills the gamma_2 component",
            ),
            _expected(
                "d_eval",
                {"vectors": [7, 2, 3, 5]},
                "3*c1",
                f"{cite}, the analogous evaluation kills the gamma_1 component",
            ),
            _expected(
                "closed_component_zero",
                {"indices": [1, 2]},
                True,
                f"{cite}, a closed phi has no component along gamma_1 or gamma_2",
            ),
            _expected(
                "not_definite",
                {},
                True,
                f"{cite}, phi cannot be definite",
            ),
            _expected(
                "d_squared",
                {"degrees": [2, 3]},
                "pass",
                "consistency certificate for the full-algebra data",
            ),
        ],
    }


def t2n1_case() -> dict:
    payload = models.t2n1_payload()
    gammas = [
        "e^{1 2 7}",
        "e^{3 4 7}",
        "e^{5 6 7}",
        "e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5}",
        "e^{1 3 6} + e^{1 4 5} + e^{2 3 5} - e^{2 4 6}",
    ]
    cite = "Table 2 case n.1 (three sl(2)-type factors)"
    bracket = [
        [i, j, [str(x) for x in comps]]
        for (i, j), comps in sorted(payload["bracket"].items())
    ]
    return {
        "id": "T2.n1",
        "description": "Three sl(2)-type factors with two-dimensional abelian "
        "isotropy, encoded as partial homogeneous data (compact factors; the "
        "other real forms only flip signs no expected value depends on).",
        "source": "partial-homogeneous",
        "dimension": 7,
        "basis_names": _names(7),
        "homogeneous": {
            "isotropy_action": [_mat_strings(m) for m in payload["isotropy"]],
            "projected_bracket": bracket,
        },
        "context": [f"a{i}" for i in range(1, 6)],
        "parameters": {},
        "gammas": gammas,
        "gamma_symbols": [f"a{i}" for i in range(1, 6)],
        "expected": [
            _expected(
                "invariant_dim",
                {"degree": 3},
                5,
                f"{cite}, gamma_1..gamma_5 span the invariant 3-forms",
            ),
            _expected(
                "invariant_span",
                {"degree": 3},
                gammas,
                f"{cite}, printed generators",
            ),
            _expected(
                "d_eval",
                {"vectors": [7, 1, 3, 5]},
                "-6*a5",
                f"{cite}, d phi(e7,e1,e3,e5) = -6 a5",
            ),
            _expected(
                "d_eval",
                {"vectors": [7, 1, 3, 6]},
                "6*a4",
                f"{cite}, the analogous relation forcing a4 = 0",
            ),
            _expected(
                "closed_subset_of",
                {},
                ["e^{1 2 7}", "e^{3 4 7}", "e^{5 6 7}"],
                f"{cite}, closed phi lies in Span(gamma_1, gamma_2, gamma_3)",
            ),
            _expected(
                "not_definite",
                {},
                True,
                f"{cite}, such phi cannot be definite",
            ),
        ],
    }


def _t2n3_common(a: Fraction, b_value: Fraction, symbolic_b: bool) -> dict:
    iso = [_mat_strings(m) for m in models.t2n3_isotropy(a)]
    bracket_map = models.t2n3_bracket_strings(a, b_value, symbolic_b)
    bracket = [[i, j, list(comps)] for (i, j), comps in sorted(bracket_map.items())]
    return {
        "isotropy_action": iso,
        "projected_bracket": bracket,
    }


def t2n3_generic_case() -> dict:
    cite = "Table 2 case n.3, a != 1/3 branch"
    gammas2 = ["e^{5 6 7}", "e^{1 2 7} + e^{3 4 7}"]
    return {
        "id": "T2.n3.generic",
        "description": "s1 + s2 with u(2) isotropy at (a,b) = (1,2): only the "
        "two obvious invariant 3-forms exist, none definite.",
        "source": "partial-homogeneous",
        "dimension": 7,
        "basis_names": _names(7),
        "homogeneous": _t2n3_common(F(1), F(2), symbolic_b=False),
        "context": ["eps", "eta"],
        "parameters": {"eps": "1", "eta": "1"},
        "enumerations": SIGN_PAIRS,
        "expected": [
            _expected(
                "invariant_dim",
                {"degree": 3},
                2,
                f"{cite}, basis e^567 and e^127+e^347",
            ),
            _expected(
                "invariant_span",
                {"degree": 3},
                gammas2,
                f"{cite}, printed basis",
            ),
            _expected(
                "invariant_dim_in_support",
                {"degree": 3, "groups": [[5, 6], [1, 2, 3, 4]], "counts": [1, 2]},
                0,
                f"{cite}, dim (p x Lambda^2 n)^h = 0 away from a = 1/3",
            ),
            _expected(
                "not_definite",
                {},
                True,
                f"{cite}, these forms do not span any definite 3-form "
                "(all four sign pairs)",
            ),
        ],
    }


def t2n3_a13_case() -> dict:
    cite = "Table 2 case n.3, a = 1/3 branch"
    gammas4 = [
        "e^{5 6 7}",
        "e^{1 2 7} + e^{3 4 7}",
        "e^{1 3 5} + e^{1 4 6} + e^{2 3 6} - e^{2 4 5}",
        "e^{1 3 6} - e^{1 4 5} - e^{2 3 5} - e^{2 4 6}",
    ]
    return {
        "id": "T2.n3.a13",
        "description": "s1 + s2 with u(2) isotropy at a = 1/3 (b = 1): two extra "
        "invariant 3-forms appear; closedness kills them for every sign pair. "
        "The speed-3b rotations stay symbolic in b so the printed evaluation "
        "is reproduced symbolically; denominator-bearing coefficients are "
        "instantiated at (a,b) = (1/3, 1).",
        "source": "partial-homogeneous",
        "dimension": 7,
        "basis_names": _names(7),
        "homogeneous": _t2n3_common(F(1, 3), F(1), symbolic_b=True),
        "context": ["b", "eps", "eta", "c1", "c2", "c3", "c4"],
        "parameters": {"b": "1", "eps": "1", "eta": "1"},
        "enumerations": SIGN_PAIRS,
        "gammas": gammas4,
        "gamma_symbols": ["c1", "c2", "c3", "c4"],
        "expected": [
            _expected(
                "invariant_dim",
                {"degree": 3},
                4,
                f"{cite}, gamma_1..gamma_4 span the invariant 3-forms",
            ),
            _expected(
                "invariant_span",
                {"degree": 3},
                gammas4,
                f"{cite}, printed basis",
            ),
            _expected(
                "invariant_dim_in_support",
                {"degree": 3, "groups": [[5, 6], [1, 2, 3, 4]], "counts": [1, 2]},
                2,
                f"{cite}, dim (p x Lambda^2 n)^h = 2 at a = 1/3",
            ),
            _expected(
                "d_eval",
                {"vectors": [7, 5, 1, 3]},
                "6*b*c4 - 2*c4",
                f"{cite}, d phi(e7,e5,e1,e3) = (6b-2) c4",
            ),
            _expected(
                "d_eval",
                {"vectors": [1, 3, 6, 7]},
                "6*b*c3 - 2*c3",
                f"{cite}, d phi(e1,e3,e6,e7) = 0 forces c3 = 0",
            ),
            _expected(
                "not_definite",
                {},
                True,
                f"{cite}, phi is not definite (all four sign pairs)",
            ),
        ],
    }


def product_flat_case() -> dict:
    phi0 = (
        "e^{1 2 7} + e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5} "
        "+ e^{3 4 7} + e^{5 6 7}"
    )
    omega0 = "e^{1 2} + e^{3 4} + e^{5 6}"
    psi0 = "e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5}"
    cite = "product construction phi = omega ^ ds + psi (flat positive control)"
    return {
        "id": "product.flat",
        "description": "Abelian 7-dimensional model carrying the product form "
        "omega0 ^ e7 + psi0: the one bundled case whose verdict is definite.",
        "source": "structure-constants",
        "dimension": 7,
        "basis_names": _names(7),
        "structure_constants": [],
        "h_indices": [],
        "m_indices": [1, 2, 3, 4, 5, 6, 7],
        "context": [],
        "parameters": {},
        "expected": [
            _expected(
                "invariant_dim",
                {"degree": 3},
                35,
                "trivial isotropy: the full 35-dimensional space of 3-forms",
            ),
            _expected(
                "closed_param_count",
                {},
                35,
                "abelian bracket: every invariant form is closed",
            ),
            _expected(
                "b_matrix_scalar",
                {"form": phi0},
                "6",
                f"{cite}, bilinear form of phi0 is 6 times the identity",
            ),
            _expected(
                "torsion_flags",
                {"form": phi0},
                {"definite": True, "closed": True, "coclosed": True},
                f"{cite}, flat model is closed and coclosed",
            ),
            _expected(
                "contract_vector",
                {"form": phi0, "vector": 7},
                omega0,
                f"{cite}, contracting the flat direction recovers omega0",
            ),
            _expected(
                "hitchin",
                {"psi": psi0},
                {"lambda": "-4", "k_squared_scalar": True},
                f"{cite}, psi0 is of complex type with K^2 = lambda Id",
            ),
            _expected(
                "su3_flags",
                {"omega": omega0, "psi": psi0},
                {
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
                f"{cite}, symplectic half-flat but not strictly (flat model)",
            ),
            _expected("jacobi", {}, "valid", "abelian algebra"),
            _expected(
                "d_squared",
                {"degrees": [2, 3]},
                "pass",
                "flat model: every differential vanishes",
            ),
        ],
    }


def build_all_case_dicts() -> dict:
    cases = [
        t1n1_case(),
        t1n2a_case(),
        t1n2b_case(),
        t1n2c_case(),
        t1n2x_case(),
        t1n3_case(),
        t1n4_case(),
        t1n5_case(),
        su31_case(),
        t2n1_case(),
        t2n3_generic_case(),
        t2n3_a13_case(),
        product_flat_case(),
    ]
    out = {}
    for case in cases:
        if case["id"] in out:
            raise ValueError(f"duplicate case id {case['id']}")
        out[case["id"]] = case
    return out
