"""One table of the engine's refusals of bad input.

Each row is (call, args, exception, message): the call must raise that
exception with a message containing that text.  The rows cover the
exact-entry refusal of the linear-algebra lift (a float and a str entry at
every entry point that reads a matrix), the non-form refusals, the context
refusals, and every engine ``raise`` that the rest of the suite does not
reach.
"""

import json
import re
from functools import partial
from operator import add
from pathlib import Path

import pytest

from g2forms import _linalg
from g2forms.catalog import SchemaError, load_case, validate_case_dict
from g2forms.cli import _InputError, _load_case_file, _load_form_file
from g2forms.exterior import (
    AltForm,
    ExteriorOp,
    combination,
    form_to_vector,
    parse_form,
    pullback,
    top_coefficient,
)
from g2forms.gstruct import (
    b_entries,
    g2_torsion_report,
    hitchin_stability,
    hodge_dual_up_to_scale,
    obstruction_certificate,
    product_g2,
    su3_check,
)
from g2forms.invariants import ce_differential, closed_forms
from g2forms.liealg import HomogeneousSpaceData, reductive_split
from g2forms.scalars import PolyScalar, check_context

CASES = Path(__file__).resolve().parent.parent / "src" / "g2forms" / "catalog" / "cases"
PHI0 = parse_form(
    "e^{1 2 7} + e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5} + e^{3 4 7} + e^{5 6 7}", 7)
OMEGA0 = parse_form("e^{1 2} + e^{3 4} + e^{5 6}", 6)
PSI0 = parse_form("e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5}", 6)
T = ("t",)
OMEGA_T = parse_form("e^{1 2} + e^{3 4} + e^{5 6}", 6, 2, T)
PSI_T = AltForm(6, 3, T, {(1, 3, 5): PolyScalar.parse("t", T)})  # symbolic
FLAT6, FLAT6_T = HomogeneousSpaceData(6, [], {}), HomogeneousSpaceData(6, [], {}, symbols=T)
PARAMETRIC = HomogeneousSpaceData(3, [], {(1, 2): {3: PolyScalar.parse("t", T)}}, symbols=T)


def inexact(entry, n=3):
    """The n x n identity with ``entry`` at (1, 1)."""
    return [[entry if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]


def case_doc(case_id, change):
    """The bundled case document, read afresh, with ``change(doc)`` applied."""
    doc = json.loads((CASES / f"{case_id}.json").read_text(encoding="utf-8"))
    change(doc)
    return doc


def hitchin_value_as_a_str(doc):
    item = next(item for item in doc["expected"] if item["check"] == "hitchin")
    item["value"] = "-4"


EXACT = "matrix entries must be ints or Fractions"
LIFT = [(f"{call.__name__}-{kind}", call, (*make(inexact(entry)),), TypeError, EXACT)
        for call, make in [
            (_linalg.rank, lambda m: (m,)),
            (_linalg.rref, lambda m: (m,)),
            (_linalg.det, lambda m: (m,)),
            (_linalg.solve_many, lambda m: (m, [[1]] * 3)),
            (_linalg.leading_principal_minors, lambda m: (m,)),
            (_linalg.congruence_diagonalize, lambda m: (m,)),
            (_linalg.inverse, lambda m: (m,)),
        ]
        for kind, entry in (("float", 0.5), ("str", "1"))]
LIFT += [(f"{call.__name__}-{kind}", call, args, TypeError, EXACT)
         for kind, entry in (("float", 0.5), ("str", "1"))
         for call, args in [(pullback, (PHI0, inexact(entry, 7))),
                            (hodge_dual_up_to_scale, (inexact(entry, 7), PHI0))]]

ROWS = LIFT + [
    # a non-form, in the words of the entry point
    ("top_coefficient-int", top_coefficient, (1,), TypeError,
     "top_coefficient takes a form, got int"),
    ("form_to_vector-int", form_to_vector, (1, []), TypeError,
     "form_to_vector takes a form, got int"),
    ("combination-int", combination, (7, 3, ("a",), [("a", 1)]), TypeError,
     "combination takes a form, got int"),
    ("b_entries-int", b_entries, (1, [(1, 1)]), TypeError, "b_entries takes a form, got int"),
    ("su3_check-int", su3_check, (FLAT6, 1, 1), TypeError, "su3_check takes a form, got int"),
    ("product_g2-int", product_g2, (1, 1), TypeError, "product_g2 takes a form, got int"),
    ("ce_differential-int", ce_differential, (FLAT6, 1), TypeError,
     "ce_differential takes a form, got int"),
    ("obstruction-int", obstruction_certificate, (1,), TypeError,
     "obstruction_certificate takes a closed family, got int"),
    # a context is a sequence of str names
    ("parse-str-context", PolyScalar.parse, ("a", "ab"), TypeError,
     "a context is a sequence of names, got the str 'ab'"),
    ("parse_form-str-context", partial(parse_form, symbols="ab"), ("e^{1}", 2), TypeError,
     "a context is a sequence of names, got the str 'ab'"),
    ("data-invalid-symbol", partial(HomogeneousSpaceData, symbols=("1x",)), (2, [], {}),
     ValueError, "invalid symbol name '1x'"),
    ("op-str-context", ExteriorOp, (2, 1, 0, "ab", {}), TypeError,
     "a context is a sequence of names, got the str 'ab'"),
    ("context-int-name", check_context, ([1],), TypeError, "a symbol name is a str, got 1"),
    ("context-newline-name", check_context, (["a\n"],), ValueError, "invalid symbol name 'a\\n'"),
    # the refusals that no other test reaches
    ("det-non-square", _linalg.det, ([[1, 2]],), ValueError, "determinant of a non-square matrix"),
    ("parse_form-blank", parse_form, ("  ", 7), ValueError, "empty form literal"),
    ("altform-dimension", AltForm, (0, 1), ValueError, "dimension must be positive"),
    ("altform-degree", AltForm, (3, -1), ValueError, "degree must be nonnegative"),
    ("eval_basis-length", PHI0.eval_basis, ((1, 2),), ValueError, "expected 3 indices, got 2"),
    ("add-degrees", add, (OMEGA0, PSI0), ValueError, "cannot add forms of different degree"),
    ("form_to_vector-symbolic", form_to_vector, (PSI_T, []), ValueError,
     "does not have rational coefficients"),
    ("parse-empty-factor", PolyScalar.parse, ("a**b", ("a", "b")), ValueError, "empty factor"),
    ("b_entries-shape", b_entries, (PSI0, [(1, 1)]), ValueError,
     "b_matrix expects a 3-form on a 7-dimensional space"),
    ("hitchin-shape", hitchin_stability, (PHI0,), ValueError,
     "hitchin_stability expects a 3-form on a 6-dimensional space"),
    ("hitchin-symbolic", hitchin_stability, (PSI_T,), ValueError,
     "hitchin_stability needs rational coefficients"),
    ("hodge-dimension", hodge_dual_up_to_scale, (inexact(1, 6), PHI0), ValueError,
     "form dimension does not match the metric"),
    ("torsion-context", g2_torsion_report, (HomogeneousSpaceData(7, [], {}, symbols=T), PHI0),
     ValueError, "form and homogeneous data must share one context"),
    ("obstruction-shape", lambda: obstruction_certificate(
        closed_forms(HomogeneousSpaceData(3, [], {}), 2)), (), ValueError,
     "obstruction certificates apply to 3-form families on a 7-space"),
    ("su3-dimension", su3_check, (HomogeneousSpaceData(7, [], {}), OMEGA0, PSI0), ValueError,
     "su3_check works on 6-dimensional data"),
    ("su3-degrees", su3_check, (FLAT6, PSI0, PSI0), ValueError,
     "expected a 2-form omega and a 3-form psi"),
    ("su3-context", su3_check, (FLAT6_T, OMEGA0, PSI0), ValueError,
     "forms and homogeneous data must share one context"),
    ("su3-symbolic", su3_check, (FLAT6_T, OMEGA_T, PSI_T), ValueError,
     "su3_check needs rational forms"),
    ("product-dimension", product_g2, (PHI0, PHI0), ValueError,
     "product_g2 expects forms on a 6-dimensional space"),
    ("product-degrees", product_g2, (PSI0, PSI0), ValueError,
     "expected a 2-form omega and a 3-form psi"),
    ("product-context", product_g2, (OMEGA0, PSI_T), ValueError,
     "omega and psi must share one context"),
    ("closed-parametric", closed_forms, (PARAMETRIC, 1), ValueError,
     "closed_forms needs fully instantiated homogeneous data"),
    ("split-overlap", reductive_split, (HomogeneousSpaceData(3, [], {}), [1], [1, 2, 3]),
     ValueError, "h and m indices overlap"),
    ("data-names", partial(HomogeneousSpaceData, names=["x"]), (2, [], {}), ValueError,
     "need one name per m-basis element"),
    ("case-not-an-object", validate_case_dict, ([],), SchemaError,
     "case document must be a JSON object"),
    ("case-other-source-field", validate_case_dict,
     (case_doc("product.flat", lambda doc: doc.update(matrices=[])),), SchemaError,
     "matrices: not a field of source 'structure-constants'"),
    ("case-undeclared-symbol", validate_case_dict,
     (case_doc("product.flat", lambda doc: doc.update(parameters={"t": "1"})),), SchemaError,
     "parameters: symbols not declared in context: ['t']"),
    ("case-hitchin-value", validate_case_dict, (case_doc("product.flat", hitchin_value_as_a_str),),
     SchemaError, "invalid value"),
    ("case-not-json", load_case, (__file__,), SchemaError, "invalid JSON"),
    ("cli-case-file-missing", _load_case_file, (str(CASES / "no-such-case.json"),), _InputError,
     "cannot read case file"),
    ("cli-form-file-fields", _load_form_file, (str(CASES / "product.flat.json"),), _InputError,
     "must be a JSON object with 'dimension' and 'form'"),
]


@pytest.mark.parametrize("call, args, error, message",
                         [pytest.param(*row, id=name) for name, *row in ROWS])
def test_the_engine_refuses_bad_input(call, args, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(*args)
