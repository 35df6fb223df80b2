import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import models
from bundled_cases import build_all_case_dicts
from conftest import dense_components
from g2forms import _linalg, catalog
from g2forms.catalog import (
    SchemaError,
    bundled_ids,
    load_bundled,
    load_case,
    validate_case_dict,
    verify_all,
    verify_case,
)
from g2forms.exterior import AltForm, form_to_vector, monomials, parse_form
from g2forms.invariants import closed_forms, invariant_forms
from g2forms.liealg import MatrixBasis, from_matrices, reductive_split

CASES_DIR = Path(__file__).resolve().parent.parent / "src" / "g2forms" / "catalog" / "cases"

CANONICAL_IDS = [
    "T1.n1",
    "T1.n2a",
    "T1.n2b",
    "T1.n2c",
    "T1.n3",
    "T1.n4",
    "T1.n5",
    "T2.n1",
    "T2.n3.a13",
    "T2.n3.generic",
    "product.flat",
    "su31",
]


def test_bundled_ids_cover_the_catalog():
    ids = bundled_ids()
    assert set(CANONICAL_IDS) <= set(ids)
    assert "T1.n2x12" in ids
    assert len(ids) == 13


def test_case_files_reserialize_byte_identically():
    for case_id in bundled_ids():
        record = load_bundled(case_id)
        raw = (CASES_DIR / f"{case_id}.json").read_text(encoding="utf-8")
        assert json.dumps(record.raw, indent=2, sort_keys=True) + "\n" == raw


def test_case_files_match_their_definitions():
    definitions = build_all_case_dicts()
    assert sorted(definitions) == bundled_ids()
    for case_id, doc in definitions.items():
        raw = (CASES_DIR / f"{case_id}.json").read_text(encoding="utf-8")
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == raw, case_id


def test_bundled_tables_store_no_zero_scalar():
    # the bracket and isotropy tables are canonical: every stored scalar is
    # nonzero, so their readers need no zero filter
    def stored(data):
        for comps in data.bracket.values():
            yield from comps.values()
        for action in data.isotropy:
            yield from action.values()

    tables = 0
    for case_id in bundled_ids():
        record = load_bundled(case_id)
        datas = [record.homog_sym] + [record.homog_num(a) for a in record.enumerations]
        if record.source != "partial-homogeneous":
            datas.append(record.algebra)
        for data in datas:
            assert all(data.bracket.values()), case_id
            assert not any(c.is_zero() for c in stored(data)), case_id
            tables += 1
    assert tables == 42


def test_t1n3_frozen_constants_match_matrix_model():
    record = load_bundled("T1.n3")
    frozen = record.algebra
    derived = from_matrices(MatrixBasis(models.so32_matrices()), record.raw["basis_names"],
                            record.context)
    assert set(frozen.bracket) == set(derived.bracket)
    for key in frozen.bracket:
        assert frozen.bracket[key] == derived.bracket[key]


def test_su31_adapted_basis_relations():
    algebra = from_matrices(MatrixBasis.from_complex(models.su31_matrices()))
    for i in (1, 2, 3):
        comps = dense_components(algebra.bracket_of(7, 2 * i - 1), 15)  # [e7, e_{2i-1}] = e_{2i}
        expected = ["0"] * 15
        expected[2 * i - 1] = "1"
        assert [c.render() for c in comps] == expected


def test_so32_adapted_basis_relations():
    algebra = from_matrices(MatrixBasis(models.so32_matrices()))
    for i in (1, 2, 3):
        comps = dense_components(algebra.bracket_of(i, 7), 10)  # e_{i+3} = [e_i, e7]
        expected = ["0"] * 10
        expected[i + 2] = "1"
        assert [c.render() for c in comps] == expected


def test_branch_c_cross_check_at_3_4():
    # guard against accidental extra invariants at special (p, q) values
    algebra = from_matrices(MatrixBasis.from_complex(models.su21_matrices(3, 4)))
    data = reductive_split(algebra, [8], list(range(1, 8)))
    assert invariant_forms(data, 3).dim == 5
    family = closed_forms(data, 3)
    monos = monomials(7, 3)
    printed = [
        form_to_vector(
            parse_form("-e^{2 4 7} + e^{2 5 6} - e^{3 4 6} - e^{3 5 7}", 7, 3, ()),
            monos,
        )
    ]
    computed = [form_to_vector(f, monos) for f in family.basis]
    assert _linalg._reduced(computed) == _linalg._reduced(printed)


def test_verify_single_case():
    report = verify_case("T1.n1")
    assert report.ok
    checks = {r.check for r in report.results}
    assert {"invariant_dim", "invariant_span", "d_eval", "b_entry", "not_definite"} <= checks
    assert all(r.cite for r in report.results)


def test_result_dict_copies_the_case_args():
    record = load_bundled("T1.n1")
    result = next(r for r in verify_case(record).results if r.check == "d_eval")
    data = result.to_dict()
    data["args"]["vectors"].append(99)
    item = next(i for i in record.raw["expected"] if i["check"] == "d_eval")
    assert 99 not in item["args"]["vectors"] and data["args"] != result.to_dict()["args"]


def test_verify_all_default_excludes_exploratory():
    reports = verify_all()
    assert [r.case_id for r in reports] == CANONICAL_IDS
    assert all(r.ok for r in reports)


@pytest.mark.parametrize("pattern, built", [(None, 12), ("*", 13)])
def test_verify_all_builds_only_the_cases_it_runs(monkeypatch, pattern, built):
    # without a pattern the exploratory document is skipped before it is built
    from g2forms import catalog

    calls = []

    def counting(doc, _original=catalog.validate_case_dict):
        calls.append(doc["id"])
        return _original(doc)

    monkeypatch.setattr(catalog, "validate_case_dict", counting)
    monkeypatch.setattr(catalog, "verify_case", lambda record: record)
    assert len(verify_all(pattern)) == len(calls) == built


def test_verify_all_filter_semantics():
    t1 = verify_all("T1.*")
    assert [r.case_id for r in t1] == [
        "T1.n1",
        "T1.n2a",
        "T1.n2b",
        "T1.n2c",
        "T1.n2x12",
        "T1.n3",
        "T1.n4",
        "T1.n5",
    ]
    assert verify_all("none-such") == []


def test_exploratory_case_has_no_expected_values():
    record = load_bundled("T1.n2x12")
    assert record.raw["exploratory"] and not record.raw["expected"]
    assert verify_case(record).ok  # vacuously


def test_load_case_roundtrip(tmp_path):
    source = CASES_DIR / "T1.n1.json"
    copy = tmp_path / "case.json"
    copy.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    record = load_case(copy)
    assert record.case_id == "T1.n1"
    raw = source.read_text(encoding="utf-8")
    assert json.dumps(record.raw, indent=2, sort_keys=True) + "\n" == raw


@pytest.mark.parametrize(
    "case_id, built",
    [
        ("T1.n3", ["jacobi_check", "reductive_split"]),
        ("product.flat", ["jacobi_check", "reductive_split"]),
        ("T2.n1", ["homogeneous_from_partial"]),
    ],
)
def test_verification_reuses_what_loading_built(monkeypatch, case_id, built):
    from g2forms import liealg
    from g2forms import catalog

    calls = []
    for name in ("jacobi_check", "reductive_split", "homogeneous_from_partial"):

        def counting(*args, _name=name, _original=getattr(liealg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(liealg, name, counting)
        monkeypatch.setattr(catalog, name, counting)
    assert verify_case(load_bundled(case_id)).ok
    assert sorted(calls) == built  # once each, at load time


@pytest.mark.parametrize("case_id", bundled_ids())
def test_verification_builds_nothing(monkeypatch, case_id):
    from g2forms import catalog, liealg

    record = load_bundled(case_id)

    def refuse(*args, **kwargs):
        raise AssertionError("built case data after loading")

    builders = ("from_matrices", "reductive_split", "jacobi_check", "homogeneous_from_partial")
    for module in (catalog, liealg):
        for name in builders:
            monkeypatch.setattr(module, name, refuse)
    assert verify_case(record).ok  # every source was built when the case loaded


@pytest.mark.parametrize("case_id", bundled_ids())
def test_checks_parse_nothing(monkeypatch, case_id):
    from g2forms.scalars import PolyScalar

    record = load_bundled(case_id)

    def refuse(*args, **kwargs):
        raise AssertionError(f"parsed {args} after loading")

    monkeypatch.setattr(catalog, "parse_form", refuse)
    monkeypatch.setattr(catalog, "parse_rational", refuse)
    monkeypatch.setattr(PolyScalar, "parse", refuse)
    assert verify_case(record).ok  # every string was parsed when the case loaded


def _minimal_partial():
    return {
        "id": "tiny",
        "description": "test case",
        "source": "partial-homogeneous",
        "dimension": 2,
        "basis_names": ["e1", "e2"],
        "homogeneous": {
            "isotropy_action": [],
            "projected_bracket": [[1, 2, ["0", "0"]]],
        },
        "expected": [],
    }


def test_schema_violations_are_field_level():
    doc = _minimal_partial()
    doc["bogus"] = 1
    with pytest.raises(SchemaError, match="bogus"):
        validate_case_dict(doc)

    doc = _minimal_partial()
    del doc["dimension"]
    with pytest.raises(SchemaError, match="dimension"):
        validate_case_dict(doc)

    doc = _minimal_partial()
    doc["source"] = "telepathy"
    with pytest.raises(SchemaError, match="source"):
        validate_case_dict(doc)

    doc = _minimal_partial()
    doc["basis_names"] = ["e1"]
    with pytest.raises(SchemaError, match="basis_names"):
        validate_case_dict(doc)

    doc = _minimal_partial()
    doc["homogeneous"]["projected_bracket"] = [[1, 2, ["0"]]]
    with pytest.raises(SchemaError, match="projected_bracket"):
        validate_case_dict(doc)

    doc = _minimal_partial()
    doc["expected"] = [{"check": "made_up", "args": {}, "value": 1, "cite": "x"}]
    with pytest.raises(SchemaError, match="made_up"):
        validate_case_dict(doc)

    doc = _minimal_partial()
    doc["expected"] = [{"check": "invariant_dim", "args": {}, "value": 1}]
    with pytest.raises(SchemaError, match="cite"):
        validate_case_dict(doc)

    doc = _minimal_partial()  # gammas that no check reads are parsed at load all the same
    doc.update(context=["a"], gammas=["e^{1 q}"], gamma_symbols=["a"])
    with pytest.raises(SchemaError, match="gammas"):
        validate_case_dict(doc)

    doc = _minimal_partial()  # a bad symbol is the context's fault, not the payload's
    doc["context"] = ["1x"]
    with pytest.raises(SchemaError, match="^context"):
        validate_case_dict(doc)


@pytest.mark.parametrize("item, arg", [
    (2, "form"), (3, "form"), (4, "form"), (5, "psi"), (6, "omega"), (6, "psi"),
])
def test_an_empty_index_form_arg_fails_at_load(item, arg):
    # e^{} parses as the unit 0-form, which no form-valued arg takes
    doc = json.loads((CASES_DIR / "product.flat.json").read_text(encoding="utf-8"))
    doc["expected"][item]["args"][arg] = "e^{}"
    with pytest.raises(SchemaError, match=rf"^expected\[{item}\]"):
        validate_case_dict(doc)


@pytest.mark.parametrize("check, args, message", [
    ("invariant_dim", {}, "missing a required argument: 'degree'"),
    ("invariant_dim", {"degree": 3, "bogus": 1}, "got an unexpected keyword argument 'bogus'"),
    ("invariant_dim", {"bogus": 1}, "missing a required argument: 'degree'"),
    ("invariant_dim", {"value": 1, "degree": 2}, "multiple values for argument 'value'"),
    ("invariant_dim", {"record": 1, "degree": 2}, "multiple values for argument 'record'"),
    ("invariant_dim", {"degree": 2, "data": 1}, "got an unexpected keyword argument 'data'"),
])
def test_args_bind_to_the_check_parameters(check, args, message):
    doc = _minimal_partial()
    doc["expected"] = [{"check": check, "args": args, "value": 1, "cite": "x"}]
    with pytest.raises(SchemaError) as info:
        validate_case_dict(doc)
    assert str(info.value) == f"expected[0]: {check}: {message}"


def test_optional_args_keep_their_defaults():
    doc = _minimal_partial()
    doc["expected"] = [{"check": "closed_param_count", "args": {}, "value": 1, "cite": "x"}]
    ((check, value, args),) = validate_case_dict(doc).checks
    assert (check.__name__, value, args) == ("_check_closed_param_count", 1, {})
    assert check.__defaults__ == (3,)


def test_matrix_payload_shape_checked():
    doc = {
        "id": "bad",
        "description": "",
        "source": "matrix-basis",
        "dimension": 2,
        "basis_names": ["e1", "e2"],
        "matrices": [[["0", "0"], ["0", "0"]], [["0"], ["0"]]],
        "h_indices": [],
        "m_indices": [1, 2],
        "expected": [],
    }
    with pytest.raises(SchemaError, match="matrices"):
        validate_case_dict(doc)


def test_reversed_bracket_pair_is_accepted_and_normalized():
    doc = _minimal_partial()
    doc["homogeneous"]["projected_bracket"] = [[2, 1, ["1", "0"]]]
    data = validate_case_dict(doc).homog_sym
    assert [c.constant_value() for c in dense_components(data.bracket[(1, 2)], 2)] == [-1, 0]


def test_non_reductive_split_rejected_at_load(tmp_path):
    # sl(2)-type constants with a nilpotent h: [e2, e1] has an h-component
    doc = {
        "id": "nonreductive",
        "description": "h is not reductively complemented",
        "source": "structure-constants",
        "dimension": 3,
        "basis_names": ["e1", "e2", "e3"],
        "structure_constants": [[1, 2, 2, "2"], [1, 3, 3, "-2"], [2, 3, 1, "1"]],
        "h_indices": [2],
        "m_indices": [1, 3],
        "expected": [],
    }
    path = tmp_path / "nonreductive.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match="reductive"):
        load_case(path)


def test_asymmetric_partial_bracket_rejected_at_load(tmp_path):
    doc = _minimal_partial()
    doc["homogeneous"]["projected_bracket"] = [
        [1, 2, ["0", "1"]],
        [2, 1, ["0", "1"]],
    ]
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match="antisymmetric"):
        load_case(path)


def _matrix_doc(matrices, h_indices, m_indices):
    n = len(matrices)
    return {
        "id": "bad-matrices",
        "description": "",
        "source": "matrix-basis",
        "dimension": n,
        "basis_names": [f"e{i}" for i in range(1, n + 1)],
        "matrices": [[[str(x) for x in row] for row in m] for m in matrices],
        "h_indices": h_indices,
        "m_indices": m_indices,
        "expected": [],
    }


SL2 = [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]  # H, E, F


@pytest.mark.parametrize(
    "doc, match",
    [
        (_matrix_doc([[[1, 0], [0, 0]], [[2, 0], [0, 0]]], [], [1, 2]), "matrices: .*dependent"),
        (_matrix_doc(SL2[1:], [], [1, 2]), r"matrices: commutator \[e1, e2\]"),
        (_matrix_doc(SL2, [2, 3], [1]), "reductive split fails: h is not a subalgebra"),
        (_matrix_doc(SL2, [2], [1, 3]), "reductive split fails: reductivity"),
    ],
    ids=["proportional", "commutator-outside-span", "h-not-a-subalgebra", "hm-with-h-component"],
)
def test_bad_matrix_payload_rejected_at_load(tmp_path, doc, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match=match):
        load_case(path)


def test_jacobi_failure_rejected_at_load(tmp_path):
    doc = {
        "id": "broken",
        "description": "violates Jacobi",
        "source": "structure-constants",
        "dimension": 3,
        "basis_names": ["e1", "e2", "e3"],
        "structure_constants": [[1, 2, 1, "1"], [1, 3, 2, "1"]],
        "h_indices": [],
        "m_indices": [1, 2, 3],
        "expected": [],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match="Jacobi"):
        load_case(path)


def test_structure_constants_recomputed_for_matrix_cases():
    # matrix-born cases: the loader derives constants from the stored
    # matrices; deriving them again from the models module must agree
    builders = {
        "T1.n1": lambda: MatrixBasis(models.sl3r_matrices()),
        "T1.n2a": lambda: MatrixBasis.from_complex(models.su21_matrices(0, 1)),
        "T1.n4": lambda: MatrixBasis(models.so41_fixed_matrices()),
        "T1.n5": lambda: MatrixBasis(models.so41_diagonal_matrices()),
        "su31": lambda: MatrixBasis.from_complex(models.su31_matrices()),
    }
    for case_id, builder in builders.items():
        record = load_bundled(case_id)
        from_file = record.algebra
        from_model = from_matrices(builder(), record.raw["basis_names"], record.context)
        assert set(from_file.bracket) == set(from_model.bracket)
        for key in from_file.bracket:
            assert from_file.bracket[key] == from_model.bracket[key]


@pytest.mark.parametrize("key, indices", [("m_indices", [1, 1, 2, 3, 4, 5, 6, 7]), ("h_indices", [8, 8])])
def test_repeated_split_index_rejected(key, indices):
    doc = json.loads((CASES_DIR / "T1.n1.json").read_text(encoding="utf-8"))
    doc[key] = indices
    with pytest.raises(SchemaError, match="repeated index"):
        validate_case_dict(doc)


def _abelian_4(**fields):
    """The abelian 4-dimensional algebra as a case with no isotropy."""
    return {
        "id": "abelian4", "description": "", "source": "structure-constants", "dimension": 4,
        "basis_names": ["e1", "e2", "e3", "e4"], "structure_constants": [],
        "h_indices": [], "m_indices": [1, 2, 3, 4], "expected": [], **fields,
    }


def test_gammas_and_gamma_symbols_of_unequal_length_rejected():
    doc = _abelian_4(context=["g1", "g2"], gammas=["e^{1 2 3}"], gamma_symbols=["g1", "g2"])
    with pytest.raises(SchemaError, match="^gammas and gamma_symbols must have equal length$"):
        validate_case_dict(doc)


def test_closed_form_outside_the_declared_gammas_is_a_mismatch():
    # d = 0 on an abelian algebra, so all four 3-forms are closed, and e^{1 2 4}
    # is not a multiple of the one declared gamma e^{1 2 3}
    item = {"check": "closed_component_zero", "args": {"indices": [1]}, "value": True,
            "cite": "probe"}
    doc = _abelian_4(context=["g1"], gammas=["e^{1 2 3}"], gamma_symbols=["g1"], expected=[item])
    (result,) = verify_case(validate_case_dict(doc)).results
    assert (result.status, result.computed) == (
        "mismatch", "closed form outside the span of the declared gammas"
    )


def test_closed_component_prints_the_exact_nonzero_component():
    # the closed family of the abelian algebra is e^{1 2 3}, ..., e^{2 3 4}; its
    # first member is 2 times the first gamma, so the printed component is 2: it
    # is solved on the forms' exact coefficients, not on rows of another scale
    item = {"check": "closed_component_zero", "args": {"indices": [1]}, "value": True,
            "cite": "probe"}
    gammas = ["1/2*e^{1 2 3}", "e^{1 2 4}", "e^{1 3 4}", "e^{2 3 4}"]
    symbols = ["g1", "g2", "g3", "g4"]
    doc = _abelian_4(context=symbols, gammas=gammas, gamma_symbols=symbols, expected=[item])
    (result,) = verify_case(validate_case_dict(doc)).results
    assert (result.status, result.computed) == ("mismatch", "component 1 = 2")


@pytest.mark.parametrize("check, degree, value, status, computed", [
    # d e^3 = -t e^{12}: three closed 1-forms at t = 0, two at t = 1
    ("closed_param_count", 1, 3, "mismatch", "{t=0}: 3 | {t=1}: 2"),
    ("closed_param_count", 1, 2, "mismatch", "{t=0}: 3 | {t=1}: 2"),
    # no isotropy: every 1-form is invariant at both entries, which agree
    ("invariant_dim", 1, 3, "match", "3"),
])
def test_numeric_checks_hold_at_every_enumeration_entry(check, degree, value, status, computed):
    doc = {
        "id": "toy", "description": "", "source": "partial-homogeneous", "dimension": 3,
        "basis_names": ["e1", "e2", "e3"], "context": ["t"],
        "homogeneous": {"isotropy_action": [], "projected_bracket": [[1, 2, ["0", "0", "t"]]]},
        "enumerations": [{"t": "0"}, {"t": "1"}],
        "expected": [{"check": check, "args": {"degree": degree}, "value": value, "cite": "probe"}],
    }
    (result,) = verify_case(validate_case_dict(doc)).results
    assert (result.status, result.computed) == (status, computed)


def counting_echelon(monkeypatch) -> list:
    """The (rows, cols) of every later ``_linalg._echelon`` call, appended as it runs."""
    calls, original = [], _linalg._echelon

    def counting(mat, ncols):
        calls.append((len(mat), ncols))
        return original(mat, ncols)

    monkeypatch.setattr(_linalg, "_echelon", counting)
    return calls


def test_entries_of_one_invariant_space_eliminate_once(monkeypatch):
    # T2.n3.a13's four enumeration entries share one isotropy action: its
    # invariant checks at all four cost what they cost at the first entry alone
    calls, costs, results = counting_echelon(monkeypatch), [], []
    doc = json.loads((CASES_DIR / "T2.n3.a13.json").read_text(encoding="utf-8"))
    first = validate_case_dict({**doc, "enumerations": doc["enumerations"][:1]})
    full = load_bundled("T2.n3.a13")
    for record in (first, full):
        calls.clear()
        results.append([catalog.run_check(record, *check) for check, item
                        in zip(record.checks, record.raw["expected"])
                        if item["check"].startswith("invariant")])
        costs.append(len(calls))
    assert len(full.enumerations) == 4 and len(results[1]) == 3
    assert costs[0] == costs[1] > 0
    assert results[0] == results[1] and {s for s, _ in results[1]} <= {"match", "span-match"}


def test_one_verify_all_eliminates_at_most_15000_cells(monkeypatch):
    # rows x cols summed over every elimination; deterministic on any host.
    # Stacking each kernel's system whole, not by components, took 50,617.
    calls = counting_echelon(monkeypatch)
    assert all(report.ok for report in verify_all())
    assert sum(rows * cols for rows, cols in calls) <= 15_000


@pytest.mark.parametrize("case_id", bundled_ids())
def test_engine_bases_are_the_reduced_rows_of_their_span(case_id):
    # the span checks compare these int rows with the printed rows as is
    record = load_bundled(case_id)
    for entry in record.enumerations:
        data = record.homog_num(entry)
        bases = [(2, invariant_forms(data, 2).basis), (3, invariant_forms(data, 3).basis),
                 (3, closed_forms(data, 3).basis)]
        for degree, basis in bases:
            monos = monomials(record.dim_m, degree)
            oracle = _linalg._reduced([form_to_vector(f, monos) for f in basis])
            assert catalog._rows(basis, monos) == [row for row, _ in oracle], (entry, degree)


def _forms_check(record, name, forms):
    """The result of check ``name`` with ``forms`` printed as its value, at the first entry."""
    check, parse_item, _ = catalog._CHECKS[name]
    args = {"degree": 3} if name == "invariant_span" else {}
    value = parse_item([f.render() for f in forms], args, record)
    return check(record, value, **args, data=record.homog_num())[0]


def test_closed_subset_of_needs_every_printed_form():
    record = load_bundled("T1.n2a")
    printed = [parse_form(t, 7, 3) for t in ("e^{1 2 4} - e^{1 3 5}", "e^{1 2 5} + e^{1 3 4}",
                                             "e^{2 4 7} - e^{2 5 6} + e^{3 4 6} + e^{3 5 7}")]
    assert closed_forms(record.homog_num(), 3).dim == 3
    assert _forms_check(record, "closed_subset_of", printed) == "span-match"
    for dropped in range(3):
        fewer = printed[:dropped] + printed[dropped + 1:]
        assert _forms_check(record, "closed_subset_of", fewer) == "mismatch"


@pytest.mark.parametrize("case_id, name", [
    ("T1.n2a", "closed_span"), ("T1.n2b", "closed_span"), ("T1.n1", "invariant_span"),
    ("T2.n1", "invariant_span"), ("su31", "invariant_span"),
])
def test_span_checks_read_any_basis_of_the_span(case_id, name):
    # a seeded recombination of the engine basis prints no RREF rows: triangular
    # with a nonzero diagonal, so invertible, and in reversed order
    record, rng = load_bundled(case_id), random.Random(3)
    data = record.homog_num()
    basis = (closed_forms(data, 3) if name == "closed_span" else invariant_forms(data, 3)).basis
    coeffs = [[Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3)) if j == i else
               Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if j > i else 0
               for j in range(len(basis))] for i in range(len(basis))]
    zero = AltForm(record.dim_m, 3, basis[0].symbols)
    mixed = [sum((f.scale(c) for c, f in zip(row, basis)), zero) for row in coeffs[::-1]]
    assert len(basis) >= 2 and mixed != basis
    assert _forms_check(record, name, mixed) == "span-match"
    assert _forms_check(record, name, mixed[1:]) == "mismatch"


def test_only_not_definite_reads_the_data_itself():
    # the others take each entry's data from run_check, through their data parameter
    checks = [f for name, f in vars(catalog).items() if name.startswith("_check_")]
    readers = [f.__name__ for f in checks if "homog_num" in f.__code__.co_names]
    assert len(checks) == len(catalog._CHECKS) and readers == ["_check_not_definite"]
