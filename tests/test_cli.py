import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import g2forms
from g2forms.catalog import _FIELDS, SchemaError, validate_case_dict
from g2forms.cli import main
from g2forms.exterior import basis_form, parse_form

CASES_DIR = Path(__file__).resolve().parent.parent / "src" / "g2forms" / "catalog" / "cases"
# `python -m g2forms verify --all --format json` without the "seconds" of each case
GOLDEN_VERIFY_ALL = Path(__file__).resolve().parent / "data" / "verify_all.json"
# `python -m g2forms schema`
GOLDEN_SCHEMA = Path(__file__).resolve().parent / "data" / "schema.txt"

PHI0 = (
    "e^{1 2 7} + e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5} "
    "+ e^{3 4 7} + e^{5 6 7}"
)


def write_form(tmp_path, name, dimension, degree, form):
    path = tmp_path / name
    path.write_text(
        json.dumps({"dimension": dimension, "degree": degree, "form": form}),
        encoding="utf-8",
    )
    return str(path)


def test_verify_single_case_exits_zero(capsys):
    assert main(["verify", "--case", "T1.n1"]) == 0
    out = capsys.readouterr().out
    assert "d_eval" in out and "-a3" in out
    assert "[source: Table 1 case n.1" in out


def test_verify_unknown_case_exits_two(capsys):
    assert main(["verify", "--case", "nope"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown case id 'nope'")


def test_verify_all_json_round_trips(capsys):
    assert main(["verify", "--all", "--format", "json"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert len(parsed) == 12
    assert json.dumps(parsed, indent=2, sort_keys=True) == out.rstrip("\n")
    assert all(entry["ok"] for entry in parsed)


def test_verify_all_json_matches_golden_output(capsys):
    # pins every computed value of the canonical cases (form bases, closed
    # families, obstruction identities, verdicts) byte for byte; only the
    # timings may change
    assert main(["verify", "--all", "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    for entry in parsed:
        del entry["seconds"]
    golden = GOLDEN_VERIFY_ALL.read_text(encoding="utf-8")
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == golden


def test_verify_filter_counts(capsys):
    assert main(["verify", "--filter", "T1.*", "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert len(parsed) == 8  # seven canonical + one exploratory


@pytest.mark.parametrize("selection", [
    ["--case", "T1.n1", "--filter", "T2*"],
    ["--all", "--filter", "T1.*"],
    ["--case", "T1.n1", "--all"],
])
def test_verify_conflicting_selections_exit_two(capsys, selection):
    # one selection at a time: a second one is an error, not silently dropped
    with pytest.raises(SystemExit) as exc:
        main(["verify", *selection])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_filter_without_match_exits_two(capsys):
    assert main(["verify", "--filter", "nomatch*"]) == 2
    captured = capsys.readouterr()
    assert "no bundled case matches" in captured.err
    assert "all match" not in captured.out


def test_invariants_command(capsys):
    case = str(CASES_DIR / "T1.n2b.json")
    assert main(["invariants", "--input", case, "--degree", "3"]) == 0
    assert "dimension: 13" in capsys.readouterr().out
    case = str(CASES_DIR / "product.flat.json")
    assert main(["invariants", "--input", case, "--degree", "3"]) == 0
    assert "dimension: 35" in capsys.readouterr().out
    assert main(["invariants", "--input", case, "--degree", "0"]) == 0
    assert "dimension: 1" in capsys.readouterr().out


def test_closed_command(capsys):
    case = str(CASES_DIR / "T1.n2a.json")
    assert main(["closed", "--input", case]) == 0
    out = capsys.readouterr().out
    assert "3 free parameter(s)" in out
    assert "e^{1 2 4} - e^{1 3 5}" in out


NOTE = "note: partial homogeneous data; d o d = 0 not guaranteed by construction"


@pytest.mark.parametrize("case_id, partial", [("T2.n1", True), ("su31", False)])
def test_closed_command_notes_partial_data(capsys, case_id, partial):
    assert main(["closed", "--input", str(CASES_DIR / f"{case_id}.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (NOTE in lines) == partial
    if partial:  # right below the heading
        assert lines[:2] == [f"closed invariant 3-forms of {case_id}", NOTE]


def test_definite_command(tmp_path, capsys):
    form = write_form(tmp_path, "phi0.json", 7, 3, PHI0)
    assert main(["definite", "--form", form]) == 0
    out = capsys.readouterr().out
    assert "definite (positive)" in out and "minors 6" in out


def test_definite_command_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    form = json.dumps({"dimension": 7, "degree": 3, "form": PHI0}).encode()
    zero_denominator = json.dumps({"dimension": 7, "degree": 3, "form": "1/0*e^{1 2 3}"})
    bad_contexts = [
        json.dumps({"dimension": 7, "degree": 3, "form": "0", "context": context}).encode()
        for context in (["1x"], ["a", "a"])
    ]
    for content in (b"not json", zero_denominator.encode(), form + b"\xff", *bad_contexts):
        path.write_bytes(content)
        assert main(["definite", "--form", str(path)]) == 2, content
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["+", "e^{1 2 7} - - e^{3 4 7}", PHI0 + " +"])
def test_definite_rejects_dangling_signs(tmp_path, capsys, form):
    path = write_form(tmp_path, "form.json", 7, 3, form)
    assert main(["definite", "--form", path]) == 2
    assert "dangling sign" in capsys.readouterr().err


def test_definite_rejects_non_ascii_digits(tmp_path, capsys):
    # read as the index 0, an Arabic-Indic zero gave a degenerate verdict and exit 0
    path = write_form(tmp_path, "form.json", 7, 3, "e^{\u0660 1 2} + " + PHI0)
    assert main(["definite", "--form", path]) == 2
    assert "cannot parse form term" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("dimension", "7"),
        ("dimension", 7.0),
        ("degree", 3.0),
        ("context", [1]),
        ("context", "ab"),
        ("form", 5),
    ],
)
def test_definite_rejects_mistyped_form_file_fields(tmp_path, capsys, field, value):
    doc = {"dimension": 7, "degree": 3, "form": PHI0, field: value}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["definite", "--form", str(path)]) == 2
    assert f"{field} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dimension, degree, form",
    [(6, 3, "e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5}"), (7, 2, "e^{1 2} + e^{3 4}")],
    ids=["dimension-6", "degree-2"],
)
def test_definite_rejects_wrong_shape_form(tmp_path, capsys, dimension, degree, form):
    path = write_form(tmp_path, "form.json", dimension, degree, form)
    assert main(["definite", "--form", path]) == 2
    assert "3-form on a 7-dimensional space" in capsys.readouterr().err


DROP = object()  # a probe value that deletes the field


def _case_document(base):
    if base == "T1.n1":
        return json.loads((CASES_DIR / "T1.n1.json").read_text(encoding="utf-8"))
    doc = {
        "id": "tiny",
        "description": "",
        "dimension": 2,
        "basis_names": ["e1", "e2"],
        "expected": [],
    }
    if base == "partial":
        doc["source"] = "partial-homogeneous"
        doc["homogeneous"] = {
            "isotropy_action": [[["0", "1"], ["-1", "0"]]],
            "projected_bracket": [[1, 2, ["0", "1"]]],
        }
    elif base == "matrix":  # the diagonal 2x2 matrices
        doc["source"] = "matrix-basis"
        doc["matrices"] = [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]
        doc.update(h_indices=[], m_indices=[1, 2])
    else:
        doc["source"] = "structure-constants"
        doc["structure_constants"] = [[1, 2, 2, "1"]]
        doc.update(h_indices=[], m_indices=[1, 2])
    return doc


def _item(check, args, value):
    return {"check": check, "args": args, "value": value, "cite": "probe"}


@pytest.mark.parametrize(
    "base, path, value",
    [
        ("partial", ("homogeneous", "isotropy_action", 0), 5),
        ("T1.n1", ("h_indices",), 5),
        ("T1.n1", ("context",), ["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a1"]),
        ("T1.n1", ("parameters",), {"a1": "abc"}),
        ("constants", ("structure_constants", 0, 3), "q"),
        ("T1.n1", ("matrices", 0, 0, 0), "abc"),
        ("T1.n1", ("matrices", 0, 0, 0), "1/0"),
        ("partial", ("homogeneous", "projected_bracket", 0, 2, 0), "1/0"),
        ("T1.n1", ("m_indices",), [1, 1, 2, 3, 4, 5, 6, 7]),
        ("T1.n1", ("h_indices",), [8, 8]),
        ("T1.n1", (), b"\xff"),
        ("partial", ("homogeneous", "projected_bracket"), [[1, 2, ["0", "1"]], [1, 2, ["0"] * 2]]),
        ("T1.n1", ("expected", 1, "args"), {"degree": "3"}),
        ("T1.n1", ("expected", 1, "args"), {}),
        ("T1.n1", ("expected", 1, "args"), {"degree": -1}),
        ("T1.n1", ("expected", 1, "args"), {"degree": 3, "bogus": 1}),
        ("T1.n1", ("expected", 1, "value"), "7"),
        ("T1.n1", ("expected", 4, "args"), {"i": 8, "j": 1}),
        ("T1.n1", ("expected", 3, "args"), {"vectors": [3, 5, 6, 9]}),
        ("T1.n1", ("expected", 0, "note"), "extra key"),
        ("T1.n1", ("exploratory",), "no"),
        ("T1.n1", ("basis_names",), list(range(1, 9))),
        ("T1.n1", ("description",), DROP),
        ("T1.n1", ("expected",), DROP),
        ("constants", ("structure_constants",), [[1, 2, 2, "1"], [1, 2, 2, "1"]]),
        ("T1.n1", ("expected", 1), _item(
            "invariant_dim_in_support", {"degree": 3, "groups": [[1, 2], [3]], "counts": [1]}, 0
        )),
        ("partial", ("expected",), [_item("jacobi", {}, "valid")]),
        ("partial", ("expected",), [_item("d_squared", {"degrees": [2]}, "pass")]),
        ("constants", ("expected",), [_item("d_eval", {"vectors": [1, 2, 1, 2]}, "0")]),
        ("T1.n1", ("expected", 3, "value"), "x"),
        ("T1.n1", ("expected", 3, "value"), ""),
        ("T1.n1", ("expected", 1), _item(
            "torsion_flags", {"form": "e^{1 2 q}"},
            {"definite": True, "closed": True, "coclosed": True},
        )),
        ("T1.n1", ("expected", 2, "value"), ["e^{1 2}"]),
        ("partial", ("expected",), [_item("b_matrix_scalar", {"form": "e^{1 2}"}, "1")]),
        ("partial", ("expected",), [_item(
            "torsion_flags", {"form": "e^{1 2}"},
            {"definite": True, "closed": True, "coclosed": True},
        )]),
        ("constants", ("expected",), [_item(
            "su3_flags", {"omega": "e^{1 2}", "psi": "e^{1 3 5}"}, {"sp": True}
        )]),
        ("matrix", ("matrices", 0, 0, 0), "1.5"),
        ("T1.n1", ("parameters",), {"a1": "1e3"}),
        ("T1.n1", ("enumerations",), [{"a1": "+3"}]),
        ("T1.n1", ("expected", 1), _item("b_matrix_scalar", {"form": "0"}, "0")),
        ("matrix", ("matrices", 1), [["2", "0"], ["0", "0"]]),
    ],
    ids=[
        "isotropy-entry-not-a-list",
        "h-indices-not-a-list",
        "repeated-context-symbol",
        "non-rational-parameter",
        "unknown-coefficient-symbol",
        "non-rational-matrix-entry",
        "zero-denominator-matrix-entry",
        "zero-denominator-bracket",
        "repeated-m-index",
        "repeated-h-index",
        "non-utf8-byte",
        "repeated-bracket-pair",
        "string-degree",
        "missing-arg",
        "negative-degree",
        "unknown-arg",
        "string-dimension-value",
        "b-entry-index-out-of-range",
        "d-eval-vector-out-of-range",
        "extra-expected-key",
        "non-boolean-exploratory",
        "integer-basis-names",
        "no-description",
        "no-expected",
        "repeated-structure-constant",
        "fewer-counts-than-groups",
        "jacobi-on-partial-data",
        "d-squared-on-partial-data",
        "d-eval-without-gammas",
        "d-eval-symbol-outside-context",
        "empty-polynomial-value",
        "unparsable-form-arg",
        "span-form-of-another-degree",
        "b-matrix-scalar-off-dimension-7",
        "torsion-flags-off-dimension-7",
        "su3-flags-off-dimension-6-or-7",
        "decimal-matrix-entry",
        "exponent-parameter",
        "plus-signed-enumeration-value",
        "zero-form-arg",
        "proportional-matrices",
    ],
)
def test_malformed_case_document_exits_two(tmp_path, capsys, base, path, value):
    doc = _case_document(base)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DROP:
        del target[path[-1]]
    elif path:
        target[path[-1]] = value
    case = tmp_path / "case.json"
    case.write_bytes(json.dumps(doc).encode() + (b"" if path else value))
    assert main(["invariants", "--input", str(case), "--degree", "2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("base", ["T1.n1", "partial", "constants", "matrix"])
def test_unmutated_case_document_exits_zero(tmp_path, base):
    # each malformed document above differs from its base only where it is broken
    case = tmp_path / "case.json"
    case.write_text(json.dumps(_case_document(base)), encoding="utf-8")
    assert main(["invariants", "--input", str(case), "--degree", "2"]) == 0


OPTIONAL_FIELDS = {
    "context": ["a1"],
    "parameters": {"a1": "1"},
    "enumerations": [{"a1": "2"}],
    "gammas": ["0"],
    "gamma_symbols": ["a1"],
    "exploratory": False,
}


@pytest.mark.parametrize("name", [name for name, *_ in _FIELDS])
def test_null_field_is_reported_under_its_name(name):
    # every parser of the field table rejects a null, and the error names its field
    for base in ("T1.n1", "partial", "matrix", "constants"):
        doc = {**OPTIONAL_FIELDS, **_case_document(base)}
        if name in doc:
            validate_case_dict(doc)
            doc[name] = None
            with pytest.raises(SchemaError, match=f"^{name}:"):
                validate_case_dict(doc)


@pytest.mark.parametrize("command", ["invariants", "closed"])
def test_negative_degree_flag_exits_two(capsys, command):
    case = str(CASES_DIR / "T1.n1.json")
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", case, "--degree", "-1"])
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


def test_su3_command(tmp_path, capsys):
    omega = write_form(tmp_path, "omega.json", 6, 2, "e^{1 2} + e^{3 4} + e^{5 6}")
    psi = write_form(
        tmp_path, "psi.json", 6, 3, "e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5}"
    )
    case = str(CASES_DIR / "product.flat.json")
    assert main(["su3", "--input", case, "--omega", omega, "--psi", psi]) == 0
    out = capsys.readouterr().out
    assert "symplectic half-flat: yes; strict: no" in out


OMEGA0 = {"dimension": 6, "degree": 2, "form": "e^{1 2} + e^{3 4} + e^{5 6}"}
PSI0 = {"dimension": 6, "degree": 3, "form": "e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5}"}


@pytest.mark.parametrize(
    "case_id, omega, psi, message",
    [
        ("product.flat", {**PSI0, "degree": 3}, PSI0, "--omega needs a 2-form"),
        ("product.flat", OMEGA0, {**PSI0, "dimension": 7}, "--psi needs a 3-form on a 6-dim"),
        ("product.flat", {**OMEGA0, "context": ["t"]}, PSI0, "missing symbol 't'"),
        ("T1.n1", OMEGA0, PSI0, "leaves the restricted subspace"),
        ("product.flat", OMEGA0, {**PSI0, "form": "1/0*e^{1 3 5}"}, "invalid rational literal"),
    ],
    ids=[
        "omega-of-degree-3",
        "psi-in-dimension-7",
        "unknown-context-symbol",
        "e1-e6-not-closed",
        "psi-zero-denominator",
    ],
)
def test_su3_bad_input_exits_two(tmp_path, capsys, case_id, omega, psi, message):
    paths = []
    for name, doc in (("omega.json", omega), ("psi.json", psi)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(tmp_path / name))
    case = str(CASES_DIR / f"{case_id}.json")
    assert main(["su3", "--input", case, "--omega", paths[0], "--psi", paths[1]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_schema_command(capsys):
    assert main(["schema"]) == 0
    assert capsys.readouterr().out == GOLDEN_SCHEMA.read_text(encoding="utf-8")


def test_engine_error_exits_three(tmp_path, capsys):
    doc = {
        "id": "parametric",
        "description": "isotropy left symbolic",
        "source": "partial-homogeneous",
        "dimension": 2,
        "basis_names": ["e1", "e2"],
        "homogeneous": {
            "isotropy_action": [[["t", "0"], ["0", "t"]]],
            "projected_bracket": [],
        },
        "context": ["t"],
        "expected": [],
    }
    path = tmp_path / "parametric.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["invariants", "--input", str(path), "--degree", "1"]) == 3
    assert "engine error" in capsys.readouterr().err


def test_mismatch_exits_one(tmp_path, capsys, monkeypatch):
    # doctor a copy of a bundled case to carry a wrong expected value
    source = json.loads((CASES_DIR / "T1.n1.json").read_text(encoding="utf-8"))
    for item in source["expected"]:
        if item["check"] == "invariant_dim":
            item["value"] = 8
    path = tmp_path / "TWRONG.json"
    path.write_text(json.dumps(source, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    from g2forms import catalog

    def fake_load(case_id):
        assert case_id == "TWRONG"
        return catalog.load_case(path)

    monkeypatch.setattr(catalog, "load_bundled", fake_load)
    assert main(["verify", "--case", "TWRONG"]) == 1
    out = capsys.readouterr().out
    assert "mismatch" in out


# The JSON outputs below are worked out by hand from the definitions:
# json.dumps(payload, indent=2, sort_keys=True) of each command's payload.

def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_invariants_json_output(tmp_path, capsys):
    # so(2) rotating e1, e2: no invariant covector; e^{1 2} is invariant
    # because the rotation generator has trace 0
    case = tmp_path / "case.json"
    case.write_text(json.dumps(_case_document("partial")), encoding="utf-8")
    for degree, basis in ((1, []), (2, ["e^{1 2}"])):
        argv = ["invariants", "--input", str(case), "--degree", str(degree), "--format", "json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == _json_text(
            {"basis": basis, "case": "tiny", "degree": degree, "dimension": len(basis)}
        )


@pytest.mark.parametrize("command", [["invariants", "--degree", "0"], ["closed", "--degree", "0"]])
def test_degree_zero_json_basis_parses_back(capsys, command):
    case = str(CASES_DIR / "T1.n1.json")
    assert main([*command, "--input", case, "--format", "json"]) == 0
    basis = json.loads(capsys.readouterr().out)["basis"]
    assert basis == ["e^{}"]
    assert [parse_form(text, 7, 0) for text in basis] == [basis_form(7, ())]


@pytest.mark.parametrize("base, degree, expected", [
    # [e1, e2] = e2 with no isotropy: e^1 vanishes on every bracket, d e^2 is
    # a nonzero multiple of e^{1 2}, so the closed 1-forms are the multiples of e^1
    ("constants", 1, {
        "basis": ["e^{1}"], "free_parameters": 1, "generic": "(a1)*e^{1}",
        "invariant_dimension": 2, "partial_data": False,
    }),
    # every 2-form on a 2-space is closed; the rotation-invariant one is e^{1 2}
    ("partial", 2, {
        "basis": ["e^{1 2}"], "free_parameters": 1, "generic": "(a1)*e^{1 2}",
        "invariant_dimension": 1, "partial_data": True,
    }),
    ("partial", 1, {
        "basis": [], "free_parameters": 0, "generic": "0",
        "invariant_dimension": 0, "partial_data": True,
    }),
])
def test_closed_json_output(tmp_path, capsys, base, degree, expected):
    case = tmp_path / "case.json"
    case.write_text(json.dumps(_case_document(base)), encoding="utf-8")
    argv = ["closed", "--input", str(case), "--degree", str(degree), "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == _json_text({"case": "tiny", "degree": degree, **expected})


NEG_PHI0 = (
    "-e^{1 2 7} - e^{1 3 5} + e^{1 4 6} + e^{2 3 6} + e^{2 4 5} "
    "- e^{3 4 7} - e^{5 6 7}"
)


@pytest.mark.parametrize("form, report", [
    # B(phi0) = 6 Id, so the leading minors are 6^k; B is cubic in phi, so
    # B(-phi0) = -6 Id and its minors are (-6)^k
    (PHI0, "definite (positive), certificate: minors 6, 36, 216, 1296, 7776, 46656, 279936"),
    (NEG_PHI0,
     "definite (negative), certificate: minors -6, 36, -216, 1296, -7776, 46656, -279936"),
])
def test_definite_json_output(tmp_path, capsys, form, report):
    path = write_form(tmp_path, "phi.json", 7, 3, form)
    assert main(["definite", "--form", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == _json_text({"report": report, "verdict": "definite"})


@pytest.mark.parametrize("psi, flags", [
    # the standard pair on flat R^6: every pointwise condition holds and
    # every form is closed, d(*psi) included, so the pair is not strict
    (PSI0["form"], {
        "nondegenerate": True, "stable": True, "compatible": True, "tamed": True,
        "d_omega_zero": True, "d_psi_zero": True, "d_star_psi_zero": True,
        "symplectic_half_flat": True, "strictly_symplectic_half_flat": False,
    }),
    # a decomposable psi has lambda = 0, so it is not stable and the later
    # conditions are skipped (null)
    ("e^{1 2 3}", {
        "nondegenerate": True, "stable": False, "compatible": None, "tamed": None,
        "d_omega_zero": None, "d_psi_zero": None, "d_star_psi_zero": None,
        "symplectic_half_flat": False, "strictly_symplectic_half_flat": False,
    }),
])
def test_su3_json_output(tmp_path, capsys, psi, flags):
    omega = write_form(tmp_path, "omega.json", 6, 2, OMEGA0["form"])
    psi = write_form(tmp_path, "psi.json", 6, 3, psi)
    case = str(CASES_DIR / "product.flat.json")
    argv = ["su3", "--input", case, "--omega", omega, "--psi", psi, "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == _json_text({"case": "product.flat", "flags": flags})


def test_case_of_dimension_ten_with_gammas_exits_two(tmp_path, capsys):
    # form literals have single-digit indices, so a gamma on a 10-dimensional
    # m cannot be read: "e^{1 11}" would mean e^{1 1 1}
    doc = {
        "id": "wide", "description": "", "source": "partial-homogeneous", "dimension": 10,
        "basis_names": [f"e{i}" for i in range(1, 11)],
        "homogeneous": {"isotropy_action": [], "projected_bracket": []},
        "context": ["g1"], "gammas": ["e^{1 2 3}"], "gamma_symbols": ["g1"], "expected": [],
    }
    with pytest.raises(SchemaError, match="^gammas: form literals have single-digit indices"):
        validate_case_dict(doc)
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["invariants", "--input", str(case), "--degree", "1"]) == 2
    assert "single-digit indices" in capsys.readouterr().err
    del doc["gammas"], doc["gamma_symbols"]  # without gammas the case loads
    assert validate_case_dict(doc).dim_m == 10


def _modules_after(imports: str) -> set:
    """The modules a fresh interpreter without ``site`` holds after running ``imports``."""
    env = {**os.environ, "PYTHONPATH": str(Path(g2forms.__file__).resolve().parent.parent)}
    code = f"import sys; {imports}; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(run.stdout.split())


def test_cli_import_leaves_the_catalog_unloaded():
    # each command imports the engine modules it uses
    modules = _modules_after("import g2forms.cli")
    assert "g2forms.cli" in modules and "g2forms.catalog" not in modules


def test_engine_import_loads_neither_inspect_nor_dataclasses():
    modules = _modules_after(
        "import g2forms.catalog, g2forms.gstruct, g2forms.exterior, g2forms.liealg"
    )
    # the catalog is one module: no submodule of it loads, and none exists
    assert "g2forms.catalog" in modules
    assert not any(m.startswith("g2forms.catalog.") for m in modules)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("g2forms.catalog._runner")
    # importlib.resources imports inspect from Python 3.12 on
    assert not {"inspect", "dataclasses", "importlib.resources"} & modules
