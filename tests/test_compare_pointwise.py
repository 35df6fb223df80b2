"""The verdict of tools/compare_pointwise.py, on stubbed child results, and
the engine names its child imports: no child process runs."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import compare_pointwise  # tools/ is on sys.path, see conftest


def base_results():
    # a group is a list of results; a CLI result is [argv, exit code, stdout, stderr]
    return {"b": [["0", "e^{1 2 3}"]], "verify": [[["verify", "--all"], 0, "report", ""]],
            "cases": []}


def compare(monkeypatch, capsys, old, new):
    calls = []

    def run(src, cases):
        calls.append((src, cases))
        return old if src == "BASE/src" else new

    monkeypatch.setattr(compare_pointwise, "run", run)
    code = compare_pointwise.main(["BASE/src", "CHANGE/src"])
    # both sides read the change tree's case files (the two children run at once)
    cases = str(Path("CHANGE/src/g2forms/catalog/cases").resolve())
    assert sorted(calls) == [("BASE/src", cases), ("CHANGE/src", cases)]
    return code, capsys.readouterr().out.splitlines()


def test_identical_results_exit_0(monkeypatch, capsys):
    code, lines = compare(monkeypatch, capsys, base_results(), base_results())
    assert code == 0
    assert lines == ["b: 1 cases, identical", "verify: 1 cases, identical",
                     "cases: 0 cases, identical"]


def test_one_changed_group_is_the_only_difference(monkeypatch, capsys):
    new = base_results()
    new["b"][0][1] = "e^{1 2 4}"
    code, lines = compare(monkeypatch, capsys, base_results(), new)
    assert code == 1
    assert lines == ["b: 1 cases, DIFFERENT", "verify: 1 cases, identical",
                     "cases: 0 cases, identical"]


def test_a_command_exiting_nonzero_on_the_change_tree_differs(monkeypatch, capsys):
    for old_code in (0, 3):  # a new failure, and one the base shares
        old, new = base_results(), base_results()
        old["verify"][0][1], new["verify"][0][1] = old_code, 3
        code, lines = compare(monkeypatch, capsys, old, new)
        assert code == 1
        assert lines == ["b: 1 cases, identical", "verify: 1 cases, DIFFERENT",
                         "  exit 3: g2forms verify --all", "cases: 0 cases, identical"]


def test_a_group_on_one_side_only_differs(monkeypatch, capsys):
    old, new = base_results(), base_results()
    new["schema"] = [[["schema"], 0, "schema", ""]]
    del old["b"]
    code, lines = compare(monkeypatch, capsys, old, new)
    assert code == 1
    assert lines == ["verify: 1 cases, identical", "cases: 0 cases, identical",
                     "b: 1 cases, DIFFERENT", "schema: 1 cases, DIFFERENT"]


def test_a_failing_child_ends_with_the_line_naming_its_tree(monkeypatch, capsys):
    for failing in ("BASE/src", "CHANGE/src"):
        def run(src, cases):
            if src == failing:
                raise SystemExit(f"the child on {src} exited 1")
            return base_results()

        monkeypatch.setattr(compare_pointwise, "run", run)
        with pytest.raises(SystemExit, match=f"^the child on {failing} exited 1$"):
            compare_pointwise.main(["BASE/src", "CHANGE/src"])
        assert capsys.readouterr().out == ""  # no verdict on half the results


def test_every_engine_name_the_child_imports_exists_on_this_tree():
    # a removed name would otherwise show only when the comparator runs; the
    # child's source is parsed, not run
    imports = [(node.module, alias.name) for node in ast.walk(ast.parse(compare_pointwise.CHILD))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("g2forms")
               for alias in node.names]
    assert ("g2forms.liealg", "from_matrices") in imports
    for module, name in imports:
        found = hasattr(importlib.import_module(module), name)
        assert found or importlib.util.find_spec(f"{module}.{name}"), f"{module}.{name}"
