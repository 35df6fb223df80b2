#!/usr/bin/env python3
"""List the engine functions that no product path enters.

Usage, from the repository root::

    python3 tools/reach.py
    python3 tools/reach.py --names > tests/data/reach.txt

The second form prints only each function's file and qualified name, one
per line, and regenerates the golden list that ``tests/test_reach.py``
compares exactly.

The engine is ``src/g2forms/*.py`` and ``src/g2forms/catalog/*.py``.  With a
``sys.setprofile`` hook on, the script runs three product paths in this
interpreter:

* ``catalog.verify_all("*")``: every bundled case, exploratory ones included;
* one pass of the seed-7 ``pointwise`` and ``dense-basis`` ops of
  ``perfbench/`` through ``perfbench/worker._run_op``;
* the CLI in process: ``verify --all`` and ``--case``, ``schema``, ``definite``
  on phi0, and on each bundled case file ``invariants --degree 2`` and ``3``,
  ``closed`` and ``su3`` with (omega0, psi0); each in text and JSON where it
  has both.

It then prints every function or method defined in the engine (nested
functions included) whose code was never entered, with its first line and
line count, the decorators included, and their total beside the line count
of all engine files: the one engine size to quote.  It only reports: the
exit code is 0 whatever it finds.  A function listed here is a candidate
for deletion, not a verdict: Python protocols such as ``__repr__`` and
error paths that these inputs do not take are listed too.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENGINE = REPO / "src" / "g2forms"
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

PHI0 = "e^{1 2 7} + e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5} + e^{3 4 7} + e^{5 6 7}"
OMEGA0 = "e^{1 2} + e^{3 4} + e^{5 6}"
PSI0 = "e^{1 3 5} - e^{1 4 6} - e^{2 3 6} - e^{2 4 5}"


def engine_files() -> list:
    return sorted(ENGINE.glob("*.py")) + sorted(ENGINE.glob("catalog/*.py"))


def defined_functions(path: Path) -> list:
    """(first line, qualified name, line count) of every def in the module."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((first, name, child.end_lineno - first + 1))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def run_product_paths(work: Path) -> None:
    from g2forms import catalog, cli, exterior, gstruct
    from g2forms.liealg import HomogeneousSpaceData

    import workloads
    from worker import _run_op

    catalog.verify_all("*")
    engine = {"catalog": catalog, "exterior": exterior, "gstruct": gstruct,
              "flat7": HomogeneousSpaceData(7, [], {}), "flat6": HomogeneousSpaceData(6, [], {})}
    reference = workloads.load_reference()
    for op in workloads.pointwise_ops(7) + workloads.dense_basis_ops(
            reference, ENGINE / "catalog" / "cases", work, 7):
        _run_op(op, engine)
    forms = {}
    for name, text, dim in (("phi0", PHI0, 7), ("omega0", OMEGA0, 6), ("psi0", PSI0, 6)):
        forms[name] = str(work / f"{name}.json")
        Path(forms[name]).write_text(json.dumps({"dimension": dim, "form": text}), "utf-8")
    commands = [["verify", "--all", "--format", f] for f in ("text", "json")] + [
        ["verify", "--case", "T1.n1"], ["schema"], ["definite", "--form", forms["phi0"]],
        ["definite", "--form", forms["phi0"], "--format", "json"]]
    for case in sorted((ENGINE / "catalog" / "cases").glob("*.json")):
        for args in (["invariants", "--degree", "2"], ["invariants", "--degree", "3"], ["closed"],
                     ["su3", "--omega", forms["omega0"], "--psi", forms["psi0"]]):
            commands += [args + ["--input", str(case), "--format", f] for f in ("text", "json")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in commands:
            cli.main(argv)


def main(argv: list) -> int:
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as work:
        sys.setprofile(profile)
        try:
            run_product_paths(Path(work))
        finally:
            sys.setprofile(None)
    missed = [(path.relative_to(ENGINE), first, name, lines)
              for path in engine_files()
              for first, name, lines in defined_functions(path)
              if (str(path), first) not in entered]
    if argv == ["--names"]:
        for path, _, name, _ in missed:
            print(f"{path.as_posix()}  {name}")
        return 0
    for path, first, name, lines in missed:
        print(f"{path}:{first}  {name}  ({lines} lines)")
    total = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in engine_files())
    print(f"{len(missed)} engine functions never entered, {sum(m[3] for m in missed)} lines "
          f"of {total} engine lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
