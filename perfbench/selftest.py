"""Negative control: corrupted references and oracles must make ops fail.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs a short pass of cheap ops (two catalog cases, one dense-basis case,
one G2 and one SU(3) pointwise op) three times in fresh interpreters, as
the benchmark does: once as generated, where ``fail_share`` must be 0;
once with one seed-reference entry corrupted; and once with one oracle
value corrupted.  Each corrupted pass must fail exactly the corrupted op.
Exits 0 when the checks catch both corruptions.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run

CATALOG_CASES = ("T2.n1", "T2.n3.generic")
DENSE_CASE = "T1.n2a"


def _ops(work) -> list:
    ops = [op for op in run.make_ops("catalog", 1, work) if op["case"] in CATALOG_CASES]
    ops += [op for op in run.make_ops("dense-basis", 1, work) if op["case"] == DENSE_CASE]
    pointwise = run.make_ops("pointwise", 1, work)
    ops.append(next(op for op in pointwise if op["kind"] == "g2" and op["base"] == "split"))
    ops.append(next(op for op in pointwise if op["kind"] == "su3"))
    return ops


def _fail_share(ops: list, work, label: str) -> set:
    inputs = work / f"{label}.json"
    inputs.write_text(json.dumps({"ops": ops}), encoding="utf-8")
    result = run.run_pass(inputs, trace=False)
    failed = {f["op"] for f in result["failures"]}
    print(f"{label:18s} fail_share {len(failed) / result['attempted']:.3f} "
          f"({len(failed)}/{result['attempted']} ops)")
    for failure in result["failures"]:
        print(f"  op {failure['op']} ({failure['case']}): {'; '.join(failure['problems'])}")
    return failed


def main() -> int:
    work = run.WORK_DIR / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        clean = _ops(work)
        bad_reference = copy.deepcopy(clean)
        bad_reference[0]["reference"][0][1] += " (corrupted)"
        bad_oracle = copy.deepcopy(clean)
        su3 = len(clean) - 1
        bad_oracle[su3]["expect"]["lambda"] = "-5"
        ok = _fail_share(clean, work, "clean") == set()
        ok = _fail_share(bad_reference, work, "corrupt reference") == {0} and ok
        ok = _fail_share(bad_oracle, work, "corrupt oracle") == {su3} and ok
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("negative control: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
