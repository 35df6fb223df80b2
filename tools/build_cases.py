#!/usr/bin/env python3
"""Regenerate the bundled case files from their definitions.

The case documents live in ``tools/bundled_cases.py`` (data) and
``tools/models.py`` (matrix models, including the adapted so(3,2) basis
whose derived structure constants are frozen into T1.n3.json); neither is
part of the installed package.
Running this script rewrites ``src/g2forms/catalog/cases/``; the test suite
rebuilds the documents in memory and compares byte-for-byte, so stale files
fail loudly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from bundled_cases import build_all_case_dicts  # noqa: E402
from g2forms.catalog import validate_case_dict  # noqa: E402


def main() -> int:
    out_dir = REPO / "src" / "g2forms" / "catalog" / "cases"
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = build_all_case_dicts()
    for case_id, doc in sorted(cases.items()):
        validate_case_dict(doc)
        path = out_dir / f"{case_id}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(REPO)}")
    stale = {p.name for p in out_dir.glob("*.json")} - {
        f"{case_id}.json" for case_id in cases
    }
    for name in sorted(stale):
        print(f"stale file not in definitions: cases/{name}", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
