"""Write reference.json: the seed engine's (status, computed) per check.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

The file maps each canonical bundled case id to a list, one
``[status, computed]`` pair per expected check, in file order.  The
``catalog`` and ``dense-basis`` workloads compare every report against it,
so it is regenerated only on purpose, when a change to the printed verdicts
is intended.
"""

from __future__ import annotations

import json

from g2forms import catalog
from workloads import REFERENCE_FILE


def main() -> None:
    reference = {}
    for report in catalog.verify_all():
        if not report.ok:
            raise SystemExit(f"case {report.case_id} does not verify; not writing a reference")
        reference[report.case_id] = [[r.status, r.computed] for r in report.results]
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE.name}: {len(reference)} cases")


if __name__ == "__main__":
    main()
