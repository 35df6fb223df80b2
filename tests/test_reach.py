"""The engine functions that no product path enters are exactly the committed
list: new engine code must be entered by a product path or be added to it.

Regenerate the list, from the repository root, with::

    python3 tools/reach.py --names > tests/data/reach.txt
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_unreached_engine_functions_match_the_golden_list():
    run = subprocess.run([sys.executable, str(REPO / "tools" / "reach.py"), "--names"],
                         capture_output=True, text=True, check=True, cwd=REPO)
    golden = (REPO / "tests" / "data" / "reach.txt").read_text(encoding="utf-8")
    assert run.stdout.splitlines() == golden.splitlines()
