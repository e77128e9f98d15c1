"""The benchmark's own tests import its modules and the checkout's kgraphs.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
