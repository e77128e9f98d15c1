"""The benchmark harness's own tests, run from the repository root.

`perfbench/` has its own conftest, which cannot share a pytest session with
the one here (pytest imports both as the top-level module `conftest`), so
its tests run in a separate interpreter.  They catch a renamed function or
check that the harness traces before a benchmark run does.
"""

import subprocess
import sys

from conftest import FIXTURES

ROOT = FIXTURES.parent


def test_benchmark_tests_pass():
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
