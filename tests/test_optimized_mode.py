"""The semigroup, decide, parametric and acceptance tests under
``python -O``.

``-O`` strips plain ``assert`` statements from the library, so an
invariant it kept with one would go unchecked; these tests show that the
library does not rely on them.  pytest still rewrites the asserts in the
test files, so the tests check as much as they do without ``-O``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = ("tests/test_semigroups.py", "tests/test_decide.py",
         "tests/test_parametric.py", "tests/test_acceptance.py")


def test_the_decider_tests_pass_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *FILES],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
