"""The suite's warning rules, run on a small file of tests under the repo's pytest settings."""

import re
import subprocess
import sys

from tests.conftest import ROOT

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x != x


def test_a_leaked_file():
    open(__file__)  # closed by the garbage collector, with a ResourceWarning


def test_a_passing_test():
    pass
'''


def test_a_failing_property_or_a_leaked_file_fails_its_test_and_the_run_goes_on(tmp_path):
    # A failing example makes hypothesis import libcst, whose import emits a
    # DeprecationWarning: as an error it would end the run with INTERNALERROR.
    (tmp_path / "test_pair.py").write_text(PAIR)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "-rA", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert result.returncode == 1, output
    results = re.findall(r"^(PASSED|FAILED) test_pair.py::(\w+)", result.stdout, re.MULTILINE)
    assert sorted(results) == [("FAILED", "test_a_failing_property"),
                               ("FAILED", "test_a_leaked_file"),
                               ("PASSED", "test_a_passing_test")], output
