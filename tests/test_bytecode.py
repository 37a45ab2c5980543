"""Test runs leave no bytecode in the source tree, whatever the environment says."""

import os
import subprocess
import sys

from tests.conftest import ROOT


def test_conftest_turns_off_bytecode_writing(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path)  # where any bytecode would go instead
    code = "import sys, tests.conftest, lexivis.queries; print(sys.dont_write_bytecode)"
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "True"
    assert not [p for p in tmp_path.rglob("*.pyc") if "lexivis" in p.parts]
