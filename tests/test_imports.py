"""Import-time footprint of the command-line entry point."""

import subprocess
import sys


def test_cli_import_does_not_load_scipy():
    # scipy is a test and benchmark dependency only; the package must not need it
    probe = "import sys, efnlab.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
