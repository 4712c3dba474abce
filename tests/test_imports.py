"""Import-time footprint of the package and its command-line entry point."""

import subprocess
import sys


def loaded(package, *modules):
    """Which of ``modules`` a fresh interpreter has loaded after importing ``package``."""
    probe = f"import sys, {package}; print([m for m in {list(modules)!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_does_not_load_scipy():
    # scipy is a test and benchmark dependency only; the package must not need it
    assert loaded("efnlab.cli", "scipy") == "[]"


def test_package_import_loads_no_file_format():
    # the cli is the one module that reads or writes a file format
    assert loaded("efnlab", "json", "csv") == "[]"
