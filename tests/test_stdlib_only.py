"""The package imports the standard library only (``dependencies = []``)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def check(*paths: Path) -> subprocess.CompletedProcess:
    """Run tests/stdlib_only.py in a fresh interpreter without site imports."""
    argv = [sys.executable, "-S", str(TESTS / "stdlib_only.py"), *map(str, paths)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


def test_cablecal_and_its_cli_import_only_the_standard_library():
    proc = check(SRC)
    assert proc.returncode == 0, proc.stderr
    assert f"cablecal from {SRC / 'cablecal' / '__init__.py'}" in proc.stdout


def test_a_third_party_import_fails_the_check(tmp_path):
    # A stand-in package whose CLI imports a module from outside the
    # standard library, found on the same path as an installed one would be.
    (tmp_path / "cablecal").mkdir()
    (tmp_path / "cablecal" / "__init__.py").write_text("")
    (tmp_path / "cablecal" / "cli.py").write_text("import thirdparty.linalg\n")
    (tmp_path / "thirdparty").mkdir()
    (tmp_path / "thirdparty" / "__init__.py").write_text("")
    (tmp_path / "thirdparty" / "linalg.py").write_text("")
    proc = check(tmp_path)
    assert proc.returncode == 1
    assert "outside the standard library: thirdparty, thirdparty.linalg" in proc.stderr
