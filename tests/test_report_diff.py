"""`scripts/report_diff.py`: this checkout's CLI reports against another's."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "report_diff.py")


def _diff(other):
    return subprocess.run([sys.executable, SCRIPT, other, "--size", "tiny"],
                          capture_output=True, text=True, timeout=300)


def test_this_checkout_against_itself_reports_no_difference():
    done = _diff(ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "22 reports agree apart from timestamp\n"


def test_a_changed_field_is_reported(tmp_path):
    # a checkout whose version string differs: every JSON report differs in one field
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "src" / "dmc" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "changed-'))
    done = _diff(str(tmp_path))
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("identities-seed1.version: '")
    assert "'changed-" in lines[0]
    assert lines[-1] == "18 differences in 22 reports"
