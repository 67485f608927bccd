"""Tier-1 never imports mpmath: only the fixture scripts in ``golden/``
need it, and it is not a qstar dependency."""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PROBE = """
import importlib.util, pathlib, sys
sys.path[:0] = [{src!r}, {tests!r}]
for path in sys.argv[1:]:
    spec = importlib.util.spec_from_file_location(pathlib.Path(path).stem, path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(sorted(m for m in sys.modules if m.split(".")[0] == "mpmath"))
"""


def test_test_modules_do_not_import_mpmath():
    modules = sorted(str(p) for p in HERE.glob("test_*.py"))
    assert len(modules) > 5
    code = PROBE.format(src=str(SRC), tests=str(HERE))
    done = subprocess.run([sys.executable, "-c", code, *modules],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]", done.stdout
