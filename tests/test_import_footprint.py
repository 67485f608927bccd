"""``import qstar, qstar.cli`` loads no third-party module but numpy.

Every CLI run is a fresh interpreter, so an import is paid on each one:
``scipy.linalg`` alone adds about 160 ms (``python -X importtime``), while
a whole band sweep takes about 20 ms. numpy's own ``numpy.linalg`` gives
the solves and determinants qstar needs.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import qstar, qstar.cli
assert qstar.__file__.startswith({src!r}), qstar.__file__
loaded = {{name.split(".")[0] for name in set(sys.modules) - before}}
print(sorted(loaded - set(sys.stdlib_module_names) - {{"numpy", "qstar"}}))
"""


def test_import_loads_no_third_party_module_but_numpy():
    done = subprocess.run([sys.executable, "-c", PROBE.format(src=str(SRC))],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]", done.stdout
