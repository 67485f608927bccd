"""Byte-identity check of the ``qstar`` CLI between two source trees.

    python tests/cli_bytes.py record SRC OUT SEED...
    python tests/cli_bytes.py compare A B

``record`` runs every CLI job and CLI probe of each workload in
``perfbench/workloads.WORKLOADS``, for each seed, in-process against the
``qstar`` package under ``SRC`` (the directory that holds ``qstar/``).
Graph and boundary-condition files go to a temporary directory, which is
the working directory while the jobs run. OUT gets one JSON row per job:
``[workload, seed, argv, exit code, stdout, stderr]``, with ``SRC`` in any
output written as ``<SRC>``.

``compare`` prints the row count of two such files and the argv of the
first rows that differ, and exits 1 on any difference, 0 otherwise.

It reads ``perfbench/`` and writes nothing there. Pytest does not collect
it; ``test_fixture_scripts.py`` byte-compiles it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: Differing rows whose argv ``compare`` prints.
SHOWN = 10


def record(src: str, out: str, seeds: list[int]) -> int:
    src = os.path.abspath(src)
    sys.path[:0] = [src, str(PERFBENCH)]
    import qstar.cli
    import workloads

    if not qstar.__file__.startswith(src + os.sep):
        raise SystemExit(f"imported qstar from {qstar.__file__}, not from {src}")
    rows = []
    home = os.getcwd()
    for name in workloads.WORKLOADS:
        for seed in seeds:
            spec = workloads.generate(name, seed)
            jobs = [job for job in spec["jobs"] + spec["probes"] if job["kind"] == "cli"]
            with tempfile.TemporaryDirectory() as tmp:
                for fname, text in spec["files"].items():
                    Path(tmp, fname).write_text(text)
                os.chdir(tmp)
                try:
                    for job in jobs:
                        stdout, stderr = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(stdout), \
                                contextlib.redirect_stderr(stderr):
                            code = qstar.cli.main(list(job["argv"]))
                        rows.append([name, seed, job["argv"], code,
                                     *(s.getvalue().replace(src, "<SRC>")
                                       for s in (stdout, stderr))])
                finally:
                    os.chdir(home)
            print(f"{name} seed {seed}: {len(jobs)} jobs")
    Path(out).write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")
    return 0


def compare(a: str, b: str) -> int:
    rows_a, rows_b = (json.loads(Path(p).read_text()) for p in (a, b))
    print(f"rows: {len(rows_a)} and {len(rows_b)}")
    differ = [ra for ra, rb in zip(rows_a, rows_b) if ra != rb]
    for row in differ[:SHOWN]:
        print("differs:", row[0], row[1], " ".join(row[2]))
    print(f"{len(differ)} differing rows")
    return int(bool(differ) or len(rows_a) != len(rows_b))


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[0] == "record":
        return record(argv[1], argv[2], [int(s) for s in argv[3:]])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
