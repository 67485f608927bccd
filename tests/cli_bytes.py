"""Byte-identity check of the ``qstar`` CLI and library jobs between two
source trees.

    python tests/cli_bytes.py record SRC OUT SEED...
    python tests/cli_bytes.py compare A B

``record`` runs every job and probe of each workload in
``perfbench/workloads.WORKLOADS``, for each seed, in-process against the
``qstar`` package under ``SRC`` (the directory that holds ``qstar/``).
Graph and boundary-condition files go to a temporary directory, which is
the working directory while the jobs run. OUT gets one JSON row per job:
``[workload, seed, argv, exit code, stdout, stderr, part]``, with ``SRC``
in any output written as ``<SRC>`` and part ``"job"`` for a timed job or
``"probe"`` for a defect probe. A library job (``coupling`` or ``flux_lib``)
runs through perfbench's ``worker.Runner``. Its row has argv ``[kind,
check, #index in the job list]``, exit code 0 or the failure class, its
output as ``qstar.vertex.json_text`` (exact float reprs, a complex array
as [re, im] pairs) for stdout and the failure message for stderr.

``compare`` prints the row count of two such files, the argv of the first
rows that differ, the number of differing rows by workload, and the largest
relative change |a - b| / max(|a|, |b|) and the largest absolute change
|a - b| among the numeric fields of their stdout (CSV cells or JSON
numbers), each with the row where it occurs; near 0 the relative change
says little. It then prints, per workload, the largest absolute change
among timed jobs and among probes apart, so that one ill-conditioned probe
does not hide what the timed jobs did. A differing row whose exit code,
stderr or non-numeric stdout differs is counted as such. It exits 1 on any difference, 0 otherwise.

It reads ``perfbench/`` and writes nothing there, not even bytecode.
Pytest does not collect it; ``test_fixture_scripts.py`` byte-compiles it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: Differing rows whose argv ``compare`` prints.
SHOWN = 10


def record(src: str, out: str, seeds: list[int]) -> int:
    src = os.path.abspath(src)
    sys.path[:0] = [src, str(PERFBENCH)]
    import qstar.cli
    import workloads
    from qstar.vertex import json_text
    from worker import Runner

    if not qstar.__file__.startswith(src + os.sep):
        raise SystemExit(f"imported qstar from {qstar.__file__}, not from {src}")
    runner = Runner(qstar)

    def plain(output):
        """A library job's output with complex arrays as [re, im] pairs."""
        if isinstance(output, dict):
            return {key: plain(value) for key, value in output.items()}
        if isinstance(output, np.ndarray) and np.iscomplexobj(output):
            return np.stack((output.real, output.imag), axis=-1)
        return output

    rows = []
    home = os.getcwd()
    for name in workloads.WORKLOADS:
        for seed in seeds:
            spec = workloads.generate(name, seed)
            jobs, timed = spec["jobs"] + spec["probes"], len(spec["jobs"])
            with tempfile.TemporaryDirectory() as tmp:
                for fname, text in spec["files"].items():
                    Path(tmp, fname).write_text(text)
                os.chdir(tmp)
                try:
                    for i, job in enumerate(jobs):
                        part = "job" if i < timed else "probe"
                        if job["kind"] != "cli":
                            output, cls, msg = runner.run(job, runner.prepare(job))
                            rows.append([name, seed, [job["kind"], job["check"], f"#{i}"],
                                         cls or 0, "" if cls else json_text(plain(output)),
                                         msg or "", part])
                            continue
                        stdout, stderr = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(stdout), \
                                contextlib.redirect_stderr(stderr):
                            code = qstar.cli.main(list(job["argv"]))
                        rows.append([name, seed, job["argv"], code,
                                     *(s.getvalue().replace(src, "<SRC>")
                                       for s in (stdout, stderr)), part])
                finally:
                    os.chdir(home)
            print(f"{name} seed {seed}: {len(jobs)} jobs")
    Path(out).write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")
    return 0


def _fields(text: str) -> list:
    """The stdout of a job as a list of numbers and strings: the leaves and
    keys of a JSON document, or else the comma-separated cells of its
    lines, with cells that parse as floats taken as numbers."""
    try:
        return list(_leaves(json.loads(text)))
    except ValueError:
        return [_cell(c) for line in text.splitlines() for c in line.split(",")]


def _leaves(item):
    if isinstance(item, dict):
        for key, value in item.items():
            yield key
            yield from _leaves(value)
    elif isinstance(item, list):
        for value in item:
            yield from _leaves(value)
    elif isinstance(item, (int, float)) and not isinstance(item, bool):
        yield float(item)
    else:
        yield json.dumps(item)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _changes(row_a, row_b) -> tuple[float, float] | None:
    """Largest relative and largest absolute change between the numeric
    fields of two rows, or None when anything else differs (exit code,
    stderr, a string field or the number of fields)."""
    fields_a, fields_b = _fields(row_a[4]), _fields(row_b[4])
    if (row_a[3], row_a[5]) != (row_b[3], row_b[5]) or len(fields_a) != len(fields_b):
        return None
    relative = absolute = 0.0
    for x, y in zip(fields_a, fields_b):
        if isinstance(x, str) or isinstance(y, str):
            if x != y:
                return None
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            delta = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
            relative = max(relative, delta / max(abs(x), abs(y)) if delta < math.inf else delta)
            absolute = max(absolute, delta)
    return relative, absolute


def compare(a: str, b: str) -> int:
    rows_a, rows_b = (json.loads(Path(p).read_text()) for p in (a, b))
    print(f"rows: {len(rows_a)} and {len(rows_b)}")
    differ = [(ra, rb) for ra, rb in zip(rows_a, rows_b) if ra != rb]
    for row, _ in differ[:SHOWN]:
        print("differs:", row[0], row[1], " ".join(row[2]))
    print(f"{len(differ)} differing rows")
    by_workload = Counter(row[0] for row, _ in differ)
    for name, count in by_workload.items():
        print(f"  {name}: {count}")
    changes = [(_changes(ra, rb), ra) for ra, rb in differ]
    numeric = [(change, row) for change, row in changes if change is not None]
    for i, kind in enumerate(("relative", "absolute")):
        if numeric:
            change, row = max(numeric, key=lambda item: item[0][i])
            print(f"largest {kind} change in a numeric field: {change[i]:.3g} "
                  f"({row[0]} {row[1]} {' '.join(row[2])})")
    if len(numeric) < len(changes):
        print(f"{len(changes) - len(numeric)} differing rows differ in more than numeric fields")
    for name in by_workload:
        for part in ("job", "probe"):
            mine = [(change, row) for change, row in numeric if (row[0], row[6]) == (name, part)]
            if mine:
                change, row = max(mine, key=lambda item: item[0][1])
                print(f"  {name} {part}s: largest absolute change {change[1]:.3g} "
                      f"over {len(mine)} rows ({row[1]} {' '.join(row[2])})")
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
