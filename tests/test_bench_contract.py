"""The benchmark's contract with the library, checked in tier-1.

perfbench (``perfbench/``) calls the library through fixed entry points and
checks traced per-job call counts in ``worker.trace_count_problems``. This
test runs the first job of each check kind of every workload the way a
traced pass runs it, so a broken signature or a changed call count fails
here before a benchmark run refuses it. It reads perfbench and changes
none of it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_job_of_each_check_passes_traced(workload, tmp_path, monkeypatch):
    import qstar
    import qstar.cli  # noqa: F401  (the CLI jobs run in-process)

    spec = workloads.generate(workload, 1)
    for name, text in spec["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    jobs = spec["jobs"]
    first = {}
    for j, job in enumerate(jobs):
        first.setdefault(job["check"], j)

    runner = worker.Runner(qstar)
    tracer = spans.Tracer()
    records = []
    tracer.install()
    try:
        for i, j in enumerate(first.values()):
            tracer.job = i
            dt, cls, msg = worker.run_checked(runner, jobs[j], runner.prepare(jobs[j]))
            records.append((i, j, dt, cls, msg, 1.0))
    finally:
        tracer.job = -1
        tracer.uninstall()

    assert not tracer.restore_problems()
    assert [(jobs[j]["check"], cls, msg) for _, j, _, cls, msg, _ in records if cls or msg] == []
    assert worker.trace_count_problems(tracer, records, jobs) == []
