"""qstar benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload band --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all              # every workload, untraced

Each workload runs in a fresh child process as a closed loop (one client,
one job after another, BLAS/OpenMP pools pinned to one thread) against the
public API and the in-process ``qstar`` CLI, with inputs generated from
``--seed`` before timing. With ``--trace 0`` the last stdout line carries
the end-to-end metrics. With ``--trace 1`` half of ``--seconds`` runs
untraced and half traced, in separate processes, and the last line carries
the per-layer metrics, including the tracing overhead. Every output is
checked against an independent reference (``references.py``); a job fails
on an exception, a nonzero CLI exit, or a missed check.

Timed jobs avoid the parameter ranges of the defects qstar is known to have
(``workloads.KNOWN_DEFECTS``), so any failed timed job marks the run
incorrect. The defects are measured instead by a fixed list of probes per
workload, run once, untimed, after the untraced pass of a ``--trace 1`` run;
their failure counts are per-layer metrics (``probe.*``).

Host speed: the 2-vCPU virtual machine this benchmark was built on changes
speed by up to a factor of two over seconds to minutes, because other
tenants share its cores. The worker therefore samples a fixed calibration
kernel (small numpy arithmetic, Python scalar work and formatting; never
qstar) after every 0.03 s of job time and scales each job's wall time by
the reference calibration time over the mean of the two samples around it.
``ok_jobs_per_s``, ``job_ms_p50`` and ``job_ms_p90`` are in these
reference-speed seconds; the raw wall-clock figures are printed next to
them and kept in the record. ``setup_s`` and ``peak_rss_mb`` are raw:
scaling set-up time by the calibration kernel's speed, per sample or by
the pass's median, made it vary more from run to run, not less.

Inputs, spans and a provenance record go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import references
import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
#: Fresh interpreters timed for setup_s before and after the workload
#: passes, so that the median spans the run; the median is reported.
SETUP_REPEATS = (5, 4)
SETUP_CODE = "import qstar, qstar.cli; qstar.cli.build_parser()"
#: A set-up interpreter still running after this many seconds is killed.
SETUP_TIMEOUT_S = 60.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: The workload passes must end within this many seconds of the start.
TIME_LIMIT_S = 165.0
#: Part of a worker's time limit kept for start-up, warm-up and output.
CHILD_RESERVE_S = 15.0

END_TO_END = {
    "setup_s": "s",
    "ok_jobs_per_s": "jobs/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
FAILURE_METRICS = {
    "fail_ratio": "ratio",
    "probe.fail_ratio": "ratio",
    "probe.fail.exception": "count",
    "probe.fail.exit_3": "count",
    "probe.fail.check": "count",
}


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(root: Path, env: dict, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing qstar and building the
    CLI parser."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env)
        # A blocking wait returns when the child exits; wait(timeout=...)
        # polls at up to 50 ms intervals, which would round the time up.
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def run_child(workdir: Path, src: Path, env: dict, seconds: float, trace: int,
              timeout: float, probes: int = 0) -> dict:
    """One pass in a fresh worker process; the pass itself stops early
    enough to leave the worker time for checks, probes and output."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir),
           "--src", str(src), "--seconds", repr(seconds), "--trace", str(trace),
           "--probes", str(probes),
           "--wall-limit", repr(max(timeout - CHILD_RESERVE_S, 1.0))]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def write_inputs(spec: dict, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in spec["files"].items():
        (workdir / name).write_text(text)
    (workdir / "jobs.json").write_bytes(workloads.spec_bytes(spec))


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "qstar").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_name() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # layout differs across numpy versions
        return None


def machine_record(root: Path, src: Path, backend) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": THREAD_ENV,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "compiled_kernel": None if backend is None else backend == "compiled",
        "backend": backend,
    }


def failure_metrics(res: dict) -> dict:
    """Timed fail ratio, and the probes' failures by class."""
    probes = res["probes"]
    f = probes["failures"]
    return {
        "fail_ratio": res["failed"] / res["attempted"],
        "probe.fail_ratio": probes["failed"] / probes["attempted"] if probes["attempted"] else 0.0,
        "probe.fail.exception": sum(v for k, v in f.items() if k.startswith("exception:")),
        "probe.fail.exit_3": f.get("exit:3", 0),
        "probe.fail.check": f.get("check", 0),
    }


def run_workload(name: str, args, root: Path, src: Path, env: dict,
                 deadline: float) -> dict:
    spec = workloads.generate(name, args.seed)
    workdir = root / OUT_DIR / name
    write_inputs(spec, workdir)
    traced = None
    if args.trace:
        half = args.seconds / 2.0
        untraced = run_child(workdir, src, env, half, 0, (deadline - time.monotonic()) / 2,
                             probes=1)
        traced = run_child(workdir, src, env, half, 1, deadline - time.monotonic())
    else:
        untraced = run_child(workdir, src, env, float(args.seconds), 0,
                             deadline - time.monotonic())

    e2e = {
        "ok_jobs_per_s": untraced["ok_jobs_per_s"],
        "job_ms_p50": untraced["job_ms_p50"],
        "job_ms_p90": untraced["job_ms_p90"],
        "peak_rss_mb": untraced["peak_rss_mb"],
    }
    layers = None
    if traced:
        layers = dict(traced["layers"])
        base = untraced["ok_jobs_per_s"]
        layers["trace.overhead_ratio"] = 1.0 - traced["ok_jobs_per_s"] / base if base else 0.0
        layers.update(failure_metrics(untraced))
    correct = untraced["correct"] and (traced is None or traced["correct"])
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(root, src, untraced["backend"]),
        "closed_loop": {"clients": 1, "threads": 1, "block": spec["block"],
                        "jobs_in_list": len(spec["jobs"])},
        "end_to_end": e2e,
        "per_layer": layers,
        "known_defects": workloads.KNOWN_DEFECTS,
        "constants": {"CHAIN_C": references.CHAIN_C, "CONVERGE_C": references.CONVERGE_C},
        "untraced": untraced,
        "traced": {k: v for k, v in traced.items() if k != "layers"} if traced else None,
        "correct": correct,
    }
    return record


def report(rec: dict) -> None:
    u = rec["untraced"]
    e = rec["end_to_end"]
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  "
          f"trace={rec['trace']}  correct={rec['correct']}")
    print(f"  {'setup_s':<16}{e['setup_s']:>12.4f} s       "
          f"(median of n={len(rec['setup_samples_s'])} interpreters)")
    print(f"  {'ok_jobs_per_s':<16}{e['ok_jobs_per_s']:>12.4f} jobs/s  "
          f"(ok={u['ok']} over {u['busy_s']:.2f} reference s of job time)")
    print(f"  {'job_ms_p50':<16}{e['job_ms_p50']:>12.4f} ms      (n={u['ok']})")
    print(f"  {'job_ms_p90':<16}{e['job_ms_p90']:>12.4f} ms      (n={u['ok']})")
    raw = u["raw"]
    print(f"  raw wall clock: ok_jobs_per_s {raw['ok_jobs_per_s']:.4f}, "
          f"job_ms_p50 {raw['job_ms_p50']:.4f}, job_ms_p90 {raw['job_ms_p90']:.4f}, "
          f"median host speed {raw['host_speed_median']:.3f}")
    if u["ok"] < 100:
        print(f"  note: {u['ok']} successful jobs; p90 needs 100 for ten samples beyond it")
    print(f"  {'peak_rss_mb':<16}{e['peak_rss_mb']:>12.4f} MB")
    print(f"  {'fail_ratio':<16}{u['failed'] / u['attempted']:>12.4f} ratio   "
          f"(failed={u['failed']} of attempted={u['attempted']})")
    if u["failures"]:
        print(f"  failures by class: {u['failures']}")
    probes = u.get("probes")
    if probes and probes["attempted"]:
        print(f"  defect probes: failed={probes['failed']} of {probes['attempted']}  "
              f"by class: {probes['failures']}  known: {probes['known_failures']}")
        for bad in probes["unexpected"]:
            print(f"  UNEXPECTED probe failure: {bad}")
    for bad in u["unexpected"] + (rec["traced"] or {}).get("unexpected", []):
        print(f"  UNEXPECTED failure: {bad}")
    for problem in u["selftest"] + (rec["traced"] or {}).get("selftest", []):
        print(f"  SELF-TEST: {problem}")
    if rec["per_layer"]:
        for name, value in rec["per_layer"].items():
            unit = {**spans.METRICS, **FAILURE_METRICS}.get(name, "ratio")
            print(f"  {name:<44}{value:>16.6g} {unit}")
    m = rec["machine"]
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']} backend={m['backend']} "
          f"commit={m['git_commit']}")


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "qstar" / "__init__.py").is_file():
        print("perfbench: ./src/qstar not found; run from the root of a qstar checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    env = child_env(src)
    measure_setup(root, env, 1)  # untimed: writes the bytecode caches
    setup = measure_setup(root, env, SETUP_REPEATS[0])
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    per_workload_limit = (TIME_LIMIT_S - (time.monotonic() - start)) / len(names)
    records = []
    for name in names:
        deadline = time.monotonic() + per_workload_limit
        records.append(run_workload(name, args, root, src, env, deadline))
    setup += measure_setup(root, env, SETUP_REPEATS[1])
    for rec in records:
        rec["end_to_end"] = {"setup_s": statistics.median(setup), **rec["end_to_end"]}
        rec["setup_samples_s"] = setup
        (root / OUT_DIR / f"record-{rec['workload']}.json").write_text(json.dumps(rec, indent=2))
        report(rec)

    units = {**spans.METRICS, "trace.overhead_ratio": "ratio", **FAILURE_METRICS} \
        if args.trace else END_TO_END
    key = "per_layer" if args.trace else "end_to_end"
    if len(records) == 1:
        metrics = metric_block(records[0][key], units)
    else:
        metrics = {f"{r['workload']}.{n}": v for r in records
                   for n, v in metric_block(r[key], units).items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["untraced"]["attempted"] for r in records),
        "failed": sum(r["untraced"]["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
