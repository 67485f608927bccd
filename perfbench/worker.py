"""One timed pass of one workload, in a fresh process.

Run by ``run.py``; not meant to be called by hand. The pass is a closed
loop with one client: jobs run one after another, single-threaded, until
the summed wall-clock job time reaches ``--seconds`` and the current block
of the job mix is complete. Each job's output is checked against its
reference right after the job, outside the timed region. With
``--probes 1`` the workload's defect probes then run once each, untimed.
The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import references
import spans
from workloads import KNOWN_DEFECTS

#: Job time between two host-speed calibrations. Short, so that most jobs
#: of 30 ms or more are bracketed by their own two samples: host slowdowns
#: last from milliseconds to minutes, and a wider window lets the short ones
#: through into the latency tail.
CAL_EVERY_S = 0.03
#: Iterations of the calibration kernel (about 2 ms on the reference host).
CAL_LOOPS = 200
#: Calibration time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11,
#: numpy 2.4); reported times are scaled to this speed.
CAL_REF_S = 2.2e-3


class Runner:
    """Executes jobs against the qstar package, looking each function up at
    call time so that the tracer's wrappers are used when installed."""

    def __init__(self, qstar):
        self.q = qstar

    @staticmethod
    def prepare(job):
        """Decode job inputs ahead of timing."""
        if job["kind"] == "flux_lib":
            return np.array(job["knots"]), np.array(job["values"])
        if job["kind"] == "coupling":
            spec = job["spec"]
            if spec["family"] == "st":
                return np.array([[complex(*z) for z in row] for row in spec["T"]])
        return None

    def run(self, job, prepared):
        """(output, failure class, message); class is None on success."""
        try:
            return getattr(self, "_" + job["kind"])(job, prepared), None, None
        except _ExitCode as exc:
            return None, f"exit:{exc.code}", exc.message
        except Exception as exc:  # any program exception is a failed job
            return None, f"exception:{type(exc).__name__}", str(exc)

    def _cli(self, job, _):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.q.cli.main(list(job["argv"]))
        if code != 0:
            raise _ExitCode(code, err.getvalue().strip())
        return out.getvalue()

    def _flux_lib(self, job, prepared):
        q = self.q
        dist = q.MomentumDistribution.tabulated(*prepared)
        rep = q.flux_report(q.GateN4(a=job["a"], U=job["U"]), dist, job["kF"])
        return {"total": rep.total, "below": rep.below_threshold, "above": rep.above_threshold}

    def _coupling(self, job, T):
        q = self.q
        spec = job["spec"]
        n = spec["n"]
        if spec["family"] == "st":
            bc = q.make_st_form(n, spec["m"], T)
        else:
            bc = q.make_delta(n, spec["strength"])
        diag = q.validate(bc)
        bc2 = q.bc_from_json(q.bc_to_json(bc))
        ch = q.ChannelSet(n, tuple(spec["potentials"]), spec["energy"])
        sm = q.smatrix(bc2, ch)
        fs = q.final_state(bc2, ch, spec["j"])
        return {"A": bc.A, "B": bc.B, "A2": bc2.A, "B2": bc2.B, "S": sm.S,
                "amplitudes": fs.amplitudes,
                "validate": (diag.full_rank, diag.self_adjoint, diag.scale_invariant)}


class _ExitCode(Exception):
    def __init__(self, code, message):
        super().__init__(code)
        self.code, self.message = code, message


def known_defect(job, cls) -> str | None:
    """The job's known-defect tag that explains failure class ``cls``."""
    for tag in job.get("known", ()):
        if cls in KNOWN_DEFECTS[tag]["classes"]:
            return tag
    return None


def run_checked(runner, job, prepared):
    """(seconds, failure class, message) of one job; only the job itself
    is timed, the reference check is not."""
    t0 = time.perf_counter()
    out, cls, msg = runner.run(job, prepared)
    dt = time.perf_counter() - t0
    if cls is None:
        try:
            msg = references.check(job, out)
        except Exception as exc:  # malformed output
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg is not None:
            cls = "check"
    return dt, cls, msg


def run_probes(runner, probes):
    """Each probe once, in order; records in :func:`run_pass`'s layout."""
    return [(j, j, *run_checked(runner, job, runner.prepare(job)), 1.0)
            for j, job in enumerate(probes)]


def calibrate() -> float:
    """Seconds taken by a fixed mix of the operations qstar spends its time
    on: small complex numpy arithmetic, Python scalar work and text
    formatting. Never calls qstar."""
    a = np.arange(16, dtype=np.complex128).reshape(4, 4) + 1j
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CAL_LOOPS):
        b = a * (1.0 + 0.001 * i)
        c = b / (b[:, :1] + 1.0)
        acc += float(np.abs(c).max())
        row = {"k": i, "v": [acc, i * 0.5]}
        acc += len(f"{row['v'][0]:.17g},{row['v'][1]:.17g}")
    return time.perf_counter() - t0


def run_pass(runner, jobs, block, seconds, tracer=None, wall_limit=150.0):
    """Closed loop over ``jobs``; returns one record per attempted job:
    (index in pass, job index, seconds, failure class, message, speed).

    After every CAL_EVERY_S of job time the host speed is sampled with
    :func:`calibrate`; a job's ``speed`` is CAL_REF_S over the mean of the
    two samples taken just before and just after its calibration interval.
    The pass stops early, at any job boundary, after ``wall_limit``
    seconds."""
    prepared = [runner.prepare(job) for job in jobs]
    pending, cals, segment = [], [calibrate()], []
    busy = since_cal = 0.0
    wall_end = time.monotonic() + wall_limit
    i = 0
    while (busy < seconds or i % block) and time.monotonic() < wall_end:
        j = i % len(jobs)
        job = jobs[j]
        if tracer:
            tracer.job = i
        dt, cls, msg = run_checked(runner, job, prepared[j])
        if tracer:
            tracer.job = -1
        busy += dt
        pending.append((i, j, dt, cls, msg))
        segment.append(len(cals))
        since_cal += dt
        i += 1
        if since_cal >= CAL_EVERY_S:
            cals.append(calibrate())
            since_cal = 0.0
    cals.append(calibrate())
    # A job between samples k-1 and k takes the speed of those two.
    return [(*rec, 2.0 * CAL_REF_S / (cals[k - 1] + cals[k]))
            for rec, k in zip(pending, segment)]


def _p50_p90(ms):
    if not ms:
        return 0.0, 0.0
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


def summarize(records, jobs) -> dict:
    """Counts, failures and timings of a pass. Timings are in reference
    seconds (wall time times host speed); the raw wall-clock figures are
    kept under ``raw``."""
    ok_ms = [dt * speed * 1e3 for _, _, dt, cls, _, speed in records if cls is None]
    raw_ms = [dt * 1e3 for _, _, dt, cls, _, _ in records if cls is None]
    busy = sum(dt * speed for _, _, dt, _, _, speed in records)
    raw_busy = sum(dt for _, _, dt, _, _, _ in records)
    failures, known, unexpected, by_kind = {}, {}, [], {}
    for i, j, dt, cls, msg, speed in records:
        job = jobs[j]
        kind = by_kind.setdefault(job["check"], {"attempted": 0, "ok": 0, "ok_ms": []})
        kind["attempted"] += 1
        if cls is None:
            kind["ok"] += 1
            kind["ok_ms"].append(dt * speed * 1e3)
            continue
        failures[cls] = failures.get(cls, 0) + 1
        tag = known_defect(job, cls)
        if tag:
            known[tag] = known.get(tag, 0) + 1
        else:
            unexpected.append({"pass_index": i, "job": j, "check": job["check"],
                               "class": cls, "message": msg})
    for kind in by_kind.values():
        kind["ms_p50"] = statistics.median(kind.pop("ok_ms") or [0.0])
    p50, p90 = _p50_p90(ok_ms)
    raw_p50, raw_p90 = _p50_p90(raw_ms)
    return {
        "attempted": len(records),
        "ok": len(ok_ms),
        "failed": len(records) - len(ok_ms),
        "busy_s": busy,
        "ok_jobs_per_s": len(ok_ms) / busy if busy else 0.0,
        "job_ms_p50": p50,
        "job_ms_p90": p90,
        "raw": {"busy_s": raw_busy, "ok_jobs_per_s": len(ok_ms) / raw_busy if raw_busy else 0.0,
                "job_ms_p50": raw_p50, "job_ms_p90": raw_p90,
                "host_speed_median": statistics.median(r[5] for r in records) if records else 0.0},
        "failures": failures,
        "known_failures": known,
        "unexpected": unexpected[:5],
        "unexpected_count": len(unexpected),
        "by_kind": by_kind,
    }


def trace_count_problems(tracer, records, jobs) -> list[str]:
    """Traced call counts against counts known from the job itself."""
    counts = tracer.counts_by_job()
    compound = {}
    for gid, _, _, _, job, _, raised in tracer.spans:
        if spans.NAMES[gid] == "assembly.compound_smatrix":
            compound.setdefault(job, []).append(raised)
    problems = []
    for i, j, _, cls, _, _ in records:
        job, c = jobs[j], counts.get(i, {})
        check = job["check"]
        if check == "band_sweep" and cls is None:
            steps = int(job["argv"][-1].split(":")[2])
            for name in ("scattering.smatrix", "scattering.probabilities", "numerics.solve_linear"):
                if c.get(name, 0) != steps:
                    problems.append(f"job {i}: {c.get(name, 0)} {name} calls for {steps} points")
        elif check in ("chain_recipe", "chain_generic") and cls in (None, "check", "exit:3"):
            steps = int(job["argv"][-1].split(":")[2])
            raised = compound.get(i, [])
            first = next((n for n, r in enumerate(raised) if r), None)
            want = steps if first is None else first + 1
            if len(raised) != want or (cls == "exit:3") != (first is not None):
                problems.append(f"job {i}: {len(raised)} compound_smatrix calls, "
                                f"first failure at {first}, for {steps} points ({cls})")
        elif check == "coupling" and cls is None:
            # validate solves at two energies, then smatrix and final_state.
            if (c.get("scattering.smatrix", 0), c.get("scattering.final_state", 0)) != (4, 1):
                problems.append(f"job {i}: traced counts {c}")
    return problems[:5]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workdir", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probes", type=int, choices=(0, 1), default=0)
    p.add_argument("--wall-limit", type=float, default=150.0)
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    os.chdir(args.workdir)
    with open("jobs.json") as fh:
        spec = json.load(fh)
    jobs, block = spec["jobs"], spec["block"]

    import qstar
    import qstar.cli  # noqa: F401  (the CLI runs in-process)

    runner = Runner(qstar)
    backend = getattr(qstar.numerics, "backend", None)
    seen = set()
    for job in jobs:  # warm-up: one job of each kind, untimed
        if job["check"] not in seen:
            seen.add(job["check"])
            runner.run(job, runner.prepare(job))

    before = spans.binding_snapshot()
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        records = run_pass(runner, jobs, block, args.seconds, tracer, args.wall_limit)
    finally:
        if tracer:
            tracer.uninstall()

    result = summarize(records, jobs)
    result["backend"] = backend() if callable(backend) else None
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    selftest = []
    if tracer:
        selftest += [f"binding not restored: {b}" for b in tracer.restore_problems()]
        selftest += trace_count_problems(tracer, records, jobs)
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        tracer.write("spans.tsv")
    else:
        after = spans.binding_snapshot()
        changed = sorted(f"{m}.{a}" for m, a in before.keys() | after.keys()
                         if before.get((m, a)) != after.get((m, a)))
        selftest += [f"untraced pass changed binding {b}" for b in changed[:5]]
        selftest += [f"tracer wrapper in untraced pass: {b}" for b in spans.traced_bindings()]
    result["selftest"] = selftest
    unexpected = result["unexpected_count"]
    if args.probes:
        result["probes"] = summarize(run_probes(runner, spec["probes"]), spec["probes"])
        unexpected += result["probes"]["unexpected_count"]
    result["correct"] = not selftest and unexpected == 0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
