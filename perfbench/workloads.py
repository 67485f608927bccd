"""Seeded job lists for the four benchmark workloads.

Generation uses numpy and the standard library only, never qstar: the
program under test receives nothing but the argument lists, graph files and
boundary-condition files written here. The same (workload, seed) always
gives byte-identical output from :func:`spec_bytes`.

A job list is a cycle of *blocks*. Each block holds the workload's fixed
mix of job kinds, and a timed pass always ends on a block boundary, so the
mix inside a pass does not depend on where the clock ran out. Continuous
parameters are drawn by Latin-hypercube stratification over the whole
list, so two seeds see the same spread of parameters in different
arrangements; this keeps the work per pass steady from seed to seed.

Timed jobs stay out of the parameter ranges where qstar is known to fail at
the seed, so no timed job fails and every failure marks the run incorrect.
The known defects are measured by a fixed list of *probes* per workload
(:func:`probes`), run once after the timed pass of a per-layer run. Each
probe carries a ``known`` list naming entries of :data:`KNOWN_DEFECTS`; it
may fail in the listed ways without marking the run incorrect, and a later
fix reads as a lower probe fail ratio.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("band", "flux", "chain", "couplings")

FLAT_A = 1.0 / math.sqrt(2.0)

#: Failure classes qstar shows at the seed, by tag.
KNOWN_DEFECTS = {
    "flux-cusp": {
        "why": "flux quadrature raises NoConvergenceError at the sqrt(U) cusp "
        "for kF >= 4.5 (adaptive Simpson depth limit)",
        "classes": ["exit:3", "exception:NoConvergenceError"],
    },
    "flux-table-kinks": {
        "why": "flux_report with a tabulated density does not split the "
        "quadrature at the table knots, where np.interp has kinks, so a total "
        "can miss the reference by more than 1e-8 relative",
        "classes": ["check"],
    },
    "chain-small-d": {
        "why": "delta-chain wave matching loses accuracy for d < 1e-4 and "
        "raises SingularSystemError for d <= 1e-7",
        "classes": ["exit:3", "check"],
    },
}

#: kF from which flux reports may hit "flux-cusp". In a scan of 300 reports
#: with kF in [3.8, 5] the smallest failing kF was 4.53.
CUSP_KF = 4.5
#: Highest kF of a timed flux job, kept below CUSP_KF with a margin.
FLUX_KF_MAX = 4.4
#: Separation below which recipe chains hit "chain-small-d". In a scan of
#: 150 chains the error over d stayed below 1.1 for d >= 3e-5.
SMALL_D = 1e-4


def _strata(rng, count, lo, hi):
    """``count`` Latin-hypercube draws, uniform on [lo, hi]."""
    u = (rng.permutation(count) + rng.random(count)) / count
    return [float(x) for x in lo + (hi - lo) * u]


def _log_strata(rng, count, lo, hi):
    return [math.exp(x) for x in _strata(rng, count, math.log(lo), math.log(hi))]


def _r(x: float) -> str:
    """Exact text form of a float for an argument list."""
    return repr(float(x))


def _cplx(z) -> list:
    return [float(z.real), float(z.imag)]


# --------------------------------------------------------------------- band

BAND_BLOCKS = 12
BAND_SWEEPS_PER_BLOCK = 30
BAND_STEPS = 250


def _band(rng):
    n_sw = BAND_BLOCKS * BAND_SWEEPS_PER_BLOCK
    sw = {
        "a": _strata(rng, n_sw, 0.5, 1.2),
        "U": _strata(rng, n_sw, 0.5, 2.0),
        "v": _strata(rng, n_sw, 0.1, 0.8),
        "lo": _strata(rng, n_sw, 0.05, 0.2),
        "hi": _strata(rng, n_sw, 2.5, 4.0),
    }
    fx = {
        "a": _strata(rng, BAND_BLOCKS, 0.5, 1.2),
        "U": _strata(rng, BAND_BLOCKS, 0.5, 2.0),
        "v": _strata(rng, BAND_BLOCKS, 0.1, 0.8),
        "kF": _strata(rng, BAND_BLOCKS, 2.5, 4.0),
        "rho": _strata(rng, BAND_BLOCKS, 0.5, 2.0),
    }
    jobs = []
    for blk in range(BAND_BLOCKS):
        for i in range(BAND_SWEEPS_PER_BLOCK):
            s = blk * BAND_SWEEPS_PER_BLOCK + i
            a, U = sw["a"][s], sw["U"][s]
            V = U * sw["v"][s]
            jobs.append({
                "kind": "cli",
                "check": "band_sweep",
                "argv": ["sweep", "--device", "n4", "--a", _r(a), "--U", _r(U),
                         "--V", _r(V), "--k",
                         f"{_r(sw['lo'][s])}:{_r(sw['hi'][s])}:{BAND_STEPS}"],
                "ref": {"a": a, "U": U, "V": V},
            })
            if i == BAND_SWEEPS_PER_BLOCK // 2 - 1:
                a, U, kF, rho = fx["a"][blk], fx["U"][blk], fx["kF"][blk], fx["rho"][blk]
                V = U * fx["v"][blk]
                jobs.append({
                    "kind": "cli",
                    "check": "flux_band",
                    "argv": ["report", "flux", "--a", _r(a), "--U", _r(U),
                             "--V", _r(V), "--rho", _r(rho), "--kF", _r(kF)],
                    "ref": {"a": a, "U": U, "V": V, "rho": rho, "kF": kF},
                })
    return jobs, BAND_SWEEPS_PER_BLOCK + 1, {}


# --------------------------------------------------------------------- flux

FLUX_BLOCKS = 20
TABLE_KNOTS = 12
TABLE_KMAX = 5.5


def _flux_job(a, U, kF, rho):
    job = {
        "kind": "cli",
        "check": "flux_closed",
        "argv": ["report", "flux", "--a", _r(a), "--U", _r(U), "--rho", _r(rho),
                 "--kF", _r(kF)],
        "ref": {"a": a, "U": U, "rho": rho, "kF": kF},
    }
    return job


def _flux_table_job(a, U, kF, knots, values):
    return {"kind": "flux_lib", "check": "flux_table", "a": a, "U": U, "kF": kF,
            "knots": knots, "values": values}


def _flux(rng):
    n_cli = 6 * FLUX_BLOCKS
    cli = {
        "a": _strata(rng, n_cli // 2, 0.4, 1.2),
        "U": _strata(rng, n_cli, 0.25, 2.0),
        "kF": _strata(rng, n_cli, 2.5, FLUX_KF_MAX),
        "rho": _strata(rng, n_cli, 0.5, 2.0),
    }
    n_tab = 2 * FLUX_BLOCKS
    tab = {
        "a": _strata(rng, n_tab, 0.4, 1.2),
        "U": _strata(rng, n_tab, 0.25, 2.0),
        "kF": _strata(rng, n_tab, 2.5, FLUX_KF_MAX),
    }
    bw = {
        "a": _strata(rng, FLUX_BLOCKS, 0.7, 1.4),
        "b": _strata(rng, FLUX_BLOCKS, 2.0, 4.0),
        "U": _strata(rng, FLUX_BLOCKS, 0.25, 2.0),
    }
    pole = {
        "a3": _strata(rng, FLUX_BLOCKS, 0.5, 1.5),
        "g": _strata(rng, FLUX_BLOCKS, 1.2, 3.0),
        "a4": _strata(rng, FLUX_BLOCKS, 0.75, 1.3),
        "U": _strata(rng, FLUX_BLOCKS, 0.25, 2.0),
    }
    knots = [float(k) for k in np.linspace(0.0, TABLE_KMAX, TABLE_KNOTS)]
    jobs = []
    for blk in range(FLUX_BLOCKS):
        for i in range(6):
            c = blk * 6 + i
            a = FLAT_A if i % 2 == 0 else cli["a"][c // 2]
            jobs.append(_flux_job(a, cli["U"][c], cli["kF"][c], cli["rho"][c]))
            if i in (2, 4):
                t = blk * 2 + (i - 2) // 2
                # Linear in k, so np.interp has no kinks at the knots, where
                # qstar's quadrature does not split ("flux-table-kinks" is
                # shown by the probes).
                c0, s = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
                jobs.append(_flux_table_job(
                    tab["a"][t], tab["U"][t], tab["kF"][t], knots,
                    [float(c0 * (1.0 + s * (2.0 * k / TABLE_KMAX - 1.0))) for k in knots]))
        a, b, U = bw["a"][blk], bw["b"][blk], bw["U"][blk]
        jobs.append({
            "kind": "cli",
            "check": "bandwidth",
            "argv": ["report", "bandwidth", "--a", _r(a), "--b", _r(b), "--U", _r(U)],
            "ref": {"a": a, "b": b, "U": U},
        })
        U = pole["U"][blk]
        if blk % 2 == 0:
            a = pole["a3"][blk]
            b = math.sqrt((1 + a * a) * pole["g"][blk])
            argv = ["report", "pole", "--device", "n3", "--a", _r(a), "--b", _r(b),
                    "--U", _r(U)]
            ref = {"device": "n3", "a": a, "b": b, "U": U}
        else:
            a = pole["a4"][blk]
            argv = ["report", "pole", "--device", "n4", "--a", _r(a), "--U", _r(U)]
            ref = {"device": "n4", "a": a, "U": U}
        jobs.append({"kind": "cli", "check": "pole", "argv": argv, "ref": ref})
    return jobs, 10, {}


# -------------------------------------------------------------------- chain

CHAIN_BLOCKS = 20
#: Generic chains outnumber the recipe and converge jobs, so the latency
#: percentiles fall among generic sweeps.
GENERIC_PER_BLOCK = 6
CHAIN_STEPS = 200
CHAIN_VERTICES = 9
RECIPES = (("n3", "magnetic"), ("n4", "magnetic"), ("n4", "v5-delta"))


def recipe_graph(device: str, variant: str, a: float, b: float, U: float, d: float) -> dict:
    """Graph config of the delta chain that realizes a device vertex at
    separation ``d`` (the published strength recipes, 1/d scaling)."""
    def vert(name, strength):
        return {"id": name, "strength": strength}

    def edge(src, dst, length, phi=0.0):
        return {"from": src, "to": dst, "d": length, "phi": phi}

    if device == "n3":
        return {
            "vertices": [vert("v1", (a * (a - 1) + b * (b - 1)) / d),
                         vert("v2", (1 - a) / d), vert("v3", (1 - b) / d)],
            "lines": [{"vertex": "v1", "U": 0.0}, {"vertex": "v2", "U": 0.0},
                      {"vertex": "v3", "U": U}],
            "edges": [edge("v1", "v2", d / a), edge("v1", "v3", d / b)],
        }
    lines = [{"vertex": f"v{i}", "U": u} for i, u in ((1, 0.0), (2, 0.0), (3, U), (4, 0.0))]
    edges = [edge("v1", "v3", d / a), edge("v1", "v4", d / a), edge("v2", "v3", d / a)]
    if variant == "magnetic":
        strengths = [2 * a * (a - 1), 2 * a * (a - 1), 1 - 2 * a, 1 - 2 * a]
        edges.append(edge("v2", "v4", d / a, math.pi))
    else:
        strengths = [2 * a * (a - 1), 2 * a * (a - 2), 1 - 2 * a, 1 - 4 * a, -8 * a]
        edges += [edge("v2", "v5", d / (2 * a)), edge("v5", "v4", d / (2 * a))]
    verts = [vert(f"v{i + 1}", s / d) for i, s in enumerate(strengths)]
    return {"vertices": verts, "lines": lines, "edges": edges}


def _chain_job(name, k_range, device, a, b, U, d):
    return {"kind": "cli", "check": "chain_recipe", "argv": ["graph", name, "--k", k_range],
            "ref": {"device": device, "a": a, "b": b, "U": U, "d": d}}


def _generic_graph(rng) -> dict:
    """Path of delta vertices with two to four leads; lead 1 is open."""
    nv = CHAIN_VERTICES
    verts = [{"id": f"g{i}", "strength": float(rng.uniform(-2.0, 2.0))} for i in range(nv)]
    edges = [
        {"from": f"g{i}", "to": f"g{i + 1}", "d": float(rng.uniform(0.3, 1.5)),
         "phi": float(rng.uniform(0.0, math.pi))}
        for i in range(nv - 1)
    ]
    at = [0, nv - 1] + [int(v) for v in rng.choice(np.arange(1, nv - 1), int(rng.integers(0, 3)), replace=False)]
    lines = [{"vertex": f"g{v}", "U": 0.0 if i == 0 else float(rng.uniform(0.0, 1.5))}
             for i, v in enumerate(at)]
    return {"vertices": verts, "lines": lines, "edges": edges}


def _chain(rng):
    n_rec = 3 * CHAIN_BLOCKS
    n_gen = GENERIC_PER_BLOCK * CHAIN_BLOCKS
    rec = {
        "a3": _strata(rng, n_rec, 0.5, 2.0),
        "b": _strata(rng, n_rec, 0.5, 3.0),
        "a4": _strata(rng, n_rec, 0.4, 1.2),
        "U": _strata(rng, n_rec, 0.25, 2.0),
        "d": _log_strata(rng, n_rec, SMALL_D, 1e-1),
        "lo": _strata(rng, n_rec + n_gen, 0.1, 0.3),
        "hi": _strata(rng, n_rec + n_gen, 2.0, 3.0),
    }
    conv = {
        "a3": _strata(rng, CHAIN_BLOCKS, 0.5, 2.0),
        "b": _strata(rng, CHAIN_BLOCKS, 0.5, 3.0),
        "a4": _strata(rng, CHAIN_BLOCKS, 0.4, 1.2),
        "U": _strata(rng, CHAIN_BLOCKS, 0.3, 2.0),
        "d0": _log_strata(rng, CHAIN_BLOCKS, 0.02, 0.1),
    }

    def k_range(i):
        return f"{_r(rec['lo'][i])}:{_r(rec['hi'][i])}:{CHAIN_STEPS}"

    jobs, files = [], {}
    for blk in range(CHAIN_BLOCKS):
        for i, (device, variant) in enumerate(RECIPES):
            r = blk * 3 + i
            a = rec["a3"][r] if device == "n3" else rec["a4"][r]
            b = rec["b"][r] if device == "n3" else 0.0
            U, d = rec["U"][r], rec["d"][r]
            name = f"chain_{r:03d}.json"
            files[name] = json.dumps(recipe_graph(device, variant, a, b, U, d),
                                     indent=2, sort_keys=True)
            jobs.append(_chain_job(name, k_range(r), device, a, b, U, d))
        for i in range(GENERIC_PER_BLOCK):
            g = blk * GENERIC_PER_BLOCK + i
            name = f"generic_{g:03d}.json"
            files[name] = json.dumps(_generic_graph(rng), indent=2, sort_keys=True)
            jobs.append({"kind": "cli", "check": "chain_generic",
                         "argv": ["graph", name, "--k", k_range(n_rec + g)]})
        U, d0 = conv["U"][blk], conv["d0"][blk]
        if blk % 2 == 0:
            a, b = conv["a3"][blk], conv["b"][blk]
            argv = ["report", "converge", "--recipe", "n3", "--a", _r(a), "--b", _r(b),
                    "--U", _r(U), "--d0", _r(d0)]
        else:
            a = conv["a4"][blk]
            variant = RECIPES[1 + (blk // 2) % 2][1]
            argv = ["report", "converge", "--recipe", "n4", "--a", _r(a), "--U", _r(U),
                    "--variant", variant, "--d0", _r(d0)]
        jobs.append({"kind": "cli", "check": "converge", "argv": argv, "ref": {"d0": d0}})
    return jobs, 4 + GENERIC_PER_BLOCK, files


# ---------------------------------------------------------------- couplings

COUPLING_BLOCKS = 60
MAX_DEGREE = 16


def _coupling(rng, n, family):
    """Coupling spec, potentials (line 1 at zero) and an energy at least 2%
    away from every threshold."""
    spec = {"family": family, "n": n}
    if family == "st":
        m = int(rng.integers(1, n))
        T = rng.uniform(-1, 1, (m, n - m)) + 1j * rng.uniform(-1, 1, (m, n - m))
        spec.update(m=m, T=[[_cplx(z) for z in row] for row in T])
    else:
        spec["strength"] = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
    pots = [0.0] + [float(u) for u in rng.uniform(0.0, 2.0, n - 1)]
    while True:
        energy = float(rng.uniform(0.3, 3.0))
        if all(abs(energy - u) > 0.02 * energy for u in pots):
            break
    open_lines = [i for i, u in enumerate(pots) if u < energy]
    spec.update(potentials=pots, energy=energy, j=int(rng.choice(open_lines)))
    return spec


def _bc_json(spec) -> str:
    """Boundary-condition file in qstar's JSON schema ([re, im] entries)."""
    from references import coupling_matrices  # numpy-only; no qstar

    A, B = coupling_matrices(spec)
    data = {"n": spec["n"],
            "A": [[_cplx(z) for z in row] for row in A],
            "B": [[_cplx(z) for z in row] for row in B]}
    return json.dumps(data, indent=2, sort_keys=True)


def _couplings(rng):
    n_lib, n_cli = 8 * COUPLING_BLOCKS, 2 * COUPLING_BLOCKS
    degrees = [int(round(x)) for x in _strata(rng, n_lib + n_cli, 1.5, MAX_DEGREE + 0.499)]
    jobs, files = [], {}
    for idx, n in enumerate(degrees):
        family = "delta" if idx % 4 == 3 else "st"
        spec = _coupling(rng, n, family)
        if idx < n_lib:
            jobs.append({"kind": "coupling", "check": "coupling", "spec": spec})
            continue
        c = idx - n_lib
        name = f"bc_{c:03d}.json"
        files[name] = _bc_json(spec)
        k = math.sqrt(spec["energy"])
        spec["energy"] = k * k  # the CLI evaluates at energy k**2
        jobs.append({
            "kind": "cli",
            "check": "smatrix_cli",
            "argv": ["smatrix", "--bc", name, "--potentials",
                     ",".join(_r(u) for u in spec["potentials"]), "--k", _r(k)],
            "spec": spec,
        })
    # Interleave: eight library jobs, then two CLI jobs, per block.
    lib, cli = jobs[:n_lib], jobs[n_lib:]
    ordered = []
    for blk in range(COUPLING_BLOCKS):
        ordered += lib[8 * blk: 8 * blk + 8] + cli[2 * blk: 2 * blk + 2]
    return ordered, 10, files


_GENERATORS = {"band": _band, "flux": _flux, "chain": _chain, "couplings": _couplings}


# ------------------------------------------------------------ defect probes

#: Tabulated-density reports that missed at the seed, found by a seeded
#: flux run: (a, U, kF, values on the TABLE_KNOTS knots, failure).
TABLE_REPRODUCERS = (
    (0.5690213879954781, 0.9360890958633996, 4.539156782239616,
     [0.9461743233633965, 0.8832024087923406, 1.2424190191213993, 0.9940308116266316,
      0.9691803142548598, 1.2773713865286718, 1.300433216760835, 0.7956180122855412,
      0.5928853613102671, 0.7477801443696284, 1.247253720614438, 0.7627536896934234],
     "below-threshold part 1.03e-8 relative off the reference"),
    (1.0482370717246041, 0.4682400584636157, 4.840346546353111,
     [0.8738411729251112, 1.030752828729694, 1.1288289252527652, 0.9588660398532126,
      1.0890448147458702, 1.3641742725153572, 0.8588859468485687, 1.1434108045925346,
      1.314202836881129, 0.7197231820289738, 1.1832050888976524, 1.3691300526439458],
     "NoConvergenceError at the sqrt(U) cusp"),
)
#: Separations of the probe chains; at the seed d = 1e-5 passes for the
#: magnetic recipes, 1e-6 misses C*d and 1e-7 and below are singular.
PROBE_D = (1e-5, 1e-6, 1e-7, 1e-9)


def probes(workload: str) -> tuple[list, dict]:
    """Fixed jobs in the ranges of :data:`KNOWN_DEFECTS`, and their files.

    They do not depend on the seed, so the probe counts of two runs of the
    same code are equal; band and couplings have none."""
    jobs, files = [], {}
    if workload == "flux":
        for a in (FLAT_A, 0.9):
            for kF in (4.6, 4.8, 5.0):
                for U in (0.3, 0.6):
                    job = _flux_job(a, U, kF, 1.0)
                    job["known"] = ["flux-cusp"]
                    jobs.append(job)
        knots = [float(k) for k in np.linspace(0.0, TABLE_KMAX, TABLE_KNOTS)]
        for a, U, kF, values, _ in TABLE_REPRODUCERS:
            job = _flux_table_job(a, U, kF, knots, values)
            job["known"] = ["flux-table-kinks", "flux-cusp"]
            jobs.append(job)
    elif workload == "chain":
        for i, (device, variant) in enumerate(RECIPES):
            a, b = (1.2, 2.0) if device == "n3" else (0.8, 0.0)
            for d in PROBE_D:
                name = f"probe_{device}_{variant}_{d:.0e}.json"
                files[name] = json.dumps(recipe_graph(device, variant, a, b, 1.0, d),
                                         indent=2, sort_keys=True)
                job = _chain_job(name, f"0.1:3.0:{CHAIN_STEPS}", device, a, b, 1.0, d)
                job["known"] = ["chain-small-d"]
                jobs.append(job)
    return jobs, files


def generate(workload: str, seed: int) -> dict:
    """Job list, block length, defect probes and input files of one
    workload."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed)])
    jobs, block, files = _GENERATORS[workload](rng)
    probe_jobs, probe_files = probes(workload)
    return {"workload": workload, "seed": int(seed), "block": block,
            "jobs": jobs, "probes": probe_jobs, "files": {**files, **probe_files}}


def spec_bytes(spec: dict) -> bytes:
    """Canonical serialization; equal bytes mean equal inputs."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
