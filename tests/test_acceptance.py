"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with ``pytest -s`` to see
them).

Criterion 2 note: the peak transmission at the threshold momentum is
verified exactly, at k = sqrt(U) itself, through the closed form and
through the engine (tolerance 1e-12), and just below, at
k = sqrt(U) - 1e-8 (tolerance 1e-6). Just above, k = sqrt(U) + 1e-8 sits
on the square-root cusp, where the value is 1 - 2 b^2 sqrt(2e-8)/(1+a^2)
~ 0.9987 by construction; no implementation can bring it within 1e-6 of
1, so on that side the engine is instead held to the closed form at 1e-10.
"""

import csv
import io
import time
from pathlib import Path

import numpy as np

from qstar import (
    FilterN3,
    GateN4,
    MomentumDistribution,
    bandwidth,
    build_recipe,
    compound_smatrix,
    convergence_study,
    flux_curve,
    flux_report,
    locate_pole,
    n3_transmission,
    n4_transmission,
    smatrix,
)
from qstar.assembly import MAGNETIC, V5_DELTA, _open_block_distance
from qstar.cli import main as cli_main

from conftest import random_channels, random_st_coupling

GOLDEN_DIR = Path(__file__).parent / "golden"
FLAT_A = 1 / np.sqrt(2)


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{status}] {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def grid_in(lo, hi, num):
    """num points in (lo, hi]."""
    return np.linspace(lo, hi, num + 1)[1:]


def test_criterion_01_engine_matches_closed_forms():
    t0 = time.perf_counter()
    ks = grid_in(0.05, 5.0, 400)
    f = FilterN3(a=1.0, b=3.0, U=1.0)
    bc3 = f.boundary_condition()
    worst3 = max(
        abs(abs(smatrix(bc3, f.channels(float(k))).S[1, 0]) ** 2 - n3_transmission(f, float(k)))
        for k in ks
    )
    g = GateN4(a=1.0, U=1.0)
    bc4 = g.boundary_condition()
    worst4 = max(
        abs(abs(smatrix(bc4, g.channels(float(k))).S[1, 0]) ** 2 - n4_transmission(g, float(k)))
        for k in ks
    )
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst3 < 1e-10 and worst4 < 1e-10 and elapsed < 1.0,
        f"engine vs closed forms over 400 pts: n3 {worst3:.2e}, n4 {worst4:.2e} "
        f"(< 1e-10), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_perfect_threshold_transmission():
    f = FilterN3(a=1.0, b=3.0, U=1.0)
    exact = abs(n3_transmission(f, 1.0) - 1.0)
    engine_exact = abs(abs(smatrix(f.boundary_condition(), f.channels(1.0)).S[1, 0]) ** 2 - 1.0)
    below = abs(n3_transmission(f, 1.0 - 1e-8) - 1.0)
    sm_below = smatrix(f.boundary_condition(), f.channels(1.0 - 1e-8))
    engine_below = abs(abs(sm_below.S[1, 0]) ** 2 - 1.0)
    sm_above = smatrix(f.boundary_condition(), f.channels(1.0 + 1e-8))
    above_vs_closed = abs(
        abs(sm_above.S[1, 0]) ** 2 - n3_transmission(f, 1.0 + 1e-8)
    )
    cusp_gap = 1.0 - n3_transmission(f, 1.0 + 1e-8)
    report(
        2,
        exact < 1e-12 and engine_exact < 1e-12 and below < 1e-6 and engine_below < 1e-6
        and above_vs_closed < 1e-10,
        f"P(k=1)=1 exact to {exact:.1e}, engine {engine_exact:.1e} (<1e-12); "
        f"P(1-1e-8): closed {below:.1e}, "
        f"engine {engine_below:.1e} (<1e-6); +side on the cusp is 1-{cusp_gap:.2e} "
        f"by construction, engine matches closed form to {above_vs_closed:.1e}",
    )


def test_criterion_03_asymptotics():
    f = FilterN3(a=1.0, b=3.0, U=1.0)
    g = GateN4(a=1.0, U=1.0)
    d_high = abs(n3_transmission(f, 1e3) - 4 / 121)
    d_low = abs(n4_transmission(g, 1e-4) - 1 / 9)
    d_peak = abs(n4_transmission(g, 1.0) - 4 / 9)
    report(
        3,
        d_high < 1e-4 and d_low < 1e-4 and d_peak < 1e-6,
        f"n3 P(1e3)-4/121 = {d_high:.1e} (<1e-4); n4 P(1e-4)-1/9 = {d_low:.1e} "
        f"(<1e-4); n4 P(1)-4/9 = {d_peak:.1e} (<1e-6)",
    )


def test_criterion_04_flux_unitarity_property():
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        bc = random_st_coupling(rng, t_range=3.0)
        ch = random_channels(rng, bc.n, u_max=4.0)
        worst = max(worst, smatrix(bc, ch).unitarity_defect())
    elapsed = time.perf_counter() - t0
    report(
        4,
        worst < 1e-10 and elapsed < 5.0,
        f"1000 random couplings (n in 2..4, T in [-3,3], U in [0,4]): worst "
        f"open-channel defect {worst:.2e} (<1e-10), runtime {elapsed:.2f}s (<5s)",
    )


def test_criterion_05_flat_filter():
    g = GateN4(a=FLAT_A, U=1.0)
    ks = grid_in(0.0, 1.0, 200)
    p = n4_transmission(g, ks)
    spread = p.max() - p.min()
    at_half = abs(n4_transmission(g, 0.5) - 0.25)
    report(
        5,
        spread < 1e-12 and at_half < 1e-12,
        f"flat filter: max-min over 200 pts in (0,1] = {spread:.2e} (<1e-12); "
        f"|P(0.5)-1/4| = {at_half:.2e} (<1e-12)",
    )


def test_criterion_06_bandwidth():
    w3 = bandwidth(FilterN3(a=1.0, b=3.0, U=1.0)).width_energy
    w6 = bandwidth(FilterN3(a=1.0, b=6.0, U=1.0)).width_energy
    w3u4 = bandwidth(FilterN3(a=1.0, b=3.0, U=4.0)).width_energy
    r3 = abs(w3 / (4.7 / 81) - 1.0)
    r6 = abs(w6 / (4.7 / 1296) - 1.0)
    scaling = abs(w3u4 / w3 - 4.0)
    report(
        6,
        r3 < 0.10 and r6 < 0.05 and scaling < 0.04,
        f"W(b=3)={w3:.4e} off 4.7/81 by {r3:.1%} (<10%); W(b=6) off 4.7/1296 "
        f"by {r6:.2%} (<5%); W(U=4)/W(U=1)-4 = {scaling:.2e} (<1% of 4)",
    )


def test_criterion_07_second_sheet_poles():
    p3 = locate_pole(FilterN3(a=1.0, b=3.0, U=1.0))
    p4 = locate_pole(GateN4(a=1.0, U=1.0))
    rel3 = abs(p3.k_pole / (9 / np.sqrt(77)) - 1.0)
    rel4 = abs(p4.k_pole / (2 / np.sqrt(3)) - 1.0)
    report(
        7,
        rel3 < 1e-8 and rel4 < 1e-8 and p3.residual < 1e-8 and p4.residual < 1e-8,
        f"n3 pole {p3.k_pole:.9f} vs 9/sqrt(77), rel err {rel3:.1e}; n4 pole "
        f"{p4.k_pole:.9f} vs 2/sqrt(3), rel err {rel4:.1e}; residuals "
        f"{p3.residual:.1e}, {p4.residual:.1e} (all <1e-8)",
    )


def test_criterion_08_flux_control():
    rho = MomentumDistribution.constant(1.0)
    worst_below = 0.0
    for u in (0.5, 1.0, 2.0):
        rep = flux_report(GateN4(a=FLAT_A, U=u), rho, 4.0)
        worst_below = max(worst_below, abs(rep.below_threshold - u / 8))
    us = np.linspace(0.25, 2.0, 8)
    js = [flux_report(GateN4(a=FLAT_A, U=float(u)), rho, 4.0).total for u in us]
    monotone = all(b > a for a, b in zip(js, js[1:]))
    curve = flux_curve(GateN4(a=FLAT_A), rho, 4.0, (0.25, 0.5, 0.75, 1.0))
    deviation = curve.linearity_deviation()
    report(
        8,
        worst_below < 1e-10 and monotone and deviation < 0.25,
        f"below-threshold flux off rho*U/8 by {worst_below:.1e} (<1e-10) for "
        f"U in {{0.5,1,2}}; J monotone: {monotone}; linearity deviation over "
        f"U in [0.25,1] = {deviation:.2%} (<25%; tail above threshold "
        f"measured at {curve.fluxes[-1] - 0.125:.4f} for U=1)",
    )


def test_criterion_09_delta_chain_convergence():
    t0 = time.perf_counter()
    ks = (0.5, 1.5, 2.0, 5.0)
    ds = tuple(0.1 * 2.0**-m for m in range(7))
    runs = [("n3 a=1 b=3", FilterN3(a=1.0, b=3.0, U=1.0), (MAGNETIC,))]
    runs += [
        (f"n4 a={label}", GateN4(a=a, U=1.0), (MAGNETIC, V5_DELTA))
        for label, a in (("1", 1.0), ("1/sqrt2", FLAT_A))
    ]
    details = []
    ok = True
    for label, device, variants in runs:
        finals = {}
        for variant in variants:
            rep = convergence_study(device, ks, ds, variant=variant)
            finals[variant] = rep.errors[-1]
            ok &= rep.monotone and rep.errors[-1] < 0.02
            details.append(
                f"{label} {variant}: monotone={rep.monotone}, "
                f"eps(d=0.1/64)={rep.errors[-1]:.4f}"
            )
        if len(variants) == 2:
            d_min = ds[-1]
            g_mag = build_recipe(device, d_min, MAGNETIC)
            g_v5 = build_recipe(device, d_min, V5_DELTA)
            gap = max(
                _open_block_distance(
                    compound_smatrix(g_mag, k**2), compound_smatrix(g_v5, k**2)
                )
                for k in ks
            )
            bound = 2 * max(finals.values())
            ok &= gap < bound
            details.append(f"{label} variants gap {gap:.4f} < 2*eps={bound:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(9, ok, "; ".join(details) + f"; runtime {elapsed:.1f}s (<30s)")


GOLDEN_SWEEPS = {
    "sweep_n3_a1_b3_U1.csv": ["sweep", "--device", "n3", "--a", "1", "--b", "3",
                              "--U", "1", "--k", "0.05:5:200"],
    "sweep_n4_a1_U1.csv": ["sweep", "--device", "n4", "--a", "1", "--U", "1",
                           "--k", "0.05:5:200"],
    "sweep_n4_flat_U1.csv": ["sweep", "--device", "n4",
                             "--a", "0.7071067811865476", "--U", "1",
                             "--k", "0.05:5:200"],
    # Band mode through the engine; rows k = 0.5 and k = 1 sit on sqrt(V) and
    # sqrt(U), where the line decouples. Held to the 40-digit
    # golden/n4_reference.json by test_n4_golden.py.
    "sweep_n4_band_U1_V025.csv": ["sweep", "--device", "n4",
                                  "--a", "0.7071067811865476", "--U", "1",
                                  "--V", "0.25", "--k", "0.05:5:199"],
    # A v5-delta chain realising GateN4(0.83, 1, 0.25) at d = 1e-2: a wave-
    # matching system of order 19, with the same two threshold rows. Held to
    # golden/chain_reference.json by test_chain_golden.py.
    "graph_chain_v5delta_n4.csv": ["graph", str(GOLDEN_DIR / "chain_v5delta_n4.json"),
                                   "--k", "0.05:5:199"],
    # Reports: second-sheet poles from the coupling block, and band edges.
    "report_pole_n3_a1_b3_U1.json": ["report", "pole", "--device", "n3", "--a", "1",
                                     "--b", "3", "--U", "1"],
    "report_pole_n4_a1_U1.json": ["report", "pole", "--device", "n4", "--a", "1",
                                  "--U", "1"],
    "report_bandwidth_a1_b3_U1.json": ["report", "bandwidth", "--a", "1", "--b", "3",
                                       "--U", "1"],
}


def test_criterion_10_golden_sweep_regression(tmp_path):
    for name, args in GOLDEN_SWEEPS.items():
        fresh = tmp_path / name
        assert cli_main(args + ["-o", str(fresh)]) == 0
        golden = GOLDEN_DIR / name
        assert golden.exists(), f"golden copy {name} is missing"
        bitexact = golden.read_bytes() == fresh.read_bytes()
        assert bitexact, f"{name} deviates from its golden copy"

    def load(name):
        text = (GOLDEN_DIR / name).read_text()
        rows = list(csv.reader(io.StringIO(text)))
        cols = np.array(rows[1:], dtype=float)
        return rows[0], cols

    # qualitative shapes, independent of the golden bytes
    header2, filt = load("sweep_n3_a1_b3_U1.csv")
    k2, p2 = filt[:, 0], filt[:, header2.index("P21")]
    peak_at = k2[np.argmax(p2)]
    rising = np.all(np.diff(p2[k2 <= peak_at]) > 0)
    falling = np.all(np.diff(p2[k2 >= peak_at]) < 0)
    single_peak = rising and falling and abs(peak_at - 1.0) < 0.05

    header5, flat = load("sweep_n4_flat_U1.csv")
    k5, p5 = flat[:, 0], flat[:, header5.index("P21")]
    plateau = np.abs(p5[k5 < 1.0] - 0.25).max() < 1e-12

    report(
        10,
        single_peak and plateau,
        "golden CSVs bit-exact; "
        f"single-peak shape at k={peak_at:.3f}; flat plateau max dev "
        f"{np.abs(p5[k5 < 1.0] - 0.25).max():.1e}",
    )
