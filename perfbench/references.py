"""Independent correctness references for benchmark jobs.

Everything here uses numpy and the standard library only, never qstar, so a
defect in the program cannot hide in its own reference. Each ``check_*``
function takes a job and the job's output and returns ``None`` when the
output passes, or a one-line reason when it misses.

The S-matrix reference solves (A K^-1 + i B K) S = -(A K^-1 - i B K) with
``numpy.linalg.solve``, batched over energies, with K = diag(sqrt(k_i)) and
k_i = sqrt(E - U_i) on the principal branch. Flux references integrate by
a fixed composite Gauss-Legendre rule with a square-root substitution at
every panel end, which absorbs the sqrt(k - sqrt(U)) cusp of the
transmission at each threshold.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

#: Probabilities and S entries must match the reference to this, relative
#: to max(1, largest reference entry).
S_TOL = 1e-9
#: Open-block unitarity defect allowed in program output.
UNITARITY_TOL = 1e-10
#: Relative agreement of a flux total with the Gauss-Legendre reference.
FLUX_RTOL = 1e-8
#: Band-edge transmission must equal 1/2 to this.
EDGE_TOL = 1e-9
#: Relative agreement of a pole with its closed form.
POLE_RTOL = 1e-9
#: A recipe chain's open-line probabilities lie within CHAIN_C * d of the
#: device's. Fixed from the d >= 1e-4 rows of seeded runs, where the
#: largest ratio seen was about 1.1; the rows with d < 1e-4 lose accuracy
#: (known defect "chain-small-d").
CHAIN_C = 2.5
#: Same bound for the open-block S-matrix distance of a convergence study
#: on qstar's default momentum grid (up to k = 5, so k*d reaches 0.5).
#: Fixed from 192 seeded studies (d0 in [0.02, 0.1], six halvings), where
#: the largest ratio seen was about 14.
CONVERGE_C = 30.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_PANELS = 4


# ------------------------------------------------------------ S matrices

def st_matrices(n: int, m: int, T) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of the scale-invariant coupling with m x (n-m) block T."""
    T = np.asarray(T, dtype=np.complex128).reshape(m, n - m)
    A = np.zeros((n, n), dtype=np.complex128)
    B = np.zeros((n, n), dtype=np.complex128)
    B[:m, :m] = np.eye(m)
    B[:m, m:] = T
    A[m:, :m] = -T.conj().T
    A[m:, m:] = np.eye(n - m)
    return A, B


def delta_matrices(n: int, strength: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of the delta coupling: continuity, and the sum of outward
    derivatives equal to ``strength`` times the common value."""
    A = np.zeros((n, n), dtype=np.complex128)
    B = np.zeros((n, n), dtype=np.complex128)
    for i in range(n - 1):
        A[i, i], A[i, i + 1] = 1.0, -1.0
    A[n - 1, 0] = -strength
    B[n - 1, :] = 1.0
    return A, B


def coupling_matrices(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of a generated coupling spec."""
    if spec["family"] == "st":
        T = np.array([[complex(*z) for z in row] for row in spec["T"]])
        return st_matrices(spec["n"], spec["m"], T)
    return delta_matrices(spec["n"], spec["strength"])


def device_matrices(device: str, a: float, b: float = 0.0):
    """(A, B) of the three-line filter or the four-line gate vertex."""
    if device == "n3":
        return st_matrices(3, 1, [[a, b]])
    return st_matrices(4, 2, [[a, a], [a, -a]])


def smatrix_ref(A, B, potentials, energies) -> np.ndarray:
    """S matrices stacked over ``energies`` (shape (len(energies), n, n))."""
    e = np.asarray(energies, dtype=np.float64).reshape(-1, 1)
    k = np.sqrt((e - np.asarray(potentials, dtype=np.float64)).astype(np.complex128))
    sk = np.sqrt(k)[:, None, :]
    lhs = A[None] / sk + 1j * B[None] * sk
    rhs = -(A[None] / sk - 1j * B[None] * sk)
    return np.linalg.solve(lhs, rhs)


def open_mask(potentials, energies) -> np.ndarray:
    """(len(energies), n) mask of open channels."""
    return np.asarray(energies, dtype=np.float64)[:, None] > np.asarray(potentials)[None, :]


def column_probabilities(S, mask, j: int = 0) -> np.ndarray:
    """|S_ij|^2 for incoming line j, zero on closed lines; shape (E, n)."""
    return np.where(mask, np.abs(S[:, :, j]) ** 2, 0.0)


def unitarity_defect(S: np.ndarray, mask: np.ndarray) -> float:
    """max_j |sum_(i open) |S_ij|^2 - 1| over open j."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return 0.0
    block = S[np.ix_(idx, idx)]
    return float(np.abs(np.sum(np.abs(block) ** 2, axis=0) - 1.0).max())


def _s_distance(S, S_ref) -> float:
    """Max-abs distance relative to max(1, largest reference entry)."""
    return float(np.abs(S - S_ref).max() / max(1.0, float(np.abs(S_ref).max())))


# ------------------------------------------------------------ quadrature

def gl_integrate(f, lo: float, hi: float, cuts=()) -> float:
    """Integral of the vectorized ``f`` over [lo, hi], split at ``cuts``.

    Each piece is halved, and each half is mapped by k = end +- t^2 from
    its outer end, so integrands with square-root behaviour at a cut
    become smooth in t.
    """
    edges = [lo, *sorted(c for c in cuts if lo < c < hi), hi]
    total = 0.0
    for p, q in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (p + q)
        for end, sign, length in ((p, 1.0, mid - p), (q, -1.0, q - mid)):
            tmax = math.sqrt(length)
            bounds = np.linspace(0.0, tmax, _GL_PANELS + 1)
            half = 0.5 * np.diff(bounds)[:, None]
            t = (0.5 * (bounds[:-1] + bounds[1:]))[:, None] + half * _GL_NODES[None, :]
            w = half * _GL_WEIGHTS[None, :]
            k = end + sign * t**2
            total += float(np.sum(w * 2.0 * t * f(k.ravel()).reshape(t.shape)))
    return total


def _branch(U, k):
    return np.sqrt((1.0 - U / k**2).astype(np.complex128))


def n3_p21(a: float, b: float, U: float, k) -> np.ndarray:
    """Closed-form filter transmission |2a / (1 + a^2 + b^2 w)|^2."""
    k = np.asarray(k, dtype=np.float64)
    return np.abs(2 * a / (1 + a * a + b * b * _branch(U, k))) ** 2


def n4_p21(a: float, U: float, k) -> np.ndarray:
    """Closed-form gate transmission (V = 0):
    |2a^2 (1 - w) / ((1 + 2a^2)(1 + 2a^2 w))|^2."""
    k = np.asarray(k, dtype=np.float64)
    w = _branch(U, k)
    a2 = a * a
    return np.abs(2 * a2 * (1 - w) / ((1 + 2 * a2) * (1 + 2 * a2 * w))) ** 2


def band_p21(a: float, U: float, V: float, k) -> np.ndarray:
    """Gate transmission with drain potential V, from the S-matrix reference."""
    k = np.asarray(k, dtype=np.float64)
    A, B = device_matrices("n4", a)
    S = smatrix_ref(A, B, (0.0, 0.0, U, V), k**2)
    return np.abs(S[:, 1, 0]) ** 2


def _flux_parts(p21, density, U: float, kF: float, cuts=()) -> tuple[float, float]:
    def integrand(k):
        return density(k) * k * p21(k)

    k_th = math.sqrt(U)
    below = gl_integrate(integrand, 0.0, k_th, cuts)
    above = gl_integrate(integrand, k_th, kF, cuts)
    return below, above


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * max(abs(ref), 1e-300)


def _flux_mismatch(got: tuple, ref: tuple) -> str | None:
    for label, x, r in zip(("below", "above", "total"), got, (*ref, ref[0] + ref[1])):
        if not _close(x, r, FLUX_RTOL):
            return f"flux {label} {x!r} vs reference {r!r}"
    return None


# ------------------------------------------------------------ output parsing

def _csv_columns(text: str) -> tuple[list, np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def _matrix(entries) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


# ------------------------------------------------------------ checks

def check_band_sweep(job, out):
    ref = job["ref"]
    header, data = _csv_columns(out)
    if header != ["k", "P21", "R11", "P31", "P41"] or data.shape[0] != int(job["argv"][-1].split(":")[2]):
        return f"unexpected sweep table {header} x {data.shape[0]}"
    ks = data[:, 0]
    pots = (0.0, 0.0, ref["U"], ref["V"])
    A, B = device_matrices("n4", ref["a"])
    p = column_probabilities(smatrix_ref(A, B, pots, ks**2), open_mask(pots, ks**2))
    want = p[:, [1, 0, 2, 3]]
    err = float(np.abs(data[:, 1:] - want).max())
    if err > S_TOL:
        return f"sweep probabilities off by {err:.3e}"
    defect = float(np.abs(data[:, 1:].sum(axis=1) - 1.0).max())
    if defect > UNITARITY_TOL:
        return f"sweep unitarity defect {defect:.3e}"
    return None


def check_flux_band(job, out):
    ref = job["ref"]
    rep = json.loads(out)
    a, U, V, rho, kF = ref["a"], ref["U"], ref["V"], ref["rho"], ref["kF"]
    want = _flux_parts(lambda k: band_p21(a, U, V, k), lambda k: rho, U, kF,
                       cuts=(math.sqrt(V),))
    return _flux_mismatch(
        (rep["below_threshold_part"], rep["above_threshold_part"], rep["J"]), want)


def check_flux_closed(job, out):
    ref = job["ref"]
    rep = json.loads(out)
    a, U, rho, kF = ref["a"], ref["U"], ref["rho"], ref["kF"]
    got = (rep["below_threshold_part"], rep["above_threshold_part"], rep["J"])
    if abs(4 * a**4 - 1.0) < 1e-12 and not _close(got[0], rho * U / 8.0, 1e-9):
        return f"flat-gate flux below threshold {got[0]!r} != rho U / 8"
    want = _flux_parts(lambda k: n4_p21(a, U, k), lambda k: rho, U, kF)
    return _flux_mismatch(got, want)


def check_flux_table(job, out):
    knots, values = np.array(job["knots"]), np.array(job["values"])
    want = _flux_parts(lambda k: n4_p21(job["a"], job["U"], k),
                       lambda k: np.interp(k, knots, values), job["U"], job["kF"],
                       cuts=knots)
    return _flux_mismatch((out["below"], out["above"], out["total"]), want)


def check_bandwidth(job, out):
    ref = job["ref"]
    rep = json.loads(out)
    k_lo, k_hi = rep["k_lo"], rep["k_hi"]
    if not k_lo < math.sqrt(ref["U"]) < k_hi:
        return f"band edges {k_lo!r}, {k_hi!r} do not straddle sqrt(U)"
    p = n3_p21(ref["a"], ref["b"], ref["U"], [k_lo, k_hi])
    if float(np.abs(p - 0.5).max()) > EDGE_TOL:
        return f"transmission at band edges {p.tolist()} != 1/2"
    return None


def check_pole(job, out):
    ref = job["ref"]
    rep = json.loads(out)
    a, U = ref["a"], ref["U"]
    if ref["device"] == "n3":
        b = ref["b"]
        want = b * b * math.sqrt(U) / math.sqrt(b**4 - (1 + a * a) ** 2)
    else:
        want = 2 * a * a * math.sqrt(U) / math.sqrt(4 * a**4 - 1)
    if not _close(rep["k_pole"], want, POLE_RTOL):
        return f"pole {rep['k_pole']!r} vs closed form {want!r}"
    return None


def check_chain_recipe(job, out):
    ref = job["ref"]
    header, data = _csv_columns(out)
    n = 3 if ref["device"] == "n3" else 4
    if len(header) != n + 1 or data.shape[0] != int(job["argv"][-1].split(":")[2]):
        return f"unexpected graph table {header} x {data.shape[0]}"
    ks = data[:, 0]
    pots = (0.0, 0.0, ref["U"], 0.0)[:n]
    A, B = device_matrices(ref["device"], ref["a"], ref["b"])
    mask = open_mask(pots, ks**2)
    want = column_probabilities(smatrix_ref(A, B, pots, ks**2), mask)
    err = float(np.abs(np.where(mask, data[:, 1:] - want, 0.0)).max())
    if err > CHAIN_C * ref["d"]:
        return f"chain off the device by {err:.3e} > C*d = {CHAIN_C * ref['d']:.3e}"
    return None


def check_chain_generic(job, out):
    _, data = _csv_columns(out)
    defect = float(np.abs(data[:, 1:].sum(axis=1) - 1.0).max())
    if defect > UNITARITY_TOL:
        return f"chain unitarity defect {defect:.3e}"
    return None


def check_converge(job, out):
    rep = json.loads(out)
    d0 = job["ref"]["d0"]
    for m, row in enumerate(rep["rows"]):
        if row["d"] != d0 * 2.0**-m:
            return f"row {m} has d={row['d']!r}"
        if not 0.0 < row["eps"] <= CONVERGE_C * row["d"]:
            return f"convergence error {row['eps']:.3e} at d={row['d']:.3e} exceeds C*d"
    return None


def _check_s(spec, S, what: str):
    A, B = coupling_matrices(spec)
    energies = [spec["energy"]]
    S_ref = smatrix_ref(A, B, spec["potentials"], energies)[0]
    err = _s_distance(S, S_ref)
    if err > S_TOL:
        return f"{what} off the reference by {err:.3e}"
    defect = unitarity_defect(S, open_mask(spec["potentials"], energies)[0])
    if defect > UNITARITY_TOL:
        return f"{what} unitarity defect {defect:.3e}"
    return None


def check_coupling(job, out):
    spec = job["spec"]
    A, B = coupling_matrices(spec)
    if not (np.array_equal(out["A2"], out["A"]) and np.array_equal(out["B2"], out["B"])):
        return "JSON round trip changed the coupling"
    if not (np.array_equal(out["A"], A) and np.array_equal(out["B"], B)):
        return "constructed coupling differs from its definition"
    rank_ok, self_adjoint, scale_invariant = out["validate"]
    if not (rank_ok and self_adjoint and scale_invariant == (spec["family"] == "st")):
        return f"validate reported {out['validate']}"
    miss = _check_s(spec, out["S"], "S-matrix")
    if miss:
        return miss
    # Final-state wave: amplitudes are column j, and the boundary values
    # satisfy A Psi(0) + B Psi'(0) = 0.
    j = spec["j"]
    amps = out["amplitudes"]
    if _s_distance(amps, out["S"][:, j]) > S_TOL:
        return "final-state amplitudes differ from the S-matrix column"
    k = np.sqrt((spec["energy"] - np.asarray(spec["potentials"])).astype(np.complex128))
    unit = np.zeros(spec["n"])
    unit[j] = 1.0
    psi = (unit + amps) / np.sqrt(k)
    dpsi = 1j * k * (amps - unit) / np.sqrt(k)
    residual = float(np.abs(A @ psi + B @ dpsi).max())
    scale = max(1.0, float(np.abs(psi).max()), float(np.abs(dpsi).max()))
    if residual > S_TOL * scale * max(1.0, float(np.abs(A).max()) + float(np.abs(B).max())):
        return f"final-state wave misses the vertex condition by {residual:.3e}"
    return None


def check_smatrix_cli(job, out):
    rep = json.loads(out)
    return _check_s(job["spec"], _matrix(rep["S"]), "CLI S-matrix")


CHECKS = {
    "band_sweep": check_band_sweep,
    "flux_band": check_flux_band,
    "flux_closed": check_flux_closed,
    "flux_table": check_flux_table,
    "bandwidth": check_bandwidth,
    "pole": check_pole,
    "chain_recipe": check_chain_recipe,
    "chain_generic": check_chain_generic,
    "converge": check_converge,
    "coupling": check_coupling,
    "smatrix_cli": check_smatrix_cli,
}


def check(job, out) -> str | None:
    """Reference check of one job's output; ``None`` means it passed."""
    return CHECKS[job["check"]](job, out)
