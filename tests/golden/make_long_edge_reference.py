"""Write ``long_edge_reference.json``: 40-digit S-matrices of one long edge.

The graph has two delta vertices, a (strength 0.7) and b (strength -1.9),
joined by one edge of length d and magnetic phase 0.4, with line 1 at a
(U = 0), lines 2 and 3 at b (U = 0 and U = 2, closed). For each d in 1e3,
1e7 and 1e300 the script takes momenta k = fl(m pi/d) for m = ceil(d/pi),
ceil(d/pi) + 1, ..., each at least the next double above the last (at
d = 1e300, m pi/d rounds to one double for every m). For each parity of
the multiple of pi nearest the edge phase it keeps the first energy
E = k*k at which |sin| of that phase is at most 1e-3. There qstar splits
the edge by a free vertex.

The edge phase is the double fl(fl(sqrt(E)) * d), read exactly, not the
real number sqrt(E) * d. A double d and E fix the real-number phase only
to about kl * 2^-53 (rounding sqrt(E) and the product), which is 1e284 at
d = 1e300, so no double-precision result is better conditioned than that
against the real-number graph. What the engine can match is the graph
whose phase is that double, and this is the graph solved here.

At each energy the script solves the wave-matching system at 50 digits
with mpmath: an (alpha, beta) amplitude pair on the edge, one outgoing
amplitude per lead and one value per vertex, matched by continuity at
both ends of the edge and at each lead, and by a Kirchhoff row per vertex.
It shares no formula with qstar's vertex-admittance solve. The S-matrix
is written as [re, im] pairs with 40 significant digits.

Needs mpmath (the ``golden`` extra, not a qstar dependency); the tests only
read the JSON:

    python tests/golden/make_long_edge_reference.py
"""

import json
import math
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50
DIGITS = 40
HERE = Path(__file__).resolve().parent
LENGTHS = (1e3, 1e7, 1e300)
SIN_MAX = 1e-3
PHI = 0.4
GRAPH = {
    "vertices": [{"id": "a", "strength": 0.7}, {"id": "b", "strength": -1.9}],
    "lines": [{"vertex": "a", "U": 0.0}, {"vertex": "b", "U": 0.0},
              {"vertex": "b", "U": 2.0}],
    "edges": [{"from": "a", "to": "b", "d": None, "phi": PHI}],
}


def edge_phase(energy, d):
    return mp.mpf(math.sqrt(energy) * d)


def energies(d):
    """{parity: E} for the first qualifying m of each parity."""
    found = {}
    m = math.ceil(mp.mpf(d) / mp.pi)
    k = 0.0
    while len(found) < 2:
        k = max(float(m * mp.pi / d), math.nextafter(k, math.inf))
        energy = k * k
        phase = edge_phase(energy, d)
        if abs(mp.sin(phase)) <= SIN_MAX:
            found.setdefault("even" if mp.cos(phase) > 0 else "odd", energy)
        m += 1
    return found


def wave_matching_smatrix(d, energy):
    """S-matrix from the (alpha, beta, s, psi) system: the edge wave is
    alpha e^{ikx} + beta e^{-ikx}, times e^{i phi} at its far end."""
    n = len(GRAPH["lines"])
    at = {v["id"]: i for i, v in enumerate(GRAPH["vertices"])}
    size = 2 + n + len(at)
    E = mp.mpf(energy)
    k = mp.mpf(math.sqrt(energy))
    sqrt_k = [mp.sqrt(mp.sqrt(mp.mpc(E - mp.mpf(line["U"])))) for line in GRAPH["lines"]]
    omega = mp.expj(mp.mpf(PHI))
    out = mp.expj(edge_phase(energy, d))
    psi = 2 + n
    A = mp.matrix(size, size)
    B = mp.matrix(size, n)
    A[0, 0] = A[0, 1] = 1
    A[0, psi + at["a"]] = -1
    A[1, 0] = omega * out
    A[1, 1] = omega / out
    A[1, psi + at["b"]] = -1
    for j, line in enumerate(GRAPH["lines"]):
        A[2 + j, 2 + j] = 1 / sqrt_k[j]
        A[2 + j, psi + at[line["vertex"]]] = -1
        B[2 + j, j] = -1 / sqrt_k[j]
    row = 2 + n
    for v, vert in enumerate(GRAPH["vertices"]):
        A[row + v, psi + v] = -mp.mpf(vert["strength"])
    for j, line in enumerate(GRAPH["lines"]):
        r = row + at[line["vertex"]]
        A[r, 2 + j] += 1j * sqrt_k[j]
        B[r, j] += 1j * sqrt_k[j]
    r = row + at["a"]
    A[r, 0] += 1j * k
    A[r, 1] -= 1j * k
    r = row + at["b"]
    A[r, 0] -= 1j * k * omega * out
    A[r, 1] += 1j * k * omega / out
    columns = [mp.lu_solve(A, B.column(j)) for j in range(n)]
    return [[columns[j][2 + i] for j in range(n)] for i in range(n)]


def main():
    cases = []
    for d in LENGTHS:
        for parity, energy in sorted(energies(d).items()):
            S = wave_matching_smatrix(d, energy)
            cases.append({
                "d": d,
                "E": energy,
                "parity": parity,
                "sin_kl": mp.nstr(mp.sin(edge_phase(energy, d)), 3),
                "S": [[[mp.nstr(z.real, DIGITS), mp.nstr(z.imag, DIGITS)] for z in row]
                      for row in S],
            })
    out = HERE / "long_edge_reference.json"
    out.write_text(json.dumps({"digits": DIGITS, "graph": GRAPH, "cases": cases},
                              indent=2) + "\n")


if __name__ == "__main__":
    main()
