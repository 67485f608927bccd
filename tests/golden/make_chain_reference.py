"""Write ``chain_reference.json`` and ``ring_reference.json``: 40-digit
references of the two graph goldens.

The chain is ``chain_v5delta_n4.json`` (the v5-delta chain of
GateN4(0.83, 1, 0.25) at d = 1e-2), swept as ``qstar graph
chain_v5delta_n4.json --k 0.05:5:199``: 199 momenta from numpy.linspace,
two of them (k = 0.5 and 1) on the thresholds sqrt(V) and sqrt(U), and the
energy E = float(k) ** 2 rounded to a double, as the CLI passes it.

At each energy the script solves the full wave-matching system at 50
digits with mpmath: an (alpha, beta) amplitude pair per edge, one outgoing
amplitude per lead and one value per vertex, matched by continuity at both
ends of each edge and at each lead, and by a Kirchhoff row per vertex. A
lead's outgoing wave s exp(ikx)/sqrt(k) divides by sqrt(k), so a lead on
its threshold, k = 0, takes the limit of its continuity row times sqrt(k),
s = -delta (the incoming lead's unit), and adds nothing to its Kirchhoff
row. It shares no formula with qstar's vertex-admittance solve. The
probabilities |S_i1|^2 (0 on a closed line i) are written with 40
significant digits. Inputs are doubles, read exactly.

``ring_reference.json`` holds the S-matrix frozen in
``graph_E_closed_channel.json``: ``qstar graph ring.json --E 2.0`` on the
two-vertex ring ``TestFrozenJsonBytes.RING`` of ``test_cli.py`` (written
here as ``graph_to_dict`` gives it), whose line 3 is closed at E = 2. It
comes from the same system, with the closed line's momentum sqrt(E - U) on
the principal branch, and is written as [re, im] pairs with 40 significant
digits.

Needs mpmath (the ``golden`` extra, not a qstar dependency); the tests only
read the JSON:

    python tests/golden/make_chain_reference.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 50
DIGITS = 40
HERE = Path(__file__).resolve().parent
GRID = (0.05, 5.0, 199)
RING = {
    "vertices": [{"id": "a", "strength": 0.3}, {"id": "b", "strength": -0.7}],
    "lines": [{"vertex": "a", "U": 0.0}, {"vertex": "b", "U": 0.5}, {"vertex": "b", "U": 3.0}],
    "edges": [{"from": "a", "to": "b", "d": 0.4, "phi": 0.2},
              {"from": "a", "to": "b", "d": 0.9, "phi": 0.0}],
}
RING_ENERGY = 2.0


def wave_matching_smatrix(graph, energy):
    """S-matrix of the graph from the (alpha, beta, s, phi) system."""
    verts = [v["id"] for v in graph["vertices"]]
    at = {v: i for i, v in enumerate(verts)}
    edges, lines = graph["edges"], graph["lines"]
    n_e, n, n_v = len(edges), len(lines), len(verts)
    size = 2 * n_e + n + n_v
    E = mp.mpf(energy)
    k = mp.sqrt(E)
    sqrt_k = [mp.sqrt(mp.sqrt(mp.mpc(E - mp.mpf(line["U"])))) for line in lines]
    A = mp.matrix(size, size)
    B = mp.matrix(size, n)
    row = 0
    for e, edge in enumerate(edges):
        omega = mp.expj(mp.mpf(edge["phi"]))
        out = mp.expj(k * mp.mpf(edge["d"]))
        A[row, 2 * e] = A[row, 2 * e + 1] = 1
        A[row, 2 * n_e + n + at[edge["from"]]] = -1
        row += 1
        A[row, 2 * e] = omega * out
        A[row, 2 * e + 1] = omega / out
        A[row, 2 * n_e + n + at[edge["to"]]] = -1
        row += 1
    for j, line in enumerate(lines):
        if sqrt_k[j] == 0:  # on its threshold: the limit s_j = -delta
            A[row, 2 * n_e + j] = 1
            B[row, j] = -1
        else:
            A[row, 2 * n_e + j] = 1 / sqrt_k[j]
            A[row, 2 * n_e + n + at[line["vertex"]]] = -1
            B[row, j] = -1 / sqrt_k[j]
        row += 1
    for v, vert in enumerate(graph["vertices"]):
        A[row + v, 2 * n_e + n + v] = -mp.mpf(vert["strength"])
    for j, line in enumerate(lines):
        r = row + at[line["vertex"]]
        A[r, 2 * n_e + j] += 1j * sqrt_k[j]
        B[r, j] += 1j * sqrt_k[j]
    for e, edge in enumerate(edges):
        omega = mp.expj(mp.mpf(edge["phi"]))
        out = mp.expj(k * mp.mpf(edge["d"]))
        r = row + at[edge["from"]]
        A[r, 2 * e] += 1j * k
        A[r, 2 * e + 1] -= 1j * k
        r = row + at[edge["to"]]
        A[r, 2 * e] -= 1j * k * omega * out
        A[r, 2 * e + 1] += 1j * k * omega / out
    columns = [mp.lu_solve(A, B.column(j)) for j in range(n)]
    return [[columns[j][2 * n_e + i] for j in range(n)] for i in range(n)]


def main():
    graph = json.loads((HERE / "chain_v5delta_n4.json").read_text())
    potentials = [float(line["U"]) for line in graph["lines"]]
    rows = []
    for k in np.linspace(*GRID).tolist():
        energy = k ** 2
        S = wave_matching_smatrix(graph, energy)
        probs = [abs(S[i][0]) ** 2 if energy > u else mp.mpf(0)
                 for i, u in enumerate(potentials)]
        rows.append({"k": k, "P_in_1": [mp.nstr(p, DIGITS) for p in probs]})
    out = HERE / "chain_reference.json"
    out.write_text(json.dumps({"digits": DIGITS, "config": "chain_v5delta_n4.json",
                               "rows": rows}, indent=2) + "\n")
    S = [[[mp.nstr(x.real, DIGITS), mp.nstr(x.imag, DIGITS)] for x in row]
         for row in wave_matching_smatrix(RING, RING_ENERGY)]
    out = HERE / "ring_reference.json"
    out.write_text(json.dumps({"digits": DIGITS, "golden": "graph_E_closed_channel.json",
                               "graph": RING, "energy": RING_ENERGY, "S": S}, indent=2) + "\n")


if __name__ == "__main__":
    main()
