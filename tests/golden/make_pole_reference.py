"""Write ``pole_reference.json``: 40-digit second-sheet poles.

For each device below, the script builds its ST coupling block T and
per-line potentials, and finds the zero of

    D(k) = det(diag(w_in) + T diag(w_out) T^T),  w_j = sqrt(1 - U_j/k^2),

with line 3's w flipped to -sqrt(1 - U/k^2), by ``mp.findroot`` at 50
digits, bracketed between the highest threshold and twice the closed-form
pole. It asserts that every root agrees with the paper's closed form to
40 digits:

- three-line filter, T = [[a, b]], potentials (0, 0, U):
  b^2 sqrt(U)/sqrt(b^4 - (1 + a^2)^2);
- four-line gate, T = [[a, a], [a, -a]], potentials (0, 0, U, V):
  2a^2 sqrt(U)/sqrt(4a^4 - 1), for every V below the pole's square.

The devices are the frozen rows of ``TestLocatePole`` and the two pole
report goldens, then seeded filters, V = 0 gates and gates with
0 < V < k_pole^2 (some with V > U, where line 4 has the highest
threshold). k_pole is written with 40 significant digits. Inputs are
doubles, read exactly.

Needs mpmath (the ``golden`` extra, not a qstar dependency); the tests only
read the JSON:

    python tests/golden/make_pole_reference.py
"""

import json
import random
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50
DIGITS = 40
HERE = Path(__file__).resolve().parent
#: (a, b, U) filters and (a, U, V) gates of the frozen rows.
FILTERS = [(1.0, 3.0, 1.0), (1.5, 3.0, 4.0), (0.6, 2.5, 0.3), (1.0, 1.4143, 1.0)]
GATES = [(1.0, 1.0, 0.0), (1.3, 2.5, 0.0), (0.75, 0.7, 0.0), (0.708, 1.0, 0.0)]
SEED = 2011
SEEDED = 12


def closed_form(device):
    if device["device"] == "n3":
        a, b, U = (mp.mpf(device[x]) for x in ("a", "b", "U"))
        return b**2 * mp.sqrt(U) / mp.sqrt(b**4 - (1 + a**2) ** 2)
    a, U = mp.mpf(device["a"]), mp.mpf(device["U"])
    return 2 * a**2 * mp.sqrt(U) / mp.sqrt(4 * a**4 - 1)


def block(device):
    """(T, potentials) of the device."""
    a, U = mp.mpf(device["a"]), mp.mpf(device["U"])
    if device["device"] == "n3":
        return mp.matrix([[a, mp.mpf(device["b"])]]), [0, 0, U]
    return mp.matrix([[a, a], [a, -a]]), [0, 0, U, mp.mpf(device["V"])]


def pole(device):
    T, pots = block(device)
    m = T.rows

    def D(k):
        w = [mp.sqrt(1 - u / k**2) for u in pots]
        w[2] = -w[2]
        return mp.det(mp.diag(w[:m]) + T * mp.diag(w[m:]) * T.T)

    want = closed_form(device)
    lo = mp.sqrt(max(pots)) * (1 + mp.mpf(10) ** -30)
    root = mp.findroot(D, (lo, 2 * want), solver="anderson")
    assert abs(root / want - 1) < mp.mpf(10) ** -DIGITS, (device, root, want)
    return root


def devices():
    rows = [{"device": "n3", "a": a, "b": b, "U": U} for a, b, U in FILTERS]
    rows += [{"device": "n4", "a": a, "U": U, "V": V} for a, U, V in GATES]
    rng = random.Random(SEED)
    for _ in range(SEEDED):
        a = round(rng.uniform(0.3, 2.5), 6)
        b = round(((1 + a * a) * rng.uniform(1.05, 4.0)) ** 0.5, 6)
        rows.append({"device": "n3", "a": a, "b": b, "U": round(rng.uniform(0.1, 4.0), 6)})
    for with_drain in (False, True):
        for _ in range(SEEDED):
            a, U = round(rng.uniform(0.72, 2.0), 6), round(rng.uniform(0.1, 4.0), 6)
            gate = {"device": "n4", "a": a, "U": U, "V": 0.0}
            if with_drain:
                gate["V"] = round(float(closed_form(gate) ** 2) * rng.uniform(0.05, 0.98), 6)
            rows.append(gate)
    return rows


def main():
    rows = [dict(d, k_pole=mp.nstr(pole(d), DIGITS)) for d in devices()]
    out = HERE / "pole_reference.json"
    out.write_text(json.dumps({"digits": DIGITS, "poles": rows}, indent=2) + "\n")


if __name__ == "__main__":
    main()
