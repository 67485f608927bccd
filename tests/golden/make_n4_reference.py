"""Write ``n4_reference.json``: 40-digit probabilities of the three gate goldens.

The two V = 0 goldens are ``sweep_n4_a1_U1.csv`` and
``sweep_n4_flat_U1.csv``, swept as ``qstar sweep --device n4 --a A --U 1
--k 0.05:5:200``: 200 momenta from numpy.linspace, for which the script
writes P21. They come from the closed form, which takes k itself, so the
energy here is k^2 of the double k, exactly.

The band golden is ``sweep_n4_band_U1_V025.csv``, swept as ``qstar sweep
--device n4 --a 0.7071067811865476 --U 1 --V 0.25 --k 0.05:5:199``: 199
momenta from numpy.linspace, two of them (k = 0.5 and 1) on the thresholds
sqrt(V) and sqrt(U). It comes from the S-matrix engine, so the energy here
is the double that qstar forms, float(k) ** 2, and the script writes all
four columns P21, R11, P31 and P41, with 0 on a closed line (E <= U_i).

At each energy the script evaluates the ST-form S-matrix of the gate's
block T = [[a, a], [a, -a]] at 50 digits with mpmath,

    S = -I + 2 [I; T~^H] (I + T~ T~^H)^-1 [I, T~],
    T~[mu, nu] = T[mu, nu] sqrt(k_(2+nu) / k_mu),

with k_i = sqrt(E - U_i) on the principal branch and potentials
(0, 0, U, V). Lines 3 and 4 only multiply, so a threshold there gives the
limit k = 0 without a division. It shares no formula with qstar's closed
form or engine. Probabilities are written with 40 significant digits.
Inputs are doubles, read exactly.

Needs mpmath (the ``golden`` extra, not a qstar dependency); the tests only
read the JSON:

    python tests/golden/make_n4_reference.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 50
DIGITS = 40
HERE = Path(__file__).resolve().parent
GRID = (0.05, 5.0, 200)
U = 1.0
GOLDENS = {"sweep_n4_a1_U1.csv": 1.0, "sweep_n4_flat_U1.csv": 0.7071067811865476}
BAND_GRID = (0.05, 5.0, 199)
BAND = {"sweep_n4_band_U1_V025.csv": (0.7071067811865476, 0.25)}
BAND_COLUMNS = {"P21": 1, "R11": 0, "P31": 2, "P41": 3}


def momenta(grid):
    return [float(k) for k in np.linspace(*grid)]


def st_column(a, E, potentials):
    """Column 1 of the ST-form S-matrix at energy E (an mpf)."""
    a = mp.mpf(a)
    T = mp.matrix([[a, a], [a, -a]])
    kk = [mp.sqrt(mp.mpc(E - mp.mpf(u))) for u in potentials]
    t = mp.matrix(2, 2)
    t_h = mp.matrix(2, 2)
    for mu in range(2):
        for nu in range(2):
            ratio = mp.sqrt(kk[2 + nu] / kk[mu])
            t[mu, nu] = T[mu, nu] * ratio
            t_h[nu, mu] = mp.conj(T[mu, nu]) * ratio
    middle = mp.inverse(mp.eye(2) + t * t_h)
    left = mp.matrix(4, 2)
    right = mp.matrix(2, 4)
    for i in range(2):
        left[i, i] = right[i, i] = 1
        for j in range(2):
            left[2 + i, j] = t_h[i, j]
            right[i, 2 + j] = t[i, j]
    S = -mp.eye(4) + 2 * left * middle * right
    return [S[i, 0] for i in range(4)]


def band_rows(a, V):
    potentials = (0.0, 0.0, U, V)
    rows = []
    for k in momenta(BAND_GRID):
        E = float(k) ** 2
        s = st_column(a, mp.mpf(E), potentials)
        p = [abs(x) ** 2 if E > u else mp.mpf(0) for x, u in zip(s, potentials)]
        row = {"k": k}
        row.update((name, mp.nstr(p[i], DIGITS)) for name, i in BAND_COLUMNS.items())
        rows.append(row)
    return rows


def main():
    goldens = {}
    for name, a in GOLDENS.items():
        rows = []
        for k in momenta(GRID):
            s21 = st_column(a, mp.mpf(k) ** 2, (0.0, 0.0, U, 0.0))[1]
            rows.append({"k": k, "P21": mp.nstr(abs(s21) ** 2, DIGITS)})
        goldens[name] = {"a": a, "U": U, "rows": rows}
    band = {name: {"a": a, "U": U, "V": V, "rows": band_rows(a, V)}
            for name, (a, V) in BAND.items()}
    out = HERE / "n4_reference.json"
    out.write_text(json.dumps({"digits": DIGITS, "goldens": goldens, "band": band},
                              indent=2) + "\n")


if __name__ == "__main__":
    main()
