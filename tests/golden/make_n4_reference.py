"""Write ``n4_reference.json``: 40-digit P21 of the two V = 0 gate goldens.

The goldens are ``sweep_n4_a1_U1.csv`` and ``sweep_n4_flat_U1.csv``, swept
as ``qstar sweep --device n4 --a A --U 1 --k 0.05:5:200``: 200 momenta
from numpy.linspace, each within 1e-12 of the threshold sqrt(U) moved to
sqrt(U)(1 + 1e-8), as the CLI does.

At each momentum the script evaluates the ST-form S-matrix of the gate's
block T = [[a, a], [a, -a]] at 50 digits with mpmath,

    S = -I + 2 [I; T~^H] (I + T~ T~^H)^-1 [I, T~],
    T~[mu, nu] = T[mu, nu] sqrt(k_(2+nu) / k_mu),

with k_i = sqrt(k^2 - U_i) on the principal branch and potentials
(0, 0, U, 0). It shares no formula with qstar's closed form. P21 = |S21|^2
is written with 40 significant digits. Inputs are doubles, read exactly.

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
NUDGE = 1e-8
U = 1.0
GOLDENS = {"sweep_n4_a1_U1.csv": 1.0, "sweep_n4_flat_U1.csv": 0.7071067811865476}


def momenta():
    ks = np.linspace(*GRID)
    t = np.sqrt(U)
    ks[np.abs(ks - t) <= 1e-12 * max(1.0, t)] = t * (1.0 + NUDGE)
    return [float(k) for k in ks]


def st_p21(a, k):
    a = mp.mpf(a)
    T = mp.matrix([[a, a], [a, -a]])
    E = mp.mpf(k) ** 2
    kk = [mp.sqrt(mp.mpc(E - mp.mpf(u))) for u in (0.0, 0.0, U, 0.0)]
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
    return abs(S[1, 0]) ** 2


def main():
    goldens = {}
    for name, a in GOLDENS.items():
        rows = [{"k": k, "P21": mp.nstr(st_p21(a, k), DIGITS)} for k in momenta()]
        goldens[name] = {"a": a, "U": U, "rows": rows}
    out = HERE / "n4_reference.json"
    out.write_text(json.dumps({"digits": DIGITS, "goldens": goldens}, indent=2) + "\n")


if __name__ == "__main__":
    main()
