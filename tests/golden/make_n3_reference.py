"""Write ``n3_reference.json``: 40-digit probabilities of the filter golden.

The golden is ``sweep_n3_a1_b3_U1.csv``, swept as ``qstar sweep --device
n3 --a 1 --b 3 --U 1 --k 0.05:5:200``: 200 momenta from numpy.linspace.
It comes from the closed form, which takes k itself, so the energy here is
k^2 of the double k, exactly. The script writes all three columns P21, R11
and P31, with 0 on a closed line (E <= U_i).

At each energy the script evaluates the ST-form S-matrix of the filter's
block T = [[a, b]] at 50 digits with mpmath,

    S = -I + 2 [1; T~^H] (1 + T~ T~^H)^-1 [1, T~],
    T~[0, nu] = T[0, nu] sqrt(k_(1+nu) / k_0),

with k_i = sqrt(E - U_i) on the principal branch and potentials
(0, 0, U), as ``make_n4_reference.py`` does for the gate. It shares no
formula with qstar's closed form. Probabilities are written with 40
significant digits. Inputs are doubles, read exactly.

Needs mpmath (the ``golden`` extra, not a qstar dependency); the tests only
read the JSON:

    python tests/golden/make_n3_reference.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 50
DIGITS = 40
HERE = Path(__file__).resolve().parent
GRID = (0.05, 5.0, 200)
GOLDENS = {"sweep_n3_a1_b3_U1.csv": (1.0, 3.0, 1.0)}
COLUMNS = {"P21": 1, "R11": 0, "P31": 2}


def st_column(T, E, potentials):
    """Column 1 of the ST-form S-matrix of the 1 x (n-1) block T at energy
    E (an mpf)."""
    n = len(potentials)
    kk = [mp.sqrt(mp.mpc(E - mp.mpf(u))) for u in potentials]
    t = [mp.mpf(T[nu]) * mp.sqrt(kk[1 + nu] / kk[0]) for nu in range(n - 1)]
    t_h = [mp.conj(mp.mpf(T[nu])) * mp.sqrt(kk[1 + nu] / kk[0]) for nu in range(n - 1)]
    middle = 1 / (1 + sum(x * y for x, y in zip(t, t_h)))
    left = [mp.mpf(1)] + t_h
    return [-(i == 0) + 2 * left[i] * middle for i in range(n)]


def main():
    goldens = {}
    for name, (a, b, U) in GOLDENS.items():
        potentials = (0.0, 0.0, U)
        rows = []
        for k in (float(k) for k in np.linspace(*GRID)):
            E = mp.mpf(k) ** 2
            s = st_column((a, b), E, potentials)
            p = [abs(x) ** 2 if E > u else mp.mpf(0) for x, u in zip(s, potentials)]
            row = {"k": k}
            row.update((column, mp.nstr(p[i], DIGITS)) for column, i in COLUMNS.items())
            rows.append(row)
        goldens[name] = {"a": a, "b": b, "U": U, "rows": rows}
    out = HERE / "n3_reference.json"
    out.write_text(json.dumps({"digits": DIGITS, "goldens": goldens}, indent=2) + "\n")


if __name__ == "__main__":
    main()
