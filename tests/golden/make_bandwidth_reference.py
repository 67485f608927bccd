"""Write ``bandwidth_reference.json``: 40-digit half-maximum band edges.

For each filter (a, b, U) below, the script evaluates the ST-form S-matrix
of the three-line filter's block T = [[a, b]] at 60 digits with mpmath,

    S = -I + 2 [1; T~^H] (1 + T~ T~^H)^-1 [1, T~],
    T~[0, nu] = T[0, nu] sqrt(k_(1+nu) / k_0),

with k_i = sqrt(k^2 - U_i) on the principal branch and potentials
(0, 0, U), and finds each edge with ``mp.findroot`` on |S21|^2 - 1/2: the
lower edge between sqrt(U) and a momentum below it where |S21|^2 < 1/2,
the upper edge between sqrt(U) and one above it. It shares no formula
with qstar's closed form. k_lo, k_hi and width_energy = k_hi^2 - k_lo^2
are written with 40 significant digits. Inputs are doubles, read exactly.

The filters are the report golden's (1, 3, 1) and filters with b from 0.92
(near the unbounded band, b^2 = 2 sqrt(2) a - 1 - a^2) to 1e4 (sharp
peaks), and with a near sqrt(2) -/+ 1, where the peak is close to 1/2.

Needs mpmath (the ``golden`` extra, not a qstar dependency); the tests only
read the JSON:

    python tests/golden/make_bandwidth_reference.py
"""

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 60
DIGITS = 40
HERE = Path(__file__).resolve().parent
FILTERS = [
    (1.0, 3.0, 1.0),
    (1.0, 6.0, 1.0),
    (1.0, 3.0, 4.0),
    (1.0, 0.92, 1.0),
    (2.0, 1.5, 7.0),
    (0.45, 10.0, 0.3),
    (0.8, 30.0, 1.0),
    (0.7, 100.0, 1e-3),
    (1.3, 1e3, 2.5),
    (1.0, 1e4, 1.0),
    (0.4143, 10.0, 1.0),
    (2.414, 3.0, 1.0),
    (2.4142, 30.0, 1.0),
]


def st_p21(a, b, U, k):
    T = [mp.mpf(a), mp.mpf(b)]
    E = k * k
    kk = [mp.sqrt(mp.mpc(E - mp.mpf(u))) for u in (0.0, 0.0, U)]
    t = [T[nu] * mp.sqrt(kk[1 + nu] / kk[0]) for nu in range(2)]
    t_h = [mp.conj(T[nu]) * mp.sqrt(kk[1 + nu] / kk[0]) for nu in range(2)]
    middle = 1 / (1 + t[0] * t_h[0] + t[1] * t_h[1])
    # S = -I + 2 left middle right with left = [1; t_h] and right = [1, t].
    S21 = 2 * t_h[0] * middle
    return abs(S21) ** 2


def edge(a, b, U, inside, step):
    """Root of P21 - 1/2 between the peak momentum ``inside`` and the first
    of inside*step, inside*step^2, ... where P21 < 1/2."""

    def excess(k):
        return st_p21(a, b, U, k) - mp.mpf(1) / 2

    outside = inside * step
    while excess(outside) > 0:
        outside *= step
    return mp.findroot(excess, (outside, inside), solver="anderson")


def main():
    rows = []
    for a, b, U in FILTERS:
        k_th = mp.sqrt(mp.mpf(U))
        k_lo = edge(a, b, U, k_th, mp.mpf(1) / 2)
        k_hi = edge(a, b, U, k_th, mp.mpf(2))
        rows.append({
            "a": a,
            "b": b,
            "U": U,
            "k_lo": mp.nstr(k_lo, DIGITS),
            "k_hi": mp.nstr(k_hi, DIGITS),
            "width_energy": mp.nstr(k_hi**2 - k_lo**2, DIGITS),
        })
    out = HERE / "bandwidth_reference.json"
    out.write_text(json.dumps({"digits": DIGITS, "filters": rows}, indent=2) + "\n")


if __name__ == "__main__":
    main()
