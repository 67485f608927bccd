"""Write ``flux_closed_form.json``: 40-digit constant-density gate fluxes.

For each case (a, U, rho, k_F) of the V = 0 gate, J_below and J_above are
integrals of rho k |S21(k)|^2 over [0, sqrt(U)] and [sqrt(U), k_F], with

    S21 = 2a^2 (1 - w) / ((1 + 2a^2)(1 + 2a^2 w)),  w = sqrt(1 - U/k^2),

evaluated by mpmath's tanh-sinh quadrature in k at 60 digits, so the
reference shares nothing with qstar's closed form or its w-substitution.
The script also checks that the closed form J_below and the w-integral of
the tail agree with these to 40 digits. Inputs are doubles, read exactly.

Needs mpmath (not a qstar dependency); the tests only read the JSON:

    python tests/golden/make_flux_reference.py
"""

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 60
DIGITS = 40
FLAT_A = 0.7071067811865476

CASES = [  # (a, U, rho, k_F)
    (FLAT_A, 1.0, 1.0, 4.0),
    (FLAT_A + 1e-9, 0.7, 1.3, 2.2),
    (0.9, 0.8, 1.4, 2.9),
    (1.0, 1.3, 0.7, 3.1),
    (0.3, 2.0, 1.0, 1.6),
    (1.7, 0.25, 0.5, 4.4),
    (4.0, 1.0, 2.0, 1.01),
    (0.05, 3.0, 1.0, 10.0),
]


def k_integrals(a, U, rho, k_F):
    beta = 2 * mp.mpf(a) ** 2
    U, rho, k_F = mp.mpf(U), mp.mpf(rho), mp.mpf(k_F)

    def integrand(k):
        w = mp.sqrt(mp.mpc(1 - U / k**2))
        s21 = beta * (1 - w) / ((1 + beta) * (1 + beta * w))
        return rho * k * abs(s21) ** 2

    k_th = mp.sqrt(U)
    return mp.quad(integrand, [0, k_th]), mp.quad(integrand, [k_th, k_F])


def closed_form(a, U, rho, k_F):
    beta = 2 * mp.mpf(a) ** 2
    U, rho, k_F = mp.mpf(U), mp.mpf(rho), mp.mpf(k_F)
    slope = rho * (beta / (1 + beta)) ** 2
    below = slope * U / 2 * mp.log(beta**2) / (beta**2 - 1)
    w_F = mp.sqrt(1 - U / k_F**2)
    above = slope * U * mp.quad(lambda w: w / ((1 + w) * (1 + beta * w)) ** 2, [0, w_F])
    return below, above


def main():
    cases = []
    for a, U, rho, k_F in CASES:
        below, above = k_integrals(a, U, rho, k_F)
        for ref, alt in zip((below, above), closed_form(a, U, rho, k_F)):
            assert abs(alt / ref - 1) < mp.mpf(10) ** -DIGITS, (a, U, ref, alt)
        cases.append({
            "a": a, "U": U, "rho": rho, "k_F": k_F,
            "below_threshold": mp.nstr(below, DIGITS),
            "above_threshold": mp.nstr(above, DIGITS),
        })
    out = Path(__file__).resolve().parent / "flux_closed_form.json"
    out.write_text(json.dumps({"digits": DIGITS, "cases": cases}, indent=2) + "\n")


if __name__ == "__main__":
    main()
