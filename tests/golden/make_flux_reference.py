"""Write ``flux_closed_form.json``: 40-digit constant-density gate fluxes.

For each case (a, U, rho, k_F) of the V = 0 gate, J_below and J_above are
integrals of rho k |S21(k)|^2 over [0, sqrt(U)] and [sqrt(U), k_F], with

    S21 = 2a^2 (1 - w) / ((1 + 2a^2)(1 + 2a^2 w)),  w = sqrt(1 - U/k^2),

evaluated by mpmath's tanh-sinh quadrature in k at 60 digits, so the
reference shares nothing with qstar's closed form or its substitutions.
Both integrals are split where |w| = 1/beta, beyond the threshold's edge
for a large coupling a, where the transmission changes on that scale.
The script also checks that the closed form J_below, the w-integral of
the tail and its antiderivative in t = w/(1 + w),

    rho U (beta/(1 + beta))^2 [(d + 2) log1p(x) - x - (d + 1) x/(1 + x)]/d^3

with d = beta - 1, x = d w_F/(1 + w_F), agree with these to 40 digits.
Inputs are doubles, read exactly.

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
    # Large a: tails of 1e-9 to 1e-20, where an absolute 1e-12 says little.
    (200.0, 1.0, 1.0, 4.0),
    (1e3, 1.0, 1.0, 4.0),
    (1e5, 1.0, 1.0, 4.0),
    # k_F just above threshold; sqrt(U) = 1.5 is exact.
    (0.9, 2.25, 1.0, 1.5 * (1 + 1e-6)),
    # Next to the flat gate, d = beta - 1 = +-2.8e-12.
    (FLAT_A + 1e-12, 1.0, 1.0, 2.0),
    (FLAT_A - 1e-12, 1.0, 1.0, 2.0),
    # On each side of |d w_F/(1 + w_F)| = 1: x = 0.978 and 1.020.
    (1.5, 1.0, 1.0, 1.085),
    (1.5, 4.0, 1.0, 2.194),
    # The constant-density rows of test_analysis.TestFlux.FROZEN, whose
    # FLAT_A is 1/np.sqrt(2), one ulp below this script's.
    (0.7071067811865475, 1.0, 1.0, 4.0),
    (0.9, 0.6, 1.7, 2.9),
    (1.3, 2.5, 0.5, 3.5),
    (0.3, 0.25, 1.0, 4.4),
]


def k_integrals(a, U, rho, k_F):
    beta = 2 * mp.mpf(a) ** 2
    U, rho, k_F = mp.mpf(U), mp.mpf(rho), mp.mpf(k_F)

    def integrand(k):
        w = mp.sqrt(mp.mpc(1 - U / k**2))
        s21 = beta * (1 - w) / ((1 + beta) * (1 + beta * w))
        return rho * k * abs(s21) ** 2

    k_th = mp.sqrt(U)
    k_lo = k_th / mp.sqrt(1 + beta**-2)  # |w| = 1/beta on either side
    k_hi = k_th / mp.sqrt(1 - beta**-2) if beta > 1 else k_F
    above = [k_th, k_hi, k_F] if k_hi < k_F else [k_th, k_F]
    return mp.quad(integrand, [0, k_lo, k_th]), mp.quad(integrand, above)


def closed_form(a, U, rho, k_F):
    beta = 2 * mp.mpf(a) ** 2
    U, rho, k_F = mp.mpf(U), mp.mpf(rho), mp.mpf(k_F)
    slope = rho * (beta / (1 + beta)) ** 2
    below = slope * U / 2 * mp.log(beta**2) / (beta**2 - 1)
    w_F = mp.sqrt(1 - U / k_F**2)
    cuts = [0, 1 / beta, w_F] if 1 / beta < w_F else [0, w_F]
    above = slope * U * mp.quad(lambda w: w / ((1 + w) * (1 + beta * w)) ** 2, cuts)
    with mp.workdps(200):  # the antiderivative cancels as 1/(d^2 T) for small d
        d = beta - 1
        x = d * w_F / (1 + w_F)
        t_form = slope * U * ((d + 2) * mp.log1p(x) - x - (d + 1) * x / (1 + x)) / d**3
    return below, above, +t_form


def main():
    cases = []
    for a, U, rho, k_F in CASES:
        below, above = k_integrals(a, U, rho, k_F)
        for ref, alt in zip((below, above, above), closed_form(a, U, rho, k_F)):
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
