"""Write ``smatrix_reference.json``: 40-digit S-matrices of star vertices.

Two parts.

``bc_closed_channel`` is the run frozen in ``smatrix_bc_closed_channel.json``:
``qstar smatrix --bc bc.json --potentials 0,0.5,2 --k 1.1``, with the
coupling (A, B) of ``TestFrozenJsonBytes.BC`` in ``test_cli.py``, at the
energy float(1.1) ** 2 that qstar forms. Line 3 is closed there and no
line is on its threshold, so the script solves the matching condition with
the momenta divided out,

    (A K^-1/2 + i B K^1/2) S = -(A K^-1/2 - i B K^1/2),  K = diag(k_i).

``near_threshold`` holds 24 seeded ST couplings of degree n = 3..6, each
with complex block T, random potentials and one line j whose threshold
U_j is approached: at the doubles E nearest to U_j (1 + eps) for eps in
+-1e-10, +-1e-13 and +-1e-16 (for the last, E may be U_j itself). There
the script evaluates the ST form of ``test_st_oracle.py`` with the momentum
ratios multiplied out,

    S = -I + 2 [K_in^1/2; K_out^1/2 T^H] (K_in + T K_out T^H)^-1 [K_in^1/2, T K_out^1/2],

where K_in and K_out hold the momenta of the first m and the last n - m
lines and T^H conjugates T only. It is finite at k_j = 0 on either side
of T.

Both share no formula with qstar's engine, which solves an n x n system in
A + i B K. Momenta are k_i = sqrt(E - U_i) on the principal branch, at 50
digits with mpmath, and S is written as [re, im] pairs with 40 significant
digits. Inputs are doubles, read exactly.

Needs mpmath (the ``golden`` extra, not a qstar dependency); the tests only
read the JSON:

    python tests/golden/make_smatrix_reference.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 50
DIGITS = 40
HERE = Path(__file__).resolve().parent
SEED = 20261019
COUPLINGS_PER_DEGREE = 6
DEGREES = (3, 4, 5, 6)
EPSILONS = (1e-10, -1e-10, 1e-13, -1e-13, 1e-16, -1e-16)
BC = {
    "A": [[0, 0, 0], [-1, 1, 0], [complex(-0.5, 0.25), 0, 1]],
    "B": [[1, 1, complex(0.5, 0.25)], [0, 0, 0], [0, 0, 0]],
    "potentials": [0.0, 0.5, 2.0],
    "k": 1.1,
}


def momenta(energy, potentials):
    return [mp.sqrt(mp.mpc(mp.mpf(energy) - mp.mpf(u))) for u in potentials]


def pairs(S):
    return [[[mp.nstr(S[i, j].real, DIGITS), mp.nstr(S[i, j].imag, DIGITS)]
             for j in range(S.cols)] for i in range(S.rows)]


def divided_form(A, B, energy, potentials):
    """S from (A K^-1/2 + i B K^1/2) S = -(A K^-1/2 - i B K^1/2)."""
    n = len(potentials)
    sqrt_k = [mp.sqrt(k) for k in momenta(energy, potentials)]
    a_part = mp.matrix(n, n)
    b_part = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            a_part[i, j] = mp.mpc(A[i][j]) / sqrt_k[j]
            b_part[i, j] = 1j * mp.mpc(B[i][j]) * sqrt_k[j]
    return -mp.inverse(a_part + b_part) * (a_part - b_part)


def st_form(T, energy, potentials):
    """S of the ST block T (m x (n - m)) with the momentum ratios
    multiplied out."""
    m, p = len(T), len(T[0])
    n = m + p
    k = momenta(energy, potentials)
    root = [mp.sqrt(x) for x in k]
    T = mp.matrix([[mp.mpc(z) for z in row] for row in T])
    M = mp.matrix(m, m)  # K_in + T K_out T^H
    for mu in range(m):
        M[mu, mu] = k[mu]
        for nu in range(m):
            M[mu, nu] += sum(T[mu, r] * k[m + r] * mp.conj(T[nu, r]) for r in range(p))
    left = mp.matrix(n, m)  # [K_in^1/2; K_out^1/2 T^H]
    right = mp.matrix(m, n)  # [K_in^1/2, T K_out^1/2]
    for mu in range(m):
        left[mu, mu] = right[mu, mu] = root[mu]
        for r in range(p):
            left[m + r, mu] = root[m + r] * mp.conj(T[mu, r])
            right[mu, m + r] = T[mu, r] * root[m + r]
    return -mp.eye(n) + 2 * left * mp.inverse(M) * right


def near_threshold():
    rng = np.random.default_rng(SEED)
    cases = []
    for n in DEGREES:
        for _ in range(COUPLINGS_PER_DEGREE):
            m = int(rng.integers(1, n))
            T = rng.uniform(-2.0, 2.0, (m, n - m)) + 1j * rng.uniform(-2.0, 2.0, (m, n - m))
            potentials = [float(u) for u in rng.uniform(0.0, 4.0, n)]
            j = int(rng.integers(n))
            potentials[j] = float(rng.uniform(0.5, 4.0))
            energies = [float(mp.mpf(potentials[j]) * (1 + mp.mpf(eps))) for eps in EPSILONS]
            T = [[complex(z) for z in row] for row in T.tolist()]
            cases.append({
                "n": n, "m": m, "line": j + 1, "potentials": potentials,
                "T": [[[z.real, z.imag] for z in row] for row in T],
                "energies": energies,
                "S": [pairs(st_form(T, e, potentials)) for e in energies],
            })
    return cases


def main():
    energy = BC["k"] ** 2
    S = divided_form(BC["A"], BC["B"], energy, BC["potentials"])
    bc = {"potentials": BC["potentials"], "k": BC["k"], "energy": energy, "S": pairs(S)}
    out = HERE / "smatrix_reference.json"
    out.write_text(json.dumps({"digits": DIGITS, "bc_closed_channel": bc,
                               "near_threshold": near_threshold()}, indent=2) + "\n")


if __name__ == "__main__":
    main()
