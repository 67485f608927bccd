import zlib

import numpy as np

from qstar import ChannelSet, make_st_form


def random_st_coupling(rng, n_choices=(2, 3, 4), t_range=3.0):
    """Random scale-invariant coupling with real block entries."""
    n = int(rng.choice(n_choices))
    m = int(rng.integers(1, n))
    t = rng.uniform(-t_range, t_range, size=(m, n - m))
    return make_st_form(n, m, t)


def random_channels(rng, n, u_max=4.0, e_max=5.0, threshold_gap=1e-6):
    """Random potentials and an energy staying clear of every threshold."""
    potentials = tuple(rng.uniform(0.0, u_max, size=n))
    while True:
        energy = float(rng.uniform(threshold_gap, e_max))
        if all(abs(energy - u) > threshold_gap for u in potentials):
            return ChannelSet(n, potentials, energy)


def rng_for(name: str) -> np.random.Generator:
    """Deterministic per-test generator."""
    return np.random.default_rng(zlib.crc32(name.encode()))
