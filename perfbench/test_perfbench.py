"""Tests of the benchmark itself: seeded generation, references, tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import references  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_jobs(workload):
    first = workloads.spec_bytes(workloads.generate(workload, 7))
    assert first == workloads.spec_bytes(workloads.generate(workload, 7))
    assert first != workloads.spec_bytes(workloads.generate(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_whole_blocks_and_only_probes_are_tagged(workload):
    spec = workloads.generate(workload, 3)
    assert len(spec["jobs"]) % spec["block"] == 0
    for job in spec["jobs"]:
        assert job["check"] in references.CHECKS
        assert "known" not in job
    for job in spec["probes"]:
        assert job["check"] in references.CHECKS
        assert job["known"] and set(job["known"]) <= set(workloads.KNOWN_DEFECTS)
    assert spec["probes"] == workloads.generate(workload, 4)["probes"]
    assert bool(spec["probes"]) == (workload in ("flux", "chain"))


def test_references_agree_with_each_other():
    a, U, rho, kF = 1 / math.sqrt(2), 1.3, 0.7, 3.1
    k = np.linspace(0.05, 4.0, 97)
    # Engine-free closed form vs the S-matrix reference with V = 0.
    assert np.allclose(references.n4_p21(a, U, k), references.band_p21(a, U, 0.0, k),
                       rtol=0, atol=1e-13)
    # Flat gate: transmission 1/4 below threshold, so the flux there is rho U / 8.
    below = references.gl_integrate(lambda x: rho * x * references.n4_p21(a, U, x),
                                    0.0, math.sqrt(U))
    assert below == pytest.approx(rho * U / 8, rel=1e-13)
    # The sqrt substitution resolves a square-root cusp to rounding.
    assert references.gl_integrate(lambda x: np.sqrt(np.abs(x - 1.0)), 0.0, 2.0, cuts=(1.0,)) \
        == pytest.approx(4.0 / 3.0, rel=1e-13)


def test_recipe_graph_reproduces_the_device():
    from qstar import compound_smatrix, graph_from_dict

    graph = graph_from_dict(workloads.recipe_graph("n4", "v5-delta", 0.9, 0.0, 1.2, 1e-3))
    k = 1.7
    S = compound_smatrix(graph, k * k).S
    A, B = references.device_matrices("n4", 0.9)
    S_dev = references.smatrix_ref(A, B, (0.0, 0.0, 1.2, 0.0), [k * k])[0]
    assert np.abs(S - S_dev).max() < references.CONVERGE_C * 1e-3


def test_tracer_counts_calls_and_restores_bindings():
    import qstar
    import qstar.cli

    before = spans.binding_snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qstar.scattering.smatrix is qstar.devices.smatrix is qstar.smatrix
        assert getattr(qstar.assembly.solve_linear, spans.MARKER)
        tracer.job = 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = qstar.cli.main(["sweep", "--device", "n4", "--a", "0.8", "--U", "1.0",
                                   "--V", "0.3", "--k", "0.1:3:40"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert not tracer.restore_problems()
    assert spans.binding_snapshot() == before
    counts = tracer.counts_by_job()[0]
    assert counts["scattering.smatrix"] == counts["numerics.solve_linear"] == 40
    assert counts["cli.main"] == 1
    m = tracer.metrics()
    assert m["scattering.smatrix.calls"] == 40
    assert m["numerics.solve_linear.mean_order"] == 4
    assert 0 < m["scattering.smatrix.self_s"] < m["scattering.smatrix.busy_s"] \
        <= m["cli.main.busy_s"]
