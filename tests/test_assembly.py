import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from qstar import (
    ChannelSet,
    CompoundGraph,
    ExternalLine,
    FilterN3,
    GateN4,
    GraphVertex,
    InternalEdge,
    InvalidParameterError,
    ScatteringMatrix,
    SingularMatrixError,
    SingularSystemError,
    build_recipe,
    compound_smatrix,
    convergence_study,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    make_delta,
    smatrix,
)
from qstar.assembly import MAGNETIC, V5_DELTA, _open_block_distance
from qstar.numerics import PIVOT_FLOOR, solve_linear

from conftest import rng_for

FLAT_A = 1 / np.sqrt(2)

#: 40-digit S-matrices from ``golden/make_long_edge_reference.py``.
LONG_EDGE = json.loads(
    (Path(__file__).resolve().parent / "golden" / "long_edge_reference.json").read_text()
)


def _resonant_ring():
    """Two unit edges between two free vertices: resonant at E = pi^2."""
    return CompoundGraph(
        vertices=(GraphVertex("a", 0.0), GraphVertex("b", 0.0)),
        lines=(ExternalLine("a", 0.0), ExternalLine("b", 0.0)),
        edges=(InternalEdge("a", "b", 1.0), InternalEdge("a", "b", 1.0)),
    )


def _strengths(*args, **kwargs):
    return {v.id: v.strength for v in build_recipe(*args, **kwargs).vertices}


class TestRecipeStrengths:
    def test_filter_example(self):
        v = _strengths(FilterN3(a=1.0, b=3.0, U=1.0), d=0.1)
        assert v == {"v1": 60.0, "v2": 0.0, "v3": -20.0}

    def test_gate_v5_example(self):
        v = _strengths(GateN4(a=1.0, U=1.0), d=0.1, variant=V5_DELTA)
        assert v == pytest.approx(
            {"v1": 0.0, "v2": -20.0, "v3": -10.0, "v4": -30.0, "v5": -80.0}
        )

    def test_free_couplings_when_unit_parameters(self):
        v = _strengths(FilterN3(a=1.0, b=1.0, U=1.0), d=0.05)
        assert all(s == 0.0 for s in v.values())

    def test_strengths_scale_inversely_with_d(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        v1 = _strengths(f, d=0.1)
        v2 = _strengths(f, d=0.05)
        for key in v1:
            assert v2[key] == pytest.approx(2 * v1[key], rel=1e-14)

    def test_gate_magnetic_strengths(self):
        v = _strengths(GateN4(a=FLAT_A, U=1.0), d=0.1)
        a = FLAT_A
        assert v["v1"] == pytest.approx(2 * a * (a - 1) / 0.1)
        assert v["v2"] == v["v1"]
        assert v["v3"] == pytest.approx((1 - 2 * a) / 0.1)
        assert v["v4"] == v["v3"]

    def test_invalid_inputs(self):
        for d in (0.0, -0.1, np.inf, np.nan):
            with pytest.raises(InvalidParameterError, match=f"positive and finite, got {d!r}"):
                build_recipe(FilterN3(1.0, 3.0, 1.0), d=d)
        with pytest.raises(InvalidParameterError, match="unknown variant"):
            build_recipe(GateN4(1.0, 1.0), d=0.1, variant="bogus")

    @pytest.mark.parametrize("d", [1e-320, 5e-324, 1e-309], ids=str)
    @pytest.mark.parametrize("variant", [MAGNETIC, V5_DELTA])
    def test_separation_whose_strengths_overflow(self, d, variant):
        with pytest.raises(InvalidParameterError, match=re.escape(f"separation d = {d!r} is out")):
            build_recipe(GateN4(a=FLAT_A, U=1.0), d=d, variant=variant)

    def test_separation_whose_lengths_overflow(self):
        # Lengths d/|t| with |t| = a = 0.5 overflow although d is finite.
        with pytest.raises(InvalidParameterError, match=re.escape("separation d = 1e+308 is out")):
            build_recipe(GateN4(a=0.5, U=1.0), d=1e308)


def _hand_built_graph(device, d, variant):
    """Oracle: the per-device strength tables and layouts that the generic
    T -> chain rule of ``build_recipe`` replaced."""
    if isinstance(device, FilterN3):
        a, b = device.a, device.b
        return CompoundGraph(
            vertices=(
                GraphVertex("v1", (a * (a - 1) + b * (b - 1)) / d),
                GraphVertex("v2", (1 - a) / d),
                GraphVertex("v3", (1 - b) / d),
            ),
            lines=(
                ExternalLine("v1", 0.0),
                ExternalLine("v2", 0.0),
                ExternalLine("v3", device.U),
            ),
            edges=(InternalEdge("v1", "v2", d / a), InternalEdge("v1", "v3", d / b)),
        )
    a = device.a
    lines = (
        ExternalLine("v1", 0.0),
        ExternalLine("v2", 0.0),
        ExternalLine("v3", device.U),
        ExternalLine("v4", device.V),
    )
    edges = [
        InternalEdge("v1", "v3", d / a),
        InternalEdge("v1", "v4", d / a),
        InternalEdge("v2", "v3", d / a),
    ]
    if variant == MAGNETIC:
        strengths = [2 * a * (a - 1), 2 * a * (a - 1), 1 - 2 * a, 1 - 2 * a]
        edges.append(InternalEdge("v2", "v4", d / a, phase=np.pi))
    else:
        strengths = [2 * a * (a - 1), 2 * a * (a - 2), 1 - 2 * a, 1 - 4 * a, -8 * a]
        edges.append(InternalEdge("v2", "v5", d / (2 * a)))
        edges.append(InternalEdge("v5", "v4", d / (2 * a)))
    vertices = [GraphVertex(f"v{i + 1}", s / d) for i, s in enumerate(strengths)]
    return CompoundGraph(vertices=vertices, lines=lines, edges=edges)


class TestRecipeFromCoupling:
    def test_matches_the_hand_built_devices(self):
        rng = rng_for("recipe-from-coupling")
        for _ in range(200):
            a, b = (float(x) for x in rng.uniform(0.05, 4.0, size=2))
            U = float(rng.uniform(0.0, 3.0))
            V = float(rng.uniform(0.0, U))
            d = float(10.0 ** rng.uniform(-8, -1))
            for device in (FilterN3(a, b, U), GateN4(a, U, V)):
                for variant in (MAGNETIC, V5_DELTA):
                    got = build_recipe(device, d, variant)
                    want = _hand_built_graph(device, d, variant)
                    if isinstance(device, FilterN3) or variant == MAGNETIC:
                        assert got == want
                        continue
                    # v2 = [a(a-1) + a(a-1) - 2a]/d rounds differently from
                    # 2a(a-2)/d; the terms cancel near a = 2, so the bound
                    # is relative to their size.
                    assert got.lines == want.lines and got.edges == want.edges
                    assert [v.id for v in got.vertices] == [v.id for v in want.vertices]
                    for g, w in zip(got.vertices, want.vertices):
                        if g.id != "v2":
                            assert g.strength == w.strength
                    scale = (2 * a * abs(a - 1) + 2 * a) / d
                    assert abs(got.vertices[1].strength - want.vertices[1].strength) <= (
                        1e-14 * scale
                    )

    def test_filter_variants_build_the_same_graph(self):
        f = FilterN3(a=0.83, b=2.4, U=1.3)
        assert build_recipe(f, 0.01, MAGNETIC) == build_recipe(f, 0.01, V5_DELTA)


class TestBuildRecipe:
    def test_filter_topology(self):
        g = build_recipe(FilterN3(a=1.0, b=3.0, U=1.0), d=0.1)
        assert [v.id for v in g.vertices] == ["v1", "v2", "v3"]
        assert [l.U for l in g.lines] == [0.0, 0.0, 1.0]
        lengths = {(e.src, e.dst): e.length for e in g.edges}
        assert lengths[("v1", "v2")] == pytest.approx(0.1)
        assert lengths[("v1", "v3")] == pytest.approx(0.1 / 3)

    def test_gate_magnetic_topology(self):
        g = build_recipe(GateN4(a=1.0, U=1.0), d=0.1)
        phases = {(e.src, e.dst): e.phase for e in g.edges}
        assert phases[("v2", "v4")] == pytest.approx(np.pi)
        assert phases[("v1", "v3")] == 0.0
        assert len(g.vertices) == 4 and len(g.edges) == 4

    def test_gate_v5_topology(self):
        g = build_recipe(GateN4(a=1.0, U=1.0), d=0.1, variant=V5_DELTA)
        assert len(g.vertices) == 5 and len(g.edges) == 5
        halves = [e for e in g.edges if "v5" in (e.src, e.dst)]
        assert len(halves) == 2
        for e in halves:
            assert e.length == pytest.approx(0.05)
            assert e.phase == 0.0


class TestCompoundSmatrix:
    def test_single_delta_vertex_transmission(self):
        # Independent oracle: |S21|^2 = k^2 / (k^2 + v^2/4) for one delta
        # of strength v between two free lines.
        v = 4.0
        g = CompoundGraph(
            vertices=(GraphVertex("c", v),),
            lines=(ExternalLine("c", 0.0), ExternalLine("c", 0.0)),
        )
        for k in (0.3, 1.0, 2.5):
            sm = compound_smatrix(g, k**2)
            assert abs(sm.S[1, 0]) ** 2 == pytest.approx(
                k**2 / (k**2 + v**2 / 4), abs=1e-12
            )

    def test_free_chain_transmits_fully(self):
        g = CompoundGraph(
            vertices=(GraphVertex("a", 0.0), GraphVertex("b", 0.0)),
            lines=(ExternalLine("a", 0.0), ExternalLine("b", 0.0)),
            edges=(InternalEdge("a", "b", 0.7),),
        )
        for e in (0.3, 1.7, 9.0):
            sm = compound_smatrix(g, e)
            assert abs(sm.S[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_random_graphs_are_flux_unitary(self):
        rng = rng_for("assembly-unitarity")
        for _ in range(40):
            n_vert = int(rng.integers(2, 5))
            ids = [f"w{i}" for i in range(n_vert)]
            vertices = tuple(
                GraphVertex(i, float(rng.uniform(-20, 20))) for i in ids
            )
            # spanning-tree edges keep it connected, plus one optional extra
            edges = [
                InternalEdge(
                    ids[int(rng.integers(0, i))],
                    ids[i],
                    float(rng.uniform(0.05, 0.6)),
                    float(rng.uniform(0, 2 * np.pi)),
                )
                for i in range(1, n_vert)
            ]
            lines = tuple(
                ExternalLine(ids[int(rng.integers(0, n_vert))], float(rng.uniform(0, 3)))
                for _ in range(int(rng.integers(2, 5)))
            )
            graph = CompoundGraph(vertices, lines, tuple(edges))
            energy = float(rng.uniform(0.1, 8.0))
            if any(abs(energy - l.U) < 1e-6 for l in lines):
                continue
            try:
                sm = compound_smatrix(graph, energy)
            except SingularSystemError:
                continue
            assert sm.unitarity_defect() < 1e-8

    def test_chain_approaches_device_amplitudes(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        graph = build_recipe(f, d=1e-3)
        approx = compound_smatrix(graph, 4.0)
        exact = smatrix(f.boundary_condition(), f.channels(2.0))
        assert np.abs(approx.S - exact.S).max() < 0.02

    def test_singular_resonance_detected(self):
        with pytest.raises(SingularSystemError):
            compound_smatrix(_resonant_ring(), np.pi**2)

    def test_singular_error_carries_pivot_detail(self):
        with pytest.raises(SingularSystemError) as info:
            compound_smatrix(_resonant_ring(), np.pi**2)
        assert info.value.energy == np.pi**2
        assert re.fullmatch(
            rf"wave-matching system singular at E={np.pi**2!r}: condition estimate \S+ "
            r"at or above 2\.000e\+14",
            str(info.value),
        )
        assert str(SingularSystemError(2.0)) == "wave-matching system singular at E=2.0"

    def test_singular_error_carries_attributes(self):
        for energy in (np.pi**2, (2 * np.pi) ** 2):
            with pytest.raises(SingularSystemError) as info:
                compound_smatrix(_resonant_ring(), energy)
            err = info.value
            assert err.energy == energy
            assert err.estimate >= err.limit == 2.0 / PIVOT_FLOOR  # sqrt(4): order 4
            assert f"condition estimate {err.estimate:.3e} at or above {err.limit:.3e}" in str(err)
        bare = SingularSystemError(2.0)
        assert (bare.energy, bare.estimate, bare.limit) == (2.0, None, None)

    def test_threshold_resonance_error_carries_attributes(self):
        # The star engine's singular system names its energy as the compound
        # solver's does: a free line pair at zero kinetic energy.
        with pytest.raises(SingularSystemError) as info:
            smatrix(make_delta(2, 0.0), ChannelSet(2, (1.3, 1.3), 1.3))
        err = info.value
        assert isinstance(err, SingularMatrixError)
        assert (err.energy, err.estimate) == (1.3, np.inf)
        assert str(err).startswith("wave-matching system singular at E=1.3: condition estimate inf")

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 1001])
    def test_edge_at_a_multiple_of_pi_is_not_a_resonance(self, m):
        # One edge of length 1 between two delta vertices, at k l = m pi,
        # against the same graph with that edge cut by a free vertex at
        # 0.3, where no piece has sin(k l) near 0.
        def graph(cut):
            vertices = [GraphVertex("a", 0.7), GraphVertex("b", -1.9)]
            if cut:
                vertices.append(GraphVertex("c", 0.0))
                edges = (InternalEdge("a", "c", 0.3, 0.4), InternalEdge("c", "b", 0.7))
            else:
                edges = (InternalEdge("a", "b", 1.0, 0.4),)
            lines = (ExternalLine("a", 0.0), ExternalLine("b", 0.0), ExternalLine("b", 2.0))
            return CompoundGraph(tuple(vertices), lines, edges)

        energy = (m * np.pi) ** 2
        sm = compound_smatrix(graph(False), energy)
        assert sm.unitarity_defect() < 1e-12
        assert np.abs(sm.S - compound_smatrix(graph(True), energy).S).max() < 1e-12
        free = CompoundGraph(
            (GraphVertex("a", 0.0), GraphVertex("b", 0.0)),
            (ExternalLine("a", 0.0), ExternalLine("b", 0.0)),
            (InternalEdge("a", "b", 1.0),),
        )
        assert abs(compound_smatrix(free, energy).S[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_order_is_at_most_vertices_plus_edges(self, monkeypatch):
        # Every edge of this tree sits near sin(k l) = 0 at k = 16 pi/50,
        # the d = 50 edge at k l = 16 pi; each gets at most one free vertex.
        orders = []

        def recorded(lhs, rhs):
            orders.append(len(lhs))
            return solve_linear(lhs, rhs)

        monkeypatch.setattr("qstar.assembly.solve_linear", recorded)
        k = 16 * np.pi / 50
        near = [(16, 0.0), (1, 0.1), (3, -0.2), (6, 0.05), (2, -0.4)]
        vertices = tuple(GraphVertex(f"v{i}", 0.3 * i - 0.5) for i in range(len(near) + 1))
        edges = tuple(
            InternalEdge("v0" if i % 2 else f"v{i}", f"v{i + 1}", (m * np.pi + x) / k, 0.2 * i)
            for i, (m, x) in enumerate(near)
        )
        assert edges[0].length == pytest.approx(50.0)
        lines = (ExternalLine("v0", 0.0), ExternalLine("v5", 0.3), ExternalLine("v2", 0.0))
        sm = compound_smatrix(CompoundGraph(vertices, lines, edges), k * k)
        assert sm.unitarity_defect() < 1e-13
        assert orders == [len(vertices) + len(edges)]

    def test_solve_leaves_the_graph_value_alone(self):
        # The per-graph layout is cached on the graph, outside its fields.
        graph = build_recipe(GateN4(a=0.8, U=1.5, V=0.5), d=0.01, variant=V5_DELTA)
        twin = CompoundGraph(graph.vertices, graph.lines, graph.edges)
        before = (hash(graph), repr(graph), graph_to_dict(graph))
        compound_smatrix(graph, 2.0)
        assert graph == twin and twin == graph
        assert (hash(graph), repr(graph), graph_to_dict(graph)) == before

    def test_sweep_across_edge_splits_matches_fresh_graphs(self, monkeypatch):
        # Energies at which zero to three edges split, in turn: each S of
        # the sweep has the bits of a fresh graph solved at that energy alone.
        orders = []

        def recorded(lhs, rhs):
            orders.append(len(lhs))
            return solve_linear(lhs, rhs)

        monkeypatch.setattr("qstar.assembly.solve_linear", recorded)
        graph = CompoundGraph(
            (GraphVertex("a", 0.7), GraphVertex("b", -1.9), GraphVertex("c", 0.4)),
            (ExternalLine("a", 0.0), ExternalLine("b", 0.3), ExternalLine("c", 0.0)),
            (InternalEdge("a", "b", 1.3, 0.4), InternalEdge("b", "c", 2.9),
             InternalEdge("c", "a", 0.8, -1.1)),
        )
        for energy in np.linspace(0.5, 80.0, 61):
            fresh = CompoundGraph(graph.vertices, graph.lines, graph.edges)
            swept = compound_smatrix(graph, energy).S
            assert swept.tobytes() == compound_smatrix(fresh, energy).S.tobytes(), energy
        assert set(orders) == {3, 4, 5, 6}
        assert orders[::2] != sorted(orders[::2])

    def test_alternating_split_patterns_match_fresh_graphs(self, monkeypatch):
        # Edge 0 alone splits at k0, edge 1 alone at k1: two split sets of
        # one size, so the graph's layout for the last set must follow the
        # set itself, not its size, each time the energy alternates.
        orders = []

        def recorded(lhs, rhs):
            orders.append(len(lhs))
            return solve_linear(lhs, rhs)

        monkeypatch.setattr("qstar.assembly.solve_linear", recorded)
        lengths = (1.0, 1.7)
        graph = CompoundGraph(
            (GraphVertex("a", 0.7), GraphVertex("b", -1.9), GraphVertex("c", 0.4)),
            (ExternalLine("a", 0.0), ExternalLine("c", 0.3)),
            (InternalEdge("a", "b", lengths[0], 0.3), InternalEdge("b", "c", lengths[1], -0.5)),
        )
        ks = [(np.pi + 0.2) / d for d in lengths]
        for i, k in enumerate(ks):
            kls = k * np.array(lengths)
            assert list(np.flatnonzero((kls > np.pi / 2) & (np.abs(np.sin(kls)) < 0.5))) == [i]
        for k in ks * 3:
            fresh = CompoundGraph(graph.vertices, graph.lines, graph.edges)
            swept = compound_smatrix(graph, k * k).S
            assert swept.tobytes() == compound_smatrix(fresh, k * k).S.tobytes(), k
        assert orders == [4] * 12

    @pytest.mark.parametrize("case", LONG_EDGE["cases"],
                             ids=lambda case: f"d{case['d']:g}-{case['parity']}")
    def test_long_edge_matches_reference(self, case):
        # |sin(k l)| <= 1e-3 on one edge of length 1e3, 1e7 or 1e300.
        edge = {**LONG_EDGE["graph"]["edges"][0], "d": case["d"]}
        graph = graph_from_dict({**LONG_EDGE["graph"], "edges": [edge]})
        t0 = time.perf_counter()
        sm = compound_smatrix(graph, case["E"])
        elapsed = time.perf_counter() - t0
        reference = np.array([[float(re) + 1j * float(im) for re, im in row]
                              for row in case["S"]])
        assert elapsed < 0.05
        assert sm.unitarity_defect() < 1e-14
        assert np.abs(sm.S - reference).max() < 1e-14

    def test_edge_phase_overflow_is_named(self):
        # k*d overflows while d is finite; no numpy warning gets out.
        graph = CompoundGraph(
            (GraphVertex("a", 0.7), GraphVertex("b", -1.9)),
            (ExternalLine("a", 0.0), ExternalLine("b", 0.0)),
            (InternalEdge("a", "b", 1.0), InternalEdge("b", "a", 1e308)),
        )
        message = "edge 'b'-'a': phase k*d overflows at energy 4.0"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            compound_smatrix(graph, 4.0)
        assert compound_smatrix(graph, 0.25).unitarity_defect() < 1e-14

    def test_engine_guard_matches_star_smatrix(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        graph = build_recipe(f, d=0.01)
        bc = f.boundary_condition()
        with pytest.raises(ValueError) as star:
            smatrix(bc, ChannelSet(3, f.potentials, -1.0))
        with pytest.raises(ValueError) as chain:
            compound_smatrix(graph, -1.0)
        assert type(chain.value) is type(star.value)
        assert str(chain.value) == str(star.value)
        # Both engines answer on the threshold E = U, where line 3 decouples,
        # and agree there to the chain's O(d) distance (0.017 at d = 0.01).
        star, chain = smatrix(bc, f.channels(1.0)).S, compound_smatrix(graph, 1.0).S
        for S in (star, chain):
            assert S[2, 2] == -1.0 and not S[2, :2].any() and not S[:2, 2].any()
        assert np.abs(chain - star).max() < 0.05

    def test_open_mask_reflects_potentials(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        graph = build_recipe(f, d=0.01)
        sm = compound_smatrix(graph, 0.25)
        assert list(sm.channels.open_mask()) == [True, True, False]

    def test_record_holds_the_graph_channels(self):
        graph = build_recipe(GateN4(a=0.8, U=1.5, V=0.5), d=0.01)
        sm = compound_smatrix(graph, 2.0)
        assert sm.channels == ChannelSet(4, (0.0, 0.0, 1.5, 0.5), 2.0)
        assert sm.channels.potentials == tuple(line.U for line in graph.lines)


def _scatter_per_term_system(graph, energy):
    """Oracle: the (lhs, rhs) that ``compound_smatrix`` solves, built by one
    scatter-add per kind of term, the strengths by ``-=`` on the diagonal
    and split edges by ``np.insert``."""
    n = graph.n_lines
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    src = np.array([index[e.src] for e in graph.edges], dtype=np.intp)
    dst = np.array([index[e.dst] for e in graph.edges], dtype=np.intp)
    lengths = np.array([e.length for e in graph.edges])
    phases = np.array([e.phase for e in graph.edges])
    strengths = np.array([v.strength for v in graph.vertices])
    at = np.array([index[line.vertex] for line in graph.lines])
    channels = ChannelSet(n, tuple(line.U for line in graph.lines), float(energy))
    k = float(np.sqrt(channels.energy))
    k_lines = channels.momenta()
    kls = k * lengths
    sin_kl, cos_kl = np.sin(kls), np.cos(kls)
    split = np.flatnonzero((kls > 0.5 * np.pi) & (np.abs(sin_kl) < 0.5))
    if split.size:
        h = 0.5 * kls[split]
        s, c = (np.array([f(x) for x in h.tolist()]) for f in (math.sin, math.cos))
        odd = np.abs(s) >= np.abs(c)
        sin_kl[split], cos_kl[split] = np.where(odd, s, -c), np.where(odd, c, s)
        after, mids = split + 1, len(strengths) + np.arange(split.size)
        sin_kl = np.insert(sin_kl, after, np.where(odd, s, c))
        cos_kl = np.insert(cos_kl, after, np.where(odd, c, -s))
        src, dst = np.insert(src, after, mids), np.insert(dst, split, mids)
        phases = np.insert(phases, after, 0.0)
    size = len(strengths) + split.size
    lhs = np.zeros((size, size), dtype=np.complex128)
    y = k / sin_kl
    across = y * np.exp(-1j * phases)
    np.add.at(lhs, (src, dst), across)
    np.add.at(lhs, (dst, src), across.conj())
    np.add.at(lhs, (src, src), -y * cos_kl)
    np.add.at(lhs, (dst, dst), -y * cos_kl)
    lhs[np.diag_indices(len(strengths))] -= strengths
    np.add.at(lhs, (at, at), 1j * k_lines)
    rhs = np.zeros((size, n), dtype=np.complex128)
    rhs[at, range(n)] = 2j * np.sqrt(k_lines)
    return lhs, rhs


def _seeded_graph(rng):
    """Connected graph of 2 to 7 delta vertices: a path plus extra edges,
    parallel ones and self-loops among them, and 2 to 4 lines."""
    nv = int(rng.integers(2, 8))
    vertices = tuple(GraphVertex(f"g{i}", float(rng.uniform(-2.0, 2.0))) for i in range(nv))
    pairs = [(i, i + 1) for i in range(nv - 1)]
    pairs += [tuple(int(v) for v in rng.integers(0, nv, size=2)) for _ in range(rng.integers(0, 4))]
    edges = tuple(InternalEdge(f"g{i}", f"g{j}", float(rng.uniform(0.3, 2.0)),
                               float(rng.uniform(-np.pi, np.pi)) * (rng.random() < 0.7))
                  for i, j in pairs)
    lines = tuple(ExternalLine(f"g{int(v)}", float(rng.uniform(0.0, 1.5)) * (rng.random() < 0.6))
                  for v in rng.integers(0, nv, size=int(rng.integers(2, 5))))
    return CompoundGraph(vertices, lines, edges)


class TestAssemblyOracle:
    """The one scatter-add of ``compound_smatrix`` gives the bits of the
    system built term by term, signed zeros included."""

    @pytest.fixture
    def systems(self, monkeypatch):
        captured = []

        def recorded(lhs, rhs):
            captured.append((lhs.copy(), rhs.copy()))
            return solve_linear(lhs, rhs)

        monkeypatch.setattr("qstar.assembly.solve_linear", recorded)

        def check(graph, energies):
            orders = []
            for energy in energies:
                captured.clear()
                try:
                    compound_smatrix(graph, float(energy))
                except SingularSystemError:
                    pass
                ((lhs, rhs),) = captured
                want_lhs, want_rhs = _scatter_per_term_system(graph, float(energy))
                assert (lhs.shape, rhs.shape) == (want_lhs.shape, want_rhs.shape), energy
                assert lhs.tobytes() == want_lhs.tobytes(), energy
                assert rhs.tobytes() == want_rhs.tobytes(), energy
                orders.append(len(lhs))
            return orders

        return check

    def test_seeded_graphs_across_edge_splits(self, systems):
        rng = rng_for("assembly-oracle")
        splits = set()
        for _ in range(40):
            graph = _seeded_graph(rng)
            orders = systems(graph, np.linspace(0.2, 60.0, 41))
            splits |= {order - len(graph.vertices) for order in orders}
        assert {0, 1, 2, 3} <= splits

    @pytest.mark.parametrize("variant", [MAGNETIC, V5_DELTA])
    def test_recipe_chains(self, systems, variant):
        for device in (FilterN3(a=1.3, b=2.2, U=1.0), GateN4(a=0.8, U=1.5, V=0.5)):
            for d in (0.3, 0.01):
                systems(build_recipe(device, d, variant), np.linspace(0.05, 9.0, 25) / d)

    def test_ring_with_two_lines_on_one_vertex(self, systems):
        ring = CompoundGraph(
            (GraphVertex("a", 0.3), GraphVertex("b", -0.7)),
            (ExternalLine("a"), ExternalLine("b", 0.5), ExternalLine("b", 3.0)),
            (InternalEdge("a", "b", 0.4, 0.2), InternalEdge("a", "b", 0.9)),
        )
        assert max(systems(ring, np.linspace(0.3, 200.0, 60))) == 4

    def test_self_loop(self, systems):
        graph = CompoundGraph(
            (GraphVertex("a", 0.7), GraphVertex("b", -1.9)),
            (ExternalLine("a"), ExternalLine("b", 0.3)),
            (InternalEdge("a", "a", 1.1, 0.6), InternalEdge("a", "b", 0.5, -0.4)),
        )
        assert max(systems(graph, np.linspace(0.3, 80.0, 50))) == 4

    def test_one_vertex_without_edges(self, systems):
        graph = CompoundGraph((GraphVertex("a", -0.4),),
                              (ExternalLine("a"), ExternalLine("a", 1.0), ExternalLine("a", 2.0)))
        assert systems(graph, [0.5, 1.0, 1.5, 4.0]) == [1] * 4


class TestConvergence:
    def test_filter_error_decreases(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        rep = convergence_study(f, (0.5, 2.0), tuple(0.1 * 2.0**-m for m in range(4)))
        assert rep.monotone
        assert all(o > 0.58 for o in rep.orders)  # shrink factor >= 1.5

    def test_gate_variants_agree_in_the_limit(self):
        g = GateN4(a=1.0, U=1.0)
        d = 1e-3
        mag = compound_smatrix(build_recipe(g, d, MAGNETIC), 4.0)
        v5 = compound_smatrix(build_recipe(g, d, V5_DELTA), 4.0)
        exact = smatrix(g.boundary_condition(), g.channels(2.0))
        eps = np.abs(mag.S - exact.S).max()
        assert np.abs(mag.S - v5.S).max() < 2 * eps

    def test_zero_potential_limit_is_momentum_independent(self):
        f = FilterN3(a=1.0, b=3.0, U=0.0)
        graph = build_recipe(f, d=1e-4)
        exact = smatrix(f.boundary_condition(), f.channels(1.0))
        for k in (0.5, 3.0):
            sm = compound_smatrix(graph, k**2)
            assert np.abs(sm.S - exact.S).max() < 5e-3

    def test_empty_grids_rejected(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        with pytest.raises(InvalidParameterError):
            convergence_study(f, (0.5, 2.0), ())
        with pytest.raises(InvalidParameterError):
            convergence_study(f, (), (0.1, 0.05))
        with pytest.raises(InvalidParameterError, match="separation d must be positive"):
            convergence_study(f, (0.5, 2.0), (0.1, -0.05))

    def test_open_block_distance_skips_closed_lines(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        graph = build_recipe(f, d=1e-3)
        approx = compound_smatrix(graph, 0.25)
        exact = smatrix(f.boundary_condition(), f.channels(0.5))
        dist = _open_block_distance(approx, exact)
        assert dist < 0.02

    def test_open_block_distance_without_common_open_line(self):
        s = np.ones((2, 2), dtype=complex)
        one = ScatteringMatrix(s, ChannelSet(2, (0.0, 2.0), 1.0))
        other = ScatteringMatrix(2 * s, ChannelSet(2, (2.0, 0.0), 1.0))
        assert _open_block_distance(one, other) == 0.0


class TestSmallSeparation:
    """The three recipes as d -> 0, against the device S-matrix."""

    KS = (0.5, 1.5, 2.0, 5.0)
    TARGETS = [
        (FilterN3(a=1.2, b=2.0, U=1.0), MAGNETIC),
        (GateN4(a=0.8, U=1.0), MAGNETIC),
        (GateN4(a=0.8, U=1.0), V5_DELTA),
    ]
    IDS = ["n3-magnetic", "n4-magnetic", "n4-v5-delta"]

    @pytest.mark.parametrize("target,variant", TARGETS, ids=IDS)
    def test_first_order_down_to_1e_7(self, target, variant):
        ds = [10.0**-m for m in range(3, 8)]
        errors = convergence_study(target, self.KS, ds, variant).errors
        orders = np.log10(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all((orders >= 0.9) & (orders <= 1.1)), orders

    @pytest.mark.parametrize("target,variant", TARGETS, ids=IDS)
    def test_nothing_raises_below_1e_8(self, target, variant):
        ds = [10.0**-m for m in range(8, 13)]
        errors = convergence_study(target, self.KS, ds, variant).errors
        assert max(errors) < 1e-3, errors

    @pytest.mark.parametrize("variant", [MAGNETIC, V5_DELTA])
    @pytest.mark.parametrize("target", [FilterN3(1.0, 3.0, 1.0), GateN4(1.0, U=1.0)],
                             ids=["n3", "n4"])
    def test_recipe_chains_raise_nothing_down_to_1e_11(self, target, variant):
        # The condition estimate grows as about 4e6 (1e-4 / d); at d = 1e-12
        # a few of these points reach the solver's limit.
        for d in (1e-9, 1e-10, 1e-11):
            graph = build_recipe(target, d, variant)
            for k in np.linspace(0.05, 5.0, 100):
                compound_smatrix(graph, float(k) ** 2)


class TestGraphValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(InvalidParameterError):
            CompoundGraph(
                vertices=(GraphVertex("a", 0.0), GraphVertex("b", 0.0)),
                lines=(ExternalLine("a", 0.0), ExternalLine("b", 0.0)),
            )

    def test_bad_edge_length(self):
        with pytest.raises(InvalidParameterError):
            CompoundGraph(
                vertices=(GraphVertex("a", 0.0), GraphVertex("b", 0.0)),
                lines=(ExternalLine("a", 0.0),),
                edges=(InternalEdge("a", "b", 0.0),),
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, message", [
        ("strength", "vertex 'a': strength"),
        ("U", "line 2: potential U"),
        ("length", "edge 'a'-'b': length d"),
        ("phase", "edge 'a'-'b': phase phi"),
    ])
    def test_non_finite_number_named(self, field, message, value):
        parts = {"strength": 0.5, "U": 0.0, "length": 1.0, "phase": 0.0, field: value}
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"{message} must be") + f".*, got {value!r}$"):
            CompoundGraph(
                vertices=(GraphVertex("a", parts["strength"]), GraphVertex("b", 0.0)),
                lines=(ExternalLine("a", 0.0), ExternalLine("b", parts["U"])),
                edges=(InternalEdge("a", "b", parts["length"], parts["phase"]),),
            )

    def test_unknown_vertex_reference(self):
        with pytest.raises(InvalidParameterError):
            CompoundGraph(
                vertices=(GraphVertex("a", 0.0),),
                lines=(ExternalLine("zz", 0.0),),
            )
        with pytest.raises(InvalidParameterError, match="'a'-'zz' references unknown"):
            CompoundGraph(
                vertices=(GraphVertex("a", 0.0),),
                lines=(ExternalLine("a", 0.0),),
                edges=(InternalEdge("a", "zz", 1.0),),
            )

    @pytest.mark.parametrize("vertices, message", [
        ((GraphVertex("a", 0.0), GraphVertex("a", 1.0)), "duplicate vertex ids"),
        ((), "at least one vertex"),
    ], ids=["duplicate", "empty"])
    def test_vertex_list_checked(self, vertices, message):
        with pytest.raises(InvalidParameterError, match=message):
            CompoundGraph(vertices=vertices, lines=())

    def test_too_few_lines_for_smatrix(self):
        g = CompoundGraph(
            vertices=(GraphVertex("a", 0.0),),
            lines=(ExternalLine("a", 0.0),),
        )
        with pytest.raises(InvalidParameterError):
            compound_smatrix(g, 1.0)


class TestGraphJson:
    def test_round_trip(self):
        g = build_recipe(GateN4(a=FLAT_A, U=1.0), d=0.1, variant=V5_DELTA)
        again = graph_from_json(graph_to_json(g))
        assert again == g

    def test_schema_keys(self):
        import json

        g = build_recipe(FilterN3(1.0, 3.0, 1.0), d=0.1)
        data = json.loads(graph_to_json(g))
        assert set(data) == {"vertices", "lines", "edges"}
        assert set(data["edges"][0]) == {"from", "to", "d", "phi"}
        assert set(data["lines"][0]) == {"vertex", "U"}
        assert set(data["vertices"][0]) == {"id", "strength"}

    def test_malformed_config(self):
        with pytest.raises(InvalidParameterError):
            graph_from_json('{"vertices": [{"id": "a"}], "lines": []}')

    @pytest.mark.parametrize("group, key, value", [
        ("vertices", "strength", "1.5"),
        ("vertices", "strength", True),
        ("vertices", "strength", None),
        ("lines", "U", "0"),
        ("edges", "d", "1.0"),
        ("edges", "phi", False),
    ])
    def test_values_must_be_json_numbers(self, group, key, value):
        data = graph_to_dict(build_recipe(FilterN3(1.0, 3.0, 1.0), d=0.1))
        data[group][0][key] = value
        with pytest.raises(InvalidParameterError, match="expected a number"):
            graph_from_dict(data)
