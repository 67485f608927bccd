import re

import numpy as np
import pytest

from qstar import (
    AtThresholdError,
    ChannelSet,
    CompoundGraph,
    ExternalLine,
    FilterN3,
    GateN4,
    GraphVertex,
    InternalEdge,
    InvalidParameterError,
    ScatteringMatrix,
    SingularSystemError,
    build_recipe,
    compound_smatrix,
    convergence_study,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    smatrix,
)
from qstar.assembly import MAGNETIC, V5_DELTA, _open_block_distance

from conftest import rng_for

FLAT_A = 1 / np.sqrt(2)


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
            rf"wave-matching system singular at E={np.pi**2!r}: pivot \S+ below "
            r"floor \S+ at column \d+",
            str(info.value),
        )
        assert str(SingularSystemError(2.0)) == "wave-matching system singular at E=2.0"

    def test_singular_error_carries_attributes(self):
        for energy in (np.pi**2, (2 * np.pi) ** 2):
            with pytest.raises(SingularSystemError) as info:
                compound_smatrix(_resonant_ring(), energy)
            err = info.value
            assert err.energy == energy
            assert isinstance(err.column, int)
            assert 0.0 <= err.pivot < err.floor
            assert f"pivot {err.pivot:.3e} below floor {err.floor:.3e} at column {err.column}" in str(err)
        bare = SingularSystemError(2.0)
        assert (bare.energy, bare.pivot, bare.floor, bare.column) == (2.0, None, None, None)

    def test_at_threshold_error_carries_attributes(self):
        g = GateN4(a=1.0, U=1.3)
        with pytest.raises(AtThresholdError) as info:
            smatrix(g.boundary_condition(), g.channels(np.sqrt(1.3)))
        err = info.value
        assert (err.energy, err.line, err.U) == (np.sqrt(1.3) ** 2, 3, 1.3)
        assert str(err) == (
            f"energy {err.energy!r} sits on the threshold of line 3 (U=1.3); "
            "nudge the momentum instead"
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
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

    def test_engine_guard_matches_star_smatrix(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        graph = build_recipe(f, d=0.01)
        bc = f.boundary_condition()
        for energy, error in ((-1.0, ValueError), (1.0, AtThresholdError)):
            with pytest.raises(error) as star:
                smatrix(bc, ChannelSet(3, f.potentials, energy))
            with pytest.raises(error) as chain:
                compound_smatrix(graph, energy)
            assert type(chain.value) is type(star.value)
            assert str(chain.value) == str(star.value)

    def test_open_mask_reflects_potentials(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        graph = build_recipe(f, d=0.01)
        sm = compound_smatrix(graph, 0.25)
        assert list(sm.open_mask) == [True, True, False]


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
        one = ScatteringMatrix(S=s, k=1.0, open_mask=np.array([True, False]))
        other = ScatteringMatrix(S=2 * s, k=1.0, open_mask=np.array([False, True]))
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
