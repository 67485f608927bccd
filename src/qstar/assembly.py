"""Finite compound graphs of delta couplings and their exact S-matrix.

A compound graph has delta-coupling vertices, short internal edges (length
and optional accumulated magnetic phase), and external leads with per-line
potentials. ``compound_smatrix`` solves the full wave-matching system: one
(alpha, beta) amplitude pair per internal edge, one outgoing amplitude per
lead, one boundary value per vertex, matched by continuity and
Kirchhoff-with-strength rows.

``build_recipe`` emits the chains that reproduce the scale-invariant
filter/gate vertices in the d -> 0 limit. The delta strengths follow the
standard recipes (e.g. v1 = [a(a-1)+b(b-1)]/d for the three-line filter);
matching the limit requires the connecting edge between a lead-mu vertex
and a lead-nu vertex to have length d/|T[mu, nu]|, which degenerates to d
when the coupling entries are 1. The minus sign of the gate block is
realized either by a phase pi on the corresponding edge ("magnetic"
variant) or by a mid-edge delta of strength -8a/d on two d/(2a) halves
("v5-delta" variant, which also shifts the strengths on lines 2 and 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import json

import numpy as np

from .devices import FilterN3, GateN4
from .exceptions import (
    InvalidParameterError,
    SingularMatrixError,
    SingularSystemError,
)
from .numerics import solve_linear
from .scattering import ChannelSet, ScatteringMatrix, smatrix


@dataclass(frozen=True)
class GraphVertex:
    id: str
    strength: float


@dataclass(frozen=True)
class ExternalLine:
    vertex: str
    U: float = 0.0


@dataclass(frozen=True)
class InternalEdge:
    src: str
    dst: str
    length: float
    phase: float = 0.0


@dataclass(frozen=True)
class CompoundGraph:
    """Connected finite graph; list order of ``lines`` fixes the external
    line numbering."""

    vertices: tuple[GraphVertex, ...]
    lines: tuple[ExternalLine, ...]
    edges: tuple[InternalEdge, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "edges", tuple(self.edges))
        ids = [v.id for v in self.vertices]
        if len(ids) != len(set(ids)):
            raise InvalidParameterError("duplicate vertex ids")
        if not ids:
            raise InvalidParameterError("graph needs at least one vertex")
        known = set(ids)
        for line in self.lines:
            if line.vertex not in known:
                raise InvalidParameterError(f"line attached to unknown vertex {line.vertex!r}")
        adjacency = {i: set() for i in known}
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise InvalidParameterError(f"edge {e.src!r}-{e.dst!r} references unknown vertex")
            if not e.length > 0:
                raise InvalidParameterError(f"edge length must be positive, got {e.length!r}")
            adjacency[e.src].add(e.dst)
            adjacency[e.dst].add(e.src)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != known:
            raise InvalidParameterError("graph is not connected")

    @property
    def n_lines(self) -> int:
        return len(self.lines)


def compound_smatrix(graph: CompoundGraph, energy: float) -> ScatteringMatrix:
    """Exact S-matrix of the compound graph at energy E > 0.

    Internal edges are potential-free (momentum sqrt(E)); lead j carries
    momentum sqrt(E - U_j) on the principal branch. The assembled linear
    system is solved for all incoming lines at once. Raises
    SingularSystemError at a discrete resonance of the finite structure.
    """
    n = graph.n_lines
    if n < 2:
        raise InvalidParameterError("need at least two external lines")
    channels = ChannelSet(n, tuple(line.U for line in graph.lines), float(energy))
    channels.assert_evaluable()
    k_int = np.sqrt(channels.energy)
    k_ext = channels.momenta()
    sqrt_k = np.sqrt(k_ext)

    v_index = {v.id: i for i, v in enumerate(graph.vertices)}
    n_edges = len(graph.edges)
    n_vert = len(graph.vertices)
    size = 2 * n_edges + n + n_vert
    col_alpha = lambda e: 2 * e
    col_beta = lambda e: 2 * e + 1
    col_s = lambda j: 2 * n_edges + j
    col_phi = lambda v: 2 * n_edges + n + v

    lhs = np.zeros((size, size), dtype=np.complex128)
    rhs = np.zeros((size, n), dtype=np.complex128)
    row = 0

    # Edge endpoint values: alpha + beta = phi(src);
    # exp(i*phase) * (alpha e^{ikl} + beta e^{-ikl}) = phi(dst).
    for e, edge in enumerate(graph.edges):
        lhs[row, col_alpha(e)] = 1.0
        lhs[row, col_beta(e)] = 1.0
        lhs[row, col_phi(v_index[edge.src])] = -1.0
        row += 1
        omega = np.exp(1j * edge.phase)
        phase_out = np.exp(1j * k_int * edge.length)
        lhs[row, col_alpha(e)] = omega * phase_out
        lhs[row, col_beta(e)] = omega / phase_out
        lhs[row, col_phi(v_index[edge.dst])] = -1.0
        row += 1

    # Lead values: (delta_incoming + s_j)/sqrt(k_j) = phi(vertex).
    for j, line in enumerate(graph.lines):
        lhs[row, col_s(j)] = 1.0 / sqrt_k[j]
        lhs[row, col_phi(v_index[line.vertex])] = -1.0
        rhs[row, j] = -1.0 / sqrt_k[j]
        row += 1

    # Kirchhoff rows: sum of outward (covariant) derivatives equals
    # strength times the vertex value.
    for v, vert in enumerate(graph.vertices):
        lhs[row + v, col_phi(v)] = -vert.strength
    for j, line in enumerate(graph.lines):
        r = row + v_index[line.vertex]
        lhs[r, col_s(j)] += 1j * sqrt_k[j]
        rhs[r, j] += 1j * sqrt_k[j]
    for e, edge in enumerate(graph.edges):
        r_src = row + v_index[edge.src]
        lhs[r_src, col_alpha(e)] += 1j * k_int
        lhs[r_src, col_beta(e)] += -1j * k_int
        omega = np.exp(1j * edge.phase)
        phase_out = np.exp(1j * k_int * edge.length)
        r_dst = row + v_index[edge.dst]
        lhs[r_dst, col_alpha(e)] += -1j * k_int * omega * phase_out
        lhs[r_dst, col_beta(e)] += 1j * k_int * omega / phase_out

    try:
        solution = solve_linear(lhs, rhs)
    except SingularMatrixError as exc:
        raise SingularSystemError(float(energy)) from exc
    s = solution[2 * n_edges : 2 * n_edges + n, :].copy()
    return ScatteringMatrix(S=s, k=float(k_int), open_mask=channels.open_mask())


Device = Union[FilterN3, GateN4]

MAGNETIC = "magnetic"
V5_DELTA = "v5-delta"


@dataclass(frozen=True)
class DeltaChainRecipe:
    """Chain approximating a device vertex at finite separation d."""

    target: Device
    d: float
    variant: str = MAGNETIC

    def __post_init__(self):
        if not self.d > 0:
            raise InvalidParameterError(f"separation d must be positive, got {self.d!r}")
        if self.variant not in (MAGNETIC, V5_DELTA):
            raise InvalidParameterError(f"unknown variant {self.variant!r}")

    def strengths(self) -> dict[str, float]:
        """Delta strengths, scaled as 1/d."""
        d = self.d
        t = self.target
        if isinstance(t, FilterN3):
            a, b = t.a, t.b
            return {
                "v1": (a * (a - 1) + b * (b - 1)) / d,
                "v2": (1 - a) / d,
                "v3": (1 - b) / d,
            }
        a = t.a
        if self.variant == MAGNETIC:
            return {
                "v1": 2 * a * (a - 1) / d,
                "v2": 2 * a * (a - 1) / d,
                "v3": (1 - 2 * a) / d,
                "v4": (1 - 2 * a) / d,
            }
        return {
            "v1": 2 * a * (a - 1) / d,
            "v2": 2 * a * (a - 2) / d,
            "v3": (1 - 2 * a) / d,
            "v4": (1 - 4 * a) / d,
            "v5": -8 * a / d,
        }


def build_recipe(recipe: DeltaChainRecipe) -> CompoundGraph:
    """Compound graph realizing the recipe's device vertex.

    Three-line filter: lead vertices v1 (input), v2 (output, edge of
    length d/a to v1) and v3 (controlled line, edge of length d/b to v1).
    Four-line gate: input/output vertices v1, v2 each joined to the
    controlled/drain vertices v3, v4 by edges of length d/a; the v2-v4
    edge carries the sign of the coupling block, either as a phase pi or
    as the mid-edge delta of the "v5-delta" variant.
    """
    d = recipe.d
    t = recipe.target
    v = recipe.strengths()
    if isinstance(t, FilterN3):
        return CompoundGraph(
            vertices=(
                GraphVertex("v1", v["v1"]),
                GraphVertex("v2", v["v2"]),
                GraphVertex("v3", v["v3"]),
            ),
            lines=(
                ExternalLine("v1", 0.0),
                ExternalLine("v2", 0.0),
                ExternalLine("v3", t.U),
            ),
            edges=(
                InternalEdge("v1", "v2", d / t.a),
                InternalEdge("v1", "v3", d / t.b),
            ),
        )
    a = t.a
    vertices = [
        GraphVertex("v1", v["v1"]),
        GraphVertex("v2", v["v2"]),
        GraphVertex("v3", v["v3"]),
        GraphVertex("v4", v["v4"]),
    ]
    lines = (
        ExternalLine("v1", 0.0),
        ExternalLine("v2", 0.0),
        ExternalLine("v3", t.U),
        ExternalLine("v4", t.V),
    )
    edges = [
        InternalEdge("v1", "v3", d / a),
        InternalEdge("v1", "v4", d / a),
        InternalEdge("v2", "v3", d / a),
    ]
    if recipe.variant == MAGNETIC:
        edges.append(InternalEdge("v2", "v4", d / a, phase=np.pi))
    else:
        vertices.append(GraphVertex("v5", v["v5"]))
        edges.append(InternalEdge("v2", "v5", d / (2 * a)))
        edges.append(InternalEdge("v5", "v4", d / (2 * a)))
    return CompoundGraph(vertices=tuple(vertices), lines=lines, edges=tuple(edges))


@dataclass(frozen=True)
class ConvergenceReport:
    """Distance to the target S-matrix as the chain shrinks."""

    separations: tuple[float, ...]
    errors: tuple[float, ...]
    k_grid: tuple[float, ...]

    @property
    def monotone(self) -> bool:
        return all(b < a for a, b in zip(self.errors, self.errors[1:]))

    @property
    def orders(self) -> tuple[float, ...]:
        """log2 of successive error ratios (1.0 for clean first order)."""
        return tuple(
            float(np.log2(a / b)) for a, b in zip(self.errors, self.errors[1:])
        )


def _open_block_distance(s_a: ScatteringMatrix, s_b: ScatteringMatrix) -> float:
    """Max-abs difference over channels open in both matrices."""
    open_both = np.asarray(s_a.open_mask) & np.asarray(s_b.open_mask)
    idx = np.flatnonzero(open_both)
    if idx.size == 0:
        return 0.0
    block = s_a.S[np.ix_(idx, idx)] - s_b.S[np.ix_(idx, idx)]
    return float(np.abs(block).max())


def convergence_study(
    target: Device,
    k_grid,
    d_sequence,
    variant: str = MAGNETIC,
) -> ConvergenceReport:
    """Error eps(d) = max over the momentum grid of the open-block max-abs
    distance between the chain S-matrix and the device S-matrix."""
    ks = tuple(float(k) for k in k_grid)
    ds = tuple(float(d) for d in d_sequence)
    if any(d <= 0 for d in ds):
        raise InvalidParameterError("separations must be positive")
    bc = target.boundary_condition()
    references = [smatrix(bc, target.channels(k)) for k in ks]
    errors = []
    for d in ds:
        graph = build_recipe(DeltaChainRecipe(target=target, d=d, variant=variant))
        eps = 0.0
        for k, ref in zip(ks, references):
            approx = compound_smatrix(graph, k**2)
            eps = max(eps, _open_block_distance(approx, ref))
        errors.append(eps)
    return ConvergenceReport(separations=ds, errors=tuple(errors), k_grid=ks)


def graph_to_dict(graph: CompoundGraph) -> dict:
    return {
        "vertices": [{"id": v.id, "strength": v.strength} for v in graph.vertices],
        "lines": [{"vertex": l.vertex, "U": l.U} for l in graph.lines],
        "edges": [
            {"from": e.src, "to": e.dst, "d": e.length, "phi": e.phase}
            for e in graph.edges
        ],
    }


def graph_from_dict(data: dict) -> CompoundGraph:
    try:
        vertices = tuple(
            GraphVertex(str(v["id"]), float(v["strength"])) for v in data["vertices"]
        )
        lines = tuple(
            ExternalLine(str(l["vertex"]), float(l.get("U", 0.0)))
            for l in data["lines"]
        )
        edges = tuple(
            InternalEdge(
                str(e["from"]), str(e["to"]), float(e["d"]), float(e.get("phi", 0.0))
            )
            for e in data.get("edges", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed graph config: {exc}") from exc
    return CompoundGraph(vertices=vertices, lines=lines, edges=edges)


def graph_to_json(graph: CompoundGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2, sort_keys=True)


def graph_from_json(text: str) -> CompoundGraph:
    return graph_from_dict(json.loads(text))
