"""Finite compound graphs of delta couplings and their exact S-matrix.

A compound graph has delta-coupling vertices, short internal edges (length
and optional accumulated magnetic phase), and external leads with per-line
potentials. ``compound_smatrix`` solves the full wave-matching system: one
(alpha, beta) amplitude pair per internal edge, one outgoing amplitude per
lead, one boundary value per vertex, matched by continuity and
Kirchhoff-with-strength rows.

``build_recipe`` emits the chain that reproduces a device vertex in the
d -> 0 limit (Cheon, Exner and Turek, Ann. Phys. 325 (2010) 548), read from
the device's m x (n-m) coupling block T. Line j ends at vertex v<j>. Each
entry t = T[mu][nu] joins v<mu+1> and v<m+nu+1> by an edge of length d/|t|;
a negative entry carries phase pi on that edge ("magnetic" variant), or
instead becomes two d/(2|t|) halves around a delta of strength -8|t|/d, with
both end strengths lowered by 2|t|/d ("v5-delta" variant). The strengths are
sum_nu |t|(|t|-1)/d on v<mu+1> and (1 - sum_mu |t|)/d on v<m+nu+1>. The
chains converge at first order in d when m = 1 or the rows of T are
orthogonal, as for both devices; with non-orthogonal rows they do not
converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        raise SingularSystemError(float(energy), str(exc)) from exc
    s = solution[2 * n_edges : 2 * n_edges + n, :].copy()
    return ScatteringMatrix(S=s, k=float(k_int), open_mask=channels.open_mask())


MAGNETIC = "magnetic"
V5_DELTA = "v5-delta"


@dataclass(frozen=True)
class DeltaChainRecipe:
    """Chain approximating a device vertex at finite separation d."""

    target: FilterN3 | GateN4
    d: float
    variant: str = MAGNETIC

    def __post_init__(self):
        if not self.d > 0:
            raise InvalidParameterError(f"separation d must be positive, got {self.d!r}")
        if self.variant not in (MAGNETIC, V5_DELTA):
            raise InvalidParameterError(f"unknown variant {self.variant!r}")


def build_recipe(recipe: DeltaChainRecipe) -> CompoundGraph:
    """Compound graph realizing the recipe's device vertex by the rule of
    the module docstring."""
    d = recipe.d
    T = recipe.target.coupling
    potentials = recipe.target.potentials
    n, m = len(potentials), len(T)
    rows = [0.0] * m
    cols = [0.0] * (n - m)
    mids = []
    edges = []
    for mu, t_row in enumerate(T):
        for nu, t in enumerate(t_row):
            w = abs(t)
            src, dst = f"v{mu + 1}", f"v{m + nu + 1}"
            rows[mu] += w * (w - 1)
            cols[nu] += w
            if t >= 0:
                edges.append(InternalEdge(src, dst, d / w))
            elif recipe.variant == MAGNETIC:
                edges.append(InternalEdge(src, dst, d / w, phase=np.pi))
            else:
                mid = f"v{n + len(mids) + 1}"
                mids.append(GraphVertex(mid, -8 * w / d))
                edges.append(InternalEdge(src, mid, d / (2 * w)))
                edges.append(InternalEdge(mid, dst, d / (2 * w)))
                rows[mu] -= 2 * w
                cols[nu] += 2 * w
    strengths = [r / d for r in rows] + [(1 - c) / d for c in cols]
    return CompoundGraph(
        vertices=[GraphVertex(f"v{i + 1}", s) for i, s in enumerate(strengths)] + mids,
        lines=[ExternalLine(f"v{j + 1}", u) for j, u in enumerate(potentials)],
        edges=edges,
    )


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
    target: FilterN3 | GateN4,
    k_grid,
    d_sequence,
    variant: str = MAGNETIC,
) -> ConvergenceReport:
    """Error eps(d) = max over the momentum grid of the open-block max-abs
    distance between the chain S-matrix and the device S-matrix."""
    ks = tuple(float(k) for k in k_grid)
    ds = tuple(float(d) for d in d_sequence)
    if not ks or not ds:
        raise InvalidParameterError("need at least one momentum and one separation")
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
