"""Finite compound graphs of delta couplings and their exact S-matrix.

A compound graph has delta-coupling vertices, short internal edges (length
and optional accumulated magnetic phase), and external leads with per-line
potentials. ``compound_smatrix`` solves it by vertex admittance, with one
unknown psi_v per vertex (Kostrykin and Schrader, J. Phys. A 32 (1999) 595;
Kottos and Smilansky, Ann. Phys. 274 (1999) 76). On an edge u -> v of length
l and phase phi, the wave at momentum k = sqrt(E) is fixed by its end values,
and its outward derivatives are

    at u:  k/sin(kl) (e^{-i phi} psi_v - cos(kl) psi_u),
    at v:  k/sin(kl) (e^{+i phi} psi_u - cos(kl) psi_v).

Row v of the system is Kirchhoff's rule at v: the outward derivatives sum
to the strength times psi_v. A lead j at v, with momentum k_j, adds i k_j to
the diagonal of row v and 2i sqrt(k_j) to incoming column j of the right-hand
side, and S_{j,in} = sqrt(k_j) psi_{v(j)} - delta_{j,in}. An edge with
kl > pi/2 and |sin kl| < 1/2, near a zero of sin(kl), is first split into
ceil(kl/(pi/2)) equal pieces by free vertices (strength 0), so the
system stays regular there; the rule is fixed. What still raises
SingularSystemError is a true resonance: a state of the finite graph that
vanishes at every lead vertex, such as two equal edges between two vertices
at kl = m pi.

``build_recipe`` emits the chain that reproduces a device vertex in the
d -> 0 limit (Cheon, Exner and Turek, Ann. Phys. 325 (2010) 548), read from
the device's m x (n-m) coupling block T. Line j ends at vertex v<j>. Each
entry t = T[mu][nu] joins v<mu+1> and v<m+nu+1> by an edge of length d/|t|;
a negative entry carries phase pi on that edge ("magnetic" variant), or
instead becomes two d/(2|t|) halves around a delta of strength -8|t|/d, with
both end strengths lowered by 2|t|/d ("v5-delta" variant). The strengths are
sum_nu |t|(|t|-1)/d on v<mu+1> and (1 - sum_mu |t|)/d on v<m+nu+1>. The
chains converge to T's S-matrix at first order in d when m = 1 or the rows
of T are orthogonal, as for both devices. With non-orthogonal rows they
still converge at first order, but to the S-matrix of another vertex, a
distance of order 1 away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import json
import math

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


#: Edges with kl above this and |sin kl| < 1/2 are split (module docstring).
_HALF_PI = 0.5 * math.pi


def compound_smatrix(graph: CompoundGraph, energy: float) -> ScatteringMatrix:
    """Exact S-matrix of the compound graph at energy E > 0.

    Internal edges are potential-free (momentum k = sqrt(E)); lead j carries
    momentum k_j = sqrt(E - U_j) on the principal branch. The vertex
    admittance system of the module docstring, with one unknown per vertex
    and per free vertex that splits an edge, is solved for all incoming
    lines at once. Raises SingularSystemError, with the solver's pivot,
    floor and column, at a discrete resonance of the finite structure.
    """
    n = graph.n_lines
    if n < 2:
        raise InvalidParameterError("need at least two external lines")
    channels = ChannelSet(n, tuple(line.U for line in graph.lines), float(energy))
    channels.assert_evaluable()
    k = float(np.sqrt(channels.energy))
    k_lines = channels.momenta()
    sqrt_k = np.sqrt(k_lines)

    index = {v.id: i for i, v in enumerate(graph.vertices)}
    size = len(graph.vertices)
    ends, lengths, phases = [], [], []
    for edge in graph.edges:
        kl = k * edge.length
        pieces = math.ceil(kl / _HALF_PI) if kl > _HALF_PI and abs(math.sin(kl)) < 0.5 else 1
        path = [index[edge.src], *range(size, size + pieces - 1), index[edge.dst]]
        size += pieces - 1
        ends += zip(path, path[1:])
        lengths += [edge.length / pieces] * pieces
        phases += [edge.phase] + [0.0] * (pieces - 1)

    lhs = np.zeros((size, size), dtype=np.complex128)
    if ends:
        src, dst = np.array(ends).T
        kl = k * np.array(lengths)
        y = k / np.sin(kl)
        across = y * np.exp(-1j * np.array(phases))
        np.add.at(lhs, (src, dst), across)
        np.add.at(lhs, (dst, src), across.conj())
        np.add.at(lhs, (src, src), -y * np.cos(kl))
        np.add.at(lhs, (dst, dst), -y * np.cos(kl))
    lhs[np.diag_indices(len(graph.vertices))] -= [v.strength for v in graph.vertices]
    at = np.array([index[line.vertex] for line in graph.lines])
    np.add.at(lhs, (at, at), 1j * k_lines)
    rhs = np.zeros((size, n), dtype=np.complex128)
    rhs[at, range(n)] = 2j * sqrt_k

    try:
        psi = solve_linear(lhs, rhs)
    except SingularMatrixError as exc:
        raise SingularSystemError(float(energy), exc) from exc
    s = sqrt_k[:, None] * psi[at] - np.eye(n)
    return ScatteringMatrix(S=s, k=k, open_mask=channels.open_mask())


MAGNETIC = "magnetic"
V5_DELTA = "v5-delta"


def build_recipe(target: FilterN3 | GateN4, d: float, variant: str = MAGNETIC) -> CompoundGraph:
    """Chain realizing ``target``'s vertex at separation d by the rule of
    the module docstring; d must be positive and finite."""
    if not 0 < d < math.inf:
        raise InvalidParameterError(f"separation d must be positive and finite, got {d!r}")
    if variant not in (MAGNETIC, V5_DELTA):
        raise InvalidParameterError(f"unknown variant {variant!r}")
    T = target.coupling
    potentials = target.potentials
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
            elif variant == MAGNETIC:
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
    bc = target.boundary_condition()
    references = [smatrix(bc, target.channels(k)) for k in ks]
    errors = []
    for d in ds:
        graph = build_recipe(target, d, variant)
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


def _number(value) -> float:
    """A JSON number as a float; a string, a boolean or null is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def graph_from_dict(data: dict) -> CompoundGraph:
    try:
        vertices = tuple(
            GraphVertex(str(v["id"]), _number(v["strength"])) for v in data["vertices"]
        )
        lines = tuple(
            ExternalLine(str(l["vertex"]), _number(l.get("U", 0.0)))
            for l in data["lines"]
        )
        edges = tuple(
            InternalEdge(
                str(e["from"]), str(e["to"]), _number(e["d"]), _number(e.get("phi", 0.0))
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
