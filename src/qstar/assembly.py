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
side, and S_{j,in} = sqrt(k_j) psi_{v(j)} - delta_{j,in}; a lead on its
threshold, k_j = 0, decouples with S_jj = -1, as in :mod:`qstar.scattering`.

An edge with kl > pi/2 and |sin kl| < 1/2, near a zero of sin(kl), is
first split in two by one free vertex (strength 0), so the system stays
regular there and has at most V + E unknowns for V vertices and E edges,
however long the edges. With h = kl/2, an edge near an odd multiple of pi
(|sin h| >= |cos h|) is split at its midpoint, and both pieces have
(sin, cos) = (sin h, cos h); one near an even multiple is split a quarter
wave off the midpoint, into pieces with (-cos h, sin h) and
(cos h, -sin h). A free piece depends on its phase only mod 2 pi, so the
split is exact, and each piece keeps |sin| >= cos(pi/12). The first piece
carries the edge's phase phi. The rule is fixed. What still raises
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

import functools
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
from .vertex import json_text


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
        numbers = [(f"vertex {v.id!r}: strength", v.strength) for v in self.vertices]
        numbers += [(f"line {j + 1}: potential U", l.U) for j, l in enumerate(self.lines)]
        numbers += [(f"edge {e.src!r}-{e.dst!r}: phase phi", e.phase) for e in self.edges]
        for name, value in numbers:
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        known = set(ids)
        for line in self.lines:
            if line.vertex not in known:
                raise InvalidParameterError(f"line attached to unknown vertex {line.vertex!r}")
        adjacency = {i: set() for i in known}
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise InvalidParameterError(f"edge {e.src!r}-{e.dst!r} references unknown vertex")
            if not 0 < e.length < math.inf:
                raise InvalidParameterError(f"edge {e.src!r}-{e.dst!r}: length d must be "
                                            f"positive and finite, got {e.length!r}")
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

    @functools.cached_property
    def _layout(self):
        """Edge ends, lengths and phases, -(strengths + 0j), line vertices,
        I_n, the flat index of the right-hand side's lead entries, line
        potentials, the longest edge, and a one-entry list that holds the
        last :func:`_split_plan` (at first the plan with no split edge) for
        :func:`compound_smatrix`; not a field, so == and hash skip it."""
        index = {v.id: i for i, v in enumerate(self.vertices)}
        ends = np.array([(index[e.src], index[e.dst]) for e in self.edges], dtype=np.intp)
        src, dst = ends.reshape(-1, 2).T
        phases = np.array([e.phase for e in self.edges])
        at = np.array([index[line.vertex] for line in self.lines], dtype=np.intp)
        n, nv = self.n_lines, len(self.vertices)
        # -(strengths + 0j) adds -0.0 to Im, which leaves it as -= strengths would.
        minus_strengths = -(np.array([v.strength for v in self.vertices]) + 0j)
        return (src, dst, np.array([e.length for e in self.edges]), phases, minus_strengths, at,
                np.eye(n), at * n + np.arange(n), tuple(line.U for line in self.lines),
                max(self.edges, key=lambda e: e.length, default=None),
                [_split_plan(src, dst, phases, nv, at, np.zeros(len(self.edges), bool))])


#: Edges with kl above this and |sin kl| < 1/2 get one free vertex, at the
#: midpoint or a quarter wave off it, so a system has at most V + E unknowns
#: (module docstring).
_HALF_PI = 0.5 * math.pi


def _flat_index(src, dst, size, n_vertices, at):
    """Flat indices into the size x size system of the terms that
    :func:`compound_smatrix` adds, in its order: across each edge (src, dst)
    and (dst, src), on its ends (src, src) and (dst, dst), the vertex
    strengths, then the leads."""
    diag = size + 1
    return np.concatenate((src * size + dst, dst * size + src, src * diag, dst * diag,
                           np.arange(n_vertices) * diag, at * diag))


def _split_plan(src, dst, phases, n_vertices, at, near):
    """Everything of the system's layout that depends only on which edges
    are split (``near``): the key ``near.tobytes()``, the split edges, the
    edge of each piece, the first and second piece of each split edge, the
    size, the phase factors of the pieces and their :func:`_flat_index`.
    Edge i becomes the pieces (src_i, m) and (m, dst_i), the free vertices m
    numbered after the graph's in edge order; the first piece carries the
    phase."""
    split = np.flatnonzero(near)
    pieces = np.repeat(np.arange(near.size), 1 + near)
    src, dst, phases = src[pieces], dst[pieces], phases[pieces]
    rank = np.arange(split.size)
    first, second, mids = split + rank, split + rank + 1, n_vertices + rank
    dst[first], src[second], phases[second] = mids, mids, 0.0
    size = n_vertices + split.size
    return (near.tobytes(), split, pieces, first, second, size, np.exp(-1j * phases),
            _flat_index(src, dst, size, n_vertices, at))


def compound_smatrix(graph: CompoundGraph, energy: float) -> ScatteringMatrix:
    """Exact S-matrix of the compound graph at energy E > 0.

    Internal edges are potential-free (momentum k = sqrt(E)); lead j carries
    momentum k_j = sqrt(E - U_j) on the principal branch. The vertex
    admittance system of the module docstring, with one unknown per vertex
    and per free vertex that splits an edge near sin(kl) = 0 (at most one
    per edge, so at most V + E unknowns), is assembled by one scatter-add
    and solved for all incoming lines at once. The layout of the last set
    of split edges is kept on the graph, so a sweep rebuilds it only where
    that set changes. Raises SingularSystemError, with the solver's
    condition estimate and limit, at a discrete resonance.
    """
    n = graph.n_lines
    if n < 2:
        raise InvalidParameterError("need at least two external lines")
    (src, dst, lengths, phases, minus_strengths, at, eye, rhs_index, potentials, longest,
     last_plan) = graph._layout
    channels = ChannelSet(n, potentials, float(energy))
    k = math.sqrt(channels.energy)
    k_lines = channels.momenta()
    sqrt_k = np.sqrt(k_lines)

    if longest is not None and math.isinf(k * longest.length):
        raise InvalidParameterError(f"edge {longest.src!r}-{longest.dst!r}: phase k*d "
                                    f"overflows at energy {energy!r}")
    kls = k * lengths
    sin_kl, cos_kl = np.sin(kls), np.cos(kls)
    near = (kls > _HALF_PI) & (np.abs(sin_kl) < 0.5)
    # One read and one write of the slot, so a sweep of the same graph in
    # another thread can cost a rebuild, never a wrong plan.
    plan = last_plan[0]
    if plan[0] != near.tobytes():
        plan = last_plan[0] = _split_plan(src, dst, phases, minus_strengths.size, at, near)
    _, split, pieces, first, second, size, factors, flat = plan
    if split.size:
        h = 0.5 * kls[split]
        s, c = (np.array([f(x) for x in h.tolist()]) for f in (math.sin, math.cos))
        odd = np.abs(s) >= np.abs(c)
        sin_kl, cos_kl = sin_kl[pieces], cos_kl[pieces]
        sin_kl[first], sin_kl[second] = np.where(odd, s, -c), np.where(odd, s, c)
        cos_kl[first], cos_kl[second] = np.where(odd, c, s), np.where(odd, c, -s)

    y = k / sin_kl
    across = y * factors
    on_site = -y * cos_kl
    lhs = np.zeros((size, size), dtype=np.complex128)
    np.add.at(lhs.reshape(-1), flat, np.concatenate(
        (across, across.conj(), on_site, on_site, minus_strengths, 1j * k_lines)))
    rhs = np.zeros((size, n), dtype=np.complex128)
    rhs.reshape(-1)[rhs_index] = 2j * sqrt_k

    try:
        psi = solve_linear(lhs, rhs)
    except SingularMatrixError as exc:
        raise SingularSystemError(float(energy), exc) from exc
    s = sqrt_k[:, None] * psi[at] - eye
    return ScatteringMatrix(s, channels)


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
    d = float(d)  # Python floats overflow to inf without a numpy warning
    for mu, t_row in enumerate(T):
        for nu, t in enumerate(t_row):
            w = abs(float(t))
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
    finite = all(map(math.isfinite, strengths + [v.strength for v in mids]))
    if not (finite and all(0 < e.length < math.inf for e in edges)):
        raise InvalidParameterError(
            f"separation d = {d!r} is out of range for this chain: "
            "its vertex strengths or edge lengths overflow or underflow"
        )
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
    open_both = s_a.channels.open_mask() & s_b.channels.open_mask()
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
    """A JSON number as a float; a string, a boolean, null or an integer
    beyond the float range is refused."""
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"malformed graph config: {exc}") from exc
    return CompoundGraph(vertices=vertices, lines=lines, edges=edges)


def graph_to_json(graph: CompoundGraph) -> str:
    return json_text(graph_to_dict(graph))


def graph_from_json(text: str) -> CompoundGraph:
    return graph_from_dict(json.loads(text))
