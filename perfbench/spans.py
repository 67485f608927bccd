"""Span tracer for the traced benchmark pass.

The tracer wraps qstar's public functions from outside the package. A
function is replaced at every module binding that holds the same object,
found by identity across ``qstar`` and its submodules, because modules
import ``smatrix`` and ``solve_linear`` by name. Spans (group, start, end,
parent span, job id, size, exception) are kept in memory and written out
when the run ends. :meth:`Tracer.uninstall` puts every original binding
back.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

MARKER = "__perfbench_traced__"

#: Metric group -> (module, public functions timed under that name).
GROUPS = {
    "numerics.solve_linear": ("qstar.numerics", ("solve_linear",)),
    "numerics.integrate": ("qstar.numerics", ("integrate",)),
    "numerics.find_root": ("qstar.numerics", ("find_root",)),
    "scattering.smatrix": ("qstar.scattering", ("smatrix",)),
    "scattering.probabilities": ("qstar.scattering", ("probabilities",)),
    "scattering.final_state": ("qstar.scattering", ("final_state",)),
    "vertex.validate": ("qstar.vertex", ("validate",)),
    "vertex.json": ("qstar.vertex", ("bc_to_json", "bc_from_json", "bc_to_dict", "bc_from_dict")),
    "vertex.make": ("qstar.vertex", ("make_st_form", "make_delta")),
    "devices.transmission": ("qstar.devices", ("n3_amplitudes", "n3_transmission",
                                               "n4_amplitudes", "n4_transmission")),
    "devices.band_filter_transmission": ("qstar.devices", ("band_filter_transmission",)),
    "analysis.flux_report": ("qstar.analysis", ("flux_report",)),
    "analysis.bandwidth": ("qstar.analysis", ("bandwidth",)),
    "analysis.locate_pole": ("qstar.analysis", ("locate_pole",)),
    "assembly.compound_smatrix": ("qstar.assembly", ("compound_smatrix",)),
    "assembly.graph_from_json": ("qstar.assembly", ("graph_from_json",)),
    "assembly.convergence_study": ("qstar.assembly", ("convergence_study",)),
    "cli.main": ("qstar.cli", ("main",)),
}
NAMES = tuple(GROUPS)

#: Per-layer metric names and units, in report order.
METRICS = {
    "numerics.solve_linear.calls": "count",
    "numerics.solve_linear.busy_s": "s",
    "numerics.solve_linear.mean_order": "rows",
    "numerics.solve_linear.flop_computed": "flop",
    "numerics.integrate.calls": "count",
    "numerics.integrate.busy_s": "s",
    "numerics.integrate.self_s": "s",
    "numerics.integrate.evals_per_call": "evals/call",
    "numerics.find_root.calls": "count",
    "numerics.find_root.busy_s": "s",
    "scattering.smatrix.calls": "count",
    "scattering.smatrix.busy_s": "s",
    "scattering.smatrix.self_s": "s",
    "scattering.probabilities.calls": "count",
    "scattering.probabilities.busy_s": "s",
    "scattering.final_state.calls": "count",
    "scattering.final_state.busy_s": "s",
    "vertex.validate.calls": "count",
    "vertex.validate.busy_s": "s",
    "vertex.validate.self_s": "s",
    "vertex.json.busy_s": "s",
    "vertex.make.busy_s": "s",
    "devices.transmission.calls": "count",
    "devices.transmission.points": "count",
    "devices.transmission.busy_s": "s",
    "devices.band_filter_transmission.calls": "count",
    "devices.band_filter_transmission.points": "count",
    "devices.band_filter_transmission.busy_s": "s",
    "devices.band_filter_transmission.self_s": "s",
    "analysis.flux_report.calls": "count",
    "analysis.flux_report.busy_s": "s",
    "analysis.flux_report.self_s": "s",
    "analysis.bandwidth.busy_s": "s",
    "analysis.locate_pole.busy_s": "s",
    "assembly.compound_smatrix.calls": "count",
    "assembly.compound_smatrix.busy_s": "s",
    "assembly.compound_smatrix.self_s": "s",
    "assembly.compound_smatrix.mean_order": "rows",
    "assembly.compound_smatrix.singular_ratio": "ratio",
    "assembly.graph_from_json.busy_s": "s",
    "assembly.convergence_study.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _solve_size(args, kwargs):
    """(order, computed flops) of a solve, allowing stacked systems."""
    a = np.shape(_arg(args, kwargs, 0, "a"))
    b = np.shape(_arg(args, kwargs, 1, "b"))
    n = a[-1]
    batch = int(np.prod(a[:-2])) if len(a) > 2 else 1
    rhs = b[-1] if len(b) == len(a) else 1
    # Complex LU with partial pivoting plus the triangular solves, counted
    # as real operations (a complex multiply-add is 8).
    return n, batch * (8.0 * n**3 / 3.0 + 8.0 * n * n * rhs)


def _graph_order(args, kwargs):
    g = _arg(args, kwargs, 0, "graph")
    return 2 * len(g.edges) + len(g.lines) + len(g.vertices)


def _points(args, kwargs):
    return int(np.size(_arg(args, kwargs, 1, "k")))


_SIZES = {
    "numerics.solve_linear": _solve_size,
    "assembly.compound_smatrix": _graph_order,
    "devices.transmission": _points,
    "devices.band_filter_transmission": _points,
}


class Tracer:
    """Collects spans while installed; one job id at a time."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, gid: int, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        size_of = _SIZES.get(NAMES[gid])
        counts_evals = NAMES[gid] == "numerics.integrate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else None
            if counts_evals:
                evals = [0]
                f = args[0]

                def counted(x):
                    evals[0] += int(np.size(x))
                    return f(x)

                args = (counted, *args[1:])
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                if counts_evals:
                    size = evals[0]
                spans[idx] = (gid, start, end, parent, self.job, size, raised)

        setattr(traced, MARKER, True)
        return traced

    def install(self) -> None:
        modules = qstar_modules()
        for gid, (modname, names) in enumerate(GROUPS.values()):
            mod = sys.modules.get(modname)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue  # renamed or removed: its metrics read 0
                wrapper = self._wrap(gid, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)

    def restore_problems(self) -> list[str]:
        """Bindings not back to their original object after uninstall."""
        bad = [f"{m.__name__}.{attr}" for m, attr, fn in self._patched
               if getattr(m, attr) is not fn]
        return bad + [p for p in traced_bindings() if p not in bad]

    def write(self, path) -> None:
        """Spans as tab-separated rows, in start order."""
        with open(path, "w") as fh:
            fh.write("span\tgroup\tstart_ns\tend_ns\tparent\tjob\tsize\traised\n")
            for i, (gid, start, end, parent, job, size, raised) in enumerate(self.spans):
                fh.write(f"{i}\t{NAMES[gid]}\t{start}\t{end}\t{parent}\t{job}\t"
                         f"{'' if size is None else size}\t{raised or ''}\n")

    def metrics(self) -> dict:
        """Per-layer metrics from the spans (see :data:`METRICS`)."""
        ngroups = len(NAMES)
        calls = [0] * ngroups
        busy = [0] * ngroups
        self_ns = [0] * ngroups
        size_sum = [0.0] * ngroups
        flops = 0.0
        singular = 0
        child_ns = [0] * len(self.spans)
        for gid, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (gid, start, end, parent, _, size, raised) in enumerate(self.spans):
            calls[gid] += 1
            self_ns[gid] += end - start - child_ns[i]
            # Busy time counts a span only when no enclosing span belongs
            # to the same group (vertex.json nests bc_to_json/bc_to_dict).
            p = parent
            while p >= 0 and self.spans[p][0] != gid:
                p = self.spans[p][3]
            if p < 0:
                busy[gid] += end - start
            if size is not None:
                if NAMES[gid] == "numerics.solve_linear":
                    size_sum[gid] += size[0]
                    flops += size[1]
                else:
                    size_sum[gid] += size
            if raised == "SingularSystemError":
                singular += 1

        def g(name):
            return NAMES.index(name)

        def mean(name):
            i = g(name)
            return size_sum[i] / calls[i] if calls[i] else 0.0

        out = {}
        for metric in METRICS:
            group, stat = metric.rsplit(".", 1)
            i = g(group)
            if stat == "calls":
                out[metric] = calls[i]
            elif stat == "busy_s":
                out[metric] = busy[i] / 1e9
            elif stat == "self_s":
                out[metric] = self_ns[i] / 1e9
            elif stat == "points":
                out[metric] = int(size_sum[i])
            elif stat in ("mean_order", "evals_per_call"):
                out[metric] = mean(group)
            elif stat == "flop_computed":
                out[metric] = flops
            elif stat == "singular_ratio":
                out[metric] = singular / calls[i] if calls[i] else 0.0
        return out

    def counts_by_job(self) -> dict:
        """{job: {group: calls}}; a group's raising calls also count under
        ``group!ExceptionName``."""
        out: dict = {}
        for gid, _, _, _, job, _, raised in self.spans:
            counts = out.setdefault(job, {})
            name = NAMES[gid]
            counts[name] = counts.get(name, 0) + 1
            if raised:
                key = f"{name}!{raised}"
                counts[key] = counts.get(key, 0) + 1
        return out


def qstar_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qstar" or name.startswith("qstar."))]


def traced_bindings() -> list[str]:
    """Module bindings in qstar that still hold a tracer wrapper."""
    return [f"{m.__name__}.{attr}" for m in qstar_modules()
            for attr, value in vars(m).items() if getattr(value, MARKER, False)]


def binding_snapshot() -> dict:
    """id of every object bound in every qstar module."""
    return {(m.__name__, attr): id(value) for m in qstar_modules()
            for attr, value in vars(m).items()}
