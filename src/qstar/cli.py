"""Command-line front end.

Subcommands:

- ``sweep``    momentum sweep of device transmission/reflection curves (CSV)
- ``report``   bandwidth | pole | flux | converge reports (JSON)
- ``smatrix``  one-shot S-matrix at a given momentum (JSON)
- ``graph``    run a compound-graph config file (JSON or CSV sweep)

Output is deterministic: identical invocations produce byte-identical
files. CSV rows use CRLF line endings and 17-significant-digit floats.
Exit codes: 0 ok, 2 usage/config error, 3 numerical failure (a qstar
error or a float overflow).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, assembly, devices, numerics, scattering, vertex
from .exceptions import InvalidParameterError, QStarError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def momentum_grid(lo: float, hi: float, steps: int, potentials) -> np.ndarray:
    """Inclusive linear grid; points on the threshold of a line potential
    move off it (:func:`scattering.nudge_off_threshold`)."""
    if not (lo < hi) or steps < 2:
        raise UsageError(f"invalid momentum range {lo}:{hi}:{steps}")
    if lo <= 0 or not np.isfinite(hi):
        raise UsageError(f"momenta must be positive and finite, got {lo}:{hi}")
    return scattering.nudge_off_threshold(np.linspace(lo, hi, steps), potentials)


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"expected lo:hi:steps, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad momentum range {text!r}: {exc}") from exc


def _device_from_args(args, kind: str, flag: str) -> devices.FilterN3 | devices.GateN4:
    """The device ``kind`` ("n3" or "n4") chosen by ``flag``, with the one
    copy of the rules for --a, --b and --V and the defaults of the options
    a parser leaves out."""
    a = getattr(args, "a", None)
    b = getattr(args, "b", None)
    U = getattr(args, "U", 1.0)
    V = getattr(args, "V", 0.0)
    if a is None:
        raise UsageError(f"{flag} requires --a")
    if kind == "n3":
        if b is None:
            raise UsageError(f"{flag} n3 requires --b")
        if V != 0.0:
            raise UsageError(f"--V applies only to {flag} n4")
        return devices.FilterN3(a=a, b=b, U=U)
    if b is not None:
        raise UsageError(f"--b applies only to {flag} n3")
    return devices.GateN4(a=a, U=U, V=V)


def _sweep_rows(device, grid: np.ndarray) -> tuple[list[str], list[list[str]]]:
    if isinstance(device, devices.GateN4) and device.V != 0.0:
        # band mode: engine-backed, transmission masked on closed lines
        bc = device.boundary_condition()
        rows = []
        for k in grid:
            sm = scattering.smatrix(bc, device.channels(float(k)))
            p = scattering.probabilities(sm)
            rows.append([p[1, 0], p[0, 0], p[2, 0], p[3, 0]])
        cols = list(np.array(rows).T)
    else:
        amplitudes = (devices.n3_amplitudes if isinstance(device, devices.FilterN3)
                      else devices.n4_amplitudes)
        s11, s21, *s_rest = amplitudes(device, grid)
        cols = [np.abs(s) ** 2 for s in (s21, s11, *s_rest)]
    header = ["k", "P21", "R11", "P31", "P41"][: len(cols) + 1]
    table = [
        [_fmt(k)] + [_fmt(c[i]) for c in cols] for i, k in enumerate(grid)
    ]
    return header, table


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)  # default dialect: RFC-4180 CRLF
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if np.isnan(x) else x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path: str | None, payload: dict) -> None:
    _write_text(path, json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n")


def _smatrix_payload(sm: scattering.ScatteringMatrix, potentials) -> dict:
    p = scattering.probabilities(sm)
    return {
        "k": sm.k,
        "energy": sm.k**2,
        "n": sm.n,
        "potentials": list(potentials),
        "open": [bool(x) for x in sm.open_mask],
        "S": [[[z.real, z.imag] for z in row] for row in sm.S],
        "probabilities": [[x for x in row] for row in p],
        "unitarity_defect": sm.unitarity_defect(),
    }


def _cmd_sweep(args) -> int:
    device = _device_from_args(args, args.device, "--device")
    lo, hi, steps = _parse_range(args.k)
    grid = momentum_grid(lo, hi, steps, device.potentials)
    header, rows = _sweep_rows(device, grid)
    _write_csv(args.output, header, rows)
    return EXIT_OK


def _cmd_report_bandwidth(args) -> int:
    f = _device_from_args(args, "n3", "--device")
    rep = analysis.bandwidth(f)
    payload = {"kind": "bandwidth", **asdict(f), **asdict(rep), "approx_ratio": rep.approx_ratio}
    _write_json(args.output, payload)
    return EXIT_OK


def _cmd_report_pole(args) -> int:
    device = _device_from_args(args, args.device, "--device")
    rep = analysis.locate_pole(device)
    payload = {
        "kind": "pole",
        "device": f"n{len(device.potentials)}",
        **asdict(device),  # a, U and b (filter) or V (gate)
        **asdict(rep),
        "tolerances": {"root_abs": numerics.ROOT_ABS_TOL, "root_rel": numerics.ROOT_REL_TOL},
    }
    _write_json(args.output, payload)
    return EXIT_OK


def _cmd_report_flux(args) -> int:
    dist = devices.MomentumDistribution.constant(args.rho)
    gate = _device_from_args(args, "n4", "--device")
    rep = analysis.flux_report(gate, dist, args.kF)
    payload = {
        "kind": "flux",
        **asdict(gate),
        "rho": args.rho,
        "k_F": args.kF,
        "J": rep.total,
        "below_threshold_part": rep.below_threshold,
        "above_threshold_part": rep.above_threshold,
        "tolerances": {
            "quadrature_abs": numerics.QUAD_ABS_TOL, "quadrature_rel": numerics.QUAD_REL_TOL,
        },
    }
    if args.U_grid:
        us = [float(u) for u in args.U_grid.split(",")]
        curve = analysis.flux_curve(args.a, dist, args.kF, us, V=args.V)
        payload["curve"] = [[u, j] for u, j in zip(curve.potentials, curve.fluxes)]
        payload["linearity_deviation"] = curve.linearity_deviation()
    _write_json(args.output, payload)
    return EXIT_OK


def _cmd_report_converge(args) -> int:
    target = _device_from_args(args, args.recipe, "--recipe")
    ds = tuple(args.d0 * 2.0**-m for m in range(args.halvings + 1))
    ks = tuple(float(k) for k in args.k_grid.split(","))
    rep = assembly.convergence_study(target, ks, ds, variant=args.variant)
    _write_json(args.output, {
        "kind": "converge",
        "recipe": args.recipe,
        **asdict(target),  # a, U and b (filter) or V (gate)
        "variant": args.variant,
        "d0": args.d0,
        "halvings": args.halvings,
        "k_grid": list(rep.k_grid),
        "rows": [{"d": d, "eps": e} for d, e in zip(rep.separations, rep.errors)],
        "orders": list(rep.orders),
        "monotone": rep.monotone,
    })
    return EXIT_OK


def _cmd_smatrix(args) -> int:
    if args.bc is not None:
        if args.device is not None:
            raise UsageError("give either --device or --bc, not both")
        given = [f"--{name}" for name in ("a", "b", "U", "V") if name in vars(args)]
        if given:
            raise UsageError(f"--bc takes no device options: {', '.join(given)}")
        if args.potentials is None:
            raise UsageError("--bc requires --potentials u1,u2,...")
        with open(args.bc) as fh:
            bc = vertex.bc_from_json(fh.read())
        if bc.n < 2:
            raise InvalidParameterError(f"--bc coupling needs degree n >= 2, got {bc.n}")
        pots = tuple(float(u) for u in args.potentials.split(","))
        if len(pots) != bc.n:
            raise UsageError(f"expected {bc.n} potentials, got {len(pots)}")
        ch = scattering.ChannelSet.at_momentum(pots, args.k)
    else:
        if args.device is None:
            raise UsageError("give either --device or --bc")
        device = _device_from_args(args, args.device, "--device")
        bc = device.boundary_condition()
        ch = device.channels(args.k)
    sm = scattering.smatrix(bc, ch)
    _write_json(args.output, _smatrix_payload(sm, ch.potentials))
    return EXIT_OK


def _cmd_graph(args) -> int:
    with open(args.config) as fh:
        graph = assembly.graph_from_json(fh.read())
    if (args.E is None) == (args.k is None):
        raise UsageError("give exactly one of --E or --k")
    j = args.incoming - 1
    if not 0 <= j < graph.n_lines:
        raise UsageError(f"incoming line {args.incoming} out of range")
    potentials = [l.U for l in graph.lines]
    if args.E is not None:
        sm = assembly.compound_smatrix(graph, args.E)
        payload = _smatrix_payload(sm, potentials)
        payload["config"] = args.config
        _write_json(args.output, payload)
        return EXIT_OK
    lo, hi, steps = _parse_range(args.k)
    grid = momentum_grid(lo, hi, steps, potentials)
    header = ["k"] + [f"P{i + 1}{args.incoming}" for i in range(graph.n_lines)]
    rows = []
    for k in grid:
        sm = assembly.compound_smatrix(graph, float(k) ** 2)
        p = scattering.probabilities(sm)
        rows.append([_fmt(k)] + [_fmt(p[i, j]) for i in range(graph.n_lines)])
    _write_csv(args.output, header, rows)
    return EXIT_OK


def _add_device_args(parser, require_device=True):
    """--device, --a, --b, --U and --V. Where the device is optional
    (``smatrix``), an option not given stays out of the namespace, so that
    ``--bc`` can reject those given; :func:`_device_from_args` supplies the
    same defaults."""
    def default(value):
        return value if require_device else argparse.SUPPRESS

    parser.add_argument("--device", choices=("n3", "n4"), required=require_device)
    parser.add_argument("--a", type=float, required=require_device, default=default(None))
    parser.add_argument("--b", type=float, default=default(None))
    parser.add_argument("--U", type=float, default=default(1.0))
    parser.add_argument("--V", type=float, default=default(0.0))


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``qstar`` command."""
    parser = argparse.ArgumentParser(
        prog="qstar",
        description="Scattering on quantum star graphs: device curves, "
        "bandwidth/pole/flux reports, compound-graph runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="momentum sweep of a device (CSV)")
    _add_device_args(p_sweep)
    p_sweep.add_argument("--k", required=True, help="momentum grid lo:hi:steps")
    p_sweep.add_argument("-o", "--output", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser("report", help="derived-quantity reports (JSON)")
    rsub = p_report.add_subparsers(dest="report_kind", required=True)

    p_bw = rsub.add_parser("bandwidth")
    p_bw.add_argument("--a", type=float, required=True)
    p_bw.add_argument("--b", type=float, required=True)
    p_bw.add_argument("--U", type=float, default=1.0)
    p_bw.add_argument("-o", "--output", default=None)
    p_bw.set_defaults(func=_cmd_report_bandwidth)

    p_pole = rsub.add_parser("pole")
    _add_device_args(p_pole)
    p_pole.add_argument("-o", "--output", default=None)
    p_pole.set_defaults(func=_cmd_report_pole)

    p_flux = rsub.add_parser("flux")
    p_flux.add_argument("--a", type=float, required=True)
    p_flux.add_argument("--U", type=float, default=1.0)
    p_flux.add_argument("--V", type=float, default=0.0)
    p_flux.add_argument("--rho", type=float, default=1.0)
    p_flux.add_argument("--kF", type=float, required=True)
    p_flux.add_argument("--U-grid", dest="U_grid", default=None,
                        help="comma list of potentials for a J(U) curve")
    p_flux.add_argument("-o", "--output", default=None)
    p_flux.set_defaults(func=_cmd_report_flux)

    p_conv = rsub.add_parser("converge")
    p_conv.add_argument("--recipe", choices=("n3", "n4"), required=True)
    p_conv.add_argument("--a", type=float, required=True)
    p_conv.add_argument("--b", type=float, default=None)
    p_conv.add_argument("--U", type=float, default=1.0)
    p_conv.add_argument("--variant", choices=(assembly.MAGNETIC, assembly.V5_DELTA),
                        default=assembly.MAGNETIC)
    p_conv.add_argument("--d0", type=float, default=0.1)
    p_conv.add_argument("--halvings", type=int, default=6)
    p_conv.add_argument("--k-grid", dest="k_grid", default="0.5,1.5,2,5")
    p_conv.add_argument("-o", "--output", default=None)
    p_conv.set_defaults(func=_cmd_report_converge)

    p_sm = sub.add_parser("smatrix", help="one-shot S-matrix at momentum k (JSON)")
    _add_device_args(p_sm, require_device=False)
    p_sm.add_argument("--bc", default=None, help="boundary-condition JSON file")
    p_sm.add_argument("--potentials", default=None, help="comma list u1,u2,...")
    p_sm.add_argument("--k", type=float, required=True)
    p_sm.add_argument("-o", "--output", default=None)
    p_sm.set_defaults(func=_cmd_smatrix)

    p_graph = sub.add_parser("graph", help="run a compound-graph config file")
    p_graph.add_argument("config", help="graph JSON config path")
    p_graph.add_argument("--E", type=float, default=None, help="one-shot energy")
    p_graph.add_argument("--k", default=None, help="momentum grid lo:hi:steps (CSV)")
    p_graph.add_argument("--in", dest="incoming", type=int, default=1,
                         help="incoming line for CSV sweeps (1-based)")
    p_graph.add_argument("-o", "--output", default=None)
    p_graph.set_defaults(func=_cmd_graph)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs more than most commands; build it once per
    # process. Parsing keeps no state in it.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"qstar: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, InvalidParameterError) as exc:
        print(f"qstar: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QStarError, OverflowError) as exc:
        print(f"qstar: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"qstar: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
