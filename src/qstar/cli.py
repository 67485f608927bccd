"""Command-line front end.

Subcommands:

- ``sweep``    momentum sweep of device transmission/reflection curves (CSV)
- ``report``   bandwidth | pole | flux | converge reports (JSON)
- ``smatrix``  one-shot S-matrix at a given momentum (JSON)
- ``graph``    run a compound-graph config file (JSON or CSV sweep)

Output is deterministic: identical invocations produce byte-identical
files. CSV text comes from one writer, :func:`_csv_table` (float columns
formatted in bulk to 17 significant digits, CRLF rows); JSON text from
:func:`vertex.json_text`.
Exit codes: 0 ok, 2 usage/config error (a usage error is raised as a
ValueError), 3 numerical failure (a qstar error or a float overflow).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, assembly, devices, numerics, scattering, vertex
from .exceptions import InvalidParameterError, QStarError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

def momentum_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    """Inclusive linear grid of momenta with energies k^2 positive and
    finite (:func:`scattering.momentum_energy`)."""
    if not (lo < hi) or steps < 2:
        raise ValueError(f"invalid momentum range {lo}:{hi}:{steps}")
    for k in (lo, hi):
        scattering.momentum_energy(k)
    return np.linspace(lo, hi, steps)


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected lo:hi:steps, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad momentum range {text!r}: {exc}") from exc


def _device_from_args(args, kind: str, flag: str) -> devices.FilterN3 | devices.GateN4:
    """The device ``kind`` ("n3" or "n4") chosen by ``flag``, with the one
    copy of the rules for --a, --b and --V and the defaults of the options
    a parser leaves out."""
    a = getattr(args, "a", None)
    b = getattr(args, "b", None)
    U = getattr(args, "U", 1.0)
    V = getattr(args, "V", 0.0)
    if a is None:
        raise ValueError(f"{flag} requires --a")
    if kind == "n3":
        if b is None:
            raise ValueError(f"{flag} n3 requires --b")
        if V != 0.0:
            raise ValueError(f"--V applies only to {flag} n4")
        return devices.FilterN3(a=a, b=b, U=U)
    if b is not None:
        raise ValueError(f"--b applies only to {flag} n3")
    return devices.GateN4(a=a, U=U, V=V)


def _engine_columns(solve, grid: np.ndarray, lines: list[int], incoming: int) -> np.ndarray:
    """P[i, incoming] of the S-matrix ``solve(k)``, one row per i in ``lines``
    and one column per k of ``grid``: one engine solve and one probabilities
    call per point."""
    rows = np.array(lines)
    cols = np.empty((len(grid), len(lines)))
    for m, k in enumerate(grid.tolist()):
        cols[m] = scattering.probabilities(solve(k))[rows, incoming]
    return cols.T


def _sweep_columns(device, grid: np.ndarray):
    if isinstance(device, devices.GateN4) and device.V != 0.0:
        # band mode: engine-backed, transmission masked on closed lines
        bc = device.boundary_condition()
        return _engine_columns(lambda k: scattering.smatrix(bc, device.channels(k)),
                               grid, [1, 0, 2, 3], 0)
    k, U = float(grid[0]), max(device.potentials)  # the closed forms need U/k^2 finite
    if np.isinf(U / k**2):
        raise ValueError(f"momentum {k!r} is too small for the closed-form sweep: "
                         f"U/k^2 overflows for U = {U!r}")
    amplitudes = (devices.n3_amplitudes if isinstance(device, devices.FilterN3)
                  else devices.n4_amplitudes)
    s11, s21, *s_rest = amplitudes(device, grid)
    return [np.abs(s) ** 2 for s in (s21, s11, *s_rest)]


def _csv_table(header: list[str], columns) -> str:
    """CSV text of a header row and float columns of equal length: each
    row filled from one template of 17-significant-digit cells, rows ending
    in CRLF, the bytes of the csv module's default dialect for these cells."""
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    return ",".join(header) + "\r\n" + "".join(
        row % cells for cells in zip(*(c.tolist() for c in columns)))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_json(path: str | None, payload: dict) -> None:
    _write_text(path, vertex.json_text(payload) + "\n")


def _smatrix_payload(sm: scattering.ScatteringMatrix) -> dict:
    ch = sm.channels
    return {
        "k": float(np.sqrt(ch.energy)),
        "energy": ch.energy,
        "n": sm.n,
        "potentials": ch.potentials,
        "open": ch.open_mask(),
        "S": np.stack([sm.S.real, sm.S.imag], -1),
        "probabilities": scattering.probabilities(sm),  # nan (closed column) as null
        "unitarity_defect": sm.unitarity_defect(),
    }


def _cmd_sweep(args) -> int:
    device = _device_from_args(args, args.device, "--device")
    lo, hi, steps = _parse_range(args.k)
    grid = momentum_grid(lo, hi, steps)
    cols = _sweep_columns(device, grid)
    header = ["k", "P21", "R11", "P31", "P41"][: len(cols) + 1]
    _write_text(args.output, _csv_table(header, [grid, *cols]))
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
    if args.U_grid is not None:
        us = [float(u) for u in args.U_grid.split(",")]
        curve = analysis.flux_curve(gate, dist, args.kF, us)
        payload["curve"] = [[u, j] for u, j in zip(curve.potentials, curve.fluxes)]
        payload["linearity_deviation"] = curve.linearity_deviation()
    _write_json(args.output, payload)
    return EXIT_OK


def _cmd_report_converge(args) -> int:
    target = _device_from_args(args, args.recipe, "--recipe")
    if not 0 < args.d0 < math.inf:  # before the separations exist
        raise InvalidParameterError(f"separation d must be positive and finite, got {args.d0!r}")
    if args.halvings >= 0 and args.d0 * 2.0**-args.halvings == 0.0:
        raise ValueError(f"--d0 {args.d0!r} halved {args.halvings} times is d = 0.0: "
                         "the smallest separation must be a positive float")
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
            raise ValueError("give either --device or --bc, not both")
        given = [f"--{name}" for name in ("a", "b", "U", "V") if name in vars(args)]
        if given:
            raise ValueError(f"--bc takes no device options: {', '.join(given)}")
        if args.potentials is None:
            raise ValueError("--bc requires --potentials u1,u2,...")
        with open(args.bc) as fh:
            bc = vertex.bc_from_json(fh.read())
        if bc.n < 2:
            raise InvalidParameterError(f"--bc coupling needs degree n >= 2, got {bc.n}")
        pots = tuple(float(u) for u in args.potentials.split(","))
        if len(pots) != bc.n:
            raise ValueError(f"expected {bc.n} potentials, got {len(pots)}")
        ch = scattering.ChannelSet.at_momentum(pots, args.k)
    else:
        if args.device is None:
            raise ValueError("give either --device or --bc")
        if args.potentials is not None:
            raise ValueError("--potentials applies only to --bc")
        device = _device_from_args(args, args.device, "--device")
        bc = device.boundary_condition()
        ch = device.channels(args.k)
    _write_json(args.output, _smatrix_payload(scattering.smatrix(bc, ch)))
    return EXIT_OK


def _cmd_graph(args) -> int:
    with open(args.config) as fh:
        graph = assembly.graph_from_json(fh.read())
    if (args.E is None) == (args.k is None):
        raise ValueError("give exactly one of --E or --k")
    j = args.incoming - 1
    if not 0 <= j < graph.n_lines:
        raise ValueError(f"incoming line {args.incoming} out of range")
    if args.E is not None:
        payload = _smatrix_payload(assembly.compound_smatrix(graph, args.E))
        payload["config"] = args.config
        _write_json(args.output, payload)
        return EXIT_OK
    lo, hi, steps = _parse_range(args.k)
    grid = momentum_grid(lo, hi, steps)
    lines = list(range(graph.n_lines))
    cols = _engine_columns(lambda k: assembly.compound_smatrix(graph, k**2), grid, lines, j)
    header = ["k"] + [f"P{i + 1}{args.incoming}" for i in lines]
    _write_text(args.output, _csv_table(header, [grid, *cols]))
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
