"""Batch command-line front end.

Subcommands cover the discrete transforms (analyze, synthesize, decompose,
reconstruct), quadrature inspection (weights), the uncertainty table and
per-function reports (table, uncertainty), kernel classification (classify),
and the constant-certification suite (verify).

Exit codes: 0 on success, 1 on domain, arithmetic, memory or usage errors
(one `error:` line, no traceback), 2 when verification finds a constant out
of tolerance.  Output is deterministic: fixed float formatting and fixed
iteration orders throughout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .formats import (
    format_float,
    pyramid_from_json,
    pyramid_to_json,
    signal_from_json,
    signal_to_json,
    spectrum_from_json,
    spectrum_to_json,
    zonal_from_json,
)
from .mra import synthesize_on_grid, analyze
from .posdef import classify
from .quadrature import _NODE_CAP_ENV, make_rule
from .transform import pyramid_decompose, pyramid_reconstruct
from .uncertainty import uncertainty_product, uncertainty_table
from .verify import certify, format_report

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this front end reserves 2 for
    verification failures, so remap to 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="spheremra", description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--node-cap",
        type=int,
        default=None,
        metavar="N",
        help=f"override the grid node cap (also settable via {_NODE_CAP_ENV})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("weights", help="print one axis rule as CSV (u, node, chi)")
    p.add_argument("--M", type=int, required=True, dest="order", help="rule order (nodes at cos(u pi / M))")
    p.add_argument("--alpha", type=int, required=True, help="sine-power exponent of the weight")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("analyze", help="grid samples -> Fourier coefficients")
    p.add_argument("--in", dest="in_path", required=True, help="GridSignal JSON")
    p.add_argument("--out", dest="out_path", required=True, help="Spectrum JSON")

    p = sub.add_parser("synthesize", help="Fourier coefficients -> grid samples")
    p.add_argument("--in", dest="in_path", required=True, help="Spectrum JSON")
    p.add_argument("--grid", type=int, required=True, help="target grid level")
    p.add_argument("--out", dest="out_path", required=True, help="GridSignal JSON")

    p = sub.add_parser("decompose", help="signal -> base + detail pyramid")
    p.add_argument("--in", dest="in_path", required=True, help="GridSignal JSON at level levels+1")
    p.add_argument("--levels", type=int, required=True, help="number of detail levels")
    p.add_argument("--out", dest="out_path", required=True, help="Pyramid JSON")

    p = sub.add_parser("reconstruct", help="pyramid -> signal on the finest grid")
    p.add_argument("--in", dest="in_path", required=True, help="Pyramid JSON")
    p.add_argument("--out", dest="out_path", required=True, help="GridSignal JSON")

    p = sub.add_parser("table", help="uncertainty table for the band-limited family")
    p.add_argument(
        "--m",
        type=_int_list,
        default=[1, 2, 3, 4, 5, 6, 7, 15, 31, 63, 127, 255],
        help="comma-separated band limits",
    )
    p.add_argument(
        "--lambda",
        dest="lam",
        type=_float_list,
        default=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        help="comma-separated Gegenbauer orders",
    )
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("uncertainty", help="variance report for a zonal spectrum")
    p.add_argument("--in", dest="in_path", required=True, help="ZonalSpectrum JSON")

    p = sub.add_parser("classify", help="positive-definiteness of a zonal kernel")
    p.add_argument("--in", dest="in_path", required=True, help="ZonalSpectrum JSON")

    p = sub.add_parser("verify", help="measure every transform constant against its closed form")
    p.add_argument("--n", type=_int_list, default=[2, 3], help="sphere dimensions, comma-separated")
    p.add_argument("--max-j", type=int, default=3, help="largest level to certify")
    p.add_argument("--tol", type=float, default=1e-8, help="relative tolerance per constant")
    p.add_argument("--seed", type=int, default=20240917, help="seed for the random trial spectra")
    p.add_argument("--out", default=None, help="write the report here as well as stdout")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _cmd_weights(args: argparse.Namespace) -> int:
    rule = make_rule(args.order, args.alpha)
    lines = ["u,node,chi"]
    for u, (angle, chi) in enumerate(zip(rule.nodes, rule.weights)):
        lines.append(f"{u},{format_float(math.cos(angle))},{format_float(chi)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _convert(args: argparse.Namespace, read, convert, write) -> int:
    """The file-to-file commands: read --in, convert, write --out."""
    if args.in_path == args.out_path:
        raise ValueError("input and output paths must differ")
    _emit(write(convert(read(_read(args.in_path)))) + "\n", args.out_path)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    return _convert(args, signal_from_json, analyze, spectrum_to_json)


def _cmd_synthesize(args: argparse.Namespace) -> int:
    return _convert(
        args,
        spectrum_from_json,
        lambda spectrum: synthesize_on_grid(spectrum, args.grid),
        signal_to_json,
    )


def _cmd_decompose(args: argparse.Namespace) -> int:
    return _convert(
        args,
        signal_from_json,
        lambda signal: pyramid_decompose(signal, args.levels),
        pyramid_to_json,
    )


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    return _convert(args, pyramid_from_json, pyramid_reconstruct, signal_to_json)


def _cmd_table(args: argparse.Namespace) -> int:
    rows = uncertainty_table(args.m, args.lam)
    lines = ["m,lambda,var_space,var_momentum,product,var_space_rounded,var_momentum_rounded,product_rounded"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.m),
                    format_float(row.lam),
                    format_float(row.var_space),
                    format_float(row.var_momentum),
                    format_float(row.product),
                    row.var_space_str,
                    row.var_momentum_str,
                    row.product_str,
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_uncertainty(args: argparse.Namespace) -> int:
    spec = zonal_from_json(_read(args.in_path))
    report = uncertainty_product(spec)
    text = (
        "{\n"
        f'  "lambda": {format_float(spec.lam)},\n'
        f'  "var_space": {format_float(report.var_space)},\n'
        f'  "var_momentum": {format_float(report.var_momentum)},\n'
        f'  "product": {format_float(report.product)},\n'
        f'  "lower_bound": {format_float(spec.lam + 0.5)}\n'
        "}\n"
    )
    _emit(text, None)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    result = classify(zonal_from_json(_read(args.in_path)))
    text = (
        "{\n"
        f'  "semidefinite": {"true" if result.semidefinite else "false"},\n'
        f'  "strict_up_to_cardinality": {result.strict_up_to_cardinality},\n'
        f'  "strictly_pd": {"true" if result.strictly_pd else "false"},\n'
        f'  "reason": "{result.reason}"\n'
        "}\n"
    )
    _emit(text, None)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    for n in args.n:
        if n < 2:
            raise ValueError(f"sphere dimension must be >= 2, got {n}")
    if args.max_j < 1:
        raise ValueError(f"max level must be >= 1, got {args.max_j}")
    if not math.isfinite(args.tol) or args.tol <= 0:
        raise ValueError(f"tolerance must be positive, got {args.tol}")
    report = certify(ns=tuple(args.n), max_j=args.max_j, tol=args.tol, seed=args.seed)
    text = format_report(report) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(text)
    return 0 if report.passed else 2


_HANDLERS = {
    "weights": _cmd_weights,
    "analyze": _cmd_analyze,
    "synthesize": _cmd_synthesize,
    "decompose": _cmd_decompose,
    "reconstruct": _cmd_reconstruct,
    "table": _cmd_table,
    "uncertainty": _cmd_uncertainty,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    saved_cap = os.environ.get(_NODE_CAP_ENV)
    if args.node_cap is not None:
        if args.node_cap < 1:
            sys.stderr.write(f"node cap must be positive, got {args.node_cap}\n")
            return 1
        os.environ[_NODE_CAP_ENV] = str(args.node_cap)
    try:
        # a non-finite result is reported once, by the writer's error line
        with np.errstate(all="ignore"):
            return _HANDLERS[args.subcommand](args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        # ArithmeticError covers OverflowError, e.g. a factorial too large
        # for a float in the weights of a huge sine power; an exception
        # without a message, e.g. MemoryError(), is named by its class
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 1
    finally:
        # --node-cap holds for this run only, not for later runs in the process
        os.environ.pop(_NODE_CAP_ENV, None)
        if saved_cap is not None:
            os.environ[_NODE_CAP_ENV] = saved_cap


def main(argv: list[str] | None = None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
