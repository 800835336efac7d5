"""Command-line interface for the qgraph toolkit.

Subcommands
-----------
``convert``
    Normalize a coupling (matrix pair or named family) into ST form.
``build``
    Materialize the approximating graph for an ST form at a given d.
``sweep``
    Run a convergence sweep over d and report the fitted rate.
``budget``
    Evaluate the error-exponent budget at a rate parameter alpha.
``spectrum``
    Print the low truncated spectrum of a coupling or approx graph as CSV.

Exit codes
----------
0   success
1   unreadable input: bad JSON, wrong document shape, I/O failure
2   semantically invalid data: inadmissible coupling, out-of-range alpha
    or metric parameters
3   singular half-length d (the message names the offending pair)
4   sweep failed at every d value
5   eigenvalue count out of range: the requested count lies beyond every
    finite bracket (the message reports the scanned window)

Anticipated failures print a one-line message to stderr, never a
traceback.  The environment variable ``QGRAPH_TOL`` overrides the
default validation tolerance of 1e-10 process-wide.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from . import serialize
from .budget import budget_to_json, exponent_budget, optimal_alpha
from .builder import ApproxGraph, build_approx_graph
from .convergence import (
    DEFAULT_D_VALUES,
    EigGap,
    HSResolvent,
    ScatteringNorm,
    SweepConfig,
    run_sweep,
    write_report_csv,
)
from .couplings import (
    NamedCoupling,
    STForm,
    VertexCoupling,
    named_to_st,
    st_from_ab,
    validate_coupling,
)
from .errors import (
    DegenerateArgumentError,
    InputError,
    QGraphError,
    ScanRangeError,
    SingularDError,
    StructuralError,
)
from .graphs import star_system, system_from_approx, truncate
from .solver import eigenvalues_compact

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_SINGULAR_D = 3
EXIT_ALL_D_FAILED = 4
EXIT_SCAN = 5


class _CliFailure(Exception):
    """An anticipated failure with a fixed exit code and stderr message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliFailure(EXIT_PARSE, f"cannot read {path}: {exc.strerror or exc}")


def _load(path: str):
    """Parse an input document; any parse or shape problem exits 1."""
    text = _read_text(path)
    try:
        return serialize.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliFailure(EXIT_PARSE, f"{path}: invalid JSON: {exc}")
    except (InputError, StructuralError) as exc:
        raise _CliFailure(EXIT_PARSE, f"{path}: {exc}")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliFailure(EXIT_PARSE, f"cannot write {path}: {exc.strerror or exc}")


def _as_st(obj, source: str) -> STForm:
    """Coerce any coupling document to an ST form; exit 2 if inadmissible."""
    if isinstance(obj, STForm):
        return obj
    if isinstance(obj, NamedCoupling):
        return named_to_st(obj)
    if isinstance(obj, VertexCoupling):
        result = validate_coupling(obj)
        if not result.ok:
            for violation in result.violations:
                _err(f"{source}: {violation}")
            raise _CliFailure(EXIT_INVALID, f"{source}: coupling fails validation")
        return st_from_ab(obj)
    raise _CliFailure(
        EXIT_PARSE, f"{source}: expected a coupling document, got an approx graph"
    )


def _parse_alpha(text: str):
    """Parse --alpha as a fraction (``1/14``) or a float (``0.07``)."""
    try:
        if "/" in text:
            return Fraction(text)
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid alpha {text!r}")


def _parse_k_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid momentum list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("momentum list is empty")
    return values


def _parse_d_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"invalid d range {text!r}: expected p0:p1 (d = 2^-p for p = p0..p1)"
        )
    try:
        p0, p1 = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid d range {text!r}: bounds must be integers")
    if p0 > p1:
        raise argparse.ArgumentTypeError(f"invalid d range {text!r}: need p0 <= p1")
    return p0, p1


def _float_format(value: float | None) -> str:
    if value is None:
        return "nan"
    return format(value, ".17e")


def cmd_convert(args) -> int:
    st = _as_st(_load(args.input), args.input)
    _write_text(args.out, serialize.dumps(st))
    return EXIT_OK


def cmd_build(args) -> int:
    st = _as_st(_load(args.input), args.input)
    g = build_approx_graph(st, args.d)
    _write_text(args.out, serialize.dumps(g))
    return EXIT_OK


def _sweep_metric(args):
    if args.metric == "scattering":
        return ScatteringNorm(k_list=args.k)
    if args.metric == "hs":
        return HSResolvent(z=complex(args.z_re, args.z_im), L=args.L, quad_n=args.quad_n)
    return EigGap(count=args.count, L=args.L)


def _sweep_d_values(args) -> tuple[float, ...]:
    if args.d is not None:
        return (args.d,)
    if args.d_range is not None:
        p0, p1 = args.d_range
        return tuple(2.0 ** -p for p in range(p0, p1 + 1))
    return DEFAULT_D_VALUES


def cmd_sweep(args) -> int:
    st = _as_st(_load(args.input), args.input)
    try:
        cfg = SweepConfig(st=st, metric=_sweep_metric(args), d_values=_sweep_d_values(args))
    except InputError as exc:
        raise _CliFailure(EXIT_INVALID, str(exc))
    report = run_sweep(cfg)
    if not report.values:
        for point in report.points:
            _err(f"d={point.d:g}: {point.status}")
        _err("sweep failed at every d value")
        return EXIT_ALL_D_FAILED
    if args.out is not None:
        write_report_csv(report, args.out)
    print(f"slope={_float_format(report.slope)} residual={_float_format(report.residual)}")
    return EXIT_OK


def cmd_budget(args) -> int:
    if args.alpha is None:
        alpha, combined = optimal_alpha(args.eq29)
        print(
            f"optimal alpha = {alpha} ({float(alpha):.17e}), "
            f"combined exponent = {combined} ({float(combined):.17e})"
        )
        if args.out is not None:
            budget = exponent_budget(alpha, args.eq29)
            _write_text(args.out, _budget_text(budget))
        return EXIT_OK
    try:
        budget = exponent_budget(args.alpha, args.eq29)
    except InputError as exc:
        raise _CliFailure(EXIT_INVALID, str(exc))
    _write_text(args.out, _budget_text(budget))
    return EXIT_OK


def _budget_text(budget) -> str:
    return json.dumps(budget_to_json(budget), indent=2, sort_keys=True) + "\n"


def cmd_spectrum(args) -> int:
    obj = _load(args.input)
    if isinstance(obj, ApproxGraph):
        sys_ = system_from_approx(obj)
    else:
        sys_ = star_system(_as_st(obj, args.input))
    trunc = truncate(sys_, L=args.L)
    values = eigenvalues_compact(trunc, args.count)
    lines = ["index,lambda"]
    for index, lam in enumerate(values, start=1):
        lines.append(f"{index},{_float_format(lam)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgraph",
        description="Approximate self-adjoint vertex couplings by delta-coupled magnetic graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    conv = sub.add_parser(
        "convert",
        parents=[common],
        help="normalize a coupling into ST form",
        description="Read a coupling document (matrix pair, named family, or ST form) "
        "and write its ST normal form as JSON.",
    )
    conv.add_argument("input", help="coupling JSON file, or - for stdin")
    conv.set_defaults(func=cmd_convert)

    bld = sub.add_parser(
        "build",
        parents=[common],
        help="build the approximating graph at a given d",
        description="Read a coupling document and write the approximating delta graph "
        "at half-length d as JSON.",
    )
    bld.add_argument("input", help="coupling JSON file, or - for stdin")
    bld.add_argument("--d", type=float, required=True, help="half-length d > 0")
    bld.set_defaults(func=cmd_build)

    swp = sub.add_parser(
        "sweep",
        parents=[common],
        help="run a convergence sweep over d",
        description="Evaluate a convergence metric over a sequence of d values, "
        "fit the decay rate, and print 'slope=<v> residual=<v>'.  The per-d CSV "
        "report is written only when --out is given.  An inconclusive sweep still "
        "exits 0; only failure at every d exits 4.",
    )
    swp.add_argument("input", help="coupling JSON file, or - for stdin")
    swp.add_argument(
        "--metric",
        choices=("scattering", "hs", "eig"),
        default="scattering",
        help="convergence metric (default: scattering)",
    )
    dgroup = swp.add_mutually_exclusive_group()
    dgroup.add_argument("--d", type=float, help="single half-length d")
    dgroup.add_argument(
        "--d-range",
        dest="d_range",
        type=_parse_d_range,
        metavar="p0:p1",
        help="dyadic range d = 2^-p for p = p0..p1 (default: 2:10)",
    )
    swp.add_argument(
        "--k",
        type=_parse_k_list,
        default=(0.5, 1.0, 2.0),
        metavar="K1,K2,...",
        help="momenta for the scattering metric (default: 0.5,1,2)",
    )
    swp.add_argument("--z-re", type=float, default=-1.0, help="Re z for the hs metric (default: -1)")
    swp.add_argument("--z-im", type=float, default=0.0, help="Im z for the hs metric (default: 0)")
    swp.add_argument("--L", type=float, default=1.0, help="truncation length (default: 1)")
    swp.add_argument("--count", type=int, default=5, help="eigenvalue count for the eig metric")
    swp.add_argument(
        "--quad-n",
        dest="quad_n",
        type=int,
        default=64,
        help="quadrature nodes per edge for the hs metric (default: 64; "
        "values below 64 are outside the supported accuracy contract)",
    )
    swp.set_defaults(func=cmd_sweep)

    bud = sub.add_parser(
        "budget",
        parents=[common],
        help="evaluate the error-exponent budget",
        description="Write the exponent budget at the given alpha as JSON.  Without "
        "--alpha, print the optimal alpha and its combined exponent instead (the "
        "JSON at that alpha is still written when --out is given).",
    )
    bud.add_argument(
        "--alpha",
        type=_parse_alpha,
        help="rate parameter, as a fraction like 1/14 or a float",
    )
    bud.add_argument(
        "--eq29",
        action="store_true",
        help="assume the improved resolvent estimate holds",
    )
    bud.set_defaults(func=cmd_budget)

    spm = sub.add_parser(
        "spectrum",
        parents=[common],
        help="print the low truncated spectrum as CSV",
        description="Truncate the half-lines of a coupling's star graph (or of an "
        "approx graph) at length L with Dirichlet ends and print the lowest "
        "eigenvalues as 'index,lambda' CSV.",
    )
    spm.add_argument("input", help="coupling or approx-graph JSON file, or - for stdin")
    spm.add_argument("--L", type=float, default=1.0, help="truncation length (default: 1)")
    spm.add_argument("--count", type=int, default=10, help="number of eigenvalues (default: 10)")
    spm.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as fail:
        _err(fail.message)
        return fail.code
    except (SingularDError, DegenerateArgumentError) as exc:
        _err(str(exc))
        return EXIT_SINGULAR_D
    except ScanRangeError as exc:
        message = str(exc)
        if exc.window is not None:
            lo = "-inf" if exc.window[0] is None else format(exc.window[0], "g")
            hi = "+inf" if exc.window[1] is None else format(exc.window[1], "g")
            message += f" (scanned window [{lo}, {hi}])"
        _err(message)
        return EXIT_SCAN
    except QGraphError as exc:
        _err(str(exc))
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
