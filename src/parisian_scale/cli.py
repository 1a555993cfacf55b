"""Command-line front end: it parses arguments and prints results.

Subcommands: scale, law, value, efficiency, simulate, network.  `law`,
`value` and `simulate` look their name up in the library's table of laws
and objectives (the `table` module), call the row, or its Monte-Carlo
cross-check, with the parsed flags, and print the result.  Tabular
output is CSV with 17 significant digits so values round-trip through
text exactly; each column is evaluated over the whole grid in one call.
Scalar outputs are JSON.  Exit codes: 0 success, 1 numerical, domain or
malformed-file failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import DomainError, ModelError, ParisianScaleError
from .model import LevyModel, load_json, read_field
from . import control, mc, scale, table


def _grid(spec: str):
    """An --x-grid a:b:n as (a, b, n); the command lays out np.linspace(a, b, n)."""
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}, expected a:b:n")
    if n < 1 or (n > 1 and b <= a):
        raise argparse.ArgumentTypeError(f"grid {spec!r} must be strictly increasing")
    return a, b, n


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _write(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_columns(header, columns, out):
    fmt = ",".join(["%.17g"] * len(columns))   # the characters "{:.17g}".format prints
    lines = [",".join(header)] + [fmt % tuple(row) for row in np.column_stack(columns).tolist()]
    _write("\n".join(lines) + "\n", out)


def _write_json(obj, out):
    _write(json.dumps(obj, indent=2) + "\n", out)


def _build(args):
    """The model's scale context at q and, with --r, its Parisian context."""
    model = LevyModel.from_json(args.model)
    if args.r is None:
        return scale.build_scale(model, args.q), None
    pctx = scale.build_parisian(model, args.q, args.r)
    return pctx.base, pctx


def cmd_scale(args) -> int:
    ctx, pctx = _build(args)
    header = ["x", "W", "W_prime", "W_bar", "Z", "Z_bar"]
    if args.theta is not None:
        header.append("Z_theta")
    if pctx is not None:
        header += ["W_qr", "Z_qr", "scriptS"]
    x = np.linspace(*args.x_grid)     # the ends are exactly a and b
    if not np.all(x >= 0):
        raise DomainError("the scale functions are tabulated on x >= 0")
    # W-bar vanishes on x <= 0, and Z_theta is e^{theta x} there
    cols = [x, ctx.W(x), ctx.dW(x), scale.piecewise(x, x > 0, ctx.Wbar, np.zeros_like),
            ctx.Z0(x), ctx.Zbar(x)]
    if args.theta is not None:
        cols.append(ctx.Z(args.theta)(x))
    if pctx is not None:
        cols += [pctx.W(x), pctx.Z(0.0)(x), pctx.S(x)]
    _write_columns(header, cols, args.out)
    return 0


def cmd_grid(args) -> int:
    """A law (`law`) or a barrier objective (`value`) on the --x-grid."""
    row = args.table[args.name]
    if row.needs_r and args.r is None:
        return _usage_error(f"{args.kind} {args.name!r} needs --r")
    ctx, pctx = _build(args)
    x = np.linspace(*args.x_grid)     # the ends are exactly a and b
    _write_columns(["x", "value"], [x, row.column(ctx, pctx, x, args)], args.out)
    return 0


def cmd_efficiency(args) -> int:
    if args.r is None:
        return _usage_error("efficiency needs --r")
    _, pctx = _build(args)
    threshold = control.efficiency_index(pctx)
    efficient = args.k <= threshold
    patience = 0.0 if efficient else control.solve_patience(pctx, args.k)
    _write_json({"threshold": threshold, "efficient": efficient, "patience": patience},
                args.out)
    return 0


def cmd_simulate(args) -> int:
    row = args.table[args.name]
    if row.needs_r and args.r is None:
        return _usage_error(f"{args.kind} {args.name!r} needs --r")
    ctx, pctx = _build(args)
    _write_json(table.cross_check(row, ctx, pctx, args, args.x, args.paths, args.seed), args.out)
    return 0


def _subsidiary(i: int, raw) -> control.Subsidiary:
    """Subsidiary i of a network spec; a refusal names i and the spec's field."""
    try:
        c, lam = read_field(raw, "c"), read_field(raw, "lambda")
        if not 0 < c < math.inf:
            raise ModelError(f"field 'c' must be finite and positive, got {c}")
        if not 0 <= lam < math.inf:
            raise ModelError(f"field 'lambda' must be finite and nonnegative, got {lam}")
        return control.Subsidiary(
            premium=c, lam=lam,
            phases=tuple((read_field(p, "weight"), read_field(p, "rate"))
                         for p in read_field(raw, "phases", kind=list)),
            retention=read_field(raw, "alpha"),
        )
    except ModelError as exc:
        raise ModelError(f"subsidiary {i}: {exc}") from None


def _network_spec(raw) -> control.NetworkSpec:
    subs = tuple(_subsidiary(i, s)
                 for i, s in enumerate(read_field(raw, "subsidiaries", kind=list)))
    return control.NetworkSpec(subsidiaries=subs, c0=read_field(raw, "c0"),
                               q=read_field(raw, "q"))


def cmd_network(args) -> int:
    spec = load_json(args.spec, _network_spec)
    est = mc.network_estimate(spec, args.u0, args.b, n_paths=args.paths, seed=args.seed)
    _write_json({"cheap": spec.cheap, "gamma": spec.gamma, "c_tilde": spec.c_tilde,
                 "mc_value": est.mean, "se": est.std_error},
                args.out)
    return 0


def _add_common(p):
    p.add_argument("--model", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--vartheta", type=float, default=0.0)
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--K", type=float, default=0.0)
    p.add_argument("--out")


def build_parser():
    ap = argparse.ArgumentParser(prog="parisian-scale")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scale", help="tabulate scale functions on a grid")
    _add_common(p)
    p.add_argument("--x-grid", type=_grid, required=True)
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("law", help="evaluate a passage law on a grid")
    p.add_argument("name", choices=table.LAWS, metavar="law")
    _add_common(p)
    p.add_argument("--x-grid", type=_grid, required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.set_defaults(fn=cmd_grid, kind="law", table=table.LAWS)

    p = sub.add_parser("value", help="evaluate a barrier objective on a grid")
    p.add_argument("name", choices=table.OBJECTIVES, metavar="objective")
    _add_common(p)
    p.add_argument("--x-grid", type=_grid, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(fn=cmd_grid, kind="objective", table=table.OBJECTIVES)

    p = sub.add_parser("efficiency", help="efficiency threshold and patience")
    _add_common(p)
    p.set_defaults(fn=cmd_efficiency)

    p = sub.add_parser("simulate", help="Monte-Carlo cross-check of a law")
    p.add_argument("name", choices=table.SIMULATE, metavar="functional")
    _add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=_positive_int, default=100_000)
    p.set_defaults(fn=cmd_simulate, kind="functional", table=table.SIMULATE)

    p = sub.add_parser("network", help="claims-line network valuation")
    p.add_argument("--spec", required=True)
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=_positive_int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_network)
    return ap


# built once per process: a call of main only parses
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParisianScaleError, OverflowError) as exc:   # OverflowError: kappa(huge theta)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as exc:      # a missing file, or a grid too long to hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
