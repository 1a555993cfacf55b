"""Command-line front end.

Subcommands: scale, law, value, efficiency, simulate, network.  Tabular
output is CSV with 17 significant digits so values round-trip through
text exactly; each column is evaluated over the whole grid in one call.
Scalar outputs are JSON.  Exit codes: 0 success, 1 numerical or domain
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import ParisianScaleError
from .model import LevyModel
from . import control, laws, mc, scale

_FMT = "{:.17g}"

_LAWS = (
    "two_sided", "severity_absorbed", "severity_reflected", "severity_infinite",
    "bailouts_to_level", "dividends_penalty", "time_in_red",
    "parisian_up_exit", "parisian_severity", "parisian_resolvent_integral",
    "parisian_dividends_penalty",
)

_VALUES = (
    "vf_dividends_classic", "value_definetti", "value_slg_classic",
    "VF_div", "VF_bail", "VS_div", "VS_div_theta", "VS_bail", "slg_parisian",
)

_FUNCTIONALS = ("two_sided", "severity", "bailouts_to_level", "parisian_up_exit",
                "parisian_severity", "vf_dividends", "slg_value", "time_in_red")
# simulate functionals that read --r (the observation rate, or the red-time rate)
_FUNCTIONALS_NEEDING_R = ("parisian_up_exit", "parisian_severity", "vf_dividends",
                          "slg_value", "time_in_red")


def _parse_grid(spec: str):
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise SystemExit(_usage_error(f"bad grid spec {spec!r}, expected a:b:n"))
    if n < 1 or (n > 1 and b <= a):
        raise SystemExit(_usage_error(f"grid {spec!r} must be strictly increasing"))
    return np.linspace(a, b, n)     # the ends are exactly a and b


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _write_columns(header, columns, out):
    lines = [",".join(header)]
    for row in np.column_stack(columns).tolist():
        lines.append(",".join(_FMT.format(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(obj, out):
    text = json.dumps(obj, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_model(path: str) -> LevyModel:
    return LevyModel.from_json(path)


def _build(args):
    model = _load_model(args.model)
    ctx = scale.build_scale(model, args.q)
    pctx = None
    if args.r is not None:
        pctx = scale.build_parisian(model, args.q, args.r)
    return model, ctx, pctx


def cmd_scale(args) -> int:
    _, ctx, pctx = _build(args)
    header = ["x", "W", "W_prime", "W_bar", "Z", "Z_bar"]
    if args.theta is not None:
        header.append("Z_theta")
    if pctx is not None:
        header += ["W_qr", "Z_qr", "scriptS"]
    x = _parse_grid(args.x_grid)
    cols = [x, scale.eval_W(ctx, x), scale.eval_W(ctx, x, deriv_order=1),
            scale.eval_Wbar(ctx, x), scale.eval_Z0_family(ctx, x, "Z"),
            scale.eval_Z0_family(ctx, x, "Zbar")]
    if args.theta is not None:
        cols.append(scale.eval_Z(ctx, x, args.theta))
    if pctx is not None:
        cols += [scale.eval_parisian_Z(pctx, x, math.inf),
                 scale.eval_parisian_Z(pctx, x, 0.0),
                 scale.eval_scriptS(pctx, x)]
    _write_columns(header, cols, args.out)
    return 0


def cmd_law(args) -> int:
    if args.name not in _LAWS:
        return _usage_error(f"unknown law {args.name!r}; valid laws: {', '.join(_LAWS)}")
    _, ctx, pctx = _build(args)
    theta = args.theta if args.theta is not None else 0.0
    vartheta = args.vartheta if args.vartheta is not None else 0.0
    b = args.b

    def column(x):
        if args.name == "two_sided":
            return laws.two_sided_exit(ctx, x, 0.0, b)
        if args.name == "severity_absorbed":
            return laws.severity_absorbed(ctx, x, b, theta)
        if args.name == "severity_reflected":
            return laws.severity_reflected(ctx, x, b, theta)
        if args.name == "severity_infinite":
            return laws.severity_infinite(ctx, x, theta)
        if args.name == "bailouts_to_level":
            return laws.bailouts_to_level(ctx, x, b, theta)
        if args.name == "dividends_penalty":
            return laws.dividends_penalty_classic(ctx, x, b, theta, vartheta)
        if args.name == "time_in_red":
            return laws.time_in_red(ctx, x, args.r)
        if args.name == "parisian_up_exit":
            return laws.parisian_up_exit(pctx, x, b, theta if args.theta is not None else math.inf)
        if args.name == "parisian_severity":
            return laws.parisian_severity(pctx, x, b, theta)
        if args.name == "parisian_resolvent_integral":
            return laws.parisian_resolvent_integral(pctx, x, 0.0, b)
        if args.name == "parisian_dividends_penalty":
            return laws.parisian_dividends_penalty(pctx, x, b, theta, vartheta)
        raise AssertionError(args.name)

    if (args.name == "time_in_red" or args.name.startswith("parisian")) and pctx is None:
        return _usage_error(f"law {args.name!r} needs --r")
    x = _parse_grid(args.x_grid)
    _write_columns(["x", "value"], [x, column(x)], args.out)
    return 0


def cmd_value(args) -> int:
    if args.name not in _VALUES:
        return _usage_error(f"unknown objective {args.name!r}; valid objectives: {', '.join(_VALUES)}")
    _, ctx, pctx = _build(args)
    b, k, K = args.b, args.k or 0.0, args.K or 0.0
    theta = args.theta if args.theta is not None else 0.0

    def column(x):
        if args.name == "vf_dividends_classic":
            return control.vf_dividends_classic(ctx, x, b)
        if args.name == "value_definetti":
            return control.value_definetti(ctx, x, b, scale.Linear(k, K))
        if args.name == "value_slg_classic":
            return control.value_slg_classic(ctx, x, b, k)
        if args.name == "slg_parisian":
            return control.slg_parisian_value(pctx, x, b, k)
        return control.value_parisian(pctx, x, b, args.name, theta)

    if args.name in ("VF_div", "VF_bail", "VS_div", "VS_div_theta", "VS_bail",
                     "slg_parisian") and pctx is None:
        return _usage_error(f"objective {args.name!r} needs --r")
    x = _parse_grid(args.x_grid)
    _write_columns(["x", "value"], [x, column(x)], args.out)
    return 0


def cmd_efficiency(args) -> int:
    _, _, pctx = _build(args)
    if pctx is None:
        return _usage_error("efficiency needs --r")
    threshold = control.efficiency_index(pctx)
    k = args.k if args.k is not None else 0.0
    efficient = k <= threshold
    patience = 0.0 if efficient else control.solve_patience(pctx, k)
    _write_json({"threshold": threshold, "efficient": efficient, "patience": patience},
                args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.name not in _FUNCTIONALS:
        return _usage_error(
            f"unknown functional {args.name!r}; valid functionals: {', '.join(_FUNCTIONALS)}")
    if args.name in _FUNCTIONALS_NEEDING_R and args.r is None:
        return _usage_error(f"functional {args.name!r} needs --r")
    model, ctx, pctx = _build(args)
    x, b = args.x, args.b
    theta = args.theta if args.theta is not None else 0.0
    if args.name == "two_sided":
        cfg = mc.PathConfig(model, x, q=args.q, upper_barrier=b, upper_mode="absorb",
                            lower="classical_absorb")
        fn = mc.Functional("up_exit")
        analytic = laws.two_sided_exit(ctx, x, 0.0, b)
    elif args.name == "severity":
        cfg = mc.PathConfig(model, x, q=args.q, upper_barrier=b, upper_mode="absorb",
                            lower="classical_absorb")
        fn = mc.Functional("severity", theta=theta)
        analytic = laws.severity_absorbed(ctx, x, b, theta)
    elif args.name == "bailouts_to_level":
        cfg = mc.PathConfig(model, x, q=args.q, upper_barrier=b, upper_mode="absorb",
                            lower="classical_reflect")
        fn = mc.Functional("up_exit", theta=theta)
        analytic = laws.bailouts_to_level(ctx, x, b, theta)
    elif args.name == "parisian_up_exit":
        cfg = mc.PathConfig(model, x, q=args.q, upper_barrier=b, upper_mode="absorb",
                            lower="parisian_absorb", r=args.r)
        fn = mc.Functional("up_exit")
        analytic = laws.parisian_up_exit(pctx, x, b, math.inf)
    elif args.name == "parisian_severity":
        cfg = mc.PathConfig(model, x, q=args.q, upper_barrier=b, upper_mode="absorb",
                            lower="parisian_absorb", r=args.r)
        fn = mc.Functional("severity", theta=theta)
        analytic = laws.parisian_severity(pctx, x, b, theta)
    elif args.name == "vf_dividends":
        cfg = mc.PathConfig(model, x, q=args.q, upper_barrier=b, upper_mode="reflect",
                            lower="parisian_absorb", r=args.r)
        fn = mc.Functional("dividends")
        analytic = control.value_parisian(pctx, x, b, "VF_div")
    elif args.name == "slg_value":
        cfg = mc.PathConfig(model, x, q=args.q, upper_barrier=b, upper_mode="reflect",
                            lower="parisian_reflect", r=args.r)
        fn = mc.Functional("slg", k=args.k or 0.0)
        analytic = control.slg_parisian_value(pctx, x, b, args.k or 0.0)
    else:  # time_in_red
        cfg = mc.PathConfig(model, x, q=0.0, upper_barrier=max(60.0, x + 60.0),
                            upper_mode="absorb", lower="none")
        fn = mc.Functional("time_in_red", red_rate=args.r)
        analytic = laws.time_in_red(ctx, x, args.r)
    est = mc.estimate(cfg, fn, args.paths, seed=args.seed)
    zscore = (est.mean - analytic) / est.std_error if est.std_error > 0 else 0.0
    _write_json({"mean": est.mean, "se": est.std_error, "ci95": list(est.ci95),
                 "tail_bound": est.tail_bound, "analytic": analytic, "z_score": zscore},
                args.out)
    return 0


def cmd_network(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        raw = json.load(fh)
    subs = tuple(
        control.Subsidiary(
            premium=s["c"], lam=s["lambda"],
            phases=tuple((p["weight"], p["rate"]) for p in s["phases"]),
            retention=s["alpha"],
        )
        for s in raw["subsidiaries"]
    )
    spec = control.NetworkSpec(subsidiaries=subs, c0=raw["c0"], q=raw["q"])
    check = control.network_check(spec)
    est = control.network_value_mc(spec, args.u0, args.b, n_paths=args.paths, seed=args.seed)
    _write_json({"cheap": check["cheap"], "gamma": check["gamma"],
                 "c_tilde": check["c_tilde"], "mc_value": est.mean, "se": est.std_error},
                args.out)
    return 0


def _add_common(p, q_required=True):
    p.add_argument("--model", required=True)
    p.add_argument("--q", type=float, required=q_required, default=0.0)
    p.add_argument("--r", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--vartheta", type=float)
    p.add_argument("--k", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--out")


def build_parser():
    ap = argparse.ArgumentParser(prog="parisian-scale")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scale", help="tabulate scale functions on a grid")
    _add_common(p)
    p.add_argument("--x-grid", required=True)
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("law", help="evaluate a passage law on a grid")
    p.add_argument("name")
    _add_common(p)
    p.add_argument("--x-grid", required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.set_defaults(fn=cmd_law)

    p = sub.add_parser("value", help="evaluate a barrier objective on a grid")
    p.add_argument("name")
    _add_common(p)
    p.add_argument("--x-grid", required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(fn=cmd_value)

    p = sub.add_parser("efficiency", help="efficiency threshold and patience")
    _add_common(p)
    p.set_defaults(fn=cmd_efficiency)

    p = sub.add_parser("simulate", help="Monte-Carlo cross-check of a law")
    p.add_argument("name")
    _add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=_positive_int, default=100_000)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("network", help="claims-line network valuation")
    p.add_argument("--spec", required=True)
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=_positive_int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_network)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParisianScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
