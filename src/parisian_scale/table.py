"""The laws and barrier objectives by name, which the command line and the Monte-Carlo
cross-check read.

Each row holds whether the law needs r, its column over a grid and, where the oracle checks
it, the path modes and functional that ``cross_check`` runs against the closed form.  Rows
read their flags from ``params``: any object with the attributes b, theta, vartheta, k, K, r.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import DomainError
from . import control, laws, mc, scale


class Check(NamedTuple):
    lower: str                  # the PathConfig modes; upper None: the law has no barrier
    upper: str | None
    functional: Callable        # params -> the mc.Functional to average
    name: str | None = None     # the `simulate` name, where it is not the row's
    theta: float | None = None  # the closed form's theta, whatever params.theta says


class Row(NamedTuple):
    needs_r: bool
    column: Callable            # (ctx, pctx, x, params) -> the values on the grid x
    check: Check | None = None  # the `simulate` cross-check, if the oracle has one


def _theta(params, absent=0.0):
    return absent if params.theta is None else params.theta


# absent flags read as 0, except theta of parisian_up_exit (see there)
LAWS = {
    "two_sided": Row(False, lambda c, p, x, a: laws.up_exit(c, x, a.b, math.inf),
                     Check("classical_absorb", "absorb", lambda a: mc.Functional("up_exit"))),
    "severity_absorbed": Row(
        False, lambda c, p, x, a: laws.severity(c, x, a.b, _theta(a)),
        Check("classical_absorb", "absorb",
              lambda a: mc.Functional("severity", theta=_theta(a)), name="severity")),
    "severity_reflected": Row(
        False, lambda c, p, x, a: laws.severity(c, x, a.b, _theta(a), 0.0),
        Check("classical_absorb", "reflect",
              lambda a: mc.Functional("severity", theta=_theta(a)))),
    "severity_infinite": Row(False, lambda c, p, x, a: laws.severity_infinite(c, x, _theta(a))),
    "bailouts_to_level": Row(
        False, lambda c, p, x, a: laws.up_exit(c, x, a.b, _theta(a)),
        Check("classical_reflect", "absorb",
              lambda a: mc.Functional("up_exit", theta=_theta(a)))),
    "dividends_penalty": Row(
        False, lambda c, p, x, a: laws.severity(c, x, a.b, _theta(a), a.vartheta)),
    "time_in_red": Row(True, lambda c, p, x, a: laws.time_in_red(c, x, a.r),
                       Check("none", None, lambda a: mc.Functional("time_in_red", red_rate=a.r))),
    # theta = infinity, the up-crossing before Parisian ruin, unless theta is given;
    # `simulate` checks that one
    "parisian_up_exit": Row(
        True, lambda c, p, x, a: laws.up_exit(p, x, a.b, _theta(a, math.inf)),
        Check("parisian_absorb", "absorb", lambda a: mc.Functional("up_exit"),
              theta=math.inf)),
    "parisian_severity": Row(
        True, lambda c, p, x, a: laws.severity(p, x, a.b, _theta(a)),
        Check("parisian_absorb", "absorb",
              lambda a: mc.Functional("severity", theta=_theta(a)))),
    "parisian_resolvent_integral": Row(
        True, lambda c, p, x, a: laws.parisian_resolvent_integral(p, x, 0.0, a.b)),
    "parisian_dividends_penalty": Row(
        True, lambda c, p, x, a: laws.severity(p, x, a.b, _theta(a), a.vartheta)),
}

OBJECTIVES = {
    "vf_dividends_classic": Row(False, lambda c, p, x, a: control.Barrier(c.W, c.dW).value(x, a.b)),
    "value_definetti": Row(False, lambda c, p, x, a: control.definetti(
        c, scale.Linear(a.k, a.K)).value(x, a.b)),
    "value_slg_classic": Row(False, lambda c, p, x, a: control.slg_classic(c, a.k).value(x, a.b)),
    "VF_div": Row(True, lambda c, p, x, a: control.parisian_dividends(p, math.inf).value(x, a.b),
                  Check("parisian_absorb", "reflect", lambda a: mc.Functional("dividends"),
                        name="vf_dividends")),
    "VF_bail": Row(True, lambda c, p, x, a: control.parisian_bailouts(p, x, a.b, math.inf),
                   Check("parisian_reflect", "absorb", lambda a: mc.Functional("bailouts"))),
    "VS_div": Row(True, lambda c, p, x, a: control.parisian_dividends(p, 0.0).value(x, a.b)),
    "VS_div_theta": Row(
        True, lambda c, p, x, a: control.parisian_dividends(p, _theta(a)).value(x, a.b)),
    "VS_bail": Row(True, lambda c, p, x, a: control.parisian_bailouts(p, x, a.b, 0.0),
                   Check("parisian_reflect", "reflect", lambda a: mc.Functional("bailouts"))),
    "slg_parisian": Row(True, lambda c, p, x, a: control.slg_parisian(p, a.k).value(x, a.b),
                        Check("parisian_reflect", "reflect",
                              lambda a: mc.Functional("slg", k=a.k), name="slg_value")),
}

# `simulate` names: the rows with a check
SIMULATE = {row.check.name or name: row
            for name, row in {**LAWS, **OBJECTIVES}.items() if row.check}


def cross_check(row: Row, ctx, pctx, params, x: float, n_paths: int, seed: int) -> dict:
    """The row's functional over n_paths paths from x beside its closed form, as a dict of
    mean, se, ci95, tail_bound, horizon, analytic and z_score; pctx is None without r."""
    b, upper = params.b, row.check.upper
    if upper is None:
        # no barrier in the law: absorb far above, past any return to the red
        b, upper = max(60.0, x + 60.0), "absorb"
    elif not 0 <= x <= b:
        raise DomainError(f"the start must lie in [0, b], got x={x}, b={b}")
    cfg = mc.PathConfig(ctx.model, x, q=ctx.q, upper_barrier=b, upper_mode=upper,
                        lower=row.check.lower, r=params.r or 0.0)
    fn = row.check.functional(params)
    if row.check.theta is not None:
        params = SimpleNamespace(**{**vars(params), "theta": row.check.theta})
    analytic = row.column(ctx, pctx, x, params)
    est = mc.estimate(cfg, fn, n_paths, seed=seed)
    zscore = (est.mean - analytic) / est.std_error if est.std_error > 0 else 0.0
    return {"mean": est.mean, "se": est.std_error, "ci95": list(est.ci95),
            "tail_bound": est.tail_bound, "horizon": est.horizon, "analytic": analytic,
            "z_score": zscore}
