"""The three benchmark workloads: inputs made from a seed, operations, checks.

A workload is a fixed list of operation slots (one *round*).  The seed fills
in the numbers of every slot (model parameters, q, r, theta, b, k,
Monte-Carlo seeds) but never the kind of a slot or its grid length, so the
work in a round, and which operations can fail, are the same for every seed.

Each operation is a callable that does the timed work and a check that
compares what it returned with an independent reference (``reference.py``)
or with a property of the method.  ``Op.prime`` computes the reference once,
before any operation is timed; the checks of the timed rounds reuse it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

import reference as ref

# relative accuracy asked of every closed-form value, with an absolute floor
# for values that are exactly 0 in theory (a severity law at x = b, W(0) when
# sigma > 0); the floor is far below the O(1) size of transforms and values
RTOL = 1e-9
ATOL = 1e-12
# transforms of nonnegative functionals lie in [0, 1] for theta >= 0
RANGE_TOL = 1e-13
# efficiency threshold round trip through solve_patience (its tol is 1e-8)
PATIENCE_RTOL = 1e-7
# Monte-Carlo acceptance: |mean - closed form| < Z_MAX se, tail < TAIL_SHARE se
Z_MAX = 4.5
TAIL_SHARE = 0.1
# network pathwise lemma and cone invariance
NETWORK_RTOL = 1e-9
SHORTFALL_MAX = 1e-9
# optimizer checks: grid maximum tolerance and first-order condition
G_RTOL = 1e-9
FOC_H = 1e-4
FOC_TOL = 1e-5

# largest Phi_{q+r} b of the ordinary requests (see Tabulate._point_request)
PHI_B_MAX = 5.0
CHUNK_PATHS = 1 << 16       # the simulator's chunk size when this was written
ORACLE_X, ORACLE_B, ORACLE_Q, ORACLE_R = 0.6, 1.5, 2.0 / 3.0, 1.0 / 3.0
TIME_IN_RED_LEVEL, TIME_IN_RED_HORIZON = 20.0, 100.0
WIDE_B = (30.0, 100.0)
WIDE_B_LAWS = ("severity_absorbed", "severity_reflected", "dividends_penalty",
               "parisian_severity", "parisian_dividends_penalty")
TRANSFORMS = ("two_sided", "severity_absorbed", "severity_reflected", "severity_infinite",
              "bailouts_to_level", "dividends_penalty", "time_in_red", "parisian_up_exit",
              "parisian_severity", "parisian_dividends_penalty")
LAWS = TRANSFORMS + ("parisian_resolvent_integral",)
VALUES = ("vf_dividends_classic", "value_definetti", "value_slg_classic", "VF_div",
          "VF_bail", "VS_div", "VS_div_theta", "VS_bail", "slg_parisian")
MODEL_CLASSES = ("cp1", "cp3", "cp3_sigma", "brownian")
M1 = {"c": 1.0, "sigma2": 0.0, "lambda": 1.0, "phases": [{"weight": 1.0, "rate": 2.0}]}
M3 = {"c": 2.0, "sigma2": 0.0, "lambda": 1.5,
      "phases": [{"weight": 0.3, "rate": 1.0}, {"weight": 0.5, "rate": 3.0},
                 {"weight": 0.2, "rate": 8.0}]}


@dataclass
class Op:
    """One timed operation and the check of its result."""

    label: str                      # what the operation is, for reports
    group: str                      # reporting group (short, long, absorb, ...)
    points: int | Callable[[object], int]   # work units: grid points, G evaluations, paths
    call: Callable[[], object]
    check: Callable[[object], str | None]   # None when correct, else why not
    known_fault: bool = False       # member of the wide-b group (ROADMAP item 3)
    prime: Callable[[], object] | None = None   # fills the reference cache, untimed

    def __post_init__(self):
        if self.prime is None:
            self.prime = lambda: self.check(self.call())


def rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(ord(ch) * 131 ** i for i, ch in enumerate(name)) % 2**32])


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def make_model(rng, kind: str) -> dict:
    """A model of one class with a drift of at least 15% of the premium."""
    if kind == "brownian":
        return {"c": 0.0, "sigma2": _u(rng, 0.5, 2.0), "lambda": 0.0, "phases": []}
    if kind == "cp1":
        rates, weights = [_u(rng, 1.5, 3.0)], [1.0]
    else:
        rates = [_u(rng, 0.8, 1.2), _u(rng, 2.5, 3.5), _u(rng, 6.0, 9.0)]
        raw = [_u(rng, 0.2, 0.5) for _ in rates]
        weights = [w / sum(raw) for w in raw]
    lam = _u(rng, 0.5, 1.5)
    mean_claim = sum(w / m for w, m in zip(weights, rates))
    c = lam * mean_claim / (1.0 - _u(rng, 0.15, 0.6))
    sigma2 = _u(rng, 0.1, 0.5) if kind == "cp3_sigma" else 0.0
    return {"c": c, "sigma2": sigma2, "lambda": lam,
            "phases": [{"weight": w, "rate": m} for w, m in zip(weights, rates)]}


def _rel_err(got: float, want) -> float:
    return float(abs(mp.mpf(got) - want) / abs(want)) if want != 0 else math.inf


def _close(got: float, want) -> bool:
    if not math.isfinite(got):
        return False
    return abs(mp.mpf(got) - want) <= RTOL * abs(want) + ATOL


def _positive_rates(model: ref.Model, s_values, thetas):
    """Largest growth rate a formula can form: Phi_s, theta, the slowest decay."""
    rates = [mp.mpf(1)] + [mp.mpf(t) for t in thetas if t is not None and t != math.inf]
    for s in s_values:
        roots = [mp.re(r) for r in model.roots(mp.mpf(s))]
        rates.append(max(roots))
        neg = [-r for r in roots if r < 0]
        if neg:
            rates.append(min(neg))
    return float(max(rates))


def working_dps(model: ref.Model, s_values, thetas, span: float) -> int:
    """Digits for exponents up to (largest rate) * span, on top of BASE_DPS."""
    with mp.workdps(ref.BASE_DPS):
        top = _positive_rates(model, s_values, thetas)
    return ref.BASE_DPS + int(math.ceil(top * span / math.log(10.0)))


# ---------------------------------------------------------------------------
# tabulate


def read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return header, [[float(v) for v in row] for row in rows[1:]]


@dataclass
class Request:
    """One ``parisian-scale`` request and what is needed to check it."""

    argv: list
    kind: str                       # scale | law | value | efficiency
    name: str
    model: dict
    q: float
    r: float | None = None
    theta: float | None = None
    vartheta: float | None = None
    b: float | None = None
    k: float | None = None
    K: float | None = None
    n: int = 1
    sample: tuple = ()              # grid indices checked against the reference
    wide_b: bool = False


class Tabulate:
    """In-process ``cli.main`` requests whose CSV/JSON output is parsed and checked."""

    name = "tabulate"

    def __init__(self, seed: int, workdir: str, cli, short_n=(21, 26, 31), long_n=1000):
        self.cli = cli
        self.out = os.path.join(workdir, "out.txt")
        rng = rng_for(seed, self.name)
        self.models = {kind: make_model(rng, kind) for kind in MODEL_CLASSES}
        self.models["m1"] = M1
        self.paths = {}
        for kind, model in self.models.items():
            path = os.path.join(workdir, f"model-{kind}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(model, fh)
            self.paths[kind] = path
        self.requests = self._requests(rng, short_n, long_n)

    def _ctx(self, rng, kind):
        return {"model": kind, "q": _u(rng, 0.1, 1.5), "r": _u(rng, 0.2, 3.0)}

    def _requests(self, rng, short_n, long_n):
        reqs = []
        lengths = iter(short_n * 100)

        def short():
            # grid lengths cycle by slot, so a round's work is the same for every seed
            return next(lengths)

        # laws and values in pairs: a fresh (model, q, r), then the same
        # context again with a new b and theta
        for i, name in enumerate(LAWS + VALUES):
            if name == "time_in_red":
                model = "cp3_sigma"             # needs q = 0 and a positive drift
            elif name == "two_sided":
                model = "brownian"              # also checked against the sinh form
            else:
                model = MODEL_CLASSES[i % 4]
            ctx = self._ctx(rng, model)
            kind = "law" if name in LAWS else "value"
            for again in (False, True):
                reqs.append(self._point_request(rng, kind, name, ctx, short(),
                                                infinite_theta=again and name == "parisian_up_exit"))
        for kind in MODEL_CLASSES:
            reqs.append(self._scale_request(rng, self._ctx(rng, kind), short(),
                                            with_theta=kind != "cp1", with_r=kind != "cp3"))
        for i, kind in enumerate(MODEL_CLASSES):
            reqs.append(self._efficiency_request(rng, self._ctx(rng, kind), efficient=i % 2 == 0))
        # long grids: expmix evaluation inside the laws dominates
        reqs.append(self._scale_request(rng, self._ctx(rng, "cp3_sigma"), long_n, True, True))
        reqs.append(self._point_request(rng, "law", "parisian_dividends_penalty",
                                        self._ctx(rng, "cp3"), long_n))
        for law in WIDE_B_LAWS:
            for b in WIDE_B:
                reqs.append(self._wide_b_request(law, b))
        return reqs

    def _common(self, ctx, r=True):
        argv = ["--model", self.paths[ctx["model"]], "--q", repr(ctx["q"])]
        if r:
            argv += ["--r", repr(ctx["r"])]
        return argv

    def _point_request(self, rng, kind, name, ctx, n, infinite_theta=False):
        # b on a 1/16 grid, as users type it: the CLI's last grid point
        # a + (b - a) (n - 1)/(n - 1) can exceed other b by one ulp (see
        # README.md).  Phi b stays below PHI_B_MAX: beyond it the cancellation
        # in Z(x) - W(x) F(b)/G(b) makes some draws fail (the wide-b group shows it)
        model = ref.Model.from_dict(self.models[ctx["model"]])
        with mp.workdps(15):
            phi = float(max(model.phi(ctx["q"]), model.phi(ctx["q"] + ctx["r"])))
        b = max(min(int(rng.integers(16, 65)), int(16 * PHI_B_MAX / phi)), 4) / 16.0
        theta = _u(rng, 0.0, 3.0)
        req = Request(argv=[], kind=kind, name=name, model=self.models[ctx["model"]],
                      q=ctx["q"], r=ctx["r"], theta=theta, b=b, n=n)
        if name == "time_in_red":
            req.q, req.theta = 0.0, None
            argv = ["--model", self.paths[ctx["model"]], "--q", "0.0", "--r", repr(ctx["r"])]
        else:
            argv = self._common(ctx)
            if infinite_theta:
                req.theta = None                 # theta = INF: no-insolvency up-crossing
            if req.theta is not None:
                argv += ["--theta", repr(req.theta)]
            if name in ("dividends_penalty", "parisian_dividends_penalty"):
                req.vartheta = _u(rng, 0.0, 2.0)
                argv += ["--vartheta", repr(req.vartheta)]
            if kind == "value":
                req.k, req.K = _u(rng, 1.2, 3.0), _u(rng, 0.0, 1.0)
                argv += ["--k", repr(req.k), "--K", repr(req.K)]
        req.argv = [kind, name] + argv + ["--b", repr(b), "--x-grid", f"0:{b!r}:{n}"]
        req.sample = self._sample(rng, n)
        return req

    def _scale_request(self, rng, ctx, n, with_theta, with_r):
        top = _u(rng, 2.0, 5.0)
        req = Request(argv=[], kind="scale", name="scale", model=self.models[ctx["model"]],
                      q=ctx["q"], r=ctx["r"] if with_r else None,
                      theta=_u(rng, 0.0, 3.0) if with_theta else None, b=top, n=n)
        argv = self._common(ctx, r=with_r)
        if with_theta:
            argv += ["--theta", repr(req.theta)]
        req.argv = ["scale"] + argv + ["--x-grid", f"0:{top!r}:{n}"]
        req.sample = self._sample(rng, n)
        return req

    def _efficiency_request(self, rng, ctx, efficient):
        model = ref.Model.from_dict(self.models[ctx["model"]])
        with mp.workdps(ref.BASE_DPS):
            thr = float(ref.threshold(model, ctx["q"], ctx["r"]))
        k = thr * (_u(rng, 0.5, 0.9) if efficient else _u(rng, 1.2, 3.0))
        req = Request(argv=[], kind="efficiency", name="efficiency",
                      model=self.models[ctx["model"]], q=ctx["q"], r=ctx["r"], k=k)
        req.argv = ["efficiency"] + self._common(ctx) + ["--k", repr(k)]
        return req

    def _wide_b_request(self, law, b):
        """The fixed group that ROADMAP item 3's cancellation breaks: m1, x = b/2."""
        q, r, theta, vartheta = 2.0 / 3.0, 1.0 / 3.0, 0.7, 0.5
        argv = ["law", law, "--model", self.paths["m1"], "--q", repr(q), "--r", repr(r),
                "--theta", repr(theta)]
        if "dividends" in law:
            argv += ["--vartheta", repr(vartheta)]
        argv += ["--b", repr(b), "--x-grid", f"0:{b!r}:21"]
        return Request(argv=argv, kind="law", name=law, model=M1, q=q, r=r, theta=theta,
                       vartheta=vartheta if "dividends" in law else 0.0, b=b, n=21,
                       sample=(10,), wide_b=True)

    @staticmethod
    def _sample(rng, n):
        picks = {0, n - 1} if n < 100 else {0}
        picks.update(int(i) for i in rng.choice(np.arange(1, n - 1), size=2 if n < 100 else 4,
                                                replace=False))
        return tuple(sorted(picks))

    def warmup(self):
        """One request of each subcommand on a 3-point grid."""
        seen = set()
        for req in self.requests:
            if req.kind in seen:
                continue
            seen.add(req.kind)
            argv = list(req.argv)
            if "--x-grid" in argv:
                i = argv.index("--x-grid") + 1
                argv[i] = argv[i].rsplit(":", 1)[0] + ":3"
            self.cli.main(argv + ["--out", self.out])

    # -- operations -------------------------------------------------------
    def ops(self):
        out = []
        for req in self.requests:
            group = "wide_b" if req.wide_b else ("long" if req.n >= 100 else "short")
            out.append(Op(label=f"{req.kind}:{req.name}", group=group, points=req.n,
                          call=self._caller(req), check=self._checker(req),
                          known_fault=req.wide_b))
        return out

    def _caller(self, req):
        argv = req.argv + ["--out", self.out]
        cli = self.cli

        def call():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            if req.kind == "efficiency":
                with open(self.out, encoding="utf-8") as fh:
                    return json.load(fh)
            return read_csv(self.out)
        return call

    def _checker(self, req):
        cache = {}

        def check(result):
            if "refs" not in cache:
                cache["refs"] = self.reference(req, result)
            return self.compare(req, result, cache["refs"])
        return check

    def reference(self, req, result):
        """Reference values at the sampled points (computed once per request)."""
        model = ref.Model.from_dict(req.model)
        if req.kind == "efficiency":
            with mp.workdps(ref.BASE_DPS):
                thr = ref.threshold(model, req.q, req.r)
                pat = result["patience"]
                back = ref.threshold(model, req.q + pat, req.r) if pat > 0 else None
            return {"threshold": thr, "back": back}
        _, rows = result
        xs = {i: rows[i][0] for i in req.sample}
        s_values = [req.q] + ([req.q + req.r] if req.r is not None else [])
        if req.name == "time_in_red":
            s_values = [0.0, req.r]
        # the laws subtract terms that grow like e^{rate (x + b)}
        dps = working_dps(model, s_values, [req.theta], 2 * max(req.b, max(xs.values(), default=0)))
        out = {}
        with mp.workdps(dps):
            sc = ref.Scale(model, req.q)
            pc = ref.Parisian(model, req.q, req.r) if req.r is not None and req.q > 0 else None
            for i, x in xs.items():
                if req.kind == "scale":
                    out[i] = ref.scale_row(sc, pc, x, req.theta)
                    if req.model["c"] == 0.0 and not req.model["phases"]:
                        out[i]["exact"] = ref.brownian_row(req.model["sigma2"], req.q, x)
                elif req.kind == "law":
                    theta = math.inf if req.theta is None else req.theta
                    out[i] = {"value": ref.law(req.name, sc, pc, x, req.b, theta,
                                               req.vartheta or 0.0, r=req.r)}
                    if req.name == "two_sided" and req.model["c"] == 0.0 and not req.model["phases"]:
                        f = mp.sqrt(2 * mp.mpf(req.q) / req.model["sigma2"])
                        out[i]["exact"] = {"value": mp.sinh(f * x) / mp.sinh(f * req.b)}
                else:
                    out[i] = {"value": ref.value(req.name, sc, pc, x, req.b, req.theta or 0.0,
                                                 req.k, req.K)}
        return out

    def compare(self, req, result, refs):
        if req.kind == "efficiency":
            thr = refs["threshold"]
            if not _close(result["threshold"], thr):
                return f"threshold {result['threshold']!r} vs {mp.nstr(thr, 17)}"
            if result["efficient"] != (req.k <= thr):
                return f"efficient flag {result['efficient']} at k={req.k}, threshold {thr}"
            if result["efficient"]:
                return None if result["patience"] == 0.0 else "efficient but patience > 0"
            back = refs["back"]
            if back is None or abs(back - req.k) > PATIENCE_RTOL * req.k:
                return f"threshold(q + patience) = {back} is not k = {req.k}"
            return None
        header, rows = result
        if len(rows) != req.n:
            return f"{len(rows)} rows, expected {req.n}"
        if req.kind == "law" and req.name in TRANSFORMS:
            for row in rows:
                if not -RANGE_TOL <= row[1] <= 1.0 + RANGE_TOL:
                    return f"transform {row[1]!r} outside [0, 1] at x={row[0]!r}"
        for i, want in refs.items():
            row = dict(zip(header, rows[i]))
            for col, target in want.items():
                targets = target.items() if col == "exact" else [(col, target)]
                for name, value in targets:
                    if not _close(row[name], value):
                        return (f"{name} at x={row['x']!r}: {row[name]!r} vs reference "
                                f"{mp.nstr(value, 17)} (rel err {_rel_err(row[name], value):.2e})")
        return None


# ---------------------------------------------------------------------------
# barrier


class Barrier:
    """Barrier optimizer solves and patience solves on hot contexts."""

    name = "barrier"
    B_MAX = 20.0
    N_GRID = 1000
    # independent draws of the whole job list per round: the cost of a G
    # evaluation depends on the model's parameters, so more draws steady the
    # round's time from one seed to the next
    DRAWS = 2

    def __init__(self, seed: int, lib):
        self.lib = lib
        rng = rng_for(seed, self.name)
        self.models = {}
        self.jobs = []
        for d in range(self.DRAWS):
            models = {kind: f"{kind}/{d}" for kind in MODEL_CLASSES}
            for kind, key in models.items():
                self.models[key] = make_model(rng, kind)
            for i in range(4):
                # classical threshold 1 + q/lam: two boundary and two interior cases
                key = models[("cp1", "cp3")[i % 2]]
                q = _u(rng, 0.2, 1.5)
                lam = self.models[key]["lambda"]
                span = q / lam * (_u(rng, 0.3, 0.8) if i < 2 else _u(rng, 1.5, 3.0))
                self.jobs.append(("SLG_classic", key, q, None, 1.0 + span, 0.0))
            for i, key in enumerate(models.values()):
                q, r = _u(rng, 0.2, 1.5), _u(rng, 0.2, 3.0)
                thr = self._threshold(key, q, r)
                k = thr * (_u(rng, 0.5, 0.9) if i % 2 == 0 else _u(rng, 1.2, 2.0))
                self.jobs.append(("SLG_parisian", key, q, r, k, 0.0))
            for key in models.values():
                self.jobs.append(("deFinetti_classic", key, _u(rng, 0.05, 0.5), None, 0.0,
                                  _u(rng, 0.0, 0.5)))
            for key in models.values():
                q, r = _u(rng, 0.2, 1.5), _u(rng, 0.2, 3.0)
                self.jobs.append(("patience", key, q, r,
                                  self._threshold(key, q, r) * _u(rng, 1.2, 3.0), 0.0))

    def _threshold(self, kind, q, r):
        with mp.workdps(ref.BASE_DPS):
            return float(ref.threshold(ref.Model.from_dict(self.models[kind]), q, r))

    def warmup(self):
        """One G evaluation of each objective and one efficiency index."""
        lib = self.lib
        for kind, model_kind, q, r, k, K in self.jobs:
            model = lib.LevyModel.from_dict(self.models[model_kind])
            if kind == "patience":
                lib.control.efficiency_index(lib.scale.build_parisian(model, q, r))
                continue
            ctx = (lib.scale.build_parisian(model, q, r) if kind == "SLG_parisian"
                   else lib.scale.build_scale(model, q))
            lib.control.barrier_function(kind, ctx, 1.0, k=k, penalty=lib.scale.Constant(K))

    def ops(self):
        return [self._op(*job) for job in self.jobs]

    def _op(self, kind, model_kind, q, r, k, K):
        lib = self.lib
        raw = self.models[model_kind]
        model = lib.LevyModel.from_dict(raw)
        counter = {"G": 0}
        if kind == "patience":
            def call():
                pctx = lib.scale.build_parisian(model, q, r)
                return lib.control.efficiency_index(pctx), lib.control.solve_patience(pctx, k)
            points = 0
        else:
            penalty = lib.scale.Constant(K)

            def call():
                ctx = (lib.scale.build_parisian(model, q, r) if kind == "SLG_parisian"
                       else lib.scale.build_scale(model, q))
                barrier_function = lib.control.barrier_function

                def G(b):
                    counter["G"] += 1
                    return barrier_function(kind, ctx, b, k=k, penalty=penalty)
                counter["G"] = 0
                sol = lib.control.optimize_barrier(G, self.B_MAX, n_grid=self.N_GRID)
                return sol, counter["G"]
            points = lambda result: result[1]       # G evaluations of this solve
        cache = {}

        def check(result):
            if "refs" not in cache:
                cache["refs"] = self.reference(kind, raw, q, r, k, K, result)
            return self.compare(kind, q, r, k, result, cache["refs"], raw)
        return Op(label=f"{kind}:{model_kind}", group=kind, points=points, call=call, check=check)

    def reference(self, kind, raw, q, r, k, K, result):
        model = ref.Model.from_dict(raw)
        if kind == "patience":
            _, pat = result
            with mp.workdps(ref.BASE_DPS):
                return {"threshold": ref.threshold(model, q, r),
                        "back": ref.threshold(model, q + pat, r)}
        sol, _ = result
        s_values = [q] + ([q + r] if r is not None else [])
        # G(b) only forms e^{rate b}: no subtraction across x and b
        dps = working_dps(model, s_values, [], self.B_MAX)
        with mp.workdps(dps):
            sc = ref.Scale(model, q)
            pc = ref.Parisian(model, q, r) if r is not None else None

            def G(b):
                return ref.barrier_G(kind, sc, pc, b, k, K)
            grid = [self.B_MAX * i / self.N_GRID for i in range(self.N_GRID + 1)]
            vals = [G(b) for b in grid]
            b = sol.b_star
            out = {"grid": grid, "vals": vals, "G_star": G(b)}
            if b > 0:
                h = FOC_H
                gp, gm = G(b + h), G(b - h)
                out["fd"] = (gp - gm) / (2 * h)
                out["curv"] = (gp - 2 * out["G_star"] + gm) / h**2
            if kind == "SLG_classic":
                out["threshold"] = 1 + mp.mpf(q) / model.lam
            elif kind == "SLG_parisian":
                out["threshold"] = ref.threshold(model, q, r)
        return out

    def compare(self, kind, q, r, k, result, refs, raw):
        if kind == "patience":
            thr, pat = result
            if not _close(thr, refs["threshold"]):
                return f"efficiency index {thr!r} vs {mp.nstr(refs['threshold'], 17)}"
            if abs(refs["back"] - k) > PATIENCE_RTOL * k:
                return f"efficiency_index(q + {pat!r}) = {mp.nstr(refs['back'], 12)}, not k = {k}"
            return None
        sol, _ = result
        vals, grid = refs["vals"], refs["grid"]
        top = max(vals)
        tol = G_RTOL * max(1, abs(top))
        if refs["G_star"] < top - tol:
            return f"G(b*={sol.b_star}) = {mp.nstr(refs['G_star'], 12)} below the grid maximum {mp.nstr(top, 12)}"
        last = max(i for i, v in enumerate(vals) if v >= top - tol)
        cell = self.B_MAX / self.N_GRID
        if abs(sol.b_star - grid[last]) > cell * (1 + 1e-9):
            return f"b* = {sol.b_star} is not in the cell of the last grid maximum {grid[last]}"
        if sol.is_boundary != (sol.b_star == 0.0):
            return "boundary flag disagrees with b*"
        if "threshold" in refs and sol.is_boundary != (k <= refs["threshold"]):
            return f"boundary {sol.is_boundary} at k={k}, threshold {mp.nstr(refs['threshold'], 12)}"
        if not sol.is_boundary:
            scale = max(1, abs(refs["G_star"]), abs(refs["curv"]))
            if abs(refs["fd"]) > FOC_TOL * scale:
                return f"first-order condition: G'(b*) ~ {mp.nstr(refs['fd'], 6)}"
        return None


# ---------------------------------------------------------------------------
# oracle


class Oracle:
    """Monte-Carlo cross-checks at the criterion-6 settings, and network paths."""

    name = "oracle"

    def __init__(self, seed: int, lib, threads: int, paths: int | None = None,
                 network_paths: int = CHUNK_PATHS):
        self.lib = lib
        self.threads = threads
        # every estimate spans at least two chunks per thread
        self.paths = paths if paths is not None else 2 * threads * CHUNK_PATHS
        self.network_n = network_paths
        rng = rng_for(seed, self.name)
        self.seed = seed
        self.jobs = []
        for model_name, model in (("m1", M1), ("m3", M3)):
            theta, theta_b = _u(rng, 0.5, 1.5), _u(rng, 0.5, 1.0)
            self.jobs += [
                ("absorb", model_name, model, "two_sided", {}),
                ("absorb", model_name, model, "severity_absorbed", {"theta": theta}),
                ("absorb", model_name, model, "bailouts_to_level", {"theta": theta_b}),
                ("absorb", model_name, model, "parisian_up_exit", {}),
                ("absorb", model_name, model, "parisian_severity", {"theta": theta}),
            ]
        self.jobs += [
            ("reflect", "m3", M3, "severity_reflected", {"theta": _u(rng, 0.5, 1.5)}),
            ("reflect", "m1", M1, "vf_dividends", {}),
            ("reflect", "m1", M1, "slg", {"k": _u(rng, 1.5, 2.5)}),
            ("red", "m1", M1, "time_in_red", {"red_rate": _u(rng, 0.5, 1.0)}),
            ("network", "spec", None, "network", {"u0": _u(rng, 0.6, 1.2), "b": _u(rng, 1.5, 2.5)}),
        ]

    def warmup(self):
        """Small runs of every path configuration and of the network."""
        for group, _, model, name, p in self.jobs:
            if group == "network":
                self.lib.mc.network_paths(self._network_spec(), p["u0"], p["b"], 40.0, 256, 0)
            else:
                cfg, fn = self._config(model, name, p)
                self.lib.mc.estimate(cfg, fn, 2048, seed=0)

    def ops(self):
        return [self._op(i, *job) for i, job in enumerate(self.jobs)]

    def _config(self, model, name, p):
        mc = self.lib.mc
        m = self.lib.LevyModel.from_dict(model)
        base = dict(model=m, x0=ORACLE_X, q=ORACLE_Q, upper_barrier=ORACLE_B)
        lower, up, fn = {
            "two_sided": ("classical_absorb", "absorb", mc.Functional("up_exit")),
            "severity_absorbed": ("classical_absorb", "absorb",
                                  mc.Functional("severity", theta=p.get("theta", 0.0))),
            "bailouts_to_level": ("classical_reflect", "absorb",
                                  mc.Functional("up_exit", theta=p.get("theta", 0.0))),
            "parisian_up_exit": ("parisian_absorb", "absorb", mc.Functional("up_exit")),
            "parisian_severity": ("parisian_absorb", "absorb",
                                  mc.Functional("severity", theta=p.get("theta", 0.0))),
            "severity_reflected": ("classical_absorb", "reflect",
                                   mc.Functional("severity", theta=p.get("theta", 0.0))),
            "vf_dividends": ("parisian_absorb", "reflect", mc.Functional("dividends")),
            "slg": ("parisian_reflect", "reflect", mc.Functional("slg", k=p.get("k", 0.0))),
            "time_in_red": ("none", "absorb",
                            mc.Functional("time_in_red", red_rate=p.get("red_rate", 0.0))),
        }[name]
        if name == "time_in_red":
            # absorbed at 20, where the chance of ever going below 0 again is
            # below e^-20; the horizon only stops the rare path still below 20
            base.update(q=0.0, upper_barrier=TIME_IN_RED_LEVEL, horizon=TIME_IN_RED_HORIZON)
        r = ORACLE_R if lower.startswith("parisian") else 0.0
        return mc.PathConfig(lower=lower, upper_mode=up, r=r, **base), fn

    def _network_spec(self):
        control = self.lib.control
        subs = (control.Subsidiary(premium=2.0, lam=1.0, phases=((1.0, 2.0),), retention=0.5),
                control.Subsidiary(premium=3.0, lam=1.0, phases=((1.0, 2.0),), retention=0.25))
        return control.NetworkSpec(subsidiaries=subs, c0=1.0, q=0.5)

    def _op(self, index, group, model_name, model, name, p):
        lib = self.lib
        mc_seed = self.seed * 1000 + index
        if group == "network":
            spec = self._network_spec()

            def call():
                return lib.mc.network_paths(spec, p["u0"], p["b"], 40.0, self.network_n, mc_seed)
            return Op(label="network_paths", group=group, points=self.network_n, call=call,
                      check=self._check_network, prime=lambda: None)
        cfg, fn = self._config(model, name, p)
        n = self.paths

        def call():
            return lib.mc.estimate(cfg, fn, n, seed=mc_seed)
        cache = {}

        def check(est):
            if "target" not in cache:
                cache["target"] = self.target(model, name, p)
            target = cache["target"]
            if not est.std_error > 0:
                return f"standard error {est.std_error}"
            if not est.tail_bound < TAIL_SHARE * est.std_error:
                return f"tail bound {est.tail_bound} not below {TAIL_SHARE} se = {est.std_error}"
            z = (est.mean - target) / est.std_error
            if not abs(z) < Z_MAX:
                return f"mean {est.mean} vs closed form {target}: z = {z:.2f}"
            return None

        def prime():
            cache["target"] = self.target(model, name, p)
        return Op(label=f"{name}:{model_name}", group=group, points=n, call=call, check=check,
                  prime=prime)

    def target(self, model, name, p):
        """The closed form at the oracle settings, from the reference."""
        m = ref.Model.from_dict(model)
        x, b, q, r = ORACLE_X, ORACLE_B, ORACLE_Q, ORACLE_R
        with mp.workdps(ref.BASE_DPS):
            sc = ref.Scale(m, 0.0 if name == "time_in_red" else q)
            pc = ref.Parisian(m, q, r) if name != "time_in_red" else None
            theta = p.get("theta", 0.0)
            if name in ("two_sided", "severity_absorbed", "bailouts_to_level",
                        "parisian_severity", "severity_reflected"):
                return float(ref.law(name, sc, pc, x, b, theta, 0.0))
            if name == "parisian_up_exit":
                return float(ref.law(name, sc, pc, x, b, math.inf, 0.0))
            if name == "vf_dividends":
                return float(ref.value("VF_div", sc, pc, x, b, 0.0, 0.0, 0.0))
            if name == "slg":
                return float(ref.value("slg_parisian", sc, pc, x, b, 0.0, p["k"], 0.0))
            return float(ref.law("time_in_red", sc, None, x, b, 0.0, 0.0, r=p["red_rate"]))

    @staticmethod
    def _check_network(result):
        direct, lemma, short = result
        worst = float(np.abs(direct - lemma).max())
        if worst > NETWORK_RTOL * max(float(np.abs(direct).max()), 1.0):
            return f"pathwise lemma: max |direct - lemma| = {worst}"
        if float(short.max()) >= SHORTFALL_MAX:
            return f"cone invariance: shortfall {float(short.max())}"
        return None
