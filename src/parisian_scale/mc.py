"""Event-driven Monte-Carlo oracle for finite-variation surplus paths.

Paths of a compound Poisson process with drift are piecewise linear, so
every crossing, dividend accrual and discount factor on a segment has a
closed form and the simulation is exact: disagreement with an analytic
law implicates the formula, never a discretization step.

Reproducibility: paths are generated in fixed-size chunks, each chunk
seeded by a Philox key (seed, chunk_index).  Chunk results are reduced
in index order, so estimates are bit-identical for a given (config,
functional, n_paths, seed) regardless of the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, HorizonRequired, NotCheap, SigmaUnsupported
from .model import LevyModel

_CHUNK = 1 << 16

# stop causes
ALIVE, UP, DOWN, HORIZON = 0, 1, 2, 3

_LOWER_MODES = ("none", "classical_absorb", "classical_reflect",
                "parisian_absorb", "parisian_reflect")


@dataclass(frozen=True)
class PathConfig:
    model: LevyModel
    x0: float
    q: float = 0.0
    upper_barrier: float | None = None
    upper_mode: str = "absorb"          # "absorb" or "reflect"
    lower: str = "none"
    r: float = 0.0                      # Poisson observation rate (parisian lower)
    horizon: float | None = None

    def __post_init__(self):
        if self.model.sigma2 > 0:
            raise SigmaUnsupported("the event-driven oracle only handles sigma = 0")
        if self.lower not in _LOWER_MODES:
            raise DomainError(f"unknown lower mechanism {self.lower!r}")
        if self.lower.startswith("parisian") and self.r <= 0:
            raise DomainError("parisian lower mechanism needs an observation rate r > 0")
        if self.upper_mode not in ("absorb", "reflect"):
            raise DomainError(f"unknown upper mode {self.upper_mode!r}")


@dataclass(frozen=True)
class Functional:
    """What to average over paths.

    name in {"up_exit", "severity", "dividends", "bailouts", "slg",
    "time_in_red", "joint"}.  severity/joint use theta on the undershoot,
    joint additionally penalizes discounted dividends by vartheta, slg is
    dividends - k * bailouts, time_in_red applies rate red_rate to the
    total time below zero, and up_exit weights total injections by theta
    (theta=0 for plain two-sided exit).
    """

    name: str
    theta: float = 0.0
    vartheta: float = 0.0
    k: float = 0.0
    red_rate: float = 0.0


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_paths: int
    ci95: tuple
    tail_bound: float = 0.0


@dataclass(frozen=True)
class PathRecord:
    events: tuple
    stop_cause: int
    stop_time: float
    final_level: float
    undershoot: float
    dividends_discounted: float
    bailouts_discounted: float
    dividends_raw: float
    bailouts_raw: float
    claims_raw: float
    time_in_red: float


def default_horizon(q: float, x0: float, b: float) -> float:
    """Truncation horizon with tail error at most c e^{-qT}/q for dividends."""
    if q <= 0:
        raise HorizonRequired("infinite-horizon functional with q = 0 needs an explicit horizon")
    return (40.0 + math.log1p(x0 + b)) / q


def _workers() -> int:
    raw = os.environ.get("PARISIAN_SCALE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _disc_weight(q, t1, t2):
    """Integral of e^{-q s} over [t1, t2] (vectorized)."""
    if q > 0:
        return (np.exp(-q * t1) - np.exp(-q * t2)) / q
    return t2 - t1


def _sample_claims(rng, n, phases):
    weights = np.array([w for w, _ in phases])
    rates = np.array([mu for _, mu in phases])
    idx = rng.choice(len(phases), size=n, p=weights) if len(phases) > 1 else np.zeros(n, dtype=int)
    return rng.exponential(1.0, size=n) / rates[idx]


def _simulate_chunk(cfg: PathConfig, n: int, rng) -> dict:
    """Run n paths to their stop; return per-path accounting arrays."""
    m = cfg.model
    c, lam = m.c, m.lam
    q = cfg.q
    b = cfg.upper_barrier
    reflect_up = b is not None and cfg.upper_mode == "reflect"
    absorb_up = b is not None and cfg.upper_mode == "absorb"
    obs_rate = cfg.r if cfg.lower.startswith("parisian") else 0.0
    total_rate = lam + obs_rate
    T = cfg.horizon if cfg.horizon is not None else math.inf
    if not math.isfinite(T) and total_rate == 0.0 and not absorb_up:
        raise HorizonRequired("path has no stopping mechanism and no horizon")

    t = np.zeros(n)
    x = np.full(n, float(cfg.x0))
    cause = np.zeros(n, dtype=np.int8)
    stop_t = np.zeros(n)
    under = np.zeros(n)
    div = np.zeros(n)
    bail = np.zeros(n)
    bail_raw = np.zeros(n)
    red = np.zeros(n)

    while True:
        alive = cause == ALIVE
        if not alive.any():
            break
        na = int(alive.sum())
        if total_rate > 0:
            dt = rng.exponential(1.0 / total_rate, size=na)
            is_claim = (rng.random(na) < lam / total_rate) if obs_rate > 0 else np.ones(na, bool)
            claim_sizes = np.where(is_claim, _sample_claims(rng, na, m.phases), 0.0) \
                if lam > 0 else np.zeros(na)
        else:
            dt = np.full(na, np.inf)
            is_claim = np.zeros(na, bool)
            claim_sizes = np.zeros(na)

        ta = t[alive]
        xa = x[alive]
        t2 = ta + dt
        clipped = np.minimum(t2, T)
        cut = t2 > T                      # horizon reached inside this segment

        ca = np.full(na, ALIVE, dtype=np.int8)
        st = np.zeros(na)
        un = np.zeros(na)

        # time below zero on the linear piece before any barrier interaction
        below = xa < 0
        if below.any():
            t_zero = ta - xa / c
            red_add = np.where(below, np.minimum(clipped, np.maximum(t_zero, ta)) - ta, 0.0)
            red[alive] += red_add

        if reflect_up:
            t_hit = np.where(xa >= b, ta, ta + (b - xa) / c)
            paying = np.minimum(t_hit, clipped)
            div[alive] += c * _disc_weight(q, paying, clipped)
            x_end = np.where(clipped > t_hit, b, xa + c * (clipped - ta))
        elif absorb_up:
            # the barrier sits above 0, so an up-stop never truncates red time
            t_hit = ta + (b - xa) / c
            hit = t_hit <= clipped
            ca = np.where(hit, UP, ca)
            st = np.where(hit, t_hit, st)
            x_end = np.where(hit, b, xa + c * (clipped - ta))
        else:
            x_end = xa + c * (clipped - ta)

        live = ca == ALIVE
        hz = live & cut
        ca = np.where(hz, HORIZON, ca)
        st = np.where(hz, T, st)

        live = ca == ALIVE
        # event at t2 for still-live paths
        if total_rate > 0:
            ev_claim = live & is_claim
            ev_obs = live & ~is_claim
            x_new = np.where(ev_claim, x_end - claim_sizes, x_end)
            if cfg.lower == "classical_absorb":
                ruin = ev_claim & (x_new < 0)
                ca = np.where(ruin, DOWN, ca)
                st = np.where(ruin, t2, st)
                un = np.where(ruin, x_new, un)
            elif cfg.lower == "classical_reflect":
                inj = ev_claim & (x_new < 0)
                amt = np.where(inj, -x_new, 0.0)
                bail[alive] += amt * (np.exp(-q * t2) if q > 0 else 1.0)
                bail_raw[alive] += amt
                x_new = np.where(inj, 0.0, x_new)
            elif cfg.lower == "parisian_absorb":
                ruin = ev_obs & (x_new < 0)
                ca = np.where(ruin, DOWN, ca)
                st = np.where(ruin, t2, st)
                un = np.where(ruin, x_new, un)
            elif cfg.lower == "parisian_reflect":
                inj = ev_obs & (x_new < 0)
                amt = np.where(inj, -x_new, 0.0)
                bail[alive] += amt * (np.exp(-q * t2) if q > 0 else 1.0)
                bail_raw[alive] += amt
                x_new = np.where(inj, 0.0, x_new)
        else:
            x_new = x_end

        stopped = ca != ALIVE
        bval = b if b is not None else 0.0
        x_fin = np.where(ca == UP, bval, np.where(ca == HORIZON, x_end, x_new))
        t_fin = np.where(stopped, st, clipped)

        t[alive] = t_fin
        x[alive] = x_fin
        idx = np.flatnonzero(alive)
        cause[idx[stopped]] = ca[stopped]
        stop_t[idx[stopped]] = st[stopped]
        under[idx[stopped]] = un[stopped]

    return {
        "cause": cause, "stop_t": stop_t, "under": under, "div": div,
        "bail": bail, "bail_raw": bail_raw, "red": red, "final": x,
    }


def _functional_values(fn: Functional, rec: dict, q: float) -> np.ndarray:
    cause, stop_t, under = rec["cause"], rec["stop_t"], rec["under"]
    if fn.name == "up_exit":
        w = np.exp(-q * stop_t - fn.theta * rec["bail_raw"]) if fn.theta != 0.0 \
            else np.exp(-q * stop_t)
        return np.where(cause == UP, w, 0.0)
    if fn.name == "severity":
        return np.where(cause == DOWN, np.exp(-q * stop_t + fn.theta * under), 0.0)
    if fn.name == "dividends":
        return rec["div"]
    if fn.name == "bailouts":
        return rec["bail"]
    if fn.name == "slg":
        return rec["div"] - fn.k * rec["bail"]
    if fn.name == "time_in_red":
        return np.exp(-fn.red_rate * rec["red"])
    if fn.name == "joint":
        return np.where(
            cause == DOWN,
            np.exp(-q * stop_t + fn.theta * under - fn.vartheta * rec["div"]),
            0.0,
        )
    raise DomainError(f"unknown functional {fn.name!r}")


def _chunk_keys(seed: int, n_paths: int):
    n_chunks = (n_paths + _CHUNK - 1) // _CHUNK
    sizes = [_CHUNK] * (n_chunks - 1) + [n_paths - _CHUNK * (n_chunks - 1)]
    return [(seed, i, sizes[i]) for i in range(n_chunks)]


def estimate(cfg: PathConfig, fn: Functional, n_paths: int, seed: int = 0) -> MCEstimate:
    """Monte-Carlo average of a path functional with its standard error."""
    if n_paths < 1:
        raise DomainError(f"need at least one path, got n_paths={n_paths}")
    needs_horizon = fn.name in ("dividends", "bailouts", "slg") and cfg.upper_mode != "absorb"
    tail = 0.0
    if cfg.horizon is None and needs_horizon:
        b = cfg.upper_barrier if cfg.upper_barrier is not None else 0.0
        T = default_horizon(cfg.q, cfg.x0, b)
        cfg = replace(cfg, horizon=T)
        tail = cfg.model.c * math.exp(-cfg.q * T) / cfg.q

    def run(key):
        s, i, size = key
        rng = np.random.Generator(np.random.Philox(key=[s, i]))
        rec = _simulate_chunk(cfg, size, rng)
        v = _functional_values(fn, rec, cfg.q)
        return float(v.sum()), float((v * v).sum()), size

    keys = _chunk_keys(seed, n_paths)
    w = _workers()
    if w > 1:
        with ThreadPoolExecutor(max_workers=w) as ex:
            parts = list(ex.map(run, keys))
    else:
        parts = [run(k) for k in keys]

    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    mean = total / n_paths
    var = max(total_sq / n_paths - mean * mean, 0.0)
    se = math.sqrt(var / n_paths)
    return MCEstimate(
        mean=mean, std_error=se, n_paths=n_paths,
        ci95=(mean - 1.96 * se, mean + 1.96 * se), tail_bound=tail,
    )


def simulate_path(cfg: PathConfig, rng) -> PathRecord:
    """Single path with a full event log; reference for the vector engine."""
    m = cfg.model
    c, lam, q = m.c, m.lam, cfg.q
    b = cfg.upper_barrier
    reflect_up = b is not None and cfg.upper_mode == "reflect"
    absorb_up = b is not None and cfg.upper_mode == "absorb"
    obs_rate = cfg.r if cfg.lower.startswith("parisian") else 0.0
    total_rate = lam + obs_rate
    T = cfg.horizon if cfg.horizon is not None else math.inf
    if not math.isfinite(T) and total_rate == 0.0 and not absorb_up:
        raise HorizonRequired("path has no stopping mechanism and no horizon")

    t, x = 0.0, float(cfg.x0)
    events = []
    div = bail = div_raw = bail_raw = claims_raw = red = 0.0
    cause, stop_t, under = ALIVE, 0.0, 0.0

    def disc(t1, t2):
        return (math.exp(-q * t1) - math.exp(-q * t2)) / q if q > 0 else t2 - t1

    while cause == ALIVE:
        if total_rate > 0:
            dt = rng.exponential(1.0 / total_rate)
            is_claim = rng.random() < lam / total_rate if obs_rate > 0 else True
        else:
            dt, is_claim = math.inf, False
        t2 = min(t + dt, T)
        seg_end = t2

        if absorb_up and x < b:
            t_hit = t + (b - x) / c
            if t_hit <= t2:
                seg_end = t_hit
                cause, stop_t = UP, t_hit

        if x < 0:
            red += max(min(seg_end, t - x / c) - t, 0.0)

        if reflect_up:
            t_hit = t if x >= b else t + (b - x) / c
            if t_hit < seg_end:
                amt = c * disc(t_hit, seg_end)
                div += amt
                div_raw += c * (seg_end - t_hit)
                events.append(("dividend", seg_end, c * (seg_end - t_hit)))
            x = min(x + c * (seg_end - t), b)
        else:
            x = x + c * (seg_end - t)
        t = seg_end

        if cause != ALIVE:
            break
        if t >= T:
            cause, stop_t = HORIZON, T
            break

        # event at t
        if is_claim:
            size = _sample_claims(rng, 1, m.phases)[0]
            claims_raw += size
            x -= size
            events.append(("claim", t, size))
            if cfg.lower == "classical_absorb" and x < 0:
                cause, stop_t, under = DOWN, t, x
            elif cfg.lower == "classical_reflect" and x < 0:
                amt = -x
                bail += amt * (math.exp(-q * t) if q > 0 else 1.0)
                bail_raw += amt
                events.append(("injection", t, amt))
                x = 0.0
        else:
            events.append(("observation", t, x))
            if x < 0:
                if cfg.lower == "parisian_absorb":
                    cause, stop_t, under = DOWN, t, x
                elif cfg.lower == "parisian_reflect":
                    amt = -x
                    bail += amt * (math.exp(-q * t) if q > 0 else 1.0)
                    bail_raw += amt
                    events.append(("injection", t, amt))
                    x = 0.0

    return PathRecord(
        events=tuple(events), stop_cause=cause, stop_time=stop_t, final_level=x,
        undershoot=under, dividends_discounted=div, bailouts_discounted=bail,
        dividends_raw=div_raw, bailouts_raw=bail_raw, claims_raw=claims_raw,
        time_in_red=red,
    )


def balance_residual(cfg: PathConfig, rec: PathRecord) -> float:
    """x0 + premium income - claims + injections - dividends - final level."""
    t_end = rec.stop_time if rec.stop_cause != ALIVE else 0.0
    return (cfg.x0 + cfg.model.c * t_end - rec.claims_raw + rec.bailouts_raw
            - rec.dividends_raw - rec.final_level)


# ---------------------------------------------------------------------------
# claims-line network simulation


def network_paths(spec, u0: float, b: float, horizon: float | None,
                  n_paths: int, seed: int = 0):
    """Simulate the claims-line equilibrium policy for a CB network.

    Returns per-path arrays (direct, lemma, shortfall): `direct` is the
    discounted dividend total from explicit bookkeeping (continuous
    subsidiary excess, lump restorations after claims, CB barrier
    dividends), `lemma` evaluates the one-dimensional integrand
    dR_0 + c~ dt - gamma dX_0 - sum (gamma (1-a_i)/a_i - 1) dX_i on the
    same path, and `shortfall` is the largest bailout any subsidiary
    would have needed (0 on the invariant cone).
    """
    if not spec.cheap:
        raise NotCheap("claims-line policy is undefined without cheap reinsurance")
    subs = spec.subsidiaries
    for s in subs:
        if not s.phases:
            raise DomainError("each subsidiary needs a claim size mixture")
    q = spec.q
    if horizon is None:
        horizon = default_horizon(q, u0, b)
    gamma = spec.gamma
    c_tilde = spec.c_tilde
    c0 = spec.c0
    lams = np.array([s.lam for s in subs])
    alphas = np.array([s.retention for s in subs])
    ratios = alphas / (1.0 - alphas)          # alpha_i / (1 - alpha_i)
    cs = np.array([s.premium for s in subs])
    lam_tot = float(lams.sum())
    sum_c = float(cs.sum())

    n_chunks = (n_paths + _CHUNK - 1) // _CHUNK
    direct_all, lemma_all, short_all = [], [], []
    for ci in range(n_chunks):
        n = min(_CHUNK, n_paths - ci * _CHUNK)
        rng = np.random.Generator(np.random.Philox(key=[seed, ci]))
        u = np.full(n, float(u0))
        t = np.zeros(n)
        direct = np.zeros(n)
        lemma = np.zeros(n)
        short = np.zeros(n)
        alive = np.ones(n, bool)
        while alive.any():
            na = int(alive.sum())
            dt = rng.exponential(1.0 / lam_tot, size=na)
            which = rng.choice(len(subs), size=na, p=lams / lam_tot) if len(subs) > 1 \
                else np.zeros(na, dtype=int)
            sizes = np.zeros(na)
            for i, s in enumerate(subs):
                sel = which == i
                if sel.any():
                    sizes[sel] = _sample_claims(rng, int(sel.sum()), s.phases)

            ta = t[alive]
            ua = u[alive]
            t2 = np.minimum(ta + dt, horizon)
            ended = ta + dt > horizon

            # continuous part, split at the barrier hit
            t_hit = np.where(ua >= b, ta, ta + (b - ua) / c0)
            free_end = np.minimum(t_hit, t2)
            w_free = _disc_weight(q, ta, free_end)
            w_pin = _disc_weight(q, np.maximum(t_hit, ta), np.maximum(t2, t_hit))
            w_pin = np.where(t2 > t_hit, w_pin, 0.0)
            # off the barrier: subsidiaries pay their excess premium;
            # on it: the CB routes c0 to dividends and targets freeze
            direct[alive] += (sum_c - gamma * c0) * w_free + (c0 + sum_c) * w_pin
            # lemma integrand with dX_0 = c0 dt - dR_0, dX_i = c_i dt - a_i dC_i
            lemma[alive] += (
                (c_tilde - gamma * c0 - (c_tilde - sum_c)) * w_free
                + (c0 + c_tilde - (c_tilde - sum_c)) * w_pin
            )
            u_pre = np.where(t2 > t_hit, b, ua + c0 * (t2 - ta))

            # claim of subsidiary `which`: CB covers the ceded share
            live = ~ended
            ceded = (1.0 - alphas[which]) * sizes
            kept = alphas[which] * sizes
            disc_ev = np.exp(-q * t2)
            u_post = np.where(live, u_pre - ceded, u_pre)
            ruined = live & (u_post < 0)

            idx = np.flatnonzero(alive)
            # subsidiary bookkeeping: excess dividends keep reserves on the
            # line ratio_i u(t), so at a claim they sit at ratio_i u_pre;
            # the hit subsidiary pays its kept share, then every survivor
            # pays a lump back down to the line through u_post
            sub = u_pre[:, None] * ratios[None, :]
            sub[np.arange(na), which] -= np.where(live, kept, 0.0)
            target = np.maximum(u_post, 0.0)[:, None] * ratios[None, :]
            target = np.where(ruined[:, None], sub, target)   # no lumps at ruin
            lump = np.where(live[:, None], sub - target, 0.0)
            short[idx] = np.maximum(short[idx], -lump.min(axis=1))
            direct[idx] += np.where(live & ~ruined, lump.sum(axis=1) * disc_ev, 0.0)
            lemma[idx] += np.where(
                live & ~ruined,
                (gamma * (1.0 - alphas[which]) / alphas[which] - 1.0) * kept * disc_ev,
                0.0,
            )

            t[alive] = t2
            u[alive] = u_post
            dead = ended | ruined
            alive[idx[dead]] = False
        direct_all.append(direct)
        lemma_all.append(lemma)
        short_all.append(short)
    return (np.concatenate(direct_all), np.concatenate(lemma_all),
            np.concatenate(short_all))


def network_estimate(spec, u0: float, b: float, horizon: float | None = None,
                     n_paths: int = 100_000, seed: int = 0) -> MCEstimate:
    if n_paths < 1:
        raise DomainError(f"need at least one path, got n_paths={n_paths}")
    direct, _, _ = network_paths(spec, u0, b, horizon, n_paths, seed)
    mean = float(direct.mean())
    se = float(direct.std(ddof=0) / math.sqrt(n_paths))
    return MCEstimate(mean=mean, std_error=se, n_paths=n_paths,
                      ci95=(mean - 1.96 * se, mean + 1.96 * se))
