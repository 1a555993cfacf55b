"""Event-driven Monte-Carlo oracle for finite-variation surplus paths.

Paths of a compound Poisson process with drift are piecewise linear, so
every crossing, dividend accrual and discount factor on a segment has a
closed form and the simulation is exact: disagreement with an analytic
law implicates the formula, never a discretization step.

Engine: `estimate` and `network_paths` run each chunk on one loop,
`_run_live`, which carries only the paths still running, in path-index
order, as the columns of one stacked state array (last row: the path
index).  A step advances them in place and returns the mask of those
that stopped; their rows go into the chunk's record once and are dropped
with one gather, so a step costs in proportion to the paths alive.  Both
hold a level that meets the barrier b at b with `_to_barrier`.

Reproducibility: paths are generated in fixed-size chunks, each chunk
seeded by a Philox key (seed, chunk_index), with one draw per live path
per step in index order.  Chunk results are reduced in index order, so
records and means are bit-identical for a given (config, functional,
n_paths, seed) regardless of the worker count.  The standard error comes
from per-chunk (n, sum, residual, M2) merged by the pairwise update of
Chan, Golub & LeVeque, which keeps its digits when the spread is small
against the mean.

Horizon: dividends, bailouts and slg under reflection at the upper
barrier accrue for ever, so without an explicit horizon `estimate` cuts
them at a T sized to the run's own standard error and reports in
`tail_bound` what the cut can miss, C e^{-qT}: C = c/q for dividends,
lam E[C]/q for bailouts (plus lam E[C]/r under Parisian reflection), and
the dividend C plus k times the bailout C for slg.  A pilot of
min(n_paths, 4096) paths, on a Philox key no chunk takes, runs to the cap
T0 = `default_horizon` and gives the spread sd of the functional; T is
the root of C e^{-qT} = 0.01 sd / sqrt(n_paths), so the bias the cut can
add is a hundredth of the standard error (Glasserman, Monte Carlo Methods
in Financial Engineering, 2004, ch. 6), or T0 if that root is not in
(0, T0) or C or sd is 0.  `MCEstimate.horizon` is the T the paths were cut
at.  Every other functional stops with the path and has no tail.

Stopping: without a finite horizon, a path must stop for sure, so a
configuration runs only if the upper barrier absorbs and either a lower
mechanism acts or the drift is not negative, or if the lower mechanism
absorbs, claims arrive, and either there is a barrier or the drift is not
positive.  Any other configuration (say, reflection at 0 and no barrier,
or absorption at 0 with a positive drift and no barrier) raises
HorizonRequired before a step runs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, HorizonRequired, NotCheap, SigmaUnsupported
from .model import LevyModel

_CHUNK = 1 << 16

# the sized horizon: the pilot's paths, its Philox chunk index (one no run
# reaches), and the share of the standard error the cut may miss
_PILOT_PATHS = 4096
_PILOT_CHUNK = 1 << 63
_TAIL_SHARE = 0.01

# stop causes
ALIVE, UP, DOWN, HORIZON = 0, 1, 2, 3

# rows of the live-path state in _simulate_chunk: time (the stop time once
# stopped), level, the dividend, bailout, raw-bailout and red-time
# accumulators, and the stop cause
_T, _X, _DIV, _BAIL, _BAIL_RAW, _RED, _CAUSE = range(7)

_LOWER_MODES = ("none", "classical_absorb", "classical_reflect",
                "parisian_absorb", "parisian_reflect")
_FUNCTIONALS = ("up_exit", "severity", "dividends", "bailouts", "slg", "time_in_red")


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
        if self.lower.startswith("parisian") and not 0 < self.r < math.inf:
            raise DomainError(f"parisian lower mechanism needs an observation rate "
                              f"0 < r < inf, got {self.r}")
        if self.upper_mode not in ("absorb", "reflect"):
            raise DomainError(f"unknown upper mode {self.upper_mode!r}")
        # a non-finite start, barrier or q, or a NaN horizon, never stops a path or
        # stops it at a wrong time
        if not math.isfinite(self.x0):
            raise DomainError(f"the start x0 must be finite, got {self.x0}")
        if self.upper_barrier is not None and not self.x0 <= self.upper_barrier < math.inf:
            raise DomainError(f"need x0 <= upper_barrier < inf, got x0={self.x0}, "
                              f"upper_barrier={self.upper_barrier}")
        if not 0 <= self.q < math.inf:
            raise DomainError(f"q must be finite and nonnegative, got {self.q}")
        if self.horizon is not None and not self.horizon >= 0:
            raise DomainError(f"the horizon must be nonnegative, got {self.horizon}")


@dataclass(frozen=True)
class Functional:
    """What to average over paths.

    name in {"up_exit", "severity", "dividends", "bailouts", "slg",
    "time_in_red"}.  severity uses theta on the undershoot, slg is
    dividends - k * bailouts, time_in_red applies rate red_rate to the
    total time below zero, and up_exit weights total injections by theta
    (theta=0 for plain two-sided exit).
    """

    name: str
    theta: float = 0.0
    k: float = 0.0
    red_rate: float = 0.0

    def __post_init__(self):
        if self.name not in _FUNCTIONALS:
            raise DomainError(f"unknown functional {self.name!r}")
        # theta = inf stays: it weights any injection or undershoot by 0
        if math.isnan(self.theta) or not (math.isfinite(self.k) and math.isfinite(self.red_rate)):
            raise DomainError(f"need theta not NaN and a finite k and red_rate, got {self}")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_paths: int
    ci95: tuple
    tail_bound: float = 0.0
    horizon: float | None = None        # the T the paths were cut at


def default_horizon(q: float, x0: float, b: float) -> float:
    """The horizon cap T0 = (40 + log(1 + max(x0 + b, 0)))/q: the tail is below e^{-40} C."""
    if q <= 0:
        raise HorizonRequired("infinite-horizon functional with q = 0 needs an explicit horizon")
    return (40.0 + math.log1p(max(x0 + b, 0.0))) / q


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


def _to_barrier(t, x, t_end, b, c):
    """min(t_hit, t_end), with t_hit when x + c (s - t) meets b, and the level at t_end,
    held at b from t_hit on (vectorized)."""
    t_hit = np.where(x >= b, t, t + (b - x) / c)
    return np.minimum(t_hit, t_end), np.where(t_end > t_hit, b, x + c * (t_end - t))


def _run_live(rows, n, start, step) -> np.ndarray:
    """The (rows, n) record of n paths run to their stop (see the module's "Engine:").

    The state rows start at 0, or at start[row]; step(state) advances the live
    columns in place and returns the mask of those that stopped.
    """
    state = np.zeros((rows + 1, n))
    for row, value in start.items():
        state[row] = value
    state[rows] = np.arange(n)
    rec = np.zeros((rows, n))
    while state.shape[1]:
        stop = step(state)
        if stop.any():
            done = state.compress(stop, axis=1)
            rec[:, done[rows].astype(np.intp)] = done[:rows]
            state = state.compress(~stop, axis=1)
    return rec


def _pick(rng, n, p):
    """n indices drawn with probabilities p, from one uniform u each.

    The index counts the normalized cumulative weights at or below u, all
    but the last (which is 1): the very indices `rng.choice(len(p), n, p=p)`
    draws from the same stream, without its searchsorted.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    u = rng.random(n)
    idx = np.zeros(n, dtype=np.intp)
    for edge in cdf[:-1]:
        idx += u >= edge
    return idx


def _sample_claims(rng, n, phases):
    if len(phases) == 1:
        return rng.standard_exponential(n) / phases[0][1]
    rates = np.array([mu for _, mu in phases])
    idx = _pick(rng, n, np.array([w for w, _ in phases]))
    return rng.standard_exponential(n) / rates[idx]


def _stops(cfg: PathConfig) -> bool:
    """Whether every path of cfg stops for sure without a horizon.

    An absorbing barrier stops the path unless it can drift off below (no
    lower mechanism and a negative drift); an absorbing lower mechanism
    stops it unless it can escape upward (no barrier and a positive
    drift).  Nothing else stops a path.
    """
    m = cfg.model
    barrier = cfg.upper_barrier is not None
    if barrier and cfg.upper_mode == "absorb" and (cfg.lower != "none" or m.drift >= 0):
        return True
    return cfg.lower.endswith("absorb") and m.lam > 0 and (barrier or m.drift <= 0)


def _simulate_chunk(cfg: PathConfig, n: int, rng) -> dict:
    """Run n paths to their stop on `_run_live`; return per-path accounting arrays."""
    m = cfg.model
    c, lam = m.c, m.lam
    q = cfg.q
    b = cfg.upper_barrier
    reflect_up = b is not None and cfg.upper_mode == "reflect"
    absorb_up = b is not None and cfg.upper_mode == "absorb"
    obs_rate = cfg.r if cfg.lower.startswith("parisian") else 0.0
    total_rate = lam + obs_rate
    T = cfg.horizon if cfg.horizon is not None else math.inf
    if not math.isfinite(T) and not _stops(cfg):
        raise HorizonRequired("a path may never stop: give a finite horizon")
    classical = cfg.lower.startswith("classical")
    absorb_down = cfg.lower.endswith("absorb")
    reflect_down = cfg.lower.endswith("reflect")

    def step(state):
        na = state.shape[1]
        t, x = state[_T], state[_X]
        if total_rate > 0:
            dt = rng.standard_exponential(na) * (1.0 / total_rate)
            is_claim = rng.random(na) < lam / total_rate if obs_rate > 0 else None
            claim_sizes = _sample_claims(rng, na, m.phases) if lam > 0 else None
        else:
            dt = np.full(na, np.inf)

        t2 = t + dt
        clipped = np.minimum(t2, T)
        cut = t2 > T                      # horizon reached inside this segment

        # time below zero on the linear piece before any barrier interaction
        below = x < 0
        if below.any():
            t_zero = t - x / c
            state[_RED] += np.where(below, np.minimum(clipped, np.maximum(t_zero, t)) - t, 0.0)

        t_new = clipped
        if reflect_up:
            paying, x_new = _to_barrier(t, x, clipped, b, c)
            state[_DIV] += c * _disc_weight(q, paying, clipped)
        elif absorb_up:
            # the barrier sits above 0, so an up-stop never truncates red time
            t_hit = t + (b - x) / c
            up = t_hit <= clipped
            t_new = np.where(up, t_hit, clipped)
            x_new = np.where(up, b, x + c * (clipped - t))
        else:
            x_new = x + c * (clipped - t)
        stop = cut | up if absorb_up else cut
        # the cause if the path stops now: UP, else HORIZON = DOWN + 1 if cut, else DOWN
        state[_CAUSE] = np.where(up, UP, DOWN + cut) if absorb_up else DOWN + cut

        # event at t2 for the paths still running
        if total_rate > 0:
            running = ~stop
            ev_claim = running if is_claim is None else running & is_claim
            if claim_sizes is not None:
                x_new = np.where(ev_claim, x_new - claim_sizes, x_new)
            if cfg.lower != "none":
                # the lower mechanism acts at claims (classical) or observations
                acted = ev_claim if classical else running & ~is_claim
                neg = acted & (x_new < 0)
            if absorb_down:
                stop = stop | neg
            elif reflect_down:
                amt = np.where(neg, -x_new, 0.0)
                state[_BAIL] += amt * (np.exp(-q * t2) if q > 0 else 1.0)
                state[_BAIL_RAW] += amt
                x_new = np.where(neg, 0.0, x_new)

        state[_T] = t_new
        state[_X] = x_new
        return stop

    rec = _run_live(_CAUSE + 1, n, {_X: cfg.x0}, step)
    cause = rec[_CAUSE].astype(np.int8)
    return {
        "cause": cause, "stop_t": rec[_T], "under": np.where(cause == DOWN, rec[_X], 0.0),
        "div": rec[_DIV], "bail": rec[_BAIL], "bail_raw": rec[_BAIL_RAW], "red": rec[_RED],
        "final": rec[_X],
    }


def _times(theta: float, v: np.ndarray) -> np.ndarray:
    """theta v, and 0 where v = 0, so that theta = inf weights v = 0 by e^0 = 1."""
    return np.multiply(theta, v, out=np.zeros_like(v), where=v != 0)


def _functional_values(fn: Functional, rec: dict, q: float) -> np.ndarray:
    cause, stop_t = rec["cause"], rec["stop_t"]
    if fn.name == "up_exit":
        return np.where(cause == UP, np.exp(-q * stop_t - _times(fn.theta, rec["bail_raw"])), 0.0)
    if fn.name == "severity":
        return np.where(cause == DOWN, np.exp(-q * stop_t + _times(fn.theta, rec["under"])), 0.0)
    if fn.name == "dividends":
        return rec["div"]
    if fn.name == "bailouts":
        return rec["bail"]
    if fn.name == "slg":
        return rec["div"] - fn.k * rec["bail"]
    return np.exp(-fn.red_rate * rec["red"])      # time_in_red


def _chunk_rng(seed: int, index: int):
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _map_chunks(simulate, seed: int, n_paths: int) -> list:
    """simulate(size, rng) for each chunk of n_paths, chunk i on the Philox key (seed, i),
    on the worker threads, in index order."""
    def run(start):
        return simulate(min(_CHUNK, n_paths - start), _chunk_rng(seed, start // _CHUNK))
    starts = range(0, n_paths, _CHUNK)
    w = _workers()
    if w > 1:
        with ThreadPoolExecutor(max_workers=w) as ex:
            return list(ex.map(run, starts))
    return [run(i) for i in starts]


def _tail_bound(cfg: PathConfig, fn: Functional, T: float) -> float:
    """Bound on what fn accrues after the horizon T, for the path laws of cfg.

    Dividends are paid at rate at most c, so their tail is at most
    c e^{-qT}/q.  Each injected unit repays a claim made no later, so the
    injections after T are at most the discounted claims after T,
    lam E[C] e^{-qT}/q; under Parisian reflection the deficit carried past
    T (the claims since the last observation, lam E[C]/r in mean) adds
    lam E[C] e^{-qT}/r.  slg = dividends - k bailouts takes both tails.
    """
    m, q = cfg.model, cfg.q
    disc = math.exp(-q * T)
    reflect_up = cfg.upper_barrier is not None and cfg.upper_mode == "reflect"
    dividends = m.c * disc / q if reflect_up else 0.0
    injections = 0.0
    if cfg.lower.endswith("reflect"):
        injections = m.lam * m.mean_claim * disc / q
        if cfg.lower == "parisian_reflect":
            injections += m.lam * m.mean_claim * disc / cfg.r
    return {"dividends": dividends, "bailouts": injections,
            "slg": dividends + abs(fn.k) * injections}[fn.name]


def _chunk_moments(v: np.ndarray) -> tuple:
    """(n, sum, residual, M2) of one chunk's values about its float mean.

    With m = sum/n, residual = sum(v - m) keeps what rounding m dropped and
    M2 = sum((v - m)^2), so the merge can difference two chunk means
    without losing the digits they share.
    """
    s = float(v.sum())
    d = v - s / v.size
    return v.size, s, float(d.sum()), float((d * d).sum())


def _merge_m2(parts) -> float:
    """Sum of squared deviations from the overall mean, merged in index order.

    The pairwise update of Chan, Golub & LeVeque (Am. Stat. 37, 1983):
    M2 = M2_a + M2_b + delta^2 n_a n_b / (n_a + n_b), with delta the
    difference of the two exact means, each carried as its float mean
    plus residual/n about it.
    """
    n = 0
    for nc, sc, rc, m2c in parts:
        mean_c = sc / nc
        m2c -= rc * rc / nc              # about the chunk's exact mean
        if n == 0:
            n, pivot, r, m2 = nc, mean_c, rc, m2c
            continue
        delta = (mean_c - pivot) + (rc / nc - r / n)
        m2 += m2c + delta * delta * (n * nc / (n + nc))
        r += rc + nc * (mean_c - pivot)
        n += nc
    return m2


def _summary(parts, n_paths: int, tail: float = 0.0, horizon: float | None = None) -> MCEstimate:
    """The mean, standard error and ci95 of the chunks' moments, merged in index order."""
    mean = sum(p[1] for p in parts) / n_paths
    se = math.sqrt(max(_merge_m2(parts), 0.0) / n_paths / n_paths)
    return MCEstimate(mean=mean, std_error=se, n_paths=n_paths,
                      ci95=(mean - 1.96 * se, mean + 1.96 * se), tail_bound=tail,
                      horizon=horizon)


def _sized_horizon(cfg: PathConfig, fn: Functional, n_paths: int, seed: int) -> float:
    """The cut T = min(T0, root of C e^{-qT} = 0.01 sd_pilot / sqrt(n_paths)).

    C is the tail bound at T = 0 and sd_pilot the spread of fn over a
    pilot run to the cap T0, on a chunk key no run of the estimate takes,
    so T does not depend on the worker count.  T0 stays when C or the
    spread is 0 or the root is not positive.
    """
    b = cfg.upper_barrier if cfg.upper_barrier is not None else 0.0
    cap = default_horizon(cfg.q, cfg.x0, b)
    C = _tail_bound(cfg, fn, 0.0)
    if C == 0.0:
        return cap
    rec = _simulate_chunk(replace(cfg, horizon=cap), min(n_paths, _PILOT_PATHS),
                          _chunk_rng(seed, _PILOT_CHUNK))
    target = _TAIL_SHARE * float(_functional_values(fn, rec, cfg.q).std()) / math.sqrt(n_paths)
    if target == 0.0:
        return cap
    root = math.log(C / target) / cfg.q
    return min(cap, root) if root > 0 else cap


def estimate(cfg: PathConfig, fn: Functional, n_paths: int, seed: int = 0) -> MCEstimate:
    """Monte-Carlo average of a path functional with its standard error.

    Dividend and bailout functionals under reflection at the upper barrier
    accrue for ever; without an explicit horizon they are cut at the
    sized horizon (see the module docstring), tail_bound reports what the
    cut can miss and horizon where it was made.
    """
    if n_paths < 1:
        raise DomainError(f"need at least one path, got n_paths={n_paths}")
    needs_horizon = fn.name in ("dividends", "bailouts", "slg") and cfg.upper_mode != "absorb"
    tail = 0.0
    if cfg.horizon is None and needs_horizon:
        cfg = replace(cfg, horizon=_sized_horizon(cfg, fn, n_paths, seed))
        tail = _tail_bound(cfg, fn, cfg.horizon)

    def simulate(n, rng):
        return _chunk_moments(_functional_values(fn, _simulate_chunk(cfg, n, rng), cfg.q))

    return _summary(_map_chunks(simulate, seed, n_paths), n_paths, tail, cfg.horizon)


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
    for s in spec.subsidiaries:
        if not s.phases:
            raise DomainError("each subsidiary needs a claim size mixture")
    if n_paths < 1:
        raise DomainError(f"need at least one path, got n_paths={n_paths}")
    if not 0 <= u0 <= b < math.inf:
        raise DomainError(f"need 0 <= u0 <= b < inf, got u0={u0}, b={b}")
    if horizon is None:
        horizon = default_horizon(spec.q, u0, b)
    elif not horizon >= 0:
        raise DomainError(f"the horizon must be nonnegative, got {horizon}")

    parts = _map_chunks(lambda n, rng: _network_chunk(spec, u0, b, horizon, n, rng),
                        seed, n_paths)
    return tuple(np.concatenate(col) for col in zip(*parts))


def _network_chunk(spec, u0, b, horizon, n, rng):
    """Run n network paths to ruin or the horizon on `_run_live`."""
    subs = spec.subsidiaries
    q = spec.q
    gamma = spec.gamma
    c_tilde = spec.c_tilde
    c0 = spec.c0
    lams = np.array([s.lam for s in subs])
    alphas = np.array([s.retention for s in subs])
    ratios = alphas / (1.0 - alphas)          # alpha_i / (1 - alpha_i)
    cs = np.array([s.premium for s in subs])
    lam_tot = float(lams.sum())
    p_sub = lams / lam_tot
    sum_c = float(cs.sum())

    # live-path rows: level, time and the three outputs
    U, TIME, DIRECT, LEMMA, SHORT = range(5)

    def step(state):
        na = state.shape[1]
        dt = rng.standard_exponential(na) * (1.0 / lam_tot)
        which = _pick(rng, na, p_sub) if len(subs) > 1 else np.zeros(na, dtype=int)
        sizes = np.zeros(na)
        for i, s in enumerate(subs):
            sel = which == i
            if sel.any():
                sizes[sel] = _sample_claims(rng, int(sel.sum()), s.phases)

        ta, ua = state[TIME], state[U]
        t2 = np.minimum(ta + dt, horizon)
        ended = ta + dt > horizon

        # continuous part, split at the barrier hit
        free_end, u_pre = _to_barrier(ta, ua, t2, b, c0)
        w_free = _disc_weight(q, ta, free_end)
        w_pin = _disc_weight(q, free_end, t2)
        # off the barrier: subsidiaries pay their excess premium;
        # on it: the CB routes c0 to dividends and targets freeze
        state[DIRECT] += (sum_c - gamma * c0) * w_free + (c0 + sum_c) * w_pin
        # lemma integrand with dX_0 = c0 dt - dR_0, dX_i = c_i dt - a_i dC_i
        state[LEMMA] += (
            (c_tilde - gamma * c0 - (c_tilde - sum_c)) * w_free
            + (c0 + c_tilde - (c_tilde - sum_c)) * w_pin
        )

        # claim of subsidiary `which`: CB covers the ceded share
        live = ~ended
        ceded = (1.0 - alphas[which]) * sizes
        kept = alphas[which] * sizes
        disc_ev = np.exp(-q * t2)
        u_post = np.where(live, u_pre - ceded, u_pre)
        ruined = live & (u_post < 0)

        # subsidiary bookkeeping: excess dividends keep reserves on the
        # line ratio_i u(t), so at a claim they sit at ratio_i u_pre;
        # the hit subsidiary pays its kept share, then every survivor
        # pays a lump back down to the line through u_post
        sub = u_pre[:, None] * ratios[None, :]
        sub[np.arange(na), which] -= np.where(live, kept, 0.0)
        target = np.maximum(u_post, 0.0)[:, None] * ratios[None, :]
        target = np.where(ruined[:, None], sub, target)   # no lumps at ruin
        lump = np.where(live[:, None], sub - target, 0.0)
        state[SHORT] = np.maximum(state[SHORT], -lump.min(axis=1))
        state[DIRECT] += np.where(live & ~ruined, lump.sum(axis=1) * disc_ev, 0.0)
        state[LEMMA] += np.where(
            live & ~ruined,
            (gamma * (1.0 - alphas[which]) / alphas[which] - 1.0) * kept * disc_ev,
            0.0,
        )

        state[TIME] = t2
        state[U] = u_post
        return ended | ruined

    rec = _run_live(SHORT + 1, n, {U: u0}, step)
    return rec[DIRECT], rec[LEMMA], rec[SHORT]


def network_estimate(spec, u0: float, b: float, horizon: float | None = None,
                     n_paths: int = 100_000, seed: int = 0) -> MCEstimate:
    direct, _, _ = network_paths(spec, u0, b, horizon, n_paths, seed)
    return _summary([_chunk_moments(direct)], n_paths)
