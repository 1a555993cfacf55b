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
hold a level that meets the barrier b at b with `_to_barrier`.  The
red-time update touches only the paths below 0; a network step places
each subsidiary's claim sizes by index and keeps its bookkeeping on 1-D
rows, adding the lumps in subsidiary order.

Reproducibility: paths are generated in fixed-size chunks, each chunk
seeded by a Philox key (seed, chunk_index), with one draw per live path
per step in index order.  Chunk results are reduced in index order, so
records and means are bit-identical for a given (config, functional,
n_paths, seed) regardless of the worker count.  The standard error comes
from per-chunk (n, sums, residuals, co-moments) merged by the pairwise
update of Chan, Golub & LeVeque, which keeps its digits when the spread
is small against the mean.

Cycles: dividends, bailouts, slg and (with an absorbing lower mechanism)
severity under reflection at the upper barrier b, with q > 0 and no
explicit horizon, regenerate at b: the value from b is D(b) = E_b[C] +
E_b[M] D(b), with C one cycle's discounted total and M = e^{-q length}
(0 if the path stopped in it), so D(b) = E[C]/(1 - E[M]) (Asmussen &
Glynn, Stochastic Simulation, 2007, ch. IV.4).  Each path runs a
pre-phase from x0 to b, giving its total P and A = e^{-q tau_b}, then
exactly one cycle, on a clock and totals restarted at 0: the stay at b
until the next claim and the excursion below b that the claim starts,
until the return to b or the stop.  The estimate is mean(P) + mean(A)
sum(C)/sum(1 - M), a path that stopped before b adding C = 0 and
1 - M = 0; its standard error is the delta method on the merged
co-moments of (P, A, C, 1 - M).  No horizon cuts these paths:
`MCEstimate.horizon` is None and `tail_bound` 0.

Stopping: without a finite horizon, a path must stop for sure, so a
configuration runs only if the upper barrier absorbs (or a cycle's claims
arrive) and either a lower mechanism acts or the drift is not negative,
or if the lower mechanism absorbs, claims arrive, and either there is a
barrier or the drift is not positive.  Any other configuration (say,
reflection at 0 and no barrier, or absorption at 0 with a positive drift
and no barrier) raises HorizonRequired before a step runs, as do
dividends, bailouts and slg under reflection at b with q = 0.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HorizonRequired, NotCheap, SigmaUnsupported
from .model import LevyModel

_CHUNK = 1 << 16

# stop causes
ALIVE, UP, DOWN, HORIZON = 0, 1, 2, 3

# rows of the live-path state in _simulate_chunk: time (the stop time once
# stopped), level, the dividend, bailout, raw-bailout and red-time
# accumulators, and the stop cause.  A cycle run, whose functionals read
# neither raw bailouts nor red time, keeps in their rows the pre-phase's
# bailouts and A = e^{-q tau_b}, NaN until the path reaches b
_T, _X, _DIV, _BAIL, _BAIL_RAW, _RED, _CAUSE = range(7)
_PRE, _A = _BAIL_RAW, _RED

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
    held at b from t_hit on (vectorized).  With c = 0 (a central branch without premium)
    a level below b never meets it: t_hit = inf."""
    t_hit = np.where(x >= b, t, t + ((b - x) / c if c > 0 else math.inf))
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


def _stops(cfg: PathConfig, cycle: bool = False) -> bool:
    """Whether every path of cfg (run as a cycle, if cycle) stops for sure without a horizon.

    An absorbing barrier stops the path unless it can drift off below (no
    lower mechanism and a negative drift), and so does a cycle's return to
    b once a claim has ended its stay there; an absorbing lower mechanism
    stops it unless it can escape upward (no barrier and a positive
    drift).  Nothing else stops a path.
    """
    m = cfg.model
    barrier = cfg.upper_barrier is not None
    back_at_b = cfg.upper_mode == "absorb" or cycle and m.lam > 0
    if barrier and back_at_b and (cfg.lower != "none" or m.drift >= 0):
        return True
    return cfg.lower.endswith("absorb") and m.lam > 0 and (barrier or m.drift <= 0)


def _simulate_chunk(cfg: PathConfig, n: int, rng, cycle: bool = False) -> dict:
    """Run n paths to their stop on `_run_live`; return per-path accounting arrays.

    With cycle, each runs a pre-phase and one cycle (see the module's "Cycles:")."""
    m = cfg.model
    c, lam = m.c, m.lam
    q = cfg.q
    b = cfg.upper_barrier
    reflect_up = b is not None and cfg.upper_mode == "reflect"
    absorb_up = b is not None and cfg.upper_mode == "absorb"
    obs_rate = cfg.r if cfg.lower.startswith("parisian") else 0.0
    total_rate = lam + obs_rate
    T = cfg.horizon if cfg.horizon is not None else math.inf
    if not math.isfinite(T) and not _stops(cfg, cycle):
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
        if cycle:
            # a path reaching b in its pre-phase keeps its bailouts so far and A, and
            # starts its cycle: clock and bailouts restart at 0 for a stay at b
            t_hit = t + (b - x) / c
            i = np.flatnonzero((t_hit <= t2) & np.isnan(state[_A]))
            state[_PRE, i], state[_BAIL, i] = state[_BAIL, i], 0.0
            state[_A, i] = np.exp(-q * t_hit[i])
            t2[i] -= t_hit[i]
            t[i], x[i] = 0.0, b
        clipped = np.minimum(t2, T)
        cut = t2 > T                      # horizon reached inside this segment

        # time below zero on the linear piece before any barrier interaction,
        # on the paths below 0 only
        below = np.flatnonzero(x < 0) if not cycle else ()
        if len(below):
            tb = t[below]
            state[_RED, below] += np.minimum(clipped[below], np.maximum(tb - x[below] / c, tb)) - tb

        t_new = clipped
        if reflect_up:
            paying, x_new = _to_barrier(t, x, clipped, b, c)
            if cycle:
                # a path below b that comes back to b ends its cycle there
                up = (x < b) & (paying < clipped)
                t_new = np.where(up, paying, clipped)
            state[_DIV] += c * _disc_weight(q, paying, t_new)
        elif absorb_up:
            # the barrier sits above 0, so an up-stop never truncates red time
            t_hit = t + (b - x) / c
            up = t_hit <= clipped
            t_new = np.where(up, t_hit, clipped)
            x_new = np.where(up, b, x + c * (clipped - t))
        else:
            x_new = x + c * (clipped - t)
        stop = cut | up if absorb_up or cycle else cut
        # the cause if the path stops now: UP, else HORIZON = DOWN + 1 if cut, else DOWN
        state[_CAUSE] = np.where(up, UP, DOWN + cut) if absorb_up or cycle else DOWN + cut

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
                if not cycle:
                    state[_BAIL_RAW] += amt
                x_new = np.where(neg, 0.0, x_new)

        state[_T] = t_new
        state[_X] = x_new
        return stop

    rec = _run_live(_CAUSE + 1, n, {_X: cfg.x0, _A: math.nan if cycle else 0.0}, step)
    cause = rec[_CAUSE].astype(np.int8)
    return {
        "cause": cause, "stop_t": rec[_T], "under": np.where(cause == DOWN, rec[_X], 0.0),
        "div": rec[_DIV], "bail": rec[_BAIL], "final": rec[_X],
        **({"pre": rec[_PRE], "a": rec[_A]} if cycle
           else {"bail_raw": rec[_BAIL_RAW], "red": rec[_RED]}),
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


def _cycle_values(fn: Functional, rec: dict, q: float) -> np.ndarray:
    """The rows P, A, C and 1 - M of a cycle run's record (see the module's "Cycles:"):
    a path's pre-phase adds only bailouts if it reached b, and it has no cycle if not."""
    at_b = ~np.isnan(rec["a"])
    whole = _functional_values(fn, rec, q)
    v = np.zeros((4, whole.size))
    v[0] = np.where(at_b, _functional_values(
        fn, {**rec, "cause": ALIVE, "div": 0.0, "bail": rec["pre"]}, q), whole)
    v[1, at_b] = rec["a"][at_b]
    v[2, at_b] = whole[at_b]
    v[3, at_b] = np.where(rec["cause"] == UP, -np.expm1(-q * rec["stop_t"]), 1.0)[at_b]
    return v


def _chunk_rng(seed: int, index: int):
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _map_chunks(simulate, seed: int, n_paths: int) -> list:
    """simulate(size, rng) for each chunk of n_paths, chunk i on the Philox key (seed, i),
    on the worker threads, in index order.  Philox reads the seed modulo 2**64, so only
    the integers in [-2**63, 2**63) have keys of their own."""
    if not (isinstance(seed, (int, np.integer)) and -2**63 <= seed < 2**63):
        raise DomainError(f"the seed must be an integer in [-2**63, 2**63), got {seed!r}")
    def run(start):
        return simulate(min(_CHUNK, n_paths - start), _chunk_rng(seed, start // _CHUNK))
    starts = range(0, n_paths, _CHUNK)
    w = _workers()
    if w > 1:
        with ThreadPoolExecutor(max_workers=w) as ex:
            return list(ex.map(run, starts))
    return [run(i) for i in starts]


def _chunk_moments(v: np.ndarray) -> tuple:
    """(n, sums, residuals, co-moments) of one chunk's rows of values about their float means.

    With m = sum/n per row, residual = sum(v - m) keeps what rounding m
    dropped and co-moment (i, j) = sum((v_i - m_i)(v_j - m_j)), so the merge
    can difference two chunk means without losing the digits they share.
    """
    v = np.atleast_2d(v)
    s = np.array([row.sum() for row in v])
    d = v - (s / v.shape[1])[:, None]
    return (v.shape[1], s, np.array([row.sum() for row in d]),
            np.array([[(di * dj).sum() for dj in d] for di in d]))


def _merge_m2(parts) -> np.ndarray:
    """Co-moments about the overall means, merged in index order.

    The pairwise update of Chan, Golub & LeVeque (Am. Stat. 37, 1983),
    taken to cross-moments: M2 = M2_a + M2_b + delta delta^T n_a n_b /
    (n_a + n_b), with delta the difference of the two exact means, each
    carried as its float mean plus residual/n about it.
    """
    n = 0
    for nc, sc, rc, m2c in parts:
        mean_c = sc / nc
        m2c = m2c - np.outer(rc, rc) / nc       # about the chunk's exact mean
        if n == 0:
            n, pivot, r, m2 = nc, mean_c, rc, m2c
            continue
        delta = (mean_c - pivot) + (rc / nc - r / n)
        m2 = m2 + (m2c + np.outer(delta, delta) * (n * nc / (n + nc)))
        r = r + (rc + nc * (mean_c - pivot))
        n += nc
    return m2


def _summary(parts, n_paths: int, horizon: float | None = None) -> MCEstimate:
    """The mean, standard error and ci95 of the chunks' moments, merged in index order.

    The rows P, A, C, 1 - M of a cycle run give mean(P) + mean(A) sum(C)/sum(1 - M),
    with the delta method's gradient; one row P is a plain mean, the case A = 0.
    """
    means, m2 = sum(p[1] for p in parts) / n_paths, _merge_m2(parts)
    p, a, c, d = means if len(means) == 4 else (means[0], 0.0, 0.0, 0.0)
    ratio, gain = (c / d, a / d) if d > 0 else (0.0, 0.0)
    grad = np.array([1.0, ratio, gain, -ratio * gain])[:len(means)]
    mean = float(p + a * ratio)
    se = math.sqrt(max(grad @ m2 @ grad, 0.0) / n_paths / n_paths)
    return MCEstimate(mean=mean, std_error=se, n_paths=n_paths,
                      ci95=(mean - 1.96 * se, mean + 1.96 * se), horizon=horizon)


def estimate(cfg: PathConfig, fn: Functional, n_paths: int, seed: int = 0) -> MCEstimate:
    """Monte-Carlo average of a path functional with its standard error.

    The rows the module's "Cycles:" names run one cycle per path.
    """
    if n_paths < 1:
        raise DomainError(f"need at least one path, got n_paths={n_paths}")
    accrues = fn.name in ("dividends", "bailouts", "slg")
    reflected = cfg.upper_mode == "reflect" and cfg.horizon is None
    if reflected and accrues and cfg.q == 0:
        raise HorizonRequired("infinite-horizon functional with q = 0 needs an explicit horizon")
    cycle = reflected and cfg.q > 0 and cfg.upper_barrier is not None and (
        accrues or fn.name == "severity" and cfg.lower.endswith("absorb"))

    def simulate(n, rng):
        rec = _simulate_chunk(cfg, n, rng, cycle)
        return _chunk_moments(_cycle_values(fn, rec, cfg.q) if cycle
                              else _functional_values(fn, rec, cfg.q))

    return _summary(_map_chunks(simulate, seed, n_paths), n_paths, cfg.horizon)


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
    lemma_rates = gamma * (1.0 - alphas) / alphas - 1.0
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
        hits = [which == i for i in range(len(subs))]
        sizes = np.empty(na)
        for hit, s in zip(hits, subs):
            at = np.flatnonzero(hit)
            sizes[at] = _sample_claims(rng, at.size, s.phases)

        ta, ua = state[TIME], state[U]
        t2 = np.minimum(ta + dt, horizon)
        ended = ta + dt > horizon

        # continuous part, split at the barrier hit; w_free and w_pin are
        # `_disc_weight`'s expressions on three shared exponentials
        free_end, u_pre = _to_barrier(ta, ua, t2, b, c0)
        if q > 0:
            e_free, disc_ev = np.exp(-q * free_end), np.exp(-q * t2)
            w_free, w_pin = (np.exp(-q * ta) - e_free) / q, (e_free - disc_ev) / q
        else:
            w_free, w_pin, disc_ev = free_end - ta, t2 - free_end, 1.0
        # off the barrier: subsidiaries pay their excess premium;
        # on it: the CB routes c0 to dividends and targets freeze
        state[DIRECT] += (sum_c - gamma * c0) * w_free + (c0 + sum_c) * w_pin
        # lemma integrand with dX_0 = c0 dt - dR_0, dX_i = c_i dt - a_i dC_i
        state[LEMMA] += (
            (c_tilde - gamma * c0 - (c_tilde - sum_c)) * w_free
            + (c0 + c_tilde - (c_tilde - sum_c)) * w_pin
        )

        # claim of subsidiary `which`: CB covers the ceded share
        alpha = alphas[which]
        kept = alpha * sizes
        u_post = u_pre - (1.0 - alpha) * sizes
        ruined = ~ended & (u_post < 0)
        paid = ~ended & ~ruined

        # subsidiary bookkeeping: excess dividends keep reserves on the
        # line ratio_i u(t), so at a claim they sit at ratio_i u_pre;
        # the hit subsidiary pays its kept share, then every survivor
        # pays a lump back down to the line through u_post.  One row per
        # subsidiary; the lumps add up in subsidiary order
        line = np.maximum(u_post, 0.0)
        for i, (hit, ratio) in enumerate(zip(hits, ratios)):
            lump = (u_pre * ratio - kept * hit) - line * ratio
            low, total = (lump, lump) if i == 0 else (np.minimum(low, lump), total + lump)
        # no lumps at ruin or past the horizon
        state[SHORT] = np.maximum(state[SHORT], -np.where(paid, low, 0.0))
        state[DIRECT] += np.where(paid, total * disc_ev, 0.0)
        state[LEMMA] += np.where(paid, lemma_rates[which] * kept * disc_ev, 0.0)

        state[TIME] = t2
        state[U] = u_post
        return ended | ruined

    rec = _run_live(SHORT + 1, n, {U: u0}, step)
    return rec[DIRECT], rec[LEMMA], rec[SHORT]


def network_estimate(spec, u0: float, b: float, horizon: float | None = None,
                     n_paths: int = 100_000, seed: int = 0) -> MCEstimate:
    direct, _, _ = network_paths(spec, u0, b, horizon, n_paths, seed)
    return _summary([_chunk_moments(direct)], n_paths)
