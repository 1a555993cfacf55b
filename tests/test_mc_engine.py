"""The live-set chunk loop against a full-width masked loop kept as reference.

The reference masks arrays of the whole chunk width on every step.  Both
draw the same numbers in the same order and apply the same per-path
arithmetic, so every record array must agree byte for byte.
"""

import math

import numpy as np
import pytest

from parisian_scale import LevyModel, mc
from parisian_scale.errors import HorizonRequired

M1 = LevyModel(c=1.0, sigma2=0.0, lam=1.0, phases=((1.0, 2.0),))
M3 = LevyModel(c=2.0, sigma2=0.0, lam=1.5, phases=((0.3, 1.0), (0.5, 3.0), (0.2, 8.0)))
LOWERS = ("none", "classical_absorb", "classical_reflect", "parisian_absorb",
          "parisian_reflect")


def masked_chunk(cfg, n, rng, raw=False):
    """Run n paths to their stop, masking full-width arrays on every step.

    With raw=True the record also holds each path's raw claims and raw
    dividends, which the engine does not keep, for the balance identity.
    """
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
    claims = np.zeros(n)
    div_raw = np.zeros(n)

    while True:
        alive = cause == mc.ALIVE
        if not alive.any():
            break
        na = int(alive.sum())
        if total_rate > 0:
            dt = rng.exponential(1.0 / total_rate, size=na)
            is_claim = (rng.random(na) < lam / total_rate) if obs_rate > 0 else np.ones(na, bool)
            claim_sizes = np.where(is_claim, mc._sample_claims(rng, na, m.phases), 0.0) \
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

        ca = np.full(na, mc.ALIVE, dtype=np.int8)
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
            div[alive] += c * mc._disc_weight(q, paying, clipped)
            div_raw[alive] += c * (clipped - paying)
            x_end = np.where(clipped > t_hit, b, xa + c * (clipped - ta))
        elif absorb_up:
            # the barrier sits above 0, so an up-stop never truncates red time
            t_hit = ta + (b - xa) / c
            hit = t_hit <= clipped
            ca = np.where(hit, mc.UP, ca)
            st = np.where(hit, t_hit, st)
            x_end = np.where(hit, b, xa + c * (clipped - ta))
        else:
            x_end = xa + c * (clipped - ta)

        live = ca == mc.ALIVE
        hz = live & cut
        ca = np.where(hz, mc.HORIZON, ca)
        st = np.where(hz, T, st)

        live = ca == mc.ALIVE
        # event at t2 for still-live paths
        if total_rate > 0:
            ev_claim = live & is_claim
            ev_obs = live & ~is_claim
            x_new = np.where(ev_claim, x_end - claim_sizes, x_end)
            claims[alive] += np.where(ev_claim, claim_sizes, 0.0)
            if cfg.lower == "classical_absorb":
                ruin = ev_claim & (x_new < 0)
                ca = np.where(ruin, mc.DOWN, ca)
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
                ca = np.where(ruin, mc.DOWN, ca)
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

        stopped = ca != mc.ALIVE
        bval = b if b is not None else 0.0
        x_fin = np.where(ca == mc.UP, bval, np.where(ca == mc.HORIZON, x_end, x_new))
        t_fin = np.where(stopped, st, clipped)

        t[alive] = t_fin
        x[alive] = x_fin
        idx = np.flatnonzero(alive)
        cause[idx[stopped]] = ca[stopped]
        stop_t[idx[stopped]] = st[stopped]
        under[idx[stopped]] = un[stopped]

    rec = {
        "cause": cause, "stop_t": stop_t, "under": under, "div": div,
        "bail": bail, "bail_raw": bail_raw, "red": red, "final": x,
    }
    if raw:
        rec.update(claims=claims, div_raw=div_raw)
    return rec


def balance_residuals(cfg, n, seed):
    """x0 + c stop_t - claims + injections - dividends - final level, per path.

    stop_t, the injections and the final level come from the engine's own
    record; the raw claims and dividends, which the engine does not keep,
    from the reference run on the same stream.
    """
    live = mc._simulate_chunk(cfg, n, np.random.Generator(np.random.Philox(key=[seed, 0])))
    ref = masked_chunk(cfg, n, np.random.Generator(np.random.Philox(key=[seed, 0])), raw=True)
    return (cfg.x0 + cfg.model.c * live["stop_t"] - ref["claims"] + live["bail_raw"]
            - ref["div_raw"] - live["final"])



def _configs():
    for name, m in (("m1", M1), ("m3", M3)):
        for lower in LOWERS:
            r = 1.0 / 3.0 if lower.startswith("parisian") else 0.0
            for upper in ("absorb", "reflect"):
                yield f"{name}-{lower}-{upper}", mc.PathConfig(
                    model=m, x0=0.6, q=2.0 / 3.0, upper_barrier=1.5, upper_mode=upper,
                    lower=lower, r=r, horizon=30.0 if upper == "reflect" else None)
        yield f"{name}-red", mc.PathConfig(model=m, x0=0.6, q=0.0, upper_barrier=20.0,
                                           horizon=100.0)
        yield f"{name}-below-zero-no-barrier", mc.PathConfig(
            model=m, x0=-0.4, q=0.5, lower="parisian_reflect", r=0.5, horizon=15.0)
        # the horizon ends the first segment below 0 (m1) or as it reaches 0 (m3)
        yield f"{name}-red-past-horizon", mc.PathConfig(model=m, x0=-0.4, horizon=0.2)


CONFIGS = dict(_configs())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_records_byte_identical(name):
    cfg = CONFIGS[name]
    for seed in (1, 2):
        live = mc._simulate_chunk(cfg, 3000, np.random.Generator(np.random.Philox(key=[seed, 0])))
        masked = masked_chunk(cfg, 3000, np.random.Generator(np.random.Philox(key=[seed, 0])))
        assert sorted(live) == sorted(masked)
        for key, arr in masked.items():
            assert live[key].dtype == arr.dtype and live[key].tobytes() == arr.tobytes(), key


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_balance_identity(name):
    """Premiums in, claims out, injections in, dividends out: the level balances."""
    cfg = CONFIGS[name]
    for seed in (1, 2):
        assert np.abs(balance_residuals(cfg, 3000, seed)).max() < 1e-9
