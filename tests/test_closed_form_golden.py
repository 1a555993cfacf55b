"""Pinned values of every context mixture, the 11 laws and 9 objectives of the law table
and the 3 barrier functions.

The pins are ``float.hex`` strings.  Mixtures whose terms are the roots of
kappa = q alone (W, W', W'', Z_q(., theta), W_{q,r}, W'_{q,r},
the Z_{q,r}(., theta) family and the exponential Gerber-Shiu function)
must match bit for bit.  Mixtures that also carry the rate-0 terms 1, x
and x^2 may sum their terms in another order, so they must stay within
4 eps times the sum of their terms' sizes; the one law that reads such a
mixture (the resolvent integral, through Wbar_{q,r}) gets the bound that
error propagates to.  The objectives and barrier functions must match bit
for bit, except VF_bail, which may move by the rounding of its own
operation order (see test_objectives_match_pins).  A law, objective or
barrier function that raises pins the error's class name.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from parisian_scale import LevyModel, build_parisian, build_scale, control, scale, table

EPS = np.finfo(float).eps
X = (0.0, 0.45, 1.7, 2.5, 6.0)
B = 2.5
THETAS = (0.0, 1.3)
K_COST, K_LUMP = 1.7, 0.6       # k and K of the objectives and barrier functions
BARRIER_BS = (0.5, B)

MODELS = {
    "m1": (LevyModel(c=1.0, lam=1.0, phases=((1.0, 2.0),)), 2.0 / 3.0, 1.0 / 3.0),
    "m2": (LevyModel(c=0.0, sigma2=2.0), 1.0, 3.0),
    "m3": (LevyModel(c=2.0, sigma2=0.5, lam=1.5, phases=((0.3, 1.0), (0.5, 3.0), (0.2, 7.0))),
           0.5, 2.0),
    "neg_q0": (LevyModel(c=0.5, lam=1.0, phases=((1.0, 1.0),)), 0.0, 1.0),
}

EXACT = ({"W", "dW", "ddW", "Wqr", "dWqr"}
         | {f"{name}({theta})" for theta in ("0.0", "1.3")
            for name in ("z_mix", "gs_exp", "gs_exp_d")}
         | {f"pZ{d}({theta})" for theta in ("0.0", "1.3", "phi_qr", "inf") for d in (0, 1, 2)})


def mixtures(ctx, pctx):
    """name -> the context mixture it pins."""
    out = {name: getattr(ctx, name) for name in ("W", "dW", "Wbar", "Z0", "Zbar", "Z1")}
    out.update(ddW=ctx.dW.derivative(), Wqr=pctx.W, dWqr=pctx.dW, Wbar_qr=pctx.Wbar)
    if ctx.q > 0:
        out.update((name, getattr(pctx, name)) for name in ("S", "dS"))
    thetas = {str(t): t for t in THETAS}
    for key, theta in thetas.items():
        out[f"z_mix({key})"] = scale.z_mix(ctx, theta)
        gs = scale.build_gerber_shiu(ctx, scale.Exponential(theta))
        out[f"gs_exp({key})"], out[f"gs_exp_d({key})"] = gs.mix, gs.dmix
    for key, theta in {**thetas, "phi_qr": pctx.phi_qr, "inf": math.inf}.items():
        for d in (0, 1, 2):
            out[f"pZ{d}({key})"] = pctx.Z(theta, d)
    for name, penalty in (("gs_lin", scale.Linear(0.7, -0.4)), ("gs_const", scale.Constant(1.5))):
        gs = scale.build_gerber_shiu(ctx, penalty)
        out[name], out[f"{name}_d"] = gs.mix, gs.dmix
    return out


def terms_size(mix, x):
    """Sum over the terms of |w x^k e^{rho x}|."""
    return sum(abs(w * x**k * np.exp(rho * x))
               for w, rho, k in zip(mix.w.tolist(), mix.rho.tolist(), mix.k.tolist()) if w)


def hexes(values):
    """float.hex of each value, or the class name of the error computing them raises."""
    try:
        return [float(v).hex() for v in values()]
    except Exception as exc:  # noqa: BLE001  the class of the error is the pin
        return type(exc).__name__


def law_values(ctx, pctx):
    """name -> the law's values (or its error's class name) on the x <= b points."""
    args = SimpleNamespace(b=B, theta=1.3, vartheta=0.4, r=pctx.r, k=0.0, K=0.0)
    return {name: hexes(lambda: row.column(
                build_scale(ctx.model, 0.0) if name == "time_in_red" else ctx, pctx,
                np.array(X[:4]), args))
            for name, row in table.LAWS.items()}


def objective_values(ctx, pctx):
    """name -> the objective's values (or its error's class name) on the x <= b points."""
    args = SimpleNamespace(b=B, theta=1.3, vartheta=0.4, r=pctx.r, k=K_COST, K=K_LUMP)
    return {name: hexes(lambda: row.column(ctx, pctx, np.array(X[:4]), args))
            for name, row in table.OBJECTIVES.items()}


def barrier_values(ctx, pctx):
    """kind -> G at the BARRIER_BS (or its error's class name)."""
    penalty = scale.Linear(K_COST, K_LUMP)
    return {kind: hexes(lambda: [control.barrier_function(
                kind, pctx if kind == "SLG_parisian" else ctx, b, k=K_COST, penalty=penalty)
                for b in BARRIER_BS])
            for kind in ("deFinetti_classic", "SLG_classic", "SLG_parisian")}


def contexts(label):
    model, q, r = MODELS[label]
    pctx = build_parisian(model, q, r)
    return pctx.base, pctx


def record():
    """The pins of this tree, in the form of MIXTURE_PINS, LAW_PINS, OBJECTIVE_PINS
    and BARRIER_PINS."""
    pins = {}, {}, {}, {}
    for label in MODELS:
        ctx, pctx = contexts(label)
        values = ({name: [float(v).hex() for v in mix(np.array(X))]
                   for name, mix in mixtures(ctx, pctx).items()},
                  law_values(ctx, pctx), objective_values(ctx, pctx), barrier_values(ctx, pctx))
        for table, got in zip(pins, values):
            for name, value in got.items():
                table[label, name] = value if isinstance(value, str) else tuple(value)
    return pins


MIXTURE_PINS = {
    ('m1', 'W'): (
        '0x1.ffffffffffffep-1', '0x1.dc0e9e456e1c5p+0', '0x1.c0883ffe2aad4p+2',
        '0x1.f4e57d839fd34p+3', '0x1.0358d731cc297p+9'),
    ('m1', 'dW'): (
        '0x1.aaaaaaaaaaaaap+0', '0x1.1cdc48419c708p+1', '0x1.c4f4765510626p+2',
        '0x1.f5a8515f2fb35p+3', '0x1.0358de85d72adp+9'),
    ('m1', 'ddW'): (
        '0x1.8e38e38e38e33p-1', '0x1.bcd5f830d5300p+0', '0x1.bf0ed88bde1b6p+2',
        '0x1.f4a48c3a6fddbp+3', '0x1.0358d4c07328fp+9'),
    ('m1', 'Wbar'): (
        '-0x1.0000000000000p-54', '0x1.449c27e78c5ffp-1', '0x1.63d968bf56f54p+2',
        '0x1.c5779c684bbb7p+3', '0x1.0298dcb0d46a8p+9'),
    ('m1', 'Z0'): (
        '0x1.0000000000000p+0', '0x1.6c340d4d2ecabp+0', '0x1.2d3b9b2a39f8dp+2',
        '0x1.4e4fbd9add27ap+3', '0x1.59cbd0ebc5e36p+8'),
    ('m1', 'Zbar'): (
        '0x1.0000000000000p-55', '0x1.1228a4ec0581ep-1', '0x1.f7260d9347a9ep+1',
        '0x1.3606ae2887339p+3', '0x1.590bcb6cbda27p+8'),
    ('m1', 'Z1'): (
        '0x1.0000000000000p-54', '0x1.bf6a43e0fd478p-3', '0x1.269949a7e1693p+0',
        '0x1.4d2b7fd185579p+1', '0x1.59cbbaefa4df8p+6'),
    ('m1', 'Wqr'): (
        '0x1.ffffffffffffep-1', '0x1.9a88e0aedb6b0p+0', '0x1.6a3f09ae73421p+2',
        '0x1.935030432c37dp+3', '0x1.a169ae50e64f6p+8'),
    ('m1', 'dWqr'): (
        '0x1.14b491129e676p+0', '0x1.a5e5e3edb184fp+0', '0x1.6ac865f05d82ep+2',
        '0x1.9367d337f4e5fp+3', '0x1.a169b0181aa03p+8'),
    ('m1', 'Wbar_qr'): (
        '-0x1.a000000000000p-55', '0x1.270e6ca00a620p-1', '0x1.26c433ac653f7p+2',
        '0x1.7170fce103e0cp+3', '0x1.a05a28397f954p+8'),
    ('m1', 'S'): (
        '0x1.fffffffffffffp-3', '0x1.b6c5c34803abep-2', '0x1.8f6eb3b7851bep+0',
        '0x1.bd5e3d8b5eef8p+1', '0x1.cd0fb9e6522dep+6'),
    ('m1', 'dS'): (
        '0x1.5555555555555p-2', '0x1.e59abc66e90e3p-2', '0x1.91a4cee2f7f66p+0',
        '0x1.bdbfa77926df7p+1', '0x1.cd0fc13a5d2f2p+6'),
    ('m1', 'z_mix(0.0)'): (
        '0x1.fffffffffffffp-1', '0x1.6c340d4d2eca9p+0', '0x1.2d3b9b2a39f8cp+2',
        '0x1.4e4fbd9add278p+3', '0x1.59cbd0ebc5e34p+8'),
    ('m1', 'gs_exp(0.0)'): (
        '0x1.fffffffffffffp-1', '0x1.6c340d4d2eca9p+0', '0x1.2d3b9b2a39f8cp+2',
        '0x1.4e4fbd9add278p+3', '0x1.59cbd0ebc5e34p+8'),
    ('m1', 'gs_exp_d(0.0)'): (
        '0x1.5555555555553p-1', '0x1.3d5f142e49682p+0', '0x1.2b057ffec71e2p+2',
        '0x1.4dee53ad15376p+3', '0x1.59cbc997bae1ep+8'),
    ('m1', 'z_mix(1.3)'): (
        '0x1.0000000000000p+0', '0x1.984455ed09acdp+0', '0x1.674286c38947bp+2',
        '0x1.8fef94d786ef1p+3', '0x1.9de84ef4300f5p+8'),
    ('m1', 'gs_exp(1.3)'): (
        '0x1.0000000000000p+0', '0x1.984455ed09acdp+0', '0x1.674286c38947bp+2',
        '0x1.8fef94d786ef1p+3', '0x1.9de84ef4300f5p+8'),
    ('m1', 'gs_exp_d(1.3)'): (
        '0x1.0f83e0f83e0f7p+0', '0x1.a0c8262133618p+0', '0x1.67a9746e58581p+2',
        '0x1.90014b02c28f1p+3', '0x1.9de8504949554p+8'),
    ('m1', 'pZ0(0.0)'): (
        '0x1.ffffffffffffap-1', '0x1.8b1744e3a1dffp+0', '0x1.55e88f8260296p+2',
        '0x1.7c500a0b11dcdp+3', '0x1.898a6484862b2p+8'),
    ('m1', 'pZ1(0.0)'): (
        '0x1.e2b7dddfefa5fp-1', '0x1.830e49588ed08p+0', '0x1.55876e9fd60bdp+2',
        '0x1.7c3f535effabap+3', '0x1.898a6342a5609p+8'),
    ('m1', 'pZ2(0.0)'): (
        '0x1.04e15b05580ebp+0', '0x1.8dc4ee11fd8fap+0', '0x1.5608efcde3889p+2',
        '0x1.7c559c446d428p+3', '0x1.898a64efd1192p+8'),
    ('m1', 'pZ0(1.3)'): (
        '0x1.ffffffffffffcp-1', '0x1.927ce3cd90122p+0', '0x1.5fa64164a05dfp+2',
        '0x1.87543a5197672p+3', '0x1.94f974b5575b4p+8'),
    ('m1', 'pZ1(1.3)'): (
        '0x1.0249de2061504p+0', '0x1.93be6bbd3c409p+0', '0x1.5fb570127cb90p+2',
        '0x1.8756d7205b0c1p+3', '0x1.94f974e7a7960p+8'),
    ('m1', 'pZ2(1.3)'): (
        '0x1.fe796bea69c9ep-1', '0x1.9211b67dac026p+0', '0x1.5fa131d556ea0p+2',
        '0x1.87535b6200da9p+3', '0x1.94f974a491f22p+8'),
    ('m1', 'pZ0(phi_qr)'): (
        '0x1.ffffffffffffbp-1', '0x1.92d012c93ea57p+0', '0x1.6013cc9869b5bp+2',
        '0x1.87d01d271f0a4p+3', '0x1.957a096ab63d3p+8'),
    ('m1', 'pZ1(phi_qr)'): (
        '0x1.030840014b1d2p+0', '0x1.947a16a3202aap+0', '0x1.6027ea4819c75p+2',
        '0x1.87d3934b7a48ap+3', '0x1.957a09ad60005p+8'),
    ('m1', 'pZ2(phi_qr)'): (
        '0x1.fdfa7fff23414p-1', '0x1.924211809e238p+0', '0x1.600d1808845a5p+2',
        '0x1.87cef5c5ab4a9p+3', '0x1.957a09547da69p+8'),
    ('m1', 'pZ0(inf)'): (
        '0x1.ffffffffffffep-1', '0x1.9a88e0aedb6b0p+0', '0x1.6a3f09ae73421p+2',
        '0x1.935030432c37dp+3', '0x1.a169ae50e64f6p+8'),
    ('m1', 'pZ1(inf)'): (
        '0x1.14b491129e676p+0', '0x1.a5e5e3edb184fp+0', '0x1.6ac865f05d82ep+2',
        '0x1.9367d337f4e5fp+3', '0x1.a169b0181aa03p+8'),
    ('m1', 'pZ2(inf)'): (
        '0x1.f23249f396655p-1', '0x1.96bf34ef3eb77p+0', '0x1.6a114043252c4p+2',
        '0x1.93484f46e952ep+3', '0x1.a169adb92a343p+8'),
    ('m1', 'gs_lin'): (
        '-0x1.999999999999ap-2', '-0x1.aa214a53256b6p-2', '-0x1.13c0de4e0bc49p+0',
        '-0x1.2dadef7eb7b56p+1', '-0x1.37377e9e4935dp+6'),
    ('m1', 'gs_lin_d'): (
        '0x1.555555555555ep-4', '-0x1.35027e0cb2c7dp-3', '-0x1.06ed73eba4d09p+0',
        '-0x1.2b78ef81fcde7p+1', '-0x1.3737541d3c945p+6'),
    ('m1', 'gs_const'): (
        '0x1.8000000000001p+0', '0x1.112709f9e3180p+1', '0x1.c3d968bf56f54p+2',
        '0x1.f5779c684bbb7p+3', '0x1.0358dcb0d46a8p+9'),
    ('m1', 'gs_const_d'): (
        '0x1.ffffffffffffep-1', '0x1.dc0e9e456e1c5p+0', '0x1.c0883ffe2aad4p+2',
        '0x1.f4e57d839fd34p+3', '0x1.0358d731cc297p+9'),
    ('m2', 'W'): (
        '0x0.0p+0', '0x1.dc829e20bf8bfp-2', '0x1.52a411348ac57p+1',
        '0x1.83368cdb0b6d3p+2', '0x1.936d22f67c805p+7'),
    ('m2', 'dW'): (
        '0x1.0000000000000p+0', '0x1.1a5c40c269584p+0', '0x1.6a063dad344f7p+1',
        '0x1.88776e4b30aa3p+2', '0x1.936e67db9b919p+7'),
    ('m2', 'ddW'): (
        '0x0.0p+0', '0x1.dc829e20bf8bfp-2', '0x1.52a411348ac57p+1',
        '0x1.83368cdb0b6d3p+2', '0x1.936d22f67c805p+7'),
    ('m2', 'Wbar'): (
        '0x0.0p+0', '0x1.a5c40c269584cp-4', '0x1.d40c7b5a689eep+0',
        '0x1.48776e4b30aa3p+2', '0x1.916e67db9b919p+7'),
    ('m2', 'Z0'): (
        '0x1.0000000000000p+0', '0x1.1a5c40c269585p+0', '0x1.6a063dad344f7p+1',
        '0x1.88776e4b30aa3p+2', '0x1.936e67db9b919p+7'),
    ('m2', 'Zbar'): (
        '0x0.0p+0', '0x1.dc829e20bf8c1p-2', '0x1.52a411348ac57p+1',
        '0x1.83368cdb0b6d3p+2', '0x1.936d22f67c805p+7'),
    ('m2', 'Z1'): (
        '0x0.0p+0', '0x1.dc829e20bf8c1p-2', '0x1.52a411348ac57p+1',
        '0x1.83368cdb0b6d3p+2', '0x1.936d22f67c805p+7'),
    ('m2', 'Wqr'): (
        '0x1.0000000000000p+0', '0x1.044ec7e9648f2p+1', '0x1.03d3980592769p+3',
        '0x1.23b9220051e12p+4', '0x1.2e922b7225249p+9'),
    ('m2', 'dWqr'): (
        '0x1.0000000000000p+1', '0x1.55ec94868149cp+1', '0x1.09ac2323bcd91p+3',
        '0x1.25095a5c5b306p+4', '0x1.2e927cab6ce8dp+9'),
    ('m2', 'Wbar_qr'): (
        '0x0.0p+0', '0x1.57b2521a05274p-1', '0x1.9358464779b22p+2',
        '0x1.05095a5c5b306p+4', '0x1.2d927cab6ce8dp+9'),
    ('m2', 'S'): (
        '0x0.0p+0', '0x1.6561f6988fa91p-2', '0x1.fbf619ced0282p+0',
        '0x1.2268e9a44891ep+2', '0x1.2e91da38dd604p+7'),
    ('m2', 'dS'): (
        '0x1.8000000000000p-1', '0x1.a78a61239e048p-1', '0x1.0f84ae41e73b9p+1',
        '0x1.265992b8647fap+2', '0x1.2e92cde4b4ad2p+7'),
    ('m2', 'z_mix(0.0)'): (
        '0x1.0000000000000p+0', '0x1.1a5c40c269584p+0', '0x1.6a063dad344f7p+1',
        '0x1.88776e4b30aa3p+2', '0x1.936e67db9b919p+7'),
    ('m2', 'gs_exp(0.0)'): (
        '0x1.0000000000000p+0', '0x1.1a5c40c269584p+0', '0x1.6a063dad344f7p+1',
        '0x1.88776e4b30aa3p+2', '0x1.936e67db9b919p+7'),
    ('m2', 'gs_exp_d(0.0)'): (
        '0x0.0p+0', '0x1.dc829e20bf8bfp-2', '0x1.52a411348ac57p+1',
        '0x1.83368cdb0b6d3p+2', '0x1.936d22f67c805p+7'),
    ('m2', 'z_mix(1.3)'): (
        '0x1.fffffffffffffp-1', '0x1.b539e759dacc1p+0', '0x1.9120f6d25ac1ap+2',
        '0x1.bfebf91a5fc27p+3', '0x1.cff157746b829p+8'),
    ('m2', 'gs_exp(1.3)'): (
        '0x1.fffffffffffffp-1', '0x1.b539e759dacc1p+0', '0x1.9120f6d25ac1ap+2',
        '0x1.bfebf91a5fc27p+3', '0x1.cff157746b829p+8'),
    ('m2', 'gs_exp_d(1.3)'): (
        '0x1.4ccccccccccccp+0', '0x1.e6322eeb526f5p+0', '0x1.94a2e3e4742fep+2',
        '0x1.c0b5b484cbbedp+3', '0x1.cff18830635ebp+8'),
    ('m2', 'pZ0(0.0)'): (
        '0x1.0000000000000p+0', '0x1.55ec94868149cp+0', '0x1.09ac2323bcd91p+2',
        '0x1.25095a5c5b306p+3', '0x1.2e927cab6ce8dp+8'),
    ('m2', 'pZ1(0.0)'): (
        '0x1.0000000000000p-1', '0x1.044ec7e9648f2p+0', '0x1.03d3980592769p+2',
        '0x1.23b9220051e12p+3', '0x1.2e922b7225249p+8'),
    ('m2', 'pZ2(0.0)'): (
        '0x1.0000000000000p+0', '0x1.55ec94868149cp+0', '0x1.09ac2323bcd91p+2',
        '0x1.25095a5c5b306p+3', '0x1.2e927cab6ce8dp+8'),
    ('m2', 'pZ0(1.3)'): (
        '0x1.0000000000000p+0', '0x1.9c51549ccc215p+0', '0x1.6db9b3dbfd1f1p+2',
        '0x1.9770be28b5d67p+3', '0x1.a5c42fba11b1ap+8'),
    ('m2', 'pZ1(1.3)'): (
        '0x1.1745d1745d174p+0', '0x1.ab2833ff2e71dp+0', '0x1.6ec9cd274aa55p+2',
        '0x1.97addfadcecd9p+3', '0x1.a5c43e7eaa610p+8'),
    ('m2', 'pZ2(1.3)'): (
        '0x1.0000000000000p+0', '0x1.9c51549ccc215p+0', '0x1.6db9b3dbfd1f1p+2',
        '0x1.9770be28b5d67p+3', '0x1.a5c42fba11b1ap+8'),
    ('m2', 'pZ0(phi_qr)'): (
        '0x1.0000000000000p+0', '0x1.af45122ca533fp+0', '0x1.88a9a99770e32p+2',
        '0x1.b63dcf2e7f795p+3', '0x1.c5db69c7db990p+8'),
    ('m2', 'pZ1(phi_qr)'): (
        '0x1.4000000000000p+0', '0x1.d813f87b33915p+0', '0x1.8b95ef2686146p+2',
        '0x1.b6e5eb5c8420fp+3', '0x1.c5db92647f7b2p+8'),
    ('m2', 'pZ2(phi_qr)'): (
        '0x1.0000000000000p+0', '0x1.af45122ca533fp+0', '0x1.88a9a99770e32p+2',
        '0x1.b63dcf2e7f795p+3', '0x1.c5db69c7db990p+8'),
    ('m2', 'pZ0(inf)'): (
        '0x1.0000000000000p+0', '0x1.044ec7e9648f2p+1', '0x1.03d3980592769p+3',
        '0x1.23b9220051e12p+4', '0x1.2e922b7225249p+9'),
    ('m2', 'pZ1(inf)'): (
        '0x1.0000000000000p+1', '0x1.55ec94868149cp+1', '0x1.09ac2323bcd91p+3',
        '0x1.25095a5c5b306p+4', '0x1.2e927cab6ce8dp+9'),
    ('m2', 'pZ2(inf)'): (
        '0x1.0000000000000p+0', '0x1.044ec7e9648f2p+1', '0x1.03d3980592769p+3',
        '0x1.23b9220051e12p+4', '0x1.2e922b7225249p+9'),
    ('m2', 'gs_lin'): (
        '-0x1.999999999999bp-2', '-0x1.d8e0b08089e08p-4', '0x1.70f49a4aca766p-1',
        '0x1.c8400d203887ap+0', '0x1.e41a8885fd4b1p+5'),
    ('m2', 'gs_lin_d'): (
        '0x1.6666666666666p-1', '0x1.2c00a17006c60p-1', '0x1.d7d7c45db46f4p-1',
        '0x1.df5d86a742c76p+0', '0x1.e4201e0fb9309p+5'),
    ('m2', 'gs_const'): (
        '0x1.8000000000000p+0', '0x1.a78a61239e048p+0', '0x1.0f84ae41e73b9p+2',
        '0x1.265992b8647fap+3', '0x1.2e92cde4b4ad2p+8'),
    ('m2', 'gs_const_d'): (
        '0x0.0p+0', '0x1.6561f6988fa91p-1', '0x1.fbf619ced0282p+1',
        '0x1.2268e9a44891ep+3', '0x1.2e91da38dd604p+8'),
    ('m3', 'W'): (
        '0x1.0000000000000p-56', '0x1.269c4419dc958p-1', '0x1.069ac1bd53e2fp+0',
        '0x1.5e9651d1d54b4p+0', '0x1.20eeea9fb2b96p+2'),
    ('m3', 'dW'): (
        '0x1.fffffffffffffp+1', '0x1.be9e80f57742ep-2', '0x1.89ef24dd5e910p-2',
        '0x1.ecfb011f9f2eep-2', '0x1.862e6e256addfp+0'),
    ('m3', 'ddW'): (
        '-0x1.0000000000000p+5', '-0x1.7182daac6b645p-1', '0x1.816168cda42e2p-4',
        '0x1.2c0a994ab015ep-3', '0x1.06bebfffb6ce6p-1'),
    ('m3', 'Wbar'): (
        '0x0.0p+0', '0x1.6cc0ad46cf160p-3', '0x1.2dfb07dc5f4e8p+0',
        '0x1.10f7bac95d40ep+1', '0x1.6c6a08fada931p+3'),
    ('m3', 'Z0'): (
        '0x1.0000000000000p+0', '0x1.16cc0ad46cf16p+0', '0x1.96fd83ee2fa76p+0',
        '0x1.087bdd64aea07p+1', '0x1.ac6a08fada931p+2'),
    ('m3', 'Zbar'): (
        '-0x1.c000000000000p-54', '0x1.dd00d366f3af2p-2', '0x1.0e430f69d14e4p+1',
        '0x1.c84846e4a5e6ep+1', '0x1.1539ef1b1f150p+4'),
    ('m3', 'Z1'): (
        '-0x1.2000000000000p-51', '0x1.ef75d44900498p-3', '0x1.41c847256b896p-1',
        '0x1.c47de554dfeebp-1', '0x1.8153ddfa29e18p+1'),
    ('m3', 'Wqr'): (
        '0x1.ffffffffffffep-1', '0x1.57c6e8161a3fap+0', '0x1.14e0eb5ad3587p+1',
        '0x1.6dc3b95bc892dp+1', '0x1.2b753dff49256p+3'),
    ('m3', 'dWqr'): (
        '0x1.4d6451622fb35p+0', '0x1.32305d8eaba79p-1', '0x1.87e9412472abcp-1',
        '0x1.f7026c18b4c0fp-1', '0x1.9437c01229c2cp+1'),
    ('m3', 'Wbar_qr'): (
        '-0x1.0000000000000p-55', '0x1.12d799ebe6344p-1', '0x1.5a32f56e420bfp+1',
        '0x1.2ce34ff74ed69p+2', '0x1.7e81bda753ac0p+4'),
    ('m3', 'S'): (
        '0x1.01767dce434a9p+1', '0x1.3129c6255ba8fp+1', '0x1.d9ac23bc84561p+1',
        '0x1.373e8e75ca681p+2', '0x1.fbed846bc28ddp+3'),
    ('m3', 'dS'): (
        '0x1.999999999999bp-1', '0x1.be13448714b57p-1', '0x1.45979cbe8c85ep+0',
        '0x1.a72c956de433fp+0', '0x1.56bb3a624875bp+2'),
    ('m3', 'z_mix(0.0)'): (
        '0x1.0000000000000p+0', '0x1.16cc0ad46cf17p+0', '0x1.96fd83ee2fa74p+0',
        '0x1.087bdd64aea07p+1', '0x1.ac6a08fada932p+2'),
    ('m3', 'gs_exp(0.0)'): (
        '0x1.0000000000000p+0', '0x1.16cc0ad46cf17p+0', '0x1.96fd83ee2fa74p+0',
        '0x1.087bdd64aea07p+1', '0x1.ac6a08fada932p+2'),
    ('m3', 'gs_exp_d(0.0)'): (
        '0x1.4000000000000p-55', '0x1.269c4419dc958p-2', '0x1.069ac1bd53e2fp-1',
        '0x1.5e9651d1d54b4p-1', '0x1.20eeea9fb2b96p+1'),
    ('m3', 'z_mix(1.3)'): (
        '0x1.0000000000001p+0', '0x1.57acd3df5bf04p+0', '0x1.14c63d423e3adp+1',
        '0x1.6d9f6d81746dcp+1', '0x1.2b56f7f1e84afp+3'),
    ('m3', 'gs_exp(1.3)'): (
        '0x1.0000000000001p+0', '0x1.57acd3df5bf04p+0', '0x1.14c63d423e3adp+1',
        '0x1.6d9f6d81746dcp+1', '0x1.2b56f7f1e84afp+3'),
    ('m3', 'gs_exp_d(1.3)'): (
        '0x1.4ccccccccccccp+0', '0x1.31fa764fd4420p-1', '0x1.87bd434d1e7a9p-1',
        '0x1.f6cd5a5df4790p-1', '0x1.940ed5f98094cp+1'),
    ('m3', 'pZ0(0.0)'): (
        '0x1.ffffffffffffdp-1', '0x1.23cb03e18f9a8p+0', '0x1.b457fae2e10f8p+0',
        '0x1.1cbd6fc94d6a6p+1', '0x1.ce83b99532848p+2'),
    ('m3', 'pZ1(0.0)'): (
        '0x1.0ab6a781bfc2ap-2', '0x1.6629f580f5210p-2', '0x1.2077419ec0716p-1',
        '0x1.7d125713352f7p-1', '0x1.37fd7bb69754bp+1'),
    ('m3', 'pZ2(0.0)'): (
        '0x1.5b581c074bbdap-2', '0x1.3f00b7f17e8c2p-3', '0x1.984ffdf3faa9ap-3',
        '0x1.0607b49605737p-2', '0x1.a52255b2a97aap-1'),
    ('m3', 'pZ0(1.3)'): (
        '0x1.0000000000001p+0', '0x1.33438c6f90ff6p+0', '0x1.df0c38e2ea4dcp+0',
        '0x1.3af236a13da88p+1', '0x1.01126789a42a9p+3'),
    ('m3', 'pZ1(1.3)'): (
        '0x1.e501e5b3a2e48p-2', '0x1.cd701ef359bdep-2', '0x1.4a5190dc5cb9ap-1',
        '0x1.acb50f888763ep-1', '0x1.5aeefb6b5875dp+1'),
    ('m3', 'pZ2(1.3)'): (
        '-0x1.d77f42a9d3a62p-2', '0x1.774ca04a013e2p-4', '0x1.a637d4e98502fp-3',
        '0x1.1b4e1e4e04d9bp-2', '0x1.d3efd268389f5p-1'),
    ('m3', 'pZ0(phi_qr)'): (
        '0x1.ffffffffffffap-1', '0x1.3347857f74b93p+0', '0x1.df16301ae9593p+0',
        '0x1.3af92c57c7d31p+1', '0x1.01184e3fe70a2p+3'),
    ('m3', 'pZ1(phi_qr)'): (
        '0x1.e5443a55de0cap-2', '0x1.cd877272cdbdfp-2', '0x1.4a5ad3b6ca896p-1',
        '0x1.acbfc6b5b5facp-1', '0x1.5af6f7511c4ccp+1'),
    ('m3', 'pZ2(phi_qr)'): (
        '-0x1.d8c8ba8a19f3bp-2', '0x1.76ff765050868p-4', '0x1.a63bcd7d6b724p-3',
        '0x1.1b533d7b814aep-2', '0x1.d3fa8739a8f21p-1'),
    ('m3', 'pZ0(inf)'): (
        '0x1.ffffffffffffep-1', '0x1.57c6e8161a3fap+0', '0x1.14e0eb5ad3587p+1',
        '0x1.6dc3b95bc892dp+1', '0x1.2b753dff49256p+3'),
    ('m3', 'pZ1(inf)'): (
        '0x1.4d6451622fb35p+0', '0x1.32305d8eaba79p-1', '0x1.87e9412472abcp-1',
        '0x1.f7026c18b4c0fp-1', '0x1.9437c01229c2cp+1'),
    ('m3', 'pZ2(inf)'): (
        '-0x1.9374773db8549p+2', '-0x1.7eecd83cc89b8p-4', '0x1.d1d3624e6b0cbp-3',
        '0x1.443084aedce3dp-2', '0x1.1078f9f3d1f70p+0'),
    ('m3', 'gs_lin'): (
        '-0x1.99999999999a2p-2', '-0x1.10aa07072168ap-2', '-0x1.9160def7d1ca2p-3',
        '-0x1.a9b839fd1dcd7p-3', '-0x1.2402159979601p-1'),
    ('m3', 'gs_lin_d'): (
        '0x1.6666666666666p-1', '0x1.208be34019cbbp-3', '0x1.47c36ebc85178p-8',
        '-0x1.0b6ab3ab08f72p-5', '-0x1.850e3f9c0adeap-3'),
    ('m3', 'gs_const'): (
        '0x1.8000000000000p+0', '0x1.a232103ea36a1p+0', '0x1.313e22f2a3bd7p+1',
        '0x1.8cb9cc1705f0bp+1', '0x1.414f86bc23ee5p+3'),
    ('m3', 'gs_const_d'): (
        '0x1.0000000000000p-55', '0x1.b9ea6626cae07p-2', '0x1.89e8229bfdd47p-1',
        '0x1.06f0bd5d5ff88p+0', '0x1.b1665fef8c160p+1'),
    ('neg_q0', 'W'): (
        '0x1.0000000000000p+1', '0x1.117ce84a993b4p+2', '0x1.3e552770df8a7p+4',
        '0x1.75d6fd931e0bbp+5', '0x1.92edc5690c08fp+10'),
    ('neg_q0', 'dW'): (
        '0x1.0000000000000p+2', '0x1.917ce84a993b4p+2', '0x1.5e552770df8a7p+4',
        '0x1.85d6fd931e0bbp+5', '0x1.936dc5690c08fp+10'),
    ('neg_q0', 'ddW'): (
        '0x1.0000000000000p+2', '0x1.917ce84a993b4p+2', '0x1.5e552770df8a7p+4',
        '0x1.85d6fd931e0bbp+5', '0x1.936dc5690c08fp+10'),
    ('neg_q0', 'Wbar'): (
        '0x0.0p+0', '0x1.5f8d3ac3fe86ep+0', '0x1.cfdd8214f2481p+3',
        '0x1.3dd6fd931e0bbp+5', '0x1.8f6dc5690c08fp+10'),
    ('neg_q0', 'Z0'): (
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('neg_q0', 'Zbar'): (
        '0x0.0p+0', '0x1.ccccccccccccdp-2', '0x1.b333333333333p+0',
        '0x1.4000000000000p+1', '0x1.8000000000000p+2'),
    ('neg_q0', 'Z1'): (
        '0x0.0p+0', '0x1.22f9d0953276ap+0', '0x1.1e552770df8a7p+3',
        '0x1.65d6fd931e0bbp+4', '0x1.926dc5690c08fp+9'),
    ('neg_q0', 'Wqr'): (
        '0x1.fffffffffffffp-1', '0x1.e32fe3d02846ap+0', '0x1.ff1f9f9181653p+2',
        '0x1.276493ad63f46p+4', '0x1.3ab4f7df11fcbp+9'),
    ('neg_q0', 'dWqr'): (
        '0x1.8fc1ecd5fda0dp+0', '0x1.3978e85312f3cp+1', '0x1.11880d638066bp+3',
        '0x1.3060b27ac3ce7p+4', '0x1.3afcd8d57cfb8p+9'),
    ('neg_q0', 'Wbar_qr'): (
        '0x0.0p+0', '0x1.44fe0c12ec49cp-1', '0x1.8206ce1cf59a8p+2',
        '0x1.00ee46abf4534p+4', '0x1.3885b2189003ep+9'),
    ('neg_q0', 'z_mix(0.0)'): (
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('neg_q0', 'gs_exp(0.0)'): (
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('neg_q0', 'gs_exp_d(0.0)'): (
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0'),
    ('neg_q0', 'z_mix(1.3)'): (
        '0x1.0000000000000p+0', '0x1.a476f054542ccp+0', '0x1.83ae2c95db4eap+2',
        '0x1.b483ba79c8ebep+3', '0x1.c7eb64b9880a3p+8'),
    ('neg_q0', 'gs_exp(1.3)'): (
        '0x1.0000000000000p+0', '0x1.a476f054542ccp+0', '0x1.83ae2c95db4eap+2',
        '0x1.b483ba79c8ebep+3', '0x1.c7eb64b9880a3p+8'),
    ('neg_q0', 'gs_exp_d(1.3)'): (
        '0x1.21642c8590b22p+0', '0x1.c5db1cd9e4deep+0', '0x1.8c0737b73f7b2p+2',
        '0x1.b8b0400a7b022p+3', '0x1.c80cc8e60d9aep+8'),
    ('neg_q0', 'pZ0(0.0)'): (
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('neg_q0', 'pZ1(0.0)'): (
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0'),
    ('neg_q0', 'pZ2(0.0)'): (
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0'),
    ('neg_q0', 'pZ0(1.3)'): (
        '0x1.0000000000001p+0', '0x1.9ea77a4e5497ep+0', '0x1.783eb9583c6a5p+2',
        '0x1.a639314d3a1e0p+3', '0x1.b7d8fb6b454ccp+8'),
    ('neg_q0', 'pZ1(1.3)'): (
        '0x1.172ad7d16bd97p+0', '0x1.b5d2521fc0714p+0', '0x1.7e096f4c9760bp+2',
        '0x1.a91e8c4767993p+3', '0x1.b7f0264316b8ap+8'),
    ('neg_q0', 'pZ2(1.3)'): (
        '0x1.172ad7d16bd97p+0', '0x1.b5d2521fc0714p+0', '0x1.7e096f4c9760bp+2',
        '0x1.a91e8c4767993p+3', '0x1.b7f0264316b8ap+8'),
    ('neg_q0', 'pZ0(phi_qr)'): (
        '0x1.0000000000000p+0', '0x1.c43eb67b4f924p+0', '0x1.c23a12404b8b6p+2',
        '0x1.01572ce4bb4aap+4', '0x1.0fe9bacc38d4ap+9'),
    ('neg_q0', 'pZ1(phi_qr)'): (
        '0x1.594fd9fdc2c9cp+0', '0x1.0ec7483c892e0p+1', '0x1.d88e08bfbc3ddp+2',
        '0x1.06ec2a8497774p+4', '0x1.101662b937b60p+9'),
    ('neg_q0', 'pZ2(phi_qr)'): (
        '0x1.594fd9fdc2c9cp+0', '0x1.0ec7483c892e0p+1', '0x1.d88e08bfbc3ddp+2',
        '0x1.06ec2a8497774p+4', '0x1.101662b937b60p+9'),
    ('neg_q0', 'pZ0(inf)'): (
        '0x1.fffffffffffffp-1', '0x1.e32fe3d02846ap+0', '0x1.ff1f9f9181653p+2',
        '0x1.276493ad63f46p+4', '0x1.3ab4f7df11fcbp+9'),
    ('neg_q0', 'pZ1(inf)'): (
        '0x1.8fc1ecd5fda0dp+0', '0x1.3978e85312f3cp+1', '0x1.11880d638066bp+3',
        '0x1.3060b27ac3ce7p+4', '0x1.3afcd8d57cfb8p+9'),
    ('neg_q0', 'pZ2(inf)'): (
        '0x1.8fc1ecd5fda0dp+0', '0x1.3978e85312f3cp+1', '0x1.11880d638066bp+3',
        '0x1.3060b27ac3ce7p+4', '0x1.3afcd8d57cfb8p+9'),
    ('neg_q0', 'gs_lin'): (
        '-0x1.9999999999998p-2', '0x1.9521e1a1c07f8p-2', '0x1.774404046c283p+2',
        '0x1.e82cfc9ac3a9ep+3', '0x1.19800a2feed31p+9'),
    ('neg_q0', 'gs_lin_d'): (
        '0x1.6666666666666p+0', '0x1.190aa29a9e765p+1', '0x1.ea7737379f5b6p+2',
        '0x1.10e34b1a2ea1cp+4', '0x1.1a66709655397p+9'),
    ('neg_q0', 'gs_const'): (
        '0x1.8000000000000p+0', '0x1.8000000000000p+0', '0x1.8000000000000p+0',
        '0x1.8000000000000p+0', '0x1.8000000000000p+0'),
    ('neg_q0', 'gs_const_d'): (
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0'),
}
LAW_PINS = {
    ('m1', 'two_sided'): (
        '0x1.05acc2a4db80ap-4', '0x1.e69c2b24c566ap-4',
        '0x1.ca7999d138a4fp-2', '0x1.0000000000000p+0'),
    ('m1', 'severity_absorbed'): (
        '0x1.9ccb60cc9db80p-3', '0x1.c29eef1c2e260p-4',
        '0x1.223a598b1ec00p-6', '0x0.0p+0'),
    ('m1', 'severity_reflected'): (
        '0x1.9efe21d44f714p-3', '0x1.cacbed35bf6b0p-4',
        '0x1.9d7a03a109500p-6', '0x1.13465f6726000p-6'),
    ('m1', 'severity_infinite'): (
        '0x1.9dbcc48676f38p-3', '0x1.c620b588b0560p-4',
        '0x1.5718395ce1a00p-6', '0x1.d84f2b8b55800p-8'),
    ('m1', 'bailouts_to_level'): (
        '0x1.47bb884260404p-4', '0x1.05552e7d5a230p-3',
        '0x1.cbed26f4b3019p-2', '0x1.0000000000000p+0'),
    ('m1', 'dividends_penalty'): (
        '0x1.9e5d8503c2210p-3', '0x1.c87693b672680p-4',
        '0x1.7a4d069384a00p-6', '0x1.896b9da171400p-7'),
    ('m1', 'time_in_red'): (
        '0x1.a54ff53a5f1d5p-1', '0x1.c62ccc49d8566p-1',
        '0x1.ef6ecfc63cebfp-1', '0x1.f88e4fabfb17ap-1'),
    ('m1', 'parisian_up_exit'): (
        '0x1.4ef0cf57824efp-4', '0x1.074cc6242a199p-3',
        '0x1.cc15b1fe3af0ap-2', '0x1.0000000000000p+0'),
    ('m1', 'parisian_severity'): (
        '0x1.e6d7569878940p-6', '0x1.09b9f60c4f540p-6',
        '0x1.5649ecd093800p-9', '0x0.0p+0'),
    ('m1', 'parisian_resolvent_integral'): (
        '0x1.d5000b0199d60p-1', '0x1.c90e68a6c07c6p-1',
        '0x1.287493db20050p-1', '0x0.0p+0'),
    ('m1', 'parisian_dividends_penalty'): (
        '0x1.e924e95eef840p-6', '0x1.0d6b6e5996600p-6',
        '0x1.be92441272000p-9', '0x1.d06b5db8be000p-10'),
    ('m2', 'two_sided'): (
        '0x0.0p+0', '0x1.3b099558461d5p-4',
        '0x1.bfc6439d9bee7p-2', '0x1.0000000000000p+0'),
    ('m2', 'severity_absorbed'): (
        '0x1.0000000000000p+0', '0x1.433bae95b40ecp-1',
        '0x1.2c9fede772a00p-3', '0x0.0p+0'),
    ('m2', 'severity_reflected'): (
        '0x1.0000000000000p+0', '0x1.49a7a2a566754p-1',
        '0x1.bea9b9e0d7ae0p-3', '0x1.4df84a4076240p-3'),
    ('m2', 'severity_infinite'): (
        '0x1.0000000000000p+0', '0x1.4677327472ea8p-1',
        '0x1.7622c78a98a00p-3', '0x1.50385c094f400p-4'),
    ('m2', 'bailouts_to_level'): (
        '0x1.249f5de7bdbb0p-4', '0x1.f3c63b3b02b63p-4',
        '0x1.ca83502553debp-2', '0x1.0000000000000p+0'),
    ('m2', 'dividends_penalty'): (
        '0x1.0000000000000p+0', '0x1.47d671498d0fcp-1',
        '0x1.9556977195860p-3', '0x1.deee76c4fd080p-4'),
    ('m2', 'time_in_red'): 'DegenerateRoots',
    ('m2', 'parisian_up_exit'): (
        '0x1.41b23582ef6dap-4', '0x1.031080ea9536dp-3',
        '0x1.cb94721867f0cp-2', '0x1.0000000000000p+0'),
    ('m2', 'parisian_severity'): (
        '0x1.34e7f11581be0p-2', '0x1.8608a94cfcc80p-3',
        '0x1.6ac0c9a5f2380p-5', '0x0.0p+0'),
    ('m2', 'parisian_resolvent_integral'): (
        '0x1.ca24692e016f0p-1', '0x1.2600cea1bfc29p+0',
        '0x1.ed29e1a2cf958p-1', '0x0.0p+0'),
    ('m2', 'parisian_dividends_penalty'): (
        '0x1.36e65b2e4dd4ep-2', '0x1.8e24ac9d5f5f8p-3',
        '0x1.ec43978eb3c80p-5', '0x1.22d1dc5352100p-5'),
    ('m3', 'two_sided'): (
        '0x1.75dd3c9ebf680p-57', '0x1.ae4049e3c9679p-2',
        '0x1.7f826e1138ef2p-1', '0x1.0000000000000p+0'),
    ('m3', 'severity_absorbed'): (
        '0x1.0000000000000p+0', '0x1.237031b06ed40p-3',
        '0x1.742b61c665000p-6', '0x0.0p+0'),
    ('m3', 'severity_reflected'): (
        '0x1.0000000000000p+0', '0x1.598fae058fbd0p-3',
        '0x1.1e03db8099260p-4', '0x1.01a042d1cb9c0p-4'),
    ('m3', 'severity_infinite'): (
        '0x1.0000000000000p+0', '0x1.33f3a94865510p-3',
        '0x1.2fd7518ed6180p-5', '0x1.3a6b2828c0180p-6'),
    ('m3', 'bailouts_to_level'): (
        '0x1.667d5dd5f570bp-2', '0x1.e143fda6d3e60p-2',
        '0x1.8394c3e9e2ec4p-1', '0x1.0000000000000p+0'),
    ('m3', 'dividends_penalty'): (
        '0x1.0000000000000p+0', '0x1.3cc138a5ccf18p-3',
        '0x1.6e9d385b78600p-5', '0x1.e207096582800p-6'),
    ('m3', 'time_in_red'): (
        '0x1.5e813e299a678p-1', '0x1.a6f7abb5d812dp-1',
        '0x1.dd3148d1918f7p-1', '0x1.ec16d733f4409p-1'),
    ('m3', 'parisian_up_exit'): (
        '0x1.a02c3891fe60ep-2', '0x1.f382d7b770180p-2',
        '0x1.85634e33310fep-1', '0x1.0000000000000p+0'),
    ('m3', 'parisian_severity'): (
        '0x1.1c8b3fa392cd0p-3', '0x1.68032ae76c060p-5',
        '0x1.1d35183be4100p-7', '0x0.0p+0'),
    ('m3', 'parisian_resolvent_integral'): (
        '0x1.a52f6b34611bap+0', '0x1.ac2dfc317bef4p+0',
        '0x1.b558db6fe91d0p-1', '0x0.0p+0'),
    ('m3', 'parisian_dividends_penalty'): (
        '0x1.24da76bb65f90p-3', '0x1.94a5895f93d60p-5',
        '0x1.1e65d1b6ded40p-6', '0x1.7be97d0516e00p-7'),
    ('neg_q0', 'two_sided'): (
        '0x1.5e9c2d67c7689p-5', '0x1.768f9e355e12cp-4',
        '0x1.b3faa0465e8f7p-2', '0x1.0000000000000p+0'),
    ('neg_q0', 'severity_absorbed'): (
        '0x1.aa29995bc04b0p-2', '0x1.948115c28c090p-2',
        '0x1.ff52960597820p-3', '0x0.0p+0'),
    ('neg_q0', 'severity_reflected'): (
        '0x1.bd37a6f4de9bcp-2', '0x1.bd37a6f4de9bcp-2',
        '0x1.bd37a6f4de9b0p-2', '0x1.bd37a6f4de9c0p-2'),
    ('neg_q0', 'severity_infinite'): (
        '0x1.bd37a6f4de9bcp-2', '0x1.bd37a6f4de9bcp-2',
        '0x1.bd37a6f4de9c0p-2', '0x1.bd37a6f4de9c0p-2'),
    ('neg_q0', 'bailouts_to_level'): (
        '0x1.2c44fc7683518p-4', '0x1.ed2cafe2641f5p-4',
        '0x1.c6b894d661d80p-2', '0x1.0000000000000p+0'),
    ('neg_q0', 'dividends_penalty'): (
        '0x1.b7ef4425595ccp-2', '0x1.b1ee1c80441e4p-2',
        '0x1.88aa423d50930p-2', '0x1.41c92b8c47500p-2'),
    ('neg_q0', 'time_in_red'): 'NonpositiveDrift',
    ('neg_q0', 'parisian_up_exit'): (
        '0x1.366eccc447291p-4', '0x1.f6d245bcc90b2p-4',
        '0x1.c83ecc56f1608p-2', '0x1.0000000000000p+0'),
    ('neg_q0', 'parisian_severity'): (
        '0x1.242aa3ef404e4p-2', '0x1.15517518907e8p-2',
        '0x1.5e8cdcdf18720p-3', '0x0.0p+0'),
    ('neg_q0', 'parisian_resolvent_integral'): (
        '0x1.bd558e574211bp-1', '0x1.01c6d73ee8172p+0',
        '0x1.d45cb75f00cc0p-1', '0x0.0p+0'),
    ('neg_q0', 'parisian_dividends_penalty'): (
        '0x1.303823b89619ep-2', '0x1.2c112e65a8810p-2',
        '0x1.0f882b51eb2f0p-2', '0x1.bd094f5ad6f80p-3'),
}

OBJECTIVE_PINS = {
    ('m1', 'vf_dividends_classic'): (
        '0x1.0547225f71a53p-4', '0x1.e5df2f561c4c2p-4',
        '0x1.c9c78b41332dap-2', '0x1.ff3927de3ba56p-1'),
    ('m1', 'value_definetti'): (
        '-0x1.445d4c8ba5fc0p-6', '0x1.289e43e323be0p-4',
        '0x1.bf1e99293f8b0p-2', '0x1.fbacbfa367410p-1'),
    ('m1', 'value_slg_classic'): (
        '-0x1.530e3cf78eb08p-2', '-0x1.983ea2cc57560p-4',
        '0x1.976ad092e6fa0p-2', '0x1.ee7571bd782a0p-1'),
    ('m1', 'VF_div'): (
        '0x1.44e9e902d175dp-4', '0x1.04862c4e73286p-3',
        '0x1.cbc2c557f658ap-2', '0x1.ffe200295da59p-1'),
    ('m1', 'VF_bail'): (
        '0x1.5e5397008b184p-5', '0x1.7e6dbd461e1c0p-6',
        '0x1.ec9da7a165e00p-9', '0x0.0p+0'),
    ('m1', 'VS_div'): (
        '0x1.58b3b18780936p-4', '0x1.09fe4be9a182ap-3',
        '0x1.cc607f8e4df72p-2', '0x1.000b409944f44p+0'),
    ('m1', 'VS_div_theta'): (
        '0x1.4eee92ebab35fp-4', '0x1.074b0427dd693p-3',
        '0x1.cc129fb29edf7p-2', '0x1.fffc94faf4af5p-1'),
    ('m1', 'VS_bail'): (
        '0x1.60c9aca962bc4p-5', '0x1.860696a827ef0p-6',
        '0x1.5f7fbba89aa00p-8', '0x1.d406930e79000p-9'),
    ('m1', 'slg_parisian'): (
        '0x1.66a88fbc32020p-7', '0x1.6e39cafefed90p-4',
        '0x1.c30a4e2bd3750p-2', '0x1.fcfadc6bbe1b0p-1'),
    ('m2', 'vf_dividends_classic'): (
        '0x0.0p+0', '0x1.36d20837c3936p-4',
        '0x1.b9c7db8ab5adfp-2', '0x1.f9258260a71c3p-1'),
    ('m2', 'value_definetti'): (
        '0x1.3333333333333p-1', '0x1.d94a786e05718p-2',
        '0x1.1fe3c9a714ca8p-1', '0x1.159ef9f529368p+0'),
    ('m2', 'value_slg_classic'): (
        '-0x1.8ecab83ce841cp+0', '-0x1.daad695b6ea08p-1',
        '0x1.77844971dc000p-4', '0x1.771563f378d70p-1'),
    ('m2', 'VF_div'): (
        '0x1.bf49f7b76954cp-5', '0x1.c6d0c56a0a712p-4',
        '0x1.c5f98933632aap-2', '0x1.fdb48c71e23c9p-1'),
    ('m2', 'VF_bail'): (
        '0x1.fb6918e3c4791p-2', '0x1.4055f2d522ae5p-2',
        '0x1.29ee137e35620p-4', '0x0.0p+0'),
    ('m2', 'VS_div'): (
        '0x1.c14d7b7410bc2p-4', '0x1.2c0db6c62310ap-3',
        '0x1.d24752866838ap-2', '0x1.01270c4e41c34p+0'),
    ('m2', 'VS_div_theta'): (
        '0x1.4181f89c4ce65p-4', '0x1.02e9a83f632d9p-3',
        '0x1.cb4f8845ab815p-2', '0x1.ffb339eed9d4dp-1'),
    ('m2', 'VS_bail'): (
        '0x1.024e189c83869p-1', '0x1.4c9f82af826c5p-2',
        '0x1.c2af4ffc3a360p-4', '0x1.50fa1c970c8c0p-4'),
    ('m2', 'slg_parisian'): (
        '-0x1.7ef4ad9b90b39p-1', '-0x1.9f6eb5fa7f62ep-2',
        '0x1.12bcd08802ae0p-2', '0x1.bab28c22d0dc0p-1'),
    ('m3', 'vf_dividends_classic'): (
        '0x1.09e06c1ed754ap-55', '0x1.31fa07a7c6d14p+0',
        '0x1.10bc68df6e40ap+1', '0x1.6c1cf24b746bcp+1'),
    ('m3', 'value_definetti'): (
        '0x1.3333333333333p-1', '0x1.118f589ae6234p+0',
        '0x1.03be24a4217ebp+1', '0x1.602f5f76b12cap+1'),
    ('m3', 'value_slg_classic'): (
        '0x1.35a28e1012ffcp-1', '0x1.11e3b25d158c0p+0',
        '0x1.03d286ab0b458p+1', '0x1.6041d4c1d7818p+1'),
    ('m3', 'VF_div'): (
        '0x1.04935b84d1f7bp+0', '0x1.5debe5d3c85f4p+0',
        '0x1.19d3cf2afe876p+1', '0x1.744d5266ff374p+1'),
    ('m3', 'VF_bail'): (
        '0x1.65dc733542ac0p-3', '0x1.b94dbb86e3960p-4',
        '0x1.a4c69577f9b00p-6', '0x0.0p+0'),
    ('m3', 'VS_div'): (
        '0x1.57f4d17fd7232p+0', '0x1.880c0e7d5f7eap+0',
        '0x1.2521950b6afa7p+1', '0x1.7e921e5a1c1f7p+1'),
    ('m3', 'VS_div_theta'): (
        '0x1.31bcdddaed912p+0', '0x1.6ef62a3422944p+0',
        '0x1.1e0f7df3acee6p+1', '0x1.7822ede6a88f7p+1'),
    ('m3', 'VS_bail'): (
        '0x1.ad238b36dd3c0p-3', '0x1.2de53481f0820p-3',
        '0x1.5c2ccd2af7b40p-4', '0x1.3d1e74f981b80p-4'),
    ('m3', 'slg_parisian'): (
        '0x1.f98754a1f6a68p-1', '0x1.47e4f354f5fc8p+0',
        '0x1.12a266f1ef6b4p+1', '0x1.6db94cf00e080p+1'),
    ('neg_q0', 'vf_dividends_classic'): (
        '0x1.50385c094f425p-5', '0x1.673026878efaap-4',
        '0x1.a215d8d6f3d04p-2', '0x1.eafc7a3f6b0bep-1'),
    ('neg_q0', 'value_definetti'): (
        '-0x1.0f17d6b94f1f8p+0', '-0x1.0326973120aa0p+0',
        '-0x1.622846c7b94c0p-1', '-0x1.20dae3cf20900p-3'),
    ('neg_q0', 'value_slg_classic'): 'QZero',
    ('neg_q0', 'VF_div'): 'QZero',
    ('neg_q0', 'VF_bail'): 'QZero',
    ('neg_q0', 'VS_div'): 'QZero',
    ('neg_q0', 'VS_div_theta'): 'QZero',
    ('neg_q0', 'VS_bail'): 'QZero',
    ('neg_q0', 'slg_parisian'): 'QZero',
}
BARRIER_PINS = {
    ('m1', 'deFinetti_classic'): (
        '-0x1.1ab380f5f62aap-2', '-0x1.3d561d9790632p-1',
        ),
    ('m1', 'SLG_classic'): (
        '-0x1.29340bcdc4fe1p+0', '-0x1.9b29f5a44a128p+0',
        ),
    ('m1', 'SLG_parisian'): (
        '0x1.95ae3044cae36p-4', '-0x1.a7fdeeb551a36p-2',
        ),
    ('m2', 'deFinetti_classic'): (
        '-0x1.1727d2d97c123p+0', '-0x1.107fb550de7b9p+1',
        ),
    ('m2', 'SLG_classic'): (
        '-0x1.c27ac8fca8133p+0', '-0x1.8ecab83ce841cp+0',
        ),
    ('m2', 'SLG_parisian'): (
        '-0x1.9d2611e32e7bbp-2', '-0x1.7ef4ad9b90b39p-1',
        ),
    ('m3', 'deFinetti_classic'): (
        '0x1.14a87b1f002dep-1', '0x1.bb4dd6fcff9fap-8',
        ),
    ('m3', 'SLG_classic'): (
        '-0x1.78212f91b72ddp+1', '-0x1.d5b327d24a3e9p+1',
        ),
    ('m3', 'SLG_parisian'): (
        '-0x1.66bfbd92f27e2p+0', '-0x1.374e00b627eedp+1',
        ),
    ('neg_q0', 'deFinetti_classic'): (
        '-0x1.6590674174db1p-1', '-0x1.a8b17052e8b92p-1',
        ),
    ('neg_q0', 'SLG_classic'): 'QZero',
    ('neg_q0', 'SLG_parisian'): 'QZero',
}

@pytest.mark.parametrize("label", sorted(MODELS))
def test_mixtures_match_pins(label):
    ctx, pctx = contexts(label)
    mixes = mixtures(ctx, pctx)
    assert sorted(mixes) == sorted(name for lab, name in MIXTURE_PINS if lab == label)
    for name, mix in mixes.items():
        got = mix(np.array(X))
        want = np.array([float.fromhex(h) for h in MIXTURE_PINS[label, name]])
        if name in EXACT:
            assert got.tolist() == want.tolist(), name
        else:
            bound = [4 * EPS * terms_size(mix, x) for x in X]
            assert np.all(np.abs(got - want) <= bound), (name, got - want, bound)


@pytest.mark.parametrize("label", sorted(MODELS))
def test_laws_match_pins(label):
    ctx, pctx = contexts(label)
    got = law_values(ctx, pctx)
    assert sorted(got) == sorted(table.LAWS)
    for name, value in got.items():
        want = LAW_PINS[label, name]
        if isinstance(want, str) or name != "parisian_resolvent_integral":
            assert value == (want if isinstance(want, str) else list(want)), name
            continue
        # Wbar_{q,r} may move by its own bound; W_{q,r} is pure-root and exact
        w, wbar = pctx.W, pctx.Wbar
        for x, v, h in zip(X, value, want):
            ratio = w(x) / w(B)
            slack = (abs(ratio) * 4 * EPS * terms_size(wbar, B) + 4 * EPS * terms_size(wbar, x)
                     + 2 * EPS * (abs(ratio * wbar(B)) + abs(wbar(x))))
            assert abs(float.fromhex(v) - float.fromhex(h)) <= slack, (name, x)


@pytest.mark.parametrize("label", sorted(MODELS))
def test_objectives_match_pins(label):
    ctx, pctx = contexts(label)
    got = objective_values(ctx, pctx)
    assert sorted(got) == sorted(table.OBJECTIVES)
    for name, value in got.items():
        want = OBJECTIVE_PINS[label, name]
        if isinstance(want, str) or name != "VF_bail":
            assert value == (want if isinstance(want, str) else list(want)), name
            continue
        # the exit law forms Z(x)/Z(b)*S(b) where the pin formed Z(x)*S(b)/Z(b)
        z, s = pctx.Z(0.0), pctx.S
        for x, v, h in zip(X, value, want):
            slack = 2 * EPS * (abs(s(x)) + abs(z(x) * s(B) / z(B)))
            assert abs(float.fromhex(v) - float.fromhex(h)) <= slack, (name, x)
        assert value[X.index(B)] == "0x0.0p+0"


@pytest.mark.parametrize("label", sorted(MODELS))
def test_barrier_functions_match_pins(label):
    ctx, pctx = contexts(label)
    got = barrier_values(ctx, pctx)
    for kind, value in got.items():
        want = BARRIER_PINS[label, kind]
        assert value == (want if isinstance(want, str) else list(want)), kind
