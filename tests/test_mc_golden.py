"""Golden values that pin the Monte-Carlo engine to the bit.

Each estimate mean is stored as `float.hex` and each network array as the
sha256 of its little-endian float64 bytes, recorded with numpy 2.4 on
x86-64.  A change in the draw order, in the per-path arithmetic or in the
reduction of the means fails here.  So would a numpy upgrade that moves
the last bit of `exp` or of the Philox streams; then the values need
recording again from a commit whose engine is known to be right.
"""

import hashlib

import numpy as np
import pytest

from parisian_scale import LevyModel, mc
from parisian_scale import control as ctl

M1 = LevyModel(c=1.0, sigma2=0.0, lam=1.0, phases=((1.0, 2.0),))
M3 = LevyModel(c=2.0, sigma2=0.0, lam=1.5, phases=((0.3, 1.0), (0.5, 3.0), (0.2, 8.0)))
MODELS = {"m1": M1, "m3": M3}
X, B, Q, R = 0.6, 1.5, 2.0 / 3.0, 1.0 / 3.0
N, SEED = 5000, 5

# (model, lower, upper) -> (mean of the first functional, mean of the second)
GOLDEN = {
    ("m1", "none", "absorb"): ("0x1.9f29c73cc2898p-2", "0x1.d0cb7da5a94f4p-1"),
    ("m1", "none", "reflect"): ("0x1.a0bdd61685a4fp-2", "0x1.59a9c1c200aa0p-2"),
    ("m1", "classical_absorb", "absorb"): ("0x1.87da76572052dp-2", "0x1.75252e74aa714p-4"),
    ("m1", "classical_absorb", "reflect"): ("0x1.851aff8b716cep-2", "0x1.d938956ae413bp-4"),
    ("m1", "classical_reflect", "absorb"): ("0x1.a4bb8debb9284p-2", "0x1.9979ee00b362dp-4"),
    ("m1", "classical_reflect", "reflect"): ("0x1.4f3dcf4fb7a14p-3", "0x1.163235d88fe8ap-3"),
    ("m1", "parisian_absorb", "absorb"): ("0x1.9a1e50417bb98p-2", "0x1.d45e702a95735p-7"),
    ("m1", "parisian_absorb", "reflect"): ("0x1.9ce7e4b27fc49p-2", "0x1.2b649eb37178fp-6"),
    ("m1", "parisian_reflect", "absorb"): ("0x1.9e5ef77cb7277p-2", "0x1.1db252fb98e02p-6"),
    ("m1", "parisian_reflect", "reflect"): ("0x1.78fd6ab4dab1cp-2", "0x1.72c79a137a30ep-6"),
    ("m3", "none", "absorb"): ("0x1.512051c8ea3dcp-1", "0x1.eb8735710c382p-1"),
    ("m3", "none", "reflect"): ("0x1.6d3825896270ap+0", "0x1.2544afe0e4782p-2"),
    ("m3", "classical_absorb", "absorb"): ("0x1.3e555cc87b2efp-1", "0x1.ba94543954391p-5"),
    ("m3", "classical_absorb", "reflect"): ("0x1.483e1dbd2b408p+0", "0x1.b947f22b395d5p-4"),
    ("m3", "classical_reflect", "absorb"): ("0x1.50203491d7de5p-1", "0x1.c162356ef3745p-4"),
    ("m3", "classical_reflect", "reflect"): ("0x1.07841de566800p+0", "0x1.f1d3643396b9cp-3"),
    ("m3", "parisian_absorb", "absorb"): ("0x1.4ca2b59b21cd8p-1", "0x1.8600dc9b69520p-8"),
    ("m3", "parisian_absorb", "reflect"): ("0x1.649071c58cb7bp+0", "0x1.b1ee22635c05ap-7"),
    ("m3", "parisian_reflect", "absorb"): ("0x1.4eb8d5bbf7674p-1", "0x1.2fdfd457a12a5p-6"),
    ("m3", "parisian_reflect", "reflect"): ("0x1.5aad65eed160ap+0", "0x1.472e67dd6f06fp-5"),
}

# the second functional reads the record fields the lower mechanism writes
SECOND = {
    "none": mc.Functional("time_in_red", red_rate=0.7),
    "classical_absorb": mc.Functional("severity", theta=1.0),
    "parisian_absorb": mc.Functional("severity", theta=1.0),
    "classical_reflect": mc.Functional("bailouts"),
    "parisian_reflect": mc.Functional("bailouts"),
}


def _config(model, lower, upper, horizon=None):
    r = R if lower.startswith("parisian") else 0.0
    return mc.PathConfig(model=MODELS[model], x0=X, q=Q, upper_barrier=B,
                         upper_mode=upper, lower=lower, r=r, horizon=horizon)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(k))
def test_estimate_means(key):
    model, lower, upper = key
    first = mc.Functional("up_exit", theta=0.5) if upper == "absorb" \
        else mc.Functional("slg", k=2.0)
    got = (mc.estimate(_config(model, lower, upper), first, N, seed=SEED).mean.hex(),
           mc.estimate(_config(model, lower, upper, horizon=30.0), SECOND[lower], N,
                       seed=SEED).mean.hex())
    assert got == GOLDEN[key]


@pytest.mark.parametrize("model,expected", [("m1", "0x1.b6007132b4057p-1"),
                                            ("m3", "0x1.d661642f9c646p-1")])
def test_time_in_red_mean(model, expected):
    cfg = mc.PathConfig(model=MODELS[model], x0=X, q=0.0, upper_barrier=20.0,
                        lower="none", horizon=100.0)
    est = mc.estimate(cfg, mc.Functional("time_in_red", red_rate=0.7), N, seed=SEED)
    assert est.mean.hex() == expected


def test_two_chunk_mean():
    est = mc.estimate(_config("m1", "classical_absorb", "absorb"), mc.Functional("up_exit"),
                      (1 << 16) + 1000, seed=SEED)
    assert est.mean.hex() == "0x1.8b9985786f664p-2"


def test_network_paths_arrays():
    spec = ctl.NetworkSpec(subsidiaries=(
        ctl.Subsidiary(premium=2.0, lam=1.0, phases=((1.0, 2.0),), retention=0.5),
        ctl.Subsidiary(premium=3.0, lam=1.0, phases=((1.0, 2.0),), retention=0.25),
    ), c0=1.0, q=0.5)
    arrays = mc.network_paths(spec, 1.0, 2.0, 40.0, N, 1)
    digests = [hashlib.sha256(a.astype("<f8").tobytes()).hexdigest() for a in arrays]
    assert digests == [
        "7dfc6544f40611c0b0d8d427f74a7e0a83e3d8343f1e9100f1624afd4d828bf1",
        "e9a82e7de212dc78e9c7bc0c8124ff8fefacbe860844e85a89cccf56a81f921a",
        "10b68f29d9219486616beff249249efaa3876092c04041096f69c3607e4f24d1",
    ]


TWO_SUBS = ctl.NetworkSpec(subsidiaries=(
    ctl.Subsidiary(premium=2.0, lam=1.0, phases=((1.0, 2.0),), retention=0.5),
    ctl.Subsidiary(premium=3.0, lam=1.0, phases=((1.0, 2.0),), retention=0.25),
), c0=1.0, q=0.5)
THREE_SUBS = ctl.NetworkSpec(subsidiaries=(
    ctl.Subsidiary(premium=2.0, lam=1.0, phases=((0.4, 1.0), (0.6, 3.0)), retention=0.5),
    ctl.Subsidiary(premium=3.0, lam=0.5, phases=((0.7, 2.0), (0.3, 5.0)), retention=0.25),
    ctl.Subsidiary(premium=2.5, lam=0.8, phases=((0.5, 1.5), (0.5, 4.0)), retention=0.4),
), c0=0.9, q=0.3)
ONE_SUB = ctl.NetworkSpec(subsidiaries=(
    ctl.Subsidiary(premium=2.0, lam=1.2, phases=((1.0, 1.5),), retention=0.4),
), c0=1.0, q=0.4)
# (premium, lam, first phase weight, the two phase rates, retention)
SEVEN_SUBS = ctl.NetworkSpec(subsidiaries=tuple(
    ctl.Subsidiary(premium=c, lam=lam, phases=((w, mu1), (1.0 - w, mu2)), retention=a)
    for c, lam, w, mu1, mu2, a in (
        (2.0, 0.6, 0.4, 1.0, 3.0, 0.5), (3.0, 0.3, 0.7, 2.0, 5.0, 0.25),
        (2.5, 0.5, 0.5, 1.5, 4.0, 0.4), (1.8, 0.4, 0.3, 1.2, 2.5, 0.45),
        (2.2, 0.7, 0.6, 2.5, 6.0, 0.3), (2.8, 0.2, 0.2, 0.8, 3.5, 0.35),
        (1.5, 0.5, 0.5, 2.0, 7.0, 0.2))), c0=0.8, q=0.35)
NINE_SUBS = ctl.NetworkSpec(subsidiaries=SEVEN_SUBS.subsidiaries + (
    ctl.Subsidiary(premium=2.4, lam=0.35, phases=((0.45, 1.1), (0.55, 3.2)), retention=0.3),
    ctl.Subsidiary(premium=1.9, lam=0.45, phases=((0.65, 1.7), (0.35, 4.5)), retention=0.42),
), c0=0.8, q=0.35)
# the last subsidiary claims at 1/1000 of each other's rate
RARE_SUB = ctl.NetworkSpec(subsidiaries=(
    ctl.Subsidiary(premium=2.0, lam=1.0, phases=((1.0, 2.0),), retention=0.5),
    ctl.Subsidiary(premium=2.5, lam=1.0, phases=((0.6, 1.5), (0.4, 4.0)), retention=0.35),
    ctl.Subsidiary(premium=1.5, lam=0.001, phases=((1.0, 1.0),), retention=0.45),
), c0=0.9, q=0.4)

# name -> (spec, u0, b, horizon, digests of direct, lemma, shortfall)
NETWORK = {
    "three-subsidiaries-two-phases": (THREE_SUBS, 0.4, 3.0, 40.0, (
        "ced38261c94394374224f90ecb04187b0863fd5e6695487a8cbe1e24e4c2b5da",
        "8f31d8f6ecb7227b88f3e6555230e31e1a45b461c879b5abbdd4afe6a9cb72c9",
        "0372eab685101d4a4856f57f07902589736a1a73ff81e65849e4cfb14fb9bdad")),
    "horizon-cuts-most": (TWO_SUBS, 1.0, 2.0, 0.5, (
        "82392f3b481f8790e1f89bd14e9b4f472926d16918ed909fd14fcdec705a390d",
        "55b335ed3b5b8e2bb0f8cfdbcdb92829d407a09d2f6f5c1e4913f2d6322edcc6",
        "210769c317edea84e10cce04a74690d0942a6ce4700aedd4694c0044e6ef6e99")),
    "start-at-barrier": (TWO_SUBS, 2.0, 2.0, 40.0, (
        "e131d975502a2a6216fef589c5ca8c7249d8ed3520b174dc7b403a861aa1dc13",
        "07b35d26e0490e40e2784c22f0fb3e14f16cc38c6353aadccd6fe455828380e7",
        "d2b90f38fcab1df8683728ffee2bfd8800943157d60495fd7f477efafb14c446")),
    "one-subsidiary": (ONE_SUB, 0.8, 2.0, 40.0, (
        "6d54a3d1987c25b17fca6c218e17f70805541a215ece7e2c52cd2a221773d269",
        "c6f18cf010d495c12e8cd723bb7a0af7df92cb6194091cf7bf921b375458bbcb",
        "dce776af44b32d67cc1b888ea7c6c9ca5bca5823401cd154d1700893e0c7dd60")),
    # the horizon stops about half of the paths
    "seven-subsidiaries-two-phases": (SEVEN_SUBS, 1.2, 3.5, 12.0, (
        "1c360dc92ad376a8548bb36f89c8d4c1c656ef89b0c04a83d4b958199d654079",
        "bc28cc0d320bda4f6c71877de8fde0bba5678e3a70032bc750931af3bc2e3960",
        "c5270ca6e185fdcbcdc97459d653ea285ff41cac5c5b2d0b739534102267adc8")),
    # past seven columns numpy's row sum adds in pairwise blocks; the engine adds
    # the lumps in subsidiary order, so `direct` pins that order
    "nine-subsidiaries-two-phases": (NINE_SUBS, 1.2, 3.5, 12.0, (
        "4db4be2d9b29a91089bcf62a9a866dba88e64ae5f032eb9fe92c05d61158b128",
        "0e843c8c8dc079b7d792701d522637fe15d427a98e0301e10b88d827c1ee02c5",
        "393809857efa364decca0810c20e9660f67d14595a6fec13cfc655eba7ae3121")),
    # 22 of the 36 steps draw no claim for the rare subsidiary, and the horizon
    # stops 783 of the 5000 paths
    "rare-subsidiary": (RARE_SUB, 0.5, 1.0, 12.0, (
        "de2b0ba94c0857aabfac1177b83821165578beac742f80f69636142f7f8e17c5",
        "ba11439630b1ca997f2d2197cfd34d87b14bec4f6a7b073910d9b2965586160a",
        "030b23866ce4532f1539968de743403ed13eeb5a78a625735f82ccd81c449031")),
}


@pytest.mark.parametrize("name", sorted(NETWORK))
def test_network_paths_more_arrays(name):
    spec, u0, b, horizon, expected = NETWORK[name]
    arrays = mc.network_paths(spec, u0, b, horizon, N, 1)
    assert tuple(hashlib.sha256(a.astype("<f8").tobytes()).hexdigest() for a in arrays) \
        == expected


def test_network_lemma_holds_for_nine_subsidiaries():
    direct, lemma, _ = mc.network_paths(NINE_SUBS, 1.2, 3.5, 12.0, N, 1)
    assert np.abs(direct - lemma).max() < 1e-9 * max(np.abs(direct).max(), 1.0)
