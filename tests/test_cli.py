"""End-to-end command-line checks: formats, round-trips, and exit codes."""

import argparse
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from parisian_scale import LevyModel, build_parisian, build_scale, cli, control, laws, scale, table
from parisian_scale.cli import main


M1 = {"c": 1.0, "sigma2": 0.0, "lambda": 1.0,
      "phases": [{"weight": 1.0, "rate": 2.0}]}
# three phases and a Brownian part: mixtures of up to seven terms
M3 = {"c": 2.0, "sigma2": 0.3, "lambda": 1.5,
      "phases": [{"weight": 0.3, "rate": 1.0}, {"weight": 0.5, "rate": 3.0},
                 {"weight": 0.2, "rate": 8.0}]}


@pytest.fixture()
def model_path(tmp_path):
    p = tmp_path / "m1.json"
    p.write_text(json.dumps(M1))
    return str(p)


@pytest.fixture()
def m3_path(tmp_path):
    p = tmp_path / "m3.json"
    p.write_text(json.dumps(M3))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestScaleCommand:
    def test_header_plain(self, capsys, model_path):
        code, out = run(capsys, ["scale", "--model", model_path, "--q", "0.6666666666666666",
                                 "--x-grid", "0:2:5"])
        assert code == 0
        assert out.splitlines()[0] == "x,W,W_prime,W_bar,Z,Z_bar"
        assert len(out.splitlines()) == 6

    def test_header_with_theta_and_parisian(self, capsys, model_path):
        code, out = run(capsys, ["scale", "--model", model_path, "--q", "0.6666666666666666",
                                 "--r", "0.3333333333333333", "--theta", "1.0",
                                 "--x-grid", "0:2:3"])
        assert code == 0
        assert out.splitlines()[0] == "x,W,W_prime,W_bar,Z,Z_bar,Z_theta,W_qr,Z_qr,scriptS"

    def test_values_round_trip_exactly(self, capsys, model_path, m1):
        code, out = run(capsys, ["scale", "--model", model_path, "--q", "0.6666666666666666",
                                 "--r", "0.5", "--theta", "1.5", "--x-grid", "0:2:5"])
        ctx = build_scale(m1, 2.0 / 3.0)
        pctx = build_parisian(m1, 2.0 / 3.0, 0.5)
        columns = (
            ctx.W, ctx.dW, lambda x: ctx.Wbar(x) if x > 0 else 0.0, ctx.Z0, ctx.Zbar,
            scale.build_gerber_shiu(ctx, scale.Exponential(1.5)),
            pctx.W, pctx.Z(0.0), pctx.S,
        )
        for line in out.splitlines()[1:]:
            x, *fields = [float(v) for v in line.split(",")]
            assert fields == [f(x) for f in columns]

    def test_writes_file(self, capsys, model_path, tmp_path):
        dest = tmp_path / "table.csv"
        code, _ = run(capsys, ["scale", "--model", model_path, "--q", "0.5",
                               "--x-grid", "0:1:2", "--out", str(dest)])
        assert code == 0
        assert dest.read_text().startswith("x,W,")


class TestLawCommand:
    def test_two_sided(self, capsys, model_path):
        code, out = run(capsys, ["law", "two_sided", "--model", model_path,
                                 "--q", "0.5", "--b", "1.5", "--x-grid", "1.5:1.5:1"])
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(1.0)

    def test_time_in_red(self, capsys, model_path):
        code, out = run(capsys, ["law", "time_in_red", "--model", model_path,
                                 "--q", "0", "--r", "0.6666666666666666",
                                 "--x-grid", "1:1:1"])
        assert code == 0
        got = float(out.splitlines()[1].split(",")[1])
        assert got == pytest.approx(1.0 - 0.25 * math.exp(-1.0), rel=1e-12)

    def test_infinite_vartheta_is_absorption(self, capsys, model_path):
        common = ["--model", model_path, "--q", "0.5", "--theta", "1.25", "--b", "1.75",
                  "--x-grid", "0:1.75:8"]
        code, absorbed = run(capsys, ["law", "severity_absorbed", *common])
        assert code == 0
        assert run(capsys, ["law", "dividends_penalty", "--vartheta", "inf", *common]) == \
            (0, absorbed)

    def test_parisian_severity_next_to_phi_qr(self, capsys, tmp_path):
        # Brownian motion, sigma2 = 2 and q = r = 0.5: Phi_{q+r} = 1, and at theta 4.9e-9
        # above it the value matches mpmath's 0.054398409966622530 (perfbench/reference.py)
        path = tmp_path / "bm.json"
        path.write_text(json.dumps({"c": 0.0, "sigma2": 2.0}))
        code, out = run(capsys, ["law", "parisian_severity", "--model", str(path), "--q", "0.5",
                                 "--r", "0.5", "--b", "1", "--theta", "1.0000000049",
                                 "--x-grid", "0.5:0.5:1"])
        assert code == 0
        got = float(out.splitlines()[1].split(",")[1])
        assert got == pytest.approx(0.054398409966622530, rel=1e-13, abs=0.0)

    def test_unknown_law_lists_names(self, capsys, model_path):
        code = main(["law", "nope", "--model", model_path, "--q", "0.5",
                     "--x-grid", "0:1:2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "two_sided" in err and "parisian_severity" in err

    def test_parisian_law_needs_r(self, capsys, model_path):
        code, _ = run(capsys, ["law", "parisian_severity", "--model", model_path,
                               "--q", "0.5", "--b", "1.0", "--x-grid", "0:1:2"])
        assert code == 2

    def test_time_in_red_needs_r(self, capsys, model_path):
        assert main(["law", "time_in_red", "--model", model_path, "--q", "0",
                     "--x-grid", "0:1:2"]) == 2


Q, R, THETA, VARTHETA, B, K, KK = 0.5, 0.75, 1.25, 0.5, 1.75, 2.0, 0.5
# the optional flags as given, and as read when they are absent
FLAGS = SimpleNamespace(theta=THETA, vartheta=VARTHETA, k=K, K=KK)
NO_FLAGS = SimpleNamespace(theta=0.0, vartheta=0.0, k=0.0, K=0.0)

# each law and objective as the scalar library call that the CLI's column must reproduce
SCALAR_CALLS = {
    "two_sided": lambda c, p, x, f: laws.up_exit(c, x, B, math.inf),
    "severity_absorbed": lambda c, p, x, f: laws.severity(c, x, B, f.theta),
    "severity_reflected": lambda c, p, x, f: laws.severity(c, x, B, f.theta, 0.0),
    "severity_infinite": lambda c, p, x, f: laws.severity_infinite(c, x, f.theta),
    "bailouts_to_level": lambda c, p, x, f: laws.up_exit(c, x, B, f.theta),
    "dividends_penalty":
        lambda c, p, x, f: laws.severity(c, x, B, f.theta, f.vartheta),
    "time_in_red": lambda c, p, x, f: laws.time_in_red(c, x, R),
    # an absent --theta reads as infinity here: the up-crossing without insolvency
    "parisian_up_exit": lambda c, p, x, f: laws.up_exit(
        p, x, B, math.inf if f is NO_FLAGS else f.theta),
    "parisian_severity": lambda c, p, x, f: laws.severity(p, x, B, f.theta),
    "parisian_resolvent_integral":
        lambda c, p, x, f: laws.parisian_resolvent_integral(p, x, 0.0, B),
    "parisian_dividends_penalty":
        lambda c, p, x, f: laws.severity(p, x, B, f.theta, f.vartheta),
    "vf_dividends_classic": lambda c, p, x, f: control.Barrier(c.W, c.dW).value(x, B),
    "value_definetti":
        lambda c, p, x, f: control.definetti(c, scale.Linear(f.k, f.K)).value(x, B),
    "value_slg_classic": lambda c, p, x, f: control.slg_classic(c, f.k).value(x, B),
    "slg_parisian": lambda c, p, x, f: control.slg_parisian(p, f.k).value(x, B),
    "VF_div": lambda c, p, x, f: control.parisian_dividends(p, math.inf).value(x, B),
    "VF_bail": lambda c, p, x, f: control.parisian_bailouts(p, x, B, math.inf),
    "VS_div": lambda c, p, x, f: control.parisian_dividends(p, 0.0).value(x, B),
    "VS_div_theta": lambda c, p, x, f: control.parisian_dividends(p, f.theta).value(x, B),
    "VS_bail": lambda c, p, x, f: control.parisian_bailouts(p, x, B, 0.0),
}
LAWS = ("two_sided", "severity_absorbed", "severity_reflected", "severity_infinite",
        "bailouts_to_level", "dividends_penalty", "time_in_red", "parisian_up_exit",
        "parisian_severity", "parisian_resolvent_integral", "parisian_dividends_penalty")
# the rows whose column reads --theta
THETA_ROWS = [("law", name) for name in (
    "severity_absorbed", "severity_reflected", "severity_infinite", "bailouts_to_level",
    "dividends_penalty", "parisian_up_exit", "parisian_severity",
    "parisian_dividends_penalty")] + [("value", "VS_div_theta")]
# the rows whose column reads --b: all but the two laws with no barrier
B_ROWS = [("law" if name in LAWS else "value", name) for name in sorted(SCALAR_CALLS)
          if name not in ("severity_infinite", "time_in_red")]
ROUND_TRIPS = ([pytest.param(name, FLAGS, id=name) for name in sorted(SCALAR_CALLS)]
               + [pytest.param(name, NO_FLAGS, id=f"{name}-no-optional-flags")
                  for name in sorted(SCALAR_CALLS)])


class TestGridCommands:
    @pytest.mark.parametrize("name,flags", ROUND_TRIPS)
    def test_values_round_trip_exactly(self, capsys, m3_path, name, flags):
        q = 0.0 if name == "time_in_red" else Q
        optional = ["--theta", repr(THETA), "--vartheta", repr(VARTHETA), "--k", repr(K),
                    "--K", repr(KK)] if flags is FLAGS else []
        code, out = run(capsys, ["law" if name in LAWS else "value", name, "--model", m3_path,
                                 "--q", repr(q), "--r", repr(R), *optional,
                                 "--b", repr(B), "--x-grid", f"0:{B!r}:13"])
        assert code == 0
        model = LevyModel.from_dict(M3)
        ctx = build_scale(model, q)
        pctx = build_parisian(model, q, R)
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 13
        for x, value in rows:
            assert value == SCALAR_CALLS[name](ctx, pctx, x, flags), x

    def test_dividends_past_barrier_pay_the_excess(self, capsys, model_path):
        code, out = run(capsys, ["value", "vf_dividends_classic", "--model", model_path,
                                 "--q", "0.5", "--b", "1", "--x-grid", "0:2:5"])
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert rows[2][0] == 1.0 and rows[-1] == [2.0, 1.0 + rows[2][1]]

    def test_grid_ends_exactly_at_b(self, capsys, model_path):
        # a + (b - a)(n - 1)/(n - 1) overshoots this b by one ulp
        b = 2.5231517515339483
        code, out = run(capsys, ["law", "two_sided", "--model", model_path, "--q", "0.5",
                                 "--b", repr(b), "--x-grid", f"0:{b!r}:31"])
        assert code == 0
        last = [float(v) for v in out.splitlines()[-1].split(",")]
        assert last == [b, 1.0]


class TestExitCodes:
    def test_missing_model_file(self, capsys):
        code = main(["scale", "--model", "/no/such/file.json", "--q", "0.5",
                     "--x-grid", "0:1:2"])
        assert code == 2

    def test_domain_error_is_one(self, capsys, model_path):
        # x outside [0, b] is a numerical domain failure, not a usage error
        code = main(["law", "severity_absorbed", "--model", model_path, "--q", "0.5",
                     "--b", "1.0", "--x-grid", "0:3:4"])
        assert code == 1

    def test_bad_grid_is_two(self, capsys, model_path):
        for grid in ("2:1:5", "1:2", "0:1:0"):
            assert main(["scale", "--model", model_path, "--q", "0.5", "--x-grid", grid]) == 2

    def test_missing_subcommand_is_two(self, capsys):
        assert main([]) == 2

    def test_zero_r_is_one(self, capsys, model_path):
        assert main(["scale", "--model", model_path, "--q", "0.5", "--r", "0",
                     "--x-grid", "0:1:2"]) == 1

    def test_negative_theta_is_one(self, capsys, model_path):
        assert main(["scale", "--model", model_path, "--q", "0.5", "--theta", "-1",
                     "--x-grid", "0:1:2"]) == 1

    def test_negative_scale_grid_is_one(self, capsys, model_path):
        assert main(["scale", "--model", model_path, "--q", "0.5", "--x-grid=-1:1:3"]) == 1

    @pytest.mark.parametrize("theta", ["-0.5", "nan"])
    @pytest.mark.parametrize("kind,name", THETA_ROWS)
    def test_bad_theta_is_one(self, capsys, model_path, kind, name, theta):
        assert main([kind, name, "--model", model_path, "--q", "0.5", "--r", "0.5",
                     "--theta", theta, "--b", "1.0", "--x-grid", "0:1:3"]) == 1

    @pytest.mark.parametrize("kind,name", B_ROWS)
    def test_infinite_b_is_one(self, capsys, model_path, kind, name):
        assert main([kind, name, "--model", model_path, "--q", "0.5", "--r", "0.5",
                     "--b", "inf", "--x-grid", "0:1:3"]) == 1

    @pytest.mark.parametrize("argv", [
        ["law", name, "--b", "1.0"] for name in
        ("severity_absorbed", "severity_reflected", "severity_infinite", "dividends_penalty")]
        + [["scale"]], ids=lambda argv: argv[-3] if len(argv) > 1 else argv[0])
    def test_infinite_classical_theta_is_one(self, capsys, model_path, argv):
        assert main([*argv, "--model", model_path, "--q", "0.5", "--theta", "inf",
                     "--x-grid", "0:1:3"]) == 1

    @pytest.mark.parametrize("argv", [
        ["law", "two_sided", "--q", "inf", "--b", "1.0", "--x-grid", "0:1:3"],
        ["law", "two_sided", "--q", "nan", "--b", "1.0", "--x-grid", "0:1:3"],
        ["scale", "--q", "1e308", "--x-grid", "0:1:3"],
        ["scale", "--q", "1e305", "--x-grid", "0:1:3"],
        ["simulate", "two_sided", "--q", "inf", "--x", "0.5", "--b", "1.0", "--paths", "10"],
        ["law", "parisian_severity", "--q", "0.5", "--r", "inf", "--b", "1.0",
         "--x-grid", "0:1:3"],
        ["value", "VF_div", "--q", "0.5", "--r", "nan", "--b", "1.0", "--x-grid", "0:1:3"],
        ["value", "VF_div", "--q", "0.5", "--r", "1e200", "--b", "1.0", "--x-grid", "0:1:3"],
        ["efficiency", "--q", "0.5", "--r", "inf", "--k", "1.0"],
        ["law", "severity_absorbed", "--q", "0.5", "--theta", "1e200", "--b", "1.0",
         "--x-grid", "0:1:3"],
    ], ids=lambda argv: "-".join(argv[:4]))
    def test_non_finite_or_overflowing_argument_is_one(self, capsys, model_path, argv):
        assert main([*argv, "--model", model_path]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_huge_r_with_sigma_is_zero(self, capsys, tmp_path):
        """Phi_{q+r} of a Brownian model at r = 1e150 is 1e75, and the law is its r -> inf
        limit, the classical severity."""
        p = tmp_path / "bm.json"
        p.write_text(json.dumps({"c": 0.0, "sigma2": 2.0}))
        argv = ["--model", str(p), "--q", "0.5", "--b", "1.0", "--x-grid", "0:1:3"]
        code, out = run(capsys, ["law", "parisian_severity", "--r", "1e150", *argv])
        assert code == 0
        _, limit = run(capsys, ["law", "severity_absorbed", *argv])
        got, want = ([float(line.split(",")[1]) for line in text.splitlines()[1:]]
                     for text in (out, limit))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15

    @pytest.mark.parametrize("kind,name", THETA_ROWS + [("scale", None)])
    def test_theta_past_overflow_is_one(self, capsys, model_path, kind, name):
        argv = [kind, name, "--b", "1.0"] if name else [kind]
        assert main([*argv, "--model", model_path, "--q", "0.5", "--r", "0.5",
                     "--theta", "1e200", "--x-grid", "0:1:3"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "theta" in err

    def test_slg_classic_zero_barrier_with_sigma_is_one(self, capsys, m3_path):
        """W_q(0) = 0 when sigma > 0, so the barrier b = 0 has no value."""
        assert main(["value", "value_slg_classic", "--model", m3_path, "--q", "0.5",
                     "--b", "0", "--x-grid", "0:0:1"]) == 1

    @pytest.mark.parametrize("x", ["2.0", "-0.5"])
    @pytest.mark.parametrize("name", ["vf_dividends", "slg_value", "two_sided"])
    def test_simulate_start_outside_barrier_is_one(self, capsys, model_path, name, x):
        assert main(["simulate", name, "--model", model_path, "--q", "0.5", "--r", "0.5",
                     "--x", x, "--b", "1.5", "--paths", "100"]) == 1

    def test_nan_cost_is_one(self, capsys, model_path):
        assert main(["efficiency", "--model", model_path, "--q", "0.5", "--r", "0.5",
                     "--k", "nan"]) == 1
        capsys.readouterr()
        # and a non-finite cost in every objective and functional that reads one
        for argv in (["value", "value_slg_classic", "--k", "nan"],
                     ["value", "slg_parisian", "--k", "nan"],
                     ["value", "slg_parisian", "--k", "inf"],
                     ["value", "value_definetti", "--K", "nan"],
                     ["value", "value_definetti", "--k", "inf"],
                     ["simulate", "slg_value", "--k", "nan", "--x", "0.5", "--paths", "100"]):
            grid = ["--x-grid", "0:1:3"] if argv[0] == "value" else []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*argv, "--model", model_path, "--q", "0.5", "--r", "0.5",
                             "--b", "1", *grid]) == 1, argv
            assert capsys.readouterr().err.count("\n") == 1, argv

    def test_zero_q_efficiency_is_one(self, capsys, model_path):
        assert main(["efficiency", "--model", model_path, "--q", "0", "--r", "0.5"]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("name", ["bailouts_to_level", "parisian_severity"])
    def test_simulate_infinite_theta(self, capsys, model_path, name):
        """exp(-theta L) is 1 wherever L = 0, also at theta = inf: no NaN and no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["simulate", name, "--model", model_path, "--q", "0.5",
                                     "--r", "1", "--x", "0.5", "--b", "1", "--theta", "inf",
                                     "--paths", "20000"])
        assert code == 0 and capsys.readouterr().err == ""
        got = json.loads(out)
        assert abs(got["z_score"]) < 4 and math.isfinite(got["mean"]), got
        if name == "bailouts_to_level":
            assert got["analytic"] == pytest.approx(0.63526, abs=1e-5)

    def test_negative_q_is_one(self, capsys, model_path):
        assert main(["scale", "--model", model_path, "--q", "-1", "--x-grid", "0:1:2"]) == 1

    def test_time_in_red_zero_r_is_one(self, capsys, model_path):
        assert main(["law", "time_in_red", "--model", model_path, "--q", "0", "--r", "0",
                     "--x-grid", "0:1:2"]) == 1

    def test_roots_off_the_poles_are_one(self, capsys, model_path, monkeypatch):
        # a root left below m1's pole -2, where kappa = 0.5 has none
        monkeypatch.setattr(np.polynomial.polynomial, "polyroots",
                            lambda poly: np.array([-2.0 - 1e-6, 0.75]))
        assert main(["scale", "--model", model_path, "--q", "0.5", "--x-grid", "0:1:2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "do not alternate with the poles" in err

    def test_simulate_zero_paths_is_two(self, capsys, model_path):
        assert main(["simulate", "two_sided", "--model", model_path, "--q", "0.5",
                     "--x", "0.6", "--b", "1.5", "--paths", "0"]) == 2

    @pytest.mark.parametrize("name", ["parisian_up_exit", "parisian_severity",
                                      "vf_dividends", "slg_value", "time_in_red"])
    def test_simulate_without_r_is_two(self, capsys, model_path, name):
        assert main(["simulate", name, "--model", model_path, "--q", "0.5",
                     "--x", "1.0", "--b", "2.0", "--paths", "100"]) == 2
        assert "needs --r" in capsys.readouterr().err

    def test_model_not_json_is_one(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"c": 1.0,')
        assert main(["scale", "--model", str(p), "--q", "0.5", "--x-grid", "0:1:2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "broken.json" in err

    def test_model_missing_field_is_one(self, capsys, tmp_path):
        p = tmp_path / "no_c.json"
        p.write_text(json.dumps({k: v for k, v in M1.items() if k != "c"}))
        assert main(["scale", "--model", str(p), "--q", "0.5", "--x-grid", "0:1:2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no_c.json" in err and "'c'" in err

    def test_network_spec_missing_field_is_one(self, capsys, tmp_path):
        p = tmp_path / "net.json"
        p.write_text(json.dumps({"c0": 1.0, "q": 0.5, "subsidiaries": [
            {"c": 2.0, "alpha": 0.5, "phases": [{"weight": 1.0, "rate": 2.0}]}]}))
        assert main(["network", "--spec", str(p), "--u0", "1.0", "--b", "2.0",
                     "--paths", "100"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "net.json" in err and "'lambda'" in err

    def test_oversized_grid_is_two(self, capsys, model_path):
        # numpy refuses the 800 GB grid at once, so nothing is allocated
        assert main(["scale", "--model", model_path, "--q", "0.5",
                     "--x-grid", "0:1:100000000000"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_network_zero_paths_is_two(self, capsys, tmp_path):
        spec = tmp_path / "net.json"
        spec.write_text("{}")
        assert main(["network", "--spec", str(spec), "--u0", "1.0", "--b", "2.0",
                     "--paths", "0"]) == 2


class TestEfficiencyCommand:
    def test_symmetric_fixture(self, capsys, model_path):
        code, out = run(capsys, ["efficiency", "--model", model_path,
                                 "--q", "0.3333333333333333", "--r", "0.3333333333333333",
                                 "--k", "3.0"])
        assert code == 0
        obj = json.loads(out)
        assert obj["threshold"] == pytest.approx(4.0, rel=1e-12)
        assert obj["efficient"] is True
        assert obj["patience"] == 0.0

    def test_patience_positive_when_inefficient(self, capsys, model_path):
        code, out = run(capsys, ["efficiency", "--model", model_path,
                                 "--q", "0.3333333333333333", "--r", "0.3333333333333333",
                                 "--k", "5.0"])
        obj = json.loads(out)
        assert code == 0 and obj["efficient"] is False and obj["patience"] > 0

    def test_bad_model_without_r_is_two(self, capsys, tmp_path):
        """--r is checked before the model is read, as in `law` and `value`."""
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**M1, "c": -1.0}))
        assert main(["efficiency", "--model", str(p), "--q", "0.5", "--k", "3.0"]) == 2
        assert "needs --r" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["inf", "1e40"])
    def test_cost_without_patience_is_one(self, capsys, model_path, k):
        assert main(["efficiency", "--model", model_path, "--q", "0.5", "--r", "1.0",
                     "--k", k]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_patience_for_a_cost_of_1e33(self, capsys, model_path, mp_threshold):
        code, out = run(capsys, ["efficiency", "--model", model_path, "--q", "0.5", "--r", "1.0",
                                 "--k", "1e33"])
        obj = json.loads(out)
        assert code == 0 and obj["efficient"] is False
        model = LevyModel.from_dict(M1)
        assert mp_threshold(model, 0.5 + obj["patience"], 1.0) == pytest.approx(1e33, rel=1e-7)


class TestRequestPath:
    """main parses with one parser per process; no call leaves state for the next."""

    LAW = ["law", "severity_absorbed", "--q", "0.5", "--b", "1.0", "--x-grid", "0:1:5"]

    def test_theta_does_not_carry_over(self, capsys, model_path):
        argv = self.LAW + ["--model", model_path]
        _, theta0 = run(capsys, argv)
        _, theta1 = run(capsys, argv + ["--theta", "1.0"])
        assert theta1 != theta0
        assert run(capsys, argv) == (0, theta0)

    def test_usage_error_leaves_no_trace(self, capsys, model_path, tmp_path):
        alone, after = tmp_path / "alone.csv", tmp_path / "after.csv"
        argv = self.LAW + ["--model", model_path, "--out"]
        assert main(argv + [str(alone)]) == 0
        # --q is missing, after --theta and --out were read
        assert main(["law", "severity_absorbed", "--model", model_path, "--theta", "1.0",
                     "--out", str(tmp_path / "no.csv"), "--x-grid", "0:1:5"]) == 2
        assert main(argv + [str(after)]) == 0
        assert after.read_bytes() == alone.read_bytes()

    def test_main_builds_no_parser(self, capsys, model_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        for _ in range(3):
            assert main(self.LAW + ["--model", model_path]) == 0
        assert built == []
        cli.build_parser()      # the counter counts
        assert built

    def test_csv_text_is_the_17_digit_format(self, tmp_path):
        values = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
                  math.inf, -math.inf, math.nan, 1.0 / 3.0, 0.1, 2.5, -7.0]
        columns = [np.array(values), np.array(values[::-1]), -np.array(values)]
        dest = tmp_path / "table.csv"
        cli._write_columns(["a", "b", "c"], columns, str(dest))
        rows = zip(*(col.tolist() for col in columns))
        want = "a,b,c\n" + "".join(",".join("{:.17g}".format(v) for v in row) + "\n"
                                    for row in rows)
        assert dest.read_text() == want


class TestSimulateCommand:
    def test_two_sided_z_score(self, capsys, model_path):
        code, out = run(capsys, ["simulate", "two_sided", "--model", model_path,
                                 "--q", "0.5", "--x", "0.6", "--b", "1.5",
                                 "--paths", "50000", "--seed", "1"])
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["z_score"]) < 4.0
        assert obj["ci95"][0] < obj["analytic"] < obj["ci95"][1] or abs(obj["z_score"]) < 4.0
        assert obj["tail_bound"] == 0.0     # absorbed at b: no truncation

    def test_vf_dividends_reports_tail_bound(self, capsys, model_path):
        code, out = run(capsys, ["simulate", "vf_dividends", "--model", model_path,
                                 "--q", "0.5", "--r", "0.5", "--x", "0.6", "--b", "1.5",
                                 "--paths", "2000", "--seed", "1"])
        assert code == 0
        obj = json.loads(out)
        assert obj["tail_bound"] == 0.0 and obj["horizon"] is None   # one cycle, nothing cut


# simulate output at 2,000 paths and seed 1, as float.hex of (mean, se, analytic,
# tail_bound): pins each name's configuration, functional, flag defaults and closed form
SIMULATE_FLAGS = {
    "all": ["--theta", "1.25", "--vartheta", "0.5", "--k", "2.0", "--K", "0.5"],
    "none": [],
    "theta1": ["--theta", "1.0"],       # parisian_up_exit still checks theta = infinity
}
SIMULATE_PINS = {
    ("two_sided", "all"): ("0x1.e77399bd80e8ep-2", "0x1.52608c72d018bp-8",
                           "0x1.daa1bd76fc751p-2", "0x0.0p+0"),
    ("two_sided", "none"): ("0x1.e77399bd80e8ep-2", "0x1.52608c72d018bp-8",
                            "0x1.daa1bd76fc751p-2", "0x0.0p+0"),
    ("severity", "all"): ("0x1.3eb24ea2ce225p-4", "0x1.2167c5ee9d955p-8",
                          "0x1.66d0aae7344e0p-4", "0x0.0p+0"),
    ("severity", "none"): ("0x1.086aa181e25dbp-3", "0x1.b476487b540c7p-8",
                           "0x1.23898adbda800p-3", "0x0.0p+0"),
    ("severity_reflected", "all"): ("0x1.0391bae7d1067p-3", "0x1.4fdfbc205b21ep-8",
                                    "0x1.0318bdc6637f8p-3", "0x0.0p+0"),
    ("severity_reflected", "none"): ("0x1.a1d938baf87e3p-3", "0x1.e5e134a81f2cdp-8",
                                     "0x1.a508346261af8p-3", "0x0.0p+0"),
    ("bailouts_to_level", "all"): ("0x1.f7cdbb4ad6f6ep-2", "0x1.20b8665981265p-8",
                                   "0x1.f52a2a0fafa78p-2", "0x0.0p+0"),
    ("bailouts_to_level", "none"): ("0x1.08698c2a36e8ap-1", "0x1.c692faaff56ebp-9",
                                    "0x1.07497cda01b65p-1", "0x0.0p+0"),
    ("parisian_up_exit", "all"): ("0x1.f87d474224c14p-2", "0x1.28dc0743fe62cp-8",
                                  "0x1.f11be327ec4e5p-2", "0x0.0p+0"),
    ("parisian_up_exit", "none"): ("0x1.f87d474224c14p-2", "0x1.28dc0743fe62cp-8",
                                   "0x1.f11be327ec4e5p-2", "0x0.0p+0"),
    ("parisian_up_exit", "theta1"): ("0x1.f87d474224c14p-2", "0x1.28dc0743fe62cp-8",
                                     "0x1.f11be327ec4e5p-2", "0x0.0p+0"),
    ("parisian_severity", "all"): ("0x1.9af352515a87ap-6", "0x1.2e5ef8b83b358p-9",
                                   "0x1.abd011c40bc00p-6", "0x0.0p+0"),
    ("parisian_severity", "none"): ("0x1.71afa7d502b12p-5", "0x1.de078961ab77fp-9",
                                    "0x1.8ce93894942e0p-5", "0x0.0p+0"),
    ("vf_dividends", "all"): ("0x1.49c12adc422b7p-1", "0x1.40b6fd2752bfcp-7",
                              "0x1.3b4acf2fa7ef2p-1", "0x0.0p+0"),
    ("vf_dividends", "none"): ("0x1.49c12adc422b7p-1", "0x1.40b6fd2752bfcp-7",
                               "0x1.3b4acf2fa7ef2p-1", "0x0.0p+0"),
    ("slg_value", "all"): ("0x1.28f088a2a6ca0p-1", "0x1.bb30f537f63c9p-7",
                           "0x1.10e45894d65e8p-1", "0x0.0p+0"),
    ("slg_value", "none"): ("0x1.5a7d6d92712afp-1", "0x1.2312910c76a30p-7",
                            "0x1.4a9730f00d0a4p-1", "0x0.0p+0"),
    ("time_in_red", "all"): ("0x1.b7374d8475935p-1", "0x1.a29787880a40ep-8",
                             "0x1.b636853b09e39p-1", "0x0.0p+0"),
    ("time_in_red", "none"): ("0x1.b7374d8475935p-1", "0x1.a29787880a40ep-8",
                              "0x1.b636853b09e39p-1", "0x0.0p+0"),
    ("VF_bail", "all"): ("0x1.66cb84194f22ep-5", "0x1.3d12a2f2cbd60p-8",
                         "0x1.3414e92a639a0p-5", "0x0.0p+0"),
    ("VF_bail", "none"): ("0x1.66cb84194f22ep-5", "0x1.3d12a2f2cbd60p-8",
                          "0x1.3414e92a639a0p-5", "0x0.0p+0"),
    ("VS_bail", "all"): ("0x1.8c67277e53073p-5", "0x1.039d1da9e8f19p-8",
                         "0x1.cd96c2d9b55e0p-5", "0x0.0p+0"),
    ("VS_bail", "none"): ("0x1.8c67277e53073p-5", "0x1.039d1da9e8f19p-8",
                          "0x1.cd96c2d9b55e0p-5", "0x0.0p+0"),
}


def simulate(capsys, model_path, name, flags, paths, seed):
    """The JSON of `simulate name` on m1 from x = 0.6 below b = 1.5, at q = 0.5 (q = 0 for
    time_in_red) and r = 0.75."""
    q = "0.0" if name == "time_in_red" else "0.5"
    code, out = run(capsys, ["simulate", name, "--model", model_path, "--q", q, "--r", "0.75",
                             "--x", "0.6", "--b", "1.5", "--paths", str(paths),
                             "--seed", str(seed), *SIMULATE_FLAGS[flags]])
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("name,flags", sorted(SIMULATE_PINS), ids="-".join)
def test_simulate_pinned(capsys, model_path, name, flags):
    obj = simulate(capsys, model_path, name, flags, 2000, 1)
    got = tuple(float(obj[k]).hex() for k in ("mean", "se", "analytic", "tail_bound"))
    assert got == SIMULATE_PINS[name, flags]


def test_every_simulate_name_is_pinned():
    assert {name for name, _ in SIMULATE_PINS} == set(table.SIMULATE)


@pytest.mark.parametrize("name", sorted(table.SIMULATE))
@pytest.mark.parametrize("flags", ["all", "none"])
def test_simulate_agrees_with_closed_form(capsys, model_path, name, flags):
    """Each row's path functional against its closed form, at the default seed."""
    obj = simulate(capsys, model_path, name, flags, 20_000, 0)
    assert abs(obj["z_score"]) < 4.0, obj


def test_build_scale_once_with_r(capsys, model_path, monkeypatch):
    """A request with --r builds its scale context once, inside build_parisian."""
    calls = []
    original = scale.build_scale

    def counted(model, q):
        calls.append(q)
        return original(model, q)

    monkeypatch.setattr(scale, "build_scale", counted)
    code, _ = run(capsys, ["law", "parisian_severity", "--model", model_path, "--q", "0.5",
                           "--r", "0.75", "--theta", "1.0", "--b", "1.5",
                           "--x-grid", "0:1.5:4"])
    assert code == 0 and calls == [0.5]


def test_import_loads_no_scipy(python_child):
    """The package runs on numpy alone; scipy is a test dependency."""
    done = python_child(["-c", "import sys, parisian_scale.cli; "
                         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"])
    assert done.stdout.strip() == "[]", done.stderr


def test_table_import_leaves_out_the_cli(python_child):
    """The law table is library code: importing it neither imports `cli` nor builds a parser."""
    done = python_child(["-c", "import argparse, sys; made = []; "
                         "init = argparse.ArgumentParser.__init__; "
                         "argparse.ArgumentParser.__init__ = "
                         "lambda self, *a, **kw: made.append(1) or init(self, *a, **kw); "
                         "import parisian_scale.table; "
                         "print('parisian_scale.cli' in sys.modules, len(made))"])
    assert done.stdout.strip() == "False 0", done.stderr


@pytest.mark.parametrize("path", ["model_path", "m3_path"])
def test_one_mixture_build_per_request(capsys, request, build_calls, path):
    """`scale` with --r and --theta fills nine columns from the one basis W is built on."""
    code, out = run(capsys, ["scale", "--model", request.getfixturevalue(path), "--q", "0.5",
                             "--r", "0.5", "--theta", "1.5", "--x-grid", "0:2:5"])
    assert code == 0 and len(out.splitlines()[0].split(",")) == 10
    assert len(build_calls) == 1


class TestNetworkCommand:
    def test_check_and_value(self, capsys, tmp_path, model_path):
        spec = {
            "c0": 1.0, "q": 0.5,
            "subsidiaries": [
                {"c": 2.0, "lambda": 1.0, "alpha": 0.5,
                 "phases": [{"weight": 1.0, "rate": 2.0}]},
                {"c": 3.0, "lambda": 1.0, "alpha": 0.5,
                 "phases": [{"weight": 1.0, "rate": 2.0}]},
            ],
        }
        p = tmp_path / "net.json"
        p.write_text(json.dumps(spec))
        code, out = run(capsys, ["network", "--spec", str(p), "--u0", "1.0",
                                 "--b", "2.0", "--paths", "5000"])
        assert code == 0
        obj = json.loads(out)
        assert obj["cheap"] is True
        assert obj["gamma"] == pytest.approx(2.0)
        assert obj["c_tilde"] == pytest.approx(10.0)
        assert obj["mc_value"] > 0
