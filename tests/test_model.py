import json
import math

import numpy as np
import pytest

from parisian_scale import (
    DegenerateRoots,
    DomainError,
    LevyModel,
    ModelError,
    PoleAtTheta,
    laplace_exponent,
    laplace_exponent_deriv,
    phi,
    root_set,
)
from parisian_scale import model as model_module


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ModelError):
            LevyModel(c=1.0, lam=1.0, phases=((0.4, 1.0), (0.4, 2.0)))

    def test_rates_must_be_distinct(self):
        with pytest.raises(ModelError):
            LevyModel(c=1.0, lam=1.0, phases=((0.5, 2.0), (0.5, 2.0 + 1e-12)))

    @pytest.mark.parametrize("kw, message", [
        ({"lam": -1.0}, "lam must be nonnegative"),
        ({"phases": ((1.2, 1.0), (-0.2, 3.0))}, r"lie in \(0, 1\]"),
        ({"phases": ((-0.2, 1.0), (1.2, 3.0))}, r"lie in \(0, 1\]"),
        ({"phases": ((0.5, 1.0), (0.5, -3.0))}, "rates must be positive"),
        # the near-equal pair is not adjacent as given; sorted, it is
        ({"phases": ((0.25, 7.0), (0.5, 1.0), (0.25, 7.0 * (1 + 5e-10)))}, "pairwise distinct"),
    ])
    def test_refusal_names_the_fault(self, kw, message):
        with pytest.raises(ModelError, match=message):
            LevyModel(**{"c": 1.0, "lam": 1.0, "phases": ((1.0, 2.0),), **kw})

    @pytest.mark.parametrize("raw, message", [
        ({"c": 1.0, "lambda": 1.0, "phases": {"weight": 1.0, "rate": 2.0}},
         "field 'phases' is not a list"),
        ({"c": "fast"}, "field 'c' is not a number"),
        ({"c": 1.0, "lambda": 1.0, "phases": [{"weight": [1.0], "rate": 2.0}]},
         "field 'weight' is not a number"),
    ])
    def test_from_dict_names_the_field(self, raw, message):
        with pytest.raises(ModelError, match=message):
            LevyModel.from_dict(raw)

    def test_negative_sigma2_rejected(self):
        with pytest.raises(ModelError):
            LevyModel(c=1.0, sigma2=-0.1)

    def test_claims_need_phases(self):
        with pytest.raises(ModelError):
            LevyModel(c=1.0, lam=1.0)

    def test_needs_some_forward_motion(self):
        with pytest.raises(ModelError):
            LevyModel(c=0.0, sigma2=0.0, lam=1.0, phases=((1.0, 1.0),))

    @pytest.mark.parametrize("field,value", [
        ("c", math.inf), ("c", math.nan), ("sigma2", math.nan), ("sigma2", math.inf),
        ("lam", math.nan), ("lam", math.inf), ("weight", math.nan), ("rate", math.nan),
        ("rate", math.inf),
    ])
    def test_non_finite_field_rejected(self, field, value):
        """A NaN compares False, so without this check NaN claims would never ruin a path."""
        kw = {"c": 1.0, "sigma2": 0.0, "lam": 1.0, "weight": 1.0, "rate": 2.0, field: value}
        with pytest.raises(ModelError, match="finite"):
            LevyModel(c=kw["c"], sigma2=kw["sigma2"], lam=kw["lam"],
                      phases=((kw["weight"], kw["rate"]),))

    @pytest.mark.parametrize("field", ["lambda", "sigma2", "c", "weight", "rate"])
    def test_non_finite_field_in_a_file_names_it(self, capsys, tmp_path, field):
        from parisian_scale.cli import main
        raw = {"c": 1.0, "lambda": 1.0, "phases": [{"weight": 1.0, "rate": 2.0}]}
        at = raw["phases"][0] if field in ("weight", "rate") else raw
        at[field] = math.inf if field == "c" else math.nan
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        assert main(["scale", "--model", str(p), "--q", "0.5", "--x-grid", "0:1:3"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(p) in err and "finite" in err, err

    def test_drift_mean(self, m1):
        assert m1.drift == pytest.approx(0.5)

    def test_json_round_trip(self, m1, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(m1.to_dict()))
        assert LevyModel.from_json(str(path)) == m1


class TestLaplaceExponent:
    def test_kappa_at_zero(self, m1):
        assert laplace_exponent(m1, 0.0) == 0.0

    def test_m1_closed_form(self, m1):
        # kappa(theta) = theta - theta/(2+theta)
        for th in (0.5, 1.0, 3.0):
            assert laplace_exponent(m1, th) == pytest.approx(th - th / (2 + th), abs=1e-14)

    def test_m2_is_square(self, m2):
        assert laplace_exponent(m2, 1.7) == pytest.approx(1.7**2)

    def test_pole_raises(self, m1):
        with pytest.raises(PoleAtTheta):
            laplace_exponent(m1, -2.0)

    def test_derivative_matches_finite_difference(self, m1):
        h = 1e-6
        for th in (0.3, 1.1):
            fd = (laplace_exponent(m1, th + h) - laplace_exponent(m1, th - h)) / (2 * h)
            assert laplace_exponent_deriv(m1, th) == pytest.approx(fd, rel=1e-8)

    def test_deriv_at_zero_is_drift(self, m1):
        assert laplace_exponent_deriv(m1, 0.0) == pytest.approx(m1.drift)


class TestPhi:
    def test_m1_phi_two_thirds_is_one(self, m1):
        # kappa(1) = 1 - 1/3 = 2/3
        assert phi(m1, 2.0 / 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_m2_phi_is_sqrt(self, m2):
        assert phi(m2, 4.0) == pytest.approx(2.0, abs=1e-12)

    def test_phi_zero_with_positive_drift(self, m1):
        assert phi(m1, 0.0) == 0.0

    def test_phi_zero_with_negative_drift(self):
        heavy = LevyModel(c=1.0, lam=3.0, phases=((1.0, 2.0),))
        root = phi(heavy, 0.0)
        assert root > 0
        assert laplace_exponent(heavy, root) == pytest.approx(0.0, abs=1e-12)

    def test_phi_inverts_kappa(self, m1):
        for s in (0.1, 1.0, 7.5):
            assert laplace_exponent(m1, phi(m1, s)) == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize("s", [-1.0, math.inf, math.nan, 1e308])
    def test_phi_refuses_s_outside_its_domain(self, m1, s):
        with pytest.raises(DomainError):
            phi(m1, s)

    @pytest.mark.parametrize("s", [1e70, 1e150, 1e300])
    def test_m2_phi_is_sqrt_far_out(self, m2, s):
        assert phi(m2, s) == math.sqrt(s)

    def test_phi_zero_with_negative_drift_is_exact(self):
        # kappa(theta) = theta/2 - theta/(1 + theta) vanishes at theta = 1
        assert phi(LevyModel(c=0.5, lam=1.0, phases=((1.0, 1.0),)), 0.0) == 1.0

    def test_phi_of_tiny_s_near_zero_drift(self):
        # kappa's rounding near theta = 0, with drift 1e-9 against c = 0.5, dwarfs s
        model = LevyModel(c=0.5 + 1e-9, lam=1.0, phases=((1.0, 2.0),))
        assert phi(model, 1e-290) == pytest.approx(1e-290 / model.drift, rel=1e-12, abs=0)
        # at zero drift kappa' rounds to 0 short of the double root at theta = 0
        balanced = LevyModel(c=0.5, lam=1.0, phases=((1.0, 2.0),))
        root = phi(balanced, 1e-300)
        assert 0 < root < 1e-15 and abs(laplace_exponent(balanced, root)) < 1e-30

    def test_extreme_sweep_is_backward_stable(self):
        """Phases, rates, sigma2, negative c and s over many decades: Phi_s solves kappa = s
        to within 4 eps times the size of kappa's terms."""
        rng = np.random.default_rng(10)
        eps = np.finfo(float).eps
        for _ in range(3000):
            n = int(rng.integers(0, 6))
            sigma2 = 0.0 if rng.random() < 0.4 else float(10.0 ** rng.uniform(-4, 2))
            lam = float(10.0 ** rng.uniform(-2, 2)) if n else 0.0
            try:
                model = LevyModel(c=float(rng.uniform(-10.0 if sigma2 else 0.01, 10.0)),
                                  sigma2=sigma2, lam=lam,
                                  phases=tuple(zip(rng.dirichlet(np.ones(n)).tolist(),
                                                   (10.0 ** rng.uniform(-2, 3, n)).tolist())))
            except ModelError:
                continue
            s = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-10, 150))
            root = phi(model, s)
            assert math.isfinite(root) and root >= 0
            claims = model.lam * root * sum(p / (mu + root) for p, mu in model.phases)
            size = 0.5 * model.sigma2 * root**2 + abs(model.c) * root + claims
            assert abs(laplace_exponent(model, root) - s) <= 4 * eps * size, (model, s)


class TestRootSet:
    @pytest.mark.parametrize("s", [-1.0, math.inf, math.nan])
    def test_refuses_s_outside_its_domain(self, m1, s):
        with pytest.raises(DomainError):
            root_set(m1, s)

    def test_refuses_an_overflowing_polynomial(self, m1):
        # -s times the cleared pole (theta + 2) overflows to -inf
        with pytest.raises(DomainError, match="overflows"):
            root_set(m1, 1e308)

    def test_m1_q23_roots(self, m1):
        roots = sorted(r.real for r in root_set(m1, 2.0 / 3.0))
        assert roots == pytest.approx([-4.0 / 3.0, 1.0], abs=1e-10)

    def test_first_root_is_phi(self, m1):
        roots = root_set(m1, 0.25)
        assert roots[0].real == pytest.approx(phi(m1, 0.25), abs=1e-12)
        assert roots[0].imag == 0.0

    def test_roots_solve_kappa(self, m1):
        two_phase = LevyModel(c=1.5, lam=1.0, phases=((0.3, 1.0), (0.7, 3.0)))
        for q in (0.2, 1.0):
            for rho in root_set(two_phase, q):
                assert abs(laplace_exponent(two_phase, rho) - q) < 1e-9

    def test_roots_are_real(self):
        """The roots interlace with the poles -mu_i, so none is complex."""
        rng = np.random.default_rng(11)
        solved = 0
        for _ in range(300):
            n = int(rng.integers(1, 6))
            sigma2 = float(rng.uniform(0.05, 2.0)) if rng.random() < 0.5 else 0.0
            model = LevyModel(c=float(rng.uniform(0.1, 3.0)), sigma2=sigma2,
                              lam=float(rng.uniform(0.1, 3.0)),
                              phases=tuple(zip(rng.dirichlet(np.ones(n)).tolist(),
                                               rng.uniform(0.1, 10.0, n).tolist())))
            q = float(rng.uniform(0.0, 5.0)) if rng.random() < 0.7 else 0.0
            try:
                roots = root_set(model, q)
            except DegenerateRoots:
                continue
            solved += 1
            assert all(type(r) is float for r in roots)
            assert len(roots) == n + 1 + (model.sigma2 > 0)
            poles = [-mu for _, mu in model.phases]
            order = [kind for _, kind in sorted([(r, "root") for r in roots]
                                                + [(p, "pole") for p in poles])]
            # sigma2 > 0 puts one root below all the poles; two roots lie above them all
            assert order == ["root"] * (model.sigma2 > 0) + ["pole", "root"] * n + ["root"]
        assert solved > 280

    def test_roots_that_do_not_alternate_with_the_poles_are_refused(self, m1, monkeypatch):
        # each Newton step doubles a root's distance from the pole -2, so -2 - 1e-6 stays
        # below it, where kappa = 0.5 has no root
        monkeypatch.setattr(np.polynomial.polynomial, "polyroots",
                            lambda poly: np.array([-2.0 - 1e-6, 0.75]))
        with pytest.raises(DegenerateRoots, match="do not alternate with the poles"):
            root_set(m1, 0.5)

    def test_count_matches_degree(self, m2):
        assert len(root_set(m2, 1.0)) == 2

    def test_order_polyroots_gives_and_root_set_keeps(self):
        """polyroots sorts its roots, and root_set returns Phi_s then the others ascending,
        all below it."""
        for model, s in seeded_cases():
            coef = model_module._kappa_poly(model, s)
            assert np.all(np.diff(np.polynomial.polynomial.polyroots(coef).real) >= 0)
            try:
                phi_s, *rest = root_set(model, s)
            except DegenerateRoots:
                continue
            assert rest == sorted(rest) and all(r < phi_s for r in rest), (model, s)

    def test_coinciding_roots_are_named_as_neighbours(self):
        """Zero drift at s = 0 doubles the root 0; the refusal names the two roots there,
        with no other root between them."""
        balanced = LevyModel(c=0.625, sigma2=1.0, lam=1.0, phases=((0.5, 1.0), (0.5, 4.0)))
        assert balanced.drift == 0.0
        with pytest.raises(DegenerateRoots, match="coincide") as info:
            root_set(balanced, 0.0)
        lo, hi = (float(word) for word in str(info.value).split()[1:4:2])
        assert lo <= hi and abs(lo) < 1e-6 and abs(hi) < 1e-6
        others = np.polynomial.polynomial.polyroots(model_module._kappa_poly(balanced, 0.0)).real
        assert sum(lo < r < hi for r in others) == 0 and sum(abs(r) < 1e-6 for r in others) == 2

    def test_confluent_roots_rejected(self):
        # zero drift at q=0 makes the two roots near the origin collide
        balanced = LevyModel(c=0.5, lam=1.0, phases=((1.0, 2.0),))
        assert balanced.drift == pytest.approx(0.0)
        with pytest.raises(DegenerateRoots):
            root_set(balanced, 0.0)


def reference_kappa_poly(model, s):
    """kappa(theta) - s with its poles cleared, as numpy.polynomial objects build it."""
    P = np.polynomial.Polynomial
    prod_all = P([1.0])
    for _, mu in model.phases:
        prod_all *= P([mu, 1.0])
    poly = P([-s, model.c, 0.5 * model.sigma2]) * prod_all
    for i, (p, _) in enumerate(model.phases):
        others = P([1.0])
        for j, (_, mu) in enumerate(model.phases):
            if j != i:
                others *= P([mu, 1.0])
        poly -= P([0.0, model.lam * p]) * others
    return poly


def seeded_cases(n=320, seed=23):
    """(model, s) with 0-7 phases; by thirds sigma2 = 0, c = 0 with sigma2 > 0, and
    both positive, and s = 0 in every fourth."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        k = int(rng.integers(0, 8))
        phases = tuple(zip(rng.dirichlet(np.ones(k)).tolist(),
                           rng.uniform(0.1, 10.0, k).tolist())) if k else ()
        model = LevyModel(c=0.0 if i % 3 == 1 else float(rng.uniform(0.1, 3.0)),
                          sigma2=0.0 if i % 3 == 0 else float(rng.uniform(0.05, 2.0)),
                          lam=float(rng.uniform(0.1, 3.0)) if k else 0.0, phases=phases)
        cases.append((model, 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 5.0))))
    return cases


def root_bits(model, s):
    try:
        return [(complex(r).real.hex(), complex(r).imag.hex()) for r in root_set(model, s)]
    except DegenerateRoots as exc:
        return str(exc)


class TestKappaPoly:
    """The coefficient arrays give the bits the numpy.polynomial objects gave."""

    def test_coefficients_bit_identical(self):
        for model, s in seeded_cases():
            got, want = model_module._kappa_poly(model, s), reference_kappa_poly(model, s).coef
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (model, s)

    def test_roots_bit_identical(self, monkeypatch):
        cases = seeded_cases()
        got = [root_bits(model, s) for model, s in cases]
        monkeypatch.setattr(model_module, "_kappa_poly",
                            lambda model, s: reference_kappa_poly(model, s).coef)
        monkeypatch.setattr(np.polynomial.polynomial, "polyroots",
                            lambda coef: np.polynomial.Polynomial(coef).roots())
        assert got == [root_bits(model, s) for model, s in cases]
        assert sum(isinstance(bits, list) for bits in got) > 300
