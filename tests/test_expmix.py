import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from parisian_scale.expmix import ExpMix


def simple_mix():
    # 3 e^{-x} - 2 e^{0.5 x} + x e^{2x}
    return ExpMix.build([(3.0, -1.0, 0), (-2.0, 0.5, 0), (1.0, 2.0, 1)])


class TestEvaluation:
    def test_pointwise(self):
        f = simple_mix()
        x = 0.7
        expected = 3 * math.exp(-x) - 2 * math.exp(0.5 * x) + x * math.exp(2 * x)
        assert f(x) == pytest.approx(expected, rel=1e-14)

    def test_build_merges_equal_rates(self):
        f = ExpMix.build([(1.0, 1.0, 0), (2.0, 1.0, 0)])
        assert f.w.size == 1
        assert f(0.3) == pytest.approx(3 * math.exp(0.3))

    def test_zero_weights_dropped(self):
        f = ExpMix.build([(1.0, 1.0, 0), (-1.0, 1.0, 0)])
        assert f.w.size == 0
        assert f(2.0) == 0.0


class TestCalculus:
    def test_derivative_matches_finite_difference(self):
        f = simple_mix()
        g = f.derivative()
        h = 1e-6
        for x in (0.0, 0.4, 1.9):
            assert g(x) == pytest.approx((f(x + h) - f(x - h)) / (2 * h), rel=1e-8)

    def test_antiderivative_vanishes_at_zero(self):
        F = simple_mix().antiderivative()
        assert F(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_integral_matches_quadrature(self):
        f = simple_mix()
        val, _ = quad(f, 0.0, 1.3)
        assert f.antiderivative()(1.3) == pytest.approx(val, rel=1e-10)

    def test_antiderivative_with_zero_rate_term(self):
        f = ExpMix.build([(2.0, 0.0, 1)])           # 2x
        assert f.antiderivative()(3.0) == pytest.approx(9.0)


# rates are either exactly zero (polynomial terms) or bounded away from it:
# the closed-form antiderivative of x^k e^{rho x} carries 1/rho^{k+1}
# coefficients, which no mixture representation can evaluate stably as
# rho -> 0, and the library only ever builds rate-0 or root-separated terms
nonzero_rates = (st.floats(min_value=0.05, max_value=3.0, allow_nan=False)
                 | st.floats(min_value=-3.0, max_value=-0.05, allow_nan=False))
rates = st.just(0.0) | nonzero_rates
weights = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
terms = st.lists(st.tuples(weights, rates, st.integers(0, 2)), min_size=1, max_size=4)


def loop_value(f, x):
    """Reference evaluation, one term at a time, and the sum of the terms' sizes."""
    terms = [w * x**k * math.exp(rho * x)
             for w, rho, k in zip(f.w.tolist(), f.rho.tolist(), f.k.tolist())]
    return sum(terms), sum(abs(t) for t in terms)


def loop_build(tm):
    """Reference merge: each term joins the first kept term of equal power and rate."""
    acc = {}
    for w, rho, k in tm:
        key = next((key for key in acc if key[1] == k
                    and abs(key[0] - rho) <= 1e-10 * (1.0 + abs(rho))), (float(rho), k))
        acc[key] = acc.get(key, 0.0) + w
    return [(w, rho, k) for (rho, k), w in acc.items() if abs(w) > 0]


class TestProperties:
    @given(terms, st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_grid_equals_term_loop(self, tm, xs):
        f = ExpMix.build(tm)
        grid = f(np.array(xs))
        assert grid.tolist() == [f(x) for x in xs]
        # x^2 may round differently as a power than as a product: a few ulps of the terms
        for x in xs:
            value, size = loop_value(f, x)
            assert abs(f(x) - value) <= 4 * np.finfo(float).eps * size

    @given(st.lists(st.tuples(weights, st.sampled_from([0.0, 0.5, 0.5 + 1e-12, -1.0, 2.0]),
                              st.integers(0, 2)), max_size=8))
    def test_build_matches_sequential_merge(self, tm):
        f = ExpMix.build(tm)
        assert list(zip(f.w.tolist(), f.rho.tolist(), f.k.tolist())) == loop_build(tm)

    @given(terms)
    @settings(max_examples=60, deadline=None)
    def test_derivative_inverts_antiderivative(self, tm):
        f = ExpMix.build(tm)
        g = f.antiderivative().derivative()
        for x in (0.0, 0.5, 1.0):
            assert g(x) == pytest.approx(f(x), rel=1e-9, abs=1e-9)

    @given(terms, terms)
    @settings(max_examples=40, deadline=None)
    def test_addition_is_pointwise(self, ta, tb):
        f, g = ExpMix.build(ta), ExpMix.build(tb)
        x = 0.37
        assert (f + g)(x) == pytest.approx(f(x) + g(x), rel=1e-9, abs=1e-9)

    @given(terms)
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, tm):
        f = ExpMix.build(tm)
        assert f.scaled(-2.5)(0.9) == pytest.approx(-2.5 * f(0.9), rel=1e-9, abs=1e-9)
