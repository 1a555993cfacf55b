import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from parisian_scale.expmix import ExpMix, Stack


def simple_mix(x2=0.0):
    # 3 e^{-x} - 2 e^{0.5 x} + 0.75 + 1.5 x + x2 x^2, laid out as build_scale lays out W
    return ExpMix.build([(3.0, -1.0), (-2.0, 0.5)]).with_weights([3.0, -2.0, 0.75, 1.5, x2])


class TestEvaluation:
    def test_pointwise(self):
        f = simple_mix(-0.5)
        x = 0.7
        expected = 3 * math.exp(-x) - 2 * math.exp(0.5 * x) + 0.75 + 1.5 * x - 0.5 * x * x
        assert f(x) == pytest.approx(expected, rel=1e-14)

    def test_build_lays_out_the_basis(self):
        f = ExpMix.build([(1.0, 1.0), (2.0, -3.0)])
        assert f.w.tolist() == [1.0, 2.0, 0.0, 0.0, 0.0]
        assert f.rho.tolist() == [1.0, -3.0, 0.0, 0.0, 0.0]
        assert f.k.tolist() == [0, 0, 0, 1, 2] and f.one == 2

    @pytest.mark.parametrize("zero", [0.0, 2e-13, -1e-10])
    def test_near_zero_rate_serves_as_the_one(self, zero):
        """A rate of exactly 0 is the 1 of the basis; a rate within 1e-10 of 0 is a term next
        to an exact 1, and serves as the 1 where it is integrated, to x."""
        f = ExpMix.build([(1.0, -1.0), (2.0, zero)])
        if zero:
            assert f.rho.tolist() == [-1.0, zero, 0.0, 0.0, 0.0]
            assert f.k.tolist() == [0, 0, 0, 1, 2] and f.one == 2
        else:
            assert f.rho.tolist() == [-1.0, 0.0, 0.0, 0.0]
            assert f.k.tolist() == [0, 0, 1, 2] and f.one == 1
        assert (f + 0.5).w[f.one] == f.w[f.one] + 0.5
        F = f.antiderivative()
        assert F.w[f.one] == 1.0 and F.w[-2:].tolist() == [2.0, 0.0]
        # the constant of integration sits on an exact 1, so d/dx leaves no rho residue
        assert F.derivative()(0.0) == f.w.sum() == 3.0

    def test_rate_past_the_tolerance_is_a_term(self):
        f = ExpMix.build([(1.0, 2e-10)])
        assert f.k.tolist() == [0, 0, 1, 2] and f.one == 1

    def test_zero_weights_dropped(self):
        f = ExpMix.build([(1.0, 1.0), (-1.0, 2.0)])
        assert f.with_weights(np.zeros(f.w.size))(2.0) == 0.0
        # a zero weight on a term that overflows there is skipped, not 0 * inf = NaN
        big = f.with_weights([0.0, 0.0, 1.0, 0.0, 0.0])
        with np.errstate(over="raise"):
            assert big(800.0) == 1.0
            assert big(np.array([0.0, 800.0])).tolist() == [1.0, 1.0]


class TestCalculus:
    def test_derivative_matches_finite_difference(self):
        f = simple_mix(-0.5)
        g = f.derivative()
        assert g.rho is f.rho and g.k is f.k
        h = 1e-6
        for x in (0.0, 0.4, 1.9):
            assert g(x) == pytest.approx((f(x + h) - f(x - h)) / (2 * h), rel=1e-8)

    def test_antiderivative_vanishes_at_zero(self):
        f = simple_mix()
        F = f.antiderivative()
        assert F.rho is f.rho and F.k is f.k
        assert F(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_integral_matches_quadrature(self):
        f = simple_mix()
        val, _ = quad(f, 0.0, 1.3)
        assert f.antiderivative()(1.3) == pytest.approx(val, rel=1e-10)

    def test_antiderivative_with_zero_rate_term(self):
        f = ExpMix.build([(0.0, -1.0)]).with_weights([0.0, 0.0, 2.0, 0.0])   # 2x
        assert f.antiderivative()(3.0) == pytest.approx(9.0)

    def test_x_squared_has_no_antiderivative_on_the_basis(self):
        with pytest.raises(ValueError):
            simple_mix(-0.5).antiderivative()


# rates are either within 1e-10 of zero (integrated as the 1) or bounded away from it and
# from each other: the antiderivative of e^{rho x} carries a 1/rho coefficient, which no
# mixture representation can evaluate stably as rho -> 0, and the library only ever lays
# out root-separated rates
nonzero_rates = (st.floats(min_value=0.05, max_value=3.0, allow_nan=False)
                 | st.floats(min_value=-3.0, max_value=-0.05, allow_nan=False))
weights = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
bases = st.lists(nonzero_rates | st.sampled_from([0.0, 2e-13, -5e-11]), min_size=1, max_size=4,
                 unique_by=lambda r: round(r, 3)).map(
    lambda rates: ExpMix.build([(1.0, r) for r in rates]))


@st.composite
def rows(draw, basis=bases, x2=True):
    """A mixture with random weights on a random basis (or the one drawn from basis)."""
    f = draw(basis) if not isinstance(basis, ExpMix) else basis
    w = draw(st.lists(weights, min_size=f.w.size, max_size=f.w.size))
    return f.with_weights(w if x2 else w[:-1] + [0.0])


def loop_value(f, x):
    """Reference evaluation, one term at a time, and the sum of the terms' sizes."""
    terms = [w * x**k * math.exp(rho * x)
             for w, rho, k in zip(f.w.tolist(), f.rho.tolist(), f.k.tolist())]
    return sum(terms), sum(abs(t) for t in terms)


def term_loop(f, antiderivative):
    """Reference calculus, one term at a time: each image term is added, in order and
    from 0.0, onto its term of the basis, as the term-list form of ExpMix summed them."""
    n, one = f.w.size, f.one
    out = [0.0] * n
    live = [(i, w, rho, k) for i, (w, rho, k)
            in enumerate(zip(f.w.tolist(), f.rho.tolist(), f.k.tolist())) if w]
    if not antiderivative:
        for i, w, rho, k in live:
            out[i] += w * rho
        for i, w, rho, k in live:
            if k:
                out[one if k == 1 else n - 2] += w * k
        return out
    for i, w, rho, k in live:
        if k:
            out[n - 1] += w / (k + 1)
        elif abs(rho) <= 1e-10:         # the 1, or a rate near 0 integrated as 1
            out[n - 2] += w
        else:
            out[i] += w / rho
            out[one] += -(w / rho)
    return out


def live_terms_value(f, x):
    """Reference evaluation as one mixture alone: its live terms in basis order, each
    (w x^k) e^{rho x}, summed one after the other, on the flat array of x."""
    live = f.w != 0
    w, rho, k = f.w[live], f.rho[live], f.k[live]
    xs = np.asarray(x, dtype=float).reshape(1, -1)
    if not w.size:
        return np.zeros(xs.size)
    coef = w[:, None] * xs ** k[:, None] if k.any() else w[:, None]
    return np.add.accumulate(coef * np.exp(rho[:, None] * xs), axis=0)[-1]


@st.composite
def stacks(draw):
    """One to three rows on one basis, with zero weights (of either sign) and x, x^2 terms."""
    basis = draw(bases)
    weight = st.sampled_from([0.0, -0.0]) | weights
    return [basis.with_weights(draw(st.lists(weight, min_size=basis.w.size,
                                             max_size=basis.w.size)))
            for _ in range(draw(st.integers(1, 3)))]


def recorded(f):
    """f(), and the set of warnings it gave."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = f()
    return out, {(w.category, str(w.message)) for w in seen}


# e^{3 x} overflows past x = 237 and e^{-3 x} below -237; x^2 overflows at 1e200
OVERFLOWING = ExpMix.build([(1.0, 3.0), (1.0, -1.0)])
points = (st.floats(min_value=-400.0, max_value=800.0)
          | st.sampled_from([0.0, -0.0, 1e200, -1e200]))


class TestStack:
    @given(stacks(), st.lists(points, min_size=1, max_size=7))
    # rows live on e^{3x} alone, on e^{-x} and the 1, on nothing, and on x and x^2 alone
    @example([OVERFLOWING.with_weights(w)
              for w in ([0.0, 2.0, 1.0, 0.0, 0.0], [1.5, 0.0, 0.0, 0.0, 0.0],
                        [0.0] * 5, [0.0, -0.0, 0.0, 0.5, -0.25])],
             [0.0, 300.0, -300.0, 1e200])
    # -x reads -0.0 at x = 0, kept past the other row's 1 only by a -0.0 stand-in
    @example([OVERFLOWING.with_weights(w) for w in ([0.0, 0.0, 1.0, 0.0, 0.0],
                                                    [0.0, 0.0, 0.0, -1.0, 0.0])], [0.0])
    # numpy's power rounds x^2 apart on a one-term table and on a two-term one
    @example([OVERFLOWING.with_weights(w) for w in ([0.0, 0.0, 0.0, 0.0, 1.0],
                                                    [0.0, 0.0, 0.0, 1.0, 0.0])],
             [7.120265909631255e-117])
    @settings(max_examples=120, deadline=None)
    def test_rows_equal_their_own_calls(self, rows, xs):
        """Bit for bit, at scalars and on grids, and with no warning a row alone does not
        give: a zero weight on a term that overflows is never multiplied."""
        expected, own = recorded(lambda: [live_terms_value(f, xs) for f in rows])
        stack = Stack(rows)
        (grid, table, pointwise), stacked = recorded(lambda: (
            stack(np.array(xs)), stack(np.array(xs).reshape(1, -1)), [stack(x) for x in xs]))
        (calls, singles), alone = recorded(lambda: (
            [f(np.array(xs)) for f in rows], [[f(x) for x in xs] for f in rows]))
        assert stacked <= own and alone <= own
        assert grid.shape == (len(rows), len(xs)) and table.shape == (len(rows), 1, len(xs))
        for i, want in enumerate(expected):
            assert grid[i].tobytes() == table[i, 0].tobytes() == want.tobytes()
            assert np.array([p[i] for p in pointwise]).tobytes() == want.tobytes()
            assert calls[i].tobytes() == np.array(singles[i]).tobytes() == want.tobytes()

    def test_rows_on_different_bases_do_not_stack(self):
        with pytest.raises(ValueError):
            Stack((simple_mix(), simple_mix()))


class TestProperties:
    @given(rows(x2=False))
    @settings(max_examples=80, deadline=None)
    def test_maps_equal_term_loop(self, f):
        assert f.derivative().w.tolist() == term_loop(f, False)
        assert f.antiderivative().w.tolist() == term_loop(f, True)

    @given(rows(), st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_grid_equals_term_loop(self, f, xs):
        grid = f(np.array(xs))
        assert grid.tolist() == [f(x) for x in xs]
        # x^2 may round differently as a power than as a product: a few ulps of the terms
        for x in xs:
            value, size = loop_value(f, x)
            assert abs(f(x) - value) <= 4 * np.finfo(float).eps * size

    @given(rows(x2=False))
    # a near-zero rate next to a term whose constant of integration is -20
    @example(ExpMix.build([(0.0, -5e-11), (1.0, 0.05)]))
    @settings(max_examples=60, deadline=None)
    def test_derivative_inverts_antiderivative(self, f):
        g = f.antiderivative().derivative()
        assert g.rho is f.rho and g.k is f.k
        for x in (0.0, 0.5, 1.0):
            assert g(x) == pytest.approx(f(x), rel=1e-9, abs=1e-9)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_addition_is_pointwise(self, data):
        f = data.draw(rows())
        g = data.draw(rows(basis=f))
        x = 0.37
        assert (f + g)(x) == pytest.approx(f(x) + g(x), rel=1e-9, abs=1e-9)
        assert (f - g)(x) == pytest.approx(f(x) - g(x), rel=1e-9, abs=1e-9)
        assert (f + 0.7)(x) == pytest.approx(f(x) + 0.7, rel=1e-9, abs=1e-9)

    @given(rows())
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, f):
        assert f.scaled(-2.5)(0.9) == pytest.approx(-2.5 * f(0.9), rel=1e-9, abs=1e-9)

    def test_rows_on_different_bases_do_not_add(self):
        with pytest.raises(ValueError):
            simple_mix() + simple_mix()
