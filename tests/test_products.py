"""Scaling profiles, product distances and geodesic steps, and the
numeric volume-growth entropy with its closed-form, grid and Monte Carlo
oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent.hyperbolic import random_point
from minent.products import (
    ProductPoint,
    _fit_slope,
    entropy_growth_numeric,
    min_entropy_profile,
    product_dist,
)
from oracles import base_point, growth_grid, growth_monte_carlo

ROOT8 = 2.0 * math.sqrt(2.0)


def rand_product_point(gen, dims, radius=2.0):
    return ProductPoint(tuple(random_point(gen, m, radius) for m in dims))


# -- scaling profiles ------------------------------------------------------


def test_equal_h3_factors():
    prof = min_entropy_profile((3, 3), (2.0, 2.0))
    assert prof.alpha == pytest.approx((1.0, 1.0), abs=1e-14)
    assert prof.h_min == pytest.approx(ROOT8, abs=1e-12)
    assert prof.gm_factor == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_mixed_factors_closed_form():
    prof = min_entropy_profile((3, 4), (2.0, 3.0))
    # independent high-precision route for sqrt(7) (2/sqrt3)^(3/7) (3/2)^(4/7)
    oracle = (
        math.sqrt(7.0)
        * (2.0 / math.sqrt(3.0)) ** (3.0 / 7.0)
        * (3.0 / 2.0) ** (4.0 / 7.0)
    )
    assert oracle == pytest.approx(3.5476, abs=2e-4)
    assert prof.h_min == pytest.approx(oracle, abs=1e-12)


def test_identical_factors_collapse():
    for k in (2, 3, 4):
        prof = min_entropy_profile((3,) * k, (2.0,) * k)
        assert prof.alpha == pytest.approx((1.0,) * k, abs=1e-13)
        want = math.sqrt(3.0 * k) * 2.0 / math.sqrt(3.0)
        assert prof.h_min == pytest.approx(want, abs=1e-12)


def test_profile_identities_tiny():
    for dims, ents in (((3, 3), (2.0, 2.0)), ((3, 5), (2.0, 4.0)),
                       ((4, 4, 6), (3.0, 3.0, 5.0))):
        rep = min_entropy_profile(dims, ents).consistency_report()
        assert rep["entropy_identity_error"] < 1e-12
        assert rep["volume_normalization_error"] < 1e-12


def test_low_dimension_rejected_unless_forced():
    with pytest.raises(ValueError):
        min_entropy_profile((2, 3), (1.0, 2.0))


@given(st.sampled_from([0.5, 2.0]))
@settings(max_examples=2, deadline=None)
def test_entropy_rescaling_is_homogeneous(lam):
    base = min_entropy_profile((3, 4), (2.0, 3.0))
    scaled = min_entropy_profile((3, 4), (2.0 * lam, 3.0 * lam))
    assert scaled.h_min == pytest.approx(lam * base.h_min, rel=1e-12)
    # alphas are scale-invariant: the volume constraint eats lambda
    assert scaled.alpha == pytest.approx(base.alpha, rel=1e-12)


# -- product metric --------------------------------------------------------


def test_product_dist_pythagorean(profile33):
    gen = np.random.default_rng(0)
    x1 = random_point(gen, 3, 0.0)
    o = base_point(3)
    a = ProductPoint((o, o))

    def at(r):
        c = np.array([math.cosh(r), math.sinh(r), 0.0, 0.0])
        from minent.hyperbolic import HyperboloidPoint

        return HyperboloidPoint(c)

    b = ProductPoint((at(3.0), at(4.0)))
    assert product_dist(a, b, profile33) == pytest.approx(5.0, abs=1e-10)
    assert product_dist(a, a, profile33) == 0.0


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_product_dist_triangle(seed, profile33):
    gen = np.random.default_rng(seed)
    x, y, z = (rand_product_point(gen, (3, 3)) for _ in range(3))
    dxz = product_dist(x, z, profile33)
    dxy = product_dist(x, y, profile33)
    dyz = product_dist(y, z, profile33)
    assert dxz <= dxy + dyz + 1e-12


def test_product_geodesic_unit_speed(profile33):
    from minent.hyperbolic import exp_map, tangent_frame

    gen = np.random.default_rng(3)
    x = rand_product_point(gen, (3, 3))
    frames = [tangent_frame(f) for f in x.factors]
    vecs = [0.6 * frames[0][0], 0.8 * frames[1][1]]
    y = ProductPoint(tuple(map(exp_map, x.factors, vecs)))
    assert product_dist(x, y, profile33) == pytest.approx(1.0, abs=1e-10)


# -- numeric growth entropy ------------------------------------------------


def test_growth_single_h3_against_closed_form():
    est = entropy_growth_numeric((3,), 10.0, 20.0)
    assert est.prefactor == 0.0
    assert est.slope == pytest.approx(2.0, abs=0.02)
    # independent oracle: exact ball volume pi (sinh 2 rho - 2 rho);
    # the numeric route drops the constant 4 pi angular factor, so the
    # curves must agree after adding log(4 pi) to it
    rho = np.asarray(est.rho)
    exact = np.log(np.pi) + np.log(np.sinh(2 * rho) - 2 * rho)
    coef = np.polyfit(rho, exact, 1)
    assert coef[0] == pytest.approx(2.0, abs=0.02)
    aligned = np.asarray(est.log_volume) + np.log(4 * np.pi)
    assert np.abs(aligned - exact).max() < 0.05


def test_growth_h3xh3_slope():
    est = entropy_growth_numeric((3, 3), 8.0, 16.0)
    assert est.prefactor == 0.5
    assert est.slope == pytest.approx(ROOT8, abs=0.06)
    assert est.residual_rms < 0.05


def test_growth_h3xh4_slope():
    est = entropy_growth_numeric((3, 4), 8.0, 16.0)
    assert est.slope == pytest.approx(math.sqrt(13.0), abs=0.08)


def test_growth_monotone_in_entropy():
    slopes = [
        entropy_growth_numeric(d, 8.0, 16.0).slope
        for d in ((3, 3), (3, 4), (4, 4))
    ]
    assert slopes[0] < slopes[1] < slopes[2]


@pytest.mark.parametrize("dims", [(3,), (4,)])
def test_growth_one_factor_is_the_midpoint_sum(dims):
    # one factor is the 1-D midpoint sum itself, bit for bit
    rho, logv = growth_grid(dims, 8.0, 16.0)
    est = entropy_growth_numeric(dims, 8.0, 16.0)
    assert np.array_equal(est.log_volume, logv)
    ref = _fit_slope(rho, logv, 0.0)
    assert (est.slope, est.residual_rms) == (ref.slope, ref.residual_rms)


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (5, 3)])
def test_growth_two_factors_against_grid(dims):
    # the recursion reads V_1 linearly between its table radii where the
    # grid reads it cell by cell; measured gaps 1.5e-4 to 3.3e-4
    est = entropy_growth_numeric(dims, 8.0, 16.0)
    rho, logv = growth_grid(dims, 8.0, 16.0)
    raw = _fit_slope(est.rho, est.log_volume, 0.0).slope
    assert abs(raw - _fit_slope(rho, logv, 0.0).slope) < 5e-4
    # with rho^(1/2) removed the slope meets the entropy: measured
    # +0.0014, +0.0018 and +0.0034
    h = math.sqrt(sum((d - 1) ** 2 for d in dims))
    assert abs(est.slope - h) < 5e-3


def test_growth_three_factors_against_monte_carlo():
    est = entropy_growth_numeric((3, 3, 3), 8.0, 14.0)
    assert est.prefactor == 1.0
    rho, logv, slope_std = growth_monte_carlo((3, 3, 3), 8.0, 14.0)
    raw = _fit_slope(est.rho, est.log_volume, 0.0).slope
    assert abs(raw - _fit_slope(rho, logv, 0.0).slope) < 3 * slope_std
    assert abs(est.slope - math.sqrt(12.0)) < 0.01


def test_growth_step_halving_moves_slope_below_1e5():
    # measured 8e-7 at (3, 3, 3)
    coarse = entropy_growth_numeric((3, 3, 3), 8.0, 16.0)
    fine = entropy_growth_numeric((3, 3, 3), 8.0, 16.0, grid_step=0.025)
    assert abs(fine.slope - coarse.slope) < 1e-5


@pytest.mark.parametrize("dims, radius_hi", [((3, 3), 64.0), ((3, 3, 3), 16.0)])
def test_growth_peak_memory_is_linear(dims, radius_hi):
    # each level holds blocks of 32 table rows by N = radius_hi / step
    # cells: measured 3.05 MB at N = 1280 and 0.77 MB at N = 320, where
    # an N x N grid or 2000 rays trace 79.4 and 52 MB
    tracemalloc.start()
    try:
        entropy_growth_numeric(dims, 8.0, radius_hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_growth_input_validation():
    with pytest.raises(ValueError):
        entropy_growth_numeric((3, 3), 12.0, 8.0)
    with pytest.raises(ValueError):
        entropy_growth_numeric((3, 3), 8.0, 16.0, grid_step=0.5)
    # below the first grid shell there is no ball to measure, for any
    # number of factors
    for dims in ((3,), (3, 3), (3, 3, 3), (3,) * 6):
        for radius_hi in (2.0, 0.1, 0.2):
            with pytest.raises(ValueError, match="first occupied cell"):
                entropy_growth_numeric(dims, 0.01, radius_hi)
