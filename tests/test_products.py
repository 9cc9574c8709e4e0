"""Scaling profiles, product distances and geodesic steps, and the
numeric volume-growth entropy with its closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent.hyperbolic import base_point, random_point
from minent.products import (
    ProductPoint,
    entropy_growth_numeric,
    min_entropy_profile,
    product_dist,
    product_exp,
)

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


def test_product_exp_unit_speed(profile33):
    from minent.hyperbolic import tangent_frame

    gen = np.random.default_rng(3)
    x = rand_product_point(gen, (3, 3))
    frames = [tangent_frame(f) for f in x.factors]
    vecs = [0.6 * frames[0][0], 0.8 * frames[1][1]]
    y = product_exp(x, vecs, profile33)
    assert product_dist(x, y, profile33) == pytest.approx(1.0, abs=1e-10)


# -- numeric growth entropy ------------------------------------------------


def test_growth_single_h3_against_closed_form():
    est = entropy_growth_numeric((3,), 10.0, 20.0)
    assert est.method == "grid-1d"
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
    assert est.method == "grid-2d"
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


def test_growth_monte_carlo_route():
    est = entropy_growth_numeric((3, 3, 3), 8.0, 14.0, seed=0)
    assert est.method == "monte-carlo"
    assert est.mc_slope_std is not None
    target = math.sqrt(12.0)
    assert abs(est.slope - target) < 0.15 + 3 * est.mc_slope_std


def test_growth_input_validation():
    with pytest.raises(ValueError):
        entropy_growth_numeric((3, 3), 12.0, 8.0)
    with pytest.raises(ValueError):
        entropy_growth_numeric((3, 3), 8.0, 16.0, grid_step=0.5)
    # below the first grid shell there is no ball to measure, in one
    # factor as in two
    for dims in ((3,), (3, 3)):
        with pytest.raises(ValueError, match="first occupied cell"):
            entropy_growth_numeric(dims, 0.01, 2.0)
