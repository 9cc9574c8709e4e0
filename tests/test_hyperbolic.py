"""Hyperboloid-model primitives: distances, geodesics, horofunctions,
boundary quadrature, and the isometry machinery everything else leans
on."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent.hyperbolic import (
    BoundaryQuadrature,
    HyperboloidPoint,
    boundary_quadrature,
    dist,
    exp_map,
    minkowski_form,
    random_point,
    tangent_frame,
    tensor_order,
    transvection_to,
)
from oracles import (
    IdealPoint,
    apply_isometry,
    apply_isometry_ideal,
    base_point,
    busemann,
    ideal_points,
    monte_carlo_quadrature,
    parallel_transport,
    random_boost,
    visual_density,
)

o3 = base_point(3)


def pt(r, direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return HyperboloidPoint(
        np.concatenate([[math.cosh(r)], math.sinh(r) * d])
    )


def ideal(direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return IdealPoint.normalized(np.concatenate([[1.0], d]))


def test_base_point_distance_zero():
    assert dist(o3, o3) == 0.0


def test_point_validation_rejects_spacelike():
    with pytest.raises(ValueError):
        HyperboloidPoint(np.array([0.5, 1.0, 0.0, 0.0]))


def test_far_points_build():
    # q(x, x) cancels terms of size x_0^2 = cosh^2 r, so near r = 10 its
    # rounding alone exceeded a fixed 1e-10 after renormalization
    gen = np.random.default_rng(5)
    for _ in range(200):
        p = random_point(gen, 3, 10.0)
        qq = minkowski_form(p.coords, p.coords)
        assert abs(qq + 1.0) <= 1e-10 * p.coords[0] ** 2


def test_point_drift_tolerance_scales_with_x0():
    far = pt(9.0, [1, 2, 0]).coords
    # a relative drift of 1e-12 moves q(x, x) by about 3e-5 here, within
    # 1e-6 x_0^2, so the point is accepted and x_0 recomputed
    p = HyperboloidPoint(far * np.r_[1.0, np.full(3, 1.0 + 1e-12)])
    qq = minkowski_form(p.coords, p.coords)
    assert abs(qq + 1.0) <= 1e-10 * p.coords[0] ** 2
    # from its spatial part; rescaling the whole vector by sqrt(-q)
    # moved it by about 1e-12 x_0^2 = 1.6e-5 in distance
    assert abs(dist(o3, p) - 9.0) < 1e-9
    # a relative drift of 1e-6 is not
    with pytest.raises(ValueError, match="too far from -1"):
        HyperboloidPoint(far * np.r_[1.0, np.full(3, 1.0 + 1e-6)])


def test_dist_matches_radial_construction():
    # arccosh loses a few digits at large arguments, hence rel not abs
    for r in (0.1, 1.0, 3.7, 9.0):
        assert dist(o3, pt(r, [1, 0, 0])) == pytest.approx(r, rel=1e-9)


def test_dist_of_a_point_to_itself_is_zero():
    # arccosh(-q(p, p)) reads up to 4e-8 here, since -q rounds to 1 + eps
    gen = np.random.default_rng(31)
    for _ in range(1000):
        p = random_point(gen, 3, 1.2)
        assert dist(p, p) == 0.0


def test_dist_resolves_short_geodesics():
    # from the base point exp_map computes (cosh t, sinh t u) with no
    # cancellation, so the geodesic's length is known to the last bit;
    # elsewhere the endpoint's rounding, eps |x|, swamps t near 1e-12
    gen = np.random.default_rng(8)
    for _ in range(20):
        u = gen.standard_normal(3)
        v = np.concatenate([[0.0], u / np.linalg.norm(u)])
        for t in np.logspace(-12, -3, 19):
            assert dist(o3, exp_map(o3, t * v)) == pytest.approx(t, rel=1e-12)


def test_dist_rejects_non_hyperboloid_input():
    x = pt(1.0, [1, 0, 0])
    fake = HyperboloidPoint.__new__(HyperboloidPoint)
    object.__setattr__(fake, "coords", np.array([0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="not hyperboloid points"):
        dist(x, fake)


def test_dist_colocated_clamp():
    x = pt(2.0, [1, 1, 0])
    wiggle = HyperboloidPoint(x.coords * (1 + 1e-13))
    assert dist(x, wiggle) < 1e-5


@given(
    st.floats(0.0, 4.0),
    st.floats(0.0, 4.0),
    st.floats(0.0, 4.0),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_triangle_inequality(r1, r2, r3, seed):
    gen = np.random.default_rng(seed)
    x, y, z = (random_point(gen, 3, r + 1e-6) for r in (r1, r2, r3))
    assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-12


def test_tangent_frame_is_the_transported_axes():
    axes = np.eye(3, 4, 1)
    assert np.array_equal(tangent_frame(o3), axes)
    for r in (1e-8, 0.7, 3.0, 8.0):
        x = pt(r, [1, -2, 0.5])
        frame = tangent_frame(x)
        transported = np.array([parallel_transport(o3, x, e) for e in axes])
        assert np.abs(frame - transported).max() <= 4e-15 * x.coords[0]
        tol = 4e-15 * x.coords[0] ** 2
        gram = minkowski_form(frame[:, None], frame[None])
        assert np.abs(gram - np.eye(3)).max() <= tol
        assert np.abs(minkowski_form(frame, x.coords)).max() <= tol


def test_exp_map_t_zero_is_identity():
    x = pt(1.5, [0, 1, 0])
    frame = tangent_frame(x)
    v = frame[0]
    assert dist(exp_map(x, 0.0 * v), x) < 1e-12


def test_exp_map_unit_speed():
    x = pt(0.7, [1, 2, 0])
    frame = tangent_frame(x)
    v = frame[1]
    assert dist(x, exp_map(x, v)) == pytest.approx(1.0, abs=1e-12)


def test_exp_map_long_steps_stay_on_sheet():
    """Steps of length 8-20 from points within 6 of o: the full vector
    cosh(s) x + sinh(s) u can leave the sheet, the spatial part with
    x_0 recomputed cannot while the endpoint lies within 17 of o."""
    gen = np.random.default_rng(7)
    kept = 0
    for _ in range(2000):
        x = random_point(gen, 3, 6.0)
        g = gen.standard_normal(3)
        u = (g / np.linalg.norm(g)) @ tangent_frame(x)
        s = gen.uniform(8.0, 20.0)
        if math.cosh(s) * x.coords[0] + math.sinh(s) * u[0] > math.cosh(17.0):
            continue
        kept += 1
        y = exp_map(x, s * u)
        assert dist(x, y) == pytest.approx(s, rel=1e-6)
    assert kept > 1000


def test_exp_map_rejects_overflowing_step():
    """A step whose coordinates or their squared norm overflow raises
    ValueError, which a line search can catch, and warns about nothing."""
    away = random_point(np.random.default_rng(3), 3, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (o3, away):
            u = tangent_frame(x)[0]
            for s in (360.0, 711.0, 1e4, 1e300):
                with pytest.raises(ValueError, match="overflows"):
                    exp_map(x, s * u)


def test_exp_map_rejects_bad_vectors():
    x = pt(1.2, [1, 0, 2])
    with pytest.raises(ValueError, match="not tangent"):
        exp_map(x, x.coords)
    with pytest.raises(ValueError, match="dimensions differ"):
        exp_map(x, tangent_frame(x)[0][:3])


def test_exp_map_flow_additivity():
    # exp(x, (s+t) v) == exp(exp(x, s v), t transported v)
    x = pt(0.9, [1, 0, 1])
    frame = tangent_frame(x)
    v = 0.6 * frame[0] + 0.8 * frame[2]
    s, t = 0.8, 1.3
    direct = exp_map(x, (s + t) * v)
    mid = exp_map(x, s * v)
    v_mid = parallel_transport(x, mid, v)
    two_leg = exp_map(mid, t * v_mid)
    # dist between near-identical points floors at sqrt(eps); the
    # coordinate comparison carries the real 1e-9 agreement
    assert np.abs(direct.coords - two_leg.coords).max() < 1e-9
    assert dist(direct, two_leg) < 1e-6


def test_busemann_value_zero_at_base():
    assert busemann(o3, ideal([1, 0, 0])).value == pytest.approx(0.0, abs=1e-14)


def test_busemann_ray_value_is_minus_distance():
    xi = ideal([0, 0, 1])
    for s in (0.5, 2.0, 5.0):
        x = pt(s, [0, 0, 1])
        assert busemann(x, xi).value == pytest.approx(-s, abs=1e-10)


def test_busemann_limit_definition_oracle():
    # B(x, xi) = lim_t d(x, gamma(t)) - t along the ray toward xi;
    # independent route to the closed form log(-q)
    xi = ideal([1, 1, 0])
    x = pt(1.3, [0, 1, 1])
    t = 14.0
    gamma_t = pt(t, [1, 1, 0])
    limit_est = dist(x, gamma_t) - t
    assert busemann(x, xi).value == pytest.approx(limit_est, abs=1e-6)


def test_busemann_rejects_unnormalized_ideal():
    raw = IdealPoint.normalized(np.array([1.0, 1.0, 0.0, 0.0]))
    bad = IdealPoint.__new__(IdealPoint)
    object.__setattr__(bad, "coords", raw.coords * 2.0)
    with pytest.raises(ValueError):
        IdealPoint(bad.coords)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_busemann_gradient_unit_norm(seed):
    gen = np.random.default_rng(seed)
    x = random_point(gen, 3, 3.0)
    direction = gen.standard_normal(3)
    xi = ideal(direction)
    g = busemann(x, xi).gradient
    assert math.sqrt(minkowski_form(g, g)) == pytest.approx(1.0, abs=1e-10)


def test_busemann_hessian_identity_closed_form():
    x = pt(1.1, [2, 1, 0])
    xi = ideal([0, 1, 3])
    data = busemann(x, xi)
    frame = data.frame
    b = np.array(
        [minkowski_form(data.gradient, frame[a]) for a in range(3)]
    )
    assert np.abs(data.hessian - (np.eye(3) - np.outer(b, b))).max() < 1e-12


def test_busemann_hessian_finite_difference():
    """Second differences of the value along frame directions must
    reproduce the closed-form Hessian entry by entry."""
    x = pt(0.8, [1, 3, 1])
    xi = ideal([2, 0, 1])
    data = busemann(x, xi)
    frame = data.frame
    h = 1e-3
    fd = np.zeros((3, 3))
    # diagonal entries first; polarization below consumes them
    for a in range(3):
        va = frame[a]
        f_p = busemann(exp_map(x, h * va), xi).value
        f_m = busemann(exp_map(x, -h * va), xi).value
        fd[a, a] = (f_p - 2 * data.value + f_m) / h**2
    for a in range(3):
        for bb in range(a + 1, 3):
            vd = (frame[a] + frame[bb]) / math.sqrt(2)
            f_p = busemann(exp_map(x, h * vd), xi).value
            f_m = busemann(exp_map(x, -h * vd), xi).value
            mixed = (f_p - 2 * data.value + f_m) / h**2
            fd[a, bb] = fd[bb, a] = mixed - (fd[a, a] + fd[bb, bb]) / 2
    assert np.abs(fd - data.hessian).max() < 1e-5


def test_busemann_isometry_equivariance():
    gen = np.random.default_rng(5)
    L = random_boost(gen, 3)
    xi = ideal([1, 2, 2])
    xs = [pt(0.5, [1, 0, 0]), pt(1.5, [0, 1, 1]), pt(2.5, [1, 1, 1])]
    lxi = apply_isometry_ideal(L, xi)
    shifts = [
        busemann(apply_isometry(L, x), lxi).value - busemann(x, xi).value
        for x in xs
    ]
    assert max(shifts) - min(shifts) < 1e-9


def test_visual_density_at_base_is_one():
    for d in ([1, 0, 0], [0, 1, 1], [1, 2, 3]):
        assert visual_density(o3, ideal(d), 2.0) == 1.0


def test_visual_density_normalizes_at_entropy():
    quad = boundary_quadrature(3, 4000)
    x = pt(1.0, [1, 1, 0])
    vals = np.array(
        [visual_density(x, xi, 2.0) for xi in ideal_points(quad)]
    )
    assert abs(float(quad.weights @ vals) - 1.0) < 1e-3


def test_visual_density_off_entropy_mass_departs(quads33):
    quad = quads33[0]
    x = pt(1.0, [1, 0, 0])
    vals = np.array(
        [visual_density(x, xi, 1.0) for xi in ideal_points(quad)]
    )
    assert abs(float(quad.weights @ vals) - 1.0) > 1e-2


def test_visual_density_normalization_converges():
    x = pt(1.2, [0, 1, 0])

    def mass(count):
        q = boundary_quadrature(3, count)
        v = np.array([visual_density(x, xi, 2.0) for xi in ideal_points(q)])
        return abs(float(q.weights @ v) - 1.0)

    coarse, fine = mass(500), mass(4000)
    assert fine < coarse
    assert fine < 3e-4


def test_quadrature_weights_sum_exactly():
    q = boundary_quadrature(3, 500)
    assert float(q.weights.sum()) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_first_moment_vanishes():
    q = boundary_quadrature(3, 500)
    sphere = q.nodes[:, 1:]
    moment = q.weights @ sphere
    assert np.abs(moment).max() < 1e-3


def test_quadrature_first_moment_exact_by_symmetry():
    # the node set is antipodally symmetric, so the first moment is a
    # rounding-level zero, far below the generic 1e-3 budget
    q = boundary_quadrature(3, 1000)
    moment = q.weights @ q.nodes[:, 1:]
    assert np.abs(moment).max() < 1e-15


def test_quadrature_second_moment():
    q = boundary_quadrature(3, 1000)
    sphere = q.nodes[:, 1:]
    second = np.einsum("l,la,lb->ab", q.weights, sphere, sphere)
    assert np.abs(second - np.eye(3) / 3).max() < 5e-3


def moment_errors(q):
    """The rule's deviation from the round measure on S^{m-1}, by degree
    0 to 4: |mass - 1| (exact sum), then the largest entry of each
    moment tensor minus its closed form (0 for odd degree, Id/m for
    degree 2, (d_ab d_cd + d_ac d_bd + d_ad d_bc) / (m (m + 2)) for 4)."""
    x, w = q.nodes[:, 1:], q.weights
    m = x.shape[1]
    eye = np.eye(m)
    xx = (x[:, :, None] * x[:, None, :]).reshape(w.size, m * m)
    iso4 = (
        np.einsum("ab,cd->abcd", eye, eye)
        + np.einsum("ac,bd->abcd", eye, eye)
        + np.einsum("ad,bc->abcd", eye, eye)
    ) / (m * (m + 2))
    return [
        abs(math.fsum(w.tolist()) - 1.0),
        np.abs(w @ x).max(),
        np.abs(x.T @ (w[:, None] * x) - eye / m).max(),
        np.abs(x.T @ (w[:, None] * xx)).max(),
        np.abs(xx.T @ (w[:, None] * xx) - iso4.reshape(m * m, m * m)).max(),
    ]


@pytest.mark.parametrize("m", range(2, 10))
def test_quadrature_moments_exact_by_degree(m):
    """Order L = 2 (2^m nodes) integrates degrees 0-3 exactly and misses
    degree 4; from L = 3 degree 4 is exact too.  Even moments carry the
    rounding of a BLAS sum (up to 3e-15 measured); odd ones vanish by
    antipodal symmetry."""
    low = moment_errors(boundary_quadrature(m, 2**m))
    assert max(low[0], low[2]) < 1e-14
    assert max(low[1], low[3]) <= 1e-15
    assert low[4] > 1e-2
    high = moment_errors(boundary_quadrature(m, 2 * 3 ** (m - 1)))
    assert max(high[0], high[2], high[4]) < 1e-14
    assert max(high[1], high[3]) <= 1e-15


def test_quadrature_circle_and_monte_carlo():
    """On S^1 the rule is 2L equispaced points of equal weight (L = 180
    at count 360); the seeded Monte Carlo nodes that the barycenter tests
    compare the rule against have a first moment within their noise."""
    q2 = boundary_quadrature(2, 360)
    angles = np.sort(np.mod(np.arctan2(q2.nodes[:, 2], q2.nodes[:, 1]), 2 * np.pi))
    assert np.abs(angles - 2 * np.pi * np.arange(360) / 360).max() < 1e-13
    assert np.abs(q2.weights - 1 / 360).max() < 1e-17
    q4 = monte_carlo_quadrature(4, 5000, seed=3)
    std = 1.0 / math.sqrt(4 * 5000)
    assert np.abs(q4.weights @ q4.nodes[:, 1:]).max() < 3 * std * 2


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_quadrature_uses_the_largest_order_that_fits(m):
    for count in (2**m, 2**m + 1, 1000, 19999, 20000):
        q = boundary_quadrature(m, count)
        L = round((q.count / 2) ** (1 / (m - 1)))
        assert q.count == 2 * L ** (m - 1) == 2 * tensor_order(m, count) ** (m - 1)
        assert q.count <= count < 2 * (L + 1) ** (m - 1)
    assert boundary_quadrature(3, 1000).count == 968  # L = 22


def test_quadrature_is_antipodal_with_positive_weights():
    q = boundary_quadrature(5, 1000)
    nodes = q.nodes[:, 1:]
    order = np.lexsort(nodes.T)
    flipped = np.lexsort((-nodes).T)
    assert np.array_equal(nodes[order], -nodes[flipped])
    # bit for bit, but for the last weight, which absorbs the mass's rounding
    gap = q.weights[order] - q.weights[flipped]
    assert np.count_nonzero(gap) <= 2 and np.abs(gap).max() < 1e-16
    assert q.weights.min() > 0


def test_quadrature_checks_the_mass_with_an_exact_sum():
    # ten weights 0.1 sum to 1 exactly (their float sum is 1 - 1.1e-16)
    q = BoundaryQuadrature(np.tile([1.0, 1.0, 0.0], (10, 1)), np.full(10, 0.1))
    assert q.count == 10
    with pytest.raises(ValueError, match="sum to 1"):
        BoundaryQuadrature(np.tile([1.0, 1.0, 0.0], (2, 1)), [0.5, 0.5 + 2**-53 * 2])


def test_quadrature_errors():
    with pytest.raises(ValueError):
        boundary_quadrature(1, 100)
    with pytest.raises(ValueError, match="2\\^m = 8"):
        boundary_quadrature(3, 7)
    with pytest.raises(ValueError, match="2\\^m = 32"):
        boundary_quadrature(5, 31)
    assert boundary_quadrature(5, 32).count == 32
    # one deterministic rule: the scheme name is the only one accepted
    assert boundary_quadrature(3, 20000, "deterministic-sphere").count == 20000
    with pytest.raises(ValueError, match="unknown scheme"):
        boundary_quadrature(5, 100, "monte-carlo")


def test_transvection_moves_base_to_target():
    # an identity shortcut near o left atoms within 4.5e-8 untranslated
    J = np.diag([-1.0, 1.0, 1.0, 1.0])
    for r in (0.0, 1e-8, 1e-6, 1.0, 2.3, 8.0):
        p = pt(r, [3, 1, 2])
        M = transvection_to(p)
        assert np.array_equal(M @ o3.coords, p.coords)
        assert np.abs(M.T @ J @ M - J).max() <= 4e-15 * p.coords[0] ** 2


def test_transvection_preserves_form():
    gen = np.random.default_rng(11)
    x = random_point(gen, 3, 2.0)
    M = transvection_to(x)
    J = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert np.abs(M.T @ J @ M - J).max() < 1e-10


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_boost_preserves_distances(seed):
    gen = np.random.default_rng(seed)
    L = random_boost(gen, 3)
    x = random_point(gen, 3, 2.5)
    y = random_point(gen, 3, 2.5)
    assert dist(apply_isometry(L, x), apply_isometry(L, y)) == pytest.approx(
        dist(x, y), abs=1e-9
    )


def test_parallel_transport_preserves_norm():
    x = pt(0.4, [1, 0, 0])
    y = pt(1.9, [0, 1, 1])
    frame = tangent_frame(x)
    v = 1.7 * frame[0] - 0.3 * frame[2]
    w = parallel_transport(x, y, v)
    assert math.sqrt(minkowski_form(w, w)) == pytest.approx(
        math.sqrt(minkowski_form(v, v)), abs=1e-10
    )
    assert abs(minkowski_form(w, y.coords)) < 1e-10
