"""Barycenters of weighted configurations: the solver, the derived
quadratic forms, the determinant inequalities, the differential bound,
and the discrete sphere-valued map."""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from minent.barycenter import (
    BarycenterProblem,
    NearSingularError,
    WeightedConfiguration,
    bcg_campaign,
    bcg_inequality_check,
    jacobian_bound_report,
    natural_map_energy,
    random_configuration,
)
from minent.hyperbolic import (
    HyperboloidPoint,
    boundary_quadrature,
    exp_map,
    minkowski_form,
    random_point,
    tangent_frame,
    transvection_to,
)
from minent.products import (
    ProductPoint,
    min_entropy_profile,
    product_dist,
)
from oracles import (
    SphereRule,
    TensorProblem,
    apply_isometry,
    base_point,
    busemann,
    ideal_points,
    monte_carlo_quadrature,
    natural_map_discrete,
    random_boost,
    tensor_quadrature,
    visual_density,
)

o3 = base_point(3)


def radial(r, axis=0):
    c = np.zeros(4)
    c[0] = math.cosh(r)
    c[axis + 1] = math.sinh(r)
    return HyperboloidPoint(c)


def single_atom(profile, point=None):
    p = point if point is not None else ProductPoint((o3, o3))
    return WeightedConfiguration(atoms=(p,), weights=(1.0,), profile=profile)


# -- configuration validation ----------------------------------------------


def test_weights_must_sum_to_one(profile33):
    p = ProductPoint((o3, o3))
    with pytest.raises(ValueError):
        WeightedConfiguration(atoms=(p, p), weights=(0.6, 0.6), profile=profile33)
    with pytest.raises(ValueError):
        WeightedConfiguration(atoms=(p, p), weights=(1.2, -0.2), profile=profile33)


# -- functional values and gradients ---------------------------------------


def test_value_zero_for_atom_at_base(profile33, quads33):
    config = single_atom(profile33)
    x = ProductPoint((o3, o3))
    value, grad, _, _ = BarycenterProblem(config, quads33).value_and_grad(x)
    assert abs(value) < 1e-12
    assert max(np.abs(g).max() for g in grad) < 2e-3


def test_gradient_matches_value_finite_differences(profile33, quads33, rng):
    config = random_configuration(rng, profile33, 3, spread=1.0)
    problem = BarycenterProblem(config, quads33)
    x = ProductPoint(tuple(random_point(rng, 3, 0.8) for _ in range(2)))
    value, grad, gnorm, pair = problem.value_and_grad(x)
    h = 1e-3

    def moved(vecs):
        return ProductPoint(tuple(map(exp_map, x.factors, vecs)))

    for i in range(2):
        for a in range(3):
            vecs = [np.zeros(4), np.zeros(4)]
            vecs[i] = h * pair.frames[i][a]
            vp = problem.value_and_grad(moved(vecs))[0]
            vecs[i] = -h * pair.frames[i][a]
            vm = problem.value_and_grad(moved(vecs))[0]
            assert (vp - vm) / (2 * h) == pytest.approx(
                grad[i][a], abs=1e-4
            )


def test_functional_dual_quadrature_routes(profile33, quads33):
    """The solver integrates each atom's visual measure in closed 1-D
    form, with every horofunction anchored at its atom; the same number
    must come out of fixed tensor nodes at o weighted by the visual
    density of each atom, with B(x, xi) - B(p_j, xi) as the integrand."""
    gen = np.random.default_rng(7)
    config = random_configuration(gen, profile33, 3, spread=1.2)
    x = ProductPoint(tuple(random_point(gen, 3, 0.7) for _ in range(2)))
    problem = BarycenterProblem(config, quads33)
    value, _, _, _ = problem.value_and_grad(x)

    quad = tensor_quadrature(3, 1000)
    ideals = ideal_points(quad)
    dens_total = 0.0
    for w, atom in zip(config.weights, config.atoms):
        for i in range(2):
            dens = np.array(
                [visual_density(atom.factors[i], xi, 2.0) for xi in ideals]
            )
            bus = np.array(
                [
                    busemann(x.factors[i], xi).value
                    - busemann(atom.factors[i], xi).value
                    for xi in ideals
                ]
            )
            # alpha_i / sqrt(k) weighting of the factor term
            dens_total += (
                w
                * (profile33.alpha[i] / math.sqrt(2.0))
                * float(quad.weights @ (dens * bus))
            )
    assert value == pytest.approx(dens_total, abs=1e-4)


# -- the solver ------------------------------------------------------------

def test_single_atom_fixed_point(profile33, quads33):
    gen = np.random.default_rng(2)
    p = ProductPoint(tuple(random_point(gen, 3, 1.5) for _ in range(2)))
    sol = BarycenterProblem(single_atom(profile33, p), quads33).solve(tol=1e-9)
    assert sol.converged
    assert product_dist(sol.point, p, profile33) < 1e-5


def test_midpoint_against_line_search_oracle(profile33, quads33):
    p = ProductPoint((radial(1.6), o3))
    q = ProductPoint((o3, o3))
    config = WeightedConfiguration(
        atoms=(p, q), weights=(0.5, 0.5), profile=profile33
    )
    problem = BarycenterProblem(config, quads33)
    sol = problem.solve(tol=1e-10)

    # 1-d oracle: minimize along the connecting geodesic in factor 1
    def along(t):
        return problem.value_and_grad(ProductPoint((radial(t), o3)))[0]

    res = minimize_scalar(
        along, bounds=(0.0, 1.6), method="bounded",
        options={"xatol": 1e-10},
    )
    t_star = float(res.x)
    # the barycenter of a symmetric two-atom pair is the metric midpoint
    assert t_star == pytest.approx(0.8, abs=2e-4)
    assert product_dist(
        sol.point, ProductPoint((radial(t_star), o3)), profile33
    ) < 2e-4


def test_solver_start_independence(profile33, quads33, rng):
    config = random_configuration(rng, profile33, 4, spread=1.2)
    problem = BarycenterProblem(config, quads33)
    tol = 1e-8
    sols = []
    for s in range(3):
        gen = np.random.default_rng(100 + s)
        x0 = ProductPoint(tuple(random_point(gen, 3, 1.0) for _ in range(2)))
        sols.append(problem.solve(tol=tol, x0=x0))
    assert all(s.converged for s in sols)
    for s in sols[1:]:
        assert product_dist(s.point, sols[0].point, profile33) <= 10 * tol


def test_solver_equivariance(profile33, quads33_fine):
    # the zonal moments depend on distances and frames alone, so an
    # isometry of one factor moves the minimizer with it
    gen = np.random.default_rng(3)
    config = random_configuration(gen, profile33, 3, spread=1.0)
    L = random_boost(gen, 3, scale=0.4)
    moved = WeightedConfiguration(
        atoms=tuple(
            ProductPoint((apply_isometry(L, a.factors[0]), a.factors[1]))
            for a in config.atoms
        ),
        weights=config.weights,
        profile=profile33,
    )
    sol = BarycenterProblem(config, quads33_fine).solve(tol=1e-10)
    sol_moved = BarycenterProblem(moved, quads33_fine).solve(tol=1e-10)
    expected = ProductPoint(
        (apply_isometry(L, sol.point.factors[0]), sol.point.factors[1])
    )
    assert product_dist(sol_moved.point, expected, profile33) < 5e-5


def test_solver_warm_start_near_answer_converges(profile33, quads33):
    """A solve started within 1e-8 of its answer takes its small Newton
    step instead of stalling on it."""
    config = random_configuration(np.random.default_rng(0), profile33, 4, 1.2)
    base = BarycenterProblem(config, quads33).solve(tol=1e-9)
    w = np.array(config.weights)
    w[0] += 1e-8
    moved = BarycenterProblem(
        WeightedConfiguration(config.atoms, tuple(w / w.sum()), profile33), quads33
    )
    sol = moved.solve(tol=1e-9, x0=base.point)
    assert sol.converged
    assert sol.gradient_norm < 1e-12


def test_solver_converges_at_spread_10(profile33, quads33):
    """The first Newton trial steps are about 18 long; they stay on the
    sheet and the solve converges."""
    config = random_configuration(np.random.default_rng(0), profile33, 4, 10.0)
    sol = BarycenterProblem(config, quads33).solve()
    assert sol.converged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_halves_unrepresentable_trial_at_spread_12(profile33, quads33, seed):
    """The first Newton trial lands beyond x_0 ~ 1e8, where q(x, x)
    rounds to 0 and no hyperboloid point can be built; the line search
    halves the step instead of stopping."""
    config = random_configuration(np.random.default_rng(seed), profile33, 4, 12.0)
    sol = BarycenterProblem(config, quads33).solve()
    assert sol.converged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_halves_overflowing_trial_at_spread_14(profile33, quads33, seed):
    """Newton trials thousands long overflow cosh; exp_map rejects them
    without a warning and the line search halves them.  A trial is
    accepted only when the value falls, so seed 1 no longer steps to a
    far point whose value rose, from which every halving overflows."""
    config = random_configuration(np.random.default_rng(seed), profile33, 4, 14.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = BarycenterProblem(config, quads33).solve()
    assert np.isfinite(sol.value) and np.isfinite(sol.gradient_norm)
    assert sol.converged


def test_solver_non_convergence_reported(profile33, quads33, rng):
    config = random_configuration(rng, profile33, 4, spread=1.2)
    sol = BarycenterProblem(config, quads33).solve(tol=1e-9, max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1
    assert sol.gradient_norm > 1e-9


def test_solver_rejects_unresolvable_tolerance(profile33, quads33, rng):
    config = random_configuration(rng, profile33, 2, spread=0.5)
    with pytest.raises(ValueError):
        BarycenterProblem(config, quads33).solve(tol=1e-12)


# -- derived forms ---------------------------------------------------------


def test_forms_exact_identities(profile33, quads33, rng):
    """The zonal moments make the trace and complement identities exact
    to rounding at any order, not just to quadrature tolerance."""
    config = random_configuration(rng, profile33, 4, spread=1.2)
    problem = BarycenterProblem(config, quads33)
    sol = problem.solve(tol=1e-8)
    pair = problem.forms(sol.point)
    assert np.trace(pair.H) == pytest.approx(1.0, abs=1e-12)
    k = profile33.k
    for i, (a, h_i) in enumerate(zip(profile33.alpha, pair.factor_h)):
        sl = slice(3 * i, 3 * i + 3)
        k_ii = a * math.sqrt(k) * pair.K[sl, sl]
        assert np.abs(k_ii - (np.eye(3) - k * pair.H[sl, sl])).max() < 1e-12
        assert np.abs(h_i - h_i.T).max() < 1e-14


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_forms_trace_property(seed, profile33, quads33):
    gen = np.random.default_rng(seed)
    config = random_configuration(gen, profile33, int(2 + seed % 4), spread=1.0)
    x = ProductPoint(tuple(random_point(gen, 3, 1.0) for _ in range(2)))
    pair = BarycenterProblem(config, quads33).forms(x)
    assert np.trace(pair.H) == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(pair.H)
    assert evals.min() > -1e-12


def test_single_atom_forms_are_isotropic(profile33, quads33):
    config = single_atom(profile33)
    pair = BarycenterProblem(config, quads33).forms(ProductPoint((o3, o3)))
    for h_i in pair.factor_h:
        assert np.abs(h_i - np.eye(3) / 3.0).max() < 5e-3


def test_second_moments_match_einsum_reference(profile33, rng):
    """The zonal value, gradient and weighted second moment match the
    explicit three-index sums over each atom's transported tensor nodes,
    atom by atom, at order 100 on S^2, where both rules are exact to
    rounding."""
    config = random_configuration(rng, profile33, 3, spread=1.0)
    problem = BarycenterProblem(config, [boundary_quadrature(3, 20000)] * 2)
    rule = tensor_quadrature(3, 20000)
    x = ProductPoint(tuple(random_point(rng, 3, 0.8) for _ in range(2)))
    value, grad, _, pair = problem.value_and_grad(x)
    rk = math.sqrt(profile33.k)
    want_value, wts = 0.0, rule.weights
    for i, xf in enumerate(x.factors):
        want, want_grad = np.zeros((3, 3)), np.zeros(3)
        for w_j, atom in zip(problem.w, config.atoms):
            nodes = rule.nodes @ transvection_to(atom.factors[i]).T
            s = -minkowski_form(nodes, xf.coords)  # exp B, anchored at the atom
            b = -minkowski_form(nodes[:, None], pair.frames[i]) / s[:, None]
            want += w_j * np.einsum("l,la,lb->ab", wts, b, b)
            want_grad += w_j * np.einsum("l,la->a", wts, b) / rk
            want_value += w_j * profile33.alpha[i] / rk * np.sum(wts * np.log(s))
        assert np.abs(pair.factor_h[i] - want).max() < 2e-14
        assert np.abs(grad[i] - want_grad).max() < 2e-14
    assert value == pytest.approx(want_value, abs=2e-14)


@pytest.mark.parametrize("m", [3, 5, 8, 16])
def test_zonal_order_22_agrees_with_order_256(m):
    """At the default count 1000 the rule has L = 22 in every dimension;
    with atoms within spread 1.2 the moments, the barycenter and the
    Jacobian estimate agree with L = 256 (count 131072) to rounding
    (measured 2e-15 on the estimate)."""
    prof = min_entropy_profile((3, m), (2.0, m - 1.0))
    config = random_configuration(np.random.default_rng(m), prof, 4, 1.2)
    coarse, fine = (
        BarycenterProblem(config, [boundary_quadrature(d, count) for d in (3, m)])
        for count in (1000, 2 * 256**2)
    )
    assert coarse.quads[1].weights.size == 22 and fine.quads[1].weights.size == 256
    x = coarse.initial_point()
    _, g_c, _, p_c = coarse.value_and_grad(x)
    _, g_f, _, p_f = fine.value_and_grad(x)
    assert max(np.abs(a - b).max() for a, b in zip(g_c, g_f)) < 1e-13
    assert np.abs(p_c.H - p_f.H).max() < 1e-13
    reports = [jacobian_bound_report(p, p.solve(tol=1e-10)) for p in (coarse, fine)]
    assert reports[0].estimate == pytest.approx(reports[1].estimate, rel=1e-13)


def test_transvection_of_configuration_keeps_form_spectra(profile33):
    """Moving every atom by one random transvection per factor, an
    isometry, moves the barycenter with it and leaves the eigenvalues of
    H and K unchanged."""
    gen = np.random.default_rng(12)
    config = random_configuration(gen, profile33, 5, spread=1.2)
    moves = [transvection_to(random_point(gen, 3, 1.5)) for _ in range(2)]
    moved = WeightedConfiguration(
        tuple(
            ProductPoint(tuple(map(apply_isometry, moves, atom.factors)))
            for atom in config.atoms
        ),
        config.weights,
        profile33,
    )
    quads = [boundary_quadrature(3, 1000)] * 2
    sol, sol_moved = (BarycenterProblem(c, quads).solve(tol=1e-10) for c in (config, moved))
    expected = ProductPoint(tuple(map(apply_isometry, moves, sol.point.factors)))
    assert product_dist(sol_moved.point, expected, profile33) < 1e-9
    for form in ("H", "K"):
        spectra = [np.linalg.eigvalsh(getattr(s.forms, form)) for s in (sol, sol_moved)]
        assert np.abs(spectra[0] - spectra[1]).max() < 1e-12


@pytest.mark.parametrize("dims", [(3, 3), (4, 6)])
def test_an_atom_at_x_contributes_isotropic_moments(dims):
    """A single atom is its own barycenter, where S_i = Id / m_i and the
    gradient is 0.  In any configuration an atom at x (d = 0) adds
    w_j Id / m_i and no first moment: the forms there are w_0 Id / m_i
    plus the other atoms' share, which is linear in the weights."""
    prof = min_entropy_profile(dims, tuple(d - 1.0 for d in dims))
    quads = [boundary_quadrature(m, 1000) for m in dims]
    gen = np.random.default_rng(4)
    p, q = (ProductPoint(tuple(random_point(gen, m, 1.5) for m in dims)) for _ in range(2))
    sol = BarycenterProblem(WeightedConfiguration((p,), (1.0,), prof), quads).solve()
    assert sol.iterations == 0 and sol.gradient_norm < 1e-15
    for m, S_i in zip(dims, sol.forms.factor_h):
        assert np.abs(S_i - np.eye(m) / m).max() < 1e-15
    both = BarycenterProblem(WeightedConfiguration((p, q), (0.3, 0.7), prof), quads)
    alone = BarycenterProblem(WeightedConfiguration((q,), (1.0,), prof), quads)
    _, grad, _, pair = both.value_and_grad(p)
    _, grad_q, _, pair_q = alone.value_and_grad(p)
    for m, g, g_q, S_i, S_q in zip(dims, grad, grad_q, pair.factor_h, pair_q.factor_h):
        assert np.abs(g - 0.7 * g_q).max() < 1e-15
        assert np.abs(S_i - (0.3 * np.eye(m) / m + 0.7 * S_q)).max() < 1e-15


# -- determinant inequalities ----------------------------------------------


def test_bcg_equality_case():
    for n in (3, 4, 5):
        res = bcg_inequality_check(np.eye(n) / n, n, n - 1)
        assert res.holds
        assert res.equality_gap < 1e-9
        want = (math.sqrt(n) / (n - 1)) ** n
        assert res.bound == pytest.approx(want, rel=1e-14)


def test_bcg_equality_value_h3():
    res = bcg_inequality_check(np.eye(3) / 3.0, 3, 2)
    assert res.ratio == pytest.approx(3.0 * math.sqrt(3.0) / 8.0, abs=1e-14)


def test_bcg_near_rank_one_below_bound():
    # both determinants vanish at the same order here, so the ratio
    # limits to 1/2, strictly inside the bound but not near zero
    eps = 1e-3
    H = np.diag([1.0 - 2 * eps, eps, eps])
    res = bcg_inequality_check(H, 3, 2)
    assert res.holds
    assert res.ratio < res.bound - 0.14
    assert res.ratio == pytest.approx(0.5, abs=5e-3)


def test_bcg_rank_two_degeneration_ratio_collapses():
    # only the numerator degenerates when one eigenvalue alone shrinks
    eps = 1e-4
    H = np.diag([0.5 - eps / 2, 0.5 - eps / 2, eps])
    res = bcg_inequality_check(H, 3, 2)
    assert res.holds
    assert res.ratio < 0.05 * res.bound


def test_bcg_singular_input_rejected():
    H = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(NearSingularError):
        bcg_inequality_check(H, 3, 2)


def test_bcg_campaign_no_violations():
    for n in (3, 4, 5):
        out = bcg_campaign(n, 2000, seed=11)
        assert out["violations"] == 0
        assert out["max_ratio"] <= out["bound"]


def bcg_campaign_full_qr(n, count, seed):
    """Reference campaign on the spectra alone."""
    lam = np.random.default_rng(seed).dirichlet(np.ones(n), size=count)
    ratios = np.sqrt(np.prod(lam, axis=1)) / np.prod(1.0 - lam, axis=1)
    bound = (np.sqrt(n) / (n - 1)) ** n
    return {
        "count": int(count),
        "violations": int(np.sum(ratios > bound * (1 + 1e-12))),
        "max_ratio": float(ratios.max()),
        "bound": float(bound),
    }


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("count", [5, 10_000])
def test_bcg_campaign_matches_full_qr(n, count):
    # every output, bit for bit
    assert bcg_campaign(n, count, seed=n) == bcg_campaign_full_qr(n, count, n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bcg_spectral_ratio_matches_matrix_route(n):
    # the spectral ratio is the scalar check's ratio of the full matrix
    # Q diag(lam) Q^T, on QR frames
    rng = np.random.default_rng(11)
    lam = rng.dirichlet(np.ones(n), size=8)
    for lam_c, q in zip(lam, np.linalg.qr(rng.standard_normal((8, n, n)))[0]):
        H = (q * lam_c[None, :]) @ q.T
        res = bcg_inequality_check((H + H.T) / 2, n, n - 1)
        spectral = np.sqrt(np.prod(lam_c)) / np.prod(1.0 - lam_c)
        assert abs(res.ratio - spectral) < 1e-12


# -- the Jacobian-type bound ----------------------------------------------


def test_jacobian_single_atom_attains_bound(profile33, quads33):
    config = single_atom(profile33)
    rep = jacobian_bound_report(BarycenterProblem(config, quads33))
    assert rep.holds
    assert rep.bound == pytest.approx(27.0, abs=1e-12)
    assert rep.estimate == pytest.approx(27.0, rel=0.02)


def test_jacobian_spread_config_strictly_inside(profile33, quads33):
    far = WeightedConfiguration(
        atoms=(
            ProductPoint((radial(2.0), o3)),
            ProductPoint((radial(-2.0), o3)),
        ),
        weights=(0.5, 0.5),
        profile=profile33,
    )
    rep = jacobian_bound_report(BarycenterProblem(far, quads33))
    assert rep.holds
    assert rep.estimate <= 0.95 * rep.bound


def test_jacobian_bound_formula_mixed_profile():
    prof = min_entropy_profile((3, 4), (2.0, 3.0))
    o4 = base_point(4)
    config = WeightedConfiguration(
        atoms=(ProductPoint((o3, o4)),), weights=(1.0,), profile=prof
    )
    quads = [boundary_quadrature(3, 600), boundary_quadrature(4, 600)]
    rep = jacobian_bound_report(BarycenterProblem(config, quads))
    want = (4.0 * 7.0 / prof.h_min**2) ** 3.5
    assert rep.bound == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dims,entropies", [((3, 4), (2.0, 3.0)), ((3, 5), (2.0, 4.0))])
def test_rule_agrees_with_monte_carlo_nodes(dims, entropies):
    """F and the S_i at a fixed point are linear in the boundary measure;
    the zonal rule's lie within 3 per-seed standard deviations of the
    mean over 8 seeded Monte Carlo node sets of 20000 nodes, each
    transported to every atom.  (The Jacobian ratio is not linear in the
    measure, and sampling biases it.)"""
    prof = min_entropy_profile(dims, entropies)
    config = random_configuration(np.random.default_rng(0), prof, 3, 1.2)
    rule = BarycenterProblem(config, [boundary_quadrature(m, 1000) for m in dims])
    x = rule.initial_point()

    def linear(problem):
        value, _, _, pair = problem.value_and_grad(x)
        return np.concatenate([[value], *(S.ravel() for S in pair.factor_h)])

    sampled = np.array([
        linear(TensorProblem(config, [monte_carlo_quadrature(m, 20000, s) for m in dims]))
        for s in range(8)
    ])
    gap = np.abs(linear(rule) - sampled.mean(axis=0))
    assert np.all(gap <= 3 * sampled.std(axis=0, ddof=1))


def _rotated(q, rng):
    """The tensor rule with its sphere nodes moved by a random orthogonal
    map."""
    Q, R = np.linalg.qr(rng.standard_normal((q.m, q.m)))
    sphere = q.nodes[:, 1:] @ (Q * np.sign(np.diag(R)))
    return SphereRule(np.column_stack([q.nodes[:, 0], sphere]), q.weights)


@pytest.mark.parametrize(
    "dims,entropies,count,rtol",
    [
        ((3, 3), (2.0, 2.0), 1000, 1e-12),
        ((3, 4), (2.0, 3.0), 5000, 1e-9),
        ((3, 5), (2.0, 4.0), 5000, 1e-5),
    ],
)
def test_jacobian_ratio_is_rotation_invariant(dims, entropies, count, rtol):
    """The round measure is rotation invariant, so rotating the tensor
    rule's nodes moves the Jacobian ratio only by that rule's error:
    measured 2e-15 at (3, 3) with 968 nodes per factor, 1.4e-10 at (3, 4)
    and 1.7e-6 at (3, 5) with 4394 and 4802 nodes on the larger factor.
    The zonal rule integrates each atom's measure about its own axis, the
    rotation-free limit: the tensor ratio meets it within the same
    error."""
    prof = min_entropy_profile(dims, entropies)
    config = random_configuration(np.random.default_rng(0), prof, 4, 1.2)
    quads = [tensor_quadrature(m, count) for m in dims]
    rng = np.random.default_rng(11)

    def ratio(problem):
        rep = jacobian_bound_report(problem, problem.solve(tol=1e-10))
        return rep.estimate / rep.bound

    tensor = ratio(TensorProblem(config, quads))
    rotated = ratio(TensorProblem(config, [_rotated(q, rng) for q in quads]))
    assert rotated == pytest.approx(tensor, rel=rtol)
    zonal = ratio(BarycenterProblem(config, [boundary_quadrature(m, count) for m in dims]))
    assert tensor == pytest.approx(zonal, rel=rtol)


def test_jacobian_random_sweep_holds(profile33, quads33):
    gen = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(10):
        config = random_configuration(gen, profile33, int(gen.integers(2, 6)))
        rep = jacobian_bound_report(
            BarycenterProblem(config, quads33), solution=None
        )
        assert rep.holds
        worst = max(worst, rep.estimate / rep.bound)
    assert worst < 1.0


def test_jacobian_near_singular_rejection(profile33, quads33):
    def antipodal(r):
        return WeightedConfiguration(
            atoms=(
                ProductPoint((radial(r), radial(r))),
                ProductPoint((radial(-r), radial(-r))),
            ),
            weights=(0.5, 0.5),
            profile=profile33,
        )

    ok = jacobian_bound_report(BarycenterProblem(antipodal(8.0), quads33))
    assert ok.holds
    assert ok.h_eigen_max > 0.999
    with pytest.raises(NearSingularError) as err:
        jacobian_bound_report(BarycenterProblem(antipodal(9.0), quads33))
    assert "near-singular" in str(err.value)


# -- differential of the barycenter map ------------------------------------


@dataclasses.dataclass(frozen=True)
class DifferentialEstimate:
    norm: float
    bound: float
    slack: float


def bar_differential_fd(
    config: WeightedConfiguration,
    quads,
    direction,
    step: float = 1e-3,
    tol: float = 1e-9,
) -> DifferentialEstimate:
    """Finite-difference norm of the barycenter differential along a
    unit tangent direction of the square-root weight sphere.

    The direction u must satisfy <u, sqrt(w)> = 0; it is normalized
    here.  Perturbed weights are (sqrt(w) + step u)^2 renormalized.
    The norm is compared against sqrt(4 n / h_min^2); the signed slack
    (norm / bound - 1) is reported, not asserted.
    """
    if step > 1e-3 or step <= 0:
        raise ValueError("step must lie in (0, 1e-3]")
    u = np.asarray(direction, dtype=float)
    f = np.sqrt(np.array(config.weights))
    if u.shape != f.shape:
        raise ValueError("direction length must match the number of atoms")
    bound = float(np.sqrt(4.0 * config.profile.n / config.profile.h_min**2))
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        return DifferentialEstimate(norm=0.0, bound=bound, slack=-1.0)
    u = u / nrm
    if abs(float(u @ f)) > 1e-8:
        u = u - (u @ f) * f
        u = u / np.linalg.norm(u)
    base = BarycenterProblem(config, quads).solve(tol=tol)
    w = (f + step * u) ** 2
    moved = WeightedConfiguration(config.atoms, tuple(w / w.sum()), config.profile)
    shifted = BarycenterProblem(moved, quads).solve(tol=tol, x0=base.point)
    if not (base.converged and shifted.converged):
        raise NearSingularError("barycenter solve did not converge")
    norm = product_dist(base.point, shifted.point, config.profile) / step
    return DifferentialEstimate(
        norm=float(norm), bound=bound, slack=float(norm / bound - 1.0)
    )


def test_differential_zero_direction(profile33, quads33, rng):
    config = random_configuration(rng, profile33, 3)
    est = bar_differential_fd(config, quads33, np.zeros(3))
    assert est.norm == 0.0


def test_differential_symmetric_configuration(profile33, quads33):
    atoms = tuple(
        ProductPoint((radial(1.0, axis), o3)) for axis in range(3)
    )
    config = WeightedConfiguration(
        atoms=atoms, weights=(1 / 3,) * 3, profile=profile33
    )
    u = np.array([1.0, -1.0, 0.0])
    est = bar_differential_fd(config, quads33, u, step=1e-3, tol=1e-9)
    assert est.norm <= est.bound * 1.05
    assert est.bound == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_differential_random_configuration(profile33, quads33):
    gen = np.random.default_rng(21)
    config = random_configuration(gen, profile33, 4, spread=1.0)
    u = gen.standard_normal(4)
    est = bar_differential_fd(config, quads33, u, step=1e-3, tol=1e-9)
    assert est.norm <= est.bound * 1.05
    assert est.slack <= 0.05


def test_differential_step_validation(profile33, quads33, rng):
    config = random_configuration(rng, profile33, 3)
    with pytest.raises(ValueError):
        bar_differential_fd(config, quads33, np.ones(3), step=0.01)


# -- discrete sphere-valued map --------------------------------------------


def test_natural_map_equidistant_symmetry(profile33):
    pts = [
        ProductPoint((radial(1.0), o3)),
        ProductPoint((radial(-1.0), o3)),
    ]
    x = ProductPoint((o3, o3))
    comps = natural_map_discrete(pts, 3.0, x, profile33)
    assert comps == pytest.approx(
        np.array([1.0, 1.0]) / math.sqrt(2.0), abs=1e-12
    )


def test_natural_map_concentrates_at_nearby_point(profile33):
    pts = [
        ProductPoint((radial(0.05), o3)),
        ProductPoint((radial(-3.0), o3)),
        ProductPoint((o3, radial(3.0))),
    ]
    x = ProductPoint((radial(0.05), o3))
    comps = natural_map_discrete(pts, 8.0, x, profile33)
    assert comps[0] > 0.999
    assert np.abs(comps).max() == comps[0]


def test_natural_map_underflow_error(profile33):
    pts = [
        ProductPoint((radial(8.0), o3)),
        ProductPoint((radial(-8.0), o3)),
    ]
    x = ProductPoint((o3, radial(8.0)))
    with pytest.raises(ValueError, match="underflow"):
        natural_map_discrete(pts, 300.0, x, profile33)


def test_natural_map_energy_bound(profile33):
    gen = np.random.default_rng(17)
    c = 1.1 * profile33.h_min
    pts = [
        ProductPoint(tuple(random_point(gen, 3, 1.2) for _ in range(2)))
        for _ in range(8)
    ]
    worst = 0.0
    for _ in range(10):
        x = ProductPoint(tuple(random_point(gen, 3, 1.0) for _ in range(2)))
        res = natural_map_energy(pts, c, x, profile33)
        assert res.holds
        worst = max(worst, res.energy / res.bound)
    assert worst <= 1.05


def fd_sphere_map(points, c, x, profile, step=1e-4):
    """Oracle: central differences of the sphere map along an orthonormal
    frame of the scaled metric.  Returns the energy (squared norm of the
    J x n differential) and det(G)^(1/2) / (c^2/4n)^(n/2)."""
    cols = []
    for i, xf in enumerate(x.factors):
        for vec in tangent_frame(xf) / profile.alpha[i]:
            outs = []
            for sgn in (+1.0, -1.0):
                moved = list(x.factors)
                moved[i] = exp_map(xf, sgn * step * vec)
                outs.append(
                    natural_map_discrete(points, c, ProductPoint(tuple(moved)), profile)
                )
            cols.append((outs[0] - outs[1]) / (2.0 * step))
    jac = np.array(cols).T
    n = profile.n
    gram_det = max(np.linalg.det(jac.T @ jac), 0.0)
    return float(np.sum(jac * jac)), math.sqrt(gram_det) / (c * c / (4 * n)) ** (n / 2)


def random_product_point(gen, dims, radius):
    return ProductPoint(tuple(random_point(gen, m, radius) for m in dims))


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (3, 3, 5)])
@pytest.mark.parametrize("minimal", [True, False])
@pytest.mark.parametrize("c_factor", [0.5, 1.1, 2.0])
def test_natural_map_energy_matches_fd(dims, minimal, c_factor):
    profile = min_entropy_profile(dims, [2.0 + 0.5 * i for i in range(len(dims))])
    if not minimal:
        alpha = tuple(a * s for a, s in zip(profile.alpha, (0.6, 1.7, 1.2)))
        profile = dataclasses.replace(profile, alpha=alpha)
    c = c_factor * profile.h_min
    gen = np.random.default_rng([*dims, int(minimal), int(10 * c_factor)])
    # J - 1 >= n reference points, so that det(G) can be nonzero
    pts = [random_product_point(gen, dims, 1.2) for _ in range(sum(dims) + 2)]
    for _ in range(2):
        x = random_product_point(gen, dims, 1.0)
        res = natural_map_energy(pts, c, x, profile)
        energy, volume = fd_sphere_map(pts, c, x, profile)
        assert res.energy == pytest.approx(energy, rel=1e-6)
        assert res.volume_ratio == pytest.approx(volume, rel=1e-5)
        assert res.energy == pytest.approx(res.bound * (1.0 - res.deficit), rel=1e-15)
        assert np.allclose(res.components, natural_map_discrete(pts, c, x, profile))
        assert res.holds and 0.0 < res.volume_ratio <= 1.0


def gram_natural_map(points, c, x, profile):
    """Oracle: energy and volume ratio of the sphere map from the J x J
    Minkowski Gram matrix of a_j (g_j - v), with the gradients g_j kept
    as ambient tangent vectors; G has its nonzero spectrum."""
    d, u = [], []
    for i, xc in enumerate(xf.coords for xf in x.factors):
        w = xc - np.stack([pt.factors[i].coords for pt in points])
        s = np.sqrt(np.maximum(minkowski_form(w, w), 0.0))[:, None]
        d.append(2.0 * np.arcsinh(s[:, 0] / 2.0))
        sh = s * np.sqrt(1.0 + s * s / 4.0)
        u.append(np.divide(w + s * s / 2.0 * xc, sh, out=np.zeros_like(w), where=s > 0))
    dist = np.sqrt(sum((a * di) ** 2 for a, di in zip(profile.alpha, d)))
    comps = natural_map_discrete(points, c, x, profile)
    g = [(a * di / dist)[:, None] * ui for a, di, ui in zip(profile.alpha, d, u)]
    v = [(comps * comps) @ gi for gi in g]
    deficit = sum(minkowski_form(vi, vi) for vi in v)
    rows = [comps[:, None] * (gi - vi) for gi, vi in zip(g, v)]
    lam = np.linalg.eigvalsh(sum(minkowski_form(r[:, None], r[None]) for r in rows))
    n = profile.n
    return c * c / 4.0 * (1.0 - deficit), math.sqrt(np.prod(n * lam[-n:]))


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (3, 3, 5)])
def test_natural_map_frame_form_matches_gram_oracle(dims):
    profile = min_entropy_profile(dims, [2.0 + 0.5 * i for i in range(len(dims))])
    c = 1.1 * profile.h_min
    gen = np.random.default_rng([*dims, 7])
    pts = [random_product_point(gen, dims, 1.2) for _ in range(3 * sum(dims))]
    for _ in range(3):
        x = random_product_point(gen, dims, 1.0)
        res = natural_map_energy(pts, c, x, profile)
        energy, volume = gram_natural_map(pts, c, x, profile)
        assert res.energy == pytest.approx(energy, rel=1e-12)
        assert res.volume_ratio == pytest.approx(volume, rel=1e-12)


def test_natural_map_energy_is_fast_at_2048_points(profile33):
    # the J x J Gram route took 1.25 s here; the n x n form is O(J n^2)
    gen = np.random.default_rng(41)
    pts = [random_product_point(gen, (3, 3), 1.2) for _ in range(2048)]
    x = random_product_point(gen, (3, 3), 1.0)
    c = 1.1 * profile33.h_min
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        natural_map_energy(pts, c, x, profile33)
        best = min(best, time.perf_counter() - start)
    assert best < 0.020


def test_natural_map_energy_antipodal_pair(profile33):
    # g_1 = -g_2 in factor 0, so v = 0 and E = c^2/4; G has rank 1
    pts = [ProductPoint((radial(1.0), o3)), ProductPoint((radial(-1.0), o3))]
    c = 2.5
    res = natural_map_energy(pts, c, ProductPoint((o3, o3)), profile33)
    assert res.energy == pytest.approx(c * c / 4.0, rel=1e-15)
    assert abs(res.deficit) <= 1e-15
    assert res.volume_ratio == 0.0
    # still equidistant, displaced 0.7 in factor 1: v = (alpha_1 0.7 / D) u_1
    a0, a1 = profile33.alpha
    res = natural_map_energy(pts, c, ProductPoint((o3, radial(0.7))), profile33)
    d_sq = a0**2 + (0.7 * a1) ** 2
    assert res.energy == pytest.approx(c * c / 4.0 * a0**2 / d_sq, rel=1e-14)
    assert res.deficit == pytest.approx((0.7 * a1) ** 2 / d_sq, rel=1e-14)


def test_natural_map_energy_coincident_factor(profile33):
    # x meets p_2 in factor 0 only: d_2 is smooth there and finite
    gen = np.random.default_rng(29)
    c = 1.1 * profile33.h_min
    pts = [random_product_point(gen, (3, 3), 1.2) for _ in range(8)]
    x = ProductPoint((pts[2].factors[0], random_point(gen, 3, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = natural_map_energy(pts, c, x, profile33)
    assert np.isfinite([res.energy, res.deficit, res.volume_ratio]).all()
    assert res.holds
    energy, volume = fd_sphere_map(pts, c, x, profile33)
    assert res.energy == pytest.approx(energy, rel=1e-6)
    assert res.volume_ratio == pytest.approx(volume, rel=1e-5)


def test_natural_map_energy_at_reference_point(profile33):
    gen = np.random.default_rng(31)
    pts = [random_product_point(gen, (3, 3), 1.2) for _ in range(6)]
    with pytest.raises(ValueError, match="reference point 3"):
        natural_map_energy(pts, 1.1 * profile33.h_min, pts[3], profile33)
