"""Acceptance suite: nine end-to-end checks at their stated tolerances.

Each test covers one numbered item and records its wall time; the
terminal-summary hook in conftest prints one verdict line per item
after the run.  Budgets are asserted together with the numerical
tolerances, so a slow pass fails just like a wrong number.
"""

import itertools
import json
import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from minent.barycenter import (
    BarycenterProblem,
    WeightedConfiguration,
    bcg_campaign,
    bcg_inequality_check,
    jacobian_bound_report,
    natural_map_energy,
    random_configuration,
)
from minent.cli import EXIT_OK, main
from minent.ghkit import (
    FiniteMetricSpace,
    approximation_check,
    build_net_graph,
    circle_space,
    gh_bounds,
    greedy_net,
    torus_grid_space,
)
from minent.hyperbolic import HyperboloidPoint, random_point
from minent.products import (
    ProductPoint,
    entropy_growth_numeric,
    product_dist,
)
from minent.shortcut import (
    ShortcutModel,
    branching_geodesic_demo,
    eta_entropy_estimate,
    r_c_verify,
    shorter_path_witness,
)
from oracles import base_point

ROOT8 = 2.0 * math.sqrt(2.0)
o3 = base_point(3)


def radial(r, axis=0):
    c = np.zeros(4)
    c[0] = math.cosh(r)
    c[axis + 1] = math.sinh(r)
    return HyperboloidPoint(c)


def _done(record_property, t0, budget=None):
    elapsed = time.perf_counter() - t0
    record_property("elapsed", (elapsed, budget))
    if budget is not None:
        assert elapsed < budget, f"ran {elapsed:.1f}s, budget {budget:.0f}s"


def _report(out_dir, sub):
    with open(out_dir / f"{sub}_report.json", encoding="utf-8") as fh:
        return json.load(fh)


def _check(doc, name):
    return next(c for c in doc["checks"] if c["name"] == name)


# -- 1: product entropy value and measured growth rate ---------------------


def test_criterion_1_product_entropy_and_growth_slope(record_property, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "c1"
    assert main(["--out", str(out), "entropy"]) == EXIT_OK
    table = _check(_report(out, "entropy"), "profile-table")
    assert abs(table["outputs"]["h_min"] - ROOT8) <= 1e-9
    assert table["passed"]

    assert main(["--out", str(out), "growth"]) == EXIT_OK
    rec = _check(_report(out, "growth"), "growth-slope")
    assert rec["outputs"]["prefactor"] == 0.5
    assert abs(rec["outputs"]["slope"] - ROOT8) <= 0.06
    _done(record_property, t0, 30.0)


# -- 2: one factor against the exact ball volume ---------------------------


def test_criterion_2_single_factor_closed_form(record_property):
    t0 = time.perf_counter()
    est = entropy_growth_numeric((3,), 10.0, 20.0)
    assert abs(est.slope - 2.0) <= 0.02
    # exact ball volume pi (sinh 2 rho - 2 rho); the numeric route
    # drops the constant 4 pi angular factor
    rho = np.asarray(est.rho)
    exact = np.log(np.pi) + np.log(np.sinh(2.0 * rho) - 2.0 * rho)
    closed_slope = float(np.polyfit(rho, exact, 1)[0])
    assert abs(est.slope - closed_slope) <= 0.02
    aligned = np.asarray(est.log_volume) + np.log(4.0 * np.pi)
    assert np.abs(aligned - exact).max() < 0.05
    _done(record_property, t0, 5.0)


# -- 3: determinant inequality campaign ------------------------------------


def test_criterion_3_determinant_inequality_campaign(record_property):
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        camp = bcg_campaign(n, 10_000, seed=n)
        assert camp["count"] == 10_000
        assert camp["violations"] == 0
        assert camp["max_ratio"] <= camp["bound"] * (1 + 1e-12)
        eq = bcg_inequality_check(np.eye(n) / n, n, n - 1)
        assert eq.holds
        assert abs(eq.equality_gap) <= 1e-9
    _done(record_property, t0, 20.0)


# -- 4: barycenter solver, forms, and the jacobian-type bound --------------


def complement_error(pair, profile):
    """Largest entry of alpha_i sqrt(k) K_ii - (Id - k H_ii) over the
    diagonal factor blocks: the per-factor reduction K_i = Id - H_i."""
    k, err, start = profile.k, 0.0, 0
    for a, m in zip(profile.alpha, profile.dims):
        sl = slice(start, start + m)
        k_ii = a * np.sqrt(k) * pair.K[sl, sl]
        err = max(err, np.abs(k_ii - (np.eye(m) - k * pair.H[sl, sl])).max())
        start += m
    return err


def test_criterion_4_barycenter_suite(record_property, profile33, quads33):
    t0 = time.perf_counter()

    # fixed point of a single atom
    gen = np.random.default_rng(41)
    p = ProductPoint(tuple(random_point(gen, 3, 1.5) for _ in range(2)))
    atom = WeightedConfiguration((p,), (1.0,), profile33)
    sol = BarycenterProblem(atom, quads33).solve(tol=1e-9)
    assert sol.converged
    assert product_dist(sol.point, p, profile33) < 1e-5

    # symmetric two-atom pair against a 1-d line search
    pair = WeightedConfiguration(
        atoms=(ProductPoint((radial(1.6), o3)), ProductPoint((o3, o3))),
        weights=(0.5, 0.5),
        profile=profile33,
    )
    problem = BarycenterProblem(pair, quads33)
    mid = problem.solve(tol=1e-10)

    def along(t):
        return problem.value_and_grad(ProductPoint((radial(t), o3)))[0]

    res = minimize_scalar(
        along, bounds=(0.0, 1.6), method="bounded", options={"xatol": 1e-10}
    )
    t_star = float(res.x)
    assert product_dist(
        mid.point, ProductPoint((radial(t_star), o3)), profile33
    ) < 2e-4

    # form identities at the two-atom solution
    forms = problem.forms(mid.point)
    assert abs(np.trace(forms.H) - 1.0) <= 2e-3
    assert complement_error(forms, profile33) <= 5e-3

    # bound holds across a 50-configuration sweep
    gen = np.random.default_rng(42)
    ratios = []
    for idx in range(50):
        config = random_configuration(
            gen, profile33, int(gen.integers(2, 6)), spread=1.5
        )
        prob = BarycenterProblem(config, quads33)
        sol = prob.solve(tol=1e-8)
        assert sol.converged
        rep = jacobian_bound_report(prob, solution=sol)
        assert rep.holds, f"configuration {idx} breaks the bound"
        ratios.append(rep.estimate / rep.bound)
        if idx < 10:
            fp = prob.forms(sol.point)
            assert abs(np.trace(fp.H) - 1.0) <= 2e-3
            assert complement_error(fp, profile33) <= 5e-3
    assert max(ratios) <= 1.0

    # the single-atom symmetric configuration attains the bound
    rep = jacobian_bound_report(
        BarycenterProblem(
            WeightedConfiguration((ProductPoint((o3, o3)),), (1.0,), profile33),
            quads33,
        )
    )
    assert abs(rep.bound - 27.0) <= 1e-9
    assert abs(rep.estimate - rep.bound) <= 0.02 * rep.bound
    _done(record_property, t0, 180.0)


# -- 5: energy of the discrete sphere-valued map ---------------------------


def test_criterion_5_natural_map_energy(record_property, profile33):
    t0 = time.perf_counter()
    c = 1.1 * profile33.h_min
    gen = np.random.default_rng(53)
    checked = 0
    for _ in range(4):
        pts = [
            ProductPoint(tuple(random_point(gen, 3, 1.2) for _ in range(2)))
            for _ in range(8)
        ]
        for _ in range(25):
            x = ProductPoint(
                tuple(random_point(gen, 3, 1.0) for _ in range(2))
            )
            res = natural_map_energy(pts, c, x, profile33)
            assert res.energy <= res.bound * 1.05
            assert res.holds
            checked += 1
    assert checked == 100
    _done(record_property, t0, 60.0)


# -- 6: corner-cutting witness exactly below the cosine threshold ----------


def test_criterion_6_turning_angle_witness_grid(record_property):
    t0 = time.perf_counter()
    mismatches = []
    tested = 0
    for eta in np.linspace(0.05, 1.0, 50):
        for alpha in np.linspace(0.01, math.pi / 2 - 0.01, 50):
            if abs(math.cos(alpha) - eta) < 1e-3:
                continue
            tested += 1
            w = shorter_path_witness(float(eta), float(alpha))
            if (w is not None) != (math.cos(alpha) < eta):
                mismatches.append((float(eta), float(alpha)))
    assert tested > 2300
    assert mismatches == []
    _done(record_property, t0, 5.0)


# -- 7: growth-rate sweep, clean region, branching minimizers --------------


def test_criterion_7_shortcut_entropy_sweep(record_property):
    t0 = time.perf_counter()
    wide = dict(segment=(1.0, 16.0, 0.0), extent=18.0, orientation="diagonal")
    slopes = {}
    for eta in (0.5, 0.8, 0.99, 1.0):
        est = eta_entropy_estimate(ShortcutModel(eta=eta, **wide), 8.0, 14.0)
        slopes[eta] = est.slope
    assert slopes[1.0] - slopes[0.99] <= 0.10
    for lo, hi in ((0.5, 0.8), (0.8, 0.99), (0.99, 1.0)):
        assert slopes[lo] >= slopes[hi] - 1e-9, slopes

    region = r_c_verify(ShortcutModel(eta=0.99), 0.05)
    assert region.equal_within_slack
    assert region.violations == ()

    rep = branching_geodesic_demo(ShortcutModel(eta=0.5), (2.2, 0.9), (5.8, 0.85))
    assert rep.used
    assert rep.length_difference <= 1e-9
    assert rep.reflected_path.total_length == rep.path.total_length or abs(
        rep.reflected_path.total_length - rep.path.total_length
    ) <= 1e-9
    assert rep.shared_length > 0.0
    _done(record_property, t0, 600.0)


# -- 8: net-graph approximation and exact GH on small spaces ---------------


def _run_approximation(target, eps):
    net = greedy_net(target, eps / 4.0)
    bound = min(eps / 4.0, eps * eps / (6.0 * target.diameter))
    g = build_net_graph(net, net, target, eps, 0.8 * bound, target.size)
    return approximation_check(g, net, target, eps)


def _plane_space(gen, n):
    pts = gen.uniform(0.0, 2.0, (n, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return FiniteMetricSpace((d + d.T) / 2.0)


def _gh_by_maps(dx, dy):
    # full enumeration over pairs of maps f: X -> Y, g: Y -> X; the
    # union of their graphs realises the optimal relation, so the
    # minimum over pairs is the exact distance
    nx, ny = dx.shape[0], dy.shape[0]
    fs = np.array(list(itertools.product(range(ny), repeat=nx)))
    gs = np.array(list(itertools.product(range(nx), repeat=ny)))
    a = np.abs(dy[fs[:, :, None], fs[:, None, :]] - dx[None]).max((1, 2))
    b = np.abs(dx[gs[:, :, None], gs[:, None, :]] - dy[None]).max((1, 2))
    dxg = dx[:, gs].transpose(1, 0, 2)
    dyf = dy[fs]
    cross = np.abs(dxg[None, :] - dyf[:, None]).max((2, 3))
    dis = np.maximum(np.maximum.outer(a, b), cross)
    return float(dis.min()) / 2.0


def _gh_by_relations(dx, dy):
    # independent route: every covering relation on X x Y as a bitmask
    nx, ny = dx.shape[0], dy.shape[0]
    pairs = [(i, j) for i in range(nx) for j in range(ny)]
    best = math.inf
    for mask in range(1, 1 << len(pairs)):
        rel = [pairs[p] for p in range(len(pairs)) if mask >> p & 1]
        if len({i for i, _ in rel}) < nx or len({j for _, j in rel}) < ny:
            continue
        dis = max(
            abs(dx[i1, i2] - dy[j1, j2])
            for (i1, j1) in rel
            for (i2, j2) in rel
        )
        if dis < best:
            best = dis
    return best / 2.0


def test_criterion_8_net_approximation_and_gh(record_property):
    t0 = time.perf_counter()
    circ = _run_approximation(circle_space(800), 0.3)
    assert circ.passed and circ.connected and circ.interval_ok
    assert circ.max_deviation <= 0.3
    torus = _run_approximation(torus_grid_space(24, 24), 0.3)
    assert torus.passed and torus.connected and torus.interval_ok
    assert torus.max_deviation <= 0.3

    gen = np.random.default_rng(8)
    for nx, ny in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)):
        for _ in range(2):
            X, Y = _plane_space(gen, nx), _plane_space(gen, ny)
            want = _gh_by_maps(X.dist, Y.dist)
            if nx * ny <= 12:
                alt = _gh_by_relations(X.dist, Y.dist)
                assert abs(alt - want) <= 1e-12
            got = gh_bounds(X, Y)
            assert got.exact
            assert abs(got.upper - want) <= 1e-12
            assert got.lower <= want + 1e-12
    _done(record_property, t0, 60.0)


# -- 9: byte-identical reruns ----------------------------------------------


def test_criterion_9_byte_identical_reports(record_property, tmp_path):
    t0 = time.perf_counter()
    for sub, extra in (("growth", []), ("bcg", ["--seed", "11"])):
        blobs = []
        for leg in ("a", "b"):
            out = tmp_path / f"{sub}-{leg}"
            assert main(extra + ["--out", str(out), sub]) == EXIT_OK
            blobs.append((out / f"{sub}_report.json").read_bytes())
        assert blobs[0] == blobs[1]
    _done(record_property, t0, None)
