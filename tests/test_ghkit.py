"""Finite metric spaces, nets, net graphs, GH bounds, and the weighted
discrepancy, each checked against a route the implementation does not
share: the n^3 tensor and pdist's all-pairs Chebyshev test for the
triangle check, Floyd-Warshall for
shortest paths, full correspondence enumeration and the full-recompute
greedy search for GH, and the dense primal transport program, the
transport LP on all routes, the Kantorovich-Rubinstein dual LP and the
circle's closed-form W1 for the discrepancy."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from minent import ghkit
from minent.ghkit import (
    ApproximationReport,
    FiniteMetricSpace,
    NetGraph,
    approximation_check,
    build_net_graph,
    circle_space,
    gh_bounds,
    graph_metric,
    greedy_net,
    measure_compare,
    random_tree_space,
    torus_grid_space,
)
from oracles import chebyshev_rejects, chord_circle, restrict, torus_two_matrix


def plane_space(rng, n, scale=1.0):
    pts = rng.uniform(0.0, scale, size=(n, 2))
    d = np.hypot(
        pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1]
    )
    return FiniteMetricSpace(d)


def two_point_space(d, weights=None):
    return FiniteMetricSpace(np.array([[0.0, d], [d, 0.0]]), weights)


def floyd_warshall(n, edges):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in edges:
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def brute_gh(dx, dy):
    """Minimum correspondence distortion by enumerating every covering
    relation; feasible for nx * ny <= 12."""
    nx, ny = dx.shape[0], dy.shape[0]
    pairs = [(i, j) for i in range(nx) for j in range(ny)]
    best = math.inf
    for mask in range(1, 1 << len(pairs)):
        sel = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        if {p[0] for p in sel} != set(range(nx)):
            continue
        if {p[1] for p in sel} != set(range(ny)):
            continue
        m = 0.0
        for (i, j), (k, l) in itertools.combinations_with_replacement(sel, 2):
            m = max(m, abs(dx[i, k] - dy[j, l]))
            if m >= best:
                break
        best = min(best, m)
    return best / 2.0


# -- space validation ------------------------------------------------------


def test_space_basic_properties():
    X = two_point_space(2.0)
    assert X.size == 2
    assert X.diameter == 2.0
    assert X.effective_weights() == pytest.approx([0.5, 0.5])


def test_space_explicit_weights():
    X = two_point_space(1.0, weights=(0.25, 0.75))
    assert X.effective_weights() == pytest.approx([0.25, 0.75])


def test_space_restrict_renormalizes():
    d = circle_space(6).dist
    X = FiniteMetricSpace(d, np.array([0.4, 0.1, 0.1, 0.1, 0.1, 0.2]))
    sub = restrict(X, [0, 5])
    assert sub.size == 2
    assert sub.weights == pytest.approx([2.0 / 3.0, 1.0 / 3.0])


def test_space_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        FiniteMetricSpace(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="empty"):
        FiniteMetricSpace(np.zeros((0, 0)))


def test_space_rejects_bad_matrices():
    with pytest.raises(ValueError, match="diagonal"):
        FiniteMetricSpace(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        FiniteMetricSpace(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_space_rejects_nonfinite_distances():
    # NaN fails every comparison and inf - inf is NaN, so both slipped
    # past the symmetry, sign and triangle checks
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            FiniteMetricSpace(np.array([[0.0, bad], [bad, 0.0]]))


def test_space_rejects_triangle_violation():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=r"triangle .* at pair \(0, 2\): excess 3\.0$"):
        FiniteMetricSpace(d)


def tensor_rejects(d):
    """The n x n x n reference for the triangle check, in slabs of 16
    middle points."""
    via = np.full_like(d, np.inf)
    for k in range(0, len(d), 16):
        slab = d[:, k : k + 16, None] + d[None, k : k + 16, :]
        np.minimum(via, slab.min(axis=1), out=via)
    return bool((d - via).max() > 1e-9)


def builds(d):
    try:
        FiniteMetricSpace(d)
    except ValueError as e:
        assert "triangle" in str(e)
        return False
    return True


def min_plus_closure(d):
    d = d.copy()
    for k in range(d.shape[0]):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


@given(
    n=st.integers(1, 6),
    upper=st.lists(st.floats(0.0, 4.0), min_size=15, max_size=15),
    close=st.booleans(),
    push=st.sampled_from([0.0, 0.5e-9, 2e-9]),
    at=st.integers(0, 14),
)
@settings(max_examples=200, deadline=None)
def test_triangle_check_matches_tensor_oracle(n, upper, close, push, at):
    iu = np.triu_indices(n, k=1)
    d = np.zeros((n, n))
    d[iu] = upper[: iu[0].size]
    d = d + d.T
    if close:
        d = min_plus_closure(d)
    if iu[0].size:
        i, j = iu[0][at % iu[0].size], iu[1][at % iu[0].size]
        d[i, j] += push
        d[j, i] = d[i, j]
    assert builds(d) == (not tensor_rejects(d))


@given(
    n=st.integers(1, 6),
    upper=st.lists(st.floats(0.0, 4.0), min_size=15, max_size=15),
    skew=st.lists(st.floats(-0.9e-12, 0.9e-12), min_size=15, max_size=15),
    close=st.booleans(),
    push=st.sampled_from([0.0, 0.5e-9, 2e-9]),
    at=st.integers(0, 14),
)
@settings(max_examples=200, deadline=None)
def test_triangle_check_on_near_symmetric_input(n, upper, skew, close, push, at):
    # d_ji = d_ij + skew: the space stores and checks the symmetrized
    # matrix, bit-symmetric, so the oracle runs on that one
    iu = np.triu_indices(n, k=1)
    d = np.zeros((n, n))
    d[iu] = upper[: iu[0].size]
    d = d + d.T
    if close:
        d = min_plus_closure(d)
    if iu[0].size:
        i, j = iu[0][at % iu[0].size], iu[1][at % iu[0].size]
        d[i, j] += push
        d[j, i] = d[i, j]
    d[iu[1], iu[0]] = np.maximum(d[iu] + skew[: iu[0].size], 0.0)
    sym = np.where(d == d.T, d, 0.5 * d + 0.5 * d.T)
    assert np.array_equal(sym, sym.T)
    ok = builds(d)
    assert ok == (not tensor_rejects(sym))
    if ok:
        assert np.array_equal(FiniteMetricSpace(d).dist, sym)


def test_triangle_check_tolerance_on_tight_triangles():
    # points on a line: every ordered triple is tight, exactly
    x = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
    d = np.abs(x[:, None] - x[None, :])
    assert builds(d)
    for push, ok in ((0.5e-9, True), (2e-9, False)):
        pushed = d.copy()
        pushed[0, 4] += push
        pushed[4, 0] += push
        assert tensor_rejects(pushed) == (not ok)
        assert builds(pushed) == ok
    # two 0.6e-9 violations on one path: each triangle is within the
    # tolerance, so a shortest-path closure, which adds them, is stricter
    chain = d.copy()
    for i, j in ((0, 1), (2, 3)):
        chain[i, j] -= 0.6e-9
        chain[j, i] = chain[i, j]
    assert not tensor_rejects(chain)
    assert builds(chain)


R, C = ghkit._CHECK_ROWS, ghkit._CHECK_COLS


def tight_line(n):
    """n points on a line at integer gaps of 1 to 3: every triple is a
    tight triangle, in exact arithmetic."""
    x = np.cumsum(1.0 + np.arange(n) % 3)
    return np.abs(x[:, None] - x[None, :])


def one_bad_triangle(n, long_side, hub, push):
    """Distances 1, except 2 from the ends of long_side to every point
    but hub: the one triangle (long_side, hub) is off by push."""
    p, q = long_side
    d = np.ones((n, n))
    d[[p, q], :] = d[:, [p, q]] = 2.0
    d[[p, q], hub] = d[hub, [p, q]] = 1.0
    d[p, q] = d[q, p] = 2.0 + push
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("n", sorted({2, 3, R - 1, R, R + 1, C, C + 1, 2 * C + 3}))
def test_triangle_check_at_block_edges(n):
    d = tight_line(n)
    assert builds(d) and not chebyshev_rejects(d)
    pairs = {(0, n - 1), (R - 1, R), (R, R + 1), (C - 1, C), (n - 2, n - 1)}
    for p, q in sorted((p, q) for p, q in pairs if q < n):
        # with a point between them, p and q are the long side of a
        # tight triangle; adjacent, they are a short side of one
        sign = 1.0 if q - p > 1 else -1.0
        for push, ok in ((0.5e-9, True), (2e-9, n < 3)):
            pushed = d.copy()
            pushed[p, q] += sign * push
            pushed[q, p] = pushed[p, q]
            assert builds(pushed) == ok
            assert chebyshev_rejects(pushed) == tensor_rejects(pushed) == (not ok)
    # a violated triangle seen only from its lowest vertex, the last row
    # of a row block: the rows of its other two vertices start later
    for low in (R - 1, C - 1):
        if low + 2 >= n:
            continue
        for long_side, hub in (((low, n - 1), low + 1), ((low + 1, n - 1), low)):
            assert builds(one_bad_triangle(n, long_side, hub, 0.5e-9))
            bad = one_bad_triangle(n, long_side, hub, 2e-9)
            assert chebyshev_rejects(bad) and tensor_rejects(bad)
            with pytest.raises(ValueError, match=rf"at pair \({long_side[0]}, {n - 1}\)"):
                FiniteMetricSpace(bad)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_symmetry_check_across_row_blocks(sign):
    # pairs whose entries lie in two row blocks: the gap d_ij - d_ji of
    # a block of upper rows has either sign
    d = circle_space(2 * R + 1).dist
    for i, j in ((0, R), (R - 1, R), (R - 1, 2 * R)):
        bad = d.copy()
        bad[i, j] += sign * 2e-12
        with pytest.raises(ValueError, match="symmetric"):
            FiniteMetricSpace(bad)
        near = d.copy()
        near[i, j] += sign * 0.5e-12
        stored = FiniteMetricSpace(near).dist
        assert stored[i, j] == stored[j, i] == 0.5 * near[i, j] + 0.5 * near[j, i]
        moved = stored != d
        moved[[i, j], [j, i]] = False
        assert not moved.any()


def test_triangle_check_work_is_a_third_of_the_cube(monkeypatch):
    # each block of R rows a <= i < a + R meets the pairs j >= a over the
    # columns k > a; summed, at most n^3/3 + R n^2 + R^2 n element steps,
    # below the n^2 (n - 1)/2 of every pair over every column
    steps = []
    real = ghkit.cdist

    def counted(XA, XB, metric):
        steps.append(len(XA) * len(XB) * XA.shape[1])
        return real(XA, XB, metric)

    monkeypatch.setattr(ghkit, "cdist", counted)
    n = 300
    d = circle_space(n).dist
    assert np.array_equal(FiniteMetricSpace(d).dist, d)
    bound = n**3 / 3 + R * n**2 + R**2 * n
    assert bound < n * n * (n - 1) / 2
    assert sum(steps) <= bound


def test_space_validation_memory_is_quadratic():
    # the n^3 tensor would need 8 GB at n = 1000; the check must fit in
    # a 1.5 GB address space next to the interpreter and its libraries
    limit = 1536 * 2**20
    code = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from minent.ghkit import FiniteMetricSpace, circle_space\n"
        "print(FiniteMetricSpace(circle_space(1000).dist).size)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "1000"


def test_space_validation_peaks_near_one_matrix():
    # the stored copy plus the finiteness mask (one byte per entry) and
    # one block of the checks; measured 1.126 x at n = 800, and the
    # margin admits a copy of one _CHECK_COLS-row column block (0.16 x)
    d = circle_space(800).dist
    tracemalloc.start()
    try:
        FiniteMetricSpace(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * d.nbytes


@pytest.mark.parametrize(
    "build,points,blocks",
    [(lambda: circle_space(1024), 1024, 1), (lambda: torus_grid_space(24, 24), 576, 2)],
    ids=["circle-1024", "torus-24"],
)
def test_sample_space_build_peaks_at_its_matrices(build, points, blocks):
    # the model [ghnet] circle and torus are bounded by: 8 B for each
    # entry of the one N x N matrix, plus the _FOLD_ROWS blocks alive at
    # once, the circle's fold temporary and, for the torus, a y-gap block
    # and its fold temporary (measured 1.0636 x the matrix at circle 1024,
    # 1.2262 x at torus 24)
    model = 8 * points**2
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model <= peak <= model + 8 * blocks * ghkit._FOLD_ROWS * points + 2**16


def test_space_rejects_bad_weights():
    d = two_point_space(1.0).dist
    with pytest.raises(ValueError, match="probability"):
        FiniteMetricSpace(d, np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="probability"):
        FiniteMetricSpace(d, np.array([-0.2, 1.2]))
    with pytest.raises(ValueError, match="probability"):
        FiniteMetricSpace(d, np.array([1.0]))
    # a NaN fails every comparison, so a check written as "reject if
    # w < 0 or the sum is off" lets it through
    with pytest.raises(ValueError, match="probability"):
        FiniteMetricSpace(d, np.full(2, np.nan))
    with pytest.raises(ValueError, match="probability"):
        FiniteMetricSpace(d, np.array([1.0, np.nan]))


def test_with_weights_matches_the_constructor_without_a_check(monkeypatch):
    d = random_tree_space(40, seed=3).dist
    w = np.random.default_rng(5).dirichlet(np.ones(40))
    X = FiniteMetricSpace(d)
    want = FiniteMetricSpace(d, w)

    def no_check(*args):
        raise AssertionError("the checked matrix was checked again")

    monkeypatch.setattr(ghkit, "cdist", no_check)
    Y = X.with_weights(w)
    assert Y.dist is X.dist and X.weights is None
    assert Y.dist.tobytes() == want.dist.tobytes()
    assert Y.weights.tobytes() == want.weights.tobytes()
    assert Y.with_weights(None).weights is None
    assert measure_compare(want, Y) == 0.0


@pytest.mark.parametrize(
    "weights",
    [[0.5, 0.6], [-0.2, 1.2], [1.0], [np.nan, np.nan], [1.0, np.nan]],
)
def test_with_weights_rejects_what_the_constructor_rejects(weights):
    d = two_point_space(1.0).dist
    with pytest.raises(ValueError) as built:
        FiniteMetricSpace(d, np.array(weights))
    with pytest.raises(ValueError) as reweighted:
        FiniteMetricSpace(d).with_weights(np.array(weights))
    assert str(reweighted.value) == str(built.value)
    assert "probability" in str(built.value)


def test_space_restrict_onto_zero_weight_rejected():
    X = FiniteMetricSpace(circle_space(3).dist, np.array([1.0, 0.0, 0.0]))
    # renormalizing would divide by 0 and leave NaN weights, and
    # measure_compare of such a space with itself would report 0.0
    with pytest.raises(ValueError, match="no weight"):
        restrict(X, [1, 2])
    assert restrict(X, [0, 2]).weights.tolist() == [1.0, 0.0]


# -- greedy nets -----------------------------------------------------------


def test_net_trivial_cases():
    X = circle_space(20)
    assert greedy_net(X, X.diameter + 1.0) == (0,)
    assert set(greedy_net(X, 1e-9)) == set(range(20))


def test_net_rejects_nonpositive_eps():
    with pytest.raises(ValueError, match="positive"):
        greedy_net(circle_space(8), 0.0)


def test_net_covering_and_separation():
    # 100 chord-metric circle samples at eps 0.2.  Any 0.2-net needs at
    # least ceil(pi / (2 asin(0.1))) / 2 -ish points and a 0.2-separated
    # set holds at most floor(2 pi / (2 asin(0.1))); the nearest-first
    # greedy lands at 25, denser than a farthest-point sweep would
    X = chord_circle(100)
    eps = 0.2
    net = greedy_net(X, eps)
    sub = X.dist[np.ix_(net, net)]
    iu = np.triu_indices(len(net), k=1)
    assert sub[iu].min() >= eps
    assert X.dist[:, net].min(axis=1).max() <= eps
    half_angle = 2.0 * math.asin(eps / 2.0)
    cover_floor = math.floor(2.0 * math.pi / (2.0 * half_angle))
    pack_ceiling = math.floor(2.0 * math.pi / half_angle)
    assert cover_floor <= len(net) <= pack_ceiling
    assert len(net) == 25


def test_net_properties_on_tree():
    X = random_tree_space(60, seed=4)
    eps = 0.3 * X.diameter
    net = greedy_net(X, eps)
    sub = X.dist[np.ix_(net, net)]
    iu = np.triu_indices(len(net), k=1)
    if iu[0].size:
        assert sub[iu].min() >= eps
    assert X.dist[:, net].min(axis=1).max() <= eps


# -- net graphs ------------------------------------------------------------


def test_graph_empty_when_everything_far():
    target = two_point_space(1.0)
    g = build_net_graph((0, 1), (0, 1), target, eps=0.5, delta=0.02, n_count=2)
    assert g.edges == []


def test_graph_single_edge_at_half_eps():
    target = two_point_space(0.15)
    g = build_net_graph((0, 1), (0, 1), target, eps=0.3, delta=0.05, n_count=2)
    assert g.edges == [(0, 1, 0.15)]
    assert g.interval_violations() == []


def test_graph_edge_rule_is_exact():
    # edges are exactly the pairs with target distance below eps
    rng = np.random.default_rng(0)
    target = plane_space(rng, 12)
    eps = 0.5
    bound = min(eps / 4.0, eps * eps / (6.0 * target.diameter))
    g = build_net_graph(
        tuple(range(12)), tuple(range(12)), target, eps, 0.8 * bound, 12
    )
    have = {(u, v) for u, v, _ in g.edges}
    for a in range(12):
        for b in range(a + 1, 12):
            assert ((a, b) in have) == (target.dist[a, b] < eps)
    for u, v, length in g.edges:
        assert length == target.dist[u, v]


def test_graph_delta_precondition():
    target = two_point_space(1.0)
    with pytest.raises(ValueError, match="precondition"):
        build_net_graph((0, 1), (0, 1), target, eps=0.5, delta=0.2, n_count=2)
    with pytest.raises(ValueError, match="precondition"):
        build_net_graph((0, 1), (0, 1), target, eps=0.5, delta=0.0, n_count=2)


def test_graph_rejects_mismatched_phi():
    target = two_point_space(1.0)
    with pytest.raises(ValueError, match="per net vertex"):
        build_net_graph((0, 1), (0,), target, eps=0.5, delta=0.02, n_count=2)
    with pytest.raises(ValueError, match="n_count"):
        build_net_graph((0, 1), (0, 1), target, eps=0.5, delta=0.02, n_count=0)


def test_graph_torus_intervals_validated():
    target = torus_grid_space(10, 10)
    eps = 0.3
    net = greedy_net(target, eps / 4.0)
    bound = min(eps / 4.0, eps * eps / (6.0 * target.diameter))
    g = build_net_graph(net, net, target, eps, 0.8 * bound, target.size)
    assert len(g.edges) > 0
    assert g.interval_violations() == []
    for u, v, length in g.edges:
        d = g.target_dist[u, v]
        low = max(0.0, d - eps / target.size)
        assert low < length < d + g.delta


def net_edges_reference(phi, target, eps):
    """The double loop over net pairs a < b."""
    edges = []
    for a in range(len(phi)):
        for b in range(a + 1, len(phi)):
            d = float(target.dist[phi[a], phi[b]])
            if d < eps:
                edges.append((a, b, d))
    return edges


def interval_violations_reference(G):
    """The loop over edges."""
    bad = []
    for u, v, length in G.edges:
        d = float(G.target_dist[u, v])
        low = max(0.0, d - G.eps / G.n_count)
        high = d + G.delta
        if not (low < length < high):
            bad.append((u, v, length, low, high))
    return bad


def test_graph_edges_match_double_loop():
    rng = np.random.default_rng(67)
    for target in (
        circle_space(300),
        torus_grid_space(12, 12),
        random_tree_space(150, seed=3),
        plane_space(rng, 80),
    ):
        for eps in (0.3, 1.5):
            net = greedy_net(target, eps / 4.0)
            # net vertices mapped to their points out of order
            phi = tuple(rng.permutation(net))
            bound = min(eps / 4.0, eps * eps / (6.0 * target.diameter))
            g = build_net_graph(net, phi, target, eps, 0.8 * bound, len(net))
            want = net_edges_reference(phi, target, eps)
            assert g.edges == want
            assert all(
                type(x) is type(y) for e, f in zip(g.edges, want) for x, y in zip(e, f)
            )


def test_interval_violations_match_loop():
    rng = np.random.default_rng(71)
    far = build_net_graph(
        (0, 1), (0, 1), two_point_space(1.0), eps=0.5, delta=0.02, n_count=2
    )
    assert far.edges == [] and far.interval_violations() == []
    target = torus_grid_space(10, 10)
    eps = 0.3
    net = greedy_net(target, eps / 4.0)
    bound = min(eps / 4.0, eps * eps / (6.0 * target.diameter))
    g = build_net_graph(net, net, target, eps, 0.8 * bound, target.size)
    assert g.interval_violations() == interval_violations_reference(g) == []
    # every third length pushed past either end, to 0 or to NaN
    pushed = range(0, len(g.edges), 3)
    for k in pushed:
        u, v, length = g.edges[k]
        g.edges[k] = (u, v, rng.choice([length + g.delta, length - eps, 0.0, np.nan]))
    bad = g.interval_violations()
    assert [(u, v) for u, v, *_ in bad] == [g.edges[k][:2] for k in pushed]
    assert bad == interval_violations_reference(g)
    g.n_count = 1  # every low end clamped at 0
    clamped = g.interval_violations()
    assert clamped == interval_violations_reference(g)
    assert len(clamped) == len(pushed)
    assert all(low == 0.0 for *_, low, _ in clamped)


def test_graph_mutation_detected():
    target = two_point_space(0.15)
    g = build_net_graph((0, 1), (0, 1), target, eps=0.3, delta=0.05, n_count=2)
    u, v, length = g.edges[0]
    g.edges[0] = (u, v, length + 2.0 * g.delta)
    assert g.interval_violations() != []
    with pytest.raises(ValueError, match="outside its interval"):
        g.validate()
    rep = approximation_check(g, (0, 1), target, 0.3)
    assert not rep.interval_ok
    assert not rep.passed


# -- graph metric ----------------------------------------------------------


def make_graph(n, edges):
    return NetGraph(
        vertices=tuple(range(n)),
        edges=list(edges),
        target_dist=np.zeros((n, n)),
        eps=1.0,
        delta=0.1,
        n_count=1,
    )


def test_graph_metric_single_edge():
    mat = graph_metric(make_graph(2, [(0, 1, 0.7)]))
    assert np.isfinite(mat).all()
    assert mat[0, 1] == pytest.approx(0.7)


def test_graph_metric_triangle():
    mat = graph_metric(make_graph(3, [(0, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0)]))
    assert mat[0, 2] == pytest.approx(5.0)
    assert mat[0, 1] == pytest.approx(3.0)


def test_graph_metric_matches_floyd_warshall():
    rng = np.random.default_rng(2)
    n = 14
    seen = set()
    edges = []

    def add(u, v):
        # sparse assembly would sum parallel edges, which net graphs
        # never contain; keep one length per pair
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v, float(rng.uniform(0.2, 1.5))))

    for u in range(1, n):
        add(u, int(rng.integers(0, u)))
    for _ in range(20):
        u, v = rng.integers(0, n, 2)
        add(int(u), int(v))
    mat = graph_metric(make_graph(n, edges))
    assert np.isfinite(mat).all()
    oracle = floyd_warshall(n, edges)
    assert np.abs(mat - oracle).max() <= 1e-12


def test_graph_metric_flags_disconnection():
    g = make_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    mat = graph_metric(g)
    # inf exactly between the components {0, 1} and {2, 3}
    between = np.add.outer([0, 0, 1, 1], [0, 0, 1, 1]) == 1
    assert np.array_equal(np.isinf(mat), between)
    rep = approximation_check(g, range(4), circle_space(4), 1.0)
    assert not rep.connected and not rep.passed


# -- approximation checks --------------------------------------------------


def run_approximation(target, eps):
    net = greedy_net(target, eps / 4.0)
    bound = min(eps / 4.0, eps * eps / (6.0 * target.diameter))
    g = build_net_graph(net, net, target, eps, 0.8 * bound, target.size)
    return approximation_check(g, net, target, eps)


def test_approximation_circle():
    # arcs add exactly along the circle, so the graph reproduces the
    # target metric to machine precision
    rep = run_approximation(circle_space(200), 0.3)
    assert isinstance(rep, ApproximationReport)
    assert rep.passed
    assert rep.connected and rep.interval_ok
    assert rep.max_deviation <= 1e-12


def test_approximation_torus():
    rep = run_approximation(torus_grid_space(12, 12), 0.35)
    assert rep.passed
    assert rep.max_deviation <= 0.35
    assert rep.step1_max <= 0.35
    assert rep.step2_max <= 0.35


def test_approximation_tree():
    rep = run_approximation(random_tree_space(50, seed=9), 2.0)
    assert rep.passed


def test_approximation_identity_net():
    target = circle_space(24)
    n = target.size
    eps = 0.8
    bound = min(eps / 4.0, eps * eps / (6.0 * target.diameter))
    g = build_net_graph(
        tuple(range(n)), tuple(range(n)), target, eps, 0.8 * bound, n
    )
    rep = approximation_check(g, tuple(range(n)), target, eps)
    assert rep.passed
    assert rep.max_deviation <= 1e-12


# -- GH bounds -------------------------------------------------------------


def test_gh_identical_spaces():
    X = circle_space(7)
    b = gh_bounds(X, X)
    assert b.exact
    assert b.lower == 0.0
    assert b.upper <= 1e-12


def test_gh_relabeled_space():
    rng = np.random.default_rng(6)
    X = plane_space(rng, 7)
    perm = rng.permutation(7)
    Y = FiniteMetricSpace(X.dist[np.ix_(perm, perm)])
    b = gh_bounds(X, Y)
    assert b.lower <= 1e-12
    assert b.upper <= 1e-12


def test_gh_two_point_gap():
    b = gh_bounds(two_point_space(1.0), two_point_space(3.0))
    assert b.exact
    assert b.lower == pytest.approx(1.0, abs=1e-12)
    assert b.upper == pytest.approx(1.0, abs=1e-12)


def test_gh_extra_nearby_point():
    rng = np.random.default_rng(8)
    X = plane_space(rng, 5)
    r = 0.15
    new = X.dist[0] + r
    new[0] = r
    dy = np.zeros((6, 6))
    dy[:5, :5] = X.dist
    dy[5, :5] = new
    dy[:5, 5] = new
    Y = FiniteMetricSpace(dy)
    b = gh_bounds(X, Y)
    assert b.exact
    assert b.upper <= r / 2.0 + 1e-12


def test_gh_matches_brute_force():
    # independent oracle: enumerate every covering correspondence
    rng = np.random.default_rng(13)
    for nx, ny in [(2, 2), (2, 3), (3, 3), (3, 3), (3, 4), (4, 2), (4, 3), (3, 3)]:
        X = plane_space(rng, nx, scale=2.0)
        Y = plane_space(rng, ny, scale=2.0)
        b = gh_bounds(X, Y)
        oracle = brute_gh(X.dist, Y.dist)
        assert b.exact
        assert b.upper == pytest.approx(oracle, abs=1e-12)
        assert b.lower <= b.upper + 1e-12


def test_gh_heuristic_above_cap():
    X = circle_space(12)
    Y = torus_grid_space(4, 3)
    b = gh_bounds(X, Y)
    assert not b.exact
    assert b.lower <= b.upper + 1e-12


def test_gh_lower_bound_allows_non_bijective_correspondences():
    # two eps-pairs 1 apart against an eps-triangle plus a point 1 away:
    # no bijection has distortion below 1 - eps, but sending each pair
    # onto the triangle and the point has distortion eps
    e = 0.1
    dx = np.array(
        [[0.0, e, 1.0, 1.0], [e, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, e], [1.0, 1.0, e, 0.0]]
    )
    dy = np.array(
        [[0.0, e, e, 1.0], [e, 0.0, e, 1.0], [e, e, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]
    )
    b = gh_bounds(FiniteMetricSpace(dx), FiniteMetricSpace(dy))
    assert b.exact
    assert b.lower == 0.0
    assert b.upper == pytest.approx(e / 2.0, abs=1e-15)


def test_gh_permuted_trees_have_zero_bounds():
    # tree distances are not bit-symmetric, so a relabeled copy mixes
    # d_ij and d_ji; both bounds must still be exactly 0
    rng = np.random.default_rng(41)
    for n in range(4, 10):
        for seed in range(3):
            X = random_tree_space(n, seed=100 * n + seed)
            p = rng.permutation(n)
            Y = FiniteMetricSpace(X.dist[np.ix_(p, p)])
            b = gh_bounds(X, Y)
            assert b.exact
            assert b.lower == 0.0
            assert b.upper == 0.0


def test_gh_bounds_never_cross_on_tree_pairs():
    # eccentricities from the row maxima alone exceed the exact upper
    # bound by an ulp on some of these pairs (the first one among them)
    rng = np.random.default_rng(53)
    for t in range(30):
        nx = int(rng.integers(2, 10))
        ny = int(rng.integers(2, 10)) if t % 2 else nx
        X = random_tree_space(nx, seed=int(rng.integers(2**31)))
        Y = random_tree_space(ny, seed=int(rng.integers(2**31)))
        b = gh_bounds(X, Y)
        assert b.exact
        assert b.lower <= b.upper


def test_exact_upper_ignores_orientation():
    # tree distances are symmetric only to the last bit as computed;
    # stored bit-symmetric, transposing both matrices changes nothing
    rng = np.random.default_rng(59)
    for _ in range(150):
        X = random_tree_space(int(rng.integers(2, 9)), seed=int(rng.integers(2**31)))
        Y = random_tree_space(int(rng.integers(2, 9)), seed=int(rng.integers(2**31)))
        assert ghkit._exact_upper(X.dist, Y.dist) == ghkit._exact_upper(
            X.dist.T, Y.dist.T
        )


def greedy_reference(dx, dy):
    """The full-recompute greedy search: every candidate is scored by a
    complete _pair_distortion."""
    nx, ny = dx.shape[0], dy.shape[0]
    ex = np.argsort(-dx.max(axis=1))
    ey = np.argsort(-dy.max(axis=1))
    f = np.zeros(nx, int)
    for rank, i in enumerate(ex):
        f[i] = ey[min(rank, ny - 1)]
    g = np.zeros(ny, int)
    for rank, j in enumerate(ey):
        g[j] = ex[min(rank, nx - 1)]
    for _ in range(2):
        for i in range(nx):
            costs = [
                ghkit._pair_distortion(dx, dy, np.r_[f[:i], [v], f[i + 1:]], g)
                for v in range(ny)
            ]
            f[i] = int(np.argmin(costs))
        for j in range(ny):
            costs = [
                ghkit._pair_distortion(dx, dy, f, np.r_[g[:j], [v], g[j + 1:]])
                for v in range(nx)
            ]
            g[j] = int(np.argmin(costs))
    return f, g, ghkit._pair_distortion(dx, dy, f, g)


def test_greedy_search_on_validated_asymmetric_input():
    # the sweep needs bit-symmetric matrices; FiniteMetricSpace stores a
    # transposed tree matrix and one skewed in the last bits that way
    rng = np.random.default_rng(73)
    for nx, ny in ((15, 22), (25, 25)):
        X = random_tree_space(nx, seed=int(rng.integers(2**31)))
        T = random_tree_space(ny, seed=int(rng.integers(2**31))).dist
        skewed = T * (1.0 + 4e-16 * np.triu(rng.standard_normal((ny, ny)), 1))
        assert not np.array_equal(skewed, skewed.T)
        dx = FiniteMetricSpace(X.dist.T).dist
        for Y in (FiniteMetricSpace(T.T), FiniteMetricSpace(skewed)):
            assert np.array_equal(Y.dist, Y.dist.T)
            f, g, value = greedy_reference(dx, Y.dist)
            got_f, got_g = ghkit._greedy_maps(dx, Y.dist)
            assert np.array_equal(got_f, f)
            assert np.array_equal(got_g, g)
            assert ghkit._greedy_upper(dx, Y.dist) == value


def test_greedy_search_matches_full_recompute():
    rng = np.random.default_rng(43)
    cases = [(12, 17), (17, 12)]
    cases += [(n, n) for n in (10, 20, 30, 40)]
    for nx, ny in cases:
        X = random_tree_space(nx, seed=int(rng.integers(2**31)))
        Y = random_tree_space(ny, seed=int(rng.integers(2**31)))
        ys = [Y.dist]
        if nx == ny:
            p = rng.permutation(nx)
            ys.append(X.dist[np.ix_(p, p)])
        for dy in ys:
            f, g, value = greedy_reference(X.dist, dy)
            got_f, got_g = ghkit._greedy_maps(X.dist, dy)
            assert np.array_equal(got_f, f)
            assert np.array_equal(got_g, g)
            assert ghkit._greedy_upper(X.dist, dy) == value


# -- weighted discrepancy --------------------------------------------------


def transport_cost(dist, mu, nu):
    """Primal optimal transport, the dual route to measure_compare."""
    n = dist.shape[0]
    c = dist.ravel()
    a_eq = []
    for i in range(n):
        row = np.zeros((n, n))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(n):
        row = np.zeros((n, n))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
    b_eq = np.concatenate([mu, nu])
    res = linprog(c, A_eq=np.array(a_eq), b_eq=b_eq, method="highs")
    assert res.success
    return float(res.fun)


def dual_lp(dist, mu, nu):
    """The Kantorovich-Rubinstein dual of W1: sup delta @ f over f with
    f_i - f_j <= d_ij for every ordered pair i != j."""
    n = dist.shape[0]
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    rows = ii.size
    a_ub = csr_matrix(
        (np.tile([1.0, -1.0], rows), np.column_stack([ii, jj]).ravel(),
         np.arange(0, 2 * rows + 1, 2)),
        shape=(rows, n),
    )
    res = linprog(
        nu - mu, A_ub=a_ub, b_ub=dist[ii, jj], bounds=[(None, None)] * n,
        method="highs",
    )
    assert res.success
    return float(-res.fun)


@pytest.mark.parametrize(
    "kind,n", [("circle", 12), ("circle", 120), ("plane", 8), ("plane", 120)]
)
def test_measure_matches_dual_lp(kind, n):
    rng = np.random.default_rng(n)
    S = circle_space(n) if kind == "circle" else plane_space(rng, n)
    for _ in range(3):
        mu, nu = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        got = measure_compare(FiniteMetricSpace(S.dist, mu), FiniteMetricSpace(S.dist, nu))
        assert got == pytest.approx(dual_lp(S.dist, mu, nu), abs=1e-9)


def test_measure_with_mapping_from_smaller_space_matches_dual_lp():
    # two points of Y land on X's point 3, none on 0 or 4
    rng = np.random.default_rng(29)
    X = FiniteMetricSpace(plane_space(rng, 6).dist, rng.dirichlet(np.ones(6)))
    Y = FiniteMetricSpace(plane_space(rng, 4).dist, rng.dirichlet(np.ones(4)))
    mapping = np.array([3, 1, 3, 5])
    nu = np.zeros(6)
    np.add.at(nu, mapping, Y.weights)
    got = measure_compare(X, Y, mapping=mapping)
    assert got == pytest.approx(dual_lp(X.dist, X.weights, nu), abs=1e-9)


def test_measure_weights_off_unit_sum_by_validator_tolerance():
    # the validator admits sums of 1 +- 1e-9; W1 then moves by at most
    # that mass times the diameter, from either side
    rng = np.random.default_rng(31)
    S = plane_space(rng, 30)
    mu, nu = rng.dirichlet(np.ones(30)), rng.dirichlet(np.ones(30))
    want = dual_lp(S.dist, mu, nu)
    for a, b in ((1.0 + 0.9e-9, 1.0 - 0.9e-9), (1.0 - 0.9e-9, 1.0 + 0.9e-9)):
        A = FiniteMetricSpace(S.dist, mu * a)
        B = FiniteMetricSpace(S.dist, nu * b)
        got = measure_compare(A, B)
        assert got == pytest.approx(want, abs=2e-9 * S.diameter)
        assert measure_compare(B, A) == pytest.approx(got, abs=1e-12)


def test_measure_identical_weights():
    X = two_point_space(1.0, weights=(0.3, 0.7))
    assert measure_compare(X, X) == 0.0


def test_measure_two_point_mass_move():
    X = two_point_space(2.5, weights=(1.0, 0.0))
    Y = two_point_space(2.5, weights=(0.0, 1.0))
    assert measure_compare(X, Y) == pytest.approx(2.5, abs=1e-9)


def test_measure_equilateral_point_mass():
    s = 1.2
    d = s * (np.ones((3, 3)) - np.eye(3))
    X = FiniteMetricSpace(d)
    Y = FiniteMetricSpace(d, np.array([1.0, 0.0, 0.0]))
    assert measure_compare(X, Y) == pytest.approx(2.0 * s / 3.0, abs=1e-9)


def test_measure_symmetry():
    rng = np.random.default_rng(17)
    S = plane_space(rng, 5)
    w1 = rng.dirichlet(np.ones(5))
    w2 = rng.dirichlet(np.ones(5))
    A = FiniteMetricSpace(S.dist, w1)
    B = FiniteMetricSpace(S.dist, w2)
    assert measure_compare(A, B) == pytest.approx(measure_compare(B, A), abs=1e-9)


def test_measure_triangle_inequality():
    rng = np.random.default_rng(19)
    S = plane_space(rng, 5)
    ws = [rng.dirichlet(np.ones(5)) for _ in range(3)]
    spaces = [FiniteMetricSpace(S.dist, w) for w in ws]
    d01 = measure_compare(spaces[0], spaces[1])
    d12 = measure_compare(spaces[1], spaces[2])
    d02 = measure_compare(spaces[0], spaces[2])
    assert d02 <= d01 + d12 + 1e-9


def test_measure_matches_primal_transport():
    rng = np.random.default_rng(23)
    S = plane_space(rng, 4)
    mu = rng.dirichlet(np.ones(4))
    nu = rng.dirichlet(np.ones(4))
    A = FiniteMetricSpace(S.dist, mu)
    B = FiniteMetricSpace(S.dist, nu)
    assert measure_compare(A, B) == pytest.approx(
        transport_cost(S.dist, mu, nu), abs=1e-9
    )


def test_measure_with_mapping():
    rng = np.random.default_rng(27)
    X = plane_space(rng, 4)
    Y = two_point_space(1.0, weights=(0.5, 0.5))
    mapping = (0, 2)
    got = measure_compare(X, Y, mapping=mapping)
    nu = np.zeros(4)
    nu[0] += 0.5
    nu[2] += 0.5
    assert got == pytest.approx(
        transport_cost(X.dist, X.effective_weights(), nu), abs=1e-9
    )


def circle_w1(mu, nu):
    """W1 on n equally spaced points of the unit circle: the arc step
    times the L1 distance of the CDF difference from its median, the
    optimal shift of the cut point."""
    f = np.cumsum(mu - nu)
    return 2.0 * math.pi / len(mu) * float(np.abs(f - np.median(f)).sum())


def test_measure_matches_circle_w1_at_scale():
    rng = np.random.default_rng(47)
    n = 200
    S = circle_space(n)
    for _ in range(3):
        mu, nu = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        got = measure_compare(FiniteMetricSpace(S.dist, mu), FiniteMetricSpace(S.dist, nu))
        assert got == pytest.approx(circle_w1(mu, nu), abs=1e-7)


def test_measure_exact_with_small_masses():
    # Dirichlet(0.3) weights put many points far below 1/n; a feasibility
    # tolerance absolute at 1e-7 lets the solver stop 2e-7 (relative)
    # off the circle's W1 on the eighth of these
    n = 200
    S = circle_space(n)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        mu, nu = rng.dirichlet(np.full(n, 0.3)), rng.dirichlet(np.full(n, 0.3))
        got = measure_compare(FiniteMetricSpace(S.dist, mu), FiniteMetricSpace(S.dist, nu))
        assert got == pytest.approx(circle_w1(mu, nu), rel=1e-12)


def full_transport_lp(dist, mu, nu):
    """W1 by the primal transport LP on all p * q surplus-to-deficit
    routes at once, the route measure_compare prices its way around."""
    delta = mu - nu
    if delta.sum() < 0:
        delta = -delta
    src = np.flatnonzero(delta > 0)
    snk = np.flatnonzero(delta < 0)
    if not snk.size:
        return 0.0
    q = snk.size
    var = np.arange(src.size * q)
    ones = np.ones(var.size)
    res = linprog(
        dist[np.ix_(src, snk)].ravel(),
        A_ub=csr_matrix((ones, (var // q, var)), shape=(src.size, var.size)),
        b_ub=delta[src],
        A_eq=csr_matrix((ones, (var % q, var)), shape=(q, var.size)),
        b_eq=-delta[snk],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return float(res.fun)


def _space(kind, n, rng):
    if kind == "circle":
        return circle_space(n)
    if kind == "torus":
        side = round(math.sqrt(n))
        return torus_grid_space(side, side)
    if kind == "tree":
        return random_tree_space(n, seed=int(rng.integers(2**31)))
    return plane_space(rng, n)


def _weights(kind, n, rng):
    if kind == "point":
        return np.eye(n)[rng.integers(n)]
    return rng.dirichlet(np.full(n, kind))


@pytest.mark.parametrize("weights", [1.0, 0.3, 0.05, "point"])
@pytest.mark.parametrize("kind", ["circle", "torus", "tree", "plane"])
@pytest.mark.parametrize("n", [40, 150])
def test_measure_matches_full_lp(kind, n, weights):
    rng = np.random.default_rng([n, len(kind), len(str(weights))])
    S = _space(kind, n, rng)
    for _ in range(2):
        mu, nu = rng.dirichlet(np.ones(S.size)), _weights(weights, S.size, rng)
        got = measure_compare(FiniteMetricSpace(S.dist, mu), FiniteMetricSpace(S.dist, nu))
        assert got == pytest.approx(full_transport_lp(S.dist, mu, nu), rel=1e-12)


@pytest.mark.parametrize("weights", [1.0, 0.05])
def test_measure_many_to_one_mapping_matches_full_lp(weights):
    # 60 points of Y land on at most 60 of X's 150, several on one point
    rng = np.random.default_rng(41)
    X = FiniteMetricSpace(plane_space(rng, 150).dist, rng.dirichlet(np.ones(150)))
    Y = FiniteMetricSpace(plane_space(rng, 60).dist, _weights(weights, 60, rng))
    mapping = rng.integers(150, size=60)
    assert np.unique(mapping).size < 60
    nu = np.zeros(150)
    np.add.at(nu, mapping, Y.weights)
    got = measure_compare(X, Y, mapping=mapping)
    assert got == pytest.approx(full_transport_lp(X.dist, X.weights, nu), rel=1e-12)


@pytest.mark.parametrize("scale,n", [(1e-6, 200), (1e6, 60)])
def test_measure_scaled_circle_matches_closed_form(scale, n):
    # HiGHS's optimality tolerances are absolute; at scale 1e-6 an
    # unscaled solve stopped 1 % off the circle's W1.  At scale 1e6 the
    # rounded distances fail the 1e-9 triangle check beyond 60 points.
    S = FiniteMetricSpace(circle_space(n).dist * scale)
    rng = np.random.default_rng(53)
    for _ in range(3):
        mu, nu = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        got = measure_compare(FiniteMetricSpace(S.dist, mu), FiniteMetricSpace(S.dist, nu))
        assert got == pytest.approx(scale * circle_w1(mu, nu), rel=1e-9)


def test_measure_prices_few_routes(monkeypatch):
    # the full LP has p * q columns; pricing solves a few LPs on a
    # fraction of them
    sizes = []

    def counted(c, **kwargs):
        sizes.append(c.size)
        return linprog(c, **kwargs)

    monkeypatch.setattr(ghkit, "linprog", counted)
    n = 300
    S = circle_space(n)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mu, nu = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        routes = np.count_nonzero(mu > nu) * np.count_nonzero(mu < nu)
        sizes.clear()
        measure_compare(FiniteMetricSpace(S.dist, mu), FiniteMetricSpace(S.dist, nu))
        assert 1 <= len(sizes) <= 4
        assert max(sizes) <= 0.3 * routes


def test_measure_failure_in_a_pricing_round_raises(monkeypatch):
    from types import SimpleNamespace

    calls = []

    def fails_second(c, **kwargs):
        calls.append(c.size)
        if len(calls) == 2:
            return SimpleNamespace(success=False, message="stub failure", fun=0.0)
        return linprog(c, **kwargs)

    monkeypatch.setattr(ghkit, "linprog", fails_second)
    n = 300
    rng = np.random.default_rng(0)
    mu, nu = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    S = circle_space(n)
    with pytest.raises(RuntimeError, match="stub failure"):
        measure_compare(FiniteMetricSpace(S.dist, mu), FiniteMetricSpace(S.dist, nu))
    assert len(calls) == 2


def test_measure_requires_target():
    X = two_point_space(1.0)
    with pytest.raises(ValueError, match="mapping"):
        measure_compare(X, circle_space(5))


# -- sample spaces ---------------------------------------------------------


def test_circle_space_metrics():
    X = circle_space(8)
    assert X.dist[0, 1] == pytest.approx(2.0 * math.pi / 8.0)
    assert X.dist[0, 4] == pytest.approx(math.pi)


def test_torus_space_wraps():
    X = torus_grid_space(4, 4)
    assert X.size == 16
    assert X.dist[0, 3] == pytest.approx(0.25)
    assert X.dist[0, 10] == pytest.approx(math.hypot(0.5, 0.5))


def folded(gap, period):
    return np.minimum(gap, period - gap)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 800])
def test_circle_space_matches_broadcast_formula(n):
    # built in place and in row chunks, by the same elementwise steps
    ang = 2.0 * math.pi * np.arange(n) / n
    want = folded(np.abs(ang[:, None] - ang[None, :]), 2.0 * math.pi)
    assert np.array_equal(circle_space(n).dist, want)


@pytest.mark.parametrize(
    "a,b", [(1, 1), (3, 5), (7, 9), (8, 8), (4, 16), (5, 13), (16, 8), (24, 24)]
)
def test_torus_space_matches_broadcast_formula(a, b):
    # N = a b on both sides of the _FOLD_ROWS blocks, built whole and
    # blocked by the same elementwise steps
    assert np.array_equal(torus_grid_space(a, b).dist, torus_two_matrix(a, b))


def assert_passes_full_check(X):
    """The validating constructor accepts X's matrix and weights and
    stores them unchanged: X holds a bit-symmetric metric."""
    assert X.dist.dtype == np.float64
    assert np.array_equal(X.dist, X.dist.T)
    Y = FiniteMetricSpace(X.dist, X.weights)
    assert np.array_equal(Y.dist, X.dist)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 301])
def test_sample_spaces_pass_full_check(n):
    assert_passes_full_check(circle_space(n))
    assert_passes_full_check(random_tree_space(n, seed=n))
    side = math.isqrt(n)
    assert_passes_full_check(torus_grid_space(side, n // side))
    X = FiniteMetricSpace(
        circle_space(n).dist, np.random.default_rng(n).dirichlet(np.ones(n))
    )
    assert_passes_full_check(restrict(X, np.arange(0, n, 3)))
    for target in (circle_space(n), random_tree_space(n, seed=n + 1)):
        # a sparse net graph, then the complete one
        for frac in (0.5, 1.01):
            eps = frac * target.diameter + 1e-3
            net = greedy_net(target, eps / 4.0)
            bound = eps / 4.0
            if target.diameter > 0:
                bound = min(bound, eps * eps / (6.0 * target.diameter))
            g = build_net_graph(net, net, target, eps, 0.8 * bound, len(net))
            mat = graph_metric(g)
            if np.isfinite(mat).all() or frac > 1:
                assert np.array_equal(mat, mat.T)
                assert np.array_equal(FiniteMetricSpace(mat).dist, mat)


def test_sample_spaces_reject_bad_parameters():
    for bad in (
        lambda: circle_space(0),
        lambda: torus_grid_space(0, 3),
        lambda: random_tree_space(0),
        lambda: restrict(circle_space(5), []),
    ):
        with pytest.raises(ValueError):
            bad()


def test_tree_space_deterministic():
    A = random_tree_space(30, seed=5)
    B = random_tree_space(30, seed=5)
    C = random_tree_space(30, seed=6)
    assert np.array_equal(A.dist, B.dist)
    assert not np.array_equal(A.dist, C.dist)

