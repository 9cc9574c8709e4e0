"""Shortcut-metric laboratory: corner rules, the discounted grid
metric, the diagonal region, growth sweeps, and branching minimizers."""

import dataclasses
import inspect
import json
import math
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import SparseEfficiencyWarning, csr_matrix

from minent import shortcut
from minent.cli import EXIT_CHECK, main
from minent.products import _fit_slope, entropy_growth_numeric
from minent.shortcut import (
    ANGULAR_RESOLUTION,
    METRIC_SLACK,
    BranchingReport,
    CornerPath,
    RegionReport,
    ShortcutModel,
    Witness,
    branching_geodesic_demo,
    corner_path_between,
    d_eta_reduced,
    eta_entropy_estimate,
    r_c_verify,
    reduced_distance,
    shorter_path_witness,
    turning_angle_threshold,
)
from minent.shortcut import _HALF_STENCIL, _GridEngine, _engine, _stencil
from oracles import extract_grid_path, grid_coords, turning_angles

ROOT2 = math.sqrt(2.0)


def small_model(eta=0.7):
    """Cheap 121x121 grid for metric axioms and path extraction."""
    return ShortcutModel(eta=eta, segment=(1.0, 4.0, 1.0), extent=6.0)


def corner_cost(eta, alpha):
    # cost of cutting the unit corner at angle theta, relative to going
    # through it; below eta means the cut wins
    def f(theta):
        return math.cos(alpha) + math.sin(alpha) * math.tan(theta / 2.0)

    return f


# -- model validation ------------------------------------------------------


def test_model_defaults_valid():
    m = ShortcutModel()
    assert m.side == 241
    assert tuple(m.line_frame()[1]) == (1.0, 0.0)


def test_model_rejects_low_dimension():
    with pytest.raises(ValueError, match="at least 3"):
        ShortcutModel(n=2)


@pytest.mark.parametrize("eta", [0.0, -0.3, 1.2])
def test_model_rejects_bad_eta(eta):
    with pytest.raises(ValueError, match="eta"):
        ShortcutModel(eta=eta)


@pytest.mark.parametrize("spacing", [0.06, 0.0, -0.05])
def test_model_rejects_bad_spacing(spacing):
    with pytest.raises(ValueError, match="spacing"):
        ShortcutModel(spacing=spacing)


def test_model_rejects_unknown_orientation():
    with pytest.raises(ValueError, match="orientation"):
        ShortcutModel(orientation="vertical")


def test_model_rejects_segment_outside_extent():
    with pytest.raises(ValueError, match="extent"):
        ShortcutModel(segment=(2.0, 13.0, 1.0))
    with pytest.raises(ValueError, match="extent"):
        ShortcutModel(segment=(6.0, 2.0, 1.0))
    # diagonal segment needs room for the offset at the far end
    with pytest.raises(ValueError, match="extent"):
        ShortcutModel(segment=(1.0, 11.5, 1.0), orientation="diagonal")


def test_model_rejects_off_grid_offset():
    with pytest.raises(ValueError, match="on the grid"):
        ShortcutModel(segment=(2.0, 6.0, 1.013))


def test_diagonal_cheap_direction():
    m = ShortcutModel(segment=(1.0, 11.0, 0.0), orientation="diagonal")
    assert m.line_frame()[1] == pytest.approx((ROOT2 / 2, ROOT2 / 2))


# -- corner paths ----------------------------------------------------------


def test_corner_path_from_vertices():
    p = CornerPath(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), (1.0, 1.0))
    assert p.total_length == pytest.approx(2.0, abs=1e-12)
    assert turning_angles(p) == pytest.approx((math.pi / 2,), abs=1e-12)


def test_corner_path_validates_shape():
    with pytest.raises(ValueError, match="two vertices"):
        CornerPath(((0.0, 0.0),), ())
    with pytest.raises(ValueError, match="one multiplier"):
        CornerPath(((0.0, 0.0), (1.0, 0.0)), (1.0, 1.0))


def stored_path_quantities(vertices, multipliers):
    """Total length and turning angles as the path constructor used to
    compute and store them."""
    v = np.asarray(vertices, dtype=float)
    seg = np.diff(v, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    total = float(np.dot(lengths, np.asarray(multipliers, dtype=float)))
    angles = []
    for s in range(len(seg) - 1):
        a, b = seg[s], seg[s + 1]
        na, nb = np.hypot(*a), np.hypot(*b)
        if na == 0 or nb == 0:
            angles.append(0.0)
            continue
        c = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
        angles.append(math.acos(c))
    return total, tuple(angles)


@pytest.mark.parametrize(
    "orientation, segment, pairs",
    [
        (
            "horizontal",
            (1.0, 4.0, 1.0),
            [((1.2, 0.9), (4.3, 1.05)), ((2.5, 0.5), (3.9, 1.6))],
        ),
        (
            "diagonal",
            (1.0, 4.0, 0.5),
            [((1.2, 1.5), (4.0, 4.6)), ((1.5, 2.5), (3.5, 3.6))],
        ),
    ],
)
def test_corner_path_properties_match_stored_arithmetic(orientation, segment, pairs):
    # bit for bit, on extracted grid paths and on refraction paths
    m = ShortcutModel(eta=0.5, segment=segment, extent=6.0, orientation=orientation)
    paths = []
    for a, b in pairs:
        paths.append(extract_grid_path(m, a, b))
        paths.append(corner_path_between(m, a, b))
    assert None not in paths
    assert any(len(turning_angles(p)) > 1 for p in paths)
    for p in paths:
        assert (p.total_length, turning_angles(p)) == stored_path_quantities(
            p.vertices, p.multipliers
        )


# -- turning angle threshold -----------------------------------------------


def test_threshold_inverts_cosine():
    assert turning_angle_threshold(math.cos(math.pi / 6)) == pytest.approx(
        math.pi / 6, abs=1e-12
    )
    assert turning_angle_threshold(0.95) == pytest.approx(0.31756, abs=1e-5)


def test_threshold_vanishes_near_one():
    assert turning_angle_threshold(1.0 - 1e-9) < 1e-4


@pytest.mark.parametrize("eta", [0.0, 1.0, 1.1, -0.2])
def test_threshold_domain(eta):
    # eta lies in (0, 1]; at eta = 1 no line is cheaper, and arccos(1) = 0
    if eta == 1.0:
        assert turning_angle_threshold(eta) == 0.0
    else:
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            turning_angle_threshold(eta)


# -- shortcut witness ------------------------------------------------------


def test_witness_exists_and_checks_out():
    eta, alpha = 0.95, 0.4
    start, corner = (-1.0, 0.0), (0.0, 0.0)
    w = shorter_path_witness(eta, alpha)
    assert isinstance(w, Witness)
    assert 0.0 < w.theta < alpha
    # the cut must genuinely beat the cornered route, by Euclidean
    # arithmetic on the returned end point and the fixed start and corner
    pa = math.dist(start, corner)
    aq = math.dist(corner, w.end)
    pq = math.dist(start, w.end)
    assert pa == pytest.approx(1.0, abs=1e-12)
    assert pq < pa + eta * aq
    assert w.savings == pytest.approx(pa + eta * aq - pq, abs=1e-12)
    assert w.savings > 0.0
    # law of sines fixes the exit leg
    assert aq == pytest.approx(
        math.sin(w.theta) / math.sin(alpha - w.theta), abs=1e-12
    )
    f = corner_cost(eta, alpha)
    assert f(w.theta) < eta


def test_witness_absent_when_corner_cheap():
    assert shorter_path_witness(0.5, 0.4) is None
    # flat corner: no cut can help regardless of eta
    assert shorter_path_witness(0.9, 1e-4) is None


def test_witness_at_full_cost_line():
    # eta = 1 still admits a strict cut by the triangle inequality
    w = shorter_path_witness(1.0, 0.4)
    assert w is not None and w.savings > 0.0


def test_witness_matches_cut_cost_scan():
    # brute scan of the cut cost over theta decides existence; the
    # constructor must agree on both sides of the boundary
    for eta, alpha in [(0.95, 0.4), (0.9, 0.6), (0.6, 1.2), (0.5, 0.4), (0.8, 0.5)]:
        f = corner_cost(eta, alpha)
        grid = np.linspace(1e-4, alpha - 1e-4, 2000)
        beats = min(f(t) for t in grid) < eta
        assert (shorter_path_witness(eta, alpha) is not None) == beats


def test_witness_iff_cosine_below_eta():
    mism = 0
    for eta in np.linspace(0.05, 0.999, 21):
        for alpha in np.linspace(0.05, 1.5, 21):
            if abs(math.cos(alpha) - eta) < 1e-3:
                continue
            w = shorter_path_witness(float(eta), float(alpha))
            if (w is not None) != (math.cos(alpha) < eta):
                mism += 1
    assert mism == 0


def test_witness_domain():
    with pytest.raises(ValueError, match="corner angle"):
        shorter_path_witness(0.9, 0.0)
    with pytest.raises(ValueError, match="corner angle"):
        shorter_path_witness(0.9, math.pi / 2)
    with pytest.raises(ValueError, match="eta"):
        shorter_path_witness(0.0, 0.4)
    with pytest.raises(ValueError, match="eta"):
        shorter_path_witness(1.3, 0.4)


# -- grid metric -----------------------------------------------------------


def worst_stencil_ratio(model):
    """Largest grid distance from the origin over the closed form, at
    the nodes at radius at least 2."""
    eng = _GridEngine(model)
    nodes = grid_coords(model, np.arange(model.side**2))
    far = np.hypot(*nodes.T) >= 2.0
    exact = reduced_distance(model, (0.0, 0.0), nodes[far])
    return float((eng.field(0)[far] / exact).max())


def test_slack_matches_stencil_geometry():
    # worst direction bisects the largest angular gap of the stencil,
    # so the distortion is sec(atan(1/3)/2) - 1; an extent-12 field
    # comes within 1e-8 of it, from below
    slack = worst_stencil_ratio(ShortcutModel(eta=1.0)) - 1.0
    assert slack <= METRIC_SLACK
    assert abs(slack - (1.0 / math.cos(ANGULAR_RESOLUTION / 2.0) - 1.0)) < 1e-7
    assert METRIC_SLACK == pytest.approx(0.01308145, abs=1e-7)
    assert METRIC_SLACK < 0.02


def test_slack_ignores_the_shortcut():
    # the cheap segment changes distances, not the stencil's distortion
    # of them
    assert worst_stencil_ratio(ShortcutModel(eta=0.5)) == worst_stencil_ratio(
        ShortcutModel(eta=1.0)
    )


def test_plain_grid_tracks_euclidean():
    m = small_model(eta=1.0)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 12:
        a = tuple(rng.integers(0, 121, 2) * 0.05)
        b = tuple(rng.integers(0, 121, 2) * 0.05)
        e = math.dist(a, b)
        if e < 0.5:
            continue
        d = d_eta_reduced(m, a, b)
        assert d >= e * (1.0 - 1e-12)
        assert d <= e * (1.0 + METRIC_SLACK) * (1.0 + 1e-9)
        checked += 1


def test_same_node_distance_zero():
    m = small_model()
    assert d_eta_reduced(m, (1.001, 1.001), (0.999, 0.999)) == 0.0


def test_out_of_extent_rejected():
    with pytest.raises(ValueError, match="extent"):
        d_eta_reduced(small_model(), (0.0, 0.0), (7.0, 0.0))


def test_metric_symmetry_and_path_consistency():
    # force the reverse field by extracting the path from b, so both
    # directions run their own search instead of sharing a cache entry
    m = small_model()
    rng = np.random.default_rng(3)
    for _ in range(6):
        a = tuple(rng.integers(0, 121, 2) * 0.05)
        b = tuple(rng.integers(0, 121, 2) * 0.05)
        if a == b:
            continue
        d_ab = d_eta_reduced(m, a, b)
        back = extract_grid_path(m, b, a)
        d_ba = d_eta_reduced(m, b, a)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert back.total_length == pytest.approx(d_ab, abs=1e-10)


def test_metric_triangle_inequality():
    # graph shortest paths satisfy the triangle inequality outright;
    # no slack allowance is needed
    m = small_model()
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b, c = (tuple(rng.integers(0, 121, 2) * 0.05) for _ in range(3))
        d_ab = d_eta_reduced(m, a, b)
        d_bc = d_eta_reduced(m, b, c)
        d_ac = d_eta_reduced(m, a, c)
        assert d_ac <= d_ab + d_bc + 1e-9


def test_on_segment_discount():
    # both endpooints on the cheap line: travel costs sqrt(eta) per
    # unit, so the margin over Euclidean is (1 - sqrt(eta)) times the
    # separation, less stencil slack
    m = ShortcutModel(eta=0.5)
    d = d_eta_reduced(m, (2.5, 1.0), (5.5, 1.0))
    assert d <= math.sqrt(0.5) * 3.0 + 1e-9
    assert 3.0 - d >= (1.0 - math.sqrt(0.5)) * 3.0 * (1.0 - METRIC_SLACK)


def test_on_line_discount_beyond_ends():
    # collinear points past the segment ends pick up the discount on
    # the full overlap with the segment
    m = ShortcutModel(eta=0.5)
    d = d_eta_reduced(m, (1.5, 1.0), (6.5, 1.0))
    assert 5.0 - d >= (1.0 - math.sqrt(0.5)) * 4.0 * (1.0 - METRIC_SLACK)


def test_across_segment_discount_vs_refraction_oracle():
    # symmetric pair one spacing off the line.  The approach legs eat
    # 2 h (1 - sqrt(eta)) / sqrt(1 - eta) of the ideal margin at
    # clearance h, so that correction joins the overlap bound; the grid
    # value itself must match the hand-built refraction path
    eta, h = 0.5, 0.05
    m = ShortcutModel(eta=eta)
    a, b = (2.5, 1.0 - h), (5.5, 1.0 + h)
    e = math.dist(a, b)
    d = d_eta_reduced(m, a, b)
    oracle = corner_path_between(m, a, b)
    assert oracle is not None
    assert d >= oracle.total_length * (1.0 - 1e-12)
    assert d <= oracle.total_length * (1.0 + METRIC_SLACK)
    overlap = math.dist(oracle.vertices[1], oracle.vertices[2])
    ideal = (1.0 - math.sqrt(eta)) * overlap * (1.0 - METRIC_SLACK)
    legs = 2.0 * h * (1.0 - math.sqrt(eta)) / math.sqrt(1.0 - eta)
    assert e - d >= ideal - legs
    assert d < e


def test_extracted_corners_respect_turning_rule():
    m = ShortcutModel(eta=0.5)
    bound = turning_angle_threshold(0.5) + ANGULAR_RESOLUTION + 1e-9
    for a, b in [((2.5, 0.95), (5.5, 1.05)), ((1.5, 1.0), (6.5, 1.0))]:
        path = extract_grid_path(m, a, b)
        assert all(t <= bound for t in turning_angles(path))
        assert path.vertices[0] == pytest.approx(a)
        assert path.vertices[-1] == pytest.approx(b)


def test_extract_path_rejects_points_on_one_node():
    m = ShortcutModel(eta=0.5)
    nudge = 0.25 * m.spacing
    for a, b in [((1.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0 + nudge, 1.0 - nudge))]:
        with pytest.raises(ValueError, match="same grid node"):
            extract_grid_path(m, a, b)


# -- closed-form metric ----------------------------------------------------

# worst-case stencil distortion sec(atan(1/3) / 2), 1.0130814572...
STENCIL_BOUND = 1.0 / math.cos(ANGULAR_RESOLUTION / 2.0)

ORACLE_MODELS = [
    ShortcutModel(eta=eta, extent=12.0, **kw)
    for kw in ({}, dict(segment=(1.0, 11.0, 0.0), orientation="diagonal"))
    for eta in (1.0, 0.99, 0.8, 0.5)
]


@pytest.mark.parametrize(
    "model", ORACLE_MODELS, ids=lambda m: f"{m.orientation}-{m.eta}"
)
def test_reduced_distance_brackets_grid_fields(model):
    """Node by node, a grid distance lies between the closed form and
    the closed form times the stencil's closed-form distortion, which
    is 1 + METRIC_SLACK."""
    eng = _GridEngine(model)
    nodes = grid_coords(model, np.arange(model.side**2))
    shortened = 0
    for src in ((0.0, 0.0), (7.5, 2.5)):
        grid = eng.field(eng.node_of(src))
        exact = reduced_distance(model, src, nodes)
        assert np.all(grid >= exact * (1.0 - 1e-12))
        assert np.all(grid <= exact * STENCIL_BOUND)
        shortened += np.count_nonzero(exact < np.hypot(*(nodes - src).T))
    assert shortened > 0 or model.eta > 0.8


def test_reduced_distance_matches_scalar_routes():
    """Pair by pair, the corner path's length where one beats the
    straight line and the straight length elsewhere; symmetric in its
    two points, and shaped like its array of points."""
    rng = np.random.default_rng(11)
    for model in ORACLE_MODELS:
        p, q = rng.uniform(0.0, 12.0, (2, 40, 2))
        corners = 0
        for a in p:
            paths = [corner_path_between(model, a, b) for b in q]
            want = [
                math.dist(a, b) if path is None else path.total_length
                for b, path in zip(q, paths)
            ]
            corners += sum(path is not None for path in paths)
            got = reduced_distance(model, a, q.reshape(5, 8, 2))
            assert got.shape == (5, 8)
            assert got.ravel() == pytest.approx(want, rel=1e-12)
            back = [float(reduced_distance(model, b, a)) for b in q]
            assert back == pytest.approx(got.ravel().tolist(), rel=1e-12)
        assert corners > 0 or model.eta > 0.8


def per_model_graph(model):
    """Reference assembly: the whole graph for one model, with the
    segment's cheap edges weighted while the edge lists grow."""
    N, d = model.side, model.spacing
    lo, hi, off = model.segment
    j_off = int(round(off / d))
    i_lo = int(math.ceil(lo / d - 1e-9))
    i_hi = int(math.floor(hi / d + 1e-9))
    cheap_move = (1, 0) if model.orientation == "horizontal" else (1, 1)
    rows, cols, costs = [], [], []
    for dx, dy in _HALF_STENCIL:
        ii, jj = np.meshgrid(
            np.arange(max(0, -dx), N - max(0, dx)),
            np.arange(max(0, -dy), N - max(0, dy)),
            indexing="ij",
        )
        cost = d * math.hypot(dx, dy)
        w = np.full(ii.size, cost)
        if (dx, dy) == cheap_move:
            j_seg = j_off + (ii if model.orientation == "diagonal" else 0)
            on_seg = (jj == j_seg) & (ii >= i_lo) & (ii + 1 <= i_hi)
            w[on_seg.ravel()] = math.sqrt(model.eta) * cost
        rows.append((ii * N + jj).ravel())
        cols.append(((ii + dx) * N + (jj + dy)).ravel())
        costs.append(w)
    return csr_matrix(
        (np.concatenate(costs), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N * N, N * N),
    )


@pytest.mark.parametrize(
    "model",
    [
        small_model(),
        small_model(eta=1.0),
        ShortcutModel(eta=0.3, segment=(0.0, 6.0, 6.0), extent=6.0),
        ShortcutModel(
            eta=0.6, segment=(1.0, 4.0, -0.5), extent=6.0, orientation="diagonal"
        ),
        ShortcutModel(
            eta=0.8, segment=(0.0, 5.0, 1.0), extent=6.0, orientation="diagonal"
        ),
    ],
)
def test_engine_graph_matches_per_model_build(model):
    # the reweighted shared stencil equals, bit for bit, the graph
    # assembled for this model alone
    got, want = _GridEngine(model).graph, per_model_graph(model)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    plain = per_model_graph(dataclasses.replace(model, eta=1.0))
    assert (got.data != plain.data).any() == (model.eta < 1.0)


@pytest.mark.parametrize("spacing", [0.05, 0.03])
@pytest.mark.parametrize("side", [2, 3, 4, 7])
def test_stencil_matches_coo_build(side, spacing):
    # small sides, where the longer moves fit nowhere or only in part
    extent = (side - 1) * spacing
    model = ShortcutModel(spacing=spacing, extent=extent, segment=(0.0, extent, 0.0))
    assert model.side == side
    got, want = _stencil(side, spacing), per_model_graph(model)
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))


def test_engine_graph_shares_the_stencil_pattern():
    model = small_model(eta=0.4)
    stencil = _stencil(model.side, model.spacing)
    plain = stencil.data.copy()
    graph = _GridEngine(model).graph
    assert np.shares_memory(graph.indices, stencil.indices)
    assert np.shares_memory(graph.indptr, stencil.indptr)
    assert not np.shares_memory(graph.data, stencil.data)
    # reweighting leaves the shared stencil as it was
    assert (graph.data != plain).any()
    assert np.array_equal(stencil.data, plain)
    assert not stencil.data.flags.writeable


def test_engine_raises_no_sparse_efficiency_warning():
    # a grid no other test uses, so the stencil is built here too
    model = ShortcutModel(
        eta=0.5, segment=(0.5, 1.5, 0.51), spacing=0.03, extent=2.1
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", SparseEfficiencyWarning)
        eng = _GridEngine(model)
        eng.field(0)
        extract_grid_path(model, (0.3, 0.3), (1.8, 0.6))


def test_growth_estimate_keeps_fields_not_graphs():
    # a growth estimate on a model no other test builds reads the closed
    # form: it builds no engine and keeps nothing, where a copy of the
    # graph would hold about the stencil's bytes
    model = diag_model(0.37, extent=12.0)
    stencil = _stencil(model.side, model.spacing)
    size = stencil.data.nbytes + stencil.indices.nbytes + stencil.indptr.nbytes
    engines = _engine.cache_info().misses
    tracemalloc.start()
    try:
        eta_entropy_estimate(model, 5.0, 9.0)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 0.1 * size
    assert _engine.cache_info().misses == engines


# -- diagonal region -------------------------------------------------------


def region_defects_by_loop(model, c):
    """Reference for r_c_verify's sampling: one node lookup per sample,
    28 quadrant angles plus 9 across the wedge, 7 radii from 1, and the
    scalar corner path or straight line for the distance."""
    eng = _GridEngine(model)
    band = np.clip(
        np.linspace(math.pi / 4 - c, math.pi / 4 + c, 9), 0.02, math.pi / 2 - 0.02
    )
    angles = np.unique(
        np.concatenate([np.linspace(0.02, math.pi / 2 - 0.02, 28), band])
    )
    radii = np.linspace(1.0, 0.75 * model.extent, 7)
    worst = []
    for ang in angles:
        w = 0.0
        for r in radii:
            node = eng.node_of((r * math.cos(ang), r * math.sin(ang)))
            snapped = grid_coords(model, np.array([node]))[0]
            euclid = math.hypot(snapped[0], snapped[1])
            corner = corner_path_between(model, (0.0, 0.0), snapped)
            dist = euclid if corner is None else corner.total_length
            w = max(w, 1.0 - dist / euclid)
        worst.append(w)
    return angles, np.array(worst)


@pytest.mark.parametrize(
    "model,c",
    [
        (ShortcutModel(eta=0.99), 0.05),
        (ShortcutModel(eta=0.3), 1.0),
        (
            ShortcutModel(eta=0.6, segment=(1.0, 10.0, 0.0), orientation="diagonal"),
            0.05,
        ),
    ],
)
def test_region_matches_per_sample_loop(model, c):
    # the same nodes as the loop; norms go through np.hypot rather than
    # math.hypot, and the two can differ in the last bit, but a sample
    # the segment does not shorten reads defect 0 on both routes
    rep = r_c_verify(model, c)
    angles, worst = region_defects_by_loop(model, c)
    in_wedge = np.abs(angles - math.pi / 4) <= c + 1e-12
    bad = worst > 0.0
    assert rep.max_ratio_defect == pytest.approx(worst[in_wedge].max(), abs=1e-15)
    assert [a for a, _ in rep.violations] == angles[in_wedge & bad].tolist()
    assert [w for _, w in rep.violations] == pytest.approx(
        worst[in_wedge & bad].tolist(), abs=1e-15
    )
    assert rep.c_max == min(
        [float(np.abs(angles - math.pi / 4).max())]
        + [abs(float(a) - math.pi / 4) for a in angles[bad]]
    )


def test_region_clean_near_one():
    m = ShortcutModel(eta=0.99)
    rep = r_c_verify(m, 0.05)
    assert isinstance(rep, RegionReport)
    assert rep.equal_within_slack
    assert rep.violations == ()
    assert rep.max_ratio_defect == 0.0
    assert rep.c_max > 0.5
    assert rep.samples > 0


def test_region_sees_shortening_below_the_stencil_slack():
    # a cheap segment along the diagonal shortens the rays on it by
    # 1 - sqrt(0.99) at most, less than the grid could resolve
    m = ShortcutModel(eta=0.99, segment=(1.0, 10.0, 0.0), orientation="diagonal")
    rep = r_c_verify(m, 0.05)
    assert not rep.equal_within_slack
    assert 0.0 < rep.max_ratio_defect <= 1.0 - math.sqrt(0.99)
    assert rep.max_ratio_defect < METRIC_SLACK


def test_region_holds_on_the_diagonal():
    m = ShortcutModel(eta=0.99)
    for r in (3.0, 6.0):
        x = (r / ROOT2, r / ROOT2)
        assert d_eta_reduced(m, (0.0, 0.0), x) >= r * (1.0 - METRIC_SLACK)


def test_region_breaks_far_from_one():
    # deep discount: rays near the segment get shortened, the wedge
    # shrinks, and the report carries the offending angles
    m = ShortcutModel(eta=0.3)
    rep = r_c_verify(m, 1.0)
    assert not rep.equal_within_slack
    assert len(rep.violations) > 0
    assert rep.max_ratio_defect > METRIC_SLACK
    assert rep.c_max < 0.45
    # the segment sits below the diagonal, so that is where rays break
    assert min(ang for ang, _ in rep.violations) < math.pi / 4


def test_region_requires_positive_width():
    with pytest.raises(ValueError, match="positive"):
        r_c_verify(ShortcutModel(eta=0.99), 0.0)


# -- volume growth ---------------------------------------------------------

SWEEP_SEGMENT = (1.0, 11.0, 0.0)
WIDE = dict(segment=(1.0, 16.0, 0.0), extent=18.0, orientation="diagonal")


def diag_model(eta, **kw):
    base = dict(eta=eta, segment=SWEEP_SEGMENT, orientation="diagonal")
    base.update(kw)
    return ShortcutModel(**base)


def test_growth_full_cost_matches_product_entropy():
    est = eta_entropy_estimate(ShortcutModel(eta=1.0, **WIDE), 8.0, 14.0)
    assert est.prefactor == 0.0
    assert abs(est.slope - 2.0 * ROOT2) <= 0.08
    assert est.residual_rms < 0.05
    assert np.all(np.diff(est.log_volume) >= 0.0)
    # independent route: the product-space ball integrator on the same
    # window, its log V refitted with no prefactor removed, agreeing
    # within the two methods' combined bias
    direct = entropy_growth_numeric((3, 3), 8.0, 14.0)
    raw = _fit_slope(direct.rho, direct.log_volume, 0.0).slope
    assert abs(est.slope - raw) <= 0.05


def test_growth_near_one_stays_in_band():
    est = eta_entropy_estimate(ShortcutModel(eta=0.99, **WIDE), 8.0, 14.0)
    assert 2.0 * ROOT2 - 0.05 <= est.slope <= 2.0 * ROOT2 + 0.10


@pytest.mark.parametrize("eta,side", [(1.0, 281), (0.99, 282), (0.8, 314), (0.5, 361)])
def test_growth_sweep_stops_at_its_reach(monkeypatch, eta, side):
    """A unit of length costs at least sqrt(eta), so the default sweep
    (extent 18, rho up to 14) evaluates the nodes with coordinates up
    to 14 / sqrt(eta) only: 281, 282 and 314 of the 361 per side at eta
    1, 0.99 and 0.8, and all of them at 0.5.  No node past that square
    is within 14 on the full grid."""

    model = ShortcutModel(eta=eta, **WIDE)
    closed_form = shortcut.reduced_distance
    axis = np.arange(model.side) * model.spacing
    full = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    reached = closed_form(model, (0.0, 0.0), full) <= 14.0
    assert np.flatnonzero(reached.any(axis=1)).max() < side
    assert np.flatnonzero(reached.any(axis=0)).max() < side

    points = []

    def counted(model, p, X):
        points.append(len(X))
        return closed_form(model, p, X)

    monkeypatch.setattr(shortcut, "reduced_distance", counted)
    eta_entropy_estimate(model, 8.0, 14.0)
    assert sum(points) == side**2


def test_growth_slope_sweep():
    # the discount inflates balls, so the measured rate climbs toward
    # 2 sqrt(2) / sqrt(eta) as eta drops; values pinned on the cells of
    # the deterministic extent-12 grid, window [5, 9]
    expected = {1.0: 2.91591, 0.9: 2.99522, 0.8: 3.15688, 0.5: 4.00000}
    slopes = {}
    estimates = {}
    for eta in expected:
        est = eta_entropy_estimate(diag_model(eta), 5.0, 9.0)
        slopes[eta] = est.slope
        estimates[eta] = est
        assert est.slope == pytest.approx(expected[eta], abs=2e-3)
        # short window keeps some curvature, hence the wider band than
        # the asymptotic sweep uses
        assert abs(est.slope - 2.0 * ROOT2 / math.sqrt(eta)) <= 0.09
    ordered = sorted(slopes)
    for lo_eta, hi_eta in zip(ordered, ordered[1:]):
        assert slopes[lo_eta] >= slopes[hi_eta] - 1e-9
    # ball mass at fixed radius can only grow as eta drops
    assert np.all(
        estimates[0.5].log_volume >= estimates[1.0].log_volume - 1e-12
    )


def test_growth_input_validation():
    m = small_model()
    with pytest.raises(ValueError, match="radius"):
        eta_entropy_estimate(m, 5.0, 7.0)
    with pytest.raises(ValueError, match="radius"):
        eta_entropy_estimate(m, 3.0, 2.0)
    with pytest.raises(ValueError, match="occupied"):
        eta_entropy_estimate(m, 0.01, 5.0)


# -- branching minimizers --------------------------------------------------

BRANCH_P, BRANCH_Q = (2.2, 0.9), (5.8, 0.85)


def shared_length_formula(eta):
    # refraction offsets off both clearances, measured along the line
    shift = math.sqrt(eta / (1.0 - eta))
    return 3.6 - (0.1 + 0.15) * shift


def test_refraction_path_geometry():
    m = ShortcutModel(eta=0.5)
    path = corner_path_between(m, BRANCH_P, BRANCH_Q)
    assert path is not None
    assert path.vertices[1] == pytest.approx((2.3, 1.0), abs=1e-12)
    assert path.vertices[2] == pytest.approx((5.65, 1.0), abs=1e-12)
    expected = (
        math.dist(BRANCH_P, (2.3, 1.0))
        + math.sqrt(0.5) * 3.35
        + math.dist((5.65, 1.0), BRANCH_Q)
    )
    assert path.total_length == pytest.approx(expected, abs=1e-12)
    assert path.multipliers == pytest.approx((1.0, math.sqrt(0.5), 1.0))


def test_refraction_path_is_optimal():
    # scan entry and exit over the segment; the closed form must sit at
    # or below everything the scan finds
    m = ShortcutModel(eta=0.5)
    path = corner_path_between(m, BRANCH_P, BRANCH_Q)
    mu = math.sqrt(0.5)
    us = np.linspace(0.0, 4.0, 161)
    best = math.inf
    for u in us:
        entry = (2.0 + u, 1.0)
        leg_p = math.dist(BRANCH_P, entry)
        for v in us[us > u]:
            leave = (2.0 + v, 1.0)
            best = min(
                best, leg_p + mu * (v - u) + math.dist(leave, BRANCH_Q)
            )
    assert path.total_length <= best + 1e-12
    assert best - path.total_length <= 2e-3


def test_refraction_path_order_invariant():
    m = ShortcutModel(eta=0.5)
    fwd = corner_path_between(m, BRANCH_P, BRANCH_Q)
    rev = corner_path_between(m, BRANCH_Q, BRANCH_P)
    assert fwd.vertices == rev.vertices


def test_no_corner_path_at_full_cost():
    assert corner_path_between(ShortcutModel(eta=1.0), BRANCH_P, BRANCH_Q) is None


def test_no_corner_path_when_straight_wins():
    m = ShortcutModel(eta=0.9)
    assert corner_path_between(m, (0.5, 4.0), (1.2, 4.6)) is None


def test_branching_two_equal_minimizers():
    m = ShortcutModel(eta=0.5)
    rep = branching_geodesic_demo(m, BRANCH_P, BRANCH_Q)
    assert isinstance(rep, BranchingReport)
    assert rep.used
    assert rep.length_difference <= 1e-12
    assert rep.path.total_length < rep.straight_length
    assert rep.reflected_path.total_length == pytest.approx(
        rep.path.total_length, abs=1e-12
    )
    # both minimizers ride the same stretch of the cheap line
    assert rep.shared_length == pytest.approx(shared_length_formula(0.5), abs=1e-9)
    for end in rep.shared_segment:
        assert end[1] == pytest.approx(1.0, abs=1e-12)
    # genuinely distinct paths off the line
    assert rep.reflected_path.vertices[0] == pytest.approx((2.2, 1.1))
    assert rep.reflected_path.vertices[0] != rep.path.vertices[0]


def test_branching_shared_segment_grows_as_eta_drops():
    m = {eta: ShortcutModel(eta=eta) for eta in (0.9, 0.7, 0.5)}
    shared = {}
    for eta, model in m.items():
        rep = branching_geodesic_demo(model, BRANCH_P, BRANCH_Q)
        assert rep.used and rep.length_difference <= 1e-9
        assert rep.shared_length == pytest.approx(
            shared_length_formula(eta), abs=1e-9
        )
        shared[eta] = rep.shared_length
    assert shared[0.9] < shared[0.7] < shared[0.5]


def test_branching_inconclusive_at_full_cost():
    rep = branching_geodesic_demo(ShortcutModel(eta=1.0), BRANCH_P, BRANCH_Q)
    assert not rep.used
    assert rep.path is None
    assert rep.shared_length == 0.0
    assert math.isnan(rep.length_difference)
    assert rep.straight_length == pytest.approx(math.dist(BRANCH_P, BRANCH_Q))


def test_branching_inconclusive_far_from_segment():
    rep = branching_geodesic_demo(ShortcutModel(eta=0.5), (3.0, 5.0), (3.2, 5.2))
    assert not rep.used


# -- defect table ----------------------------------------------------------

# One plausible defect per row, planted as a one-line edit of a library
# function's source: the default `shortcut` run must record the named
# check as FAIL and exit 1.
SHORTCUT_DEFECTS = [
    # the witness exists from the squared cost on
    ("witness", "shorter_path_witness", "if ca >= eta:", "if ca >= math.sqrt(eta):"),
    # the threshold table as arcsin(eta)
    ("witness", "turning_angle_threshold", "math.acos(eta)", "math.asin(eta)"),
    # every stencil move priced at its infinity norm
    (
        "metric-spot",
        "_stencil",
        "spacing * math.hypot(dx, dy)",
        "spacing * max(abs(dx), abs(dy))",
    ),
    # cheap grid edges priced at eta d instead of sqrt(eta) d: the grid
    # saves more than the closed form
    ("metric-spot", "_GridEngine", "math.sqrt(model.eta) * (", "model.eta * ("),
    # a corner path that runs backwards along the segment still counts
    (
        "region",
        "reduced_distance",
        "np.where(v > u, np.minimum(straight, corner), straight)",
        "np.minimum(straight, corner)",
    ),
    # the density sinh^n instead of sinh^(n - 1) in each factor
    (
        "growth-sweep",
        "eta_entropy_estimate",
        "(model.n - 1) * np.log",
        "model.n * np.log",
    ),
    # the closed form ignores the segment: every eta grows at the plain rate
    ("growth-sweep", "reduced_distance", "if model.eta >= 1.0:", "if True:"),
    # the pair projected onto the segment's line instead of reflected
    ("branching", "branching_geodesic_demo", "x - 2.0 * float", "x - float"),
]


@pytest.mark.parametrize(
    "record,name,old,new",
    SHORTCUT_DEFECTS,
    ids=[
        "witness-sqrt-cost",
        "threshold-arcsin",
        "metric-spot-chebyshev-moves",
        "metric-spot-eta-cheap-edges",
        "region-backward-corner",
        "growth-sweep-density-exponent",
        "growth-sweep-closed-form-without-segment",
        "branching-projection",
    ],
)
def test_shortcut_record_catches_its_defect(
    tmp_path, monkeypatch, record, name, old, new
):
    source = textwrap.dedent(inspect.getsource(getattr(shortcut, name)))
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), name, "exec"), vars(shortcut), namespace)
    monkeypatch.setattr(shortcut, name, namespace[name])
    _engine.cache_clear()  # fields found before the defect was planted
    try:
        code = main(["--out", str(tmp_path), "shortcut"])
    finally:
        _engine.cache_clear()  # and the ones found under it
    report = (tmp_path / "shortcut_report.json").read_text(encoding="utf-8")
    passed = {c["name"]: c["passed"] for c in json.loads(report)["checks"]}
    assert passed[record] is False
    assert code == EXIT_CHECK
