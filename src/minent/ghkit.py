"""Finite metric spaces, nets, net graphs, and Gromov-Hausdorff bounds.

The stability argument approximates a manifold by a graph: choose an
epsilon-net, join net points whose images are closer than epsilon,
assign each edge its target distance, and compare the graph metric
with the target metric.  This module provides that pipeline on finite
metric spaces, plus distortion-based GH distance bounds and the exact
first Wasserstein distance W1 between weighted spaces, solved as a
primal transport LP.

Everything here is synthetic: edge lengths are assigned numbers, not
lengths of realizable paths in a manifold.  The graph construction and
the two-sided approximation check mirror the continuum argument; the
correspondence is a modeling choice, not a theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

__all__ = [
    "FiniteMetricSpace",
    "NetGraph",
    "greedy_net",
    "build_net_graph",
    "graph_metric",
    "approximation_check",
    "ApproximationReport",
    "gh_bounds",
    "measure_compare",
    "circle_space",
    "torus_grid_space",
    "random_tree_space",
]

_EXACT_CAP = 9
# candidate routes per point in measure_compare's first restricted LP
_ROUTES = 16
# rows per scratch chunk of the sample spaces' in-place folds
_FOLD_ROWS = 64
# row and column blocks of the triangle check and the symmetry pass
_CHECK_ROWS = 16
_CHECK_COLS = 128


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Distance matrix with optional weights.

    Validates the metric axioms of outside input up front: finite
    entries, zero diagonal, symmetry within 1e-12, triangle inequality
    within 1e-9, weights a probability vector (see _trusted).

    The matrix is stored bit-symmetric (an entry that differs from its
    transpose becomes 0.5 d_ij + 0.5 d_ji; float addition commutes).
    The triangle check is the l-infinity (Kuratowski) isometry test:
    the rows satisfy max_k |d_ik - d_jk| = d_ij for every pair exactly
    when d_ik <= d_ij + d_jk for every triple.  It runs on blocks of
    _CHECK_ROWS rows i >= a, over the pairs (i, j >= a) and only the
    columns k > a, so it meets each triple i < j < k from its lowest
    point: pair (i, j) at column k tests d_ik <= d_ij + d_jk and
    d_jk <= d_ij + d_ik, pair (i, k) at column j tests d_ij <= d_ik +
    d_kj.  One rounded subtraction per triangle keeps the tolerance per
    triangle, in about n^3/3 compiled steps and O(n^2) memory.
    """

    dist: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        d = np.array(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        n = d.shape[0]
        if n == 0:
            raise ValueError("empty space")
        # every check below is a comparison, and comparisons with NaN
        # are False
        if not np.isfinite(d).all():
            raise ValueError("distances must be finite")
        if np.abs(np.diag(d)).max() > 0:
            raise ValueError("diagonal must be zero")
        # read before symmetrizing, which can lift a -1e-13 to zero
        negative = d.min() < 0
        if _symmetrize(d) > 1e-12:
            raise ValueError("distance matrix must be symmetric")
        if negative:
            raise ValueError("distances must be nonnegative")
        for a in range(0, n - 1, _CHECK_ROWS):
            rows = d[a : a + _CHECK_ROWS, a + 1 :]
            for b in range(a, n, _CHECK_COLS):
                gap = cdist(rows, d[b : b + _CHECK_COLS, a + 1 :], "chebyshev")
                gap -= d[a : a + _CHECK_ROWS, b : b + _CHECK_COLS]
                if gap.max() > 1e-9:
                    # the worst pair's rows differ most at k, and the
                    # longer of its sides ik and jk is too long
                    i, j = np.argwhere(gap == gap.max())[0] + (a, b)
                    k = a + 1 + np.argmax(abs(d[i, a + 1 :] - d[j, a + 1 :]))
                    p, q = sorted((i if d[i, k] > d[j, k] else j, k))
                    raise ValueError(
                        "triangle inequality violated beyond 1e-9 at pair "
                        f"({p}, {q}): excess {gap.max()}"
                    )
        object.__setattr__(self, "dist", d)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            # written so that NaN weights fail it too
            if w.shape != (n,) or not (w.min() >= 0 and abs(w.sum() - 1.0) <= 1e-9):
                raise ValueError("weights must be a probability vector")
            object.__setattr__(self, "weights", w)

    @classmethod
    def _trusted(cls, dist: np.ndarray, weights: np.ndarray | None = None):
        """Store a bit-symmetric float metric and probability weights as
        given, without checks: for this module's own constructors."""
        X = object.__new__(cls)
        object.__setattr__(X, "dist", dist)
        object.__setattr__(X, "weights", weights)
        return X

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def effective_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        return np.full(self.size, 1.0 / self.size)


def _symmetrize(d: np.ndarray) -> float:
    """Make d bit-symmetric in place, _CHECK_ROWS rows at a time, as
    FiniteMetricSpace stores it; return the largest |d_ij - d_ji|."""
    worst = 0.0
    for a in range(0, len(d), _CHECK_ROWS):
        upper, lower = d[a : a + _CHECK_ROWS, a:], d[a:, a : a + _CHECK_ROWS].T
        skew = np.abs(upper - lower)
        worst = max(worst, skew.max())
        i, j = np.nonzero(skew)
        upper[i, j] = lower[i, j] = 0.5 * upper[i, j] + 0.5 * lower[i, j]
    return worst


@dataclass
class NetGraph:
    """Graph on net vertices with assigned edge lengths.

    Every edge length L must satisfy the strict interval
    max{0, d - eps/n_count} < L < d + delta, with d the target
    distance of the edge's endpoint images.
    """

    vertices: tuple[int, ...]
    edges: list[tuple[int, int, float]]
    target_dist: np.ndarray
    eps: float
    delta: float
    n_count: int

    def interval_violations(self) -> list[tuple[int, int, float, float, float]]:
        """Edges whose length leaves the mandated open interval:
        (u, v, length, low, high)."""
        u, v, length = self._columns()
        d = self.target_dist[u, v]
        low = np.maximum(0.0, d - self.eps / self.n_count)
        high = d + self.delta
        bad = np.flatnonzero(~((low < length) & (length < high)))
        return [(*self.edges[k], float(low[k]), float(high[k])) for k in bad]

    def _columns(self):
        """The edges as three arrays: endpoints u, v and lengths."""
        u, v, length = zip(*self.edges) if self.edges else ((), (), ())
        return np.array(u, dtype=int), np.array(v, dtype=int), np.array(length, dtype=float)

    def validate(self):
        bad = self.interval_violations()
        if bad:
            u, v, length, low, high = bad[0]
            raise ValueError(
                f"edge ({u},{v}) length {length} outside its interval "
                f"({low}, {high})"
            )


# -- nets and graphs -------------------------------------------------------


def greedy_net(X: FiniteMetricSpace, eps: float) -> tuple[int, ...]:
    """Greedy epsilon-net: start at index 0 and repeatedly add, among
    the points at distance >= eps from the chosen set, the one closest
    to it (lowest index on ties).

    The result is eps-separated by construction and eps-covering
    because the loop only stops when no admissible point remains.
    Taking the nearest admissible point packs the net at its maximin
    density: separations sit just above eps instead of the sparse
    far-point cascade, which roughly halves the count.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    chosen = [0]
    d_to_set = X.dist[0].copy()
    while True:
        admissible = d_to_set >= eps
        if not admissible.any():
            break
        cand = np.where(admissible, d_to_set, np.inf)
        nxt = int(np.argmin(cand))
        chosen.append(nxt)
        d_to_set = np.minimum(d_to_set, X.dist[nxt])
    return tuple(chosen)


def build_net_graph(
    net,
    phi,
    target: FiniteMetricSpace,
    eps: float,
    delta: float,
    n_count: int,
) -> NetGraph:
    """Connect net vertices whose phi-images are closer than eps in the
    target; each edge gets the target distance as its length.

    The construction precondition is
    delta < min(eps / 4, eps^2 / (6 diam(target))); violating it is an
    error, since the two-sided approximation argument needs it.

    The target distance always lies strictly inside the mandated
    interval, which makes the approximation checks as sharp as this
    family of graphs allows.
    """
    net = tuple(net)
    phi = tuple(phi)
    if len(phi) != len(net):
        raise ValueError("need one target image per net vertex")
    diam = target.diameter
    bound = min(eps / 4.0, eps * eps / (6.0 * diam)) if diam > 0 else eps / 4.0
    if not (0.0 < delta < bound):
        raise ValueError(
            f"delta = {delta} violates the construction precondition "
            f"delta < min(eps/4, eps^2/(6 diam)) = {bound}"
        )
    if n_count <= 0:
        raise ValueError("n_count must be positive")
    sub = target.dist[np.ix_(phi, phi)]
    # the pairs a < b in row-major order
    a, b = np.nonzero(np.triu(sub < eps, 1))
    edges = list(zip(a.tolist(), b.tolist(), sub[a, b].tolist()))
    graph = NetGraph(
        vertices=net,
        edges=edges,
        target_dist=sub,
        eps=eps,
        delta=delta,
        n_count=n_count,
    )
    graph.validate()
    return graph


def graph_metric(G: NetGraph) -> np.ndarray:
    """All-pairs shortest path lengths of the net graph; inf between
    points in different components."""
    n = len(G.vertices)
    rows, cols, vals = G._columns()
    sp = csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat = dijkstra(sp, directed=False)
    mat = np.minimum(mat, mat.T)
    np.fill_diagonal(mat, 0.0)
    return mat


@dataclass(frozen=True)
class ApproximationReport:
    max_deviation: float
    passed: bool
    step1_max: float
    step2_max: float
    connected: bool
    interval_ok: bool


def approximation_check(
    G: NetGraph, phi, target: FiniteMetricSpace, eps: float
) -> ApproximationReport:
    """Two-sided comparison of the graph metric with the target metric
    on the net: step 1 is d_graph <= d_target + eps, step 2 is
    d_graph >= d_target - eps; pass iff the max deviation is <= eps.

    Edge intervals are re-validated first; a violated interval fails
    the check regardless of the metric comparison.
    """
    interval_ok = not G.interval_violations()
    mat = graph_metric(G)
    phi = tuple(phi)
    sub = target.dist[np.ix_(phi, phi)]
    if not np.isfinite(mat).all():
        return ApproximationReport(
            max_deviation=float("inf"),
            passed=False,
            step1_max=float("inf"),
            step2_max=float("inf"),
            connected=False,
            interval_ok=interval_ok,
        )
    diff = mat - sub
    step1 = float(diff.max())   # graph exceeding target
    step2 = float((-diff).max())  # target exceeding graph
    dev = float(np.abs(diff).max())
    return ApproximationReport(
        max_deviation=dev,
        passed=bool(interval_ok and dev <= eps),
        step1_max=step1,
        step2_max=step2,
        connected=True,
        interval_ok=interval_ok,
    )


# -- GH distance bounds ----------------------------------------------------


def _eccentricity_gap(dx: np.ndarray, dy: np.ndarray) -> float:
    """Hausdorff distance between the eccentricity sets {max_j d_ij}.

    A pair (x, y) of a correspondence R has |ecc(x) - ecc(y)| <= dis R
    (match the farthest point of either side through R), and every
    point has a partner, so this is at most the distortion of every
    correspondence.  The matrices are bit-symmetric and rounding is
    monotone, so the result never exceeds a computed distortion, and a
    relabeled copy gives exactly 0.
    """
    gap = np.abs(dx.max(axis=1)[:, None] - dy.max(axis=1)[None, :])
    return float(max(gap.min(axis=1).max(), gap.min(axis=0).max()))


def _pair_distortion(dx, dy, f, g) -> float:
    """Distortion of the correspondence graph(f) plus transposed
    graph(g)."""
    f = np.asarray(f)
    g = np.asarray(g)
    return max(
        float(np.abs(dx - dy[np.ix_(f, f)]).max()),
        float(np.abs(dy - dx[np.ix_(g, g)]).max()),
        float(np.abs(dx[:, g] - dy[f, :]).max()),
    )


def _exact_upper(dx: np.ndarray, dy: np.ndarray) -> float:
    """Minimal correspondence distortion via branch and bound over map
    pairs (f: X -> Y, g: Y -> X).

    Any correspondence contains the graph of some f together with the
    transposed graph of some g, and dropping other pairs never raises
    distortion, so the minimum over map pairs is the minimum over
    correspondences.  Assignments interleave the two maps; a partial
    assignment is pruned as soon as its distortion reaches the best
    complete one.
    """
    f = np.full(dx.shape[0], -1, int)
    g = np.full(dy.shape[0], -1, int)
    # slot (a, b, p, q, i) assigns p[i], a point of b, to the point i of
    # a, with q the other map: a g slot is an f slot with the spaces swapped
    slots = [(dx, dy, f, g, i) for i in range(f.size)]
    slots += [(dy, dx, g, f, j) for j in range(g.size)]
    # assign high-eccentricity points first for early pruning
    slots.sort(key=lambda s: -s[0][s[4]].max())
    best = [_greedy_upper(dx, dy)]

    def partial_cost(a, b, p, q, i, val) -> float:
        m = 0.0
        done = np.nonzero(p >= 0)[0]
        if done.size:
            m = float(np.abs(a[i, done] - b[val, p[done]]).max())
        other = np.nonzero(q >= 0)[0]
        if other.size:
            m = max(m, float(np.abs(a[i, q[other]] - b[val, other]).max()))
        return m

    def rec(k: int, cur: float):
        if cur >= best[0]:
            return
        if k == len(slots):
            best[0] = cur
            return
        a, b, p, q, i = slots[k]
        cands = []
        for val in range(b.shape[0]):
            c = partial_cost(a, b, p, q, i, val)
            if max(cur, c) < best[0]:
                cands.append((c, val))
        cands.sort()
        for c, val in cands:
            p[i] = val
            rec(k + 1, max(cur, c))
            p[i] = -1

    rec(0, 0.0)
    return best[0]


def _sweep(dx, dy, f, g):
    """Set each f[i] in turn to the lowest v minimizing
    _pair_distortion(dx, dy, f', g), f' = f with f'[i] = v.

    Kept as matrices: R = |dx - dy[f, f]|, the cross term
    C = |dx[:, g] - dy[f, :]| and dy[:, f]; an assignment rewrites row
    and column i of R and row i of C, and |dy - dx[g, g]| is fixed.  Both
    inputs are bit-symmetric, so row and column i of R agree: every cost
    is the maximum of the same entries as a full recompute.
    """
    rest = np.abs(dx - dy[np.ix_(f, f)])
    cross = np.abs(dx[:, g] - dy[f, :])
    gterm = np.abs(dy - dx[np.ix_(g, g)]).max()
    dyf = dy[:, f]
    diag = np.diagonal(dy)
    for i in range(dx.shape[0]):
        rest[i] = rest[:, i] = 0.0
        cross[i] = 0.0
        base = max(rest.max(), cross.max(), gterm)
        dyf[:, i] = diag  # dy[v, f'[i]] at f'[i] = v
        row = np.abs(dx[i] - dyf)  # row[v]: row i of R at f[i] = v
        out = np.abs(dx[i, g] - dy)  # out[v]: row i of C at f[i] = v
        cost = np.maximum(row.max(axis=1), out.max(axis=1))
        v = f[i] = int(np.argmin(np.maximum(cost, base)))
        rest[i] = rest[:, i] = row[v]
        cross[i] = out[v]
        dyf[:, i] = dy[:, v]


def _greedy_maps(dx: np.ndarray, dy: np.ndarray):
    """Heuristic map pair (f, g): match points by sorted eccentricity
    profile, then locally improve each assignment twice."""
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
        _sweep(dx, dy, f, g)
        # the distortion is symmetric under swapping the two sides
        _sweep(dy, dx, g, f)
    return f, g


def _greedy_upper(dx: np.ndarray, dy: np.ndarray) -> float:
    """Distortion of the heuristic map pair of _greedy_maps."""
    return _pair_distortion(dx, dy, *_greedy_maps(dx, dy))


@dataclass(frozen=True)
class GhBounds:
    lower: float
    upper: float
    exact: bool


def gh_bounds(X: FiniteMetricSpace, Y: FiniteMetricSpace) -> GhBounds:
    """Lower and upper bounds for the Gromov-Hausdorff distance.

    lower: half the Hausdorff distance between the eccentricity sets
    {max_j d_ij} of the two spaces.  It holds for every correspondence,
    bijective or not, and is 0 on a relabeled copy.
    upper: half the minimal correspondence distortion, exact up to size
    9 per side, a labeled greedy heuristic beyond.
    """
    dx, dy = X.dist, Y.dist
    lower = _eccentricity_gap(dx, dy) / 2.0
    if X.size <= _EXACT_CAP and Y.size <= _EXACT_CAP:
        upper = _exact_upper(dx, dy) / 2.0
        exact = True
    else:
        upper = _greedy_upper(dx, dy) / 2.0
        exact = False
    if exact and upper < lower:
        # both routes are exact-side bounds; a crossing would be a bug
        raise AssertionError(
            f"lower bound {lower} exceeds exact upper bound {upper}"
        )
    return GhBounds(lower=float(lower), upper=float(upper), exact=exact)


# -- weighted comparison ---------------------------------------------------


def measure_compare(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    mapping=None,
) -> float:
    """Exact first Wasserstein distance W1 between the weights of X and
    the weights of Y, pushed onto X's index set by `mapping` (default:
    the identity, for a Y of X's size).

    Primal transport LP: surplus points (mu > nu) ship to deficit
    points (mu < nu) at cost X.dist, one variable per such route.  The
    weight sums may differ by the validator's 1e-9, so the heavier side
    ships at most its surplus and the other receives exactly its
    deficit; the LP is always feasible.

    An optimal plan uses about p + q of the p * q routes, nearly all
    between near neighbours, so the LP is solved by route pricing
    (delayed column generation).  It starts on each point's `_ROUTES`
    nearest routes plus the northwest-corner plan, which keeps every
    restricted LP feasible, then adds each route whose reduced cost
    under the restricted LP's duals is negative.  When none is left the
    duals certify that the restricted optimum is the full LP's.
    """
    mu = X.effective_weights()
    if mapping is None:
        if Y.size != X.size:
            raise ValueError("sizes differ; provide a mapping into X")
        mapping = np.arange(X.size)
    mapping = np.asarray(mapping, dtype=int)
    nu = np.zeros(X.size)
    np.add.at(nu, mapping, Y.effective_weights())
    delta = mu - nu
    if delta.sum() < 0:
        delta = -delta  # W1 is symmetric
    src = np.flatnonzero(delta > 0)
    snk = np.flatnonzero(delta < 0)
    if not snk.size:
        return 0.0
    supply, demand = delta[src], -delta[snk]
    cost = X.dist[np.ix_(src, snk)]
    # HiGHS's optimality tolerances are absolute: solve with the largest
    # cost scaled into [1, 2) by a power of two, which is exact
    shift = math.frexp(cost.max())[1] - 1
    cost = np.ldexp(cost, -shift)
    p, q = cost.shape
    active = _starting_routes(cost, supply, demand)
    floor = -1e-12 * cost.max()
    while True:
        # active routes in row-major order; route k ships from
        # src[rows[k]] to snk[cols[k]]: one nonzero in its supply row
        # and one in its demand row
        rows, cols = np.nonzero(active)
        var = np.arange(rows.size)
        ones = np.ones(var.size)
        res = linprog(
            cost[rows, cols],
            A_ub=csr_matrix((ones, (rows, var)), shape=(p, var.size)),
            b_ub=supply,
            A_eq=csr_matrix((ones, (cols, var)), shape=(q, var.size)),
            b_eq=demand,
            method="highs-ds",
            # the default 1e-7 is absolute and masses are often far below
            # 1: a vertex off its demand by 5e-8 put W1 off by 5e-7
            # relative.  Presolve and HiGHS's default edge weights cost
            # more than they save on these small, well-posed LPs.
            options={
                "primal_feasibility_tolerance": 1e-10,
                "presolve": False,
                "simplex_dual_edge_weight_strategy": "dantzig",
            },
        )
        if not res.success:
            raise RuntimeError(f"discrepancy LP failed: {res.message}")
        reduced = cost - res.ineqlin.marginals[:, None] - res.eqlin.marginals[None, :]
        priced = (reduced < floor) & ~active
        if not priced.any():
            return math.ldexp(res.fun, shift)
        active |= priced


def _starting_routes(cost, supply, demand) -> np.ndarray:
    """Boolean p x q mask of the first restricted LP's routes: each
    surplus point's `_ROUTES` nearest deficit points, each deficit
    point's `_ROUTES` nearest surplus points, and the northwest-corner
    plan.  Nearest routes alone can leave a set of deficit points whose
    neighbours cannot cover them (Hall's condition); the corner plan is
    a feasible plan, so every restricted LP is feasible."""
    p, q = cost.shape
    active = np.zeros((p, q), dtype=bool)
    k = min(_ROUTES, q)
    near = np.argpartition(cost, k - 1, axis=1)[:, :k]
    active[np.arange(p)[:, None], near] = True
    k = min(_ROUTES, p)
    near = np.argpartition(cost, k - 1, axis=0)[:k, :]
    active[near, np.arange(q)[None, :]] = True
    # corner plan: demand point j draws on the surplus points whose
    # cumulative-supply interval meets its cumulative-demand interval;
    # consecutive columns share a row, so the cells form one staircase
    last = np.minimum(np.searchsorted(np.cumsum(supply), np.cumsum(demand)), p - 1)
    first = np.concatenate(([0], last[:-1]))
    for j in range(q):
        active[first[j]:last[j] + 1, j] = True
    return active


# -- sample spaces ---------------------------------------------------------


def circle_space(n: int) -> FiniteMetricSpace:
    """n equally spaced points on the unit circle, arc-length metric."""
    if n < 1:
        raise ValueError("need n >= 1 points")
    ang = 2.0 * math.pi * np.arange(n) / n
    return FiniteMetricSpace._trusted(_folded_gaps(ang, 2.0 * math.pi))


def torus_grid_space(a: int, b: int) -> FiniteMetricSpace:
    """a x b grid on the flat unit torus, with the quotient Euclidean
    metric."""
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    # node i * b + j sits at (i / a, j / b)
    dx = _folded_gaps(np.repeat(np.arange(a) / a, b), 1.0)
    dy = _folded_gaps(np.tile(np.arange(b) / b, a), 1.0)
    return FiniteMetricSpace._trusted(np.hypot(dx, dy, out=dx))


def _folded_gaps(x: np.ndarray, period: float) -> np.ndarray:
    """The matrix min(g, period - g) with g = |x_i - x_j|, built in
    place: besides the result, only one chunk of _FOLD_ROWS rows is
    allocated."""
    g = np.subtract.outer(x, x)
    np.abs(g, out=g)
    for r in range(0, len(g), _FOLD_ROWS):
        rows = g[r : r + _FOLD_ROWS]
        np.minimum(rows, period - rows, out=rows)
    return g


def random_tree_space(n: int, seed: int = 0) -> FiniteMetricSpace:
    """Random tree with uniform edge lengths in [0.5, 1.5]; path metric."""
    if n < 1:
        raise ValueError("empty space")
    rng = np.random.default_rng(seed)
    parent = [0] * n
    for v in range(1, n):
        parent[v] = int(rng.integers(0, v))
    lengths = rng.uniform(0.5, 1.5, size=n)
    rows = np.arange(1, n)
    cols = np.array(parent[1:])
    sp = csr_matrix((lengths[1:], (rows, cols)), shape=(n, n))
    d = dijkstra(sp, directed=False)
    # the two directions of a path may sum in different orders
    _symmetrize(d)
    return FiniteMetricSpace._trusted(d)

