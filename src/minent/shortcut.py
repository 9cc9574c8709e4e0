"""Shortcut metrics on the radial quarter-plane.

A product of two pointed hyperbolic factors, restricted to paths with
frozen angular coordinates, is the Euclidean quarter-plane in the
radial coordinates (r1, r2).  The shortcut model places a segment in
that plane along which travel in a designated cheap direction costs
sqrt(eta) per unit length, eta in (0, 1].  This module computes the
induced path metric on a grid, the turning-angle condition for
minimizers meeting a cheap line, volume growth of metric balls under
the radial density sinh^(n-1)(r1) sinh^(n-1)(r2), the diagonal region
on which the shortcut does not shorten anything, and the reflection
construction producing two distinct minimizers that share a segment.

Grid metric.  Distances come from Dijkstra on a grid graph whose moves
are the primitive integer vectors of infinity-norm at most 3 (32
directions).  The worst-case metric distortion of that stencil is
sec(theta_gap / 2) - 1 with theta_gap = atan(1/3), about 1.3 percent;
the model measures the distortion on its own grid once and every
tolerance folds it in.  A plain 8-neighbor stencil distorts by up to
8 percent, which would drown the effects measured here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .products import GrowthEstimate, _fit_slope, _log_ball_volume, _rho_grid

__all__ = [
    "ShortcutModel",
    "CornerPath",
    "Witness",
    "RegionReport",
    "BranchingReport",
    "turning_angle_threshold",
    "shorter_path_witness",
    "d_eta_reduced",
    "extract_grid_path",
    "r_c_verify",
    "eta_entropy_estimate",
    "branching_geodesic_demo",
    "corner_path_between",
]

# Primitive moves with infinity-norm <= 3, one per undirected direction.
_HALF_STENCIL = tuple(
    (dx, dy)
    for dx in range(-3, 4)
    for dy in range(-3, 4)
    if (dx, dy) != (0, 0)
    and math.gcd(abs(dx), abs(dy)) == 1
    and (dx > 0 or (dx == 0 and dy > 0))
)

# Largest angular gap between adjacent stencil directions.
ANGULAR_RESOLUTION = math.atan(1.0 / 3.0)


@dataclass(frozen=True)
class ShortcutModel:
    """Quarter-plane grid with one cheap segment.

    n            dimension of each hyperbolic factor (enters only the
                 volume density sinh^(n-1)).
    eta          cost multiplier squared along the segment: movement in
                 the cheap direction costs sqrt(eta) per unit length.
    segment      (r1_lo, r1_hi, offset): the segment spans r1 in
                 [r1_lo, r1_hi] on the line r2 = rise r1 + offset, and
                 the cheap move is (1, rise).  Horizontal orientation
                 has rise 0, diagonal orientation rise 1.
    spacing      grid spacing delta, at most 0.05.
    extent       the grid covers [0, extent]^2.

    The off-diagonal horizontal default exercises the turning-angle and
    diagonal-region statements; the diagonal orientation feeds the
    growth sweeps, where the cheap direction must carry the dominant
    volume for the discount to move the measured rate.
    """

    n: int = 3
    eta: float = 1.0
    segment: tuple[float, float, float] = (2.0, 6.0, 1.0)
    spacing: float = 0.05
    extent: float = 12.0
    orientation: str = "horizontal"

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("factor dimension must be at least 3")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")
        if self.spacing > 0.05 or self.spacing <= 0:
            raise ValueError("grid spacing must lie in (0, 0.05]")
        if self.orientation not in ("horizontal", "diagonal"):
            raise ValueError("orientation must be horizontal or diagonal")
        lo, hi, off = self.segment
        rise = self._rise
        if not (
            0.0 <= lo < hi <= self.extent
            and 0.0 <= rise * lo + off
            and rise * hi + off <= self.extent
        ):
            raise ValueError("segment must lie within the grid extent")
        if abs(off / self.spacing - round(off / self.spacing)) > 1e-9:
            raise ValueError("segment offset must lie on the grid")

    @property
    def _rise(self) -> int:
        return int(self.orientation == "diagonal")

    @property
    def side(self) -> int:
        return int(round(self.extent / self.spacing)) + 1

    def line_frame(self):
        """Support line of the segment: (origin, unit along, unit
        normal, length along)."""
        lo, hi, off = self.segment
        rise = self._rise
        step = math.sqrt(1.0 + rise * rise)
        origin = np.array([lo, rise * lo + off])
        along = np.array([1.0, rise]) / step
        length = (hi - lo) * step
        normal = np.array([-along[1], along[0]])
        return origin, along, normal, length


@dataclass(frozen=True)
class CornerPath:
    """Piecewise-linear path with per-segment cost multipliers."""

    vertices: tuple[tuple[float, float], ...]
    multipliers: tuple[float, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a path needs at least two vertices")
        if len(self.multipliers) != len(self.vertices) - 1:
            raise ValueError("one multiplier per segment")

    def _segments(self) -> np.ndarray:
        return np.diff(np.asarray(self.vertices, dtype=float), axis=0)

    @property
    def total_length(self) -> float:
        seg = self._segments()
        return float(np.dot(np.hypot(seg[:, 0], seg[:, 1]), self.multipliers))

    @property
    def turning_angles(self) -> tuple[float, ...]:
        seg = self._segments()
        angles = []
        for a, b in zip(seg[:-1], seg[1:]):
            na, nb = np.hypot(*a), np.hypot(*b)
            if na == 0 or nb == 0:
                angles.append(0.0)
                continue
            c = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
            angles.append(math.acos(c))
        return tuple(angles)


@functools.lru_cache(maxsize=4)
def _stencil(side: int, spacing: float) -> csr_matrix:
    """Shortcut-free grid graph on side x side nodes: every stencil
    move at its Euclidean cost, each undirected edge stored once, from
    its lower node index.  Shared between callers, so its arrays are
    read-only.

    Written straight into CSR.  With the moves sorted by their flat
    offset dx * side + dy, positive for every move that fits, each
    row's columns come out sorted."""
    N = side
    moves = sorted(_HALF_STENCIL, key=lambda m: m[0] * N + m[1])
    # the nodes each move leaves from, as slices of the node grid
    blocks = [
        np.s_[: max(0, N - dx), max(0, -dy) : max(0, N - max(0, dy))]
        for dx, dy in moves
    ]
    count = np.zeros((N, N), dtype=np.int32)
    for block in blocks:
        count[block] += 1
    indptr = np.zeros(N * N + 1, dtype=np.int32)
    np.cumsum(count, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    flat = np.arange(N * N, dtype=np.int32).reshape(N, N)
    slot = indptr[:-1].reshape(N, N).copy()  # next free entry of each row
    for (dx, dy), block in zip(moves, blocks):
        at = slot[block]
        indices[at] = flat[block] + (dx * N + dy)
        data[at] = spacing * math.hypot(dx, dy)
        slot[block] += 1
    for a in (data, indices, indptr):
        a.flags.writeable = False
    return csr_matrix((data, indices, indptr), shape=(N * N, N * N))


class _GridEngine:
    """Distance fields for one model, on its grid's shared stencil.

    The engine keeps no graph of its own: only where the segment's
    cheap edges sit in the stencil's data array and their discounted
    cost, plus its cached fields.  Every model on one grid therefore
    has the same sparsity pattern and edge order."""

    def __init__(self, model: ShortcutModel):
        self.model = model
        N = model.side
        self.N = N
        d = model.spacing
        stencil = _stencil(N, d)
        lo, hi, off = model.segment
        # cheap edges: the unit moves whose both ends lie on the segment
        ii = np.arange(int(math.ceil(lo / d - 1e-9)), int(math.floor(hi / d + 1e-9)))
        jj = int(round(off / d)) + model._rise * ii
        dx, dy = 1, model._rise
        src = ii * N + jj
        row = stencil.indptr
        self._cheap_pos = np.array(
            [
                row[s] + np.searchsorted(stencil.indices[row[s] : row[s + 1]], t)
                for s, t in zip(src.tolist(), (src + dx * N + dy).tolist())
            ],
            dtype=np.int64,
        )
        self._cheap_cost = math.sqrt(model.eta) * (d * math.hypot(dx, dy))
        self._fields: dict[tuple[int, float], np.ndarray] = {}

    @property
    def graph(self) -> csr_matrix:
        """The model's graph: the stencil's indices and indptr, shared,
        with one fresh data array carrying the cheap edges.  Built on
        every access; hold it only as long as one search needs it."""
        stencil = _stencil(self.N, self.model.spacing)
        data = stencil.data.copy()
        data[self._cheap_pos] = self._cheap_cost
        return csr_matrix((data, stencil.indices, stencil.indptr), shape=stencil.shape)

    def node_of(self, point):
        """Flat index of the grid node nearest a point, or an array of
        them for an (..., 2) array of points."""
        ij = np.rint(np.asarray(point, dtype=float) / self.model.spacing)
        if not np.all((ij >= 0) & (ij < self.N)):
            raise ValueError(
                f"point {np.asarray(point).tolist()} lies outside the grid "
                f"extent [0, {self.model.extent}]"
            )
        flat = ij[..., 0].astype(np.int64) * self.N + ij[..., 1].astype(np.int64)
        return int(flat) if flat.ndim == 0 else flat

    def coords(self, flat: np.ndarray) -> np.ndarray:
        d = self.model.spacing
        return np.stack([(flat // self.N) * d, (flat % self.N) * d], axis=-1)

    def field(self, src: int, limit: float = math.inf) -> np.ndarray:
        """Grid distances from node src.  With a finite limit the search
        stops there and farther nodes read inf; such fields are cached
        apart from full ones, keyed by (src, limit)."""
        key = (src, limit)
        if key not in self._fields:
            self._fields[key] = _dijkstra(
                self.graph, directed=False, indices=src, limit=limit
            )
        return self._fields[key]


@functools.lru_cache(maxsize=8)
def _engine(model: ShortcutModel) -> _GridEngine:
    return _GridEngine(model)


@functools.lru_cache(maxsize=None)
def _stencil_slack(spacing: float, extent: float) -> float:
    side = int(round(extent / spacing)) + 1
    dist = _dijkstra(_stencil(side, spacing), directed=False, indices=0)
    i, j = np.divmod(np.arange(side * side), side)
    euclid = np.hypot(i * spacing, j * spacing)
    mask = euclid >= 2.0
    return float((dist[mask] / euclid[mask]).max() - 1.0)


def metric_slack(model: ShortcutModel) -> float:
    """Measured stencil distortion of the model's grid: max over grid
    nodes at radius at least 2 of grid distance from the origin over
    Euclidean distance, minus 1, on the shortcut-free stencil at the
    model's spacing over [0, min(extent, 6)]^2."""
    return _stencil_slack(model.spacing, min(model.extent, 6.0))


# -- turning angles and the corner witness ---------------------------------


def turning_angle_threshold(eta: float) -> float:
    """Largest corner angle a minimizer can have where a line of cost
    eta is available: arccos(eta)."""
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie strictly between 0 and 1")
    return math.acos(eta)


@dataclass(frozen=True)
class Witness:
    """A cut from the start P = (-1, 0), one unit before the corner
    A = (0, 0), to the point `end` on the cheap line."""

    theta: float
    end: tuple[float, float]
    savings: float


def shorter_path_witness(eta: float, alpha: float) -> Witness | None:
    """Explicit shortcut through a corner of angle alpha, if one exists.

    A path runs one unit into the corner A and leaves along a line of
    cost eta at angle alpha.  Cutting the corner at angle theta from
    the incoming direction beats the cornered path exactly when

        f(theta) = cos(alpha) + sin(alpha) tan(theta / 2) < eta,

    which has solutions in (0, alpha) iff cos(alpha) < eta.  Returns
    the cut with f at the midpoint between cos(alpha) and eta, with the
    start point P, the cut target Q on the cheap line, and the strict
    savings |PA| + eta |AQ| - |PQ| > 0.  Returns None when
    cos(alpha) >= eta.
    """
    if not (0.0 < alpha < math.pi / 2):
        raise ValueError("the corner angle must lie in (0, pi/2)")
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    ca, sa = math.cos(alpha), math.sin(alpha)
    if ca >= eta:
        return None
    t_mid = (eta - ca) / (2.0 * sa)
    theta = 2.0 * math.atan(t_mid)
    # Triangle P -> A -> Q, P = (-1, 0) one unit before the corner
    # A = (0, 0), exit angle alpha, cut angle theta at P; law of sines
    # fixes the lengths.
    aq = math.sin(theta) / math.sin(alpha - theta)
    Q = (aq * ca, aq * sa)
    pq = math.hypot(Q[0] + 1.0, Q[1])
    savings = 1.0 + eta * aq - pq
    if savings <= 0.0:
        return None
    return Witness(theta=theta, end=Q, savings=savings)


# -- grid metric -----------------------------------------------------------


def d_eta_reduced(model: ShortcutModel, a, b) -> float:
    """Shortest-path distance between the grid nodes nearest a and b."""
    eng = _engine(model)
    na, nb = eng.node_of(a), eng.node_of(b)
    return float(eng.field(na)[nb])


def extract_grid_path(model: ShortcutModel, a, b) -> CornerPath:
    """Minimizing grid path a -> b as a corner path, with multipliers
    read off the graph edge costs."""
    eng = _engine(model)
    na, nb = eng.node_of(a), eng.node_of(b)
    if na == nb:
        raise ValueError(
            f"points {tuple(a)} and {tuple(b)} snap to the same grid node; "
            "a path needs two"
        )
    graph = eng.graph
    _, pred = _dijkstra(graph, directed=False, indices=na, return_predecessors=True)
    chain = [nb]
    while chain[-1] != na:
        p = pred[chain[-1]]
        if p < 0:
            raise ValueError("no path between the requested points")
        chain.append(int(p))
    chain.reverse()
    verts = eng.coords(np.array(chain))
    # the graph stores each edge once, from the lower node index
    mults = [
        float(graph[min(u, v), max(u, v)]) / math.dist(verts[k], verts[k + 1])
        for k, (u, v) in enumerate(zip(chain[:-1], chain[1:]))
    ]
    # merge collinear same-cost steps so turning angles are meaningful
    keep = [0]
    for s in range(1, len(verts) - 1):
        prev = verts[s] - verts[keep[-1]]
        nxt = verts[s + 1] - verts[s]
        cross = prev[0] * nxt[1] - prev[1] * nxt[0]
        if abs(cross) > 1e-12 or abs(mults[s] - mults[s - 1]) > 1e-12:
            keep.append(s)
    keep.append(len(verts) - 1)
    return CornerPath(
        tuple(map(tuple, verts[keep].tolist())), tuple(mults[s] for s in keep[:-1])
    )


# -- diagonal region -------------------------------------------------------


@dataclass(frozen=True)
class RegionReport:
    c: float
    samples: int
    max_ratio_defect: float
    c_max: float
    violations: tuple[tuple[float, float], ...]

    @property
    def equal_within_slack(self) -> bool:
        return not self.violations


def r_c_verify(model: ShortcutModel, c: float) -> RegionReport:
    """Check that the shortcut does not shorten distances from the
    origin inside the diagonal wedge |angle - pi/4| <= c.

    Samples 7 radii from 1 to three quarters of the extent on each
    sampled angle; at x in the wedge, asserts grid distance >= Euclidean
    times (1 - metric_slack(model)); failures are collected, not raised.
    Also reports c_max: the widest wedge (on the sampled angle grid)
    with no failure anywhere inside.
    """
    if c <= 0:
        raise ValueError("the wedge half-width c must be positive")
    eng = _engine(model)
    slack = metric_slack(model)
    dist = eng.field(eng.node_of((0.0, 0.0)))
    # coarse full-quadrant sweep of 28 angles plus a fine band across
    # the wedge, so the wedge always holds samples and c_max is
    # measured, not clipped
    band = np.clip(
        np.linspace(math.pi / 4 - c, math.pi / 4 + c, 9),
        0.02,
        math.pi / 2 - 0.02,
    )
    angles = np.unique(
        np.concatenate([np.linspace(0.02, math.pi / 2 - 0.02, 28), band])
    )
    radii = np.linspace(1.0, 0.75 * model.extent, 7)
    direction = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    nodes = eng.node_of(radii[None, :, None] * direction[:, None, :])
    snapped = eng.coords(nodes)
    euclid = np.hypot(snapped[..., 0], snapped[..., 1])
    # samples snapped closer than half the smallest radius count as defect 0
    ratio = np.divide(dist[nodes], euclid, out=np.ones_like(euclid), where=euclid >= 0.5)
    ratio_defect = (1.0 - ratio).max(axis=1, initial=0.0)
    in_wedge = np.abs(angles - math.pi / 4) <= c + 1e-12
    bad = ratio_defect > slack
    violations = tuple(
        zip(angles[in_wedge & bad].tolist(), ratio_defect[in_wedge & bad].tolist())
    )
    # widest clean wedge around the diagonal on this angle grid
    offset = np.abs(angles - math.pi / 4)
    c_max = float(offset[bad].min(initial=offset.max()))
    return RegionReport(
        c=c,
        samples=int(angles.size * radii.size),
        max_ratio_defect=float(ratio_defect[in_wedge].max()),
        c_max=c_max,
        violations=violations,
    )


# -- volume growth ---------------------------------------------------------


def eta_entropy_estimate(
    model: ShortcutModel,
    radius_lo: float,
    radius_hi: float,
) -> GrowthEstimate:
    """Least-squares slope of log V(rho), where V(rho) is the mass of
    the grid ball of radius rho around the origin under the density
    sinh^(n-1)(r1) sinh^(n-1)(r2), for rho every 0.25 in
    [radius_lo, radius_hi].

    Cell masses accumulate in the log domain, sorted by grid distance,
    so sinh overflow never occurs.  The search stops at the largest rho:
    only the cells it reaches carry mass.
    """
    if not (0 < radius_lo < radius_hi):
        raise ValueError("need 0 < radius_lo < radius_hi")
    if radius_hi > model.extent:
        raise ValueError("radius range exceeds the grid extent")
    rho = _rho_grid(radius_lo, radius_hi)
    eng = _engine(model)
    dist = eng.field(eng.node_of((0.0, 0.0)), limit=float(rho[-1]))
    reached = np.flatnonzero(np.isfinite(dist))
    pts = eng.coords(reached)
    p = model.n - 1
    with np.errstate(divide="ignore"):
        log_mass = (
            2.0 * math.log(model.spacing)
            + p * np.log(np.sinh(pts[:, 0]))
            + p * np.log(np.sinh(pts[:, 1]))
        )
    finite = np.isfinite(log_mass)
    log_v = _log_ball_volume(dist[reached][finite], log_mass[finite], rho)
    return _fit_slope(rho, log_v, "shortcut-grid")


# -- branching minimizers --------------------------------------------------


@dataclass(frozen=True)
class BranchingReport:
    """The corner path for (p, q) and the one for the reflected pair;
    used (conclusive) exactly when both exist."""

    path: CornerPath | None
    reflected_path: CornerPath | None
    straight_length: float

    @property
    def used(self) -> bool:
        return self.reflected_path is not None

    @property
    def shared_segment(self):
        return (self.path.vertices[1], self.path.vertices[2]) if self.used else None

    @property
    def shared_length(self) -> float:
        return math.dist(*self.shared_segment) if self.used else 0.0

    @property
    def length_difference(self) -> float:
        if not self.used:
            return float("nan")
        return abs(self.path.total_length - self.reflected_path.total_length)


def corner_path_between(model: ShortcutModel, p, q) -> CornerPath | None:
    """Optimal path p -> q through the cheap segment, or None if the
    straight line is at least as good.

    Entry and exit obey the refraction rule: the offset from the foot
    of the perpendicular is h sqrt(eta / (1 - eta)) for clearance h, as
    the one-dimensional optimization gives; offsets are clamped to the
    segment ends.
    """
    if model.eta >= 1.0:
        return None
    origin, along, normal, length_total = model.line_frame()
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    sp, sq = float((p - origin) @ along), float((q - origin) @ along)
    if sp > sq:
        p, q = q, p
        sp, sq = sq, sp
    hp = abs(float((p - origin) @ normal))
    hq = abs(float((q - origin) @ normal))
    mu = math.sqrt(model.eta)
    shift = math.sqrt(model.eta / (1.0 - model.eta))
    u = min(max(sp + hp * shift, 0.0), length_total)
    v = min(max(sq - hq * shift, 0.0), length_total)
    if v <= u:
        return None
    entry = origin + u * along
    leave = origin + v * along
    length = (
        math.dist(p, entry) + mu * (v - u) + math.dist(leave, q)
    )
    if length >= math.dist(p, q):
        return None
    return CornerPath(
        tuple(map(tuple, np.stack([p, entry, leave, q]).tolist())), (1.0, mu, 1.0)
    )


def branching_geodesic_demo(model: ShortcutModel, p, q) -> BranchingReport:
    """Two distinct minimizers of equal length through the shared
    cheap segment: the optimal corner path for (p, q) and the one for
    the pair reflected across the segment's line.

    If the straight line beats every corner path the report comes back
    with used=False (inconclusive), not an error.
    """
    origin, _, normal, _ = model.line_frame()
    path = corner_path_between(model, p, q)
    ref = None
    if path is not None:
        p_ref, q_ref = (
            tuple(x - 2.0 * float((x - origin) @ normal) * normal)
            for x in np.asarray([p, q], dtype=float)
        )
        ref = corner_path_between(model, p_ref, q_ref)
    return BranchingReport(path, ref, math.dist(p, q))
