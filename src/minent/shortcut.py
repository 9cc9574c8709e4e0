"""Shortcut metrics on the radial quarter-plane.

A product of two pointed hyperbolic factors, restricted to paths with
frozen angular coordinates, is the Euclidean quarter-plane in the
radial coordinates (r1, r2).  The shortcut model places a segment in
that plane along which travel in a designated cheap direction costs
sqrt(eta) per unit length, eta in (0, 1].  This module computes the
induced path metric in closed form and on a grid, the turning-angle
condition for minimizers meeting a cheap line, volume growth of metric
balls under the radial density sinh^(n-1)(r1) sinh^(n-1)(r2), the
diagonal region on which the shortcut does not shorten anything, and
the reflection construction producing two distinct minimizers that
share a segment.

Closed form.  The quarter-plane is convex and a minimizer meets the
segment in at most one interval, so the distance is the smaller of the
straight length and the refracted corner length (`reduced_distance`).
The growth sweep and the region check read it.

Grid metric.  The grid brackets the closed form from above and is kept
as its oracle.  Distances come from Dijkstra on a grid graph whose moves
are the primitive integer vectors of infinity-norm at most 3 (32
directions).  The worst-case metric distortion of that stencil is
sec(theta_gap / 2) - 1 with theta_gap = atan(1/3), about 1.3 percent,
at every node (`METRIC_SLACK`); every grid tolerance folds it in.  A
plain 8-neighbor stencil distorts by up to 8 percent, which would drown
the effects measured here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .products import GrowthEstimate, _fit_slope, _rho_grid

__all__ = [
    "ShortcutModel",
    "CornerPath",
    "Witness",
    "RegionReport",
    "BranchingReport",
    "turning_angle_threshold",
    "shorter_path_witness",
    "d_eta_reduced",
    "reduced_distance",
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

# Worst-case metric distortion of the stencil, grid / Euclidean - 1.
# Adjacent moves u, v span a unimodular cone, so a node in it is
# a u + b v with integers a, b >= 0 and its grid distance is
# a |u| + b |v|; the ratio peaks where the direction bisects the widest
# gap.  The bound holds at every node of every grid.
METRIC_SLACK = 1.0 / math.cos(ANGULAR_RESOLUTION / 2.0) - 1.0

# Grid rows the growth sweep evaluates together: a block of
# _SWEEP_ROWS x side nodes, next to the reached nodes it keeps.
_SWEEP_ROWS = 32


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

    def grid_index(self, point) -> np.ndarray:
        """Integer (i, j) of the grid node nearest a point, as floats,
        for a point or an (..., 2) array of them."""
        ij = np.rint(np.asarray(point, dtype=float) / self.spacing)
        if not np.all((ij >= 0) & (ij < self.side)):
            raise ValueError(
                f"point {np.asarray(point).tolist()} lies outside the grid "
                f"extent [0, {self.extent}]"
            )
        return ij

    def snap(self, point) -> np.ndarray:
        """Coordinates of the grid node nearest a point, or of those
        nearest an (..., 2) array of points."""
        return self.grid_index(point) * self.spacing

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
        self._fields: dict[int, np.ndarray] = {}

    @property
    def graph(self) -> csr_matrix:
        """The model's graph: the stencil's indices and indptr, shared,
        with one fresh data array carrying the cheap edges.  Built on
        every access; hold it only as long as one search needs it."""
        stencil = _stencil(self.N, self.model.spacing)
        data = stencil.data.copy()
        data[self._cheap_pos] = self._cheap_cost
        return csr_matrix((data, stencil.indices, stencil.indptr), shape=stencil.shape)

    def node_of(self, point) -> int:
        """Flat index of the grid node nearest a point."""
        i, j = self.model.grid_index(point)
        return int(i) * self.N + int(j)

    def field(self, src: int) -> np.ndarray:
        """Grid distances from node src."""
        if src not in self._fields:
            self._fields[src] = _dijkstra(self.graph, directed=False, indices=src)
        return self._fields[src]


@functools.lru_cache(maxsize=8)
def _engine(model: ShortcutModel) -> _GridEngine:
    return _GridEngine(model)


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


# -- closed-form metric ----------------------------------------------------


def _corner(model: ShortcutModel, p: np.ndarray, X: np.ndarray):
    """The corner path from the point p to each point of an (..., 2)
    array X through the cheap segment: the offsets u and v along the
    segment where it enters and leaves, and the path's length.

    Each pair is ordered along the line, and the path enters from the
    point with the smaller offset.  Refraction rule: each offset lies
    h sqrt(eta / (1 - eta)) past the foot of the perpendicular from its
    endpoint at clearance h, as the one-dimensional optimization gives,
    clamped to the segment ends.  The path uses the segment only if
    v > u.
    """
    origin, along, normal, length = model.line_frame()
    s_p, h_p = (p - origin) @ along, abs((p - origin) @ normal)
    s_x, h_x = (X - origin) @ along, np.abs((X - origin) @ normal)
    first = s_x < s_p
    s_in, h_in = np.where(first, s_x, s_p), np.where(first, h_x, h_p)
    s_out, h_out = np.where(first, s_p, s_x), np.where(first, h_p, h_x)
    shift = math.sqrt(model.eta / (1.0 - model.eta))
    u = np.clip(s_in + h_in * shift, 0.0, length)
    v = np.clip(s_out - h_out * shift, 0.0, length)
    corner = (
        np.hypot(s_in - u, h_in)
        + math.sqrt(model.eta) * (v - u)
        + np.hypot(s_out - v, h_out)
    )
    return u, v, corner


def reduced_distance(model: ShortcutModel, p, X) -> np.ndarray:
    """Exact distances of the model's metric from the point p to each
    point of an (..., 2) array X: the smaller of the straight length and
    the corner length through the cheap segment (`_corner`)."""
    p = np.asarray(p, dtype=float)
    X = np.asarray(X, dtype=float)
    straight = np.hypot(X[..., 0] - p[0], X[..., 1] - p[1])
    if model.eta >= 1.0:
        return straight
    u, v, corner = _corner(model, p, X)
    return np.where(v > u, np.minimum(straight, corner), straight)


# -- grid metric -----------------------------------------------------------


def d_eta_reduced(model: ShortcutModel, a, b) -> float:
    """Shortest-path distance between the grid nodes nearest a and b."""
    eng = _engine(model)
    na, nb = eng.node_of(a), eng.node_of(b)
    return float(eng.field(na)[nb])


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
    sampled angle, snapped to the grid; at x in the wedge, asserts that
    reduced_distance equals the Euclidean distance; failures are
    collected, not raised.  Also reports c_max: the widest wedge (on
    the sampled angle grid) with no failure anywhere inside.
    """
    if c <= 0:
        raise ValueError("the wedge half-width c must be positive")
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
    snapped = model.snap(radii[None, :, None] * direction[:, None, :])
    euclid = np.hypot(snapped[..., 0], snapped[..., 1])
    # the closed form returns the straight length itself wherever the
    # segment does not help, so an unshortened sample has defect 0
    dist = reduced_distance(model, (0.0, 0.0), snapped)
    ratio_defect = (1.0 - dist / euclid).max(axis=1)
    in_wedge = np.abs(angles - math.pi / 4) <= c + 1e-12
    bad = ratio_defect > 0.0
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


def _log_ball_volume(radii, log_mass, rho) -> np.ndarray:
    """log of the mass of all cells with radius at most each rho: cells
    sorted by radius, masses accumulated in the log domain."""
    order = np.argsort(radii)
    cum = np.logaddexp.accumulate(log_mass[order])
    idx = np.searchsorted(radii[order], rho, side="right") - 1
    if np.any(idx < 0):
        raise ValueError("radius_lo is below the first occupied cell")
    return cum[idx]


def eta_entropy_estimate(
    model: ShortcutModel,
    radius_lo: float,
    radius_hi: float,
) -> GrowthEstimate:
    """Least-squares slope of log V(rho), where V(rho) is the mass of
    the ball of radius rho around the origin under the density
    sinh^(n-1)(r1) sinh^(n-1)(r2), for rho every 0.25 in
    [radius_lo, radius_hi].

    The ball is the set of grid cells whose node lies within rho by
    `reduced_distance`.  Cell masses accumulate in the log domain,
    sorted by distance, so sinh overflow never occurs; only the cells
    within the largest rho carry mass.  Every unit of length costs at
    least sqrt(eta), so no node with a coordinate past
    rho / sqrt(eta) is within rho: the sweep covers only the rows and
    columns up to that index, _SWEEP_ROWS rows at a time, and keeps
    only the reached nodes.
    """
    if not (0 < radius_lo < radius_hi):
        raise ValueError("need 0 < radius_lo < radius_hi")
    if radius_hi > model.extent:
        raise ValueError("radius range exceeds the grid extent")
    rho = _rho_grid(radius_lo, radius_hi)
    axis = np.arange(model.side) * model.spacing
    # the relative margin covers rounding in the closed form
    axis = axis[axis <= rho[-1] / math.sqrt(model.eta) * (1.0 + 1e-9)]
    with np.errstate(divide="ignore"):
        log_sinh = (model.n - 1) * np.log(np.sinh(axis))
    kept_dist, kept_mass = [], []
    for lo in range(0, axis.size, _SWEEP_ROWS):
        rows = slice(lo, lo + _SWEEP_ROWS)
        pts = np.stack(np.meshgrid(axis[rows], axis, indexing="ij"), axis=-1)
        dist = reduced_distance(model, (0.0, 0.0), pts.reshape(-1, 2))
        log_mass = 2.0 * math.log(model.spacing) + log_sinh[rows, None] + log_sinh
        keep = (dist <= rho[-1]) & np.isfinite(log_mass.ravel())
        kept_dist.append(dist[keep])
        kept_mass.append(log_mass.ravel()[keep])
    log_v = _log_ball_volume(np.concatenate(kept_dist), np.concatenate(kept_mass), rho)
    return _fit_slope(rho, log_v, 0.0)


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

    Entry, exit and length come from the kernel `reduced_distance`
    reads (`_corner`); the path runs from the endpoint with the smaller
    offset along the segment.
    """
    if model.eta >= 1.0:
        return None
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    u, v, length = _corner(model, p, q)
    if v <= u or length >= math.dist(p, q):
        return None
    origin, along, _, _ = model.line_frame()
    if (q - origin) @ along < (p - origin) @ along:
        p, q = q, p
    vertices = np.stack([p, origin + u * along, origin + v * along, q])
    return CornerPath(
        tuple(map(tuple, vertices.tolist())), (1.0, math.sqrt(model.eta), 1.0)
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
