"""Reference routes that tests compare the library against, and helpers
that build test inputs; no report reaches them.  The density-weighted
route (ideal points, Busemann data, visual density) checks the
barycenter's transported nodes, seeded uniform sampling checks the
deterministic boundary rule, parallel transport checks the tangent
frame, and the per-point sphere map checks the natural map's closed
form.
The radial-box grid and the Monte Carlo rays check the product growth
recursion.  Grid coordinates and turning angles read shortcut grid
paths.  The all-pairs Chebyshev test checks the triangle check, and the
chord-metric circle and restricted spaces are metric-space test inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from minent.barycenter import _sphere_components
from minent.ghkit import FiniteMetricSpace, circle_space
from minent.hyperbolic import (
    BoundaryQuadrature,
    HyperboloidPoint,
    _readonly,
    minkowski_form,
    tangent_frame,
)
from minent.products import (
    ProductPoint,
    ScalingProfile,
    _fit_slope,
    _rho_grid,
    product_dist,
)
from minent.shortcut import (
    CornerPath,
    ShortcutModel,
    _dijkstra,
    _engine,
    _log_ball_volume,
)

_NULL_TOL = 1e-9


# -- hyperbolic space: the base point and the density-weighted route ----


def base_point(m: int) -> HyperboloidPoint:
    """The base point o = (1, 0, ..., 0) of H^m."""
    c = np.zeros(m + 1)
    c[0] = 1.0
    return HyperboloidPoint(c)


@dataclass(frozen=True)
class IdealPoint:
    """A boundary direction of H^m: a null vector with q(o, xi) = -1.

    The normalization means the stored representative has first
    coordinate exactly 1, i.e. xi = (1, n) with n a unit vector.
    """

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 3:
            raise ValueError("ideal point needs m+1 coordinates with m >= 2")
        if c[0] <= 0:
            raise ValueError("ideal point must be future pointing")
        if abs(minkowski_form(c, c)) > _NULL_TOL * max(1.0, c[0] ** 2):
            raise ValueError("ideal point must be a null vector: q(xi, xi) = 0")
        if abs(c[0] - 1.0) > _NULL_TOL:
            raise ValueError(
                "ideal point not normalized against the base point; "
                "divide the representative by q(o, xi) sign-corrected, "
                "e.g. IdealPoint.normalized(coords)"
            )
        object.__setattr__(self, "coords", _readonly(c))

    @classmethod
    def normalized(cls, coords: np.ndarray) -> "IdealPoint":
        """Rescale a future-pointing null vector to the q(o, .) = -1 gauge."""
        c = np.asarray(coords, dtype=float)
        if c[0] <= 0:
            raise ValueError("ideal point must be future pointing")
        return cls(c / c[0])

    @property
    def m(self) -> int:
        return self.coords.size - 1


def ideal_points(quad: BoundaryQuadrature) -> list[IdealPoint]:
    return [IdealPoint(row) for row in quad.nodes]


@dataclass(frozen=True)
class BusemannData:
    """Value, gradient and Hessian of a horofunction at one point.

    ``hessian`` is the m x m matrix of the second covariant derivative
    in the orthonormal frame ``frame`` (the output of
    :func:`tangent_frame` at the same point).
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    frame: np.ndarray


def busemann(x: HyperboloidPoint, xi: IdealPoint) -> BusemannData:
    """Horofunction data of the boundary direction xi at the point x.

    value    log(-q(x, xi)); zero at the base point by normalization.
    gradient the unit tangent x - xi / (-q(x, xi)); the value grows
             fastest walking away from xi.
    hessian  identity minus the squared differential, in the frame
             returned by :func:`tangent_frame`; this is the second
             derivative of value along geodesics, computed in closed
             form from the model.
    """
    if x.m != xi.m:
        raise ValueError(f"dimension mismatch: H^{x.m} vs boundary of H^{xi.m}")
    s = -minkowski_form(x.coords, xi.coords)
    if s <= 0:
        raise ValueError("q(x, xi) must be negative for a future null direction")
    value = float(np.log(s))
    grad = x.coords - xi.coords / s
    frame = tangent_frame(x)
    # dB(e_a) in the frame; the Hessian of log(-q(., xi)) along the
    # geodesic exp(x, t e) is 1 - dB(e)^2, so polarization gives
    # delta_ab - b_a b_b with b_a = q(grad, e_a).
    b = np.array([minkowski_form(grad, frame[a]) for a in range(x.m)])
    hess = np.eye(x.m) - np.outer(b, b)
    return BusemannData(value=value, gradient=grad, hessian=hess, frame=frame)


def visual_density(x: HyperboloidPoint, xi: IdealPoint, h: float) -> float:
    """Radon-Nikodym density exp(-h B(x, xi)) of the visual family.

    For h equal to the volume-growth rate m - 1 of H^m this is the
    density of the visual probability measure seen from x against the
    one seen from o; its boundary integral is 1 exactly at that h.
    """
    if h < 0:
        raise ValueError("the exponent h must be nonnegative")
    s = -minkowski_form(x.coords, xi.coords)
    return float(s ** (-h))


def monte_carlo_quadrature(m: int, count: int, seed: int) -> BoundaryQuadrature:
    """``count`` seeded uniform nodes on S^{m-1} with equal weights: the
    sampling route the deterministic boundary rule is checked against."""
    g = np.random.default_rng(seed).standard_normal((count, m))
    w = np.full(count, 1.0 / count)
    w[-1] = 1.0 - math.fsum(w[:-1].tolist())
    sphere = g / np.linalg.norm(g, axis=1, keepdims=True)
    return BoundaryQuadrature(np.column_stack([np.ones(count), sphere]), w)


# -- hyperbolic space: isometries and transport ----------------------------


def apply_isometry(L: np.ndarray, x: HyperboloidPoint) -> HyperboloidPoint:
    """Apply a Lorentz matrix to a point (renormalizing drift)."""
    return HyperboloidPoint(L @ x.coords)


def apply_isometry_ideal(L: np.ndarray, xi: IdealPoint) -> IdealPoint:
    """Apply a Lorentz matrix to an ideal point, restoring the gauge."""
    return IdealPoint.normalized(L @ xi.coords)


def parallel_transport(
    x: HyperboloidPoint, y: HyperboloidPoint, v: np.ndarray
) -> np.ndarray:
    """Parallel transport of the tangent vector v along the geodesic x -> y.

    Closed form in the hyperboloid model:
        v + q(y, v) / (1 - q(x, y)) * (x + y).
    Preserves the Minkowski form; the identity map when x = y.
    """
    if x.m != y.m:
        raise ValueError("points live in different dimensions")
    denom = 1.0 - minkowski_form(x.coords, y.coords)
    return v + (minkowski_form(y.coords, v) / denom) * (x.coords + y.coords)


def random_boost(rng: np.random.Generator, m: int, scale: float = 0.5) -> np.ndarray:
    """A random Lorentz matrix: exponential of a random so(m,1) element."""
    from scipy.linalg import expm

    a = scale * rng.standard_normal((m + 1, m + 1))
    # so(m,1) elements are G S with S antisymmetric: then A^T G + G A = 0.
    G = np.diag([-1.0] + [1.0] * m)
    return expm(G @ (a - a.T) / 2.0)


# -- the sphere map, point by point ----------------------------------------


def natural_map_discrete(
    points: list[ProductPoint], c: float, x: ProductPoint, profile: ScalingProfile
) -> np.ndarray:
    """The sphere map at x: components proportional to exp(-c/2 d(x, p_j))."""
    d = np.array([product_dist(x, p, profile) for p in points])
    return _sphere_components(d, c)


# -- product growth: the grid and Monte Carlo routes ----------------------


def _log_cell_masses_1d(n: int, r_max: float, step: float):
    r = (np.arange(int(np.ceil(r_max / step))) + 0.5) * step
    logmass = (n - 1) * np.log(np.sinh(r)) + np.log(step)
    return r, logmass


def growth_grid(dims, radius_lo: float, radius_hi: float, grid_step: float = 0.05):
    """(rho, log V(rho)) for one or two factors from the midpoint cells
    of the radial box, one grid per factor, cut to the quarter disc."""
    rho = _rho_grid(radius_lo, radius_hi)
    radii, logmass = zip(
        *(_log_cell_masses_1d(d, radius_hi, grid_step) for d in dims)
    )
    rr = np.sqrt(sum(r**2 for r in np.ix_(*radii))).ravel()
    lm = sum(np.ix_(*logmass)).ravel()
    keep = rr <= radius_hi + grid_step
    return rho, _log_ball_volume(rr[keep], lm[keep], rho)


def growth_monte_carlo(
    dims, radius_lo: float, radius_hi: float, grid_step: float = 0.05, seed: int = 0
):
    """(rho, log V(rho), slope std) for any number of factors: exact
    cumulative integrals along 2000 seeded rays in the positive orthant,
    averaged in the log domain; the std is the spread of the slope (no
    prefactor removed) over 10 batches of rays."""
    rho = _rho_grid(radius_lo, radius_hi)
    rng = np.random.default_rng(seed)
    h = np.array([d - 1 for d in dims], dtype=float)
    n_dir = 2000
    omega = np.abs(rng.standard_normal((n_dir, len(dims))))
    omega /= np.linalg.norm(omega, axis=1, keepdims=True)
    s = (np.arange(int(np.ceil(radius_hi / grid_step))) + 0.5) * grid_step
    # log integrand along each ray: sum_i h_i log sinh(s w_i) + (k-1) log s
    r_dir = s[None, :, None] * omega[:, None, :]
    log_ray = np.where(r_dir > 0, np.log(np.sinh(r_dir)), -np.inf)
    log_ray = (h * log_ray).sum(axis=2) + (len(dims) - 1) * np.log(s)[None, :]
    log_cum = np.logaddexp.accumulate(log_ray + np.log(grid_step), axis=1)
    idx = np.searchsorted(s, rho, side="right") - 1

    def average(rows: np.ndarray) -> np.ndarray:
        picked = rows[:, idx]
        m = picked.max(axis=0)
        return m + np.log(np.exp(picked - m).sum(axis=0) / rows.shape[0])

    batches = np.array_split(np.arange(n_dir), 10)
    slopes = [_fit_slope(rho, average(log_cum[b]), 0.0).slope for b in batches]
    return rho, average(log_cum), float(np.std(slopes))


# -- shortcut grid paths ---------------------------------------------------


def grid_coords(model: ShortcutModel, flat: np.ndarray) -> np.ndarray:
    """Plane coordinates of the model's grid nodes with flat indices flat."""
    d = model.spacing
    return np.stack([(flat // model.side) * d, (flat % model.side) * d], axis=-1)


def turning_angles(path: CornerPath) -> tuple[float, ...]:
    """Angle between consecutive segments at each interior vertex."""
    seg = path._segments()
    angles = []
    for a, b in zip(seg[:-1], seg[1:]):
        na, nb = np.hypot(*a), np.hypot(*b)
        if na == 0 or nb == 0:
            angles.append(0.0)
            continue
        c = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
        angles.append(math.acos(c))
    return tuple(angles)


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
    verts = grid_coords(model, np.array(chain))
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


# -- finite metric spaces --------------------------------------------------


def chebyshev_rejects(d: np.ndarray) -> bool:
    """The triangle check on every pair over every column: the rows of
    a metric satisfy max_k |d_ik - d_jk| = d_ij exactly when the
    triangle inequality holds; pairs in pdist's order."""
    if len(d) < 2:
        return False
    gap = pdist(d, "chebyshev")
    gap -= squareform(d, checks=False)
    return bool(gap.max() > 1e-9)


def chord_circle(n: int) -> FiniteMetricSpace:
    """n equally spaced points on the unit circle, chord metric, through
    the validating constructor."""
    return FiniteMetricSpace(2.0 * np.sin(circle_space(n).dist / 2.0))


def restrict(X: FiniteMetricSpace, idx) -> FiniteMetricSpace:
    """X on the points idx, with its weights renormalized; stored
    unchecked, as a sub-matrix of a checked metric."""
    idx = np.asarray(idx, dtype=int)
    if idx.size == 0:
        raise ValueError("empty space")
    w = None
    if X.weights is not None:
        w = X.weights[idx]
        if not w.sum() > 0:
            raise ValueError("the restricted points carry no weight")
        w = w / w.sum()
    return FiniteMetricSpace._trusted(X.dist[np.ix_(idx, idx)], w)
