"""Hyperboloid-model primitives for the real hyperbolic space H^m.

Points live on the upper sheet {q(x, x) = -1, x_0 > 0} of the unit
hyperboloid in Minkowski space R^{m,1}, where

    q(x, y) = -x_0 y_0 + x_1 y_1 + ... + x_m y_m.

Boundary directions are future-pointing null rays.  A boundary node is
stored normalized against the base point o = (1, 0, ..., 0) so that
q(o, xi) = -1, which pins the representative (first coordinate 1) and
anchors every horofunction at the base point: B(o, xi) = 0.  A
tangent vector at x is passed as its ambient (m+1)-array v, with
q(x, v) = 0, and |v| = sqrt(q(v, v)).

The closed forms used here are exact in this model:

* distance          arccosh(-q(x, y)) = 2 asinh(|x - y| / 2)
* geodesic step     cosh|v| x + sinh|v| v / |v|, the flow for unit time
* tangent frame     rows e_a + x_a / (1 + x_0) (o + x), the spatial axes
                    parallel transported from o to x
* translation o->x  the Lorentz matrix with columns x and those rows
* horofunction      B(x, xi) = log(-q(x, xi))
* its gradient      x - xi / (-q(x, xi)), a unit tangent vector
* its Hessian       g - dB (x) dB   in any orthonormal tangent frame,
                    obtained by differentiating B twice along geodesics.

The Hessian identity is not assumed by the test suite; it is checked
against second-order finite differences of the value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "minkowski_form",
    "HyperboloidPoint",
    "BoundaryQuadrature",
    "dist",
    "exp_map",
    "tangent_frame",
    "boundary_quadrature",
    "transvection_to",
    "random_point",
]

# Tolerances fixed by the data-type contracts.
_DIST_CLAMP = 1e-9


def minkowski_form(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Bilinear form q of signature (m, 1); acts on the last axis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HyperboloidPoint:
    """A point of H^m, stored as its (m+1)-vector on the upper sheet.

    Construction rejects anything but mild drift (q(x, x) close to -1)
    and x_0 > 0, then keeps the spatial part x and sets
    x_0 = sqrt(1 + |x|^2).  A relative drift d of x then moves the point
    by about d in distance at any radius.
    """

    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 3:
            raise ValueError("hyperboloid point needs m+1 coordinates with m >= 2")
        if c[0] <= 0:
            raise ValueError("point must lie on the upper sheet (x_0 > 0)")
        # q(x, x) cancels terms of size x_0^2, so its rounding error,
        # and the drift allowed, scale with them
        scale = max(1.0, c[0] ** 2)
        qq = minkowski_form(c, c)
        if not np.isfinite(qq) or qq >= 0 or abs(qq + 1.0) > 1e-6 * scale:
            raise ValueError(
                f"q(x, x) = {qq!r} is too far from -1 to be a hyperboloid point"
            )
        c[0] = np.sqrt(1.0 + c[1:] @ c[1:])
        object.__setattr__(self, "coords", _readonly(c))

    @property
    def m(self) -> int:
        return self.coords.size - 1


def dist(x: HyperboloidPoint, y: HyperboloidPoint) -> float:
    """Geodesic distance, by the chord form 2 asinh(|w| / 2) with
    w = x - y and |w|^2 = q(w, w) = 2 cosh d - 2.

    Unlike arccosh(-q(x, y)), whose error near 0 is sqrt(2 eps), the
    chord form is 0 for equal points and keeps full relative precision
    for near ones.  Inputs with -q(x, y) below 1 - 1e-9 are rejected.
    """
    if x.m != y.m:
        raise ValueError(f"dimension mismatch: H^{x.m} vs H^{y.m}")
    inner = -minkowski_form(x.coords, y.coords)
    if inner < 1.0 - _DIST_CLAMP:
        raise ValueError(f"-q(x, y) = {inner!r} < 1: inputs are not hyperboloid points")
    w = x.coords - y.coords
    return float(2.0 * np.arcsinh(np.sqrt(max(minkowski_form(w, w), 0.0)) / 2.0))


def exp_map(x: HyperboloidPoint, v: np.ndarray) -> HyperboloidPoint:
    """Geodesic exponential: follow the geodesic through x with initial
    velocity v, an (m+1)-array tangent at x, for unit time.

    v must have the shape of x.coords and satisfy
    |q(x, v)| <= 1e-8 max(1, max|v|); otherwise ValueError.  Returns the
    spatial part of cosh|v| x + sinh|v| v / |v| with
    x_0 = sqrt(1 + |x|^2).  The rounding of q(x, v) is multiplied by
    about sinh(2 |v|) in the full vector, which for steps beyond about
    17 can leave the sheet; the spatial part alone stays a point until
    x_0 reaches about 1e8, where q(x, x) rounds to 0.  A step whose
    pairings, coordinates or their squared norm overflow (from o, |v|
    beyond about 355) raises ValueError, without a warning, so that a
    line search can shorten it.  A zero vector returns x (degenerate
    ray).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != x.coords.shape:
        raise ValueError("tangent vector and base point dimensions differ")
    try:
        with np.errstate(over="raise"):
            pairing = minkowski_form(x.coords, v)
            if abs(pairing) > 1e-8 * max(1.0, float(np.max(np.abs(v)))):
                raise ValueError(f"vector is not tangent: q(x, v) = {pairing!r}")
            speed = float(np.sqrt(max(minkowski_form(v, v), 0.0)))
            if speed == 0.0:
                return x
            c = np.cosh(speed) * x.coords + np.sinh(speed) * (v / speed)
            c[0] = np.sqrt(1.0 + c[1:] @ c[1:])
    except FloatingPointError:
        raise ValueError("the step overflows the coordinates") from None
    return HyperboloidPoint(c)


def tangent_frame(x: HyperboloidPoint) -> np.ndarray:
    """The orthonormal frame of T_x H^m, shape (m, m+1), whose rows are
    the spatial axes e_a parallel transported from o to x:

        e_a + x_a / (1 + x_0) (o + x).

    At o the rows are exactly the axes; the frame is smooth in x.
    """
    xc = x.coords
    ox = np.r_[1.0 + xc[0], xc[1:]]
    return np.eye(x.m, x.m + 1, 1) + np.outer(xc[1:] / ox[0], ox)


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Nodes and weights approximating the round probability measure
    on the boundary sphere of H^m.

    nodes   (count, m+1) ideal-point representatives (first column 1).
    weights nonnegative, summing to 1 exactly (the last weight absorbs
            the rounding residue).
    scheme  'deterministic-sphere' or 'monte-carlo'.
    seed    RNG seed for the monte-carlo scheme, None otherwise.
    """

    nodes: np.ndarray
    weights: np.ndarray
    scheme: str
    seed: int | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[0] != w.size:
            raise ValueError("nodes and weights are inconsistent")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if float(sum(w.tolist())) != 1.0:
            raise ValueError("weights must sum to 1 exactly")
        object.__setattr__(self, "nodes", _readonly(nodes))
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def m(self) -> int:
        return self.nodes.shape[1] - 1

    @property
    def count(self) -> int:
        return self.weights.size


def _uniform_weights(count: int) -> np.ndarray:
    w = np.full(count, 1.0 / count)
    w[-1] = 1.0 - float(sum(w[:-1].tolist()))
    return w


def _spiral_sphere(count: int) -> np.ndarray:
    """Antipodally symmetrized generalized-spiral nodes on S^2.

    Half the nodes follow the golden-angle spiral, the other half are
    their antipodes, so odd first moments vanish exactly.
    """
    half = count // 2
    j = np.arange(half)
    z = 1.0 - (2.0 * j + 1.0) / (2.0 * half)
    phi = j * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return np.vstack([pts, -pts])


def _circle_nodes(count: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(ang), np.sin(ang)])


def boundary_quadrature(
    m: int, count: int, scheme: str = "deterministic-sphere", seed: int | None = None
) -> BoundaryQuadrature:
    """Quadrature for the round probability measure on S^{m-1}.

    The deterministic scheme covers m = 2 (equally spaced circle nodes)
    and m = 3 (antipodally symmetrized spiral on S^2); both sets are
    reproducible without randomness.  Higher-dimensional boundaries use
    seeded uniform sampling; reported statistics should then be read
    with the Monte Carlo 3-sigma tolerance.

    Counts are rounded up to even for the symmetrized spiral.
    """
    if m < 2:
        raise ValueError("boundary quadrature needs m >= 2")
    if count < 12:
        raise ValueError("count >= 12 required for any meaningful moment check")
    if scheme == "deterministic-sphere":
        if m == 2:
            sphere = _circle_nodes(count)
        elif m == 3:
            count = count + (count % 2)
            sphere = _spiral_sphere(count)
        else:
            raise ValueError(
                "deterministic nodes are only laid out on S^1 and S^2; "
                "use scheme='monte-carlo' with a seed for m >= 4"
            )
        used_seed = None
    elif scheme == "monte-carlo":
        if seed is None:
            raise ValueError("monte-carlo quadrature requires an explicit seed")
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((count, m))
        sphere = g / np.linalg.norm(g, axis=1, keepdims=True)
        used_seed = int(seed)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    nodes = np.column_stack([np.ones(sphere.shape[0]), sphere])
    return BoundaryQuadrature(
        nodes=nodes,
        weights=_uniform_weights(sphere.shape[0]),
        scheme=scheme,
        seed=used_seed,
    )


def transvection_to(p: HyperboloidPoint) -> np.ndarray:
    """Lorentz matrix of the hyperbolic translation sending o to p:
    the columns are p and the rows of :func:`tangent_frame` at p.

    The map boosts along the geodesic from o to p and fixes the
    Minkowski-orthogonal complement of that plane.  Applied to boundary
    representatives it realizes the visual-measure transport from o
    to p: the pushforward of the round measure at o.
    """
    return np.column_stack([p.coords, tangent_frame(p).T])


def random_point(
    rng: np.random.Generator, m: int, max_radius: float = 2.0
) -> HyperboloidPoint:
    """A random point at distance uniform in [0, max_radius] from o."""
    direction = rng.standard_normal(m)
    direction /= np.linalg.norm(direction)
    r = max_radius * rng.random()
    c = np.concatenate([[np.cosh(r)], np.sinh(r) * direction])
    return HyperboloidPoint(c)
