"""Hyperboloid-model primitives for the real hyperbolic space H^m.

Points live on the upper sheet {q(x, x) = -1, x_0 > 0} of the unit
hyperboloid in Minkowski space R^{m,1}, where

    q(x, y) = -x_0 y_0 + x_1 y_1 + ... + x_m y_m.

Boundary directions are future-pointing null rays xi; normalized by
q(o, xi) = -1 against the base point o = (1, 0, ..., 0), they anchor
every horofunction at o: B(o, xi) = 0.  The boundary rule integrates
against the round measure through one axis, as a 1-D Gauss rule in the
cosine with that axis (:func:`boundary_quadrature`).  A
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

import math
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
    """The round probability measure on the boundary sphere S^{m-1} of
    H^m, reduced to one axis.  An integrand that depends only on the
    cosine t with a fixed unit vector integrates against the marginal of
    t, whose density is proportional to (1 - t^2)^((m-3)/2).

    nodes   (L, 2): each node t with sqrt(1 - t^2), its point on the
            half circle of a meridian.
    weights positive, summing to 1 exactly under math.fsum.
    m       the dimension of H^m.
    """

    nodes: np.ndarray
    weights: np.ndarray
    m: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if nodes.shape != (w.size, 2):
            raise ValueError("nodes and weights are inconsistent")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if math.fsum(w.tolist()) != 1.0:
            raise ValueError("weights must sum to 1 exactly")
        object.__setattr__(self, "nodes", _readonly(nodes))
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def count(self) -> int:
        """2 L^2 for L nodes: the least `[quadrature] count` that gives
        this order, and the size of the tensor rule of the same order on
        S^2."""
        return 2 * self.weights.size**2


def _gauss_rule(L: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """The L-point Gauss rule for the probability weight proportional
    to (1 - t^2)^a on [-1, 1], a >= 0, by Golub-Welsch: the nodes are
    the eigenvalues of the Jacobi matrix of the monic orthogonal
    polynomials, the weights the squared first components of its unit
    eigenvectors.  Symmetrized so that t[::-1] = -t and w[::-1] = w
    hold exactly."""
    n = np.arange(1.0, L)
    off = np.sqrt(n * (n + 2 * a) / ((2 * n + 2 * a) ** 2 - 1))
    t, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = v[0] ** 2
    return (t - t[::-1]) / 2, (w + w[::-1]) / 2


def boundary_quadrature(
    m: int, count: int, scheme: str = "deterministic-sphere"
) -> BoundaryQuadrature:
    """Zonal quadrature for the round probability measure on S^{m-1},
    m >= 3: the Gauss rule for the weight (1 - t^2)^((m-3)/2) at order
    L = floor(sqrt(count / 2)) in every dimension, the order a tensor
    rule of ``count`` nodes reaches on S^2.  It integrates polynomials
    in t up to degree 2L - 1 exactly; its weights are positive,
    symmetric under t -> -t but for the largest, which absorbs the
    rounding residue of the mass.  ``count`` below 8 (L < 2) is
    rejected.
    """
    # the only accepted scheme, still passed by name by the benchmark's
    # --trace reference pass (perfbench/workloads.py)
    if scheme != "deterministic-sphere":
        raise ValueError(f"unknown scheme {scheme!r}")
    if m < 3:
        raise ValueError("boundary quadrature needs m >= 3")
    if count < 8:
        raise ValueError("count >= 8 required, the size of order 2")
    L = math.isqrt(count // 2)
    t, w = _gauss_rule(L, (m - 3) / 2)
    w /= math.fsum(w.tolist())  # keeps symmetric weights equal
    mid = L // 2  # the largest weight absorbs the rounding residue
    w[mid] = 1.0 - math.fsum(np.delete(w, mid).tolist())
    return BoundaryQuadrature(np.column_stack([t, np.sqrt(1.0 - t * t)]), w, m)


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
