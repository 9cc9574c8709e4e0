"""Products of real hyperbolic factors and their optimal scaling.

A product of factors H^{n_1} x ... x H^{n_k} carries a family of
product metrics obtained by scaling each factor metric g_i by a
constant alpha_i^2.  Among the volume-normalized members of that family
(the product of the scalings, weighted by factor dimensions, equal to
one) there is a unique one minimizing the volume-growth entropy.  The
closed forms implemented here:

    alpha_i = (h_i / sqrt(n_i)) * prod_j (sqrt(n_j) / h_j)^(n_j / n)
    h_min   = sqrt(n) * prod_j (h_j / sqrt(n_j))^(n_j / n)

with n = sum n_j and h_j the entropy of the unscaled factor
(h_j = n_j - 1 for the real hyperbolic factors used here).  Scaling a
factor by alpha changes its entropy to h / alpha, so the product
entropy of the optimum satisfies sum_i (h_i / alpha_i)^2 = h_min^2;
this identity is asserted.  A different weighted aggregate of the same
ratios is exposed by :meth:`ScalingProfile.consistency_report` for
inspection only, never asserted.

The module also provides product points and their distances, and a
numerical volume-growth entropy: the radial ball volume is integrated
one factor at a time over sinh^{n_i - 1} shells, by one deterministic
recursion for any number of factors, and the slope of log V is fitted
after removing the rank prefactor ((k - 1)/2) log(rho).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .hyperbolic import HyperboloidPoint, dist

__all__ = [
    "ScalingProfile",
    "min_entropy_profile",
    "ProductPoint",
    "product_dist",
    "GrowthEstimate",
    "entropy_growth_numeric",
]

# natural logs of the smallest normal and the largest float
_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ScalingProfile:
    """Entropy-minimizing scaling data for a product of hyperbolic factors.

    dims       factor dimensions (n_1, ..., n_k), each >= 3.
    entropies  factor volume entropies (h_1, ..., h_k), each > 0.
    alpha      per-factor scaling of lengths in the optimal metric.
    h_min      entropy of the optimal product metric.
    gm_factor  h_min^2 / (4 n): the square scaling relating the optimal
               metric to its curvature-normalized companion.
    """

    dims: tuple[int, ...]
    entropies: tuple[float, ...]
    alpha: tuple[float, ...]
    h_min: float
    gm_factor: float

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return int(sum(self.dims))

    def consistency_report(self) -> dict:
        """Numeric health of the closed forms.

        ``entropy_identity_error`` and ``volume_normalization_error``
        are genuine identities (asserted elsewhere); the
        ``dimension_weighted_ratio`` entry is a conjectural aggregate
        reported for inspection only.
        """
        dims = np.array(self.dims, dtype=float)
        ents = np.array(self.entropies, dtype=float)
        alpha = np.array(self.alpha, dtype=float)
        scaled = ents / alpha
        weighted = float(np.sum(dims * scaled**2))
        return {
            "entropy_identity_error": abs(float(np.sum(scaled**2)) - self.h_min**2),
            # from sum n_i log alpha_i: alpha_i^n_i alone can overflow
            "volume_normalization_error": abs(
                float(np.exp(np.sum(dims * np.log(alpha)))) - 1.0
            ),
            "dimension_weighted_sum": weighted,
            "dimension_weighted_ratio": weighted / (self.n * self.h_min**2),
        }


def min_entropy_profile(dims, entropies) -> ScalingProfile:
    """Closed-form optimal scaling profile for a product of factors.

    Factor dimensions below 3 are outside the supported regime and are
    rejected.
    """
    dims = tuple(int(d) for d in dims)
    ents = tuple(float(h) for h in entropies)
    if len(dims) != len(ents) or not dims:
        raise ValueError("dims and entropies must be matched, nonempty sequences")
    if not all(0 < h < math.inf for h in ents):
        raise ValueError("factor entropies must be positive and finite")
    if min(dims) < 3:
        raise ValueError("factor dimensions below 3 are outside the supported regime")
    d = np.array(dims, dtype=float)
    h = np.array(ents, dtype=float)
    n = d.sum()
    # Work in logs: the exponents n_j / n make the products scale-safe.
    log_c = float(np.sum((d / n) * (0.5 * np.log(d) - np.log(h))))
    # h_min^2 is squared as a Python float, which raises on overflow, and
    # divides the consistency report's weighted sum (at most n h_min^2):
    # keep n^2 h_min^2 finite and h_min^2 a normal float
    log_square = math.log(n) - 2.0 * log_c
    if not _LOG_TINY <= log_square <= _LOG_HUGE - 2.0 * math.log(n):
        raise ValueError(
            f"factor entropies {ents}: h_min^2 = exp({log_square:.6g}) "
            "leaves the float range"
        )
    alpha = h / np.sqrt(d) * np.exp(log_c)
    h_min = float(np.sqrt(n) * np.exp(-log_c))
    profile = ScalingProfile(
        dims=dims,
        entropies=ents,
        alpha=tuple(float(a) for a in alpha),
        h_min=h_min,
        gm_factor=h_min**2 / (4.0 * n),
    )
    report = profile.consistency_report()
    # a NaN error fails these too
    if not report["entropy_identity_error"] <= 1e-9 * max(1.0, h_min**2):
        raise AssertionError("scaled entropies do not recombine to h_min")
    if not report["volume_normalization_error"] <= 1e-9:
        raise AssertionError("profile does not preserve the normalized volume")
    return profile


@dataclass(frozen=True)
class ProductPoint:
    """A point of the product: one hyperboloid point per factor."""

    factors: tuple[HyperboloidPoint, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a product point needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.m for f in self.factors)


def product_dist(x: ProductPoint, y: ProductPoint, profile: ScalingProfile) -> float:
    """Distance in the scaled product metric:
    sqrt(sum_i alpha_i^2 d_i(x_i, y_i)^2)."""
    for dims in (x.dims, y.dims):
        if dims != profile.dims:
            raise ValueError(
                f"factor dimensions {dims} do not match the profile {profile.dims}"
            )
    parts = [
        (a * dist(xf, yf)) ** 2
        for a, xf, yf in zip(profile.alpha, x.factors, y.factors)
    ]
    return float(np.sqrt(sum(parts)))


@dataclass(frozen=True)
class GrowthEstimate:
    """Least-squares slope of log V(rho) - prefactor * log(rho) over a
    radius window; ``log_volume`` keeps log V itself."""

    slope: float
    residual_rms: float
    rho: np.ndarray
    log_volume: np.ndarray
    prefactor: float

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "log_volume", np.asarray(self.log_volume, dtype=float))


def _rho_grid(radius_lo: float, radius_hi: float) -> np.ndarray:
    """The radii a growth slope is fitted at: every 0.25 from radius_lo
    up to radius_hi."""
    return np.arange(radius_lo, radius_hi + 1e-9, 0.25)


def _fit_slope(rho, logv, prefactor: float) -> GrowthEstimate:
    """Fit log V - prefactor * log(rho) with a line in rho."""
    A = np.vstack([rho, np.ones_like(rho)]).T
    y = logv - prefactor * np.log(rho)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return GrowthEstimate(
        slope=float(coef[0]),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        rho=rho,
        log_volume=logv,
        prefactor=prefactor,
    )


# rows of the radial table evaluated together: each level holds a
# (_TABLE_ROWS, N) block, so memory is O(N) for N cells
_TABLE_ROWS = 32


def _log_shell_sum(r, log_cell, table, step, radii) -> np.ndarray:
    """log sum_i cell_i V(sqrt(R^2 - r_i^2)) over the cells r_i <= R, for
    each R in radii, with log V read linearly between the entries of
    ``table``, its values at every multiple of step.  Where an entry is
    log 0, V is 0 up to the next entry."""
    first = int(np.count_nonzero(np.isneginf(table)))  # log 0 heads the table
    top = table.size - 2
    if first > top:
        raise ValueError("radius_lo is below the first occupied cell")
    out = np.empty(radii.size)
    for lo in range(0, radii.size, _TABLE_ROWS):
        R = radii[lo : lo + _TABLE_ROWS, None]
        s2 = R * R - r * r
        inside = s2 >= 0.0
        x = np.sqrt(np.where(inside, s2, 0.0)) / step
        m = np.minimum(x.astype(np.intp), top)
        w = x - m
        ms = np.maximum(m, first)  # reads finite entries only
        v = (1.0 - w) * table[ms] + w * table[ms + 1] + log_cell
        v = np.where(inside & (m >= first), v, -np.inf)
        out[lo : lo + _TABLE_ROWS] = np.logaddexp.reduce(v, axis=1)
    return out


def entropy_growth_numeric(
    dims,
    radius_lo: float,
    radius_hi: float,
    grid_step: float = 0.05,
) -> GrowthEstimate:
    """Volume-growth entropy of H^{n_1} x ... x H^{n_k} (unscaled metric).

    The ball volume is reduced to the radial coordinates: integrate
    prod_i sinh^{n_i - 1}(r_i) over the quarter-disc r_1^2 + ... <= rho^2
    (angular factors are constants and do not move the slope).  One
    factor at a time, over midpoint cells r_i of width grid_step and in
    the log domain, with V_0 = 1:

        V_j(rho) = sum over r_i <= rho of
                   sinh^{n_j - 1}(r_i) V_{j-1}(sqrt(rho^2 - r_i^2)) step

    log V_{j-1} is tabulated every grid_step and read linearly in the
    radius; V_k is summed at the fit radii directly, so one factor is
    the 1-D midpoint sum itself.  Memory is O(N) and time O(k N^2) for
    N = radius_hi / grid_step.

    A product of k rank-one factors has rank k and ball volume of order
    rho^((k-1)/2) e^(h rho), so the slope is the least-squares line of
    log V(rho) - ((k-1)/2) log(rho), rho every 0.25 in
    [radius_lo, radius_hi].
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError("factor dimensions must all be >= 2")
    if not (0 < radius_lo < radius_hi):
        raise ValueError("need 0 < radius_lo < radius_hi")
    if grid_step <= 0 or grid_step > 0.1:
        raise ValueError("grid_step must lie in (0, 0.1] for a trustworthy slope")
    rho = _rho_grid(radius_lo, radius_hi)
    r = (np.arange(int(np.ceil(radius_hi / grid_step))) + 0.5) * grid_step
    log_sinh = np.log(np.sinh(r))
    logv = np.zeros(r.size + 1)  # log V_0 at every multiple of grid_step
    for j, d in enumerate(dims, 1):
        radii = rho if j == len(dims) else np.arange(r.size + 1) * grid_step
        log_cell = (d - 1) * log_sinh + np.log(grid_step)
        logv = _log_shell_sum(r, log_cell, logv, grid_step, radii)
    if not np.all(np.isfinite(logv)):
        raise ValueError("radius_lo is below the first occupied cell")
    return _fit_slope(rho, logv, 0.5 * (len(dims) - 1))
