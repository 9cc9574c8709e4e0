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
numerical volume-growth entropy obtained by integrating sinh^{n_i - 1}
shells over the radial quarter-plane.
"""

from __future__ import annotations

import dataclasses
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
            "volume_normalization_error": abs(float(np.prod(alpha**dims)) - 1.0),
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
    if any(h <= 0 for h in ents):
        raise ValueError("factor entropies must be positive")
    if min(dims) < 3:
        raise ValueError("factor dimensions below 3 are outside the supported regime")
    d = np.array(dims, dtype=float)
    h = np.array(ents, dtype=float)
    n = d.sum()
    # Work in logs: the exponents n_j / n make the products scale-safe.
    log_c = float(np.sum((d / n) * (0.5 * np.log(d) - np.log(h))))
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
    if report["entropy_identity_error"] > 1e-9 * max(1.0, h_min**2):
        raise AssertionError("scaled entropies do not recombine to h_min")
    if report["volume_normalization_error"] > 1e-9:
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
    """Least-squares slope of log V(rho) over a radius window.

    ``mc_slope_std`` is the batch spread of the slope for the Monte
    Carlo method (None for deterministic grids).
    """

    slope: float
    residual_rms: float
    rho: np.ndarray
    log_volume: np.ndarray
    method: str
    mc_slope_std: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "log_volume", np.asarray(self.log_volume, dtype=float))


def _rho_grid(radius_lo: float, radius_hi: float) -> np.ndarray:
    """The radii a growth slope is fitted at: every 0.25 from radius_lo
    up to radius_hi."""
    return np.arange(radius_lo, radius_hi + 1e-9, 0.25)


def _log_cell_masses_1d(n: int, r_max: float, step: float):
    r = (np.arange(int(np.ceil(r_max / step))) + 0.5) * step
    logmass = (n - 1) * np.log(np.sinh(r)) + np.log(step)
    return r, logmass


def _log_ball_volume(radii, log_mass, rho) -> np.ndarray:
    """log of the mass of all cells with radius at most each rho: cells
    sorted by radius, masses accumulated in the log domain."""
    order = np.argsort(radii)
    cum = np.logaddexp.accumulate(log_mass[order])
    idx = np.searchsorted(radii[order], rho, side="right") - 1
    if np.any(idx < 0):
        raise ValueError("radius_lo is below the first occupied cell")
    return cum[idx]


def _fit_slope(rho, logv, method) -> GrowthEstimate:
    A = np.vstack([rho, np.ones_like(rho)]).T
    coef, *_ = np.linalg.lstsq(A, logv, rcond=None)
    resid = logv - A @ coef
    return GrowthEstimate(
        slope=float(coef[0]),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        rho=rho,
        log_volume=logv,
        method=method,
    )


def entropy_growth_numeric(
    dims,
    radius_lo: float,
    radius_hi: float,
    grid_step: float = 0.05,
    *,
    seed: int = 0,
) -> GrowthEstimate:
    """Volume-growth entropy of H^{n_1} x ... x H^{n_k} (unscaled metric).

    The ball volume is reduced to the radial coordinates: integrate
    prod_i sinh^{n_i - 1}(r_i) over the quarter-disc r_1^2 + ... <= rho^2
    (angular factors are constants and do not move the slope).  One and
    two factors use a deterministic midpoint grid accumulated in the
    log domain; three or more factors average exact integrals along
    2000 seeded rays in the positive orthant, and the residual of the
    fit should be read together with the Monte Carlo noise.

    Returns the least-squares slope of log V(rho) for rho in
    [radius_lo, radius_hi] sampled every 0.25.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError("factor dimensions must all be >= 2")
    if not (0 < radius_lo < radius_hi):
        raise ValueError("need 0 < radius_lo < radius_hi")
    if grid_step <= 0 or grid_step > 0.1:
        raise ValueError("grid_step must lie in (0, 0.1] for a trustworthy slope")
    rho = _rho_grid(radius_lo, radius_hi)

    if len(dims) <= 2:
        # midpoint cells of the radial box, one grid per factor, cut to
        # the quarter disc
        radii, logmass = zip(
            *(_log_cell_masses_1d(d, radius_hi, grid_step) for d in dims)
        )
        rr = np.sqrt(sum(r**2 for r in np.ix_(*radii))).ravel()
        lm = sum(np.ix_(*logmass)).ravel()
        keep = rr <= radius_hi + grid_step
        logv = _log_ball_volume(rr[keep], lm[keep], rho)
        return _fit_slope(rho, logv, f"grid-{len(dims)}d")

    # k >= 3: Monte Carlo over radial directions with an exact
    # cumulative integral along each ray, in the log domain.
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

    logv = average(log_cum)
    batches = np.array_split(np.arange(n_dir), 10)
    slopes = [
        _fit_slope(rho, average(log_cum[b]), "monte-carlo").slope for b in batches
    ]
    return dataclasses.replace(
        _fit_slope(rho, logv, "monte-carlo"), mc_slope_std=float(np.std(slopes))
    )
