"""Horofunction barycenters of weighted configurations on a product.

For a finite configuration of atoms p_j with weights w_j summing to 1,
the functional

    F(x) = sum_j w_j int B0(x, theta) d nu_{p_j}(theta)

integrates the product horofunction against the visual probability
measure seen from each atom (the product over factors of the factor
visual measures).  F is strictly convex with a unique minimizer, the
barycenter of the configuration.  Its first and second derivatives are
the quadratic forms

    H(v, w) = sum_j w_j int dB0(v) dB0(w) d nu_{p_j}
    K(v, w) = sum_j w_j int Hess B0(v, w) d nu_{p_j}

with trace(H) = 1 (the integrand is a unit covector squared) and, for
real hyperbolic factors, the per-factor reduction K_i = Id - H_i.

Quadrature realization.  Each atom's visual measure is represented by
transporting one fixed boundary node set through the hyperbolic
translation taking the base point to the atom.  This is the same
integral as weighting fixed nodes by the visual density (the density
is the boundary Jacobian of that translation); the transported form
keeps the exact symmetries: node weights stay uniform and sum to 1,
so the quadrature mass is 1 by construction and enters no formula,
single-atom gradients vanish at the atom to machine precision, and the
whole computation is equivariant under factor isometries.  The
density-weighted route stays available in :mod:`minent.hyperbolic` and
the two routes are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hyperbolic import (
    BoundaryQuadrature,
    HyperboloidPoint,
    minkowski_form,
    parallel_transport,
    random_point,
    tangent_frame,
    transvection_to,
)
from .products import (
    ProductPoint,
    ScalingProfile,
    product_dist,
    product_exp,
)

__all__ = [
    "WeightedConfiguration",
    "FormPair",
    "BarycenterSolution",
    "BarycenterProblem",
    "NearSingularError",
    "BcgResult",
    "bcg_inequality_check",
    "bcg_campaign",
    "JacobianReport",
    "jacobian_bound_report",
    "DifferentialEstimate",
    "bar_differential_fd",
    "NaturalMapResult",
    "natural_map_discrete",
    "natural_map_energy",
    "form_lipschitz_ratio",
    "random_configuration",
]


class NearSingularError(ValueError):
    """A quadratic form is too close to singular for a determinant bound."""


@dataclass(frozen=True)
class WeightedConfiguration:
    """Finitely many atoms with positive weights summing to 1."""

    atoms: tuple[ProductPoint, ...]
    weights: tuple[float, ...]
    profile: ScalingProfile

    def __post_init__(self):
        if len(self.atoms) != len(self.weights) or not self.atoms:
            raise ValueError("atoms and weights must be matched and nonempty")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        for p in self.atoms:
            if p.dims != self.profile.dims:
                raise ValueError("atom dimensions do not match the profile")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def size(self) -> int:
        return len(self.atoms)

    def reweighted(self, weights) -> "WeightedConfiguration":
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
        return WeightedConfiguration(self.atoms, tuple(w), self.profile)


@dataclass(frozen=True)
class FormPair:
    """The two quadratic forms at a point, in the orthonormal frame of
    the scaled product metric.

    H, K             full n x n matrices (K is block diagonal).
    factor_h         per-factor second-moment matrices S_i in the
                     unscaled factor frames; the diagonal blocks are
                     H_ii = S_i / k and K_ii = (Id - S_i) / (alpha_i
                     sqrt(k)), and the cross blocks of H are products
                     of first moments.
    frames           per-factor orthonormal frames at the point.
    """

    H: np.ndarray
    K: np.ndarray
    factor_h: tuple[np.ndarray, ...]
    frames: tuple[np.ndarray, ...]

    def trace_h(self) -> float:
        return float(np.trace(self.H))


@dataclass(frozen=True)
class BarycenterSolution:
    point: ProductPoint
    gradient_norm: float
    value: float
    iterations: int
    converged: bool


class BarycenterProblem:
    """One configuration with its transported quadrature nodes.

    Prepares, per atom and factor, the node set representing the atom's
    visual measure, and evaluates the functional, gradient and forms at
    arbitrary points.  All evaluations share the preparation.
    """

    def __init__(
        self,
        config: WeightedConfiguration,
        quads: list[BoundaryQuadrature] | tuple[BoundaryQuadrature, ...],
    ):
        profile = config.profile
        if len(quads) != profile.k:
            raise ValueError("need one boundary quadrature per factor")
        for q, m in zip(quads, profile.dims):
            if q.m != m:
                raise ValueError(
                    f"quadrature on S^{q.m - 1} does not match factor H^{m}"
                )
            if q.scheme == "deterministic-sphere" and q.count < 200:
                raise ValueError("deterministic quadrature needs >= 200 nodes")
            if q.scheme == "monte-carlo" and q.seed is None:
                raise ValueError("monte-carlo quadrature must carry its seed")
        self.config = config
        self.profile = profile
        self.quads = tuple(quads)
        # Transported nodes: atom j, factor i -> (count_i, m_i + 1).
        self.nodes: list[list[np.ndarray]] = []
        for atom in config.atoms:
            per_factor = []
            for i, xf in enumerate(atom.factors):
                M = transvection_to(xf)
                moved = self.quads[i].nodes @ M.T
                moved = moved / moved[:, :1]
                per_factor.append(moved)
            self.nodes.append(per_factor)
        self.w = np.array(config.weights)

    # -- raw per-factor moments ------------------------------------------

    def _moments(self, x: ProductPoint, need_forms: bool, frames=None):
        """Per atom j and factor i: mean horofunction value, mean frame
        differential, and (optionally) its second moment, at the factor
        point x_i.  Differentials are taken in ``frames`` (per-factor
        orthonormal rows at x), by default the tangent frames at x."""
        prof = self.profile
        if frames is None:
            frames = [tangent_frame(xf) for xf in x.factors]
        J = self.config.size
        values = np.zeros((J, len(prof.dims)))
        means = [np.zeros((J, m)) for m in prof.dims]
        seconds = [np.zeros((J, m, m)) for m in prof.dims] if need_forms else None
        for i, xf in enumerate(x.factors):
            sign = np.r_[-1.0, np.ones(xf.m)]  # q(u, v) = u @ (sign * v)
            gx = sign * xf.coords
            fg = frames[i] * sign  # (m_i, m_i+1)
            wts = self.quads[i].weights
            for j in range(J):
                nodes = self.nodes[j][i]
                s = -(nodes @ gx)
                b = -(nodes @ fg.T) / s[:, None]
                values[j, i] = float(wts @ np.log(s))
                means[i][j] = wts @ b
                if need_forms:
                    seconds[i][j] = (b * wts[:, None]).T @ b
        return frames, values, means, seconds

    # -- public evaluations ----------------------------------------------

    def value_and_grad(self, x: ProductPoint):
        """Value, gradient, gradient norm and tangent frames at x.  The
        gradient is per-factor components in the orthonormal frame of
        the scaled metric (concatenate for the full vector)."""
        prof = self.profile
        rk = np.sqrt(prof.k)
        frames, values, means, _ = self._moments(x, need_forms=False)
        value = float(
            sum(
                (prof.alpha[i] / rk) * float(self.w @ values[:, i])
                for i in range(prof.k)
            )
        )
        grad = [np.asarray(self.w @ means[i]) / rk for i in range(prof.k)]
        gnorm = float(np.sqrt(sum(float(g @ g) for g in grad)))
        return value, grad, gnorm, frames

    def forms(self, x: ProductPoint, frames=None) -> FormPair:
        """H and K at x, expressed in ``frames`` (per-factor orthonormal
        rows at x; the tangent frames at x by default)."""
        prof = self.profile
        k, rk = prof.k, np.sqrt(prof.k)
        frames, _, means, seconds = self._moments(x, need_forms=True, frames=frames)
        mu = np.hstack(means)  # (J, n) first moments
        H = (mu.T * self.w) @ mu / k
        K = np.zeros_like(H)
        offsets = np.cumsum((0,) + prof.dims)
        factor_h = []
        for i, m in enumerate(prof.dims):
            sl = slice(offsets[i], offsets[i + 1])
            S_i = np.einsum("j,jab->ab", self.w, seconds[i])
            factor_h.append(S_i)
            H[sl, sl] = S_i / k
            K[sl, sl] = (np.eye(m) - S_i) / (prof.alpha[i] * rk)
        H = (H + H.T) / 2.0
        K = (K + K.T) / 2.0
        return FormPair(H=H, K=K, factor_h=tuple(factor_h), frames=tuple(frames))

    # -- solver -----------------------------------------------------------

    def initial_point(self) -> ProductPoint:
        """Weighted ambient average per factor, renormalized to the sheet."""
        out = []
        for i in range(self.profile.k):
            acc = np.zeros(self.profile.dims[i] + 1)
            for w, atom in zip(self.w, self.config.atoms):
                acc += w * atom.factors[i].coords
            acc = acc / np.sqrt(-minkowski_form(acc, acc))
            out.append(HyperboloidPoint(acc))
        return ProductPoint(tuple(out))

    def solve(
        self,
        tol: float = 1e-8,
        max_iter: int = 100,
        x0: ProductPoint | None = None,
    ) -> BarycenterSolution:
        if tol < 1e-10:
            raise ValueError("tolerances below 1e-10 are not resolvable here")
        prof = self.profile
        x = x0 if x0 is not None else self.initial_point()
        value, grad, gnorm, frames = self.value_and_grad(x)
        for it in range(1, max_iter + 1):
            if gnorm <= tol:
                return BarycenterSolution(x, gnorm, value, it - 1, True)
            pair = self.forms(x)
            g = np.concatenate(grad)
            try:
                delta = np.linalg.solve(pair.K, -g)
            except np.linalg.LinAlgError:
                raise NearSingularError("second-derivative form is singular")
            comps = np.split(delta, np.cumsum(prof.dims)[:-1])
            t = 1.0
            for _ in range(30):
                # c_i are components along the scaled frame F_i / alpha_i
                steps = [
                    (t * c) @ F / a for c, F, a in zip(comps, frames, prof.alpha)
                ]
                try:
                    trial = product_exp(x, steps, prof)
                except ValueError:
                    # beyond what a float hyperboloid point holds
                    t *= 0.5
                    continue
                tval, tgrad, tnorm, tframes = self.value_and_grad(trial)
                if tval < value or tnorm < gnorm:
                    x, value, grad, gnorm, frames = trial, tval, tgrad, tnorm, tframes
                    break
                t *= 0.5
            else:
                # no progress at the smallest damping: report where we are
                return BarycenterSolution(x, gnorm, value, it, False)
        return BarycenterSolution(x, gnorm, value, max_iter, gnorm <= tol)


# -- determinant inequalities ---------------------------------------------


@dataclass(frozen=True)
class BcgResult:
    ratio: float
    bound: float
    holds: bool
    equality_gap: float


def bcg_inequality_check(H: np.ndarray, n: int, h: float) -> BcgResult:
    """The determinant inequality det(H)^1/2 / det(Id - H) <= (sqrt(n)/h)^n
    for trace-1 positive semidefinite H; sharp exactly at H = Id/n when
    h = n - 1."""
    H = np.asarray(H, dtype=float)
    if H.shape != (n, n):
        raise ValueError("H must be n x n")
    if np.abs(H - H.T).max() > 1e-10:
        raise ValueError("H must be symmetric")
    if abs(np.trace(H) - 1.0) > 1e-8:
        raise ValueError("H must have unit trace")
    eig = np.linalg.eigvalsh(H)
    if eig[0] < -1e-10:
        raise ValueError("H must be positive semidefinite")
    comp = np.eye(n) - H
    det_comp = float(np.linalg.det(comp))
    if det_comp <= 0:
        raise NearSingularError(
            "det(Id - H) <= 0: an eigenvalue of H reaches 1, the ratio is undefined"
        )
    ratio = float(np.sqrt(max(np.linalg.det(H), 0.0)) / det_comp)
    bound = (np.sqrt(n) / h) ** n
    return BcgResult(
        ratio=ratio,
        bound=float(bound),
        holds=bool(ratio <= bound * (1 + 1e-12)),
        equality_gap=float(bound - ratio),
    )


def bcg_campaign(
    n: int, count: int, seed: int = 0
) -> dict:
    """Vectorized random search for violations of the determinant
    inequality at h = n - 1: ``count`` random trace-1 PSD matrices with
    Dirichlet eigenvalues and Haar-ish orthogonal frames."""
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(n), size=count)
    gauss = rng.standard_normal((count, n, n))
    ratios = np.sqrt(np.prod(lam, axis=1)) / np.prod(1.0 - lam, axis=1)
    bound = (np.sqrt(n) / (n - 1)) ** n
    # The ratio depends only on the spectrum; assemble a few full
    # matrices and push them through the scalar check as a route check;
    # only their frames get a QR.
    spot = min(8, count)
    q, r = np.linalg.qr(gauss[:spot])
    sign = np.sign(np.einsum("cii->ci", r))
    q = q * sign[:, None, :]
    spot_err = 0.0
    for c in range(spot):
        Hc = (q[c] * lam[c][None, :]) @ q[c].T
        Hc = (Hc + Hc.T) / 2
        res = bcg_inequality_check(Hc, n, n - 1)
        spot_err = max(spot_err, abs(res.ratio - ratios[c]))
    violations = int(np.sum(ratios > bound * (1 + 1e-12)))
    return {
        "count": int(count),
        "violations": violations,
        "max_ratio": float(ratios.max()),
        "bound": float(bound),
        "min_gap": float(bound - ratios.max()),
        "matrix_route_error": float(spot_err),
        "seed": int(seed),
    }


@dataclass(frozen=True)
class JacobianReport:
    estimate: float
    bound: float
    holds: bool
    barycenter: ProductPoint
    gradient_norm: float
    h_eigen_max: float


def jacobian_bound_report(
    problem: BarycenterProblem,
    solution: BarycenterSolution | None = None,
) -> JacobianReport:
    """Both sides of the volume-distortion bound at the barycenter:
    estimate 2^n det(H)^{1/2} / det(K) against (4 n / h_min^2)^{n/2}.
    ``solution`` must come from ``problem``; it is solved here at the
    default tolerance if absent."""
    prof = problem.profile
    if solution is None:
        solution = problem.solve()
    if not solution.converged:
        raise NearSingularError("barycenter solve did not converge; no report")
    pair = problem.forms(solution.point)
    h_eigs = np.linalg.eigvalsh(pair.H)
    if h_eigs[-1] >= 1.0 - 1e-6:
        raise NearSingularError(
            "near-singular complement: an eigenvalue of H reaches "
            f"{h_eigs[-1]:.8f}; the determinant ratio is unstable"
        )
    for i, S_i in enumerate(pair.factor_h):
        if np.linalg.eigvalsh(S_i)[-1] >= 1.0:
            raise NearSingularError(f"factor {i} complement is singular")
    sign_k, logdet_k = np.linalg.slogdet(pair.K)
    if sign_k <= 0:
        raise NearSingularError("full complement form is singular")
    sign_h, logdet_h = np.linalg.slogdet(pair.H)
    if sign_h <= 0:
        estimate = 0.0
    else:
        estimate = float(
            np.exp(prof.n * np.log(2.0) + 0.5 * logdet_h - logdet_k)
        )
    bound = float((4.0 * prof.n / prof.h_min**2) ** (prof.n / 2.0))
    return JacobianReport(
        estimate=estimate,
        bound=bound,
        holds=bool(estimate <= bound * (1 + 1e-9)),
        barycenter=solution.point,
        gradient_norm=solution.gradient_norm,
        h_eigen_max=float(h_eigs[-1]),
    )


# -- differential of the barycenter map ------------------------------------


@dataclass(frozen=True)
class DifferentialEstimate:
    norm: float
    bound: float
    slack: float


def bar_differential_fd(
    config: WeightedConfiguration,
    quads,
    direction,
    step: float = 1e-3,
    tol: float = 1e-9,
) -> DifferentialEstimate:
    """Finite-difference norm of the barycenter differential along a
    unit tangent direction of the square-root weight sphere.

    The direction u must satisfy <u, sqrt(w)> = 0; it is normalized
    here.  Perturbed weights are (sqrt(w) + step u)^2 renormalized.
    The norm is compared against sqrt(4 n / h_min^2); the signed slack
    (norm / bound - 1) is reported, not asserted.
    """
    if step > 1e-3 or step <= 0:
        raise ValueError("step must lie in (0, 1e-3]")
    u = np.asarray(direction, dtype=float)
    f = np.sqrt(np.array(config.weights))
    if u.shape != f.shape:
        raise ValueError("direction length must match the number of atoms")
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        return DifferentialEstimate(
            norm=0.0,
            bound=float(np.sqrt(4.0 * config.profile.n / config.profile.h_min**2)),
            slack=-1.0,
        )
    u = u / nrm
    if abs(float(u @ f)) > 1e-8:
        u = u - (u @ f) * f
        u = u / np.linalg.norm(u)
    base = BarycenterProblem(config, quads).solve(tol=tol)
    moved = config.reweighted((f + step * u) ** 2)
    shifted = BarycenterProblem(moved, quads).solve(tol=tol, x0=base.point)
    if not (base.converged and shifted.converged):
        raise NearSingularError("barycenter solve did not converge")
    norm = product_dist(base.point, shifted.point, config.profile) / step
    bound = float(np.sqrt(4.0 * config.profile.n / config.profile.h_min**2))
    return DifferentialEstimate(
        norm=float(norm), bound=bound, slack=float(norm / bound - 1.0)
    )


# -- discrete sphere-valued map --------------------------------------------


@dataclass(frozen=True)
class NaturalMapResult:
    components: np.ndarray
    energy: float
    bound: float
    deficit: float
    volume_ratio: float
    holds: bool


def _sphere_components(d: np.ndarray, c: float) -> np.ndarray:
    """Unit vector proportional to exp(-c/2 d_j), normalized in the log
    domain, so that it fails only if every raw component underflows."""
    if c <= 0:
        raise ValueError("the exponential rate c must be positive")
    if d.size < 2:
        raise ValueError("need at least two reference points")
    loga = -0.5 * c * d
    if loga.max() < -700.0:
        raise ValueError(
            "every component of the sphere map underflows; bring the "
            "basepoint closer to the reference points or adjust c"
        )
    logz = loga.max() + 0.5 * np.log(np.sum(np.exp(2.0 * (loga - loga.max()))))
    return np.exp(loga - logz)


def natural_map_discrete(
    points: list[ProductPoint], c: float, x: ProductPoint, profile: ScalingProfile
) -> np.ndarray:
    """The sphere map at x: components proportional to exp(-c/2 d(x, p_j))."""
    d = np.array([product_dist(x, p, profile) for p in points])
    return _sphere_components(d, c)


def natural_map_energy(
    points: list[ProductPoint], c: float, x: ProductPoint, profile: ScalingProfile
) -> NaturalMapResult:
    """Energy and volume of the sphere map at x, in closed form.

    With a_j the components, g_j = grad d(., p_j) (unit, in the
    orthonormal frame of the product metric that the factors'
    :func:`tangent_frame` rows give) and v = sum_j a_j^2 g_j,
    da_j = -(c/2) a_j (g_j - v): the pullback metric, the n x n form
    G = (c^2/4)(sum_j a_j^2 g_j (x) g_j - v (x) v), has trace
    (c^2/4)(1 - |v|^2), ``deficit`` is |v|^2, and by AM-GM
    ``volume_ratio`` = det(G)^(1/2) / (c^2/4n)^(n/2) <= 1.
    """
    d, u = [], []  # per factor: d_ij and the frame components u_ij of grad d_ij
    for i, xf in enumerate(x.factors):
        # from the chord w = x - p, |w| = 2 sinh(d/2): exactly 0 where x = p
        w = xf.coords - np.stack([pt.factors[i].coords for pt in points])
        s = np.sqrt(np.maximum(minkowski_form(w, w), 0.0))[:, None]
        d.append(2.0 * np.arcsinh(s[:, 0] / 2.0))
        sh = s * np.sqrt(1.0 + s * s / 4.0)  # sinh d; sinh(d) u = w + (cosh d - 1) x
        # q(x, e) = 0 for the frame rows e, so q(u, e) = q(w, e) / sinh d
        qw = minkowski_form(w[:, None], tangent_frame(xf))
        u.append(np.divide(qw, sh, out=np.zeros_like(qw), where=s > 0))
    dist = np.sqrt(sum((a * di) ** 2 for a, di in zip(profile.alpha, d)))
    if not dist.all():  # x = p_j in every factor: d_j has no gradient
        j = np.argmin(dist)
        raise ValueError(f"x is reference point {j}, where d(., p_{j}) is not smooth")
    comps = _sphere_components(dist, c)
    # g_j in the orthonormal frame of the product metric
    g = np.hstack(
        [(a * di / dist)[:, None] * ui for a, di, ui in zip(profile.alpha, d, u)]
    )
    v = (comps * comps) @ g
    deficit = float(v @ v)
    r = comps[:, None] * (g - v)  # G / (c^2/4) = r^T r, an n x n form
    lam = np.linalg.eigvalsh(r.T @ r)
    n = profile.n
    volume = np.sqrt(np.prod(np.maximum(n * lam, 0.0)))
    bound = c * c / 4.0
    energy = bound * (1.0 - deficit)
    holds = bool(energy <= bound * (1.0 + 1e-12))
    return NaturalMapResult(comps, energy, bound, deficit, float(volume), holds)


# -- empirical Lipschitz data for the second form --------------------------


def form_lipschitz_ratio(
    config_a: WeightedConfiguration,
    config_b: WeightedConfiguration,
    quads,
) -> dict:
    """Compare the H forms of two configurations after parallel
    transport between their barycenters.

    Returns the ratio of the form deviation to the configuration
    distance (barycenter distance plus square-root-weight distance).
    The family sampled in the tests shares its atom set, so the weight
    term is the natural configuration distance.
    """
    if config_a.profile is not config_b.profile and config_a.profile != config_b.profile:
        raise ValueError("configurations must share a profile")
    prof = config_a.profile
    problem_a = BarycenterProblem(config_a, quads)
    problem_b = BarycenterProblem(config_b, quads)
    sol_a = problem_a.solve(tol=1e-9)
    sol_b = problem_b.solve(tol=1e-9, x0=sol_a.point)
    pair_a = problem_a.forms(sol_a.point)
    # Transport the frame at Bar(a) to Bar(b) factor by factor and
    # express H_b in the transported frame.
    transported = [
        np.vstack([parallel_transport(xa, xb, row) for row in fa])
        for fa, xa, xb in zip(
            pair_a.frames, sol_a.point.factors, sol_b.point.factors
        )
    ]
    h_b = problem_b.forms(sol_b.point, transported).H
    dev = float(np.abs(h_b - pair_a.H).max())
    w_dist = float(
        np.linalg.norm(
            np.sqrt(np.array(config_a.weights)) - np.sqrt(np.array(config_b.weights))
        )
    )
    b_dist = product_dist(sol_a.point, sol_b.point, prof)
    denom = b_dist + w_dist
    return {
        "deviation": dev,
        "barycenter_distance": b_dist,
        "weight_distance": w_dist,
        "ratio": dev / denom if denom > 0 else 0.0,
    }


# -- sampling helpers ------------------------------------------------------


def random_configuration(
    rng: np.random.Generator,
    profile: ScalingProfile,
    n_atoms: int,
    spread: float = 1.5,
) -> WeightedConfiguration:
    """Random atoms within the given radius and Dirichlet weights."""
    atoms = []
    for _ in range(n_atoms):
        atoms.append(
            ProductPoint(
                tuple(random_point(rng, m, spread) for m in profile.dims)
            )
        )
    w = rng.dirichlet(np.full(n_atoms, 2.0))
    w = w / w.sum()
    w[-1] = 1.0 - float(sum(w[:-1].tolist()))
    return WeightedConfiguration(tuple(atoms), tuple(w), profile)
