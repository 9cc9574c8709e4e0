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
whole computation is equivariant under factor isometries.  The test
suite keeps the density-weighted route as the oracle of this one.

Evaluation.  The transported nodes of factor i are stored as one
(J, Q_i, m_i + 1) array over atoms and nodes.  One pass at a point gives
the value, the gradient and both forms: per factor, the horofunction
values and frame differentials at all J Q_i nodes, their first moments
per atom, and the weighted second moment S_i as one product over all
(atom, node) rows.  The Newton solver evaluates each point it visits
once and steps with the K of the last accepted point; the
:class:`BarycenterSolution` carries the forms at its point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hyperbolic import (
    BoundaryQuadrature,
    HyperboloidPoint,
    exp_map,
    minkowski_form,
    random_point,
    tangent_frame,
    transvection_to,
)
from .products import ProductPoint, ScalingProfile

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
    "NaturalMapResult",
    "natural_map_energy",
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


@dataclass(frozen=True)
class BarycenterSolution:
    """Where a solve stopped, with the forms at that point (in the
    tangent frames there)."""

    point: ProductPoint
    gradient_norm: float
    value: float
    iterations: int
    converged: bool
    forms: FormPair


class BarycenterProblem:
    """One configuration with its transported quadrature nodes.

    Prepares, per factor, the node sets representing the atoms' visual
    measures, stacked as one (J, Q_i, m_i + 1) array, and evaluates the
    functional, gradient and forms at arbitrary points.  All
    evaluations share the preparation.
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
        self.w = np.array(config.weights)
        # Transported nodes per factor: (J, Q_i, m_i + 1), atom j's node
        # set in row j, each node rescaled to first coordinate 1.
        self.nodes = []
        for i, q in enumerate(self.quads):
            M = np.stack([transvection_to(atom.factors[i]) for atom in config.atoms])
            moved = q.nodes @ M.transpose(0, 2, 1)
            moved /= moved[..., :1]
            self.nodes.append(moved)

    def value_and_grad(self, x: ProductPoint):
        """Value, gradient, gradient norm and forms at x, in one pass
        over the nodes.  The gradient is per-factor components in the
        orthonormal frame of the scaled metric (concatenate for the full
        vector); it and the :class:`FormPair` are expressed in the
        tangent frames at x."""
        prof = self.profile
        k, rk = prof.k, np.sqrt(prof.k)
        frames = [tangent_frame(xf) for xf in x.factors]
        value, means, factor_h = 0.0, [], []
        per_factor = zip(prof.alpha, x.factors, frames, self.nodes, self.quads)
        for a, xf, F, nodes, q in per_factor:
            sign = np.r_[-1.0, np.ones(xf.m)]  # q(u, v) = u @ (sign * v)
            s = -(nodes @ (sign * xf.coords))  # (J, Q): horofunction exp(B)
            b = nodes @ (F * sign).T  # (J, Q, m): frame differentials of B
            b /= -s[..., None]
            value += a / rk * float(self.w @ (np.log(s) @ q.weights))
            means.append(q.weights @ b)  # (J, m) first moments per atom
            # S_i = sum_j w_j sum_q wts_q b b^T: one product over all
            # (atom, node) rows once each row carries sqrt(w_j wts_q)
            b *= np.sqrt(q.weights)[:, None]
            b *= np.sqrt(self.w)[:, None, None]
            rows = b.reshape(-1, xf.m)
            factor_h.append(rows.T @ rows)
            del s, b, rows  # one factor's (J, Q) arrays alive at a time
        grad = [self.w @ mu / rk for mu in means]
        gnorm = float(np.sqrt(sum(float(g @ g) for g in grad)))
        mu = np.hstack(means)  # (J, n)
        H = (mu.T * self.w) @ mu / k
        K = np.zeros_like(H)
        end = np.cumsum(prof.dims)
        for a, m, e, S_i in zip(prof.alpha, prof.dims, end, factor_h):
            sl = slice(e - m, e)
            H[sl, sl] = S_i / k
            K[sl, sl] = (np.eye(m) - S_i) / (a * rk)
        pair = FormPair(
            H=(H + H.T) / 2.0,
            K=(K + K.T) / 2.0,
            factor_h=tuple(factor_h),
            frames=tuple(frames),
        )
        return value, grad, gnorm, pair

    def forms(self, x: ProductPoint) -> FormPair:
        """H and K at x, in the tangent frames at x."""
        return self.value_and_grad(x)[3]

    # -- solver -----------------------------------------------------------

    def initial_point(self) -> ProductPoint:
        """Weighted ambient average per factor, renormalized to the sheet."""
        out = []
        for i in range(self.profile.k):
            coords = np.stack([atom.factors[i].coords for atom in self.config.atoms])
            acc = self.w @ coords
            out.append(HyperboloidPoint(acc / np.sqrt(-minkowski_form(acc, acc))))
        return ProductPoint(tuple(out))

    def solve(
        self,
        tol: float = 1e-8,
        max_iter: int = 100,
        x0: ProductPoint | None = None,
    ) -> BarycenterSolution:
        """Damped Newton iteration on the forms K of the evaluated
        points: a trial is accepted when the value falls, each point is
        evaluated once, and an accepted trial's forms give the next
        step."""
        if tol < 1e-10:
            raise ValueError("tolerances below 1e-10 are not resolvable here")
        prof = self.profile
        x = x0 if x0 is not None else self.initial_point()
        value, grad, gnorm, pair = self.value_and_grad(x)
        for it in range(1, max_iter + 1):
            if gnorm <= tol:
                return BarycenterSolution(x, gnorm, value, it - 1, True, pair)
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
                    (t * c) @ F / a for c, F, a in zip(comps, pair.frames, prof.alpha)
                ]
                try:
                    trial = ProductPoint(tuple(map(exp_map, x.factors, steps)))
                except ValueError:
                    # beyond what a float hyperboloid point holds
                    t *= 0.5
                    continue
                tval, tgrad, tnorm, tpair = self.value_and_grad(trial)
                if tval < value:
                    x, value, grad, gnorm, pair = trial, tval, tgrad, tnorm, tpair
                    break
                t *= 0.5
            else:
                # no progress at the smallest damping: report where we are
                return BarycenterSolution(x, gnorm, value, it, False, pair)
        return BarycenterSolution(x, gnorm, value, max_iter, gnorm <= tol, pair)


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


def bcg_campaign(n: int, count: int, seed: int = 0) -> dict:
    """Vectorized random search for violations of the determinant
    inequality at h = n - 1 over ``count`` trace-1 PSD matrices with
    Dirichlet eigenvalues.  The ratio depends only on the spectrum, so
    no frame is drawn."""
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(n), size=count)
    ratios = np.sqrt(np.prod(lam, axis=1)) / np.prod(1.0 - lam, axis=1)
    bound = (np.sqrt(n) / (n - 1)) ** n
    return {
        "count": int(count),
        "violations": int(np.sum(ratios > bound * (1 + 1e-12))),
        "max_ratio": float(ratios.max()),
        "bound": float(bound),
    }


@dataclass(frozen=True)
class JacobianReport:
    estimate: float
    bound: float
    holds: bool
    h_eigen_max: float


def jacobian_bound_report(
    problem: BarycenterProblem,
    solution: BarycenterSolution | None = None,
) -> JacobianReport:
    """Both sides of the volume-distortion bound at the barycenter:
    estimate 2^n det(H)^{1/2} / det(K) against (4 n / h_min^2)^{n/2}.
    ``solution`` must come from ``problem``; it is solved here at the
    default tolerance if absent.  The forms are the solution's own."""
    prof = problem.profile
    if solution is None:
        solution = problem.solve()
    if not solution.converged:
        raise NearSingularError("barycenter solve did not converge; no report")
    pair = solution.forms
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
        h_eigen_max=float(h_eigs[-1]),
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
