#!/usr/bin/env python3
"""Solve one random barycenter problem end to end and print the derived
forms, the determinant-ratio bound, and what happens when atoms are
pushed far enough apart to make the complement form singular."""

import argparse
import sys

import numpy as np

from minent.barycenter import (
    BarycenterProblem,
    NearSingularError,
    WeightedConfiguration,
    jacobian_bound_report,
    random_configuration,
)
from minent.hyperbolic import HyperboloidPoint, boundary_quadrature
from minent.products import ProductPoint, min_entropy_profile


def at(r):
    """The point at signed distance r from the base point along axis 1."""
    return HyperboloidPoint(np.array([np.cosh(r), np.sinh(r), 0.0, 0.0]))


def run_once(profile, quads, n_atoms, spread, seed):
    rng = np.random.default_rng(seed)
    config = random_configuration(rng, profile, n_atoms, spread=spread)
    problem = BarycenterProblem(config, quads)
    sol = problem.solve(tol=1e-9)
    pair = problem.forms(sol.point)
    print(f"seed {seed}: converged={sol.converged} "
          f"iters={sol.iterations} grad={sol.gradient_norm:.2e} "
          f"trace(H)={pair.trace_h():.12f}")
    rep = jacobian_bound_report(problem, solution=sol)
    print(f"  jacobian estimate {rep.estimate:.4f}  bound {rep.bound:.4f}  "
          f"largest H eigenvalue {rep.h_eigen_max:.6f}")
    return rep


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--atoms", type=int, default=4)
    ap.add_argument("--spread", type=float, default=1.2)
    ap.add_argument("--quad-count", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    profile = min_entropy_profile((3, 3), (2.0, 2.0))
    quads = [boundary_quadrature(3, args.quad_count) for _ in profile.dims]

    run_once(profile, quads, args.atoms, args.spread, args.seed)
    run_once(profile, quads, args.atoms, args.spread, args.seed + 1)

    # stretch the configuration until the complement form degenerates
    print("degeneration sweep (two antipodal atoms, growing radius):")
    for radius in (2.0, 5.0, 8.0, 9.0):
        far = (
            ProductPoint((at(radius), at(radius))),
            ProductPoint((at(-radius), at(-radius))),
        )
        config = WeightedConfiguration(
            atoms=far, weights=(0.5, 0.5), profile=profile
        )
        try:
            rep = jacobian_bound_report(BarycenterProblem(config, quads))
            print(f"  radius {radius:4.1f}: estimate {rep.estimate:9.4f} "
                  f"(bound {rep.bound:.4f}), "
                  f"H eigenvalue max {rep.h_eigen_max:.8f}")
        except NearSingularError as e:
            print(f"  radius {radius:4.1f}: rejected ({e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
