"""Command-line front end.

Subcommands run the library's check suites with a validated
configuration and record each check in a canonical report document
whose bytes depend only on the configuration and seed.  Runners only
compute and record; the driver writes the report, then prints one line
per recorded check, with its verdict, name and outputs, and takes the
exit code from the records.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration
error, a config whose arrays do not fit in memory included, 3 a solver
failed to converge or met a near-singular form, an LP failed, or bounds
that must be ordered crossed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .reports import ReportDocument, write_csv

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_NOCONV = 3


def build_parser() -> argparse.ArgumentParser:
    # every option but --config and --json stores into its RunConfig field
    p = argparse.ArgumentParser(
        prog="minent",
        description="numerical checks for minimal-entropy product geometry",
    )
    p.add_argument("--config", metavar="PATH", help="INI configuration file")
    p.add_argument("--seed", type=int, help="sets [run] seed")
    p.add_argument(
        "--out",
        dest="out_dir",
        default=os.environ.get("MINENT_OUT") or None,
        metavar="DIR",
        help="output directory (default: $MINENT_OUT if set, else [output] dir)",
    )
    p.add_argument("--json", action="store_true", help="print the report to stdout")
    p.add_argument(
        "--csv",
        dest="write_csv",
        action="store_const",
        const=True,
        help="write sweep tables as CSV; sets [output] csv",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def command(name, run, help):
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(run=run)
        return cmd

    command("entropy", _run_entropy, "closed-form profile table")
    g = command("growth", _run_growth, "numeric ball-volume growth")
    g.add_argument("--rho-max", dest="rho_hi", type=float, help="sets [growth] rho_hi")
    b = command("barycenter", _run_barycenter, "solve and check a random configuration")
    b.add_argument("--quad-count", type=int, help="sets [quadrature] count")
    b.add_argument("--tol", type=float, help="sets [solver] tol")
    command("bcg", _run_bcg, "determinant inequality campaign")
    command("natural-map", _run_natural_map, "sphere-map energy campaign")
    s = command("shortcut", _run_shortcut, "shortcut-metric lab")
    s.add_argument(
        "--eta", dest="etas", type=float, action="append", help="sets [shortcut] etas"
    )
    s.add_argument(
        "--rho-max", dest="sc_rho_hi", type=float, help="sets [shortcut] rho_hi"
    )
    command("ghnet", _run_ghnet, "net-graph approximation toolkit")
    return p


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    for f in dataclasses.fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, tuple(value) if isinstance(value, list) else value)
    return cfg.validate()


# -- subcommand bodies -----------------------------------------------------


def _run_entropy(cfg: RunConfig, doc: ReportDocument, csv_dir):
    from .products import min_entropy_profile

    prof = min_entropy_profile(cfg.dims, cfg.entropies)
    rep = prof.consistency_report()
    doc.add(
        "profile-table",
        "profile-closed-form",
        {"dims": cfg.dims, "entropies": cfg.entropies},
        {
            "h_min": prof.h_min,
            "alpha": prof.alpha,
            "gm_factor": prof.gm_factor,
        },
        True,
    )
    doc.add(
        "profile-identities",
        "profile-identity",
        {},
        rep,
        rep["entropy_identity_error"] <= 1e-9
        and rep["volume_normalization_error"] <= 1e-9,
        tolerance=1e-9,
    )


def _run_growth(cfg: RunConfig, doc: ReportDocument, csv_dir):
    from .products import entropy_growth_numeric

    est = entropy_growth_numeric(
        cfg.dims, cfg.rho_lo, cfg.rho_hi, grid_step=cfg.grid_step
    )
    target = math.sqrt(sum((d - 1) ** 2 for d in cfg.dims))
    band = cfg.slope_band
    doc.add(
        "growth-slope",
        "growth-slope",
        {
            "dims": cfg.dims,
            "rho": [cfg.rho_lo, cfg.rho_hi],
            "grid_step": cfg.grid_step,
        },
        {
            "slope": est.slope,
            "target": target,
            "residual_rms": est.residual_rms,
            "prefactor": est.prefactor,
        },
        abs(est.slope - target) <= band,
        tolerance=band,
    )
    if csv_dir:
        write_csv(
            os.path.join(csv_dir, "growth.csv"),
            ["rho", "log_volume"],
            [[float(r), float(v)] for r, v in zip(est.rho, est.log_volume)],
        )


def _quads_for(cfg: RunConfig, dims):
    from .hyperbolic import boundary_quadrature

    # deterministic nodes exist on S^1 and S^2 only; larger factors and
    # the monte-carlo scheme draw seeded nodes
    return [
        boundary_quadrature(m, cfg.quad_count, "deterministic-sphere")
        if cfg.quad_scheme == "deterministic-sphere" and m <= 3
        else boundary_quadrature(m, cfg.quad_count, "monte-carlo", seed=cfg.seed)
        for m in dims
    ]


def _run_barycenter(cfg: RunConfig, doc: ReportDocument, csv_dir) -> int | None:
    from .barycenter import (
        BarycenterProblem,
        NearSingularError,
        jacobian_bound_report,
        random_configuration,
    )
    from .products import min_entropy_profile

    prof = min_entropy_profile(cfg.dims, cfg.entropies)
    rng = np.random.default_rng(cfg.seed)
    config = random_configuration(rng, prof, cfg.n_atoms, spread=cfg.spread)
    quads = _quads_for(cfg, prof.dims)
    problem = BarycenterProblem(config, quads)
    try:
        sol = problem.solve(tol=cfg.tol, max_iter=cfg.max_iter)
    except NearSingularError as e:
        doc.add("solve", "barycenter-fixed-point", {}, {"rejected": str(e)}, False)
        return EXIT_NOCONV
    doc.add(
        "solve",
        "barycenter-fixed-point",
        {"n_atoms": cfg.n_atoms, "seed": cfg.seed, "tol": cfg.tol},
        {
            "converged": sol.converged,
            "iterations": sol.iterations,
            "gradient_norm": sol.gradient_norm,
        },
        sol.converged,
        tolerance=cfg.tol,
    )
    if not sol.converged:
        return EXIT_NOCONV
    pair = sol.forms
    tr_err = abs(float(np.trace(pair.H)) - 1.0)
    # the per-factor reduction K_i = Id - H_i on the blocks Newton and
    # the bound use: alpha_i sqrt(k) K_ii = Id - k H_ii
    comp_err = 0.0
    for a, m, end in zip(prof.alpha, prof.dims, np.cumsum(prof.dims)):
        sl = slice(end - m, end)
        k_ii = a * np.sqrt(prof.k) * pair.K[sl, sl]
        h_ii = prof.k * pair.H[sl, sl]
        comp_err = max(comp_err, float(np.abs(k_ii - (np.eye(m) - h_ii)).max()))
    doc.add(
        "trace",
        "barycenter-trace",
        {},
        {"trace_error": tr_err},
        tr_err <= 1e-10,
        tolerance=1e-10,
    )
    doc.add(
        "complement",
        "barycenter-complement",
        {},
        {"max_entry_error": comp_err},
        comp_err <= 1e-10,
        tolerance=1e-10,
    )
    try:
        rep = jacobian_bound_report(problem, solution=sol)
        doc.add(
            "jacobian",
            "jacobian-bound",
            {},
            {
                "estimate": rep.estimate,
                "bound": rep.bound,
                "h_eigen_max": rep.h_eigen_max,
            },
            rep.holds,
        )
    except NearSingularError as e:
        doc.add("jacobian", "jacobian-bound", {}, {"rejected": str(e)}, False)
        return EXIT_NOCONV


def _run_bcg(cfg: RunConfig, doc: ReportDocument, csv_dir):
    from .barycenter import bcg_campaign, bcg_inequality_check

    for n in (3, 4, 5):
        camp = bcg_campaign(n, cfg.bcg_count, seed=cfg.seed)
        eq = bcg_inequality_check(np.eye(n) / n, n, n - 1)
        doc.add(
            f"campaign-n{n}",
            "bcg-determinant",
            {"count": cfg.bcg_count, "seed": cfg.seed},
            {
                "violations": camp["violations"],
                "max_ratio": camp["max_ratio"],
                "bound": camp["bound"],
                "equality_gap": eq.equality_gap,
            },
            camp["violations"] == 0 and eq.equality_gap <= 1e-9,
            tolerance=1e-9,
        )


def _run_natural_map(cfg: RunConfig, doc: ReportDocument, csv_dir):
    from .barycenter import natural_map_energy
    from .hyperbolic import random_point
    from .products import ProductPoint, min_entropy_profile

    prof = min_entropy_profile(cfg.dims, cfg.entropies)
    c = 1.1 * prof.h_min
    rng = np.random.default_rng(cfg.seed)
    pts = [
        ProductPoint(tuple(random_point(rng, m, cfg.spread) for m in prof.dims))
        for _ in range(max(4, cfg.n_atoms * 2))
    ]
    results = []
    for _ in range(cfg.draws):
        x = ProductPoint(tuple(random_point(rng, m, 1.0) for m in prof.dims))
        results.append(natural_map_energy(pts, c, x, prof))
    worst = max(r.energy / r.bound for r in results)
    deficit = min(r.deficit for r in results)
    volume = max(r.volume_ratio for r in results)
    inputs = {"draws": cfg.draws, "c": c, "seed": cfg.seed}
    tol = 1.0 + 1e-12
    doc.add(
        "energy",
        "natural-map-energy",
        inputs,
        {"worst_ratio": worst, "min_deficit": deficit},
        worst <= tol,
        tolerance=tol,
    )
    doc.add(
        "volume",
        "natural-map-volume",
        inputs,
        {"worst_ratio": volume},
        volume <= tol,
        tolerance=tol,
    )


def _run_shortcut(cfg: RunConfig, doc: ReportDocument, csv_dir):
    from .shortcut import (
        METRIC_SLACK,
        ShortcutModel,
        branching_geodesic_demo,
        d_eta_reduced,
        eta_entropy_estimate,
        r_c_verify,
        reduced_distance,
        shorter_path_witness,
        turning_angle_threshold,
    )

    etas = sorted(set(cfg.etas))
    # corner threshold table and witness sanity on a small grid
    rows = []
    witness_ok = True
    for eta in etas:
        theta0 = turning_angle_threshold(eta) if eta < 1 else 0.0
        rows.append([eta, theta0])
        for alpha in (0.2, 0.4, 0.8, 1.2):
            w = shorter_path_witness(eta, alpha)
            want = math.cos(alpha) < eta
            if (w is not None) != want or (w is not None and w.savings <= 0):
                witness_ok = False
    doc.add(
        "witness",
        "shortcut-turning",
        {"etas": etas},
        {"thresholds": {str(e): r for e, r in rows}},
        witness_ok,
    )

    # metric spot checks on the off-diagonal segment model; both spot
    # pairs lie in [0, 6]^2, so the grid ends where the segment does
    base = ShortcutModel(eta=min(etas), spacing=cfg.sc_spacing, extent=6.0)
    # grid distances against the closed form at the same grid nodes
    slack = METRIC_SLACK
    plain = ShortcutModel(eta=1.0, spacing=cfg.sc_spacing, extent=base.extent)
    a, b = base.snap((0.5, 0.5)), base.snap((5.5, 4.0))
    d_plain = d_eta_reduced(plain, a, b)
    euclid = float(reduced_distance(plain, a, b))
    spot_ok = d_plain <= euclid * (1 + slack) + 1e-12 and d_plain >= euclid - 1e-12
    if min(etas) < 1.0:
        a, b = base.snap((2.5, 1.0)), base.snap((5.5, 1.0))
        d_cheap = d_eta_reduced(base, a, b)
        straight = float(reduced_distance(plain, a, b))
        margin = straight - d_cheap
        want = (straight - float(reduced_distance(base, a, b))) * (1 - slack)
        spot_ok = spot_ok and margin >= want
    doc.add(
        "metric-spot",
        "shortcut-metric",
        {"slack": slack},
        {"plain_ratio": d_plain / euclid},
        spot_ok,
        tolerance=slack,
    )

    # diagonal wedge
    eta_rc = max([e for e in etas if e < 1.0], default=1.0)
    rc_model = ShortcutModel(
        eta=eta_rc, spacing=cfg.sc_spacing, extent=min(cfg.sc_extent, 12.0)
    )
    rc = r_c_verify(rc_model, cfg.region_c)
    rc_assert = eta_rc >= 0.95
    rc_ok = rc.equal_within_slack if rc_assert else True
    doc.add(
        "region",
        "shortcut-region",
        {"eta": eta_rc, "c": cfg.region_c, "advisory": not rc_assert},
        {
            "equal_within_slack": rc.equal_within_slack,
            "c_max": rc.c_max,
            "violations": len(rc.violations),
        },
        rc_ok,
    )

    # growth sweep on the diagonal model
    seg_hi = min(cfg.sc_extent - 2.0, cfg.sc_rho_hi + 2.0)
    sweep_rows = []
    slopes = {}
    for eta in etas:
        model = ShortcutModel(
            eta=eta,
            spacing=cfg.sc_spacing,
            extent=cfg.sc_extent,
            segment=(1.0, seg_hi, 0.0),
            orientation="diagonal",
        )
        est = eta_entropy_estimate(model, cfg.sc_rho_lo, cfg.sc_rho_hi)
        slopes[eta] = est.slope
        sweep_rows.append(
            [eta, est.slope, est.residual_rms, 2.0 * math.sqrt(2.0) / math.sqrt(eta)]
        )
    dec = sorted(etas, reverse=True)
    mono_ok = all(
        slopes[dec[i + 1]] >= slopes[dec[i]] - 1e-9 for i in range(len(dec) - 1)
    )
    target = 2.0 * math.sqrt(2.0)
    band_ok = True
    if 1.0 in slopes:
        band_ok = abs(slopes[1.0] - target) <= 0.08
    doc.add(
        "growth-sweep",
        "shortcut-growth",
        {"etas": etas, "rho": [cfg.sc_rho_lo, cfg.sc_rho_hi]},
        {"slopes": {str(e): s for e, s in slopes.items()}, "monotone": mono_ok},
        mono_ok and band_ok,
    )
    if csv_dir:
        write_csv(
            os.path.join(csv_dir, "shortcut_sweep.csv"),
            ["eta", "slope", "slope_rms", "predicted"],
            sweep_rows,
        )

    # branching demo at the deepest shortcut
    if base.eta <= 0.9:
        demo = branching_geodesic_demo(base, (2.2, 0.9), (5.8, 0.85))
        doc.add(
            "branching",
            "shortcut-branching",
            {"eta": base.eta},
            {
                "used": demo.used,
                "length_difference": demo.length_difference,
                "shared_length": demo.shared_length,
            },
            demo.used
            and demo.length_difference <= 1e-9
            and demo.shared_length > 0,
            tolerance=1e-9,
        )


def _run_ghnet(cfg: RunConfig, doc: ReportDocument, csv_dir):
    from .ghkit import (
        FiniteMetricSpace,
        approximation_check,
        build_net_graph,
        circle_space,
        gh_bounds,
        greedy_net,
        measure_compare,
        torus_grid_space,
    )

    # one sample space alive at a time: each is built inside its pass
    # and dropped before the next
    for name, build, args in (
        ("circle", circle_space, (cfg.gh_circle,)),
        ("torus", torus_grid_space, (cfg.gh_torus, cfg.gh_torus)),
    ):
        target = build(*args)
        eps = cfg.gh_eps
        net = greedy_net(target, eps / 4)
        delta = 0.8 * min(eps / 4, eps * eps / (6 * target.diameter))
        graph = build_net_graph(net, net, target, eps, delta, len(net))
        rep = approximation_check(graph, net, target, eps)
        doc.add(
            f"approx-{name}",
            "net-approximation",
            {"eps": eps, "net_size": len(net)},
            {
                "max_deviation": rep.max_deviation,
                "step1": rep.step1_max,
                "step2": rep.step2_max,
            },
            rep.passed,
            tolerance=eps,
        )
        del target

    two_a = FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    two_b = FiniteMetricSpace(np.array([[0.0, 3.0], [3.0, 0.0]]))
    gb = gh_bounds(two_a, two_b)
    doc.add(
        "gh-two-point",
        "gh-bounds",
        {},
        {"lower": gb.lower, "upper": gb.upper},
        abs(gb.lower - 1.0) <= 1e-12 and abs(gb.upper - 1.0) <= 1e-12,
        tolerance=1e-12,
    )

    s = 1.0
    eq = FiniteMetricSpace(s * (np.ones((3, 3)) - np.eye(3)), np.full(3, 1 / 3))
    pt = FiniteMetricSpace(eq.dist, np.array([1.0, 0.0, 0.0]))
    disc = measure_compare(eq, pt)
    doc.add(
        "measure-equilateral",
        "measure-discrepancy",
        {"side": s},
        {"discrepancy": disc, "expected": 2.0 * s / 3.0},
        abs(disc - 2.0 * s / 3.0) <= 1e-9,
        tolerance=1e-9,
    )


# -- driver ----------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    doc = ReportDocument(subcommand=args.subcommand, config=cfg.to_dict())
    doc.add("config", "config-echo", {}, cfg.to_dict(), True)
    out_dir = cfg.out_dir
    try:
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        # a runner only computes and records checks; it returns
        # EXIT_NOCONV when its solver did not converge, None otherwise
        code = args.run(cfg, doc, out_dir if cfg.write_csv else None)
        if out_dir:
            path = os.path.join(out_dir, f"{args.subcommand}_report.json")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(doc.to_json())
    except OSError as e:
        # the directory, the report or a CSV table cannot be written
        print(f"config error: [output] dir {out_dir}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        # the validator accepted sizes whose arrays do not fit
        reason = str(e) or type(e).__name__
        print(f"config error: out of memory: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, AssertionError) as e:
        # an LP that fails, bounds that cross, a broken identity
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NOCONV
    lines = [
        f"[{'PASS' if rec.passed else 'FAIL'}] {rec.name} "
        + json.dumps(rec.outputs, sort_keys=True, separators=(",", ":"))
        for rec in doc.records[1:]
    ]
    if out_dir:
        lines.append(f"report written to {path}")
    # under --json stdout carries the report document alone
    stream = sys.stderr if args.json else sys.stdout
    try:
        stream.write("".join(line + "\n" for line in lines))
        if args.json:
            sys.stdout.write(doc.to_json())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the exit code still follows from the
        # records, and devnull takes what is buffered so the shutdown
        # flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code or (EXIT_OK if doc.all_passed else EXIT_CHECK)


def entry():
    """The process entry: the ``minent`` console script and ``python -m
    minent.cli``.  Runs :func:`main` with the cyclic garbage collector
    off and exits with its code.

    Reference counting frees a run's arrays and records, so the
    collector would only rescan the objects numpy and scipy create on
    import, many times during the runners' lazy imports and once more
    in full at exit.  Freezing moves every live object to the permanent
    generation, which the collection at interpreter exit skips.
    :func:`main` leaves the collector as it found it, so that it can be
    called in process."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
