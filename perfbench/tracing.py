"""Spans around calls into the minent modules, taken from outside.

The tracer replaces a function or method of a package module with a
wrapper that records a span (name, start, end, parent span, task id)
and an optional piece of information computed from the call's
arguments or result.  A package function imported by name into other
package modules is replaced there too, so every caller is traced.
Nothing under ``src/`` is edited; ``uninstall`` restores every name.

Spans stay in memory until the run ends.  ``layer_metrics`` turns them
into the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

# span names whose spans are the hyperbolic layer's busy time
HYPERBOLIC_PRIMITIVES = (
    "hyperbolic.transvection_to",
    "hyperbolic.tangent_frame",
    "hyperbolic.exp_map",
)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, task, info]
        self.spans: list[list] = []
        self.task = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, info=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            out = None
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if info is not None:
                    rec[5] = info(args, kwargs, out)

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, module_name, path, name, info=None):
        """Trace ``module.path`` ("func" or "Class.method")."""
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            self._set(cls, meth, self.wrap(name, cls.__dict__[meth], info))
            return
        orig = getattr(module, path)
        wrapped = self.wrap(name, orig, info)
        if not getattr(orig, "__module__", "").startswith("minent"):
            # a third-party function: trace only this module's use of it
            self._set(module, path, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "minent" or mod_name.startswith("minent."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapped)

    def install(self, loaded_only=False):
        """Trace every entry of INSTRUMENTS; with ``loaded_only``, only
        those in modules already imported."""
        for module_name, path, name, info in INSTRUMENTS:
            if not loaded_only or module_name in sys.modules:
                self.patch(module_name, path, name, info)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- what is traced --------------------------------------------------------


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _node_bytes(args, kwargs, out):
    # BarycenterProblem(config, quads): J atoms x Q_i nodes x (m_i + 1)
    # float64 coordinates per factor, computed from the input sizes
    config, quads = _arg(args, kwargs, 1, "config"), _arg(args, kwargs, 2, "quads")
    return len(config.atoms) * sum(q.nodes.shape[0] * q.nodes.shape[1] for q in quads) * 8


def _problem_size(args, kwargs, out):
    problem = args[0]
    return (problem.config.size, problem.quads[0].count)


def _solve_info(args, kwargs, out):
    size = _problem_size(args, kwargs, out)
    if out is None:
        return size + (0, False)
    return size + (int(out.iterations), bool(out.converged))


def _grid_nodes(args, kwargs, out):
    return _arg(args, kwargs, 1, "model").side ** 2


def _space_size(args, kwargs, out):
    return int(args[0].dist.shape[0])


def _gh_sizes(args, kwargs, out):
    return (_arg(args, kwargs, 0, "X").size, _arg(args, kwargs, 1, "Y").size)


def _measure_size(args, kwargs, out):
    return _arg(args, kwargs, 0, "X").size


def _lp_size(args, kwargs, out):
    a = kwargs.get("A_ub")
    if a is None:
        return (0, 0)
    if hasattr(a, "nnz"):  # sparse constraint matrix: bytes actually stored
        stored = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
        return (int(a.shape[0]), int(stored))
    return (int(a.shape[0]), int(a.shape[0]) * int(a.shape[1]) * 8)


def _report_bytes(args, kwargs, out):
    return 0 if out is None else len(out.encode("utf-8"))


INSTRUMENTS = (
    ("minent.hyperbolic", "boundary_quadrature", "hyperbolic.boundary_quadrature", None),
    ("minent.hyperbolic", "transvection_to", "hyperbolic.transvection_to", None),
    ("minent.hyperbolic", "tangent_frame", "hyperbolic.tangent_frame", None),
    ("minent.hyperbolic", "exp_map", "hyperbolic.exp_map", None),
    ("minent.products", "min_entropy_profile", "products.min_entropy_profile", None),
    ("minent.products", "product_dist", "products.product_dist", None),
    ("minent.products", "entropy_growth_numeric", "products.entropy_growth_numeric", None),
    ("minent.barycenter", "BarycenterProblem.__init__", "barycenter.build", _node_bytes),
    ("minent.barycenter", "BarycenterProblem.value_and_grad", "barycenter.value_and_grad", None),
    ("minent.barycenter", "BarycenterProblem.forms", "barycenter.forms", _problem_size),
    ("minent.barycenter", "BarycenterProblem.solve", "barycenter.solve", _solve_info),
    ("minent.barycenter", "jacobian_bound_report", "barycenter.jacobian_bound_report", None),
    ("minent.barycenter", "natural_map_energy", "barycenter.natural_map_energy", None),
    ("minent.barycenter", "bcg_campaign", "barycenter.bcg_campaign", None),
    ("minent.shortcut", "_GridEngine.__init__", "shortcut.engine_build", _grid_nodes),
    ("minent.shortcut", "_engine", "shortcut.engine_lookup", None),
    ("minent.shortcut", "_GridEngine.field", "shortcut.field", None),
    ("minent.shortcut", "_dijkstra", "shortcut.dijkstra", None),
    ("minent.shortcut", "eta_entropy_estimate", "shortcut.eta_entropy_estimate", None),
    ("minent.shortcut", "r_c_verify", "shortcut.r_c_verify", None),
    ("minent.ghkit", "FiniteMetricSpace.__post_init__", "ghkit.space_validate", _space_size),
    ("minent.ghkit", "greedy_net", "ghkit.greedy_net", None),
    ("minent.ghkit", "build_net_graph", "ghkit.build_net_graph", None),
    ("minent.ghkit", "approximation_check", "ghkit.approximation_check", None),
    ("minent.ghkit", "gh_bounds", "ghkit.gh_bounds", _gh_sizes),
    ("minent.ghkit", "_pair_distortion", "ghkit.pair_distortion", None),
    ("minent.ghkit", "measure_compare", "ghkit.measure_compare", _measure_size),
    ("minent.ghkit", "linprog", "ghkit.linprog", _lp_size),
    ("minent.config", "load_config", "config.load_config", None),
    ("minent.reports", "ReportDocument.to_json", "reports.to_json", _report_bytes),
)


# -- per-layer metrics -----------------------------------------------------

# name, unit: totals per traced round, on every workload (0 where the
# workload does not reach the layer)
LAYER_METRICS = (
    ("hyperbolic.quad_s", "s/round"),
    ("hyperbolic.calls", "count/round"),
    ("hyperbolic.busy_s", "s/round"),
    ("products.profile_s", "s/round"),
    ("products.dist_calls", "count/round"),
    ("products.dist_s", "s/round"),
    ("products.growth_s", "s/round"),
    ("barycenter.problem_builds", "count/round"),
    ("barycenter.build_s", "s/round"),
    ("barycenter.forms_calls", "count/round"),
    ("barycenter.forms_s", "s/round"),
    ("barycenter.value_grad_calls", "count/round"),
    ("barycenter.value_grad_s", "s/round"),
    ("barycenter.jacobian_s", "s/round"),
    ("barycenter.natural_map_s", "s/round"),
    ("barycenter.bcg_s", "s/round"),
    ("barycenter.node_bytes_computed", "B/round"),
    ("barycenter.newton_iters", "count/round"),
    ("barycenter.line_search_trials", "count/round"),
    ("barycenter.line_search_accept_ratio", "ratio"),
    ("shortcut.engine_builds", "count/round"),
    ("shortcut.engine_lookups", "count/round"),
    ("shortcut.engine_hit_ratio", "ratio"),
    ("shortcut.assembly_s", "s/round"),
    ("shortcut.dijkstra_runs", "count/round"),
    ("shortcut.dijkstra_s", "s/round"),
    ("shortcut.field_calls", "count/round"),
    ("shortcut.field_hit_ratio", "ratio"),
    ("shortcut.growth_s", "s/round"),
    ("shortcut.region_s", "s/round"),
    ("shortcut.grid_nodes", "count/round"),
    ("ghkit.space_builds", "count/round"),
    ("ghkit.validate_s", "s/round"),
    ("ghkit.validate_bytes_computed", "B/round"),
    ("ghkit.net_s", "s/round"),
    ("ghkit.graph_s", "s/round"),
    ("ghkit.gh_s", "s/round"),
    ("ghkit.pair_distortion_calls", "count/round"),
    ("ghkit.lp_s", "s/round"),
    ("ghkit.lp_rows", "count/round"),
    ("ghkit.lp_dense_bytes_computed", "B/round"),
    ("config.load_s", "s/round"),
    ("reports.serialize_s", "s/round"),
    ("reports.bytes", "B/round"),
    ("cli.import_s", "s/round"),
    ("cli.self_s", "s/round"),
)


# name, unit: single calls at the reference sizes (see reference_metrics)
REFERENCE_METRICS = (
    ("ref.solve_j64_q20000_s", "s"),
    ("ref.forms_j64_q20000_s", "s"),
    ("ref.gh_exact_9x9_s", "s"),
    ("ref.measure_compare_n300_s", "s"),
    ("ref.space_n800_s", "s"),
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, base):
    return num / base if base else 0.0


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer numbers from a traced pass of ``rounds`` rounds.

    Only spans taken inside a task count (input generation is not a
    task).  Totals of seconds, counts and bytes are divided by
    ``rounds``, so they describe one round of the workload's fixed task
    mix.  A span's self time is its duration minus the durations of its
    direct child spans.  Every ratio is reported next to its base, the
    count it divides by.
    """
    dur = [s[2] - s[1] for s in spans]
    self_time = dur[:]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_time[s[3]] -= dur[i]
    live = defaultdict(list)
    for i, s in enumerate(spans):
        if s[4] is not None:
            live[s[0]].append(i)

    def total(name):
        return sum(dur[i] for i in live[name])

    def own(name):
        return sum(self_time[i] for i in live[name])

    def count(name):
        return len(live[name])

    def infos(name):
        return [spans[i][5] for i in live[name] if spans[i][5] is not None]

    def under(name, parent):
        return sum(
            1 for i in live[name] if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent
        )

    solves = infos("barycenter.solve")
    accepted = sum(it if conv else max(it - 1, 0) for _, _, it, conv in solves)
    trials = under("barycenter.value_and_grad", "barycenter.solve") - count("barycenter.solve")
    lookups = count("shortcut.engine_lookup")
    fields = count("shortcut.field")
    lps = infos("ghkit.linprog")
    per_round = {
        "hyperbolic.quad_s": total("hyperbolic.boundary_quadrature"),
        "hyperbolic.calls": sum(count(p) for p in HYPERBOLIC_PRIMITIVES),
        "hyperbolic.busy_s": sum(own(p) for p in HYPERBOLIC_PRIMITIVES),
        "products.profile_s": total("products.min_entropy_profile"),
        "products.dist_calls": count("products.product_dist"),
        "products.dist_s": total("products.product_dist"),
        "products.growth_s": total("products.entropy_growth_numeric"),
        "barycenter.problem_builds": count("barycenter.build"),
        "barycenter.build_s": total("barycenter.build"),
        "barycenter.forms_calls": count("barycenter.forms"),
        "barycenter.forms_s": total("barycenter.forms"),
        "barycenter.value_grad_calls": count("barycenter.value_and_grad"),
        "barycenter.value_grad_s": total("barycenter.value_and_grad"),
        "barycenter.jacobian_s": total("barycenter.jacobian_bound_report"),
        "barycenter.natural_map_s": total("barycenter.natural_map_energy"),
        "barycenter.bcg_s": total("barycenter.bcg_campaign"),
        "barycenter.node_bytes_computed": sum(infos("barycenter.build")),
        "barycenter.newton_iters": sum(it for _, _, it, _ in solves),
        "barycenter.line_search_trials": trials,
        "shortcut.engine_builds": count("shortcut.engine_build"),
        "shortcut.engine_lookups": lookups,
        "shortcut.assembly_s": total("shortcut.engine_build"),
        "shortcut.dijkstra_runs": count("shortcut.dijkstra"),
        "shortcut.dijkstra_s": total("shortcut.dijkstra"),
        "shortcut.field_calls": fields,
        "shortcut.growth_s": own("shortcut.eta_entropy_estimate"),
        "shortcut.region_s": own("shortcut.r_c_verify"),
        "shortcut.grid_nodes": sum(infos("shortcut.engine_build")),
        "ghkit.space_builds": count("ghkit.space_validate"),
        "ghkit.validate_s": total("ghkit.space_validate"),
        "ghkit.validate_bytes_computed": sum(8 * n**3 for n in infos("ghkit.space_validate")),
        "ghkit.net_s": total("ghkit.greedy_net"),
        "ghkit.graph_s": total("ghkit.build_net_graph") + total("ghkit.approximation_check"),
        "ghkit.gh_s": total("ghkit.gh_bounds"),
        "ghkit.pair_distortion_calls": count("ghkit.pair_distortion"),
        "ghkit.lp_s": total("ghkit.linprog"),
        "ghkit.lp_rows": sum(rows for rows, _ in lps),
        "ghkit.lp_dense_bytes_computed": sum(b for _, b in lps),
        "config.load_s": total("config.load_config"),
        "reports.serialize_s": total("reports.to_json"),
        "reports.bytes": sum(infos("reports.to_json")),
        "cli.import_s": total("cli.import"),
        "cli.self_s": own("cli.main"),
    }
    out = {k: v / rounds for k, v in per_round.items()}
    out["barycenter.line_search_accept_ratio"] = _ratio(accepted, trials)
    out["shortcut.engine_hit_ratio"] = _ratio(
        lookups - under("shortcut.engine_build", "shortcut.engine_lookup"), lookups
    )
    out["shortcut.field_hit_ratio"] = _ratio(
        fields - under("shortcut.dijkstra", "shortcut.field"), fields
    )
    return out


def reference_metrics(spans) -> dict:
    """Median single-call durations at the reference sizes, from the
    spans of ``workloads.reference_suite``."""

    def ref(name, match):
        return _median(
            [s[2] - s[1] for s in spans if s[0] == name and s[4] == "ref" and match(s[5])]
        )

    return {
        "ref.solve_j64_q20000_s": ref("barycenter.solve", lambda i: i[:2] == (64, 20000)),
        "ref.forms_j64_q20000_s": ref("barycenter.forms", lambda i: i == (64, 20000)),
        "ref.gh_exact_9x9_s": ref("ghkit.gh_bounds", lambda i: i == (9, 9)),
        "ref.measure_compare_n300_s": ref("ghkit.measure_compare", lambda i: i == 300),
        "ref.space_n800_s": ref("ghkit.space_validate", lambda i: i == 800),
    }
