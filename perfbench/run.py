"""minent benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``./src``.
One process, one client: a task is issued only after the previous one
has finished and its output has been checked.  Inputs come from the
seed; the program receives only the generated configurations,
distance matrices and INI files.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same rounds untraced, traced and untraced again, and reports the
per-layer metrics, the tracing overhead and whether the traced pass
reproduced the untraced outputs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report.  The exit code is nonzero, with no
JSON line, when the sources are missing or an output check cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("metric", "cli-defaults")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
# printed by a --setup-only child just before its first task would start
SETUP_MARKER = "perfbench: ready"
TAIL_BEYOND = 10
# printed but not in the JSON line: fail_frac reads 0, and the tail's
# run-to-run spread is as wide as the 0.25 bound of the other timings
PRINTED_ONLY = ("task_tail_s", "fail_frac")


class CheckError(RuntimeError):
    """An output check could not run."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """One BLAS thread for this process and every child, set before
    numpy is first imported.  The program's matrix products have an
    inner dimension of at most m + 1 = 4, so a second thread only spins
    and ties the run's speed to a second CPU."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def pin_cpu() -> tuple[int, int]:
    """Run this process and every child on one CPU, the last one it may
    use: (CPUs allowed before, CPU chosen).  The loop has one client and
    one BLAS thread, so it never needs a second CPU.  Left free to move
    on a 2-CPU VM, the same subcommand ran at 0.30 s in one call and
    0.45 s in the next; in four interleaved runs each way, the median
    task latency of ``cli-defaults`` ranged 0.344-0.420 s free and
    0.406-0.424 s pinned."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def git_commit(root: str) -> str:
    """HEAD of a git checkout at ``root``, read from .git without git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable (not a git checkout)"


class SetupClock:
    """Process start to first task, in fresh interpreters: start-up,
    imports and the first round's input generation.  The clock of one
    set-up stops when its child prints SETUP_MARKER, before teardown.

    The set-ups run between tasks, spread evenly over the timed loop,
    so that their median covers the same stretch of machine time as the
    loop's metrics do.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]
        self.seconds = args.seconds
        self.times: list[float] = []

    def once(self):
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            self.times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != SETUP_MARKER:
            raise CheckError(f"a set-up child exited with code {proc.returncode}")

    def due(self, loop):
        """The set-ups due by ``loop`` seconds of loop time: one at the
        start, the last at ten elevenths of ``--seconds``."""
        want = 1 + int((SETUP_REPEATS - 1) * loop * 1.1 / self.seconds)
        while len(self.times) < min(SETUP_REPEATS, want):
            self.once()

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            self.once()
        return self.times


# -- the closed loop -------------------------------------------------------


def execute(kind, call, verify):
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as e:  # a failed task is counted, never fatal
        return {"kind": kind, "latency": time.perf_counter() - t0,
                "error": type(e).__name__, "problems": [str(e)[:200]], "digest": None}
    latency = time.perf_counter() - t0
    try:
        digest, problems = verify(out)
    except Exception as e:
        raise CheckError(f"the check of a {kind} task could not run") from e
    return {"kind": kind, "latency": latency, "error": None,
            "problems": problems, "digest": digest}


def run_pass(wl, seconds=None, rounds=None, tracer=None, min_rounds=1, setups=None):
    """Whole rounds until ``rounds`` are done, or until at least
    ``min_rounds`` ran and the loop time is closest to ``seconds``.
    Returns the task records and each round's loop time: the time spent
    in its tasks and their checks.  The set-ups due run between tasks,
    outside it."""
    records, loops = [], []
    wl.tracer = tracer
    while True:
        if tracer is not None:
            tracer.task = None
        r, done, loop = len(loops), sum(loops), 0.0
        tasks = wl.round(r)
        for i, task in enumerate(tasks):
            if setups is not None:
                setups.due(done + loop)
            if tracer is not None:
                tracer.task = f"{r}.{i}"
            t0 = time.perf_counter()
            records.append(execute(*task))
            loop += time.perf_counter() - t0
        loops.append(loop)
        done, r = done + loop, r + 1
        if rounds is not None:
            if r >= rounds:
                break
        elif r >= min_rounds and done + 0.5 * done / r >= seconds:
            break
    if tracer is not None:
        tracer.task = None
    return records, loops


def rate(records, loops):
    """Verified tasks per second of loop time: the median over rounds.
    Every round holds the same task list, so a round's rate measures
    the same work; the median keeps a speed phase of the machine that
    covers a minority of the rounds out of the figure."""
    per = len(records) // len(loops)
    return statistics.median(
        sum(not failed(rec) for rec in records[i * per:(i + 1) * per]) / loop
        for i, loop in enumerate(loops)
    )


def run_probe(wl, tracer=None):
    records = []
    for i, task in enumerate(wl.probe()):
        if tracer is not None:
            tracer.task = f"probe.{i}"
        records.append(execute(*task))
    if tracer is not None:
        tracer.task = None
    return records


def failed(rec) -> bool:
    return rec["error"] is not None or bool(rec["problems"])


def tail(latencies, n_min):
    """Latency at the highest whole percentile that has TAIL_BEYOND
    samples beyond it in a run of ``n_min`` tasks, the fewest a run
    makes: (value, percentile, samples beyond).  Tying the percentile
    to the minimum keeps it fixed when a faster program fits more
    rounds into the run."""
    xs = sorted(latencies)
    pct = (100 * (n_min - TAIL_BEYOND)) // n_min
    k = -(-pct * len(xs) // 100)  # samples at or below the percentile
    return xs[k - 1], pct, len(xs) - k


def end_to_end(records, loops, setup_times, peak_mb, n_min):
    lat = [r["latency"] for r in records]
    ok = sum(1 for r in records if not failed(r))
    tail_value, pct, beyond = tail(lat, n_min)
    rows = [
        ("setup_s", statistics.median(setup_times), "s",
         f"median of {len(setup_times)} set-ups in fresh interpreters, "
         f"{min(setup_times):.3f} to {max(setup_times):.3f}"),
        ("tasks_per_s", rate(records, loops), "1/s",
         f"median of {len(loops)} rounds; {ok} verified tasks in {sum(loops):.2f} s "
         f"of loop time"),
        ("task_p50_s", statistics.median(lat), "s", f"median of {len(lat)} tasks"),
        ("task_tail_s", tail_value, "s", f"p{pct} of {len(lat)} tasks, {beyond} beyond it"),
        ("peak_rss_mb", peak_mb, "MB", "ru_maxrss"),
        ("fail_frac", (len(records) - ok) / len(records), "ratio",
         f"{len(records) - ok} failed of {len(records)} attempted"),
    ]
    return rows


def kind_table(records, title):
    by = {}
    for r in records:
        k = by.setdefault(r["kind"], {"n": 0, "failed": 0, "lat": [], "errors": {}})
        k["n"] += 1
        k["lat"].append(r["latency"])
        if failed(r):
            k["failed"] += 1
            why = r["error"] or "check: " + r["problems"][0]
            k["errors"][why] = k["errors"].get(why, 0) + 1
    lines = [f"# {title}: kind attempted failed p50_s causes"]
    for kind in sorted(by):
        k = by[kind]
        causes = "; ".join(f"{n}x {why}" for why, n in sorted(k["errors"].items())) or "-"
        lines.append(f"#   {kind:24s} {k['n']:5d} {k['failed']:5d} "
                     f"{statistics.median(k['lat']):10.4f}  {causes}")
    return lines


def header(args, threads, cpus, root):
    import numpy
    import scipy

    return [
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        f"# nproc={cpus[0]} pinned_cpu={cpus[1]} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} blas_threads={threads} "
        f"commit={git_commit(root)}",
        "# load: 1 process, 1 client, closed loop; byte counts named *_computed are "
        "computed from array sizes, not measured",
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "minent", "__init__.py")):
        print("perfbench: ./src/minent not found; run from the repository root",
              file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    cpus = pin_cpu()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    sys.path[:0] = [src, HERE]
    import tracing
    import workloads

    workdir = os.path.join(root, ".bench_build", "perfbench", f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_only:
            workloads.make(args.workload, args.seed, workdir).round(0)
            print(SETUP_MARKER, flush=True)
            return 0
        lines = header(args, threads, cpus, root)
        if args.trace:
            wl = workloads.make(args.workload, args.seed, workdir)
            result = traced_run(args, wl, tracing, workloads, lines)
        else:
            wl = workloads.make(args.workload, args.seed, workdir)
            result = plain_run(args, wl, SetupClock(args), lines)
    except CheckError:
        traceback.print_exc()
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def plain_run(args, wl, setups, lines):
    records, loops = run_pass(wl, seconds=args.seconds, min_rounds=wl.min_rounds,
                              setups=setups)
    setup_times = setups.finish()
    probe = run_probe(wl)
    rounds = len(loops)
    n_min = wl.min_rounds * len(records) // rounds
    rows = end_to_end(records, loops, setup_times, wl.peak_rss_mb(), n_min)
    lines.append(f"# {rounds} rounds of {len(records) // rounds} tasks (at least {wl.min_rounds})")
    lines += [f"{name:14s} {value:14.6g} {unit:6s} {note}" for name, value, unit, note in rows]
    lines += kind_table(records, "timed tasks")
    if probe:
        lines += kind_table(probe, "untimed probe (known defect, see perfbench/NOTES.md)")
    n_failed = sum(failed(r) for r in records)
    return {
        "correct": n_failed == 0,
        "attempted": len(records),
        "failed": n_failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, value, unit, _ in rows
            if name not in PRINTED_ONLY
        },
    }


def traced_run(args, wl, tracing, workloads, lines):
    """Untraced reference pass, traced pass, untraced timing pass.

    The first pass fixes the round count and the reference outputs and
    absorbs the process's first-call costs; the tracing overhead
    compares the traced pass with the last one.
    """
    plain, loops = run_pass(wl, seconds=args.seconds / 2)
    rounds = len(loops)
    plain_probe = run_probe(wl)
    tracer = tracing.Tracer()
    if wl.in_process:
        tracer.install()
    try:
        traced, traced_loops = run_pass(wl, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
        wl.tracer = None
    again, plain_loops = run_pass(wl, rounds=rounds)
    # the probe and the reference sizes get their own tracer, so that
    # their spans stay out of the per-round layer totals
    ref_tracer = tracing.Tracer().install()
    try:
        traced_probe = run_probe(wl, ref_tracer)
        ref_tracer.task = "ref"
        workloads.reference_suite()
    finally:
        ref_tracer.uninstall()

    # floats must agree to 1e-9 relative, not bit for bit
    mismatched = [
        i for i, (a, b) in enumerate(zip(plain + plain_probe, traced + traced_probe))
        if a["kind"] != b["kind"] or failed(a) != failed(b)
        or not workloads.close(a["digest"], b["digest"])
    ]
    metrics = tracing.layer_metrics(tracer.spans, rounds)
    plain_rate = rate(again, plain_loops)
    traced_rate = rate(traced, traced_loops)
    probe_failed = sum(failed(r) for r in traced_probe)
    extra = {
        "trace.untraced_tasks_per_s": (plain_rate, "1/s"),
        "trace.traced_tasks_per_s": (traced_rate, "1/s"),
        "trace.tasks_per_s_ratio": (traced_rate / plain_rate, "ratio"),
        "trace.spans_per_round": (sum(s[4] is not None for s in tracer.spans) / rounds, "count"),
        "trace.outputs_compared": (len(plain) + len(plain_probe), "count"),
        "trace.outputs_mismatched": (len(mismatched), "count"),
        "probe.gh_exact_tasks": (len(traced_probe), "count"),
        "probe.gh_exact_failed": (probe_failed, "count"),
    }
    metrics.update(tracing.reference_metrics(ref_tracer.spans))
    out = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in tracing.LAYER_METRICS + tracing.REFERENCE_METRICS
    }
    out.update({name: {"value": v, "unit": u} for name, (v, u) in extra.items()})

    spans_file = os.path.join(os.path.dirname(wl.workdir), f"spans-{args.workload}-{args.seed}.json")
    os.makedirs(os.path.dirname(spans_file), exist_ok=True)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "task", "info"],
                   "spans": tracer.spans, "probe_and_reference_spans": ref_tracer.spans}, fh)

    lines.append(f"# {rounds} rounds untraced, the same {rounds} rounds traced, then "
                 f"untraced again; spans written to {os.path.relpath(spans_file)}")
    lines += [f"{name:36s} {m['value']:14.6g} {m['unit']}" for name, m in out.items()]
    lines += kind_table(traced, "traced tasks")
    if traced_probe:
        lines += kind_table(traced_probe, "untimed probe (known defect, see perfbench/NOTES.md)")
    for i in mismatched[:5]:
        lines.append(f"# MISMATCH task {i} ({plain[i]['kind'] if i < len(plain) else 'probe'})")
    n_failed = sum(failed(r) for r in plain + traced + again)
    return {
        "correct": n_failed == 0 and not mismatched,
        "attempted": len(plain) + len(traced) + len(again),
        "failed": n_failed,
        "metrics": out,
    }


if __name__ == "__main__":
    sys.exit(main())
