"""Run one ``minent`` subcommand with the benchmark's tracer installed.

    python3 perfbench/cli_child.py SPANS_JSON [minent arguments ...]

Times the imports of ``minent.cli`` and of the modules the subcommand
loads (the ones it would import lazily) as the ``cli.import`` span,
traces those modules, wraps ``minent.cli.main`` in the ``cli.main``
span, writes every span to SPANS_JSON and exits with the subcommand's
exit code.
"""

import importlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

# package modules each subcommand imports when it runs
SUBCOMMAND_MODULES = {
    "entropy": ("products",),
    "growth": ("products",),
    "barycenter": ("barycenter",),
    "bcg": ("barycenter",),
    "natural-map": ("barycenter",),
    "shortcut": ("shortcut",),
    "ghnet": ("ghkit",),
}


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    import minent.cli

    for name in SUBCOMMAND_MODULES.get(argv[-1], ()):
        importlib.import_module(f"minent.{name}")
    tracer.spans.append(["cli.import", t0, time.perf_counter(), -1, "cli", None])
    tracer.install(loaded_only=True)
    tracer.task = "cli"
    try:
        code = tracer.wrap("cli.main", minent.cli.main)(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
