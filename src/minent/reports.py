"""Structured, reproducible check reports.

A report is a document of check records, each carrying the name of the
mathematical fact it exercises (drawn from a fixed anchor table), its
inputs, outputs, tolerance, and verdict, and each held from the moment
it is added as the JSON dict it is written as.  Serialization is
canonical: keys sorted, floats through repr, LF line endings, no
timestamps, so a rerun with the same configuration and seed produces
byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import __version__

# Fixed table of admissible anchor strings.  A record must name one of
# these; reports refuse anything else, so the set of claimed facts is
# closed and greppable.
ANCHORS = {
    "profile-closed-form": "minimizing factor scalings and product entropy",
    "profile-identity": "scaling consistency identities of the minimizer",
    "growth-slope": "ball-volume growth rate vs closed-form entropy",
    "barycenter-fixed-point": "single-atom configurations minimize at the atom",
    "barycenter-trace": "unit trace of the first derived form",
    "barycenter-complement": "per-factor complement identity of the forms",
    "jacobian-bound": "determinant ratio at the minimizer vs its bound",
    "bcg-determinant": "trace-one determinant inequality and equality case",
    "natural-map-energy": "closed-form sphere-map energy vs rate bound",
    "natural-map-volume": "closed-form sphere-map volume vs its AM-GM bound",
    "shortcut-turning": "corner-angle threshold and shortcut witness",
    "shortcut-metric": "grid path metric vs Euclidean comparison",
    "shortcut-region": "diagonal wedge where the shortcut is inactive",
    "shortcut-growth": "ball-mass growth rates of the shortcut family",
    "shortcut-branching": "equal-length reflected minimizers sharing a segment",
    "net-approximation": "two-sided graph-vs-target metric comparison",
    "gh-bounds": "correspondence distortion bounds on finite spaces",
    "measure-discrepancy": "weighted-space comparison via the primal transport LP",
}


@dataclass
class ReportDocument:
    subcommand: str
    config: dict
    checks: list[dict] = field(default_factory=list)
    version: str = __version__

    def add(
        self,
        name: str,
        anchor: str,
        inputs: dict,
        outputs: dict,
        passed: bool,
        tolerance: float | None = None,
    ) -> dict:
        if anchor not in ANCHORS:
            raise ValueError(f"unknown anchor {anchor!r}")
        check = _plain(
            {
                "name": name,
                "anchor": anchor,
                "statement": ANCHORS[anchor],
                "inputs": inputs,
                "outputs": outputs,
                "tolerance": tolerance,
                "passed": bool(passed),
            }
        )
        self.checks.append(check)
        return check

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "subcommand": self.subcommand,
            "config": _plain(self.config),
            "checks": self.checks,
            "passed": self.all_passed,
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_dict(),
            sort_keys=True,
            indent=2,
            ensure_ascii=False,
            allow_nan=False,
        ) + "\n"


def _plain(obj):
    """Recursively coerce numpy scalars/arrays and tuples to plain
    JSON-stable Python values; non-finite floats become "nan", "inf"
    and "-inf"."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        # strict JSON has no NaN or infinities: repr spells them as strings
        return obj if math.isfinite(obj) else repr(obj)
    return obj


def write_csv(path, header: list[str], rows):
    """Sweep table: UTF-8, LF endings, header plus one row per point.
    Cells are written with str, which spells a numpy scalar as the
    plain number."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
