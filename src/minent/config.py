"""Run configuration: INI files plus command-line overrides.

Flat sections with typed keys; every numeric field is validated
against the preconditions of the operation it feeds, with the section
and key named in the error.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # [profile]
    dims: tuple[int, ...] = (3, 3)
    entropies: tuple[float, ...] = (2.0, 2.0)
    # [quadrature]
    quad_scheme: str = "deterministic-sphere"
    quad_count: int = 1000
    # [run]
    seed: int = 0
    n_atoms: int = 4
    spread: float = 1.2
    draws: int = 100
    bcg_count: int = 10_000
    # [solver]
    tol: float = 1e-8
    max_iter: int = 100
    # [growth]
    rho_lo: float = 8.0
    rho_hi: float = 16.0
    grid_step: float = 0.05
    slope_band: float = 0.08
    # [shortcut]
    etas: tuple[float, ...] = (1.0, 0.99, 0.8, 0.5)
    sc_spacing: float = 0.05
    sc_extent: float = 18.0
    sc_rho_lo: float = 8.0
    sc_rho_hi: float = 14.0
    region_c: float = 0.05
    # [ghnet]
    gh_eps: float = 0.3
    gh_circle: int = 800
    gh_torus: int = 24
    # [output]
    out_dir: str | None = None
    write_csv: bool = False

    def validate(self):
        for attr, (section, key) in _FLOAT_FIELDS.items():
            values = getattr(self, attr)
            if not isinstance(values, tuple):
                values = (values,)
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"[{section}] {key} must be finite")
        if len(self.dims) != len(self.entropies) or not self.dims:
            raise ConfigError("[profile] dims and entropies must match")
        if any(d < 3 for d in self.dims):
            raise ConfigError("[profile] dims: factors need dimension >= 3")
        if any(h <= 0 for h in self.entropies):
            raise ConfigError("[profile] entropies must be positive")
        if self.quad_scheme not in ("deterministic-sphere", "monte-carlo"):
            raise ConfigError("[quadrature] scheme must be "
                              "deterministic-sphere or monte-carlo")
        if self.quad_count < 12:
            raise ConfigError("[quadrature] count must be at least 12")
        if self.seed < 0:
            raise ConfigError("[run] seed must be nonnegative")
        if not (0 < self.spread <= 6):
            # spread 12 converges by halving trials beyond x_0 ~ 1e8; at
            # 14 exp_map can overflow cosh and the solve stops unconverged
            raise ConfigError("[run] spread must lie in (0, 6]")
        for key in ("n_atoms", "draws", "bcg_count"):
            if getattr(self, key) < 1:
                raise ConfigError(f"[run] {key} must be at least 1")
        if not (0 < self.tol <= 1e-2) or self.tol < 1e-10:
            raise ConfigError("[solver] tol must lie in [1e-10, 1e-2]")
        if self.max_iter < 1:
            raise ConfigError("[solver] max_iter must be positive")
        if not (0 < self.rho_lo < self.rho_hi):
            raise ConfigError("[growth] need 0 < rho_lo < rho_hi")
        if not (0 < self.grid_step <= 0.2):
            raise ConfigError("[growth] grid_step must lie in (0, 0.2]")
        if any(not 0 < e <= 1 for e in self.etas):
            raise ConfigError("[shortcut] etas must lie in (0, 1]")
        if not (0 < self.sc_spacing <= 0.05):
            raise ConfigError("[shortcut] spacing must lie in (0, 0.05]")
        if self.sc_extent / self.sc_spacing > 1000:
            # grid memory grows with side^2, about 0.55 KB per node at peak
            raise ConfigError(
                "[shortcut] extent / spacing must be at most 1000 "
                "(a grid of at most 1001 x 1001 nodes)"
            )
        if not (0 < self.sc_rho_lo < self.sc_rho_hi <= self.sc_extent):
            raise ConfigError("[shortcut] need rho_lo < rho_hi <= extent")
        if self.region_c <= 0:
            raise ConfigError("[shortcut] region_c must be positive")
        if self.gh_eps <= 0:
            raise ConfigError("[ghnet] eps must be positive")
        if self.gh_circle < 16 or self.gh_torus < 4:
            raise ConfigError("[ghnet] sample sizes too small")
        return self

    def to_dict(self) -> dict:
        """Canonical form for report echoing.

        Output routing (dir, csv flag) stays out: it changes where
        files land, never what is computed, and reports must be
        byte-identical across output locations.
        """
        d = asdict(self)
        d["dims"] = list(self.dims)
        d["entropies"] = list(self.entropies)
        d["etas"] = list(self.etas)
        del d["out_dir"]
        del d["write_csv"]
        return d


_SECTIONS = {
    "profile": {"dims": "int_list", "entropies": "float_list"},
    "quadrature": {"scheme": ("quad_scheme", "str"), "count": ("quad_count", "int")},
    "run": {
        "seed": "int",
        "n_atoms": "int",
        "spread": "float",
        "draws": "int",
        "bcg_count": "int",
    },
    "solver": {"tol": "float", "max_iter": "int"},
    "growth": {
        "rho_lo": "float",
        "rho_hi": "float",
        "grid_step": "float",
        "slope_band": "float",
    },
    "shortcut": {
        "etas": ("etas", "float_list"),
        "spacing": ("sc_spacing", "float"),
        "extent": ("sc_extent", "float"),
        "rho_lo": ("sc_rho_lo", "float"),
        "rho_hi": ("sc_rho_hi", "float"),
        "region_c": "float",
    },
    "ghnet": {
        "eps": ("gh_eps", "float"),
        "circle": ("gh_circle", "int"),
        "torus": ("gh_torus", "int"),
    },
    "output": {"dir": ("out_dir", "str"), "csv": ("write_csv", "bool")},
}

# float and float-list fields by attribute, with their section and key
_FLOAT_FIELDS = {
    attr: (section, key)
    for section, schema in _SECTIONS.items()
    for key, spec in schema.items()
    for attr, kind in [spec if isinstance(spec, tuple) else (key, spec)]
    if kind in ("float", "float_list")
}


def _parse_value(kind: str, raw: str, where: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw.strip()
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError("not a boolean")
        if kind == "int_list":
            return tuple(int(v) for v in raw.replace(",", " ").split())
        if kind == "float_list":
            return tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError as e:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind} ({e})")
    raise ConfigError(f"{where}: unknown field kind {kind}")


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg.validate()
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"{path}: unreadable config file")
    if not parser.sections():
        raise ConfigError(
            f"{path}: empty config; expected sections like [profile], [run]"
        )
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"{path} [{section}]: unknown section; known: "
                + ", ".join(sorted(_SECTIONS))
            )
        schema = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(
                    f"{path} [{section}] {key}: unknown key; known: "
                    + ", ".join(sorted(schema))
                )
            spec = schema[key]
            attr, kind = spec if isinstance(spec, tuple) else (key, spec)
            setattr(cfg, attr, _parse_value(kind, raw, f"{path} [{section}] {key}"))
    return cfg.validate()
