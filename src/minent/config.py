"""Run configuration: INI files plus command-line overrides.

Each field declares its INI section and key; the key map, the value
parsers (by annotation) and the report echo follow from the fields.
What the fields determine, each factor's entropy, is derived.
Every numeric field is validated against the preconditions of the
operation it feeds, with the section and key named in the error.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .hyperbolic import tensor_order


class ConfigError(ValueError):
    pass


def _key(section: str, key: str, default):
    """A field read from the INI file's `[section] key`."""
    return field(default=default, metadata={"ini": (section, key)})


@dataclass
class RunConfig:
    dims: tuple[int, ...] = _key("profile", "dims", (3, 3))
    quad_count: int = _key("quadrature", "count", 1000)
    seed: int = _key("run", "seed", 0)
    n_atoms: int = _key("run", "n_atoms", 4)
    spread: float = _key("run", "spread", 1.2)
    draws: int = _key("run", "draws", 100)
    bcg_count: int = _key("run", "bcg_count", 10_000)
    tol: float = _key("solver", "tol", 1e-8)
    max_iter: int = _key("solver", "max_iter", 100)
    rho_lo: float = _key("growth", "rho_lo", 8.0)
    rho_hi: float = _key("growth", "rho_hi", 16.0)
    grid_step: float = _key("growth", "grid_step", 0.05)
    etas: tuple[float, ...] = _key("shortcut", "etas", (1.0, 0.99, 0.8, 0.5))
    sc_spacing: float = _key("shortcut", "spacing", 0.05)
    sc_extent: float = _key("shortcut", "extent", 18.0)
    sc_rho_lo: float = _key("shortcut", "rho_lo", 8.0)
    sc_rho_hi: float = _key("shortcut", "rho_hi", 14.0)
    region_c: float = _key("shortcut", "region_c", 0.05)
    gh_eps: float = _key("ghnet", "eps", 0.3)
    gh_circle: int = _key("ghnet", "circle", 800)
    gh_torus: int = _key("ghnet", "torus", 24)
    out_dir: str | None = _key("output", "dir", None)
    write_csv: bool = _key("output", "csv", False)

    @property
    def entropies(self) -> tuple[float, ...]:
        """Each factor's volume entropy: H^n at curvature -1 has h = n - 1."""
        return tuple(float(d - 1) for d in self.dims)

    def validate(self):
        for f in fields(self):
            values = getattr(self, f.name)
            values = (values,) if f.type == "float" else values
            if "float" in f.type and not all(map(math.isfinite, values)):
                raise ConfigError("[{}] {} must be finite".format(*f.metadata["ini"]))
        if not self.dims or any(d < 3 for d in self.dims):
            raise ConfigError("[profile] dims: need factors, each of dimension >= 3")
        if self.quad_count.bit_length() <= max(self.dims):
            # the boundary rule of order 2 on S^(m-1), exact through
            # degree 3, has 2^m nodes
            raise ConfigError(
                "[quadrature] count must be at least 2^m for each factor "
                f"dimension m, here 2^{max(self.dims)}"
            )
        if self.seed < 0:
            raise ConfigError("[run] seed must be nonnegative")
        if not (0 < self.spread <= 18):
            # the line search halves trials that leave what a float point
            # holds, so solves converge up to 18; beyond it random_point
            # itself draws atoms whose q(x, x) rounds away from -1
            raise ConfigError("[run] spread must lie in (0, 18]")
        for key in ("n_atoms", "draws", "bcg_count"):
            if getattr(self, key) < 1:
                raise ConfigError(f"[run] {key} must be at least 1")
        node_bytes = 8 * self.n_atoms * sum(
            2 * tensor_order(m, self.quad_count) ** (m - 1) * (m + 1) for m in self.dims
        )
        if node_bytes > 2**29:
            # the barycenter keeps, per atom, 8 B for each of the m_i + 1
            # coordinates of the 2 L_i^(m_i - 1) nodes of factor i; an
            # evaluation adds one factor's (J, Q_i, m_i + 2) temporaries, at
            # most 5/4 of that factor's share, so 512 MiB of nodes peaks
            # under 1.3 GB (measured: 2.2x the nodes for one factor, 1.6x
            # for two, over the interpreter's 37 MB)
            raise ConfigError(
                f"[run] n_atoms x [quadrature] count: the node arrays take "
                f"{node_bytes / 2**20:.0f} MiB, over the 512 MiB budget"
            )
        if not (0 < self.tol <= 1e-2) or self.tol < 1e-10:
            raise ConfigError("[solver] tol must lie in [1e-10, 1e-2]")
        if self.max_iter < 1:
            raise ConfigError("[solver] max_iter must be positive")
        if not (0 < self.rho_lo < self.rho_hi):
            raise ConfigError("[growth] need 0 < rho_lo < rho_hi")
        if not (0 < self.grid_step <= 0.1):
            raise ConfigError("[growth] grid_step must lie in (0, 0.1]")
        if not self.etas:
            raise ConfigError("[shortcut] etas: need at least one eta")
        if any(not 0 < e <= 1 for e in self.etas):
            raise ConfigError("[shortcut] etas must lie in (0, 1]")
        if not (0 < self.sc_spacing <= 0.05):
            raise ConfigError("[shortcut] spacing must lie in (0, 0.05]")
        if abs(1.0 / self.sc_spacing - round(1.0 / self.sc_spacing)) > 1e-9:
            # the base model's segment sits at offset 1.0, on a grid line
            raise ConfigError("[shortcut] spacing must divide 1.0")
        if self.sc_extent < 6.0:
            raise ConfigError("[shortcut] extent must be at least 6, "
                              "the end of the base model's segment")
        if self.sc_extent / self.sc_spacing > 1000:
            # the growth sweep keeps about 56 B per node it reaches (at
            # most every node of this grid) next to a block of 32 grid
            # rows, the metric-spot searches about 0.55 KB per node of the
            # grid over [0, 6]^2 at peak, whose side is at most this one's
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
        if self.gh_circle < 16:
            raise ConfigError("[ghnet] circle must be at least 16")
        if self.gh_torus < 4:
            raise ConfigError("[ghnet] torus must be at least 4")
        # a sample space's build holds its N x N float64 distance matrix
        # (N = circle, or torus^2) plus two blocks of 64 rows: the node
        # arrays' 512 MiB budget admits circle 8192 and torus 90
        for key, points in (("circle", self.gh_circle), ("torus", self.gh_torus**2)):
            if 8 * points**2 > 2**29:
                raise ConfigError(
                    f"[ghnet] {key}: the distance matrix of {points} points "
                    f"takes {8 * points**2 / 2**20:.1f} MiB, over the 512 MiB "
                    "budget"
                )
        return self

    def to_dict(self) -> dict:
        """Canonical form for report echoing.

        Output routing (dir, csv flag) stays out: it changes where
        files land, never what is computed, and reports must be
        byte-identical across output locations.
        """
        return {
            f.name: list(getattr(self, f.name))
            if f.type.startswith("tuple")
            else getattr(self, f.name)
            for f in fields(self)
            if f.metadata["ini"][0] != "output"
        }


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


def _parse_tuple(item):
    return lambda raw: tuple(item(v) for v in raw.replace(",", " ").split())


# a field's annotation, as written, picks the parser of its INI value
_PARSERS = {
    "int": int,
    "float": float,
    "str | None": str.strip,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_tuple(int),
    "tuple[float, ...]": _parse_tuple(float),
}

# section -> key -> field
_SCHEMA: dict = {}
for _f in fields(RunConfig):
    _SCHEMA.setdefault(_f.metadata["ini"][0], {})[_f.metadata["ini"][1]] = _f


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg.validate()
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as e:
        # a duplicate section or option, a line outside any section, or
        # a key line without "=": configparser's message, on one line
        raise ConfigError(f"{path}: malformed INI: {' '.join(str(e).split())}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})")
    if not read:
        raise ConfigError(f"{path}: unreadable config file")
    if not parser.sections():
        raise ConfigError(
            f"{path}: empty config; expected sections like [profile], [run]"
        )
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"{path} [{section}]: unknown section; known: "
                + ", ".join(sorted(_SCHEMA))
            )
        schema = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(
                    f"{path} [{section}] {key}: unknown key; known: "
                    + ", ".join(sorted(schema))
                )
            f = schema[key]
            try:
                value = _PARSERS[f.type](raw)
            except ValueError as e:
                raise ConfigError(
                    f"{path} [{section}] {key}: cannot parse {raw!r} as {f.type} ({e})"
                )
            setattr(cfg, f.name, value)
    return cfg.validate()
