"""Configuration loading, report documents, and the command-line
drivers, exercised in process through main()."""

import argparse
import ast
import dataclasses
import gc
import importlib
import json
import math
import os
import pkgutil
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import minent
from minent import cli, config
from minent.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NOCONV,
    EXIT_OK,
    build_parser,
    main,
)
from minent.config import ConfigError, RunConfig, load_config
from minent.reports import ANCHORS, CheckRecord, ReportDocument, write_csv


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def subprocess_env(**extra):
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(autouse=True)
def no_ambient_out(monkeypatch):
    monkeypatch.delenv("MINENT_OUT", raising=False)


# -- configuration ---------------------------------------------------------


def test_defaults_validate():
    cfg = load_config(None)
    assert cfg.dims == (3, 3)
    assert cfg.entropies == (2.0, 2.0)
    assert cfg.etas == (1.0, 0.99, 0.8, 0.5)


def test_ini_sections_map_to_fields(tmp_path):
    path = write_ini(
        tmp_path,
        """
[profile]
dims = 3 4
entropies = 2.0, 3.0

[quadrature]
scheme = monte-carlo
count = 400

[solver]
tol = 1e-7
max_iter = 50

[shortcut]
etas = 1.0 0.9
spacing = 0.04
extent = 12
rho_lo = 5
rho_hi = 9

[output]
dir = /tmp/somewhere
csv = yes
""",
    )
    cfg = load_config(path)
    assert cfg.dims == (3, 4)
    assert cfg.entropies == (2.0, 3.0)
    assert cfg.quad_scheme == "monte-carlo"
    assert cfg.quad_count == 400
    assert cfg.tol == 1e-7
    assert cfg.etas == (1.0, 0.9)
    assert cfg.sc_spacing == 0.04
    assert cfg.sc_extent == 12.0
    assert cfg.out_dir == "/tmp/somewhere"
    assert cfg.write_csv is True


def test_ini_sets_every_key(tmp_path):
    """Each of the 26 keys, set to a valid non-default value, lands in
    exactly its field."""
    path = write_ini(
        tmp_path,
        f"""
[profile]
dims = 3 4
entropies = 2.0, 3.0
[quadrature]
scheme = monte-carlo
count = 400
[run]
seed = 5
n_atoms = 3
spread = 2.5
draws = 7
bcg_count = 50
[solver]
tol = 1e-7
max_iter = 50
[growth]
rho_lo = 6
rho_hi = 12
grid_step = 0.04
slope_band = 0.1
[shortcut]
etas = 1.0 0.9
spacing = 0.04
extent = 12
rho_lo = 5
rho_hi = 9
region_c = 0.1
[ghnet]
eps = 0.4
circle = 64
torus = 8
[output]
dir = {tmp_path}
csv = yes
""",
    )
    want = dict(
        dims=(3, 4),
        entropies=(2.0, 3.0),
        quad_scheme="monte-carlo",
        quad_count=400,
        seed=5,
        n_atoms=3,
        spread=2.5,
        draws=7,
        bcg_count=50,
        tol=1e-7,
        max_iter=50,
        rho_lo=6.0,
        rho_hi=12.0,
        grid_step=0.04,
        slope_band=0.1,
        etas=(1.0, 0.9),
        sc_spacing=0.04,
        sc_extent=12.0,
        sc_rho_lo=5.0,
        sc_rho_hi=9.0,
        region_c=0.1,
        gh_eps=0.4,
        gh_circle=64,
        gh_torus=8,
        out_dir=str(tmp_path),
        write_csv=True,
    )
    default = RunConfig()
    assert all(getattr(default, name) != value for name, value in want.items())
    cfg = load_config(path)
    assert {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)} == want
    assert all(type(getattr(cfg, name)) is type(v) for name, v in want.items())


def test_every_field_declares_one_ini_key():
    keys = [f.metadata["ini"] for f in dataclasses.fields(RunConfig)]
    assert all(len(k) == 2 for k in keys)
    assert len(set(keys)) == len(keys) == 26
    assert {f.type for f in dataclasses.fields(RunConfig)} <= set(config._PARSERS)


def test_ini_is_read_as_utf8(tmp_path, capsys):
    """A config file decodes as UTF-8 under any locale; bytes that are
    not UTF-8 are a config error naming the file."""
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"# \xff\n[run]\nseed = 1\n")
    with pytest.raises(ConfigError, match="not UTF-8") as err:
        load_config(str(bad))
    assert str(err.value).startswith(f"{bad}: ")
    assert main(["--config", str(bad), "entropy"]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
    # under the C locale without UTF-8 mode, the locale codec is ASCII
    ini = write_ini(tmp_path, "# \u03b7 \u2264 1\n[run]\nseed = 3\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "minent.cli", "--config", ini, "--out", str(out),
         "entropy"],
        env=subprocess_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert read_report(out, "entropy")["config"]["seed"] == 3


def test_ini_unknown_section(tmp_path):
    path = write_ini(tmp_path, "[banana]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section") as err:
        load_config(path)
    assert "profile" in str(err.value)


def test_ini_unknown_key(tmp_path):
    path = write_ini(tmp_path, "[growth]\nslope = 2\n")
    with pytest.raises(ConfigError, match="unknown key") as err:
        load_config(path)
    assert "rho_lo" in str(err.value)


def test_ini_unparsable_value(tmp_path):
    path = write_ini(tmp_path, "[run]\nseed = soon\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)


def test_ini_bad_boolean(tmp_path):
    path = write_ini(tmp_path, "[output]\ncsv = maybe\n")
    with pytest.raises(ConfigError, match="bool"):
        load_config(path)


def test_ini_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="unreadable"):
        load_config(str(tmp_path / "nope.ini"))


def test_ini_empty_file(tmp_path):
    path = write_ini(tmp_path, "# nothing here\n")
    with pytest.raises(ConfigError, match="empty config"):
        load_config(path)


@pytest.mark.parametrize(
    "text",
    [
        "[run]\nseed = 1\nseed = 2\n",
        "[run]\nseed = 1\n[run]\ndraws = 3\n",
        "seed = 1\n",
        "[run]\nseed\n",
    ],
    ids=["duplicate-option", "duplicate-section", "no-section-header", "no-equals"],
)
def test_ini_malformed_file_is_config_error(tmp_path, capsys, text):
    path = write_ini(tmp_path, text)
    with pytest.raises(ConfigError, match="malformed INI") as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}: ")
    assert main(["--config", path, "entropy"]) == EXIT_CONFIG
    err_text = capsys.readouterr().err
    assert err_text.startswith("config error: ") and "Traceback" not in err_text


@pytest.mark.parametrize(
    "field,value,section",
    [
        ("dims", (3,), "[profile]"),
        ("entropies", (2.0, -1.0), "[profile]"),
        ("quad_scheme", "cubature", "[quadrature]"),
        ("quad_count", 8, "[quadrature]"),
        ("seed", -1, "[run]"),
        ("tol", 1e-12, "[solver]"),
        ("tol", 0.5, "[solver]"),
        ("max_iter", 0, "[solver]"),
        ("rho_lo", 20.0, "[growth]"),
        ("grid_step", 0.3, "[growth]"),
        ("etas", (0.0, 1.0), "[shortcut]"),
        ("sc_spacing", 0.06, "[shortcut]"),
        ("sc_rho_hi", 30.0, "[shortcut]"),
        ("sc_extent", 200.0, "[shortcut]"),
        ("sc_spacing", 0.01, "[shortcut]"),
        ("region_c", 0.0, "[shortcut]"),
        ("gh_eps", -0.1, "[ghnet]"),
        ("gh_circle", 4, "[ghnet]"),
        ("entropies", (math.nan, 2.0), "[profile]"),
        ("spread", math.nan, "[run]"),
        ("n_atoms", 0, "[run]"),
        ("draws", 0, "[run]"),
        ("bcg_count", 0, "[run]"),
        ("rho_hi", math.inf, "[growth]"),
        ("slope_band", math.nan, "[growth]"),
        ("region_c", math.nan, "[shortcut]"),
        ("gh_eps", math.nan, "[ghnet]"),
        ("dims", (2, 3), "[profile]"),
        ("spread", 0.0, "[run]"),
        ("spread", -1.0, "[run]"),
        ("spread", 19.0, "[run]"),
        ("gh_circle", 15, "[ghnet] circle"),
        ("gh_torus", 3, "[ghnet] torus"),
    ],
)
def test_validation_names_the_section(field, value, section):
    cfg = RunConfig()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError, match=f"\\{section}"):
        cfg.validate()


@pytest.mark.parametrize(
    "sub,section,key,at_bound,past_bound",
    [
        ("growth", "growth", "grid_step", "0.1", "0.10000000000000002"),
        ("barycenter", "quadrature", "count", "200", "199"),
        ("shortcut", "shortcut", "spacing", "0.04", "0.03"),
        ("shortcut", "shortcut", "extent", "6", "5.95"),
        ("barycenter", "run", "spread", "18", "18.000000000000004"),
        ("natural-map", "run", "spread", "18", "18.000000000000004"),
    ],
)
def test_validator_bounds_match_the_library(
    tmp_path, capsys, sub, section, key, at_bound, past_bound
):
    """The largest grid_step, the smallest deterministic node count, a
    shortcut spacing that divides the base segment's offset 1.0, the
    extent 6 where that segment ends and the largest spread, as the
    validator admits them, run; past them is a config error naming the
    section and key, not a library error."""
    # the shortcut window fits the smallest extent; without eta = 1 the
    # sweep's band, which a window this near the origin misses, is off
    context = {"shortcut": "etas = 0.99 0.5\nrho_lo = 3\nrho_hi = 5\n"}.get(sub, "")
    ok = write_ini(tmp_path, f"[{section}]\n{context}{key} = {at_bound}\n", "ok.ini")
    assert main(["--config", ok, "--out", str(tmp_path), sub]) == EXIT_OK
    capsys.readouterr()
    bad = write_ini(
        tmp_path, f"[{section}]\n{context}{key} = {past_bound}\n", "bad.ini"
    )
    assert main(["--config", bad, "--out", str(tmp_path), sub]) == EXIT_CONFIG
    assert f"[{section}] {key}" in capsys.readouterr().err


def test_monte_carlo_quadrature_admits_small_counts():
    # the 200-node floor is the deterministic S^2 layout's
    cfg = RunConfig(quad_scheme="monte-carlo", quad_count=12)
    assert cfg.validate() is cfg


def test_shortcut_grid_bound_admits_side_1001():
    cfg = RunConfig(sc_extent=50.0, sc_spacing=0.05)
    assert cfg.validate() is cfg


def test_config_dict_omits_output_routing():
    cfg = RunConfig(out_dir="/tmp/x", write_csv=True)
    d = cfg.to_dict()
    assert "out_dir" not in d
    assert "write_csv" not in d
    assert d["dims"] == [3, 3]
    assert d["etas"] == [1.0, 0.99, 0.8, 0.5]


# -- report documents ------------------------------------------------------


def test_record_requires_known_anchor():
    with pytest.raises(ValueError, match="unknown anchor"):
        CheckRecord(
            name="x", anchor="made-up", inputs={}, outputs={}, passed=True
        )


def test_report_coerces_numpy_values():
    doc = ReportDocument(subcommand="t", config={})
    doc.add(
        "conv",
        "growth-slope",
        {"arr": np.arange(3), "flag": np.bool_(True)},
        {"x": np.float64(1.5), "n": np.int64(4), "bad": float("nan")},
        True,
        tolerance=0.1,
    )
    d = doc.to_dict()
    check = d["checks"][0]
    assert check["inputs"]["arr"] == [0, 1, 2]
    assert check["inputs"]["flag"] is True
    assert check["outputs"] == {"x": 1.5, "n": 4, "bad": "nan"}
    assert check["statement"] == ANCHORS["growth-slope"]
    assert check["tolerance"] == 0.1
    assert d["passed"] is True
    # the coerced document must survive strict JSON
    json.dumps(d, allow_nan=False)


def test_report_spells_nonfinite_floats_as_strings():
    doc = ReportDocument(subcommand="t", config={"cap": float("inf")})
    doc.add(
        "edge",
        "growth-slope",
        {},
        {
            "a": np.float64("nan"),
            "b": 1.5,
            "c": np.float64("inf"),
            "d": -np.inf,
            "e": [np.float32("-inf")],
        },
        False,
        tolerance=float("nan"),
    )
    d = json.loads(doc.to_json())
    check = d["checks"][0]
    assert check["outputs"] == {
        "a": "nan", "b": 1.5, "c": "inf", "d": "-inf", "e": ["-inf"]
    }
    assert check["tolerance"] == "nan"
    assert d["config"]["cap"] == "inf"


def test_report_all_passed_tracks_records():
    doc = ReportDocument(subcommand="t", config={})
    doc.add("a", "growth-slope", {}, {}, True)
    assert doc.all_passed
    doc.add("b", "growth-slope", {}, {}, False)
    assert not doc.all_passed


def test_report_json_is_canonical():
    def build():
        doc = ReportDocument(subcommand="t", config={"seed": 0})
        doc.add("a", "growth-slope", {"x": 1.0}, {"y": 2.0}, True)
        return doc

    one, two = build().to_json(), build().to_json()
    assert one == two
    assert one.endswith("\n")


def test_write_csv_format(tmp_path):
    path = tmp_path / "sweep.csv"
    write_csv(path, ["rho", "value"], [[1.0, 0.5], [2.0, 0.25]])
    text = path.read_text(encoding="utf-8")
    assert text == "rho,value\n1.0,0.5\n2.0,0.25\n"


# -- command line ----------------------------------------------------------


def read_report(out_dir, sub):
    with open(out_dir / f"{sub}_report.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_entropy_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--out", str(out), "entropy"])
    assert code == EXIT_OK
    doc = read_report(out, "entropy")
    assert doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names[0] == "config"
    assert "profile-identities" in names
    assert "out_dir" not in doc["config"]
    prof = next(c for c in doc["checks"] if c["name"] == "profile-table")
    assert prof["outputs"]["h_min"] == pytest.approx(2.0 * math.sqrt(2.0))
    # one line per recorded check, in report order: the verdict, the name
    # and the record's outputs as compact sorted-key JSON; then the path
    assert capsys.readouterr().out.splitlines() == [
        f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']} "
        + json.dumps(c["outputs"], sort_keys=True, separators=(",", ":"))
        for c in doc["checks"][1:]
    ] + [f"report written to {out / 'entropy_report.json'}"]


def test_entropy_mixed_profile(tmp_path):
    cfgp = write_ini(tmp_path, "[profile]\ndims = 3 4\nentropies = 2 3\n")
    out = tmp_path / "out"
    code = main(["--config", cfgp, "--out", str(out), "entropy"])
    assert code == EXIT_OK
    doc = read_report(out, "entropy")
    assert doc["config"]["dims"] == [3, 4]


def test_json_flag_prints_document(capsys):
    code = main(["--json", "entropy"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["subcommand"] == "entropy"
    assert "[PASS] profile-identities" in captured.err


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), "growth"]) == EXIT_OK
    assert main(["--out", str(b), "growth"]) == EXIT_OK
    ba = (a / "growth_report.json").read_bytes()
    bb = (b / "growth_report.json").read_bytes()
    assert ba == bb


GOLDEN = Path(__file__).parent / "golden"


def moved_values(old, new, path="$"):
    """(path, old, new) for each JSON path whose value differs between
    two parsed documents."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [
            m
            for k in sorted(old.keys() | new.keys())
            for m in moved_values(old.get(k), new.get(k), f"{path}.{k}")
        ]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [
            m
            for i, (a, b) in enumerate(zip(old, new))
            for m in moved_values(a, b, f"{path}[{i}]")
        ]
    return [] if type(old) is type(new) and old == new else [(path, old, new)]


def describe_moves(moves):
    """One line per moved value: path, old -> new, and for two floats
    the relative change."""
    lines = []
    for path, old, new in moves:
        line = f"{path}: {old!r} -> {new!r}"
        if isinstance(old, float) and isinstance(new, float) and old != 0.0:
            line += f" (relative {(new - old) / abs(old):+.3g})"
        lines.append(line)
    return "\n".join(lines) or "formatting only"


def test_describe_moves_names_old_new_and_relative_change():
    old = {"a": [1.0, 2], "b": {"c": True}, "d": 0.0}
    new = {"a": [1.0 + 1e-12, 3], "b": {"c": False}, "d": 0.5}
    assert describe_moves(moved_values(old, new)).splitlines() == [
        "$.a[0]: 1.0 -> 1.000000000001 (relative +1e-12)",
        "$.a[1]: 2 -> 3",
        "$.b.c: True -> False",
        "$.d: 0.0 -> 0.5",
    ]
    assert describe_moves(moved_values(old, old)) == "formatting only"


SUBCOMMANDS = (
    "entropy", "growth", "barycenter", "bcg", "natural-map", "shortcut", "ghnet"
)


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_reports_match_golden(tmp_path, sub):
    # A change that moves a report value updates tests/golden and says
    # in CHANGES.md which values moved and by how much.
    assert main(["--out", str(tmp_path), sub]) == EXIT_OK
    got = (tmp_path / f"{sub}_report.json").read_bytes()
    want = (GOLDEN / f"{sub}_report.json").read_bytes()
    if got != want:
        moves = moved_values(json.loads(want), json.loads(got))
        pytest.fail(f"{sub} report moved:\n{describe_moves(moves)}")


def test_anchor_table_is_what_the_reports_record():
    # every anchor some default-config report records, and no other:
    # an entry no record uses claims a fact the program never checks
    recorded = {
        check["anchor"]
        for path in GOLDEN.glob("*_report.json")
        for check in json.loads(path.read_text(encoding="utf-8"))["checks"]
    }
    assert set(ANCHORS) == recorded


REPO = Path(__file__).resolve().parent.parent


def source_references(path):
    """Per top-level statement of a source file: the names it defines
    and the names it reads (loads, attributes, from-imports, and the
    targets of an INSTRUMENTS table)."""
    out = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = getattr(stmt, "targets", [stmt])  # def, class or assignment
        defined = {getattr(t, "id", getattr(t, "name", None)) for t in targets}
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
        if "INSTRUMENTS" in defined:  # rows ("module", "name" or "Class.method", ...)
            used |= {ast.literal_eval(r.elts[1]).split(".")[0] for r in stmt.value.elts}
        out.append((defined, used))
    return out


def public_members(cls):
    """The public methods and properties a class defines itself."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (callable(value) or isinstance(value, (property, classmethod, staticmethod)))
    ]


def test_public_names_resolve():
    """Every public name exists, and the package or the benchmark reads
    it outside its own definition: a name only tests reach belongs
    under tests/.  The same holds for the public methods and properties
    of public classes, which any statement may read, their class's own
    included.  perfbench/ is read as source, not imported."""
    files = [*(REPO / "src" / "minent").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    statements = [(path, *stmt) for path in files for stmt in source_references(path)]
    unreached = []
    for info in pkgutil.iter_modules(minent.__path__):
        module = importlib.import_module(f"minent.{info.name}")
        own = REPO / "src" / "minent" / f"{info.name}.py"
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"minent.{info.name}.{name}"
            if not any(
                name in used and not (path == own and name in defined)
                for path, defined, used in statements
            ):
                unreached.append(f"minent.{info.name}.{name}")
            obj = getattr(module, name)
            for member in public_members(obj) if isinstance(obj, type) else ():
                if not any(member in used for _, _, used in statements):
                    unreached.append(f"minent.{info.name}.{name}.{member}")
    assert unreached == []
    for name in minent.__all__:
        assert hasattr(minent, name), name


def test_benchmark_trace_targets_resolve():
    # perfbench/tracing.py patches these names from outside the package;
    # it is read as source, not imported, so nothing is written there
    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "INSTRUMENTS" for t in node.targets)
    ]
    targets = [tuple(ast.literal_eval(e) for e in row.elts[:2]) for row in table.elts]
    assert targets
    for module_name, path in targets:
        owner = importlib.import_module(module_name)
        if "." in path:  # "Class.method": the tracer wraps the class's own entry
            cls_name, meth = path.split(".")
            owner = vars(getattr(owner, cls_name))
            assert meth in owner, f"{module_name}.{path}"
        else:
            assert hasattr(owner, path), f"{module_name}.{path}"


def test_env_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("MINENT_OUT", str(env_dir))
    assert main(["entropy"]) == EXIT_OK
    assert (env_dir / "entropy_report.json").exists()


def test_out_flag_beats_env(tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    flag_dir = tmp_path / "flagout"
    monkeypatch.setenv("MINENT_OUT", str(env_dir))
    assert main(["--out", str(flag_dir), "entropy"]) == EXIT_OK
    assert (flag_dir / "entropy_report.json").exists()
    assert not env_dir.exists()


def test_env_beats_config_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    cfg_dir = tmp_path / "cfgout"
    ini = write_ini(tmp_path, f"[output]\ndir = {cfg_dir}\n")
    monkeypatch.setenv("MINENT_OUT", str(env_dir))
    assert main(["--config", ini, "entropy"]) == EXIT_OK
    assert (env_dir / "entropy_report.json").exists()
    assert not cfg_dir.exists()


@pytest.mark.parametrize("blocked", ["dir-is-a-file", "report-is-a-dir"])
def test_unwritable_output_is_config_error(tmp_path, capsys, blocked):
    out = tmp_path / "out"
    if blocked == "dir-is-a-file":
        out.write_text("", encoding="utf-8")
    else:
        (out / "entropy_report.json").mkdir(parents=True)
    assert main(["--out", str(out), "entropy"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: [output] dir {out}: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_config_error_exit_code(tmp_path, capsys):
    bad = write_ini(tmp_path, "[profile]\ndims = 3\nentropies = 2 2\n")
    assert main(["--config", bad, "entropy"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "ghost.ini"), "entropy"]) == EXIT_CONFIG
    capsys.readouterr()


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def all_actions():
    """The options of the top-level parser and of every subcommand."""
    parser = build_parser()
    actions = list(parser._actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                actions += subparser._actions
    return actions


def test_every_option_stores_into_its_config_field():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    dests = {action.dest for action in all_actions()}
    assert dests - fields == {"help", "config", "json", "subcommand"}


def test_override_help_names_its_ini_key():
    """A flag's help names the `[section] key` its field is read from."""
    ini = {f.name: f.metadata["ini"] for f in dataclasses.fields(RunConfig)}
    overrides = [a for a in all_actions() if a.dest in ini]
    assert len(overrides) == 8
    for action in overrides:
        assert "[{}] {}".format(*ini[action.dest]) in action.help, action.option_strings


@pytest.mark.parametrize(
    "argv,field,want",
    [
        (["--seed", "7", "entropy"], "seed", 7),
        (["barycenter", "--tol", "1e-7"], "tol", 1e-7),
        (["barycenter", "--quad-count", "400"], "quad_count", 400),
        (["growth", "--rho-max", "12"], "rho_hi", 12.0),
        (["shortcut", "--rho-max", "12"], "sc_rho_hi", 12.0),
        (["shortcut", "--eta", "0.9", "--eta", "0.7"], "etas", [0.9, 0.7]),
    ],
    ids=["seed", "tol", "quad-count", "growth-rho-max", "shortcut-rho-max", "eta"],
)
def test_flag_lands_in_the_echoed_config(tmp_path, monkeypatch, argv, field, want):
    # the runners record nothing here: the report holds the config echo
    for sub in ("entropy", "barycenter", "growth", "shortcut"):
        monkeypatch.setattr(cli, f"_run_{sub}", lambda cfg, doc, csv_dir: None)
    assert main(["--out", str(tmp_path)] + argv) == EXIT_OK
    (report,) = tmp_path.glob("*_report.json")
    (echo,) = json.loads(report.read_text(encoding="utf-8"))["checks"]
    assert echo["outputs"] == {**RunConfig().to_dict(), field: want}


def test_config_csv_survives_a_run_without_the_flag(tmp_path):
    ini = write_ini(tmp_path, "[output]\ncsv = yes\n")
    out = tmp_path / "out"
    assert main(["--config", ini, "--out", str(out), "growth"]) == EXIT_OK
    assert (out / "growth.csv").exists()


QUICK_INI = (
    "[run]\nbcg_count = 2000\ndraws = 20\n"
    "[shortcut]\netas = 1.0 0.99\n"
    "[ghnet]\ncircle = 200\ntorus = 12\n"
)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_keeps_report_and_exit_code(tmp_path, unbuffered):
    """A reader that has gone (`minent ... | head -1`): every write to
    stdout fails with EPIPE, block-buffered or not.  The report is
    already on disk, the exit code follows from the records, and stderr
    holds no traceback.  The process entry, with its collector off,
    writes the bytes an in-process main writes."""
    ini = write_ini(tmp_path, QUICK_INI)
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for sub in SUBCOMMANDS:
        out = tmp_path / sub
        read_end, write_end = os.pipe()
        os.close(read_end)
        argv = ["--config", ini, "--out", str(out), sub]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "minent.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=300,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_OK, (sub, proc.stderr[-2000:])
        assert proc.stderr == "", (sub, proc.stderr[-2000:])
        assert read_report(out, sub)["passed"] is True
        here = tmp_path / f"{sub}-in-process"
        assert main(["--config", ini, "--out", str(here), sub]) == EXIT_OK
        report = f"{sub}_report.json"
        assert (out / report).read_bytes() == (here / report).read_bytes(), sub


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    # the collector is switched off and frozen by the process entry
    # alone; tests and library callers run main in process
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert main(["--out", str(tmp_path), "entropy"]) == EXIT_OK
        assert main(["--seed", "-1", "entropy"]) == EXIT_CONFIG
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_console_script_is_the_module_entry():
    # `minent` and `python -m minent.cli` start the same function
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["minent"]
    module_name, _, attr = target.partition(":")
    script = getattr(importlib.import_module(module_name), attr)
    tree = ast.parse((REPO / "src" / "minent" / "cli.py").read_text(encoding="utf-8"))
    main_test = "__name__ == '__main__'"
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == main_test
    ]
    (call,) = [node.value for node in block.body]
    assert isinstance(call, ast.Call) and not call.args
    assert script is getattr(cli, call.func.id) is cli.entry


def test_growth_csv_and_band_failure(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--out", str(out), "--csv", "growth"])
    assert code == EXIT_OK
    csv_text = (out / "growth.csv").read_text(encoding="utf-8")
    lines = csv_text.strip().splitlines()
    assert lines[0] == "rho,log_volume"
    rho, lv = lines[1].split(",")
    float(rho), float(lv)
    capsys.readouterr()

    tight = write_ini(tmp_path, "[growth]\nslope_band = 0.001\n")
    out2 = tmp_path / "out2"
    code = main(["--config", tight, "--out", str(out2), "growth"])
    assert code == EXIT_CHECK
    doc = read_report(out2, "growth")
    assert doc["passed"] is False
    assert "[FAIL]" in capsys.readouterr().out


def test_growth_below_first_shell_is_config_error(tmp_path, capsys):
    ini = write_ini(
        tmp_path,
        "[profile]\ndims = 3\nentropies = 2.0\n"
        "[growth]\nrho_lo = 0.01\nrho_hi = 2.0\n",
    )
    assert main(["--config", ini, "growth"]) == EXIT_CONFIG
    assert "first occupied cell" in capsys.readouterr().err


def test_growth_rho_max_override(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "growth", "--rho-max", "12"]) == EXIT_OK
    doc = read_report(out, "growth")
    assert doc["config"]["rho_hi"] == 12.0


@pytest.mark.parametrize("k", [3, 4, 6])
def test_growth_many_factors_pass_the_band(tmp_path, capsys, k):
    # with ((k - 1)/2) log rho removed the slope meets the entropy inside
    # the unchanged 0.08 band: measured gaps +0.0048, +0.0115 and +0.0361
    ini = write_ini(
        tmp_path,
        f"[profile]\ndims = {' '.join(['3'] * k)}\n"
        f"entropies = {' '.join(['2'] * k)}\n",
    )
    out = tmp_path / "out"
    assert main(["--config", ini, "--out", str(out), "growth"]) == EXIT_OK
    rec = {c["name"]: c for c in read_report(out, "growth")["checks"]}["growth-slope"]
    assert rec["passed"] is True
    assert rec["tolerance"] == 0.08
    assert rec["outputs"]["prefactor"] == (k - 1) / 2
    assert "[PASS] growth-slope" in capsys.readouterr().out


def test_barycenter_subcommand(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "barycenter"]) == EXIT_OK
    doc = read_report(out, "barycenter")
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["trace"]["passed"] is True
    assert by_name["complement"]["passed"] is True
    jac = by_name["jacobian"]
    assert jac["passed"] is True
    assert jac["outputs"]["estimate"] <= jac["outputs"]["bound"]


def test_barycenter_evaluates_each_point_once(tmp_path, monkeypatch):
    """A pass over the nodes is an outermost call of value_and_grad or
    forms.  The default solve evaluates its start and two accepted
    Newton trials, once each, and the report reads the forms that the
    solve already has."""
    from minent.barycenter import BarycenterProblem

    points, depth = [], [0]

    def counted(method):
        def wrapper(self, x, *args, **kwargs):
            if not depth[0]:
                points.append(np.concatenate([f.coords for f in x.factors]).tobytes())
            depth[0] += 1
            try:
                return method(self, x, *args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    for name in ("value_and_grad", "forms"):
        method = getattr(BarycenterProblem, name)
        monkeypatch.setattr(BarycenterProblem, name, counted(method))
    assert main(["--out", str(tmp_path), "barycenter"]) == EXIT_OK
    assert len(points) == 3
    assert len(set(points)) == 3


def test_barycenter_nonconvergence_exit(tmp_path):
    stuck = write_ini(tmp_path, "[solver]\nmax_iter = 1\n")
    assert main(["--config", stuck, "barycenter"]) == EXIT_NOCONV


def test_barycenter_singular_solve_exit(tmp_path, monkeypatch):
    from minent.barycenter import BarycenterProblem, NearSingularError

    def singular(self, **kwargs):
        raise NearSingularError("second-derivative form is singular")

    monkeypatch.setattr(BarycenterProblem, "solve", singular)
    out = tmp_path / "out"
    assert main(["--out", str(out), "barycenter"]) == EXIT_NOCONV
    doc = read_report(out, "barycenter")
    solve = {c["name"]: c for c in doc["checks"]}["solve"]
    assert solve["passed"] is False
    assert "singular" in solve["outputs"]["rejected"]


def test_barycenter_singular_jacobian_exit(tmp_path, monkeypatch):
    from minent import barycenter

    def singular(*args, **kwargs):
        raise barycenter.NearSingularError("Jacobian form is near-singular")

    monkeypatch.setattr(barycenter, "jacobian_bound_report", singular)
    out = tmp_path / "out"
    assert main(["--out", str(out), "barycenter"]) == EXIT_NOCONV
    jac = {c["name"]: c for c in read_report(out, "barycenter")["checks"]}["jacobian"]
    assert jac["passed"] is False
    assert "near-singular" in jac["outputs"]["rejected"]


def test_lp_failure_exits_noconv(tmp_path, monkeypatch, capsys):
    from types import SimpleNamespace

    from minent import ghkit

    def failed(*args, **kwargs):
        return SimpleNamespace(success=False, message="stub failure", fun=0.0)

    monkeypatch.setattr(ghkit, "linprog", failed)
    quick = write_ini(tmp_path, "[ghnet]\ncircle = 200\ntorus = 12\n")
    assert main(["--config", quick, "ghnet"]) == EXIT_NOCONV
    assert "discrepancy LP failed: stub failure" in capsys.readouterr().err


def test_crossing_gh_bounds_exit_noconv(tmp_path, monkeypatch, capsys):
    from minent import ghkit

    # the two-point check has lower bound 1; an upper bound of 0 crosses it
    monkeypatch.setattr(ghkit, "_exact_upper", lambda dx, dy: 0.0)
    quick = write_ini(tmp_path, "[ghnet]\ncircle = 200\ntorus = 12\n")
    assert main(["--config", quick, "ghnet"]) == EXIT_NOCONV
    assert "exceeds exact upper bound" in capsys.readouterr().err


def test_bcg_subcommand(tmp_path):
    quick = write_ini(tmp_path, "[run]\nbcg_count = 2000\n")
    out = tmp_path / "out"
    assert main(["--config", quick, "--out", str(out), "bcg"]) == EXIT_OK
    doc = read_report(out, "bcg")
    camp = [c for c in doc["checks"] if c["anchor"] == "bcg-determinant"]
    assert camp
    assert all(c["passed"] for c in camp)


def test_bcg_draws_no_frames(tmp_path, monkeypatch):
    # the ratio depends only on the spectrum: a default run needs no QR
    def no_qr(*args, **kwargs):
        raise RuntimeError("numpy.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    assert main(["--out", str(tmp_path), "bcg"]) == EXIT_OK
    got = (tmp_path / "bcg_report.json").read_bytes()
    assert got == (GOLDEN / "bcg_report.json").read_bytes()


def test_natural_map_subcommand(tmp_path):
    quick = write_ini(tmp_path, "[run]\ndraws = 20\n")
    assert main(["--config", quick, "natural-map"]) == EXIT_OK


def run_entry_in_address_space(args):
    """``python -m minent.cli ARGS`` in a child whose address space is
    capped at 1.5 GiB, with one BLAS thread."""

    def cap():
        limit = 1536 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = subprocess_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "minent.cli", *args],
        capture_output=True, text=True, env=env, timeout=300, preexec_fn=cap,
    )


def test_natural_map_memory_is_linear_in_reference_points(tmp_path):
    # 12000 reference points: a J x J Gram matrix of the differentials,
    # with its (J, J, 3) temporary, needs over 3 GB; the n x n form fits
    # a 1.5 GB address space next to the interpreter and its libraries,
    # with the process entry's collector off
    ini = write_ini(tmp_path, "[run]\nn_atoms = 6000\ndraws = 1\n")
    args = ["--config", ini, "--out", str(tmp_path), "natural-map"]
    out = run_entry_in_address_space(args)
    assert out.returncode == EXIT_OK, out.stderr[-2000:]


def test_out_of_memory_is_config_error(tmp_path):
    # a circle the validator accepts whose 20000 x 20000 distance matrix
    # (2.98 GiB) does not fit a 1.5 GB address space
    ini = write_ini(tmp_path, "[ghnet]\ncircle = 20000\n")
    args = ["--config", ini, "--out", str(tmp_path), "ghnet"]
    out = run_entry_in_address_space(args)
    assert out.returncode == EXIT_CONFIG, out.stderr[-2000:]
    (line,) = out.stderr.splitlines()
    assert line.startswith("config error: out of memory: ")
    assert "(20000, 20000)" in line


@pytest.mark.parametrize("sub", ["barycenter", "natural-map"])
def test_largest_valid_spread_runs(tmp_path, sub):
    # the validator's largest spread: atoms up to distance 6 from o
    far = write_ini(tmp_path, "[run]\nspread = 6\ndraws = 20\n")
    assert main(["--config", far, sub]) == EXIT_OK


def test_shortcut_subcommand(tmp_path):
    quick = write_ini(tmp_path, "[shortcut]\netas = 1.0 0.99\n")
    out = tmp_path / "out"
    code = main(["--config", quick, "--out", str(out), "--csv", "shortcut"])
    assert code == EXIT_OK
    doc = read_report(out, "shortcut")
    anchors = {c["anchor"] for c in doc["checks"]}
    assert "shortcut-turning" in anchors
    assert "shortcut-region" in anchors
    assert "shortcut-growth" in anchors
    sweep = (out / "shortcut_sweep.csv").read_text(encoding="utf-8").splitlines()
    assert sweep[0] == "eta,slope,slope_rms,predicted"
    eta, *_, predicted = map(float, sweep[1].split(","))
    assert predicted == pytest.approx(2.0 * math.sqrt(2.0) / math.sqrt(eta))


def test_shortcut_runs_no_dijkstra_over_the_sweep_grid(tmp_path, monkeypatch):
    """The growth sweep and the region check read the closed form, and
    the stencil slack is a constant.  The grid runs only for the
    metric-spot record's two fields over [0, 6]^2, never on the
    extent-18 grid."""
    import minent.shortcut as shortcut

    # forget fields that other tests left cached
    shortcut._engine.cache_clear()
    nodes = []
    dijkstra = shortcut._dijkstra

    def counted(graph, *args, **kwargs):
        nodes.append(graph.shape[0])
        return dijkstra(graph, *args, **kwargs)

    monkeypatch.setattr(shortcut, "_dijkstra", counted)
    assert main(["--out", str(tmp_path), "shortcut"]) == EXIT_OK
    assert 0 < len(nodes) <= 2
    assert max(nodes) <= 121**2


@pytest.mark.parametrize("spacing", [0.05, 0.04, 0.025, 0.02])
def test_metric_spot_grid_ends_with_the_segment(spacing):
    """Both metric-spot pairs lie in [0, 6]^2, and a grid over [0, 6]^2
    gives the same distances as the extent-12 grid, bit for bit: the
    plain pair on the eta = 1 model, the cheap pair at each eta."""
    from minent.shortcut import ShortcutModel, _GridEngine

    def spot(eta, extent, a, b):
        model = ShortcutModel(eta=eta, spacing=spacing, extent=extent)
        eng = _GridEngine(model)
        return eng.field(eng.node_of(model.snap(a)))[eng.node_of(model.snap(b))]

    pairs = [(1.0, (0.5, 0.5), (5.5, 4.0))]
    pairs += [(eta, (2.5, 1.0), (5.5, 1.0)) for eta in (1.0, 0.99, 0.8, 0.5)]
    for eta, a, b in pairs:
        assert spot(eta, 6.0, a, b) == spot(eta, 12.0, a, b), (eta, a, b)


def traced_peak(tmp_path, sub):
    """Peak bytes traced while a default run of sub executes, with the
    program already imported and no shortcut grid cached."""
    import minent.ghkit  # noqa: F401
    import minent.shortcut as shortcut

    shortcut._engine.cache_clear()
    shortcut._stencil.cache_clear()
    tracemalloc.start()
    try:
        assert main(["--out", str(tmp_path), sub]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_ghnet_holds_one_sample_space(tmp_path):
    # the 800-point circle's matrix is the largest array; the torus is
    # built only after the circle is dropped, each in place
    assert traced_peak(tmp_path, "ghnet") <= 1.25 * 800**2 * 8


def test_shortcut_peak_memory(tmp_path):
    # measured 7.71 MB, set by the two metric-spot fields; the growth
    # sweep, 32 rows of the 361 x 361 extent-18 grid at a time, peaks at
    # about 4.2 MB; 9 MB leaves about 17 percent of margin
    assert traced_peak(tmp_path, "shortcut") <= 9e6


def test_metric_spot_compares_snapped_nodes(tmp_path):
    """At spacing 0.04 the spot points 2.5 and 5.5 snap to 2.48 and
    5.52; the grid distance between those nodes is compared with the
    closed form between the same nodes, not with the unsnapped points."""
    ini = write_ini(
        tmp_path, "[shortcut]\nspacing = 0.04\netas = 0.99 0.5\nrho_lo = 3\nrho_hi = 5\n"
    )
    out = tmp_path / "out"
    assert main(["--config", ini, "--out", str(out), "shortcut"]) == EXIT_OK
    spot = {c["name"]: c for c in read_report(out, "shortcut")["checks"]}["metric-spot"]
    assert spot["passed"] is True


def test_shortcut_eta_override(tmp_path):
    out = tmp_path / "out"
    code = main(["--out", str(out), "shortcut", "--eta", "1.0"])
    assert code == EXIT_OK
    doc = read_report(out, "shortcut")
    assert doc["config"]["etas"] == [1.0]


def test_ghnet_subcommand(tmp_path):
    quick = write_ini(tmp_path, "[ghnet]\ncircle = 200\ntorus = 12\n")
    out = tmp_path / "out"
    assert main(["--config", quick, "--out", str(out), "ghnet"]) == EXIT_OK
    doc = read_report(out, "ghnet")
    by_anchor = {}
    for c in doc["checks"]:
        by_anchor.setdefault(c["anchor"], []).append(c)
    assert all(c["passed"] for c in by_anchor["net-approximation"])
    assert all(c["passed"] for c in by_anchor["gh-bounds"])
    assert all(c["passed"] for c in by_anchor["measure-discrepancy"])


def test_short_subcommands_import_no_scipy():
    # The five short subcommands spend most of their time importing;
    # scipy would add about 0.1 s to each call.  Only shortcut and ghkit
    # may pull it in.
    code = (
        "import sys\n"
        "import minent.cli, minent.config, minent.reports, minent.products\n"
        "import minent.hyperbolic, minent.barycenter\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "[]"
