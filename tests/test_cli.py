"""Configuration loading, report documents, and the command-line
drivers, exercised in process through main()."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minent.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NOCONV,
    EXIT_OK,
    main,
)
from minent.config import ConfigError, RunConfig, load_config
from minent.reports import ANCHORS, CheckRecord, ReportDocument, write_csv


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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
        ("spread", 8.0, "[run]"),
    ],
)
def test_validation_names_the_section(field, value, section):
    cfg = RunConfig()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError, match=f"\\{section}"):
        cfg.validate()


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
        doc.time("total", 1.234567)
        return doc

    one, two = build().to_json(), build().to_json()
    assert one == two
    assert one.endswith("\n")
    assert "timings" not in one
    with_t = build().to_json(include_timings=True)
    assert '"timings"' in with_t
    assert "1.235" in with_t


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
    out_text = capsys.readouterr().out
    assert "[PASS]" in out_text
    # one verdict line per recorded check, in report order
    verdicts = [
        ln for ln in out_text.splitlines() if ln.startswith(("[PASS] ", "[FAIL] "))
    ]
    assert verdicts == [
        f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}"
        for c in doc["checks"][1:]
    ]


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
    out = capsys.readouterr().out
    start = out.index("{")
    doc = json.loads(out[start:])
    assert doc["subcommand"] == "entropy"


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), "growth"]) == EXIT_OK
    assert main(["--out", str(b), "growth"]) == EXIT_OK
    ba = (a / "growth_report.json").read_bytes()
    bb = (b / "growth_report.json").read_bytes()
    assert ba == bb


GOLDEN = Path(__file__).parent / "golden"


def moved_paths(old, new, path="$"):
    """JSON paths whose values differ between two parsed documents."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [
            p
            for k in sorted(old.keys() | new.keys())
            for p in moved_paths(old.get(k), new.get(k), f"{path}.{k}")
        ]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [
            p
            for i, (a, b) in enumerate(zip(old, new))
            for p in moved_paths(a, b, f"{path}[{i}]")
        ]
    return [] if type(old) is type(new) and old == new else [path]


@pytest.mark.parametrize(
    "sub",
    ["entropy", "growth", "barycenter", "bcg", "natural-map", "shortcut", "ghnet"],
)
def test_reports_match_golden(tmp_path, sub):
    # A change that moves a report value updates tests/golden and says
    # in CHANGES.md which values moved and by how much.
    assert main(["--out", str(tmp_path), sub]) == EXIT_OK
    got = (tmp_path / f"{sub}_report.json").read_bytes()
    want = (GOLDEN / f"{sub}_report.json").read_bytes()
    if got != want:
        moved = moved_paths(json.loads(want), json.loads(got))
        pytest.fail(f"{sub} report moved at {moved or 'formatting only'}")


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


def test_config_error_exit_code(tmp_path, capsys):
    bad = write_ini(tmp_path, "[profile]\ndims = 3\nentropies = 2 2\n")
    assert main(["--config", bad, "entropy"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "ghost.ini"), "entropy"]) == EXIT_CONFIG
    capsys.readouterr()


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


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


def test_natural_map_subcommand(tmp_path):
    quick = write_ini(tmp_path, "[run]\ndraws = 20\n")
    assert main(["--config", quick, "natural-map"]) == EXIT_OK


@pytest.mark.parametrize("sub", ["barycenter", "natural-map"])
def test_largest_valid_spread_runs(tmp_path, sub):
    # points at distance 6 from the base still hold the hyperboloid
    # tolerance; at 8 a draw can fail its own assert
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
    # may pull it in, and hyperbolic imports expm inside a function.
    code = (
        "import sys\n"
        "import minent.cli, minent.config, minent.reports, minent.products\n"
        "import minent.hyperbolic, minent.barycenter\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "[]"
