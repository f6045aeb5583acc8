"""Tests for the scenario-driven command line."""

import json
from pathlib import Path

import pytest

from schrodsep.cli import load_scenario, main

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
MAGNETIC = SCENARIOS / "magnetic_spherical_rotating.json"
HJ_SCENARIO = SCENARIOS / "hj_coulomb_spherical.json"


def run(*args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(Path(path).read_text())


LIST_SYSTEMS = """\
cartesian                    complete  (-inf, inf) x (-inf, inf) x (-inf, inf)
cylindrical                  partial   (-inf, inf) x [0, 6.28319] x (-inf, inf)
parabolic_cylindrical        partial   [0, inf) x (-inf, inf) x (-inf, inf)
elliptic_cylindrical(a=1.0)  partial   [0, inf) x [-3.14159, 3.14159] x (-inf, inf)
spherical                    nonsplit  (0, inf) x (-inf, inf) x [0, 6.28319]
prolate_spheroidal(a=1.0)    nonsplit  (0, inf) x (-inf, inf) x [0, 6.28319]
oblate_spheroidal(a=1.0)     nonsplit  (0, 1.5708] x (-inf, inf) x [0, 6.28319]
parabolic                    nonsplit  (-inf, inf) x (-inf, inf) x [0, 6.28319]
paraboloidal(a=1.0)          nonsplit  (-inf, inf) x [0, 3.14159] x (-inf, inf)
ellipsoidal(a=1.0, k=0.5)    nonsplit  (0, 1.68575] x [-2.15652, 2.15652] x [0, 6.743]
conical(k=0.5)               nonsplit  (0, inf) x [-2.15652, 2.15652] x [0, 6.743]
"""


def test_list_systems_prints_eleven_charts(capsys):
    # Pinned in full, so a moved domain end, singular flag or split class shows.
    assert run("list-systems") == 0
    assert capsys.readouterr().out == LIST_SYSTEMS


def test_audit_cartesian_scenario_is_clean(tmp_path, capsys):
    assert run("audit-geometry", "--scenario", SCENARIOS / "audit_cartesian.json",
               "--out", tmp_path) == 0
    report = read_json(tmp_path / "report.json")
    for channel, worst in report["channel_max"].items():
        assert worst <= 1e-12, channel
    assert report["provenance"]["tool_version"]
    assert len(report["provenance"]["scenario_sha256"]) == 64


def test_separate_then_verify_round_trip(tmp_path, capsys):
    assert run("separate", "--scenario", MAGNETIC, "--out", tmp_path) == 0
    for name in ("phi_1.csv", "phi_2.csv", "phi_3.csv", "solution.json"):
        assert (tmp_path / name).exists()
    assert run("verify", "--scenario", MAGNETIC, "--out", tmp_path) == 0
    report = read_json(tmp_path / "report.json")
    assert report["report"]["summary"]["max_relative"] < 1e-5
    # provenance comments head the CSV
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0].startswith("# scenario_sha256=")
    assert lines[1].startswith("# tool_version=")
    assert lines[2].startswith("index,channel,")


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("separate", "--scenario", MAGNETIC, "--out", out) == 0
        assert run("verify", "--scenario", MAGNETIC, "--out", out) == 0
    for name in ("solution.json", "phi_1.csv", "phi_2.csv", "phi_3.csv",
                 "report.json", "report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_tampered_phi0_constant_is_flagged(tmp_path, capsys):
    assert run("separate", "--scenario", MAGNETIC, "--out", tmp_path) == 0
    stored = read_json(tmp_path / "solution.json")
    stored["constants"][0] += 0.5
    (tmp_path / "solution.json").write_text(json.dumps(stored))

    # reports are data, so the run itself succeeds
    assert run("verify", "--scenario", MAGNETIC, "--out", tmp_path) == 0
    report = read_json(tmp_path / "report.json")
    assert report["report"]["summary"]["max_relative"] > 1e-2

    assert run("verify", "--scenario", MAGNETIC, "--out", tmp_path,
               "--assert-tol", "1e-4") == 2


def test_schema_violation_is_config_error(tmp_path, capsys):
    doc = read_json(MAGNETIC)
    doc["constants"] = [1.0, 2.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("audit-geometry", "--scenario", bad, "--out", tmp_path) == 1
    assert "too short" in capsys.readouterr().err


def test_unknown_scenario_key_rejected(tmp_path, capsys):
    doc = read_json(MAGNETIC)
    doc["extra_knob"] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("audit-geometry", "--scenario", bad, "--out", tmp_path) == 1
    assert "extra_knob" in capsys.readouterr().err


def test_unknown_profile_key_rejected(tmp_path, capsys):
    doc = read_json(MAGNETIC)
    doc["frame"]["profiles"]["h9"] = {"type": "constant", "value": 1.0}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("separate", "--scenario", bad, "--out", tmp_path) == 1


def test_missing_scenario_is_io_error(tmp_path, capsys):
    assert run("verify", "--scenario", tmp_path / "nope.json", "--out", tmp_path) == 3


def test_verify_without_artifacts_is_io_error(tmp_path, capsys):
    assert run("verify", "--scenario", MAGNETIC, "--out", tmp_path) == 3


def test_coulomb_chart_mismatch_rejected(tmp_path, capsys):
    doc = read_json(SCENARIOS / "coulomb_parabolic.json")
    doc["system"]["id"] = "spherical"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("separate", "--scenario", bad, "--out", tmp_path) == 1
    assert "chart" in capsys.readouterr().err


def test_coulomb_demo_four_summaries(tmp_path, capsys):
    assert run("coulomb-demo", "--out", tmp_path, "--samples", "8") == 0
    report = read_json(tmp_path / "report.json")
    assert sorted(report["max_relative"]) == [
        "conical", "parabolic", "prolate_spheroidal_ii", "spherical",
    ]
    for name, value in report["max_relative"].items():
        assert value < 1e-5, name
    assert report["point_charge_limit_max_abs_diff"] == 0.0
    out = capsys.readouterr().out
    assert out.count("max relative residual") == 4


def test_hj_scenario_and_turning_point(tmp_path, capsys):
    assert run("hj", "--scenario", HJ_SCENARIO, "--out", tmp_path) == 0
    report = read_json(tmp_path / "report.json")
    assert report["report"]["summary"]["max_relative"] < 1e-6

    doc = read_json(HJ_SCENARIO)
    doc["constants"] = [4.0, 3.0, -0.3]
    bad = tmp_path / "turning.json"
    bad.write_text(json.dumps(doc))
    assert run("hj", "--scenario", bad, "--out", tmp_path) == 2
    assert "radicand" in capsys.readouterr().err


def test_build_potential_tabulates(tmp_path, capsys):
    scen = SCENARIOS / "coulomb_parabolic.json"
    assert run("build-potential", "--scenario", scen, "--out", tmp_path) == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    n = load_scenario(scen).samples
    assert len(lines) == n + 3  # two provenance comments plus the header
    assert lines[2] == "t,x1,x2,x3,a0,a1,a2,a3,b1,b2,b3"
    report = read_json(tmp_path / "report.json")
    assert report["kind"] == "coulomb"
    assert len(report["field_at_anchor"]) == 3


def test_shipped_schema_copies_match():
    src = (REPO / "src" / "schrodsep" / "scenario.schema.json").read_bytes()
    doc = (REPO / "docs" / "scenario.schema.json").read_bytes()
    assert src == doc


def test_every_shipped_scenario_loads():
    for path in sorted(SCENARIOS.glob("*.json")):
        sc = load_scenario(path)
        assert sc.doc["schema"] == 1
        assert len(sc.omega_ranges) == 3


def test_samples_override_applies(tmp_path, capsys):
    assert run("separate", "--scenario", MAGNETIC, "--out", tmp_path) == 0
    assert run("verify", "--scenario", MAGNETIC, "--out", tmp_path,
               "--samples", "5") == 0
    report = read_json(tmp_path / "report.json")
    assert report["report"]["summary"]["count"] == 5


def _unbounded_scenario(tmp_path, axis3=(-0.5, 0.5), t_range=(-1.0, 1.0), anchor=0.0):
    """Magnetic cylindrical scenario; the third chart axis is unbounded."""
    doc = {
        "anchor": anchor,
        "schema": 1,
        "system": {"id": "cylindrical"},
        "frame": {"class": "partial", "profiles": {}},
        "potential": {"kind": "magnetic"},
        "constants": [3, 1, 1],
        "omega_ranges": [[0.5, 1.5], [0.5, 1.5], list(axis3)],
        "t_range": list(t_range),
        "samples": 3,
    }
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))  # writes Infinity, which load_scenario reads back
    return path


def test_hj_infinite_omega_range_is_config_error(tmp_path, capsys):
    scen = _unbounded_scenario(tmp_path, axis3=(-float("inf"), float("inf")))
    assert run("hj", "--scenario", scen, "--out", tmp_path / "out") == 1
    assert "must be finite" in capsys.readouterr().err


def test_separate_infinite_omega_range_is_config_error(tmp_path, capsys):
    scen = _unbounded_scenario(tmp_path, axis3=(-float("inf"), float("inf")))
    assert run("separate", "--scenario", scen, "--out", tmp_path / "out") == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field",
    [
        {"axis3": (-float("inf"), float("inf"))},
        {"axis3": (float("nan"), 1.0)},
        {"axis3": (-1e308, 1e308)},
        {"t_range": (float("nan"), 1.0)},
        {"anchor": float("inf")},
    ],
    ids=["infinite_range", "nan_bound", "overflowing_span", "nan_t_range", "infinite_anchor"],
)
def test_build_potential_nonfinite_input_is_config_error(tmp_path, capsys, field):
    scen = _unbounded_scenario(tmp_path, **field)
    assert run("build-potential", "--scenario", scen, "--out", tmp_path / "out") == 1
    assert "must be finite" in capsys.readouterr().err


def test_separate_infinite_t_range_writes_nothing(tmp_path, capsys):
    scen = _unbounded_scenario(tmp_path, t_range=(-float("inf"), float("inf")))
    out = tmp_path / "out"
    assert run("separate", "--scenario", scen, "--out", out) == 1
    assert "time range" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))
