"""Tests for the scenario-driven command line."""

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodsep import __version__
from schrodsep.cli import MAX_SAMPLES, _load_solution, load_scenario, main

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


def test_every_artifact_is_headed_by_command_and_provenance(tmp_path, capsys):
    runs = [  # (command, scenario, output directory, JSON artifact)
        ("audit-geometry", MAGNETIC, "audit", "report.json"),
        ("build-potential", MAGNETIC, "potential", "report.json"),
        ("separate", MAGNETIC, "separated", "solution.json"),
        ("verify", MAGNETIC, "separated", "report.json"),
        ("hj", HJ_SCENARIO, "hj", "report.json"),
        ("coulomb-demo", None, "demo", "report.json"),
    ]
    for command, scenario, out, name in runs:
        args = [command, "--out", tmp_path / out, "--samples", 2]
        if scenario is not None:
            args += ["--scenario", scenario]
        assert run(*args) == 0, command
        digest = None if scenario is None else hashlib.sha256(scenario.read_bytes()).hexdigest()
        doc = read_json(tmp_path / out / name)
        assert doc["command"] == command
        assert doc["provenance"] == {"scenario_sha256": digest, "tool_version": __version__}
        if name == "report.json":
            head = (tmp_path / out / "report.csv").read_text().splitlines()[:2]
            assert head == [f"# scenario_sha256={digest}", f"# tool_version={__version__}"]


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


def test_separate_oversized_t_range_writes_nothing(tmp_path, capsys):
    # 1e7 Hermite nodes in time: refused before any table is allocated
    scen = _unbounded_scenario(tmp_path, t_range=(-2.0, 1e4))
    out = tmp_path / "out"
    assert run("separate", "--scenario", scen, "--out", out) == 1
    assert "nodes" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("t_range, count", [((-1e300, 1e300), "2e+303"), ((-8e307, 8e307), "inf")],
                         ids=["huge_count", "count_beyond_floats"])
def test_hj_huge_t_range_names_its_node_count(tmp_path, capsys, t_range, count):
    # the count is printed in a few digits, and one too large for a float
    # is a configuration error as well
    scen = _unbounded_scenario(tmp_path, t_range=t_range)
    assert run("hj", "--scenario", scen, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"needs {count} nodes at spacing" in err and len(err) < 200


@pytest.fixture(scope="module")
def separated(tmp_path_factory):
    out = tmp_path_factory.mktemp("separated")
    assert main(["separate", "--scenario", str(MAGNETIC), "--out", str(out)]) == 0
    return out


def test_verify_rebuilds_the_stored_phi0_bit_for_bit(separated):
    sc = load_scenario(MAGNETIC)
    phi0 = _load_solution(sc, separated).phi0
    for t, re, im in read_json(separated / "solution.json")["phi0_probes"]:
        assert phi0(t) == complex(re, im)


def _truncate(out):
    text = (out / "solution.json").read_text()
    (out / "solution.json").write_text(text[: len(text) // 2])
    return "solution.json"


def _edit_solution(edit):
    def damage(out):
        stored = read_json(out / "solution.json")
        edit(stored)
        (out / "solution.json").write_text(json.dumps(stored))
        return "solution.json"
    return damage


def _edit_csv(name, field, text):
    # field `field` of the second node row, so a NaN node sets the spacing
    def damage(out):
        lines = (out / name).read_text().splitlines()
        parts = lines[2].split(",")
        parts[field] = text
        lines[2] = ",".join(parts)
        (out / name).write_text("\n".join(lines) + "\n")
        return name
    return damage


def _five_columns(out):
    # the phi'' columns cut from every line, as in a table of cubic factors
    lines = (out / "phi_1.csv").read_text().splitlines()
    (out / "phi_1.csv").write_text("\n".join(",".join(line.split(",")[:5]) for line in lines))
    return "phi_1.csv"


@pytest.mark.parametrize(
    "damage",
    [
        _truncate,
        _five_columns,
        _edit_solution(lambda s: s.pop("q_kind")),
        _edit_solution(lambda s: s.update(t_range=s["t_range"][:1])),
        _edit_csv("phi_2.csv", 1, "abc"),
        _edit_csv("phi_1.csv", 0, "nan"),
    ],
    ids=["truncated_json", "five_column_csv", "missing_q_kind", "short_t_range", "text_in_csv",
         "nan_node"],
)
def test_verify_on_damaged_artifacts_is_config_error(separated, tmp_path, capsys, damage):
    out = tmp_path / "out"
    shutil.copytree(separated, out)
    name = damage(out)
    assert run("verify", "--scenario", MAGNETIC, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert name in err


# ---------------------------------------------------------------------------
# Bounds of flags and scenario numbers


@pytest.mark.parametrize(
    "args",
    [
        ("audit-geometry", "--scenario", SCENARIOS / "audit_cartesian.json", "--seed", "-1"),
        ("build-potential", "--scenario", SCENARIOS / "audit_cartesian.json", "--seed", "-1"),
        ("coulomb-demo", "--seed", "-1"),
        ("coulomb-demo", "--samples", "-2"),
        ("audit-geometry", "--scenario", SCENARIOS / "audit_cartesian.json", "--assert-tol", "nan"),
        ("hj", "--scenario", HJ_SCENARIO, "--assert-tol", "-1"),
        ("build-potential", "--scenario", SCENARIOS / "audit_cartesian.json",
         "--samples", MAX_SAMPLES + 1),
        ("coulomb-demo", "--samples", MAX_SAMPLES + 1),
    ],
    ids=["audit_seed", "potential_seed", "demo_seed", "demo_samples", "nan_tol", "negative_tol",
         "potential_samples_cap", "demo_samples_cap"],
)
def test_out_of_bounds_flag_is_config_error(tmp_path, capsys, args):
    assert run(*args, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


def test_scenario_samples_above_cap_is_config_error(tmp_path, capsys):
    doc = read_json(SCENARIOS / "audit_cartesian.json")
    doc["samples"] = MAX_SAMPLES + 1
    scen = tmp_path / "many.json"
    scen.write_text(json.dumps(doc))
    assert run("build-potential", "--scenario", scen, "--out", tmp_path / "out") == 1
    assert f"samples must be at most {MAX_SAMPLES}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_zero_samples_is_config_error(separated, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(separated, out)
    assert run("verify", "--scenario", MAGNETIC, "--out", out,
               "--samples", "0", "--assert-tol", "1e-12") == 1
    assert "samples must be at least 1" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def _variant(tmp_path, scenario, path, value):
    """A shipped scenario with the number at ``path`` replaced by ``value``;
    the name of an omega profile or a frame profile there takes a constant."""
    doc = read_json(SCENARIOS / scenario)
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    if path[-1] in ("f10", "h1", "w1"):
        value = {"type": "constant", "value": value}
    node[path[-1]] = value
    target = tmp_path / "variant.json"
    target.write_text(json.dumps(doc))  # writes NaN and Infinity, which json reads back
    return target


HUGE = 10**400  # 401 digits, beyond the float range


@pytest.mark.parametrize(
    "scenario, path, value",
    [
        ("coulomb_parabolic.json", ("potential", "q"), math.nan),
        ("electrostatic_cartesian_drift.json", ("potential", "f10"), math.nan),
        ("electrostatic_cartesian_drift.json", ("potential", "f10"), HUGE),
        ("electrostatic_cartesian_drift.json", ("potential", "e_charge"), math.nan),
        ("electrostatic_cartesian_drift.json", ("potential", "e_charge"), math.inf),
        ("electrostatic_cartesian_drift.json", ("assert_tol",), math.nan),
        ("magnetic_spherical_rotating.json", ("constants", 1), HUGE),
        ("audit_cartesian.json", ("omega_ranges", 0, 1), HUGE),
        ("audit_cartesian.json", ("anchor",), -HUGE),
    ],
    ids=["q_nan", "f10_nan", "f10_huge_int", "e_charge_nan", "e_charge_inf", "assert_tol_nan",
         "constant_huge_int", "range_huge_int", "anchor_huge_int"],
)
def test_nonfinite_scenario_number_is_config_error(tmp_path, capsys, scenario, path, value):
    scen = _variant(tmp_path, scenario, path, value)
    assert run("build-potential", "--scenario", scen, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "must be finite" in err


@pytest.mark.parametrize("key, value", [("a", math.inf), ("k", math.nan)])
def test_nonfinite_chart_parameter_is_config_error(tmp_path, capsys, key, value):
    doc = read_json(MAGNETIC)
    doc["system"] = {"id": "prolate_spheroidal" if key == "a" else "conical", key: value}
    scen = tmp_path / "chart.json"
    scen.write_text(json.dumps(doc))
    assert run("build-potential", "--scenario", scen, "--out", tmp_path / "out") == 1
    assert f"system/{key} must be finite" in capsys.readouterr().err


def test_overlong_integer_is_config_error(tmp_path, capsys):
    scen = tmp_path / "long.json"
    text = (SCENARIOS / "audit_cartesian.json").read_text()
    scen.write_text(text.replace('"seed": 3', '"seed": ' + "9" * 5000))
    assert run("audit-geometry", "--scenario", scen, "--out", tmp_path / "out") == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000,
     (SCENARIOS / "audit_cartesian.json").read_text().replace(
         '"seed": 3', '"seed": 3, "extra_knob": ' + "[" * 5000 + "]" * 5000)],
    ids=["whole_document", "under_unknown_key"],
)
def test_deeply_nested_scenario_is_config_error(tmp_path, capsys, text):
    scen = tmp_path / "nested.json"
    scen.write_text(text)
    assert run("audit-geometry", "--scenario", scen, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: scenario {scen}: ")


def test_deeply_nested_solution_is_config_error(separated, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(separated, out)
    (out / "solution.json").write_text("[" * 100_000)
    assert run("verify", "--scenario", MAGNETIC, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {out / 'solution.json'}: ")


def test_mirrored_frame_is_one_config_error(tmp_path, capsys):
    # h1 = 1 - 0.2 t^2 passes the probe grid [-2, 2] and is negative on the time range.
    doc = read_json(SCENARIOS / "electrostatic_cartesian_drift.json")
    doc["frame"] = {
        "class": "complete",
        "profiles": {"h1": {"type": "polynomial", "coeffs": [1.0, 0.0, -0.2]}},
    }
    doc.update(t_range=[2.5, 3.0], anchor=2.75, samples=3)
    scen = tmp_path / "mirrored.json"
    scen.write_text(json.dumps(doc))
    for command in ("build-potential", "audit-geometry", "separate"):
        assert run(command, "--scenario", scen, "--out", tmp_path / command) == 1, command
        assert "frame scale non-positive" in capsys.readouterr().err, command
    assert not (tmp_path / "build-potential" / "report.csv").exists()


EXTREMES = [math.nan, math.inf, -math.inf, 1e308, -1e308, HUGE, -HUGE, 2**1024]
EXTREME_FIELDS = [
    ("potential", "q"),
    ("potential", "e_charge"),
    ("potential", "f10"),
    ("system", "a"),
    ("system", "k"),
    ("assert_tol",),
    ("anchor",),
    ("constants", 0),
    ("t_range", 1),
    ("omega_ranges", 0, 1),
    ("frame", "profiles", "h1"),
    ("frame", "profiles", "w1"),
]


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(
    scenario=st.sampled_from(sorted(p.name for p in SCENARIOS.glob("*.json"))),
    path=st.sampled_from(EXTREME_FIELDS),
    value=st.sampled_from(EXTREMES),
    command=st.sampled_from(["build-potential", "audit-geometry"]),
)
def test_extreme_scenario_numbers_end_in_an_exit_code(
    tmp_path_factory, scenario, path, value, command
):
    # Every example ends in an exit code; an uncaught exception fails it.
    tmp = tmp_path_factory.mktemp("extreme")
    scen = _variant(tmp, scenario, path, value)
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet), np.errstate(all="ignore"):
        code = main([command, "--scenario", str(scen), "--out", str(tmp / "out")])
    assert code in (0, 1, 2, 3)


def test_scenario_axis_profiles_take_arrays(tmp_path):
    doc = read_json(SCENARIOS / "audit_cartesian.json")
    doc["potential"]["f10"] = {"type": "polynomial", "coeffs": [0.5, -1.0, 2.0]}
    doc["potential"]["f20"] = {"type": "constant", "value": 0.25}
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(doc))
    f10, f20, _ = load_scenario(path).spec.f_profiles
    w = np.linspace(-1.0, 1.0, 7)
    np.testing.assert_array_equal(f10(w), [f10(float(v)) for v in w])
    assert f20(w) == 0.25  # a number broadcasts against the grid
