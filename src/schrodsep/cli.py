"""Scenario-driven command line for building, separating and checking fields.

Usage:
    schrodsep list-systems
    schrodsep audit-geometry --scenario box.json --out results
    schrodsep build-potential --scenario box.json --out results
    schrodsep separate --scenario box.json --out results
    schrodsep verify --scenario box.json --out results [--assert-tol 1e-4]
    schrodsep hj --scenario box.json --out results
    schrodsep coulomb-demo --out results

Scenarios are JSON documents validated against the shipped schema
(``scenario.schema.json``); unknown keys are rejected.  Runs are
deterministic: the same scenario and seed produce byte-identical
artifacts, and every report carries the scenario SHA-256 plus the tool
version.  Exit codes: 0 success, 1 configuration problem, 2 numerical
failure (including ``--assert-tol`` violations), 3 I/O problem.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .coords import CoordinateSystem, SystemId, base_system_ids, make_system
from .errors import ConfigurationError, NumericError, check_range
from .frame import FrameSpec, TimeProfile, constant, horner, make_frame, polynomial, sinusoid
from .potential import (
    CoulombSystem,
    PotentialKind,
    PotentialSpec,
    coulomb_spec,
    electrostatic_spec,
    magnetic_field,
    magnetic_spec,
    vector_divergence,
    vector_potential,
)
from .separate import (
    QKind,
    SeparatedSolution,
    SeparationConstants,
    evaluate_action,
    evaluate_psi,
    hj_solve,
    read_interpolant_csv,
    separate,
    solve_phi0,
    write_interpolant_csv,
)
from .verify import (
    channel_max,
    chart_box_points,
    geometry_audit,
    hj_report,
    report_to_csv,
    report_to_dict,
    se_report,
)

AUDIT_CHANNELS = ("orthogonality", "stackel", "colnorm", "harmonicity")

#: Fixed inputs of the ``coulomb-demo`` subcommand; the static tilt keeps
#: the scalar potential in its plain point-charge limit.
DEMO_CHARGE = 1.0
DEMO_ANGLES = (0.3, -0.2, 0.25)
DEMO_CONSTANTS = (0.7, -0.4, 0.9)
DEMO_BOXES = {
    "spherical": ((0.6, 1.4), (0.4, 1.2), (0.5, 2.5)),
    "prolate_ii_plus": ((0.5, 1.3), (0.4, 1.2), (0.4, 2.6)),
    "prolate_ii_minus": ((0.5, 1.3), (0.4, 1.2), (0.4, 2.6)),
    "parabolic": ((-0.6, 0.6), (-0.6, 0.6), (0.4, 2.6)),
    "conical": ((0.6, 1.4), (0.4, 1.4), (0.3, 1.3)),
}


# ---------------------------------------------------------------------------
# Scenario loading


@dataclass(frozen=True)
class Scenario:
    """A validated scenario document plus the objects built from it."""

    doc: dict
    digest: str
    system: CoordinateSystem
    frame: FrameSpec
    spec: PotentialSpec
    constants: SeparationConstants
    omega_ranges: tuple
    t_range: tuple[float, float]
    anchor: float
    initial_data: tuple | None
    signs: tuple[int, int, int]
    samples: int
    seed: int
    assert_tol: float | None


def _schema() -> dict:
    text = resources.files("schrodsep").joinpath("scenario.schema.json").read_text("utf-8")
    return json.loads(text)


def _time_profile(node: dict) -> TimeProfile:
    if node["type"] == "constant":
        return constant(node["value"])
    if node["type"] == "polynomial":
        return polynomial(node["coeffs"])
    return sinusoid(
        node["amplitude"],
        node["angular_frequency"],
        node.get("phase", 0.0),
        node.get("offset", 0.0),
    )


def _omega_profile(node: dict):
    if node["type"] == "constant":
        value = float(node["value"])
        return lambda w: value
    rev = [float(c) for c in reversed(node["coeffs"])]
    return lambda w: horner(rev, w)


def _build_system(doc: dict) -> CoordinateSystem:
    node = doc["system"]
    kwargs = {}
    if "a" in node:
        kwargs["a"] = node["a"]
    if "k" in node:
        kwargs["k"] = node["k"]
    return make_system(node["id"], **kwargs)


def _build_frame(doc: dict) -> FrameSpec:
    node = doc["frame"]
    profiles = {name: _time_profile(p) for name, p in node.get("profiles", {}).items()}
    return make_frame(node["class"], **profiles)


def _build_spec(doc: dict, system: CoordinateSystem, frame: FrameSpec) -> PotentialSpec:
    pot = doc["potential"]
    kind = PotentialKind(pot["kind"])
    e_charge = float(pot.get("e_charge", 1.0))

    if kind is PotentialKind.COULOMB:
        for key in ("f10", "f20", "f30", "t0_tilde"):
            if key in pot:
                raise ConfigurationError(
                    f"coulomb potentials fix their own profiles; drop {key!r}"
                )
        if "coulomb_system" not in pot or "q" not in pot:
            raise ConfigurationError("coulomb potentials need 'coulomb_system' and 'q'")
        angle_nodes = doc["frame"].get("profiles", {})
        extra = set(angle_nodes) - {"alpha", "beta", "gamma"}
        if doc["frame"]["class"] != "nonsplit" or extra:
            raise ConfigurationError(
                "coulomb frames are pure rotations: class 'nonsplit' with only "
                "alpha/beta/gamma profiles"
            )
        kwargs = {
            name: _time_profile(node) for name, node in angle_nodes.items()
        }
        if "a" in doc["system"]:
            kwargs["a"] = doc["system"]["a"]
        if "k" in doc["system"]:
            kwargs["k"] = doc["system"]["k"]
        spec = coulomb_spec(
            pot["coulomb_system"], q=pot["q"], e_charge=e_charge, **kwargs
        )
        if spec.system.sid.value != doc["system"]["id"]:
            raise ConfigurationError(
                f"coulomb system {pot['coulomb_system']!r} lives on the "
                f"{spec.system.sid.value!r} chart, but the scenario names "
                f"{doc['system']['id']!r}"
            )
        return spec

    for key in ("q", "coulomb_system"):
        if key in pot:
            raise ConfigurationError(f"{key!r} only applies to coulomb potentials")
    kwargs = {}
    for key in ("f10", "f20", "f30"):
        if key in pot:
            kwargs[key] = _omega_profile(pot[key])
    if "t0_tilde" in pot:
        kwargs["t0_tilde"] = _time_profile(pot["t0_tilde"])
    builder = magnetic_spec if kind is PotentialKind.MAGNETIC else electrostatic_spec
    return builder(system, frame, e_charge=e_charge, **kwargs)


def load_scenario(path: str | Path) -> Scenario:
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"scenario {path}: not valid JSON ({exc})") from exc
    try:
        jsonschema.validate(doc, _schema())
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigurationError(f"scenario {path}: {exc.message} at {where}") from exc

    system = _build_system(doc)
    frame = _build_frame(doc)
    spec = _build_spec(doc, system, frame)
    constants = SeparationConstants(*doc["constants"])
    ranges = tuple(
        check_range("omega range", lo, hi, f" on axis {a} of scenario {path}")
        for a, (lo, hi) in enumerate(doc["omega_ranges"], start=1)
    )
    t_range = check_range("time range", *doc.get("t_range", (-2.0, 2.0)), f" of scenario {path}")
    anchor = float(doc.get("anchor", 0.0))
    if not math.isfinite(anchor):
        raise ConfigurationError(f"scenario {path}: anchor {anchor} must be finite")
    initial = None
    if "initial_data" in doc:
        initial = tuple(
            (complex(row[0], row[1]), complex(row[2], row[3]))
            for row in doc["initial_data"]
        )
    return Scenario(
        doc=doc,
        digest=digest,
        system=spec.system,
        frame=spec.frame,
        spec=spec,
        constants=constants,
        omega_ranges=ranges,
        t_range=t_range,
        anchor=anchor,
        initial_data=initial,
        signs=tuple(doc.get("signs", (1, 1, 1))),
        samples=int(doc.get("samples", 20)),
        seed=int(doc.get("seed", 0)),
        assert_tol=doc.get("assert_tol"),
    )


def _apply_overrides(sc: Scenario, args: argparse.Namespace) -> Scenario:
    updates = {}
    if getattr(args, "samples", None) is not None:
        updates["samples"] = args.samples
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "assert_tol", None) is not None:
        updates["assert_tol"] = args.assert_tol
    if not updates:
        return sc
    from dataclasses import replace

    return replace(sc, **updates)


# ---------------------------------------------------------------------------
# Artifact helpers


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _provenance(digest: str | None) -> dict:
    return {"scenario_sha256": digest, "tool_version": __version__}


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report_csv(path: Path, digest: str | None, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# scenario_sha256={digest}\n# tool_version={__version__}\n")
        report_to_csv(report, fh)


def _check_tolerance(worst: float, tol: float | None, label: str) -> int:
    if tol is not None and worst > tol:
        print(
            f"{label}: worst relative residual {worst:.6e} exceeds --assert-tol {tol:g}",
            file=sys.stderr,
        )
        return 2
    return 0


# ---------------------------------------------------------------------------
# Subcommands


def cmd_list_systems(args: argparse.Namespace) -> int:
    # Charts with parameters are shown at a=1, k=0.5; their elliptic
    # domains scale with the quarter periods of the chosen modulus.
    for name in base_system_ids():
        system = make_system(name, k=0.5 if SystemId(name).chart.uses_k else None)
        parts = []
        for iv in system.domain:
            lo = "-inf" if math.isinf(iv.lo) else f"{iv.lo:.6g}"
            hi = "inf" if math.isinf(iv.hi) else f"{iv.hi:.6g}"
            left = "(" if (iv.singular_lo or math.isinf(iv.lo)) else "["
            right = ")" if (iv.singular_hi or math.isinf(iv.hi)) else "]"
            parts.append(f"{left}{lo}, {hi}{right}")
        cls = system.split_class.value
        print(f"{system!s:28s} {cls:9s} {' x '.join(parts)}")
    return 0


def cmd_audit_geometry(args: argparse.Namespace) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    out = _out_dir(args)
    report = geometry_audit(sc.system, sc.frame, sc.anchor, sc.samples, sc.seed)
    worst = {ch: channel_max(report, ch) for ch in AUDIT_CHANNELS}
    payload = {
        "command": "audit-geometry",
        "provenance": _provenance(sc.digest),
        "channel_max": worst,
        "report": report_to_dict(report),
    }
    _write_json(out / "report.json", payload)
    _write_report_csv(out / "report.csv", sc.digest, report)
    for ch in AUDIT_CHANNELS:
        print(f"audit {ch:13s} max violation {worst[ch]:.6e}")
    return _check_tolerance(report.max_relative, sc.assert_tol, "audit-geometry")


def cmd_build_potential(args: argparse.Namespace) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    out = _out_dir(args)
    points = chart_box_points(
        sc.system, sc.frame, sc.omega_ranges, sc.t_range, sc.samples, sc.seed
    )
    with open(out / "report.csv", "w", encoding="utf-8") as fh:
        fh.write(f"# scenario_sha256={sc.digest}\n# tool_version={__version__}\n")
        fh.write("t,x1,x2,x3,a0,a1,a2,a3,b1,b2,b3\n")
        for t, x, omega in points:
            a0, avec = vector_potential(sc.spec, t, x, omega_hint=omega)
            b = magnetic_field(sc.spec, t)
            row = [t, x[0], x[1], x[2], a0, avec[0], avec[1], avec[2], b[0], b[1], b[2]]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    b_anchor = magnetic_field(sc.spec, sc.anchor)
    payload = {
        "command": "build-potential",
        "provenance": _provenance(sc.digest),
        "kind": sc.spec.kind.value,
        "samples": sc.samples,
        "field_at_anchor": [float(v) for v in b_anchor],
        "divergence_at_anchor": float(vector_divergence(sc.spec, sc.anchor)),
    }
    _write_json(out / "report.json", payload)
    print(
        f"build-potential: {sc.samples} samples, B(anchor) = "
        f"({b_anchor[0]:.6g}, {b_anchor[1]:.6g}, {b_anchor[2]:.6g})"
    )
    return 0


def cmd_separate(args: argparse.Namespace) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    out = _out_dir(args)
    solution = separate(
        sc.spec,
        sc.constants,
        omega_ranges=sc.omega_ranges,
        t_range=sc.t_range,
        anchor=sc.anchor,
        initial_data=sc.initial_data,
    )
    for a in (1, 2, 3):
        with open(out / f"phi_{a}.csv", "w", encoding="utf-8") as fh:
            write_interpolant_csv(solution.factors[a - 1], fh)
    probes = np.linspace(sc.t_range[0], sc.t_range[1], 5)
    payload = {
        "command": "separate",
        "provenance": _provenance(sc.digest),
        "constants": list(sc.constants.as_tuple()),
        "omega_ranges": [list(r) for r in sc.omega_ranges],
        "t_range": list(sc.t_range),
        "anchor": sc.anchor,
        "q_kind": solution.q_kind.value,
        "phi0_probes": [
            [float(t), float(solution.phi0(t).real), float(solution.phi0(t).imag)]
            for t in probes
        ],
    }
    _write_json(out / "solution.json", payload)
    print(f"separate: wrote phi_1.csv phi_2.csv phi_3.csv solution.json to {out}")
    return 0


def _load_solution(sc: Scenario, out: Path) -> SeparatedSolution:
    with open(out / "solution.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    constants = SeparationConstants(*stored["constants"])
    t_range = tuple(stored["t_range"])
    anchor = float(stored["anchor"])
    factors = []
    for a in (1, 2, 3):
        with open(out / f"phi_{a}.csv", encoding="utf-8") as fh:
            factors.append(read_interpolant_csv(fh, a))
    phi0 = solve_phi0(sc.spec, constants, t_range, anchor)
    return SeparatedSolution(
        sc.spec, constants, phi0, tuple(factors), QKind(stored["q_kind"])
    )


def cmd_verify(args: argparse.Namespace) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    out = _out_dir(args)
    solution = _load_solution(sc, out)
    t_range = (solution.phi0.t_lo, solution.phi0.t_hi)
    points = chart_box_points(
        sc.system, sc.frame, sc.omega_ranges, t_range, sc.samples, sc.seed
    )
    field = lambda t, x, hint: evaluate_psi(solution, t, x, hint)
    report = se_report(
        field,
        sc.spec,
        [(t, x) for t, x, _ in points],
        hints=[omega for _, _, omega in points],
    )
    payload = {
        "command": "verify",
        "provenance": _provenance(sc.digest),
        "constants": list(solution.constants.as_tuple()),
        "report": report_to_dict(report),
    }
    _write_json(out / "report.json", payload)
    _write_report_csv(out / "report.csv", sc.digest, report)
    print(
        f"verify: {len(report.records)} samples, max relative residual "
        f"{report.max_relative:.6e}"
    )
    return _check_tolerance(report.max_relative, sc.assert_tol, "verify")


def cmd_hj(args: argparse.Namespace) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    out = _out_dir(args)
    action = hj_solve(
        sc.spec,
        sc.constants,
        sc.omega_ranges,
        sc.signs,
        t_range=sc.t_range,
        anchor=sc.anchor,
    )
    for a in (1, 2, 3):
        with open(out / f"phi_{a}.csv", "w", encoding="utf-8") as fh:
            write_interpolant_csv(action.terms[a - 1], fh)
    points = chart_box_points(
        sc.system, sc.frame, sc.omega_ranges, sc.t_range, sc.samples, sc.seed
    )
    u = lambda t, x, hint: evaluate_action(action, t, x, hint)
    report = hj_report(
        u,
        sc.spec,
        [(t, x) for t, x, _ in points],
        hints=[omega for _, _, omega in points],
    )
    payload = {
        "command": "hj",
        "provenance": _provenance(sc.digest),
        "constants": list(sc.constants.as_tuple()),
        "signs": list(sc.signs),
        "report": report_to_dict(report),
    }
    _write_json(out / "report.json", payload)
    _write_report_csv(out / "report.csv", sc.digest, report)
    print(
        f"hj: {len(report.records)} samples, max relative residual "
        f"{report.max_relative:.6e}"
    )
    return _check_tolerance(report.max_relative, sc.assert_tol, "hj")


def cmd_coulomb_demo(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    samples = args.samples if args.samples is not None else 12
    seed = args.seed if args.seed is not None else 7
    alpha, beta, gamma = (constant(v) for v in DEMO_ANGLES)
    constants = SeparationConstants(*DEMO_CONSTANTS)

    results = {}
    limit_diff = 0.0
    rows = []
    for chart, box in DEMO_BOXES.items():
        kwargs = {}
        if chart.startswith("prolate"):
            kwargs["a"] = 1.3
        if chart == "conical":
            kwargs["k"] = 0.8
        spec = coulomb_spec(
            chart, q=DEMO_CHARGE, alpha=alpha, beta=beta, gamma=gamma, **kwargs
        )
        solution = separate(
            spec, constants, omega_ranges=box, t_range=(-1.0, 1.0)
        )
        points = chart_box_points(spec.system, spec.frame, box, (-1.0, 1.0), samples, seed)
        field = lambda t, x, hint: evaluate_psi(solution, t, x, hint)
        report = se_report(
            field,
            spec,
            [(t, x) for t, x, _ in points],
            hints=[omega for _, _, omega in points],
        )
        for rec in report.records:
            rows.append((chart, rec))
        for t, x, omega in points:
            a0, _ = vector_potential(spec, t, x, omega_hint=omega)
            limit_diff = max(limit_diff, abs(a0 - DEMO_CHARGE / float(np.linalg.norm(x))))
        results[chart] = report.max_relative

    # the shifted chart counts once, whichever sign is worse
    summary = {
        "spherical": results["spherical"],
        "prolate_spheroidal_ii": max(
            results["prolate_ii_plus"], results["prolate_ii_minus"]
        ),
        "parabolic": results["parabolic"],
        "conical": results["conical"],
    }
    payload = {
        "command": "coulomb-demo",
        "provenance": _provenance(None),
        "charge": DEMO_CHARGE,
        "angles": list(DEMO_ANGLES),
        "constants": list(DEMO_CONSTANTS),
        "samples": samples,
        "seed": seed,
        "max_relative": summary,
        "per_chart": results,
        "point_charge_limit_max_abs_diff": limit_diff,
    }
    _write_json(out / "report.json", payload)
    with open(out / "report.csv", "w", encoding="utf-8") as fh:
        fh.write(f"# scenario_sha256=None\n# tool_version={__version__}\n")
        fh.write("chart,index,t,x1,x2,x3,residual,scale,relative\n")
        for chart, r in rows:
            fh.write(
                f"{chart},{r.index},{r.t!r},{r.x[0]!r},{r.x[1]!r},{r.x[2]!r},"
                f"{r.residual!r},{r.scale!r},{r.relative!r}\n"
            )
    for name, value in summary.items():
        print(f"coulomb-demo {name:24s} max relative residual {value:.6e}")
    print(f"coulomb-demo point-charge limit max |eA0 - q/r| = {limit_diff:.3e}")
    worst = max(summary.values())
    return _check_tolerance(worst, args.assert_tol, "coulomb-demo")


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schrodsep",
        description="Separable Schrodinger and Hamilton-Jacobi systems: "
        "build potentials, separate variables, verify residuals.",
    )
    parser.add_argument("--version", action="version", version=f"schrodsep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument(
            "--samples", type=int, default=None, help="override scenario sample count"
        )
        p.add_argument(
            "--assert-tol",
            type=float,
            default=None,
            dest="assert_tol",
            help="exit 2 if the worst relative residual exceeds this",
        )

    p = sub.add_parser("list-systems", help="print the eleven base charts and domains")
    p.set_defaults(func=cmd_list_systems)

    p = sub.add_parser("audit-geometry", help="geometric identity audit for a chart+frame")
    common(p)
    p.set_defaults(func=cmd_audit_geometry)

    p = sub.add_parser("build-potential", help="tabulate A0, A and B on chart samples")
    common(p)
    p.set_defaults(func=cmd_build_potential)

    p = sub.add_parser("separate", help="solve the reduced equations, store the factors")
    common(p)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("verify", help="residual-check a stored separated solution")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hj", help="build a separated action and residual-check it")
    common(p)
    p.set_defaults(func=cmd_hj)

    p = sub.add_parser("coulomb-demo", help="run the point-charge example end to end")
    common(p, scenario=False)
    p.set_defaults(func=cmd_coulomb_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
