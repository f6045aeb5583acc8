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
failure (including ``--assert-tol`` violations and arithmetic overflow),
3 I/O problem.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .coords import CoordinateSystem, SystemId, base_system_ids, make_system
from .errors import ConfigurationError, NumericError, check_range
from .frame import FrameSpec, TimeProfile, constant, horner, make_frame, polynomial, sinusoid
from .potential import (
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

if TYPE_CHECKING:
    import jsonschema

AUDIT_CHANNELS = ("orthogonality", "stackel", "colnorm", "harmonicity")

#: Largest sample count a run takes: every subcommand draws its points into
#: memory before it writes anything.
MAX_SAMPLES = 10**5

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


@functools.cache
def _validator() -> jsonschema.Draft202012Validator:
    """The scenario schema's validator, built once per process.  jsonschema
    is imported here, so the commands that load no scenario never pay for it."""
    import jsonschema

    text = resources.files("schrodsep").joinpath("scenario.schema.json").read_text("utf-8")
    return jsonschema.Draft202012Validator(json.loads(text))


def _check_finite(node, path, where: str = "") -> None:
    """:class:`ConfigurationError` at the first number in the parsed scenario
    ``node`` that is not finite or, as an integer, does not fit a float."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            _check_finite(value, path, f"{where}/{key}" if where else str(key))
        return
    try:
        finite = not isinstance(node, (int, float)) or math.isfinite(node)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigurationError(f"scenario {path}: {where} must be finite and fit a float")


def _check_controls(samples: int, seed: int, assert_tol: float | None) -> None:
    """:class:`ConfigurationError` unless 1 <= samples <= MAX_SAMPLES,
    seed >= 0 and assert_tol is None or finite and positive, from a
    scenario or a flag."""
    if samples < 1:
        raise ConfigurationError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ConfigurationError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    if assert_tol is not None and not 0.0 < assert_tol < math.inf:
        raise ConfigurationError(f"assert_tol must be finite and positive, got {assert_tol}")


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


def _chart_parameters(doc: dict) -> dict:
    """The chart parameters a and k the scenario sets."""
    return {key: doc["system"][key] for key in ("a", "k") if key in doc["system"]}


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
        angles = {name: _time_profile(node) for name, node in angle_nodes.items()}
        spec = coulomb_spec(
            pot["coulomb_system"], q=pot["q"], e_charge=e_charge, **angles,
            **_chart_parameters(doc),
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
    except ValueError as exc:  # undecodable bytes, bad JSON or an over-long integer
        raise ConfigurationError(f"scenario {path}: not valid JSON ({exc})") from exc
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(doc))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "(top level)"
        raise ConfigurationError(f"scenario {path}: {error.message} at {where}")

    ranges = tuple(
        check_range("omega range", lo, hi, f" on axis {a} of scenario {path}")
        for a, (lo, hi) in enumerate(doc["omega_ranges"], start=1)
    )
    t_range = check_range("time range", *doc.get("t_range", (-2.0, 2.0)), f" of scenario {path}")
    _check_finite(doc, path)
    system = make_system(doc["system"]["id"], **_chart_parameters(doc))
    profiles = {name: _time_profile(p) for name, p in doc["frame"].get("profiles", {}).items()}
    frame = make_frame(doc["frame"]["class"], **profiles)
    spec = _build_spec(doc, system, frame)
    constants = SeparationConstants(*doc["constants"])
    anchor = float(doc.get("anchor", 0.0))
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


# ---------------------------------------------------------------------------
# Artifact helpers


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_artifacts(
    out: Path, command: str, digest: str | None, name: str, fields: dict, csv_body=None
) -> None:
    """Write ``fields`` to the JSON file ``out/name``, headed by ``command``
    and the provenance (scenario SHA-256 and tool version).  Given
    ``csv_body(fh)``, first write report.csv: the provenance as two comment
    lines, then what ``csv_body`` writes."""
    if csv_body is not None:
        with open(out / "report.csv", "w", encoding="utf-8") as fh:
            fh.write(f"# scenario_sha256={digest}\n# tool_version={__version__}\n")
            csv_body(fh)
    payload = {
        "command": command,
        "provenance": {"scenario_sha256": digest, "tool_version": __version__},
        **fields,
    }
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_factors(out: Path, factors) -> None:
    """Store the three axis tables as phi_1.csv, phi_2.csv and phi_3.csv."""
    for a, factor in enumerate(factors, start=1):
        with open(out / f"phi_{a}.csv", "w", encoding="utf-8") as fh:
            write_interpolant_csv(factor, fh)


def _box_report(report, evaluate, solved, spec: PotentialSpec, ranges, t_range, samples, seed):
    """Residual report of ``evaluate(solved, t, x, hint)`` on random points
    of the chart box, and those (t, x, omega) points."""
    points = chart_box_points(spec.system, spec.frame, ranges, t_range, samples, seed)
    field = lambda t, x, hint: evaluate(solved, t, x, hint)
    hints = [omega for _, _, omega in points]
    return report(field, spec, [(t, x) for t, x, _ in points], hints=hints), points


def _write_residuals(
    out: Path, sc: Scenario, command: str, fields: dict, report, summary: str | None = None
) -> int:
    """Store a residual report with ``fields`` in report.json and report.csv,
    print ``summary`` (by default the sample count and the worst residual)
    and return the ``--assert-tol`` exit code."""
    fields = {**fields, "report": report_to_dict(report)}
    table = lambda fh: report_to_csv(report, fh)
    _write_artifacts(out, command, sc.digest, "report.json", fields, table)
    if summary is None:
        summary = f"{command}: {len(report.records)} samples, max relative residual "
        summary += f"{report.max_relative:.6e}"
    print(summary)
    return _check_tolerance(report.max_relative, sc.assert_tol, command)


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


def cmd_audit_geometry(sc: Scenario, out: Path) -> int:
    report = geometry_audit(sc.system, sc.frame, sc.anchor, sc.samples, sc.seed)
    worst = {ch: channel_max(report, ch) for ch in AUDIT_CHANNELS}
    lines = [f"audit {ch:13s} max violation {worst[ch]:.6e}" for ch in AUDIT_CHANNELS]
    fields = {"channel_max": worst}
    return _write_residuals(out, sc, "audit-geometry", fields, report, "\n".join(lines))


def cmd_build_potential(sc: Scenario, out: Path) -> int:
    points = chart_box_points(
        sc.system, sc.frame, sc.omega_ranges, sc.t_range, sc.samples, sc.seed
    )

    def table(fh) -> None:
        fh.write("t,x1,x2,x3,a0,a1,a2,a3,b1,b2,b3\n")
        for t, x, omega in points:
            a0, avec = vector_potential(sc.spec, t, x, omega_hint=omega)
            b = magnetic_field(sc.spec, t)
            row = [t, x[0], x[1], x[2], a0, avec[0], avec[1], avec[2], b[0], b[1], b[2]]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

    b_anchor = magnetic_field(sc.spec, sc.anchor)
    fields = {
        "kind": sc.spec.kind.value,
        "samples": sc.samples,
        "field_at_anchor": [float(v) for v in b_anchor],
        "divergence_at_anchor": float(vector_divergence(sc.spec, sc.anchor)),
    }
    _write_artifacts(out, "build-potential", sc.digest, "report.json", fields, table)
    print(
        f"build-potential: {sc.samples} samples, B(anchor) = "
        f"({b_anchor[0]:.6g}, {b_anchor[1]:.6g}, {b_anchor[2]:.6g})"
    )
    return 0


def cmd_separate(sc: Scenario, out: Path) -> int:
    solution = separate(
        sc.spec,
        sc.constants,
        omega_ranges=sc.omega_ranges,
        t_range=sc.t_range,
        anchor=sc.anchor,
        initial_data=sc.initial_data,
    )
    _write_factors(out, solution.factors)
    probes = np.linspace(sc.t_range[0], sc.t_range[1], 5)
    fields = {
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
    _write_artifacts(out, "separate", sc.digest, "solution.json", fields)
    print(f"separate: wrote phi_1.csv phi_2.csv phi_3.csv solution.json to {out}")
    return 0


def _load_solution(sc: Scenario, out: Path) -> SeparatedSolution:
    """The solution ``separate`` stored in ``out``; damaged or incomplete
    content raises :class:`ConfigurationError` naming the file."""
    path = out / "solution.json"
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        constants = SeparationConstants(*stored["constants"])
        t_lo, t_hi = stored["t_range"]
        phi0 = solve_phi0(sc.spec, constants, (t_lo, t_hi), float(stored["anchor"]))
        q_kind = QKind(stored["q_kind"])
        factors = []
        for a in (1, 2, 3):
            path = out / f"phi_{a}.csv"
            with open(path, encoding="utf-8") as fh:
                factors.append(read_interpolant_csv(fh, a))
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing field {exc}") from exc
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return SeparatedSolution(sc.spec, constants, phi0, tuple(factors), q_kind)


def cmd_verify(sc: Scenario, out: Path) -> int:
    solution = _load_solution(sc, out)
    t_range = (solution.phi0.t_lo, solution.phi0.t_hi)
    report, _ = _box_report(
        se_report, evaluate_psi, solution, sc.spec, sc.omega_ranges, t_range, sc.samples, sc.seed
    )
    constants = list(solution.constants.as_tuple())
    return _write_residuals(out, sc, "verify", {"constants": constants}, report)


def cmd_hj(sc: Scenario, out: Path) -> int:
    action = hj_solve(
        sc.spec,
        sc.constants,
        sc.omega_ranges,
        sc.signs,
        t_range=sc.t_range,
        anchor=sc.anchor,
    )
    _write_factors(out, action.terms)
    report, _ = _box_report(
        hj_report, evaluate_action, action, sc.spec, sc.omega_ranges, sc.t_range, sc.samples,
        sc.seed,
    )
    fields = {"constants": list(sc.constants.as_tuple()), "signs": list(sc.signs)}
    return _write_residuals(out, sc, "hj", fields, report)


def cmd_coulomb_demo(args: argparse.Namespace) -> int:
    samples = args.samples if args.samples is not None else 12
    seed = args.seed if args.seed is not None else 7
    _check_controls(samples, seed, args.assert_tol)
    out = _out_dir(args.out)
    alpha, beta, gamma = (constant(v) for v in DEMO_ANGLES)
    constants = SeparationConstants(*DEMO_CONSTANTS)

    results = {}
    limit_diff = 0.0
    rows = []
    for chart, box in DEMO_BOXES.items():
        # coulomb_spec takes a and k only where the chart uses them
        spec = coulomb_spec(
            chart, q=DEMO_CHARGE, alpha=alpha, beta=beta, gamma=gamma, a=1.3, k=0.8
        )
        solution = separate(spec, constants, omega_ranges=box, t_range=(-1.0, 1.0))
        report, points = _box_report(
            se_report, evaluate_psi, solution, spec, box, (-1.0, 1.0), samples, seed
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

    def table(fh) -> None:
        fh.write("chart,index,t,x1,x2,x3,residual,scale,relative\n")
        for chart, r in rows:
            fh.write(
                f"{chart},{r.index},{r.t!r},{r.x[0]!r},{r.x[1]!r},{r.x[2]!r},"
                f"{r.residual!r},{r.scale!r},{r.relative!r}\n"
            )

    fields = {
        "charge": DEMO_CHARGE,
        "angles": list(DEMO_ANGLES),
        "constants": list(DEMO_CONSTANTS),
        "samples": samples,
        "seed": seed,
        "max_relative": summary,
        "per_chart": results,
        "point_charge_limit_max_abs_diff": limit_diff,
    }
    _write_artifacts(out, "coulomb-demo", None, "report.json", fields, table)
    for name, value in summary.items():
        print(f"coulomb-demo {name:24s} max relative residual {value:.6e}")
    print(f"coulomb-demo point-charge limit max |eA0 - q/r| = {limit_diff:.3e}")
    worst = max(summary.values())
    return _check_tolerance(worst, args.assert_tol, "coulomb-demo")


# ---------------------------------------------------------------------------
# Parser and entry point

_RUN_FLAGS = (
    ("--out", {"default": ".", "help": "output directory (created if missing)"}),
    ("--seed", {"type": int, "help": "override scenario seed"}),
    ("--samples", {"type": int, "help": "override scenario sample count"}),
    ("--assert-tol", {"type": float, "help": "exit 2 if the worst relative residual exceeds this"}),
)
_SCENARIO_FLAGS = (("--scenario", {"required": True, "help": "scenario JSON path"}), *_RUN_FLAGS)

#: (name, handler, help, flags) of every subcommand.  ``main`` loads the
#: scenario of a command with ``--scenario`` and calls its handler with the
#: scenario and the output directory; other handlers take the parsed flags.
_COMMANDS = (
    ("list-systems", cmd_list_systems, "print the eleven base charts and domains", ()),
    ("audit-geometry", cmd_audit_geometry, "geometric identity audit for a chart+frame",
     _SCENARIO_FLAGS),
    ("build-potential", cmd_build_potential, "tabulate A0, A and B on chart samples",
     _SCENARIO_FLAGS),
    ("separate", cmd_separate, "solve the reduced equations, store the factors", _SCENARIO_FLAGS),
    ("verify", cmd_verify, "residual-check a stored separated solution", _SCENARIO_FLAGS),
    ("hj", cmd_hj, "build a separated action and residual-check it", _SCENARIO_FLAGS),
    ("coulomb-demo", cmd_coulomb_demo, "run the point-charge example end to end", _RUN_FLAGS),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schrodsep",
        description="Separable Schrodinger and Hamilton-Jacobi systems: "
        "build potentials, separate variables, verify residuals.",
    )
    parser.add_argument("--version", action="version", version=f"schrodsep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "scenario" not in args:
            return args.func(args)
        sc = load_scenario(args.scenario)
        flags = ("samples", "seed", "assert_tol")
        sc = replace(sc, **{k: getattr(args, k) for k in flags if getattr(args, k) is not None})
        _check_controls(sc.samples, sc.seed, sc.assert_tol)
        return args.func(sc, _out_dir(args.out))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ArithmeticError) as exc:  # overflow on extreme finite input too
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
