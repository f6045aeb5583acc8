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
(``scenario.schema.json``) by this module's interpreter of the JSON Schema
keywords that schema uses, so no validation package is imported; unknown
keys are rejected.  Runs are
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
import operator
import reprlib
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

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
    AUDIT_CHANNELS,
    channel_max,
    chart_box_points,
    csv_rows,
    geometry_audit,
    hj_report,
    report_to_csv,
    report_to_dict,
    se_report,
)

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


#: The keywords of ``scenario.schema.json`` that `_schema_errors` checks, and
#: the annotations it reads past; the tests refuse a schema that uses any
#: other, so no constraint is silently ignored.
SCHEMA_KEYWORDS = frozenset({
    "type", "const", "enum", "required", "properties", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "exclusiveMinimum", "exclusiveMaximum", "oneOf",
    "$ref", "$defs",
})
SCHEMA_ANNOTATIONS = frozenset({"$schema", "title", "description"})

#: The JSON Schema types the scenario schema names: a bool is neither a
#: number nor an integer, and an integral float such as 3.0 is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


@functools.cache
def _schema() -> dict:
    """The shipped scenario schema, read once per process."""
    text = resources.files("schrodsep").joinpath("scenario.schema.json").read_text("utf-8")
    return json.loads(text)


def _same(a, b) -> bool:
    """JSON equality of a value and one of the schema's scalar constants:
    true is not 1, while 1 and 1.0 are equal."""
    return isinstance(a, bool) is isinstance(b, bool) and a == b


def _says(node, text: str) -> str:
    """A message about ``node`` that shows its value abbreviated, so that a
    value nested past the recursion limit prints too."""
    return f"{reprlib.repr(node)} {text}"


#: The bound keywords.  Each fails where jsonschema's own comparison holds,
#: so NaN passes them all and `_check_finite` names it.
_BOUNDS = (
    ("minimum", operator.lt, "is less than the minimum of"),
    ("exclusiveMinimum", operator.le, "is less than or equal to the minimum of"),
    ("exclusiveMaximum", operator.ge, "is greater than or equal to the maximum of"),
)


def _schema_errors(node, schema: dict, where: tuple = ()):
    """Yield ``(location, keyword, message)`` for each way the parsed JSON
    value ``node`` at location ``where`` fails ``schema``, a part of the scenario
    schema, with JSON Schema 2020-12's meaning of each of `SCHEMA_KEYWORDS`
    and jsonschema's wording.  It descends only where the schema does, so
    its depth is the schema's, whatever the document's."""
    if "$ref" in schema:  # a reference into the schema's $defs
        target = _schema()["$defs"][schema["$ref"].removeprefix("#/$defs/")]
        yield from _schema_errors(node, target, where)
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[name](node) for name in names):
            yield where, "type", _says(node, f"is not of type {', '.join(map(repr, names))}")
    if "const" in schema and not _same(node, schema["const"]):
        yield where, "const", f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_same(node, each) for each in schema["enum"]):
        yield where, "enum", _says(node, f"is not one of {schema['enum']!r}")
    if isinstance(node, dict):
        known = schema.get("properties", {})
        extras = [key for key in node if key not in known]
        if schema.get("additionalProperties") is False and extras:
            yield where, "additionalProperties", (
                f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        for key in schema.get("required", ()):
            if key not in node:
                yield where, "required", f"{key!r} is a required property"
        for key, sub in known.items():
            if key in node:
                yield from _schema_errors(node[key], sub, (*where, key))
    if isinstance(node, list):
        if len(node) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            yield where, "minItems", _says(node, short)
        if len(node) > schema.get("maxItems", math.inf):
            yield where, "maxItems", _says(node, "is too long")
        for i, item in enumerate(node if "items" in schema else ()):
            yield from _schema_errors(item, schema["items"], (*where, i))
    if _TYPES["number"](node):
        for keyword, fails, text in _BOUNDS:
            if keyword in schema and fails(node, schema[keyword]):
                yield where, keyword, _says(node, f"{text} {schema[keyword]!r}")
    if "oneOf" in schema:
        failures = [list(_schema_errors(node, branch, where)) for branch in schema["oneOf"]]
        if failures.count([]) > 1:
            yield where, "oneOf", _says(node, "is valid under more than one of the given schemas")
        elif [] not in failures:
            # the one branch whose constants hold, as its "type" does, tells what is wrong
            matched = [errors for errors in failures if all(kw != "const" for _, kw, _ in errors)]
            if len(matched) == 1:
                yield from matched[0]
            else:
                yield where, "oneOf", _says(node, "is not valid under any of the given schemas")


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
    """The scenario document at ``path``, validated and built.  A document
    that is not JSON, fails the schema (the message names an error at the
    shallowest location) or holds a number that is not finite raises
    :class:`ConfigurationError` naming the file; a missing file raises
    :class:`OSError`."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, bad JSON, an over-long integer or nesting past
        # the interpreter's recursion limit
        raise ConfigurationError(f"scenario {path}: not valid JSON ({exc})") from exc
    # the error at the shallowest location; among siblings, the one
    # jsonschema's best_match would pick: the last location, not a oneOf
    error = max(_schema_errors(doc, _schema()), default=None,
                key=lambda e: (-len(e[0]), e[0], e[1] != "oneOf"))
    if error is not None:
        where, _, message = error
        location = "/".join(map(str, where)) or "(top level)"
        raise ConfigurationError(f"scenario {path}: {message} at {location}")

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
        summary = f"{command}: {len(report)} samples, max relative residual "
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
    except (ConfigurationError, TypeError, ValueError, RecursionError) as exc:
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
        rows += [f"{chart},{index},{numbers}\n" for index, _, numbers in csv_rows(report)]
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
        fh.writelines(rows)

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
