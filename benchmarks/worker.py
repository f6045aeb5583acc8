"""One benchmark process: set up, then run a workload's timed pass.

    python3 benchmarks/worker.py --workload NAME --run DIR --seconds S --trace 0|1 [--setup-only]

Set-up is the import of ``schrodsep.cli`` and ``load_scenario`` on every
generated input in ``DIR/inputs``.  The worker then prints ``READY
<import seconds>``; the orchestrator's clock for ``setup_s`` stops on that
line.  It then prints ``PROBE <seconds>``, the reference kernel's time
(``hostspeed.py``) right after set-up.  With ``--setup-only`` it exits
there.  Otherwise it runs whole
rounds of the workload's operations until ``S`` seconds have passed,
checks every output, runs the damaged controls and prints one JSON line.
The environment (``PYTHONPATH``, pinned thread counts) comes from
``run.py`` and passes on to the CLI processes of ``cli_cold``.

With ``--trace 1`` the timed pass runs untraced first, then one more
round runs with the tracer installed; the difference in round wall time
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SE_BOUND = 1e-5  # acceptance criteria 3, 4 and 6
HJ_BOUND = 1e-5  # acceptance criterion 7
AUDIT_BOUND = 1e-9  # criterion 1: orthogonality, stackel, colnorm
HARMONIC_BOUND = 1e-5  # criterion 1: harmonicity
CONTROL_FLOOR = 1e-2  # a damaged solution must read worse than this
CLOSED_FORM_TOL = 1e-12
CONTROL_SAMPLES = 10
SETUP_PROBES = 5


class Checks:
    """Collects violated output properties; any one makes the run incorrect."""

    def __init__(self):
        self.failures: list[str] = []
        self.worst = 0.0

    def bound(self, label: str, value: float, limit: float) -> None:
        self.worst = max(self.worst, value)
        if not value <= limit:
            self.failures.append(f"{label}: {value:.3e} exceeds {limit:g}")

    def require(self, label: str, ok: bool) -> None:
        if not ok:
            self.failures.append(label)


# ---------------------------------------------------------------------------
# in-process operations: each returns (report, what the program built)


def _points(ver, sc):
    pts = ver.chart_box_points(sc.system, sc.frame, sc.omega_ranges, sc.t_range,
                               sc.samples, sc.seed)
    return [(t, x) for t, x, _ in pts], [omega for _, _, omega in pts]


def wave_op(mods, sc):
    cli, sep, ver = mods
    solution = sep.separate(sc.spec, sc.constants, omega_ranges=sc.omega_ranges,
                            t_range=sc.t_range, anchor=sc.anchor,
                            initial_data=sc.initial_data)
    points, hints = _points(ver, sc)
    report = ver.se_report(lambda t, x, h: sep.evaluate_psi(solution, t, x, h),
                           sc.spec, points, hints=hints)
    return report, solution


def hj_op(mods, sc):
    cli, sep, ver = mods
    action = sep.hj_solve(sc.spec, sc.constants, sc.omega_ranges, sc.signs,
                          t_range=sc.t_range, anchor=sc.anchor)
    points, hints = _points(ver, sc)
    report = ver.hj_report(lambda t, x, h: sep.evaluate_action(action, t, x, h),
                           sc.spec, points, hints=hints)
    return report, action


def audit_op(mods, sc):
    cli, sep, ver = mods
    return ver.geometry_audit(sc.system, sc.frame, sc.anchor, sc.samples, sc.seed), None


def check_wave(checks, name, sc, report, _solution):
    checks.require(f"{name}: {len(report.records)} records for {sc.samples} samples",
                   len(report.records) == sc.samples)
    checks.bound(f"{name} SE residual", report.max_relative, SE_BOUND)


def check_hj(checks, name, sc, report, action):
    # numpy is imported late everywhere in this file, so that import_s times
    # the whole import that schrodsep.cli pulls in
    import numpy as np

    checks.require(f"{name}: {len(report.records)} records for {sc.samples} samples",
                   len(report.records) == sc.samples)
    checks.bound(f"{name} HJ residual", report.max_relative, HJ_BOUND)
    if name == "free_cartesian":
        # phi_a = sign_a sqrt(lambda_a) (omega - lo) exactly
        worst = 0.0
        for term, lam, sign in zip(action.terms, sc.constants.as_tuple(), sc.signs):
            exact = sign * math.sqrt(lam) * (term.nodes - term.nodes[0])
            worst = max(worst, float(np.max(np.abs(term.values - exact))),
                        float(np.max(np.abs(term.slopes - sign * math.sqrt(lam)))))
        if not worst <= CLOSED_FORM_TOL:
            checks.failures.append(f"free cartesian action off its closed form by {worst:.2e}")


def check_audit(checks, name, sc, report, _none):
    by_channel = {}
    for r in report.records:
        by_channel[r.channel] = max(by_channel.get(r.channel, 0.0), r.relative)
    for channel in ("orthogonality", "stackel", "colnorm"):
        n = sum(1 for r in report.records if r.channel == channel)
        checks.require(f"{name}: {channel} on {n} of {sc.samples} samples", n == sc.samples)
        checks.bound(f"{name} {channel}", by_channel.get(channel, 0.0), AUDIT_BOUND)
    checks.bound(f"{name} harmonicity", by_channel.get("harmonicity", 0.0), HARMONIC_BOUND)


IN_PROCESS = {
    "wave_verify": (wave_op, check_wave),
    "hj_action": (hj_op, check_hj),
    "chart_audit": (audit_op, check_audit),
}


def wave_controls(mods, scenarios, checks):
    """A solution.json-style tamper (lambda1 + 10 % in phi0) and the
    no-envelope control of criterion 4 must both read > 1e-2."""
    cli, sep, ver = mods
    sc = scenarios["magnetic_spherical_rotating"]
    report, solution = wave_op(mods, sc)
    lam = list(sc.constants.as_tuple())
    lam[0] *= 1.1
    damaged = sep.SeparationConstants(*lam)
    tampered = sep.SeparatedSolution(
        sc.spec, damaged, sep.solve_phi0(sc.spec, damaged, sc.t_range, sc.anchor),
        solution.factors, solution.q_kind)
    points, hints = _points(ver, sc)
    bad = ver.se_report(lambda t, x, h: sep.evaluate_psi(tampered, t, x, h), sc.spec,
                        points[:CONTROL_SAMPLES], hints=hints[:CONTROL_SAMPLES])
    checks.require(f"lambda1+10% control reads {bad.max_relative:.2e}, not > {CONTROL_FLOOR}",
                   bad.max_relative > CONTROL_FLOOR)

    sc = scenarios["electrostatic_cartesian_expanding"]
    report, solution = wave_op(mods, sc)
    points, hints = _points(ver, sc)
    stripped = lambda t, x, h: sep.evaluate_psi(solution, t, x, h) / abs(solution.phi0(t))  # noqa: E731
    bare = ver.se_report(stripped, sc.spec, points[:CONTROL_SAMPLES],
                         hints=hints[:CONTROL_SAMPLES])
    checks.require(f"no-envelope control reads {bare.max_relative:.2e}, not > {CONTROL_FLOOR}",
                   bare.max_relative > CONTROL_FLOOR)
    return {"lambda1_plus_10pct": bad.max_relative, "no_envelope": bare.max_relative}


def hj_controls(mods, scenarios, checks):
    """The coulomb action with lambda1 + 10 % in its time term must read > 1e-2."""
    from dataclasses import replace

    cli, sep, ver = mods
    sc = scenarios["coulomb_spherical"]
    report, action = hj_op(mods, sc)
    lam = list(sc.constants.as_tuple())
    lam[0] *= 1.1
    damaged = sep.SeparationConstants(*lam)
    tampered = replace(action, phi0=replace(action.phi0, constants=damaged))
    points, hints = _points(ver, sc)
    bad = ver.hj_report(lambda t, x, h: sep.evaluate_action(tampered, t, x, h), sc.spec,
                        points, hints=hints)
    checks.require(f"HJ lambda1+10% control reads {bad.max_relative:.2e}, not > {CONTROL_FLOOR}",
                   bad.max_relative > CONTROL_FLOOR)
    return {"lambda1_plus_10pct": bad.max_relative}


# ---------------------------------------------------------------------------
# cli_cold: each operation is one CLI process


def _cli_argv(args: list[str], trace_file: Path | None) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "schrodsep", *args]
    return [sys.executable, str(HERE / "launcher.py"), str(trace_file), *args]


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_cli(checks: Checks, name: str, args: list[str], proc, scenarios) -> int:
    """Checks one CLI invocation's outputs; returns its checked-sample count."""
    out = Path(args[args.index("--out") + 1]) if "--out" in args else None
    command = args[0]
    if command == "list-systems":
        lines = proc.stdout.strip().splitlines()
        checks.require(f"list-systems printed {len(lines)} charts, not 11", len(lines) == 11)
        return 0
    if command == "audit-geometry":
        report = _read_json(out / "report.json")
        worst = report["channel_max"]
        for channel in ("orthogonality", "stackel", "colnorm"):
            checks.bound(f"audit-geometry {channel}", worst[channel], AUDIT_BOUND)
        checks.bound("audit-geometry harmonicity", worst["harmonicity"], HARMONIC_BOUND)
        return len(report["report"]["records"])
    if command == "build-potential":
        rows = _csv_rows(out / "report.csv")
        want = scenarios["magnetic"]["samples"]
        checks.require(f"build-potential wrote {len(rows)} rows, not {want}", len(rows) == want)
        finite = all(len(r) == 11 and all(math.isfinite(float(v)) for v in r) for r in rows)
        checks.require("build-potential rows are 11 finite numbers", finite)
        return len(rows)
    if command == "separate":
        present = all((out / f).is_file() for f in
                      ("phi_1.csv", "phi_2.csv", "phi_3.csv", "solution.json"))
        checks.require(f"{name}: factor tables and solution.json written", present)
        return 0
    if command in ("verify", "hj"):
        report = _read_json(out / "report.json")
        label = name.split(":")[-1]
        want = scenarios[label]["samples"]
        count = report["report"]["summary"]["count"]
        checks.require(f"{name}: {count} records for {want} samples", count == want)
        checks.bound(f"{name} residual", report["report"]["summary"]["max_relative"],
                     HJ_BOUND if command == "hj" else SE_BOUND)
        return count
    if command == "coulomb-demo":
        report = _read_json(out / "report.json")
        limit = report["point_charge_limit_max_abs_diff"]
        checks.require(f"coulomb-demo max |eA0 - q/r| = {limit!r}, not 0", limit == 0.0)
        for chart, value in report["per_chart"].items():
            checks.bound(f"coulomb-demo {chart}", value, SE_BOUND)
        return len(_csv_rows(out / "report.csv"))
    raise ValueError(f"no check for CLI command {command!r}")


def cli_round(commands, docs, scenario_dir: Path, out_dir: Path, checks, times, probes,
              counted, trace_dir=None) -> None:
    import hostspeed

    for i, (name, template) in enumerate(commands):
        args = [a.replace("{S}", str(scenario_dir)).replace("{O}", str(out_dir))
                for a in template]
        trace_file = None if trace_dir is None else trace_dir / f"{i:02d}-{args[0]}.json"
        t0 = time.perf_counter()
        proc = subprocess.run(_cli_argv(args, trace_file), capture_output=True,
                              text=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
        probes.append(hostspeed.kernel_s())
        counted["ops"] += 1
        if proc.returncode != 0:  # a failed operation is counted, not fatal
            counted["failed"] += 1
            sys.stderr.write(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            continue
        counted["samples"] += check_cli(checks, name, args, proc, docs)


def cli_control(scenario_dir: Path, out_dir: Path, checks) -> dict:
    """verify on a solution.json whose lambda1 is raised by 10 % must read > 1e-2."""
    damaged = out_dir / "damaged"
    if damaged.exists():
        shutil.rmtree(damaged)
    shutil.copytree(out_dir / "magnetic", damaged)
    solution = _read_json(damaged / "solution.json")
    solution["constants"][0] *= 1.1
    with open(damaged / "solution.json", "w", encoding="utf-8") as fh:
        json.dump(solution, fh)
    args = ["verify", "--scenario", str(scenario_dir / "magnetic.json"), "--out", str(damaged)]
    proc = subprocess.run(_cli_argv(args, None), capture_output=True,
                          text=True, cwd=ROOT, timeout=120)
    checks.require(f"damaged verify exit code {proc.returncode}", proc.returncode == 0)
    value = _read_json(damaged / "report.json")["report"]["summary"]["max_relative"]
    checks.require(f"lambda1+10% solution.json reads {value:.2e}, not > {CONTROL_FLOOR}",
                   value > CONTROL_FLOOR)
    return {"lambda1_plus_10pct": value}


# ---------------------------------------------------------------------------
# the pass


def timed_rounds(run_round, seconds: float):
    """Whole rounds, at least one, until ``seconds`` have passed; returns
    round wall times."""
    start = time.perf_counter()
    walls = []
    while not walls or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        run_round()
        walls.append(time.perf_counter() - t0)
    return walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--run", required=True, type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    manifest = _read_json(args.run / "inputs" / "manifest.json")
    tracer = None
    t0 = time.perf_counter()
    import schrodsep.cli as cli
    import schrodsep.separate as sep
    import schrodsep.verify as ver

    import_s = time.perf_counter() - t0
    if args.trace and not args.setup_only:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    scenarios = {name: cli.load_scenario(args.run / "inputs" / f"{name}.json")
                 for name in manifest["order"]}
    if tracer is not None:
        tracer.uninstall()
    print(f"READY {import_s!r}", flush=True)
    import hostspeed

    # the host's speed right after set-up, by which run.py scales setup_s
    probe = statistics.median(hostspeed.kernel_s() for _ in range(SETUP_PROBES))
    print(f"PROBE {probe!r}", flush=True)
    if args.setup_only:
        return 0

    mods = (cli, sep, ver)
    checks = Checks()
    times: list[float] = []
    # the reference kernel's time right after each operation
    probes: list[float] = []
    counted = {"samples": 0, "ops": 0, "failed": 0}
    workload = args.workload
    out_dir = args.run / "out"
    trace_dir = args.run / "trace"

    if workload == "cli_cold":
        docs = {n: _read_json(args.run / "inputs" / f"{n}.json") for n in manifest["order"]}

        def run_round(traced=False):
            cli_round(manifest["commands"], docs, args.run / "inputs", out_dir, checks, times,
                      probes, counted, trace_dir if traced else None)
    else:
        op, check = IN_PROCESS[workload]
        reference: dict[str, tuple] = {}

        def run_round(traced=False):
            for name in manifest["order"]:
                sc = scenarios[name]
                counted["ops"] += 1
                t0 = time.perf_counter()
                try:
                    report, product = op(mods, sc)
                except Exception as exc:  # a failed operation is counted, not fatal
                    report = None
                    print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                times.append(time.perf_counter() - t0)
                probes.append(hostspeed.kernel_s())
                if report is None:
                    counted["failed"] += 1
                    continue
                counted["samples"] += len(report.records)
                check(checks, name, sc, report, product)
                # rounds repeat the same inputs, so results repeat bit for bit
                values = tuple(r.relative for r in report.records)
                first = reference.setdefault(name, values)
                checks.require(f"{name}: results differ between rounds", first == values)

    walls = timed_rounds(run_round, args.seconds)
    pass_wall = sum(walls)
    pass_times, pass_probes = list(times), list(probes)
    samples = counted["samples"]
    if workload == "cli_cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if tracer is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.install()
        t0 = time.perf_counter()
        try:
            run_round(traced=True)
        finally:
            traced_wall = time.perf_counter() - t0
            tracer.uninstall()
        tracer.write(trace_dir / "worker-spans.jsonl")
        summaries = [tracer.summary()]
        import_times = []
        for path in sorted(trace_dir.glob("*.json")):
            launched = _read_json(path)
            import_times.append(launched.pop("import_s"))
            summaries.append(launched)
        layers = {
            "summaries": summaries,
            "launcher_import_s": import_times,
            "overhead_s": traced_wall - statistics.median(walls),
        }

    if workload == "cli_cold":
        controls = cli_control(args.run / "inputs", out_dir, checks)
    elif workload == "wave_verify":
        controls = wave_controls(mods, scenarios, checks)
    elif workload == "hj_action":
        controls = hj_controls(mods, scenarios, checks)
    else:
        controls = {}

    result = {
        "attempted": counted["ops"],
        "failed": counted["failed"],
        "failures": checks.failures,
        "op_times": pass_times,
        "probe_times": pass_probes,
        "rounds": len(walls),
        "pass_wall": pass_wall,
        "samples": samples,
        "worst": checks.worst,
        "peak_rss_mb": rss_kb / 1024.0,
        "controls": controls,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
