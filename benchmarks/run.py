"""schrodsep benchmark: one command, seeded workloads, checked outputs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is used from ``src/`` as
checked out; its bytecode is compiled first.  The run generates its
inputs from the seed under ``.bench_out/<workload>/``, starts the set-up
``SETUPS`` times in fresh interpreters (``setup_s`` is their median, each
scaled to the reference host speed of ``hostspeed.py``), lets
the last one run the timed pass and prints one JSON object as the last
line of standard output.  With ``--trace 0`` it holds the end-to-end
metrics; with ``--trace 1`` the per-layer ones from a traced round.  See
``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUPS = 3
#: Everything must end well inside the 180 s a run may take.
DEADLINE_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build(deadline: float) -> None:
    """Byte-compile the package so no timed interpreter compiles it."""
    if not (ROOT / "src" / "schrodsep" / "cli.py").is_file():
        raise RunError(f"no schrodsep sources under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "schrodsep"), str(HERE)],
        env=child_env(), capture_output=True, text=True, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise RunError(f"compileall failed:\n{proc.stdout}{proc.stderr}")


def write_inputs(workload: str, seed: int, run_dir: Path) -> None:
    generated = workloads.generate(workload, seed)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    for name, doc in generated["scenarios"].items():
        with open(inputs / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    manifest = {"order": list(generated["scenarios"]), "commands": generated.get("commands")}
    with open(inputs / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def start_worker(args, run_dir: Path, deadline: float, setup_only: bool):
    """Run one worker; returns (set-up seconds, import seconds, reference-kernel
    seconds right after set-up, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--run", str(run_dir), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # its own process group, so a kill at the deadline also ends the CLI
    # processes a cli_cold worker has started
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (proc.pid,))
    timer.start()
    try:
        setup_s = import_s = probe = None
        lines = []
        for line in proc.stdout:
            if setup_s is None and line.startswith("READY "):
                setup_s = time.perf_counter() - t0
                import_s = float(line.split()[1])
            elif probe is None and line.startswith("PROBE "):
                probe = float(line.split()[1])
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0 or setup_s is None or probe is None:
        raise RunError(f"worker exited with code {code} (timed out or failed)")
    if setup_only:
        return setup_s, import_s, probe, None
    if not lines:
        raise RunError("worker printed no result")
    return setup_s, import_s, probe, json.loads(lines[-1])


def scaled_times(result: dict) -> list[list[float]]:
    """The pass's operation times, round by round, each scaled to the
    reference host speed by the reference-kernel time measured right after
    it (``hostspeed.py``)."""
    import hostspeed

    scaled = [t * hostspeed.REFERENCE_S / probe
              for t, probe in zip(result["op_times"], result["probe_times"], strict=True)]
    per_round = len(scaled) // result["rounds"]
    return [scaled[start:start + per_round] for start in range(0, len(scaled), per_round)]


def op_p50(rounds: list[list[float]]) -> float:
    """The median time of each operation of a round over the run's rounds,
    averaged over the round's operations.

    A round mixes inputs of different cost; the median of all operation
    times together lands on whichever input sits in the middle of the cost
    order, and that input changes with the seed and the host's speed.
    Taking each input's median first weighs every input once."""
    return statistics.fmean(statistics.median(column) for column in zip(*rounds))


def end_to_end(setups: list[float], setup_probes: list[float], result: dict) -> dict:
    import hostspeed

    worst = max(result["worst"], 1e-300)
    rounds = scaled_times(result)
    busy = sum(map(sum, rounds))
    setup_s = statistics.median(s * hostspeed.REFERENCE_S / probe
                                for s, probe in zip(setups, setup_probes, strict=True))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_s": {"value": op_p50(rounds), "unit": "s"},
        "samples_per_s": {"value": result["samples"] / busy, "unit": "1/s"},
        "worst_residual_digits": {"value": -math.log10(worst), "unit": "digits"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(imports: list[float], result: dict) -> tuple[dict, list[str]]:
    import tracer

    layers = result["layers"]
    merged = tracer.merge(layers["summaries"])
    values = tracer.layer_metrics(merged)
    values["cli.import_s"] = statistics.median(imports + layers["launcher_import_s"])
    values["trace.overhead_s"] = layers["overhead_s"]
    units = {name: unit for name, unit in PER_LAYER_UNITS}
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER_UNITS}
    return metrics, tracer.identities(merged)


def _per_layer_units() -> list[tuple[str, str]]:
    import tracer

    out = [("cli.import_s", "s")]
    for metric in tracer.SPANS:
        if metric == "cli.main":
            continue
        if metric == "verify.geometry_audit":
            out += [(f"{metric}.calls", "count"), (f"{metric}.us_per_sample", "us")]
            continue
        out += [(f"{metric}.calls", "count"), (f"{metric}.us_per_call", "us")]
    out += [
        ("elliptic.jacobi.cache_hit_ratio", "ratio"),
        ("frame.TimeProfile.calls", "count"),
        ("separate.quad.calls", "count"),
        ("separate.solve_ivp.nfev", "count"),
        ("verify.field_evals_per_sample", "count"),
    ]
    out += [(f"{module}.busy_s", "s") for module in tracer.MODULES]
    out.append(("trace.overhead_s", "s"))
    return out


PER_LAYER_UNITS = _per_layer_units()


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    build(deadline)
    run_dir = ROOT / ".bench_out" / args.workload
    if run_dir.exists():
        shutil.rmtree(run_dir)
    write_inputs(args.workload, args.seed, run_dir)

    setups, imports, setup_probes = [], [], []
    for i in range(SETUPS):
        setup_s, import_s, probe, result = start_worker(args, run_dir, deadline,
                                                        setup_only=i < SETUPS - 1)
        setups.append(setup_s)
        imports.append(import_s)
        setup_probes.append(probe)

    failures = list(result["failures"])
    if args.trace:
        metrics, broken = per_layer(imports, result)
        failures += [f"call-count identity broken: {rule}" for rule in broken]
    else:
        metrics = end_to_end(setups, setup_probes, result)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "setups": setups, "setup_probes": setup_probes,
                   "worker": result}, fh, indent=1)
    return {
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="schrodsep benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    try:
        out = run(args)
    except (RunError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
