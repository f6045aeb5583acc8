"""The benchmark's per-layer tracer must still find what it wraps.

``benchmarks/tracer.py`` patches public functions and the ``__call__`` of
the temporal factors by name, and counts the ``quad`` and ``solve_ivp``
calls made from ``separate``.  A refactor that renames one of them, or
binds one where the tracer cannot reach it, breaks ``--trace 1``; this
test shows it in the unit suite.
"""

import importlib.util
import sys
from pathlib import Path

import schrodsep.separate as sep
from schrodsep.coords import make_system
from schrodsep.frame import identity_frame
from schrodsep.potential import magnetic_spec

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("schrodsep_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a schrodsep module or in a wrapped class."""
    owners = [m for k, m in sys.modules.items() if k.startswith("schrodsep.") and m is not None]
    owners += [sep.TemporalFactor, sep.HJTemporal, sep.AxisInterpolant]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_wraps_and_restores_every_binding():
    tracer = _load_tracer().Tracer()
    before = _bindings()
    spec = magnetic_spec(make_system("cartesian"), identity_frame("complete"))
    constants = sep.SeparationConstants(1.0, 0.5, 0.25)
    tracer.install()
    try:
        solution = sep.separate(spec, constants, omega_ranges=((0.0, 0.1),) * 3,
                                t_range=(-1.0, 1.0))
        sep.evaluate_psi(solution, 0.5, (0.05, 0.05, 0.05))
        sep.hj_solve(spec, constants, ((0.0, 0.1),) * 3, t_range=(-1.0, 1.0)).phi0(0.5)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert [key for key, value in before.items() if after[key] is not value] == []

    s = tracer.summary()
    assert s["calls"]["separate.solve_phi_a"] == 3
    assert s["calls"]["separate.phi0"] == 1
    assert s["calls"]["separate.hj_phi0"] == 1
    assert s["calls"]["separate.evaluate_psi"] == 1
    assert s["calls"]["coords.invert"] == 1
    assert s["calls"]["separate.AxisInterpolant.evaluate"] == 3
    # one coefficient, so one Stackel row, per right-hand side evaluation
    assert s["calls"]["stackel.stackel_row"] >= s["tallies"]["solve_ivp.nfev"] > 0
    assert s["counts"]["separate.solve_ivp"] == 3
    # the time tables of both phi0 pass their Lobatto check everywhere, so
    # the adaptive fallback never runs
    assert s["counts"]["separate.quad"] == 0
