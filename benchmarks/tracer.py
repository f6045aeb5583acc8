"""Per-layer tracing for the schrodsep benchmark, installed from outside.

The program carries no instrumentation.  ``Tracer.install`` replaces each
public function named in ``SPANS`` and ``COUNTS`` with a wrapper in every
``schrodsep`` module namespace that holds it (``invert`` is bound in
``coords``, ``separate``, ``verify`` and ``potential``), and
``Tracer.uninstall`` puts the originals back, so timed runs execute the
unwrapped program.

A span wrapper records (name, start, end, parent) into flat arrays kept
in memory; ``write`` stores them at the end.  A module's busy time is the
self time of its spans: each span's duration minus the time its child
spans cover.  Work in untraced helpers, numpy and scipy counts towards
the nearest enclosing span.  Count-only wrappers (``TimeProfile`` calls,
the ``quad`` and ``solve_ivp`` calls made from ``separate``) add no span,
because they run thousands of times per sample.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

MODULES = ("cli", "elliptic", "coords", "frame", "stackel", "potential", "separate", "verify")

#: metric prefix -> (module, attribute path) of the wrapped callable.
SPANS = {
    "cli.main": ("cli", "main"),
    "cli.load_scenario": ("cli", "load_scenario"),
    "elliptic.jacobi": ("elliptic", "jacobi"),
    "coords.invert": ("coords", "invert"),
    "coords.forward": ("coords", "forward"),
    "coords.jacobian": ("coords", "jacobian"),
    "frame.embed": ("frame", "embed"),
    "frame.unembed": ("frame", "unembed"),
    "frame.rotation_matrix": ("frame", "rotation_matrix"),
    "frame.omega_gradients": ("frame", "omega_gradients"),
    "stackel.stackel_row": ("stackel", "stackel_row"),
    "stackel.t_functions": ("stackel", "t_functions"),
    "stackel.metric_r_squared": ("stackel", "metric_r_squared"),
    "potential.vector_potential": ("potential", "vector_potential"),
    "potential.t0_profile": ("potential", "t0_profile"),
    "potential.phase_factor_S": ("potential", "phase_factor_S"),
    "separate.phi0": ("separate", "TemporalFactor.__call__"),
    "separate.hj_solve": ("separate", "hj_solve"),
    "separate.hj_phi0": ("separate", "HJTemporal.__call__"),
    "separate.solve_phi_a": ("separate", "solve_phi_a"),
    "separate.AxisInterpolant.evaluate": ("separate", "AxisInterpolant.evaluate"),
    "separate.evaluate_psi": ("separate", "evaluate_psi"),
    "separate.evaluate_action": ("separate", "evaluate_action"),
    "separate.write_interpolant_csv": ("separate", "write_interpolant_csv"),
    "separate.read_interpolant_csv": ("separate", "read_interpolant_csv"),
    "verify.se_residual_with_scale": ("verify", "se_residual_with_scale"),
    "verify.hj_residual_with_scale": ("verify", "hj_residual_with_scale"),
    "verify.geometry_audit": ("verify", "geometry_audit"),
}

#: Count-only wrappers.  ``quad`` and ``solve_ivp`` are wrapped only in the
#: ``separate`` namespace, so calls scipy makes elsewhere are not counted.
COUNTS = {
    "frame.TimeProfile": ("frame", "TimeProfile.__call__", False),
    "separate.quad": ("separate", "quad", True),
    "separate.solve_ivp": ("separate", "solve_ivp", True),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"schrodsep.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counters for one process; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self.tallies = {"solve_ivp.nfev": 0, "field_evals": 0, "audit_samples": 0}
        self.cache_hits = 0
        self.cache_misses = 0
        self._patches: list[tuple[object, str, object]] = []
        self._cache_mark = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tallies = self.tallies
        field_counter = name == "verify.se_residual_with_scale"
        audit = name == "verify.geometry_audit"

        def wrapper(*args, **kwargs):
            if field_counter:
                field = args[0]

                def counted(*a, **k):
                    tallies["field_evals"] += 1
                    return field(*a, **k)

                args = (counted,) + args[1:]
            if audit:
                tallies["audit_samples"] += int(args[3] if len(args) > 3 else kwargs["n_samples"])
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def _count(self, name: str, fn, takes_nfev: bool):
        counts, tallies = self.counts, self.tallies

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if takes_nfev:
                tallies["solve_ivp.nfev"] += int(getattr(result, "nfev", 0))
            return result

        return functools.wraps(fn)(wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every listed callable wherever schrodsep binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in MODULES:
            importlib.import_module(f"schrodsep.{name}")
        jacobi = importlib.import_module("schrodsep.elliptic").jacobi
        info = jacobi.cache_info()
        self._cache_mark = (jacobi, info.hits, info.misses)
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key.startswith("schrodsep.") and mod is not None
        ]
        for metric, (module, path) in SPANS.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._span(metric, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._patch(ns, attr, wrapper)
        for metric, (module, path, takes_nfev) in COUNTS.items():
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self._count(metric, getattr(owner, attr), takes_nfev))

    def uninstall(self) -> None:
        """Restore the originals, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._cache_mark is not None:
            jacobi, hits, misses = self._cache_mark
            info = jacobi.cache_info()
            self.cache_hits += info.hits - hits
            self.cache_misses += info.misses - misses
            self._cache_mark = None

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive seconds per span name and self seconds per module."""
        import numpy as np

        n = len(self.span_name)
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_by_name = np.bincount(name, weights=self_time, minlength=k)
        busy = {m: 0.0 for m in MODULES}
        out = {"calls": {}, "total_s": {}, "busy_s": busy}
        for i, metric in enumerate(self.names):
            out["calls"][metric] = int(calls[i])
            out["total_s"][metric] = float(total[i])
            busy[metric.split(".")[0]] += float(self_by_name[i])
        out["counts"] = dict(self.counts)
        out["tallies"] = dict(self.tallies)
        out["cache"] = {"hits": self.cache_hits, "misses": self.cache_misses}
        return out

    def write(self, path) -> None:
        """Store every span as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps([
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i],
                ]) + "\n")


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes."""
    out = {"calls": {}, "total_s": {}, "busy_s": {m: 0.0 for m in MODULES},
           "counts": {}, "tallies": {}, "cache": {"hits": 0, "misses": 0}}
    for s in summaries:
        for group in ("calls", "total_s", "busy_s", "counts", "tallies", "cache"):
            for key, value in s[group].items():
                out[group][key] = out[group].get(key, 0) + value
    return out


def layer_metrics(s: dict) -> dict[str, float]:
    """Per-layer metric values (name -> number) from a merged summary."""
    m: dict[str, float] = {}
    for metric in SPANS:
        if metric == "cli.main":
            continue
        calls = s["calls"].get(metric, 0)
        if metric == "verify.geometry_audit":
            samples = s["tallies"]["audit_samples"]
            m["verify.geometry_audit.calls"] = calls
            m["verify.geometry_audit.us_per_sample"] = (
                1e6 * s["total_s"].get(metric, 0.0) / samples if samples else 0.0
            )
            continue
        m[f"{metric}.calls"] = calls
        m[f"{metric}.us_per_call"] = 1e6 * s["total_s"].get(metric, 0.0) / calls if calls else 0.0
    m["frame.TimeProfile.calls"] = s["counts"]["frame.TimeProfile"]
    m["separate.quad.calls"] = s["counts"]["separate.quad"]
    m["separate.solve_ivp.nfev"] = s["tallies"]["solve_ivp.nfev"]
    se_calls = s["calls"].get("verify.se_residual_with_scale", 0)
    m["verify.field_evals_per_sample"] = s["tallies"]["field_evals"] / se_calls if se_calls else 0.0
    lookups = s["cache"]["hits"] + s["cache"]["misses"]
    m["elliptic.jacobi.cache_hit_ratio"] = s["cache"]["hits"] / lookups if lookups else 0.0
    for module in MODULES:
        m[f"{module}.busy_s"] = s["busy_s"][module]
    return m


def identities(s: dict) -> list[str]:
    """Call-count identities that show no call went unseen; returns the
    ones that fail."""
    c = s["calls"]
    get = lambda k: c.get(k, 0)  # noqa: E731
    se, hj = get("verify.se_residual_with_scale"), get("verify.hj_residual_with_scale")
    psi, action = get("separate.evaluate_psi"), get("separate.evaluate_action")
    rules = {
        "evaluate_psi = 17 x se_residual": psi == 17 * se,
        "evaluate_action = 16 x hj_residual": action == 16 * hj,
        "field evals = 17 x se_residual": s["tallies"]["field_evals"] == 17 * se,
        "AxisInterpolant.evaluate = 3 x (evaluate_psi + evaluate_action)":
            get("separate.AxisInterpolant.evaluate") == 3 * (psi + action),
        "phi0 >= evaluate_psi": get("separate.phi0") >= psi,
        "hj_phi0 >= evaluate_action": get("separate.hj_phi0") >= action,
        "invert >= evaluate_psi + evaluate_action": get("coords.invert") >= psi + action,
        "unembed >= evaluate_psi + evaluate_action": get("frame.unembed") >= psi + action,
    }
    return [rule for rule, ok in rules.items() if not ok]
