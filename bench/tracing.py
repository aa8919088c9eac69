"""In-memory span tracer that instruments equiwave from outside.

Each layer is traced by wrapping one public function or method.  The
package binds names with ``from .x import f``, so a function is replaced
in every equiwave module that holds it (and in ``cli.PIPELINES``), not
only in the module that defines it.  Methods are replaced on their
class.  A span records name, start, end and parent; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, defining module, function name)
FUNCTIONS = (
    ("spectral.build_operator", "equiwave.spectral", "build_operator"),
    ("spectral.frac_norm", "equiwave.spectral", "frac_norm"),
    ("spectral.resolve", "equiwave.spectral", "resolve"),
    ("solver.integrate", "equiwave.solver", "integrate"),
    ("solver.strichartz_trace", "equiwave.solver", "strichartz_trace"),
    ("solver.consistency_check", "equiwave.solver", "consistency_check"),
    ("profiles.gamma_decompose", "equiwave.profiles", "gamma_decompose"),
    ("admissibility.check_admissibility", "equiwave.admissibility", "check_admissibility"),
    ("admissibility.check_perturbation", "equiwave.admissibility", "check_perturbation"),
    ("admissibility.estimate_h_infinity", "equiwave.admissibility", "estimate_h_infinity"),
    ("reduction.compute_V", "equiwave.reduction", "compute_V"),
    ("estimates.hardy_check", "equiwave.estimates", "hardy_check"),
    ("estimates.smoothing_check", "equiwave.estimates", "smoothing_check"),
    ("estimates.strichartz_monitor", "equiwave.estimates", "strichartz_monitor"),
    ("estimates.dimshift_check", "equiwave.estimates", "dimshift_check"),
    ("cli.run_verify", "equiwave.cli", "run_verify"),
    ("cli.run_reduce", "equiwave.cli", "run_reduce"),
    ("cli.run_estimates", "equiwave.cli", "run_estimates"),
    ("cli.run_evolve", "equiwave.cli", "run_evolve"),
    ("scenario.load_scenario", "equiwave.scenario", "load_scenario"),
    # the dense eigensolve, wherever spectral reaches it
    ("spectral.eigensolve", "scipy.linalg", "eigh_tridiagonal"),
    ("spectral.eigensolve", "scipy.linalg", "eigvalsh_tridiagonal"),
)

# (span name, defining module, class, method)
METHODS = (
    ("profiles.jet", "equiwave.profiles", "MetricProfile", "jet"),
    ("profiles.jet", "equiwave.profiles", "TargetProfile", "jet"),
    ("profiles.gg_prime", "equiwave.profiles", "TargetProfile", "gg_prime"),
    ("spectral.basis_transform", "equiwave.spectral", "DiscreteRadialOperator", "coefficients"),
    ("spectral.basis_transform", "equiwave.spectral", "DiscreteRadialOperator", "from_coefficients"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# counters read from a call's arguments or result: span name -> (counter, fn)
COUNTERS = {
    "spectral.eigensolve": ("spectral.eigensolve.rows",
                            lambda a, k, r: len(_arg(a, k, 0, "d"))),
    "spectral.basis_transform": ("spectral.basis_transform.bytes_computed",
                                 lambda a, k, r: 8 * a[0].grid.N ** 2),
    "reduction.compute_V": ("reduction.compute_V.points",
                            lambda a, k, r: int(np.size(_arg(a, k, 3, "r")))),
    "solver.integrate": ("solver.steps", lambda a, k, r: int(r.meta["n_steps"])),
}


class Tracer:
    """Spans kept in parallel lists; parents precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        sid = self._id(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own (the workload body's root)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- results -------------------------------------------------------------

    def arrays(self):
        return (np.asarray(self.span_name, dtype=np.int32),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start), np.asarray(self.end))

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus
        the counters.  No traced layer calls itself, so inclusive times of
        one name never overlap."""
        names, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        k = len(self.names)
        out = {
            "calls": np.bincount(names, minlength=k).tolist(),
            "s": np.bincount(names, weights=dur, minlength=k).tolist(),
            "self_s": np.bincount(names, weights=self_time, minlength=k).tolist(),
        }
        return {
            "spans": {n: {key: out[key][i] for key in out} for i, n in enumerate(self.names)},
            "counters": dict(self.counters),
        }

    def self_time_sum(self, root: int) -> tuple[float, float, float]:
        """(duration of span ``root``, sum of the self times of it and
        every span below it, and the smallest of those self times, which
        is negative if children overlap or outlast their parent)."""
        inside = [False] * len(self.parent)
        inside[root] = True
        for i in range(root + 1, len(self.parent)):  # parents precede children
            inside[i] = self.parent[i] >= 0 and inside[self.parent[i]]
        _, parent, start, end = self.arrays()
        inside = np.asarray(inside)
        dur = end - start
        sel = inside & (parent >= 0)
        child_time = np.bincount(parent[sel], weights=dur[sel], minlength=len(dur))
        self_time = (dur - child_time)[inside]
        return float(dur[root]), float(np.sum(self_time)), float(np.min(self_time))

    def write(self, path):
        """Spans as a compressed npz, with the name table as JSON."""
        names, parent, start, end = self.arrays()
        np.savez_compressed(path, name=names, parent=parent, start=start, end=end,
                            names=np.array(json.dumps(self.names)))


def instrument(tracer: Tracer):
    """Replace each traced function wherever an equiwave module (or the
    CLI's pipeline table) holds it, and each traced method on its class.
    Names that no longer exist are skipped, so the layer reads zero."""
    import importlib

    homes = {m: importlib.import_module(m) for m in {f[1] for f in FUNCTIONS + METHODS}}
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "equiwave" or name.startswith("equiwave."))]
    for span_name, modname, attr in FUNCTIONS:
        home = homes[modname]
        fn = getattr(home, attr, None)
        if fn is None:
            continue
        wrapped = tracer.wrap(span_name, fn)
        setattr(home, attr, wrapped)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapped)
            table = getattr(mod, "PIPELINES", None)
            if isinstance(table, dict):
                for key, val in list(table.items()):
                    if val is fn:
                        table[key] = wrapped
    for span_name, modname, clsname, meth in METHODS:
        cls = getattr(homes[modname], clsname, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if fn is not None:
            setattr(cls, meth, tracer.wrap(span_name, fn))
