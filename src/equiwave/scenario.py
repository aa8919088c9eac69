"""Declarative run configuration: a single JSON file describing the
manifold, target, equivariance degree, grid, time stepping, initial
data, and which estimate checks to run."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

from .admissibility import AdmissibilityReport, check_admissibility, estimate_h_infinity
from .errors import CFLViolation, DomainError, ScenarioError
from .profiles import (
    MAX_EXPR_DEPTH,
    MetricProfile,
    TargetProfile,
    _gamma_series,
    _is_number,
    check_normalization,
    metric_profile,
    target_profile,
)
from .reduction import compute_V
from .spectral import DiscreteRadialOperator, RadialGrid, build_operator

# the errors a malformed manifold or target spec raises
_SPEC_ERRORS = (KeyError, IndexError, TypeError, ValueError, DomainError)

KNOWN_CHECKS = ("hardy", "smoothing", "strichartz", "dimshift")
KNOWN_SHAPES = ("gaussian", "zero")
DATA_NUMBERS = ("amplitude", "width", "center", "velocity_amplitude")

# Cost budget, checked before anything of grid size is allocated.
# Every pipeline holds O(N) numbers per vector, so N is bounded for run
# time, not memory: the solver's step count and the Chebyshev
# propagator's length both grow like N, their work like N^2.  `all` on
# the README scenario at N = 8192 takes about 4 s, its two processes
# peaking at 51 and 32 MB RSS (one BLAS thread, 2-core VM).  The longest
# run in the tests and the benchmark takes 33,334 steps.  A stored
# snapshot holds field and velocity, 16 N bytes; the evolve stage of the
# CLI shares the fields alone, 8 N bytes, and frees each block once it is
# measured: at N = 8192 with 1001 snapshots (66 MB of fields) the parent
# of `evolve` peaks at 42 MB.  The budget still counts every snapshot,
# because the child can fill the whole mapping while the parent runs the
# other stages: the child of `all` there peaks at 85 to 90 MB.
MAX_GRID_POINTS = 8192
MAX_STEPS = 1_000_000
MAX_SNAPSHOT_BYTES = 2**30


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass
class Scenario:
    name: str
    manifold: dict
    target: dict
    n: int
    k: int
    delta0: Union[float, str]  # a number, or "search"
    grid: dict                 # {"R_max": float, "N": int}
    time: dict                 # {"T", "dt_factor", "snap_every"}
    data: dict                 # {"shape", "amplitude", "width", ...}
    checks: list = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        self._check_types()
        if self.n < 3 or self.k < 1:
            raise ScenarioError("need n >= 3 and k >= 1")
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        if not isinstance(self.delta0, str):
            if not 0 < self.delta0 < 1:
                raise ScenarioError("delta0 must lie in (0,1)")
        elif self.delta0 != "search":
            raise ScenarioError("delta0 must be a number or 'search'")
        if self.grid["R_max"] <= 0 or self.grid["N"] < 2:
            raise ScenarioError("grid needs R_max > 0 and N >= 2")
        t = self.time
        if t["dt_factor"] > 0.5:
            raise CFLViolation(
                f"dt_factor {t['dt_factor']} exceeds the CFL limit 0.5"
            )
        if t["dt_factor"] <= 0 or t["T"] < 0 or t["snap_every"] <= 0:
            raise ScenarioError("time parameters must be positive")
        shape = self.data.get("shape", "gaussian")
        if shape not in KNOWN_SHAPES:
            raise ScenarioError(f"unknown data shape {shape!r}")
        if self.data.get("width", 1.0) <= 0:
            raise ScenarioError("data width must be positive")
        self._check_cost()
        if t["T"] > self.grid["R_max"] - self.support_radius:
            raise ScenarioError(
                "horizon violates the causality budget: need "
                f"T <= R_max - data support ({self.grid['R_max']} - "
                f"{self.support_radius:.2f})"
            )
        for c in self.checks:
            if c not in KNOWN_CHECKS:
                raise ScenarioError(
                    f"unknown check {c!r}; known: {KNOWN_CHECKS}"
                )
        # eager profile validation; a manifold needs h(0) = 0, h'(0) = 1
        try:
            normalized = check_normalization(self.profile())
        except (DomainError, ZeroDivisionError, OverflowError) as exc:
            raise ScenarioError(f"bad manifold spec: {exc}") from exc
        if not normalized:
            raise ScenarioError("manifold profile must satisfy h(0) = 0 and h'(0) = 1")
        # the reduction needs g g' = s + O(s^3), so that the cubic remainder
        # Gamma has a Taylor series at s = 0 (lbar > 0 since k >= 1); the
        # solver evaluates g g' itself and builds no series
        try:
            _gamma_series(self.target_profile(), self.k * (self.k + self.n - 2))
        except (ValueError, DomainError, ZeroDivisionError, OverflowError) as exc:
            raise ScenarioError(f"bad target spec: {exc}") from exc

    def _check_types(self):
        """Reject a field of the wrong JSON type before any arithmetic."""
        if not isinstance(self.name, str):
            raise ScenarioError("name must be a string")
        for key in ("manifold", "target", "grid", "time", "data"):
            if not isinstance(getattr(self, key), dict):
                raise ScenarioError(f"{key} must be a JSON object")
        for key in ("manifold", "target"):
            for name, value in getattr(self, key).items():
                if name not in ("kind", "expr") and not _is_number(value):
                    raise ScenarioError(f"{key} {name} must be a finite number")
        for key in ("n", "k", "seed"):
            if not _is_integer(getattr(self, key)):
                raise ScenarioError(f"{key} must be an integer")
        if not isinstance(self.delta0, str) and not _is_number(self.delta0):
            raise ScenarioError("delta0 must be a number or 'search'")
        if not (isinstance(self.checks, list)
                and all(isinstance(c, str) for c in self.checks)):
            raise ScenarioError("checks must be a list of check names")
        numeric = (("grid", ("R_max", "N")),
                   ("time", ("T", "dt_factor", "snap_every")),
                   ("data", DATA_NUMBERS))
        for section, keys in numeric:
            spec = getattr(self, section)
            unknown = set(spec) - set(keys) - ({"shape"} if section == "data" else set())
            if unknown:
                raise ScenarioError(f"{section} spec has unknown keys {sorted(map(str, unknown))}")
            for key in keys:
                if section != "data" and key not in spec:
                    raise ScenarioError(f"{section} spec is missing {key!r}")
                if key in spec and not _is_number(spec[key]):
                    raise ScenarioError(f"{section} {key} must be a finite number")
        if not _is_integer(self.grid["N"]):
            raise ScenarioError("grid N must be an integer")

    def _check_cost(self):
        """Reject a run beyond the cost budget; allocates nothing."""
        N = self.grid["N"]
        if N > MAX_GRID_POINTS:
            raise ScenarioError(f"grid N = {N} exceeds the budget of {MAX_GRID_POINTS}")
        dt_max = self.time["dt_factor"] * self.radial_grid.dr
        if self.time["T"] > MAX_STEPS * dt_max:
            raise ScenarioError(
                f"step count T / (dt_factor * dr) exceeds the budget of {MAX_STEPS}"
            )
        snapshots = self.snapshot_count
        if 16 * N * snapshots > MAX_SNAPSHOT_BYTES:
            raise ScenarioError(
                f"{snapshots} snapshots of {N} points exceed the budget of "
                f"{MAX_SNAPSHOT_BYTES} bytes; raise snap_every"
            )

    @property
    def stepping(self) -> tuple[int, float, int]:
        """(step count, dt, snapshot stride) of a Verlet run to T: dt is
        dt_factor * dr, shrunk if needed so that the last step lands on T."""
        dt_max = float(self.time["dt_factor"]) * self.radial_grid.dr
        T = float(self.time["T"])
        n_steps = max(1, math.ceil(T / dt_max)) if T > 0 else 0
        dt = T / n_steps if n_steps else dt_max
        # a stride beyond n_steps stores the same snapshots as n_steps
        snap = float(self.time["snap_every"])
        stride = max(1, int(round(min(snap / dt, n_steps)))) if n_steps else 1
        return n_steps, dt, stride

    @property
    def snapshot_count(self) -> int:
        """Snapshots of a Verlet run to T: t = 0, every stride-th step,
        and the last step when the stride does not divide the step count."""
        n_steps, _, stride = self.stepping
        return 1 + n_steps // stride + (n_steps % stride > 0)

    @property
    def support_radius(self) -> float:
        """Radius beyond which the initial data is negligible on r >= 0."""
        if self.data.get("shape", "gaussian") == "zero":
            return 0.0
        width = float(self.data.get("width", 1.0))
        center = float(self.data.get("center", 0.0))
        return max(center, 0.0) + 6.0 * width

    def profile(self) -> MetricProfile:
        spec = dict(self.manifold)
        try:
            return metric_profile(spec.pop("kind"), **spec)
        except _SPEC_ERRORS as exc:
            raise ScenarioError(f"bad manifold spec: {exc}") from exc

    def target_profile(self) -> TargetProfile:
        spec = dict(self.target)
        try:
            return target_profile(spec.pop("kind"), **spec)
        except _SPEC_ERRORS as exc:
            raise ScenarioError(f"bad target spec: {exc}") from exc

    # -- h_infinity and the discrete objects, built once and shared by every
    # pipeline.  They depend only on manifold, n, k and grid, never on the
    # seed (which the CLI may set after loading); change none of those
    # after a first read.

    @cached_property
    def radial_grid(self) -> RadialGrid:
        return RadialGrid(float(self.grid["R_max"]), int(self.grid["N"]))

    @cached_property
    def admissibility(self) -> AdmissibilityReport:
        return check_admissibility(self.profile(), self.n)

    @cached_property
    def h_infinity(self) -> float:
        """The limit of the reduced potential V; raises NoLimit on a base
        without one.  Fitted on its own: it needs no admissibility verdict."""
        return estimate_h_infinity(self.profile(), self.n)[0]

    @cached_property
    def reduced_operator(self) -> DiscreteRadialOperator:
        nodes = self.radial_grid.nodes
        W = compute_V(self.profile(), self.n, self.k, nodes) - self.h_infinity
        return build_operator(self.radial_grid, self.n + 2 * self.k, W)

    @cached_property
    def free_operator(self) -> DiscreteRadialOperator:
        return build_operator(self.radial_grid, self.n + 2 * self.k)

    def initial_data(self, r: np.ndarray):
        """(field, velocity) samples of the geometric field phi."""
        shape = self.data.get("shape", "gaussian")
        if shape == "zero":
            return np.zeros_like(r), np.zeros_like(r)
        amp = float(self.data.get("amplitude", 0.05))
        width = float(self.data.get("width", 1.0))
        center = float(self.data.get("center", 0.0))
        vamp = float(self.data.get("velocity_amplitude", 0.0))
        bump = r**self.k * np.exp(-(((r - center) / width) ** 2))
        return amp * bump, vamp * bump

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(
            "scenario file nests too deeply to decode; an expression may be "
            f"at most {MAX_EXPR_DEPTH} levels deep") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(Scenario)}
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    defaults = {
        "name": path.stem,
        "delta0": "search",
        "grid": {"R_max": 60.0, "N": 4000},
        "time": {"T": 50.0, "dt_factor": 0.1, "snap_every": 0.5},
        "data": {"shape": "gaussian", "amplitude": 0.05},
        "checks": [],
        "seed": 0,
    }
    merged = {**defaults, **raw}
    for req in ("manifold", "target", "n", "k"):
        if req not in merged:
            raise ScenarioError(f"scenario is missing {req!r}")
    return Scenario(**merged)
