"""Workload inputs, bodies and correctness gates of the equiwave benchmark.

Each workload has three parts:

* ``make_plan(seed, size)`` builds the inputs from the seed alone.  The
  plan is plain JSON (scenario dicts and profile specs); the program
  only ever sees what the plan describes.
* ``setup(plan)`` / ``body(ctx)`` run inside a child process: set-up
  loads the scenarios and constructs the profiles, the body makes the
  pipeline calls that are timed.  Bodies look every equiwave function up
  through its module at call time, so the tracer's wrappers see them.
* ``gate(plan, out, golden)`` runs in run.py and turns one body's
  output into (operation, ok, detail) rows; each row is one attempted
  operation, and a row that is not ok is one failed operation.

This module imports no equiwave, numpy or scipy at import time: the
runner (run.py) imports it too and must stay light.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("all-default", "geometry-jets", "evolve-consistency")
SIZES = ("full", "tiny")

# The all-default estimate families are selected by the scenario seed;
# the golden file holds their sup ratios for scenario seeds 0..31, and
# the benchmark seed is mapped into that range.
SCENARIO_SEEDS = 32

# Relative tolerance of every golden comparison, with an absolute floor
# for values that are zero at the reference commit.
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-12

# Criterion 10 of the acceptance gate bounds the phi/psi mismatch.
CONSISTENCY_BOUND = 1e-4
# Energies of the custom-target run against the identical sphere run.
CUSTOM_ENERGY_RTOL = 1e-10

README_SCENARIO = {
    "name": "all-default",
    "manifold": {"kind": "hyperbolic"},
    "target": {"kind": "sphere"},
    "n": 3,
    "k": 1,
    "grid": {"R_max": 60.0, "N": 4000},
    "time": {"T": 50.0, "dt_factor": 0.1, "snap_every": 0.5},
    "data": {"shape": "gaussian", "amplitude": 0.05, "width": 1.0, "center": 0.0},
    "checks": ["hardy", "smoothing", "strichartz", "dimshift"],
}
TINY_GRID = {"R_max": 30.0, "N": 600}
TINY_TIME = {"T": 10.0, "dt_factor": 0.1, "snap_every": 0.5}

# geometry-jets profile pool: the fixed built-ins run every time, and the
# seed draws one member of each parameterised family.  The pool is finite
# so the golden file can hold every member's verdicts.
FIXED_PROFILES = (
    ("flat", {}),
    ("hyperbolic", {}),
    ("sin", {}),
    ("exp-growth", {}),
    ("polynomial-growth", {"M": 1.0}),
)
SINH_AMPLITUDES = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1)
POLY_M = (0.5, 1.0, 2.0)
POLY_EPS = (0.02, 0.05, 0.1)
EXP_EPS = (0.02, 0.05, 0.1)
V_GRID = {"full": {"R_max": 60.0, "N": 4000}, "tiny": {"R_max": 60.0, "N": 200}}
N_VALUES = {"full": [3, 4, 5], "tiny": [3]}
# wide data with a large amplitude, so the nonlinearity matters
CUSTOM_RUN = {
    "full": {"grid": {"R_max": 30.0, "N": 600},
             "time": {"T": 4.0, "dt_factor": 0.1, "snap_every": 0.5}},
    "tiny": {"grid": {"R_max": 30.0, "N": 100},
             "time": {"T": 2.0, "dt_factor": 0.1, "snap_every": 0.5}},
}
CUSTOM_DATA = {"shape": "gaussian", "amplitude": 0.5, "width": 2.0, "center": 0.0}

# the grid and horizon of acceptance criterion 10; a short body gives a
# run several samples to take the median of
EVOLVE_RUN = {
    "full": {"grid": {"R_max": 30.0, "N": 2000},
             "time": {"T": 10.0, "dt_factor": 0.1, "snap_every": 1.0}},
    "tiny": {"grid": {"R_max": 30.0, "N": 500},
             "time": {"T": 5.0, "dt_factor": 0.1, "snap_every": 1.0}},
}


def profile_key(kind: str, params: dict) -> str:
    args = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{kind}({args})"


def digest(obj) -> str:
    """Stable hash of a JSON-able result, for traced/untraced equality."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- plans -------------------------------------------------------------------------


def make_plan(workload: str, seed: int, size: str) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "all-default":
        scenario = json.loads(json.dumps(README_SCENARIO))
        scenario["seed"] = seed % SCENARIO_SEEDS
        if size == "tiny":
            scenario["grid"] = dict(TINY_GRID)
            scenario["time"] = dict(TINY_TIME)
        return {"workload": workload, "size": size, "seed": seed,
                "scenario": scenario}
    if workload == "geometry-jets":
        drawn = [
            ("sinh-perturbed", {"amplitude": rng.choice(SINH_AMPLITUDES)}),
            ("smoothed-polynomial",
             {"M": rng.choice(POLY_M), "eps": rng.choice(POLY_EPS)}),
            ("smoothed-exponential", {"eps": rng.choice(EXP_EPS)}),
        ]
        profiles = [[k, p] for k, p in FIXED_PROFILES + tuple(drawn)]
        sinh, poly = drawn[0], drawn[1]
        perturbations = [
            ["general", ["hyperbolic", {}], list(sinh)],
            ["exponential", ["hyperbolic", {}], list(sinh)],
            ["polynomial", ["polynomial-growth", {"M": poly[1]["M"]}], list(poly)],
        ]
        run = CUSTOM_RUN[size]

        def scen(name, target):
            return {"name": name, "manifold": {"kind": "hyperbolic"},
                    "target": target, "n": 3, "k": 1, "delta0": 0.5,
                    "grid": run["grid"], "time": run["time"], "data": CUSTOM_DATA}

        return {
            "workload": workload, "size": size, "seed": seed,
            "profiles": profiles,
            "n_values": N_VALUES[size],
            "V_grid": V_GRID[size],
            "perturbations": perturbations,
            "custom": scen("custom-target", {"kind": "custom", "expr": ["sin", "r"]}),
            "sphere": scen("sphere-target", {"kind": "sphere"}),
        }
    run = EVOLVE_RUN[size]
    scenario = {
        "name": "evolve-consistency",
        "manifold": {"kind": "sinh-perturbed",
                     "amplitude": round(rng.uniform(0.005, 0.05), 4)},
        "target": {"kind": "sphere"},
        "n": 3, "k": 1, "delta0": 0.5,
        "grid": run["grid"], "time": run["time"],
        # width <= 1.2 keeps the support radius 7.2 inside R_max - T
        "data": {"shape": "gaussian",
                 "amplitude": round(rng.uniform(0.03, 0.08), 4),
                 "width": round(rng.uniform(0.8, 1.2), 4), "center": 0.0},
    }
    return {"workload": workload, "size": size, "seed": seed, "scenario": scenario}


# -- child side: set-up and bodies ----------------------------------------------------


def setup(plan: dict, workdir) -> dict:
    """Load scenarios and construct profiles: the work before the first
    pipeline call.  Scenario files are written here, as a user's would
    be on disk, and read back through load_scenario."""
    import equiwave.cli  # noqa: F401  (the CLI module is part of set-up)
    import equiwave.profiles as profiles
    import equiwave.scenario as scenario_mod
    import equiwave.spectral as spectral

    def load(name, spec):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(spec, indent=2))
        return path, scenario_mod.load_scenario(path)

    ctx = {"plan": plan}
    if plan["workload"] in ("all-default", "evolve-consistency"):
        ctx["scenario_path"], ctx["scenario"] = load("scenario", plan["scenario"])
    else:
        ctx["profiles"] = [
            (profile_key(kind, params), profiles.metric_profile(kind, **params))
            for kind, params in plan["profiles"]
        ]
        ctx["perturbations"] = [
            (mode,
             profile_key(*base), profiles.metric_profile(base[0], **base[1]),
             profile_key(*pert), profiles.metric_profile(pert[0], **pert[1]))
            for mode, base, pert in plan["perturbations"]
        ]
        g = plan["V_grid"]
        ctx["V_nodes"] = spectral.RadialGrid(g["R_max"], g["N"]).nodes
        _, ctx["custom"] = load("custom", plan["custom"])
        _, ctx["sphere"] = load("sphere", plan["sphere"])
    return ctx


def _guard(fn):
    """One operation: its summary, or the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # recorded and counted as a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


def _body_all_default(ctx, outdir):
    import equiwave.cli as cli

    rc = cli.main(["all", "--scenario", str(ctx["scenario_path"]), "--out", str(outdir)])
    return {"exit_code": rc}


def v_summary(values, N):
    import numpy as np

    idx = [0, N // 8, N // 2, N - 1]
    return {"finite": bool(np.all(np.isfinite(values))),
            "samples": [float(values[i]) for i in idx]}


def adm_summary(rep):
    conds = (rep.cond_i, rep.cond_ii, rep.cond_iii)
    return {
        "admissible": rep.admissible,
        "delta0": rep.delta0,
        "conditions": [c.passed for c in conds],
        "witness": any(c.witness_r is not None for c in conds if not c.passed),
    }


def pert_summary(rep):
    return {"passed": rep.passed, "epsilon": rep.epsilon}


def _body_geometry(ctx, outdir):
    import numpy as np

    import equiwave.admissibility as adm
    import equiwave.cli as cli
    import equiwave.reduction as reduction
    import equiwave.solver as solver

    plan = ctx["plan"]
    N = len(ctx["V_nodes"])
    out = {"adm": {}, "V": {}, "pert": {}}
    for key, prof in ctx["profiles"]:
        for n in plan["n_values"]:
            out["adm"][f"{key}|n{n}"] = _guard(
                lambda: adm_summary(adm.check_admissibility(prof, n)))
        if prof.smooth_at_zero:
            out["V"][f"{key}|N{N}"] = _guard(
                lambda: v_summary(reduction.compute_V(prof, 3, 1, ctx["V_nodes"]), N))
    for mode, bkey, base, pkey, pert in ctx["perturbations"]:
        out["pert"][f"{mode}|{bkey}|{pkey}|n3"] = _guard(
            lambda: pert_summary(adm.check_perturbation(base, pert, mode, 3)))
    out["closed_forms"] = _guard(lambda: cli.emit_closed_forms()["verdict"])

    def custom_vs_sphere():
        a = solver.integrate(ctx["custom"], "phi", spectral_diagnostics=False)
        b = solver.integrate(ctx["sphere"], "phi", spectral_diagnostics=False)
        rel = np.abs(a.energies - b.energies) / np.abs(b.energies)
        return {"steps": int(a.meta["n_steps"]),
                "max_rel_energy_diff": float(np.max(rel))}

    out["custom"] = _guard(custom_vs_sphere)
    return out


def _body_evolve(ctx, outdir):
    import equiwave.solver as solver

    def run():
        res = solver.consistency_check(ctx["scenario"])
        return {"mismatch": res["mismatch"], "per_snapshot": res["per_snapshot"]}

    return _guard(run)


BODIES = {
    "all-default": _body_all_default,
    "geometry-jets": _body_geometry,
    "evolve-consistency": _body_evolve,
}


def output_digest(workload: str, out: dict, outdir) -> str:
    """What the traced run must reproduce exactly: the report.json bytes
    for the CLI workload, the body's summary for the others."""
    if workload == "all-default":
        path = outdir / "report.json"
        data = path.read_bytes() if path.exists() else b""
        return hashlib.sha256(data).hexdigest()
    return digest(out)


def collect(workload: str, out: dict, outdir) -> dict:
    """Reduce a body's output to what the correctness gate needs."""
    if workload != "all-default":
        return out
    path = outdir / "report.json"
    report = json.loads(path.read_text()) if path.exists() else None
    return {"exit_code": out["exit_code"], "report": report}


# -- runner side: correctness gates -----------------------------------------------------


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    if isinstance(want, bool) or isinstance(got, bool):
        return got == want
    got, want = float(got), float(want)
    if math.isinf(want) or math.isnan(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= GOLDEN_RTOL * abs(want) + GOLDEN_ATOL


def _compare(got: dict, want: dict, prefix=""):
    """Names of the leaves of ``want`` that ``got`` does not match."""
    bad = []
    for k, w in want.items():
        g = got.get(k) if isinstance(got, dict) else None
        if isinstance(w, dict):
            bad += _compare(g or {}, w, f"{prefix}{k}.")
        elif isinstance(w, list):
            if not isinstance(g, list) or len(g) != len(w) or not all(
                    _close(a, b) for a, b in zip(g, w)):
                bad.append(f"{prefix}{k}")
        elif not _close(g, w):
            bad.append(f"{prefix}{k}={g!r} want {w!r}")
    return bad


def all_default_golden_values(report: dict) -> dict:
    """The report.json numbers the golden copy pins, split into the part
    that every seed shares and the part the seed selects."""
    fixed = {
        "verify": {k: report["verify"][k] for k in ("h_infinity", "delta0")},
        "reduce": {k: report["reduce"]["spectrum"][k]
                   for k in ("min_eigenvalue", "max_eigenvalue")},
        "evolve": {k: report["evolve"][k]
                   for k in ("energy_initial", "energy_drift", "sup_ratio",
                             "strichartz_trace")},
    }
    by_seed = {name: report["estimates"][name]["sup_ratio"]
               for name in report["scenario"]["checks"]}
    return {"fixed": fixed, "by_seed": by_seed}


def gate(plan: dict, out: dict, golden: dict):
    """Rows (operation, ok, detail) for one body's collected output."""
    workload, size = plan["workload"], plan["size"]
    gold = golden.get(workload, {}).get(size, {})
    rows = []
    if workload == "all-default":
        report = out.get("report")
        rows.append(("exit_code", out.get("exit_code") == 0, f"exit {out.get('exit_code')}"))
        if report is None:
            return rows + [(p, False, "no report.json")
                           for p in ("verify", "reduce", "estimates", "evolve")]
        values = all_default_golden_values(report)
        seed_gold = gold.get("by_seed", {}).get(str(plan["scenario"]["seed"]))
        for part in ("verify", "reduce", "estimates", "evolve"):
            verdict = report.get(part, {}).get("verdict")
            if part == "estimates":
                bad = (["no golden for this scenario seed"] if seed_gold is None
                       else _compare(values["by_seed"], seed_gold))
            else:
                bad = _compare(values["fixed"][part], gold.get("fixed", {}).get(part, {}))
            if verdict != "PASS":
                bad.insert(0, f"verdict {verdict}")
            rows.append((part, not bad, "; ".join(bad)))
        return rows
    if workload == "geometry-jets":
        for section in ("adm", "V", "pert"):
            for key, got in out.get(section, {}).items():
                want = gold.get(section, {}).get(key)
                if "error" in got:
                    rows.append((f"{section}:{key}", False, got["error"]))
                elif want is None:
                    rows.append((f"{section}:{key}", False, "no golden value"))
                else:
                    bad = _compare(got, want)
                    if section == "V" and not got["finite"]:
                        bad.append("non-finite V")
                    if key.startswith("sin()") and section == "adm" and (
                            got["admissible"] or not got["witness"]):
                        bad.append("sin must FAIL with a witness")
                    rows.append((f"{section}:{key}", not bad, "; ".join(bad)))
        cf = out.get("closed_forms")
        rows.append(("closed_forms", cf == "PASS", str(cf)))
        cu = out.get("custom", {})
        ok = "error" not in cu and cu.get("max_rel_energy_diff", math.inf) <= CUSTOM_ENERGY_RTOL
        rows.append(("custom_target_energy", ok, json.dumps(cu)))
        return rows
    mis = out.get("mismatch")
    ok = "error" not in out and mis is not None and mis <= CONSISTENCY_BOUND
    rows.append(("consistency", ok, out.get("error") or f"mismatch {mis}"))
    return rows
