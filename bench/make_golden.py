"""Regenerate bench/golden.json: the reference outputs the benchmark's
correctness gate compares against.

    python3 bench/make_golden.py [--sizes full tiny]

Run it only at a commit whose outputs are the accepted reference; the
file it writes is what later commits are held to.  It covers every
input a seed can produce: the all-default report numbers (the seed
only selects the estimate families, so there are SCENARIO_SEEDS of
them), and every member of the geometry-jets profile pool.  Takes
about ten minutes on a 2-core x86 box, most of it the 32 full-size
estimate runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import shutil
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads as W  # noqa: E402


def all_default(size: str, tmp: Path) -> dict:
    import equiwave.cli as cli
    from equiwave.scenario import load_scenario

    by_seed, fixed = {}, None
    for seed in range(W.SCENARIO_SEEDS):
        plan = W.make_plan("all-default", seed, size)
        path = tmp / "scenario.json"
        path.write_text(json.dumps(plan["scenario"]))
        if fixed is None or size == "tiny":
            rc = cli.main(["all", "--scenario", str(path), "--out", str(tmp)])
            if rc != 0:
                raise SystemExit(f"all-default {size} seed {seed}: exit {rc}")
            values = W.all_default_golden_values(json.loads((tmp / "report.json").read_text()))
            fixed = fixed or values["fixed"]
            if values["fixed"] != fixed:
                raise SystemExit("seed-independent report numbers depend on the seed")
        else:
            scenario = load_scenario(path)
            est = cli.run_estimates(scenario, tmp)
            values = {"by_seed": {name: est[name]["sup_ratio"] for name in scenario.checks}}
            if est["verdict"] != "PASS":
                raise SystemExit(f"all-default {size} seed {seed}: estimates FAIL")
        by_seed[str(seed)] = values["by_seed"]
        print(f"all-default {size} seed {seed} done", flush=True)
    return {"fixed": fixed, "by_seed": by_seed}


def geometry(size: str) -> dict:
    import equiwave.admissibility as adm
    import equiwave.reduction as reduction
    from equiwave.profiles import metric_profile
    from equiwave.spectral import RadialGrid

    pool = list(W.FIXED_PROFILES)
    pool += [("sinh-perturbed", {"amplitude": a}) for a in W.SINH_AMPLITUDES]
    pool += [("smoothed-polynomial", {"M": M, "eps": e})
             for M in W.POLY_M for e in W.POLY_EPS]
    pool += [("smoothed-exponential", {"eps": e}) for e in W.EXP_EPS]
    g = W.V_GRID[size]
    nodes = RadialGrid(g["R_max"], g["N"]).nodes
    out = {"adm": {}, "V": {}, "pert": {}}
    for kind, params in pool:
        key, prof = W.profile_key(kind, params), metric_profile(kind, **params)
        for n in W.N_VALUES[size]:
            out["adm"][f"{key}|n{n}"] = W.adm_summary(adm.check_admissibility(prof, n))
        if prof.smooth_at_zero:
            out["V"][f"{key}|N{g['N']}"] = W.v_summary(
                reduction.compute_V(prof, 3, 1, nodes), g["N"])
    hyp = ("hyperbolic", {})
    pairs = [(mode, hyp, ("sinh-perturbed", {"amplitude": a}))
             for mode in ("general", "exponential") for a in W.SINH_AMPLITUDES]
    pairs += [("polynomial", ("polynomial-growth", {"M": M}),
               ("smoothed-polynomial", {"M": M, "eps": e}))
              for M in W.POLY_M for e in W.POLY_EPS]
    for mode, base, pert in pairs:
        rep = adm.check_perturbation(metric_profile(base[0], **base[1]),
                                     metric_profile(pert[0], **pert[1]), mode, 3)
        key = f"{mode}|{W.profile_key(*base)}|{W.profile_key(*pert)}|n3"
        out["pert"][key] = W.pert_summary(rep)
    print(f"geometry-jets {size} done", flush=True)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", nargs="+", choices=W.SIZES, default=["tiny", "full"])
    args = ap.parse_args()
    import numpy
    import scipy

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.update({
        "rtol": W.GOLDEN_RTOL, "atol": W.GOLDEN_ATOL,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    tmp = BENCH.parent / ".bench_out" / "golden"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    for size in args.sizes:
        golden.setdefault("geometry-jets", {})[size] = geometry(size)
        golden.setdefault("all-default", {})[size] = all_default(size, tmp)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
