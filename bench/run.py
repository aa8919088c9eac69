"""Benchmark runner for equiwave.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one client: a fresh child
process per iteration (``bench/child.py``), one after another, while
another iteration is expected to end within ``--seconds`` (at least
one); the rest of the time measures set-up alone.  Every child has
OpenBLAS, OpenMP and MKL pinned to one thread.  Inputs come from the
seed alone; outputs are checked against ``bench/golden.json`` and the
workload's own invariants.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of untraced children.
--trace 1 runs pairs of an untraced and a traced child the same way,
and reports the per-layer metrics of the traced ones (spans are
written to .bench_out/<workload>/*/spans.npz).

Workloads, metrics and the layer map are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

BUDGET_S = 170.0         # a run must end within 180 s
SETUP_SAMPLES = 8        # set-up is measured at least this many times
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# counts that must repeat exactly in every traced run with one seed
EXACT_COUNTS = (
    "spectral.eigensolve.calls",
    "admissibility.estimate_h_infinity.calls",
    "solver.steps",
    "profiles.jet.calls",
    "spectral.basis_transform.calls",
)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)

# (span name, summary field, unit) for the per-layer metrics read from spans
SPAN_METRICS = (
    [(f"spectral.{n}", k, u) for n in ("eigensolve", "basis_transform", "build_operator",
                                      "frac_norm", "resolve")
     for k, u in (("calls", "count"), ("s", "s"))]
    + [("solver.integrate", "calls", "count"), ("solver.integrate", "s", "s"),
       ("solver.integrate", "self_s", "s"),
       ("solver.strichartz_trace", "s", "s"), ("solver.consistency_check", "s", "s")]
    + [(f"profiles.{n}", k, u) for n in ("gamma_decompose", "jet", "gg_prime")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [(f"admissibility.{n}", k, u)
       for n in ("check_admissibility", "check_perturbation", "estimate_h_infinity")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("reduction.compute_V", "calls", "count"), ("reduction.compute_V", "s", "s")]
    + [(f"estimates.{n}", "self_s", "s")
       for n in ("hardy_check", "smoothing_check", "strichartz_monitor", "dimshift_check")]
    + [(f"cli.run_{n}", "s", "s") for n in ("verify", "reduce", "estimates", "evolve")]
    + [("scenario.load_scenario", "s", "s")]
)
COUNTER_METRICS = (
    ("spectral.eigensolve.rows", "count"),
    ("spectral.basis_transform.bytes_computed", "bytes"),
    ("reduction.compute_V.points", "count"),
    ("solver.steps", "count"),
)
PER_LAYER = (
    [(f"{n}.{k}", u) for n, k, u in SPAN_METRICS]
    + list(COUNTER_METRICS)
    + [("solver.step_us", "us"), ("cli.artifact_bytes", "bytes"),
       ("trace.wall_s", "s"), ("trace.self_sum_s", "s"), ("trace.overhead_s", "s"),
       ("fail_ratio", "ratio")]
)


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Run:
    """One benchmark invocation: spawns children and collects samples."""

    def __init__(self, plan: dict, out: Path, golden: dict, deadline: float):
        self.plan, self.out, self.golden, self.deadline = plan, out, golden, deadline
        self.env = child_env()
        self.count = 0
        self.setup_samples: list[float] = []
        self.rows: list[tuple] = []     # (child, operation, ok, detail)
        self.versions = None

    def spawn(self, mode: str):
        """Run one child; returns its sample dict, or None if it failed
        (the failure is recorded in ``rows``)."""
        self.count += 1
        d = self.out / f"{self.count:03d}-{mode}"
        d.mkdir(parents=True)
        spec = {"plan": self.plan, "mode": mode, "outdir": str(d),
                "result": str(d / "result.json"), "src": str(SRC)}
        (d / "spec.json").write_text(json.dumps(spec))
        with open(d / "child.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(d / "spec.json")],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=str(ROOT))
            try:
                status, ru = _wait4(proc, self.deadline)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        label = f"{self.count:03d}-{mode}"
        result_path = d / "result.json"
        if status != 0 or not result_path.exists():
            reason = "timed out" if status is None else f"exit status {status}"
            self.rows.append((label, "child", False, f"{reason}; see {d / 'child.log'}"))
            return None
        res = json.loads(result_path.read_text())
        self.versions = res["versions"]
        sample = {"setup_s": res["t_ready"] - t0, "elapsed_s": time.monotonic() - t0,
                  "result": res,
                  "cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024.0}
        self.setup_samples.append(sample["setup_s"])
        if mode != "setup":
            sample["wall_s"] = res["wall_s"]
            try:
                rows = workloads.gate(self.plan, res["output"], self.golden)
            except (KeyError, TypeError, ValueError) as exc:  # output lacks a checked field
                rows = [("gate", False, f"{type(exc).__name__}: {exc}")]
            self.rows += [(label, *row) for row in rows]
        return sample

    def remaining(self) -> float:
        return self.deadline - time.monotonic()


def _wait4(proc, deadline):
    """Wait for the child and return (exit status, rusage); the rusage of
    the reaped child is what gives its CPU time and peak RSS.  A child
    past the deadline is killed and reported with status None."""
    killed = False
    while True:
        pid, status, ru = os.wait4(proc.pid, 0 if killed else os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return (None if killed else proc.returncode), ru
        if time.monotonic() > deadline:
            proc.kill()
            killed = True
            continue
        time.sleep(0.02)


def fits(t0: float, seconds: float, durations: list) -> bool:
    """Whether one more iteration is expected to end within ``seconds``
    of ``t0``; the first iteration always runs."""
    if not durations:
        return True
    return time.monotonic() - t0 + statistics.median(durations) <= seconds


def run_untraced(run: Run, seconds: float) -> dict:
    """Workload children while another one fits in ``seconds``, then
    set-up children for the rest of the time (and at least SETUP_SAMPLES
    set-up samples in all)."""
    run.spawn("setup")                  # warm-up: bytecode and page cache
    run.setup_samples.clear()
    samples = []
    t0 = time.monotonic()
    while fits(t0, seconds, [s["elapsed_s"] for s in samples]):
        s = run.spawn("run")
        if s is None:
            break
        samples.append(s)
    while ((time.monotonic() - t0 < seconds or len(run.setup_samples) < SETUP_SAMPLES)
           and run.remaining() > 15.0):
        run.spawn("setup")
    if not samples:
        return {}
    failed = sum(1 for r in run.rows if not r[2])

    def med(key):
        return statistics.median(s[key] for s in samples)

    return {
        "wall_s": med("wall_s"),
        "setup_s": statistics.median(run.setup_samples),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "pass_ratio": 1.0 - failed / len(run.rows),
    }


def layer_metrics(trace: dict, artifact_bytes: int) -> dict:
    spans, counters = trace["spans"], trace["counters"]
    m = {f"{n}.{k}": spans.get(n, {}).get(k, 0) for n, k, _ in SPAN_METRICS}
    m.update({name: counters.get(name, 0) for name, _ in COUNTER_METRICS})
    steps = m["solver.steps"]
    m["solver.step_us"] = 1e6 * m["solver.integrate.self_s"] / steps if steps else 0.0
    m["cli.artifact_bytes"] = artifact_bytes
    m["trace.wall_s"] = trace["root_s"]
    m["trace.self_sum_s"] = trace["self_sum_s"]
    return m


def run_traced(run: Run, seconds: float, counts_path: Path) -> dict:
    """Pairs of untraced and traced children; per-layer medians over the
    traced ones, and self-checks on each traced child."""
    plain, traced, durations = [], [], []
    t0 = time.monotonic()
    while fits(t0, seconds, durations):
        a = run.spawn("run")
        b = run.spawn("trace") if a is not None else None
        if b is None:
            break
        plain.append(a)
        traced.append(b)
        durations.append(a["elapsed_s"] + b["elapsed_s"])
        res, label = b["result"], f"{run.count:03d}-trace"
        same = res["digest"] == a["result"]["digest"]
        run.rows.append((label, "trace.same_output", same,
                         "" if same else "traced output differs from untraced"))
        # the self times must add up to the body's wall time, measured
        # around the root span, and none may be negative
        tr = res["trace"]
        ok = (abs(tr["self_sum_s"] - res["wall_s"]) <= 1e-3 + 1e-4 * res["wall_s"]
              and tr["min_self_s"] >= -1e-9)
        run.rows.append((label, "trace.self_time_sum", ok,
                         f"self times sum to {tr['self_sum_s']} (smallest "
                         f"{tr['min_self_s']}) for a body of {res['wall_s']} s"))
    if not traced:
        return {}
    per = [layer_metrics(b["result"]["trace"], b["result"]["artifact_bytes"]) for b in traced]
    key = f"{run.plan['workload']}|{run.plan['seed']}|{workloads.digest(run.plan)[:16]}"
    stored = json.loads(counts_path.read_text()) if counts_path.exists() else {}
    reference = stored.get(key) or {c: per[0][c] for c in EXACT_COUNTS}
    for i, m in enumerate(per):
        drift = [f"{c}: {m[c]} != {reference[c]}" for c in EXACT_COUNTS
                 if m[c] != reference.get(c)]
        run.rows.append((f"trace-{i}", "trace.exact_counts", not drift, "; ".join(drift)))
    stored[key] = reference
    counts_path.write_text(json.dumps(stored, indent=1, sort_keys=True))

    # counts repeat exactly, so their median is one of the samples
    metrics = {name: (statistics.median_low if unit in ("count", "bytes") else
                      statistics.median)(m[name] for m in per)
               for name, unit in PER_LAYER if name in per[0]}
    metrics["trace.overhead_s"] = (statistics.median(b["result"]["trace"]["root_s"]
                                                     for b in traced)
                                   - statistics.median(a["wall_s"] for a in plain))
    metrics["fail_ratio"] = sum(1 for r in run.rows if not r[2]) / len(run.rows)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="input size; 'tiny' is for the benchmark's self-test")
    ap.add_argument("--golden", type=Path, default=BENCH / "golden.json")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (SRC / "equiwave" / "__init__.py").is_file():
        print(f"error: no equiwave sources under {SRC}", file=sys.stderr)
        return 2
    if not args.golden.is_file():
        print(f"error: golden file {args.golden} is missing", file=sys.stderr)
        return 2
    golden = json.loads(args.golden.read_text())

    plan = workloads.make_plan(args.workload, args.seed, args.size)
    out = args.out / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(plan, out, golden, deadline)
    load_before = os.getloadavg()
    if args.trace:
        metrics = run_traced(run, args.seconds, args.out / "counts.json")
        units = dict(PER_LAYER)
    else:
        metrics = run_untraced(run, args.seconds)
        units = dict(END_TO_END)
    attempted = len(run.rows)
    failed = sum(1 for r in run.rows if not r[2])
    if not metrics:
        print("error: no child completed; see the logs under " + str(out), file=sys.stderr)
        for row in run.rows:
            print("  " + " | ".join(map(str, row)), file=sys.stderr)
        return 1

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
           "threads": {v: "1" for v in THREAD_VARS}, "versions": run.versions}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "children": run.count,
              "env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
              "failures": [r for r in run.rows if not r[2]][:50]}
    with open(args.out / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} size={args.size} "
          f"children={run.count} env={json.dumps(env)}")
    for row in run.rows:
        if not row[2]:
            print("# FAILED " + " | ".join(map(str, row)))
    for name, value in metrics.items():
        print(f"#   {name:<44} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
