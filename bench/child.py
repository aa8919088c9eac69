"""One measured child process of the benchmark.

Usage: python3 bench/child.py SPEC.json

SPEC names the workload plan, the mode and where to write the result:
  mode "setup"  - set up, report the time set-up finished, exit;
  mode "run"    - set up, run the workload body untraced;
  mode "trace"  - instrument equiwave, set up, run the body traced.
run.py starts this file with the BLAS/OpenMP thread variables
pinned to 1 and ``src`` first on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads  # noqa: E402  (bench/ is this script's directory)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    plan, mode = spec["plan"], spec["mode"]
    outdir = Path(spec["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)

    import equiwave

    src = Path(spec["src"]).resolve()
    if src not in Path(equiwave.__file__).resolve().parents:
        print(f"equiwave imported from {equiwave.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    inputs, artifacts = outdir / "inputs", outdir / "artifacts"
    inputs.mkdir(exist_ok=True)
    artifacts.mkdir(exist_ok=True)
    ctx = workloads.setup(plan, inputs)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "versions": versions()}
    if mode != "setup":
        body = workloads.BODIES[plan["workload"]]
        root = None
        t0 = time.perf_counter()
        if tracer is None:
            out = body(ctx, artifacts)
        else:
            root = len(tracer.start)
            out = tracer.span("workload", body, ctx, artifacts)
        result["wall_s"] = time.perf_counter() - t0
        result["digest"] = workloads.output_digest(plan["workload"], out, artifacts)
        result["output"] = workloads.collect(plan["workload"], out, artifacts)
        result["artifact_bytes"] = sum(p.stat().st_size for p in artifacts.iterdir())
        if tracer is not None:
            summary = tracer.summary()
            summary["root_s"], summary["self_sum_s"], summary["min_self_s"] = (
                tracer.self_time_sum(root))
            result["trace"] = summary
            tracer.write(outdir / "spans.npz")
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def versions() -> dict:
    import platform

    import numpy
    import scipy

    blas = None
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
