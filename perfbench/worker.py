"""One benchmark process: ``python3 -m perfbench.worker <mode> ...``.

Modes:

  setup    time ``import fnlslab`` plus building the workload's inputs, in
           this fresh process, and print {"setup_s": ..., "raw_setup_s": ...};
  measure  run untraced passes until --seconds is spent and print the pass
           records, each with the host's speed over it;
  trace    run one untraced and one traced pass and print the per-layer
           metrics, the tracing overhead and whether the two passes produced
           identical outputs.

The last line of standard output is one JSON object.  fnlslab must come from
``src/`` of the current directory; anything else exits with status 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

from .speed import SpeedSampler

MIN_PASSES = 2


def _import_library():
    import fnlslab

    src = os.path.realpath(os.path.join(os.getcwd(), "src", "fnlslab"))
    if os.path.dirname(os.path.realpath(fnlslab.__file__)) != src:
        print(f"fnlslab imported from {fnlslab.__file__}, not from {src}", file=sys.stderr)
        sys.exit(3)
    from . import workloads

    return workloads


def setup(workload: str, seed: int) -> dict:
    """Set-up time, raw and calibrated to an idle core (see perfbench.speed)."""
    with SpeedSampler("python") as sampler:
        sampler.bracket()
        p0, t0 = sampler.paused_s, time.perf_counter()
        workloads = _import_library()
        workloads.WORKLOADS[workload].build(seed)
        raw = (time.perf_counter() - t0) - (sampler.paused_s - p0)
        sampler.bracket()
    return {"setup_s": raw * sampler.speed(), "raw_setup_s": raw}


def measure(workload: str, seed: int, seconds: float, work_dir: str) -> dict:
    """Whole passes until the next one would overrun ``seconds`` (at least MIN_PASSES).

    Each pass record carries ``speed``, the host's mean speed over that pass.
    """
    w = _import_library().WORKLOADS[workload]
    inputs = w.build(seed)
    out_dir = os.path.join(work_dir, "pass")
    passes = []
    t0 = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            t_pass, first = time.perf_counter(), len(sampler.samples)
            record = dataclasses.asdict(w.run_pass(inputs, out_dir))
            record["speed"] = sampler.speed(first)
            passes.append(record)
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and (now - t0) + (now - t_pass) > seconds:
                break
    return {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(workload: str, seed: int, work_dir: str, tiny: bool = False) -> dict:
    """An untraced pass, then a traced one; per-layer metrics from the traced pass."""
    from .tracing import Tracer

    w = _import_library().WORKLOADS[workload]
    inputs = w.build(seed, tiny)
    plain = w.run_pass(inputs, os.path.join(work_dir, "untraced"))
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    try:
        traced = w.run_pass(inputs, os.path.join(work_dir, "traced"))
    finally:
        tracer.restore()
    restored = all(vars(owner)[attr] is original for owner, attr, original in patched)
    tracer.write_spans(os.path.join(work_dir, "spans.jsonl"))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = sum(traced.regions) - sum(plain.regions)
    return {
        "passes": [dataclasses.asdict(plain), dataclasses.asdict(traced)],
        "identical": plain.digest == traced.digest,
        "restored": restored,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench.worker")
    p.add_argument("mode", choices=("setup", "measure", "trace"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--work-dir", default=".")
    args = p.parse_args(argv)
    if args.mode == "setup":
        out = setup(args.workload, args.seed)
    elif args.mode == "measure":
        out = measure(args.workload, args.seed, args.seconds, args.work_dir)
    else:
        out = trace(args.workload, args.seed, args.work_dir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
