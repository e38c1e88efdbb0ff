"""fnlslab benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout; fnlslab is imported from its ``src/``.
Every workload runs in fresh worker processes with one BLAS thread.

--trace 0  times set-up in SETUP_REPEATS fresh processes (their median), then
           runs untraced passes for --seconds in one more process and reports
           the end-to-end metrics; times are calibrated to an idle core
           (perfbench/speed.py);
--trace 1  runs one untraced and one traced pass in one process and reports
           the per-layer metrics; the spans go to .perfbench/<workload>.spans.jsonl.

Standard output ends with a ``report`` line (every metric by name with unit
and sample count, machine facts, failures) and then one JSON object with the
keys correct, attempted, failed and metrics.  Inputs come from --seed only;
any seed works, so a claim made on one seed can be re-checked on another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

SETUP_REPEATS = 9
DEADLINE_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# workload -> (name of its throughput, name of its latency, what one latency sample times)
WORKLOAD_UNITS = {
    "preset_sweep": ("analyses_per_s", "run_p50_s", "one fnlslab run call"),
    "hires_audit": ("steps_per_s", "audit_p50_s", "one integrate + energy_audit"),
    "resonant_audit": ("snapshots_per_s", "snapshot_p50_s", "one snapshot of decomposition_series"),
    "criterion_batch": ("verdicts_per_s", "verdict_p50_s", "one check_wellposedness_condition"),
}

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "throughput_per_s")
LAYER_UNITS = {"calls": "count", "self_s": "s", "points": "count", "bytes": "B", "steps": "count",
               "step_us": "us", "trials": "count", "peak_mb": "MB", "overhead_s": "s"}


def _worker(mode: str, args, work_dir: str, t_end: float) -> dict:
    root = os.getcwd()
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    cmd = [sys.executable, "-m", "perfbench.worker", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--work-dir", work_dir]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, t_end - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "threads": THREAD_ENV,
    }


def calibrated(passes: list[dict]) -> tuple[float, float]:
    """Median (wall, busy) seconds of one pass on an idle core.

    Each pass's region times are scaled by the host's mean speed over that
    pass (see perfbench.speed), which takes out the stretches in which the
    shared host ran the process slowly; the median is over the passes.
    """
    wall = [sum(p["regions"]) * p["speed"] for p in passes]
    busy = [sum(p["regions"][i] for i in p["busy"]) * p["speed"] for p in passes]
    return statistics.median(wall), statistics.median(busy)


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(workload: str, out: dict, setup: list[dict]) -> dict:
    """Every end-to-end metric by name, with its unit and sample count."""
    passes = out["passes"]
    wall, busy = calibrated(passes)
    first = passes[0]
    throughput, latency, _ = WORKLOAD_UNITS[workload]
    ops = [s * p["speed"] for p in passes for s in p["op_s"]]
    n = len(passes)
    metrics = {
        "wall_s": _metric(wall, "s", n),
        "setup_s": _metric(statistics.median(s["setup_s"] for s in setup), "s", len(setup)),
        "peak_rss_mb": _metric(out["peak_rss_mb"], "MB", 1),
        "throughput_per_s": _metric(first["work"] / busy, "1/s", n),
        throughput: _metric(first["work"] / busy, "1/s", n),
        "fail_ratio": _metric(first["failed"] / first["attempted"], "1", first["attempted"]),
        latency: _metric(statistics.median(ops), "s", len(ops)),
        "raw_wall_s": _metric(statistics.median(sum(p["regions"]) for p in passes), "s", n),
        "raw_setup_s": _metric(statistics.median(s["raw_setup_s"] for s in setup), "s", len(setup)),
        "host_speed": _metric(statistics.median(p["speed"] for p in passes), "1", n),
    }
    if len(ops) >= 20:  # the highest percentile with at least ten samples beyond it
        q = int(100 * (1 - 10 / len(ops)))
        tail = statistics.quantiles(ops, n=100, method="inclusive")[q - 1]
        metrics[latency.replace("p50", f"p{q}")] = _metric(tail, "s", len(ops))
    return metrics


def repeatable(passes: list[dict]) -> bool:
    """Every pass produced the same outputs and the same check outcomes."""
    return len({(p["digest"], p["attempted"], tuple(p["failures"])) for p in passes}) == 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_UNITS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_end = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "fnlslab", "__init__.py")):
        print("run from the root of an fnlslab checkout (src/fnlslab not found)", file=sys.stderr)
        return 2

    base = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            out = _worker("trace", args, work_dir, t_end)
            shutil.move(os.path.join(work_dir, "spans.jsonl"),
                        os.path.join(base, f"{args.workload}.spans.jsonl"))
            report["metrics"] = {k: _metric(v, LAYER_UNITS[k.rsplit(".", 1)[1]], 1)
                                 for k, v in out["metrics"].items()}
            report.update(identical_artifacts=out["identical"], names_restored=out["restored"])
            correct = out["identical"] and out["restored"]
            gated = report["metrics"]
        else:
            setup = [_worker("setup", args, work_dir, t_end) for _ in range(SETUP_REPEATS)]
            out = _worker("measure", args, work_dir, t_end)
            report["metrics"] = end_to_end(args.workload, out, setup)
            correct = repeatable(out["passes"])
            report["identical_passes"] = correct
            gated = {k: report["metrics"][k] for k in END_TO_END}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = out["passes"]
    failures = sorted({f for p in passes for f in p["failures"]})
    report.update(passes=len(passes), failures=failures[:20], distinct_failures=len(failures),
                  machine=machine_facts())
    print("report " + json.dumps(report))
    result = {  # the operations of one pass; every further pass repeats them
        "correct": correct,
        "attempted": passes[0]["attempted"],
        "failed": passes[0]["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in gated.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
