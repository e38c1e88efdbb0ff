"""Per-layer timings of fnlslab at cutoffs K = 32, 128, 512 and 2048.

    python tools/layer_bench.py --parent PARENT_CHECKOUT [--rounds 5] [--out BENCH.json]

Times, in microseconds per call, for the checkout this file sits in
("change") and for another checkout of the repository ("parent"), each in
fresh single-BLAS-thread processes that alternate which side goes first:

  rhs            one nonlinear RHS evaluation (the coefficient map of the
                 degree-3 example_d(1, 2)), out_cutoff = K
  rhs_rows       one RHS evaluation of the block map of `integrate_rows` for
                 the example_b(1) growth probe: example_b(1) and its control
                 cubic(i) at K and at 2K, four padded grids (absent on a
                 checkout without that map)
  step_1row      one IF-RK4 step of `integrate`, example_d(1, 2), alpha = 3
  step_2x1row    two one-row `integrate` steps: example_d(1, i) and its
                 control example_d(1, 2), the growth probe's pair
  step_2rows     one `integrate_rows` step of the same two rows (absent on
                 a checkout without `integrate_rows`)
  probe_step     one step of the growth probe's four rows: example_d(1, i)
                 and its control at K and at 2K; one `integrate_rows` call
                 where rows may differ in cutoff, else one call per cutoff
                 (absent on a checkout without `integrate_rows`)
  linear_step    one IF-RK4 step of `integrate`, linear_transport(i), whose
                 nonlinear part is zero
  energy         `modified_energy` of one snapshot, example_d(i, 2i),
                 alpha = 2.5 (ladder depth 2)
  criterion      one `check_wellposedness_condition` of example_d(1, 2),
                 which does not depend on K: satisfied, so every witness runs
  criterion_violated
                 the same for example_c(i), violated on the first
                 structured witness: the early exit

Within a process each time is the best of five repeats; the report gives the
median and the minimum over the rounds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

CUTOFFS = (32, 128, 512, 2048)
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _best_us(fn, n: int, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, (time.perf_counter() - t0) / n)
    return 1e6 * best


def measure() -> dict:
    """The timings of the fnlslab on sys.path, one dict per layer keyed by K."""
    from fnlslab import energy, evolution, nonlinearity, spectral

    out: dict = {}
    F, G = nonlinearity.example_d(1.0, 2.0), nonlinearity.example_d(1.0, 1j)
    balanced = nonlinearity.example_d(1j, 2j)
    ladder = energy.CorrectionLadder.build(2.5, 2.6)
    for k in CUTOFFS:
        rng = np.random.default_rng(k)
        phi = spectral.random_field(k // 2, 4.0, rng, amplitude=0.2).with_cutoff(k)
        steps = max(8, 6400 // k)
        cfg = evolution.EvolutionConfig(alpha=3.0, cutoff=k, dt=2.5e-4, horizon=steps * 2.5e-4)
        rhs = F.coefficient_map(k, k)
        row = {
            "rhs": _best_us(lambda: rhs(phi.coeffs), steps),
            "step_1row": _best_us(lambda: evolution.integrate(phi, F, cfg), 1) / steps,
            "step_2x1row": _best_us(
                lambda: (evolution.integrate(phi, G, cfg), evolution.integrate(phi, F, cfg)), 1
            ) / steps,
            "energy": _best_us(lambda: energy.modified_energy(phi, balanced, ladder), 3),
        }
        linear = nonlinearity.linear_transport(1j)
        row["linear_step"] = _best_us(lambda: evolution.integrate(phi, linear, cfg), 1) / steps
        if hasattr(nonlinearity, "_rows_coefficient_map"):
            # The rows in the order integrate_rows gives them: by cutoff, then degree.
            polys = [nonlinearity.example_b(1.0), nonlinearity.cubic(1j)] * 2
            cuts = [k, k, 2 * k, 2 * k]
            block = np.zeros((4, 4 * k + 1), dtype=np.complex128)
            for i, c in enumerate(cuts):
                block[i, 2 * k - c : 2 * k + c + 1] = phi.with_cutoff(c).coeffs
            try:
                rows_rhs = nonlinearity._rows_coefficient_map(polys, cuts, 2 * k)
            except TypeError:  # a checkout whose map takes no block width
                rows_rhs = nonlinearity._rows_coefficient_map(polys, cuts)
            row["rhs_rows"] = _best_us(lambda: rows_rhs(block), steps)
        if hasattr(evolution, "integrate_rows"):
            pair = [(phi, G, cfg), (phi, F, cfg)]
            row["step_2rows"] = _best_us(lambda: evolution.integrate_rows(pair), 1) / steps
            cfg_2k = dataclasses.replace(cfg, cutoff=2 * k)
            pair_2k = [(phi.with_cutoff(2 * k), G, cfg_2k), (phi.with_cutoff(2 * k), F, cfg_2k)]
            try:
                evolution.integrate_rows([pair[0], pair_2k[0]])
                probe = lambda: evolution.integrate_rows(pair + pair_2k)
            except ValueError:  # rows must share their cutoff
                probe = lambda: (evolution.integrate_rows(pair), evolution.integrate_rows(pair_2k))
            row["probe_step"] = _best_us(probe, 1) / steps
        for name, value in row.items():
            out.setdefault(name, {})[str(k)] = value
    for name, P in (("criterion", F), ("criterion_violated", nonlinearity.example_c(1j))):
        out[name] = {"any": _best_us(lambda: nonlinearity.check_wellposedness_condition(P), 3)}
    return out


def _run_side(checkout: str) -> dict:
    env = dict(os.environ, **ENV, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _summary(rounds: list[dict]) -> dict:
    out: dict = {}
    for layer in rounds[0]:
        out[layer] = {}
        for k in rounds[0][layer]:
            vals = [r[layer][k] for r in rounds]
            out[layer][k] = {"median_us": statistics.median(vals), "min_us": min(vals)}
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout to compare against")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--out", help="write the report here as JSON")
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return
    sides = {"change": os.path.dirname(os.path.dirname(os.path.abspath(__file__)))}
    if args.parent:
        sides["parent"] = os.path.abspath(args.parent)
    rounds: dict = {name: [] for name in sides}
    names = list(sides)
    for i in range(args.rounds):
        for name in names if i % 2 == 0 else names[::-1]:
            rounds[name].append(_run_side(sides[name]))
    report = {
        "command": "python tools/layer_bench.py --parent PARENT --rounds %d" % args.rounds,
        "unit": "us per call; best of 5 repeats in a process, then median and min over rounds",
        "rounds": args.rounds,
        "machine": {
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": ENV,
        },
        "layers": {name: _summary(r) for name, r in rounds.items()},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
