"""Per-layer timings of fnlslab at cutoffs K = 32, 128, 512 and 2048.

    python tools/layer_bench.py --parent PARENT_CHECKOUT [--rounds 5] [--out BENCH.json]

Times, in microseconds per call, for the checkout this file sits in
("change") and for another checkout of the repository ("parent").  Each side
has one single-BLAS-thread process, kept alive for the whole run, and the
two measure one (layer, K) at a time, alternating which side goes first, so
that a swing in the host's speed lands on both sides alike.  The layers:

  rhs            one nonlinear RHS evaluation (the coefficient map of the
                 degree-3 example_d(1, 2)), out_cutoff = K
  evaluate       one `evaluate` of F_omega of example_d(1, 2) at full
                 bandwidth (2K): its coefficient map built and called once
  rhs_rows       one RHS evaluation of the block map of `integrate_rows` for
                 the example_b(1) growth probe: example_b(1) and its control
                 cubic(i) at K and at 2K, four padded grids
  step_1row      one IF-RK4 step of `integrate`, example_d(1, 2), alpha = 3
  step_2x1row    two one-row `integrate` steps: example_d(1, i) and its
                 control example_d(1, 2), the growth probe's pair
  step_2rows     one `integrate_rows` step of the same two rows
  probe_step     one step of the growth probe's four rows: example_d(1, i)
                 and its control at K and at 2K, one `integrate_rows` call
  linear_step    one IF-RK4 step of `integrate`, linear_transport(i), whose
                 nonlinear part is zero
  energy         `modified_energy` of one snapshot, example_d(i, 2i),
                 alpha = 2.5 (ladder depth 2)
  energy_audit   `energy_audit` of a 41-snapshot example_d(i, 2i) run,
                 alpha = 2.5 (ladder depth 2), per snapshot
  decomposition  `decomposition_series` of a three-snapshot example_c(i) run,
                 alpha = 3, per snapshot
  decomposition_peak
                 the tracemalloc peak, in MB (not us), of one call of that
                 series: the memory the `decomposition` layer needs
  estimates      one `run_ensemble` at the single cutoff K, per ensemble:
                 the four jobs of `run_estimates` (bilinear (0, 1, 1),
                 commutator s = 1 and s = -1, refined commutator s = 2.25),
                 each over 6 Gaussian pairs plus the adversarial ones
  samples        one `spectral._samples` of a (16, 2K+1) block of coefficient
                 rows, the size of an estimates block, onto the grid of their
                 full pair products (padded_size(K, 2K, 2K)), and one
                 `spectral._coefficients` of the samples back to |k| <= K
  criterion      one `check_wellposedness_condition` of example_d(1, 2),
                 which does not depend on K: satisfied, so the certificate
                 alone runs
  criterion_violated
                 the same for example_c(i): violated, so the certificate
                 and then the witness search, which exits on the first
                 structured witness
  criterion_cutoff2
                 the same for example_d(1, 1), which vanishes on every
                 constant: the search exits in the cutoff-2 structured
                 block, at witness 49
  criterion_random
                 the same for the violated F = (-1.4697 - 1.0917i) u_x^2
                 conj(u_x)^2, whose G is 0 on every structured field:
                 the search draws random fields and exits at witness 79

A round measures every (layer, K) once on each side.  Each time is the best
of five repeats, and each peak is one call; the report gives the median and
the minimum over the rounds.
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
import tracemalloc

import numpy as np

CUTOFFS = (32, 128, 512, 2048)
# The jobs of `run_estimates`, each one ensemble.
ESTIMATE_JOBS = (
    ("bilinear", {"s0": 0.0, "s1": 1.0, "s2": 1.0}),
    ("commutator", {"s": 1.0}),
    ("commutator", {"s": -1.0}),
    ("refined_commutator", {"s": 2.25}),
)
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _best_us(fn, n: int, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, (time.perf_counter() - t0) / n)
    return 1e6 * best


def _peak_mb(fn) -> float:
    """The tracemalloc peak of one fn() call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _layers_at(k: int) -> dict:
    """The layers measured at cutoff k: name -> a function timing it."""
    from fnlslab import energy, estimates, evolution, growth, nonlinearity, spectral

    F, G = nonlinearity.example_d(1.0, 2.0), nonlinearity.example_d(1.0, 1j)
    C = nonlinearity.example_c(1j)
    balanced = nonlinearity.example_d(1j, 2j)
    linear = nonlinearity.linear_transport(1j)
    ladder = energy.CorrectionLadder.build(2.5, 2.6)
    rng = np.random.default_rng(k)
    phi = spectral.random_field(k // 2, 4.0, rng, amplitude=0.2).with_cutoff(k)
    steps = max(8, 6400 // k)
    cfg = evolution.EvolutionConfig(alpha=3.0, cutoff=k, dt=2.5e-4, horizon=steps * 2.5e-4)
    rhs = F.coefficient_map(k, k)
    ensemble = estimates.EnsembleSpec(cutoffs=(k,), samples_per_cutoff=6, seed=k)
    omega = F.wirtinger("omega")
    series = evolution.integrate(phi, C, dataclasses.replace(cfg, horizon=2 * cfg.dt, record_every=1))
    pairs = spectral._random_coefficients(16, k, 1.0, rng)
    m = spectral.padded_size(k, 2 * k, 2 * k)
    audited = evolution.integrate(
        phi, balanced, dataclasses.replace(cfg, alpha=2.5, horizon=40 * cfg.dt, record_every=1)
    )
    row = {
        "rhs": lambda: _best_us(lambda: rhs(phi.coeffs), steps),
        "evaluate": lambda: _best_us(lambda: omega.evaluate(phi), steps),
        "step_1row": lambda: _best_us(lambda: evolution.integrate(phi, F, cfg), 1) / steps,
        "step_2x1row": lambda: _best_us(
            lambda: (evolution.integrate(phi, G, cfg), evolution.integrate(phi, F, cfg)), 1
        ) / steps,
        "energy": lambda: _best_us(lambda: energy.modified_energy(phi, balanced, ladder), 3),
        "energy_audit": lambda: _best_us(
            lambda: energy.energy_audit(audited, balanced, ladder.r), 1
        ) / len(audited.times),
        "linear_step": lambda: _best_us(lambda: evolution.integrate(phi, linear, cfg), 1) / steps,
        "decomposition": lambda: _best_us(
            lambda: growth.decomposition_series(series, C), 1
        ) / len(series.times),
        "decomposition_peak": lambda: _peak_mb(lambda: growth.decomposition_series(series, C)),
        "estimates": lambda: _best_us(
            lambda: [estimates.run_ensemble(op, ensemble, **p) for op, p in ESTIMATE_JOBS], 1
        ) / len(ESTIMATE_JOBS),
        "samples": lambda: _best_us(lambda: spectral._coefficients(spectral._samples(pairs, m), k), steps),
    }
    polys = [nonlinearity.example_b(1.0), nonlinearity.cubic(1j)] * 2
    cuts = [k, k, 2 * k, 2 * k]
    block = np.zeros((4, 4 * k + 1), dtype=np.complex128)
    for i, c in enumerate(cuts):
        block[i, 2 * k - c : 2 * k + c + 1] = phi.with_cutoff(c).coeffs
    rows_rhs = nonlinearity._rows_coefficient_map(polys, cuts, 2 * k)
    row["rhs_rows"] = lambda: _best_us(lambda: rows_rhs(block), steps)
    pair = [(phi, G, cfg), (phi, F, cfg)]
    row["step_2rows"] = lambda: _best_us(lambda: evolution.integrate_rows(pair), 1) / steps
    cfg_2k = dataclasses.replace(cfg, cutoff=2 * k)
    pair_2k = [(phi.with_cutoff(2 * k), G, cfg_2k), (phi.with_cutoff(2 * k), F, cfg_2k)]
    row["probe_step"] = lambda: _best_us(lambda: evolution.integrate_rows(pair + pair_2k), 1) / steps
    return row


def cases() -> dict:
    """The layers of the fnlslab on sys.path: (layer, K) -> a function timing it."""
    from fnlslab import nonlinearity

    out = {(name, str(k)): fn for k in CUTOFFS for name, fn in _layers_at(k).items()}
    random_witness = nonlinearity.parse_nonlinearity("0 2 0 2 -1.4696764789658596 -1.0917222141854408")
    for name, P in (("criterion", nonlinearity.example_d(1.0, 2.0)),
                    ("criterion_violated", nonlinearity.example_c(1j)),
                    ("criterion_cutoff2", nonlinearity.example_d(1.0, 1.0)),
                    ("criterion_random", random_witness)):
        out[name, "any"] = lambda P=P: _best_us(lambda: nonlinearity.check_wellposedness_condition(P), 3)
    return out


def serve() -> None:
    """Answer requests on stdin, one JSON line each, until it closes.

    ``"cases"`` gets the list of [layer, K] this checkout has; a [layer, K]
    gets its time in microseconds.
    """
    table = cases()
    for line in sys.stdin:
        request = json.loads(line)
        reply = [list(key) for key in table] if request == "cases" else table[tuple(request)]()
        print(json.dumps(reply), flush=True)


class _Side:
    """A measuring process kept alive for the whole run, on one checkout's src."""

    def __init__(self, checkout: str):
        env = dict(os.environ, **ENV, PYTHONPATH=os.path.join(checkout, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve"],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"measuring process exited with status {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _summary(times: dict) -> dict:
    out: dict = {}
    for (layer, k), vals in times.items():
        unit = "mb" if layer.endswith("_peak") else "us"
        out.setdefault(layer, {})[k] = {f"median_{unit}": statistics.median(vals), f"min_{unit}": min(vals)}
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
    p.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.serve:
        serve()
        return
    checkouts = {"change": os.path.dirname(os.path.dirname(os.path.abspath(__file__)))}
    if args.parent:
        checkouts["parent"] = os.path.abspath(args.parent)
    sides = {name: _Side(path) for name, path in checkouts.items()}
    try:
        times = {name: {tuple(key): [] for key in side.ask("cases")} for name, side in sides.items()}
        keys = list(dict.fromkeys(key for t in times.values() for key in t))
        names = list(sides)
        for r in range(args.rounds):
            for j, key in enumerate(keys):
                for name in names if (r + j) % 2 == 0 else names[::-1]:
                    if key in times[name]:
                        times[name][key].append(sides[name].ask(list(key)))
    finally:
        for side in sides.values():
            side.close()
    report = {
        "command": "python tools/layer_bench.py --parent PARENT --rounds %d" % args.rounds,
        "unit": "us per call, best of 5 repeats in a process (a *_peak layer: MB, one call); median and min over rounds",
        "rounds": args.rounds,
        "machine": {
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": ENV,
        },
        "layers": {name: _summary(t) for name, t in times.items()},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
