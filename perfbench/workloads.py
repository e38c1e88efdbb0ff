"""The four benchmark workloads.

Each workload builds its inputs from the workload seed (``build``) and then
runs one *pass* over them (``run_pass``), checking every operation.  A pass
returns the timed regions it measured, the operation counts and a digest of
everything it produced, so that repeated passes and the traced pass can be
compared byte for byte.

Only public functions of ``fnlslab`` are called, always through their module
(``evolution.integrate``, never a name imported into this file), so the
tracer sees each call at the binding the library itself uses.

``build(seed, tiny=True)`` gives small inputs for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from fnlslab import cli, energy, evolution, experiments, growth, nonlinearity, spectral

from . import speed

# (family, CLI coefficient flags, well-posed by construction)
PRESET_FAMILIES = (
    ("cubic", ("--c", "i"), True),
    ("example_b", ("--c", "1"), False),
    ("example_c", ("--c", "i"), False),
    ("example_c", ("--c", "1"), True),
    ("example_d", ("--c1", "1", "--c2", "2"), True),
    ("example_d", ("--c1", "1", "--c2", "i"), False),
    ("linear_transport", ("--c", "i"), False),
)
ALPHAS = (2.5, 3.0, 4.0)


@dataclass
class PassResult:
    """Timed regions, checks and output digest of one pass over a workload's inputs.

    ``regions`` holds every timed call of the pass in program order, so the
    i-th region of two passes is the same operation; ``busy`` indexes the
    regions that did the throughput ``work``; ``op_s`` holds one latency
    sample per user-visible operation.
    """

    regions: list[float] = field(default_factory=list)
    busy: list[int] = field(default_factory=list)
    work: int = 0  # units of throughput work (analyses, steps, snapshots, verdicts)
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    def timed(self, fn, *args, busy: bool = False, **kwargs):
        """Call fn, record its duration as the next region, return its result.

        Time the speed sampler spent inside the call is left out.
        """
        p0, t0 = speed.paused_s(), time.perf_counter()
        out = fn(*args, **kwargs)
        t1, p1 = time.perf_counter(), speed.paused_s()
        if busy:
            self.busy.append(len(self.regions))
        self.regions.append((t1 - t0) - (p1 - p0))
        return out

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _hash_arrays(h, *arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


def _hash_tree(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _smooth_data(cutoff: int, rng: np.random.Generator, amplitude: float) -> spectral.SpectralField:
    """Random field with <k>^-4 decay supported on |k| <= cutoff // 2."""
    band = max(cutoff // 2, 2)
    return spectral.random_field(band, 4.0, rng, amplitude=amplitude).with_cutoff(cutoff)


# -- preset_sweep --------------------------------------------------------------


def _cli_run(argv: list[str]):
    """Exit status of one in-process ``fnlslab`` call; a crash is reported, not raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class PresetSweep:
    """21 ``fnlslab run`` calls: 7 families x alpha in {2.5, 3, 4}, default sizes."""

    name = "preset_sweep"

    def build(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 1])
        calls = []
        for alpha in ALPHAS[1:2] if tiny else ALPHAS:
            for family, flags, wellposed in PRESET_FAMILIES[::3] if tiny else PRESET_FAMILIES:
                argv = ["run", "--preset", family, *flags, "--alpha", repr(alpha)]
                argv += ["--seed", str(int(rng.integers(0, 2**31)))]
                calls.append((f"{family}{list(flags)}@{alpha}", argv, wellposed))
        return calls

    def run_pass(self, calls, out_dir: str) -> PassResult:
        res = PassResult()
        shutil.rmtree(out_dir, ignore_errors=True)
        for i, (label, argv, wellposed) in enumerate(calls):
            run_dir = os.path.join(out_dir, f"run_{i:02d}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = res.timed(_cli_run, [*argv, "--out", run_dir], busy=True)
            res.op_s.append(res.regions[-1])
            res.check(code == 0, f"{label}: exit {code}")
            summary_path = os.path.join(run_dir, "summary.json")
            if not os.path.exists(summary_path):
                res.check(False, f"{label}: no summary.json")
                continue
            with open(summary_path) as fh:
                summary = json.load(fh)
            for a in summary["analyses"]:
                ok = a["pass"]
                if a["name"] == "criterion":
                    ok = ok and a["metrics"]["satisfied"] == wellposed
                res.check(ok, f"{label}: {a['name']}")
                res.work += 1
        res.digest = _hash_tree(out_dir)
        return res


# -- hires_audit ---------------------------------------------------------------


class HiresAudit:
    """integrate + energy_audit of well-posed example_d(1, 2) at K = 2048, alpha = 3."""

    name = "hires_audit"

    def build(self, seed: int, tiny: bool = False):
        cutoff = 32 if tiny else 2048
        rng = np.random.default_rng([seed, 2])
        cfg = evolution.EvolutionConfig(
            alpha=3.0, eps=0.0, cutoff=cutoff, dt=2.5e-4, horizon=0.1, record_every=10
        )
        F = nonlinearity.example_d(1.0, 2.0)
        phi = _smooth_data(cutoff, rng, amplitude=0.2)
        return phi, F, cfg

    def run_pass(self, inputs, out_dir: str) -> PassResult:
        phi, F, cfg = inputs
        res = PassResult()
        r = experiments.regularity_threshold(cfg.alpha) + 0.1
        traj = res.timed(evolution.integrate, phi, F, cfg, busy=True)
        trace = res.timed(energy.energy_audit, traj, F, r)
        res.op_s.append(sum(res.regions))
        res.work = steps = int(round(traj.times[-1] / cfg.dt))
        expected = int(round(cfg.horizon / cfg.dt))
        res.check(
            not traj.truncated and steps == expected and len(traj.times) == 41,
            f"integrate: truncated={traj.truncated} steps={steps}",
        )
        violations = int(np.sum(~trace.coercivity_ok))
        res.check(
            violations == 0 and bool(np.all(np.isfinite(trace.energy))),
            f"energy_audit: {violations} coercivity violations",
        )
        h = hashlib.sha256()
        _hash_arrays(h, traj.times, *(s.coeffs for s in traj.snapshots))
        _hash_arrays(h, trace.energy, trace.corrections, trace.coercivity_ok)
        res.digest = h.hexdigest()
        return res


# -- resonant_audit ------------------------------------------------------------


class ResonantAudit:
    """Bounded cubic(i) and example_c(i) runs at K = 384 through the resonant audit."""

    name = "resonant_audit"

    def build(self, seed: int, tiny: bool = False):
        cutoff = 16 if tiny else 384
        rng = np.random.default_rng([seed, 3])
        cfg = evolution.EvolutionConfig(
            alpha=3.0, eps=0.0, cutoff=cutoff, dt=1e-3, horizon=0.05, record_every=5
        )
        runs = [
            ("cubic(i)", nonlinearity.cubic(1j), _smooth_data(cutoff, rng, amplitude=0.3)),
            ("example_c(i)", nonlinearity.example_c(1j), _smooth_data(cutoff, rng, amplitude=0.3)),
        ]
        # linear transport collapses every part except the diagonal one
        lk = 12
        ks = np.arange(-lk, lk + 1)
        phases = np.exp(2j * np.pi * rng.random(2 * lk + 1))
        lin_phi = spectral.SpectralField(np.exp(-np.abs(ks).astype(float)) * phases, lk)
        lin_cfg = evolution.EvolutionConfig(
            alpha=3.0, eps=0.0, cutoff=lk, dt=1e-3, horizon=0.1, record_every=20
        )
        return cfg, runs, (lin_phi, nonlinearity.linear_transport(1j), lin_cfg)

    def run_pass(self, inputs, out_dir: str) -> PassResult:
        cfg, runs, (lin_phi, lin_F, lin_cfg) = inputs
        res = PassResult()
        h = hashlib.sha256()
        s = experiments.regularity_threshold(cfg.alpha) + 0.1
        for label, F, phi in runs:
            traj = res.timed(evolution.integrate, phi, F, cfg)
            res.check(not traj.truncated, f"{label}: truncated run")
            shifted = res.timed(growth.gauge_shift, traj, F)
            series = res.timed(growth.decomposition_series, shifted, F, busy=True)
            res.work += len(series)
            res.op_s.append(res.regions[-1] / len(series))
            audit = res.timed(growth.resonant_norm_audit, series, s, cfg.alpha)
            for parts in series:
                _hash_arrays(h, *parts.by_name().values())
            for name, pn in audit.items():
                res.check(not pn.flagged, f"{label}: resonant part {name} flagged")
        lin_traj = res.timed(evolution.integrate, lin_phi, lin_F, lin_cfg)
        worst = 0.0
        for t in lin_traj.times[1:]:
            parts = res.timed(growth.resonant_decomposition, lin_traj, lin_F, t)
            for name in ("n11", "n21", "m1", "m2", "k1", "k2"):
                worst = max(worst, float(np.max(np.abs(parts.by_name()[name]))))
        res.check(worst < 1e-12, f"linear collapse residual {worst:.2e}")
        h.update(repr(worst).encode())
        res.digest = h.hexdigest()
        return res


# -- criterion_batch -----------------------------------------------------------

LAMBDA_DECADES = (-12.0, 8.0)


def _wellposed_term(kind: int, rng: np.random.Generator) -> nonlinearity.PolynomialNonlinearity:
    """One criterion-satisfying family term; ``kind`` picks the family."""
    z = complex(rng.normal(), rng.normal())
    x = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    if kind == 0:
        return nonlinearity.cubic(z)
    if kind == 1:
        return nonlinearity.example_c(x)
    if kind == 2:  # Re(2 c1 - c2) = 0
        return nonlinearity.example_d(z, complex(2 * z.real, rng.normal()))
    return nonlinearity.linear_transport(x)


def _violating_term(kind: int, rng: np.random.Generator) -> nonlinearity.PolynomialNonlinearity:
    """One criterion-violating family term; ``kind`` picks the family."""
    y = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    if kind == 0:
        return nonlinearity.example_b(complex(rng.normal(), y), m=1 + int(rng.integers(0, 2)))
    if kind == 1:
        return nonlinearity.example_c(complex(rng.normal(), y))
    if kind == 2:  # Re(2 c1 - c2) = y != 0
        c1 = complex(rng.normal(), rng.normal())
        return nonlinearity.example_d(c1, complex(2 * c1.real - y, rng.normal()))
    return nonlinearity.linear_transport(complex(rng.normal(), y))


class CriterionBatch:
    """400 criterion verdicts on seeded random polynomials plus one run_estimates.

    Half the polynomials are well-posed by construction (a sum of satisfying
    family terms), half add one violating term.  Each is scaled by lambda,
    log-uniform over [1e-12, 1e8]; the scales are drawn stratified (one per
    equal slice of the log range, then shuffled) so every seed covers the
    range evenly.  The family mix cycles with the index; the seed draws the
    coefficients and the scales.
    """

    name = "criterion_batch"

    def build(self, seed: int, tiny: bool = False):
        n = 8 if tiny else 400
        rng = np.random.default_rng([seed, 4])
        lo, hi = LAMBDA_DECADES
        scales = 10.0 ** (lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n)
        rng.shuffle(scales)
        cases = []
        for i in range(n):
            wellposed = i % 2 == 0
            j = i // 2
            F = nonlinearity.PolynomialNonlinearity.zero()
            for t in range(1 + j % 3):
                F = F + _wellposed_term((j + t) % 4, rng)
            if not wellposed:
                F = F + _violating_term(j % 4, rng)
            cases.append((F * float(scales[i]), wellposed, float(scales[i])))
        return cases, int(rng.integers(0, 2**31)), tiny

    def run_pass(self, inputs, out_dir: str) -> PassResult:
        cases, est_seed, tiny = inputs
        res = PassResult()
        h = hashlib.sha256()
        for i, (F, wellposed, lam) in enumerate(cases):
            verdict = res.timed(nonlinearity.check_wellposedness_condition, F, seed=i, busy=True)
            res.op_s.append(res.regions[-1])
            res.work += 1
            res.check(
                verdict.satisfied == wellposed,
                f"case {i} (lambda={lam:.3g}): satisfied={verdict.satisfied}, "
                f"constructed {'well' if wellposed else 'ill'}-posed",
            )
            h.update(f"{verdict.satisfied} {verdict.trials} {verdict.witness_value!r}\n".encode())
        shutil.rmtree(out_dir, ignore_errors=True)
        summary = res.timed(experiments.run_estimates, out_dir, seed=est_seed, quick=tiny)
        for a in summary["analyses"]:
            res.check(a["pass"], f"estimates: {a.get('estimate', a.get('name'))}")
        h.update(_hash_tree(out_dir).encode())
        res.digest = h.hexdigest()
        return res


WORKLOADS = {w.name: w for w in (PresetSweep(), HiresAudit(), ResonantAudit(), CriterionBatch())}
