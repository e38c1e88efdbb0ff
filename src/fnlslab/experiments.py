"""Named experiment presets, artifact emission, and the machine-readable summary.

Each PRESETS record holds everything known about one nonlinearity family: its
constructor, evolution defaults, the analyses that make sense for it, its
closed-form criterion verdict, a readable witness and a well-posed sibling
that the growth probe runs as its control.

Paired-resolution probes evaluate the data recipe at each run's own cutoff.
The two data are not one datum and its truncation: each draws its tail phases
in order of increasing k (on the minus side from k = -cutoff) and scales its
tail by its own truncated norm, so they differ on shared modes (ROADMAP item
1).  Well-posed control pairs use a fast-decay tail so the unresolved data
tail sits far below the agreement threshold.

A run builds one record, `_Run`, of its inputs and the two products its
analyses share (the criterion verdict and the smooth datum's runs); each
analysis is a method of it that returns (pass, metrics).

Every run writes into its artifact directory: trajectory CSVs with JSON
sidecars, energy/growth/ratio CSVs, gnuplot scripts for them, and a
summary.json of shape {preset, seed, analyses: [{name, pass, metrics}]} with
the effective configuration echoed for provenance as `config`.  `estimates`
writes the same `analyses` shape, without `config`.  Outputs are
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from . import energy as energy_mod
from . import estimates as est_mod
from . import growth as growth_mod
from .evolution import (
    EvolutionConfig,
    TrajectoryRecord,
    _multipliers,
    _write_json,
    eps_convergence_table,
    integrate,
    integrate_rows,
    sup_l2_gap,
    write_trajectory,
)
from .nonlinearity import (
    PolynomialNonlinearity,
    check_wellposedness_condition,
    criterion_functional,
    cubic,
    example_b,
    example_c,
    example_d,
    format_nonlinearity,
    linear_transport,
)
from .spectral import SpectralField, random_field

__all__ = [
    "ExperimentPreset",
    "PRESETS",
    "SETTINGS",
    "parse_settings",
    "family_params",
    "regularity_threshold",
    "run",
    "sweep",
    "run_estimates",
    "paired_growth_probe",
    "parse_config_file",
    "parse_complex",
]


def regularity_threshold(alpha: float) -> float:
    """max(alpha/2 + 1, 5/2): the Sobolev index above which the theory applies."""
    return max(alpha / 2.0 + 1.0, 2.5)


def parse_complex(text: str | complex) -> complex:
    """Accept '1', '-2.5', 'i', '-i', '2i', '1+2i' (j also works); a number as given."""
    if not isinstance(text, str):
        return text
    t = text.strip().replace("i", "j")
    if t in ("j", "+j"):
        return 1j
    if t == "-j":
        return -1j
    return complex(t)


def _nonnegative_int(value: str | int) -> int:
    """A string through int(), any other value through operator.index, so a bool,
    a float or another non-integral value is rejected; and it must be >= 0."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    n = int(value) if isinstance(value, str) else operator.index(value)
    if n < 0:
        raise ValueError(f"{n} is negative")
    return n


# Every run setting and its parser, which takes a string or an already-typed
# value: the run's seed, the evolution settings and the family parameters.  The
# CLI flags, the --config keys and the sweep axes (all but seed) are these names.
SETTINGS = {
    "seed": _nonnegative_int,
    "alpha": float, "eps": float, "modes": _nonnegative_int, "dt": float, "horizon": float,
    "record_every": _nonnegative_int,
    "c": parse_complex, "m": _nonnegative_int, "c1": parse_complex, "c2": parse_complex,
}

# The SETTINGS key of each EvolutionConfig field a run sets: its own name, but
# `modes` for cutoff.  blowup_ceiling is no run setting.
_CONFIG_KEYS = {
    f.name: key for f in fields(EvolutionConfig)
    if (key := "modes" if f.name == "cutoff" else f.name) in SETTINGS
}


def parse_settings(raw: dict, sources: dict | None = None) -> dict:
    """Type each value of `raw` by its SETTINGS parser; other keys are a ValueError.

    A value its parser rejects is a ValueError naming where the value came
    from: ``sources[key]`` (a flag, or a config file's path:line), else the key.
    """
    unknown = sorted(set(raw) - set(SETTINGS))
    if unknown:
        raise ValueError(f"unknown settings {unknown}; have {sorted(SETTINGS)}")
    typed = {}
    for key, value in raw.items():
        try:
            typed[key] = SETTINGS[key](value)
        except (TypeError, ValueError) as exc:
            where = (sources or {}).get(key, key)
            raise ValueError(f"{where}: invalid {key} value {value!r} ({exc})") from None
    return typed


_DEFAULT_CONFIG = EvolutionConfig(alpha=3.0, cutoff=32, dt=2.5e-4, horizon=0.1)


@dataclass(frozen=True)
class ExperimentPreset:
    """One nonlinearity family: constructor, run defaults and what is known of it.

    ``config`` holds the evolution defaults of its runs, ``wellposed(params)``
    the closed-form criterion verdict, ``witness(params)`` the modes (at cutoff
    2) of a readable field on which a violating member fails the criterion, and
    ``sibling(params)`` a well-posed control for the probe.
    """

    family: Callable[..., PolynomialNonlinearity]
    default_params: dict
    analyses: tuple[str, ...]
    wellposed: Callable[[dict], bool]
    witness: Callable[[dict], dict]
    sibling: Callable[[dict], PolynomialNonlinearity]
    config: EvolutionConfig = _DEFAULT_CONFIG


def _example_b_witness(p: dict) -> dict:
    # the constant on which c u^m has argument pi/2 (any constant when c = 0)
    c, m = complex(p["c"]), p["m"]
    return {0: c ** (-1.0 / m) * np.exp(1j * np.pi / (2 * m)) if c != 0 else 1.0}


PRESETS: dict[str, ExperimentPreset] = {
    "cubic": ExperimentPreset(
        family=cubic,
        default_params={"c": 1j},
        analyses=("criterion", "energy_audit", "eps_rate"),
        wellposed=lambda p: True,
        witness=lambda p: {0: 1.0},
        sibling=lambda p: cubic(1j),
        config=replace(_DEFAULT_CONFIG, eps=1e-2, dt=1e-3, horizon=0.25, record_every=25),
    ),
    "example_b": ExperimentPreset(
        family=example_b,
        default_params={"c": 1.0, "m": 1},
        analyses=("criterion", "dynamics"),
        wellposed=lambda p: p["c"] == 0,
        witness=_example_b_witness,
        sibling=lambda p: cubic(1j),
        config=replace(_DEFAULT_CONFIG, horizon=0.18),
    ),
    "example_c": ExperimentPreset(
        family=example_c,
        default_params={"c": 1j},
        analyses=("criterion", "dynamics"),
        wellposed=lambda p: p["c"].imag == 0.0,
        witness=lambda p: {0: 1.0},
        sibling=lambda p: example_c(c=abs(p["c"])),
    ),
    "example_d": ExperimentPreset(
        family=example_d,
        default_params={"c1": 1.0, "c2": 2.0},
        analyses=("criterion", "dynamics"),
        wellposed=lambda p: (2 * p["c1"] - p["c2"]).real == 0.0,
        witness=lambda p: {1: 1.0},
        sibling=lambda p: example_d(c1=p["c1"], c2=2 * p["c1"]),
        config=replace(_DEFAULT_CONFIG, horizon=0.18),
    ),
    "linear_transport": ExperimentPreset(
        family=linear_transport,
        default_params={"c": 1j},
        analyses=("criterion", "linear_regression", "dynamics"),
        wellposed=lambda p: p["c"].imag == 0.0,
        witness=lambda p: {0: 1.0},
        sibling=lambda p: linear_transport(c=p["c"].real),
        config=replace(_DEFAULT_CONFIG, cutoff=64, dt=1e-3, horizon=1.0),
    ),
}
_FAMILY_PARAMS = frozenset(key for spec in PRESETS.values() for key in spec.default_params)


def family_params(preset_name: str, settings: dict) -> dict:
    """The preset's family parameters updated from typed `settings` (evolution
    settings are ignored); a parameter of another family is a ValueError."""
    if preset_name not in PRESETS:
        raise KeyError(f"unknown preset {preset_name!r}; have {sorted(PRESETS)}")
    defaults = PRESETS[preset_name].default_params
    foreign = sorted(k for k in settings if k in _FAMILY_PARAMS and k not in defaults)
    if foreign:
        raise ValueError(f"{preset_name} takes {sorted(defaults)}, not {foreign}")
    return {k: settings.get(k, v) for k, v in defaults.items()}


def _no_family_params(settings: dict) -> None:
    """A ValueError if `settings` hold a family parameter: an explicit nonlinearity reads none."""
    if given := sorted(set(settings) & _FAMILY_PARAMS):
        raise ValueError(f"an explicit nonlinearity takes no family parameters: {given}")


# -- analyses -------------------------------------------------------------------


def _verdict_fields(verdict) -> dict:
    """A CriterionVerdict as `check` prints it and the criterion analysis records it."""
    return {k: v for k, v in vars(verdict).items() if k != "witness"}


def _smooth_small_data(cutoff: int, seed: int, amplitude: float = 0.2) -> SpectralField:
    # Band-limited inside cutoff // 2 so paired-resolution runs share the datum.
    rng = np.random.default_rng(seed)
    return random_field(max(cutoff // 2, 2), 4.0, rng, amplitude=amplitude).with_cutoff(cutoff)


# The viscosities of the eps_rate analysis.
_EPS_STUDY = (1e-1, 1e-2, 1e-3)


def paired_growth_probe(
    F: PolynomialNonlinearity,
    witness: SpectralField,
    cfg: EvolutionConfig,
    s: float,
    side: str = "minus",
    seed: int = 0,
    *,
    control: PolynomialNonlinearity,
):
    """Paired K / 2K runs of the rough data recipe, plus a verdict.

    The datum (witness + one-sided rough tail with phases from `seed`) is
    evaluated at each run's own cutoff.  The control nonlinearity runs on an
    identical-protocol pair with a fast-decay tail whose unresolved part is
    negligible, providing the convergence baseline.
    """
    k = cfg.cutoff
    cfg_2k = replace(cfg, cutoff=2 * k)
    phi_k = growth_mod.probe_initial_data(witness, k, s, side=side, seed=seed)
    phi_2k = growth_mod.probe_initial_data(witness, 2 * k, s, side=side, seed=seed)
    # The runs and the control runs at both cutoffs advance as one block.
    smooth_k = _control_data(witness, k, s, side, seed)
    smooth_2k = smooth_k.with_cutoff(2 * k)
    run_k, c_k, run_2k, c_2k = integrate_rows([
        (phi_k, F, cfg), (smooth_k, control, cfg),
        (phi_2k, F, cfg_2k), (smooth_2k, control, cfg_2k),
    ])
    report = growth_mod.directional_growth(run_k, F, side=side, paired=run_2k)
    verdict = growth_mod.nonexistence_verdict(report, control_divergence=sup_l2_gap(c_k, c_2k))
    return report, verdict, run_k, run_2k


def _control_data(witness, cutoff, s, side, seed):
    tail = random_field(cutoff, s + 4.0, np.random.default_rng(seed), amplitude=0.1, side=side)
    return growth_mod._with_tail(witness, tail)


@dataclass(frozen=True)
class _Run:
    """One run: its inputs, the products its analyses share, and the analyses.

    Each analysis is a method named as in ``ExperimentPreset.analyses``; it
    writes its artifacts into ``out_dir`` and returns ``(pass, metrics)``.
    ``study`` holds the viscosities of the eps study, empty when the run has
    none.
    """

    spec: ExperimentPreset
    F: PolynomialNonlinearity
    params: dict
    custom: bool
    cfg: EvolutionConfig
    seed: int
    out_dir: str
    study: tuple[float, ...]

    @functools.cached_property
    def verdict(self):
        """The criterion verdict, computed on first use and shared by every analysis."""
        return check_wellposedness_condition(self.F, seed=self.seed)

    @functools.cached_property
    def smooth(self) -> dict[float, TrajectoryRecord]:
        """The runs from `_smooth_small_data` at the run's eps and at each eps of
        the study, by eps, integrated as one block on first use: the energy
        audit's run is bitwise the study's row of the same eps (a row's record
        does not depend on the rows beside it)."""
        eps_values = list(dict.fromkeys((self.cfg.eps, *self.study)))
        phi = _smooth_small_data(self.cfg.cutoff, self.seed)
        runs = integrate_rows([(phi, self.F, replace(self.cfg, eps=e)) for e in eps_values])
        return dict(zip(eps_values, runs))

    def _path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def _write_trajectory(self, traj: TrajectoryRecord, stem: str) -> None:
        """`traj` as stem.csv with its sidecar stem.json, which names F for `audit`."""
        write_trajectory(traj, self._path(stem + ".csv"), self._path(stem + ".json"),
                         extra={"nonlinearity": format_nonlinearity(self.F)})

    def criterion(self):
        verdict = self.verdict
        expected = None if self.custom else self.spec.wellposed(self.params)
        ok = True if expected is None else verdict.satisfied == expected
        metrics = {**_verdict_fields(verdict), "expected": expected}
        if verdict.witness is not None:
            metrics["witness"] = [
                [int(k), float(c.real), float(c.imag)]
                for k, c in zip(verdict.witness.wavenumbers(), verdict.witness.coeffs)
                if c != 0
            ]
        return ok, metrics

    def linear_regression(self):
        # Against the exact flow exp((-i|k|^alpha - eps k^2 + i c k) t) of F = c u_x.
        cfg = self.cfg
        rng = np.random.default_rng(self.seed)
        ks = np.arange(-cfg.cutoff, cfg.cutoff + 1)
        phi = SpectralField(
            np.exp(-np.abs(ks).astype(float)) * np.exp(2j * np.pi * rng.random(ks.size)),
            cfg.cutoff,
        )
        traj = integrate(phi, self.F, cfg)
        self._write_trajectory(traj, "linear_trajectory")
        lam = _multipliers(ks, cfg.alpha, cfg.eps) + 1j * complex(self.params["c"]) * ks
        exact = phi.coeffs * np.exp(lam * traj.times[:, None])  # one row per snapshot
        err, size = np.abs(np.array([u.coeffs for u in traj.snapshots]) - exact), np.abs(exact)
        # A mode whose exact value is 0 counts 0, below every snapshot's largest error.
        rel = np.divide(err, size, out=np.zeros(exact.shape), where=size > 0)
        worst = max([0.0, *np.max(rel, axis=1).tolist()])  # max skips a NaN snapshot
        return worst <= 1e-8, {"sup_relative_error": worst, "tolerance": 1e-8}

    def energy_audit(self):
        r = regularity_threshold(self.cfg.alpha) + 0.1
        traj = self.smooth[self.cfg.eps]
        trace = energy_mod.energy_audit(traj, self.F, r)
        energy_mod.write_energy_csv(trace, self._path("energy_trace.csv"))
        _gnuplot(
            self._path("energy_trace.gp"),
            "set xlabel 't'\nset logscale y\n"
            "plot 'energy_trace.csv' using 1:2 with lines title 'E', \\\n"
            "     '' using 1:3 with lines title 'norm_u', \\\n"
            "     '' using 1:4 with lines title 'norm_v'\n",
        )
        ok = bool(np.all(trace.coercivity_ok)) and not traj.truncated
        return ok, {
            "coercivity_violations": int(np.sum(~trace.coercivity_ok)),
            "lipschitz": trace.lipschitz,
            "truncated": traj.truncated,
            "r": r,
            "ladder_depth": trace.ladder.depth,
        }

    def eps_rate(self):
        table = eps_convergence_table([self.smooth[e] for e in self.study])
        with open(self._path("eps_rate.csv"), "w") as fh:
            fh.write("eps_1,eps_2,sup_l2_diff\n")
            for e1, e2, d in table.pairs:
                fh.write(f"{e1:.17g},{e2:.17g},{d:.17g}\n")
        _gnuplot(
            self._path("eps_rate.gp"),
            "set logscale xy\nset xlabel '|eps_1 - eps_2|'\n"
            "plot 'eps_rate.csv' using (abs($1-$2)):3 with points title 'sup-t L2 gap'\n",
        )
        ok = (not math.isnan(table.beta)) and table.beta >= 0.45 and not table.truncated
        return ok, {"beta": table.beta, "eps_list": list(self.study), "threshold": 0.45,
                    "truncated": table.truncated}

    def growth_probe(self):
        F = self.F
        s = regularity_threshold(self.cfg.alpha) + 0.1
        # A custom nonlinearity is probed on the checker's witness against cubic(i).
        if self.custom:
            witness, control = self.verdict.witness, cubic(1j)
        else:
            witness = SpectralField.from_modes(self.spec.witness(self.params), 2)
            control = self.spec.sibling(self.params)
        mean0 = criterion_functional(F, witness)
        side = "minus" if mean0 >= 0 else "plus"
        report, verdict, run_k, _ = paired_growth_probe(
            F, witness, self.cfg, s, side=side, seed=self.seed, control=control
        )
        growth_mod.write_growth_csv(report, self._path("growth_rates.csv"))
        _gnuplot(
            self._path("growth_rates.gp"),
            "set xlabel 'k'\nplot 'growth_rates.csv' using 1:2 with points title 'fitted', \\\n"
            "     '' using 1:3 with lines title 'predicted'\n",
        )
        with open(self._path("verdict.json"), "w") as fh:
            fh.write(growth_mod.verdict_json(verdict) + "\n")
        self._write_trajectory(run_k, "probe_trajectory")
        expected = "directional_growth_detected"
        ok = verdict.classification == expected
        return ok, {
            "classification": verdict.classification,
            "expected": expected,
            "side": side,
            "matching_run": report.matching_run,
            "predicted_slope": report.predicted_slope,
            "divergence": report.divergence,
            "control_divergence": verdict.control_divergence,
        }


# -- run / sweep ------------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def run(
    preset_name: str,
    out_dir: str,
    overrides: dict | None = None,
    nonlinearity: PolynomialNonlinearity | None = None,
    seed: int = 0,
) -> dict:
    """Execute a preset (or an explicit nonlinearity) and write its artifacts.

    Returns the summary dict; also written as summary.json.  Per-analysis
    failures are recorded, never raised; blowup is recorded, not fatal.
    """
    settings = parse_settings(overrides or {})
    params = family_params(preset_name, settings)
    if nonlinearity is not None:
        _no_family_params(settings)
    spec = PRESETS[preset_name]
    rest = {k: v for k, v in settings.items() if k not in params}
    evolution = {f: rest.pop(key) for f, key in _CONFIG_KEYS.items() if key in rest}
    cfg = replace(spec.config, **evolution)
    if rest:
        raise ValueError(f"unknown overrides: {sorted(rest)}")
    custom = nonlinearity is not None
    F = nonlinearity if custom else spec.family(**params)
    # A custom F runs the analyses its verdict calls for; the preset gives only defaults.
    analyses = ("criterion", "dynamics") if custom else spec.analyses
    os.makedirs(out_dir, exist_ok=True)
    study = _EPS_STUDY if "eps_rate" in analyses else ()
    record = _Run(spec, F, params, custom, cfg, seed, out_dir, study)
    results = []
    for analysis in analyses:
        try:
            if analysis == "dynamics":
                # auto-dispatch: well-posed families get the energy audit, the
                # others the paired-resolution growth probe
                analysis = "energy_audit" if record.verdict.satisfied else "growth_probe"
            ok, metrics = getattr(record, analysis)()
        except Exception as exc:  # analysis failures are data, not crashes
            ok, metrics = False, {"error": f"{type(exc).__name__}: {exc}"}
        results.append({"name": analysis, "pass": bool(ok), "metrics": _jsonable(metrics)})

    summary = {
        "preset": preset_name,
        "seed": seed,
        "analyses": results,
        "config": _jsonable(
            {
                **{key: getattr(cfg, f) for f, key in _CONFIG_KEYS.items()},
                "params": params,
                "custom_nonlinearity": format_nonlinearity(F).strip().splitlines()
                if custom
                else None,
            }
        ),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def sweep(
    preset_name: str,
    axis: str,
    values: list,
    out_dir: str,
    overrides: dict | None = None,
    seed: int = 0,
) -> list[dict]:
    """Run a preset across values of one setting (not seed); runs fail in isolation."""
    if axis not in SETTINGS or axis == "seed":
        raise ValueError(f"sweep axis must be a run setting other than seed, not {axis!r}")
    overrides = overrides or {}
    # An unknown preset, or a parameter of another family as an override or
    # as the axis of a sweep with values, fails before any output is written.
    family_params(preset_name, {**overrides, axis: None} if values else overrides)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for i, value in enumerate(values):
        sub = os.path.join(out_dir, f"{axis}_{i:03d}")
        try:
            summary = run(preset_name, sub, overrides={**overrides, axis: value}, seed=seed)
            rows.append({"value": value, "summary": summary, "error": None})
        except Exception as exc:
            rows.append(
                {"value": value, "summary": None, "error": f"{type(exc).__name__}: {exc}"}
            )
    with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
        fh.write("value,analysis,pass\n")
        for row in rows:
            if row["summary"] is None:
                fh.write(f"{row['value']},error,0\n")
                continue
            for a in row["summary"]["analyses"]:
                fh.write(f"{row['value']},{a['name']},{int(a['pass'])}\n")
    _write_json(os.path.join(out_dir, "sweep.json"), _jsonable(rows))
    return rows


def run_estimates(out_dir: str, seed: int = 0, quick: bool = False) -> dict:
    """The inequality stress lab: four estimates plus the cancellation exponent."""
    os.makedirs(out_dir, exist_ok=True)
    cutoffs = (16, 32, 64, 128) if quick else (16, 32, 64, 128, 256)
    spec = est_mod.EnsembleSpec(cutoffs=cutoffs, samples_per_cutoff=6, decay=2.0, seed=seed)
    jobs = [
        ("bilinear", {"s0": 0.0, "s1": 1.0, "s2": 1.0}),
        ("commutator", {"s": 1.0}),
        ("commutator", {"s": -1.0}),
        ("refined_commutator", {"s": 2.25}),
    ]
    reports = []
    analyses = []
    for op, params in jobs:
        rep = est_mod.run_ensemble(op, spec, **params)
        ok, worst, slope = est_mod.bounded_constant_check(rep)
        reports.append(rep)
        metrics = {"params": params, "worst_growth": worst, "slope": slope}
        analyses.append({"name": op, "pass": bool(ok), "metrics": metrics})
    est_mod.write_ratio_csv(reports, os.path.join(out_dir, "estimate_ratios.csv"))
    _gnuplot(
        os.path.join(out_dir, "estimate_ratios.gp"),
        "set logscale x 2\nset xlabel 'cutoff'\n"
        "plot 'estimate_ratios.csv' using 2:3 with linespoints title 'max ratio'\n",
    )
    s_c = 2.25
    expo = est_mod.cancellation_exponent(s_c, cutoffs)
    cancel_ok = expo <= s_c - 2.0 + 0.2
    metrics = {"s": s_c, "exponent": expo, "bound": s_c - 1.8}
    analyses.append({"name": "cancellation_exponent", "pass": bool(cancel_ok), "metrics": metrics})
    summary = _jsonable({"preset": "estimates", "seed": seed, "analyses": analyses})
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


# -- config files and gnuplot ------------------------------------------------------


def parse_config_file(path, sources: dict | None = None) -> dict:
    """Flat key=value lines; '#' starts a comment.

    If given, `sources` receives each key's "path:line", for error messages.
    """
    out: dict = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {raw!r}")
            key, val = (x.strip() for x in line.split("=", 1))
            out[key] = val
            if sources is not None:
                sources[key] = f"{path}:{ln}"
    return out


def _gnuplot(path, body: str) -> None:
    """A gnuplot script: the lines every script of the lab starts with (comma-separated
    data, titles from the CSV header), then `body`."""
    with open(path, "w") as fh:
        fh.write("set datafile separator ','\nset key autotitle columnhead\n" + body)
