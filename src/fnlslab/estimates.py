"""Numerical stress tests for the bilinear and commutator inequalities.

Each operator here has a proven bound with an implicit constant; the lab
measures LHS/RHS ratios over random and adversarial ensembles at increasing
frequency cutoffs and checks the finite-sample surrogate of "uniform
constant": the max ratio's growth factor between consecutive dyadic cutoffs
must stay below 2 beyond a burn-in cutoff, and the log-log slope of max ratio
versus cutoff must stay below 0.15.

Estimates covered:

  bilinear         ||fg||_{H^{-s0}} <= C ||f||_{H^{s1}} ||g||_{H^{s2}}
                   under min(s0+s1, s1+s2, s2+s0) >= 0, s0+s1+s2 > 1/2
                   (or strict min > 0 with sum >= 1/2);
  commutator       ||[<D>^s, f] g_x||_{L2} <= C (||f||_{3/2+e} ||g||_s
                   + ||f||_s ||g||_{3/2+e})  for s >= 0, and
                   <= C ||f||_{3/2+e} ||g||_{L2}  for s < 0;
  refined          R_f^s(g) = <D>^s(fg) - f <D>^s g + s f_x <D>^{s-2} g_x,
                   ||R_f^s(g)||_{L2} <= C (||f||_{max(s,5/2+e)} ||g||_{min(s-2,1/2+e)}
                   + ||f||_{5/2+e} ||g||_{s-2})  for s > 2.

The third one carries a second-order Taylor cancellation: against a single
slowly varying f and a single high mode g = e^{iKx} the commutator is
O(K^{s-2}) rather than O(K^{s-1}), which the frequency-separated family
checks by fitting the exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    SpectralField,
    bracket_power,
    derivative,
    pointwise_product,
    random_field,
    sobolev_norm,
)

__all__ = [
    "EnsembleSpec",
    "RatioReport",
    "bilinear_ratio",
    "commutator_bracket",
    "refined_commutator",
    "commutator_ratio",
    "refined_commutator_ratio",
    "run_ensemble",
    "bounded_constant_check",
    "cancellation_exponent",
    "write_ratio_csv",
    "ESTIMATE_NAMES",
]

DEFAULT_EPS = 0.1


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling plan: increasing cutoffs, samples per cutoff, coefficient decay.

    ``adversarial`` appends the lacunary and frequency-separated families to
    the Gaussian draws at every cutoff.
    """

    cutoffs: tuple[int, ...] = (16, 32, 64, 128, 256)
    samples_per_cutoff: int = 8
    decay: float = 2.0
    seed: int = 0
    adversarial: bool = True

    def __post_init__(self):
        if self.samples_per_cutoff < 1:
            raise ValueError("samples_per_cutoff must be >= 1")
        if any(b <= a for a, b in zip(self.cutoffs, self.cutoffs[1:])):
            raise ValueError("cutoffs must be increasing")


@dataclass
class RatioReport:
    estimate: str
    params: dict
    cutoffs: tuple[int, ...]
    max_ratio: np.ndarray
    median_ratio: np.ndarray
    growth_factors: np.ndarray  # max_ratio[i+1] / max_ratio[i]


def bilinear_ratio(
    s0: float, s1: float, s2: float, f: SpectralField, g: SpectralField
) -> float:
    """||fg||_{H^{-s0}} / (||f||_{H^{s1}} ||g||_{H^{s2}}); 0/0 -> 0.

    The exponent triple must satisfy one of the two hypothesis sets,
    otherwise the ratio is meaningless and a ValueError is raised.
    """
    mn = min(s0 + s1, s1 + s2, s2 + s0)
    total = s0 + s1 + s2
    if not ((mn >= 0 and total > 0.5) or (mn > 0 and total >= 0.5)):
        raise ValueError(
            f"(s0,s1,s2)=({s0},{s1},{s2}) violates the bilinear hypotheses"
        )
    denom = sobolev_norm(f, s1) * sobolev_norm(g, s2)
    if denom == 0.0:
        return 0.0
    prod = pointwise_product(f, g, out_cutoff=f.cutoff + g.cutoff)
    return sobolev_norm(prod, -s0) / denom


def commutator_bracket(s: float, f: SpectralField, g: SpectralField) -> SpectralField:
    """[<D>^s, f] g_x = <D>^s(f g_x) - f <D>^s g_x, at full product bandwidth."""
    gx = derivative(g)
    full = f.cutoff + g.cutoff
    lhs = bracket_power(pointwise_product(f, gx, out_cutoff=full), s)
    rhs = pointwise_product(f, bracket_power(gx, s), out_cutoff=full)
    return lhs - rhs


def refined_commutator(s: float, f: SpectralField, g: SpectralField) -> SpectralField:
    """<D>^s(fg) - f <D>^s g + s f_x <D>^{s-2} g_x."""
    full = f.cutoff + g.cutoff
    t1 = bracket_power(pointwise_product(f, g, out_cutoff=full), s)
    t2 = pointwise_product(f, bracket_power(g, s), out_cutoff=full)
    t3 = pointwise_product(
        derivative(f), bracket_power(derivative(g), s - 2.0), out_cutoff=full
    )
    return t1 - t2 + s * t3


def commutator_ratio(
    s: float, f: SpectralField, g: SpectralField, eps: float = DEFAULT_EPS
) -> float:
    """L2 norm of the commutator against the proved right-hand side (s >= 0 or s < 0)."""
    num = sobolev_norm(commutator_bracket(s, f, g), 0.0)
    if s >= 0:
        denom = sobolev_norm(f, 1.5 + eps) * sobolev_norm(g, s) + sobolev_norm(
            f, s
        ) * sobolev_norm(g, 1.5 + eps)
    else:
        denom = sobolev_norm(f, 1.5 + eps) * sobolev_norm(g, 0.0)
    return num / denom if denom > 0 else 0.0


def refined_commutator_ratio(
    s: float, f: SpectralField, g: SpectralField, eps: float = DEFAULT_EPS
) -> float:
    if not s > 2:
        raise ValueError("the refined commutator bound needs s > 2")
    num = sobolev_norm(refined_commutator(s, f, g), 0.0)
    denom = sobolev_norm(f, max(s, 2.5 + eps)) * sobolev_norm(
        g, min(s - 2.0, 0.5 + eps)
    ) + sobolev_norm(f, 2.5 + eps) * sobolev_norm(g, s - 2.0)
    return num / denom if denom > 0 else 0.0


# -- ensembles ------------------------------------------------------------------


def _lacunary_field(cutoff: int, rng: np.random.Generator) -> SpectralField:
    """Unit coefficients on dyadic modes; a worst-case-style sparse spectrum."""
    modes = {}
    k = 1
    while k <= cutoff:
        ph = np.exp(2j * np.pi * rng.random())
        modes[k] = ph
        modes[-k] = np.conj(ph) * np.exp(2j * np.pi * rng.random())
        k *= 2
    modes[0] = 1.0
    return SpectralField.from_modes(modes, cutoff)


def _separated_pair(
    cutoff: int, rng: np.random.Generator
) -> tuple[SpectralField, SpectralField]:
    """Slowly varying f times a single high mode g: the commutators' worst regime."""
    low = int(rng.integers(1, 4))
    f = SpectralField.from_modes({0: 1.0, low: 1.0, -low: 0.5}, cutoff)
    g = SpectralField.from_modes({cutoff: 1.0}, cutoff)
    return f, g


def _sample_pairs(cutoff: int, spec: EnsembleSpec, rng: np.random.Generator):
    for _ in range(spec.samples_per_cutoff):
        yield (
            random_field(cutoff, spec.decay, rng),
            random_field(cutoff, spec.decay, rng),
        )
    if spec.adversarial:
        yield _lacunary_field(cutoff, rng), _lacunary_field(cutoff, rng)
        yield _separated_pair(cutoff, rng)


ESTIMATE_NAMES = ("bilinear", "commutator", "refined_commutator")


def run_ensemble(op: str, spec: EnsembleSpec, **params) -> RatioReport:
    """Evaluate one estimate's ratio over Gaussian + adversarial ensembles.

    params: bilinear needs s0, s1, s2; the commutators need s (and accept eps).
    """
    if op not in ESTIMATE_NAMES:
        raise ValueError(f"unknown estimate {op!r}")
    rng = np.random.default_rng(spec.seed)
    maxr, medr = [], []
    for cutoff in spec.cutoffs:
        ratios = []
        for f, g in _sample_pairs(cutoff, spec, rng):
            if op == "bilinear":
                ratios.append(
                    bilinear_ratio(params["s0"], params["s1"], params["s2"], f, g)
                )
            elif op == "commutator":
                ratios.append(
                    commutator_ratio(params["s"], f, g, params.get("eps", DEFAULT_EPS))
                )
            else:
                ratios.append(
                    refined_commutator_ratio(
                        params["s"], f, g, params.get("eps", DEFAULT_EPS)
                    )
                )
        ratios = np.asarray(ratios)
        maxr.append(float(np.max(ratios)))
        medr.append(float(np.median(ratios)))
    maxr = np.asarray(maxr)
    medr = np.asarray(medr)
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = maxr[1:] / maxr[:-1]
    return RatioReport(op, dict(params), tuple(spec.cutoffs), maxr, medr, growth)


def bounded_constant_check(
    report: RatioReport,
    burn_in: int = 64,
    max_growth: float = 2.0,
    max_slope: float = 0.15,
) -> tuple[bool, float, float]:
    """Finite-sample surrogate for a uniform constant.

    Returns (ok, worst growth factor beyond burn-in, log-log slope of the
    max ratio over all cutoffs).
    """
    cuts = np.asarray(report.cutoffs, dtype=float)
    worst = 0.0
    for i, gf in enumerate(report.growth_factors):
        if report.cutoffs[i + 1] > burn_in:
            worst = max(worst, float(gf))
    slope = float(np.polyfit(np.log(cuts), np.log(report.max_ratio), 1)[0])
    return (worst < max_growth and slope < max_slope), worst, slope


def cancellation_exponent(s: float, cutoffs: tuple[int, ...] = (16, 32, 64, 128, 256)) -> float:
    """Fitted exponent of ||R_f^s(e^{iKx})|| vs K for f = 1 + e^{ix}.

    Second-order cancellation makes this s-2 rather than s-1.
    """
    norms = []
    for k in cutoffs:
        f = SpectralField.from_modes({0: 1.0, 1: 1.0}, 1)
        g = SpectralField.from_modes({k: 1.0}, k)
        norms.append(sobolev_norm(refined_commutator(s, f, g), 0.0))
    return float(np.polyfit(np.log(cutoffs), np.log(norms), 1)[0])


def write_ratio_csv(reports: list[RatioReport], path) -> None:
    """CSV ``estimate,cutoff,max_ratio,median_ratio,growth_factor``."""
    with open(path, "w") as fh:
        fh.write("estimate,cutoff,max_ratio,median_ratio,growth_factor\n")
        for rep in reports:
            for i, cut in enumerate(rep.cutoffs):
                gf = rep.growth_factors[i - 1] if i > 0 else float("nan")
                fh.write(
                    f"{rep.estimate},{cut},{rep.max_ratio[i]:.17g},"
                    f"{rep.median_ratio[i]:.17g},{gf:.17g}\n"
                )
