"""Numerical stress tests for the bilinear and commutator inequalities.

Each operator here has a proven bound with an implicit constant; the lab
measures LHS/RHS ratios over random and adversarial pairs at increasing
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

An ensemble draws each cutoff's pairs together (its Gaussian pairs, then a
lacunary and a frequency-separated pair) and evaluates them as blocks of
pairs: one block per cutoff, split by `spectral._block_size` only where it
would pass the budget of rows x grid points that the energy audit shares.
The block arithmetic is the row functions of `spectral`: the f operands of a
block are sampled in one inverse transform, the g operands in another, and
every product comes back in one forward transform.  `refined_commutator` is
the block code's one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    SpectralField,
    _block_size,
    _bracket,
    _dx,
    _norms,
    _products,
    _random_coefficients,
    padded_size,
    sobolev_norm,
)

__all__ = [
    "EnsembleSpec",
    "RatioReport",
    "refined_commutator",
    "run_ensemble",
    "bounded_constant_check",
    "cancellation_exponent",
    "write_ratio_csv",
    "ESTIMATE_NAMES",
]

DEFAULT_EPS = 0.1
_SEPARATED_LOW = 3  # the largest low mode of a separated pair's f


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling plan: increasing cutoffs, samples per cutoff, coefficient decay.

    Every cutoff draws its Gaussian pairs plus a lacunary and a
    frequency-separated pair; a separated pair's f has a mode up to 3, so
    every cutoff must be at least 3.
    """

    cutoffs: tuple[int, ...] = (16, 32, 64, 128, 256)
    samples_per_cutoff: int = 8
    decay: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_cutoff < 1:
            raise ValueError("samples_per_cutoff must be >= 1")
        if not self.cutoffs:
            raise ValueError("cutoffs must not be empty")
        if any(b <= a for a, b in zip(self.cutoffs, self.cutoffs[1:])):
            raise ValueError("cutoffs must be increasing")
        if self.cutoffs[0] < _SEPARATED_LOW:
            raise ValueError(f"adversarial pairs need cutoffs >= {_SEPARATED_LOW}")


@dataclass
class RatioReport:
    estimate: str
    cutoffs: tuple[int, ...]
    max_ratio: np.ndarray
    median_ratio: np.ndarray
    growth_factors: np.ndarray  # max_ratio[i+1] / max_ratio[i]


def refined_commutator(s: float, f: SpectralField, g: SpectralField) -> SpectralField:
    """<D>^s(fg) - f <D>^s g + s f_x <D>^{s-2} g_x."""
    return SpectralField(
        _refined_commutators(s, f.coeffs[None], g.coeffs[None])[0], f.cutoff + g.cutoff
    )


# -- the block code -------------------------------------------------------------
#
# A block holds B pairs (f_i, g_i) as two C-contiguous arrays of coefficient
# rows, f (B, 2Kf+1) and g (B, 2Kg+1), for the row functions of `spectral`.


def _ratios(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """num / denom row by row; 0 where denom is 0."""
    return np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)


def _bilinear_ratios(s0, s1, s2, f, g) -> np.ndarray:
    mn = min(s0 + s1, s1 + s2, s2 + s0)
    total = s0 + s1 + s2
    if not ((mn >= 0 and total > 0.5) or (mn > 0 and total >= 0.5)):
        raise ValueError(
            f"(s0,s1,s2)=({s0},{s1},{s2}) violates the bilinear hypotheses"
        )
    (prod,) = _products([f], [g], [0])
    return _ratios(_norms(prod, -s0), _norms(f, s1) * _norms(g, s2))


def _commutator_brackets(s, f, g) -> np.ndarray:
    gx = _dx(g)
    lhs, rhs = _products([f], [gx, _bracket(gx, s)], [0, 0])
    return _bracket(lhs, s) - rhs


def _refined_commutators(s, f, g) -> np.ndarray:
    ops = [g, _bracket(g, s), _bracket(_dx(g), s - 2.0)]
    t1, t2, t3 = _products([f, _dx(f)], ops, [0, 0, 1])
    return _bracket(t1, s) - t2 + t3 * s


def _commutator_ratios(s, eps, f, g) -> np.ndarray:
    num = _norms(_commutator_brackets(s, f, g), 0.0)
    if s >= 0:
        denom = _norms(f, 1.5 + eps) * _norms(g, s) + _norms(f, s) * _norms(g, 1.5 + eps)
    else:
        denom = _norms(f, 1.5 + eps) * _norms(g, 0.0)
    return _ratios(num, denom)


def _refined_commutator_ratios(s, eps, f, g) -> np.ndarray:
    if not s > 2:
        raise ValueError("the refined commutator bound needs s > 2")
    num = _norms(_refined_commutators(s, f, g), 0.0)
    denom = (
        _norms(f, max(s, 2.5 + eps)) * _norms(g, min(s - 2.0, 0.5 + eps))
        + _norms(f, 2.5 + eps) * _norms(g, s - 2.0)
    )
    return _ratios(num, denom)


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
    low = int(rng.integers(1, _SEPARATED_LOW + 1))
    f = SpectralField.from_modes({0: 1.0, low: 1.0, -low: 0.5}, cutoff)
    g = SpectralField.from_modes({cutoff: 1.0}, cutoff)
    return f, g


def _sample_block(
    cutoff: int, spec: EnsembleSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of one cutoff as an (f, g) block, drawn as pair-by-pair draws would.

    One draw of 2 * samples_per_cutoff Gaussian fields gives f in its even
    rows and g in its odd rows; the lacunary and the separated pair follow.
    """
    c = _random_coefficients(2 * spec.samples_per_cutoff, cutoff, spec.decay, rng)
    lac_f, lac_g = _lacunary_field(cutoff, rng), _lacunary_field(cutoff, rng)
    sep_f, sep_g = _separated_pair(cutoff, rng)
    return (
        np.concatenate((c[0::2], lac_f.coeffs[None], sep_f.coeffs[None])),
        np.concatenate((c[1::2], lac_g.coeffs[None], sep_g.coeffs[None])),
    )


ESTIMATE_NAMES = ("bilinear", "commutator", "refined_commutator")


def run_ensemble(op: str, spec: EnsembleSpec, **params) -> RatioReport:
    """Evaluate one estimate's ratio over Gaussian + adversarial ensembles.

    params: bilinear needs s0, s1, s2; the commutators need s (and accept eps).
    Each cutoff's pairs are drawn together and evaluated in as few blocks of
    `spectral._block_size` as keep them within `spectral._BLOCK_POINTS`.
    """
    if op not in ESTIMATE_NAMES:
        raise ValueError(f"unknown estimate {op!r}")
    eps = params.get("eps", DEFAULT_EPS)

    def ratios_of(f, g):
        if op == "bilinear":
            return _bilinear_ratios(params["s0"], params["s1"], params["s2"], f, g)
        if op == "commutator":
            return _commutator_ratios(params["s"], eps, f, g)
        return _refined_commutator_ratios(params["s"], eps, f, g)

    rng = np.random.default_rng(spec.seed)
    maxr, medr = [], []
    for cutoff in spec.cutoffs:
        f, g = _sample_block(cutoff, spec, rng)
        b = _block_size(len(f), padded_size(cutoff, 2 * cutoff, 2 * cutoff))
        ratios = np.concatenate([ratios_of(f[i : i + b], g[i : i + b]) for i in range(0, len(f), b)])
        maxr.append(float(np.max(ratios)))
        medr.append(float(np.median(ratios)))
    maxr = np.asarray(maxr)
    medr = np.asarray(medr)
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = maxr[1:] / maxr[:-1]
    return RatioReport(op, tuple(spec.cutoffs), maxr, medr, growth)


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
