"""Modified-energy ladder for the regularized flow.

For dispersion order alpha > 2 a gauge transformation is unavailable, so the
H^{r-1} energy of (u, v = u_x) is augmented with correction terms

    L_n = c_n * int_T (dxinv Im T_w)^n |<D>^{r-1-(alpha-2)n/2} v|^2 dx,
    c_n = 2^n / (alpha^n n!),

up to the depth N fixed by N - 1 < 1/(alpha-2) <= N, where T_w is the
omega-derivative of the nonlinearity along u and dxinv is the mean-free
antiderivative.  The full energy is

    E^2 = ||u||_{H^{r-1}}^2 + ||v||_{H^{r-1}}^2 + sum_n L_n
          + a ||u||_{H^{r-1}}^2 ||T_w||_{L2}^{2N},

with a = sum a_n chosen so that each |L_n| <= ||v||^2/(10 n^2)
+ a_n ||u||^2 ||T_w||^{2N}, which pins the coercivity sandwich

    ||u||^2 + ||v||^2/2 <= E^2 <= ||u||^2 + 3/2 ||v||^2 + 2a ||u||^2 ||T_w||^{2N}.

The a_n are derived here in closed form from the weighted Young inequality
x^t y^{1-t} <= t d^{1/t} x + (1-t) d^{-1/(1-t)} y with t = n/(2N) and d fixed
by requiring the v-coefficient 1/(10 n^2), combined with
||dxinv g||_inf <= sqrt(pi^2/3) ||g||_{L2} (Cauchy-Schwarz on 1/k).

Flux terms K_n are the boundary terms produced when differentiating L_n in
time; the n-th one cancels against the (n+1)-th, which is what the ladder
audit exercises numerically.

energy_audit evaluates E along a whole trajectory with one coefficient map
of F_omega for all its snapshots; modified_energy is its one-snapshot call.

Formally setting alpha = 2 turns the coefficients into 1/n! and the exponents
all into r-1; the series then sums to an exponential weight
exp(dxinv Im T_w) |<D>^{r-1} v|^2, recovering the gauge transformation.  That
limit is exposed as a diagnostic only.

The difference and continuity energies are the same formulas at r = 1 and
r = s with the difference field in the quadratic slot: pass the difference
derivative through the explicit ``v`` argument of correction_term/flux_term
while the weight still comes from one of the two solutions (the ``u``
argument).  No separate ladder is implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import TrajectoryRecord
from .nonlinearity import PolynomialNonlinearity
from .spectral import (
    SpectralField,
    antiderivative,
    bracket_power,
    derivative,
    imag_part,
    padded_size,
    sobolev_norm,
)

__all__ = [
    "ladder_depth",
    "correction_coefficient",
    "young_constant",
    "CorrectionLadder",
    "correction_term",
    "flux_term",
    "ModifiedEnergy",
    "modified_energy",
    "EnergyTrace",
    "energy_audit",
    "lipschitz_constants_uniform",
    "gauge_limit_partial_sums",
    "write_energy_csv",
]

# ||dxinv g||_inf <= KAPPA ||g||_{L2}: sum_{k != 0} k^{-2} = pi^2/3.
KAPPA = math.sqrt(math.pi**2 / 3.0)


MAX_LADDER_DEPTH = 32


def ladder_depth(alpha: float) -> int:
    """Minimal N with 1/(alpha-2) <= N; number of correction terms needed.

    Capped at MAX_LADDER_DEPTH: below alpha = 2 + 1/32 the closed-form Young
    constants overflow double precision and the ladder is numerically useless.
    """
    if not alpha > 2:
        raise ValueError("ladder depth is defined for alpha > 2")
    n = max(1, math.ceil(1.0 / (alpha - 2.0) - 1e-12))
    if n > MAX_LADDER_DEPTH:
        raise ValueError(
            f"alpha={alpha} needs {n} correction terms; supported depth is "
            f"{MAX_LADDER_DEPTH} (alpha >= {2 + 1 / MAX_LADDER_DEPTH})"
        )
    return n


def correction_coefficient(n: int, alpha: float) -> float:
    """c_n = 2^n / (alpha^n n!)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0**n / (alpha**n * math.factorial(n))


def young_constant(n: int, depth: int, alpha: float) -> float:
    """Closed-form a_n making |L_n| <= ||v||^2/(10 n^2) + a_n ||u||^2 ||T_w||^{2N}.

    With t = n/(2N), interpolation gives |L_n| <= x^t y^{1-t} for
    x = c_n^{1/t} B^{2N} U^2 and y = V^2 (B the sup norm of the
    antiderivative); Young with d = (10 n^2 (1-t))^{1-t} makes the
    y-coefficient exactly 1/(10 n^2) and leaves

        a_n = t * d^{1/t} * c_n^{2N/n} * KAPPA^{2N}.
    """
    if not 1 <= n <= depth:
        raise ValueError("n out of range for this ladder")
    t = n / (2.0 * depth)
    cn = correction_coefficient(n, alpha)
    d = (10.0 * n**2 * (1.0 - t)) ** (1.0 - t)
    return t * d ** (1.0 / t) * cn ** (2.0 * depth / n) * KAPPA ** (2 * depth)


@dataclass(frozen=True)
class CorrectionLadder:
    """Depth, coefficients and Young constants for a given (alpha, r)."""

    alpha: float
    r: float
    depth: int
    c: tuple[float, ...]
    a_n: tuple[float, ...]
    a: float

    @classmethod
    def build(cls, alpha: float, r: float) -> "CorrectionLadder":
        if not 1 <= r < math.inf:
            raise ValueError(f"r must be finite and >= 1, not {r}")
        n_max = ladder_depth(alpha)
        c = tuple(correction_coefficient(n, alpha) for n in range(1, n_max + 1))
        a_n = tuple(young_constant(n, n_max, alpha) for n in range(1, n_max + 1))
        return cls(alpha, r, n_max, c, a_n, float(sum(a_n)))


# -- alias-free weighted integrals ----------------------------------------------


def _weight_field(F: PolynomialNonlinearity, u: SpectralField) -> SpectralField:
    """g = dxinv Im T_w along u, at full product bandwidth."""
    theta = F.wirtinger("omega").evaluate(u)
    return antiderivative(imag_part(theta))


def _weight_and_slot(n, u, F, alpha, v, last):
    """g = dxinv Im T_w along u and the quadratic slot (v, else u_x) of the
    order-n integral whose last order is `last` past the ladder's depth: 0 for
    L_n, 1 for K_n (K_{N+1} appears when auditing the last cancellation)."""
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    if n < 1 or (alpha > 2 and n > ladder_depth(alpha) + last):
        raise ValueError(f"n={n} outside the ladder for alpha={alpha}")
    return _weight_field(F, u), derivative(u) if v is None else v


def correction_term(
    n: int,
    u: SpectralField,
    F: PolynomialNonlinearity,
    alpha: float,
    r: float,
    v: SpectralField | None = None,
) -> float:
    """L_n evaluated alias-free.  alpha = 2 is accepted for the gauge-limit diagnostic."""
    return _rung(n, *_weight_and_slot(n, u, F, alpha, v, 0), alpha, r)


def _rung(n: int, g: SpectralField, v: SpectralField, alpha: float, r: float) -> float:
    """L_n for the weight g = dxinv Im T_w and the quadratic slot v."""
    w = bracket_power(v, r - 1.0 - (alpha - 2.0) * n / 2.0)
    m = padded_size(max(g.cutoff, w.cutoff), n * g.cutoff + 2 * w.cutoff, 0)
    gv = np.real(g.to_samples(m))
    wv = w.to_samples(m)
    return correction_coefficient(n, alpha) * float(np.mean(gv**n * np.abs(wv) ** 2))


def flux_term(
    n: int,
    u: SpectralField,
    F: PolynomialNonlinearity,
    alpha: float,
    r: float,
    v: SpectralField | None = None,
) -> float:
    """K_n = -alpha c_n Im int dx(g^n) (<D>^{s'} v_x) <D>^{s'} conj(v) dx,

    with s' = r - 1 - (alpha-2)(n-1)/2.  Real-valued by construction.
    dx(g^n) is sampled as n g^{n-1} dx g on the integrand's alias-free grid.
    """
    g, v = _weight_and_slot(n, u, F, alpha, v, 1)
    sp = r - 1.0 - (alpha - 2.0) * (n - 1) / 2.0
    w1 = bracket_power(v, sp)
    w2 = bracket_power(derivative(v), sp)
    m = padded_size(max(g.cutoff, v.cutoff), n * g.cutoff + 2 * v.cutoff, 0)
    dgn = n * np.real(g.to_samples(m)) ** (n - 1) * np.real(derivative(g).to_samples(m))
    val = np.mean(dgn * w2.to_samples(m) * np.conj(w1.to_samples(m)))
    return -alpha * correction_coefficient(n, alpha) * float(val.imag)


# -- the energy and its audit ----------------------------------------------------


@dataclass(frozen=True)
class ModifiedEnergy:
    value: float
    norm_u: float
    norm_v: float
    corrections: tuple[float, ...]
    theta_norm: float
    mean_im: float
    coercive: bool
    lower: float
    upper: float


def modified_energy(
    u: SpectralField,
    F: PolynomialNonlinearity,
    ladder: CorrectionLadder,
) -> ModifiedEnergy:
    """E and the coercivity sandwich at one snapshot: `energy_audit`'s one-snapshot call."""
    return next(_energies([u], u.cutoff, F, ladder))


def _energies(snapshots, cutoff: int, F: PolynomialNonlinearity, ladder: CorrectionLadder):
    """The ModifiedEnergy of each snapshot (all of this cutoff), in order.

    T_w comes from one coefficient map of F_omega, built here once for all
    the snapshots; each is bitwise `F.wirtinger("omega").evaluate(u)`.
    """
    alpha, r = ladder.alpha, ladder.r
    theta_of = F.wirtinger("omega").coefficient_map(cutoff)
    for u in snapshots:
        v = derivative(u)
        nu = sobolev_norm(u, r - 1.0)
        nv = sobolev_norm(v, r - 1.0)
        coeffs = theta_of(u.coeffs)
        theta = SpectralField(coeffs, len(coeffs) // 2)
        w = sobolev_norm(theta, 0.0)
        mean_im = float(theta.coefficient(0).imag)
        g = antiderivative(imag_part(theta))  # _weight_field(F, u), shared by every rung
        ls = tuple(_rung(n, g, v, alpha, r) for n in range(1, ladder.depth + 1))
        e2 = nu**2 + nv**2 + sum(ls) + ladder.a * nu**2 * w ** (2 * ladder.depth)
        if e2 < 0:
            raise ArithmeticError(
                "negative energy radicand: the Young constants failed coercivity"
            )
        lower = nu**2 + 0.5 * nv**2
        upper = nu**2 + 1.5 * nv**2 + 2.0 * ladder.a * nu**2 * w ** (2 * ladder.depth)
        slack = 1e-12 * max(1.0, e2)
        coercive = (lower <= e2 + slack) and (e2 <= upper + slack)
        yield ModifiedEnergy(math.sqrt(e2), nu, nv, ls, w, mean_im, coercive, lower, upper)


@dataclass
class EnergyTrace:
    """Per-snapshot energy components along a trajectory."""

    times: np.ndarray
    energy: np.ndarray
    norm_u: np.ndarray
    norm_v: np.ndarray
    corrections: np.ndarray  # shape (ntimes, depth)
    mean_im: np.ndarray
    coercivity_ok: np.ndarray
    slopes: np.ndarray  # d/dt log(1 + E), centered differences
    lipschitz: float  # max positive slope (the one-sided growth constant)
    ladder: CorrectionLadder


def energy_audit(traj: TrajectoryRecord, F: PolynomialNonlinearity, r: float) -> EnergyTrace:
    """Energy components per snapshot plus the empirical growth constant.

    The ladder is CorrectionLadder.build(traj.config.alpha, r), and one
    coefficient map of F_omega serves every snapshot.  The differential
    inequality bounds the increase of log(1 + E) only, so the reported
    constant is the maximal positive centered-difference slope.  A record
    without snapshots is a ValueError.
    """
    if not traj.snapshots:
        raise ValueError("no snapshots to audit")
    ladder = CorrectionLadder.build(traj.config.alpha, r)
    rows = list(_energies(traj.snapshots, traj.config.cutoff, F, ladder))
    e = np.array([m.value for m in rows])
    slopes = np.gradient(np.log1p(e), traj.times) if len(e) > 1 else np.zeros(1)
    lip = float(max(0.0, np.max(slopes)))
    return EnergyTrace(
        times=traj.times,
        energy=e,
        norm_u=np.array([m.norm_u for m in rows]),
        norm_v=np.array([m.norm_v for m in rows]),
        corrections=np.array([m.corrections for m in rows]),
        mean_im=np.array([m.mean_im for m in rows]),
        coercivity_ok=np.array([m.coercive for m in rows], dtype=bool),
        slopes=slopes,
        lipschitz=lip,
        ladder=ladder,
    )


def lipschitz_constants_uniform(constants: list[float], factor: float = 2.0) -> bool:
    """Whether a family of growth constants agrees within `factor` (floored).

    The energy inequality is one-sided: dissipation-dominated runs report a
    constant of exactly zero while weakly damped ones keep an O(data^4)
    oscillatory residue, so agreement is only meaningful above a floor.  The
    floor declares growth below 1% of log(1+E) per unit time unmeasured;
    ill-posed contrasts sit orders of magnitude above it.
    """
    vals = [max(c, 1e-2) for c in constants]
    return max(vals) <= factor * min(vals)


def gauge_limit_partial_sums(
    u: SpectralField,
    F: PolynomialNonlinearity,
    r: float,
    n_terms: int = 20,
) -> tuple[np.ndarray, float]:
    """Diagnostic alpha -> 2 limit: partial sums of (1/n!) int g^n |<D>^{r-1} v|^2 dx
    against the exponential-weight integral int exp(g) |<D>^{r-1} v|^2 dx.

    Returns (partial sums for m = 0..n_terms, exponential integral).
    """
    v = derivative(u)
    g = _weight_field(F, u)
    w = bracket_power(v, r - 1.0)
    # exact for every partial sum; exp(g) aliases only through terms past n_terms
    m = padded_size(max(g.cutoff, w.cutoff), n_terms * g.cutoff + 2 * w.cutoff, 0)
    gv = np.real(g.to_samples(m))
    w2 = np.abs(w.to_samples(m)) ** 2
    target = float(np.mean(np.exp(gv) * w2))
    sums = np.zeros(n_terms + 1)
    acc = 0.0
    for n in range(n_terms + 1):
        acc += float(np.mean(gv**n * w2)) / math.factorial(n)
        sums[n] = acc
    return sums, target


def write_energy_csv(trace: EnergyTrace, path) -> None:
    """CSV ``t,E,norm_u,norm_v,L_1..L_N,mean_im,coercivity_ok``."""
    depth = trace.ladder.depth
    cols = ",".join(f"L_{n}" for n in range(1, depth + 1))
    with open(path, "w") as fh:
        fh.write(f"t,E,norm_u,norm_v,{cols},mean_im,coercivity_ok\n")
        for i, t in enumerate(trace.times):
            ls = ",".join(f"{x:.17g}" for x in trace.corrections[i])
            fh.write(
                f"{t:.17g},{trace.energy[i]:.17g},{trace.norm_u[i]:.17g},"
                f"{trace.norm_v[i]:.17g},{ls},{trace.mean_im[i]:.17g},"
                f"{int(trace.coercivity_ok[i])}\n"
            )
