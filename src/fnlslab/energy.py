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

energy_audit evaluates E along a trajectory as one series over the (S, 2K+1)
array of its snapshot coefficients, in blocks, with `spectral`'s row functions
and one coefficient map of F_omega; modified_energy and correction_term are
its one-row calls.

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
from .nonlinearity import PolynomialNonlinearity, _rows_coefficient_map
from .spectral import (
    SpectralField,
    _block_size,
    _bracket,
    _dx,
    _dxinv,
    _imag,
    _norms,
    _samples,
    padded_size,
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
    """Depth and summed Young constant a = sum a_n for a given (alpha, r)."""

    alpha: float
    r: float
    depth: int
    a: float

    @classmethod
    def build(cls, alpha: float, r: float) -> "CorrectionLadder":
        if not 1 <= r < math.inf:
            raise ValueError(f"r must be finite and >= 1, not {r}")
        n_max = ladder_depth(alpha)
        a_n = tuple(young_constant(n, n_max, alpha) for n in range(1, n_max + 1))
        return cls(alpha, r, n_max, float(sum(a_n)))


# -- alias-free weighted integrals ----------------------------------------------


def _ladder_grid(n: int, kg: int, kw: int) -> int:
    """The alias-free grid of an order-n ladder integrand g^n w w', g of cutoff
    kg and w, w' of kw: the grid of L_n, of K_n and of the gauge-limit sums."""
    return padded_size(max(kg, kw), n * kg + 2 * kw, 0)


def _weighted(u, F: PolynomialNonlinearity, depth: int = 1):
    """(rows, T_w, g = dxinv Im T_w) of each block of the S rows u of 2K+1
    coefficients (an array, or a list of rows), stacked one block at a time,
    the blocks of `spectral._block_size` on L_depth's grid.  T_w, each row
    bitwise `F.wirtinger("omega").evaluate`, comes from one map built for a
    full block; the last block's missing rows are zero rows for it."""
    P = F.wirtinger("omega")
    k = len(u[0]) // 2
    kg = max(P.total_degree, 1) * k
    b = _block_size(len(u), _ladder_grid(depth, kg, k))
    theta_of = _rows_coefficient_map([P] * b, [k] * b, k, kg)
    for i in range(0, len(u), b):
        block = u[i : i + b]
        rows = np.zeros((b, 2 * k + 1), np.complex128)
        rows[: len(block)] = block
        theta = theta_of(rows)[: len(block)]
        yield rows[: len(block)], theta, _dxinv(_imag(theta))


def _corrections(g: np.ndarray, v: np.ndarray, alpha: float, r: float, ns) -> np.ndarray:
    """(B, len(ns)): L_n for n in ns of each row's weight g and quadratic slot v."""
    cols = []
    for n in ns:
        w = _bracket(v, r - 1.0 - (alpha - 2.0) * n / 2.0)
        m = _ladder_grid(n, g.shape[-1] // 2, w.shape[-1] // 2)
        gv, wv = np.real(_samples(g, m)), _samples(w, m)
        cols.append(correction_coefficient(n, alpha) * np.mean(gv**n * np.abs(wv) ** 2, axis=-1))
    return np.stack(cols, axis=-1)


def _weight_and_slot(n, u, F, alpha, v, last):
    """One-row g = dxinv Im T_w along u and quadratic slot (v, else u_x) of the
    order-n integral whose last order is `last` past the ladder's depth: 0 for
    L_n, 1 for K_n (K_{N+1} appears when auditing the last cancellation)."""
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    if n < 1 or (alpha > 2 and n > ladder_depth(alpha) + last):
        raise ValueError(f"n={n} outside the ladder for alpha={alpha}")
    ((rows, _, g),) = _weighted(u.coeffs[None], F)
    return g, _dx(rows) if v is None else v.coeffs[None]


def correction_term(
    n: int,
    u: SpectralField,
    F: PolynomialNonlinearity,
    alpha: float,
    r: float,
    v: SpectralField | None = None,
) -> float:
    """L_n evaluated alias-free.  alpha = 2 is accepted for the gauge-limit diagnostic."""
    g, v = _weight_and_slot(n, u, F, alpha, v, 0)
    return float(_corrections(g, v, alpha, r, [n])[0, 0])


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
    m = _ladder_grid(n, g.shape[-1] // 2, v.shape[-1] // 2)
    gv, dgv = np.real(_samples(np.concatenate((g, _dx(g))), m))
    w1, w2 = _samples(np.concatenate((_bracket(v, sp), _bracket(_dx(v), sp))), m)
    val = np.mean(n * gv ** (n - 1) * dgv * w2 * np.conj(w1))
    return -alpha * correction_coefficient(n, alpha) * float(val.imag)


# -- the energy and its audit ----------------------------------------------------


@dataclass(frozen=True)
class ModifiedEnergy:
    value: float
    norm_u: float
    norm_v: float
    corrections: tuple[float, ...]
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
    return next(_energies(u.coeffs[None], F, ladder))


def _energies(u, F: PolynomialNonlinearity, ladder: CorrectionLadder):
    """The ModifiedEnergy of each of the S rows u, in order, block by block."""
    alpha, r, depth, a = ladder.alpha, ladder.r, ladder.depth, ladder.a
    for rows, theta, g in _weighted(u, F, depth):
        v = _dx(rows)
        for nu, nv, w, mean_im, ls in zip(
            _norms(rows, r - 1.0).tolist(),
            _norms(v, r - 1.0).tolist(),
            _norms(theta, 0.0).tolist(),
            theta[:, theta.shape[-1] // 2].imag.tolist(),
            _corrections(g, v, alpha, r, range(1, depth + 1)).tolist(),
        ):
            ls = tuple(ls)
            e2 = nu**2 + nv**2 + sum(ls) + a * nu**2 * w ** (2 * depth)
            if e2 < 0:
                raise ArithmeticError(
                    "negative energy radicand: the Young constants failed coercivity"
                )
            lower = nu**2 + 0.5 * nv**2
            upper = nu**2 + 1.5 * nv**2 + 2.0 * a * nu**2 * w ** (2 * depth)
            slack = 1e-12 * max(1.0, e2)
            coercive = (lower <= e2 + slack) and (e2 <= upper + slack)
            yield ModifiedEnergy(math.sqrt(e2), nu, nv, ls, mean_im, coercive, lower, upper)


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

    The ladder is CorrectionLadder.build(traj.config.alpha, r), and the
    snapshots are audited as rows, block by block.  The differential
    inequality bounds the increase of log(1 + E) only, so the reported
    constant is the maximal positive centered-difference slope.  A record
    without snapshots is a ValueError.
    """
    if not traj.snapshots:
        raise ValueError("no snapshots to audit")
    ladder = CorrectionLadder.build(traj.config.alpha, r)
    rows = list(_energies([u.coeffs for u in traj.snapshots], F, ladder))
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
    ((_, _, g),) = _weighted(u.coeffs[None], F)
    # exact for every partial sum; exp(g) aliases only through terms past n_terms
    m = _ladder_grid(n_terms, g.shape[-1] // 2, u.cutoff)
    gv = np.real(_samples(g[0], m))
    w2 = np.abs(_samples(_bracket(_dx(u.coeffs), r - 1.0), m)) ** 2
    target = float(np.mean(np.exp(gv) * w2))
    terms = [float(np.mean(gv**n * w2)) / math.factorial(n) for n in range(n_terms + 1)]
    return np.cumsum(terms), target


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
