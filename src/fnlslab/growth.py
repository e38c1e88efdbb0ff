"""Detection of the one-sided ill-posedness mechanism.

When the mean of Im F_omega along the solution is nonzero, the equation for
the interaction variable

    Vhat(t,k) = e^{i|k|^alpha t} vhat(t,k),   v = u_x,

carries the non-dispersive term -(Im P0 T_w(t)) k Vhat(t,k): one frequency
half grows like e^{|k| m t} (the negative half when m > 0, the positive half
when m < 0) and the Cauchy problem has no solution for rough data on that
side.  A finite Galerkin system always has local solutions, so the observable
signature is two-sided: per-mode exponential rates on one half matching the
measured mean of Im P0 T_w, together with divergence between paired K and 2K
runs while a well-posed control converges under the same refinement.

The machinery implemented here:

  gauge_shift             removes the real mean transport by translating each
                          snapshot by the time integral of Re P0 T_w (a pure
                          phase in Fourier; amplitudes untouched);
  resonant_decomposition  splits the Vhat equation into directly bounded
                          convolution parts (near-diagonal pairs |k1| >=
                          |k2|/2), normal-form parts M_j with denominators
                          |k|^alpha -+ |k2|^alpha on the separated pairs, and
                          their time-derivative remainders K_j, with the time
                          derivatives substituted from the evolution equation
                          rather than finite-differenced.  No (2K+1)^2 pair
                          grid is built: the phases separate per mode, the
                          coefficients at k1 = k - k2 are Toeplitz views of
                          one padded array, and each pair sum is a masked
                          matrix-vector product over blocks of output rows,
                          the separated sums over each block's band of
                          columns only.  decomposition_series forms its
                          inputs for all S snapshots as (S, ...) arrays and
                          builds each block's pair geometry once for all of
                          them, so memory is O(block * K + S * K);
  resonant_norm_audit     the weighted l2 bounds each part must satisfy on a
                          bounded run (a part that is not finite flags);
  directional_growth      per-mode log-linear rate fits and the paired
                          resolution-divergence metric;
  nonexistence_verdict    the two-sided classification.

The growth probe of `fnlslab run` uses probe_initial_data, directional_growth
and nonexistence_verdict.  No verb runs gauge_shift, the decomposition or its
audit: they are a library diagnostic.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .evolution import TrajectoryRecord, _multipliers, sup_l2_gap
from .nonlinearity import PolynomialNonlinearity, _block_means, _rows_coefficient_map
from .spectral import SpectralField, _dx, _norms, _products, _side, _weight, sobolev_norm, translate

__all__ = [
    "gauge_shift",
    "ResonantParts",
    "resonant_decomposition",
    "decomposition_series",
    "PartNorms",
    "resonant_norm_audit",
    "GrowthReport",
    "directional_growth",
    "nonexistence_verdict",
    "Verdict",
    "probe_initial_data",
    "write_growth_csv",
    "verdict_json",
]


def gauge_shift(traj: TrajectoryRecord, F: PolynomialNonlinearity) -> TrajectoryRecord:
    """Translate snapshots by the cumulative integral of Re P0 T_w.

    Pure phase modulation per mode; every amplitude |uhat(t,k)| is preserved.
    Trajectories with purely imaginary mean (e.g. T_w = i|u|^2 flows) are
    returned unchanged up to roundoff.
    """
    t, snaps = traj.times, traj.snapshots
    coeffs = np.array([u.coeffs for u in snaps])
    m_re = _block_means(F.wirtinger("omega"), coeffs).real
    shift = np.concatenate(([0.0], np.cumsum(0.5 * (m_re[1:] + m_re[:-1]) * np.diff(t))))
    moved = [translate(u, a) for u, a in zip(snaps, shift)]
    return TrajectoryRecord(t.copy(), moved, traj.config, traj.truncated)


# -- resonant decomposition ------------------------------------------------------


@dataclass
class ResonantParts:
    """The seven coefficient arrays of the Vhat equation, and mean Im P0 T_w, at one time."""

    time: float
    k: np.ndarray
    n11: np.ndarray
    n21: np.ndarray
    n3: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    mean_im: float

    def by_name(self) -> dict[str, np.ndarray]:
        return {
            "n11": self.n11,
            "n21": self.n21,
            "n3": self.n3,
            "m1": self.m1,
            "m2": self.m2,
            "k1": self.k1,
            "k2": self.k2,
        }


# Entries per block array in decomposition_series.
_BLOCK_ENTRIES = 1 << 16


def _times(F: PolynomialNonlinearity, slot: int) -> PolynomialNonlinearity:
    """F times the variable in `slot` (1 = omega, 3 = omega_bar)."""
    return PolynomialNonlinearity.from_terms(
        {idx[:slot] + (idx[slot] + 1,) + idx[slot + 1 :]: c for idx, c in F.terms}
    )


def resonant_decomposition(
    traj: TrajectoryRecord, F: PolynomialNonlinearity, t: float
) -> ResonantParts:
    """All seven arrays at recorded time t, output modes |k| <= cutoff.

    The one-snapshot call of `decomposition_series`, which shares each
    block's pair geometry across its snapshots: for several times, call that.
    """
    return decomposition_series(traj, F, (t,))[0]


def decomposition_series(
    traj: TrajectoryRecord, F: PolynomialNonlinearity, times: Iterable[float] | None = None
) -> list[ResonantParts]:
    """The seven arrays at each recorded time in `times` (default: all of them).

    Expects a gauge-shifted trajectory (or one whose Re P0 T_w vanishes);
    the residual real mean is folded into the substituted time derivatives
    either way.  Sums run over the literal near-diagonal / separated index
    sets; on the separated set |delta| >= |k1| |k2|^{alpha-1}, a bound of the
    index set alone, so zero denominators cannot occur there (asserted).
    The sums are taken over blocks of about 2^16 pairs; the separated sums
    of a block run over the band of columns that holds its separated pairs.
    Each block's pair geometry (the D1/D2 masks, the column band and the
    weights 1/delta and 1/sigma) is built once and shared by every snapshot,
    so memory is O(block * K + S * K) for S snapshots.  The snapshot inputs
    are (S, ...) arrays: F and each of its Wirtinger polynomials go along
    every snapshot in one block coefficient map, and each chain-rule term is
    one block product.
    """
    alpha, eps, K = traj.config.alpha, traj.config.eps, traj.config.cutoff
    times = list(traj.times if times is None else times)
    if not times:
        return []
    u = np.array([traj.snapshot_at(t).coeffs for t in times])
    S, n = u.shape

    def along(P: PolynomialNonlinearity, kout: int | None = None) -> np.ndarray:
        """(S, 2*kout+1): P along each snapshot, kout default P's band (K is inside it)."""
        kout = max(P.total_degree, 1) * K if kout is None else kout
        return _rows_coefficient_map([P] * S, [K] * S, K, kout)(u)

    # The substituted time derivative du/dt of the gauge-shifted equation,
    # f = F along u, the residual real mean folded into the transport.
    ks = np.arange(-K, K + 1)
    theta_o, theta_ob = F.wirtinger("omega"), F.wirtinger("omega_bar")
    th_o = along(theta_o)
    mean_theta = th_o[:, th_o.shape[1] // 2]
    dtu = _multipliers(ks, alpha, eps) * u + along(F, K) + -mean_theta.real[:, None] * (1j * ks) * u
    dtv = _dx(dtu)

    # The windows: theta of each family, assigned, and dt theta, the chain
    # rule through the equation summed from +0.0 in slot order (zeta, omega,
    # zeta_bar, omega_bar), at k1 + 2K for |k1| <= 2K.
    dargs = (dtu, dtv, np.conj(dtu[:, ::-1]), np.conj(dtv[:, ::-1]))

    def window(theta: PolynomialNonlinearity, coeffs: np.ndarray) -> np.ndarray:
        pad = np.zeros((S, 2, 4 * K + 1), dtype=np.complex128)

        def band(c):  # the window entries of c's modes |k1| <= 2K, and those modes
            kc, b = c.shape[1] // 2, min(c.shape[1] // 2, 2 * K)
            return slice(2 * K - b, 2 * K + b + 1), c[:, kc - b : kc + b + 1]

        at, vals = band(coeffs)
        pad[:, 0, at] = vals
        for v, darg in zip(("zeta", "omega", "zeta_bar", "omega_bar"), dargs):
            P = theta.wirtinger(v)
            if not P.is_zero():
                at, vals = band(_products([along(P)], [darg], [0])[0])
                pad[:, 1, at] += vals
        return pad

    pad_o = window(theta_o, th_o)
    pad_o[:, :, 2 * K] = 0.0  # P_nonmean for the omega family
    pad_ob = window(theta_ob, along(theta_ob))
    # Remainder R = T_z v + T_zb conj v, one polynomial in the four slots.
    rem = along(_times(F.wirtinger("zeta"), 1) + _times(F.wirtinger("zeta_bar"), 3), K)

    # Pair sums over rows k (ascending) and columns k2 (descending).  The
    # phases separate: e^{i delta t} Vhat(k2) = phase(k) vhat(k2) and
    # e^{i sigma t} conj(Vhat(-k2)) = phase(k) conj(vhat(-k2)), so each sum is
    # phase(k) times a masked matrix-vector product over k2.
    p = np.abs(ks.astype(float)) ** alpha
    vhat = (1j * ks) * u
    dv = 1j * p * vhat + dtv  # conj(phase) * dt Vhat
    cols = ks[::-1]
    # Column vectors: k2 vhat(k2), k2 dv(k2) for the omega family and
    # k2 conj(vhat(-k2)), k2 conj(dv(-k2)) for the omega_bar family.
    x_o = np.stack([cols * vhat[:, ::-1], cols * dv[:, ::-1]], axis=-1)
    x_ob = np.stack([cols * np.conj(vhat), cols * np.conj(dv)], axis=-1)
    del dtu, dtv, dargs, vhat, dv  # not needed in the block loop
    win_o, win_ob = (sliding_window_view(pad, n, axis=-1) for pad in (pad_o, pad_ob))
    th_used = sliding_window_view(pad_o[:, 0] != 0, n, axis=-1)  # P_nonmean theta_omega != 0
    # With both windows zero (F free of omega and omega_bar up to a mean
    # theta_omega) every pair sum is an exact zero and no pair is used.
    live = [s for s in range(S) if pad_o[s].any() or pad_ob[s].any()]
    sums = np.zeros((S, 6, n), dtype=np.complex128)  # n11, n21, m1, k1, m2, k2 before the phase
    abs_cols = np.abs(cols)
    p_cols = p[::-1]

    rows = max(1, _BLOCK_ENTRIES // n)
    for i0 in range(0, n, rows) if live else ():
        r = slice(i0, i0 + rows)
        d2 = 2 * np.abs(ks[r, None] - cols) < abs_cols
        d1 = (~d2).astype(float)
        # Row k separates from the columns 2k/3 < k2 < 2k (mirrored for
        # k < 0), so the block's separated pairs lie in one band c of
        # columns (empty when the block is the row k = 0 alone), and every
        # separated-only step runs on that band.
        j = np.flatnonzero(d2.any(axis=0))
        c = slice(j[0], j[-1] + 1) if j.size else slice(0)
        for s in live:  # the near-diagonal sums n11, n21
            np.matmul(win_o[s, 0, r] * d1, x_o[s, :, 0], out=sums[s, 0, r])
            np.matmul(win_ob[s, 0, r] * d1, x_ob[s, :, 0], out=sums[s, 1, r])
        # The separated sums m1, k1, m2, k2 on the band.
        d2 = d2[:, c]
        delta = p[r, None] - p_cols[c]
        # delta = 0 on D2 only at k1 = 0, where P_nonmean theta vanishes;
        # asserted below for the used pairs.
        zero_delta = d2 & (delta == 0.0)
        w1 = np.zeros(delta.shape)
        np.divide(1.0, delta, out=w1, where=d2 & (delta != 0.0))
        del delta
        sigma = p[r, None] + p_cols[c]
        w2 = np.zeros(sigma.shape)
        np.divide(1.0, sigma, out=w2, where=d2 & (sigma != 0.0))
        del sigma
        for s in live:
            if np.any(zero_delta & th_used[s, r, c]):
                raise AssertionError("zero denominator on the separated index set")
            # sep[f, :, d] = (field f * weight) @ column vector d
            sep_o = (win_o[s, :, r, c] * w1) @ x_o[s, c]
            sep_ob = (win_ob[s, :, r, c] * w2) @ x_ob[s, c]
            m1, k1_arr, m2, k2_arr = sums[s, 2:]
            m1[r], k1_arr[r] = sep_o[0, :, 0], sep_o[1, :, 0] + sep_o[0, :, 1]
            m2[r], k2_arr[r] = sep_ob[0, :, 0], sep_ob[1, :, 0] + sep_ob[0, :, 1]

    out = []
    for s, t in enumerate(times):
        phase = np.exp(1j * p * t)
        n11, n21, m1, k1_arr, m2, k2_arr = sums[s]
        out.append(ResonantParts(
            time=float(t), k=ks.copy(), n11=1j * phase * n11, n21=1j * phase * n21,
            n3=phase * rem[s], m1=phase * m1, m2=phase * m2, k1=-phase * k1_arr,
            k2=-phase * k2_arr, mean_im=float(mean_theta[s].imag),
        ))
    return out


@dataclass
class PartNorms:
    name: str
    weight: float
    norms: np.ndarray
    initial: float
    sup: float
    flagged: bool


def resonant_norm_audit(
    parts: list[ResonantParts],
    s: float,
    alpha: float,
    growth_multiple: float = 10.0,
) -> dict[str, PartNorms]:
    """Weighted sup-in-time norms of the seven parts against their proved weights.

    n11, n21, n3 are measured in l2_{s-1}; m1, m2 in l2_{s+alpha-3};
    k1, k2 in l2_{s+min(-1, alpha-4)}.  A part is flagged when its sup
    exceeds growth_multiple times its initial size; a part whose sup stays
    below 1e-10 never flags, and one that starts below it flags on leaving it.
    A part with a norm that is not finite (a NaN or an infinite entry, at any
    snapshot) always flags.  An empty `parts` or a growth_multiple that is
    not positive is a ValueError.
    """
    if not parts:
        raise ValueError("no snapshots to audit")
    if not growth_multiple > 0.0:
        raise ValueError(f"growth_multiple must be positive, got {growth_multiple!r}")
    weights = {
        "n11": s - 1.0,
        "n21": s - 1.0,
        "n3": s - 1.0,
        "m1": s + alpha - 3.0,
        "m2": s + alpha - 3.0,
        "k1": s + min(-1.0, alpha - 4.0),
        "k2": s + min(-1.0, alpha - 4.0),
    }
    out: dict[str, PartNorms] = {}
    for name, sig in weights.items():
        norms = _norms(np.array([p.by_name()[name] for p in parts]), sig)
        initial, sup = float(norms[0]), float(np.max(norms))
        if not np.all(np.isfinite(norms)):
            flagged = True
        elif sup <= 1e-10:
            flagged = False
        elif initial <= 1e-10:
            flagged = True
        else:
            flagged = sup > growth_multiple * initial
        out[name] = PartNorms(name, sig, norms, initial, sup, flagged)
    return out


# -- growth fitting and the verdict ----------------------------------------------

# The thresholds of the verdict, echoed in every Verdict.
_RATE_TOL = 0.25
_MIN_CONSECUTIVE = 5
_DIVERGE_THRESHOLD = 1e-3
_AGREE_THRESHOLD = 1e-6


@dataclass
class GrowthReport:
    """Fitted rates of the modes on one side, mean Im P0 T_w, their match, the K/2K gap."""

    side: str
    mode_rates: dict[int, float]
    predicted_slope: float
    matching_run: int  # longest consecutive-mode run matching the prediction
    divergence: float | None = None


def directional_growth(
    traj: TrajectoryRecord,
    F: PolynomialNonlinearity,
    side: str = "minus",
    fit_window: tuple[float, float] | None = None,
    paired: TrajectoryRecord | None = None,
) -> GrowthReport:
    """Least-squares exponential rates of |uhat(t,k)| on one frequency half.

    The rates are fitted over fit_window, by default (0.05, 0.3) times the last
    time.  The fitted rate of mode k divided by -k is compared against the window
    mean of Im P0 T_w to a relative 0.25; under the one-sided mechanism they
    agree on the growing half.  Modes dipping below 1e-13 are excluded.
    """
    ks = traj.snapshots[0].wavenumbers()
    side_modes = sorted(ks[_side(ks, side)], key=abs)
    tmax = float(traj.times[-1])
    if fit_window is None:
        fit_window = (0.05 * tmax, 0.3 * tmax)
    lo, hi = fit_window
    sel = np.where((traj.times >= lo) & (traj.times <= hi))[0]
    if len(sel) < 3:
        raise ValueError("fit window contains fewer than three snapshots")
    ts = traj.times[sel]
    rows = np.array([traj.snapshots[i].coeffs for i in sel])
    amps = np.abs(rows)

    predicted = float(np.mean(_block_means(F.wirtinger("omega"), rows).imag))

    rates: dict[int, float] = {}
    for k in side_modes:
        col = amps[:, k + traj.config.cutoff]
        if np.min(col) < 1e-13:
            continue
        rates[k] = float(np.polyfit(ts, np.log(col), 1)[0])

    run = 0
    best = 0
    scale = max(abs(predicted), 1e-30)
    for k in side_modes:
        if k in rates and abs(rates[k] / (-k) - predicted) <= _RATE_TOL * scale:
            run += 1
            best = max(best, run)
        else:
            run = 0

    divergence = sup_l2_gap(traj, paired) if paired is not None else None
    return GrowthReport(
        side=side,
        mode_rates=rates,
        predicted_slope=predicted,
        matching_run=best,
        divergence=divergence,
    )


@dataclass
class Verdict:
    classification: str  # consistent_wellposed | directional_growth_detected | inconclusive
    side: str
    matching_run: int
    min_consecutive: int
    rate_tol: float
    divergence: float | None
    diverge_threshold: float
    agree_threshold: float
    control_divergence: float | None = None


def nonexistence_verdict(
    report: GrowthReport,
    control_divergence: float | None = None,
) -> Verdict:
    """Two-sided classification from a growth report carrying a paired divergence.

    directional_growth_detected needs the rate match on >= 5 consecutive
    modes AND paired-resolution divergence above 1e-3, with the optional
    control pair still agreeing; agreement of the pair to 1e-6 yields
    consistent_wellposed; anything else is inconclusive.
    """
    if report.divergence is None:
        raise ValueError("report carries no paired-resolution divergence")
    detected = (
        report.matching_run >= _MIN_CONSECUTIVE
        and report.divergence > _DIVERGE_THRESHOLD
        and (control_divergence is None or control_divergence < _AGREE_THRESHOLD)
    )
    if detected:
        cls = "directional_growth_detected"
    elif report.divergence < _AGREE_THRESHOLD:
        cls = "consistent_wellposed"
    else:
        cls = "inconclusive"
    return Verdict(
        classification=cls,
        side=report.side,
        matching_run=report.matching_run,
        min_consecutive=_MIN_CONSECUTIVE,
        rate_tol=_RATE_TOL,
        divergence=report.divergence,
        diverge_threshold=_DIVERGE_THRESHOLD,
        agree_threshold=_AGREE_THRESHOLD,
        control_divergence=control_divergence,
    )


_TAIL_AMPLITUDE = 0.1  # the probe datum's tail, relative to the witness in L2


def probe_initial_data(
    witness: SpectralField,
    cutoff: int,
    s: float,
    side: str = "minus",
    seed: int = 0,
) -> SpectralField:
    """Witness plus a rough one-sided tail, just outside H^{s + delta}.

    Tail coefficients <k>^{-s-1/2-0.01} e^{i theta_k} with random phases on
    the probed side, scaled to _TAIL_AMPLITUDE of the witness L2 norm; the
    witness keeps the criterion mean bounded away from zero at t = 0.
    """
    mask = _side(np.arange(-cutoff, cutoff + 1), side)
    rng = np.random.default_rng(seed)
    tail = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    tail[mask] = _weight(cutoff, -(s + 0.5 + 0.01) / 2.0)[mask] * np.exp(
        2j * np.pi * rng.random(mask.sum())
    )
    return _with_tail(witness, SpectralField(tail, cutoff))


def _with_tail(witness: SpectralField, tail: SpectralField) -> SpectralField:
    """witness at the tail's cutoff plus the tail scaled to _TAIL_AMPLITUDE of
    the witness L2 norm, or as it is if either norm is 0."""
    tn, wn = sobolev_norm(tail, 0.0), sobolev_norm(witness, 0.0)
    if tn > 0 and wn > 0:
        tail = tail * (_TAIL_AMPLITUDE * wn / tn)
    return witness.with_cutoff(tail.cutoff) + tail


def write_growth_csv(report: GrowthReport, path) -> None:
    """CSV ``k,fitted_rate,predicted,relative_error``."""
    pred = report.predicted_slope
    with open(path, "w") as fh:
        fh.write("k,fitted_rate,predicted,relative_error\n")
        for k in sorted(report.mode_rates):
            rate = report.mode_rates[k]
            expected = -k * pred
            rel = abs(rate - expected) / max(abs(expected), 1e-30)
            fh.write(f"{k},{rate:.17g},{expected:.17g},{rel:.17g}\n")


def verdict_json(v: Verdict) -> str:
    """One-line machine-readable verdict with thresholds echoed."""
    return json.dumps(asdict(v), sort_keys=True)
