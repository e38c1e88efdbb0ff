"""Time integration of the regularized flow in Fourier space.

The equation advanced is

    u_t + i D^alpha u - eps u_xx = F(u, u_x, conj u, conj u_x),  |k| <= K,

as a Galerkin system for the coefficients.  The scheme is an
integrating-factor Runge-Kutta 4: the stiff diagonal part
exp(t(-i|k|^alpha - eps k^2)) is applied exactly and classical RK4 handles the
transformed nonlinearity, so F = 0 reproduces the semigroup to roundoff.
Diagonal linear terms of F itself (the zeta and omega monomials of degree one,
Fourier multipliers c0 + i c1 k) are absorbed into the integrating factor as
well; this keeps single-multiplier flows such as transport exact instead of
leaving an O(dt^4) residual.

Runs that go nonfinite or exceed a configurable H^1 ceiling stop cleanly and
return a record flagged as truncated; ill-posed data must terminate
informatively, not crash.

Horizons are always user-set, as a whole number of steps dt, so a run that
is not truncated ends exactly at its horizon.  The guaranteed-existence-time
formula of the energy theory depends on an abstract constant that is not
computable, so no a-priori horizon is derived here; runs that outlive their
welcome are caught by the blowup ceiling instead.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .nonlinearity import PolynomialNonlinearity, _rows_coefficient_map
from .spectral import SpectralField, _norms, _weight

__all__ = [
    "EvolutionConfig",
    "TrajectoryRecord",
    "integrate",
    "integrate_rows",
    "eps_convergence_study",
    "eps_convergence_table",
    "EpsConvergenceTable",
    "sup_l2_gap",
    "write_trajectory",
    "read_trajectory",
]


@dataclass(frozen=True)
class EvolutionConfig:
    """Parameters of one run.  2 < alpha < inf; 0 <= eps < inf (eps = 0 is the Galerkin flow).

    cutoff >= 1; 0 < blowup_ceiling, and inf means no ceiling.  cutoff and
    record_every are stored as Python ints: any integral value (a numpy
    integer too) is taken through operator.index, and a bool, a float or
    another non-integral value is a ValueError.
    """

    alpha: float
    eps: float = 0.0
    cutoff: int = 64
    dt: float = 1e-3
    horizon: float = 1.0
    record_every: int = 10
    blowup_ceiling: float = 1e6

    def __post_init__(self):
        for name in ("cutoff", "record_every"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
        if not 2 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and exceed 2, not {self.alpha}")
        if not 0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, not {self.eps}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, not {self.cutoff}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        steps = self.horizon / self.dt
        n = round(steps) if math.isfinite(steps) else 0
        if n < 1 or abs(steps - n) > 1e-9 * steps:
            raise ValueError(
                f"horizon {self.horizon} is not a whole number of steps dt={self.dt}"
            )
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if not 0 < self.blowup_ceiling:
            raise ValueError(f"blowup_ceiling must be > 0, not {self.blowup_ceiling}")


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    snapshots: list[SpectralField]
    config: EvolutionConfig
    truncated: bool = False

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if len(t) != len(self.snapshots):
            raise ValueError("times and snapshots length mismatch")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        k = self.config.cutoff
        if any(s.cutoff != k for s in self.snapshots):
            raise ValueError("snapshot cutoffs must equal the configured cutoff")
        self.times = t

    def snapshot_at(self, t: float) -> SpectralField:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"no snapshot recorded at t={t}")
        return self.snapshots[i]


def _multipliers(k: np.ndarray, alpha: float, eps: float) -> np.ndarray:
    return -1j * np.abs(k.astype(float)) ** alpha - eps * k.astype(float) ** 2


def _split_diagonal_linear(
    F: PolynomialNonlinearity,
) -> tuple[complex, complex, PolynomialNonlinearity]:
    """Extract c0*zeta + c1*omega (Fourier multiplier c0 + i c1 k) from F."""
    c0 = 0.0 + 0.0j
    c1 = 0.0 + 0.0j
    rest: dict = {}
    for idx, c in F.terms:
        if idx == (1, 0, 0, 0):
            c0 = c
        elif idx == (0, 1, 0, 0):
            c1 = c
        else:
            rest[idx] = c
    return c0, c1, PolynomialNonlinearity.from_terms(rest)


def _prepare(phi: SpectralField, F: PolynomialNonlinearity, cfg: EvolutionConfig):
    """Initial coefficients, the rest of F and the half- and full-step factors."""
    k = cfg.cutoff
    if phi.cutoff > k:
        raise ValueError(f"initial data cutoff {phi.cutoff} exceeds config cutoff {k}")
    phi = phi.with_cutoff(k)
    ks = phi.wavenumbers()
    c0, c1, F_rest = _split_diagonal_linear(F)
    lam = _multipliers(ks, cfg.alpha, cfg.eps) + c0 + 1j * c1 * ks.astype(float)
    return phi.coeffs.copy(), F_rest, np.exp(lam * cfg.dt / 2.0), np.exp(lam * cfg.dt)


def _rk4_stepper(rhs, e_half, e_full, dt):
    """One IF-RK4 step of a block of rows (B, 2K+1), built once for the block.

    ``rhs(u, out=...)`` writes the nonlinear term of u into out, and
    e_half, e_full are the (B, 2K+1) half- and full-step factors.  The
    returned step takes the state and returns the next one, a fresh array
    (snapshots are taken from it).  It is the classical scheme

        n1 = N(u),        n2 = N(e_half (u + dt/2 n1)),
        n3 = N(e_half u + dt/2 n2),   n4 = N(e_full u + dt e_half n3),
        u' = e_full u + dt/6 (e_full n1 + 2 e_half (n2 + n3) + n4),

    with the products and sums in this order and operands on these sides,
    the constants 0.5*dt, dt*e_half, 2.0*e_half and dt/6 hoisted out of the
    step, and e_full u computed once.  The stages and the nonlinear terms
    are written with ``out=`` into arrays built here, so a step allocates
    only its result.  Not for concurrent use.
    """
    half_dt, dt_e_half, two_e_half, sixth_dt = 0.5 * dt, dt * e_half, 2.0 * e_half, dt / 6.0
    n1, n2, n3, n4, stage, tmp, eu = (np.empty_like(e_full) for _ in range(7))

    def step(u: np.ndarray) -> np.ndarray:
        rhs(u, out=n1)
        np.multiply(half_dt, n1, out=stage)
        np.add(u, stage, out=stage)
        np.multiply(e_half, stage, out=stage)
        rhs(stage, out=n2)
        np.multiply(e_half, u, out=stage)
        np.multiply(half_dt, n2, out=tmp)
        np.add(stage, tmp, out=stage)
        rhs(stage, out=n3)
        np.multiply(e_full, u, out=eu)
        np.multiply(dt_e_half, n3, out=tmp)
        np.add(eu, tmp, out=stage)
        rhs(stage, out=n4)
        np.multiply(e_full, n1, out=n1)
        np.add(n2, n3, out=n2)
        np.multiply(two_e_half, n2, out=n2)
        np.add(n1, n2, out=n1)
        np.add(n1, n4, out=n1)
        np.multiply(sixth_dt, n1, out=n1)
        return np.add(eu, n1)

    return step


def _linear_step(e_half, e_full, dt):
    """The IF-RK4 step for rows whose RHS is identically zero, as two operations.

    Every stage of such rows feeds exact zeros, so the step adds the same
    constant each time; it is computed once here from zero arrays by the
    last line of the scheme in `_rk4_stepper`, in its order, signed zeros
    included, so each step is bitwise the full one.
    """
    z = np.zeros_like(e_full)
    shift = (dt / 6.0) * (e_full * z + 2.0 * e_half * (z + z) + z)
    return lambda u: e_full * u + shift


def _leaving(u: np.ndarray, w2: np.ndarray, ceiling: np.ndarray, reach: float) -> list[int]:
    """Positions of the rows of the block u that are nonfinite or above their H^1 ceiling.

    ``w2`` holds the squared H^1 weights, repeated for the real and imaginary
    parts, and ``reach`` is the smallest ceiling over twice sqrt(sum(w2)).
    The H^1 norm lies between the largest |Re uhat|, |Im uhat| (weights >= 1)
    and sqrt(sum(w2)) times it, so a block whose largest part is within
    ``reach`` stays whole on one reduction.  Otherwise a row with a nan, inf
    or above-ceiling part leaves before any norm squares it, which could
    overflow, and the norms of the other rows are one reduction.  An inf
    part leaves under an inf ceiling too.
    """
    parts = u.view(np.float64)
    biggest = np.abs(parts).max()
    if biggest <= reach and biggest < math.inf:
        return []
    top = np.abs(parts).max(axis=1)
    stay = (top <= ceiling) & (top < math.inf)
    if stay.any():
        stay[stay] = np.sqrt(np.square(parts[stay]) @ w2) <= ceiling[stay]
    return np.flatnonzero(~stay).tolist()


def integrate(
    phi: SpectralField, F: PolynomialNonlinearity, cfg: EvolutionConfig
) -> TrajectoryRecord:
    """Advance the flow from phi; snapshots every record_every steps.

    The record is flagged truncated (never an exception) when the state goes
    nonfinite or its H^1 norm crosses cfg.blowup_ceiling.  A stage that
    overflows on the way is caught by that check, so it raises no warning.
    This is the one-row call of `integrate_rows`.
    """
    return integrate_rows([(phi, F, cfg)])[0]


def integrate_rows(
    rows: list[tuple[SpectralField, PolynomialNonlinearity, EvolutionConfig]],
) -> list[TrajectoryRecord]:
    """Advance several (phi, F, cfg) rows of the flow at once, one record per row.

    The rows must share dt, horizon and record_every (anything else is a
    ValueError); cutoff, alpha, eps, F and the blowup ceiling are per row.
    The rows advance together as one (B, 2n+1) block, n the largest cutoff,
    each row's modes centred in its row and the modes beyond its cutoff held
    at zero.  The RHS is a plan built for the block (`_rows_coefficient_map`,
    again whenever a row leaves), one row or many: an evaluation moves every
    row's modes in and out with a few indexed moves of the whole block and
    takes one pair of transforms per cutoff and padded grid instead of one
    per row, and rows of the same monomials share one evaluation of F across
    grids whatever their order.  The rows are stacked as given.  The step
    (`_rk4_stepper`) is built with the RHS and writes its stages into arrays
    built with it.  A row's record is bitwise the same whichever rows share
    the call.  While every row of the block has a zero nonlinear part (F is
    diagonal linear, absorbed into the integrating factor) the block takes
    the exact two-operation step of `_linear_step`.  A row is recorded
    truncated as in `integrate` and leaves the block while the others go on.
    No rows give no records.
    """
    rows = list(rows)
    if len({(c.dt, c.horizon, c.record_every) for _, _, c in rows}) > 1:
        raise ValueError("rows must share dt, horizon and record_every")
    if not rows:
        return []
    cfg = rows[0][2]
    dt = cfg.dt
    nsteps = int(round(cfg.horizon / dt))
    cuts = [c.cutoff for _, _, c in rows]
    n = max(cuts)
    window = [slice(n - k, n + k + 1) for k in cuts]
    w2 = np.repeat(_weight(n, 1.0), 2)
    u0, polys, e_half0, e_full0 = zip(*(_prepare(*row) for row in rows))

    def stack(arrays, js, fill):
        out = np.full((len(js), 2 * n + 1), fill, dtype=np.complex128)
        for i, j in enumerate(js):
            out[i, window[j]] = arrays[j]
        return out

    def block(js):
        """The step map of rows js, stacked in that order, and their `_leaving` ceilings."""
        # Beyond a row's cutoff the factors are 1 and the RHS is 0, so its zeros stay.
        e_half, e_full = stack(e_half0, js, 1.0), stack(e_full0, js, 1.0)
        ceiling = np.array([rows[j][2].blowup_ceiling for j in js])
        limits = ceiling, float(ceiling.min()) / (2.0 * math.sqrt(w2.sum()))
        if all(polys[j].is_zero() for j in js):
            return _linear_step(e_half, e_full, dt), limits
        rhs = _rows_coefficient_map([polys[j] for j in js], [cuts[j] for j in js], n)
        return _rk4_stepper(rhs, e_half, e_full, dt), limits

    active = list(range(len(rows)))
    u = stack(u0, active, 0.0)
    step_map, limits = block(active)
    times = [[0.0] for _ in rows]
    snaps = [[SpectralField(c, k)] for c, k in zip(u0, cuts)]
    truncated = [False] * len(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            u = step_map(u)
            gone = _leaving(u, w2, *limits)
            if gone:
                for i in gone:
                    truncated[active[i]] = True
                if len(gone) == len(active):
                    break
                keep = [i for i in range(len(active)) if i not in gone]
                u = u[keep]
                active = [active[i] for i in keep]
                step_map, limits = block(active)
            if step % cfg.record_every == 0 or step == nsteps:
                for i, j in enumerate(active):
                    times[j].append(step * dt)
                    snaps[j].append(SpectralField(u[i, window[j]], cuts[j]))

    return [
        TrajectoryRecord(np.asarray(times[j]), snaps[j], rows[j][2], truncated[j])
        for j in range(len(rows))
    ]


def sup_l2_gap(a: TrajectoryRecord, b: TrajectoryRecord) -> float:
    """sup over common recorded times of the L2 distance between the runs."""
    n = min(len(a.times), len(b.times))
    if not np.allclose(a.times[:n], b.times[:n]):
        raise ValueError("trajectories were recorded on different time grids")
    k = max(a.config.cutoff, b.config.cutoff)
    d = np.zeros((n, 2 * k + 1), dtype=np.complex128)  # a's minus b's first n snapshots at k
    wa, wb = (slice(k - r.config.cutoff, k + r.config.cutoff + 1) for r in (a, b))
    for row, u, v in zip(d, a.snapshots, b.snapshots):
        row[wa] = u.coeffs
        row[wb] -= v.coeffs
    return max([0.0, *_norms(d, 0.0).tolist()])  # max skips a NaN norm


@dataclass
class EpsConvergenceTable:
    """Pairwise sup-in-time L2 differences across a viscosity family."""

    eps_values: tuple[float, ...]
    pairs: list[tuple[float, float, float]]  # (eps_i, eps_j, sup_t L2 diff)
    beta: float  # fitted exponent of diff ~ |eps_i - eps_j|^beta
    truncated: bool


def eps_convergence_study(
    phi: SpectralField,
    F: PolynomialNonlinearity,
    cfg: EvolutionConfig,
    eps_list: list[float],
) -> EpsConvergenceTable:
    """Run the flow for each eps and fit the vanishing-viscosity difference rate."""
    if len(eps_list) < 2:
        raise ValueError("need at least two eps values")
    return eps_convergence_table(integrate_rows([(phi, F, replace(cfg, eps=e)) for e in eps_list]))


def eps_convergence_table(runs: list[TrajectoryRecord]) -> EpsConvergenceTable:
    """The table of `eps_convergence_study` from its runs, which differ in eps only."""
    eps_list = [r.config.eps for r in runs]
    truncated = any(r.truncated for r in runs)
    pairs = []
    xs, ys = [], []
    for i in range(len(eps_list)):
        for j in range(i + 1, len(eps_list)):
            d = sup_l2_gap(runs[i], runs[j])
            pairs.append((eps_list[i], eps_list[j], d))
            gap = abs(eps_list[i] - eps_list[j])
            if gap > 0 and d > 0:
                xs.append(math.log(gap))
                ys.append(math.log(d))
    beta = float("nan")
    if len(xs) >= 2 and max(xs) > min(xs):
        beta = float(np.polyfit(xs, ys, 1)[0])
    return EpsConvergenceTable(tuple(eps_list), pairs, beta, truncated)


# -- storage -------------------------------------------------------------------


def _write_json(path, obj) -> None:
    """The one JSON format of the lab's artifacts: indent 2, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory(
    traj: TrajectoryRecord, csv_path, json_path=None, extra: dict | None = None
) -> None:
    """Long-format CSV ``t,k,re,im`` plus a JSON sidecar with config and flags."""
    with open(csv_path, "w") as fh:
        fh.write("t,k,re,im\n")
        for t, snap in zip(traj.times.tolist(), traj.snapshots):
            # One % per snapshot; '%.17g' % x is f'{x:.17g}' for every float.
            n = len(snap.coeffs)
            cells = [None] * (4 * n)
            cells[0::4] = ["%.17g" % t] * n
            cells[1::4] = snap.wavenumbers().tolist()
            cells[2::4] = snap.coeffs.real.tolist()
            cells[3::4] = snap.coeffs.imag.tolist()
            fh.write("%s,%d,%.17g,%.17g\n" * n % tuple(cells))
    if json_path is not None:
        meta = {**asdict(traj.config), "truncated": traj.truncated, **(extra or {})}
        _write_json(json_path, meta)


def read_trajectory(csv_path, json_path) -> TrajectoryRecord:
    """The record stored by `write_trajectory`.  A sidecar may omit record_every
    and blowup_ceiling, which then take their defaults; a missing other field
    is a KeyError.  A CSV whose first line is not the header ``t,k,re,im``, a
    mode outside the sidecar's cutoff, a value that is not finite, a second row
    for one (t, k), a snapshot without a row for some mode and a CSV without
    rows are ValueErrors."""
    with open(json_path) as fh:
        meta = json.load(fh)
    return _trajectory_from(csv_path, meta)


def _trajectory_from(csv_path, meta: dict) -> TrajectoryRecord:
    """`read_trajectory` of the CSV at csv_path and the parsed sidecar meta."""
    optional = ("record_every", "blowup_ceiling")
    names = [f.name for f in fields(EvolutionConfig)]
    cfg = EvolutionConfig(**{n: meta[n] for n in names if n in meta or n not in optional})
    k, modes = cfg.cutoff, range(-cfg.cutoff, cfg.cutoff + 1)
    rows: dict[float, dict[int, complex]] = {}  # time -> mode -> coefficient
    last: dict[float, int] = {}  # time -> the line of its last row
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != "t,k,re,im":
            raise ValueError(f"{csv_path}:1: header {header!r}, not 't,k,re,im'")
        for ln, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            t_s, k_s, re_s, im_s = line.split(",")
            t, mode, re, im = float(t_s), int(k_s), float(re_s), float(im_s)
            if not all(map(math.isfinite, (t, re, im))):
                raise ValueError(f"{csv_path}:{ln}: a value that is not finite in {line!r}")
            if not -k <= mode <= k:
                raise ValueError(f"{csv_path}:{ln}: mode {mode} outside the cutoff {k}")
            row = rows.setdefault(t, {})
            if mode in row:
                raise ValueError(f"{csv_path}:{ln}: a second row for mode {mode} at t = {t}")
            row[mode], last[t] = re + 1j * im, ln
    if not rows:
        raise ValueError(f"{csv_path}: no data rows")
    for t, row in rows.items():
        missing = [j for j in modes if j not in row]
        if missing:
            raise ValueError(f"{csv_path}:{last[t]}: no row for mode {missing[0]} at t = {t}")
    coeffs = [np.array([row[j] for j in modes], np.complex128) for row in rows.values()]
    snaps = [SpectralField(c, k) for c in coeffs]
    return TrajectoryRecord(
        np.asarray(list(rows)), snaps, cfg, truncated=bool(meta.get("truncated", False))
    )
