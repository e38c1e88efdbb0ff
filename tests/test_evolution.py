"""Time integration: exact linear propagation, regressions, convergence studies."""

import warnings
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fnlslab.evolution import (
    EvolutionConfig,
    TrajectoryRecord,
    _prepare,
    _leaving,
    _rk4_stepper,
    eps_convergence_study,
    integrate,
    integrate_rows,
    read_trajectory,
    sup_l2_gap,
    write_trajectory,
)
from fnlslab.growth import probe_initial_data
from fnlslab.nonlinearity import (
    PolynomialNonlinearity,
    _rows_coefficient_map,
    cubic,
    example_b,
    example_c,
    example_d,
    linear_transport,
)
from fnlslab.spectral import (
    SpectralField,
    random_field,
    sobolev_norm,
    truncate_modes,
)
from test_nonlinearity import oracle_coefficient_map
from test_spectral import _inline_norms, linear_semigroup_apply

ZERO = PolynomialNonlinearity.zero()


def decaying_data(cutoff, seed=0, rate=1.0):
    rng = np.random.default_rng(seed)
    ks = np.arange(-cutoff, cutoff + 1)
    return SpectralField(
        np.exp(-rate * np.abs(ks)) * np.exp(2j * np.pi * rng.random(2 * cutoff + 1)),
        cutoff,
    )


# -- the semigroup -----------------------------------------------------------------


def test_semigroup_examples():
    out = linear_semigroup_apply(SpectralField.from_modes({1: 1.0}, 1), 0.7, 3.5, 0.0)
    assert abs(out.coefficient(1) - np.exp(-0.7j)) < 1e-15
    out = linear_semigroup_apply(SpectralField.from_modes({2: 1.0}, 2), 1.0, 4.0, 1.0)
    assert abs(out.coefficient(2) - np.exp(-16j - 4.0)) < 1e-14
    c = SpectralField.constant(2.0 - 1j)
    out = linear_semigroup_apply(c, 5.0, 3.0, 0.3)
    assert abs(out.coefficient(0) - (2.0 - 1j)) < 1e-15


def test_semigroup_contraction_and_composition():
    f = random_field(16, 1.0, np.random.default_rng(0))
    for s in (-1.0, 0.0, 2.0):
        assert sobolev_norm(linear_semigroup_apply(f, 0.4, 2.5, 0.2), s) <= sobolev_norm(f, s) + 1e-14
    a = linear_semigroup_apply(linear_semigroup_apply(f, 0.3, 2.5, 0.1), 0.45, 2.5, 0.1)
    b = linear_semigroup_apply(f, 0.75, 2.5, 0.1)
    assert sobolev_norm(a - b) < 1e-13


def test_backward_heat_refused():
    f = SpectralField.from_modes({1: 1.0}, 1)
    with pytest.raises(ValueError):
        linear_semigroup_apply(f, -0.1, 3.0, 1.0)
    # eps = 0 flows run backward fine
    linear_semigroup_apply(f, -0.1, 3.0, 0.0)


# -- integrate: exact regressions -----------------------------------------------------


def test_zero_nonlinearity_matches_semigroup():
    phi = random_field(16, 1.0, np.random.default_rng(1))
    cfg = EvolutionConfig(alpha=2.5, eps=0.3, cutoff=16, dt=1e-2, horizon=0.5, record_every=10)
    traj = integrate(phi, ZERO, cfg)
    for t, snap in zip(traj.times, traj.snapshots):
        exact = linear_semigroup_apply(phi, t, 2.5, 0.3)
        assert sobolev_norm(snap - exact) < 1e-13


def test_linear_transport_exact_solution():
    # ut + i D^alpha u = i ux has coefficients phi_hat(k) e^{(-i|k|^alpha - k) t}.
    K = 64
    phi = decaying_data(K, seed=2)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=K, dt=1e-3, horizon=1.0, record_every=100)
    traj = integrate(phi, linear_transport(1j), cfg)
    ks = phi.wavenumbers()
    worst = 0.0
    for t, snap in zip(traj.times, traj.snapshots):
        exact = phi.coeffs * np.exp((-1j * np.abs(ks) ** 3.0 - ks) * t)
        worst = max(worst, float(np.max(np.abs(snap.coeffs - exact) / np.abs(exact))))
    assert worst <= 1e-8, worst


def plane_wave_error(dt, lam=3.0, amp=2.0, k0=1, alpha=3.0, horizon=1.0):
    cfg = EvolutionConfig(
        alpha=alpha, eps=0.0, cutoff=8, dt=dt, horizon=horizon,
        record_every=max(1, int(round(horizon / dt))),
    )
    traj = integrate(SpectralField.from_modes({k0: amp}, 8), cubic(1j * lam), cfg)
    mu = abs(k0) ** alpha - lam * amp**2
    exact = amp * np.exp(-1j * mu * horizon)
    # the wave stays a single mode: all other coefficients at roundoff
    others = np.abs(traj.snapshots[-1].coeffs).copy()
    others[k0 + 8] = 0.0
    assert np.max(others) < 1e-12
    return abs(traj.snapshots[-1].coefficient(k0) - exact) / abs(exact)


def test_plane_wave_regression_and_temporal_order():
    e1 = plane_wave_error(1e-3)
    e2 = plane_wave_error(5e-4)
    assert e1 <= 1e-7, e1
    assert 12.0 <= e1 / e2 <= 20.0, (e1, e2)  # 16x within 25%


def test_pure_heat_dispersion_amplitudes():
    phi = random_field(12, 1.0, np.random.default_rng(3))
    cfg = EvolutionConfig(alpha=3.0, eps=0.1, cutoff=12, dt=1e-2, horizon=1.0, record_every=20)
    traj = integrate(phi, ZERO, cfg)
    ks = phi.wavenumbers().astype(float)
    for t, snap in zip(traj.times, traj.snapshots):
        expect = np.exp(-0.1 * ks**2 * t) * np.abs(phi.coeffs)
        assert np.max(np.abs(np.abs(snap.coeffs) - expect)) < 1e-13


def test_eps_monotone_sobolev_decay():
    phi = random_field(12, 1.0, np.random.default_rng(4))
    cfg = EvolutionConfig(alpha=2.7, eps=0.05, cutoff=12, dt=1e-2, horizon=1.0, record_every=10)
    traj = integrate(phi, ZERO, cfg)
    for s in (0.0, 1.5):
        norms = [sobolev_norm(u, s) for u in traj.snapshots]
        assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))


def test_mass_conservation_gauge_invariant_cubic():
    phi = random_field(16, 3.0, np.random.default_rng(5), amplitude=0.3)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=16, dt=1e-3, horizon=1.0, record_every=100)
    traj = integrate(phi, cubic(1j), cfg)
    m0 = sobolev_norm(phi)
    drift = max(abs(sobolev_norm(u) - m0) for u in traj.snapshots)
    assert drift < 1e-9, drift


def test_galerkin_consistency_smooth_small_data():
    base = random_field(8, 4.0, np.random.default_rng(6), amplitude=0.2)
    runs = []
    for K in (16, 32):
        cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=K, dt=1e-3, horizon=0.5, record_every=50)
        runs.append(integrate(base.with_cutoff(K), cubic(1j), cfg))
    assert sup_l2_gap(runs[0], runs[1]) < 1e-6


def test_initial_data_above_cutoff_rejected():
    phi = random_field(32, 1.0, np.random.default_rng(7))
    cfg = EvolutionConfig(alpha=3.0, cutoff=16, dt=1e-3, horizon=0.01)
    with pytest.raises(ValueError):
        integrate(phi, ZERO, cfg)


def test_blowup_marks_record_truncated():
    # the one-sided growth flow crosses a tiny ceiling quickly, without raising
    phi = decaying_data(16, seed=8, rate=0.2)
    cfg = EvolutionConfig(
        alpha=3.0, eps=0.0, cutoff=16, dt=1e-3, horizon=2.0,
        record_every=10, blowup_ceiling=1e2,
    )
    traj = integrate(phi, linear_transport(1j), cfg)
    assert traj.truncated
    assert traj.times[-1] < 2.0
    assert all(np.all(np.isfinite(s.coeffs)) for s in traj.snapshots)


def test_inf_state_leaves_under_an_inf_ceiling_regression():
    # With no ceiling, the state of this linear run overflows at t = 0.89: the
    # run stops at its last finite step, as under a finite ceiling.
    cfg = EvolutionConfig(
        alpha=3.0, cutoff=2, dt=0.01, horizon=2.0, record_every=1, blowup_ceiling=np.inf
    )
    F = PolynomialNonlinearity.from_terms({(1, 0, 0, 0): 800.0})
    traj = integrate(SpectralField.from_modes({0: 1.0}, 2), F, cfg)
    assert traj.truncated
    assert traj.times[-1] == pytest.approx(0.88)
    assert all(np.all(np.isfinite(s.coeffs)) for s in traj.snapshots)


def test_blowup_past_float_range_is_quiet_regression():
    # The K = 64 run of example_d(1, i)'s paired growth probe at alpha = 4:
    # one step takes the still-finite state so far past the ceiling that its
    # squared H^1 norm overflows.  The run stops there, with no warning.
    witness = SpectralField.from_modes({1: 1.0}, 2)
    s = 3.1  # regularity_threshold(4) + 0.1
    phi = probe_initial_data(witness, 64, s, side="minus", seed=1748979406)
    cfg = EvolutionConfig(
        alpha=4.0, eps=0.0, cutoff=64, dt=2.5e-4, horizon=0.18, record_every=10
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(phi, example_d(1.0, 1j), cfg)
    assert traj.truncated
    assert traj.times[-1] == pytest.approx(0.1675)


# -- integrate_rows: batches bitwise equal to their one-row runs -------------------

ROW_CFG = EvolutionConfig(alpha=3.0, cutoff=64, dt=2.5e-4, horizon=0.05, record_every=10)


def _row_pool():
    """(phi, F, cfg) rows sharing ROW_CFG's dt, horizon and record_every.

    Most rows have ROW_CFG's cutoff 64; the last ones have cutoff 32, so a
    block can hold rows of two cutoffs.
    """
    smooth = decaying_data(64, seed=3, rate=0.5) * 0.3
    rough = probe_initial_data(SpectralField.from_modes({1: 1.0}, 2), 64, 3.1, side="minus", seed=1)
    small = decaying_data(32, seed=4, rate=0.5) * 0.3
    cfg_32 = replace(ROW_CFG, cutoff=32)
    return [
        # example_d(1, i) at alpha = 4 leaves the float range mid-run (t ~ 0.04)
        (rough * 2.0, example_d(1.0, 1j), replace(ROW_CFG, alpha=4.0)),
        (smooth, example_d(1.0, 2.0), ROW_CFG),  # degree 3, the same monomials as the row above
        (smooth, cubic(1j), replace(ROW_CFG, alpha=2.5, eps=1e-2)),
        (smooth, cubic(1j), replace(ROW_CFG, alpha=2.5, eps=1e-1)),  # the same polynomial
        (smooth, example_b(1.0, 1), ROW_CFG),  # degree 2: another padded grid
        (smooth, linear_transport(1j), ROW_CFG),  # absorbed whole into the linear part
        (smooth, PolynomialNonlinearity.from_terms({(0, 0, 1, 0): 0.5j}), ROW_CFG),  # linear, not diagonal
        (smooth, example_c(1.0) + linear_transport(0.5), replace(ROW_CFG, eps=1e-3)),
        (small, example_d(1.0, 2.0), cfg_32),  # the polynomial of row 1 at the other cutoff
        (small, example_d(0.5j, 2.0), replace(cfg_32, alpha=4.0)),  # a different c1 only
        (small, example_b(1.0, 1), cfg_32),  # degree 2
        (small, linear_transport(0.5j), cfg_32),  # linear
        (small, cubic(1j) + PolynomialNonlinearity.from_terms({(0, 0, 0, 0): 0.1j}), cfg_32),
        (small, cubic(1j) + PolynomialNonlinearity.from_terms({(0, 0, 0, 0): 0.2}), cfg_32),
    ]


def _blown_up(u: np.ndarray, sob_w: np.ndarray, ceiling: float) -> bool:
    """Whether one row is nonfinite or its H^1 norm exceeds the ceiling.

    The H^1 norm is at least the largest |Re uhat|, |Im uhat| (weights >= 1),
    so a nan, inf or above-ceiling part stops the run before the norm squares
    it, which could overflow.  An inf part stops it under an inf ceiling too.
    """
    peak = np.abs(u.view(np.float64)).max()
    return not peak <= ceiling or peak == np.inf or np.linalg.norm(sob_w * u) > ceiling


def _h1_weights(cutoff: int) -> np.ndarray:
    return np.sqrt(1.0 + np.arange(-cutoff, cutoff + 1).astype(float) ** 2)


def _rk4_step(u, rhs, e_half, e_full, dt):
    """Reference: one IF-RK4 step of one row (2K+1,) or of a block of rows (B, 2K+1),
    every stage a fresh array."""
    n1 = rhs(u)
    a2 = e_half * (u + 0.5 * dt * n1)
    n2 = rhs(a2)
    a3 = e_half * u + 0.5 * dt * n2
    n3 = rhs(a3)
    a4 = e_full * u + dt * e_half * n3
    n4 = rhs(a4)
    return e_full * u + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)


def sequential_integrate(
    phi: SpectralField, F: PolynomialNonlinearity, cfg: EvolutionConfig
) -> TrajectoryRecord:
    """Reference: the one-row IF-RK4 loop, independent of `integrate_rows`."""
    k = cfg.cutoff
    u, F_rest, e_half, e_full = _prepare(phi, F, cfg)
    rhs = oracle_coefficient_map(F_rest, k, k)
    dt = cfg.dt
    nsteps = int(round(cfg.horizon / dt))
    sob_w = _h1_weights(k)

    times = [0.0]
    snaps = [SpectralField(u, k)]
    truncated = False
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            u = _rk4_step(u, rhs, e_half, e_full, dt)
            if _blown_up(u, sob_w, cfg.blowup_ceiling):
                truncated = True
                break
            if step % cfg.record_every == 0 or step == nsteps:
                times.append(step * dt)
                snaps.append(SpectralField(u, k))

    return TrajectoryRecord(np.asarray(times), snaps, cfg, truncated)


ROW_POOL = _row_pool()
ROW_ALONE = [sequential_integrate(*row) for row in ROW_POOL]


def assert_same_record(a, b):
    assert a.config == b.config and a.truncated == b.truncated
    assert np.array_equal(a.times, b.times)
    assert len(a.snapshots) == len(b.snapshots)
    for x, y in zip(a.snapshots, b.snapshots):
        # Bytes, not values: signed zeros and nan payloads must match too.
        assert x.cutoff == y.cutoff and x.coeffs.tobytes() == y.coeffs.tobytes()


def test_row_pool_truncates_one_row_mid_run():
    assert [r.truncated for r in ROW_ALONE] == [True] + [False] * (len(ROW_POOL) - 1)
    assert 0.0 < ROW_ALONE[0].times[-1] < ROW_CFG.horizon


@pytest.mark.parametrize("i", range(len(ROW_POOL)))
def test_integrate_equals_sequential_loop(i):
    assert_same_record(integrate(*ROW_POOL[i]), ROW_ALONE[i])


@given(st.lists(st.integers(0, len(ROW_POOL) - 1), min_size=0, max_size=6))
@example([0, 1, 2, 3, 4, 5, 6])
@example([])
@example([2, 3, 2])
@example([0, 1, 8, 9])  # the growth probe's block: two pairs of rows at K and 2K
@example([8, 10, 11, 12, 13, 9, 1])
@example([5, 11, 5])  # all linear: the two-operation step
@example([10, 0])  # the widest row leaves, a narrower one goes on
@settings(max_examples=15, deadline=None)
def test_integrate_rows_equals_one_row_runs(picks):
    records = integrate_rows([ROW_POOL[i] for i in picks])
    assert len(records) == len(picks)
    for i, rec in zip(picks, records):
        assert_same_record(rec, ROW_ALONE[i])


@pytest.mark.parametrize(
    "field, value", [("dt", 5e-4), ("horizon", 0.1), ("record_every", 5)]
)
def test_integrate_rows_rejects_unshared_settings(field, value):
    phi, F, cfg = ROW_POOL[1]
    with pytest.raises(ValueError):
        integrate_rows([(phi, F, cfg), (phi, F, replace(cfg, **{field: value}))])


def _probe_rows(F, control, cutoff):
    """One step of the growth probe's block: F and its control at K and at 2K."""
    cfg = EvolutionConfig(alpha=3.0, cutoff=cutoff, dt=2.5e-4, horizon=2.5e-4, record_every=1)
    phi = SpectralField.from_modes({1: 0.1, -1: 0.05j}, 1)
    return [(phi.with_cutoff(k), P, replace(cfg, cutoff=k))
            for k in (cutoff, 2 * cutoff) for P in (F, control)]


@pytest.mark.parametrize(
    "rows, plans, grids",
    [
        # the probe blocks of the presets: F and its control at K = 32 and 2K
        (_probe_rows(example_b(1.0), cubic(1j), 32), 2, 4),  # two monomial sets, four grids
        (_probe_rows(example_c(1j), example_c(1.0), 32), 1, 2),
        (_probe_rows(example_d(1.0, 1j), example_d(1.0, 2.0), 32), 1, 2),
        # at K = 1 degrees 2 and 3 both pad to 8 points, one group each
        (_probe_rows(example_b(1.0), cubic(1j), 1), 2, 4),
        # the eps study: one polynomial at three eps
        ([(ROW_POOL[2][0], cubic(1j), replace(ROW_CFG, eps=e, horizon=ROW_CFG.dt, record_every=1))
          for e in (1e-1, 1e-2, 1e-3)], 1, 1),
    ],
    ids=["example_b", "example_c", "example_d", "example_b_at_K1", "eps_study"],
)
def test_block_evaluates_F_once_per_monomial_set(rows, plans, grids, monkeypatch):
    """integrate_rows orders a block so that it builds one `values_plan` per monomial
    set, across cutoffs, and keeps one inverse transform per cutoff and grid."""
    from fnlslab import nonlinearity

    counts = {"plans": 0, "inverse": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(PolynomialNonlinearity, "values_plan",
                        counted("plans", PolynomialNonlinearity.values_plan))
    monkeypatch.setattr(nonlinearity, "_ifft", counted("inverse", nonlinearity._ifft))
    records = integrate_rows(rows)
    assert not any(r.truncated for r in records)
    assert counts == {"plans": plans, "inverse": 4 * grids}  # one step: four RHS evaluations


_ONE_STEP_BLOCKS = test_block_evaluates_F_once_per_monomial_set.pytestmark[0]


@pytest.mark.parametrize(*_ONE_STEP_BLOCKS.args, **_ONE_STEP_BLOCKS.kwargs)
def test_block_plan_is_the_same_in_every_row_order(rows, plans, grids, monkeypatch):
    """The block map lays out its own rows: in each order of the rows above it
    builds as many `values_plan`s, runs as many inverse transforms and gives
    each row the same bits."""
    from fnlslab import nonlinearity

    counts = {"plans": 0, "inverse": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(PolynomialNonlinearity, "values_plan",
                        counted("plans", PolynomialNonlinearity.values_plan))
    monkeypatch.setattr(nonlinearity, "_ifft", counted("inverse", nonlinearity._ifft))
    polys = [_prepare(*row)[1] for row in rows]
    cuts = [cfg.cutoff for _, _, cfg in rows]
    n = max(cuts)
    rng = np.random.default_rng(3)
    coeffs = np.zeros((len(rows), 2 * n + 1), dtype=np.complex128)
    for row, k in zip(coeffs, cuts):
        row[n - k : n + k + 1] = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    want = None
    for order in map(list, permutations(range(len(rows)))):  # the identity first
        counts.update(plans=0, inverse=0)
        got = _rows_coefficient_map([polys[j] for j in order], [cuts[j] for j in order], n)(coeffs[order])
        assert counts == {"plans": plans, "inverse": grids}
        want = got if want is None else want
        assert got.tobytes() == want[order].tobytes()


SPECIAL_PARTS = [np.nan, np.inf, -np.inf, 1e200, -1e300, 5e-324, -0.0, 1e6]


@given(
    st.lists(
        st.tuples(
            st.lists(
                st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL_PARTS)),
                min_size=18,
                max_size=18,
            ),
            st.one_of(st.floats(1e-3, 1e8), st.sampled_from([1.0, 1e6, np.inf])),
        ),
        min_size=1,
        max_size=5,
    )
)
@example([([0.0] * 18, 1e6), ([np.nan] + [0.0] * 17, np.inf), ([1e200] * 18, np.inf)])
@example([([np.inf] + [0.0] * 17, np.inf)])  # an inf part under no ceiling
@example([([1.0] * 18, 10.0)])  # H^1 norm sqrt(138) above the ceiling, every part below it
@settings(max_examples=100, deadline=None)
def test_block_blowup_check_matches_one_row_rule(rows):
    """The block decision is `_blown_up` row by row, but within rounding of the ceiling."""
    u = np.array([parts for parts, _ in rows]).view(np.complex128)
    ceiling = np.array([c for _, c in rows])
    w2 = np.repeat(1.0 + np.arange(-4, 5).astype(float) ** 2, 2)
    reach = float(ceiling.min()) / (2.0 * np.sqrt(w2.sum()))
    with np.errstate(over="ignore", invalid="ignore"):
        for r in (reach, 0.0):  # as integrate_rows calls it, and always past the shortcut
            gone = _leaving(u, w2, ceiling, r)
            for i, (row, c) in enumerate(zip(u, ceiling)):
                norm = np.linalg.norm(_h1_weights(4) * row)
                if np.isfinite(norm) and abs(norm - c) <= 1e-12 * c:
                    continue
                assert (i in gone) == _blown_up(row, _h1_weights(4), c)


@given(
    picks=st.lists(st.integers(0, len(ROW_POOL) - 1), min_size=1, max_size=5),
    special=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 2 * 129 - 1), st.sampled_from(SPECIAL_PARTS)),
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example([0, 1, 8, 9], [(1, 3, np.nan), (2, 100, np.inf), (3, 7, 1e200)], 0)
@example([4], [(0, 64, -np.inf)], 1)
@settings(max_examples=40, deadline=None)
def test_rk4_stepper_matches_fresh_step(picks, special, seed):
    """The built step is bitwise `_rk4_step` on the block map, nonfinite rows included."""
    n = max(ROW_POOL[j][2].cutoff for j in picks)
    _, polys, e_half, e_full = zip(*(_prepare(*ROW_POOL[j]) for j in picks))
    cuts = [ROW_POOL[j][2].cutoff for j in picks]

    def stack(arrays, fill):
        out = np.full((len(picks), 2 * n + 1), fill, dtype=np.complex128)
        for i, (a, k) in enumerate(zip(arrays, cuts)):
            out[i, n - k : n + k + 1] = a
        return out

    e_half, e_full = stack(e_half, 1.0), stack(e_full, 1.0)
    rng = np.random.default_rng(seed)
    u = 0.3 * stack([rng.standard_normal((2 * k + 1, 2)) @ [1.0, 1j] for k in cuts], 0.0)
    for i, col, value in special:
        if i < len(picks) and col < 2 * (2 * n + 1):
            u.view(np.float64)[i, col] = value
    step = _rk4_stepper(_rows_coefficient_map(list(polys), cuts, n), e_half, e_full, ROW_CFG.dt)
    fresh = _rows_coefficient_map(list(polys), cuts, n)
    states = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):  # the step's arrays carry over from one call to the next
            got, want = step(u), _rk4_step(u, fresh, e_half, e_full, ROW_CFG.dt)
            assert got.tobytes() == want.tobytes()
            states.append((got, want))
            u = want
    for got, want in states:  # a later step leaves an earlier state alone
        assert got.tobytes() == want.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(alpha=2.0)
    with pytest.raises(ValueError):
        EvolutionConfig(alpha=3.0, dt=-1e-3)
    with pytest.raises(ValueError):
        EvolutionConfig(alpha=3.0, eps=-0.1)
    for bad in (
        dict(alpha=float("inf")),
        dict(eps=float("nan")),
        dict(eps=float("inf")),
        dict(cutoff=0),
        dict(cutoff=-3),
        dict(blowup_ceiling=0.0),
        dict(blowup_ceiling=-1.0),
        dict(blowup_ceiling=float("nan")),
    ):
        with pytest.raises(ValueError):
            EvolutionConfig(**{"alpha": 3.0, **bad})
    EvolutionConfig(alpha=3.0, cutoff=1, blowup_ceiling=float("inf"))  # no ceiling


@pytest.mark.parametrize("field", ["cutoff", "record_every"])
@pytest.mark.parametrize("value", [8.5, 8.0, np.float64(8.0), True, np.True_, "8"], ids=repr)
def test_config_rejects_non_integral_counts(field, value):
    # cutoff=8.5 used to construct and fail in integrate; record_every=2.5 recorded every 5th step
    with pytest.raises(ValueError, match=field):
        EvolutionConfig(alpha=3.0, **{field: value})


_INTEGRAL = [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@given(
    cutoff=st.integers(1, 12),
    record_every=st.integers(1, 100),
    types=st.tuples(st.sampled_from(_INTEGRAL), st.sampled_from(_INTEGRAL)),
)
@example(8, 10, (np.int64, int))  # cutoff=np.int64(8) used to break the JSON sidecar
@settings(max_examples=40, deadline=None)
def test_config_takes_any_integral_count(tmp_path_factory, cutoff, record_every, types):
    plain = EvolutionConfig(alpha=3.0, cutoff=cutoff, dt=1e-2, horizon=0.1, record_every=record_every)
    cfg = replace(plain, cutoff=types[0](cutoff), record_every=types[1](record_every))
    assert cfg == plain and type(cfg.cutoff) is int and type(cfg.record_every) is int
    traj = TrajectoryRecord(np.array([0.0]), [SpectralField.zeros(cutoff)], cfg)
    out = tmp_path_factory.mktemp("sidecar")
    write_trajectory(traj, out / "t.csv", out / "t.json")
    assert read_trajectory(out / "t.csv", out / "t.json").config == plain


def test_horizon_must_be_whole_number_of_steps():
    # horizon 1.0 with dt 0.3 used to stop silently at t = 0.9
    for horizon, dt in ((1.0, 0.3), (5e-4, 1e-3), (0.0, 1e-3), (float("inf"), 1e-3)):
        with pytest.raises(ValueError):
            EvolutionConfig(alpha=3.0, dt=dt, horizon=horizon)
    cfg = EvolutionConfig(alpha=3.0, cutoff=4, dt=0.1, horizon=0.3)  # 0.3/0.1 rounds off
    traj = integrate(SpectralField.constant(0.1, 4), ZERO, cfg)
    assert traj.times[-1] == pytest.approx(0.3)


# -- viscosity convergence ---------------------------------------------------------------


def test_eps_study_heat_matches_closed_form():
    phi = random_field(10, 1.5, np.random.default_rng(9))
    cfg = EvolutionConfig(alpha=3.0, eps=0.1, cutoff=10, dt=1e-2, horizon=0.5, record_every=5)
    eps_list = [1e-1, 1e-2, 1e-3]
    table = eps_convergence_study(phi, ZERO, cfg, eps_list)
    ks = phi.wavenumbers().astype(float)
    times = np.arange(0.0, 0.5 + 1e-12, 5e-2)
    for e1, e2, measured in table.pairs:
        exact = max(
            np.sqrt(
                np.sum(
                    np.abs(phi.coeffs) ** 2
                    * (np.exp(-e1 * ks**2 * t) - np.exp(-e2 * ks**2 * t)) ** 2
                )
            )
            for t in times
        )
        assert abs(measured - exact) < 1e-12
    # same-eps difference vanishes
    same = eps_convergence_study(phi, ZERO, cfg, [1e-2, 1e-2])
    assert same.pairs[0][2] == 0.0
    # the closed form fixes the fitted exponent; compare fits
    import math

    xs = [math.log(abs(e1 - e2)) for e1, e2, d in table.pairs]
    ys = [math.log(d) for _, _, d in table.pairs]
    beta_exact = float(np.polyfit(xs, ys, 1)[0])
    assert abs(table.beta - beta_exact) < 1e-12


def test_eps_rate_cubic_small_data():
    phi = random_field(8, 4.0, np.random.default_rng(10), amplitude=0.2).with_cutoff(16)
    cfg = EvolutionConfig(alpha=3.0, eps=0.1, cutoff=16, dt=1e-3, horizon=0.25, record_every=25)
    table = eps_convergence_study(phi, cubic(1j), cfg, [1e-1, 1e-2, 1e-3])
    assert table.beta >= 0.45, table.beta
    assert not table.truncated


# -- sharp truncation of initial data ---------------------------------------------------


def test_truncation_is_identity_beyond_cutoff():
    phi = random_field(16, 1.0, np.random.default_rng(14))
    assert sobolev_norm(truncate_modes(phi, 16) - phi) == 0.0
    assert sobolev_norm(truncate_modes(phi, 40) - phi) == 0.0


def test_truncation_norm_bounds():
    # ||phi_mu||_{H^r} <= mu^{r-s} ||phi||_{H^s} (r > s) and
    # ||phi_mu - phi||_{H^r} <= mu^{-(s-r)} ||phi||_{H^s} (r < s), constant 1.
    s, r_hi, r_lo = 3.0, 4.0, 2.0
    rng = np.random.default_rng(15)
    for trial in range(100):
        phi = random_field(64, s + 0.5, rng)
        ns = sobolev_norm(phi, s)
        for mu in (4, 8, 16, 32):
            tr = truncate_modes(phi, mu)
            assert sobolev_norm(tr, r_hi) <= mu ** (r_hi - s) * ns * (1 + 1e-12)
            assert sobolev_norm(tr - phi, r_lo) <= mu ** (-(s - r_lo)) * ns * (1 + 1e-12)


# -- storage -------------------------------------------------------------------------------


def test_trajectory_round_trip(tmp_path):
    phi = random_field(6, 1.0, np.random.default_rng(16))
    cfg = EvolutionConfig(alpha=3.0, eps=0.01, cutoff=6, dt=1e-2, horizon=0.1, record_every=2)
    traj = integrate(phi, cubic(1j), cfg)
    csv, meta = tmp_path / "traj.csv", tmp_path / "traj.json"
    write_trajectory(traj, csv, meta, extra={"nonlinearity": "2 0 1 0 0 1\n"})
    back = read_trajectory(csv, meta)
    assert np.allclose(back.times, traj.times)
    assert back.config == traj.config
    assert back.truncated == traj.truncated
    for a, b in zip(traj.snapshots, back.snapshots):
        assert sobolev_norm(a - b) < 1e-15


def _write_trajectory_per_line(traj, csv_path):
    """Reference: the CSV of `write_trajectory`, formatted one line at a time."""
    with open(csv_path, "w") as fh:
        fh.write("t,k,re,im\n")
        for t, snap in zip(traj.times, traj.snapshots):
            for k, c in zip(snap.wavenumbers(), snap.coeffs):
                fh.write(f"{t:.17g},{k},{c.real:.17g},{c.imag:.17g}\n")


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e300,
               np.nan, np.inf, -np.inf, 0.1, 1 / 3]


@given(
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4, unique=True),
    st.integers(1, 3),
    st.data(),
)
@example([0.0, 1e-9], 1, None)
@settings(max_examples=40, deadline=None)
def test_write_trajectory_matches_per_line_writer(tmp_path_factory, times, cutoff, data):
    times = sorted(times)
    parts = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(EDGE_FLOATS))
    n = 2 * (2 * cutoff + 1)
    snaps = []
    for i in range(len(times)):
        vals = EDGE_FLOATS[i:] + EDGE_FLOATS[:i] if data is None else data.draw(
            st.lists(parts, min_size=n, max_size=n)
        )
        snaps.append(SpectralField(np.resize(np.array(vals, dtype=float), n).view(np.complex128), cutoff))
    cfg = EvolutionConfig(alpha=3.0, cutoff=cutoff, dt=1e-3, horizon=1e-3)
    traj = TrajectoryRecord(np.array(times), snaps, cfg)
    out = tmp_path_factory.mktemp("traj")
    write_trajectory(traj, out / "fast.csv")
    _write_trajectory_per_line(traj, out / "slow.csv")
    assert (out / "fast.csv").read_bytes() == (out / "slow.csv").read_bytes()


def test_record_validation():
    cfg = EvolutionConfig(alpha=3.0, cutoff=4, dt=1e-2, horizon=0.1)
    snaps = [SpectralField.zeros(4), SpectralField.zeros(4)]
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 0.0]), snaps, cfg)
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0]), snaps, cfg)


# -- sup_l2_gap and the H^1 weights against frozen copies of the code they replaced ----


def _loop_sup_l2_gap(a, b):
    """sup_l2_gap as one zero-padded difference and one inline-weight norm per snapshot."""
    n = min(len(a.times), len(b.times))
    k = max(a.config.cutoff, b.config.cutoff)
    gap = 0.0
    for i in range(n):
        d = a.snapshots[i].with_cutoff(k) - b.snapshots[i].with_cutoff(k)
        gap = max(gap, float(_inline_norms(d.coeffs, 0.0)))
    return gap


@given(
    st.integers(1, 12),
    st.tuples(st.booleans(), st.booleans()),  # each run at K or at 2K
    st.tuples(st.integers(0, 5), st.integers(0, 5)),  # and its snapshot count
    st.integers(0, 2**32 - 1),
    st.sets(st.integers(0, 9), max_size=2),  # snapshots 5 * run + j holding a NaN
)
@example(3, (False, True), (0, 0), 0, set())
@example(3, (False, True), (4, 2), 0, {1, 5})
@settings(max_examples=60, deadline=None)
def test_sup_l2_gap_is_bitwise_the_per_snapshot_fold(k, doubled, lengths, seed, nan_at):
    rng = np.random.default_rng(seed)
    runs = []
    for i, (twice, length) in enumerate(zip(doubled, lengths)):
        cut = 2 * k if twice else k
        cfg = EvolutionConfig(alpha=3.0, cutoff=cut, dt=0.1, horizon=0.5, record_every=1)
        snaps = []
        for j in range(length):
            c = rng.standard_normal(2 * cut + 1) + 1j * rng.standard_normal(2 * cut + 1)
            if 5 * i + j in nan_at:
                c[rng.integers(2 * cut + 1)] = np.nan
            snaps.append(SpectralField(c, cut))
        runs.append(TrajectoryRecord(0.1 * np.arange(length), snaps, cfg))
    for a, b in (runs, runs[::-1]):
        got = sup_l2_gap(a, b)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(_loop_sup_l2_gap(a, b)).tobytes()


@given(st.lists(st.integers(1, 40), min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_integrate_rows_h1_weights_are_the_inline_weights(cutoffs):
    seen = []

    def spy(u, w2, *limits):
        seen.append(w2)
        return _leaving(u, w2, *limits)

    rows = [
        (SpectralField.zeros(k), ZERO, EvolutionConfig(alpha=3.0, cutoff=k, dt=0.1, horizon=0.1))
        for k in cutoffs
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("fnlslab.evolution._leaving", spy)
        integrate_rows(rows)
    n = max(cutoffs)
    inline = np.repeat(1.0 + np.arange(-n, n + 1).astype(float) ** 2, 2)
    assert seen[0].tobytes() == inline.tobytes()
