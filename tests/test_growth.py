"""Ill-posedness machinery: gauge shift, resonant decomposition, growth verdicts."""

import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from fnlslab.evolution import EvolutionConfig, TrajectoryRecord, _multipliers, integrate
from fnlslab.growth import (
    _BLOCK_ENTRIES,
    GrowthReport,
    ResonantParts,
    _times,
    directional_growth,
    decomposition_series,
    gauge_shift,
    nonexistence_verdict,
    probe_initial_data,
    resonant_decomposition,
    resonant_norm_audit,
    verdict_json,
    write_growth_csv,
)
from fnlslab.nonlinearity import (
    PolynomialNonlinearity,
    criterion_functional,
    cubic,
    example_c,
    example_d,
    linear_transport,
)
from fnlslab.spectral import (
    SpectralField,
    conjugate,
    derivative,
    pointwise_product,
    random_field,
    sobolev_norm,
    translate,
)
from test_nonlinearity import _one_mean
from test_spectral import _inline_norms, convolve_coefficients, project

ZERO = PolynomialNonlinearity.zero()


def decaying_data(cutoff, seed=0, rate=1.0):
    rng = np.random.default_rng(seed)
    ks = np.arange(-cutoff, cutoff + 1)
    return SpectralField(
        np.exp(-rate * np.abs(ks)) * np.exp(2j * np.pi * rng.random(2 * cutoff + 1)),
        cutoff,
    )


# -- gauge shift --------------------------------------------------------------------


def test_gauge_shift_noop_for_imaginary_mean():
    # T_w = 2i|u|^2 has zero real mean: nothing to shift.
    phi = decaying_data(8, seed=1)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=8, dt=1e-3, horizon=0.05, record_every=10)
    traj = integrate(phi, example_c(1j), cfg)
    shifted = gauge_shift(traj, example_c(1j))
    for a, b in zip(traj.snapshots, shifted.snapshots):
        assert sobolev_norm(a - b) < 1e-12


def test_gauge_shift_undoes_real_transport():
    # ut + i D^alpha u = ux: uhat(t,k) = phihat e^{(-i|k|^alpha + ik)t}; the
    # shift by int Re P0 T_w = t turns it into pure dispersion.
    F = PolynomialNonlinearity.from_terms({(0, 1, 0, 0): 1.0})
    phi = decaying_data(16, seed=2)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=16, dt=1e-3, horizon=0.5, record_every=25)
    shifted = gauge_shift(integrate(phi, F, cfg), F)
    ks = phi.wavenumbers()
    for t, snap in zip(shifted.times, shifted.snapshots):
        disp = phi.coeffs * np.exp(-1j * np.abs(ks) ** 3.0 * t)
        assert np.max(np.abs(snap.coeffs - disp)) < 1e-8


def test_gauge_shift_preserves_amplitudes():
    phi = decaying_data(8, seed=3)
    F = PolynomialNonlinearity.from_terms({(0, 1, 0, 0): 1.0 + 1j})
    cfg = EvolutionConfig(alpha=2.5, eps=0.0, cutoff=8, dt=1e-3, horizon=0.1, record_every=20)
    traj = integrate(phi, F, cfg)
    shifted = gauge_shift(traj, F)
    for a, b in zip(traj.snapshots, shifted.snapshots):
        assert np.max(np.abs(np.abs(a.coeffs) - np.abs(b.coeffs))) < 1e-14


def test_series_means_are_bitwise_the_per_snapshot_means():
    # F_omega = 0.7 + 0.4i + 2i|u|^2 + 2 conj(u) u_x + 0.5i u conj(u_x): a real mean that moves.
    F = example_c(1j) + linear_transport(0.7 + 0.4j) + example_d(1.0, 0.5j)
    phi = decaying_data(8, seed=4, rate=0.7)
    cfg = EvolutionConfig(alpha=2.5, eps=0.0, cutoff=8, dt=1e-3, horizon=0.1, record_every=10)
    traj = integrate(phi, F, cfg)
    # The oracle: one mean per snapshot, each on its own grid, then the trapezoid rule.
    fo, t = F.wirtinger("omega"), traj.times
    m_re = np.array([_one_mean(fo, u).real for u in traj.snapshots])
    assert np.ptp(m_re) > 0.01
    shift = np.concatenate(([0.0], np.cumsum(0.5 * (m_re[1:] + m_re[:-1]) * np.diff(t))))
    for u, a, got in zip(traj.snapshots, shift, gauge_shift(traj, F).snapshots):
        assert got.coeffs.tobytes() == translate(u, a).coeffs.tobytes()
    lo, hi = 0.02, 0.07
    sel = np.where((t >= lo) & (t <= hi))[0]
    predicted = float(np.mean([criterion_functional(F, traj.snapshots[i]) for i in sel]))
    rep = directional_growth(traj, F, fit_window=(lo, hi))
    assert np.float64(rep.predicted_slope).tobytes() == np.float64(predicted).tobytes()


def test_gauge_shift_of_one_snapshot_is_the_snapshot():
    phi = decaying_data(8, seed=5)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=8, dt=1e-3, horizon=0.01)
    traj = TrajectoryRecord(np.array([0.0]), [phi], cfg, False)
    shifted = gauge_shift(traj, linear_transport(1.0))
    assert shifted.times.tolist() == [0.0]
    assert shifted.snapshots[0].coeffs.tobytes() == phi.coeffs.tobytes()


# -- interaction picture -----------------------------------------------------------------


def interaction_picture(traj: TrajectoryRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, wavenumbers, Vhat) with Vhat[i, j] = e^{i|k_j|^alpha t_i} ik_j uhat."""
    alpha = traj.config.alpha
    ks = traj.snapshots[0].wavenumbers()
    phase_rate = np.abs(ks.astype(float)) ** alpha
    rows = []
    for t, u in zip(traj.times, traj.snapshots):
        rows.append(np.exp(1j * phase_rate * t) * (1j * ks) * u.coeffs)
    return traj.times.copy(), ks, np.asarray(rows)


def test_interaction_variable_constant_under_free_flow():
    phi = decaying_data(10, seed=4)
    cfg = EvolutionConfig(alpha=2.7, eps=0.0, cutoff=10, dt=1e-3, horizon=1.0, record_every=100)
    traj = integrate(phi, ZERO, cfg)
    times, ks, vhat = interaction_picture(traj)
    assert np.max(np.abs(vhat - vhat[0])) < 1e-10
    # at t = 0 it is the plain derivative, and amplitudes match at every time
    assert np.max(np.abs(vhat[0] - (1j * ks) * phi.coeffs)) < 1e-14
    for i, t in enumerate(times):
        assert np.max(np.abs(np.abs(vhat[i]) - np.abs((1j * ks) * traj.snapshots[i].coeffs))) < 1e-12


# -- resonant decomposition ----------------------------------------------------------------


def _pair_window(
    fields: tuple[SpectralField, ...], cutoff: int
) -> tuple[np.ndarray, np.ndarray]:
    """Toeplitz view of the fields at k1 = k - k2, and the array it strides.

    view[c, i, j] is the coefficient of fields[c] at k - k2 for row k = i - K
    and column k2 = K - j (|k|, |k2| <= K = cutoff), zero outside the field's
    band.  The view copies nothing: it reads pad[c, k1 + 2K], so a write to
    pad shows in the view.
    """
    pad = np.zeros((len(fields), 4 * cutoff + 1), dtype=np.complex128)
    for c, f in enumerate(fields):
        band = min(f.cutoff, 2 * cutoff)
        pad[c, 2 * cutoff - band : 2 * cutoff + band + 1] = f.coeffs[
            f.cutoff - band : f.cutoff + band + 1
        ]
    return sliding_window_view(pad, 2 * cutoff + 1, axis=1), pad


def _galerkin_time_derivative(
    u: SpectralField,
    f: np.ndarray,
    alpha: float,
    eps: float,
    mean_re: float,
) -> SpectralField:
    """du/dt from the (gauge-shifted) evolution equation, f = F along u, at |k| <= cutoff."""
    k = u.wavenumbers()
    lin = _multipliers(k, alpha, eps) * u.coeffs
    transport = -mean_re * (1j * k) * u.coeffs
    return SpectralField(lin + f + transport, u.cutoff)


def _single_snapshot_record(u, alpha, t):
    cfg = EvolutionConfig(alpha=alpha, eps=0.0, cutoff=u.cutoff, dt=1e-3, horizon=1e-3)
    return TrajectoryRecord(np.array([t]), [u], cfg)


def _lookup(coeffs: np.ndarray, cutoff: int, k: np.ndarray) -> np.ndarray:
    """coeffs over -cutoff..cutoff evaluated at integer array k, zero outside."""
    inside = np.abs(k) <= cutoff
    idx = np.clip(k + cutoff, 0, 2 * cutoff)
    return np.where(inside, coeffs[idx], 0.0)


def dense_resonant_decomposition(
    traj: TrajectoryRecord, F: PolynomialNonlinearity, t: float
) -> ResonantParts:
    """Reference: the literal sums over dense (2K+1)^2 pair grids."""
    u = traj.snapshot_at(t)
    alpha = traj.config.alpha
    eps = traj.config.eps
    ks = u.wavenumbers()

    theta_o = F.wirtinger("omega").evaluate(u)
    theta_ob = F.wirtinger("omega_bar").evaluate(u)
    mean_theta = theta_o.coefficient(0)
    mean_im = float(mean_theta.imag)
    mean_re = float(mean_theta.real)

    f = F.evaluate(u, out_cutoff=u.cutoff).coeffs
    dtu = _galerkin_time_derivative(u, f, alpha, eps, mean_re)
    dtv = derivative(dtu)

    # Chain rule through the equation for the inner time derivatives.
    def chain(theta_var: PolynomialNonlinearity) -> SpectralField:
        tz = theta_var.wirtinger("zeta").evaluate(u)
        tw = theta_var.wirtinger("omega").evaluate(u)
        tzb = theta_var.wirtinger("zeta_bar").evaluate(u)
        twb = theta_var.wirtinger("omega_bar").evaluate(u)
        out = SpectralField.zeros(0)
        for coef_field, darg in (
            (tz, dtu),
            (tw, dtv),
            (tzb, conjugate(dtu)),
            (twb, conjugate(dtv)),
        ):
            if coef_field.is_zero():
                continue
            full = coef_field.cutoff + darg.cutoff
            out = out + pointwise_product(coef_field, darg, out_cutoff=full)
        return out

    dtheta_o = chain(F.wirtinger("omega"))
    dtheta_ob = chain(F.wirtinger("omega_bar"))

    # Remainder R = T_z v + T_zb conj v, one polynomial in the four slots.
    remainder = _times(F.wirtinger("zeta"), 1) + _times(F.wirtinger("zeta_bar"), 3)

    absk = np.abs(ks.astype(float))
    phase = np.exp(1j * absk**alpha * t)
    vhat = (1j * ks) * u.coeffs
    Vhat = phase * vhat
    dtVhat = phase * (1j * absk**alpha * vhat + dtv.coeffs)

    # Pair grids: rows = output k, cols = k2 (both over -K..K).
    kk = ks[:, None].astype(float)
    k2 = ks[None, :].astype(float)
    k1 = kk - k2
    k1_int = k1.astype(int)

    th = _lookup(theta_o.coeffs, theta_o.cutoff, k1_int)
    th_nz = np.where(k1_int != 0, th, 0.0)  # P_nonmean for the omega family
    dth = _lookup(dtheta_o.coeffs, dtheta_o.cutoff, k1_int)
    dth_nz = np.where(k1_int != 0, dth, 0.0)
    thb = _lookup(theta_ob.coeffs, theta_ob.cutoff, k1_int)
    dthb = _lookup(dtheta_ob.coeffs, dtheta_ob.cutoff, k1_int)

    V2 = Vhat[None, :]
    dV2 = dtVhat[None, :]
    Vm2 = np.conj(Vhat[::-1])[None, :]  # conj(Vhat(-k2)) aligned with k2
    dVm2 = np.conj(dtVhat[::-1])[None, :]

    d1 = np.abs(k1) >= np.abs(k2) / 2.0
    d2 = ~d1

    abs_k = np.abs(kk)
    abs_k2 = np.abs(k2)
    delta = abs_k**alpha - abs_k2**alpha
    sigma = abs_k**alpha + abs_k2**alpha

    # Separated pairs with k1 != 0 never have |k2| == |k|; assert before dividing.
    used_m1 = d2 & (k1_int != 0) & (th != 0)
    if np.any(used_m1 & (delta == 0.0)):
        raise AssertionError("zero denominator on the separated index set")

    exp_d = np.exp(1j * delta * t)
    exp_s = np.exp(1j * sigma * t)

    n11 = np.sum(np.where(d1, 1j * exp_d * th_nz * k2 * V2, 0.0), axis=1)
    n21 = np.sum(np.where(d1, 1j * exp_s * thb * k2 * Vm2, 0.0), axis=1)

    safe_delta = np.where(delta == 0.0, 1.0, delta)
    w1 = np.where(d2 & (k1_int != 0), exp_d / safe_delta, 0.0)
    m1 = np.sum(w1 * th_nz * k2 * V2, axis=1)
    k1_arr = -np.sum(w1 * (dth_nz * k2 * V2 + th_nz * k2 * dV2), axis=1)

    safe_sigma = np.where(sigma == 0.0, 1.0, sigma)
    w2 = np.where(d2, exp_s / safe_sigma, 0.0)
    m2 = np.sum(w2 * thb * k2 * Vm2, axis=1)
    k2_arr = -np.sum(w2 * (dthb * k2 * Vm2 + thb * k2 * dVm2), axis=1)

    n3 = phase * remainder.evaluate(u, out_cutoff=u.cutoff).coeffs

    return ResonantParts(
        time=float(t),
        k=ks.copy(),
        n11=n11,
        n21=n21,
        n3=n3,
        m1=m1,
        m2=m2,
        k1=k1_arr,
        k2=k2_arr,
        mean_im=mean_im,
    )


def assert_matches_oracle(traj, F, t):
    # Both routines round |k|^alpha t in their phases, so they agree to
    # ~eps |K|^alpha t on each pair; the data decay keeps that below 1e-12
    # relative to each part.  A part that cancels to roundoff (mirror pairs)
    # is held to 1e-15 of the largest part instead.
    got = resonant_decomposition(traj, F, t)
    want = dense_resonant_decomposition(traj, F, t)
    scale = max(np.linalg.norm(ref) for ref in want.by_name().values())
    for name, ref in want.by_name().items():
        err = np.linalg.norm(got.by_name()[name] - ref)
        assert err <= 1e-12 * np.linalg.norm(ref) + 1e-15 * scale, (name, err)
    assert got.mean_im == want.mean_im
    assert np.array_equal(got.k, want.k)


@st.composite
def four_slot_polynomials(draw):
    """Degree <= 3 polynomials with a term in each of zeta, omega, zeta_bar, omega_bar."""
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_infinity=False)
    terms: dict = {}
    for slot in range(4):
        idx = [0, 0, 0, 0]
        idx[slot] = 1
        for extra in draw(st.lists(st.integers(0, 3), max_size=2)):
            idx[extra] += 1
        terms[tuple(idx)] = terms.get(tuple(idx), 0.0) + draw(coeff)
    return PolynomialNonlinearity.from_terms(terms)


@given(
    four_slot_polynomials(),
    st.integers(min_value=1, max_value=24),
    st.floats(min_value=2.0, max_value=4.0, exclude_min=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_decomposition_matches_dense_oracle(F, cutoff, alpha, t, seed):
    u = decaying_data(cutoff, seed=seed)
    assert_matches_oracle(_single_snapshot_record(u, alpha, t), F, t)


@pytest.mark.parametrize("F", [example_c(1j), example_d(1.0, 1j)], ids=["example_c(i)", "example_d(1,i)"])
def test_decomposition_matches_dense_oracle_at_128(F):
    u = decaying_data(128, seed=13, rate=0.2)
    assert_matches_oracle(_single_snapshot_record(u, 3.0, 0.05), F, 0.05)


@given(four_slot_polynomials(), st.sampled_from([130, 200]), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_decomposition_matches_dense_oracle_on_column_bands(F, cutoff, seed):
    # Above 2K+1 = 256 the rows split into several blocks, and the separated
    # sums of a block run over its band of columns only.
    assert _BLOCK_ENTRIES // (2 * cutoff + 1) < 2 * cutoff + 1
    u = decaying_data(cutoff, seed=seed, rate=0.2)
    assert_matches_oracle(_single_snapshot_record(u, 3.0, 0.05), F, 0.05)


def test_series_is_bitwise_its_one_snapshot_calls_on_column_bands():
    K = 200
    assert _BLOCK_ENTRIES // (2 * K + 1) < 2 * K + 1
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=K, dt=1e-3, horizon=1e-3)
    snaps = [decaying_data(K, seed=30 + i, rate=0.2) for i in range(3)]
    traj = TrajectoryRecord(0.02 * (1 + np.arange(3)), snaps, cfg)
    F = example_d(1.0, 1j)
    for got, t in zip(decomposition_series(traj, F), traj.times):
        want = resonant_decomposition(traj, F, t)
        for name, ref in want.by_name().items():
            assert np.array_equal(got.by_name()[name].view(np.float64), ref.view(np.float64)), name
        assert got.mean_im == want.mean_im


def oracle_resonant_decomposition(
    traj: TrajectoryRecord, F: PolynomialNonlinearity, t: float
) -> ResonantParts:
    """Reference: one snapshot at a time, its pair geometry built per block.

    The body of the per-snapshot routine that `decomposition_series`
    replaced, kept verbatim so that the series can be held to it bitwise.
    """
    u = traj.snapshot_at(t)
    alpha = traj.config.alpha
    eps = traj.config.eps
    K = u.cutoff
    ks = u.wavenumbers()

    theta_o = F.wirtinger("omega").evaluate(u)
    theta_ob = F.wirtinger("omega_bar").evaluate(u)
    mean_theta = theta_o.coefficient(0)
    mean_im = float(mean_theta.imag)
    mean_re = float(mean_theta.real)

    f = F.evaluate(u, out_cutoff=u.cutoff).coeffs
    dtu = _galerkin_time_derivative(u, f, alpha, eps, mean_re)
    dtv = derivative(dtu)

    # Chain rule through the equation for the inner time derivatives.
    def chain(theta_var: PolynomialNonlinearity) -> SpectralField:
        tz = theta_var.wirtinger("zeta").evaluate(u)
        tw = theta_var.wirtinger("omega").evaluate(u)
        tzb = theta_var.wirtinger("zeta_bar").evaluate(u)
        twb = theta_var.wirtinger("omega_bar").evaluate(u)
        out = SpectralField.zeros(0)
        for coef_field, darg in (
            (tz, dtu),
            (tw, dtv),
            (tzb, conjugate(dtu)),
            (twb, conjugate(dtv)),
        ):
            if coef_field.is_zero():
                continue
            full = coef_field.cutoff + darg.cutoff
            out = out + pointwise_product(coef_field, darg, out_cutoff=full)
        return out

    dtheta_o = chain(F.wirtinger("omega"))
    dtheta_ob = chain(F.wirtinger("omega_bar"))

    # Remainder R = T_z v + T_zb conj v, one polynomial in the four slots.
    remainder = _times(F.wirtinger("zeta"), 1) + _times(F.wirtinger("zeta_bar"), 3)

    # Pair sums over rows k (ascending) and columns k2 (descending).  The
    # phases separate: e^{i delta t} Vhat(k2) = phase(k) vhat(k2) and
    # e^{i sigma t} conj(Vhat(-k2)) = phase(k) conj(vhat(-k2)), so each sum is
    # phase(k) times a masked matrix-vector product over k2.
    n = 2 * K + 1
    p = np.abs(ks.astype(float)) ** alpha
    phase = np.exp(1j * p * t)
    vhat = (1j * ks) * u.coeffs
    dv = 1j * p * vhat + dtv.coeffs  # conj(phase) * dt Vhat
    cols = ks[::-1]
    abs_cols = np.abs(cols)
    p_cols = p[::-1]
    # Column vectors: k2 vhat(k2), k2 dv(k2) for the omega family and
    # k2 conj(vhat(-k2)), k2 conj(dv(-k2)) for the omega_bar family.
    x_o = np.stack([cols * vhat[::-1], cols * dv[::-1]], axis=1)
    x_ob = np.stack([cols * np.conj(vhat), cols * np.conj(dv)], axis=1)

    win_o, pad_o = _pair_window((theta_o, dtheta_o), K)
    pad_o[:, 2 * K] = 0.0  # P_nonmean for the omega family
    win_ob, pad_ob = _pair_window((theta_ob, dtheta_ob), K)
    th_used = sliding_window_view(pad_o[0] != 0, n)

    n11, n21 = np.zeros(n, complex), np.zeros(n, complex)
    m1, k1_arr = np.zeros(n, complex), np.zeros(n, complex)
    m2, k2_arr = np.zeros(n, complex), np.zeros(n, complex)
    # With both windows zero (F free of omega and omega_bar up to a mean
    # theta_omega) every pair sum is an exact zero and no pair is used.
    rows = max(1, _BLOCK_ENTRIES // n)
    blocks = range(0, n, rows) if pad_o.any() or pad_ob.any() else ()
    for i0 in blocks:
        r = slice(i0, i0 + rows)
        k1 = ks[r, None] - cols
        abs_k1 = np.abs(k1)
        d2 = 2 * abs_k1 < abs_cols
        delta = p[r, None] - p_cols
        sigma = p[r, None] + p_cols

        # Separated pairs with k1 != 0 never have |k2| == |k|; assert before dividing.
        used = d2 & th_used[r]
        if np.any(delta[used] == 0.0):
            raise AssertionError("zero denominator on the separated index set")

        # delta = 0 on D2 only at k1 = 0, where P_nonmean theta vanishes.
        w1 = np.zeros(delta.shape)
        np.divide(1.0, delta, out=w1, where=d2 & (delta != 0.0))
        w2 = np.zeros(sigma.shape)
        np.divide(1.0, sigma, out=w2, where=d2 & (sigma != 0.0))

        d1 = (~d2).astype(float)
        n11[r] = (win_o[0, r] * d1) @ x_o[:, 0]
        n21[r] = (win_ob[0, r] * d1) @ x_ob[:, 0]
        # sep[c, :, d] = (field c * weight) @ column vector d
        sep_o = (win_o[:, r] * w1) @ x_o
        sep_ob = (win_ob[:, r] * w2) @ x_ob
        m1[r] = sep_o[0, :, 0]
        k1_arr[r] = sep_o[1, :, 0] + sep_o[0, :, 1]
        m2[r] = sep_ob[0, :, 0]
        k2_arr[r] = sep_ob[1, :, 0] + sep_ob[0, :, 1]

    n3 = phase * remainder.evaluate(u, out_cutoff=K).coeffs

    return ResonantParts(
        time=float(t),
        k=ks.copy(),
        n11=1j * phase * n11,
        n21=1j * phase * n21,
        n3=n3,
        m1=phase * m1,
        m2=phase * m2,
        k1=-phase * k1_arr,
        k2=-phase * k2_arr,
        mean_im=mean_im,
    )


@given(
    four_slot_polynomials(),
    st.integers(min_value=1, max_value=24),
    st.floats(min_value=2.0, max_value=4.0, exclude_min=True),
    # one seed per snapshot; None is the zero snapshot, whose windows are all
    # zero unless F has a linear omega_bar term
    st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)), min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-3, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_series_is_bitwise_the_per_snapshot_oracle(F, cutoff, alpha, seeds, t0, dt):
    snaps = [
        SpectralField.zeros(cutoff) if seed is None else decaying_data(cutoff, seed=seed)
        for seed in seeds
    ]
    times = t0 + dt * np.arange(len(snaps))
    cfg = EvolutionConfig(alpha=alpha, eps=0.0, cutoff=cutoff, dt=1e-3, horizon=1e-3)
    traj = TrajectoryRecord(times, snaps, cfg)
    series = decomposition_series(traj, F)
    assert len(series) == len(snaps)
    for got, t in zip(series, traj.times):
        want = oracle_resonant_decomposition(traj, F, t)
        assert got.time == want.time
        assert np.array_equal(got.k, want.k)
        for name, ref in want.by_name().items():
            # compared as float64s, so that signed zeros count
            assert np.array_equal(got.by_name()[name].view(np.float64), ref.view(np.float64)), name
        assert got.mean_im == want.mean_im


def test_decomposition_at_2048_fits_256_mb():
    u = decaying_data(2048, seed=14, rate=0.05)
    traj = _single_snapshot_record(u, 3.0, 0.05)
    tracemalloc.start()
    try:
        parts = resonant_decomposition(traj, example_d(1.0, 1j), 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20, peak
    for name, arr in parts.by_name().items():
        assert arr.shape == (4097,) and np.all(np.isfinite(arr)), name


def test_series_memory_has_no_pair_grid_term():
    # A series keeps O(K) arrays per snapshot (two (2, 4K+1) pads, two
    # (2K+1, 2) column pairs, six sums, the phase, n3 and its seven output
    # arrays: under 32 complex entries per mode) beside one block's pair
    # geometry, so S snapshots peak within S * 32 * (2K+1) complex entries of
    # one; a single (2K+1)^2 pair grid would be 64 times that allowance here.
    K, S = 1024, 4
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=K, dt=1e-3, horizon=1e-3)
    snaps = [decaying_data(K, seed=20 + i, rate=0.05) for i in range(S)]
    times = 0.01 * (1 + np.arange(S))
    peaks = []
    for traj in (TrajectoryRecord(times[:1], snaps[:1], cfg), TrajectoryRecord(times, snaps, cfg)):
        tracemalloc.start()
        try:
            decomposition_series(traj, example_d(1.0, 1j))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one, many = peaks
    assert many <= one + S * 32 * (2 * K + 1) * 16, (one, many)


def _band_series(cutoff, seeds):
    """A series of snapshots decaying_data(cutoff, seed) over several row blocks."""
    assert _BLOCK_ENTRIES // (2 * cutoff + 1) < 2 * cutoff + 1
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=cutoff, dt=1e-3, horizon=1e-3)
    snaps = [decaying_data(cutoff, seed=seed, rate=0.2) for seed in seeds]
    return TrajectoryRecord(0.02 * (1 + np.arange(len(snaps))), snaps, cfg)


def test_series_worker_raises_no_runtime_warning():
    # The separated sums divide by delta and sigma only where they are
    # nonzero, so numpy raises no warning.
    traj = _band_series(130, [5, 6, 7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = decomposition_series(traj, example_c(1j))
    assert all(np.all(np.isfinite(a)) for p in parts for a in p.by_name().values())


def test_decomposition_collapses_for_linear_flow():
    # T_w = i constant: every nonmean-driven part vanishes; T_wb = 0 kills the rest.
    phi = decaying_data(12, seed=5)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=12, dt=1e-3, horizon=0.1, record_every=20)
    traj = integrate(phi, linear_transport(1j), cfg)
    for t in traj.times[1:]:
        parts = resonant_decomposition(traj, linear_transport(1j), t)
        for name, arr in parts.by_name().items():
            assert np.max(np.abs(arr)) < 1e-12, name
        assert parts.mean_im == pytest.approx(1.0)


def test_decomposition_omega_free_nonlinearity():
    # cubic F: both omega derivatives vanish; only the remainder survives.
    u = decaying_data(8, seed=6)
    traj = _single_snapshot_record(u, 3.0, 0.25)
    parts = resonant_decomposition(traj, cubic(1j), 0.25)
    for name in ("n11", "n21", "m1", "m2", "k1", "k2"):
        assert np.max(np.abs(parts.by_name()[name])) < 1e-12
    assert np.max(np.abs(parts.n3)) > 1e-8
    # n3 is the free-flow phase times R = 2i |u|^2 u_x + i u^2 conj(u_x)
    v = derivative(u)
    r = 2j * convolve_coefficients(convolve_coefficients(u, conjugate(u)), v)
    r = r + 1j * convolve_coefficients(convolve_coefficients(u, u), conjugate(v))
    phase = np.exp(1j * np.abs(u.wavenumbers()) ** 3.0 * 0.25)
    assert np.max(np.abs(parts.n3 - phase * r.with_cutoff(8).coeffs)) < 1e-12


@pytest.mark.parametrize("F", [cubic(1j), linear_transport(1j)], ids=["cubic(i)", "linear_transport(i)"])
def test_omega_free_pair_sums_are_exact_zeros(F):
    # theta_omega is at most a mean and theta_omega_bar vanishes: no pair is used.
    u = decaying_data(64, seed=7, rate=0.2)
    traj = _single_snapshot_record(u, 3.0, 0.1)
    got = resonant_decomposition(traj, F, 0.1)
    want = dense_resonant_decomposition(traj, F, 0.1)
    for name in ("n11", "n21", "m1", "m2", "k1", "k2"):
        assert np.array_equal(got.by_name()[name], np.zeros(129)), name
        assert np.array_equal(got.by_name()[name], want.by_name()[name]), name
    assert_matches_oracle(traj, F, 0.1)


def test_omega_bar_alone_still_runs_the_pair_sums():
    # theta_omega vanishes but theta_omega_bar = u^2 does not: m2 and k2 live.
    u = decaying_data(64, seed=8, rate=0.2)
    traj = _single_snapshot_record(u, 3.0, 0.1)
    F = PolynomialNonlinearity.from_terms({(2, 0, 0, 1): 1j})
    assert_matches_oracle(traj, F, 0.1)
    assert np.max(np.abs(resonant_decomposition(traj, F, 0.1).m2)) > 1e-6


def test_single_mode_separated_set_is_empty():
    # With one active mode every candidate pair fails |k1| < |k2|/2 (or is the
    # excluded mean), so the normal-form parts vanish for any polynomial F.
    u = SpectralField.from_modes({1: 0.7 - 0.2j}, 6)
    traj = _single_snapshot_record(u, 2.5, 0.4)
    for F in (example_c(1j), PolynomialNonlinearity.from_terms({(0, 1, 1, 0): 1j})):
        parts = resonant_decomposition(traj, F, 0.4)
        assert np.max(np.abs(parts.m1)) < 1e-14
        assert np.max(np.abs(parts.k1)) < 1e-14


def test_two_mode_normal_form_closed_form():
    # F = i conj(u) u_x, u = A e^{ix} + B e^{iqx}: exactly one separated pair
    # (-1, q) lands at output q-1, with
    #   M1(q-1) = -q^2 conj(A) B e^{i (q-1)^alpha t} / ((q-1)^alpha - q^alpha)
    #   K1(q-1) = -i * M1(q-1)   (the q-mode is free, so dtV(q) = 0)
    alpha, t, q = 2.5, 0.37, 5
    A, B = 0.8 - 0.3j, 0.2 + 0.4j
    F = PolynomialNonlinearity.from_terms({(0, 1, 1, 0): 1j})
    u = SpectralField.from_modes({1: A, q: B}, 8)
    traj = _single_snapshot_record(u, alpha, t)
    parts = resonant_decomposition(traj, F, t)
    delta = (q - 1.0) ** alpha - q**alpha
    m1_expect = -(q**2) * np.conj(A) * B * np.exp(1j * (q - 1.0) ** alpha * t) / delta
    idx = list(parts.k).index(q - 1)
    assert abs(parts.m1[idx] - m1_expect) < 1e-12
    assert abs(parts.k1[idx] - (-1j) * m1_expect) < 1e-12
    # and nothing else populates the normal-form arrays
    others = np.abs(parts.m1).copy()
    others[idx] = 0.0
    assert np.max(others) < 1e-14


def test_decomposition_linear_in_high_mode_amplitude():
    # Doubling B doubles the (-1, q) contributions to N11-free outputs while
    # the driving coefficient theta(-1) = i conj(A) stays fixed.
    alpha, t, q = 2.5, 0.2, 5
    A = 0.5 + 0.1j
    F = PolynomialNonlinearity.from_terms({(0, 1, 1, 0): 1j})
    vals = {}
    for scale in (1.0, 2.0):
        u = SpectralField.from_modes({1: A, q: scale * (0.3 - 0.2j)}, 8)
        traj = _single_snapshot_record(u, alpha, t)
        parts = resonant_decomposition(traj, F, t)
        idx = list(parts.k).index(q - 1)
        vals[scale] = (parts.m1[idx], parts.k1[idx])
    assert abs(vals[2.0][0] - 2 * vals[1.0][0]) < 1e-12
    assert abs(vals[2.0][1] - 2 * vals[1.0][1]) < 1e-12


@pytest.mark.parametrize("K", [4, 16, 64, 256])
@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0])
def test_separated_denominator_bound(K, alpha):
    # On every separated pair (k1 = k - k2, 0 < 2|k1| < |k2|, |k|, |k2| <= K)
    # ||k|^alpha - |k2|^alpha| >= |k1| |k2|^{alpha-1}: the ratio is at least
    # 2 (1 - 2^-alpha) >= 1.5 for alpha >= 2.
    ks = np.arange(-K, K + 1)
    k, k2 = ks[:, None], ks[None, :]
    k1 = k - k2
    sep = (k1 != 0) & (2 * np.abs(k1) < np.abs(k2))
    delta = np.abs(k.astype(float)) ** alpha - np.abs(k2.astype(float)) ** alpha
    bound = np.abs(k1) * np.abs(k2.astype(float)) ** (alpha - 1.0)
    assert sep.any()
    assert np.all(np.abs(delta)[sep] >= bound[sep])


def _splitting_residual(dt):
    # The separated sum N_{j,2} splits as dM_j/dt + K_j; differencing M along a
    # densely recorded trajectory must reproduce it up to O(dt^2).
    from fnlslab.spectral import pointwise_product, derivative as ddx

    F = example_c(1j)
    rng = np.random.default_rng(0)
    K = 12
    ks = np.arange(-K, K + 1)
    phi = SpectralField(
        0.4 * np.exp(-0.6 * np.abs(ks)) * np.exp(2j * np.pi * rng.random(2 * K + 1)), K
    )
    cfg = EvolutionConfig(alpha=2.7, eps=0.0, cutoff=K, dt=dt, horizon=40 * dt, record_every=1)
    traj = integrate(phi, F, cfg)
    i0 = 20
    tm, t0, tp = traj.times[i0 - 1], traj.times[i0], traj.times[i0 + 1]
    pm = resonant_decomposition(traj, F, tm)
    p0 = resonant_decomposition(traj, F, t0)
    pp = resonant_decomposition(traj, F, tp)
    u = traj.snapshot_at(t0)
    v = ddx(u)
    phase = np.exp(1j * np.abs(ks.astype(float)) ** 2.7 * t0)

    theta = F.wirtinger("omega").evaluate(u)
    full1 = pointwise_product(
        project(theta, "nonmean"), ddx(v), out_cutoff=theta.cutoff + v.cutoff + 1
    )
    n12 = phase * np.array([full1.coefficient(int(k)) for k in ks]) - p0.n11
    r1 = np.max(np.abs(n12 - ((pp.m1 - pm.m1) / (tp - tm) + p0.k1)))

    theta_b = F.wirtinger("omega_bar").evaluate(u)
    from fnlslab.spectral import conjugate as conj

    full2 = pointwise_product(
        theta_b, conj(ddx(v)), out_cutoff=theta_b.cutoff + v.cutoff + 1
    )
    n22 = phase * np.array([full2.coefficient(int(k)) for k in ks]) - p0.n21
    r2 = np.max(np.abs(n22 - ((pp.m2 - pm.m2) / (tp - tm) + p0.k2)))
    return max(r1, r2)


def test_normal_form_splitting_identity():
    coarse = _splitting_residual(5e-4)
    fine = _splitting_residual(2.5e-4)
    assert coarse < 5e-3
    assert fine < coarse / 3.0  # second-order: the residual is pure differencing error


def test_norm_audit_weights_and_zero_solution():
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=8, dt=1e-3, horizon=0.05, record_every=10)
    traj = integrate(SpectralField.zeros(8), cubic(1j), cfg)
    parts = decomposition_series(traj, cubic(1j))
    audit = resonant_norm_audit(parts, s=2.6, alpha=3.0)
    for name, pn in audit.items():
        assert pn.sup == 0.0 and not pn.flagged
    # weight arithmetic: alpha = 3 puts the K-parts in l2_{s-1}
    assert audit["k1"].weight == pytest.approx(1.6)
    assert audit["m1"].weight == pytest.approx(2.6)
    # alpha = 5 switches the K-weight branch to alpha - 4 = 1
    audit5 = resonant_norm_audit(parts, s=2.6, alpha=5.0)
    assert audit5["k1"].weight == pytest.approx(2.6 - 1.0)


def test_norm_audit_bounded_cubic_run():
    phi = random_field(8, 4.0, np.random.default_rng(8), amplitude=0.3).with_cutoff(16)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=16, dt=1e-3, horizon=0.5, record_every=50)
    traj = integrate(phi, cubic(1j), cfg)
    assert not traj.truncated
    audit = resonant_norm_audit(decomposition_series(traj, cubic(1j)), s=2.6, alpha=3.0)
    for name, pn in audit.items():
        assert not pn.flagged, (name, pn.initial, pn.sup)


def test_norm_audit_bounded_omega_dependent_run():
    # balanced gradient pair (well-posed, nonzero omega derivatives): every
    # decomposition part is genuinely populated yet stays bounded
    from fnlslab.nonlinearity import example_d

    F = example_d(1j, 2j)
    phi = random_field(8, 4.0, np.random.default_rng(9), amplitude=0.3).with_cutoff(16)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=16, dt=1e-3, horizon=0.5, record_every=50)
    traj = integrate(phi, F, cfg)
    assert not traj.truncated
    audit = resonant_norm_audit(decomposition_series(traj, F), s=2.6, alpha=3.0)
    populated = 0
    for name, pn in audit.items():
        assert not pn.flagged, (name, pn.initial, pn.sup)
        populated += pn.sup > 1e-8
    assert populated == 7


def test_norm_audit_rejects_no_snapshots():
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=8, dt=1e-3, horizon=1e-3)
    traj = TrajectoryRecord(np.array([0.0]), [decaying_data(8)], cfg)
    assert decomposition_series(traj, example_d(1.0, 1j), ()) == []
    with pytest.raises(ValueError, match="no snapshots"):
        resonant_norm_audit([], s=2.6, alpha=3.0)


@pytest.mark.parametrize("multiple", [0.0, -1.0, float("nan")])
def test_norm_audit_rejects_a_nonpositive_growth_multiple(multiple):
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=8, dt=1e-3, horizon=1e-3)
    traj = TrajectoryRecord(np.array([0.0]), [decaying_data(8)], cfg)
    parts = decomposition_series(traj, example_d(1.0, 1j))
    with pytest.raises(ValueError, match="growth_multiple"):
        resonant_norm_audit(parts, s=2.6, alpha=3.0, growth_multiple=multiple)


@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_norm_audit_flags_a_part_that_is_not_finite(at, bad):
    phi = random_field(8, 4.0, np.random.default_rng(8), amplitude=0.3).with_cutoff(16)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=16, dt=1e-3, horizon=0.5, record_every=50)
    traj = integrate(phi, cubic(1j), cfg)
    parts = decomposition_series(traj, cubic(1j))
    clean = resonant_norm_audit(parts, s=2.6, alpha=3.0)
    parts[at].n11[3] = bad
    audit = resonant_norm_audit(parts, s=2.6, alpha=3.0)
    assert audit["n11"].flagged
    for name, pn in audit.items():
        if name != "n11":
            assert pn.flagged == clean[name].flagged, name


def test_weighted_l2():
    # the audit's weighted l2 norm is sobolev_norm: sum <k>^(2s) |c_k|^2, rooted
    f = SpectralField(np.array([0.0, 3.0, 4.0]), 1)
    assert sobolev_norm(f, 0.0) == pytest.approx(5.0)
    assert sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(9.0 + 32.0))


# -- directional growth --------------------------------------------------------------------


def test_directional_growth_linear_exact_rates():
    K = 32
    phi = decaying_data(K, seed=9)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=K, dt=1e-3, horizon=0.4, record_every=10)
    traj = integrate(phi, linear_transport(1j), cfg)
    rep = directional_growth(traj, linear_transport(1j), side="minus", fit_window=(0.05, 0.3))
    assert rep.predicted_slope == pytest.approx(1.0, abs=1e-12)
    for k, rate in rep.mode_rates.items():
        assert abs(rate - (-k)) < 1e-6, (k, rate)
    assert rep.matching_run >= 5


def test_directional_growth_wellposed_rates_negligible():
    # a window long enough to average the dispersive beating of |uhat|
    phi = random_field(8, 4.0, np.random.default_rng(10), amplitude=0.15).with_cutoff(16)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=16, dt=1e-3, horizon=1.0, record_every=10)
    traj = integrate(phi, cubic(1j), cfg)
    rep = directional_growth(traj, cubic(1j), side="minus", fit_window=(0.1, 0.9))
    for k, rate in rep.mode_rates.items():
        assert abs(rate) <= 0.05 * abs(k), (k, rate)
    assert rep.matching_run == 0  # prediction is zero: nothing can match


def test_dim_modes_excluded_from_fits():
    phi = SpectralField.from_modes({0: 1.0, -1: 1e-20}, 4)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=4, dt=1e-3, horizon=0.2, record_every=10)
    traj = integrate(phi, ZERO, cfg)
    rep = directional_growth(traj, ZERO, side="minus", fit_window=(0.02, 0.12))
    assert -1 not in rep.mode_rates


def test_verdict_requires_divergence_and_thresholds_echoed():
    rep = GrowthReport(
        side="minus",
        mode_rates={},
        predicted_slope=1.0,
        matching_run=9,
        divergence=None,
    )
    with pytest.raises(ValueError):
        nonexistence_verdict(rep)
    rep.divergence = 0.5
    v = nonexistence_verdict(rep, control_divergence=1e-9)
    assert v.classification == "directional_growth_detected"
    payload = verdict_json(v)
    assert '"diverge_threshold": 0.001' in payload
    assert sorted(json.loads(payload)) == [
        "agree_threshold", "classification", "control_divergence", "diverge_threshold",
        "divergence", "matching_run", "min_consecutive", "rate_tol", "side",
    ]
    # too-coarse signature: saturation-style report stays inconclusive
    rep2 = GrowthReport(
        side="minus", mode_rates={}, predicted_slope=1.0, matching_run=2, divergence=0.5,
    )
    assert nonexistence_verdict(rep2).classification == "inconclusive"
    rep3 = GrowthReport(
        side="minus", mode_rates={}, predicted_slope=0.0, matching_run=0, divergence=1e-9,
    )
    assert nonexistence_verdict(rep3).classification == "consistent_wellposed"


def test_verdict_linear_transport_detected():
    # the canonical ill-posed flow: exact one-sided growth + paired divergence
    F = linear_transport(1j)
    w = SpectralField.constant(1.0, 2)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=16, dt=1e-3, horizon=0.6, record_every=10)
    phi_k = probe_initial_data(w, 16, 2.6, side="minus", seed=1)
    phi_2k = probe_initial_data(w, 32, 2.6, side="minus", seed=1)
    run_k = integrate(phi_k, F, cfg)
    run_2k = integrate(phi_2k, F, replace(cfg, cutoff=32))
    rep = directional_growth(run_k, F, side="minus", paired=run_2k)
    v = nonexistence_verdict(rep)
    assert v.classification == "directional_growth_detected"
    assert rep.matching_run >= 5 and rep.divergence > 1e-3


def test_verdict_cubic_consistent():
    phi = random_field(8, 4.0, np.random.default_rng(12), amplitude=0.2).with_cutoff(16)
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=16, dt=1e-3, horizon=0.25, record_every=10)
    run_k = integrate(phi, cubic(1j), cfg)
    run_2k = integrate(phi.with_cutoff(32), cubic(1j), replace(cfg, cutoff=32))
    rep = directional_growth(run_k, cubic(1j), side="minus", paired=run_2k)
    v = nonexistence_verdict(rep)
    assert v.classification == "consistent_wellposed"
    assert rep.divergence < 1e-6


def test_probe_initial_data_shape():
    w = SpectralField.constant(1.0, 2)
    phi = probe_initial_data(w, 16, 2.6, side="minus", seed=0)
    ks = phi.wavenumbers()
    assert np.all(phi.coeffs[ks > 0] == 0)
    tail = phi - w.with_cutoff(16)
    assert sobolev_norm(tail) == pytest.approx(0.1 * sobolev_norm(w), rel=1e-12)
    # plus-side variant mirrors the support
    phi_p = probe_initial_data(w, 16, 2.6, side="plus", seed=0)
    assert np.all(phi_p.coeffs[ks < 0] == 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_field(4, 2.0, np.random.default_rng(0), side="minsu"),
        lambda: probe_initial_data(SpectralField.constant(1.0, 2), 16, 2.6, side="minsu"),
        lambda: directional_growth(
            _single_snapshot_record(SpectralField.constant(1.0, 2), 3.0, 0.1), cubic(1j), side="minsu"
        ),
    ],
    ids=["random_field", "probe_initial_data", "directional_growth"],
)
def test_one_side_rule_rejects_an_unknown_side(call):
    with pytest.raises(ValueError, match="^unknown side 'minsu'$"):
        call()


def test_growth_csv(tmp_path):
    rep = GrowthReport(
        side="minus", mode_rates={-2: 2.0, -3: 3.1}, predicted_slope=1.0, matching_run=2,
        divergence=0.1,
    )
    path = tmp_path / "rates.csv"
    write_growth_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,fitted_rate,predicted,relative_error"
    assert len(lines) == 3


# -- the norm audit and the probe datum against frozen copies of the code they replaced ----


def _loop_audit_norms(parts, s, alpha):
    """Each part's norms as resonant_norm_audit took them: one inline-weight norm per snapshot."""
    low, mid, high = s - 1.0, s + alpha - 3.0, s + min(-1.0, alpha - 4.0)
    weights = {"n11": low, "n21": low, "n3": low, "m1": mid, "m2": mid, "k1": high, "k2": high}
    return {
        name: np.array([_inline_norms(p.by_name()[name], sig) for p in parts])
        for name, sig in weights.items()
    }


@given(
    st.integers(1, 40),
    st.integers(1, 5),
    st.floats(0.0, 6.0),
    st.floats(2.05, 5.0),
    st.integers(0, 2**32 - 1),
    st.sets(st.integers(0, 34), max_size=3),  # entries 7 * snapshot + part made NaN or inf
)
@settings(max_examples=60, deadline=None)
def test_audit_norms_are_bitwise_the_per_snapshot_norms(K, S, s, alpha, seed, bad):
    rng = np.random.default_rng(seed)
    parts = []
    for t in range(S):
        arrays = []
        for j in range(7):
            a = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
            a *= 10.0 ** rng.uniform(-12.0, 4.0)
            if 7 * t + j in bad:
                a[rng.integers(2 * K + 1)] = (np.nan, np.inf)[t % 2]
            arrays.append(a)
        parts.append(ResonantParts(0.1 * t, np.arange(-K, K + 1), *arrays, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = resonant_norm_audit(parts, s, alpha)
    for name, want in _loop_audit_norms(parts, s, alpha).items():
        assert got[name].norms.tobytes() == want.tobytes()


def _inline_probe_initial_data(witness, cutoff, s, side, seed):
    rng = np.random.default_rng(seed)
    ks = np.arange(-cutoff, cutoff + 1)
    tail = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    mask = ks < 0 if side == "minus" else ks > 0
    kk = ks[mask].astype(float)
    tail[mask] = (1.0 + kk**2) ** (-(s + 0.5 + 0.01) / 2.0) * np.exp(
        2j * np.pi * rng.random(mask.sum())
    )
    tail_field = SpectralField(tail, cutoff)
    tn, wn = sobolev_norm(tail_field, 0.0), sobolev_norm(witness, 0.0)
    if tn > 0 and wn > 0:
        tail_field = tail_field * (0.1 * wn / tn)
    return witness.with_cutoff(cutoff) + tail_field


@given(
    st.integers(2, 300),
    st.floats(-1.0, 8.0),
    st.sampled_from(["minus", "plus"]),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_probe_datum_is_bitwise_the_inline_tail(cutoff, s, side, seed, amplitude):
    witness = random_field(2, 1.0, np.random.default_rng(seed), amplitude=amplitude)
    got = probe_initial_data(witness, cutoff, s, side=side, seed=seed)
    want = _inline_probe_initial_data(witness, cutoff, s, side, seed)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
