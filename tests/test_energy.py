"""Correction ladder: coefficients, Young constants, integrals, coercivity, audits.

The correction/flux integrals are cross-checked against an independent
quadrature path: direct O(K*M) summation of the trigonometric series on odd
(non power of two) grids at two resolutions, with the antiderivative built by
direct DFT.  Agreement of the two resolutions certifies convergence; the
implementation must then match the converged value.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fnlslab import energy, spectral
from fnlslab.energy import (
    CorrectionLadder,
    correction_coefficient,
    correction_term,
    energy_audit,
    flux_term,
    gauge_limit_partial_sums,
    ModifiedEnergy,
    ladder_depth,
    lipschitz_constants_uniform,
    modified_energy,
    write_energy_csv,
    young_constant,
)
from fnlslab.evolution import EvolutionConfig, TrajectoryRecord, integrate
from fnlslab.nonlinearity import (
    PolynomialNonlinearity,
    cubic,
    example_b,
    example_d,
)
from fnlslab.spectral import (
    SpectralField,
    antiderivative,
    bracket_power,
    derivative,
    imag_part,
    padded_size,
    random_field,
    sobolev_norm,
    translate,
)

# a nonlinearity with genuinely nonconstant Im T_w that still admits solutions:
# the balanced gradient pair with purely imaginary coefficients
BALANCED_IMAG = example_d(1j, 2j)


# -- ladder arithmetic ---------------------------------------------------------------


def test_ladder_depth_examples():
    assert ladder_depth(4.0) == 1
    assert ladder_depth(2.5) == 2
    assert ladder_depth(3.0) == 1
    assert ladder_depth(2.1) == 10
    with pytest.raises(ValueError):
        ladder_depth(2.0)
    with pytest.raises(ValueError):
        ladder_depth(2.0 + 1e-6)  # depth beyond the supported cap


def test_correction_coefficients():
    for alpha in (2.5, 3.0, 4.0):
        assert correction_coefficient(1, alpha) == pytest.approx(2.0 / alpha)
        for n in range(1, 6):
            ratio = correction_coefficient(n + 1, alpha) / correction_coefficient(n, alpha)
            assert ratio == pytest.approx(2.0 / (alpha * (n + 1)))


def test_young_constant_inequality_on_fields():
    # |L_n| <= ||v||^2/(10 n^2) + a_n ||u||^2 ||T_w||_{L2}^{2N} on random states.
    rng = np.random.default_rng(0)
    for alpha, r in ((2.5, 2.6), (3.0, 2.6), (4.0, 3.1)):
        depth = ladder_depth(alpha)
        for n in range(1, depth + 1):
            a_n = young_constant(n, depth, alpha)
            for _ in range(25):
                u = random_field(12, r + 0.5, rng, amplitude=rng.uniform(0.1, 2.0))
                v = derivative(u)
                ln = correction_term(n, u, BALANCED_IMAG, alpha, r, v=v)
                uu = sobolev_norm(u, r - 1.0)
                vv = sobolev_norm(v, r - 1.0)
                theta = BALANCED_IMAG.wirtinger("omega").evaluate(u)
                w = sobolev_norm(theta, 0.0)
                bound = vv**2 / (10.0 * n**2) + a_n * uu**2 * w ** (2 * depth)
                assert abs(ln) <= bound * (1 + 1e-12), (alpha, n, ln, bound)


def test_ladder_build_and_range_checks():
    lad = CorrectionLadder.build(2.5, 2.6)
    assert lad.depth == 2 and len(lad.c) == 2 and len(lad.a_n) == 2
    assert lad.a == pytest.approx(sum(lad.a_n))
    for r in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            CorrectionLadder.build(2.5, r)
    with pytest.raises(ValueError):
        young_constant(3, 2, 2.5)


# -- correction and flux integrals -----------------------------------------------------


def test_correction_vanishes_without_omega_dependence():
    u = random_field(8, 2.0, np.random.default_rng(1))
    for n in (1,):
        assert correction_term(n, u, cubic(2.0 - 1j), 3.0, 2.6) == 0.0
        assert flux_term(n, u, cubic(2.0 - 1j), 3.0, 2.6) == 0.0


def test_correction_vanishes_for_constant_weight():
    u = SpectralField.from_modes({1: 1.0}, 4)
    # T_w = i|u|^2 = i on a unimodular exponential: constant, killed by the antiderivative
    F = PolynomialNonlinearity.from_terms({(1, 1, 1, 0): 1j})
    assert abs(correction_term(1, u, F, 3.0, 2.6)) < 1e-15
    # real constant T_w = 1 (pure transport): zero imaginary part
    Ft = PolynomialNonlinearity.from_terms({(0, 1, 0, 0): 1.0})
    assert abs(correction_term(1, u, Ft, 3.0, 2.6)) < 1e-15


def _direct_eval(field, xs):
    ks = field.wavenumbers()
    return np.asarray(
        [np.sum(field.coeffs * np.exp(1j * ks * x)) for x in xs], dtype=np.complex128
    )


def _oracle_correction(n, u, F, alpha, r, m):
    """Direct-summation quadrature of the L_n integrand on an m-point grid."""
    xs = 2 * np.pi * np.arange(m) / m
    uv = _direct_eval(u, xs)
    duv = _direct_eval(derivative(u), xs)
    theta_vals = F.wirtinger("omega").evaluate_values(uv, duv)
    # antiderivative of the imaginary part via direct DFT of the samples
    kmax = (m - 1) // 2
    g_vals = np.zeros(m)
    for k in range(-kmax, kmax + 1):
        if k == 0:
            continue
        ck = np.mean(theta_vals.imag * np.exp(-1j * k * xs))
        g_vals += np.real(ck / (1j * k) * np.exp(1j * k * xs))
    sig = r - 1.0 - (alpha - 2.0) * n / 2.0
    wv = _direct_eval(bracket_power(derivative(u), sig), xs)
    cn = correction_coefficient(n, alpha)
    return cn * float(np.mean(g_vals**n * np.abs(wv) ** 2))


def test_two_mode_states_give_zero_by_phase_alignment():
    # For T_w = i|u|^2 and any two-mode u the weight and density cross terms
    # pair to a real multiple of 1/(i d): the integral vanishes identically.
    F = PolynomialNonlinearity.from_terms({(1, 1, 1, 0): 1j})
    for modes in ({1: 1.0, 2: 0.5}, {1: 1.0, 2: 0.5j}, {2: 1j, 5: 0.25}):
        u = SpectralField.from_modes(modes, 6)
        assert abs(correction_term(1, u, F, 3.0, 2.6)) < 1e-14


def test_correction_matches_refined_direct_quadrature():
    # three interacting modes break the two-mode cancellation
    u = SpectralField.from_modes({1: 1.0, 2: 0.5, 3: 1j / 3}, 4)
    F = PolynomialNonlinearity.from_terms({(1, 1, 1, 0): 1j})  # T_w = i|u|^2, nonconstant
    val = correction_term(1, u, F, 3.0, 2.6)
    assert abs(val) > 1e-6  # genuinely nonzero
    coarse = _oracle_correction(1, u, F, 3.0, 2.6, 41)
    fine = _oracle_correction(1, u, F, 3.0, 2.6, 97)
    assert abs(coarse - fine) < 1e-10  # quadrature converged
    assert abs(val - fine) < 1e-10


def test_weight_wider_than_product_grid_regression():
    # a degree-3 weight at K=12 has 73 samples, more than the product grid once held
    u = random_field(12, 3.0, np.random.default_rng(17), amplitude=0.5)
    F = PolynomialNonlinearity.from_terms({(2, 1, 1, 0): 1j})
    wide = u.with_cutoff(16)  # the same function on a larger grid
    for term in (correction_term, flux_term):
        val = term(1, u, F, 3.0, 2.6)
        assert abs(val) > 1e-8
        assert abs(val - term(1, wide, F, 3.0, 2.6)) < 1e-12 * abs(val)


def test_flux_real_and_refinement_consistent():
    rng = np.random.default_rng(2)
    u = random_field(6, 2.5, rng)
    val = flux_term(1, u, BALANCED_IMAG, 2.5, 2.6)
    assert isinstance(val, float) and np.isfinite(val)

    def oracle(m):
        xs = 2 * np.pi * np.arange(m) / m
        uv = _direct_eval(u, xs)
        duv = _direct_eval(derivative(u), xs)
        theta_vals = BALANCED_IMAG.wirtinger("omega").evaluate_values(uv, duv)
        kmax = (m - 1) // 2
        g = np.zeros(m)
        dg = np.zeros(m)
        for k in range(-kmax, kmax + 1):
            if k == 0:
                continue
            ck = np.mean(theta_vals.imag * np.exp(-1j * k * xs))
            g += np.real(ck / (1j * k) * np.exp(1j * k * xs))
            dg += np.real(ck * np.exp(1j * k * xs))
        sp = 2.6 - 1.0
        v = derivative(u)
        w1 = _direct_eval(bracket_power(v, sp), xs)
        w2 = _direct_eval(bracket_power(derivative(v), sp), xs)
        cn = correction_coefficient(1, 2.5)
        return -2.5 * cn * float(np.mean(dg * w2 * np.conj(w1)).imag)

    coarse, fine = oracle(201), oracle(403)
    assert abs(coarse - fine) < 1e-8
    assert abs(val - fine) < 1e-8


def test_flux_first_order_matches_projection_route():
    # d/dx of the weight antiderivative is the nonmean projection of Im T_w:
    # K_1 = -2 Im int (P_nonmean Im T_w) (<D>^{s'} v_x) <D>^{s'} conj(v) dx
    # (alpha c_1 = 2), computed here without differentiating on the grid.
    from test_spectral import project

    rng = np.random.default_rng(21)
    for alpha, r in ((2.5, 2.6), (3.0, 2.9)):
        u = random_field(6, 2.0, rng)
        v = derivative(u)
        val = flux_term(1, u, BALANCED_IMAG, alpha, r)
        theta = BALANCED_IMAG.wirtinger("omega").evaluate(u)
        w_nm = project(imag_part(theta), "nonmean")
        sp = r - 1.0
        w1 = bracket_power(v, sp)
        w2 = bracket_power(derivative(v), sp)
        m = 1 << 10
        other = -2.0 * float(
            np.mean(
                np.real(w_nm.to_samples(m)) * w2.to_samples(m) * np.conj(w1.to_samples(m))
            ).imag
        )
        assert abs(val - other) < 1e-12


def test_correction_scales_quadratically_in_v():
    rng = np.random.default_rng(3)
    u = random_field(8, 2.0, rng)
    v = derivative(u)
    base = correction_term(1, u, BALANCED_IMAG, 3.0, 2.6, v=v)
    scaled = correction_term(1, u, BALANCED_IMAG, 3.0, 2.6, v=(2.0 - 1j) * v)
    assert scaled == pytest.approx(abs(2.0 - 1j) ** 2 * base, rel=1e-12)


def test_energy_quantities_translation_invariant():
    rng = np.random.default_rng(4)
    u = random_field(8, 2.0, rng)
    shifted = translate(u, 1.234)
    lad = CorrectionLadder.build(2.5, 2.6)
    a = modified_energy(u, BALANCED_IMAG, lad)
    b = modified_energy(shifted, BALANCED_IMAG, lad)
    assert abs(a.value - b.value) < 1e-10
    for x, y in zip(a.corrections, b.corrections):
        assert abs(x - y) < 1e-10
    ka = flux_term(1, u, BALANCED_IMAG, 2.5, 2.6)
    kb = flux_term(1, shifted, BALANCED_IMAG, 2.5, 2.6)
    assert abs(ka - kb) < 1e-10


def test_out_of_range_orders_rejected():
    u = random_field(4, 2.0, np.random.default_rng(5))
    with pytest.raises(ValueError):
        correction_term(2, u, BALANCED_IMAG, 3.0, 2.6)  # depth 1 at alpha 3
    with pytest.raises(ValueError):
        correction_term(0, u, BALANCED_IMAG, 3.0, 2.6)
    with pytest.raises(ValueError):
        flux_term(3, u, BALANCED_IMAG, 3.0, 2.6)  # N+1 = 2 is the last allowed
    flux_term(2, u, BALANCED_IMAG, 3.0, 2.6)


# -- the modified energy ------------------------------------------------------------------


def test_energy_reduces_to_plain_norms_without_omega():
    u = random_field(10, 2.0, np.random.default_rng(6))
    lad = CorrectionLadder.build(3.0, 2.6)
    me = modified_energy(u, cubic(1j), lad)
    expect = sobolev_norm(u, 1.6) ** 2 + sobolev_norm(derivative(u), 1.6) ** 2
    assert me.value**2 == pytest.approx(expect, rel=1e-13)
    assert me.coercive


def test_energy_of_zero_field():
    lad = CorrectionLadder.build(2.5, 2.6)
    me = modified_energy(SpectralField.zeros(8), BALANCED_IMAG, lad)
    assert me.value == 0.0 and me.coercive


def test_modified_energy_evaluates_the_weight_once(monkeypatch):
    # depth 3 at alpha = 2.4: one F_omega coefficient map per modified_energy
    # and per energy_audit, whatever its snapshot count (100 snapshots are
    # three blocks of L_3's 100-point grid), and each rung bitwise equal to
    # the public correction_term
    lad = CorrectionLadder.build(2.4, 2.3)
    u = random_field(12, 3.0, np.random.default_rng(5), amplitude=0.8)
    builds = []
    rows_coefficient_map = energy._rows_coefficient_map
    monkeypatch.setattr(
        energy,
        "_rows_coefficient_map",
        lambda *a, **k: builds.append(1) or rows_coefficient_map(*a, **k),
    )
    me = modified_energy(u, BALANCED_IMAG, lad)
    assert len(builds) == 1
    cfg = EvolutionConfig(alpha=2.4, cutoff=12, dt=1e-3, horizon=1e-3)
    for count in (1, 2, 7, 100):
        builds.clear()
        traj = TrajectoryRecord(np.arange(count) * 1e-3, [u] * count, cfg)
        trace = energy_audit(traj, BALANCED_IMAG, 2.3)
        assert len(builds) == 1 and len(trace.energy) == count
        assert trace.corrections[-1].tolist() == list(me.corrections)
    assert me.corrections == tuple(
        correction_term(n, u, BALANCED_IMAG, 2.4, 2.3) for n in range(1, lad.depth + 1)
    )
    assert lad.depth == 3 and all(c != 0 for c in me.corrections)


def _oracle_modified_energy(u, F, ladder):
    """modified_energy as one snapshot's own computation: F_omega evaluated
    through `evaluate`, and each rung sampled on its own alias-free grid."""
    alpha, r = ladder.alpha, ladder.r
    v = derivative(u)
    nu = sobolev_norm(u, r - 1.0)
    nv = sobolev_norm(v, r - 1.0)
    theta = F.wirtinger("omega").evaluate(u)
    w = sobolev_norm(theta, 0.0)
    mean_im = float(theta.coefficient(0).imag)
    g = antiderivative(imag_part(theta))
    ls = []
    for n in range(1, ladder.depth + 1):
        wn = bracket_power(v, r - 1.0 - (alpha - 2.0) * n / 2.0)
        m = padded_size(max(g.cutoff, wn.cutoff), n * g.cutoff + 2 * wn.cutoff, 0)
        gv = np.real(g.to_samples(m))
        wv = wn.to_samples(m)
        ls.append(correction_coefficient(n, alpha) * float(np.mean(gv**n * np.abs(wv) ** 2)))
    ls = tuple(ls)
    e2 = nu**2 + nv**2 + sum(ls) + ladder.a * nu**2 * w ** (2 * ladder.depth)
    lower = nu**2 + 0.5 * nv**2
    upper = nu**2 + 1.5 * nv**2 + 2.0 * ladder.a * nu**2 * w ** (2 * ladder.depth)
    slack = 1e-12 * max(1.0, e2)
    coercive = (lower <= e2 + slack) and (e2 <= upper + slack)
    return ModifiedEnergy(math.sqrt(e2), nu, nv, ls, w, mean_im, coercive, lower, upper)


# F with Im T_w = 0 (no rung), and with nonconstant Im T_w of degree 2 and 3
AUDIT_FAMILIES = (cubic(1j), example_d(1.0, 2.0), BALANCED_IMAG, example_b(1.0, 2))


@given(
    alpha=st.floats(2.25, 4.0),
    cutoff=st.sampled_from([3, 8, 21, 40]),
    family=st.integers(0, len(AUDIT_FAMILIES) - 1),
    count=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    amplitude=st.floats(0.05, 1.5),
    block_points=st.sampled_from([spectral._BLOCK_POINTS, 500, 1]),  # 1: a block per snapshot
)
# blocks of 6 and 5 rows on L_4's 405-point grid, of 4, 4 and 3 on L_2's 128
# points, and of one row each
@example(2.25, 40, 1, 11, 3, 0.7, spectral._BLOCK_POINTS)
@example(2.5, 21, 2, 11, 4, 0.9, 500)
@example(3.0, 8, 3, 7, 5, 1.2, 1)
@settings(max_examples=40, deadline=None)
def test_audit_is_bitwise_the_per_snapshot_energy(
    alpha, cutoff, family, count, seed, amplitude, block_points
):
    F, r = AUDIT_FAMILIES[family], max(alpha / 2.0 + 1.0, 2.5) + 0.1
    rng = np.random.default_rng(seed)
    snaps = [random_field(cutoff, r + 1.0, rng, amplitude=amplitude) for _ in range(count)]
    times = np.cumsum(rng.uniform(1e-3, 1e-1, count))
    cfg = EvolutionConfig(alpha=alpha, cutoff=cutoff, dt=1e-3, horizon=1e-3)
    kept, spectral._BLOCK_POINTS = spectral._BLOCK_POINTS, block_points
    try:
        trace = energy_audit(TrajectoryRecord(times, snaps, cfg), F, r)
    finally:
        spectral._BLOCK_POINTS = kept
    ladder = CorrectionLadder.build(alpha, r)
    rows = [_oracle_modified_energy(u, F, ladder) for u in snaps]
    e = np.array([m.value for m in rows])
    slopes = np.gradient(np.log1p(e), times) if count > 1 else np.zeros(1)
    assert trace.ladder == ladder
    for got, want in (
        (trace.times, times),
        (trace.energy, e),
        (trace.norm_u, [m.norm_u for m in rows]),
        (trace.norm_v, [m.norm_v for m in rows]),
        (trace.corrections, [m.corrections for m in rows]),
        (trace.mean_im, [m.mean_im for m in rows]),
        (trace.coercivity_ok, [m.coercive for m in rows]),
        (trace.slopes, slopes),
    ):
        assert np.array_equal(got, np.array(want)), (got, want)
    assert trace.lipschitz == (float(max(0.0, np.max(slopes))) if count > 1 else 0.0)
    assert modified_energy(snaps[-1], F, ladder) == rows[-1]


def _oracle_flux(n, u, F, alpha, r):
    """flux_term with dx(g^n) by an FFT derivative of the g^n samples; also
    the integral of the integrand's modulus, the scale of its rounding."""
    v = derivative(u)
    g = antiderivative(imag_part(F.wirtinger("omega").evaluate(u)))
    sp = r - 1.0 - (alpha - 2.0) * (n - 1) / 2.0
    w1 = bracket_power(v, sp)
    w2 = bracket_power(derivative(v), sp)
    m = padded_size(max(g.cutoff, v.cutoff), n * g.cutoff + 2 * v.cutoff, 0)
    gn = np.real(g.to_samples(m)) ** n
    freqs = np.fft.fftfreq(m, d=1.0 / m)
    dgn = np.fft.ifft(1j * freqs * np.fft.fft(gn))
    integrand = dgn * w2.to_samples(m) * np.conj(w1.to_samples(m))
    c = -alpha * correction_coefficient(n, alpha)
    return c * float(np.mean(integrand).imag), abs(c) * float(np.mean(np.abs(integrand)))


@given(
    alpha=st.floats(2.25, 4.0),
    cutoff=st.sampled_from([2, 6, 15, 32]),
    family=st.integers(0, len(AUDIT_FAMILIES) - 1),
    seed=st.integers(0, 2**16),
    amplitude=st.floats(0.05, 1.5),
    order=st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_flux_matches_the_fft_derivative_of_the_weight_power(
    alpha, cutoff, family, seed, amplitude, order
):
    F, r = AUDIT_FAMILIES[family], max(alpha / 2.0 + 1.0, 2.5) + 0.1
    n = 1 + order % (ladder_depth(alpha) + 1)  # every order up to N + 1
    u = random_field(cutoff, r + 1.0, np.random.default_rng(seed), amplitude=amplitude)
    want, scale = _oracle_flux(n, u, F, alpha, r)
    assert abs(flux_term(n, u, F, alpha, r) - want) <= 1e-12 * scale


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_coercivity_sandwich_random_states(alpha):
    r = max(alpha / 2.0 + 1.0, 2.5) + 0.1
    lad = CorrectionLadder.build(alpha, r)
    rng = np.random.default_rng(7)
    for F in (cubic(1j), BALANCED_IMAG, example_d(1.0, 2.0)):
        for _ in range(10):
            u = random_field(12, r + 1.0, rng, amplitude=rng.uniform(0.2, 1.5))
            me = modified_energy(u, F, lad)
            assert me.coercive
            assert me.lower <= me.value**2 * (1 + 1e-12)
            assert me.value**2 <= me.upper * (1 + 1e-12)


# -- audits --------------------------------------------------------------------------------


def test_audit_dissipative_flow_energy_nonincreasing():
    phi = random_field(10, 2.5, np.random.default_rng(8))
    cfg = EvolutionConfig(alpha=3.0, eps=0.1, cutoff=10, dt=1e-2, horizon=0.5, record_every=5)
    traj = integrate(phi, PolynomialNonlinearity.zero(), cfg)
    trace = energy_audit(traj, PolynomialNonlinearity.zero(), 2.6)
    assert np.all(np.diff(trace.energy) <= 1e-12)
    assert trace.lipschitz == 0.0
    assert np.all(trace.coercivity_ok)


def test_audit_rejects_no_snapshots():
    # an empty record has no growth constant; it must not read as 0
    cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=4, dt=1e-3, horizon=1e-3)
    with pytest.raises(ValueError, match="no snapshots to audit"):
        energy_audit(TrajectoryRecord(np.zeros(0), [], cfg), cubic(1j), 2.6)


def test_audit_lipschitz_uniform_across_eps():
    phi = random_field(8, 4.0, np.random.default_rng(9), amplitude=0.2).with_cutoff(16)
    consts = []
    for eps in (1e-1, 1e-2, 1e-3):
        cfg = EvolutionConfig(alpha=3.0, eps=eps, cutoff=16, dt=1e-3, horizon=0.5, record_every=25)
        traj = integrate(phi, cubic(1j), cfg)
        trace = energy_audit(traj, cubic(1j), 2.6)
        assert np.all(trace.coercivity_ok)
        consts.append(trace.lipschitz)
    assert lipschitz_constants_uniform(consts, factor=2.0)


def test_audit_illposed_contrast_grows_with_cutoff():
    from fnlslab.growth import probe_initial_data

    F = example_b(1.0, 1)
    witness = SpectralField.constant(1j, 2)
    consts = []
    for K in (16, 32):
        phi = probe_initial_data(witness, K, 2.6, side="minus", seed=3)
        cfg = EvolutionConfig(alpha=3.0, eps=0.0, cutoff=K, dt=2.5e-4, horizon=0.1, record_every=10)
        traj = integrate(phi, F, cfg)
        consts.append(energy_audit(traj, F, 2.6).lipschitz)
    assert consts[1] > 2.0 * consts[0]  # non-uniform in resolution: flagged regime
    assert not lipschitz_constants_uniform(consts, factor=2.0)


def test_gauge_limit_identity():
    rng = np.random.default_rng(11)
    u = random_field(8, 3.0, rng, amplitude=0.6)
    g = antiderivative(imag_part(BALANCED_IMAG.wirtinger("omega").evaluate(u)))
    assert np.abs(g.to_samples(8 * g.cutoff)).max() <= 1.0  # the diagnostic's stated regime
    sums, target = gauge_limit_partial_sums(u, BALANCED_IMAG, 2.6, n_terms=20)
    rel = abs(sums[-1] - target) / abs(target)
    assert rel < 1e-8, rel
    # partial sums actually converge (last improvement below the tolerance)
    assert abs(sums[18] - target) >= abs(sums[20] - target) - 1e-16


def test_ladder_cancellation_footprint():
    # The flux terms exist to cancel the leading part of dL_n/dt: along a
    # trajectory, K_1 + dL_1/dt - K_2 is two orders below its pieces, and the
    # cancellation is sign-sensitive (flipping K_1 destroys it).
    alpha, r, s = 2.5, 2.6, 2.6
    K = 64
    rng = np.random.default_rng(4)
    base = random_field(6, 4.0, rng, amplitude=0.5).with_cutoff(K)
    spike = SpectralField.from_modes(
        {K: (1.0 + K * K) ** (-s / 2), -K + 3: 0.5 * (1.0 + K * K) ** (-s / 2)}, K
    )
    dt = 2e-5 * (16.0 / K) ** (alpha / 2)
    cfg = EvolutionConfig(alpha=alpha, eps=0.0, cutoff=K, dt=dt, horizon=40 * dt, record_every=1)
    traj = integrate(base + spike, BALANCED_IMAG, cfg)
    i0 = 20
    dL = (
        correction_term(1, traj.snapshots[i0 + 1], BALANCED_IMAG, alpha, r)
        - correction_term(1, traj.snapshots[i0 - 1], BALANCED_IMAG, alpha, r)
    ) / (traj.times[i0 + 1] - traj.times[i0 - 1])
    k1 = flux_term(1, traj.snapshots[i0], BALANCED_IMAG, alpha, r)
    k2 = flux_term(2, traj.snapshots[i0], BALANCED_IMAG, alpha, r)
    big = max(abs(k1), abs(dL), abs(k2))
    assert abs(k1 + dL - k2) < 0.05 * big
    assert abs(-k1 + dL - k2) > 0.5 * big  # control: the sign carries the cancellation


def test_difference_ladder_via_explicit_v():
    # The r = 1 difference energy reuses the same integrals: the weight comes
    # from the first solution, the quadratic slot holds the difference
    # derivative, and the Young bound survives because the difference
    # derivative is the derivative of the difference.
    phi = random_field(8, 3.0, np.random.default_rng(30), amplitude=0.5).with_cutoff(12)
    cfg = EvolutionConfig(alpha=2.5, eps=1e-1, cutoff=12, dt=1e-3, horizon=0.2, record_every=20)
    run1 = integrate(phi, BALANCED_IMAG, cfg)
    from dataclasses import replace

    run2 = integrate(phi, BALANCED_IMAG, replace(cfg, eps=1e-2))
    depth = ladder_depth(2.5)
    for i in range(1, len(run1.times)):
        u1 = run1.snapshots[i]
        du = u1 - run2.snapshots[i]
        dv = derivative(du)
        uu = sobolev_norm(du, 0.0)
        vv = sobolev_norm(dv, 0.0)
        theta = BALANCED_IMAG.wirtinger("omega").evaluate(u1)
        w = sobolev_norm(theta, 0.0)
        total = 0.0
        for n in range(1, depth + 1):
            ln = correction_term(n, u1, BALANCED_IMAG, 2.5, 1.0, v=dv)
            a_n = young_constant(n, depth, 2.5)
            assert abs(ln) <= vv**2 / (10 * n**2) + a_n * uu**2 * w ** (2 * depth)
            total += ln
        # difference-energy coercivity: |sum L_n| <= v/2 + (sum a_n) u-part
        bound = 0.5 * vv**2 + sum(
            young_constant(n, depth, 2.5) for n in range(1, depth + 1)
        ) * uu**2 * w ** (2 * depth)
        assert abs(total) <= bound


def test_energy_csv(tmp_path):
    phi = random_field(6, 2.0, np.random.default_rng(12), amplitude=0.4)
    cfg = EvolutionConfig(alpha=2.5, eps=1e-2, cutoff=6, dt=1e-2, horizon=0.1, record_every=2)
    traj = integrate(phi, BALANCED_IMAG, cfg)
    trace = energy_audit(traj, BALANCED_IMAG, 2.6)
    path = tmp_path / "trace.csv"
    write_energy_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,E,norm_u,norm_v,L_1,L_2,mean_im,coercivity_ok"
    assert len(lines) == 1 + len(trace.times)
