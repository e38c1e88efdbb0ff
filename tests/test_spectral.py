"""Spectral core: multiplier operators, norms, projections, alias-free products."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fnlslab.spectral import (
    DealiasBudgetError,
    SpectralField,
    _bracket,
    _coefficients,
    _fft,
    _ifft,
    _norms,
    _random_coefficients,
    _samples,
    antiderivative,
    bracket_power,
    conjugate,
    derivative,
    imag_part,
    padded_size,
    pointwise_product,
    random_field,
    sobolev_norm,
    translate,
    truncate_modes,
)
from fnlslab.nonlinearity import PolynomialNonlinearity

RNG = np.random.default_rng(1234)


def convolve_coefficients(f: SpectralField, g: SpectralField) -> SpectralField:
    """Reference: direct convolution of the coefficient sequences (no FFT)."""
    c = np.convolve(f.coeffs, g.coeffs)
    return SpectralField(c, f.cutoff + g.cutoff)


def project(f: SpectralField, which: str) -> SpectralField:
    """Reference: restrict support to 'mean' (k=0), 'nonmean' (k!=0),
    'plus' (k>0) or 'minus' (k<0)."""
    k = f.wavenumbers()
    if which == "mean":
        mask = k == 0
    elif which == "nonmean":
        mask = k != 0
    elif which == "plus":
        mask = k > 0
    elif which == "minus":
        mask = k < 0
    else:
        raise ValueError(f"unknown projection {which!r}")
    return SpectralField(np.where(mask, f.coeffs, 0.0), f.cutoff)


def linear_semigroup_apply(
    f: SpectralField, t: float, alpha: float, eps: float = 0.0
) -> SpectralField:
    """Reference: exp(t(-i D^alpha + eps d_xx)) f, mode by mode.  Backward heat
    (t < 0 with eps > 0) is refused."""
    if eps > 0 and t < 0:
        raise ValueError("t must be >= 0 when eps > 0")
    k = f.wavenumbers().astype(float)
    lam = -1j * np.abs(k) ** alpha - eps * k**2
    return SpectralField(f.coeffs * np.exp(t * lam), f.cutoff)


def e(k, amp=1.0, cutoff=None):
    c = cutoff if cutoff is not None else max(abs(k), 1)
    return SpectralField.from_modes({k: amp}, c)


# -- representation ------------------------------------------------------------


def test_parseval_after_round_trip():
    f = random_field(32, 1.5, np.random.default_rng(0))
    m = 128  # >= 2*32 + 2
    g = SpectralField.from_samples(f.to_samples(m), 32)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12
    quad = np.sqrt(np.mean(np.abs(f.to_samples(m)) ** 2))
    assert abs(quad - sobolev_norm(f, 0.0)) < 1e-12


def test_samples_reconstruct_band_limited_exactly():
    f = random_field(10, 1.0, np.random.default_rng(1))
    for m in (21, 22, 32, 64):
        g = SpectralField.from_samples(f.to_samples(m), 10)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12
    with pytest.raises(ValueError):
        f.to_samples(20)


@pytest.mark.parametrize("m", [8, 135, 270, 8640])
def test_fft_binding_is_bitwise_numpy_fft(m):
    # Every transform calls numpy's private pocketfft gufuncs through _fft and
    # _ifft; they must keep numpy.fft's bits at norm="forward", the package's
    # one convention, so a numpy release that changes that module fails here.
    conventions = [
        (_ifft, lambda a: np.fft.ifft(a, norm="forward")),
        (_fft, lambda a: np.fft.fft(a, norm="forward")),
    ]
    rng = np.random.default_rng(m)
    b = 3
    data = np.zeros(2 * b * m + 2, dtype=np.complex128)  # buffers are views into a flat array
    buf = data[1:-1].reshape(2 * b, m)
    buf[:] = rng.standard_normal((2 * b, m)) + 1j * rng.standard_normal((2 * b, m))
    layouts = [buf[0].copy(), buf[:b], buf]
    if m == 8640:
        layouts.append(data[1 + m : 1 + 2 * m])  # a split row: one row of a (2, m) buffer
    for transform, reference in conventions:
        for a in layouts:
            flat = np.zeros(a.size + 2, dtype=np.complex128)
            out = flat[1:-1].reshape(a.shape)
            assert transform(a, out) is out
            assert out.tobytes() == reference(a).tobytes()
            assert flat[0] == flat[-1] == 0


def _half_grids(m, band):
    """The half-grid rule, restated: an even grid of more than 4320 points whose
    half holds the modes |k| <= band apart."""
    return m > 4320 and m % 2 == 0 and m // 2 >= 2 * band + 1


def _mode_phases(band, m):
    """e^{2 pi i k/m} at k = -band..band, the phase of mode k at the odd points."""
    return np.exp(2j * np.pi / m * np.arange(-band, band + 1))


def _numpy_samples(c, m):
    """ifft(buf, norm="forward") of the coefficients c (|k| <= K) placed at k mod m;
    on half grids, of c at k mod m/2 for the even points and of c times the
    phases for the odd points, as one (2, m/2) ifft."""
    k = len(c) // 2
    if not _half_grids(m, k):
        buf = np.zeros(m, dtype=np.complex128)
        buf[np.mod(np.arange(-k, k + 1), m)] = c
        return np.fft.ifft(buf, norm="forward")
    at = np.mod(np.arange(-k, k + 1), m // 2)
    buf = np.zeros((2, m // 2), dtype=np.complex128)
    buf[0, at], buf[1, at] = c, c * _mode_phases(k, m)
    out = np.empty(m, dtype=np.complex128)
    out[0::2], out[1::2] = np.fft.ifft(buf, norm="forward")
    return out


def _numpy_coefficients(values, cutoff):
    """fft(values, norm="forward") at the modes |k| <= cutoff; on half grids,
    (even + odd * conj(phase)) * 0.5 of the (2, m/2) fft of the even and odd
    samples."""
    m = len(values)
    if not _half_grids(m, cutoff):
        return np.fft.fft(values, norm="forward")[np.mod(np.arange(-cutoff, cutoff + 1), m)]
    at = np.mod(np.arange(-cutoff, cutoff + 1), m // 2)
    even, odd = np.fft.fft(np.stack((values[0::2], values[1::2])), norm="forward")[:, at]
    return (even + odd * np.conj(_mode_phases(cutoff, m))) * 0.5


def test_samples_transforms_are_bitwise_numpy_fft():
    f = random_field(3, 1.0, np.random.default_rng(2))
    for m in (8, 135):
        samples = f.to_samples(m)
        assert samples.tobytes() == _numpy_samples(f.coeffs, m).tobytes()
        kept = samples.tobytes()
        back = SpectralField.from_samples(samples, 3)
        assert samples.tobytes() == kept  # from_samples leaves its input as it is
        assert back.coeffs.tobytes() == _numpy_coefficients(samples, 3).tobytes()
    # a (2, 3)-row block samples and comes back row by row
    rng = np.random.default_rng(3)
    block = rng.standard_normal((2, 3, 9)) + 1j * rng.standard_normal((2, 3, 9))
    values = _samples(block, 135)
    assert values.shape == (2, 3, 135)
    rows = _coefficients(values, 6)
    for i, j in np.ndindex(2, 3):
        assert values[i, j].tobytes() == _numpy_samples(block[i, j], 135).tobytes()
        assert rows[i, j].tobytes() == _numpy_coefficients(values[i, j], 6).tobytes()
    # products at out_cutoff 0, max(cutoffs) and full bandwidth, on 8 points
    # and on 5-smooth grids
    for (kf, kg), grids in (((1, 2), (8, 8, 8)), ((30, 40), (90, 120, 144))):
        f, g = random_field(kf, 1.0, rng), random_field(kg, 1.0, rng)
        for kout, m in zip((0, kg, kf + kg), grids):
            assert padded_size(kg, kf + kg, kout) == m
            vals = _numpy_samples(f.coeffs, m) * _numpy_samples(g.coeffs, m)
            got = pointwise_product(f, g, out_cutoff=kout)
            assert got.cutoff == kout
            assert got.coeffs.tobytes() == _numpy_coefficients(vals, kout).tobytes()


@st.composite
def _grid_and_band(draw):
    """(m, band, True): an even grid above 4320 points and a band its half holds,
    or (m, band, False): a grid that stays one grid, odd, with a half too small
    for its band, or of at most 4320 points."""
    if draw(st.booleans()):
        m = draw(st.one_of(st.sampled_from([4374, 4500, 8640, 17280]), st.integers(2161, 9000).map(lambda h: 2 * h)))
        return m, draw(st.integers(0, (m // 2 - 1) // 2)), True
    m, band = draw(st.sampled_from([(5625, 1000), (8640, 2160), (12500, 4096), (4320, 2000), (135, 40)]))
    return m, band, False


@given(case=_grid_and_band(), rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(case=(8640, 2048, True), rows=1, seed=0)  # the K = 2048 RHS grid
@example(case=(5625, 1000, False), rows=2, seed=0)  # odd
@settings(max_examples=40, deadline=None)
def test_half_grids_agree_with_the_full_grid(case, rows, seed):
    """On half grids `_samples` and `_coefficients` are within rounding of numpy's
    full-grid transforms: max |error| <= 1e-14 max |value|, about 45 ulps, where
    17280 points read about 4e-16.  They are bitwise the restated half-grid
    arithmetic, and bitwise numpy's full grid everywhere else."""
    m, band, halves = case
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((rows, 2 * band + 1)) + 1j * rng.standard_normal((rows, 2 * band + 1))
    values = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
    got, back = _samples(c, m), _coefficients(values, band)
    assert got.shape == (rows, m) and back.shape == (rows, 2 * band + 1)
    for j in range(rows):
        buf = np.zeros(m, dtype=np.complex128)
        buf[np.mod(np.arange(-band, band + 1), m)] = c[j]
        full = np.fft.ifft(buf, norm="forward")
        modes = np.fft.fft(values[j], norm="forward")[np.mod(np.arange(-band, band + 1), m)]
        if halves:
            assert np.max(np.abs(got[j] - full)) <= 1e-14 * np.max(np.abs(full))
            assert np.max(np.abs(back[j] - modes)) <= 1e-14 * np.max(np.abs(modes))
            assert got[j].tobytes() == _numpy_samples(c[j], m).tobytes()
            assert back[j].tobytes() == _numpy_coefficients(values[j], band).tobytes()
        else:
            assert got[j].tobytes() == full.tobytes()
            assert back[j].tobytes() == modes.tobytes()


def test_value_semantics():
    f = e(1)
    with pytest.raises(ValueError):
        SpectralField(np.zeros(4), 2)  # wrong length
    with pytest.raises((ValueError, RuntimeError)):
        f.coeffs[0] = 1.0  # frozen buffer


# -- the dispersion multiplier ------------------------------------------------------


def test_d2_is_minus_second_derivative_on_mean_free():
    # at alpha = 2 the free group exp(-it D^alpha) acts mode by mode as
    # exp(-it k^2), the symbol of -d_xx
    f = project(random_field(16, 1.0, np.random.default_rng(3)), "nonmean")
    t = 0.37
    symbol = -derivative(derivative(SpectralField(np.ones(33), 16))).coeffs
    rhs = SpectralField(np.exp(-1j * t * symbol) * f.coeffs, 16)
    assert sobolev_norm(linear_semigroup_apply(f, t, 2.0) - rhs) < 1e-12


# -- bracket power and Sobolev norms ----------------------------------------------


def test_bracket_power_examples():
    f = random_field(8, 1.0, np.random.default_rng(4))
    assert sobolev_norm(bracket_power(f, 0.0) - f) < 1e-15
    c = SpectralField.constant(2.0 - 1j)
    assert abs(bracket_power(c, 3.7).coefficient(0) - (2.0 - 1j)) < 1e-15
    assert abs(bracket_power(e(1), 2.0).coefficient(1) - 2.0) < 1e-14


@given(st.floats(min_value=-3, max_value=3))
@settings(max_examples=25, deadline=None)
def test_bracket_power_inverts(s):
    f = random_field(12, 1.0, np.random.default_rng(5))
    g = bracket_power(bracket_power(f, s), -s)
    assert sobolev_norm(g - f) < 1e-12


def test_sobolev_norm_examples():
    assert abs(sobolev_norm(e(1), 1.0) - np.sqrt(2)) < 1e-14
    assert sobolev_norm(SpectralField.zeros(4), 2.0) == 0.0
    f = SpectralField.from_modes({0: 3.0, 2: 4.0}, 2)
    assert abs(sobolev_norm(f, 0.0) - 5.0) < 1e-14


# -- projections and antiderivative -----------------------------------------------


def test_projection_examples():
    f = SpectralField.from_modes({0: 2.0, 1: 1.0}, 1)
    assert abs(project(f, "mean").coefficient(0) - 2.0) < 1e-15
    assert project(f, "mean").coefficient(1) == 0.0
    assert project(e(1), "minus").is_zero()
    g = random_field(16, 1.0, np.random.default_rng(6))
    total = project(g, "mean") + project(g, "plus") + project(g, "minus")
    assert sobolev_norm(total - g) == 0.0
    with pytest.raises(ValueError):
        project(g, "left")


def test_antiderivative_examples():
    assert abs(antiderivative(e(1)).coefficient(1) - (-1j)) < 1e-15
    assert antiderivative(SpectralField.constant(5.0)).is_zero()
    f = random_field(16, 1.0, np.random.default_rng(7))
    assert sobolev_norm(derivative(antiderivative(f)) - project(f, "nonmean")) < 1e-12


# -- products ----------------------------------------------------------------------


def test_product_examples():
    p = pointwise_product(e(1), e(1), out_cutoff=2)
    assert abs(p.coefficient(2) - 1.0) < 1e-13
    g = random_field(8, 1.0, np.random.default_rng(8))
    one = SpectralField.constant(1.0)
    assert sobolev_norm(pointwise_product(one, g, out_cutoff=8) - g) < 1e-13
    cos2 = SpectralField.from_modes({1: 1.0, -1: 1.0}, 1)
    sq = pointwise_product(cos2, cos2, out_cutoff=2)
    expect = SpectralField.from_modes({2: 1.0, 0: 2.0, -2: 1.0}, 2)
    assert sobolev_norm(sq - expect) < 1e-13


def test_product_matches_exact_convolution():
    # For |k| <= K/2 inputs nothing is truncated: FFT result == coefficient convolution.
    rng = np.random.default_rng(9)
    f = random_field(8, 1.0, rng).with_cutoff(16)
    g = random_field(8, 1.0, rng).with_cutoff(16)
    fft_route = pointwise_product(f, g, out_cutoff=16)
    conv = convolve_coefficients(f, g).with_cutoff(16)
    assert sobolev_norm(fft_route - conv) < 1e-12


def test_product_full_bandwidth_matches_convolution():
    rng = np.random.default_rng(10)
    f = random_field(12, 0.5, rng)
    g = random_field(7, 0.5, rng)
    full = pointwise_product(f, g, out_cutoff=19)
    conv = convolve_coefficients(f, g)
    assert sobolev_norm(full - conv) < 1e-12


def test_grid_budget_guard():
    with pytest.raises(DealiasBudgetError):
        padded_size(1 << 21, 4 << 21, 1 << 21)


def test_padded_size_holds_inputs_and_product():
    assert padded_size(8, 8, 8) == 32  # 2K + 2 samples resolve the inputs
    assert padded_size(8, 24, 8) == 64  # degree 3, truncated to K
    assert padded_size(8, 8, 0) == 32  # a mean still needs the inputs on the grid
    assert padded_size(0, 0, 0) == 2


def test_product_with_narrow_output_regression():
    # the grid once held the product but not g's 17 samples
    g = random_field(8, 1.0, np.random.default_rng(15))
    p = pointwise_product(SpectralField.constant(2.0), g, out_cutoff=0)
    assert p.cutoff == 0
    assert abs(p.coefficient(0) - 2.0 * g.coefficient(0)) < 1e-14


def _monomial_by_convolution(idx, coeff, u):
    # u, u_x, conj u, conj u_x multiplied by direct coefficient convolution
    out = SpectralField.constant(coeff)
    for factor, power in zip(
        (u, derivative(u), conjugate(u), conjugate(derivative(u))), idx
    ):
        for _ in range(power):
            out = convolve_coefficients(out, factor)
    return out


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@given(
    st.integers(min_value=0, max_value=1 << 15),
    st.integers(min_value=0, max_value=1 << 17),
    st.integers(min_value=0, max_value=1 << 15),
)
@settings(max_examples=200, deadline=None)
def test_padded_size_is_the_least_5_smooth_above_64(cutoff, bandwidth, out_cutoff):
    need = max(bandwidth + out_cutoff, 2 * cutoff) + 2
    pow2 = 1 << (need - 1).bit_length()
    m = padded_size(cutoff, bandwidth, out_cutoff)
    assert need <= m <= pow2
    assert _is_5_smooth(m)
    if pow2 <= 64:
        assert m == pow2
    else:
        assert not any(_is_5_smooth(j) for j in range(need, m))


@pytest.mark.parametrize("cutoff, points", [(1360, 5625), (2048, 8640)], ids=["odd", "even"])
def test_grid_products_on_5_smooth_grids_regression(cutoff, points):
    # Degree 3 truncated to K needs 4K + 2 points: 5442 -> 5625 and 8194 -> 8640.
    rng = np.random.default_rng(cutoff)
    u = random_field(cutoff, 1.0, rng)
    F = PolynomialNonlinearity.from_terms({(0, 2, 1, 0): 1.0, (1, 1, 0, 1): 2.0 - 1j})
    assert padded_size(cutoff, 3 * cutoff, cutoff) == points
    expect = SpectralField.zeros(cutoff)
    for idx, c in F.terms:
        expect = expect + _monomial_by_convolution(idx, c, u).with_cutoff(cutoff)
    got = SpectralField(F.coefficient_map(cutoff, cutoff)(u.coeffs), cutoff)
    assert sobolev_norm(got - expect) < 1e-12 * sobolev_norm(expect)

    g = random_field(2 * cutoff, 1.0, rng)
    assert padded_size(2 * cutoff, 3 * cutoff, cutoff) == points
    prod = pointwise_product(u, g, out_cutoff=cutoff)
    conv = convolve_coefficients(u, g).with_cutoff(cutoff)
    assert sobolev_norm(prod - conv) < 1e-12 * sobolev_norm(conv)


@given(
    st.integers(min_value=0, max_value=5),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=0, max_value=5),
    st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_grid_products_match_convolution(cutoff, idxs, g_cutoff, out_cutoff, seed):
    rng = np.random.default_rng(seed)
    u = random_field(cutoff, 1.0, rng)
    terms = {i: complex(*rng.standard_normal(2)) for i in idxs if sum(i) <= 4}
    F = PolynomialNonlinearity.from_terms(terms)
    band = max(F.total_degree, 1) * cutoff
    kout = band if out_cutoff is None else min(out_cutoff, band)
    expect = SpectralField.zeros(kout)
    for idx, c in F.terms:
        expect = expect + _monomial_by_convolution(idx, c, u).with_cutoff(kout)
    got = F.evaluate(u, out_cutoff=out_cutoff)
    assert got.cutoff == kout
    assert sobolev_norm(got - expect) < 1e-12 * (1.0 + sobolev_norm(expect))

    g = random_field(g_cutoff, 1.0, rng)
    full = cutoff + g_cutoff
    k = max(cutoff, g_cutoff) if out_cutoff is None else min(out_cutoff, full)
    prod = pointwise_product(u, g, out_cutoff=out_cutoff)
    assert prod.cutoff == k
    conv = convolve_coefficients(u, g).with_cutoff(k)
    assert sobolev_norm(prod - conv) < 1e-12 * (1.0 + sobolev_norm(conv))


# -- misc field ops ----------------------------------------------------------------


@given(
    st.integers(1, 6),
    st.integers(0, 12),
    st.floats(-2.0, 5.0),
    st.floats(0.1, 10.0),
    st.sampled_from([None, "plus", "minus"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_random_block_rows_are_successive_random_fields(count, cutoff, decay, amp, side, seed):
    block = _random_coefficients(count, cutoff, decay, np.random.default_rng(seed), amp, side)
    rng = np.random.default_rng(seed)
    rows = [random_field(cutoff, decay, rng, amp, side) for _ in range(count)]
    assert block.shape == (count, 2 * cutoff + 1)
    assert block.tobytes() == np.array([f.coeffs for f in rows]).tobytes()


def test_translate_preserves_amplitudes():
    f = random_field(16, 1.0, np.random.default_rng(11))
    g = translate(f, 0.731)
    assert np.max(np.abs(np.abs(g.coeffs) - np.abs(f.coeffs))) < 1e-15
    # f(x - 2pi) = f
    h = translate(f, 2 * np.pi)
    assert sobolev_norm(h - f) < 1e-12


def test_conjugate_and_parts():
    f = random_field(12, 1.0, np.random.default_rng(12))
    m = 64
    vals = f.to_samples(m)
    assert np.max(np.abs(conjugate(f).to_samples(m) - np.conj(vals))) < 1e-12
    assert np.max(np.abs((0.5 * (f + conjugate(f))).to_samples(m) - vals.real)) < 1e-12
    assert np.max(np.abs(imag_part(f).to_samples(m) - vals.imag)) < 1e-12


def test_truncate_modes():
    f = random_field(16, 0.5, np.random.default_rng(13))
    g = truncate_modes(f, 4)
    assert g.cutoff == f.cutoff
    assert all(g.coefficient(k) == 0 for k in range(5, 17))
    assert sobolev_norm(truncate_modes(f, 16) - f) == 0.0
    assert sobolev_norm(truncate_modes(f, 0) - project(f, "mean")) == 0.0


# -- the H^s weights against frozen copies of the expressions `_weight` replaced ----


def _inline_bracket(c, s):
    k = np.arange(-(c.shape[-1] // 2), c.shape[-1] // 2 + 1).astype(float)
    return c * (1.0 + k * k) ** (s / 2.0)


def _inline_norms(c, s):
    k = np.arange(-(c.shape[-1] // 2), c.shape[-1] // 2 + 1).astype(float)
    return np.sqrt(np.sum((1.0 + k * k) ** s * np.abs(c) ** 2, axis=-1))


def _inline_random_coefficients(count, cutoff, decay, rng, amplitude, side):
    k = np.arange(-cutoff, cutoff + 1)
    w = (1.0 + k.astype(float) ** 2) ** (-decay / 2.0)
    g = rng.standard_normal((count, 2, 2 * cutoff + 1))
    c = amplitude * w * (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    if side == "plus":
        c[:, k <= 0] = 0.0
    elif side == "minus":
        c[:, k >= 0] = 0.0
    return c


@given(
    st.integers(0, 300),
    st.integers(1, 4),
    st.floats(-8.0, 8.0),
    st.integers(0, 2**32 - 1),
    st.floats(-2.0, 6.0),
    st.floats(0.1, 10.0),
    st.sampled_from([None, "plus", "minus"]),
)
@settings(max_examples=60, deadline=None)
def test_weight_sites_are_bitwise_their_inline_weights(cutoff, count, s, seed, decay, amplitude, side):
    rng = np.random.default_rng(seed)
    shape = (count, 2 * cutoff + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= 10.0 ** rng.uniform(-8.0, 8.0, shape)
    for rows in (c, c[0]):
        assert _bracket(rows, s).tobytes() == _inline_bracket(rows, s).tobytes()
        assert _norms(rows, s).tobytes() == _inline_norms(rows, s).tobytes()
    f = SpectralField(c[0], cutoff)
    assert bracket_power(f, s).coeffs.tobytes() == _inline_bracket(c[0], s).tobytes()
    assert np.float64(sobolev_norm(f, s)).tobytes() == _inline_norms(c[0], s).tobytes()
    options = (amplitude, side)
    got = _random_coefficients(count, cutoff, decay, np.random.default_rng(seed), *options)
    want = _inline_random_coefficients(count, cutoff, decay, np.random.default_rng(seed), *options)
    assert got.tobytes() == want.tobytes()
