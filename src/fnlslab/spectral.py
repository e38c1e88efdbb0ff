"""Fourier representation of periodic functions and the linear operators on them.

A field is a finite trigonometric polynomial on the torus T = R/(2*pi*Z),
stored as complex coefficients c(k) for |k| <= K.  All integrals use the
normalized measure

    int_T f dx := (1/2pi) * int_{-pi}^{pi} f(x) dx,

so Parseval reads ||f||_{L2}^2 = sum_k |c(k)|^2 with no 2*pi factors and
||e^{ikx}||_{L2} = 1.

Operators provided as free functions: the Japanese bracket <D>^s (multiplier
(1+k^2)^{s/2}), the mean-free antiderivative (multiplier 1/(ik) off k=0),
and alias-free pointwise products via zero-padded FFT grids.  Every padded
grid in the package is sized by `padded_size`: the next power of two up to
64 points, the smallest 5-smooth length (2^a 3^b 5^c) above that.  The
multipliers, the sampling on a grid and back, and the product are row
functions (`_bracket`, `_dx`, `_dxinv`, `_imag`, `_norms`, `_samples`,
`_coefficients`, `_products`) on blocks of coefficient rows; the field
functions are their one-row calls, and every H^s weight (1+k^2)^p is
`_weight`'s.  On an even grid above `_SPLIT_ABOVE` points whose half holds
the band, sampling and its inverse transform the grid's two interleaved half
grids (`_halves`).  `_block_size` holds blocks of rows to one budget,
`_BLOCK_POINTS` rows x grid points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

__all__ = [
    "SpectralField",
    "DealiasBudgetError",
    "padded_size",
    "bracket_power",
    "sobolev_norm",
    "antiderivative",
    "derivative",
    "pointwise_product",
    "conjugate",
    "imag_part",
    "translate",
    "truncate_modes",
    "random_field",
]

# Hard cap on padded FFT grids; products requiring more raise.
MAX_GRID_POINTS = 1 << 22

# Grids needing more points than this get the smallest 5-smooth length, which
# transforms no slower than the next power of two and has up to half as many
# points.  Up to here both cost about the call overhead, and the power of two
# rounds pure-mode data more cleanly: a K = 8 plane wave run for 1000 cubic
# steps leaks 4e-17 into other modes on 64 points but 2e-12 on 36.
_SMOOTH_ABOVE = 64


# Every transform in the package calls numpy's pocketfft gufuncs (numpy >= 2.0,
# signature (n),()->(m), so `out` is required) through `_fft` and `_ifft`.
# They skip the numpy.fft wrapper's dispatch and argument checks and give the
# bits of numpy.fft.fft and numpy.fft.ifft at norm="forward", the package's one
# convention: the forward transform divides by m, the inverse does not scale.
# The gufuncs are looked up on their module at each call, so patching the
# module's attributes reaches every transform.  A band-limited transform on a
# large even grid runs on the grid's two interleaved half grids (`_halves`),
# with the same convention: `_odd_halves` and `_join_halves` hold that rule,
# for `_samples`, `_coefficients` and the block coefficient map of
# `nonlinearity`.


def _fft(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = (1/m) sum_j a[..., j] e^{-2 pi i jk/m} along the last axis of m points."""
    return _pocketfft.fft(a, 1 / a.shape[-1], out=out)


def _ifft(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum_k a[..., k] e^{+2 pi i jk/m} along the last axis of m points."""
    return _pocketfft.ifft(a, 1.0, out=out)


# An even grid of more points than this whose half holds the band transforms
# as its two interleaved half grids (Markel, "FFT pruning", IEEE Trans. Audio
# Electroacoust. 19, 1971): on a 2-vCPU Xeon one (2, 4320) inverse transform
# took 114 us against 187 us for two (8640,) ones, and one forward transform of
# the (2, 4320) halves 63 us against 93 us for the (8640,) grid.  The grid,
# `padded_size` and the order of the samples stay as they are.
_SPLIT_ABOVE = 4320


def _halves(m: int, band: int) -> bool:
    """Whether a transform between m samples and the modes |k| <= band runs on
    the two interleaved half grids of m/2 points: m > _SPLIT_ABOVE, m even,
    and m/2 >= 2*band + 1, so that the modes sit apart at k mod m/2."""
    return m > _SPLIT_ABOVE and m % 2 == 0 and m // 2 >= 2 * band + 1


@lru_cache(maxsize=16)  # the few (band, grid) pairs of a run recur at every call
def _phases(band: int, m: int) -> np.ndarray:
    """(2, m/2), read-only: row 0 holds e^{2 pi i k/m} at k mod m/2 for |k| <= band
    and 0 elsewhere, the phase of mode k at the odd points x_{2j+1} of m
    relative to the even points x_{2j}; row 1 holds its conjugate."""
    k = np.arange(-band, band + 1)
    w = np.zeros((2, m // 2), dtype=np.complex128)
    w[0, k % (m // 2)] = np.exp(2j * np.pi / m * k)
    w[1] = np.conj(w[0])
    w.setflags(write=False)
    return w


def _odd_halves(buf: np.ndarray, band: int, m: int) -> None:
    """Fill the odd half grids buf[..., 1, :] of (..., 2, m/2) buffers whose even
    half grids buf[..., 0, :] hold the modes |k| <= band at k mod m/2 and zeros:
    the modes times e^{2 pi i k/m}, and zeros."""
    np.multiply(buf[..., 0, :], _phases(band, m)[0], out=buf[..., 1, :])


def _join_halves(hat: np.ndarray, band: int, m: int) -> None:
    """Turn the spectra of the even and odd half grids, hat[..., 0, :] and
    hat[..., 1, :] of (..., 2, m/2) arrays, into the m-point grid's modes
    |k| <= band at k mod m/2 of hat[..., 0, :]: (h0 + h1 * e^{-2 pi i k/m}) * 0.5,
    in that order of operations (the 1/2 is exact).  Overwrites hat[..., 1, :]
    and leaves the other entries of hat[..., 0, :] meaningless."""
    even, odd = hat[..., 0, :], hat[..., 1, :]
    np.multiply(odd, _phases(band, m)[1], out=odd)
    np.add(even, odd, out=even)
    np.multiply(even, 0.5, out=even)


class DealiasBudgetError(ValueError):
    """Raised when an alias-free product would exceed the padded-grid budget."""


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m <<= 1
    return m


@lru_cache(maxsize=256)  # every coefficient map sizes its grid, and the same few sizes recur
def _next_smooth(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n."""
    best = _next_pow2(n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m <<= 1
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def padded_size(cutoff: int, bandwidth: int, out_cutoff: int) -> int:
    """FFT grid size for reading modes |k| <= out_cutoff of a pointwise product.

    The grid holds the inputs (band-limited to |k| <= cutoff, which needs
    M >= 2*cutoff + 1 samples) and keeps the product, of bandwidth
    `bandwidth`, alias-free: sampling on M points folds mode m onto m +- M,
    so modes |k| <= out_cutoff come out exact once M > bandwidth + out_cutoff
    (Boyd, Chebyshev and Fourier Spectral Methods, section 11).  The required
    N = max(bandwidth + out_cutoff, 2*cutoff) + 2 is rounded up to the next
    power of two when N <= 64 and to the smallest 5-smooth length
    2^a 3^b 5^c above that, which transforms at about the same cost per
    point with up to half the points (8194 -> 8640 instead of 16384).
    """
    n = max(bandwidth + out_cutoff, 2 * cutoff) + 2
    m = _next_pow2(n) if n <= _SMOOTH_ABOVE else _next_smooth(n)
    if m > MAX_GRID_POINTS:
        raise DealiasBudgetError(
            f"alias-free grid needs {m} points (cutoff={cutoff}, bandwidth={bandwidth}, "
            f"out_cutoff={out_cutoff}), budget is {MAX_GRID_POINTS}"
        )
    return m


@dataclass(frozen=True)
class SpectralField:
    """Band-limited periodic function, coefficients over k = -K..K.

    ``coeffs[i]`` holds the Fourier coefficient of mode ``k = i - cutoff``.
    Instances are immutable value objects; all operations return new fields.
    """

    coeffs: np.ndarray
    cutoff: int

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        if arr.shape != (2 * self.cutoff + 1,):
            raise ValueError(
                f"expected {2 * self.cutoff + 1} coefficients for cutoff "
                f"{self.cutoff}, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, cutoff: int) -> "SpectralField":
        return cls(np.zeros(2 * cutoff + 1, dtype=np.complex128), cutoff)

    @classmethod
    def from_modes(cls, modes: Mapping[int, complex], cutoff: int) -> "SpectralField":
        """Field with prescribed coefficients, e.g. {1: 1.0} for e^{ix}."""
        c = np.zeros(2 * cutoff + 1, dtype=np.complex128)
        for k, a in modes.items():
            if abs(k) > cutoff:
                raise ValueError(f"mode {k} outside cutoff {cutoff}")
            c[k + cutoff] = a
        return cls(c, cutoff)

    @classmethod
    def constant(cls, value: complex, cutoff: int = 0) -> "SpectralField":
        return cls.from_modes({0: value}, cutoff)

    @classmethod
    def from_samples(cls, samples: np.ndarray, cutoff: int) -> "SpectralField":
        """Recover coefficients from uniform physical samples.

        Exact for fields band-limited to the cutoff when the sample count is
        at least 2*cutoff + 1.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        m = samples.shape[0]
        if m < 2 * cutoff + 1:
            raise ValueError(f"{m} samples cannot resolve cutoff {cutoff}")
        return cls(_coefficients(samples, cutoff), cutoff)

    # -- basic accessors ----------------------------------------------------

    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.cutoff])

    def to_samples(self, npoints: int | None = None) -> np.ndarray:
        """Values on `npoints` uniform points x_j = 2*pi*j/M."""
        k = self.cutoff
        m = npoints if npoints is not None else padded_size(k, k, k)
        if m < 2 * self.cutoff + 1:
            raise ValueError("sample grid too coarse for this cutoff")
        return _samples(self.coeffs, m)

    def with_cutoff(self, cutoff: int) -> "SpectralField":
        """Embed (zero pad) or truncate to a new cutoff."""
        if cutoff == self.cutoff:
            return self
        c = np.zeros(2 * cutoff + 1, dtype=np.complex128)
        lo = min(cutoff, self.cutoff)
        c[cutoff - lo : cutoff + lo + 1] = self.coeffs[
            self.cutoff - lo : self.cutoff + lo + 1
        ]
        return SpectralField(c, cutoff)

    # -- arithmetic (value semantics) ---------------------------------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        k = max(self.cutoff, other.cutoff)
        return SpectralField(
            self.with_cutoff(k).coeffs + other.with_cutoff(k).coeffs, k
        )

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        k = max(self.cutoff, other.cutoff)
        return SpectralField(
            self.with_cutoff(k).coeffs - other.with_cutoff(k).coeffs, k
        )

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.coeffs * scalar, self.cutoff)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(-self.coeffs, self.cutoff)

    def is_zero(self) -> bool:
        return bool(np.max(np.abs(self.coeffs)) <= 0.0)


# -- Fourier multipliers -----------------------------------------------------


def bracket_power(f: SpectralField, s: float) -> SpectralField:
    """<D>^s f: multiply mode k by (1+k^2)^{s/2}.  Any real s."""
    return SpectralField(_bracket(f.coeffs, s), f.cutoff)


def sobolev_norm(f: SpectralField, s: float = 0.0) -> float:
    """H^s norm (sum <k>^{2s} |c(k)|^2)^{1/2}; s=0 is the L2 norm."""
    return float(_norms(f.coeffs, s))


def derivative(f: SpectralField) -> SpectralField:
    """d/dx: multiply mode k by ik."""
    return SpectralField(_dx(f.coeffs), f.cutoff)


def antiderivative(f: SpectralField) -> SpectralField:
    """Mean-free antiderivative: c(k)/(ik) for k != 0, zero mean.

    Satisfies d/dx (antiderivative f) = P_nonmean f.
    """
    return SpectralField(_dxinv(f.coeffs), f.cutoff)


def conjugate(f: SpectralField) -> SpectralField:
    """Complex conjugate of the function: c(k) -> conj(c(-k))."""
    return SpectralField(np.conj(f.coeffs[::-1]), f.cutoff)


def imag_part(f: SpectralField) -> SpectralField:
    return SpectralField(_imag(f.coeffs), f.cutoff)


def translate(f: SpectralField, a: float) -> SpectralField:
    """f(x - a): phase modulation e^{-ika} per mode.  Preserves all |c(k)|."""
    return SpectralField(f.coeffs * np.exp(-1j * f.wavenumbers() * a), f.cutoff)


def truncate_modes(f: SpectralField, mu: int) -> SpectralField:
    """Sharp Fourier truncation: zero all modes with |k| > mu (cutoff kept)."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    k = f.wavenumbers()
    return SpectralField(np.where(np.abs(k) <= mu, f.coeffs, 0.0), f.cutoff)


# -- products ----------------------------------------------------------------


def pointwise_product(
    f: SpectralField, g: SpectralField, out_cutoff: int | None = None
) -> SpectralField:
    """Coefficients of f*g, alias-free via a zero-padded FFT grid.

    The default output cutoff is max of the input cutoffs (band-limited
    truncation); pass ``out_cutoff`` up to ``f.cutoff + g.cutoff`` for the
    full product.
    """
    kout = max(f.cutoff, g.cutoff) if out_cutoff is None else out_cutoff
    coeffs = _products([f.coeffs], [g.coeffs], [0], kout)[0]
    return SpectralField(coeffs, len(coeffs) // 2)


# -- rows of coefficients ------------------------------------------------------
#
# Arrays (..., 2K+1) of coefficient rows, K read off the last axis.  A row
# reduction keeps the one-row bits only on C-contiguous rows.


def _modes(c: np.ndarray) -> np.ndarray:
    """The wavenumbers -K..K of the rows of c."""
    k = c.shape[-1] // 2
    return np.arange(-k, k + 1)


def _weight(cutoff: int, p: float) -> np.ndarray:
    """(1 + k^2)^p at the wavenumbers -cutoff..cutoff: the H^s weights <k>^{2p}."""
    k = np.arange(-cutoff, cutoff + 1).astype(float)
    return (1.0 + k * k) ** p


def _bracket(c: np.ndarray, s: float) -> np.ndarray:
    """<D>^s of each row."""
    return c * _weight(c.shape[-1] // 2, s / 2.0)


def _dx(c: np.ndarray) -> np.ndarray:
    """d/dx of each row."""
    return c * (1j * _modes(c))


def _dxinv(c: np.ndarray) -> np.ndarray:
    """The mean-free antiderivative of each row: c(k)/(ik) off k = 0."""
    k = _modes(c)
    return np.divide(c, 1j * k, out=np.zeros_like(c), where=k != 0)


def _imag(c: np.ndarray) -> np.ndarray:
    """The imaginary part of each row's function: c(k) - conj(c(-k)), times -i/2."""
    return (c - np.conj(c[..., ::-1])) * -0.5j


def _norms(c: np.ndarray, s: float) -> np.ndarray:
    """The H^s norm of each row."""
    return np.sqrt(np.sum(_weight(c.shape[-1] // 2, s) * np.abs(c) ** 2, axis=-1))


def _samples(c: np.ndarray, m: int) -> np.ndarray:
    """(..., m): the values of each row of c on m >= 2K+1 uniform points.

    One inverse transform of the modes placed at k mod m, or, when
    `_halves(m, K)`, one per row of a (2, m/2) buffer: the even points take
    the modes at k mod m/2 and the odd points the modes times e^{2 pi i k/m}
    (`_odd_halves`), and the transform writes the two halves into the
    natural order of the row's samples.  Row by row, the buffer stays small:
    a second array the size of the block cost more in page faults than the
    half grids save (16 rows of K = 2048 onto 8640 points: 3.5-4.2 ms with
    1116 faults a call against 1.9-2.0 ms with none, 2-vCPU Xeon).
    """
    k = c.shape[-1] // 2
    if not _halves(m, k):
        buf = np.zeros((*c.shape[:-1], m), dtype=np.complex128)
        buf[..., : k + 1] = c[..., k:]
        buf[..., m - k :] = c[..., :k]
        return _ifft(buf, buf)
    h = m // 2
    out = np.empty((*c.shape[:-1], m), dtype=np.complex128)
    buf = np.zeros((2, h), dtype=np.complex128)
    for row, values in zip(c.reshape(-1, 2 * k + 1), out.reshape(-1, m)):
        buf[0, : k + 1] = row[k:]
        buf[0, h - k :] = row[:k]
        _odd_halves(buf, k, m)
        _ifft(buf, values.reshape(h, 2).T)
    return out


def _coefficients(values: np.ndarray, cutoff: int) -> np.ndarray:
    """(..., 2*cutoff+1): the modes |k| <= cutoff of each row of m >= 2*cutoff+1
    samples, in fresh arrays (values is left as it is).

    One forward transform of the m samples, or, when `_halves(m, cutoff)`,
    one of the even and odd samples as (..., 2, m/2), whose spectra
    `_join_halves` combines into the modes.
    """
    m = values.shape[-1]
    if _halves(m, cutoff):
        halves = values.reshape(*values.shape[:-1], m // 2, 2).swapaxes(-1, -2)
        hat = _fft(halves, np.empty(halves.shape, dtype=np.complex128))
        _join_halves(hat, cutoff, m)
        hat, m = hat[..., 0, :], m // 2
    else:
        hat = _fft(values, np.empty_like(values))
    return np.concatenate((hat[..., m - cutoff :], hat[..., : cutoff + 1]), axis=-1)


def _products(f_ops, g_ops, f_of, kout: int | None = None) -> np.ndarray:
    """(len(g_ops), ..., 2*kout+1): the products f_ops[f_of[j]] * g_ops[j] at
    |k| <= kout (default and cap: the full bandwidth Kf + Kg).

    The f operands share cutoff Kf and the g operands Kg, so every product
    has one alias-free grid: one inverse transform samples the f operands,
    one the g operands, and one forward transform returns every product.
    """
    kf, kg = f_ops[0].shape[-1] // 2, g_ops[0].shape[-1] // 2
    full = kf + kg
    kout = full if kout is None else min(kout, full)
    m = padded_size(max(kf, kg), full, kout)
    f_vals, prod = _samples(np.stack(f_ops), m), _samples(np.stack(g_ops), m)
    for j, i in enumerate(f_of):
        np.multiply(f_vals[i], prod[j], out=prod[j])
    return _coefficients(prod, kout)


# The most rows x padded-grid points one block evaluates.  A block's arrays
# take about 160 bytes per such point at once: the 8 pairs of a cutoff-256
# ensemble took 1.4 MB as one block and take 0.6 MB as three, for about 1 ms
# more of the 16 ms of `run_estimates` on a 2-core Xeon.
_BLOCK_POINTS = 4096


def _block_size(count: int, m: int) -> int:
    """Rows per block for count rows on m-point grids: as few blocks as keep
    rows x m within _BLOCK_POINTS on average, the last one maybe short."""
    return -(-count // min(count, -(-count * m // _BLOCK_POINTS)))


# -- random fields -----------------------------------------------------------


def random_field(
    cutoff: int,
    decay: float,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    side: str | None = None,
) -> SpectralField:
    """Random trigonometric polynomial with coefficient decay <k>^{-decay}.

    Coefficients are complex Gaussian; ``side`` restricts support to 'plus'
    or 'minus' modes.
    """
    coeffs = _random_coefficients(1, cutoff, decay, rng, amplitude, side)
    return SpectralField(coeffs[0], cutoff)


def _random_coefficients(
    count: int, cutoff: int, decay: float, rng: np.random.Generator, amplitude: float = 1.0,
    side: str | None = None,
) -> np.ndarray:
    """(count, 2*cutoff+1) coefficients, row i those of the i-th of `count`
    successive `random_field` calls with these arguments on `rng`."""
    w = _weight(cutoff, -decay / 2.0)
    g = rng.standard_normal((count, 2, 2 * cutoff + 1))  # real, then imaginary parts
    c = amplitude * w * (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    if side is not None:
        c[:, ~_side(np.arange(-cutoff, cutoff + 1), side)] = 0.0
    return c


def _side(k: np.ndarray, side: str) -> np.ndarray:
    """Which wavenumbers k lie on `side`: k > 0 for 'plus', k < 0 for 'minus'."""
    if side not in ("plus", "minus"):
        raise ValueError(f"unknown side {side!r}")
    return k > 0 if side == "plus" else k < 0
