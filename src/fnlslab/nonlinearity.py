"""Polynomial nonlinearities F(zeta, omega, zeta_bar, omega_bar) and their algebra.

A nonlinearity is a finitely supported sum

    F = sum C[a,b,c,d] * zeta^a * omega^b * zeta_bar^c * omega_bar^d,

evaluated along a field u with the slots (u, u_x, conj u, conj u_x).  Wirtinger
derivatives treat the four slots as independent variables, so F_omega lowers
the omega exponent and multiplies by it.

The well-posedness criterion functional is

    G(psi) = int_T Im F_omega(psi, psi_x, conj psi, conj psi_x) dx,

the mean (zeroth Fourier coefficient) of the imaginary part of F_omega along
psi.  The flow admits solutions exactly when G vanishes identically.  The
checker decides this exactly: H = Im F_omega is a polynomial in the jet of u,
and G == 0 exactly when H has no constant term and its Euler operator
E_u H = dH/du - D_x dH/du_x vanishes identically, because the kernel of the
Euler operator is the total derivatives (Olver, *Applications of Lie Groups
to Differential Equations*, Thm 4.7).  The constant term must be exactly 0,
and each Euler coefficient within the rounding of the coefficients it is
formed from.  Only a violated verdict samples G, on structured and random
trigonometric polynomials, to report a readable witness.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cache
from itertools import groupby
from typing import Mapping

import numpy as np

from .spectral import (
    _SPLIT_ABOVE,
    SpectralField,
    _dx,
    _fft,
    _halves,
    _ifft,
    _join_halves,
    _odd_halves,
    _random_coefficients,
    _samples,
    padded_size,
)

__all__ = [
    "PolynomialNonlinearity",
    "CriterionVerdict",
    "criterion_functional",
    "check_wellposedness_condition",
    "structured_witnesses",
    "cubic",
    "example_b",
    "example_c",
    "example_d",
    "linear_transport",
    "parse_nonlinearity",
    "format_nonlinearity",
]

VARIABLES = ("zeta", "omega", "zeta_bar", "omega_bar")

Index = tuple[int, int, int, int]


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """Finitely supported map (a,b,c,d) -> coefficient, zero entries dropped."""

    terms: tuple[tuple[Index, complex], ...]

    @classmethod
    def from_terms(cls, mapping: Mapping[Index, complex]) -> "PolynomialNonlinearity":
        items = []
        for idx, coeff in mapping.items():
            idx = tuple(int(e) for e in idx)
            if len(idx) != 4 or any(e < 0 for e in idx):
                raise ValueError(f"bad multi-index {idx}")
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise ValueError(f"coefficient of {idx} is not finite: {coeff}")
            if coeff != 0:
                items.append((idx, coeff))
        items.sort(key=lambda t: t[0])
        return cls(tuple(items))

    @classmethod
    def zero(cls) -> "PolynomialNonlinearity":
        return cls(())

    def as_dict(self) -> dict[Index, complex]:
        return {idx: c for idx, c in self.terms}

    @property
    def total_degree(self) -> int:
        """Max a+b+c+d over the support; drives dealias padding."""
        if not self.terms:
            return 0
        return max(sum(idx) for idx, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolynomialNonlinearity") -> "PolynomialNonlinearity":
        d = self.as_dict()
        for idx, c in other.terms:
            d[idx] = d.get(idx, 0.0) + c
        return PolynomialNonlinearity.from_terms(d)

    def __mul__(self, scalar: complex) -> "PolynomialNonlinearity":
        return PolynomialNonlinearity.from_terms(
            {idx: scalar * c for idx, c in self.terms}
        )

    __rmul__ = __mul__

    def conjugate_coefficients(self) -> "PolynomialNonlinearity":
        """Coefficient-wise conjugation C -> conj(C).

        Together with conjugating the initial data this mirrors the flow:
        the criterion functional flips sign, so a one-sided growth mechanism
        switches between the negative and positive frequency halves.
        """
        return PolynomialNonlinearity.from_terms(
            {idx: np.conj(c) for idx, c in self.terms}
        )

    def wirtinger(self, var: str) -> "PolynomialNonlinearity":
        """Formal partial derivative in one of the four independent slots."""
        if var not in VARIABLES:
            raise ValueError(f"var must be one of {VARIABLES}")
        pos = VARIABLES.index(var)
        terms = []  # lowering one exponent keeps the terms sorted and distinct
        for idx, c in self.terms:
            e = idx[pos]
            if e == 0:
                continue
            key = idx[:pos] + (e - 1,) + idx[pos + 1 :]
            coeff = 0.0 + c * e  # nonzero; the 0.0 + clears a -0.0 real part
            if not cmath.isfinite(coeff):
                raise ValueError(f"coefficient of {key} is not finite: {coeff}")
            terms.append((key, coeff))
        return PolynomialNonlinearity(tuple(terms))

    # -- evaluation ----------------------------------------------------------

    def evaluate_values(self, u_vals, du_vals) -> np.ndarray:
        """Pointwise values of F on given sample arrays of u and u_x.

        The one-shot call of `values_plan`: it builds the plan on the given
        arrays and an output array, runs it once and returns the output, so
        there is one evaluator of F on a grid.
        """
        out = np.empty(np.shape(u_vals), dtype=np.complex128)
        self.values_plan(u_vals, du_vals, out)()
        return out

    def values_plan(self, u_vals, du_vals, out: np.ndarray):
        """The evaluation of F on the samples u_vals, du_vals into out, compiled once.

        The returned function reads the current contents of u_vals and
        du_vals and writes F's values into out.  It runs a fixed list of
        `np.conjugate`/`np.square`/`np.power`/`np.multiply`/`np.add` calls
        whose outputs are out and arrays built here, so a call allocates
        nothing.  Each power of a slot is computed once and shared by every
        term that uses it, a slot is conjugated only if some term uses it,
        and the terms accumulate in place into the first one, written in
        out.  A term is the product ``coeff * p1 * p2 * ...`` of its
        coefficient, the left operand, and its nonzero slot powers
        ``p = x ** e`` in slot order, and e == 2 is `np.square` (what
        ``x ** 2`` calls), so every value is bitwise that of the expression.
        The arrays may be views, and a coefficient may be an array that
        broadcasts against out, such as one value per sample (see `_stacked`),
        with the bits of each scalar on its samples.  Not for concurrent use.
        """
        bases = [u_vals, du_vals, None, None]
        powers: dict[tuple[int, int], np.ndarray] = {}
        calls: list = []  # (function, arguments), in order
        term = out
        for idx, coeff in self.terms:
            left = coeff  # the term's product so far
            for slot, e in enumerate(idx):
                if not e:
                    continue
                p = powers.get((slot, e))
                if p is None:
                    base = bases[slot]
                    if base is None:
                        base = bases[slot] = np.empty(bases[slot - 2].shape, np.complex128)
                        calls.append((np.conjugate, (bases[slot - 2], base)))
                    if e == 1:
                        p = base
                    else:
                        p = np.empty(base.shape, np.complex128)
                        calls.append((np.square, (base, p)) if e == 2 else (np.power, (base, e, p)))
                    powers[slot, e] = p
                calls.append((np.multiply, (left, p, term)))
                left = term
            if left is coeff:  # the constant term
                calls.append((np.copyto, (term, coeff)))
            if term is not out:
                calls.append((np.add, (out, term, out)))
            elif len(self.terms) > 1:
                term = np.empty(out.shape, np.complex128)  # the later terms' scratch
        if not calls:
            calls.append((np.copyto, (out, 0)))

        def run() -> None:
            for fn, args in calls:
                fn(*args)

        return run

    def coefficient_map(self, cutoff: int, out_cutoff: int | None = None):
        """Map from the coefficients of u (|k| <= cutoff) to those of F along u.

        The returned function takes the 2*cutoff+1 coefficients of u and
        returns the 2*kout+1 coefficients of F(u, u_x, conj u, conj u_x),
        alias-free, where kout is ``out_cutoff`` capped at the full product
        bandwidth total_degree * cutoff (the default).  This is the one-row
        call of `_rows_coefficient_map`, a plan built once per map, so a call
        allocates only the returned coefficients, a fresh copy.  Repeated
        calls (one per Runge-Kutta stage) reuse the plan, so a map is not for
        concurrent use.
        """
        band = max(self.total_degree, 1) * cutoff
        kout = band if out_cutoff is None else min(out_cutoff, band)
        plan = _rows_coefficient_map([self], [cutoff], cutoff, kout)
        return lambda coeffs: plan(coeffs[None])[0]

    def evaluate(
        self, u: SpectralField, out_cutoff: int | None = None
    ) -> SpectralField:
        """F(u, u_x, conj u, conj u_x) as an alias-free field.

        Default output keeps the full product bandwidth total_degree * K;
        pass ``out_cutoff`` (e.g. K) to truncate.
        """
        coeffs = self.coefficient_map(u.cutoff, out_cutoff)(u.coeffs)
        return SpectralField(coeffs, len(coeffs) // 2)


# `spectral._SPLIT_ABOVE` (4320 samples) also bounds a stage of
# `_rows_coefficient_map`, whose groups share one evaluation of F across
# grids: on the growth probe's block of example_c or example_d, an RHS
# evaluation took 8-12% less at K = 32 (810 samples a slot) and 3-7% less at
# K = 128 (3240), but one stage took 3-7% more than one per group at K = 512
# (12960) (15 in-process rounds, 2-vCPU VM).  Every group transforms its u and
# u_x rows in one call.  On half grids two calls cost the same (one-row RHS at
# K = 2048: median 342-392 us batched, 353-367 us in two calls); on one grid
# above 4320 points the outcome hangs on the allocator: a degree-1 row on 8100
# points read 354-356 against 411-447 us, a degree-2 row on 6250 points
# 377-378 against 307-339 us, with 66 page faults a call from pocketfft's
# scratch buffer (medians of 9 interleaved in-process rounds, 2-vCPU Xeon).


def _grid(P: PolynomialNonlinearity, k: int, kout: int):
    """(k, kout, m) for a row under P at cutoff k and output cutoff kout, m its
    padded grid, or None for the zero polynomial, which needs no grid."""
    return None if P.is_zero() else (k, kout, padded_size(k, max(P.total_degree, 1) * k, kout))


def _rows_coefficient_map(
    polys: list[PolynomialNonlinearity], cutoffs: list[int], n: int, kout: int | None = None
):
    """`coefficient_map(k, kout)` for a block of rows, row j under polys[j] at
    k = cutoffs[j] and kout the given one (default: k).

    The returned function takes a (B, 2*n+1) array of coefficients, each
    row's 2k+1 modes centred, and returns the (B, 2*nout+1) coefficients of
    each row's polynomial along that row (nout = kout, default n), each row's
    2*kout+1 modes centred and the other columns zero; given ``out``, a
    C-contiguous array of that shape, it writes them there and returns it.
    Rows go in and come out in the caller's order.  A row's grid is `_grid`'s:
    padded_size(k, max(deg, 1) * k, kout).  The plan lays out the rows by
    degree, k, monomials and the first position of the polynomial (two
    degrees on one grid, as 2 and 3 on 8 points at K = 1, form a group each).
    Adjacent rows of one grid form a group that shares the transforms: one
    inverse transform of a (2, b, m) buffer of the u rows, then the u_x rows,
    and one forward transform of (b, m).  Where `spectral._halves` allows
    (at k for the inverse, at kout for the forward), a transform runs on the
    grid's two interleaved half grids by `spectral`'s rule, the bits of
    `_samples` and `_coefficients`: the buffer is (2, b, 2, m/2), whose odd
    halves `_odd_halves` fills from the even ones, and the inverse writes the
    samples in their natural order; the forward transform reads the even and
    odd samples as (b, 2, m/2), and `_join_halves` turns the two spectra into
    the modes in place.  Adjacent groups
    form a stage while it holds at most _SPLIT_ABOVE samples a slot (a
    larger group is a stage alone).  A stage keeps its samples in one (2, S)
    array, every group's u rows and then every group's u_x rows, and F's
    values in one array of S, so a run of the stage's nonzero rows with the
    same monomials spans one flat stretch of both, across grids, and shares
    one evaluation of F: one `values_plan` of the polynomial `_stacked` makes
    of the run's rows, a coefficient that differs between them taking one
    value per sample (it stays the left operand of each product, so every
    row is bitwise its own call).  Past _SPLIT_ABOVE samples a call's
    arithmetic outweighs its overhead, and per-sample coefficients cost more
    than they save.  The plan is built once: the group buffers are views
    into one flat array whose entries off the modes stay zero, the forward
    transforms write into views of one flat spectrum array that ends in a
    zero, and flat index arrays place every mode.  A call runs each stage's
    inverse transforms, evaluations and forward transforms in turn.  The
    transforms, `spectral`'s `_ifft` and `_fft`, write into those views.  So
    a call moves the modes in with one `take` and two indexed writes and out
    with one `take`, and allocates only the returned coefficients, or nothing
    with ``out``; half grids add one in-place multiplication on the way in
    and three on the way out.  Not for concurrent use.
    """
    nout = n if kout is None else kout
    grids = [_grid(P, k, k if kout is None else kout) for P, k in zip(polys, cutoffs)]

    def layout(j):
        P = polys[j]
        return P.total_degree, cutoffs[j], [idx for idx, _ in P.terms], polys.index(P)

    width, stages = 2 * n + 1, []  # stages: adjacent groups, at most _SPLIT_ABOVE samples a slot
    # The input, u and u_x entries and the multiplier i*k of each group's modes.
    ins = [(np.zeros(0, np.intp),) * 3 + (np.zeros(0, np.complex128),)]
    # Output entry -> its forward-transform entry, or -1: the zero after them all.
    gather = np.full((len(polys), 2 * nout + 1), -1)
    size = span = 0  # entries of the buffers, and samples of one slot, so far
    for key, rows in groupby(sorted(range(len(polys)), key=layout), key=grids.__getitem__):
        if key is None:
            continue
        rows = list(rows)
        (k, ko, m), b, at = key, len(rows), np.array(rows)
        ks = np.arange(-k, k + 1)
        cells = np.arange(size, size + 2 * b * m, m)[:, None] + ks  # u rows, then u_x rows
        cells[:, :k] += m // 2 if _halves(m, k) else m  # mode k < 0 sits at k + m, or k + m/2
        src = (at[:, None] * width + (n + ks)).ravel()
        ik = np.concatenate([1j * ks.astype(float)] * b)
        ins.append((src, cells[:b].ravel(), cells[b:].ravel(), ik))
        h_cells = np.arange(span, span + b * m, m)[:, None] + np.arange(-ko, ko + 1)
        h_cells[:, :ko] += m // 2 if _halves(m, ko) else m
        gather[at, nout - ko : nout + ko + 1] = h_cells
        if stages and span + b * m - stages[-1][0][1] <= _SPLIT_ABOVE:
            stages[-1].append((size, span, m, k, ko, rows))
        else:
            stages.append([(size, span, m, k, ko, rows)])
        size, span = size + 2 * b * m, span + b * m
    src, u_at, du_at, ik = (np.concatenate(a) for a in zip(*ins))
    modes, dmodes = (np.empty(len(src), dtype=np.complex128) for _ in range(2))
    flat = np.zeros(size, dtype=np.complex128)
    hflat = np.zeros(span + 1, dtype=np.complex128)
    odd_in, plan = [], []  # odd_in: the (buffer, k, m) of each inverse transform on half grids
    for stage in stages:
        live = [(j, m) for _, _, m, _, _, rows in stage for j in rows]  # each row and its grid size
        samples = np.empty((2, sum(m for _, m in live)), dtype=np.complex128)  # u, then u_x
        values = np.empty(samples.shape[1], dtype=np.complex128)
        inverses, forwards, joins, at = [], [], [], 0
        for i, p, m, k, ko, rows in stage:
            b, end = len(rows), at + len(rows) * m
            buf, vals = flat[i : i + 2 * b * m].reshape(2, b, m), samples[:, at:end].reshape(2, b, m)
            if _halves(m, k):
                buf, vals = buf.reshape(2, b, 2, m // 2), vals.reshape(2, b, m // 2, 2).swapaxes(-1, -2)
                odd_in.append((buf, k, m))
            inverses.append((buf, vals))
            f, h = values[at:end].reshape(b, m), hflat[p : p + b * m].reshape(b, m)
            if _halves(m, ko):
                f, h = f.reshape(b, m // 2, 2).swapaxes(-1, -2), h.reshape(b, 2, m // 2)
                joins.append((h, ko, m))
            forwards.append((f, h))
            at = end
        evaluations, at = [], 0
        for _, run in groupby(live, key=lambda r: [idx for idx, _ in polys[r[0]].terms]):
            js, ms = zip(*run)
            u, du, f = (a[at : at + sum(ms)] for a in (samples[0], samples[1], values))
            evaluations.append(_stacked([polys[j] for j in js], ms).values_plan(u, du, f))
            at += sum(ms)
        plan.append((inverses, evaluations, forwards, joins))

    def apply(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        coeffs.take(src, out=modes, mode="clip")  # indices in range: "clip" spares a buffer
        flat[u_at] = modes
        flat[du_at] = np.multiply(modes, ik, out=dmodes)
        for buf, k, m in odd_in:
            _odd_halves(buf, k, m)
        for inverses, evaluations, forwards, joins in plan:
            for buf, vals in inverses:
                _ifft(buf, vals)
            for evaluate in evaluations:
                evaluate()
            for f, h in forwards:
                _fft(f, h)
            for h, ko, m in joins:
                _join_halves(h, ko, m)
        # "wrap" reads -1 as the last entry, and with out= spares a buffer.
        return hflat.take(gather, out=out, mode="wrap")

    return apply


def _stacked(polys: list[PolynomialNonlinearity], sizes) -> PolynomialNonlinearity:
    """One polynomial for a run of rows whose polynomials have the same monomials,
    row i on the next sizes[i] samples of one flat stretch.

    Unless the rows share one polynomial, each coefficient becomes an array
    of one value per sample, polys[i]'s over the sizes[i] samples of row i,
    so that its `values_plan` on the stretch evaluates row i under polys[i].
    The result is only for that plan: its coefficients are not numbers.
    """
    first = polys[0]
    if all(P == first for P in polys):
        return first
    values = np.array([[c for _, c in P.terms] for P in polys])
    return PolynomialNonlinearity(
        tuple((idx, np.repeat(values[:, t], sizes)) for t, (idx, _) in enumerate(first.terms))
    )


def _jet_samples(coeffs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, u_x): the rows of coeffs and their derivatives sampled on m points,
    by one `spectral._samples` call on the u rows and then the u_x rows."""
    samples = _samples(np.concatenate([coeffs, _dx(coeffs)]), m)
    return samples[: len(coeffs)], samples[len(coeffs) :]


def _block_means(
    P: PolynomialNonlinearity, coeffs: np.ndarray, jet: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Means of P(u, u_x, conj u, conj u_x) over one period, one per row of coeffs.

    ``coeffs`` is (n, 2*cutoff+1), the cutoff read from its width.  Row for
    row this is the arithmetic of sampling u and derivative(u) with
    `SpectralField.to_samples` on the grid the product needs at mode 0
    (`_grid(P, cutoff, 0)`) and averaging P over it, so each mean is bitwise
    equal to the one-row call.  The samples are `_jet_samples` of coeffs on
    that grid, or ``jet`` if the caller keeps them (the witness search keeps
    the structured witnesses'); one `evaluate_values` call evaluates P.
    """
    if P.is_zero():
        return np.zeros(len(coeffs), dtype=np.complex128)
    u, du = _jet_samples(coeffs, _grid(P, coeffs.shape[1] // 2, 0)[2]) if jet is None else jet
    return np.mean(P.evaluate_values(u, du), axis=1)


def criterion_functional(F: PolynomialNonlinearity, psi: SpectralField) -> float:
    """G(psi): normalized-mean of Im F_omega along psi.  Always real."""
    return float(_block_means(F.wirtinger("omega"), psi.coeffs[None])[0].imag)


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of the criterion check G == 0.

    ``satisfied`` is exact up to rounding: H = Im F_omega has no constant
    term and each coefficient of its Euler operator is within the rounding of
    its own inputs (see `_euler_certificate`); ``residual`` is the largest of
    those coefficients and |H_const|.  A satisfied verdict samples nothing:
    ``witness`` None, ``witness_value`` 0.0, ``trials`` 0.  A violated one
    reports as ``witness`` the first sampled field with |G| above
    ``tolerance`` = 1e-9 * max|F_omega coefficient| (if none is, the first
    with the largest |G|), its G as ``witness_value`` and its position in the
    scan as ``trials``.
    """

    satisfied: bool
    witness: SpectralField | None
    witness_value: float
    trials: int
    tolerance: float
    residual: float = 0.0


def structured_witnesses() -> list[SpectralField]:
    """Human-readable candidate fields: constants, then single modes and two-mode
    combinations up to |k| = 2."""
    out: list[SpectralField] = []
    thetas = [j * np.pi / 8 for j in range(16)]
    for r in (0.5, 1.0, 2.0):
        for th in thetas:
            out.append(SpectralField.constant(r * np.exp(1j * th), cutoff=1))
    amps = [1.0, np.exp(1j * np.pi / 4), 1j, 2.0]
    for k in (1, 2):
        for a in amps:
            out.append(SpectralField.from_modes({k: a}, 2))
            out.append(SpectralField.from_modes({-k: a}, 2))
    for c0 in (1.0, 1j):
        for c1 in (1.0, 1j, 0.5):
            for k in (1, 2):
                out.append(SpectralField.from_modes({0: c0, k: c1}, 2))
    out.append(SpectralField.from_modes({1: 1.0, -1: 1.0}, 2))
    out.append(SpectralField.from_modes({1: 1.0, -1: -1.0}, 2))
    return out


def _structured_blocks() -> list[tuple[int, np.ndarray]]:
    """`structured_witnesses()` stacked into read-only blocks of one cutoff each."""
    out = []
    for cutoff, fields in groupby(structured_witnesses(), key=lambda f: f.cutoff):
        block = np.array([f.coeffs for f in fields])
        block.setflags(write=False)
        out.append((cutoff, block))
    return out


_STRUCTURED_BLOCKS = _structured_blocks()


@cache
def _structured_jet(block: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """`_jet_samples` of `_STRUCTURED_BLOCKS[block]` on m points, read-only.

    Built on the first verdict that scans that block on that grid and kept,
    one entry per (block, grid size): the grid grows with the degree of
    F_omega, so a process keeps one per degree it has checked.
    """
    jet = _jet_samples(_STRUCTURED_BLOCKS[block][1], m)
    for a in jet:
        a.setflags(write=False)
    return jet


# The rounding allowance of an Euler coefficient E = sum n * h (n an integer,
# h = -0.5j * (f1 - conj f2)) relative to B = sum |n| * (|f1| + |f2|) / 2.
# Each f carries k roundings of u = 2^-53 (its decimal, a sum, the Wirtinger
# product, the division by the scale), h one more, n * h one more and the sum
# one per contribution.  A well-posed pair cancels inside h, so its exact E
# is 0 and |E| <= (k + 1 + T) u B over T contributions: 128 u covers k + T < 128.
# Below the normal range a rounding is absolute, not relative: at most half
# the subnormal spacing 2^-1074.  Two of them in each f give h an error of at
# most 2^-1074 / scale, so B also sums |n| * 2^-1074 / (scale * _ROUNDING).
_ROUNDING = 64 * 2.0**-52


def _euler_certificate(fo: PolynomialNonlinearity, scale: float) -> tuple[float, bool]:
    """The residual max(|H_const|, max |E|) over the coefficients E of E_u H,
    H = Im(fo / scale), and whether G == 0: H_const == 0, each |E| <= _ROUNDING * B.

    H = (f - conj f) / 2i, where conjugation conjugates each coefficient and
    swaps (a,b,c,d) -> (c,d,a,b); the product with -0.5j is exact.  E_u H is
    a dict over 6-indices of (u, u_x, u_xx, conj u, conj u_x, conj u_xx).
    For real H, E_{conj u} H is the conjugate of E_u H.
    """
    f = {idx: c / scale for idx, c in fo.terms}
    slack = 2.0**-1074 / _ROUNDING / scale if scale else 0.0  # subnormal rounding, per |n|
    euler: dict[tuple[int, ...], tuple[complex, float]] = {}  # key -> (E, B)
    for a, b, c, d in sorted(f.keys() | {(c, d, a, b) for a, b, c, d in f}):
        f1, f2 = f.get((a, b, c, d), 0j), f.get((c, d, a, b), 0j)
        h, size = -0.5j * (f1 - f2.conjugate()), 0.5 * (abs(f1) + abs(f2)) + slack
        terms = [((a - 1, b, 0, c, d, 0), a)] if a else []  # d/du H
        if b:  # -D_x of d/du_x H: each slot s passes one power to slot s + 1
            jet = (a, b - 1, 0, c, d, 0)
            for s in (0, 1, 3, 4):
                if jet[s]:
                    key = jet[:s] + (jet[s] - 1, jet[s + 1] + 1) + jet[s + 2 :]
                    terms.append((key, -b * jet[s]))
        for key, n in terms:
            e, bound = euler.get(key, (0j, 0.0))
            euler[key] = (e + n * h, bound + abs(n) * size)
    h_const = f.get((0, 0, 0, 0), 0j).imag
    residual = max([abs(h_const), *(abs(e) for e, _ in euler.values())])
    rounding = all(abs(e) <= _ROUNDING * bound for e, bound in euler.values())
    return residual, h_const == 0 and rounding


_TRIALS, _CUTOFFS, _DECAY = 40, (2, 4, 8), 3.5  # the witness search's random fields


def check_wellposedness_condition(F: PolynomialNonlinearity, seed: int = 0) -> CriterionVerdict:
    """Decide whether G(psi) = 0 for all psi, exactly, by the Euler operator.

    F_omega is first divided by its largest |coefficient|, so F -> 2^e F
    gives bitwise the same verdict and a large omega-free term cannot hide a
    small violation; see `_euler_certificate`.  Only a violated verdict
    samples G, to find a readable witness: `_witness` at tol = 1e-9 *
    max|F_omega coefficient|, deterministic in seed.  See `CriterionVerdict`.
    """
    fo = F.wirtinger("omega")
    scale = max((abs(c) for _, c in fo.terms), default=0.0)
    tol, (residual, satisfied) = 1e-9 * scale, _euler_certificate(fo, scale)
    if satisfied:
        return CriterionVerdict(True, None, 0.0, 0, tol, residual)
    psi, g, n, _ = _witness(fo, _TRIALS, _CUTOFFS, tol, seed, _DECAY)
    return CriterionVerdict(False, psi, g, n, tol, residual)


def _witness(fo, trials, cutoffs, tol, seed, decay) -> tuple[SpectralField, float, int, bool]:
    """(psi, G(psi), its position in the scan, |G| > tol): the scan of G on
    structured + random fields for the first |G| above tol.

    ``fo`` is F_omega; G is the mean of Im fo along a field.  Structured
    witnesses run first so a failure is reported on a readable field; random
    trigonometric polynomials (coefficient decay <k>^{-decay}) are sampled
    at each cutoff.  Deterministic in (seed, trials, cutoffs).
    The witnesses are evaluated a block at a time (the structured ones of
    one cutoff, or the `trials` random ones of one cutoff, drawn as that many
    successive `random_field` calls would draw them) and scanned in order,
    so a block that holds the witness is evaluated whole, and the blocks
    after it not at all.  The structured blocks' samples on each grid are
    sampled once per process and kept (`_structured_jet`); the generator is
    built, and the random fields drawn, only when the scan reaches them.
    With no field above tol the pick is the first field of largest |G|.
    """
    scanned = []  # (cutoff, coefficients) of each block the scan reached

    def means():  # a generator: each block is built when the scan reaches it
        for j, (cut, block) in enumerate(_STRUCTURED_BLOCKS):
            scanned.append((cut, block))
            grid = _grid(fo, cut, 0)  # None for a zero fo, whose means take no samples
            yield _block_means(fo, block, grid and _structured_jet(j, grid[2])).imag
        rng = np.random.default_rng(seed)
        for cut in cutoffs:
            block = _random_coefficients(trials, cut, decay, rng)
            scanned.append((cut, block))
            yield _block_means(fo, block).imag

    j, i, g, above = _scan(means(), tol)
    cut, block = scanned[j]
    n = sum(len(b) for _, b in scanned[:j]) + i + 1
    return SpectralField(block[i], cut), g, n, above


def _scan(values, tol) -> tuple[int, int, float, bool]:
    """(j, i, g, above): row i of the j-th array of values, with value g, that
    a row-by-row scan of the arrays picks.

    That scan returns the first row with |g| > tol (above True); failing
    that, the first row if its |g| is NaN, else the first row of the largest
    |g| that is not NaN (above False).  Here each array is checked in a few
    numpy steps, and ``values``, an iterable, is read only up to the array
    that holds the first row above tol; without one, the pick is made once,
    on all the arrays joined.
    """
    read = []  # the arrays read, none of them with a row above tol
    for j, g in enumerate(values):
        over = np.abs(g) > tol
        if over.any():
            i = int(over.argmax())
            return j, i, float(g[i]), True
        read.append(g)
    g = np.concatenate(read)
    a = np.abs(g)
    n = 0 if np.isnan(a[0]) else int(np.nanargmax(a))
    j = int(np.searchsorted(np.cumsum([len(r) for r in read]), n, side="right"))
    return j, n - sum(len(r) for r in read[:j]), float(g[n]), False


# -- presets and text format ---------------------------------------------------


def cubic(c: complex = 1j) -> PolynomialNonlinearity:
    """c * |u|^2 u  (independent of u_x, criterion holds for every c)."""
    return PolynomialNonlinearity.from_terms({(2, 0, 1, 0): c})


def example_b(c: complex = 1.0, m: int = 1) -> PolynomialNonlinearity:
    """c * u^m u_x; criterion holds iff c == 0."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return PolynomialNonlinearity.from_terms({(m, 1, 0, 0): c})


def example_c(c: complex = 1.0) -> PolynomialNonlinearity:
    """c * d/dx(|u|^2 u) = 2c |u|^2 u_x + c u^2 conj u_x; criterion holds iff c real."""
    return PolynomialNonlinearity.from_terms({(1, 1, 1, 0): 2 * c, (2, 0, 0, 1): c})


def example_d(c1: complex = 1.0, c2: complex = 2.0) -> PolynomialNonlinearity:
    """c1 (u_x)^2 conj u + c2 |u_x|^2 u; criterion holds iff Re(2 c1 - c2) == 0."""
    return PolynomialNonlinearity.from_terms({(0, 2, 1, 0): c1, (1, 1, 0, 1): c2})


def linear_transport(c: complex = 1j) -> PolynomialNonlinearity:
    """c * u_x; the c = i case has the exact solution with one-sided mode growth."""
    return PolynomialNonlinearity.from_terms({(0, 1, 0, 0): c})


def parse_nonlinearity(text: str) -> PolynomialNonlinearity:
    """One term per line: ``a b c d re im`` (exponents, then the coefficient)."""
    terms: dict[Index, complex] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"line {ln}: expected 'a b c d re im', got {line!r}")
        a, b, c, d = (int(p) for p in parts[:4])
        coeff = float(parts[4]) + 1j * float(parts[5])
        key = (a, b, c, d)
        terms[key] = terms.get(key, 0.0) + coeff
    return PolynomialNonlinearity.from_terms(terms)


def format_nonlinearity(F: PolynomialNonlinearity) -> str:
    lines = [
        f"{a} {b} {c} {d} {coeff.real:.17g} {coeff.imag:.17g}"
        for (a, b, c, d), coeff in F.terms
    ]
    return "\n".join(lines) + ("\n" if lines else "")
