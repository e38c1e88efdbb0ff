"""Polynomial nonlinearities F(zeta, omega, zeta_bar, omega_bar) and their algebra.

A nonlinearity is a finitely supported sum

    F = sum C[a,b,c,d] * zeta^a * omega^b * zeta_bar^c * omega_bar^d,

evaluated along a field u with the slots (u, u_x, conj u, conj u_x).  Wirtinger
derivatives treat the four slots as independent variables, so F_omega lowers
the omega exponent and multiplies by it.

The well-posedness criterion functional is

    G(psi) = int_T Im F_omega(psi, psi_x, conj psi, conj psi_x) dx,

the mean (zeroth Fourier coefficient) of the imaginary part of F_omega along
psi.  The flow admits solutions exactly when G vanishes identically; the
randomized checker falsifies "G == 0 for all psi" by sampling structured and
random trigonometric polynomials (G is a polynomial functional of finitely
many Fourier coefficients at each cutoff, so a nonzero functional is detected
almost surely).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Iterable, Mapping

import numpy as np

from .spectral import SpectralField, _random_coefficients, padded_size

__all__ = [
    "PolynomialNonlinearity",
    "CriterionVerdict",
    "theta_omega_mean",
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
        out: dict[Index, complex] = {}
        for idx, c in self.terms:
            e = idx[pos]
            if e == 0:
                continue
            new = list(idx)
            new[pos] = e - 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + c * e
        return PolynomialNonlinearity.from_terms(out)

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
        broadcasts against out (see `_stacked`).  Not for concurrent use.
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
        bandwidth total_degree * cutoff (the default); given ``out``, an array
        of that length, it writes them there and returns it.  The padded grid
        and its buffer, the scatter/gather indices, the derivative multiplier,
        the arrays the transforms write (the u and u_x samples and F's
        spectrum, passed as ``out=``) and F's evaluation (`values_plan`, with
        its powers, conjugates and term scratch) are built once per map, so
        a call allocates only the returned coefficients, a fresh copy, or
        nothing with ``out``.  Repeated calls (one per Runge-Kutta stage)
        reuse the plan, so a map is not for concurrent use.
        """
        band = max(self.total_degree, 1) * cutoff
        kout = band if out_cutoff is None else min(out_cutoff, band)
        if self.is_zero():
            def zero(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
                if out is None:
                    return np.zeros(2 * kout + 1, dtype=np.complex128)
                out.fill(0)
                return out

            return zero
        m = padded_size(cutoff, band, kout)
        ks = np.arange(-cutoff, cutoff + 1)
        scatter = np.mod(ks, m)
        gather = np.mod(np.arange(-kout, kout + 1), m)
        ik = 1j * ks.astype(float)
        dmodes = np.empty(2 * cutoff + 1, dtype=np.complex128)
        # Only the scatter entries are ever written, so the rest stay zero.
        buf = np.zeros(m, dtype=np.complex128)
        u_vals, du_vals, f, h = (np.empty(m, dtype=np.complex128) for _ in range(4))
        values = self.values_plan(u_vals, du_vals, f)

        def apply(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            buf[scatter] = coeffs
            np.fft.ifft(buf, norm="forward", out=u_vals)
            buf[scatter] = np.multiply(coeffs, ik, out=dmodes)
            np.fft.ifft(buf, norm="forward", out=du_vals)
            values()
            np.fft.fft(f, norm="forward", out=h)
            # The gather indices are in range, so "clip" only spares take a buffer.
            return h[gather] if out is None else h.take(gather, out=out, mode="clip")

        return apply

    def evaluate(
        self, u: SpectralField, out_cutoff: int | None = None
    ) -> SpectralField:
        """F(u, u_x, conj u, conj u_x) as an alias-free field.

        Default output keeps the full product bandwidth total_degree * K;
        pass ``out_cutoff`` (e.g. K) to truncate.
        """
        coeffs = self.coefficient_map(u.cutoff, out_cutoff)(u.coeffs)
        return SpectralField(coeffs, len(coeffs) // 2)


def _rows_coefficient_map(polys: list[PolynomialNonlinearity], cutoffs: list[int], n: int):
    """`coefficient_map(k, k)` for a block of rows, row j under polys[j] at k = cutoffs[j].

    The returned function takes a (B, 2*n+1) array of coefficients, n at
    least every cutoff, with each row's 2k+1 modes centred in its row, and
    returns the coefficients of each row's polynomial along that row in the
    same layout, each row's window bitwise equal to the one-row map and the
    columns outside it zero; given ``out``, a C-contiguous array of that
    shape, it writes them there and returns it.  Adjacent rows of one cutoff
    whose polynomials need the same padded grid form a group that shares the
    transforms: one inverse transform of a (2b, m) buffer holding the u rows
    and then the u_x rows, and one forward transform of (b, m).  Adjacent
    rows of a group whose polynomials have the same monomials form a run
    that shares one evaluation of F, through one polynomial whose differing
    coefficients are (b, 1) columns of the rows' values (the coefficient
    stays the left operand of each product, which keeps every row bitwise
    equal to its own call); each run writes its rows of the group's (b, m)
    values.  Callers order the rows so that such rows are adjacent; any
    order is correct.  The map is a plan built once: the group buffers are
    views into one flat array (only the mode entries are ever written, so
    the rest stay zero), each group's forward transform writes into a view
    of one flat spectrum array that ends in a zero, flat index arrays place
    every mode, and each run's evaluation is a `values_plan` on views of its
    group's arrays.  So a call moves the modes in with one `take` and two
    indexed writes and out with one `take`, whatever the number of groups,
    and allocates only the returned coefficients, a fresh copy, or nothing
    with ``out``.  Not for concurrent use, like coefficient_map.
    """
    def grid(j):
        P, k = polys[j], cutoffs[j]
        return None if P.is_zero() else (k, padded_size(k, max(P.total_degree, 1) * k, k))

    width = 2 * n + 1
    groups, at = [], []  # at: the (input, u, u_x, forward-transform) entry of each mode
    size = hsize = 0  # entries of the buffers and of the forward transforms so far
    for key, rows in groupby(range(len(polys)), key=grid):
        if key is None:
            continue
        rows = list(rows)
        r0, runs = rows[0], []
        for _, same in groupby(rows, key=lambda j: [idx for idx, _ in polys[j].terms]):
            same = list(same)
            runs.append((same[0] - r0, same[-1] + 1 - r0, _stacked([polys[j] for j in same])))
        (k, m), b = key, len(rows)
        ks = np.arange(-k, k + 1)
        cells = (np.arange(b)[:, None] * m + np.mod(ks, m)).ravel()
        entries = (np.array(rows)[:, None] * width + n + ks).ravel()
        at.append([entries, size + cells, size + b * m + cells, hsize + cells])
        groups.append((size, hsize, b, m, runs))
        size, hsize = size + 2 * b * m, hsize + b * m
    src, u_at, du_at, h_at = np.concatenate([np.zeros((4, 0), np.intp), *at], axis=1)
    ik = 1j * (src % width - n).astype(float)
    modes, dmodes = (np.empty(len(src), dtype=np.complex128) for _ in range(2))
    flat = np.zeros(size, dtype=np.complex128)
    hflat = np.zeros(hsize + 1, dtype=np.complex128)
    plans = []
    for i, j, b, m, runs in groups:
        vals = np.empty((2 * b, m), dtype=np.complex128)
        f = np.empty((b, m), dtype=np.complex128)
        plans.append((
            flat[i : i + 2 * b * m].reshape(2 * b, m),
            vals,
            [P.values_plan(vals[p0:p1], vals[b + p0 : b + p1], f[p0:p1]) for p0, p1, P in runs],
            f,
            hflat[j : j + b * m].reshape(b, m),
        ))
    # Output entry -> its forward-transform entry, or the zero after them all.
    gather = np.full(len(polys) * width, hsize)
    gather[src] = h_at
    gather = gather.reshape(len(polys), width)

    def apply(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        coeffs.take(src, out=modes, mode="clip")  # indices in range: "clip" spares a buffer
        flat[u_at] = modes
        flat[du_at] = np.multiply(modes, ik, out=dmodes)
        for buf, vals, evaluations, f, h in plans:
            np.fft.ifft(buf, norm="forward", out=vals)
            for evaluate in evaluations:
                evaluate()
            np.fft.fft(f, norm="forward", out=h)
        return hflat.take(gather) if out is None else hflat.take(gather, out=out, mode="clip")

    return apply


def _stacked(polys: list[PolynomialNonlinearity]) -> PolynomialNonlinearity:
    """One polynomial for rows whose polynomials have the same monomials.

    Unless the rows share one polynomial, each coefficient becomes the (b, 1)
    column of the rows' values, so that its `values_plan` on (b, m) samples
    evaluates row i under polys[i].  The result is only for that plan: its
    coefficients are not numbers.
    """
    first = polys[0]
    if all(P == first for P in polys):
        return first
    values = np.array([[c for _, c in P.terms] for P in polys])
    return PolynomialNonlinearity(
        tuple((idx, values[:, t, None]) for t, (idx, _) in enumerate(first.terms))
    )


def theta_omega_mean(F: PolynomialNonlinearity, u: SpectralField) -> complex:
    """Mean (zeroth coefficient) of F_omega along u, as a complex number."""
    return complex(_block_means(F.wirtinger("omega"), u.cutoff, u.coeffs[None])[0])


def _block_means(P: PolynomialNonlinearity, cutoff: int, coeffs: np.ndarray) -> np.ndarray:
    """Means of P(u, u_x, conj u, conj u_x) over one period, one per row of coeffs.

    ``coeffs`` is (n, 2*cutoff+1).  Row for row this is the arithmetic of
    sampling u and derivative(u) with `SpectralField.to_samples` on the grid
    the product needs and averaging P over it, so each mean is bitwise equal
    to the one-row call; the block takes one inverse transform of a (2n, m)
    buffer (u rows, then u_x rows) and one `evaluate_values` call.
    """
    if P.is_zero():
        return np.zeros(len(coeffs), dtype=np.complex128)
    k, n = cutoff, len(coeffs)
    m = padded_size(k, max(P.total_degree, 1) * k, 0)
    rows = np.concatenate([coeffs, coeffs * (1j * np.arange(-k, k + 1))])
    buf = np.zeros((2 * n, m), dtype=np.complex128)
    buf[:, : k + 1] = rows[:, k:]
    buf[:, m - k :] = rows[:, :k]
    samples = np.fft.ifft(buf) * m
    return np.mean(P.evaluate_values(samples[:n], samples[n:]), axis=1)


def criterion_functional(F: PolynomialNonlinearity, psi: SpectralField) -> float:
    """G(psi): normalized-mean of Im F_omega along psi.  Always real."""
    return float(theta_omega_mean(F, psi).imag)


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of the randomized identity test of G == 0.

    ``satisfied`` is probabilistically sound: a nonzero functional is caught
    almost surely; when False the witness is exact (|G(witness)| > tolerance).
    """

    satisfied: bool
    witness: SpectralField | None
    witness_value: float
    trials: int
    tolerance: float


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


def check_wellposedness_condition(
    F: PolynomialNonlinearity,
    trials: int = 40,
    cutoffs: Iterable[int] = (2, 4, 8),
    tol: float = 1e-9,
    seed: int = 0,
    decay: float = 3.5,
) -> CriterionVerdict:
    """Decide whether G(psi) = 0 for all psi, by structured + random sampling.

    Structured witnesses run first so a failure is reported on a readable
    field; random trigonometric polynomials (coefficient decay <k>^{-decay})
    are sampled at each cutoff.  Deterministic in (seed, trials, cutoffs).
    The witnesses are evaluated a block at a time (the structured ones of
    one cutoff, or the `trials` random ones of one cutoff, drawn as that many
    successive `random_field` calls would draw them) and scanned in order,
    so a block that holds the witness is evaluated whole.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    fo = F.wirtinger("omega")
    rng = np.random.default_rng(seed)
    random_blocks = ((cut, _random_coefficients(trials, cut, decay, rng)) for cut in cutoffs)
    best_val = 0.0
    n_eval = 0
    for cut, block in chain(_STRUCTURED_BLOCKS, random_blocks):
        for coeffs, g in zip(block, _block_means(fo, cut, block).imag.tolist()):
            n_eval += 1
            if abs(g) > abs(best_val):
                best_val = g
            if abs(g) > tol:
                return CriterionVerdict(False, SpectralField(coeffs, cut), g, n_eval, tol)
    return CriterionVerdict(True, None, best_val, n_eval, tol)


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
