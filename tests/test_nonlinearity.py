"""Polynomial nonlinearities: Wirtinger algebra, evaluation, the criterion checker."""

import warnings
from itertools import chain, groupby

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fnlslab.nonlinearity import (
    CriterionVerdict,
    PolynomialNonlinearity,
    _STRUCTURED_BLOCKS,
    _block_means,
    _grid,
    _jet_samples,
    _rows_coefficient_map,
    _scan,
    _structured_jet,
    _witness,
    check_wellposedness_condition,
    criterion_functional,
    cubic,
    example_b,
    example_c,
    example_d,
    format_nonlinearity,
    linear_transport,
    parse_nonlinearity,
    structured_witnesses,
)
from fnlslab.spectral import (
    SpectralField,
    _coefficients,
    _dx,
    _samples,
    derivative,
    padded_size,
    random_field,
    sobolev_norm,
)
from test_spectral import _half_grids, _numpy_coefficients, _numpy_samples


def const(z):
    return SpectralField.constant(z, cutoff=1)


# -- Wirtinger derivatives --------------------------------------------------------


def test_wirtinger_power_family():
    # c u^m u_x differentiates in omega to c u^m
    F = example_b(2.0 - 1j, m=3)
    fo = F.wirtinger("omega")
    assert fo.as_dict() == {(3, 0, 0, 0): (2.0 - 1j)}


def test_wirtinger_derivative_nonlinearity():
    # 2c|u|^2 u_x + c u^2 conj(u_x) differentiates in omega to 2c|u|^2
    F = example_c(0.5 + 2j)
    fo = F.wirtinger("omega")
    assert fo.as_dict() == {(1, 0, 1, 0): 2 * (0.5 + 2j)}


def test_wirtinger_gradient_pair():
    # c1 w^2 zb + c2 |w|^2 z -> 2 c1 w zb + c2 wb z
    F = example_d(1.5, -1j)
    fo = F.wirtinger("omega")
    assert fo.as_dict() == {(0, 1, 1, 0): 3.0, (1, 0, 0, 1): -1j}


def test_mixed_wirtinger_derivatives_commute():
    rng = np.random.default_rng(0)
    idxs = [(2, 1, 0, 1), (0, 3, 2, 0), (1, 1, 1, 1), (4, 0, 0, 2)]
    F = PolynomialNonlinearity.from_terms(
        {i: complex(rng.standard_normal(), rng.standard_normal()) for i in idxs}
    )
    for v1 in ("zeta", "omega", "zeta_bar", "omega_bar"):
        for v2 in ("zeta", "omega", "zeta_bar", "omega_bar"):
            a = F.wirtinger(v1).wirtinger(v2)
            b = F.wirtinger(v2).wirtinger(v1)
            assert a.as_dict() == b.as_dict()


def loop_wirtinger(F: PolynomialNonlinearity, var: str) -> PolynomialNonlinearity:
    """Reference: the derivative summed into a dict and rebuilt through from_terms."""
    pos = ("zeta", "omega", "zeta_bar", "omega_bar").index(var)
    out = {}
    for idx, c in F.terms:
        e = idx[pos]
        if e == 0:
            continue
        new = list(idx)
        new[pos] = e - 1
        key = tuple(new)
        out[key] = out.get(key, 0.0) + c * e
    return PolynomialNonlinearity.from_terms(out)


def _outcome(fn):
    try:
        return [(idx, np.complex128(c).tobytes()) for idx, c in fn().terms]
    except ValueError as err:
        return str(err)


_PART = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 6e307, -0.5]),
)


@given(
    st.dictionaries(st.tuples(*(st.integers(0, 3),) * 4), st.builds(complex, _PART, _PART), max_size=6),
    st.sampled_from(["zeta", "omega", "zeta_bar", "omega_bar"]),
)
@example({(0, 3, 0, 0): 1e308 + 0j, (0, 1, 0, 0): 1.0}, "omega")  # 3e308 overflows
@example({(0, 2, 0, 0): complex(-0.0, 1.0), (1, 0, 0, 0): -0.0 - 5e-324j}, "omega")
@settings(max_examples=300, deadline=None)
def test_wirtinger_matches_the_dict_loop(terms, var):
    """Bitwise the same terms, signed zeros and subnormals included, or the same error."""
    F = PolynomialNonlinearity.from_terms(terms)
    assert _outcome(lambda: F.wirtinger(var)) == _outcome(lambda: loop_wirtinger(F, var))


# -- evaluation ---------------------------------------------------------------------


def test_evaluate_identity_and_derivative_slots():
    u = SpectralField.from_modes({1: 1.0}, 2)
    ev = PolynomialNonlinearity.from_terms({(1, 0, 0, 0): 1.0}).evaluate(u)
    assert abs(ev.coefficient(1) - 1.0) < 1e-13
    ev = PolynomialNonlinearity.from_terms({(0, 1, 0, 0): 1.0}).evaluate(u)
    assert abs(ev.coefficient(1) - 1j) < 1e-13
    # |u|^2 of a unimodular exponential is 1
    ev = PolynomialNonlinearity.from_terms({(1, 0, 1, 0): 1.0}).evaluate(u)
    assert abs(ev.coefficient(0) - 1.0) < 1e-13
    assert sobolev_norm(ev - SpectralField.constant(1.0)) < 1e-13


def test_evaluate_additive_in_terms():
    rng = np.random.default_rng(1)
    u = random_field(8, 1.5, rng)
    F = example_c(1j)
    G = cubic(2.0)
    lhs = (F + G).evaluate(u)
    rhs = F.evaluate(u) + G.evaluate(u)
    assert sobolev_norm(lhs - rhs) < 1e-12


def _naive_values(F, u_vals, du_vals):
    # one fresh product per term, as F is written
    out = np.zeros(u_vals.shape, dtype=np.complex128)
    scale = np.zeros(u_vals.shape)
    for (a, b, c, d), coeff in F.terms:
        term = coeff * u_vals**a * du_vals**b * np.conj(u_vals) ** c * np.conj(du_vals) ** d
        out = out + term
        scale = scale + np.abs(term)
    return out, scale


_EXPONENTS = st.tuples(*(st.integers(0, 4),) * 4).filter(lambda idx: sum(idx) <= 4)


@given(
    st.dictionaries(_EXPONENTS, st.complex_numbers(max_magnitude=10.0), max_size=6),
    st.booleans(),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example({}, False, 5, 0)  # the zero polynomial
@settings(max_examples=80, deadline=None)
def test_evaluate_values_matches_per_term_products(terms, constant, n, seed):
    if constant:
        terms[(0, 0, 0, 0)] = 1.5 - 0.5j
    F = PolynomialNonlinearity.from_terms(terms)
    rng = np.random.default_rng(seed)
    u_vals, du_vals = rng.standard_normal((2, n, 2)) @ np.array([1.0, 1j])
    got = F.evaluate_values(u_vals, du_vals)
    want, scale = _naive_values(F, u_vals, du_vals)
    assert got.shape == (n,) and got.dtype == np.complex128
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_chain_rule_against_central_differences():
    rng = np.random.default_rng(2)
    F = PolynomialNonlinearity.from_terms(
        {(2, 0, 1, 0): 1j, (1, 1, 0, 0): 0.5, (0, 2, 1, 0): 0.25 - 0.1j}
    )
    u = random_field(6, 2.0, rng)
    w = random_field(6, 2.0, rng)
    h = 1e-5
    plus = F.evaluate(u + h * w)
    minus = F.evaluate(u + (-h) * w)
    fd = (1.0 / (2 * h)) * (plus - minus)

    from fnlslab.spectral import conjugate, pointwise_product

    wx = derivative(w)
    full = F.total_degree * u.cutoff + w.cutoff
    exact = (
        pointwise_product(F.wirtinger("zeta").evaluate(u), w, out_cutoff=full)
        + pointwise_product(F.wirtinger("omega").evaluate(u), wx, out_cutoff=full)
        + pointwise_product(F.wirtinger("zeta_bar").evaluate(u), conjugate(w), out_cutoff=full)
        + pointwise_product(F.wirtinger("omega_bar").evaluate(u), conjugate(wx), out_cutoff=full)
    )
    num = sobolev_norm(fd - exact.with_cutoff(fd.cutoff))
    assert num / max(sobolev_norm(exact), 1e-30) < 1e-6


# -- the criterion functional --------------------------------------------------------


def test_criterion_examples():
    # derivative cubic with imaginary coefficient, constant state: G = 2
    assert abs(criterion_functional(example_c(1j), const(1.0)) - 2.0) < 1e-12
    # quadratic-derivative pair on a single exponential: G = 2
    psi = SpectralField.from_modes({1: 1.0}, 1)
    assert abs(criterion_functional(example_d(1.0, 0.0), psi) - 2.0) < 1e-12
    # omega-independent F has G identically zero
    rng = np.random.default_rng(3)
    for _ in range(5):
        psi = random_field(6, 2.0, rng)
        assert criterion_functional(cubic(1.7 - 0.3j), psi) == 0.0


def test_criterion_is_real_linear_in_coefficients():
    rng = np.random.default_rng(4)
    psi = random_field(5, 2.0, rng)
    F = example_c(1j)
    G = example_d(1j, 0.7)
    for a, b in [(2.0, -1.0), (0.5, 3.0)]:
        lhs = criterion_functional(a * F + b * G, psi)
        rhs = a * criterion_functional(F, psi) + b * criterion_functional(G, psi)
        assert abs(lhs - rhs) < 1e-10


def test_gradient_pair_first_component_has_zero_mean():
    # Re(conj(psi) psi_x) integrates to zero: it is half the derivative of |psi|^2.
    rng = np.random.default_rng(5)
    for _ in range(10):
        psi = random_field(8, 1.5, rng)
        m = 64
        vals = np.real(np.conj(psi.to_samples(m)) * derivative(psi).to_samples(m))
        assert abs(np.mean(vals)) < 1e-10


def test_power_family_witness_value():
    # The readable witness c^{-1/m} e^{i pi/(2m)} gives G = 1 by direct quadrature.
    for c, m in [(1.0, 1), (2.0, 2), (0.5 - 0.5j, 3)]:
        psi = const(c ** (-1.0 / m) * np.exp(1j * np.pi / (2 * m)))
        g = criterion_functional(example_b(c, m), psi)
        assert abs(g - 1.0) < 1e-12


# -- the criterion checker ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_checker_reproduces_known_classifications(seed):
    assert check_wellposedness_condition(cubic(1j), seed=seed).satisfied
    assert check_wellposedness_condition(cubic(-2.0 + 1j), seed=seed).satisfied
    v = check_wellposedness_condition(example_b(1.0, 1), seed=seed)
    assert not v.satisfied and v.witness is not None
    assert abs(v.witness_value) > v.tolerance
    assert check_wellposedness_condition(example_b(0.0, 1), seed=seed).satisfied
    assert check_wellposedness_condition(example_c(1.0), seed=seed).satisfied
    assert not check_wellposedness_condition(example_c(1j), seed=seed).satisfied
    assert check_wellposedness_condition(example_d(1.0, 2.0), seed=seed).satisfied
    assert not check_wellposedness_condition(example_d(1.0, 1.0), seed=seed).satisfied
    assert not check_wellposedness_condition(linear_transport(1j), seed=seed).satisfied
    assert check_wellposedness_condition(linear_transport(1.0), seed=seed).satisfied


def test_checker_deterministic():
    a = check_wellposedness_condition(example_d(1j, 2j + 0.25), seed=7)
    b = check_wellposedness_condition(example_d(1j, 2j + 0.25), seed=7)
    assert a.satisfied == b.satisfied
    assert a.witness_value == b.witness_value
    assert a.trials == b.trials


def test_checker_witness_is_evaluated_consistently():
    v = check_wellposedness_condition(example_c(1j), seed=0)
    assert not v.satisfied
    assert abs(criterion_functional(example_c(1j), v.witness) - v.witness_value) < 1e-14


def test_certificate_is_relative_to_the_scale_of_f_omega():
    # Each read the other way under an absolute tolerance on sampled |G|.
    assert not check_wellposedness_condition(example_c(1e-12j)).satisfied
    assert not check_wellposedness_condition(example_b(1e-300)).satisfied
    assert check_wellposedness_condition(example_c(1e8)).satisfied
    assert check_wellposedness_condition(example_d(1e7, 2e7)).satisfied
    # The omega-free cubic term must not set the scale of the transport term's violation.
    v = check_wellposedness_condition(1e8 * cubic(1j) + 1e-5 * linear_transport(1j))
    assert not v.satisfied and v.residual == 1.0


def test_satisfied_verdict_samples_nothing():
    v = check_wellposedness_condition(example_d(1.0, 2.0))
    assert (v.satisfied, v.witness, v.witness_value, v.trials) == (True, None, 0.0, 0)
    assert v.tolerance == 1e-9 * 2.0 and v.residual == 0.0


def test_violated_verdict_reports_largest_witness_below_tolerance():
    # G = 1e-10 for every field, below the tolerance 2e-9 set by the 2|u|^2 term.
    F = example_c(1.0) + 1e-10 * linear_transport(1j)
    v = check_wellposedness_condition(F)
    assert not v.satisfied and v.witness is not None and v.tolerance == 2e-9
    assert abs(v.witness_value) == abs(sampled_checker(F, tol=2e-9).witness_value)
    assert criterion_functional(F, v.witness) == v.witness_value
    assert v.trials == 43 and v.witness_value == 1.0000034131372709e-10  # the first largest |G|


_SMALL_VIOLATIONS = {
    "example_c(1) + x transport(i)": lambda x: example_c(1.0) + x * linear_transport(1j),
    "example_d(1, 2) + x example_d(1, 1)": lambda x: example_d(1.0, 2.0) + x * example_d(1.0, 1.0),
    "example_c(1 + ix)": lambda x: example_c(1.0 + 1j * x),
}


@pytest.mark.parametrize("x", [1e-11, 1e-13])
@pytest.mark.parametrize("name", list(_SMALL_VIOLATIONS))
def test_certificate_reads_small_violations(name, x):
    # Violations of 1e-11 and 1e-13 of the largest F_omega coefficient: far above the
    # rounding of the coefficients they are computed from.
    v = check_wellposedness_condition(_SMALL_VIOLATIONS[name](x))
    assert not v.satisfied and v.residual > 0 and v.witness is not None


def test_certificate_forgives_the_rounding_of_its_input():
    # c1 = 0.1 + 0.2 rounds to 0.30000000000000004, so Re(2 c1 - c2) is 1.1e-16, not 0.
    F = parse_nonlinearity("0 2 1 0 0.1 0\n0 2 1 0 0.2 0\n1 1 0 1 0.6 0\n")
    assert F.as_dict()[(0, 2, 1, 0)] != 0.3
    v = check_wellposedness_condition(F)
    assert v.satisfied and v.residual > 0


def _finite_normal(lo, hi):
    """Zero, or a float of magnitude in [lo, hi], either sign."""
    mag = st.floats(lo, hi)
    return st.one_of(st.just(0.0), mag, mag.map(lambda x: -x))


_COEFFS = st.builds(complex, _finite_normal(1e-3, 10.0), _finite_normal(1e-3, 10.0)).filter(bool)
_POLYS = st.dictionaries(
    st.tuples(*(st.integers(0, 3),) * 4).filter(lambda idx: 1 <= sum(idx) <= 3),
    _COEFFS, min_size=1, max_size=5,
).map(PolynomialNonlinearity.from_terms)


@given(_POLYS, st.integers(-900, 900))
@settings(max_examples=60, deadline=None)
def test_certificate_is_bitwise_invariant_under_powers_of_two(F, e):
    a, b = check_wellposedness_condition(F), check_wellposedness_condition(F * 2.0**e)
    assert a.satisfied is b.satisfied
    assert np.float64(a.residual).tobytes() == np.float64(b.residual).tobytes()


@given(_POLYS, st.floats(-250.0, 250.0))
@settings(max_examples=60, deadline=None)
def test_certificate_is_invariant_under_scaling(F, x):
    a, b = check_wellposedness_condition(F), check_wellposedness_condition(F * 10.0**x)
    assert a.satisfied is b.satisfied


_REAL = st.floats(-2.0, 2.0)
_Z = st.builds(complex, _REAL, _REAL)
_Y = st.floats(0.5, 2.0).flatmap(lambda y: st.sampled_from([y, -y]))  # a violation's size
_SATISFYING = st.one_of(
    _Z.map(cubic),
    _REAL.map(example_c),
    st.builds(lambda z, y: example_d(z, 2 * z.real + 1j * y), _Z, _REAL),
    _REAL.map(linear_transport),
)
_VIOLATING = st.one_of(
    st.builds(lambda x, y, m: example_b(complex(x, y), m), _REAL, _Y, st.integers(1, 2)),
    st.builds(lambda x, y: example_c(complex(x, y)), _REAL, _Y),
    st.builds(lambda z, y, b: example_d(z, complex(2 * z.real - y, b)), _Z, _Y, _REAL),
    st.builds(lambda x, y: linear_transport(complex(x, y)), _REAL, _Y),
)


@given(
    st.lists(_SATISFYING, min_size=1, max_size=3),
    st.one_of(st.none(), _VIOLATING),
    st.floats(-12.0, 8.0),
)
# a well-posed pair of subnormal coefficients, whose roundings are absolute
@example([example_d(2.2250738585e-313, 2 * 2.2250738585e-313)], None, 0.5)
@settings(max_examples=80, deadline=None)
def test_certificate_classifies_constructed_sums(terms, violating, lam_exp):
    """Sums of satisfying family terms, plus one violating term or none, scaled by lambda."""
    F = sum(terms[1:], terms[0]) if violating is None else sum(terms, violating)
    v = check_wellposedness_condition(F * 10.0**lam_exp)
    assert v.satisfied is (violating is None)
    assert v.satisfied or (v.witness is not None and abs(v.witness_value) > v.tolerance)


_VIOLATED = [
    example_b(1.0, 1), example_c(1j), example_d(1.0, 1.0), example_b(1e-300), linear_transport(2j)
]


@pytest.mark.parametrize("F", _VIOLATED)
@pytest.mark.parametrize("seed", [0, 5])
def test_violated_verdict_is_the_sampled_verdict(F, seed):
    tol = 1e-9 * max(abs(c) for _, c in F.wirtinger("omega").terms)
    got = check_wellposedness_condition(F, seed=seed)
    assert not got.satisfied and got.residual > 0
    assert_same_verdict(got, sampled_checker(F, tol=tol, seed=seed))


# -- the sampler against its sequential oracle --------------------------------------------


def _one_mean(P, u):
    # one witness on its own grid: two samplings, one evaluation, the mean
    if P.is_zero():
        return 0.0 + 0.0j
    m = padded_size(u.cutoff, max(P.total_degree, 1) * u.cutoff, 0)
    return complex(np.mean(P.evaluate_values(u.to_samples(m), derivative(u).to_samples(m))))


def _oracle_witnesses(F, trials, cutoffs, seed, decay):
    """The checker's witnesses in order, one at a time, each with its G."""
    fo = F.wirtinger("omega")
    rng = np.random.default_rng(seed)
    randoms = (random_field(cut, decay, rng) for cut in cutoffs for _ in range(trials))
    for psi in chain(structured_witnesses(), randoms):
        yield psi, _one_mean(fo, psi).imag


def sequential_checker(F, trials=40, cutoffs=(2, 4, 8), tol=1e-9, seed=0, decay=3.5):
    """Reference: the witness-by-witness scan the block checker must reproduce.

    The witness is the first field with |G| above tol, or, if none is, the
    first field of largest |G|; ``trials`` is its position in the scan.
    """
    scan = list(_oracle_witnesses(F, trials, cutoffs, seed, decay))
    sizes = [abs(g) for _, g in scan]
    above = [i for i, a in enumerate(sizes) if a > tol]
    i = above[0] if above else int(np.argmax(sizes))
    psi, g = scan[i]
    return CriterionVerdict(not above, psi, g, i + 1, tol)


def sampled_checker(F, trials=40, cutoffs=(2, 4, 8), tol=1e-9, seed=0, decay=3.5):
    """The block sampler behind a violated verdict, with the checker's defaults."""
    psi, g, n, above = _witness(F.wirtinger("omega"), trials, cutoffs, tol, seed, decay)
    return CriterionVerdict(not above, psi, g, n, tol)


N_STRUCTURED = (48, 30)  # the constants at cutoff 1, then the cutoff-2 fields


def _block_bounds(trials, cutoffs):
    sizes = [*N_STRUCTURED, *(trials for _ in cutoffs)]
    ends = np.cumsum(sizes).tolist()
    return list(zip([0, *ends[:-1]], ends))


def _tol_exiting_in(block, values, trials, cutoffs):
    """A tolerance whose first exceedance lies in `block`, or None if there is none."""
    start, end = _block_bounds(trials, cutoffs)[block]
    before = max((abs(g) for g in values[:start]), default=0.0)
    if max((abs(g) for g in values[start:end]), default=0.0) > before:
        return before
    return None


def assert_same_verdict(got, want):
    assert got.satisfied is want.satisfied
    assert got.trials == want.trials and got.tolerance == want.tolerance
    assert np.float64(got.witness_value).tobytes() == np.float64(want.witness_value).tobytes()
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.cutoff == want.witness.cutoff
        assert got.witness.coeffs.tobytes() == want.witness.coeffs.tobytes()


_LOW_DEGREE = st.tuples(*(st.integers(0, 3),) * 4).filter(lambda idx: 1 <= sum(idx) <= 3)


@given(
    st.dictionaries(_LOW_DEGREE, st.complex_numbers(max_magnitude=10.0), min_size=1, max_size=5),
    st.floats(-12.0, 8.0),
    st.integers(1, 12),
    st.lists(st.integers(1, 40), min_size=1, max_size=3),  # degree 3 past cutoff 20: 5-smooth grids
    st.floats(-2.0, 5.0),
    st.integers(0, 2**32 - 1),
    st.one_of(st.floats(-14.0, 10.0), st.integers(0, 4)),
)
@example({(0, 2, 1, 0): 1.0, (1, 1, 0, 1): 1.0}, 0.0, 40, [2, 4, 8], 3.5, 0, -9.0)  # cutoff-2 modes
@example({(1, 1, 0, 0): 1j}, 0.0, 1, [2], 3.5, 0, -9.0)  # constants, one trial
@settings(max_examples=60, deadline=None)
def test_block_checker_matches_sequential_oracle(terms, lam_exp, trials, cutoffs, decay, seed, tol):
    """Bitwise the same verdict; an integer `tol` picks the block to exit in."""
    F = PolynomialNonlinearity.from_terms(terms) * 10.0**lam_exp
    cutoffs = tuple(cutoffs)
    if isinstance(tol, int):
        values = [g for _, g in _oracle_witnesses(F, trials, cutoffs, seed, decay)]
        target = tol % (2 + len(cutoffs))
        tol = _tol_exiting_in(target, values, trials, cutoffs)
        if tol is None:
            tol = 1e-9
    else:
        tol = 10.0**tol
    kwargs = dict(trials=trials, cutoffs=cutoffs, tol=tol, seed=seed, decay=decay)
    assert_same_verdict(sampled_checker(F, **kwargs), sequential_checker(F, **kwargs))


def test_block_checker_exits_in_every_block():
    # example_d(1, 1) vanishes on constants; growing random fields (negative
    # decay) give each random cutoff a larger |G| than any field before it.
    F = example_d(1.0, 1.0) + 0.25j * example_b(1.0, 1)
    trials, cutoffs, decay = 5, (2, 4, 8), -1.0
    values = [g for _, g in _oracle_witnesses(F, trials, cutoffs, 3, decay)]
    for block, (start, end) in enumerate(_block_bounds(trials, cutoffs)):
        tol = _tol_exiting_in(block, values, trials, cutoffs)
        assert tol is not None, block
        kwargs = dict(trials=trials, cutoffs=cutoffs, tol=tol, seed=3, decay=decay)
        got = sampled_checker(F, **kwargs)
        assert start < got.trials <= end
        assert_same_verdict(got, sequential_checker(F, **kwargs))


@pytest.mark.parametrize("F", [cubic(1j), example_d(1.0, 2.0), PolynomialNonlinearity.zero()])
def test_block_checker_satisfied_matches_oracle(F):
    for kwargs in ({}, {"trials": 1, "cutoffs": (5,)}, {"cutoffs": ()}):
        assert_same_verdict(sampled_checker(F, **kwargs), sequential_checker(F, **kwargs))


# -- what the witness search pays for: kept samples, a lazy generator, the block scan --


# A violated F that every structured field misses: its witness is random trial 79.
F2 = parse_nonlinearity("0 2 0 2 -1.4696764789658596 -1.0917222141854408")


def test_structured_witness_builds_no_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the random generator was built")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for F, trials in ((example_c(1j), 1), (example_b(1.0), 2), (example_d(1.0, 1.0), 49)):
        v = check_wellposedness_condition(F, seed=3)
        assert not v.satisfied and v.trials == trials
        assert sampled_checker(F, seed=3).trials == trials


def test_random_witness_builds_one_generator(monkeypatch):
    seeds, build = [], np.random.default_rng

    def counted(seed):
        seeds.append(seed)
        return build(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    v = check_wellposedness_condition(F2, seed=7)
    assert not v.satisfied and v.trials == 79 and v.witness.cutoff == 2
    assert seeds == [7]


@pytest.mark.parametrize("F", [example_c(1j), example_d(1.0, 1.0), F2, example_b(1.0, 6)])
def test_structured_samples_are_kept_read_only_and_fresh(F):
    fo = F.wirtinger("omega")
    for j, (cut, block) in enumerate(_STRUCTURED_BLOCKS):
        m = _grid(fo, cut, 0)[2]
        jet = _structured_jet(j, m)
        fresh = _samples(np.concatenate([block, _dx(block)]), m)
        assert _structured_jet(j, m) is jet
        for kept, want in zip(jet, (fresh[: len(block)], fresh[len(block) :])):
            assert not kept.flags.writeable
            assert kept.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                kept[0, 0] = 0.0


def _same_full_verdict(got, want):
    assert_same_verdict(got, want)
    assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()


def test_verdict_is_the_same_with_a_cold_and_a_warm_cache():
    cases = [example_c(1j), example_d(1.0, 1.0), F2, example_b(1.0, 3), linear_transport(2j)]
    cold = []
    for F in cases:
        _structured_jet.cache_clear()
        cold.append(check_wellposedness_condition(F, seed=5))
    for F, want in zip(cases, cold):  # warm, with every other degree's samples kept too
        _same_full_verdict(check_wellposedness_condition(F, seed=5), want)
    for F, other, want in zip(cases, cases[1:] + cases[:1], cold):  # after another degree
        _structured_jet.cache_clear()
        check_wellposedness_condition(other, seed=5)
        _same_full_verdict(check_wellposedness_condition(F, seed=5), want)


def loop_scan(blocks, tol):
    """The row-by-row scan the block scan replaces: (j, i, g, above)."""
    best = None
    for j, block in enumerate(blocks):
        for i, g in enumerate(np.asarray(block, dtype=float).tolist()):
            if abs(g) > tol:
                return j, i, g, True
            if best is None or abs(g) > abs(best[2]):
                best = (j, i, g, False)
    return best


_G = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, np.inf, -np.inf, np.nan]),  # ties and NaN
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(
    first=st.lists(_G, min_size=1, max_size=8),
    rest=st.lists(st.lists(_G, max_size=8), max_size=4),
    tol=st.one_of(st.sampled_from([0.0, 0.5, 1.0, np.inf, np.nan]), st.floats(0.0, 2.0)),
)
@example([np.nan, 1.0], [[2.0]], 5.0)  # a NaN first row stays the pick
@example([0.5, np.nan, -0.5], [[np.nan], [0.5, -np.inf]], np.inf)  # inf below an infinite tol
@example([1.0, -1.0], [[], [1.0]], 2.0)  # ties: the first row
@settings(max_examples=300, deadline=None)
def test_block_scan_matches_row_loop(first, rest, tol):
    blocks = [np.array(b, dtype=float) for b in [first, *rest]]
    reached = []

    def values():
        for b in blocks:
            reached.append(b)
            yield b

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j, i, g, above = _scan(values(), tol)
    want = loop_scan(blocks, tol)
    assert (j, i, above) == want[:2] + (want[3],)
    assert np.float64(g).tobytes() == np.float64(want[2]).tobytes() and type(g) is float
    assert len(reached) == (j + 1 if above else len(blocks))


@pytest.mark.parametrize("cutoff", [2048, 4096])  # 4320 and 8640 points for a degree-2 F_omega
def test_one_large_row_mean_is_the_one_row_arithmetic(cutoff, monkeypatch):
    fo = example_c(1j).wirtinger("omega")
    u = random_field(cutoff, 1.0, np.random.default_rng(cutoff))
    shapes = []

    def counted(c, m):
        shapes.append(c.shape)
        return _samples(c, m)

    monkeypatch.setattr("fnlslab.nonlinearity._samples", counted)
    got = _block_means(fo, cutoff, u.coeffs[None])
    assert got.tobytes() == np.complex128(_one_mean(fo, u)).tobytes()
    assert shapes == [(2, 2 * cutoff + 1)]


# -- the evaluation plan and the RHS maps against fresh-allocation references ---------


def oracle_evaluate_values(F: PolynomialNonlinearity, u_vals, du_vals) -> np.ndarray:
    """Reference: F's values on the samples, every power and term a fresh array.

    Each power of a slot is computed once and shared by every term that
    uses it, a slot is conjugated only if some term uses it, and the terms
    accumulate in place into the first one.
    """
    bases = [u_vals, du_vals, None, None]
    powers: dict[tuple[int, int], np.ndarray] = {}
    out = None
    for idx, coeff in F.terms:
        term = None
        for slot, e in enumerate(idx):
            if not e:
                continue
            if (slot, e) not in powers:
                if bases[slot] is None:
                    bases[slot] = np.conj(bases[slot - 2])
                powers[slot, e] = bases[slot] if e == 1 else bases[slot] ** e
            if term is None:
                term = coeff * powers[slot, e]
            else:
                term *= powers[slot, e]
        if term is None:  # the constant term
            term = np.full(np.shape(u_vals), coeff)
        if out is None:
            out = term
        else:
            out += term
    if out is None:
        return np.zeros(np.shape(u_vals), dtype=np.complex128)
    return out


def stacked_columns(polys: list[PolynomialNonlinearity]) -> PolynomialNonlinearity:
    """One polynomial for rows whose polynomials have the same monomials.

    Unless the rows share one polynomial, each coefficient becomes the (b, 1)
    column of the rows' values, so that evaluating it on (b, m) samples
    evaluates row i under polys[i].  The result is only for that evaluation:
    its coefficients are not numbers.
    """
    first = polys[0]
    if all(P == first for P in polys):
        return first
    values = np.array([[c for _, c in P.terms] for P in polys])
    return PolynomialNonlinearity(
        tuple((idx, values[:, t, None]) for t, (idx, _) in enumerate(first.terms))
    )


_PLAN_MONOMIALS = st.lists(st.tuples(*(st.integers(0, 3),) * 4), max_size=5, unique=True)
_PLAN_COEFF = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _plan_case(draw):
    """(P, b, extra): P over b rows, a stacked polynomial of b rows' coefficients or one
    polynomial; ``extra`` more rows in the buffers the samples and values are views of."""
    monomials = draw(st.one_of(st.just([(0, 0, 0, 0)]), _PLAN_MONOMIALS))  # constant only, or any
    b = draw(st.integers(1, 4))
    if draw(st.booleans()):  # stacked (b, 1) coefficient columns
        P = stacked_columns([
            PolynomialNonlinearity.from_terms({idx: draw(_PLAN_COEFF) for idx in monomials})
            for _ in range(b)
        ])
    else:
        P = PolynomialNonlinearity.from_terms({idx: draw(_PLAN_COEFF) for idx in monomials})
    return P, b, draw(st.integers(0, 3))


@given(case=_plan_case(), m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example((PolynomialNonlinearity.zero(), 2, 1), 5, 0)  # the zero polynomial
@example((cubic(1j) + PolynomialNonlinearity.from_terms({(0, 0, 0, 0): 0.5}), 1, 0), 3, 0)
@example((stacked_columns([example_d(1.0, 2.0), example_d(1j, -0.5)]), 2, 2), 16, 0)
@settings(max_examples=150, deadline=None)
def test_values_plan_matches_fresh_allocation_oracle(case, m, seed):
    P, b, extra = case
    rows = b + extra
    p0 = extra // 2  # the view's first row
    buf = np.zeros((2 * rows, m), dtype=np.complex128)  # u rows, then u_x rows
    u_vals, du_vals = buf[p0 : p0 + b], buf[rows + p0 : rows + p0 + b]
    values = np.full((rows, m), 7.0 + 7.0j)
    plan = P.values_plan(u_vals, du_vals, values[p0 : p0 + b])
    rng = np.random.default_rng(seed)
    for _ in range(3):  # the plan's arrays carry over from one call to the next
        buf[...] = _random_coeffs(rng, buf.shape)
        plan()
        want = oracle_evaluate_values(P, u_vals, du_vals)
        assert want.shape == (b, m)
        assert values[p0 : p0 + b].tobytes() == want.tobytes()
        assert P.evaluate_values(u_vals, du_vals).tobytes() == want.tobytes()
        # rows outside the view are not written
        assert np.all(values[:p0] == 7.0 + 7.0j) and np.all(values[p0 + b :] == 7.0 + 7.0j)


def oracle_coefficient_map(F: PolynomialNonlinearity, cutoff: int, out_cutoff: int | None = None):
    """`F.coefficient_map(cutoff, out_cutoff)` with fresh transform outputs on every call.

    The padded grid and the derivative multiplier are built once per map;
    each call samples u and u_x with `_numpy_samples` and reads F's modes
    with `_numpy_coefficients`, numpy's transforms on the padded grid or on
    its two interleaved half grids, each into fresh arrays.
    """
    band = max(F.total_degree, 1) * cutoff
    kout = band if out_cutoff is None else min(out_cutoff, band)
    if F.is_zero():
        return lambda coeffs: np.zeros(2 * kout + 1, dtype=np.complex128)
    m = padded_size(cutoff, band, kout)
    ik = 1j * np.arange(-cutoff, cutoff + 1).astype(float)

    def apply(coeffs: np.ndarray) -> np.ndarray:
        vals = oracle_evaluate_values(F, _numpy_samples(coeffs, m), _numpy_samples(coeffs * ik, m))
        return _numpy_coefficients(vals, kout)

    return apply


def oracle_rows_coefficient_map(polys: list[PolynomialNonlinearity], cutoffs: list[int]):
    """`coefficient_map(k, k)` for a block of rows, row j under polys[j] at k = cutoffs[j].

    The returned function takes a (B, 2*n+1) array of coefficients, n at
    least every cutoff, with each row's 2k+1 modes centred in its row, and
    returns the coefficients of each row's polynomial along that row in the
    same layout, each row's window bitwise equal to the one-row map and the
    columns outside it zero.  Adjacent rows of one cutoff whose polynomials
    need the same padded grid share the transforms: one inverse transform of
    a (2b, m) buffer holding the u rows and then the u_x rows, and one
    forward transform of (b, m); on two half grids (`_half_grids`) each row
    goes through `_numpy_samples` and `_numpy_coefficients` instead.
    Adjacent rows of such a group whose polynomials have the same monomials
    also share one evaluation of F
    (`oracle_evaluate_values`), through one polynomial whose differing coefficients are (b, 1)
    columns of the rows' values (the coefficient stays the left operand of
    each product, which keeps every row bitwise equal to its own call).
    Callers order the rows so that such rows are adjacent; any order is
    correct.  Rows move in and out of the grid through the two contiguous
    runs k >= 0 and k < 0 that wrap to the two ends of the grid, which is
    cheaper than a 2-D scatter.  Not for concurrent use, like coefficient_map.
    """
    def grid(j):
        P, k = polys[j], cutoffs[j]
        return None if P.is_zero() else (k, padded_size(k, max(P.total_degree, 1) * k, k))

    groups = []  # (first row, end row, k, m, i*k, buffer, [(first, end, polynomial) in the group])
    for key, rows in groupby(range(len(polys)), key=grid):
        if key is None:
            continue
        rows = list(rows)
        r0, r1 = rows[0], rows[-1] + 1
        runs = []
        for _, same in groupby(rows, key=lambda j: [idx for idx, _ in polys[j].terms]):
            same = list(same)
            runs.append((same[0] - r0, same[-1] + 1 - r0, stacked_columns([polys[j] for j in same])))
        k, m = key
        ik = 1j * np.arange(-k, k + 1).astype(float)
        # Only the two runs of modes are ever written, so the rest stays zero.
        groups.append((r0, r1, k, m, ik, np.zeros((2 * (r1 - r0), m), dtype=np.complex128), runs))

    def apply(coeffs: np.ndarray) -> np.ndarray:
        out = np.zeros(coeffs.shape, dtype=np.complex128)
        n = coeffs.shape[1] // 2
        for r0, r1, k, m, ik, buf, runs in groups:
            b = r1 - r0
            if _half_grids(m, k):  # row by row on the two half grids
                u = coeffs[r0:r1, n - k : n + k + 1]
                vals = np.array([_numpy_samples(c, m) for c in np.concatenate((u, u * ik))])
            else:
                buf[:b, : k + 1] = coeffs[r0:r1, n : n + k + 1]
                buf[:b, m - k :] = coeffs[r0:r1, n - k : n]
                np.multiply(buf[:b, : k + 1], ik[k:], out=buf[b:, : k + 1])
                np.multiply(buf[:b, m - k :], ik[:k], out=buf[b:, m - k :])
                vals = np.fft.ifft(buf, norm="forward")
            if len(runs) == 1:
                f = oracle_evaluate_values(runs[0][2], vals[:b], vals[b:])
            else:
                f = np.concatenate([
                    oracle_evaluate_values(P, vals[p0:p1], vals[b + p0 : b + p1])
                    for p0, p1, P in runs
                ])
            if _half_grids(m, k):
                out[r0:r1, n - k : n + k + 1] = [_numpy_coefficients(row, k) for row in f]
                continue
            h = np.fft.fft(f, norm="forward")
            out[r0:r1, n - k : n] = h[:, m - k :]
            out[r0:r1, n : n + k + 1] = h[:, : k + 1]
        return out

    return apply


_ROW_MONOMIALS = [
    (),  # zero
    ((0, 0, 0, 0),),  # constant only
    ((1, 0, 0, 0),),  # diagonal linear
    ((1, 0, 0, 0), (0, 1, 0, 0)),
    ((1, 1, 0, 0),),  # degree 2
    ((0, 0, 0, 0), (2, 0, 0, 0), (0, 0, 1, 1)),
    ((2, 0, 1, 0),),  # degree 3
    ((0, 2, 1, 0), (1, 1, 0, 1)),
    ((0, 0, 0, 1), (1, 1, 1, 0), (2, 0, 0, 1)),
]


@st.composite
def _map_row(draw):
    """(F, cutoff): F from a few monomial sets with coefficients from a few values,
    so that rows often share a cutoff, a grid, monomials or the whole polynomial."""
    coeff = st.sampled_from([1.0, -0.5, 1j, 2.0 - 1j])
    monomials = draw(st.sampled_from(_ROW_MONOMIALS))
    F = PolynomialNonlinearity.from_terms({idx: draw(coeff) for idx in monomials})
    return F, draw(st.one_of(st.sampled_from([1, 7, 40]), st.integers(1, 40)))


@st.composite
def _map_case(draw):
    """(F, cutoff, out_cutoff): out_cutoff None, inside the product band or beyond it."""
    F, cutoff = draw(_map_row())
    band = max(F.total_degree, 1) * cutoff
    return F, cutoff, draw(st.one_of(st.none(), st.integers(0, band - 1), st.integers(band + 1, 2 * band + 5)))


def _random_coeffs(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@given(case=_map_case(), seed=st.integers(0, 2**32 - 1))
@example((example_d(1.0, 2.0), 4, 4), 0)  # a power-of-two grid (32 points)
@example((example_d(1.0, 2.0), 40, 40), 0)  # a 5-smooth grid (162 points)
@example((PolynomialNonlinearity.zero(), 3, None), 0)
@example((example_d(1.0, 2.0), 2048, 2048), 0)  # one row on 8640 points: half grids both ways
@example((example_d(1.0, 2.0), 2048, None), 0)  # on 12500: the inverse only on half grids
@settings(max_examples=150, deadline=None)
def test_coefficient_map_matches_fresh_allocation_oracle(case, seed):
    F, cutoff, out_cutoff = case
    fmap, oracle = F.coefficient_map(cutoff, out_cutoff), oracle_coefficient_map(F, cutoff, out_cutoff)
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(3):  # the map's arrays carry over from one call to the next
        coeffs = _random_coeffs(rng, 2 * cutoff + 1)
        got, want = fmap(coeffs), oracle(coeffs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        results.append((got, want))
    for got, want in results:  # a later call leaves an earlier result alone
        assert got.tobytes() == want.tobytes()


@given(
    rows=st.lists(_map_row(), min_size=1, max_size=8),
    extra=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example([(example_d(1.0, 2.0), 9), (example_d(1j, 2.0), 9), (cubic(1j), 4)], 3, 0)
@example([(PolynomialNonlinearity.zero(), 5)], 0, 0)
@example([(example_d(1.0, 2.0), 1100), (example_d(1j, 2.0), 1100)], 0, 0)  # a (2, 2, 2, 2250) buffer
@example([(example_d(1.0, 2.0), 1100)], 0, 0)  # one row on 4500 points: half grids
# one monomial set with differing coefficients at two cutoffs: one run on two grids
@example([(example_d(1.0, 2.0), 5), (example_d(1j, -0.5), 9)], 0, 0)
# and with a zero polynomial between the two rows
@example([(example_d(1.0, 2.0), 5), (PolynomialNonlinearity.zero(), 7), (example_d(1j, -0.5), 9)], 1, 0)
# a one-row group on half grids after a small row of the same monomials
@example([(example_d(1j, 2.0), 4), (example_d(1.0, 2.0), 1100)], 0, 0)
# two groups of one monomial set past one stage's samples (810 + 1620 points a row)
@example([(example_d(1.0, 2.0), 200), (example_d(1j, 2.0), 200), (example_d(1.0, 2.0), 400),
          (example_d(1j, 2.0), 400)], 0, 0)
@settings(max_examples=120, deadline=None)
def test_rows_map_matches_per_group_oracle(rows, extra, seed):
    polys, cutoffs = (list(v) for v in zip(*rows))
    n = max(cutoffs) + extra  # wider than every row, as after the widest row left the block
    plan = _rows_coefficient_map(polys, cutoffs, n)
    oracle = oracle_rows_coefficient_map(polys, cutoffs)
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(2):  # the plan's buffers carry over from one call to the next
        coeffs = _random_coeffs(rng, (len(rows), 2 * n + 1))
        got, want = plan(coeffs), oracle(coeffs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        out = np.full_like(want, np.nan)
        assert plan(coeffs, out=out) is out and out.tobytes() == want.tobytes()
        results.append((got, want))
    first, want = results[0]  # the second call leaves the first result alone
    assert first.tobytes() == want.tobytes()


@st.composite
def _map_block(draw):
    """(rows, kout): rows as for `_map_row` and one output cutoff within every row's band."""
    rows = draw(st.lists(_map_row(), min_size=1, max_size=6))
    return rows, draw(st.integers(0, min(max(P.total_degree, 1) * k for P, k in rows)))


@given(case=_map_block(), seed=st.integers(0, 2**32 - 1))
@example(([(example_d(1.0, 2.0), 9), (example_d(1j, 2.0), 9), (cubic(1j), 9)], 4), 0)
# two rows of two monomial sets on 8640 points: half grids both ways
@example(([(example_d(1.0, 2.0), 2048), (cubic(1j), 2048)], 2048), 0)
# the inverse on one 4500-point grid, the forward transform on its half grids
@example(([(PolynomialNonlinearity.from_terms({(1, 1, 0, 0): 1.0}), 2200)], 0), 0)
@example(([(example_d(1.0, 2.0), 9), (PolynomialNonlinearity.zero(), 3), (cubic(1j), 5)], 3), 0)
@settings(max_examples=60, deadline=None)
def test_rows_map_with_output_cutoffs_matches_one_row_oracle(case, seed):
    rows, kout = case
    polys, cutoffs = (list(v) for v in zip(*rows))
    n = max(cutoffs)
    plan = _rows_coefficient_map(polys, cutoffs, n, kout)
    coeffs = _random_coeffs(np.random.default_rng(seed), (len(rows), 2 * n + 1))
    got = plan(coeffs)
    assert got.shape == (len(rows), 2 * kout + 1)
    for j, (P, k) in enumerate(rows):
        want = oracle_coefficient_map(P, k, kout)(coeffs[j, n - k : n + k + 1])
        assert got[j].tobytes() == want.tobytes()


def test_plan_transform_calls(monkeypatch):
    """The plan's transforms, seen at the pocketfft gufuncs that `spectral` looks
    up at each call.  Below 4320 points the example_d(1, i) probe block at
    K = 32 (F and its control, at K and 2K) makes one inverse transform of the
    (2, b, m) u and u_x rows of each grid and one forward transform of each
    (b, m); a one-row K = 2048 RHS makes one inverse and one forward transform,
    both on the 8640-point grid's two 4320-point halves."""
    from fnlslab import spectral

    calls = []

    def spy(name):
        transform = getattr(spectral._pocketfft, name)

        def wrapper(a, fct, out):
            calls.append((name, a.shape, out.shape))
            return transform(a, fct, out=out)

        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(spectral._pocketfft, name, spy(name))
    F, control = example_d(1.0, 1j), example_d(1.0, 2.0)
    probe = _rows_coefficient_map([F, control, F, control], [32, 32, 64, 64], 64)
    probe(_random_coeffs(np.random.default_rng(0), (4, 129)))
    assert calls == [
        ("ifft", (2, 2, 135), (2, 2, 135)),
        ("ifft", (2, 2, 270), (2, 2, 270)),
        ("fft", (2, 135), (2, 135)),
        ("fft", (2, 270), (2, 270)),
    ]
    calls.clear()
    control.coefficient_map(2048, 2048)(_random_coeffs(np.random.default_rng(1), 4097))
    assert calls == [("ifft", (2, 1, 2, 4320), (2, 1, 2, 4320)), ("fft", (1, 2, 4320), (1, 2, 4320))]


@given(
    terms=st.dictionaries(_EXPONENTS, st.complex_numbers(max_magnitude=10.0), min_size=1, max_size=6),
    cutoff=st.integers(1, 64),
    out=st.sampled_from(["zero", "cutoff", "band"]),
    seed=st.integers(0, 2**32 - 1),
)
@example({(1, 1, 0, 0): 1.0, (2, 0, 1, 0): 1j}, 2048, "cutoff", 0)  # 8640 points: u and u_x in one half-grid call
@settings(max_examples=60, deadline=None)
def test_evaluate_is_bitwise_the_sampler_path(terms, cutoff, out, seed):
    """The plan and `spectral`'s sampler and inverse give F along u with the same bits."""
    F = PolynomialNonlinearity.from_terms(terms)
    band = max(F.total_degree, 1) * cutoff
    kout = {"zero": 0, "cutoff": cutoff, "band": band}[out]
    m = padded_size(cutoff, band, kout)
    u = SpectralField(_random_coeffs(np.random.default_rng(seed), 2 * cutoff + 1), cutoff)
    want = _coefficients(F.evaluate_values(*_jet_samples(u.coeffs[None], m)), kout)[0]
    assert F.evaluate(u, out_cutoff=kout).coeffs.tobytes() == want.tobytes()


def test_linear_evaluate_to_narrow_output_regression():
    # degree one: the product band K fits a grid too small to hold u's samples
    u = random_field(8, 1.0, np.random.default_rng(5))
    mean = linear_transport(1j).evaluate(u, out_cutoff=0)
    assert mean.cutoff == 0 and abs(mean.coefficient(0)) < 1e-14  # mean of i u_x
    full = linear_transport(1j).evaluate(u)
    assert sobolev_norm(full - 1j * derivative(u)) < 1e-13


# -- text format and presets --------------------------------------------------------------


def test_text_format_round_trip():
    F = PolynomialNonlinearity.from_terms(
        {(1, 1, 1, 0): 2j, (2, 0, 0, 1): 1j, (0, 1, 0, 0): -0.25}
    )
    G = parse_nonlinearity(format_nonlinearity(F))
    assert G.as_dict() == F.as_dict()


def test_parse_accumulates_and_skips_comments():
    text = "# derivative cubic\n1 1 1 0 0 1\n1 1 1 0 0 1\n\n2 0 0 1 0 1\n"
    F = parse_nonlinearity(text)
    assert F.as_dict() == {(1, 1, 1, 0): 2j, (2, 0, 0, 1): 1j}
    with pytest.raises(ValueError):
        parse_nonlinearity("1 2 3\n")


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=20, deadline=None)
def test_total_degree_and_zero_pruning(a, b, c):
    F = PolynomialNonlinearity.from_terms({(a, b, c, 0): 1.0, (0, 0, 0, 1): 0.0})
    assert F.total_degree == a + b + c
    assert (0, 0, 0, 1) not in F.as_dict()
