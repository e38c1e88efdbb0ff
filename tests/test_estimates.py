"""Inequality stress lab: ratio definitions, ensembles, cancellation structure."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fnlslab import spectral
from fnlslab.estimates import (
    DEFAULT_EPS,
    ESTIMATE_NAMES,
    EnsembleSpec,
    RatioReport,
    _bilinear_ratios,
    _commutator_brackets,
    _commutator_ratios,
    _lacunary_field,
    _refined_commutator_ratios,
    _refined_commutators,
    _separated_pair,
    bounded_constant_check,
    cancellation_exponent,
    refined_commutator,
    run_ensemble,
    write_ratio_csv,
)
from fnlslab.spectral import (
    SpectralField,
    bracket_power,
    derivative,
    pointwise_product,
    random_field,
    sobolev_norm,
)


def one_row(block_fn, *args):
    """The row of block_fn on one-row blocks, the coefficients of each field in args."""
    return block_fn(*(a.coeffs[None] if isinstance(a, SpectralField) else a for a in args))[0]


def commutator_bracket(s, f, g):
    """[<D>^s, f] g_x as a field: the one-row call of `_commutator_brackets`."""
    return SpectralField(one_row(_commutator_brackets, s, f, g), f.cutoff + g.cutoff)


def test_bilinear_ratio_constants():
    one = SpectralField.constant(1.0)
    assert one_row(_bilinear_ratios, 0.0, 1.0, 1.0, one, one) == pytest.approx(1.0)


def test_bilinear_ratio_opposite_modes():
    f = SpectralField.from_modes({1: 1.0}, 1)
    g = SpectralField.from_modes({-1: 1.0}, 1)
    # fg = 1, each factor has H^1 norm sqrt(2): ratio 1/2
    assert one_row(_bilinear_ratios, 0.0, 1.0, 1.0, f, g) == pytest.approx(0.5)


def test_bilinear_hypotheses_enforced():
    f = SpectralField.constant(1.0)
    with pytest.raises(ValueError):
        one_row(_bilinear_ratios, 0.0, 0.2, 0.2, f, f)  # total below 1/2 on both branches
    with pytest.raises(ValueError):
        one_row(_bilinear_ratios, 2.0, -1.5, 1.0, f, f)  # min pair sum negative
    # exact total 1/2 is allowed when every pair sum is strictly positive
    one_row(_bilinear_ratios, 0.0, 0.25, 0.25, f, f)
    # zero fields: 0/0 -> 0
    assert one_row(_bilinear_ratios, 0.0, 1.0, 1.0, SpectralField.zeros(2), f) == 0.0


def test_commutator_trivial_cases():
    rng = np.random.default_rng(0)
    f = random_field(8, 1.0, rng)
    g = random_field(8, 1.0, rng)
    assert sobolev_norm(commutator_bracket(0.0, f, g)) < 1e-13
    c = SpectralField.constant(2.0 - 1j, cutoff=4)
    assert sobolev_norm(commutator_bracket(1.7, c, g)) < 1e-12


def test_refined_commutator_trivial_cases():
    rng = np.random.default_rng(1)
    g = random_field(8, 1.0, rng)
    c = SpectralField.constant(3.0, cutoff=4)
    assert sobolev_norm(refined_commutator(2.5, c, g)) < 1e-12
    f = random_field(8, 1.0, rng)
    assert sobolev_norm(refined_commutator(2.5, f, SpectralField.zeros(8))) == 0.0


def test_commutators_bilinear_in_inputs():
    rng = np.random.default_rng(2)
    f1, f2 = random_field(6, 1.0, rng), random_field(6, 1.0, rng)
    g = random_field(6, 1.0, rng)
    a, b = 1.3 - 0.2j, -0.7j
    for op, s in ((commutator_bracket, 1.3), (refined_commutator, 2.4)):
        lhs = op(s, a * f1 + b * f2, g)
        rhs = a * op(s, f1, g) + b * op(s, f2, g)
        assert sobolev_norm(lhs - rhs) < 1e-12
        lhs = op(s, g, a * f1 + b * f2)
        rhs = a * op(s, g, f1) + b * op(s, g, f2)
        assert sobolev_norm(lhs - rhs) < 1e-12


def test_refined_commutator_s2_reduction():
    # At s = 2 the bracket is 1 - d^2/dx^2 and the operator collapses to -(f'') g.
    rng = np.random.default_rng(3)
    f = random_field(10, 1.5, rng)
    g = random_field(10, 1.5, rng)
    lhs = refined_commutator(2.0, f, g)
    rhs = pointwise_product(-1.0 * derivative(derivative(f)), g, out_cutoff=20)
    assert sobolev_norm(lhs - rhs) < 1e-10


@pytest.mark.parametrize(
    "op,params",
    [
        ("bilinear", {"s0": 0.0, "s1": 1.0, "s2": 1.0}),
        ("commutator", {"s": 1.0}),
        ("commutator", {"s": -1.0}),
        ("refined_commutator", {"s": 2.25}),
    ],
)
def test_ensembles_bounded(op, params):
    spec = EnsembleSpec(cutoffs=(16, 32, 64, 128, 256), samples_per_cutoff=6, seed=0)
    rep = run_ensemble(op, spec, **params)
    ok, worst_growth, slope = bounded_constant_check(rep)
    print(f"{op} {params}: growth={worst_growth:.3f} slope={slope:.4f}")
    assert ok, (worst_growth, slope)
    assert np.all(rep.max_ratio >= 0) and np.all(np.isfinite(rep.max_ratio))


def test_single_sample_report_is_the_single_ratio():
    spec = EnsembleSpec(cutoffs=(16,), samples_per_cutoff=1, seed=5, adversarial=False)
    rep = run_ensemble("bilinear", spec, s0=0.0, s1=1.0, s2=1.0)
    rng = np.random.default_rng(5)
    f = random_field(16, spec.decay, rng)
    g = random_field(16, spec.decay, rng)
    expect = one_row(_bilinear_ratios, 0.0, 1.0, 1.0, f, g)
    assert rep.max_ratio[0] == pytest.approx(expect)
    assert rep.median_ratio[0] == pytest.approx(expect)


def test_reports_deterministic():
    spec = EnsembleSpec(cutoffs=(16, 32), samples_per_cutoff=3, seed=11)
    a = run_ensemble("commutator", spec, s=1.0)
    b = run_ensemble("commutator", spec, s=1.0)
    assert np.array_equal(a.max_ratio, b.max_ratio)
    assert np.array_equal(a.median_ratio, b.median_ratio)


def test_separated_family_cancellation_exponent():
    # ||R_f^s(e^{iKx})|| grows like K^{s-2}: second-order cancellation.
    for s in (2.25, 3.0):
        expo = cancellation_exponent(s)
        print(f"s={s}: exponent {expo:.4f}")
        assert expo <= s - 2.0 + 0.2
        assert expo >= s - 2.0 - 0.5  # and not absurdly small


def test_refined_ratio_requires_s_above_two():
    rng = np.random.default_rng(4)
    f = random_field(6, 1.0, rng)
    with pytest.raises(ValueError):
        one_row(_refined_commutator_ratios, 1.5, DEFAULT_EPS, f, f)


def test_ratio_csv(tmp_path):
    spec = EnsembleSpec(cutoffs=(8, 16), samples_per_cutoff=2, seed=0)
    reps = [run_ensemble("bilinear", spec, s0=0.0, s1=1.0, s2=1.0)]
    path = tmp_path / "ratios.csv"
    write_ratio_csv(reps, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "estimate,cutoff,max_ratio,median_ratio,growth_factor"
    assert len(lines) == 3


def test_spec_rejects_cutoffs_its_pairs_cannot_hold():
    # A separated pair's f has its low mode in {1, 2, 3}: cutoff 2 held it
    # for some seeds only, so the spec is rejected whatever the seed.
    for seed in range(20):
        with pytest.raises(ValueError, match="adversarial"):
            EnsembleSpec(cutoffs=(2, 4), samples_per_cutoff=2, seed=seed)
        with pytest.raises(ValueError, match="adversarial"):
            EnsembleSpec(cutoffs=(0, 4), samples_per_cutoff=2, seed=seed)
        spec = EnsembleSpec(cutoffs=(3, 4), samples_per_cutoff=2, seed=seed)
        rep = run_ensemble("bilinear", spec, s0=0.0, s1=1.0, s2=1.0)
        assert np.all(np.isfinite(rep.max_ratio))
    with pytest.raises(ValueError, match="empty"):
        EnsembleSpec(cutoffs=())
    with pytest.raises(ValueError, match=">= 0"):
        EnsembleSpec(cutoffs=(-1, 4), adversarial=False)
    rep = run_ensemble("commutator", EnsembleSpec(cutoffs=(0, 2), adversarial=False), s=1.0)
    assert rep.max_ratio.shape == (2,)


# -- the per-pair oracle: the ensemble as it ran before it ran in blocks -------


def oracle_bilinear_ratio(s0, s1, s2, f, g):
    mn = min(s0 + s1, s1 + s2, s2 + s0)
    total = s0 + s1 + s2
    if not ((mn >= 0 and total > 0.5) or (mn > 0 and total >= 0.5)):
        raise ValueError(
            f"(s0,s1,s2)=({s0},{s1},{s2}) violates the bilinear hypotheses"
        )
    denom = sobolev_norm(f, s1) * sobolev_norm(g, s2)
    if denom == 0.0:
        return 0.0
    prod = pointwise_product(f, g, out_cutoff=f.cutoff + g.cutoff)
    return sobolev_norm(prod, -s0) / denom


def oracle_commutator_bracket(s, f, g):
    gx = derivative(g)
    full = f.cutoff + g.cutoff
    lhs = bracket_power(pointwise_product(f, gx, out_cutoff=full), s)
    rhs = pointwise_product(f, bracket_power(gx, s), out_cutoff=full)
    return lhs - rhs


def oracle_refined_commutator(s, f, g):
    full = f.cutoff + g.cutoff
    t1 = bracket_power(pointwise_product(f, g, out_cutoff=full), s)
    t2 = pointwise_product(f, bracket_power(g, s), out_cutoff=full)
    t3 = pointwise_product(
        derivative(f), bracket_power(derivative(g), s - 2.0), out_cutoff=full
    )
    return t1 - t2 + s * t3


def oracle_commutator_ratio(s, f, g, eps=DEFAULT_EPS):
    num = sobolev_norm(oracle_commutator_bracket(s, f, g), 0.0)
    if s >= 0:
        denom = sobolev_norm(f, 1.5 + eps) * sobolev_norm(g, s) + sobolev_norm(
            f, s
        ) * sobolev_norm(g, 1.5 + eps)
    else:
        denom = sobolev_norm(f, 1.5 + eps) * sobolev_norm(g, 0.0)
    return num / denom if denom > 0 else 0.0


def oracle_refined_commutator_ratio(s, f, g, eps=DEFAULT_EPS):
    if not s > 2:
        raise ValueError("the refined commutator bound needs s > 2")
    num = sobolev_norm(oracle_refined_commutator(s, f, g), 0.0)
    denom = sobolev_norm(f, max(s, 2.5 + eps)) * sobolev_norm(
        g, min(s - 2.0, 0.5 + eps)
    ) + sobolev_norm(f, 2.5 + eps) * sobolev_norm(g, s - 2.0)
    return num / denom if denom > 0 else 0.0


def _oracle_sample_pairs(cutoff, spec, rng):
    for _ in range(spec.samples_per_cutoff):
        yield (
            random_field(cutoff, spec.decay, rng),
            random_field(cutoff, spec.decay, rng),
        )
    if spec.adversarial:
        yield _lacunary_field(cutoff, rng), _lacunary_field(cutoff, rng)
        yield _separated_pair(cutoff, rng)


def oracle_run_ensemble(op, spec, **params):
    if op not in ESTIMATE_NAMES:
        raise ValueError(f"unknown estimate {op!r}")
    rng = np.random.default_rng(spec.seed)
    maxr, medr = [], []
    for cutoff in spec.cutoffs:
        ratios = []
        for f, g in _oracle_sample_pairs(cutoff, spec, rng):
            if op == "bilinear":
                ratios.append(
                    oracle_bilinear_ratio(params["s0"], params["s1"], params["s2"], f, g)
                )
            elif op == "commutator":
                ratios.append(
                    oracle_commutator_ratio(params["s"], f, g, params.get("eps", DEFAULT_EPS))
                )
            else:
                ratios.append(
                    oracle_refined_commutator_ratio(
                        params["s"], f, g, params.get("eps", DEFAULT_EPS)
                    )
                )
        ratios = np.asarray(ratios)
        maxr.append(float(np.max(ratios)))
        medr.append(float(np.median(ratios)))
    maxr = np.asarray(maxr)
    medr = np.asarray(medr)
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = maxr[1:] / maxr[:-1]
    return RatioReport(op, dict(params), tuple(spec.cutoffs), maxr, medr, growth)


JOBS = [  # run_estimates' four jobs, then other exponents and an explicit eps
    ("bilinear", {"s0": 0.0, "s1": 1.0, "s2": 1.0}),
    ("commutator", {"s": 1.0}),
    ("commutator", {"s": -1.0}),
    ("refined_commutator", {"s": 2.25}),
    ("bilinear", {"s0": 0.3, "s1": 0.7, "s2": 0.2}),
    ("commutator", {"s": 0.5, "eps": 0.3}),
    ("refined_commutator", {"s": 3.5, "eps": 0.05}),
]


@given(
    st.sampled_from(JOBS),
    st.lists(st.integers(3, 64), min_size=1, max_size=4, unique=True).map(sorted),
    st.integers(1, 4),
    st.booleans(),
    st.floats(0.5, 3.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from([spectral._BLOCK_POINTS, 500, 1]),  # 1: a block per pair
)
@example(JOBS[3], [16, 32, 64, 128, 256], 6, True, 2.0, 0, spectral._BLOCK_POINTS)
@settings(max_examples=60, deadline=None)
def test_ensemble_is_bitwise_the_per_pair_oracle(
    job, cutoffs, samples, adversarial, decay, seed, block_points
):
    op, params = job
    spec = EnsembleSpec(tuple(cutoffs), samples, decay, seed, adversarial)
    kept, spectral._BLOCK_POINTS = spectral._BLOCK_POINTS, block_points
    try:
        got = run_ensemble(op, spec, **params)
    finally:
        spectral._BLOCK_POINTS = kept
    want = oracle_run_ensemble(op, spec, **params)
    for field in ("max_ratio", "median_ratio", "growth_factors"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), field


@pytest.mark.parametrize("kf,kg", [(1, 16), (1, 256), (5, 2), (0, 7), (9, 0)])
def test_pair_functions_are_the_block_rows_at_unequal_cutoffs(kf, kg):
    # cancellation_exponent pairs f at cutoff 1 with g at cutoff K; the last
    # row of each block is a zero f against a nonzero g (0/0 -> 0).
    rng = np.random.default_rng(kf + 100 * kg)
    fs = [random_field(kf, 1.0, rng) for _ in range(3)] + [SpectralField.zeros(kf)]
    gs = [random_field(kg, 1.5, rng) for _ in range(4)]
    f, g = np.stack([a.coeffs for a in fs]), np.stack([b.coeffs for b in gs])
    blocks = [
        (_commutator_brackets(1.3, f, g), commutator_bracket, oracle_commutator_bracket, 1.3),
        (_refined_commutators(2.4, f, g), refined_commutator, oracle_refined_commutator, 2.4),
    ]
    for block, pair_fn, oracle_fn, s in blocks:
        for row, fi, gi in zip(block, fs, gs):
            one = pair_fn(s, fi, gi)
            assert one.cutoff == kf + kg
            assert one.coeffs.tobytes() == row.tobytes()
            assert one.coeffs.tobytes() == oracle_fn(s, fi, gi).coeffs.tobytes()
    ratios = [
        (_bilinear_ratios, (0.0, 1.0, 1.0), oracle_bilinear_ratio, (0.0, 1.0, 1.0),
         _bilinear_ratios(0.0, 1.0, 1.0, f, g)),
        (_commutator_ratios, (1.2, DEFAULT_EPS), oracle_commutator_ratio, (1.2,),
         _commutator_ratios(1.2, DEFAULT_EPS, f, g)),
        (_commutator_ratios, (-0.4, DEFAULT_EPS), oracle_commutator_ratio, (-0.4,),
         _commutator_ratios(-0.4, DEFAULT_EPS, f, g)),
        (_refined_commutator_ratios, (2.6, DEFAULT_EPS), oracle_refined_commutator_ratio, (2.6,),
         _refined_commutator_ratios(2.6, DEFAULT_EPS, f, g)),
    ]
    for block_fn, params, oracle_fn, oracle_params, block in ratios:
        assert block[-1] == 0.0
        one = np.array([one_row(block_fn, *params, a, b) for a, b in zip(fs, gs)])
        want = np.array([oracle_fn(*oracle_params, a, b) for a, b in zip(fs, gs)])
        assert np.array_equal(block.view(np.uint64), one.view(np.uint64))
        assert np.array_equal(block.view(np.uint64), want.view(np.uint64))


def test_pair_functions_of_zero_fields_read_zero():
    z, f = SpectralField.zeros(4), random_field(4, 1.0, np.random.default_rng(6))
    for a, b in ((z, z), (z, f), (f, z)):
        assert one_row(_bilinear_ratios, 0.0, 1.0, 1.0, a, b) == 0.0
        assert one_row(_commutator_ratios, 1.0, DEFAULT_EPS, a, b) == 0.0
        assert one_row(_commutator_ratios, -1.0, DEFAULT_EPS, a, b) == 0.0
        assert one_row(_refined_commutator_ratios, 2.5, DEFAULT_EPS, a, b) == 0.0
