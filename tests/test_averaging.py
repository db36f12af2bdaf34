import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loravg import (
    AveragingKernel,
    DomainError,
    FunctionOnSpace,
    MetricMeasureSpace,
    NormSpec,
    average,
    distribution_constant,
    equicontinuity_modulus,
    extremal_pair_function,
    lebesgue_norm,
    pointwise_bound,
    sample_unit_sphere,
    verify_distribution_inequality,
    verify_operator_bound,
    verify_rearrangement_bound,
)
from loravg import averaging
from loravg import space as space_mod
from loravg.averaging import _threshold_grid, equicontinuity_bound_matrix, holds, threshold_sweep
from loravg.rearrange import distribution_function
from loravg.space import doubling_constant
from conftest import (matrix_cases, random_function, random_radius, random_space,
                      reference_distribution, reference_maximal_profile,
                      reference_rearrangement)


def test_average_examples():
    sp = MetricMeasureSpace.lattice(4)
    spike = FunctionOnSpace(sp, [0, 0, 3, 0, 0])
    assert np.allclose(average(sp, spike, 1.0).values, [0, 1, 1, 1, 0], atol=1e-15)

    const = FunctionOnSpace(sp, np.full(5, 2.5))
    assert np.allclose(average(sp, const, 1.0).values, 2.5, atol=1e-12)

    wsp = MetricMeasureSpace.from_matrix([[0, 1], [1, 0]], [1, 3])
    f = FunctionOnSpace(wsp, [4.0, 0.0])
    big = average(wsp, f, 10.0)
    assert np.allclose(big.values, 1.0)  # weighted mean 4*1/4


@settings(max_examples=200, deadline=None)
@given(matrix_cases(), st.sampled_from([1, 3, 40, 1 << 18]), st.booleans())
def test_matrix_kernel_blocks_match_the_full_product(case, block, columns):
    """A matrix space's kernel a block of rows at a time (one row per
    block up to all rows in one) against the whole product.  matrix_cases
    builds a new space per example, so no ball measures memoized under
    another block size stand in for the patched path."""
    sp, f, r = case
    values = np.column_stack((f.values, f.values[::-1])) if columns else f.values
    with mock.patch.object(space_mod, "_BLOCK_ENTRIES", block):
        kernel = AveragingKernel.build(sp, r)
        means = kernel.means(values)
    matrix = (sp.dist <= r) * sp.weights / kernel.ball_measures[:, None]
    atol = 1e-14 * max(np.abs(values).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(means, matrix @ values, rtol=0, atol=atol)


def test_kernel_matrix_has_the_ball_measures_as_its_one_normaliser(rng):
    """On both space forms the kernel matrix divides by the space's ball
    measures, the same normaliser as `means`."""
    forms = set()
    for _ in range(12):
        sp = random_space(rng)
        forms.add(sp.coords is None)
        r = random_radius(rng, sp)
        kernel = AveragingKernel.build(sp, r)
        assert kernel.ball_measures is sp.ball_measures(r)
        want = (sp.dist <= r) * sp.weights / kernel.ball_measures[:, None]
        coefficients = kernel.means(np.eye(sp.natoms))
        assert coefficients.tobytes() == want.tobytes()
        assert np.all(np.abs(coefficients.sum(axis=1) - 1.0) <= 1e-12)
    assert forms == {True, False}


def test_kernel_rows_and_positivity(rng):
    for _ in range(10):
        sp = random_space(rng)
        r = random_radius(rng, sp)
        kern = AveragingKernel.build(sp, r)
        coefficients = kern.means(np.eye(sp.natoms))
        assert np.all(coefficients >= 0)
        assert np.allclose(coefficients.sum(axis=1), 1.0, atol=1e-12)
        f = random_function(rng, sp)
        avg = kern.apply(f)
        avg_abs = kern.apply(abs(f))
        assert np.all(np.abs(avg.values) <= avg_abs.values + 1e-12)
        nonneg = abs(f)
        assert np.all(kern.apply(nonneg).values >= -1e-15)


def test_average_linearity(rng):
    sp = random_space(rng)
    r = random_radius(rng, sp)
    f, g = random_function(rng, sp), random_function(rng, sp)
    a, b = rng.uniform(-3, 3, 2)
    combo = average(sp, FunctionOnSpace(sp, a * f.values + b * g.values), r)
    split = a * average(sp, f, r).values + b * average(sp, g, r).values
    assert np.allclose(combo.values, split, atol=1e-12)


def test_pointwise_bound_values():
    sp = MetricMeasureSpace.lattice(100)
    # interior ball measure 3, alpha = sqrt(3): bound 1/sqrt(3)
    assert pointwise_bound(sp, 50, 1.0, NormSpec(2, 2)) == pytest.approx(1 / math.sqrt(3))
    one = MetricMeasureSpace.from_matrix([[0.0]], [4.0])
    # lambda * mu(X)^{-1/p}
    assert pointwise_bound(one, 0, 1.0, NormSpec(2, 2)) == pytest.approx(0.5)


def test_pointwise_bound_dominates_samples(rng):
    sp = MetricMeasureSpace.lattice(30)
    spec = NormSpec(2, 2)
    bounds = np.array([pointwise_bound(sp, x, 1.0, spec) for x in range(sp.natoms)])
    for f in sample_unit_sphere(sp, spec, 25, 11):
        avg = average(sp, f, 1.0)
        assert np.all(np.abs(avg.values) <= bounds * (1 + 1e-9))
    chi = FunctionOnSpace.indicator(sp, sp.ball_mask(7, 1.0))
    unit = chi * (1.0 / lebesgue_norm(chi, 2.0))
    assert abs(average(sp, unit, 1.0).values[7]) <= pointwise_bound(sp, 7, 1.0, spec)


def test_equicontinuity_modulus_values():
    sp = MetricMeasureSpace.lattice(100)
    spec = NormSpec(2, 2)
    b, e = equicontinuity_modulus(sp, 3, 3, 1.0, spec)
    assert b == 0.0 and e == 0.0
    # interior adjacent pair: equal ball measures, symm-diff measure 2,
    # bound = alpha({2 atoms}) / 3 = sqrt(2)/3, attained by the dual norm
    b, e = equicontinuity_modulus(sp, 50, 51, 1.0, spec)
    assert b == pytest.approx(math.sqrt(2) / 3)
    assert e == pytest.approx(math.sqrt(2) / 3)
    assert e <= b * (1 + 1e-12)
    # general Lorentz spec: only the bound
    b2, e2 = equicontinuity_modulus(sp, 50, 51, 1.0, NormSpec(3, 2))
    assert e2 is None and b2 > 0


def test_equicontinuity_bound_dominates(rng):
    sp = MetricMeasureSpace.lattice(40)
    spec = NormSpec(2, 2)
    bounds = equicontinuity_bound_matrix(sp, 1.0, spec)
    for x, y in [(0, 1), (5, 6), (20, 22), (0, 40)]:
        b, _ = equicontinuity_modulus(sp, x, y, 1.0, spec)
        assert bounds[x, y] == pytest.approx(b, rel=1e-12)
    for f in sample_unit_sphere(sp, spec, 20, 5):
        avg = average(sp, f, 1.0).values
        diff = np.abs(avg[:, None] - avg[None, :])
        off = ~np.eye(sp.natoms, dtype=bool)
        assert np.all(diff[off] <= bounds[off] * (1 + 1e-9))


@settings(max_examples=100, deadline=None)
@given(matrix_cases())
def test_equicontinuity_matrix_matches_pairwise_modulus(case):
    sp, _, r = case
    spec = NormSpec(2, 2)
    bounds = equicontinuity_bound_matrix(sp, r, spec)
    masks = sp.ball_masks(r)
    for x in range(sp.natoms):
        for y in range(sp.natoms):
            b, _ = equicontinuity_modulus(sp, x, y, r, spec)
            if np.array_equal(masks[x], masks[y]):
                assert bounds[x, y] == 0.0 == b
            else:
                assert bounds[x, y] == pytest.approx(b, rel=1e-12)


def test_extremal_attains_dual_norm(rng):
    sp = MetricMeasureSpace.lattice(60)
    for p in (2.0, 3.0):
        spec = NormSpec(p, p)
        for x, y in [(10, 11), (0, 1), (30, 33)]:
            bound, exact = equicontinuity_modulus(sp, x, y, 1.0, spec)
            f = extremal_pair_function(sp, x, y, 1.0, p)
            assert lebesgue_norm(f, p) == pytest.approx(1.0, rel=1e-12)
            avg = average(sp, f, 1.0).values
            assert abs(avg[x] - avg[y]) == pytest.approx(exact, abs=1e-9)
            assert exact <= bound * (1 + 1e-12)


def test_distribution_constant_lattice200():
    sp = MetricMeasureSpace.lattice(200)
    c, gammas = distribution_constant(sp, 1.0)
    assert gammas[0] == pytest.approx(5 / 3, rel=1e-15)
    assert gammas[1] == pytest.approx(9 / 5, rel=1e-15)
    assert gammas[2] == pytest.approx(17 / 9, rel=1e-15)
    assert c == pytest.approx(20 / 3, rel=1e-15)


def test_distribution_inequality_examples():
    sp = MetricMeasureSpace.lattice(200)
    zero = FunctionOnSpace(sp, np.zeros(201))
    rep = verify_distribution_inequality(sp, zero, 1.0, 0.5)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed

    for M in (1.0, 10.0, 1000.0):
        spike = FunctionOnSpace(sp, np.r_[M, np.zeros(200)])
        rep = verify_distribution_inequality(sp, spike, 1.0, M / 2)
        assert rep.passed
        assert rep.lhs <= 2.0  # 2 * w_0


def test_distribution_inequality_sweep(rng):
    for _ in range(25):
        sp = random_space(rng)
        f = random_function(rng, sp)
        r = random_radius(rng, sp)
        for t in threshold_sweep(f):
            assert verify_distribution_inequality(sp, f, r, float(t)).passed


def _reference_distribution(sp, f, r, t):
    """(c, lhs, rhs) at one threshold, with c and A_r f rebuilt for it."""
    g1, g2, g3 = (doubling_constant(sp, s) for s in (r, 2 * r, 4 * r))
    c = g1 * g2 * g3 + 1.0
    lhs = distribution_function(average(sp, f, r))(c * t)
    av = np.abs(f.values)
    above = av > t
    return c, lhs, float(np.sum(sp.weights[above] * av[above])) / t


@settings(max_examples=150, deadline=None)
@given(matrix_cases())
def test_distribution_grid_matches_per_threshold_loop(case):
    sp, f, r = case
    grid = threshold_sweep(f)
    if grid.size == 0:
        with pytest.raises(DomainError):
            verify_distribution_inequality(sp, f, r, grid)
        return
    rep = verify_distribution_inequality(sp, f, r, grid)
    singles = [verify_distribution_inequality(sp, f, r, float(t)) for t in grid]
    worst, worst_ratio = None, 0.0
    for i, (t, single) in enumerate(zip(grid, singles)):
        c, lhs, rhs = _reference_distribution(sp, f, r, t)
        assert single.constant_c == c and single.t == t
        assert single.lhs == lhs
        assert lhs == pytest.approx(reference_distribution(average(sp, f, r))(c * t),
                                    rel=1e-12, abs=0.0)
        assert single.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
        assert single.passed == holds(lhs, rhs)
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
        if ratio >= worst_ratio:
            worst, worst_ratio = i, ratio
    assert rep.passed == all(single.passed for single in singles)
    assert rep.t == grid[worst]
    assert (rep.lhs, rep.rhs) == (singles[worst].lhs, singles[worst].rhs)
    assert rep.ratio == pytest.approx(worst_ratio, rel=1e-12)


def test_distribution_report_names_a_failing_threshold(monkeypatch):
    sp = MetricMeasureSpace.lattice(20)
    f = FunctionOnSpace(sp, np.linspace(-1.0, 3.0, 21))
    monkeypatch.setattr(averaging, "distribution_constant",
                        lambda space, r: (0.05, (1.0, 1.0, 1.0)))
    rep = verify_distribution_inequality(sp, f, 1.0, threshold_sweep(f))
    assert not rep.passed
    assert not holds(rep.lhs, rep.rhs)


def test_threshold_sweep_covers_breakpoints():
    sp = MetricMeasureSpace.lattice(4)
    f = FunctionOnSpace(sp, [3, 1, 2, 0, -1])
    grid = threshold_sweep(f)
    for v in (1.0, 2.0, 3.0):
        assert v in grid
    assert grid[0] == 0.5 and grid[-1] == 6.0

    tiny = FunctionOnSpace(sp, [5e-324, 1e-200, 0, 1, 2])  # 5e-324 / 2 underflows to 0
    assert threshold_sweep(tiny)[0] == 5e-324
    with warnings.catch_warnings():  # the right side at t = 5e-324 is inf, silently
        warnings.simplefilter("error", RuntimeWarning)
        assert verify_distribution_inequality(sp, tiny, 1.0, threshold_sweep(tiny)).passed


@pytest.mark.parametrize("values", [[1.0, 1e200, 2e200], [1e-200, 2e-200, 1.0]])
def test_threshold_grid_probes_inside_every_step(values):
    """sqrt(a b) overflows on (1e200, 2e200) and underflows on
    (1e-200, 2e-200); every step still gets a finite positive probe."""
    grid = _threshold_grid(np.array(values))
    assert np.all(np.isfinite(grid)) and np.all(grid > 0)
    for a, b in zip(values, values[1:]):
        assert np.any((grid > a) & (grid < b))
    assert grid[0] == values[0] / 2 and grid[-1] == 2 * values[-1]
    top = _threshold_grid(np.array([1e308, 1.0]))
    assert top[-1] == np.finfo(float).max and np.all(np.isfinite(top))


def test_threshold_grid_keeps_the_geometric_midpoint_bits(rng):
    values = np.abs(rng.standard_normal(50)) * 10.0 ** rng.uniform(-100, 100, 50)
    vals = np.unique(values)
    grid = _threshold_grid(values)
    assert np.isin(np.sqrt(vals[:-1] * vals[1:]), grid).all()


def test_rearrangement_bound_matches_the_reference_views(rng):
    """Without tied |values| in f or A_r f, the profile lookups give the
    ratios of the step functions of the reference grouping on the same
    grid, up to rounding.  With ties, the measures sum in another order,
    and a grid point an ulp inside a step can move the ratio by more."""
    checked = 0
    for _ in range(100):
        sp = random_space(rng)
        f = FunctionOnSpace(sp, rng.standard_normal(sp.natoms))
        r = random_radius(rng, sp)
        avg = average(sp, f, r)
        if any(np.unique(np.abs(g.values)).size < sp.natoms for g in (f, avg)):
            continue
        rep = verify_rearrangement_bound(sp, f, r)
        avg_star, profile = reference_rearrangement(avg), reference_maximal_profile(f)
        grid = _threshold_grid(np.concatenate((avg_star.breakpoints, profile.breakpoints)))
        ratios = avg_star(grid) / profile(grid)
        assert rep.max_ratio == pytest.approx(ratios.max(), rel=1e-13)
        assert rep.worst_t == grid[np.argmax(ratios)]
        checked += 1
    assert checked >= 20


def test_rearrangement_bound_examples(rng):
    sp = MetricMeasureSpace.lattice(200)
    chi = FunctionOnSpace(sp, np.ones(201))
    rep = verify_rearrangement_bound(sp, chi, 1.0)
    assert rep.passed and rep.max_ratio <= 1.0 + 1e-12

    spike = FunctionOnSpace(sp, np.r_[50.0, np.zeros(200)])
    rep = verify_rearrangement_bound(sp, spike, 1.0)
    assert rep.passed and rep.max_ratio <= rep.constant_c

    with pytest.raises(DomainError):
        verify_rearrangement_bound(sp, FunctionOnSpace(sp, np.zeros(201)), 1.0)


def test_rearrangement_bound_random(rng):
    for _ in range(25):
        sp = random_space(rng)
        f = random_function(rng, sp)
        rep = verify_rearrangement_bound(sp, f, random_radius(rng, sp))
        assert rep.passed


def test_operator_bound_examples(rng):
    sp = MetricMeasureSpace.lattice(200)
    const = FunctionOnSpace(sp, np.ones(201))
    rep = verify_operator_bound(sp, const, 1.0, NormSpec(2, 2))
    assert rep.passed
    assert rep.factor >= 2.0
    assert rep.lhs == pytest.approx(rep.rhs / rep.factor, rel=1e-12)

    chi = FunctionOnSpace.indicator(sp, np.arange(40, 60))
    rep = verify_operator_bound(sp, chi, 1.0, NormSpec(2, 1))
    assert rep.passed and rep.factor == pytest.approx(2 * 20 / 3, rel=1e-12)

    f = random_function(rng, sp)
    assert verify_operator_bound(sp, f, 1.0, NormSpec(3, math.inf)).passed


def test_operator_bound_random_both_variants(rng):
    for _ in range(20):
        sp = random_space(rng)
        f = random_function(rng, sp)
        r = random_radius(rng, sp)
        p = [1.5, 2.0, 3.0, 10.0][int(rng.integers(4))]
        q = [1.0, 2.0, 3.0, 3.5, math.inf][int(rng.integers(5))]
        assert verify_operator_bound(sp, f, r, NormSpec(p, q, "plain")).passed
        assert verify_operator_bound(sp, f, r, NormSpec(p, q, "double-star")).passed
