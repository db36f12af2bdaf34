import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loravg import (
    DomainError,
    FunctionOnSpace,
    MetricMeasureSpace,
    distribution_function,
    hardy_littlewood_check,
    integrate_step_product,
    maximal_profile,
    rearrangement,
)
from conftest import (check_step_function, matrix_cases, random_function, random_space,
                      reference_maximal_profile, reference_rearrangement)
from test_space import line_cases


def three_atom_space():
    return MetricMeasureSpace.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [1, 2, 1])


def step_integral(sf):
    """Exact integral of a step function over [0, inf)."""
    return float(np.dot(sf.levels, np.diff(sf.breakpoints)))


def measure_above(sf, t):
    """Lebesgue measure of {s : sf(s) > t}, exact from the representation."""
    j = int(np.sum(sf.levels > t))
    return float(sf.breakpoints[j]) if j else 0.0


def brute_distribution(f, t):
    av = np.abs(f.values)
    return float(f.space.weights[av > t].sum())


def brute_rearrangement(f, t):
    """inf{s : mu_f(s) <= t} scanned over the candidate grid {0} + |f| values."""
    candidates = np.unique(np.concatenate(([0.0], np.abs(f.values))))
    for s in candidates:
        if brute_distribution(f, s) <= t:
            return float(s)
    raise AssertionError("distribution never drops to the target")


def probe_grid(sf):
    bp = sf.breakpoints
    mids = (bp[:-1] + bp[1:]) / 2
    return np.unique(np.concatenate((bp, mids, [bp[-1] + 1.0])))


def test_distribution_example():
    f = FunctionOnSpace(three_atom_space(), [3, 1, 2])
    mu = distribution_function(f)
    assert list(mu.breakpoints) == [0, 1, 2, 3]
    assert list(mu.levels) == [4, 2, 1]
    assert mu(0.5) == 4 and mu(1.0) == 2 and mu(2.7) == 1 and mu(3.0) == 0


def test_distribution_zero_function():
    f = FunctionOnSpace(three_atom_space(), [0, 0, 0])
    mu = distribution_function(f)
    assert mu.levels.size == 0
    assert mu(0.0) == 0.0 and mu(5.0) == 0.0


def test_distribution_indicator():
    # mu(A) if t < 1, 0 if t >= 1
    sp = MetricMeasureSpace.lattice(5)
    chi = FunctionOnSpace.indicator(sp, [0, 2, 3, 5])
    mu = distribution_function(chi)
    assert mu(0.0) == 4.0 and mu(0.999) == 4.0 and mu(1.0) == 0.0


def test_rearrangement_example():
    f = FunctionOnSpace(three_atom_space(), [3, 1, 2])
    star = rearrangement(f)
    assert list(star.breakpoints) == [0, 1, 2, 4]
    assert list(star.levels) == [3, 2, 1]


def test_rearrangement_indicator_and_constant():
    sp = MetricMeasureSpace.lattice(5)
    chi = FunctionOnSpace.indicator(sp, [1, 4])
    star = rearrangement(chi)
    # 1 if t < mu(A), 0 if t >= mu(A)
    assert star(0.0) == 1.0 and star(1.999) == 1.0 and star(2.0) == 0.0
    const = FunctionOnSpace(sp, np.full(6, 2.5))
    cstar = rearrangement(const)
    assert cstar(0.0) == 2.5 and cstar(5.999) == 2.5 and cstar(6.0) == 0.0


def test_rearrangement_against_definition(rng):
    # Probed off the exact breakpoints: at a breakpoint the infimum is
    # discontinuous and the oracle's differently-ordered weight sums can
    # land an ulp away, flipping a whole level.
    for _ in range(30):
        f = random_function(rng, random_space(rng), allow_zero=True)
        star = rearrangement(f)
        bp = star.breakpoints
        grid = np.concatenate(((bp[:-1] + bp[1:]) / 2, bp[1:] * (1 + 1e-9),
                               bp[1:] * (1 - 1e-9), [bp[-1] + 1.0]))
        for t in np.unique(grid):
            assert star(t) == pytest.approx(brute_rearrangement(f, t), abs=1e-12)


def test_distribution_against_definition(rng):
    for _ in range(30):
        f = random_function(rng, random_space(rng), allow_zero=True)
        mu = distribution_function(f)
        for t in probe_grid(mu):
            assert mu(t) == pytest.approx(brute_distribution(f, t), rel=1e-12)


def function_cases():
    """A function on a matrix_cases or line_cases space, with zero and tied
    values."""
    return st.one_of(matrix_cases().map(lambda case: case[1]),
                     line_cases().map(lambda case: FunctionOnSpace(
                         case[0], case[2].reshape(case[0].natoms, -1)[:, 0])))


@settings(deadline=None)
@given(function_cases())
def test_equimeasurability_exact(f):
    # mu_f(t) equals the length of {f* > t}, exactly: both sides are the
    # same cumulative sums by construction.
    mu = distribution_function(f)
    star = rearrangement(f)
    for t in probe_grid(mu):
        assert mu(t) == measure_above(star, t)


@settings(max_examples=200, deadline=None)
@given(function_cases())
def test_views_match_the_reference_grouping(f):
    """The views keep the distinct positive levels of the np.unique and
    bincount grouping, with breakpoints that are bitwise the same when no
    two |f| values tie and within a few ulps when some do."""
    mu, star, prof = distribution_function(f), rearrangement(f), maximal_profile(f)
    ref = reference_rearrangement(f)
    for view in (mu, star):
        if view.levels.size:
            check_step_function(view)
    # mu_f mirrors f*: its breakpoints are the levels of f*, and its levels
    # the breakpoints of f*, in reverse order.
    assert np.array_equal(mu.breakpoints[1:], star.levels[::-1])
    assert np.array_equal(mu.levels, star.breakpoints[:0:-1])
    assert np.array_equal(star.levels, ref.levels)
    av = np.abs(f.values[f.values != 0])
    if np.unique(av).size < av.size:
        assert np.allclose(star.breakpoints, ref.breakpoints, rtol=8 * np.finfo(float).eps,
                           atol=0)
    else:
        assert np.array_equal(star.breakpoints, ref.breakpoints)
    assert np.array_equal(prof.slopes, star.levels)
    assert np.array_equal(prof.breakpoints, star.breakpoints)
    assert np.allclose(prof.node_values, reference_maximal_profile(f).node_values,
                       rtol=16 * np.finfo(float).eps, atol=0)


def test_layer_cake(rng):
    for _ in range(30):
        f = random_function(rng, random_space(rng), allow_zero=True)
        l1 = float(np.sum(f.space.weights * np.abs(f.values)))
        assert step_integral(rearrangement(f)) == pytest.approx(l1, rel=1e-12, abs=1e-12)
        assert step_integral(distribution_function(f)) == pytest.approx(
            l1, rel=1e-12, abs=1e-12)


def test_levels_strictly_decreasing_with_ties(rng):
    sp = MetricMeasureSpace.lattice(6)
    f = FunctionOnSpace(sp, [2.0, -2.0, 1.0, 0.0, 1.0, 2.0, -1.0])
    star = rearrangement(f)
    assert list(star.levels) == [2.0, 1.0]
    assert list(star.breakpoints) == [0.0, 3.0, 6.0]
    for _ in range(20):
        f = random_function(rng, random_space(rng))
        check_step_function(rearrangement(f))
        check_step_function(distribution_function(f))


def test_maximal_profile_indicator():
    # 1 if t < mu(A), mu(A)/t if t >= mu(A)
    sp = MetricMeasureSpace.lattice(9)
    chi = FunctionOnSpace.indicator(sp, [0, 1, 2, 3])
    prof = maximal_profile(chi)
    assert prof(2.0) == 1.0
    assert prof(4.0) == 1.0
    assert prof(8.0) == pytest.approx(0.5, rel=1e-14)


def test_maximal_profile_example_and_zero():
    f = FunctionOnSpace(three_atom_space(), [3, 1, 2])
    prof = maximal_profile(f)
    assert prof(3.0) * 3.0 == 6.0
    assert prof(3.0) == 2.0
    zero = maximal_profile(FunctionOnSpace(three_atom_space(), [0, 0, 0]))
    assert zero(1.0) == 0.0 and zero(100.0) == 0.0


def test_maximal_profile_domain_error():
    prof = maximal_profile(FunctionOnSpace(three_atom_space(), [3, 1, 2]))
    with pytest.raises(DomainError):
        prof(0.0)
    with pytest.raises(DomainError):
        prof(-1.0)


def test_profile_dominates_rearrangement(rng):
    # f**(t) >= f*(t): the average of a nonincreasing function over [0, t]
    # dominates its value at t.
    for _ in range(30):
        f = random_function(rng, random_space(rng))
        star = rearrangement(f)
        prof = maximal_profile(f)
        grid = probe_grid(star)
        grid = grid[grid > 0]
        assert np.all(prof(grid) >= star(grid) - 1e-12)


def test_profile_against_riemann_sum(rng):
    for _ in range(10):
        f = random_function(rng, random_space(rng))
        star = rearrangement(f)
        prof = maximal_profile(f)
        for t in [0.3, 1.1, star.breakpoints[-1] * 1.5 + 0.1]:
            s = np.linspace(0, t, 20001)[1:]
            riemann = float(np.mean(star(s)))
            assert prof(t) == pytest.approx(riemann, rel=2e-3, abs=1e-3)


def test_profile_concavity(rng):
    for _ in range(20):
        f = random_function(rng, random_space(rng))
        prof = maximal_profile(f)
        assert np.all(np.diff(prof.slopes) < 0)
        assert prof.node_values[0] == 0.0
        assert np.all(np.diff(prof.node_values) > 0)


def test_hardy_littlewood_examples():
    sp = MetricMeasureSpace.lattice(5)
    chi = FunctionOnSpace.indicator(sp, [0, 1, 2, 3])
    lhs, rhs = hardy_littlewood_check(chi, chi)
    assert lhs == pytest.approx(4.0) and rhs == pytest.approx(4.0)

    f = FunctionOnSpace(three_atom_space(), [3, 1, 2])
    ones = FunctionOnSpace(three_atom_space(), [1, 1, 1])
    lhs, rhs = hardy_littlewood_check(f, ones)
    assert lhs == pytest.approx(7.0)
    # With g constant the pairing integral equals the L1 norm of f: 7.
    assert rhs == pytest.approx(7.0)

    zero = FunctionOnSpace(three_atom_space(), [0, 0, 0])
    assert hardy_littlewood_check(f, zero) == (0.0, 0.0)


def test_hardy_littlewood_property(rng):
    for _ in range(40):
        sp = random_space(rng)
        f = random_function(rng, sp, allow_zero=True)
        g = random_function(rng, sp, allow_zero=True)
        lhs, rhs = hardy_littlewood_check(f, g)
        assert lhs <= rhs + 1e-12 * (1 + rhs)


def test_integrate_step_product_exact():
    a = rearrangement(FunctionOnSpace(three_atom_space(), [3, 1, 2]))
    ones = rearrangement(FunctionOnSpace(three_atom_space(), [1, 1, 1]))
    # product = f* on [0, 4)
    assert integrate_step_product(a, ones) == pytest.approx(step_integral(a), rel=1e-14)


def test_function_arithmetic_and_space_mismatch():
    sp = MetricMeasureSpace.lattice(3)
    f = FunctionOnSpace(sp, [1, 2, 3, 4])
    g = FunctionOnSpace(sp, [1, 1, 1, 1])
    assert np.array_equal((f - g).values, [0, 1, 2, 3])
    assert np.array_equal((2.0 * f).values, [2, 4, 6, 8])
    other = FunctionOnSpace(MetricMeasureSpace.lattice(4), np.ones(5))
    with pytest.raises(DomainError):
        f + other
    with pytest.raises(DomainError):
        FunctionOnSpace(sp, [1.0, np.nan, 0.0, 0.0])
