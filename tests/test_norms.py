import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from loravg import (
    DOUBLE_STAR,
    PLAIN,
    DomainError,
    FunctionOnSpace,
    MetricMeasureSpace,
    NormSpec,
    NotInSpaceError,
    chi_norm_closed_form,
    holder_check,
    holder_constants,
    lebesgue_norm,
    lorentz_norm,
    maximal_profile,
    norm_equivalence_check,
    rearrangement,
)
from loravg.compactness import SupportRows
from loravg.norms import (_GAUSS_NODES, _GAUSS_WEIGHTS, _double_star_pieces_gauss,
                          _power_integral, lorentz_norms)
from conftest import (matrix_cases, profile_pieces, random_function, random_space,
                      reference_maximal_profile, reference_rearrangement)
from test_space import line_cases

PS = [1.5, 2.0, 3.0, 10.0]
QS = [1.0, 2.0, 3.0, 3.5, math.inf]


def quad_plain_norm(f, p, q):
    """Quadrature oracle for the plain norm at q < inf.

    The first interval of f* is a constant level, where the integral of
    t^{q/p-1} is the elementary power formula; interior intervals are
    integrated numerically.
    """
    star = rearrangement(f)
    if star.levels.size == 0:
        return 0.0
    acc = star.levels[0] ** q * (p / q) * star.breakpoints[1] ** (q / p)
    for v, t1, t2 in zip(star.levels[1:], star.breakpoints[1:-1], star.breakpoints[2:]):
        val, _ = quad(lambda t: t ** (q / p - 1) * v ** q, t1, t2,
                      epsabs=0, epsrel=1e-13)
        acc += val
    return acc ** (1 / q)


def quad_double_star_norm(f, p, q):
    """Quadrature oracle for the double-star norm at q < inf."""
    prof = maximal_profile(f)
    if prof.total == 0.0:
        return 0.0
    t1 = prof.breakpoints[1]
    acc = prof.slopes[0] ** q * (p / q) * t1 ** (q / p)
    for a, b in zip(prof.breakpoints[1:-1], prof.breakpoints[2:]):
        val, _ = quad(lambda t: t ** (q / p - 1) * prof(t) ** q, a, b,
                      epsabs=0, epsrel=1e-13, limit=200)
        acc += val
    tk = prof.breakpoints[-1]
    acc += prof.total ** q * tk ** (q / p - q) / (q - q / p)
    return acc ** (1 / q)


def sup_norm_oracle(f, spec):
    """Dense-grid oracle for the q = inf norms."""
    star = rearrangement(f)
    if star.levels.size == 0:
        return 0.0
    T = star.breakpoints[-1]
    grid = np.unique(np.concatenate((np.linspace(1e-9, 3 * T, 40001),
                                     star.breakpoints[1:],
                                     star.breakpoints[1:] - 1e-12)))
    fn = star if spec.variant == PLAIN else maximal_profile(f)
    vals = fn(grid)
    return float(np.max(grid ** (1 / spec.p) * vals)) if math.isfinite(spec.p) \
        else float(np.max(vals))


def test_chi_closed_form_values():
    assert chi_norm_closed_form(4.0, NormSpec(2, 1, PLAIN)) == pytest.approx(4.0)
    assert chi_norm_closed_form(4.0, NormSpec(2, 1, DOUBLE_STAR)) == pytest.approx(8.0)
    assert chi_norm_closed_form(9.0, NormSpec(2, math.inf, PLAIN)) == pytest.approx(3.0)
    assert chi_norm_closed_form(9.0, NormSpec(2, math.inf, DOUBLE_STAR)) == pytest.approx(3.0)
    # measure 1: prefactor only
    assert chi_norm_closed_form(1.0, NormSpec(3, 2, PLAIN)) == pytest.approx((3 / 2) ** 0.5)
    # p = q = 2 agrees with the Lebesgue norm of the indicator
    assert chi_norm_closed_form(4.0, NormSpec(2, 2, PLAIN)) == pytest.approx(2.0)


def test_chi_closed_form_matches_lorentz_norm(rng):
    for _ in range(60):
        sp = random_space(rng)
        size = int(rng.integers(1, sp.natoms + 1))
        atoms = rng.choice(sp.natoms, size=size, replace=False)
        chi = FunctionOnSpace.indicator(sp, atoms)
        mu = float(sp.weights[atoms].sum())
        p = PS[int(rng.integers(len(PS)))]
        q = QS[int(rng.integers(len(QS)))]
        variant = PLAIN if rng.uniform() < 0.5 else DOUBLE_STAR
        spec = NormSpec(p, q, variant)
        assert lorentz_norm(chi, spec) == pytest.approx(
            chi_norm_closed_form(mu, spec), rel=1e-12)


def test_lorentz_vs_quadrature_oracle(rng):
    for _ in range(25):
        f = random_function(rng, random_space(rng, max_atoms=15))
        p = PS[int(rng.integers(len(PS)))]
        q = QS[int(rng.integers(len(QS)))]
        if math.isinf(q):
            for variant in (PLAIN, DOUBLE_STAR):
                spec = NormSpec(p, q, variant)
                assert lorentz_norm(f, spec) == pytest.approx(
                    sup_norm_oracle(f, spec), rel=1e-6)
        else:
            assert lorentz_norm(f, NormSpec(p, q, PLAIN)) == pytest.approx(
                quad_plain_norm(f, p, q), rel=1e-10)
            assert lorentz_norm(f, NormSpec(p, q, DOUBLE_STAR)) == pytest.approx(
                quad_double_star_norm(f, p, q), rel=1e-10)


def badly_scaled_function(rng, max_atoms=12):
    """Weights spanning 1e-7..1e7 and |values| spanning 1e-3..1e3."""
    n = int(rng.integers(2, max_atoms))
    space = MetricMeasureSpace.from_cloud(np.arange(n, dtype=float)[:, None],
                                          weights=10.0 ** rng.uniform(-7, 7, n))
    return FunctionOnSpace(space, 10.0 ** rng.uniform(-3, 3, n) * rng.choice([-1.0, 1.0], n))


def mixed_pieces(f):
    """(t1, t2, a, v) arrays of the pieces of F with a > 0: all but the first."""
    t1, t2, a, v = profile_pieces(maximal_profile(f))
    keep = a > 0
    return t1[keep], t2[keep], a[keep], v[keep]


def binomial_piece(a, v, t1, t2, p, q):
    """Integral of t^{q/p-1} ((a + v t)/t)^q over [t1, t2], 0 < t1 < t2, at
    integer q: the binomial expansion turns it into power integrals, with
    a logarithm where the exponent is -1.  t2^d - t1^d cancels on short
    pieces far from 0."""
    qi = int(q)
    acc = 0.0
    for k in range(qi + 1):
        d = q / p - q + k
        power = math.log(t2 / t1) if abs(d) <= 1e-14 else (t2 ** d - t1 ** d) / d
        acc += math.comb(qi, k) * a ** (qi - k) * v ** k * power
    return acc


def test_double_star_two_atom_regression():
    # quad returned 0.09544 here, 17.8% low; the value is a 40-digit mpmath sum
    sp = MetricMeasureSpace.from_matrix([[0, 1], [1, 0]], [1e-4, 1e4])
    f = FunctionOnSpace(sp, [1.0, 0.001])
    assert lorentz_norm(f, NormSpec(3, 1.5, DOUBLE_STAR)) == pytest.approx(
        0.11614274905696818, rel=1e-13)


def test_gauss_rule_matches_integer_closed_form(rng):
    # The binomial closed form cancels on short pieces far from 0, so the
    # two are compared on the whole norm, where such pieces weigh little.
    checked = 0
    for _ in range(600):
        f = badly_scaled_function(rng)
        p = [1.5, 2.0, 3.0, 7.0][int(rng.integers(4))]
        q = [1.0, 2.0, 3.0][int(rng.integers(3))]
        t1, t2, a, v = mixed_pieces(f)
        if t1.size == 0:
            continue
        closed = lorentz_norm(f, NormSpec(p, q, DOUBLE_STAR))
        gap = (np.sum(_double_star_pieces_gauss(t1, t2, a, v, p, q))
               - sum(binomial_piece(*piece, p, q) for piece in zip(a, v, t1, t2)))
        assert (closed ** q + gap) ** (1 / q) == pytest.approx(closed, rel=1e-14)
        checked += 1
    assert checked > 500


def mpmath_norm(mpmath, f, spec):
    """The norm at q < inf summed piece by piece at 40 digits.  Plain
    pieces and the end pieces of the double-star norm are in closed form;
    its other pieces go to mpmath's tanh-sinh quadrature in
    s = log(t/t1), split at unit steps."""
    with mpmath.workdps(40):
        p, q = mpmath.mpf(spec.p), mpmath.mpf(spec.q)
        e = q / p
        profile = reference_maximal_profile(f)
        acc = mpmath.mpf(0)
        for t1, t2, a, v in zip(*profile_pieces(profile)):
            t1, t2, a, v = map(mpmath.mpf, (t1, t2, a, v))
            if spec.variant == PLAIN or t1 == 0:
                acc += v ** q * (t2 ** e - t1 ** e) / e
            else:
                length = mpmath.log(t2 / t1)
                acc += t1 ** e * mpmath.quad(
                    lambda s: mpmath.exp(e * s) * (a / t1 * mpmath.exp(-s) + v) ** q,
                    mpmath.linspace(0, length, int(mpmath.ceil(length)) + 1))
        if spec.variant == DOUBLE_STAR:
            tk = mpmath.mpf(profile.breakpoints[-1])
            acc += mpmath.mpf(profile.total) ** q * tk ** (e - q) / (q - e)
        return float(acc ** (1 / q))


def test_double_star_against_mpmath_on_badly_scaled_spaces(rng):
    mpmath = pytest.importorskip("mpmath")
    for _ in range(15):
        f = badly_scaled_function(rng, max_atoms=8)
        spec = NormSpec([1.5, 3.0, 7.0][int(rng.integers(3))],
                        [1.1, 1.5, 2.5, 3.7][int(rng.integers(4))], DOUBLE_STAR)
        assert lorentz_norm(f, spec) == pytest.approx(mpmath_norm(mpmath, f, spec), rel=1e-13)
    # 12% off under quad, with no warning
    sp = MetricMeasureSpace.from_matrix([[0, 1], [1, 0]], [1e-7, 1e7])
    f = FunctionOnSpace(sp, [1.0, 0.001])
    spec = NormSpec(7, 1.1, DOUBLE_STAR)
    assert lorentz_norm(f, spec) == pytest.approx(mpmath_norm(mpmath, f, spec), rel=1e-13)


@pytest.mark.parametrize("variant, qs", [(PLAIN, [1.0, 1.1, 2.0, 2.5, 3.7]),
                                         (DOUBLE_STAR, [1.0, 2.0, 3.0])])
def test_norm_against_mpmath_on_badly_scaled_spaces(rng, variant, qs):
    mpmath = pytest.importorskip("mpmath")
    for _ in range(15):
        f = badly_scaled_function(rng, max_atoms=8)
        spec = NormSpec([1.5, 2.0, 3.0, 7.0][int(rng.integers(4))],
                        qs[int(rng.integers(len(qs)))], variant)
        assert lorentz_norm(f, spec) == pytest.approx(mpmath_norm(mpmath, f, spec), rel=1e-13)


def test_power_integral_against_mpmath(rng):
    """Short pieces far from 0, where t2^d - t1^d cancels, and t1 = 0."""
    mpmath = pytest.importorskip("mpmath")
    n = 2000
    t1 = 10.0 ** rng.uniform(-12, 12, n)
    t1[::10] = 0.0
    t2 = t1 * (1.0 + 10.0 ** rng.uniform(-15, 1, n))
    t2[t1 == 0] = 10.0 ** rng.uniform(-12, 12, np.count_nonzero(t1 == 0))
    assert np.all(t2 > t1)
    for d in [1 / 7, 0.5, 2 / 3, 1.0, 2.0, 3.7 / 1.5, 10.0]:
        got = _power_integral(d, t1, t2)
        with mpmath.workdps(40):
            dm = mpmath.mpf(d)
            want = [float((mpmath.mpf(b) ** dm - mpmath.mpf(a) ** dm) / dm)
                    for a, b in zip(t1, t2)]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_logarithmic_exponent_case(rng):
    # p = q = 2 puts one binomial term of the integer-q closed form at
    # exponent exactly -1, where it is a logarithm.
    f = random_function(rng, MetricMeasureSpace.lattice(9))
    assert lorentz_norm(f, NormSpec(2, 2, DOUBLE_STAR)) == pytest.approx(
        quad_double_star_norm(f, 2.0, 2.0), rel=1e-10)


def test_lebesgue_examples():
    sp = MetricMeasureSpace.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [1, 2, 1])
    f = FunctionOnSpace(sp, [3, 1, 2])
    assert lebesgue_norm(f, 2) == pytest.approx(math.sqrt(15))
    assert lebesgue_norm(f, math.inf) == 3.0
    assert lebesgue_norm(FunctionOnSpace(sp, [0, 0, 0]), 1.7) == 0.0


def test_lebesgue_diagonal(rng):
    for _ in range(40):
        f = random_function(rng, random_space(rng), allow_zero=True)
        p = [1.0, 1.5, 2.0, 3.0, 10.0][int(rng.integers(5))]
        assert lorentz_norm(f, NormSpec(p, p, PLAIN)) == pytest.approx(
            lebesgue_norm(f, p), rel=1e-12, abs=1e-300)
    f = random_function(rng, random_space(rng))
    assert lorentz_norm(f, NormSpec(math.inf, math.inf, PLAIN)) == pytest.approx(
        lebesgue_norm(f, math.inf), rel=1e-12)


def test_trivial_space_errors():
    sp = MetricMeasureSpace.lattice(3)
    f = FunctionOnSpace(sp, [1, 0, 0, 0])
    for variant in (PLAIN, DOUBLE_STAR):
        with pytest.raises(NotInSpaceError):
            lorentz_norm(f, NormSpec(math.inf, 2, variant))
    zero = FunctionOnSpace(sp, np.zeros(4))
    assert lorentz_norm(zero, NormSpec(math.inf, 2, PLAIN)) == 0.0


def test_norm_spec_validation():
    with pytest.raises(DomainError):
        NormSpec(1.0, 2.0, DOUBLE_STAR)
    with pytest.raises(DomainError):
        NormSpec(0.5, 2.0, PLAIN)
    with pytest.raises(DomainError):
        NormSpec(2.0, 0.5, PLAIN)
    with pytest.raises(DomainError):
        NormSpec(2.0, 2.0, "starry")
    assert NormSpec(3, 2).normable
    assert not NormSpec(2, 3).normable
    assert NormSpec(2, 3, DOUBLE_STAR).normable
    assert NormSpec(math.inf, 2).trivial_space


def test_scaling_and_monotonicity(rng):
    for _ in range(20):
        sp = random_space(rng)
        f = random_function(rng, sp)
        p = PS[int(rng.integers(len(PS)))]
        q = QS[int(rng.integers(len(QS)))]
        variant = PLAIN if rng.uniform() < 0.5 else DOUBLE_STAR
        spec = NormSpec(p, q, variant)
        c = float(rng.uniform(0.1, 5))
        assert lorentz_norm(c * f, spec) == pytest.approx(
            c * lorentz_norm(f, spec), rel=1e-12)
        assert lorentz_norm(-1.0 * f, spec) == pytest.approx(
            lorentz_norm(f, spec), rel=1e-12)
        # 0 <= g <= |f| pointwise implies smaller norm
        g = FunctionOnSpace(sp, np.abs(f.values) * rng.uniform(0, 1, sp.natoms))
        assert lorentz_norm(g, spec) <= lorentz_norm(f, spec) * (1 + 1e-12)


def test_triangle_inequality_where_norm(rng):
    for _ in range(20):
        sp = random_space(rng)
        f, g = random_function(rng, sp), random_function(rng, sp)
        p = PS[int(rng.integers(len(PS)))]
        q = QS[int(rng.integers(len(QS)))]
        ds = NormSpec(p, q, DOUBLE_STAR)
        assert lorentz_norm(f + g, ds) <= (
            lorentz_norm(f, ds) + lorentz_norm(g, ds)) * (1 + 1e-12)
        if q <= p:
            plain = NormSpec(p, q, PLAIN)
            assert lorentz_norm(f + g, plain) <= (
                lorentz_norm(f, plain) + lorentz_norm(g, plain)) * (1 + 1e-12)


def test_absolute_continuity_sequence():
    sp = MetricMeasureSpace.lattice(40)
    rng = np.random.default_rng(3)
    f = FunctionOnSpace(sp, rng.standard_normal(41))
    spec = NormSpec(2.5, 2.0, PLAIN)
    sets = [np.arange(k) for k in (30, 17, 9, 4, 2, 1)]
    norms = []
    for atoms in sets:
        masked = FunctionOnSpace(sp, np.where(np.isin(np.arange(41), atoms),
                                              f.values, 0.0))
        norms.append(lorentz_norm(masked, spec))
        # q = inf norm of the indicator is exactly mu(A_n)^{1/p}
        chi = FunctionOnSpace.indicator(sp, atoms)
        assert lorentz_norm(chi, NormSpec(2.5, math.inf, PLAIN)) == pytest.approx(
            len(atoms) ** (1 / 2.5), rel=1e-12)
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    tiny = FunctionOnSpace(sp, np.zeros(41))
    assert lorentz_norm(tiny, spec) == 0.0


def test_holder_constant_values():
    assert holder_constants(NormSpec(2, 2), 1.0).lam == pytest.approx(1.0)
    assert holder_constants(NormSpec(2, 1), 1.0).lam == pytest.approx(1.0)
    assert holder_constants(NormSpec(2, math.inf), 1.0).lam == pytest.approx(2.0)
    # p (q - 1) overflows near DBL_MAX; lam is then p/(p-1) to the last bit
    assert holder_constants(NormSpec(2, 1e308), 1.0).lam == 2.0
    assert holder_constants(NormSpec(3, 1.7e308), 1.0).lam == 1.5
    # alpha(A) = lam * mu(A)^{1-1/p}
    assert holder_constants(NormSpec(2, 2), 9.0).alpha == pytest.approx(3.0)
    with pytest.raises(DomainError):
        holder_constants(NormSpec(1, 2, PLAIN), 1.0)
    with pytest.raises(DomainError):
        holder_constants(NormSpec(math.inf, 2, PLAIN), 1.0)


def test_holder_lambda_shape(rng):
    # lam >= 1 whenever q >= p; alpha is monotone in the measure.
    for p, q in [(1.5, 2.0), (2.0, 3.0), (2.0, 2.0), (3.0, math.inf), (2.0, 1.0)]:
        if q >= p:
            assert holder_constants(NormSpec(p, q), 1.0).lam >= 1.0 - 1e-15
    for _ in range(10):
        p = PS[int(rng.integers(len(PS)))]
        q = QS[int(rng.integers(len(QS)))]
        m1, m2 = sorted(rng.uniform(0.1, 10, 2))
        assert (holder_constants(NormSpec(p, q), m1).alpha
                <= holder_constants(NormSpec(p, q), m2).alpha + 1e-15)


def test_holder_check_examples_and_property(rng):
    sp = MetricMeasureSpace.lattice(7)
    A = [1, 2, 5]
    chi = FunctionOnSpace.indicator(sp, A)
    lhs, rhs = holder_check(chi, A, NormSpec(2, 2))
    assert lhs == pytest.approx(3.0) and rhs == pytest.approx(3.0)

    off = FunctionOnSpace.indicator(sp, [0, 7])
    lhs, rhs = holder_check(off, A, NormSpec(2, 2))
    assert lhs == 0.0 and rhs >= 0.0

    for _ in range(40):
        space = random_space(rng)
        f = random_function(rng, space, allow_zero=True)
        size = int(rng.integers(1, space.natoms + 1))
        atoms = rng.choice(space.natoms, size=size, replace=False)
        p = PS[int(rng.integers(len(PS)))]
        q = QS[int(rng.integers(len(QS)))]
        lhs, rhs = holder_check(f, atoms, NormSpec(p, q))
        assert lhs <= rhs * (1 + 1e-12) + 1e-15


def test_norm_equivalence_examples():
    sp = MetricMeasureSpace.lattice(9)
    chi = FunctionOnSpace.indicator(sp, [0, 1, 2, 3])
    plain, ds = norm_equivalence_check(chi, 2.0, 1.0)
    assert plain == pytest.approx(4.0) and ds == pytest.approx(8.0)
    assert ds == pytest.approx(2.0 * plain, rel=1e-12)  # upper edge attained
    zero = FunctionOnSpace(sp, np.zeros(10))
    assert norm_equivalence_check(zero, 3.0, 2.0) == (0.0, 0.0)


def sandwich_cases():
    """(space, values): one function on a matrix_cases or line_cases space,
    line values rounded to 6 decimals as matrix_cases values are."""
    return st.one_of(matrix_cases().map(lambda case: (case[0], case[1].values)),
                     line_cases().map(lambda case: (case[0], np.round(
                         case[2].reshape(case[0].natoms, -1)[:, 0], 6))))


@settings(deadline=None)
@given(sandwich_cases(), st.sampled_from(PS), st.sampled_from(QS))
def test_norm_equivalence_sandwich(case, p, q):
    sp, values = case
    f = FunctionOnSpace(sp, values)
    plain, ds = norm_equivalence_check(f, p, q)
    assert plain <= ds * (1 + 1e-10)
    assert ds <= (p / (p - 1)) * plain * (1 + 1e-10)
    # p = inf: the two variants coincide at q = inf
    plain, ds = norm_equivalence_check(f, math.inf, math.inf)
    assert plain == pytest.approx(ds, rel=1e-12)


@pytest.mark.parametrize("variant", [PLAIN, DOUBLE_STAR])
def test_underflowing_norm_of_a_nonzero_function_raises(variant):
    """A norm whose powers underflow is an error that names the underflow,
    never 0 for a nonzero function; where no power underflows, the value
    stands."""
    spike = FunctionOnSpace(MetricMeasureSpace.lattice(3), [1e-200, 0, 0, 0])
    for q in (2.0, 3.0):  # true values 1e-200 and 8.7e-201
        with pytest.raises(DomainError, match="underflows"):
            lorentz_norm(spike, NormSpec(2, q, variant))
    assert lorentz_norm(spike, NormSpec(2, math.inf, variant)) == 1e-200
    # The indicator of one atom of weight 1e-320: (1e-320)^{3/2} underflows.
    chi = FunctionOnSpace(MetricMeasureSpace.from_matrix([[0.0]], [1e-320]), [1.0])
    with pytest.raises(DomainError, match="underflows"):
        lorentz_norm(chi, NormSpec(2, 3, variant))
    zero = FunctionOnSpace(spike.space, np.zeros(4))
    assert lorentz_norm(zero, NormSpec(2, 3, variant)) == 0.0


def test_underflowing_lebesgue_norm_raises():
    spike = FunctionOnSpace(MetricMeasureSpace.lattice(3), [1e-200, 0, 0, 0])
    for p in (2.0, 3.0):
        with pytest.raises(DomainError, match="underflows"):
            lebesgue_norm(spike, p)
    assert lebesgue_norm(spike, math.inf) == 1e-200
    chi = FunctionOnSpace(MetricMeasureSpace.from_matrix([[0.0]], [1e-320]), [1.0])
    assert lorentz_norm(chi, NormSpec(2, 2)) == lebesgue_norm(chi, 2) == pytest.approx(
        chi_norm_closed_form(1e-320, NormSpec(2, 2)), rel=1e-4)  # a subnormal weight


def test_gauss_legendre_table_is_leggauss_12():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert _GAUSS_NODES.tobytes() == nodes.tobytes()
    assert _GAUSS_WEIGHTS.tobytes() == weights.tobytes()


def profile_norm(f, spec):
    """The norm by the per-function formulas that the row kernel replaced:
    the pieces of f* and of f** from the reference grouping of |f|, one
    per distinct level, with no range checks."""
    p, q = spec.p, spec.q
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    if spec.variant == PLAIN:
        star = reference_rearrangement(f)
        t = star.breakpoints
        if math.isinf(q):
            return float(np.max(star.levels * t[1:] ** inv_p, initial=0.0))
        acc = np.sum(star.levels ** q * _power_integral(q / p, t[:-1], t[1:]))
        return float(acc) ** (1.0 / q)
    profile = reference_maximal_profile(f)
    if profile.total == 0.0:
        return 0.0
    t1, t2, a, v = profile_pieces(profile)
    if math.isinf(q):
        return float(np.max(t2 ** (inv_p - 1.0) * profile.node_values[1:]))
    e = q / p
    head = v[0] ** q * t2[0] ** e / e
    tail = np.float64(profile.total) ** q * t2[-1] ** (e - q) / (q - e)
    middle = np.sum(_double_star_pieces_gauss(t1[1:], t2[1:], a[1:], v[1:], p, q))
    return float(head + middle + tail) ** (1.0 / q)


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrix_cases().map(lambda case: (case[0], case[1].values[:, None])),
                 line_cases().map(lambda case: (case[0], case[2].reshape(case[0].natoms, -1)))),
       st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([1.0, 1.5, 2.0, math.inf]),
       st.sampled_from([PLAIN, DOUBLE_STAR]), st.data())
def test_row_kernel_matches_the_profile_formulas(case, p, q, variant, data):
    """Rows with zero and tied values, given whole, on their supports in any
    order with zero-weight padding, and as differences of two such rows
    whose supports overlap, agree with the profile formulas within 2e-15
    relative."""
    sp, columns = case
    n, spec = sp.natoms, NormSpec(p, q, variant)
    rows = np.vstack([np.round(columns.T, 6), np.round(columns.T), np.zeros((1, n))])
    want = np.array([profile_norm(FunctionOnSpace(sp, row), spec) for row in rows])
    tol = 2e-15 * want
    whole = lorentz_norms(rows, sp.weights, spec)
    assert np.all(np.abs(whole - want) <= tol)
    # a row's bits do not depend on the rows that come with it
    assert whole.tolist() == [lorentz_norm(FunctionOnSpace(sp, row), spec) for row in rows]
    width = n + data.draw(st.integers(0, 3))
    atoms, values = np.full((len(rows), width), n), np.zeros((len(rows), width))
    for k, row in enumerate(rows):
        entries = np.flatnonzero(row).tolist() + [n] * (width - np.count_nonzero(row))
        atoms[k] = data.draw(st.permutations(entries))
        values[k] = np.append(row, 0.0)[atoms[k]]
    packed = SupportRows(sp, atoms, values)
    assert np.all(np.abs(packed.norms(spec) - want) <= tol)
    i, j = np.triu_indices(len(rows), 1)
    pair_want = np.array([profile_norm(FunctionOnSpace(sp, rows[a] - rows[b]), spec)
                          for a, b in zip(i, j)])
    pair_atoms, pair_values = packed.differences(i, j)
    assert np.all(np.count_nonzero(pair_values, axis=1)
                  == np.count_nonzero(rows[i] - rows[j], axis=1))
    got = lorentz_norms(pair_values, packed.weights(pair_atoms), spec)
    assert np.all(np.abs(got - pair_want) <= 2e-15 * pair_want)
    distances = packed.distances(spec)
    assert np.array_equal(distances[i, j], got) and np.array_equal(distances[j, i], got)
    assert np.all(np.diagonal(distances) == 0.0)
