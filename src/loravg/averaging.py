"""The ball-averaging operator and the inequalities that control it.

For a radius r, averaging replaces f(x) by the mu-mean of f over the
closed ball B(x, r).  The verification operations compute, per space, the
tight constants entering the paper-style bounds:

* the maximal-type distribution inequality with c = g1*g2*g3 + 1, where
  g1, g2, g3 are the tight doubling constants at scales r, 2r, 4r,
  checked on a whole threshold grid with one c and one A_r f;
* the rearrangement bound (A_r f)*(t) <= c f**(t);
* the operator-norm bound  ||A_r f|| <= (c p/(p-1)) ||f||  for both
  Lorentz norm variants;
* the equicontinuity modulus of {A_r f : ||f|| <= 1} between two atoms,
  with `sample_unit_sphere` drawing the unit-norm trials that the
  modulus is checked on.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .norms import (PLAIN, NormSpec, holder_constants, lebesgue_norm, lebesgue_norms, lorentz_norm,
                    lorentz_norms)
from .rearrange import (FunctionOnSpace, MaximalProfile, StepFunction, runs, sorted_distinct,
                        sorted_profile)
from .space import MetricMeasureSpace, ball, doubling_constant, symm_diff_measure


def holds(lhs, rhs):
    """The pass criterion of every check: lhs <= rhs up to a rounding slack
    of 1e-12 (1 + rhs).  Elementwise on arrays."""
    return lhs <= rhs + 1e-12 * (1.0 + rhs)


def check_ratios(lhs, rhs) -> np.ndarray:
    """lhs / rhs of checks, elementwise: 0 for 0/0 and inf for a positive
    lhs over 0.  The largest is a run's `worst_ratio`."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    return np.divide(lhs, rhs, out=np.where(lhs > 0, np.inf, 0.0), where=rhs > 0)


@dataclass(frozen=True)
class AveragingKernel:
    """The averaging operator at radius r.

    Row x of its row-stochastic kernel holds w_y / mu(B(x, r)) on B(x, r)
    and 0 elsewhere, with mu the space's `ball_measures`, so applying it to
    a value vector is exactly the ball averaging.  The kernel reads its
    balls from `space.ball_blocks` a block at a time and never forms the
    n x n kernel.
    """

    space: MetricMeasureSpace
    r: float
    ball_measures: np.ndarray

    @classmethod
    def build(cls, space: MetricMeasureSpace, r: float) -> "AveragingKernel":
        if not r > 0:
            raise DomainError("averaging radius must be positive")
        measures = space.ball_measures(r)
        # A ball measure above DBL_MAX would turn every coefficient into 0.
        if not np.all(np.isfinite(measures)):
            raise DomainError("averaging kernel rows must sum to 1: a ball measure overflows")
        return cls(space=space, r=float(r), ball_measures=measures)

    def means(self, values) -> np.ndarray:
        """A_r of an (n,) value array, or of each column of an (n, m) one:
        per block of balls, the kernel coefficients w_y / mu(B(x, r)) times
        the values in one matrix product.  The mask comes first, so a
        quotient outside the ball, which can overflow, is never formed."""
        values = np.asarray(values, dtype=float)
        weights, measures = self.space.weights, self.ball_measures
        out = np.empty(values.shape)
        for rows, cols, inside in self.space.ball_blocks(self.r):
            block = np.zeros(inside.shape)
            np.copyto(block, weights[cols], where=inside)
            out[rows] = np.divide(block, measures[rows, None], out=block) @ values[cols]
            del block  # before the next block is allocated
        return out

    def apply(self, f: FunctionOnSpace) -> FunctionOnSpace:
        return FunctionOnSpace(self.space, self.means(f.values))


def average(space: MetricMeasureSpace, f: FunctionOnSpace, r: float) -> FunctionOnSpace:
    """A_r f: the mu-mean of f over B(x, r) at every atom x."""
    return AveragingKernel.build(space, r).apply(f)


def pointwise_bound(space: MetricMeasureSpace, x: int, r: float,
                    spec: NormSpec) -> float:
    """alpha(B(x,r)) / mu(B(x,r)): bounds |A_r f(x)| for every unit-norm f."""
    _, mass = ball(space, x, r)
    return holder_constants(spec, mass).alpha / mass


def equicontinuity_modulus(space: MetricMeasureSpace, x: int, y: int, r: float,
                           spec: NormSpec):
    """(bound, exact) modulus of |A_r f(x) - A_r f(y)| over the unit ball.

    bound = |1/mu(B(x,r)) - 1/mu(B(y,r))| alpha(B(x,r))
            + alpha(B(x,r) symm-diff B(y,r)) / mu(B(y,r)).

    exact is the attained supremum, available on the plain Lebesgue
    diagonal p = q where it is the dual norm of the kernel-row difference
    density; None otherwise.
    """
    sd = symm_diff_measure(space, x, y, r)  # checks both atoms
    mu_x, mu_y = map(float, space.ball_measures(r)[[x, y]])
    alpha_x = holder_constants(spec, mu_x).alpha
    alpha_sd = holder_constants(spec, sd).alpha
    bound = abs(1.0 / mu_x - 1.0 / mu_y) * alpha_x + alpha_sd / mu_y
    if not (spec.variant == PLAIN and spec.p == spec.q and math.isfinite(spec.p)):
        return bound, None
    return bound, float(_difference_densities(space, r, [x, y], spec.p / (spec.p - 1.0))[0])


def _difference_densities(space: MetricMeasureSpace, r: float, atoms, dual_p=None):
    """Per consecutive atoms a, b of atoms (a slice or a list), the density
    g = 1_B(a,r) / mu(B(a,r)) - 1_B(b,r) / mu(B(b,r)) of
    A_r f(a) - A_r f(b) = integral of g f d(mu), as a row; with dual_p, the
    row's weighted dual_p-norm instead, with the bits it has alone.  A
    density that is not finite raises DomainError after the norms of the
    rows before it."""
    mu = space.ball_measures(r)
    if not isinstance(atoms, slice):  # ball_masks reads a list unchecked
        for a in atoms:
            space._check_atom(a)
    mu, masks = mu[atoms, None], space.ball_masks(r, atoms)
    g = masks[:-1] / mu[:-1]
    g -= masks[1:] / mu[1:]
    not_finite = np.flatnonzero(~np.isfinite(g).all(axis=1))
    if dual_p is not None:
        g = lebesgue_norms(g[:not_finite[0]] if not_finite.size else g, space.weights, dual_p)
    if not_finite.size:
        raise DomainError("function values must be finite")
    return g


def extremal_pair_function(space: MetricMeasureSpace, x: int, y: int, r: float,
                           p: float) -> FunctionOnSpace:
    """Unit-p-norm f attaining sup |A_r f(x) - A_r f(y)| on the diagonal.

    The maximizer is sign(g) |g|^{p'-1} normalized, with g the kernel-row
    difference density and p' the conjugate exponent.
    """
    if not (1 < p < math.inf):
        raise DomainError("extremal construction needs p in (1, inf)")
    g = _difference_densities(space, r, [x, y])[0]
    pp = p / (p - 1.0)
    values = np.sign(g) * np.abs(g) ** (pp - 1.0)
    f = FunctionOnSpace(space, values)
    norm = lebesgue_norm(f, p)
    if norm == 0.0:
        return f
    return f * (1.0 / norm)


def distribution_constant(space: MetricMeasureSpace, r: float):
    """(c, (g1, g2, g3)) with c = g1*g2*g3 + 1 from the tight doubling
    constants at scales r, 2r and 4r; DomainError if c is not finite."""
    g1, g2, g3 = (doubling_constant(space, s) for s in (r, 2 * r, 4 * r))
    c = g1 * g2 * g3 + 1.0
    if not math.isfinite(c):
        raise DomainError(f"the constant c = g1*g2*g3 + 1 at radius {r:g} overflows")
    return c, (g1, g2, g3)


def _integrable_profile(space: MetricMeasureSpace, f: FunctionOnSpace):
    """(levels, t, F) of f's sorted profile on space (see `rearrange`);
    DomainError if the integral of |f|, F's last entry, is not finite,
    since f** and the integrals of |f| over its level sets would read inf."""
    levels, _, t, F = sorted_profile(f.values, space.weights)
    if not math.isfinite(F[-1]):
        raise DomainError("the integral of |f| overflows the floating-point range")
    return levels, t, F


@dataclass(frozen=True)
class DistributionInequalityReport:
    constant_c: float
    gammas: tuple[float, float, float]
    t: float      # the threshold with the largest lhs / rhs
    lhs: float    # mu_{A_r f}(c t)
    rhs: float    # (1/t) integral of |f| over {|f| > t}
    ratio: float  # lhs / rhs at t; 0 for 0/0 and inf for a positive lhs over 0
    passed: bool  # the inequality holds at every threshold


def verify_distribution_inequality(space: MetricMeasureSpace, f: FunctionOnSpace,
                                   r: float, t) -> DistributionInequalityReport:
    """Check mu_{A_r f}(c t) <= (1/t) integral_{|f|>t} |f| at every threshold t.

    t is one threshold or a 1-D array of them.  With k the number of
    entries above the threshold in the sorted profile (see `rearrange`),
    mu is t[k] of A_r f's profile and integral_{|f|>t} |f| is F[k] of f's.
    The report names the (last) threshold of largest lhs / rhs, among the
    failing ones if any fails; `passed` holds only if every threshold does.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.size == 0 or not np.all(t > 0):
        raise DomainError("need positive thresholds, and at least one "
                          "(the zero function has none)")
    c, gammas = distribution_constant(space, r)
    levels, _, F = _integrable_profile(space, f)
    avg_levels, _, avg_t, _ = sorted_profile(average(space, f, r).values, space.weights)
    # k is a searchsorted of the negated thresholds in the negated, so
    # nondecreasing, levels.  A c t above DBL_MAX is inf, with k = 0 and
    # mu = 0; a quotient above DBL_MAX (t can be subnormal) rounds to inf.
    with np.errstate(over="ignore"):
        lhs = avg_t[np.searchsorted(-avg_levels, -c * t)]
        rhs = F[np.searchsorted(-levels, -t)] / t
    ok = holds(lhs, rhs)
    ratio = check_ratios(lhs, rhs)
    worst = int(np.lexsort((ratio, ~ok))[-1])  # failing first, then largest ratio
    return DistributionInequalityReport(
        constant_c=c, gammas=gammas, t=float(t[worst]), lhs=float(lhs[worst]),
        rhs=float(rhs[worst]), ratio=float(ratio[worst]), passed=bool(ok.all()))


def _threshold_grid(values: np.ndarray) -> np.ndarray:
    """The distinct positive values, a geometric midpoint between
    consecutive ones (sqrt(a b), or sqrt(a) sqrt(b) where a b is not a
    normal float), half the smallest and twice the largest (at most the
    largest float), dropping any that underflow to 0."""
    vals = sorted_distinct(values[values > 0])
    if vals.size == 0:
        return np.array([])
    top = np.finfo(float).max
    with np.errstate(over="ignore"):
        product = vals[:-1] * vals[1:]
        above = min(2 * vals[-1], top)
    normal = (product >= np.finfo(float).tiny) & (product <= top)
    mids = np.where(normal, np.sqrt(product), np.sqrt(vals[:-1]) * np.sqrt(vals[1:]))
    grid = sorted_distinct(np.concatenate((vals, mids, [vals[0] / 2, above])))
    return grid[grid > 0]


def threshold_sweep(f: FunctionOnSpace) -> np.ndarray:
    """The grid probing every step of |f|; empty for the zero function."""
    return _threshold_grid(np.abs(f.values))


@dataclass(frozen=True)
class RearrangementBoundReport:
    constant_c: float
    max_ratio: float  # max over the grid of (A_r f)*(t) / f**(t)
    worst_t: float
    passed: bool


def verify_rearrangement_bound(space: MetricMeasureSpace, f: FunctionOnSpace,
                               r: float) -> RearrangementBoundReport:
    """Check (A_r f)*(t) <= c f**(t) over the grid of the breakpoints of
    both, read from the sorted profiles of A_r f and f (see `rearrange`)."""
    if not np.any(f.values != 0):
        raise DomainError("the bound is trivial for the zero function")
    c, _ = distribution_constant(space, r)
    levels, t, F = _integrable_profile(space, f)
    avg_levels, _, avg_t, _ = sorted_profile(average(space, f, r).values, space.weights)
    grid = _threshold_grid(np.concatenate((avg_t[1:][runs(avg_levels)[1]],
                                           t[1:][runs(levels)[1]])))
    ratios = StepFunction(avg_t, avg_levels)(grid) / MaximalProfile(t, F, levels)(grid)
    worst = int(np.argmax(ratios))
    max_ratio = float(ratios[worst])
    return RearrangementBoundReport(constant_c=c, max_ratio=max_ratio,
                                    worst_t=float(grid[worst]),
                                    passed=bool(holds(max_ratio, c)))


@dataclass(frozen=True)
class OperatorBoundReport:
    constant_c: float
    factor: float  # c p / (p - 1)
    lhs: float     # ||A_r f||
    rhs: float     # factor * ||f||
    passed: bool


def verify_operator_bound(space: MetricMeasureSpace, f: FunctionOnSpace, r: float,
                          spec: NormSpec) -> OperatorBoundReport:
    """Check ||A_r f|| <= (c p/(p-1)) ||f|| in the requested norm."""
    if spec.p <= 1:
        raise DomainError("operator bound needs p > 1")
    c, _ = distribution_constant(space, r)
    factor = c if math.isinf(spec.p) else c * spec.p / (spec.p - 1.0)
    lhs = lorentz_norm(average(space, f, r), spec)
    rhs = factor * lorentz_norm(f, spec)
    return OperatorBoundReport(constant_c=c, factor=factor, lhs=lhs, rhs=rhs,
                               passed=bool(holds(lhs, rhs)))


def sample_unit_sphere(space: MetricMeasureSpace, spec: NormSpec, n: int,
                       seed: int) -> list[FunctionOnSpace]:
    """n random signed simple functions normalized to unit spec-norm.

    Each draw is a single signed ball bump: the support is the closed
    ball at a uniform random center whose radius is a mid-range quantile
    (0.45..0.55) of that center's distance row, and the level is standard
    normal.  Keeping the supports at a common scale keeps the metric
    entropy of the averaged images modest, so greedy nets of the image
    cloud saturate at desk-scale sample sizes; per-atom noise supports
    would instead spread the images over a high-dimensional ellipsoid
    whose nets keep growing with the sample.

    Draws are sequential, so the first m samples of a longer run equal an
    m-sample run with the same seed; a draw of level 0 is dropped.  The
    functions are normalized in one `lorentz_norms` call.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < n:
        draw = int(rng.integers(space.natoms)), rng.uniform(0.45, 0.55), rng.standard_normal()
        if draw[-1] != 0:  # a level of 0 has no multiple on the unit sphere
            draws.append(draw)
    values = np.zeros((n, space.natoms))
    for row, (center, quantile, level) in zip(values, draws):
        k = int(quantile * (space.natoms - 1))
        row[space.ball_mask(center, np.partition(space.distance_row(center), k)[k])] = level
    values *= 1.0 / lorentz_norms(values, space.weights, spec)[:, None]
    return [FunctionOnSpace(space, row) for row in values]


def equicontinuity_bound_matrix(space: MetricMeasureSpace, r: float, spec: NormSpec,
                                rows: slice = slice(None)) -> np.ndarray:
    """bound(x, y) for the atoms x in the slice rows (all by default) and
    every atom y: the vectorized form of equicontinuity_modulus's first
    component, 0 exactly where B(x, r) and B(y, r) are the same atom set.

    It is formed in place in the array that `symm_diff_measures` returns,
    with one more array of that shape for the first term.  Each step is an
    operation of the formula on the same operands, so the entries have the
    bits of the formula evaluated as written."""
    mu = space.ball_measures(r)
    lam = holder_constants(spec, 1.0).lam
    one_minus = 1.0 - 1.0 / spec.p
    alpha_x = lam * mu[rows] ** one_minus
    bound = space.symm_diff_measures(r, rows)
    bound **= one_minus
    bound *= lam
    bound /= mu  # alpha(B(x) symm-diff B(y)) / mu(B(y))
    first = np.subtract(1.0 / mu[rows, None], 1.0 / mu)
    np.abs(first, out=first)
    first *= alpha_x[:, None]
    bound += first
    return bound


def equicontinuity_pairs(space: MetricMeasureSpace, fs: list[FunctionOnSpace], r: float,
                         spec: NormSpec):
    """(worst, bounds, exact) in one pass over `space.pair_blocks`, each
    forming its rows of `equicontinuity_bound_matrix` once and every
    trial's ratios in one array of their shape.  worst[i] is
    (x, y, |A_r f(x) - A_r f(y)|, bound(x, y)) of the largest ratio of the
    two for fs[i], the first in row-major order among equal ratios (None if
    every bound is 0: equal balls, where A_r f(x) = A_r f(y) exactly, rank
    below every ratio).  bounds[x] and exact[x] are bound(x, x + 1) and, on
    the plain p = q (else None), the exact modulus.  A bound that is not
    finite raises DomainError; once a block's bounds are finite, so are
    1/mu(B(x, r)) for its atoms and the next, and so its densities."""
    kernel = AveragingKernel.build(space, r)
    avgs = [kernel.apply(f).values for f in fs]
    n = space.natoms
    dual = spec.variant == PLAIN and spec.p == spec.q
    best = [(-np.inf, 0, 0, 0.0)] * len(fs)
    bounds, exact = np.empty(n - 1), np.empty(n - 1)
    for rows in space.pair_blocks():
        with np.errstate(over="ignore", invalid="ignore"):
            bound = equicontinuity_bound_matrix(space, r, spec, rows)
        if not np.isfinite(bound).all():
            raise DomainError(f"the equicontinuity bound at radius {r:g} overflows")
        bounds[rows.start:rows.stop] = np.diagonal(bound, offset=rows.start + 1)
        positive = bound > 0
        equal = ~positive
        ratio = np.empty_like(bound)
        for i, avg in enumerate(avgs):
            np.subtract(avg[rows, None], avg, out=ratio)
            np.abs(ratio, out=ratio)
            np.divide(ratio, bound, out=ratio, where=positive)
            ratio[equal] = -np.inf
            x, y = divmod(int(np.argmax(ratio)), n)
            if ratio[x, y] > best[i][0]:
                best[i] = (ratio[x, y], rows.start + x, y, float(bound[x, y]))
        del bound, positive, equal, ratio  # before the block's densities
        if dual:  # the bound has checked p in (1, inf)
            exact[rows.start:rows.stop] = _difference_densities(
                space, r, slice(rows.start, min(rows.stop + 1, n)), spec.p / (spec.p - 1.0))
    if best[0][0] == -np.inf:
        return None, bounds, None
    worst = [(x, y, abs(avgs[i][x] - avgs[i][y]), b) for i, (_, x, y, b) in enumerate(best)]
    return worst, bounds, exact if dual else None
