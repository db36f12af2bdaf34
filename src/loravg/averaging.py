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
* the equicontinuity modulus of {A_r f : ||f|| <= 1} between two atoms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .norms import NormSpec, holder_constants, lebesgue_norm, lebesgue_norms, lorentz_norm
from .rearrange import FunctionOnSpace, MaximalProfile, StepFunction, runs, sorted_profile
from .space import MetricMeasureSpace, ball, doubling_constant, symm_diff_measure


def holds(lhs, rhs):
    """The pass criterion of every check: lhs <= rhs up to a rounding slack
    of 1e-12 (1 + rhs).  Elementwise on arrays."""
    return lhs <= rhs + 1e-12 * (1.0 + rhs)


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
            raise RuntimeError("averaging kernel rows must sum to 1")
        return cls(space=space, r=float(r), ball_measures=measures)

    def means(self, values) -> np.ndarray:
        """A_r of an (n,) value array, or of each column of an (n, m) one:
        per block of balls, the kernel coefficients w_y / mu(B(x, r)) times
        the values in one matrix product."""
        values = np.asarray(values, dtype=float)
        weights, measures = self.space.weights, self.ball_measures
        out = np.empty(values.shape)
        for rows, cols, inside in self.space.ball_blocks(self.r):
            out[rows] = (weights[cols] / measures[rows, None]) * inside @ values[cols]
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
    exact = None
    if spec.variant == "plain" and spec.p == spec.q and math.isfinite(spec.p):
        g = _kernel_difference_density(space, x, y, r)
        exact = lebesgue_norm(g, spec.p / (spec.p - 1.0))
    return bound, exact


def adjacent_dual_moduli(space: MetricMeasureSpace, r: float, spec: NormSpec,
                         rows: slice) -> np.ndarray:
    """equicontinuity_modulus's exact component for the pairs (x, x + 1)
    with x in the slice rows and x + 1 < n, in one array pass: the dual
    norm of each kernel-row difference density, with the bits of the pair
    by pair computation.  Needs the plain diagonal p = q, p in (1, inf)."""
    if not (spec.variant == "plain" and spec.p == spec.q and 1 < spec.p < math.inf):
        raise DomainError("the exact modulus needs plain p = q in (1, inf)")
    start, stop, _ = rows.indices(space.natoms - 1)
    mu = space.ball_measures(r)[start:stop + 1, None]
    masks = space.ball_masks(r, slice(start, stop + 1))
    g = masks[:-1] / mu[:-1]
    g -= masks[1:] / mu[1:]
    # Pair by pair, the pairs before the first density that is not finite
    # had their norms, and any error of those, first.
    not_finite = np.flatnonzero(~np.isfinite(g).all(axis=1))
    exact = lebesgue_norms(g[:not_finite[0]] if not_finite.size else g, space.weights,
                           spec.p / (spec.p - 1.0))
    if not_finite.size:
        raise DomainError("function values must be finite")
    return exact


def _kernel_difference_density(space: MetricMeasureSpace, x: int, y: int,
                               r: float) -> FunctionOnSpace:
    """Density g with A_r f(x) - A_r f(y) = integral of g f d(mu)."""
    mu = space.ball_measures(r)
    g = space.ball_mask(x, r) / mu[x] - space.ball_mask(y, r) / mu[y]
    return FunctionOnSpace(space, g)


def extremal_pair_function(space: MetricMeasureSpace, x: int, y: int, r: float,
                           p: float) -> FunctionOnSpace:
    """Unit-p-norm f attaining sup |A_r f(x) - A_r f(y)| on the diagonal.

    The maximizer is sign(g) |g|^{p'-1} normalized, with g the kernel-row
    difference density and p' the conjugate exponent.
    """
    if not (1 < p < math.inf):
        raise DomainError("extremal construction needs p in (1, inf)")
    g = _kernel_difference_density(space, x, y, r).values
    pp = p / (p - 1.0)
    values = np.sign(g) * np.abs(g) ** (pp - 1.0)
    f = FunctionOnSpace(space, values)
    norm = lebesgue_norm(f, p)
    if norm == 0.0:
        return f
    return f * (1.0 / norm)


def distribution_constant(space: MetricMeasureSpace, r: float):
    """(c, (g1, g2, g3)) with c = g1*g2*g3 + 1 from the tight doubling
    constants at scales r, 2r and 4r."""
    g1, g2, g3 = (doubling_constant(space, s) for s in (r, 2 * r, 4 * r))
    return g1 * g2 * g3 + 1.0, (g1, g2, g3)


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
    levels, _, _, F = sorted_profile(f.values, space.weights)
    avg_levels, _, avg_t, _ = sorted_profile(average(space, f, r).values, space.weights)
    # k is a searchsorted of the negated thresholds in the negated, so
    # nondecreasing, levels.  A c t above DBL_MAX is inf, with k = 0 and
    # mu = 0; a quotient above DBL_MAX (t can be subnormal) rounds to inf.
    with np.errstate(over="ignore"):
        lhs = avg_t[np.searchsorted(-avg_levels, -c * t)]
        rhs = F[np.searchsorted(-levels, -t)] / t
    ok = holds(lhs, rhs)
    ratio = np.divide(lhs, rhs, out=np.where(lhs > 0, np.inf, 0.0), where=rhs > 0)
    worst = int(np.lexsort((ratio, ~ok))[-1])  # failing first, then largest ratio
    return DistributionInequalityReport(
        constant_c=c, gammas=gammas, t=float(t[worst]), lhs=float(lhs[worst]),
        rhs=float(rhs[worst]), ratio=float(ratio[worst]), passed=bool(ok.all()))


def _threshold_grid(values: np.ndarray) -> np.ndarray:
    """The distinct positive values, a geometric midpoint between
    consecutive ones (sqrt(a b), or sqrt(a) sqrt(b) where a b is not a
    normal float), half the smallest and twice the largest (at most the
    largest float), dropping any that underflow to 0."""
    vals = np.unique(values[values > 0])
    if vals.size == 0:
        return np.array([])
    top = np.finfo(float).max
    with np.errstate(over="ignore"):
        product = vals[:-1] * vals[1:]
        above = min(2 * vals[-1], top)
    normal = (product >= np.finfo(float).tiny) & (product <= top)
    mids = np.where(normal, np.sqrt(product), np.sqrt(vals[:-1]) * np.sqrt(vals[1:]))
    grid = np.unique(np.concatenate((vals, mids, [vals[0] / 2, above])))
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
    levels, _, t, F = sorted_profile(f.values, space.weights)
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


def equicontinuity_bound_matrix(space: MetricMeasureSpace, r: float, spec: NormSpec,
                                rows: slice = slice(None)) -> np.ndarray:
    """bound(x, y) for the atoms x in the slice rows (all by default) and
    every atom y: the vectorized form of equicontinuity_modulus's first
    component, 0 exactly where B(x, r) and B(y, r) are the same atom set."""
    mu = space.ball_measures(r)
    sd = space.symm_diff_measures(r, rows)
    lam = holder_constants(spec, 1.0).lam
    one_minus = 1.0 - 1.0 / spec.p
    alpha_x = lam * mu[rows] ** one_minus
    alpha_sd = lam * sd ** one_minus
    return (np.abs(1.0 / mu[rows, None] - 1.0 / mu[None, :]) * alpha_x[:, None]
            + alpha_sd / mu[None, :])
