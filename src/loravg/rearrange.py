"""Distribution function, decreasing rearrangement and maximal profile.

All three objects are exact on finite atomic spaces:

* mu_f(s)   = mu({x : |f(x)| > s})
* f*(s)     = inf{u >= 0 : mu_f(u) <= s}
* f**(s)    = (1/s) * integral of f* over [0, s]

They, the Lorentz norms and the checks of the paper's pointwise lemmas all
read one sorted profile, `sorted_profile`: one stable descending sort of
|f|, with the entries of value 0 given width 0.  Entry k is a piece of f*
of level levels[k] on [t[k], t[k + 1]), with t the cumulative widths, and
F, the cumulative levels * widths, is the primitive of f* at the
breakpoints t.  With k the number of entries above s, mu_f(s) = t[k] and
the integral of |f| over {|f| > s} is F[k].  Tied values are adjacent
pieces of one level; no sum merges them first.  The views
`distribution_function`, `rearrangement` and `maximal_profile` keep the
ends of the runs of equal levels, so their levels strictly decrease, and
mu_f and f* share their breakpoints bitwise, which makes equimeasurability
an exact identity rather than a tolerance check.
"""

import numpy as np

from ._records import record
from .errors import DomainError
from .space import MetricMeasureSpace, _read_only


@record
class FunctionOnSpace:
    """A real value per atom of a fixed space, which takes values as a
    space takes its arrays (see `space._read_only`)."""

    space: MetricMeasureSpace
    values: np.ndarray

    def __post_init__(self):
        values = _read_only(self.values)
        if values.shape != (self.space.natoms,):
            raise DomainError("need exactly one value per atom")
        if not np.all(np.isfinite(values)):
            raise DomainError("function values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def _owning(cls, space: MetricMeasureSpace, values: np.ndarray) -> "FunctionOnSpace":
        """The function of values, a new float array that nothing else
        holds, made read-only in place so that it is taken without a copy."""
        values.setflags(write=False)
        return cls(space, values)

    @classmethod
    def indicator(cls, space: MetricMeasureSpace, atoms) -> "FunctionOnSpace":
        """Characteristic function of an atom set (indices or boolean mask)."""
        values = np.zeros(space.natoms)
        values[np.asarray(atoms)] = 1.0
        return cls._owning(space, values)

    def __add__(self, other: "FunctionOnSpace") -> "FunctionOnSpace":
        self._check_same_space(other)
        return FunctionOnSpace._owning(self.space, self.values + other.values)

    def __sub__(self, other: "FunctionOnSpace") -> "FunctionOnSpace":
        self._check_same_space(other)
        return FunctionOnSpace._owning(self.space, self.values - other.values)

    def __mul__(self, c: float) -> "FunctionOnSpace":
        return FunctionOnSpace._owning(self.space, self.values * float(c))

    __rmul__ = __mul__

    def __abs__(self) -> "FunctionOnSpace":
        return FunctionOnSpace._owning(self.space, np.abs(self.values))

    def __eq__(self, other) -> bool:
        """Same space and the same value at every atom."""
        if not isinstance(other, FunctionOnSpace):
            return NotImplemented
        return other.space == self.space and np.array_equal(other.values, self.values)

    def _check_same_space(self, other: "FunctionOnSpace") -> None:
        if other.space != self.space:
            raise DomainError("functions live on different spaces")

    def to_json(self) -> dict:
        return {"values": self.values.tolist()}


def sorted_profile(values, weights):
    """(levels, widths, t, F) along the last axis of values, one function
    or rows of them, with weights of the shape of values or of its last
    axis: |values| sorted descending, stably, their weights with 0 at the
    entries of value 0, and the cumulative widths and levels * widths, led
    by a 0 (F is inf past DBL_MAX)."""
    levels = np.abs(values)
    order = np.argsort(-levels, axis=-1, kind="stable")
    levels = np.take_along_axis(levels, order, axis=-1)
    widths = weights[order] if weights.ndim == 1 else np.take_along_axis(weights, order, -1)
    widths[levels == 0] = 0.0
    t, F = np.zeros((2, *levels.shape[:-1], levels.shape[-1] + 1))
    np.cumsum(widths, axis=-1, out=t[..., 1:])
    with np.errstate(over="ignore"):
        np.cumsum(levels * widths, axis=-1, out=F[..., 1:])
    return levels, widths, t, F


def runs(levels: np.ndarray):
    """(first, last) for nonincreasing levels along the last axis: the
    index at which the run of equal levels of each entry starts, and
    whether the entry is the last of a run of positive level.  With
    breakpoints t, the pieces [t[first], t[k + 1]] of the last entries k
    are the affine pieces of F, one per distinct positive level."""
    starts = np.ones(levels.shape, dtype=bool)
    np.not_equal(levels[..., 1:], levels[..., :-1], out=starts[..., 1:])
    first = np.maximum.accumulate(np.where(starts, np.arange(levels.shape[-1]), 0), axis=-1)
    last = levels > 0
    last[..., :-1] &= starts[..., 1:]
    return first, last


def sorted_distinct(values) -> np.ndarray:
    """np.unique of a 1-D array without NaNs, by a sort and a mask: numpy
    2.4's np.unique imports numpy.ma, about 1.15 MB of resident memory."""
    values = np.sort(values)
    keep = np.ones(values.shape, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@record
class StepFunction:
    """Nonincreasing right-continuous step function on [0, inf): levels[i]
    on [breakpoints[i], breakpoints[i+1]) and 0 beyond the last breakpoint,
    with breakpoints starting at 0.  A view has one piece per distinct
    positive level; the arrays of a profile, with tied levels and pieces
    of zero width, evaluate the same way."""

    breakpoints: np.ndarray
    levels: np.ndarray

    def __call__(self, t):
        """Evaluate at t >= 0 (scalar or array)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("step functions are defined on [0, inf)")
        out = np.append(self.levels, 0.0)[np.searchsorted(self.breakpoints, t, side="right") - 1]
        return float(out) if out.ndim == 0 else out

    def to_json(self) -> dict:
        return {"breakpoints": self.breakpoints.tolist(),
                "levels": self.levels.tolist()}


def _run_ends(f: FunctionOnSpace):
    """(levels, t, F) of f's profile at the ends of the runs of equal
    positive levels, with t and F led by their 0."""
    levels, _, t, F = sorted_profile(f.values, f.space.weights)
    last = runs(levels)[1]
    return levels[last], np.append(0.0, t[1:][last]), np.append(0.0, F[1:][last])


def distribution_function(f: FunctionOnSpace) -> StepFunction:
    """mu_f(t) = mu({|f| > t}); breakpoints at the distinct positive |f|
    values, and on [levels[i+1], levels[i]) the measure t[i + 1]."""
    levels, t, _ = _run_ends(f)
    return StepFunction(np.append(0.0, levels[::-1]), t[:0:-1])


def rearrangement(f: FunctionOnSpace) -> StepFunction:
    """f*: the distinct positive |f| values on intervals whose lengths are
    the measures of their level sets."""
    levels, t, _ = _run_ends(f)
    return StepFunction(t, levels)


@record
class MaximalProfile:
    """f**(t) = F(t)/t with F the piecewise-linear primitive of f*.

    Stored as the breakpoints of f*, the node values F(t_i) and the
    slopes (= f* levels); F stays constant at `total` beyond the last
    breakpoint.  F is concave and nondecreasing with F(0) = 0, so f** is
    nonincreasing on (0, inf).
    """

    breakpoints: np.ndarray
    node_values: np.ndarray
    slopes: np.ndarray

    @property
    def total(self) -> float:
        """F at and beyond the last breakpoint; equals the L1 norm of f."""
        return float(self.node_values[-1])

    def __call__(self, t):
        """f**(t), defined for t > 0 only."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("f** is defined for t > 0 only")
        s = np.minimum(t, self.breakpoints[-1])  # F stays at total beyond
        k = np.searchsorted(self.breakpoints, s, side="right") - 1
        F = self.node_values[k] + np.append(self.slopes, 0.0)[k] * (s - self.breakpoints[k])
        out = F / t
        return float(out) if out.ndim == 0 else out


def maximal_profile(f: FunctionOnSpace) -> MaximalProfile:
    levels, t, F = _run_ends(f)
    return MaximalProfile(breakpoints=t, node_values=F, slopes=levels)


def integrate_step_product(a: StepFunction, b: StepFunction) -> float:
    """Exact integral of a(t) * b(t) over the common breakpoint refinement."""
    grid = sorted_distinct(np.concatenate((a.breakpoints, b.breakpoints)))
    grid = grid[grid <= min(a.breakpoints[-1], b.breakpoints[-1])]
    return float(np.sum(a(grid[:-1]) * b(grid[:-1]) * np.diff(grid)))


def hardy_littlewood_check(f: FunctionOnSpace, g: FunctionOnSpace):
    """(lhs, rhs) for the rearrangement pairing inequality.

    lhs = integral of |f g| over the space, rhs = integral of f* g* over
    [0, inf); lhs <= rhs always.
    """
    f._check_same_space(g)
    lhs = float(np.sum(f.space.weights * np.abs(f.values * g.values)))
    rhs = integrate_step_product(rearrangement(f), rearrangement(g))
    return lhs, rhs
