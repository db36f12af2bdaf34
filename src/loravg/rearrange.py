"""Distribution function, decreasing rearrangement and maximal profile.

All three objects are exact on finite atomic spaces:

* mu_f(t)   = mu({x : |f(x)| > t})         -- nonincreasing step function
* f*(t)     = inf{s >= 0 : mu_f(s) <= t}   -- the sorted |f| values spread
              over intervals whose lengths are the atom weights
* f**(t)    = (1/t) * integral of f* over [0, t]

mu_f and f* are built from one shared (value, weight) grouping so their
breakpoints and levels agree bitwise, which makes equimeasurability an
exact identity rather than a tolerance check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .space import MetricMeasureSpace


@dataclass(frozen=True)
class FunctionOnSpace:
    """A real value per atom of a fixed space."""

    space: MetricMeasureSpace
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if values.shape != (self.space.natoms,):
            raise DomainError("need exactly one value per atom")
        if not np.all(np.isfinite(values)):
            raise DomainError("function values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def indicator(cls, space: MetricMeasureSpace, atoms) -> "FunctionOnSpace":
        """Characteristic function of an atom set (indices or boolean mask)."""
        values = np.zeros(space.natoms)
        values[np.asarray(atoms)] = 1.0
        return cls(space, values)

    def __add__(self, other: "FunctionOnSpace") -> "FunctionOnSpace":
        self._check_same_space(other)
        return FunctionOnSpace(self.space, self.values + other.values)

    def __sub__(self, other: "FunctionOnSpace") -> "FunctionOnSpace":
        self._check_same_space(other)
        return FunctionOnSpace(self.space, self.values - other.values)

    def __mul__(self, c: float) -> "FunctionOnSpace":
        return FunctionOnSpace(self.space, self.values * float(c))

    __rmul__ = __mul__

    def __abs__(self) -> "FunctionOnSpace":
        return FunctionOnSpace(self.space, np.abs(self.values))

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


@dataclass(frozen=True)
class StepFunction:
    """Nonincreasing right-continuous step function on [0, inf).

    Value is levels[i] on [breakpoints[i], breakpoints[i+1]) and 0 on
    [breakpoints[-1], inf).  Levels are strictly decreasing and positive;
    breakpoints start at 0 and are strictly increasing.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        bp = np.ascontiguousarray(np.asarray(self.breakpoints, dtype=float))
        lv = np.ascontiguousarray(np.asarray(self.levels, dtype=float))
        if bp.size != lv.size + 1 or bp[0] != 0.0:
            raise DomainError("need breakpoints [0, t1, ..., tk] and k levels")
        if np.any(np.diff(bp) <= 0):
            raise DomainError("breakpoints must be strictly increasing")
        if lv.size and (np.any(np.diff(lv) >= 0) or np.any(lv <= 0)):
            raise DomainError("levels must be strictly decreasing and positive")
        bp.setflags(write=False)
        lv.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def __call__(self, t):
        """Evaluate at t >= 0 (scalar or array)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("step functions are defined on [0, inf)")
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        padded = np.append(self.levels, 0.0)
        out = padded[np.minimum(idx, self.levels.size)]
        return float(out) if out.ndim == 0 else out

    def to_json(self) -> dict:
        return {"breakpoints": self.breakpoints.tolist(),
                "levels": self.levels.tolist()}


def _level_weights(f: FunctionOnSpace):
    """Shared grouping of |f|: descending distinct positive values with
    merged weights and their cumulative sums.

    Returns (values desc, group weights, cumulative weights).  Both mu_f
    and f* are assembled from these arrays, so the two representations
    use bitwise-identical partial sums.  All three are empty for f = 0.
    """
    av = np.abs(f.values)
    pos = av > 0
    uniq, inverse = np.unique(av[pos], return_inverse=True)
    group_w = np.bincount(inverse, weights=f.space.weights[pos])
    values_desc = uniq[::-1]
    weights_desc = group_w[::-1]
    return values_desc, weights_desc, np.cumsum(weights_desc)


def distribution_function(f: FunctionOnSpace) -> StepFunction:
    """mu_f(t) = mu({|f| > t}); breakpoints at the distinct positive |f| values."""
    values_desc, _, cum = _level_weights(f)
    # On [values[i+1], values[i]) the measure of {|f| > t} is cum[i].
    return StepFunction(np.concatenate(([0.0], values_desc[::-1])), cum[::-1])


def rearrangement(f: FunctionOnSpace) -> StepFunction:
    """f*: the distinct |f| values on intervals of length = merged weights."""
    values_desc, _, cum = _level_weights(f)
    return StepFunction(np.concatenate(([0.0], cum)), values_desc)


@dataclass(frozen=True)
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

    def primitive(self, t):
        """F(t) for t >= 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("primitive is defined on [0, inf)")
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        idx = np.minimum(idx, self.slopes.size - 1) if self.slopes.size else idx * 0
        if self.slopes.size:
            base = self.node_values[idx] + self.slopes[idx] * (t - self.breakpoints[idx])
            out = np.minimum(base, self.total)
        else:
            out = np.zeros_like(t)
        return float(out) if out.ndim == 0 else out

    def __call__(self, t):
        """f**(t), defined for t > 0 only."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("f** is defined for t > 0 only")
        out = self.primitive(t) / t
        return float(out) if np.ndim(out) == 0 else out

    def pieces(self):
        """Affine pieces of F on [t_i, t_{i+1}] as arrays (t1, t2, a, v).

        On each piece F(t) = a + v t, so f** = a/t + v there; the first
        piece has a = 0, and beyond the last breakpoint F stays at
        `total`.
        """
        t1 = self.breakpoints[:-1]
        return t1, self.breakpoints[1:], self.node_values[:-1] - self.slopes * t1, self.slopes


def maximal_profile(f: FunctionOnSpace) -> MaximalProfile:
    star = rearrangement(f)
    widths = np.diff(star.breakpoints)
    nodes = np.concatenate(([0.0], np.cumsum(star.levels * widths)))
    return MaximalProfile(breakpoints=star.breakpoints, node_values=nodes,
                          slopes=star.levels)


def integrate_step_product(a: StepFunction, b: StepFunction) -> float:
    """Exact integral of a(t) * b(t) over the common breakpoint refinement."""
    end = min(a.breakpoints[-1], b.breakpoints[-1])
    if end == 0.0:
        return 0.0
    grid = np.unique(np.concatenate((
        a.breakpoints[a.breakpoints <= end],
        b.breakpoints[b.breakpoints <= end],
    )))
    left = grid[:-1]
    return float(np.sum(a(left) * b(left) * np.diff(grid)))


def hardy_littlewood_check(f: FunctionOnSpace, g: FunctionOnSpace):
    """(lhs, rhs) for the rearrangement pairing inequality.

    lhs = integral of |f g| over the space, rhs = integral of f* g* over
    [0, inf); lhs <= rhs always.
    """
    f._check_same_space(g)
    lhs = float(np.sum(f.space.weights * np.abs(f.values * g.values)))
    rhs = integrate_step_product(rearrangement(f), rearrangement(g))
    return lhs, rhs
