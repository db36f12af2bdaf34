"""Finite atomic metric measure spaces.

A space is a finite set of atoms 0..n-1 with a metric and a strictly
positive weight per atom.  Every closed ball B(x, r) = {y : d(x, y) <= r}
then has measure in (0, mu(X)], and all set operations are finite
enumerations, so the quantities studied here (doubling constants, Vitali
subfamilies, symmetric differences) are exact up to floating-point
rounding.

Every decision about how a ball is stored and summed is made here, in the
ball layer of `MetricMeasureSpace` (`distance_row`, `ball_mask`,
`ball_blocks`, `ball_measures`); the averaging operator and the checks
read balls only through it.  A matrix space holds its full distance
matrix, and the layer forms its balls and their products in row blocks
and column tiles of 128 kB of float64.  A line space (a cloud of
dimension 1, or a lattice) keeps its coordinates and their sort order
instead, and forms the matrix only when `dist` is first read.  There a
ball is a run of consecutive atoms in coordinate order (`ball_runs`), so
the layer needs O(n) memory and no n x n array.  Every ball measure and
every measure of a symmetric difference sums the weights' exact integer
limbs (see `_limbs`), so both forms of one space give it the same
bits.  Spaces are immutable, so each space keeps its runs, ball measures
and limb measures in one read-only memo per radius.
"""

import bisect
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .decode import pack_floats
from .errors import DomainError, MetricViolationError

DEFAULT_MAX_ATOMS = 5000
MAX_ATOMS_ENV = "LORAVG_MAX_ATOMS"

# Entries per block of a line space's balls (see `ball_blocks`): 2 MB of
# float64.  On a 4000-atom cloud with balls of about 1000 atoms, blocks of
# 2^15 entries took twice as long for the same means, with other bits.
_BLOCK_ENTRIES = 1 << 18

# Entries per block of a matrix space's balls (see `ball_blocks`) and pairs
# (x, y) per block or tile of pair measures (see `pair_blocks`): 128 kB of
# float64, the size of every float operand those blocks form.
_PAIR_BLOCK_ENTRIES = 1 << 14

# Half the float64 entries of the triangle check's buffer: 1 MB in all.  A
# tile's pivot sums and their minima fit it, and it stays in cache from the
# sums to the reduction.
_TRIANGLE_BLOCK_ENTRIES = 1 << 16

# Rows per row tile of the triangle check, at most; a tile then takes as
# many columns as the buffer holds.
_TRIANGLE_TILE_ROWS = 8

# Relative fuzz for triangle validation; computed metrics (e.g. euclidean
# distances) can violate the exact inequality by a few ulps.
_TRIANGLE_RTOL = 1e-12


def _add_limb(out, shift, mx, my, meet) -> None:
    """Add ldexp(mx[:, None] + my - 2 meet, shift), exact, to out, in place
    of meet: a limb's measures of the balls of the rows, of the columns and
    of their meets (see `MetricMeasureSpace.symm_diff_measures`)."""
    meet *= -2.0
    meet += mx[:, None]
    meet += my
    out += np.ldexp(meet, shift, out=meet)


def _max_atoms() -> int:
    raw = os.environ.get(MAX_ATOMS_ENV)
    if not raw:
        return DEFAULT_MAX_ATOMS
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise DomainError(f"{MAX_ATOMS_ENV} must be a nonnegative integer, not {raw!r}")
    return cap


@np.errstate(over="ignore")  # an overflowing sum witnesses no violation
def _least_triangle_violation(dist: np.ndarray, tol: float):
    """The least (k, i, j) with d(i, j) > (d(i, k) + d(k, j)) + tol, or None.

    A tile of rows [a, b) and columns [c, e), c > a, forms the sums
    d(i, k) + d(j, k) of its pairs over the pivots k, along the contiguous
    axis, and min-reduces them.  `validate_metric` has checked exact
    symmetry and IEEE addition commutes, so these are the bits of
    d(i, k) + d(k, j); adding tol rounds monotonically, so the least sum
    plus tol decides the same as every pivot one by one.  Only a violating
    tile compares its pivots one by one, for the first violating k of each
    pair.  The tiles cover every pair i < j, and (j, i) violates where
    (i, j) does, so the least (k, i, j) over the tiles is the first
    violation in (k, i, j) order.  Once a triple is found, later tiles sum
    only the pivots up to its k, since no larger pivot gives a lesser one.

    Row tiles [a, b) x [a + 1, n) have at most _TRIANGLE_TILE_ROWS rows.  A
    tile's sums and least sums fit one buffer of 2 * _TRIANGLE_BLOCK_ENTRIES
    float64 entries (or one pair's n + 1 entries, where that is more).
    """
    n = dist.shape[0]
    pairs = 2 * _TRIANGLE_BLOCK_ENTRIES // (n + 1)  # of the widest tile, over all pivots
    rows = max(1, min(_TRIANGLE_TILE_ROWS, pairs))
    buffer = np.empty(rows * max(1, min(n - 1, pairs // rows)) * (n + 1))
    least = (n, n, n)  # the least (k, i, j) found so far
    for a in range(0, n - 1, rows):
        b = min(a + rows, n)
        c = a + 1
        while c < n:
            pivots = min(n, least[0] + 1)
            e = min(n, c + max(1, buffer.size // ((b - a) * (pivots + 1))))
            size = (b - a) * (e - c)
            sums = buffer[:size * pivots].reshape(b - a, e - c, pivots)
            low = buffer[size * pivots:size * (pivots + 1)].reshape(b - a, e - c)
            np.add(dist[a:b, None, :pivots], dist[None, c:e, :pivots], out=sums)
            np.minimum.reduce(sums, axis=2, out=low)
            low += tol
            np.subtract(low, dist[a:b, c:e], out=low)  # < 0 exactly where d > low
            if low.min() < 0:  # find the first violating pivot of each pair
                np.add(sums, tol, out=sums)
                first = np.less(sums, dist[a:b, c:e, None]).argmax(axis=2)
                i, j = np.nonzero(low < 0)  # in row-major order
                at = first[i, j].argmin()  # the least (i, j) of the least k
                least = min(least, (int(first[i[at], j[at]]), a + int(i[at]), c + int(j[at])))
            c = e
    return None if least[0] == n else least


def validate_metric(dist: np.ndarray) -> None:
    """Check symmetry, zero diagonal, nonnegativity and all triangles.

    O(n^3), vectorized over tiles of pairs on the calling thread, in a
    buffer of 2 * _TRIANGLE_BLOCK_ENTRIES float64 entries (see
    `_least_triangle_violation`).  Raises MetricViolationError with the
    witness triple (i, k, j) that comes first in (k, i, j) order on a
    triangle failure, found in the same pass.
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise MetricViolationError("distance matrix must be square")
    if not np.all(np.isfinite(dist)):
        raise MetricViolationError("distances must be finite")
    if np.any(dist < 0):
        raise MetricViolationError("distances must be nonnegative")
    if np.any(np.diagonal(dist) != 0):
        raise MetricViolationError("diagonal must be zero")
    if not np.array_equal(dist, dist.T):
        i, j = np.argwhere(dist != dist.T)[0]
        raise MetricViolationError(f"matrix not symmetric at ({i},{j})")
    tol = _TRIANGLE_RTOL * max(dist.max(), 1.0)
    witness = _least_triangle_violation(dist, tol)
    if witness is not None:
        k, i, j = witness
        raise MetricViolationError(
            f"triangle violation: d({i},{j})={dist[i, j]} > "
            f"d({i},{k})+d({k},{j})={dist[i, k] + dist[k, j]}",
            witness=(i, k, j),
        )


def _line_distance(metric: str, a, b) -> np.ndarray:
    """from_cloud's distance between the 1-D coordinates a and b
    (broadcast): |a - b|, and sqrt(fl((a - b)^2)) for euclidean, so that
    squares that underflow give the bits of the matrix.  It is exactly
    symmetric and nondecreasing in |a - b|."""
    diff = np.subtract(a, b)
    if metric == "euclidean":
        return np.sqrt(np.square(diff, out=diff), out=diff)
    return np.abs(diff, out=diff)


def _check_radius(r: float) -> None:
    if not r >= 0:  # NaN fails too
        raise DomainError("radius must be nonnegative")


def _per_radius(method):
    """method(self, r) for a radius r, computed once per radius and kept in
    the space's memo of its name, with its arrays made read-only."""
    @functools.wraps(method)
    def memoized(self, r: float):
        _check_radius(r)
        memo, r = self._memos.setdefault(method.__name__, {}), float(r)
        if r not in memo:
            memo[r] = method(self, r)
            for array in memo[r] if isinstance(memo[r], tuple) else [memo[r]]:
                array.setflags(write=False)
        return memo[r]
    return memoized


def _checked_weights(weights: np.ndarray) -> np.ndarray:
    """The (n,) weights, if there is at least one, every one is positive and
    their total, a bound on every ball measure, is finite."""
    if weights.size == 0:
        raise DomainError("space must contain at least one atom")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN in, inf or NaN out
        if np.any(weights <= 0) or not np.isfinite(weights.sum()):
            raise DomainError("atom weights must be positive and finite, and so must their total")
    return weights


def _read_only(a) -> np.ndarray:
    """a as a read-only C-contiguous float array.  Such an array, as the
    constructors hand over, is taken as it is; anything else is copied, so
    a caller's arrays stay writeable and later writes to them miss the space."""
    if not (isinstance(a, np.ndarray) and a.dtype == float and a.flags.c_contiguous
            and not a.flags.writeable):
        a = np.array(a, dtype=float, order="C")
        a.setflags(write=False)
    return a


class MetricMeasureSpace:
    """Atoms 0..n-1 with a metric and positive atom weights.

    `MetricMeasureSpace(dist, weights)` is a matrix space.  `from_cloud`
    of dimension 1 and `lattice` give line spaces, whose `coords` hold one
    coordinate per atom and `order` their stable sort order (both None on
    a matrix space), and whose `dist` is formed on first read.  Instances
    are immutable.
    """

    def __init__(self, dist, weights, metric_by_construction: bool = False):
        dist, weights = _read_only(dist), _read_only(weights)
        if weights.ndim != 1 or dist.shape != (weights.size, weights.size):
            raise DomainError("need an n x n distance matrix and n weights")
        weights = _checked_weights(weights)
        n = weights.size
        if not metric_by_construction:
            if n > _max_atoms():
                raise DomainError(
                    f"{n} atoms exceeds the validation cap "
                    f"({_max_atoms()}); set {MAX_ATOMS_ENV} or build with "
                    "metric_by_construction=True for a metric known to be valid"
                )
            validate_metric(dist)
        self.__dict__.update(dist=dist, weights=weights, coords=None, order=None,
                             metric=None, metric_by_construction=metric_by_construction,
                             _memos={})

    @classmethod
    def _line(cls, coords: np.ndarray, metric: str, weights) -> "MetricMeasureSpace":
        """Line space on the 1-D coordinates coords under from_cloud's metric."""
        coords, weights = _read_only(coords), _read_only(weights)
        if weights.shape != coords.shape:
            raise DomainError("need one weight per point")
        order = np.argsort(coords, kind="stable")
        space = object.__new__(cls)
        space.__dict__.update(weights=_checked_weights(weights),
                              coords=coords, metric=metric, metric_by_construction=True,
                              order=order, _sorted=coords[order], _memos={})
        return space

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @functools.cached_property
    def dist(self) -> np.ndarray:
        """The n x n distance matrix (a line space's is formed here, on
        first read, bitwise as from_cloud would form it)."""
        dist = _line_distance(self.metric, self.coords[:, None], self.coords[None, :])
        dist.setflags(write=False)
        return dist

    @property
    def natoms(self) -> int:
        return self.weights.size

    @property
    def total_measure(self) -> float:
        return float(self.weights.sum())

    @property
    def diameter(self) -> float:
        if self.coords is None:
            return float(self.dist.max())
        return float(_line_distance(self.metric, self._sorted[-1:], self._sorted[:1])[0])

    def __eq__(self, other) -> bool:
        """Same weights and distances, however the metric was checked,
        compared a row at a time, so that a line space forms no matrix."""
        if not isinstance(other, MetricMeasureSpace):
            return NotImplemented
        return other is self or (np.array_equal(other.weights, self.weights) and all(
            np.array_equal(other.distance_row(x), self.distance_row(x))
            for x in range(self.natoms)))

    # -- the ball layer ------------------------------------------------------

    def distance_row(self, x: int, atoms=slice(None)) -> np.ndarray:
        """d(x, y) for the atoms y that `atoms` selects (all by default),
        bitwise equal to dist[x, atoms]."""
        self._check_atom(x)
        if self.coords is None:
            return self.dist[x, atoms]
        return _line_distance(self.metric, self.coords[x], self.coords[atoms])

    def ball_mask(self, x: int, r: float) -> np.ndarray:
        """Boolean mask of the closed ball B(x, r)."""
        _check_radius(r)
        return self.distance_row(x) <= r

    def ball_masks(self, r: float, rows: slice = slice(None)) -> np.ndarray:
        """(rows, n) boolean array; row i is the mask of B(x, r) for the
        i-th atom x of the slice rows (all by default).  A line space forms
        only those rows of its distances."""
        _check_radius(r)
        if self.coords is None:
            return self.dist[rows] <= r
        return _line_distance(self.metric, self.coords[rows, None], self.coords[None, :]) <= r

    @_per_radius
    def ball_runs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): on a line space, the ball of radius r around the atom
        at sorted position s is the run of sorted positions [lo[s], hi[s]).
        Both are read-only and computed once per radius.

        Both ends are found by a vectorized bisection (binary lifting) on
        the exact predicate d(y, x) <= r, which holds on a run because d
        grows with |c_y - c_x|.
        """
        if self.coords is None:
            raise DomainError("only a line space has its balls as runs")
        c, n = self._sorted, self.natoms

        def reaches(probe):
            """Whether position probe lies in the ball of each position."""
            inside = (probe >= 0) & (probe < n)
            inside[inside] = _line_distance(self.metric, c[probe[inside]], c[inside]) <= r
            return inside

        at = np.arange(n)
        lo, hi = at.copy(), at + 1
        step = 1 << (n.bit_length() - 1)
        while step:
            hi += step * reaches(hi + step - 1)
            lo -= step * reaches(lo - step)
            step >>= 1
        return lo, hi

    def ball_blocks(self, r: float):
        """Yield (rows, cols, inside), a block of balls at a time: inside[i, j]
        says whether atom cols[j] lies in B(rows[i], r).  Every atom is in
        exactly one block's rows, and no ball reaches outside its block's
        cols.

        A matrix space yields row slices of dist <= r over all columns,
        about _PAIR_BLOCK_ENTRIES entries each, in a multiple of four rows
        but the last, which is never a single row: BLAS sums the rows of a
        product four at a time and a leftover row in another order, and
        numpy takes a one-row product as a dot product, so each row of the
        means keeps the bits it has in the product over all rows.  On a line
        space the ball of the atom at sorted position s is the run
        [lo[s], hi[s]) (see `ball_runs`), and both ends grow with s.  So a
        block of sorted positions [a, b) needs only the columns
        [lo[a], hi[b - 1]), fewer than (b - a) + 2 * (longest run), and
        rows per block, with at most about _BLOCK_ENTRIES entries, grow
        with the longest run.
        """
        _check_radius(r)
        n = self.natoms
        if self.coords is None:
            step = max(4, _PAIR_BLOCK_ENTRIES // n // 4 * 4)
            stops = [*range(step, n, step), n]
            if len(stops) > 1 and stops[-1] - stops[-2] == 1:
                del stops[-2]
            for a, b in zip([0, *stops], stops):
                yield slice(a, b), slice(None), self.dist[a:b] <= r
            return
        order, (lo, hi) = self.order, self.ball_runs(r)
        longest = int((hi - lo).max())
        step = max(1, min(max(64, longest), _BLOCK_ENTRIES // (3 * longest)))
        for a in range(0, n, step):
            b = min(a + step, n)
            at = np.arange(lo[a], hi[b - 1])
            yield (order[a:b], order[lo[a]:hi[b - 1]],
                   (at >= lo[a:b, None]) & (at < hi[a:b, None]))

    @_per_radius
    def ball_measures(self, r: float) -> np.ndarray:
        """mu(B(x, r)) for every atom x at once, as a read-only array that
        is computed once per radius: the exact limb sums m_k(B(x, r)) (see
        `_limb_sums`) added as ldexp(m_k, shift_k) in ascending k.  So a
        measure does not depend on the space's form, its blocks or BLAS,
        and with at most two limbs it is correctly rounded."""
        return sum(np.ldexp(m, shift, out=m) for shift, m in zip(*self._limb_sums(r)))

    def pair_blocks(self) -> list[slice]:
        """Consecutive slices of atoms covering all of them, of lengths
        that differ by at most one, each of about _PAIR_BLOCK_ENTRIES pairs
        (x, y): the row blocks in which `symm_diff_measures` is asked for,
        and on a matrix space its column tiles too, whose masks it reads
        from `dist` a tile at a time."""
        n = self.natoms
        count = -(-n // max(1, _PAIR_BLOCK_ENTRIES // n))
        bounds = [n * i // count for i in range(count + 1)]
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def symm_diff_measures(self, r: float, rows: slice = slice(None)) -> np.ndarray:
        """mu(B(x, r) symm-diff B(y, r)) for the atoms x in the slice rows
        and every atom y, as a (rows, n) array that is exactly 0 where the
        two balls are the same atom set.

        Per limb k of the weights (see `_limbs`) the measure is the exact
        integer m_k(B(x)) + m_k(B(y)) - 2 m_k(B(x) & B(y)), and the limbs
        are summed in ascending k, so an entry does not depend on the rows
        asked for, the tiles, BLAS or the space's form; with at most two
        limbs it is correctly rounded.  A matrix space takes the meets as a
        product per limb of a block's and a tile's masks (see
        `pair_blocks`), read from `dist` as they are needed.  On a line
        space the meet of two runs (see `ball_runs`) is a run, read from the
        limbs' prefix sums in sorted order.
        """
        _check_radius(r)
        start, stop, _ = rows.indices(self.natoms)
        shifts, m = self._limb_measures(r)
        out = np.zeros((stop - start, self.natoms))
        if self.coords is None:
            dist, tiles, limbs = self.dist, self.pair_blocks(), self._limbs(self.weights)[1]
            for a in range(start, stop, tiles[0].stop):
                b = slice(a, min(a + tiles[0].stop, stop))
                block = out[a - start:b.stop - start]
                inside, weighted = dist[b] <= r, np.empty(block.shape)
                for shift, limb, mk in zip(shifts, limbs, m):
                    weighted.fill(0.0)  # then limb * inside, without a float copy of inside
                    np.copyto(weighted, limb, where=inside)
                    for c in tiles:
                        _add_limb(block[:, c], shift, mk[b], mk[c],
                                  weighted @ (dist[c] <= r).T)
            return out
        lo, hi = self._atom_runs(r)
        # The runs [lo_x, hi_x) and [lo_y, hi_y) meet in [max lo, max(max lo, min hi)).
        meet_lo = np.maximum(lo[start:stop, None], lo)
        meet_hi = np.maximum(meet_lo, np.minimum(hi[start:stop, None], hi))
        for shift, prefix, mk in zip(shifts, self._limb_prefix, m):
            _add_limb(out, shift, mk[start:stop], mk, prefix[meet_hi] - prefix[meet_lo])
        return out

    @_per_radius
    def _atom_runs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """`ball_runs` indexed by atom instead of sorted position: B(x, r) is
        the run of sorted positions [lo[x], hi[x])."""
        runs = np.empty((2, self.natoms), dtype=int)
        runs[:, self.order] = self.ball_runs(r)
        return runs[0], runs[1]

    def _limbs(self, weights: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
        """(shifts, limbs): weights (the space's, in any order, or with
        zeros added) split exactly into integer limbs, w = sum_k
        ldexp(limbs[k], shifts[k]) with ascending shifts, each below
        2^(52 - n.bit_length()), so that any 2n limbs of one k sum exactly
        in any order.  Limbs that are 0 at every atom are left out: weights
        in [0.2, 3) take two, equal ones one.  limbs is a list of new
        arrays, which no space keeps."""
        width = 52 - self.natoms.bit_length()
        shift, rest, shifts, limbs = int(np.frexp(weights.max())[1]), weights.copy(), [], []
        while np.count_nonzero(rest):
            shift -= width
            limb = np.ldexp(rest, -shift)
            rest -= np.ldexp(np.floor(limb, out=limb), shift)
            if np.count_nonzero(limb):
                shifts.insert(0, shift)
                limbs.insert(0, limb)
        return shifts, limbs

    @functools.cached_property
    def _limb_prefix(self) -> np.ndarray:
        """A line space's (K, n + 1) limb prefix sums in sorted order, read-only."""
        limbs = self._limbs(np.append(0.0, self.weights[self.order]))[1]
        return _read_only(np.cumsum(limbs, axis=1))

    def _limb_sums(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """(shifts, m): the limbs' shifts and m_k(B(x, r)), the exact sum of
        limb k over the ball, for every limb k and atom x, as a (K, n)
        array: per limb, a product with each block of `ball_blocks`, or a
        difference of the limbs' prefix sums over the runs of `ball_runs`."""
        if self.coords is None:
            shifts, limbs = self._limbs(self.weights)
            out = np.empty((len(limbs), self.natoms))
            for rows, _, inside in self.ball_blocks(r):
                for limb, m in zip(limbs, out):
                    m[rows] = inside @ limb
        else:  # the sorted limbs' prefix sums, after a zero: integers below 2^52, exact
            lo, hi = self.ball_runs(r)
            shifts, limbs = self._limbs(np.append(0.0, self.weights[self.order]))
            out = np.empty((len(shifts), self.natoms))
            for prefix, m in zip(limbs, out):
                m[self.order] = np.cumsum(prefix, out=prefix)[hi]
                m[self.order] -= prefix[lo]
        return np.array(shifts, dtype=np.intc), out  # ldexp's own exponent type: no cast

    _limb_measures = _per_radius(_limb_sums)

    def _check_atom(self, x: int) -> None:
        if not 0 <= x < self.natoms:
            raise DomainError(f"atom index {x} out of range 0..{self.natoms - 1}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_matrix(cls, dist, weights, skip_validation: bool = False):
        return cls(dist, weights, metric_by_construction=skip_validation)

    @classmethod
    def from_cloud(cls, coords, metric: str = "euclidean", weights=None):
        """Distances between the rows of coords under the euclidean, l1 or
        linf metric.  Coordinates of dimension 1 give a line space.

        In higher dimensions the per-coordinate terms |x_k - y_k| (squared
        for euclidean) are accumulated into one n x n buffer in coordinate
        order.  Since y_k - x_k = -(x_k - y_k) exactly and x_k - x_k = 0,
        the result is exactly symmetric with a zero diagonal.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] == 0:
            raise DomainError("coords must be a 2-D array of points with coordinates")
        if metric not in ("euclidean", "l1", "linf"):
            raise DomainError(f"unknown metric {metric!r}")
        if not np.all(np.isfinite(coords)):
            raise DomainError("coords must be finite")
        n, d = coords.shape
        if weights is None:
            weights = np.ones(n)
        with np.errstate(over="ignore"):  # an overflow shows as an infinite diameter
            if d == 1:
                space = cls._line(coords[:, 0], metric, weights)
            else:
                dist = np.zeros((n, n))
                term = np.empty((n, n))
                magnitude = np.square if metric == "euclidean" else np.abs
                combine = np.maximum if metric == "linf" else np.add
                for k, col in enumerate(coords.T):
                    out = dist if k == 0 else term
                    np.subtract(col[:, None], col[None, :], out=out)
                    magnitude(out, out=out)
                    if k:
                        combine(dist, term, out=dist)
                if metric == "euclidean":
                    np.sqrt(dist, out=dist)
                dist.setflags(write=False)
                space = cls(dist, weights, metric_by_construction=True)
            if not math.isfinite(space.diameter):
                raise DomainError("the distances between the points overflow")
        return space

    @classmethod
    def lattice(cls, L: int, weights=None):
        """Atoms {0..L} on the line, distance |x - y|, unit weights by default."""
        if L < 0:
            raise DomainError("lattice size must be >= 0")
        return cls._line(np.arange(L + 1, dtype=float), "l1",
                         np.ones(L + 1) if weights is None else weights)

    @classmethod
    def from_graph(cls, n: int, edges, weights=None):
        """Shortest-path metric of an undirected positively weighted graph."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import shortest_path

        edges = np.asarray(edges, dtype=float)
        if edges.size and edges.shape[1:] != (3,):
            raise DomainError("edges must be (u, v, weight) triples")
        edges = edges.reshape(-1, 3)
        ends, w = edges[:, :2], edges[:, 2]
        if not np.all((w > 0) & (w < np.inf)):
            raise DomainError("edge weights must be positive and finite")
        if not np.all((ends >= 0) & (ends < n) & (ends == np.floor(ends))):
            raise DomainError("edge endpoints must be atom indices in 0..n-1")
        # coo_matrix adds repeated entries: keep the least weight of a pair.
        u, v = np.sort(ends.astype(int), axis=1).T
        order = np.argsort(w, kind="stable")
        keep = order[np.unique(np.column_stack((u, v))[order], axis=0, return_index=True)[1]]
        u, v, w = u[keep], v[keep], w[keep]
        graph = coo_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(n, n))
        dist = shortest_path(graph, method="D", directed=False)
        if not np.all(np.isfinite(dist)):
            raise DomainError("graph is not connected")
        dist = np.minimum(dist, dist.T)
        dist.setflags(write=False)
        return cls(dist, np.ones(n) if weights is None else weights, metric_by_construction=True)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """Canonical JSON form: explicit matrix plus weights, given as the
        space's read-only float arrays, which `build_space` takes back.
        The CLI writes them a row at a time; json.dumps needs their
        .tolist()."""
        return {"kind": "matrix", "dist": self.dist, "weights": self.weights}


_MAX_SIZE = np.iinfo(np.intp).max // 16  # numpy refuses larger arrays without a MemoryError


def _floats(raw, key: str) -> np.ndarray:
    """raw, the space field key as parsed from JSON, packed by `pack_floats`
    or a float array (as `to_json` gives), as a float array; DomainError if
    it does not convert.  An array made here is read-only, so a space
    takes it without a copy."""
    if isinstance(raw, np.ndarray) and raw.dtype == float:
        return raw
    packed = pack_floats(raw)
    if packed is None:
        raise DomainError(f"space field {key!r} is not numeric")
    floats = np.asarray(packed)
    floats.setflags(write=False)
    return floats


def _size_field(spec: dict, key: str) -> int:
    """spec[key] as an int in 0.._MAX_SIZE: 3 or 3.0, but not 2.7, true or "3"."""
    raw = spec[key]
    if type(raw) not in (int, float) or not 0 <= raw <= _MAX_SIZE or raw != int(raw):
        raise DomainError(f"space field {key!r} must be an integer in 0..{_MAX_SIZE}")
    return int(raw)


def build_space(spec: dict) -> MetricMeasureSpace:
    """Build a space from its JSON description.

    kind "matrix" needs "dist"; "cloud" needs "coords" (+ optional
    "metric"); "lattice" needs "L"; "graph" needs "n" and "edges" as
    [u, v, weight] triples.  "weights" defaults to 1.0 per atom.  An
    explicit matrix is always checked against the metric axioms.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("space description must be an object with a 'kind'")
    kind = spec["kind"]
    weights = None if spec.get("weights") is None else _floats(spec["weights"], "weights")
    if kind == "matrix":
        if "dist" not in spec:
            raise DomainError("matrix space needs a 'dist' field")
        dist = _floats(spec["dist"], "dist")
        if weights is None:
            weights = np.ones(dist.shape[0] if dist.ndim else 0)
        return MetricMeasureSpace.from_matrix(dist, weights)
    if kind == "cloud":
        if "coords" not in spec:
            raise DomainError("cloud space needs a 'coords' field")
        return MetricMeasureSpace.from_cloud(
            _floats(spec["coords"], "coords"), metric=spec.get("metric", "euclidean"),
            weights=weights)
    if kind == "lattice":
        if "L" not in spec:
            raise DomainError("lattice space needs an 'L' field")
        return MetricMeasureSpace.lattice(_size_field(spec, "L"), weights=weights)
    if kind == "graph":
        if "n" not in spec or "edges" not in spec:
            raise DomainError("graph space needs 'n' and 'edges' fields")
        return MetricMeasureSpace.from_graph(_size_field(spec, "n"),
                                             _floats(spec["edges"], "edges"), weights=weights)
    raise DomainError(f"unknown space kind {kind!r}")


def ball(space: MetricMeasureSpace, x: int, r: float):
    """Closed ball B(x, r): (sorted atom indices, measure)."""
    return np.flatnonzero(space.ball_mask(x, r)), float(space.ball_measures(r)[x])


def doubling_constant(space: MetricMeasureSpace, s: float) -> float:
    """Tight s-doubling constant gamma = sup_x mu(B(x,2s))/mu(B(x,s));
    finite spaces are always s-doubling."""
    if not s > 0:
        raise DomainError("doubling scale must be positive")
    with np.errstate(over="ignore"):  # a quotient above DBL_MAX is inf
        return float((space.ball_measures(2 * s) / space.ball_measures(s)).max())


def greedy_scan(count: int, distances_to, threshold: float):
    """Scan points 0..count-1 in order, keeping a point iff it is more than
    threshold away from every point kept before it; distances_to(i, kept)
    gives those distances.  Yields (i, kept_i, least distance to the kept)."""
    kept: list[int] = []
    for i in range(count):
        d = distances_to(i, kept)
        nearest = float(np.min(d)) if len(d) else math.inf
        keep = nearest > threshold
        if keep:
            kept.append(i)
        yield i, keep, nearest


def separated_points(space: MetricMeasureSpace, delta: float, k: int) -> list[int]:
    """Up to k atoms with pairwise distance strictly greater than delta.

    Greedy scan in index order starting from atom 0; may return fewer
    than k points when the space cannot host them.
    """
    if not delta > 0:
        raise DomainError("separation delta must be positive")
    if k < 1:
        raise DomainError("need k >= 1")
    if space.coords is not None:
        return _separated_line_points(space, delta, k)
    scan = greedy_scan(space.natoms, lambda x, kept: space.distance_row(x, kept), delta)
    return list(itertools.islice((x for x, keep, _ in scan if keep), k))


def _separated_line_points(space: MetricMeasureSpace, delta: float, k: int) -> list[int]:
    """separated_points on a line space, with greedy_scan's rule.

    A distance is nondecreasing in |c_x - c_y|, so the kept atom nearest
    to x is a neighbour of c_x among the kept coordinates, which stay
    sorted; each distance has _line_distance's bits, in float arithmetic.
    """
    if space.metric == "euclidean":
        def gap(a: float, b: float) -> float:
            return math.sqrt((a - b) * (a - b))
    else:
        def gap(a: float, b: float) -> float:
            return abs(a - b)
    kept: list[int] = []
    kept_coords: list[float] = []  # sorted
    for x, c in enumerate(space.coords.tolist()):
        i = bisect.bisect_left(kept_coords, c)
        if min((gap(c, y) for y in kept_coords[max(i - 1, 0):i + 1]), default=math.inf) > delta:
            kept.append(x)
            if len(kept) == k:
                break
            kept_coords.insert(i, c)
    return kept


def vitali_subfamily(space: MetricMeasureSpace, balls):
    """Disjoint subfamily whose 5x-enlarged balls cover the input union.

    Greedy in decreasing radius (ties by lower center index); a ball is
    kept iff it shares no atom with any previously kept ball.  Both the
    disjointness and the 5x coverage are checked before returning; a
    failure of either raises RuntimeError.
    """
    balls = [(int(c), float(r)) for c, r in balls]
    for c, r in balls:
        space._check_atom(c)
        if not (np.isfinite(r) and r >= 0):
            raise DomainError("ball radii must be finite and nonnegative")
    order = sorted(range(len(balls)), key=lambda i: (-balls[i][1], balls[i][0]))
    kept: list[tuple[int, float]] = []
    covered = np.zeros(space.natoms, dtype=bool)
    for i in order:
        c, r = balls[i]
        mask = space.ball_mask(c, r)
        if not (mask & covered).any():
            kept.append((c, r))
            covered |= mask
    def holding(family, scale):
        """How many balls of family, with scaled radii, hold each atom."""
        return sum((space.ball_mask(c, scale * r) for c, r in family), np.zeros(space.natoms, int))
    if np.any((holding(balls, 1) > 0) & (holding(kept, 5) == 0)):
        raise RuntimeError("the 5r enlargements of the kept balls must cover the input")
    if holding(kept, 1).max() > 1:
        raise RuntimeError("kept Vitali balls overlap")
    return kept


def symm_diff_measure(space: MetricMeasureSpace, x: int, y: int, r: float) -> float:
    """mu(B(x,r) symmetric-difference B(y,r)); zero iff equal atom sets."""
    return math.fsum(space.weights[space.ball_mask(x, r) ^ space.ball_mask(y, r)].tolist())


@dataclass(frozen=True)
class BoundednessReport:
    """The quantities linking boundedness, doubling and total boundedness."""

    radius: float
    diameter: float
    total_measure: float
    min_ball_measure: float
    min_ball_ratio: float  # inf_x mu(B(x,r)) / mu(B(x,2r))
    doubling_r: float  # the tight doubling constants at scales r, 2r and 4r
    doubling_2r: float
    doubling_4r: float


def min_ball_ratio(space: MetricMeasureSpace, r: float) -> float:
    """inf over atoms of mu(B(x,r))/mu(B(x,2r)); the witness separation constant."""
    if not r > 0:
        raise DomainError("radius must be positive")
    return float((space.ball_measures(r) / space.ball_measures(2 * r)).min())


def boundedness_report(space: MetricMeasureSpace, r: float) -> BoundednessReport:
    if not r > 0:
        raise DomainError("radius must be positive")
    return BoundednessReport(
        radius=float(r),
        diameter=space.diameter,
        total_measure=space.total_measure,
        min_ball_measure=float(space.ball_measures(r).min()),
        min_ball_ratio=min_ball_ratio(space, r),
        doubling_r=doubling_constant(space, r),
        doubling_2r=doubling_constant(space, 2 * r),
        doubling_4r=doubling_constant(space, 4 * r),
    )
