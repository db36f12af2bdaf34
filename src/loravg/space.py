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
matrix.  A line space (a cloud of dimension 1, or a lattice) keeps its
coordinates and their sort order instead, and forms the matrix only when
`dist` is first read.  There a ball is a run of consecutive atoms in
coordinate order (`ball_runs`), so the layer needs O(n) memory and no
n x n array.  Spaces are immutable, so each space keeps one memo per
radius, read-only: the runs of a line space (by sorted position and by
atom) and the ball measures of either form are computed once, and every
ball measure is read from it.  The compensated prefix sums of a line
space's weights do not depend on the radius and are computed once.
"""

import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MetricViolationError

DEFAULT_MAX_ATOMS = 5000
MAX_ATOMS_ENV = "LORAVG_MAX_ATOMS"

# Entries per block of balls (see `ball_blocks`): 2 MB of float64.
_BLOCK_ENTRIES = 1 << 18

# Pairs (x, y) per row block of pair measures (see `pair_blocks`): 256 kB
# of float64.
_PAIR_BLOCK_ENTRIES = 1 << 15

# Entries per row block of the triangle check, summed over its threads:
# each thread has two float64 buffers that stay in cache while every pivot
# passes over them.
_TRIANGLE_BLOCK_ENTRIES = 1 << 16

# Relative fuzz for triangle validation; computed metrics (e.g. euclidean
# distances) can violate the exact inequality by a few ulps.
_TRIANGLE_RTOL = 1e-12

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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _violates_a_triangle(dist: np.ndarray, tol: float) -> bool:
    """Whether d(i, j) > (d(i, k) + d(k, j)) + tol for some i < j and k.

    Row block [a, b) x [a, n) at a time, each block keeps the least
    d(i, k) + d(k, j) over all pivots k in a preallocated buffer.  Adding
    tol rounds monotonically, so comparing with that least sum plus tol
    decides the same as comparing pivot by pivot.  A violating (i, j)
    implies (j, i) and the diagonal never violates, so pairs i < j suffice.

    min(usable CPUs, blocks) threads, the caller among them, take the
    blocks from a shared counter, so a stalled CPU holds up at most one
    block; numpy releases the GIL inside np.add and np.minimum.  Each
    thread works in its own slice of one buffer allocated here, and the
    threads stop taking blocks after the first violating block or the
    first exception, which is raised here once all have stopped.
    """
    n = dist.shape[0]
    one_thread_rows = max(1, min(n, _TRIANGLE_BLOCK_ENTRIES // n))
    workers = min(_usable_cpus(), -(-n // one_thread_rows))
    rows = max(1, min(n, _TRIANGLE_BLOCK_ENTRIES // (workers * n)))
    starts = range(0, n, rows)
    taken = itertools.count()  # next() is atomic under the GIL
    stop, found, errors = threading.Event(), [], []

    def work(total, least):
        try:
            while not stop.is_set() and (i := next(taken)) < len(starts):
                a = starts[i]
                b = min(a + rows, n)
                pair_sum, low = total[:b - a, :n - a], least[:b - a, :n - a]
                low.fill(np.inf)
                for k in range(n):
                    np.add(dist[a:b, k, None], dist[None, k, a:], out=pair_sum)
                    np.minimum(low, pair_sum, out=low)
                low += tol
                # low - d < 0 exactly where d > low; in place, because a
                # temporary in a thread grows the heap of its own arena.
                np.subtract(low, dist[a:b, a:], out=low)
                if low.min() < 0:
                    found.append(a)
                    stop.set()
        except BaseException as err:
            errors.append(err)
            stop.set()

    buffers = np.empty((workers, 2, rows, n))
    threads = [threading.Thread(target=work, args=tuple(buffer)) for buffer in buffers[1:]]
    try:
        for thread in threads:
            thread.start()
        work(*buffers[0])
    finally:
        stop.set()  # all blocks are taken unless a thread failed to start
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]
    return bool(found)


def validate_metric(dist: np.ndarray) -> None:
    """Check symmetry, zero diagonal, nonnegativity and all triangles.

    O(n^3), vectorized in row blocks that the usable CPUs share, one
    thread each, with no thread when there is one block or one CPU (see
    `_violates_a_triangle`).  All threads together hold two buffers of
    about _TRIANGLE_BLOCK_ENTRIES float64 entries, as one thread did.
    Raises MetricViolationError with the witness triple (i, k, j) that
    comes first in (k, i, j) order on a triangle failure; that witness is
    found pivot by pivot, on one thread.
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
    if not _violates_a_triangle(dist, tol):
        return
    for k in range(n):  # locate the first witness, pivot by pivot
        bad = dist > dist[:, k, None] + dist[None, k, :] + tol
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            raise MetricViolationError(
                f"triangle violation: d({i},{j})={dist[i, j]} > "
                f"d({i},{k})+d({k},{j})={dist[i, k] + dist[k, j]}",
                witness=(i, k, j),
            )
    raise RuntimeError("the blockwise triangle check must agree with the pivot loop")


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


def _checked_weights(weights: np.ndarray) -> np.ndarray:
    """The (n,) weights as a read-only array, if there is at least one and
    every one is positive and finite."""
    if weights.size == 0:
        raise DomainError("space must contain at least one atom")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise DomainError("atom weights must be positive and finite")
    weights.setflags(write=False)
    return weights


class MetricMeasureSpace:
    """Atoms 0..n-1 with a metric and positive atom weights.

    `MetricMeasureSpace(dist, weights)` is a matrix space.  `from_cloud`
    of dimension 1 and `lattice` give line spaces, whose `coords` hold one
    coordinate per atom and `order` their stable sort order (both None on
    a matrix space), and whose `dist` is formed on first read.  Instances
    are immutable.
    """

    def __init__(self, dist, weights, metric_by_construction: bool = False):
        dist = np.ascontiguousarray(np.asarray(dist, dtype=float))
        weights = np.ascontiguousarray(np.asarray(weights, dtype=float))
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
        dist.setflags(write=False)
        self.__dict__.update(dist=dist, weights=weights, coords=None, order=None,
                             metric=None, metric_by_construction=metric_by_construction,
                             _measures={}, _runs={}, _atom_run_memo={})

    @classmethod
    def _line(cls, coords: np.ndarray, metric: str, weights) -> "MetricMeasureSpace":
        """Line space on the 1-D coordinates coords under from_cloud's metric."""
        coords = np.array(coords, dtype=float)
        weights = np.array(weights, dtype=float)
        if weights.shape != coords.shape:
            raise DomainError("need one weight per point")
        coords.setflags(write=False)
        order = np.argsort(coords, kind="stable")
        space = object.__new__(cls)
        space.__dict__.update(weights=_checked_weights(weights),
                              coords=coords, metric=metric, metric_by_construction=True,
                              order=order, _sorted=coords[order], _measures={}, _runs={},
                              _atom_run_memo={})
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
        """Same distances and weights, however the metric was checked."""
        if not isinstance(other, MetricMeasureSpace):
            return NotImplemented
        return other is self or (np.array_equal(other.weights, self.weights)
                                 and np.array_equal(other.dist, self.dist))

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

    def ball_runs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): on a line space, the ball of radius r around the atom
        at sorted position s is the run of sorted positions [lo[s], hi[s]).
        Both are read-only and computed once per radius.

        Both ends are found by a vectorized bisection (binary lifting) on
        the exact predicate d(y, x) <= r, which holds on a run because d
        grows with |c_y - c_x|.
        """
        _check_radius(r)
        if self.coords is None:
            raise DomainError("only a line space has its balls as runs")
        r = float(r)
        if r in self._runs:
            return self._runs[r]
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
        lo.setflags(write=False)
        hi.setflags(write=False)
        self._runs[r] = lo, hi
        return lo, hi

    def ball_blocks(self, r: float):
        """Yield (rows, cols, inside), a block of balls at a time: inside[i, j]
        says whether atom cols[j] lies in B(rows[i], r).  Every atom is in
        exactly one block's rows, and no ball reaches outside its block's
        cols.  A block has at most about _BLOCK_ENTRIES entries.

        A matrix space yields row slices of dist <= r over all columns.  On
        a line space the ball of the atom at sorted position s is the run
        [lo[s], hi[s]) (see `ball_runs`), and both ends grow with s.  So a
        block of sorted positions [a, b) needs only the columns
        [lo[a], hi[b - 1]), fewer than (b - a) + 2 * (longest run), and
        rows per block grow with the longest run.
        """
        _check_radius(r)
        n = self.natoms
        if self.coords is None:
            step = max(1, _BLOCK_ENTRIES // n)
            for a in range(0, n, step):
                yield slice(a, a + step), slice(None), self.dist[a:a + step] <= r
            return
        order, (lo, hi) = self.order, self.ball_runs(r)
        longest = int((hi - lo).max())
        step = max(1, min(max(64, longest), _BLOCK_ENTRIES // (3 * longest)))
        for a in range(0, n, step):
            b = min(a + step, n)
            at = np.arange(lo[a], hi[b - 1])
            yield (order[a:b], order[lo[a]:hi[b - 1]],
                   (at >= lo[a:b, None]) & (at < hi[a:b, None]))

    def ball_measures(self, r: float) -> np.ndarray:
        """mu(B(x, r)) for every atom x at once, as a read-only array that
        is computed once per radius.

        A matrix space sums the rows of `ball_blocks` times the weights.  A
        line space sums each ball's run with np.add.reduceat (differences
        of prefix sums would cancel).
        """
        _check_radius(r)
        r = float(r)
        if r in self._measures:
            return self._measures[r]
        if self.coords is None:
            out = np.concatenate([(inside * self.weights).sum(axis=1)
                                  for _, _, inside in self.ball_blocks(r)])
        else:
            # A trailing zero makes hi = n a valid index.  Every run is
            # nonempty, so the even entries of reduceat over
            # (lo_0, hi_0, lo_1, ...) are the run sums; the odd ones are
            # single entries, as lo[s+1] <= hi[s].
            bounds = np.column_stack(self.ball_runs(r)).ravel()
            out = np.empty(self.natoms)
            out[self.order] = np.add.reduceat(np.append(self.weights[self.order], 0.0),
                                              bounds)[::2]
        out.setflags(write=False)
        self._measures[r] = out
        return out

    def pair_blocks(self) -> list[slice]:
        """Consecutive slices of atoms covering all of them: the row blocks
        in which `symm_diff_measures` sums.  A block holds about
        _PAIR_BLOCK_ENTRIES pairs (x, y).  On a matrix space it holds at
        least n^2 / 16, because each block also converts two n x n masks
        to floats for its products, and at least two rows when n > 1:
        numpy multiplies a one-row block with another kernel (gemv), whose
        sums round differently from the whole matrix product's."""
        n = self.natoms
        step = max(1, _PAIR_BLOCK_ENTRIES // n)
        if self.coords is None:
            step = max(step, -(-n // 16), 2)
        ends = [*range(step, n, step), n]
        if self.coords is None and len(ends) > 1 and ends[-1] - ends[-2] == 1:
            del ends[-2]  # the last row joins the block before it
        return [slice(a, b) for a, b in zip([0, *ends[:-1]], ends)]

    def symm_diff_measures(self, r: float, rows: slice = slice(None)) -> np.ndarray:
        """mu(B(x, r) symm-diff B(y, r)) for the atoms x in the slice rows
        and every atom y, as a (rows, n) array that is exactly 0 where the
        two balls are the same atom set.

        A matrix space sums mu(B(x) \\ B(y)) and mu(B(y) \\ B(x)) over the
        atoms z as masked row products w_z [z in B(x)] [z not in B(y)],
        without cancellation.  It forms whole `pair_blocks` and slices the
        rows out of them, so a row's bits do not depend on which rows are
        asked for.  On a line space both balls are runs (see `ball_runs`)
        and so is each of the at most two pieces of their difference; a
        piece is a difference of compensated prefix sums of the weights in
        sorted order, which needs no n x n array.
        """
        _check_radius(r)
        start, stop, _ = rows.indices(self.natoms)
        if self.coords is None:
            masks, weights = self.ball_masks(r), self.weights
            blocks = [b for b in self.pair_blocks() if b.start < stop and b.stop > start]
            out = np.concatenate([(masks[b] * weights) @ ~masks.T
                                  + ((masks * weights) @ ~masks[b].T).T for b in blocks])
            return out[start - blocks[0].start:stop - blocks[0].start]
        lo, hi = self._atom_runs(r)
        prefix = self._weight_prefix
        # Runs [lo_x, hi_x) and [lo_y, hi_y) differ in [min lo, min(max lo, min hi))
        # and [max(max lo, min hi), max hi), both empty for equal runs.
        lx, hx = lo[start:stop, None], hi[start:stop, None]
        inner_lo, inner_hi = np.maximum(lx, lo), np.minimum(hx, hi)
        sd = ((prefix[np.minimum(inner_lo, inner_hi)] - prefix[np.minimum(lx, lo)])
              + (prefix[np.maximum(hx, hi)] - prefix[np.maximum(inner_lo, inner_hi)]))
        return sd.real + sd.imag

    def _atom_runs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """`ball_runs` indexed by atom instead of sorted position: B(x, r) is
        the run of sorted positions [lo[x], hi[x]).  Read-only and computed
        once per radius."""
        r = float(r)
        if r not in self._atom_run_memo:
            runs = []
            for run in self.ball_runs(r):
                by_atom = np.empty_like(run)
                by_atom[self.order] = run
                by_atom.setflags(write=False)
                runs.append(by_atom)
            self._atom_run_memo[r] = tuple(runs)
        return self._atom_run_memo[r]

    @functools.cached_property
    def _weight_prefix(self) -> np.ndarray:
        """Compensated prefix sums of the weights in sorted order, as the real
        parts, with the rounding error of each running sum, exact by TwoSum
        and summed apart, as the imaginary parts: a run keeps a small weight
        next to a large one, and one gather reads both parts.  Read-only."""
        w = self.weights[self.order]
        prefix = np.concatenate(([0.0], np.cumsum(w)))
        step = prefix[1:] - prefix[:-1]
        lost = np.cumsum((prefix[:-1] - (prefix[1:] - step)) + (w - step))
        prefix = prefix + 1j * np.concatenate(([0.0], lost))
        prefix.setflags(write=False)
        return prefix

    def _check_atom(self, x: int) -> None:
        if not 0 <= x < self.natoms:
            raise DomainError(f"atom index {x} out of range 0..{self.natoms - 1}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_matrix(cls, dist, weights, skip_validation: bool = False):
        return cls(np.asarray(dist, dtype=float), np.asarray(weights, dtype=float),
                   metric_by_construction=skip_validation)

    @classmethod
    def from_cloud(cls, coords, metric: str = "euclidean", weights=None):
        """Distances between the rows of coords under the euclidean, l1 or
        linf metric.  Coordinates of dimension 1 give a line space.

        In higher dimensions the per-coordinate terms |x_k - y_k| (squared
        for euclidean) are accumulated into one n x n buffer in coordinate
        order.  Since y_k - x_k = -(x_k - y_k) exactly and x_k - x_k = 0,
        the result is exactly symmetric with a zero diagonal.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
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

        edges = _floats(edges, "edges")
        if edges.size and edges.shape[1:] != (3,):
            raise DomainError("edges must be (u, v, weight) triples")
        edges = edges.reshape(-1, 3)
        ends, w = edges[:, :2], edges[:, 2]
        if not np.all((w > 0) & (w < np.inf)):
            raise DomainError("edge weights must be positive and finite")
        if not np.all((ends >= 0) & (ends < n) & (ends == np.floor(ends))):
            raise DomainError("edge endpoints must be atom indices in 0..n-1")
        u, v = ends.astype(int).T
        graph = coo_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(n, n))
        dist = shortest_path(graph, method="D", directed=False)
        if not np.all(np.isfinite(dist)):
            raise DomainError("graph is not connected")
        dist = np.minimum(dist, dist.T)
        if weights is None:
            weights = np.ones(n)
        return cls(dist, np.asarray(weights, dtype=float), metric_by_construction=True)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """Canonical JSON form: explicit matrix plus weights."""
        return {
            "kind": "matrix",
            "dist": self.dist.tolist(),
            "weights": self.weights.tolist(),
        }


_MAX_SIZE = np.iinfo(np.intp).max // 16  # numpy refuses larger arrays without a MemoryError


def _floats(raw, key: str) -> np.ndarray:
    """raw, the space field key, as a float array; DomainError if it does not convert."""
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"space field {key!r} is not numeric")


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
        return MetricMeasureSpace.from_graph(_size_field(spec, "n"), spec["edges"],
                                             weights=weights)
    raise DomainError(f"unknown space kind {kind!r}")


def ball(space: MetricMeasureSpace, x: int, r: float):
    """Closed ball B(x, r): (sorted atom indices, measure)."""
    return np.flatnonzero(space.ball_mask(x, r)), float(space.ball_measures(r)[x])


def doubling_constant(space: MetricMeasureSpace, s: float) -> float:
    """Tight s-doubling constant gamma = sup_x mu(B(x,2s))/mu(B(x,s));
    finite spaces are always s-doubling."""
    if not s > 0:
        raise DomainError("doubling scale must be positive")
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
    scan = greedy_scan(space.natoms, lambda x, kept: space.distance_row(x, kept), delta)
    return list(itertools.islice((x for x, keep, _ in scan if keep), k))


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
    kept_union5 = np.zeros(space.natoms, dtype=bool)
    for c, r in kept:
        kept_union5 |= space.ball_mask(c, 5 * r)
    input_union = np.zeros(space.natoms, dtype=bool)
    for c, r in balls:
        input_union |= space.ball_mask(c, r)
    if np.any(input_union & ~kept_union5):
        raise RuntimeError("the 5r enlargements of the kept balls must cover the input")
    kept_masks = [space.ball_mask(c, r) for c, r in kept]
    for i in range(len(kept_masks)):
        for j in range(i + 1, len(kept_masks)):
            if (kept_masks[i] & kept_masks[j]).any():
                raise RuntimeError("kept Vitali balls overlap")
    return kept


def symm_diff_measure(space: MetricMeasureSpace, x: int, y: int, r: float) -> float:
    """mu(B(x,r) symmetric-difference B(y,r)); zero iff equal atom sets."""
    mx = space.ball_mask(x, r)
    my = space.ball_mask(y, r)
    return float(space.weights[mx ^ my].sum())


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
