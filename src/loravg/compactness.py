"""Numerical compactness diagnostics for the averaging operator.

On a bounded space the image of the unit sphere under averaging is
totally bounded: greedy epsilon-nets of sampled images stay small as the
sample grows.  On a family of growing truncations the witness
construction (bump functions at 4r-separated centers) produces images
that stay pairwise separated by at least

    c_lower = inf_x mu(B(x, r)) / mu(B(x, 2r)),

so the number of pairwise-separated images, and with it any epsilon-net
at epsilon < c_lower, grows without bound.  The probe tabulates both
effects across a family of spaces.

All norms go through the row kernel `norms.lorentz_norms`.  A greedy net
measures one point against every kept point in one call.  The witness
keeps each bump on B(x, 2r) and each image on its support, within
B(x, 3r), as rows of (atom, value) entries; a pair's distance is the norm
of the two images' entries, merged where both have an atom.  So neither
needs an array of one value per atom for each witness.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .averaging import AveragingKernel
from .errors import DomainError
from .norms import NormSpec, holder_constants, lorentz_norm, lorentz_norms, row_blocks
from .rearrange import FunctionOnSpace
from .space import MetricMeasureSpace, greedy_scan, min_ball_ratio, separated_points

# Entries of the dense (n, g) block of bumps that `witness_sequence`
# averages at once: 128 kB of float64.
_IMAGE_BLOCK_ENTRIES = 1 << 14


def norm_distance(f: FunctionOnSpace, g: FunctionOnSpace, spec: NormSpec) -> float:
    return lorentz_norm(f - g, spec)


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


@dataclass(frozen=True)
class CoveringReport:
    epsilon: float
    n_points: int
    k: int
    net_indices: list[int]
    max_residual: float  # largest distance from a sample to the net


def covering_number(points: list[FunctionOnSpace], epsilon: float,
                    spec: NormSpec) -> CoveringReport:
    """Greedy sequential net: scan in order, keep a point iff it is more
    than epsilon away from every kept point.  The net size upper-bounds
    the true epsilon-covering number of the sample.  Each point is
    measured against all kept points in one `lorentz_norms` call."""
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    for f in points[1:]:
        points[0]._check_same_space(f)
    values = np.array([f.values for f in points])
    net: list[int] = []
    max_residual = 0.0
    scan = greedy_scan(len(points), lambda i, kept: lorentz_norms(
        values[i] - values[kept], points[i].space.weights, spec), epsilon)
    for i, keep, nearest in scan:
        if keep:
            net.append(i)
        else:
            max_residual = max(max_residual, nearest)
    return CoveringReport(epsilon=float(epsilon), n_points=len(points),
                          k=len(net), net_indices=net, max_residual=max_residual)


@dataclass(frozen=True)
class SupportRows:
    """Functions on a space kept on their supports: row i holds the atoms
    atoms[i] and the values values[i] there.  Rows are padded to a common
    length with the atom index n (one past the last atom) and value 0."""

    space: MetricMeasureSpace
    atoms: np.ndarray
    values: np.ndarray

    @classmethod
    def pack(cls, space: MetricMeasureSpace, atoms: list, values: list) -> "SupportRows":
        width = max((a.size for a in atoms), default=0)
        padded_atoms = np.full((len(atoms), width), space.natoms)
        padded_values = np.zeros((len(atoms), width))
        for i, (a, v) in enumerate(zip(atoms, values)):
            padded_atoms[i, :a.size] = a
            padded_values[i, :a.size] = v
        return cls(space, padded_atoms, padded_values)

    @functools.cached_property
    def _padded_weights(self) -> np.ndarray:
        return np.append(self.space.weights, 0.0)

    def weights(self, atoms: np.ndarray) -> np.ndarray:
        """The atom weights at atoms, and 0 at the padding index n."""
        return self._padded_weights[atoms]

    def norms(self, spec: NormSpec) -> np.ndarray:
        return lorentz_norms(self.values, self.weights(self.atoms), spec)

    def functions(self) -> list[FunctionOnSpace]:
        """Every row as a function with one value per atom."""
        out = []
        for atoms, values in zip(self.atoms, self.values):
            dense = np.zeros(self.space.natoms + 1)
            dense[atoms] = values
            out.append(FunctionOnSpace(self.space, dense[:-1]))
        return out

    def differences(self, first: np.ndarray, second: np.ndarray):
        """(atoms, values) rows of row first[k] minus row second[k] on the
        union of their supports, an atom of both merged into one entry.

        The entries of each pair are sorted by atom, stably, so an atom of
        both rows sits first in row first[k] and then in row second[k]; the
        second value moves into the first entry and leaves a 0 behind.
        """
        atoms = np.concatenate((self.atoms[first], self.atoms[second]), axis=1)
        values = np.concatenate((self.values[first], -self.values[second]), axis=1)
        order = np.argsort(atoms, axis=1, kind="stable")
        atoms = np.take_along_axis(atoms, order, axis=1)
        values = np.take_along_axis(values, order, axis=1)
        both = atoms[:, 1:] == atoms[:, :-1]  # padding entries are all 0
        values[:, :-1] += np.where(both, values[:, 1:], 0.0)
        values[:, 1:][both] = 0.0
        return atoms, values

    def distances(self, spec: NormSpec) -> np.ndarray:
        """The (m, m) spec-norm distances between the rows, taken over the
        pairs i < j in `row_blocks` of their merged rows."""
        m = self.atoms.shape[0]
        firsts = np.arange(m - 1)
        starts = firsts * (2 * m - firsts - 1) // 2  # of the pairs (i, j > i)
        out = np.zeros((m, m))
        for block in row_blocks(m * (m - 1) // 2, 2 * self.atoms.shape[1]):
            pair = np.arange(block.start, block.stop)
            i = np.searchsorted(starts, pair, side="right") - 1
            j = pair - starts[i] + i + 1
            atoms, values = self.differences(i, j)
            out[i, j] = out[j, i] = lorentz_norms(values, self.weights(atoms), spec)
        return out


@dataclass(frozen=True)
class WitnessReport:
    centers: list[int]
    bounded_regime: bool       # fewer than 2 centers with separation > 4r
    c_lower: float             # inf_x mu(B(x,r))/mu(B(x,2r))
    distances: np.ndarray | None  # pairwise spec-norm distances of images
    min_pairwise: float | None
    witness_norms: list[float]
    bumps: SupportRows | None = None   # the bumps on their balls B(x, 2r)
    image_rows: SupportRows | None = None  # their averages on their supports

    @functools.cached_property
    def functions(self) -> list[FunctionOnSpace]:
        """The bumps with one value per atom, formed on first read."""
        return [] if self.bumps is None else self.bumps.functions()

    @functools.cached_property
    def images(self) -> list[FunctionOnSpace]:
        """The averaged bumps with one value per atom, formed on first read."""
        return [] if self.image_rows is None else self.image_rows.functions()


def witness_sequence(space: MetricMeasureSpace, r: float, k: int,
                     spec: NormSpec) -> WitnessReport:
    """Bump functions alpha(B(x_n,r)) chi_{B(x_n,2r)} / mu(B(x_n,r)) at up
    to k centers with pairwise distance > 4r.

    Their averaged images are pairwise at least c_lower apart in any
    admissible norm; with fewer than two such centers the space is in the
    bounded regime and no witness exists.  Each bump is kept on its ball
    and each image on its support (see `SupportRows`).  The bumps are
    averaged with `AveragingKernel.means` in dense (n, g) blocks of about
    _IMAGE_BLOCK_ENTRIES entries, where one column holds the bumps of
    several far-apart centers.
    """
    if not r > 0:
        raise DomainError("radius must be positive")
    centers = separated_points(space, 4 * r, k)
    c_lower = min_ball_ratio(space, r)
    if len(centers) < 2:
        return WitnessReport(centers=centers, bounded_regime=True, c_lower=c_lower,
                             distances=None, min_pairwise=None, witness_norms=[])
    kernel = AveragingKernel.build(space, r)
    balls, levels = [], []
    for x in centers:
        mass = float(kernel.ball_measures[x])
        balls.append(np.flatnonzero(space.ball_mask(x, 2 * r)))
        levels.append(holder_constants(spec, mass).alpha / mass)
    # The image of a bump lies in B(x, 3r).  Bumps whose centers are more
    # than 8r apart share a column, so their images lie in disjoint balls
    # B(x, 4r), from which each is read back; on the line a few columns
    # hold them all.
    slots: list[int] = []
    for i, x in enumerate(centers):
        near = np.flatnonzero(space.distance_row(x, centers[:i]) <= 8 * r)
        taken = {slots[j] for j in near}
        slots.append(min(set(range(len(taken) + 1)) - taken))
    image_atoms, image_values = [None] * len(centers), [None] * len(centers)
    columns = max(slots) + 1
    group = max(1, _IMAGE_BLOCK_ENTRIES // space.natoms)
    for a in range(0, columns, group):
        members = [i for i, slot in enumerate(slots) if a <= slot < a + group]
        block = np.zeros((space.natoms, min(group, columns - a)))
        for i in members:
            block[balls[i], slots[i] - a] = levels[i]
        block = kernel.means(block)
        for i in members:
            column = block[:, slots[i] - a]
            image_atoms[i] = np.flatnonzero(space.ball_mask(centers[i], 4 * r) & (column != 0))
            image_values[i] = column[image_atoms[i]]
    bumps = SupportRows.pack(space, balls, levels)
    images = SupportRows.pack(space, image_atoms, image_values)
    distances = images.distances(spec)
    np.fill_diagonal(distances, np.inf)
    min_pairwise = float(distances.min())
    np.fill_diagonal(distances, 0.0)
    return WitnessReport(centers=centers, bounded_regime=False, c_lower=c_lower,
                         distances=distances, min_pairwise=min_pairwise,
                         witness_norms=bumps.norms(spec).tolist(), bumps=bumps,
                         image_rows=images)


@dataclass(frozen=True)
class SimpleApproximation:
    centers: list[int]
    radii: list[float]
    coefficients: list[float]
    function: FunctionOnSpace  # the simple function sum a_i chi_{B(x_i, r_i)}
    error: float               # spec-norm of (g - simple function)
    remainder_norm: float      # spec-norm of g outside the kept balls


def simple_approximation(space: MetricMeasureSpace, g: FunctionOnSpace, epsilon: float,
                         spec: NormSpec) -> SimpleApproximation:
    """Approximate g by a combination of indicator functions of disjoint
    balls, aiming at spec-norm error epsilon.

    Candidate balls keep the oscillation of g around the center value
    below epsilon / (2 ||chi_X||); they are scanned in decreasing measure
    (ties by center) and kept when disjoint from all previous picks,
    until the remainder norm drops to epsilon / 2.  The achieved error is
    reported as is; for g far from an averaged function it can exceed
    epsilon.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    chi_x_norm = lorentz_norm(FunctionOnSpace.indicator(space, np.ones(space.natoms, bool)), spec)
    osc_cap = epsilon / (2.0 * chi_x_norm)

    def oscillation_radius(x: int) -> float:
        """Largest radius whose closed ball keeps |g - g(x)| <= osc_cap."""
        row = space.distance_row(x)
        bad = np.abs(g.values - g.values[x]) > osc_cap
        if not bad.any():
            return float(row.max())
        below = row[row < row[bad].min()]
        # row[x] = 0 is always below unless a violator sits at distance 0
        return float(below.max()) if below.size else 0.0

    candidates = []
    for x in range(space.natoms):
        radius = oscillation_radius(x)
        candidates.append((float(space.weights[space.ball_mask(x, radius)].sum()),
                           x, radius))
    candidates.sort(key=lambda c: (-c[0], c[1]))

    covered = np.zeros(space.natoms, dtype=bool)
    centers: list[int] = []
    radii: list[float] = []
    coefficients: list[float] = []
    simple = np.zeros(space.natoms)

    def remainder_norm() -> float:
        rem = FunctionOnSpace(space, np.where(covered, 0.0, g.values))
        return lorentz_norm(rem, spec)

    for _, x, radius in candidates:
        if remainder_norm() <= epsilon / 2.0:
            break
        if covered[x]:
            continue
        if covered.any():
            # shrink below the nearest covered atom to stay disjoint
            row = space.distance_row(x)
            nearest = float(row[covered].min())
            if nearest == 0.0:
                continue
            below = row[row < nearest]
            radius = min(radius, float(below.max()))
        mask = space.ball_mask(x, radius)
        centers.append(x)
        radii.append(float(radius))
        coefficients.append(float(g.values[x]))
        simple[mask] = g.values[x]
        covered |= mask
    approx = FunctionOnSpace(space, simple)
    return SimpleApproximation(centers=centers, radii=radii,
                               coefficients=coefficients, function=approx,
                               error=norm_distance(g, approx, spec),
                               remainder_norm=remainder_norm())


@dataclass(frozen=True)
class ProbeRow:
    label: str
    natoms: int
    k: int                      # greedy net size of the sampled images
    witness_count: int          # pairwise-(>epsilon)-separated witness images
    witness_min: float | None   # min pairwise distance of witness images
    c_lower: float


def _separated_count(distances: np.ndarray, epsilon: float) -> int:
    """Greedy count of pairwise-(> epsilon) points from a distance matrix."""
    scan = greedy_scan(distances.shape[0], lambda i, kept: distances[i, kept], epsilon)
    return sum(keep for _, keep, _ in scan)


def compactness_probe(spaces: list[MetricMeasureSpace], r: float, spec: NormSpec,
                      epsilon: float, n: int, seed: int,
                      labels: list[str] | None = None) -> list[ProbeRow]:
    """Trend table over a family of spaces.

    Per space: sample n unit-sphere functions (seeded by seed + index so
    runs are reproducible space by space), average them, record the
    greedy epsilon-net size of the images, and when 4r-separated centers
    exist record the witness-image separation statistics.
    """
    if labels is None:
        labels = [str(s.natoms) for s in spaces]
    rows = []
    for index, (space, label) in enumerate(zip(spaces, labels)):
        kernel = AveragingKernel.build(space, r)
        samples = sample_unit_sphere(space, spec, n, seed + index)
        columns = kernel.means(np.stack([f.values for f in samples], axis=1))
        images = [FunctionOnSpace(space, column) for column in columns.T]
        cover = covering_number(images, epsilon, spec)
        witness = witness_sequence(space, r, space.natoms, spec)
        if witness.bounded_regime:
            count, wmin = 0, None
        else:
            count = _separated_count(witness.distances, epsilon)
            wmin = witness.min_pairwise
        rows.append(ProbeRow(label=str(label), natoms=space.natoms, k=cover.k,
                             witness_count=count, witness_min=wmin,
                             c_lower=witness.c_lower))
    return rows
