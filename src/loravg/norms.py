"""Lorentz norms on finite atomic spaces.

Two variants are computed for indices p, q:

* plain:       ( integral t^{q/p-1} f*(t)^q dt )^{1/q},   sup t^{1/p} f*(t)  at q = inf
* double-star: same formulas with f** in place of f*

The plain diagonal p = q is the Lebesgue p-norm.  One row kernel,
`lorentz_norms`, computes either variant for every row of an array of
(value, weight) entries: a function kept on a compressed support, or
padded with entries of value and weight 0, is a row like any other, and
`lorentz_norm` is its one-row wrapper.  It reads each row block from the
one sorted profile, `rearrange.sorted_profile`: f* as one piece per entry,
and F at the breakpoints.  Entries of value 0 are pieces of zero width at
the end of the row, so the end of the last positive level ends the row.

The plain norm sums one array power integral over the pieces, taken in an
expm1 form that keeps short pieces far from 0 at full relative precision;
tied values give adjacent pieces of one level, over which it is additive.
f** is F/t with F piecewise affine, and each run of tied values is one
affine piece.  On the first piece f** is constant and beyond the last
positive level it is total/t, both power integrals in closed form; on
every other piece f** = a/t + v with a, v > 0, and all of those go to a
composite 12-point Gauss-Legendre rule in u = log t with panels
at most 1 wide: the integrand is analytic in the strip |Im u| < pi, so
the rule converges geometrically and its error sits far below rounding.
At q = inf the supremum of t^{1/p} f*(t) or t^{1/p} f**(t) is taken at
the breakpoints.  Rows go through the kernel in blocks of at most about
_ROW_BLOCK_ENTRIES entries (see `row_blocks`), so its temporaries stay
small however many rows there are.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotInSpaceError
from .rearrange import FunctionOnSpace, runs, sorted_profile

PLAIN = "plain"
DOUBLE_STAR = "double-star"

# Nodes and weights of the 12-point Gauss-Legendre rule on [-1, 1], bitwise
# numpy.polynomial.legendre.leggauss(12), written out so that no process
# imports numpy.polynomial for them.
_GAUSS_NODES = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
    -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
    0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GAUSS_WEIGHTS = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
    0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
    0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141])

# Entries per row block of the norm kernel (see `row_blocks`): 16 kB per
# float64 temporary.
_ROW_BLOCK_ENTRIES = 1 << 11


@dataclass(frozen=True)
class NormSpec:
    """Lorentz index pair (p, q) plus the variant of the norm.

    The double-star variant needs p > 1 (its defining integral diverges
    at p = 1).  The plain variant accepts p in [1, inf] for diagnostics;
    it is an actual norm only for q <= p, reported by `normable`.
    """

    p: float
    q: float
    variant: str = PLAIN

    def __post_init__(self):
        if self.variant not in (PLAIN, DOUBLE_STAR):
            raise DomainError(f"unknown norm variant {self.variant!r}")
        if not (1 <= self.q <= math.inf):
            raise DomainError("need q in [1, inf]")
        if self.variant == DOUBLE_STAR:
            if not (1 < self.p <= math.inf):
                raise DomainError("double-star variant needs p > 1")
        elif not (1 <= self.p <= math.inf):
            raise DomainError("need p in [1, inf]")

    @property
    def normable(self) -> bool:
        """Whether this spec defines a genuine norm (not just a quasi-norm)."""
        if self.variant == DOUBLE_STAR:
            return True
        return self.q <= self.p

    @property
    def trivial_space(self) -> bool:
        """q < p = inf: the space contains only the zero function."""
        return math.isinf(self.p) and not math.isinf(self.q)


def _power_integral(d: float, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Integral of t^{d-1} over [t1, t2] for each pair of the arrays,
    0 <= t1 < t2 < inf and d > 0.

    Written as t2^d (1 - (t1/t2)^d) / d with the bracket from expm1 and
    log1p, so that short pieces far from 0 keep full relative precision
    instead of cancelling in t2^d - t1^d.  At t1 = 0 the ratio
    (t2 - t1)/t1 is inf and the form reduces to t2^d / d.
    """
    with np.errstate(divide="ignore"):
        return t2 ** d * -np.expm1(-d * np.log1p((t2 - t1) / t1)) / d


def lebesgue_norms(values, weights, p: float) -> np.ndarray:
    """The weighted p-norm of each row of an (m, n) array of values with
    the (n,) weights; max |value| at p = inf.  A row has the bits it has
    alone.  Raises DomainError, as `lorentz_norms` does, when a power
    passes the floating-point range, for the first row where it does."""
    if p < 1:
        raise DomainError("need p >= 1")
    av = np.abs(values)
    if math.isinf(p):
        return av.max(axis=1)
    with np.errstate(over="ignore"):
        av **= p
        av *= weights
        # The root is a scalar power per row: numpy's array power can round
        # differently.
        out = np.array([s ** (1.0 / p) for s in np.sum(av, axis=1)])
    nonzero = np.any(values != 0, axis=1)
    bad = np.flatnonzero(~np.isfinite(out) | ((out == 0.0) & nonzero))[:1]
    _in_range(out[bad], nonzero[bad], f"L^{p:g}")
    return out


def lebesgue_norm(f: FunctionOnSpace, p: float) -> float:
    """Weighted p-norm; max |f| at p = inf: `lebesgue_norms` of the one
    row f.values."""
    return float(lebesgue_norms(f.values[None, :], f.space.weights, p)[0])


def row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices covering rows 0..rows-1, each holding at most
    _ROW_BLOCK_ENTRIES entries of a row of length width, and at least one
    row: the blocks in which `lorentz_norms` works."""
    step = max(1, _ROW_BLOCK_ENTRIES // max(width, 1))
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]


def _plain_norm(levels, widths, t, F, p: float, q: float) -> np.ndarray:
    """Plain norm of each row of a `sorted_profile`."""
    if math.isinf(q):
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        return np.max(levels * t[:, 1:] ** inv_p, axis=1, initial=0.0)
    pieces = levels ** q * _power_integral(q / p, t[:, :-1], t[:, 1:])
    # Pieces of zero width add nothing; at t = 0 the power integral is NaN.
    return np.sum(np.where(widths > 0, pieces, 0.0), axis=1) ** (1.0 / q)


def _double_star_pieces_gauss(t1, t2, a, v, p: float, q: float) -> np.ndarray:
    """Integral of t^{q/p-1} ((a + v t)/t)^q over [t1, t2] for each piece
    of the arrays, all with t1, a, v > 0.

    With t = t1 e^s the integral is t1^{q/p} times that of
    e^{s q/p} (a/t1 e^{-s} + v)^q over 0 <= s <= log(t2/t1); its only
    singularities lie where a/t1 e^{-s} + v = 0, at Im s = pi.  The
    s-range of each piece is cut into ceil(log(t2/t1)) equal panels.
    Measuring s from t1 keeps the nodes of short pieces at full relative
    precision.
    """
    length = np.log1p((t2 - t1) / t1)
    panels = np.ceil(length).astype(int)
    piece = np.repeat(np.arange(t1.size), panels)
    width = (length / panels)[piece]
    first = np.repeat(np.cumsum(panels) - panels, panels)
    s = (np.arange(piece.size) - first)[:, None] * width[:, None] \
        + (width / 2.0)[:, None] * (_GAUSS_NODES + 1.0)
    e = q / p
    values = np.exp(e * s) * ((a / t1)[piece, None] * np.exp(-s) + v[piece, None]) ** q
    # A row sum rather than a BLAS product, so that a piece's bits do not
    # depend on the other pieces.
    sums = np.bincount(piece, weights=np.sum(values * _GAUSS_WEIGHTS, axis=1) * width / 2.0,
                       minlength=t1.size)
    return t1 ** e * sums


def _double_star_norm(levels, widths, t, F, p: float, q: float) -> np.ndarray:
    """Double-star norm of each row of a `sorted_profile`; 0 for a row
    whose integral F is 0."""
    first, last = runs(levels)
    row = np.arange(levels.shape[0])[:, None]
    t2, total = t[:, 1:], F[:, -1]
    if math.isinf(q):
        # On a piece with a, v > 0, g(t) = t^{1/p-1} (a + v t) has
        # g'(t) = t^{1/p-2} ((1/p - 1) a + v t / p), negative and then
        # positive, so its critical point t* = a (p-1) / v is a minimum.
        # g rises on the first piece (a = 0) and falls beyond the last
        # breakpoint, so the supremum sits at a breakpoint.
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        return np.max(np.where(last, t2 ** (inv_p - 1.0) * F[:, 1:], 0.0), axis=1,
                      initial=0.0)
    e = q / p
    pieces = np.zeros(levels.shape)
    head = last & (first == 0)  # f** is the first level on the first piece
    pieces[head] = levels[head] ** q * t2[head] ** e / e
    inner = last & (first > 0)  # f** = a/t + v on the others, with F = a + v t
    t1 = t[row, first][inner]
    v = levels[inner]
    a = F[row, first][inner] - v * t1
    pieces[inner] = _double_star_pieces_gauss(t1, t2[inner], a, v, p, q)
    tail = total ** q * t[:, -1] ** (e - q) / (q - e)  # F = total beyond the last piece
    norms = (np.sum(pieces, axis=1) + tail) ** (1.0 / q)
    return np.where(total > 0, norms, 0.0)


def lorentz_norms(values, weights, spec: NormSpec) -> np.ndarray:
    """The spec-norm of each row of an (m, s) array of values: a row is a
    function on the atoms of its entries, whose weights are the (s,) array
    weights for every row alike or the row of an (m, s) one.

    Weights are positive, or 0 on padding entries of value 0.  Each block
    of rows is one `sorted_profile`, in which the entries of value 0 get
    weight 0, so they add nothing.  Rows go in `row_blocks`,
    and a row's norm does not depend on the rows that come with it.
    Raises NotInSpaceError for a nonzero row when q < p = inf, and
    DomainError when a power passes the floating-point range, so that no
    inf or NaN is returned for the finite norm of a finite row, and no 0
    for a nonzero one.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    nonzero = np.any(values != 0, axis=1)
    if spec.trivial_space and nonzero.any():
        raise NotInSpaceError("L^{inf,q} with q < inf contains only 0")
    norm = _plain_norm if spec.variant == PLAIN else _double_star_norm
    out = np.empty(values.shape[0])
    # 0 ** -d in the rows of the zero function gives inf, and 0 * inf NaN;
    # those rows are set to 0.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rows in row_blocks(*values.shape):
            block = weights if weights.ndim == 1 else weights[rows]
            out[rows] = norm(*sorted_profile(values[rows], block), spec.p, spec.q)
    return _in_range(out, nonzero, f"({spec.p:g}, {spec.q:g})")


def lorentz_norm(f: FunctionOnSpace, spec: NormSpec) -> float:
    """The (p, q) norm of f for the requested variant: `lorentz_norms` of
    the one row f.values with the atom weights."""
    return float(lorentz_norms(f.values[None, :], f.space.weights, spec)[0])


def _in_range(norms, nonzero, label: str):
    """norms, the computed label norms of functions that are nonzero where
    nonzero holds, unless a power inside one of them left the
    floating-point range: 0 for a nonzero function is an underflow, inf an
    overflow, and NaN an underflow times an overflow."""
    if not np.all(np.isfinite(norms)):
        if np.any(np.isnan(norms)):
            raise DomainError(f"the {label} norm underflows and overflows the "
                              "floating-point range in its powers")
        raise DomainError(f"the {label} norm overflows the floating-point range")
    if np.any((norms == 0.0) & nonzero):
        raise DomainError(f"the {label} norm of a nonzero function underflows the "
                          "floating-point range")
    return norms


def chi_norm_closed_form(measure_A: float, spec: NormSpec) -> float:
    """Closed-form norm of an indicator with mu(A) = measure_A.

    plain, q < inf:        (p/q)^{1/q} mu(A)^{1/p}
    double-star, q < inf:  (p^2/(q(p-1)))^{1/q} mu(A)^{1/p}
    either variant, q=inf: mu(A)^{1/p}
    """
    if measure_A <= 0:
        raise DomainError("need a set of positive measure")
    p, q = spec.p, spec.q
    if math.isinf(q):
        return 1.0 if math.isinf(p) else measure_A ** (1.0 / p)
    if math.isinf(p):
        raise NotInSpaceError("L^{inf,q} with q < inf contains only 0")
    if spec.variant == PLAIN:
        return (p / q) ** (1.0 / q) * measure_A ** (1.0 / p)
    return (p * p / (q * (p - 1.0))) ** (1.0 / q) * measure_A ** (1.0 / p)


@dataclass(frozen=True)
class HolderConstants:
    """lambda and alpha(A) = lambda * mu(A)^{1-1/p} from the dual-index
    indicator norm; alpha bounds the integral of |f| over A by
    alpha(A) * plain norm of f."""

    lam: float
    alpha: float


def holder_constants(spec: NormSpec, measure_A: float) -> HolderConstants:
    """lambda = (p(q-1)/(q(p-1)))^{1-1/q}, with q=1 giving 1 and q=inf
    giving p/(p-1); needs p in (1, inf)."""
    p, q = spec.p, spec.q
    if not (1 < p < math.inf):
        raise DomainError("Holder constants need p in (1, inf)")
    if measure_A < 0:
        raise DomainError("measure must be nonnegative")
    if q == 1:
        lam = 1.0
    elif math.isinf(q):
        lam = p / (p - 1.0)
    else:
        lam = (p * (q - 1.0) / (q * (p - 1.0))) ** (1.0 - 1.0 / q)
    return HolderConstants(lam=lam, alpha=lam * measure_A ** (1.0 - 1.0 / p))


def holder_check(f: FunctionOnSpace, A, spec: NormSpec):
    """(lhs, rhs) with lhs = integral of |f| over A and
    rhs = alpha(A) * plain (p, q) norm of f; lhs <= rhs always."""
    mask = np.zeros(f.space.natoms, dtype=bool)
    mask[np.asarray(A)] = True
    lhs = float(np.sum(f.space.weights[mask] * np.abs(f.values[mask])))
    measure_A = float(f.space.weights[mask].sum())
    alpha = holder_constants(spec, measure_A).alpha
    plain = lorentz_norm(f, NormSpec(spec.p, spec.q, PLAIN))
    return lhs, alpha * plain


def norm_equivalence_check(f: FunctionOnSpace, p: float, q: float):
    """(plain, double_star); plain <= double_star <= p/(p-1) * plain."""
    plain = lorentz_norm(f, NormSpec(p, q, PLAIN))
    double_star = lorentz_norm(f, NormSpec(p, q, DOUBLE_STAR))
    return plain, double_star
