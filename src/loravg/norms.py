"""Lorentz norms on finite atomic spaces.

Two variants are computed for indices p, q:

* plain:       ( integral t^{q/p-1} f*(t)^q dt )^{1/q},   sup t^{1/p} f*(t)  at q = inf
* double-star: same formulas with f** in place of f*

The plain diagonal p = q is the Lebesgue p-norm.  f* is a step function
and f** a ratio of an affine function and t, so every integral reduces to
power integrals computed in closed form, except for the double-star
variant at non-integer q on the pieces where f** = a/t + v with a, v > 0.
Those pieces go to a composite 12-point Gauss-Legendre rule in u = log t
with panels at most 1 wide: the integrand is analytic in the strip
|Im u| < pi, so the rule converges geometrically and its error sits far
below rounding.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotInSpaceError
from .rearrange import FunctionOnSpace, MaximalProfile, maximal_profile, rearrangement

PLAIN = "plain"
DOUBLE_STAR = "double-star"

# Exponents within this distance of -1 are integrated as logarithms.
_LOG_EXPONENT_TOL = 1e-14

_GAUSS_POINTS = 12


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


def _power_integral(e: float, t1: float, t2: float) -> float:
    """Integral of t^e over [t1, t2], 0 <= t1 < t2 < inf.

    Needs e > -1 when t1 == 0.  Near e = -1 the antiderivative
    (t^{e+1}-1)/(e+1) is evaluated with expm1 to avoid cancellation, and
    at e = -1 (within tolerance) it degenerates to log(t2/t1).
    """
    d = e + 1.0
    if t1 == 0.0:
        if d <= 0:
            raise DomainError("integral diverges at 0")
        return t2 ** d / d
    if abs(d) <= _LOG_EXPONENT_TOL:
        return math.log(t2 / t1)
    if abs(d) < 0.1:
        return (math.expm1(d * math.log(t2)) - math.expm1(d * math.log(t1))) / d
    return (t2 ** d - t1 ** d) / d


def _power_tail(e: float, t1: float) -> float:
    """Integral of t^e over [t1, inf); needs e < -1 and t1 > 0."""
    d = e + 1.0
    if d >= 0 or t1 <= 0:
        raise DomainError("tail integral diverges")
    return -(t1 ** d) / d


def lebesgue_norm(f: FunctionOnSpace, p: float) -> float:
    """Weighted p-norm; max |f| at p = inf."""
    if p < 1:
        raise DomainError("need p >= 1")
    av = np.abs(f.values)
    if math.isinf(p):
        return float(av.max())
    return float(np.sum(f.space.weights * av ** p) ** (1.0 / p))


def _plain_norm(star, p: float, q: float) -> float:
    if star.levels.size == 0:
        return 0.0
    t_right = star.breakpoints[1:]
    if math.isinf(q):
        if math.isinf(p):
            return float(star.levels[0])
        return float(np.max(star.levels * t_right ** (1.0 / p)))
    if math.isinf(p):
        raise NotInSpaceError("L^{inf,q} with q < inf contains only 0")
    e = q / p - 1.0
    acc = sum(v ** q * _power_integral(e, t1, t2)
              for v, t1, t2 in zip(star.levels, star.breakpoints[:-1], t_right))
    return acc ** (1.0 / q)


def _double_star_piece_closed(a: float, v: float, t1: float, t2: float,
                              p: float, q: float) -> float:
    """Integral of t^{q/p-1} ((a + v t)/t)^q over [t1, t2] for integer q."""
    base = q / p - 1.0 - q
    qi = int(q)
    acc = 0.0
    for k in range(qi + 1):
        coeff = math.comb(qi, k) * a ** (qi - k) * v ** k
        if coeff != 0.0:
            acc += coeff * _power_integral(base + k, t1, t2)
    return acc


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], built on
    first use so that processes which never need them do not pay for them."""
    return np.polynomial.legendre.leggauss(_GAUSS_POINTS)


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
    nodes, weights = _gauss_legendre()
    length = np.log1p((t2 - t1) / t1)
    panels = np.ceil(length).astype(int)
    piece = np.repeat(np.arange(t1.size), panels)
    width = (length / panels)[piece]
    first = np.repeat(np.cumsum(panels) - panels, panels)
    s = (np.arange(piece.size) - first)[:, None] * width[:, None] \
        + (width / 2.0)[:, None] * (nodes + 1.0)
    e = q / p
    values = np.exp(e * s) * ((a / t1)[piece, None] * np.exp(-s) + v[piece, None]) ** q
    sums = np.bincount(piece, weights=(values @ weights) * width / 2.0, minlength=t1.size)
    return t1 ** e * sums


def _double_star_norm(profile: MaximalProfile, p: float, q: float) -> float:
    pieces = profile.pieces()
    if profile.total == 0.0:
        return 0.0
    if math.isinf(q):
        # sup of g(t) = t^{1/p-1} (a + v t); candidates are the piece
        # endpoints and the interior critical point t* = a (p-1) / v.
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        best = 0.0
        for t1, t2, a, v in pieces:
            cands = []
            if t1 > 0:
                cands.append(t1)
            if math.isfinite(t2):
                cands.append(t2)
            if a > 0 and v > 0 and math.isfinite(p):
                tstar = a * (p - 1.0) / v
                if t1 < tstar < t2:
                    cands.append(tstar)
            if t1 == 0.0 and a == 0.0:
                # g = v t^{1/p}, increasing; sup on (0, t2] is at t2.
                cands.append(t2)
            for t in cands:
                best = max(best, t ** (inv_p - 1.0) * (a + v * t))
        return best
    if math.isinf(p):
        raise NotInSpaceError("L^{inf,q} with q < inf contains only 0")
    acc = 0.0
    mixed = []
    integer_q = float(q).is_integer()
    for t1, t2, a, v in pieces:
        if not math.isfinite(t2):
            acc += profile.total ** q * _power_tail(q / p - 1.0 - q, t1)
        elif a == 0.0:
            acc += v ** q * _power_integral(q / p - 1.0, t1, t2)
        elif v == 0.0:
            acc += a ** q * _power_integral(q / p - 1.0 - q, t1, t2)
        elif integer_q:
            acc += _double_star_piece_closed(a, v, t1, t2, p, q)
        else:
            mixed.append((t1, t2, a, v))
    if mixed:
        acc += float(np.sum(_double_star_pieces_gauss(*np.array(mixed).T, p, q)))
    return acc ** (1.0 / q)


def lorentz_norm(f: FunctionOnSpace, spec: NormSpec) -> float:
    """The (p, q) norm of f for the requested variant.

    Raises NotInSpaceError for a nonzero f when q < p = inf.
    """
    if spec.trivial_space and np.any(f.values != 0):
        raise NotInSpaceError("L^{inf,q} with q < inf contains only 0")
    if spec.variant == PLAIN:
        return _plain_norm(rearrangement(f), spec.p, spec.q)
    return _double_star_norm(maximal_profile(f), spec.p, spec.q)


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
