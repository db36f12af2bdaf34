"""Lorentz norms on finite atomic spaces.

Two variants are computed for indices p, q:

* plain:       ( integral t^{q/p-1} f*(t)^q dt )^{1/q},   sup t^{1/p} f*(t)  at q = inf
* double-star: same formulas with f** in place of f*

The plain diagonal p = q is the Lebesgue p-norm.  Each variant is a few
array expressions over the pieces of a profile.  f* is a step function,
so the plain norm sums one array power integral, taken in an expm1 form
that keeps short pieces far from 0 at full relative precision.  f** is
F/t with F piecewise affine: on the first piece f** is constant and
beyond the last breakpoint it is total/t, both power integrals in closed
form; on every other piece f** = a/t + v with a, v > 0, and all of those
go to a composite 12-point Gauss-Legendre rule in u = log t with panels
at most 1 wide: the integrand is analytic in the strip |Im u| < pi, so
the rule converges geometrically and its error sits far below rounding.
At q = inf the supremum of t^{1/p} f*(t) or t^{1/p} f**(t) is taken at
the breakpoints.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotInSpaceError
from .rearrange import (FunctionOnSpace, MaximalProfile, StepFunction, maximal_profile,
                        rearrangement)

PLAIN = "plain"
DOUBLE_STAR = "double-star"

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


def lebesgue_norm(f: FunctionOnSpace, p: float) -> float:
    """Weighted p-norm; max |f| at p = inf.  Raises DomainError, as
    `lorentz_norm` does, when a power passes the floating-point range."""
    if p < 1:
        raise DomainError("need p >= 1")
    av = np.abs(f.values)
    if math.isinf(p):
        return float(av.max())
    with np.errstate(over="ignore"):
        value = float(np.sum(f.space.weights * av ** p) ** (1.0 / p))
    return _in_range(value, f, f"L^{p:g}")


def _plain_norm(star: StepFunction, p: float, q: float) -> float:
    t = star.breakpoints
    if math.isinf(q):
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        return float(np.max(star.levels * t[1:] ** inv_p, initial=0.0))
    acc = np.sum(star.levels ** q * _power_integral(q / p, t[:-1], t[1:]))
    return float(acc) ** (1.0 / q)


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
    if profile.total == 0.0:
        return 0.0
    t1, t2, a, v = profile.pieces()
    if math.isinf(q):
        # On a piece with a, v > 0, g(t) = t^{1/p-1} (a + v t) has
        # g'(t) = t^{1/p-2} ((1/p - 1) a + v t / p), negative and then
        # positive, so its critical point t* = a (p-1) / v is a minimum.
        # g rises on the first piece (a = 0) and falls beyond the last
        # breakpoint, so the supremum sits at a breakpoint.
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        return float(np.max(t2 ** (inv_p - 1.0) * profile.node_values[1:]))
    e = q / p
    head = v[0] ** q * t2[0] ** e / e
    tail = np.float64(profile.total) ** q * t2[-1] ** (e - q) / (q - e)
    middle = np.sum(_double_star_pieces_gauss(t1[1:], t2[1:], a[1:], v[1:], p, q))
    return float(head + middle + tail) ** (1.0 / q)


def lorentz_norm(f: FunctionOnSpace, spec: NormSpec) -> float:
    """The (p, q) norm of f for the requested variant.

    Raises NotInSpaceError for a nonzero f when q < p = inf, and
    DomainError when a power passes the floating-point range, so that no
    inf or NaN is returned for the finite norm of a finite f, and no 0 for
    a nonzero f.
    """
    if spec.trivial_space and np.any(f.values != 0):
        raise NotInSpaceError("L^{inf,q} with q < inf contains only 0")
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.variant == PLAIN:
            value = _plain_norm(rearrangement(f), spec.p, spec.q)
        else:
            value = _double_star_norm(maximal_profile(f), spec.p, spec.q)
    return _in_range(value, f, f"({spec.p:g}, {spec.q:g})")


def _in_range(value: float, f: FunctionOnSpace, label: str) -> float:
    """value, the computed label norm of f, unless a power inside it left
    the floating-point range: 0 for a nonzero f is an underflow, inf an
    overflow, and NaN an underflow times an overflow."""
    if math.isnan(value):
        raise DomainError(f"the {label} norm underflows and overflows the "
                          "floating-point range in its powers")
    if math.isinf(value):
        raise DomainError(f"the {label} norm overflows the floating-point range")
    if value == 0.0 and np.any(f.values != 0):
        raise DomainError(f"the {label} norm of a nonzero function underflows the "
                          "floating-point range")
    return value


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
