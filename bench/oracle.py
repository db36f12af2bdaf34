"""Independent answers for every workload command, and the output check.

The answers are computed here with plain numpy from the generated inputs
and the definitions (ball means, sorted-value Lorentz norms, Gauss-Legendre
quadrature of f**), never through `loravg`.  Floats must agree within
RTOL; integers and index lists must agree exactly.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl

RTOL = 1e-9
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(48)
_CHUNK = 512


@dataclass
class Outcome:
    """What one command left behind."""

    argv: list[str]
    exit_code: int
    stdout: str
    stderr: str


# -- numerics from the definitions -------------------------------------------

def close(actual, expected, scale: float = 0.0) -> bool:
    """|actual - expected| <= RTOL * (|expected| + scale), elementwise."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    return bool(np.all(np.abs(actual - expected) <= RTOL * (np.abs(expected) + scale)))


def _merged(values: np.ndarray, weights: np.ndarray):
    """f* as distinct decreasing positive |values| and the cumulative merged
    weights [0, t_1, ..., t_k] at which it steps down."""
    a = np.abs(values)
    pos = a > 0
    uniq, inverse = np.unique(a[pos], return_inverse=True)
    grouped = np.bincount(inverse, weights=weights[pos])[::-1]
    return uniq[::-1], np.concatenate(([0.0], np.cumsum(grouped)))


def plain_norm(values, weights, p: float, q: float) -> float:
    """(p/q) sum v_i^q (t_i^{q/p} - t_{i-1}^{q/p}), to the power 1/q."""
    v, t = _merged(values, weights)
    if v.size == 0:
        return 0.0
    s = t ** (q / p)
    return float(((p / q) * np.sum(v ** q * np.diff(s))) ** (1.0 / q))


def double_star_norm(values, weights, p: float, q: float) -> float:
    """(integral t^{q/p-1} f**(t)^q dt)^{1/q} with f** = F(t)/t.

    Exact on the first piece (f** constant) and on the tail (F constant);
    48-point Gauss-Legendre on every piece in between, where F is affine.
    """
    v, t = _merged(values, weights)
    if v.size == 0:
        return 0.0
    e = q / p - 1.0
    F = np.concatenate(([0.0], np.cumsum(v * np.diff(t))))
    acc = v[0] ** q * t[1] ** (q / p) / (q / p)
    if v.size > 1:
        t1, t2 = t[1:-1], t[2:]
        mid, half = (t1 + t2) / 2.0, (t2 - t1) / 2.0
        tt = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
        Ft = F[1:-1, None] + v[1:, None] * (tt - t1[:, None])
        acc += float(np.sum(half * ((tt ** e * (Ft / tt) ** q) @ _GAUSS_WEIGHTS)))
    acc += F[-1] ** q * t[-1] ** (q / p - q) / (q - q / p)
    return float(acc ** (1.0 / q))


class Balls:
    """Closed balls {y : d(x, y) <= r} of a space given by a distance
    function over row blocks, so no n x n matrix need be kept."""

    def __init__(self, rows, weights: np.ndarray):
        self.rows = rows          # rows(lo, hi) -> (hi - lo, n) distances
        self.w = weights
        self.n = weights.size

    def _blocks(self):
        for lo in range(0, self.n, _CHUNK):
            hi = min(lo + _CHUNK, self.n)
            yield lo, hi, self.rows(lo, hi)

    def measures(self, r: float) -> np.ndarray:
        out = np.empty(self.n)
        for lo, hi, d in self._blocks():
            out[lo:hi] = (d <= r) @ self.w
        return out

    def mean(self, values: np.ndarray, r: float) -> np.ndarray:
        """A_r f: the weighted mean of f over B(x, r) at every x; values
        may hold one function per column."""
        shape = (-1,) + (1,) * (values.ndim - 1)
        weighted = self.w.reshape(shape) * values
        out = np.empty(values.shape)
        for lo, hi, d in self._blocks():
            inside = d <= r
            out[lo:hi] = (inside @ weighted) / (inside @ self.w).reshape(shape)
        return out

    def gamma(self, s: float) -> float:
        return float(np.max(self.measures(2 * s) / self.measures(s)))

    def constant_c(self, r: float) -> float:
        return self.gamma(r) * self.gamma(2 * r) * self.gamma(4 * r) + 1.0


def matrix_balls(dist: np.ndarray, weights: np.ndarray) -> Balls:
    return Balls(lambda lo, hi: dist[lo:hi], weights)


def line_balls(coords: np.ndarray, weights: np.ndarray) -> Balls:
    return Balls(lambda lo, hi: np.abs(coords[lo:hi, None] - coords[None, :]), weights)


# -- expected results per workload ---------------------------------------------

def _unit_sphere_bumps(dist: np.ndarray, weights: np.ndarray, n: int, seed: int):
    """The CLI's seeded unit-sphere draws for p = q = 2 (plain): one signed
    ball bump per draw, normalized in the weighted 2-norm."""
    rng = np.random.default_rng(seed)
    natoms = weights.size
    out = []
    while len(out) < n:
        center = int(rng.integers(natoms))
        quantile = rng.uniform(0.45, 0.55)
        radius = np.sort(dist[center])[int(quantile * (natoms - 1))]
        level = rng.standard_normal()
        f = np.where(dist[center] <= radius, level, 0.0)
        norm = math.sqrt(float(np.sum(weights * f * f)))
        if norm > 0:
            out.append(f * (1.0 / norm))
    return out


def _threshold_grid(values: np.ndarray) -> np.ndarray:
    """The distinct positive values, their consecutive geometric means, half
    the smallest and twice the largest."""
    vals = np.unique(values[values > 0])
    mids = np.sqrt(vals[:-1] * vals[1:])
    return np.unique(np.concatenate((vals, mids, [vals[0] / 2, 2 * vals[-1]])))


def _distribution_worst(balls: Balls, f: np.ndarray, r: float, c: float) -> float:
    """max over the threshold grid of mu{|A_r f| > c t} / ((1/t) int_{|f|>t} |f|)."""
    af = np.abs(balls.mean(f, r))
    a = np.abs(f)
    t = _threshold_grid(a)
    lhs = np.array([balls.w[af > c * ti].sum() for ti in t])
    rhs = np.array([np.sum(balls.w[a > ti] * a[a > ti]) for ti in t]) / t
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, lhs / rhs, np.where(lhs == 0, 0.0, np.inf))
    return float(ratio.max())


def _star_at(values: np.ndarray, weights: np.ndarray, t: np.ndarray):
    """(f*(t), f**(t)) on t > 0; f* is right-continuous at its steps."""
    v, bp = _merged(values, weights)
    j = np.searchsorted(bp, t, side="right") - 1
    star = np.append(v, 0.0)[np.minimum(j, v.size)]
    F = np.concatenate(([0.0], np.cumsum(v * np.diff(bp))))
    jj = np.minimum(j, v.size - 1)
    prim = np.minimum(F[jj] + v[jj] * (t - bp[jj]), F[-1])
    return star, prim / t


def _rearrangement_ratio(balls: Balls, f: np.ndarray, r: float) -> float:
    """max over the joint breakpoint grid of (A_r f)*(t) / f**(t)."""
    af = balls.mean(f, r)
    grid = _threshold_grid(np.concatenate((_merged(af, balls.w)[1], _merged(f, balls.w)[1])))
    avg_star, _ = _star_at(af, balls.w, grid)
    _, f_2star = _star_at(f, balls.w, grid)
    return float(np.max(avg_star / f_2star))


def expected(name: str, files: dict[str, Path], seed: int) -> dict:
    """Independent answers for every command of the workload."""
    space = json.loads(files["space"].read_text())
    weights = np.asarray(space["weights"], float)
    if name == "sweep":
        dist = np.asarray(space["dist"], float)
        balls = matrix_balls(dist, weights)
        r = wl.SWEEP_R
        c = balls.constant_c(r)
        draws = np.random.default_rng(seed)  # the CLI's trial functions
        trials = [draws.standard_normal(weights.size) for _ in range(wl.SWEEP_TRIALS)]
        mu = balls.measures(r)
        inside = dist <= r
        sd = np.array([(inside[x] ^ inside) @ weights for x in range(weights.size)])
        bound = (np.abs(1.0 / mu[:, None] - 1.0 / mu[None, :]) * np.sqrt(mu)[:, None]
                 + np.sqrt(sd) / mu[None, :])  # p = q = 2: lambda = 1, alpha = sqrt
        # A symmetric-difference measure obtained by cancellation, as
        # mu(B_x) + mu(B_y) - 2 mu(B_x & B_y), carries an absolute error of a
        # few ulps of mu(X); its square root moves the bound by up to this much.
        bound_atol = math.sqrt(64 * np.finfo(float).eps * weights.sum()) / mu
        rows = inside / mu[:, None]
        dual = [math.sqrt(float(np.sum(weights * (rows[x] - rows[x + 1]) ** 2)))
                for x in range(weights.size - 1)]
        equi = [balls.mean(g, r) for g in _unit_sphere_bumps(dist, weights,
                                                              wl.SWEEP_TRIALS, seed)]
        factor = c * 3.0 / 2.0
        return {
            "dist": dist, "weights": weights, "c": c,
            "distribution_worst": _distribution_worst(balls, trials[0], r, c),
            "rearrange": [_rearrangement_ratio(balls, f, r) for f in trials],
            "equi_bound": bound, "equi_bound_atol": bound_atol, "equi_dual": dual,
            "equi_avgs": equi,
            "operator": [(double_star_norm(balls.mean(f, r), weights, 3.0, 2.0),
                          factor * double_star_norm(f, weights, 3.0, 2.0))
                         for f in trials],
            "factor": factor,
        }
    if name == "large-line":
        coords = np.asarray(space["coords"], float)[:, 0]
        values = np.asarray(json.loads(files["fn"].read_text())["values"], float)
        balls = line_balls(coords, weights)
        r = wl.LINE_R
        avg = balls.mean(values, r)
        c = balls.constant_c(r)
        factor = c * 3.0 / 2.0
        centers = [0]
        for x in range(1, coords.size):
            if len(centers) == wl.LINE_K:
                break
            if abs(coords[x] - coords[centers[-1]]) > 4 * r:
                centers.append(x)
        mu_r, mu_2r = balls.measures(r), balls.measures(2 * r)
        bumps = [np.where(np.abs(coords - coords[x]) <= 2 * r, 1.0 / math.sqrt(mu_r[x]), 0.0)
                 for x in centers]
        images = balls.mean(np.array(bumps).T, r).T
        distances = np.array([np.sqrt(((images - image) ** 2) @ weights) for image in images])
        return {
            "avg": avg, "scale": float(np.abs(values).max()),
            "norm": double_star_norm(values, weights, 3.0, 1.5),
            "c": c, "factor": factor,
            "operator": (plain_norm(avg, weights, 3.0, 2.0),
                         factor * plain_norm(values, weights, 3.0, 2.0)),
            "centers": centers, "c_lower": float(np.min(mu_r / mu_2r)),
            "distances": distances,
            "witness_norms": [math.sqrt(float(np.sum(weights * b * b))) for b in bumps],
        }
    raise KeyError(f"unknown workload {name!r}")


# -- the output check ----------------------------------------------------------

def _report(outcome: Outcome, problems: list[str]):
    """The command's JSON report, or None after recording why it is unusable."""
    try:
        report = json.loads(outcome.stdout)
    except json.JSONDecodeError as err:
        problems.append(f"stdout is not JSON: {err}")
        return None
    if not isinstance(report, dict):
        problems.append("stdout is not a JSON object")
        return None
    return report


def _verdict(report: dict, problems: list[str]) -> None:
    if report.get("pass") is not True:
        problems.append('report says "pass": false')
    for check in report.get("checks", []):
        if check.get("pass") is not True:
            problems.append(f"check {check.get('name')} failed")


def _expect(problems: list[str], what: str, ok: bool) -> None:
    if not ok:
        problems.append(f"{what} differs from the independent answer")


def _check_sweep(argv: list[str], report: dict, exp: dict, problems: list[str]) -> None:
    if argv[0] == "build-space":
        _expect(problems, "canonical matrix",
                report.get("kind") == "matrix"
                and np.array_equal(np.asarray(report["dist"], float), exp["dist"])
                and np.array_equal(np.asarray(report["weights"], float), exp["weights"]))
        return
    _verdict(report, problems)
    lemma = report.get("lemma")
    checks = report["checks"]
    if lemma != "equicontinuity":
        _expect(problems, "constant_c", close(report["constant_c"], exp["c"]))
    if lemma == "distribution":
        _expect(problems, "worst_ratio",
                len(checks) == 1 and close(report["worst_ratio"], exp["distribution_worst"]))
    elif lemma == "rearrange":
        ratios = exp["rearrange"]
        _expect(problems, "rearrangement ratios",
                close([ch["lhs"] for ch in checks], ratios)
                and close([ch["rhs"] for ch in checks], [exp["c"]] * len(ratios))
                and close(report["worst_ratio"], max(ratios) / exp["c"]))
    elif lemma == "operator-bound":
        lhs, rhs = zip(*exp["operator"])
        _expect(problems, "operator-bound norms",
                close([ch["lhs"] for ch in checks], lhs)
                and close([ch["rhs"] for ch in checks], rhs)
                and all(close(ch["constants"]["factor"], exp["factor"]) for ch in checks))
    elif lemma == "equicontinuity":
        _check_equicontinuity(report, exp, problems)
    else:
        problems.append(f"unexpected lemma {lemma!r}")


def _check_equicontinuity(report: dict, exp: dict, problems: list[str]) -> None:
    """Trial checks name the pair they report; the dual-norm checks cover
    every consecutive pair.  Both sides are recomputed at those pairs."""
    bound, avgs, dual = exp["equi_bound"], exp["equi_avgs"], exp["equi_dual"]
    checks = report["checks"]
    n_trials = len(avgs)
    if len(checks) != n_trials + len(dual):
        problems.append(f"expected {n_trials + len(dual)} equicontinuity checks")
        return
    ratios = []
    for i, ch in enumerate(checks[:n_trials]):
        _, _, _, x, y = ch["name"].split("-")
        x, y = int(x), int(y)
        diff = abs(avgs[i][x] - avgs[i][y])
        rhs_ok = abs(ch["rhs"] - bound[x, y]) <= RTOL * bound[x, y] + exp["equi_bound_atol"][y]
        _expect(problems, f"trial {i} pair ({x},{y})",
                x != y and close(ch["lhs"], diff, scale=float(np.abs(avgs[i]).max()))
                and rhs_ok)
    for x, ch in enumerate(checks[n_trials:]):
        _expect(problems, f"dual-norm pair {x}",
                ch["name"] == f"dual-norm-pair-{x}-{x + 1}"
                and close(ch["lhs"], dual[x]) and close(ch["rhs"], bound[x, x + 1]))
        if bound[x, x + 1] > 0:
            ratios.append(dual[x] / bound[x, x + 1])
    _expect(problems, "worst_ratio", report["worst_ratio"] >= max(ratios) * (1 - RTOL))


def _check_line(argv: list[str], report: dict, exp: dict, problems: list[str]) -> None:
    if argv[0] == "avg":
        _expect(problems, "ball means",
                close(report.get("values", []), exp["avg"], scale=exp["scale"]))
    elif argv[0] == "norm":
        _expect(problems, "double-star norm", close(report.get("value"), exp["norm"]))
    elif argv[0] == "verify":
        _verdict(report, problems)
        checks = report["checks"]
        _expect(problems, "operator-bound",
                len(checks) == 1 and close(report["constant_c"], exp["c"])
                and close(checks[0]["constants"]["factor"], exp["factor"])
                and close([checks[0]["lhs"], checks[0]["rhs"]], exp["operator"]))
    elif argv[0] == "witness":
        _verdict(report, problems)
        _expect(problems, "witness centers", report.get("centers") == exp["centers"])
        if report.get("centers") == exp["centers"]:
            scale = float(np.max(exp["distances"]))
            _expect(problems, "witness distances",
                    report.get("bounded_regime") is False
                    and close(report["c_lower"], exp["c_lower"])
                    and close(report["distances"], exp["distances"], scale=scale)
                    and close(report["min_pairwise"],
                              exp["distances"][np.triu_indices(len(exp["centers"]), 1)].min())
                    and close(report["witness_norms"], exp["witness_norms"]))
    else:
        problems.append(f"unexpected command {argv[0]!r}")


def check(name: str, outcome: Outcome, exp: dict) -> list[str]:
    """Why this command's outcome is wrong; empty when it is right.  Every
    workload command is expected to pass its contracts and exit with 0."""
    problems = []
    if outcome.exit_code != 0:
        problems.append(f"exit code {outcome.exit_code}, expected 0")
    if "Traceback (most recent call last)" in outcome.stderr:
        problems.append("traceback on stderr")
    if problems:
        return problems
    try:
        report = _report(outcome, problems)
        if report is None:
            return problems
        if name == "sweep":
            _check_sweep(outcome.argv, report, exp, problems)
        else:
            _check_line(outcome.argv, report, exp, problems)
    except (KeyError, ValueError, TypeError, IndexError) as err:
        problems.append(f"malformed output: {type(err).__name__}: {err}")
    return problems
