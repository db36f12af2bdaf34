import contextlib
import io
import json
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loravg import (
    AveragingKernel,
    DomainError,
    FunctionOnSpace,
    MetricMeasureSpace,
    MetricViolationError,
    average,
    ball,
    boundedness_report,
    build_space,
    doubling_constant,
    min_ball_ratio,
    separated_points,
    symm_diff_measure,
    vitali_subfamily,
)
from loravg import NormSpec
from loravg import space as space_mod
from loravg.averaging import equicontinuity_bound_matrix, holds
from loravg.cli import CLIError, _verify_equicontinuity, dispatch
from loravg.compactness import _separated_count
from conftest import matrix_cases, random_space, reference_triangle_witness


def brute_ball(space, x, r):
    atoms = [y for y in range(space.natoms) if space.dist[x, y] <= r]
    return atoms, sum(space.weights[y] for y in atoms)


def test_lattice_generator():
    sp = MetricMeasureSpace.lattice(4)
    assert sp.natoms == 5
    assert sp.dist[0, 4] == 4
    assert np.all(sp.weights == 1.0)


def test_explicit_matrix():
    sp = MetricMeasureSpace.from_matrix([[0, 1], [1, 0]], [1, 2])
    assert sp.natoms == 2
    assert sp.total_measure == 3.0


def test_triangle_violation_witness():
    with pytest.raises(MetricViolationError) as err:
        MetricMeasureSpace.from_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]], [1, 1, 1])
    i, k, j = err.value.witness
    assert {i, j} == {0, 2} and k == 1


def test_nonpositive_weight_rejected():
    with pytest.raises(DomainError):
        MetricMeasureSpace.from_matrix([[0, 1], [1, 0]], [1, 0])
    with pytest.raises(DomainError):
        MetricMeasureSpace.from_matrix([[0, 1], [1, 0]], [1, -2])


def test_asymmetric_matrix_rejected():
    with pytest.raises(MetricViolationError):
        MetricMeasureSpace.from_matrix([[0, 1], [2, 0]], [1, 1])


def test_validation_cap(monkeypatch):
    monkeypatch.setenv("LORAVG_MAX_ATOMS", "2")
    dist = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(DomainError):
        MetricMeasureSpace.from_matrix(dist, [1, 1, 1])
    sp = MetricMeasureSpace.from_matrix(dist, [1, 1, 1], skip_validation=True)
    assert sp.natoms == 3


def test_ball_examples():
    sp = MetricMeasureSpace.lattice(4)
    atoms, measure = ball(sp, 2, 1)
    assert list(atoms) == [1, 2, 3] and measure == 3.0
    atoms, measure = ball(sp, 0, 0)
    assert list(atoms) == [0] and measure == 1.0
    atoms, measure = ball(sp, 2, 10)
    assert list(atoms) == [0, 1, 2, 3, 4] and measure == 5.0


def test_ball_against_enumeration(rng):
    for _ in range(20):
        sp = random_space(rng)
        x = int(rng.integers(sp.natoms))
        r = float(rng.uniform(0, sp.diameter * 1.1))
        atoms, measure = ball(sp, x, r)
        want_atoms, want_measure = brute_ball(sp, x, r)
        assert list(atoms) == want_atoms
        assert measure == pytest.approx(want_measure, rel=1e-12)
        assert x in atoms and measure > 0


def test_ball_symmetry_and_monotonicity(rng):
    sp = random_space(rng)
    for _ in range(30):
        x, y = rng.integers(0, sp.natoms, 2)
        r = float(rng.uniform(0, sp.diameter))
        assert (sp.dist[x, y] <= r) == (sp.dist[y, x] <= r)
    x = int(rng.integers(sp.natoms))
    radii = np.sort(rng.uniform(0, sp.diameter, 10))
    measures = [ball(sp, x, r)[1] for r in radii]
    assert all(a <= b for a, b in zip(measures, measures[1:]))
    assert ball(sp, x, sp.diameter)[0].size == sp.natoms


def brute_doubling(space, s):
    best = 0.0
    for x in range(space.natoms):
        best = max(best, brute_ball(space, x, 2 * s)[1] / brute_ball(space, x, s)[1])
    return best


def test_doubling_lattice_values():
    sp = MetricMeasureSpace.lattice(100)
    gamma = doubling_constant(sp, 1.0)
    assert gamma == pytest.approx(5 / 3, rel=1e-14)
    assert gamma == pytest.approx(brute_doubling(sp, 1.0), rel=1e-14)
    gamma2 = doubling_constant(sp, 2.0)
    assert gamma2 == pytest.approx(9 / 5, rel=1e-14)
    assert gamma2 == pytest.approx(brute_doubling(sp, 2.0), rel=1e-14)


def test_doubling_one_atom():
    sp = MetricMeasureSpace.from_matrix([[0.0]], [2.0])
    assert doubling_constant(sp, 1.0) == 1.0


def test_doubling_gamma_at_least_one(rng):
    for _ in range(15):
        sp = random_space(rng)
        s = float(rng.uniform(0.1, sp.diameter + 1))
        gamma = doubling_constant(sp, s)
        assert type(gamma) is float and gamma >= 1.0
        assert gamma == pytest.approx(brute_doubling(sp, s), rel=1e-12)


def test_separated_points_examples():
    assert separated_points(MetricMeasureSpace.lattice(20), 4, 3) == [0, 5, 10]
    assert separated_points(MetricMeasureSpace.lattice(3), 4, 2) == [0]
    two = MetricMeasureSpace.from_matrix([[0, 10], [10, 0]], [1, 1])
    assert separated_points(two, 4, 2) == [0, 1]


def test_separated_points_property(rng):
    for _ in range(15):
        sp = random_space(rng)
        delta = float(rng.uniform(0.2, sp.diameter + 0.5))
        pts = separated_points(sp, delta, 6)
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                assert sp.dist[x, y] > delta


def _reference_separated_points(space, delta, k):
    chosen = []
    for x in range(space.natoms):
        if all(space.dist[x, y] > delta for y in chosen):
            chosen.append(x)
            if len(chosen) == k:
                break
    return chosen


def _reference_separated_count(distances, epsilon):
    kept = []
    for i in range(distances.shape[0]):
        if all(distances[i, j] > epsilon for j in kept):
            kept.append(i)
    return len(kept)


@settings(max_examples=150, deadline=None)
@given(matrix_cases(max_atoms=12), st.sampled_from([0.5, 1.0, 2.0, 3.5]), st.integers(1, 12))
def test_greedy_scan_matches_reference_loops(case, delta, k):
    sp = case[0]
    assert separated_points(sp, delta, k) == _reference_separated_points(sp, delta, k)
    assert _separated_count(sp.dist, delta) == _reference_separated_count(sp.dist, delta)


def test_vitali_spec_trace():
    sp = MetricMeasureSpace.lattice(10)
    kept = vitali_subfamily(sp, [(0, 1.0), (1, 1.0), (2, 1.0)])
    assert kept == [(0, 1.0)]


def test_vitali_trivials():
    sp = MetricMeasureSpace.lattice(10)
    assert vitali_subfamily(sp, [(3, 1.0)]) == [(3, 1.0)]
    kept = vitali_subfamily(sp, [(0, 1.0), (9, 1.0)])
    assert sorted(kept) == [(0, 1.0), (9, 1.0)]


def test_vitali_randomized(rng):
    for _ in range(40):
        sp = random_space(rng)
        m = int(rng.integers(1, 12))
        if rng.uniform() < 0.5:
            radius = float(rng.uniform(0.1, sp.diameter / 2 + 0.2))
            balls = [(int(rng.integers(sp.natoms)), radius) for _ in range(m)]
        else:
            balls = [(int(rng.integers(sp.natoms)),
                      float(rng.uniform(0, sp.diameter / 2 + 0.2)))
                     for _ in range(m)]
        kept = vitali_subfamily(sp, balls)
        masks = [sp.ball_mask(c, r) for c, r in kept]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert not (masks[i] & masks[j]).any()
        union_in = np.zeros(sp.natoms, bool)
        for c, r in balls:
            union_in |= sp.ball_mask(c, r)
        union_5 = np.zeros(sp.natoms, bool)
        for c, r in kept:
            union_5 |= sp.ball_mask(c, 5 * r)
        assert not (union_in & ~union_5).any()


def test_symm_diff_examples():
    sp = MetricMeasureSpace.lattice(10)
    assert symm_diff_measure(sp, 3, 4, 1.0) == 2.0
    assert symm_diff_measure(sp, 6, 6, 2.0) == 0.0
    assert symm_diff_measure(sp, 0, 10, 1.0) == 2.0 + 2.0  # disjoint: sum of measures


def test_boundedness_report_values():
    rep = boundedness_report(MetricMeasureSpace.lattice(10), 1.0)
    assert rep.diameter == 10.0
    assert rep.total_measure == 11.0
    assert rep.min_ball_measure == 2.0
    rep100 = boundedness_report(MetricMeasureSpace.lattice(100), 1.0)
    assert rep100.min_ball_ratio == pytest.approx(3 / 5, rel=1e-14)
    assert min_ball_ratio(MetricMeasureSpace.lattice(100), 1.0) == pytest.approx(3 / 5)
    one = boundedness_report(MetricMeasureSpace.from_matrix([[0.0]], [1.0]), 1.0)
    assert one.diameter == 0.0
    assert one.min_ball_ratio == 1.0
    assert one.doubling_r == 1.0


def test_build_space_kinds():
    lattice = build_space({"kind": "lattice", "L": 4})
    assert lattice.natoms == 5
    matrix = build_space({"kind": "matrix", "dist": [[0, 2], [2, 0]], "weights": [1, 3]})
    assert matrix.total_measure == 4.0
    cloud = build_space({"kind": "cloud", "coords": [[0, 0], [3, 4]], "metric": "euclidean"})
    assert cloud.dist[0, 1] == pytest.approx(5.0)
    graph = build_space({"kind": "graph", "n": 3,
                         "edges": [[0, 1, 1.0], [1, 2, 2.0]]})
    assert graph.dist[0, 2] == pytest.approx(3.0)
    with pytest.raises(DomainError):
        build_space({"kind": "nope"})


def test_build_space_validates_every_json_matrix():
    bad = {"kind": "matrix", "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}
    with pytest.raises(MetricViolationError):
        build_space(dict(bad, skip_validation=True))


@pytest.mark.parametrize("spec", [
    {"kind": "matrix", "dist": [[0, "x"], ["x", 0]]},
    {"kind": "matrix", "dist": [[0, 1], [1]]},
    {"kind": "matrix", "dist": 5},
    {"kind": "lattice", "L": "ten"},
    {"kind": "lattice", "L": None},
    {"kind": "lattice", "L": 3, "weights": ["a", 1, 1, 1]},
    {"kind": "cloud", "coords": [[0.0], ["a"]]},
    {"kind": "graph", "n": 2, "edges": [[0, 1, "w"]]},
    {"kind": "graph", "n": 3, "edges": [0, 1, 2]},
    # sizes numpy cannot hold, and integer fields that would be truncated
    {"kind": "lattice", "L": float("inf")},
    {"kind": "lattice", "L": 1e20},
    {"kind": "lattice", "L": 2.7},
    {"kind": "lattice", "L": True},
    {"kind": "lattice", "L": "3"},
    {"kind": "graph", "n": float("inf"), "edges": []},
    {"kind": "graph", "n": 1e20, "edges": []},
    {"kind": "graph", "n": -3, "edges": []},
    {"kind": "graph", "n": 2, "edges": [[0, 1.5, 1]]},
    {"kind": "graph", "n": 2, "edges": [[0, float("nan"), 1]]},
    {"kind": "graph", "n": 2, "edges": [[0, 1, float("inf")]]},
    {"kind": "graph", "n": 2, "edges": 5},
    # no point, or points without coordinates
    {"kind": "cloud", "coords": []},
    {"kind": "cloud", "coords": [[]]},
])
def test_build_space_rejects_malformed_fields(spec):
    with pytest.raises(DomainError):
        build_space(spec)


def test_space_and_function_equality():
    a = MetricMeasureSpace.lattice(3)
    b = MetricMeasureSpace.from_matrix(a.dist, a.weights)
    assert a == b and not a != b
    assert a != MetricMeasureSpace.from_matrix(a.dist, [1, 1, 1, 2])
    f, g = FunctionOnSpace(a, [1, 2, 3, 4]), FunctionOnSpace(b, [1, 2, 3, 4])
    assert f == g and f != FunctionOnSpace(a, [1, 2, 3, 5])
    assert f + g == FunctionOnSpace(a, [2, 4, 6, 8])
    with pytest.raises(DomainError):
        f + FunctionOnSpace(MetricMeasureSpace.from_matrix(a.dist, [1, 1, 1, 2]), np.ones(4))


def test_graph_shortest_path_against_floyd_warshall(rng):
    n = 8
    edges = [(i, i + 1, float(rng.uniform(0.5, 2))) for i in range(n - 1)]
    edges += [(0, 4, 1.0), (2, 7, 0.7)]
    sp = MetricMeasureSpace.from_graph(n, edges)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, w in edges:
        dist[u, v] = min(dist[u, v], w)
        dist[v, u] = min(dist[v, u], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i, j] = min(dist[i, j], dist[i, k] + dist[k, j])
    assert np.allclose(sp.dist, dist, rtol=1e-12)


def test_graph_disconnected_rejected():
    with pytest.raises(DomainError):
        MetricMeasureSpace.from_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_json_round_trip(rng):
    sp = random_space(rng)
    rebuilt = build_space(sp.to_json())
    assert np.array_equal(rebuilt.dist, sp.dist)
    assert np.array_equal(rebuilt.weights, sp.weights)


def _reference_cloud_distances(coords, metric):
    """The n x n x d broadcast that from_cloud used before it accumulated
    coordinate by coordinate."""
    diff = coords[:, None, :] - coords[None, :, :]
    if metric == "euclidean":
        dist = np.sqrt((diff ** 2).sum(axis=2))
    elif metric == "l1":
        dist = np.abs(diff).sum(axis=2)
    else:
        dist = np.abs(diff).max(axis=2)
    dist = np.maximum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


@st.composite
def cloud_cases(draw):
    """Clouds of dimension 1-7 at coordinate scales 1e-20..1e20, with
    repeated points and exactly tied coordinates."""
    n = draw(st.integers(1, 9))
    d = draw(st.integers(1, 7))
    scale = 10.0 ** draw(st.sampled_from([-20, -7, 0, 7, 20]))
    entries = st.one_of(st.sampled_from([0.0, 1.0, -2.5]),
                        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    rows = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=n, max_size=n))
    coords = np.array(rows, dtype=float) * scale
    coords[draw(st.integers(0, n - 1))] = coords[0]
    metric = draw(st.sampled_from(["euclidean", "l1", "linf"]))
    weights = draw(st.lists(st.sampled_from([0.1, 0.3, 1.0, 2.7]), min_size=n, max_size=n))
    return coords, metric, np.array(weights)


def _measure_rtol(n):
    """Two sums of n positive terms in different orders differ by at most
    2 (n - 1) eps relative."""
    return 2 * (n - 1) * np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(cloud_cases(), st.floats(0, 1), st.integers(1, 40))
def test_from_cloud_and_ball_layer_match_broadcast_references(case, quantile, block):
    coords, metric, weights = case
    sp = MetricMeasureSpace.from_cloud(coords, metric=metric, weights=weights)
    dist = sp.dist
    assert dist.tobytes() == _reference_cloud_distances(coords, metric).tobytes()
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diagonal(dist) == 0.0)
    r = float(np.quantile(dist, quantile))
    masks = dist <= r
    measures = (masks * weights).sum(axis=1)

    def assert_measures(got):
        if coords.shape[1] > 1:
            assert got.tobytes() == measures.tobytes()
        else:  # line spaces sum each ball's run of atoms in coordinate order
            assert np.all(np.abs(got - measures) <= _measure_rtol(len(weights)) * measures)

    with mock.patch.object(space_mod, "_BLOCK_ENTRIES", block):  # several row blocks
        assert_measures(sp.ball_measures(r))
    assert_measures(sp.ball_measures(r))
    if r > 0:
        kernel = AveragingKernel.build(sp, r)
        assert_measures(kernel.ball_measures)
        weighted = masks * weights
        matrix = weighted / kernel.ball_measures[:, None]
        assert kernel.means(np.eye(len(weights))).tobytes() == matrix.tobytes()


def test_from_cloud_rejects_nonfinite_coords():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError):
            MetricMeasureSpace.from_cloud([[0.0], [bad]])
    # finite coordinates whose distances overflow, on both space forms
    for coords, metric in [([[-1e308], [1e308]], "l1"), ([[0.0], [1e155]], "euclidean"),
                           ([[0.0, -1e308], [0.0, 1e308]], "linf"),
                           ([[1e154, 1e154], [-1e154, -1e154]], "euclidean")]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                MetricMeasureSpace.from_cloud(coords, metric=metric)


@st.composite
def corrupted_matrices(draw):
    """A matrix_cases distance matrix with some symmetric pairs moved, to
    just below, at or above a triangle's bound, or by a random factor."""
    dist = np.array(draw(matrix_cases(max_atoms=9))[0].dist)
    n = dist.shape[0]
    tol = space_mod._TRIANGLE_RTOL * max(dist.max(), 1.0)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        k = draw(st.integers(0, n - 1))
        value = draw(st.one_of(
            st.sampled_from([-1, 0, 1]).map(
                lambda ulps: np.nextafter(dist[i, k] + dist[k, j] + tol, np.inf * ulps)
                if ulps else dist[i, k] + dist[k, j] + tol),
            st.sampled_from([0.0, 0.5, 2.0, 3.0]).map(lambda c: c * dist[i, j])))
        dist[i, j] = dist[j, i] = max(float(value), 0.0)
    return dist


@settings(max_examples=300, deadline=None)
@given(corrupted_matrices(), st.integers(1, 64), st.sampled_from([1, 4]))
def test_blockwise_triangle_check_matches_pivot_loop(dist, block, cpus):
    """With 1 usable CPU the check runs on the caller alone; with 4 and
    small blocks, up to 4 threads share them.  The verdict, message and
    witness are those of the pivot loop either way."""
    want = reference_triangle_witness(dist)
    with mock.patch.object(space_mod.os, "sched_getaffinity", lambda pid: set(range(cpus))), \
            mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", block):
        if want is None:
            space_mod.validate_metric(dist)
            return
        with pytest.raises(MetricViolationError) as err:
            space_mod.validate_metric(dist)
    i, k, j = want
    assert err.value.witness == want
    assert str(err.value) == (f"triangle violation: d({i},{j})={dist[i, j]} > "
                              f"d({i},{k})+d({k},{j})={dist[i, k] + dist[k, j]}")


@pytest.mark.parametrize("planted", [False, True])
def test_threads_share_a_large_triangle_check(planted):
    """A 150-atom grid in blocks of one row, on 4 threads: the threads
    overlap in time, and each keeps to its own buffer.  A violation planted
    in the last rows is found with the pivot loop's witness."""
    coords = np.array([(x, y) for x in range(15) for y in range(10)], dtype=float)
    dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    if planted:
        dist[140, 149] = dist[149, 140] = 2 * dist[140, 149]
    with mock.patch.object(space_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}), \
            mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", 150):
        if not planted:
            space_mod.validate_metric(dist)
            return
        with pytest.raises(MetricViolationError) as err:
            space_mod.validate_metric(dist)
    assert err.value.witness == reference_triangle_witness(dist)


class _NumpyFailingInWorkers:
    """numpy, except that np.minimum raises MemoryError on any thread but
    the main one; the main thread waits for that first."""

    def __init__(self):
        self.raised = threading.Event()

    def __getattr__(self, name):
        return getattr(np, name)

    def minimum(self, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            self.raised.set()
            raise MemoryError("injected in a validation thread")
        self.raised.wait(timeout=30)
        return np.minimum(*args, **kwargs)


def test_triangle_check_worker_error_reaches_the_caller(tmp_path):
    coords = np.array([(x, y) for x in range(6) for y in range(5)], dtype=float)
    dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "matrix", "dist": dist.tolist()}))
    threads = threading.active_count()
    for run in ("direct", "cli"):
        fake = _NumpyFailingInWorkers()
        with mock.patch.object(space_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}), \
                mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", 64), \
                mock.patch.object(space_mod, "np", fake):
            if run == "direct":
                with pytest.raises(MemoryError, match="validation thread"):
                    space_mod.validate_metric(dist)
            else:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    assert dispatch(["build-space", "--space", str(path)]) == 2
                assert err.getvalue().startswith("error: injected in a validation thread")
        assert fake.raised.is_set()
        assert threading.active_count() == threads
    space_mod.validate_metric(dist)  # and the real check passes


@st.composite
def line_cases(draw):
    """(space, reference distances, values): a 1-D cloud under any metric,
    unsorted, with duplicate and negative coordinates at scales down to
    where euclidean squares underflow, or a weighted lattice; values is
    (n,) or (n, m)."""
    weight = st.sampled_from([0.1, 0.3, 1.0, 2.7])
    if draw(st.booleans()):
        L = draw(st.integers(0, 12))
        space = build_space({"kind": "lattice", "L": L,
                             "weights": draw(st.lists(weight, min_size=L + 1,
                                                      max_size=L + 1))})
        idx = np.arange(L + 1.0)
        reference = np.abs(idx[:, None] - idx[None, :])
    else:
        n = draw(st.integers(1, 12))
        scale = 10.0 ** draw(st.sampled_from([-170, -155, -20, -7, 0, 7, 20]))
        entries = st.one_of(st.sampled_from([0.0, 1.0, -2.5]),
                            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
        coords = np.array(draw(st.lists(entries, min_size=n, max_size=n))) * scale
        coords[draw(st.integers(0, n - 1))] = coords[0]
        metric = draw(st.sampled_from(["euclidean", "l1", "linf"]))
        space = MetricMeasureSpace.from_cloud(coords[:, None], metric=metric,
                                              weights=draw(st.lists(weight, min_size=n,
                                                                    max_size=n)))
        reference = _reference_cloud_distances(coords[:, None], metric)
    shape = (space.natoms,) + tuple(draw(st.lists(st.integers(1, 3), max_size=1)))
    values = np.array(draw(st.lists(st.floats(-10, 10), min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))).reshape(shape)
    return space, reference, values


@settings(max_examples=400, deadline=None)
@given(line_cases(), st.data())
def test_interval_ball_layer_matches_matrix_forms(case, data):
    sp, reference, values = case
    assert sp.coords is not None
    n = sp.natoms
    # A radius at an attained distance or one of its floating-point neighbours.
    x0, y0 = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    attained = sp.distance_row(x0)[y0]
    side = data.draw(st.sampled_from([-1, 0, 1]))
    r = max(float(np.nextafter(attained, side * np.inf) if side else attained), 0.0)
    rows = [sp.distance_row(x) for x in range(n)]
    masks = [sp.ball_mask(x, r) for x in range(n)]
    measures = sp.ball_measures(r)
    diameter = sp.diameter
    kernel = AveragingKernel.build(sp, r) if r > 0 else None
    band = data.draw(st.sampled_from([1, 3, 8, 40, 1 << 18]))  # rows per band 1..n
    with mock.patch.object(space_mod, "_BLOCK_ENTRIES", band):
        means = kernel.means(values) if kernel else None
        applied = (kernel.apply(FunctionOnSpace(sp, values)).values
                   if kernel and values.ndim == 1 else None)
    assert "dist" not in vars(sp)  # no n x n matrix so far

    dist = sp.dist
    assert dist.tobytes() == reference.tobytes()
    for x in range(n):
        assert rows[x].tobytes() == dist[x].tobytes()
        assert np.array_equal(masks[x], dist[x] <= r)
    assert np.array_equal(sp.ball_masks(r), dist <= r)
    assert diameter == dist.max()
    want = ((dist <= r) * sp.weights).sum(axis=1)
    assert np.all(np.abs(measures - want) <= _measure_rtol(n) * want)
    if kernel:
        matrix = (dist <= r) * sp.weights
        matrix /= kernel.ball_measures[:, None]
        assert kernel.means(np.eye(n)).tobytes() == matrix.tobytes()
        atol = 1e-14 * max(np.abs(values).max(), np.finfo(float).tiny)
        np.testing.assert_allclose(means, matrix @ values, rtol=0, atol=atol)
        if values.ndim == 1:
            np.testing.assert_array_equal(applied, means)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrix_cases().map(lambda case: (case[0], case[1].values)),
                 line_cases().map(lambda case: (case[0], case[2]))), st.data())
def test_kernels_are_row_stochastic_on_both_space_forms(case, data):
    """means(1) = 1, and means matches the dense kernel (dist <= r) * w / mu
    built apart from it, at an attained distance or a radius past all."""
    sp, values = case
    dist = sp.dist
    r = data.draw(st.sampled_from(sorted(set(dist[dist > 0].tolist()) | {1e300})))
    kernel = AveragingKernel.build(sp, r)
    np.testing.assert_allclose(kernel.means(np.ones(sp.natoms)), 1.0, rtol=0, atol=1e-12)
    want = (dist <= r) * sp.weights / sp.ball_measures(r)[:, None] @ values
    atol = 1e-14 * max(np.abs(values).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(kernel.means(values), want, rtol=0, atol=atol)


def _dense_equicontinuity_check(sp, fs, r, spec):
    """The checks of `verify --lemma equicontinuity` from the full bound
    matrix: per trial, the first pair in row-major order of largest ratio."""
    bound = equicontinuity_bound_matrix(sp, r, spec)
    pairs = np.flatnonzero(bound > 0)
    if pairs.size == 0:
        return None
    checks = []
    for f in fs:
        avg = average(sp, f, r).values
        ratio = np.abs(avg[:, None] - avg[None, :]).flat[pairs] / bound.flat[pairs]
        x, y = divmod(int(pairs[int(np.argmax(ratio))]), sp.natoms)
        checks.append((f"pair-{x}-{y}", float(abs(avg[x] - avg[y])), float(bound[x, y])))
    return checks


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrix_cases().map(lambda case: case[0]),
                 line_cases().map(lambda case: case[0])), st.data())
def test_blocked_equicontinuity_bound_matches_dense(sp, data):
    """The bound in row blocks of any size equals the full matrix bitwise.
    Its symmetric-difference measures agree with the dense masked sums
    within 2 (n - 1) eps mu(X) and are exactly 0 on equal balls; the CLI
    names the pairs and verdicts of the dense path."""
    dist, n = sp.dist, sp.natoms
    r = data.draw(st.sampled_from(sorted(set(dist[dist > 0].tolist()) | {1e300})))
    spec = NormSpec(data.draw(st.sampled_from([1.5, 2.0, 3.0])),
                    data.draw(st.sampled_from([1.0, 2.0, np.inf])))
    masks = dist <= r
    outside = (masks * sp.weights) @ ~masks.T
    dense = outside + outside.T
    # Blocks of `pair_blocks` as small as one row, asked for in slices of
    # any length.
    size = data.draw(st.integers(1, n))
    with mock.patch.object(space_mod, "_PAIR_BLOCK_ENTRIES", data.draw(st.integers(1, 40))):
        blocks = sp.pair_blocks()
        full = equicontinuity_bound_matrix(sp, r, spec)
        sd = sp.symm_diff_measures(r)
        blocked = np.concatenate([equicontinuity_bound_matrix(sp, r, spec, slice(a, a + size))
                                  for a in range(0, n, size)])
        fs = [FunctionOnSpace(sp, data.draw(st.lists(st.floats(-10, 10), min_size=n,
                                                     max_size=n)))
              for _ in range(data.draw(st.integers(1, 3)))]
        try:
            checks = [(ch["name"].split("-", 2)[2], ch["lhs"], ch["rhs"], ch["pass"])
                      for ch in _verify_equicontinuity(sp, fs, r, spec)[0]][:len(fs)]
        except CLIError:
            checks = None
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == n
    assert blocked.tobytes() == full.tobytes()
    equal = (masks[:, None, :] == masks[None, :, :]).all(axis=2)
    assert np.all((sd == 0) == equal) and np.all((full == 0) == equal)
    assert np.all(np.abs(sd - dense) <= 2 * (n - 1) * np.finfo(float).eps * sp.total_measure)
    want = _dense_equicontinuity_check(sp, fs, r, spec)
    if want is None:
        assert checks is None
    else:
        assert [c[:3] for c in checks] == want
        assert [c[3] for c in checks] == [bool(holds(lhs, rhs)) for _, lhs, rhs in want]


def test_line_symm_diff_keeps_small_weights_next_to_large_ones():
    """Plain prefix sums absorb the unit weights into 1e20, which would give
    the distinct balls {1} and {2} a symmetric difference of 0: a zero
    equicontinuity bound, as if the balls were equal."""
    sp = MetricMeasureSpace.from_cloud([[0.0], [1.0], [2.0]], metric="l1",
                                       weights=[1e20, 1.0, 1.0])
    masks = sp.dist <= 0.5
    outside = (masks * sp.weights) @ ~masks.T
    assert sp.symm_diff_measures(0.5).tobytes() == (outside + outside.T).tobytes()
    assert sp.symm_diff_measures(0.5)[1, 2] == 2.0


def test_ball_runs_are_computed_once_per_radius():
    """A repeat ball_runs call, ball_measures and every means call on a line
    space read the same read-only runs; none repeats the binary lifting."""
    sp = MetricMeasureSpace.lattice(20)
    lo, hi = sp.ball_runs(2.0)
    assert not lo.flags.writeable and not hi.flags.writeable
    with mock.patch.object(space_mod, "_line_distance", side_effect=AssertionError):
        again = sp.ball_runs(2)
        kernel = AveragingKernel.build(sp, 2.0)
        for _ in range(2):
            kernel.means(np.ones(sp.natoms))
    assert again[0] is lo and again[1] is hi
    with pytest.raises(DomainError):
        MetricMeasureSpace.from_matrix(sp.dist, sp.weights).ball_runs(2.0)


def test_line_symm_diff_memo_is_per_radius_and_read_only(rng):
    """symm_diff_measures reads per-atom runs memoized per radius and one
    prefix memo: radii asked for in any order give the bits of a fresh
    space, and the memos are read-only."""
    coords = rng.uniform(0.0, 30.0, 60)
    weights = rng.uniform(0.2, 3.0, 60)
    sp = MetricMeasureSpace.from_cloud(coords[:, None], metric="l1", weights=weights)
    radii = [2.0, 0.5, 2.0, 7.0, 0.5]
    got = [sp.symm_diff_measures(r, slice(3, 40)) for r in radii]
    for r, sd in zip(radii, got):
        fresh = MetricMeasureSpace.from_cloud(coords[:, None], metric="l1", weights=weights)
        assert sd.tobytes() == fresh.symm_diff_measures(r, slice(3, 40)).tobytes()
    for r in (0.5, 2.0, 7.0):
        lo, hi = sp._atom_runs(r)
        assert not lo.flags.writeable and not hi.flags.writeable
        assert sp._atom_runs(r)[0] is lo
    assert not sp._weight_prefix.flags.writeable


def test_line_kernel_bands_match_matrix_on_long_runs(rng):
    """Several row bands at the default size, from single-atom balls up to
    balls that hold the whole cloud."""
    coords = np.repeat(rng.uniform(-50.0, 50.0, 300), 2)
    sp = MetricMeasureSpace.from_cloud(coords[:, None], metric="l1",
                                       weights=rng.uniform(0.2, 3.0, coords.size))
    values = rng.standard_normal((coords.size, 4))
    kernels = [AveragingKernel.build(sp, r) for r in (1e-9, 0.5, 10.0, 60.0, sp.diameter)]
    lo, hi = sp.ball_runs(kernels[-1].r)
    assert np.all(hi - lo == sp.natoms)
    means = [(k.means(values), k.means(values[:, 0])) for k in kernels]
    assert "dist" not in vars(sp)
    atol = 1e-14 * np.abs(values).max()
    for kernel, (columns, column) in zip(kernels, means):
        # A dense reference of its own, not through ball_blocks as `means` is.
        want = (sp.dist <= kernel.r) * sp.weights / kernel.ball_measures[:, None] @ values
        np.testing.assert_allclose(columns, want, rtol=0, atol=atol)
        np.testing.assert_allclose(column, want[:, 0], rtol=0, atol=atol)


def test_overflowing_ball_measure_fails_on_both_space_forms():
    sp = build_space({"kind": "lattice", "L": 1, "weights": [1e308, 1e308]})
    matrix_space = MetricMeasureSpace.from_matrix(sp.dist, sp.weights)
    with np.errstate(over="ignore"):
        for space in (sp, matrix_space):
            with pytest.raises(RuntimeError, match="rows must sum to 1"):
                AveragingKernel.build(space, 1.0)


@pytest.mark.parametrize("form", ["line", "matrix"])
def test_ball_measures_are_computed_once_per_radius(form):
    sp = MetricMeasureSpace.lattice(6)
    if form == "matrix":
        sp = MetricMeasureSpace.from_matrix(sp.dist, sp.weights)
    first = sp.ball_measures(1.0)
    assert sp.ball_measures(1) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    assert np.array_equal(first, [2, 3, 3, 3, 3, 3, 2])
    assert sp.ball_measures(2.0) is not first


def test_weighted_lattice_stays_a_line_space(rng):
    weights = rng.uniform(0.2, 3.0, 41)
    sp = build_space({"kind": "lattice", "L": 40, "weights": weights.tolist()})
    f = FunctionOnSpace(sp, rng.standard_normal(41))
    measures = {r: sp.ball_measures(r) for r in (0.5, 1.0, 3.0, 100.0)}
    averages = {r: average(sp, f, r).values for r in measures}
    assert "dist" not in vars(sp)
    idx = np.arange(41.0)
    ref = MetricMeasureSpace.from_matrix(np.abs(idx[:, None] - idx[None, :]), weights)
    assert sp == ref
    g = FunctionOnSpace(ref, f.values)
    for r, got in measures.items():
        want = ref.ball_measures(r)
        assert np.all(np.abs(got - want) <= _measure_rtol(41) * want)
        np.testing.assert_allclose(averages[r], average(ref, g, r).values, rtol=0,
                                   atol=1e-14 * np.abs(f.values).max())
