import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from loravg import cli as cli_mod
from loravg import space as space_mod
from loravg.averaging import (equicontinuity_bound_matrix, equicontinuity_pairs, holds,
                              sample_unit_sphere)
from loravg.cli import CLIError, _verify_equicontinuity, dispatch
from loravg.decode import pack_floats
from loravg.compactness import _separated_count
from conftest import (fresh_env, matrix_cases, random_space, reference_separated_points,
                      reference_triangle_witness)


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


# Coordinates: small integers (so they repeat), tiny values whose squared
# differences underflow, and any finite float.
_LINE_COORDS = st.one_of(st.integers(-8, 8).map(float),
                         st.sampled_from([0.0, 1e-170, 3e-170, 1e-160, 2.5e-155]),
                         st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def line_separation_cases(draw):
    """(line space, delta, k): a lattice or a 1-D l1, euclidean or linf
    cloud, with delta often an exact distance between two of its atoms."""
    metric = draw(st.sampled_from(["lattice", "l1", "euclidean", "linf"]))
    if metric == "lattice":
        space = MetricMeasureSpace.lattice(draw(st.integers(0, 40)))
    else:
        coords = draw(st.lists(_LINE_COORDS, min_size=1, max_size=40))
        space = MetricMeasureSpace.from_cloud(np.array(coords)[:, None], metric=metric)
    x, y = (draw(st.integers(0, space.natoms - 1)) for _ in range(2))
    gap = float(space.distance_row(x, [y])[0])
    delta = draw(st.one_of(st.floats(1e-300, 1e7), st.just(math.inf)))
    if gap > 0 and draw(st.booleans()):
        delta = gap
    return space, delta, draw(st.integers(1, 45))


@settings(max_examples=300, deadline=None)
@given(line_separation_cases())
def test_line_separated_points_match_the_generic_scan(case):
    space, delta, k = case
    assert space.coords is not None
    assert separated_points(space, delta, k) == reference_separated_points(space, delta, k)


def test_vitali_spec_trace():
    sp = MetricMeasureSpace.lattice(10)
    kept = vitali_subfamily(sp, [(0, 1.0), (1, 1.0), (2, 1.0)])
    assert kept == [(0, 1.0)]


def test_vitali_trivials():
    sp = MetricMeasureSpace.lattice(10)
    assert vitali_subfamily(sp, [(3, 1.0)]) == [(3, 1.0)]
    kept = vitali_subfamily(sp, [(0, 1.0), (9, 1.0)])
    assert sorted(kept) == [(0, 1.0), (9, 1.0)]


def test_vitali_overlap_check_raises():
    """The kept balls are checked for overlap once more before they are
    returned: a ball_mask that turns full once the greedy pass is over
    makes the two kept balls overlap (and still cover the input)."""
    sp = MetricMeasureSpace.lattice(9)
    real, calls = MetricMeasureSpace.ball_mask, itertools.count()

    def ball_mask(self, x, r):
        mask = real(self, x, r)
        return mask if next(calls) < 2 else np.ones_like(mask)

    with mock.patch.object(MetricMeasureSpace, "ball_mask", ball_mask):
        with pytest.raises(RuntimeError, match="kept Vitali balls overlap"):
            vitali_subfamily(sp, [(0, 1.0), (9, 1.0)])


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


def test_space_equality_forms_no_distance_matrix():
    """Separately built line spaces compare a distance row at a time: at
    3,000 atoms the comparison traces under 1 MB and forms neither dist."""
    rng = np.random.default_rng(5)
    coords, weights = rng.uniform(0, 100, (3000, 1)), rng.uniform(0.5, 2.0, 3000)
    a, b = (MetricMeasureSpace.from_cloud(coords, metric="l1", weights=weights)
            for _ in range(2))
    tracemalloc.start()
    try:
        equal = a == b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert equal and peak < 1e6, peak
    assert "dist" not in vars(a) and "dist" not in vars(b)
    small = MetricMeasureSpace.from_cloud(coords[:50], metric="l1", weights=weights[:50])
    assert small == MetricMeasureSpace.from_matrix(small.dist, small.weights)
    assert small != MetricMeasureSpace.from_cloud(coords[:50], metric="l1",
                                                  weights=weights[:50] * 2)


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


def test_graph_repeated_edges_keep_their_least_weight():
    """An edge listed in both directions, or twice, is one edge of its
    least weight: coo_matrix added the weights of repeated entries."""
    cases = [(2, [(0, 1, 1), (1, 0, 1)], (0, 1), 1.0),
             (2, [(0, 1, 1), (0, 1, 3)], (0, 1), 1.0),
             (3, [(0, 1, 1), (1, 2, 1), (0, 2, 5), (0, 2, 0.5)], (0, 2), 0.5)]
    for n, edges, (x, y), want in cases:
        dist = MetricMeasureSpace.from_graph(n, edges).dist
        assert dist[x, y] == dist[y, x] == want


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
    # These weights take at most two limbs, so the measures are fsum's.
    assert len(sp._limbs(sp.weights)[0]) <= 2
    measures = np.array([math.fsum(weights[mask].tolist()) for mask in masks])
    with mock.patch.object(space_mod, "_BLOCK_ENTRIES", block), \
            mock.patch.object(space_mod, "_PAIR_BLOCK_ENTRIES", block):  # several row blocks
        assert sp.ball_measures(r).tobytes() == measures.tobytes()
    assert sp.ball_measures(r).tobytes() == measures.tobytes()
    if r > 0:
        kernel = AveragingKernel.build(sp, r)
        assert kernel.ball_measures.tobytes() == measures.tobytes()
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
@given(corrupted_matrices(), st.integers(1, 64))
def test_blockwise_triangle_check_matches_pivot_loop(dist, block):
    """At every block budget, down to tiles of one pair, the verdict,
    message and witness are those of the pivot loop."""
    want = reference_triangle_witness(dist)
    with mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", block):
        if want is None:
            space_mod.validate_metric(dist)
            return
        with pytest.raises(MetricViolationError) as err:
            space_mod.validate_metric(dist)
    i, k, j = want
    assert err.value.witness == want
    assert str(err.value) == (f"triangle violation: d({i},{j})={dist[i, j]} > "
                              f"d({i},{k})+d({k},{j})={dist[i, k] + dist[k, j]}")


def _l1_grid(width: int, height: int) -> np.ndarray:
    """The l1 distances of the points of a width x height integer grid."""
    coords = np.array([(x, y) for x in range(width) for y in range(height)], dtype=float)
    return np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)


def test_validation_starts_no_thread():
    """The triangle check of a 150-atom grid in tiles of one pair runs on
    the calling thread alone, though 4 CPUs are usable."""
    def refuse(thread):
        raise AssertionError("validation started a thread")

    with mock.patch.object(space_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                           create=True), \
            mock.patch.object(threading.Thread, "start", refuse), \
            mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", 150):
        space_mod.validate_metric(_l1_grid(15, 10))


def test_one_pair_tiles_find_a_planted_witness():
    """A violation planted in the last rows of a 150-atom grid, checked in
    tiles of one pair, is found with the pivot loop's witness."""
    dist = _l1_grid(15, 10)
    dist[140, 149] = dist[149, 140] = 2 * dist[140, 149]
    with mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", 150):
        with pytest.raises(MetricViolationError) as err:
            space_mod.validate_metric(dist)
    assert err.value.witness == reference_triangle_witness(dist)


# A JSON integer that rounds to DBL_MAX: a sum of two such distances, or one
# plus the triangle tolerance, overflows.
_NEAR_DBL_MAX = 2 ** 1024 - 2 ** 970 - 1


def test_triangle_sums_that_overflow_raise_no_warning(tmp_path):
    """A pivot sum that overflows to inf witnesses no violation of a
    finite distance.  The check passes on the two-atom matrix under the
    RuntimeWarning filter, and `build-space` on it, in a fresh process,
    writes only its wall time on stderr; both printed numpy's overflow
    warning.  Among such sums a real violation keeps its witness."""
    big = float(_NEAR_DBL_MAX)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        space_mod.validate_metric(np.array([[0.0, big], [big, 0.0]]))
        dist = np.full((20, 20), big)
        np.fill_diagonal(dist, 0.0)
        dist[0, 12] = dist[12, 0] = dist[12, 15] = dist[15, 12] = 1.0
        with mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", 400):
            with pytest.raises(MetricViolationError) as err:
                space_mod.validate_metric(dist)
    assert err.value.witness == (0, 12, 15)
    assert str(err.value) == f"triangle violation: d(0,15)={big} > d(0,12)+d(12,15)=2.0"
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "matrix",
                                "dist": [[0, _NEAR_DBL_MAX], [_NEAR_DBL_MAX, 0]]}))
    res = subprocess.run([sys.executable, "-m", "loravg.cli", "build-space", "--space", str(path)],
                         capture_output=True, text=True, timeout=120,
                         env=fresh_env())
    assert res.returncode == 0
    assert res.stderr.startswith("wall_time_s=") and len(res.stderr.splitlines()) == 1


def _planted(dist, i, j, excess):
    out = dist.copy()
    out[i, j] = out[j, i] = dist[i, j] + excess
    return out


def test_triangle_tiles_cover_every_pair():
    """One violation planted at each pair i < j of a 13-atom l1 grid is
    found at each block budget.  Rows 0..11 start pairs, so across these
    budgets row tiles of 5, 7 or 8 rows leave a partial last row tile, and
    column tiles of 3 or 7 columns leave partial column tiles."""
    dist = _l1_grid(4, 4)[:13, :13]
    space_mod.validate_metric(dist)
    for budget in (1, 35, 50, 100, 200, 400, 1000):
        with mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", budget):
            for i, j in zip(*np.triu_indices(13, 1)):
                bad = _planted(dist, i, j, 2.5)
                want = reference_triangle_witness(bad)
                assert want is not None and {want[0], want[2]} == {i, j}
                with pytest.raises(MetricViolationError) as err:
                    space_mod.validate_metric(bad)
                assert err.value.witness == want, (budget, i, j)


def test_tied_witnesses_in_one_pair_tiles():
    """The pair (2, 12) and every pair of atoms 3..11 first violate at
    pivot 1.  In one-pair tiles (2, 12) is found first, and the later
    (3, 4), at the same pivot, must not replace it."""
    dist = np.full((13, 13), 2.0)
    dist[0, :] = dist[:, 0] = 3.0
    dist[3:12, 3:12] = dist[2, 12] = dist[12, 2] = 4.5
    np.fill_diagonal(dist, 0.0)
    assert reference_triangle_witness(dist) == (2, 1, 12)
    with mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", 1):
        with pytest.raises(MetricViolationError) as err:
            space_mod.validate_metric(dist)
    assert err.value.witness == (2, 1, 12)


@pytest.mark.parametrize("cpus", [1, 2])
def test_triangle_check_memory_stays_within_its_buffer(cpus):
    """At n = 600 the check's numpy allocations peak below its buffer of
    2 * _TRIANGLE_BLOCK_ENTRIES float64 plus one n x n bool array, whether
    the matrix is a metric, breaks one triangle at a late pivot or breaks
    most of them; an n x n float array (2.9 MB) would not fit.  numpy's
    ufunc iterator adds buffers of its own, up to about 130 kB, to each
    broadcast sum.  The bound holds however many CPUs are usable: the
    check keeps one buffer, not one per CPU."""
    n = 600
    line = np.arange(n, dtype=float)
    valid = np.abs(line[:, None] - line[None, :])
    late = _planted(valid, n - 3, n - 1, 0.5)
    noise = np.triu(np.random.default_rng(3).random((n, n)), 1)
    bound = 2 * space_mod._TRIANGLE_BLOCK_ENTRIES * 8 + n * n
    with mock.patch.object(space_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                           create=True):
        for dist in (valid, late, noise + noise.T):
            tracemalloc.start()
            try:
                with contextlib.suppress(MetricViolationError):
                    space_mod.validate_metric(dist)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (peak, bound)
        with pytest.raises(MetricViolationError) as err:
            space_mod.validate_metric(late)
    assert err.value.witness == (n - 3, n - 2, n - 1)


class _NumpyFailingInAdd:
    """numpy, except that np.add raises MemoryError, and records the thread
    that called it."""

    def __init__(self):
        self.callers = []

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, *args, **kwargs):
        self.callers.append(threading.current_thread())
        raise MemoryError("injected in the triangle check")


def test_triangle_check_error_reaches_the_caller(tmp_path):
    """A MemoryError in the triangle check's sums propagates from
    validate_metric, and `build-space` exits 2 with its `error:` line; the
    check raised it on the calling thread and leaves no thread behind."""
    dist = _l1_grid(6, 5)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "matrix", "dist": dist.tolist()}))
    threads = threading.active_count()
    for run in ("direct", "cli"):
        fake = _NumpyFailingInAdd()
        with mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", 64), \
                mock.patch.object(space_mod, "np", fake):
            if run == "direct":
                with pytest.raises(MemoryError, match="triangle check"):
                    space_mod.validate_metric(dist)
            else:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    assert dispatch(["build-space", "--space", str(path)]) == 2
                assert err.getvalue().startswith("error: injected in the triangle check")
        assert fake.callers == [threading.main_thread()]
        assert threading.active_count() == threads
    space_mod.validate_metric(dist)  # and the real check passes


def test_spaces_leave_the_callers_arrays_alone():
    """A space copies the writeable arrays it is given: they stay writeable,
    and a later write to them leaves the space unchanged, on every
    constructor and on both space forms."""
    dist = np.abs(np.arange(4.0)[:, None] - np.arange(4.0)[None, :])
    weights = np.array([1.0, 2.0, 0.5, 3.0])
    coords = np.array([[0.0, 1.0], [2.0, 0.5], [3.0, 3.0], [1.0, 4.0]])
    spaces = [MetricMeasureSpace.from_matrix(dist, weights),
              MetricMeasureSpace(dist, weights, metric_by_construction=True),
              build_space({"kind": "matrix", "dist": dist, "weights": weights}),
              MetricMeasureSpace.from_cloud(coords, metric="l1", weights=weights),
              MetricMeasureSpace.from_cloud(coords[:, :1], weights=weights),
              MetricMeasureSpace.lattice(3, weights=weights),
              MetricMeasureSpace.from_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
                                            weights=weights)]
    before = [(sp.dist.copy(), sp.weights.copy()) for sp in spaces]
    assert dist.flags.writeable and weights.flags.writeable and coords.flags.writeable
    dist[:], weights[:], coords[:] = 7.0, 9.0, -1.0
    for sp, (d, w) in zip(spaces, before):
        assert np.array_equal(sp.dist, d) and np.array_equal(sp.weights, w)
        assert not sp.dist.flags.writeable and not sp.weights.flags.writeable


def test_constructors_hand_their_matrix_over_without_a_copy():
    """build_space (from JSON lists), from_cloud and from_graph give the
    space the matrix they form: the space's __init__ allocates less than
    half an n x n float array, where a copy would take all of it."""
    n = 300
    line = np.arange(n, dtype=float)
    lists = np.abs(line[:, None] - line[None, :]).tolist()
    coords = np.random.default_rng(5).uniform(0, 10, (n, 2))
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    init, extra = MetricMeasureSpace.__init__, []

    def traced_init(self, *args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        init(self, *args, **kwargs)
        extra.append(tracemalloc.get_traced_memory()[1] - before)

    with mock.patch.object(MetricMeasureSpace, "__init__", traced_init), \
            mock.patch.object(space_mod, "_TRIANGLE_BLOCK_ENTRIES", 64):
        tracemalloc.start()
        try:
            build_space({"kind": "matrix", "dist": lists})
            MetricMeasureSpace.from_cloud(coords, metric="l1")
            MetricMeasureSpace.from_graph(n, edges)
        finally:
            tracemalloc.stop()
    assert len(extra) == 3 and max(extra) < 4 * n * n, extra


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
    matrix_form = MetricMeasureSpace.from_matrix(dist, sp.weights, skip_validation=True)
    assert measures.tobytes() == matrix_form.ball_measures(r).tobytes()
    assert len(sp._limbs(sp.weights)[0]) <= 2  # so the measures are fsum's
    assert measures.tolist() == [math.fsum(sp.weights[row <= r].tolist()) for row in dist]
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
                      for ch in _verify_equicontinuity(sp, fs, r, spec)][:len(fs)]
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


def _limb_referee_spaces(n, seed, log_range):
    """A 1-D cloud of n atoms as a line space and as a matrix space, with
    weights log-uniform over 2^+-log_range (0: unit weights), and a cloud
    of n atoms in the plane with the same weights."""
    rng = np.random.default_rng(seed)
    coords = np.round(rng.uniform(0.0, 10.0, n), 1)
    weights = np.exp2(rng.uniform(-log_range, log_range, n)) if log_range else np.ones(n)
    line = MetricMeasureSpace.from_cloud(coords[:, None], metric="l1", weights=weights)
    plane = MetricMeasureSpace.from_cloud(rng.uniform(0.0, 10.0, (n, 2)), metric="l1",
                                          weights=weights)
    return line, MetricMeasureSpace.from_matrix(line.dist, weights, skip_validation=True), plane


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 60, 1000]),
       st.integers(1, 40), st.floats(0.0, 1.0))
@example(401, 3, 1000, space_mod._PAIR_BLOCK_ENTRIES, 0.2)
@example(401, 4, 1, space_mod._PAIR_BLOCK_ENTRIES, 0.05)
def test_symm_diff_measures_against_an_exact_referee(n, seed, log_range, entries, quantile):
    """Against math.fsum of the weights of each difference: equal with at
    most two limbs, else within (K - 1) / 2 ulps for K limbs; exactly 0
    on equal balls, and positive elsewhere.  Any row slice and tiles of
    any size give the same bits, and so do the line and matrix forms of
    one 1-D space."""
    line, matrix, plane = _limb_referee_spaces(n, seed, log_range)
    rng, got = np.random.default_rng(seed), []
    with mock.patch.object(space_mod, "_PAIR_BLOCK_ENTRIES", entries):
        for sp in (line, matrix, plane):
            r = float(np.quantile(sp.dist, quantile))
            sd = sp.symm_diff_measures(r)
            got.append(sd.tobytes())
            a, b = sorted(rng.integers(0, n + 1, 2))
            assert sd[a:b].tobytes() == sp.symm_diff_measures(r, slice(a, b)).tobytes()
            masks, limbs = sp.dist <= r, len(sp._limbs(sp.weights)[0])
            pairs = (itertools.product(range(n), repeat=2) if n <= 12
                     else rng.integers(n, size=(2000, 2)))
            for x, y in pairs:
                want = math.fsum(sp.weights[masks[x] ^ masks[y]].tolist())
                if limbs <= 2:
                    assert sd[x, y] == want, (x, y)
                else:
                    ulp = np.spacing(max(sd[x, y], want))
                    assert abs(sd[x, y] - want) <= (limbs - 1) / 2 * ulp
            equal = (masks[:, None, :] == masks[None, :, :]).all(axis=2)
            assert np.all((sd == 0) == equal)
    assert got[0] == got[1]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 60, 1000]),
       st.integers(1, 40), st.floats(0.0, 1.0))
@example(401, 3, 1000, space_mod._PAIR_BLOCK_ENTRIES, 0.2)
@example(401, 4, 1, space_mod._PAIR_BLOCK_ENTRIES, 0.05)
def test_ball_measures_against_an_exact_referee(n, seed, log_range, entries, quantile):
    """Against math.fsum of each ball's weights: equal with at most two
    limbs, else within (K - 1) / 2 ulps for K limbs.  Blocks of any size
    give the same bits, and so do the line and matrix forms of one 1-D
    space, whose doubling constants are then the same too."""
    spaces = _limb_referee_spaces(n, seed, log_range)
    radii = [float(np.quantile(sp.dist, quantile)) for sp in spaces]
    with mock.patch.object(space_mod, "_BLOCK_ENTRIES", entries), \
            mock.patch.object(space_mod, "_PAIR_BLOCK_ENTRIES", entries):
        blocked = [sp.ball_measures(r) for sp, r in zip(_limb_referee_spaces(n, seed, log_range),
                                                         radii)]
    for sp, r, other in zip(spaces, radii, blocked):
        measures, limbs = sp.ball_measures(r), len(sp._limbs(sp.weights)[0])
        assert measures.tobytes() == other.tobytes()
        for got, mask in zip(measures, sp.dist <= r):
            want = math.fsum(sp.weights[mask].tolist())
            if limbs <= 2:
                assert got == want
            else:
                assert abs(got - want) <= (limbs - 1) / 2 * np.spacing(max(got, want))
    line, matrix, _ = spaces
    assert line.ball_measures(radii[0]).tobytes() == matrix.ball_measures(radii[0]).tobytes()
    if radii[0] > 0:
        assert doubling_constant(line, radii[0]) == doubling_constant(matrix, radii[0])


def test_symm_diff_measure_has_the_bits_of_the_rows(rng):
    """The scalar symm_diff_measure, and so equicontinuity_modulus's bound,
    has the bits of the symm_diff_measures rows on both forms, whose
    weights here take two limbs."""
    for dim in (1, 2):
        sp = MetricMeasureSpace.from_cloud(rng.uniform(0.0, 10.0, (50, dim)), metric="l1",
                                           weights=rng.uniform(0.2, 3.0, 50))
        assert len(sp._limbs(sp.weights)[0]) == 2
        for r in (0.5, 2.0):
            sd = sp.symm_diff_measures(r)
            for x, y in rng.integers(50, size=(40, 2)):
                assert symm_diff_measure(sp, x, y, r) == sd[x, y]


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
    """symm_diff_measures reads per-atom runs and limb measures memoized
    per radius, and one memo of the limbs' prefix sums: radii asked for
    in any order give the bits of a fresh space, and the memos and the
    limbs are read-only."""
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
        assert not any(a.flags.writeable for a in sp._limb_measures(r))
        assert sp._limb_measures(r) is sp._limb_measures(r)
    assert not sp._limb_prefix.flags.writeable


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
    """A total weight above DBL_MAX would let a ball measure overflow, so
    either space form refuses it when it is built, without a warning."""
    for spec in ({"kind": "lattice", "L": 1, "weights": [1e308, 1e308]},
                 {"kind": "matrix", "dist": [[0, 1], [1, 0]], "weights": [1e308, 1e308]}):
        with pytest.raises(DomainError, match="so must their total"):
            build_space(spec)


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
        assert got.tobytes() == ref.ball_measures(r).tobytes()
        np.testing.assert_allclose(averages[r], average(ref, g, r).values, rtol=0,
                                   atol=1e-14 * np.abs(f.values).max())


# -- float fields packed from JSON ---------------------------------------------

_NOT_NUMBERS = frozenset((bool, str))


def _numpy_floats(raw) -> np.ndarray:
    """The conversion that `pack_floats` replaced, kept as its reference:
    the entries at the depth of raw's first ones are checked for strings and
    booleans, and numpy converts the rest."""
    entries, first = [raw], raw
    while type(first) is list and first:
        entries, first = itertools.chain.from_iterable(entries), first[0]
    if not _NOT_NUMBERS.isdisjoint(map(type, entries)):
        raise TypeError("a string or a boolean is not a number")
    return np.asarray(raw, dtype=float)


def _reference_floats(raw, key: str) -> np.ndarray:
    try:
        return _numpy_floats(raw)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"space field {key!r} is not numeric")


_JSON_LEAVES = st.one_of(
    st.floats(), st.floats(-10, 10), st.integers(-(2 ** 1100), 2 ** 1100),
    st.sampled_from([0, 1, -0.0, 2 ** 53 + 1, 2 ** 1024 - 2 ** 970, 2 ** 1024 - 2 ** 970 - 1,
                     -(2 ** 1024)]),
    st.booleans(), st.text(max_size=2), st.none(), st.just([]))


@st.composite
def _rectangular(draw, leaves):
    """Lists nested to one depth, those at each depth of one length."""
    shape = draw(st.lists(st.integers(0, 4), max_size=3))
    size = math.prod(shape)
    flat = draw(st.lists(leaves, min_size=size, max_size=size))
    for length in reversed(shape[1:]):
        flat = [flat[i:i + length] for i in range(0, len(flat), length)] if length else \
            [[] for _ in range(len(flat))]
    return flat if shape else draw(leaves)


_NUMBERS_ONLY = st.one_of(st.floats(0, 10), st.integers(0, 10), st.sampled_from([0, 1.5]))
_JSON_FIELDS = st.one_of(
    _rectangular(_NUMBERS_ONLY), _rectangular(_JSON_LEAVES),
    st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=12))


def _build_outcome(spec):
    """The bits of the space built from spec, or its error's type and message."""
    try:
        sp = build_space(spec)
    except (DomainError, MetricViolationError) as err:
        return type(err).__name__, str(err)
    return sp.dist.tobytes(), sp.weights.tobytes()


@settings(max_examples=400, deadline=None)
@given(raw=_JSON_FIELDS)
@example(raw=[[], []])
@example(raw=[[0, None], [None, 0]])
@example(raw=[[1], [2, 3]])
@example(raw=[[1], 2])
@example(raw=[10 ** 400])
def test_packed_floats_have_the_numpy_bits_or_do_not_convert(raw):
    """What json.loads gives converts to numpy's bits, or fails where
    numpy or the string and boolean check did: ragged or mixed depths,
    booleans, strings and integers beyond the float range."""
    raw = json.loads(json.dumps(raw))  # NaN and the infinities as the parser gives them
    try:
        want = _numpy_floats(raw)
    except (TypeError, ValueError, OverflowError):
        want = None
    packed = pack_floats(raw)
    if want is None:
        assert packed is None
    else:
        got = np.asarray(packed)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert pack_floats(packed) is packed


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["matrix", "cloud", "graph", "lattice"]),
       fields=st.dictionaries(st.sampled_from(["dist", "coords", "edges", "weights"]),
                              _JSON_FIELDS, max_size=4))
def test_space_files_build_as_with_numpy_conversion(tmp_path_factory, kind, fields):
    """A space file read by the CLI, its float fields packed before numpy
    loads, builds the space of the numpy conversion, or fails with its
    error, in the same order of the checks."""
    spec = {"kind": kind, "n": 2, "L": 1, **fields}
    text = json.dumps(spec)
    path = tmp_path_factory.mktemp("space") / "space.json"
    path.write_text(text)
    with mock.patch.object(space_mod, "_floats", _reference_floats):
        want = _build_outcome(json.loads(text))
    assert _build_outcome(cli_mod._load_space(str(path))) == want
    assert _build_outcome(json.loads(text)) == want


def test_from_cloud_needs_a_2d_array_of_points(tmp_path):
    """A flat list or a number is not a list of points: it was read as one
    point with a coordinate per entry, and the CLI exited 0."""
    for coords in ([0.0, 1.0, 2.0], 3.5, [[[0.0]], [[1.0]]]):
        with pytest.raises(DomainError, match="coords must be a 2-D array"):
            MetricMeasureSpace.from_cloud(coords)
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"kind": "cloud", "coords": coords}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert dispatch(["build-space", "--space", str(path)]) == 2
        assert err.getvalue().startswith("error: coords must be a 2-D array")


# -- the matrix ball layer in blocks --------------------------------------------

def _square_cloud_matrix(n: int) -> MetricMeasureSpace:
    """A validated matrix space of n points in a 10 x 10 square."""
    coords = np.random.default_rng(5).uniform(0.0, 10.0, (n, 2))
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    dist = np.maximum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    weights = np.random.default_rng(6).uniform(0.2, 3.0, n)
    return MetricMeasureSpace.from_matrix(dist, weights)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_ball_layer_stays_within_a_few_block_budgets():
    """At 600 atoms the ball measures, the kernel's means, a block of
    symmetric differences and the equicontinuity walk over 8 trials each
    form float operands of one block or tile (_PAIR_BLOCK_ENTRIES float64
    entries), where whole-matrix operands took 2.5 to 4.1 MB.  The ball
    measures (1.2 budgets) and the means (1.6 and 1.7) stay under 2: with
    a float copy of each block's mask they took 2.0, 2.4 and 2.6.  A block
    of symmetric differences and the walk stay under 4 budgets: with both
    products of a tile at once, the whole mask and the bound's temporaries
    they took 5.3 and 5.6 budgets of 256 kB."""
    sp = _square_cloud_matrix(600)
    budget = space_mod._PAIR_BLOCK_ENTRIES * 8
    spec = NormSpec(2, 2)
    fs = sample_unit_sphere(sp, spec, 8, 3)
    peaks = {"ball_measures": (_traced_peak(lambda: sp.ball_measures(1.0)), 2)}
    kernel = AveragingKernel.build(sp, 1.0)
    peaks["means"] = (_traced_peak(lambda: kernel.means(np.ones(600))), 2)
    peaks["means of 3 columns"] = (_traced_peak(lambda: kernel.means(np.ones((600, 3)))), 2)
    peaks["symm_diff_measures"] = (_traced_peak(
        lambda: sp.symm_diff_measures(1.0, sp.pair_blocks()[0])), 4)
    peaks["equicontinuity_pairs"] = (_traced_peak(
        lambda: equicontinuity_pairs(sp, fs, 1.0, spec)), 4)
    assert {name: peak / budget for name, (peak, budgets) in peaks.items()
            if peak > budgets * budget} == {}


_WHOLE_PRODUCTS = """
import json, math, sys
import numpy as np
sys.path[:0] = sys.argv[1:2]
from test_space import _square_cloud_matrix
from loravg import AveragingKernel
differ = []
for n in (400, 600):
    sp = _square_cloud_matrix(n)
    w, values = sp.weights, np.random.default_rng(n).standard_normal(n)
    for r in (0.5, 1.0, 2.0):
        masks, mu = sp.dist <= r, sp.ball_measures(r)
        kernel = AveragingKernel.build(sp, r)
        whole = {"ball_measures": np.array([math.fsum(w[m].tolist()) for m in masks]),
                 "means": (w / mu[:, None]) * masks @ values}
        blocked = {"ball_measures": mu, "means": kernel.means(values)}
        differ += [f"{name} n={n} r={r}" for name in whole
                   if whole[name].tobytes() != blocked[name].tobytes()]
print(json.dumps(differ))
"""


# The options of the `verify` commands of the `sweep` benchmark, by lemma.
_SWEEP_VERIFY = {
    "distribution": ["--p", "2", "--q", "2", "--trials", "1"],
    "rearrange": ["--p", "2", "--q", "2", "--trials", "8"],
    "equicontinuity": ["--p", "2", "--q", "2", "--trials", "8"],
    "operator-bound": ["--variant", "double-star", "--p", "3", "--q", "2", "--trials", "8"],
}


@pytest.mark.parametrize("lemma", _SWEEP_VERIFY)
def test_verify_output_does_not_depend_on_the_blas_thread_count(tmp_path, lemma):
    """Each `verify` command of the `sweep` benchmark, on a 400-atom matrix
    space, writes the same bytes at one and at two BLAS threads, in fresh
    processes."""
    sp = _square_cloud_matrix(400)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "matrix", "dist": sp.dist.tolist(),
                                "weights": sp.weights.tolist()}))
    outs = []
    for threads in ("1", "2"):
        env = fresh_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-m", "loravg.cli", "verify", "--lemma", lemma,
                              "--space", str(path), "--r", "1", "--seed", "3",
                              *_SWEEP_VERIFY[lemma]],
                             capture_output=True, text=True, timeout=300, env=env)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]


def test_matrix_blocks_and_tiles_have_the_bits_of_whole_products():
    """At one BLAS thread, the row blocks of a kernel's means give the bits
    of the product over all rows, and the ball measures are math.fsum of
    each ball's weights, at 400 and 600 atoms."""
    env = fresh_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-c", _WHOLE_PRODUCTS,
                          str(Path(__file__).resolve().parent)],
                         capture_output=True, text=True, timeout=300, env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []
