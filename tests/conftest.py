import numpy as np
import pytest
from hypothesis import strategies as st

from loravg import FunctionOnSpace, MetricMeasureSpace


def random_space(rng, max_atoms=40) -> MetricMeasureSpace:
    """A space from a random generator: lattice, weighted line, metric
    cloud or connected weighted graph."""
    kind = rng.integers(4)
    if kind == 0:
        return MetricMeasureSpace.lattice(int(rng.integers(3, max_atoms)))
    if kind == 1:
        n = int(rng.integers(3, max_atoms))
        coords = np.sort(rng.uniform(0, 10, n))[:, None]
        return MetricMeasureSpace.from_cloud(coords, metric="l1",
                                             weights=rng.uniform(0.2, 3.0, n))
    if kind == 2:
        n = int(rng.integers(2, max_atoms))
        dim = int(rng.integers(1, 4))
        metric = ["euclidean", "l1", "linf"][int(rng.integers(3))]
        return MetricMeasureSpace.from_cloud(rng.uniform(-5, 5, (n, dim)),
                                             metric=metric,
                                             weights=rng.uniform(0.2, 3.0, n))
    n = int(rng.integers(3, max_atoms))
    edges = [(i, i + 1, float(rng.uniform(0.5, 2.0))) for i in range(n - 1)]
    extra = int(rng.integers(0, n // 2 + 1))
    for _ in range(extra):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.append((int(u), int(v), float(rng.uniform(0.5, 4.0))))
    return MetricMeasureSpace.from_graph(n, edges, weights=rng.uniform(0.2, 3.0, n))


def random_function(rng, space, allow_zero=False) -> FunctionOnSpace:
    """Signed values, some exact zeros, occasional ties to exercise level merging."""
    values = rng.standard_normal(space.natoms)
    values[rng.uniform(size=space.natoms) < 0.2] = 0.0
    if rng.uniform() < 0.4:
        values = np.round(values, 1)
    if not allow_zero and not np.any(values != 0):
        values[int(rng.integers(space.natoms))] = float(rng.uniform(0.5, 2.0))
    return FunctionOnSpace(space, values)


def random_radius(rng, space) -> float:
    """A radius making balls neither trivial nor the whole space (usually)."""
    positive = space.dist[space.dist > 0]
    if positive.size == 0:
        return 1.0
    return float(np.quantile(positive, rng.uniform(0.1, 0.5)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


@st.composite
def matrix_cases(draw, max_atoms=8):
    """(space, function, radius) on a small validated matrix space.

    Atoms sit on an integer grid under the l1 metric, so distances tie
    exactly and coincident atoms give distinct atoms identical balls."""
    n = draw(st.integers(1, max_atoms))
    coords = np.array(draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                    min_size=n, max_size=n)), dtype=float)
    dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    weights = draw(st.lists(st.sampled_from([0.1, 0.3, 1.0, 2.7]), min_size=n, max_size=n))
    values = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, -1.0, 2.0]),
                                     st.floats(-10, 10).map(lambda v: round(v, 6))),
                           min_size=n, max_size=n))
    radius = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 6.0, 20.0]))
    space = MetricMeasureSpace.from_matrix(dist, weights)
    return space, FunctionOnSpace(space, values), radius
