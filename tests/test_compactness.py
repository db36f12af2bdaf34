import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loravg import (
    AveragingKernel,
    FunctionOnSpace,
    MetricMeasureSpace,
    NormSpec,
    average,
    chi_norm_closed_form,
    compactness_probe,
    covering_number,
    doubling_constant,
    holder_constants,
    lorentz_norm,
    sample_unit_sphere,
    simple_approximation,
    witness_sequence,
)
from loravg.compactness import norm_distance
from conftest import matrix_cases, random_function, random_space

SPEC = NormSpec(2, 2)


def test_sample_norms_and_determinism():
    sp = MetricMeasureSpace.lattice(30)
    a = sample_unit_sphere(sp, SPEC, 100, 7)
    b = sample_unit_sphere(sp, SPEC, 100, 7)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
    for f in a:
        assert lorentz_norm(f, SPEC) == pytest.approx(1.0, abs=1e-10)
    c = sample_unit_sphere(sp, SPEC, 10, 8)
    assert not np.array_equal(a[0].values, c[0].values)


def sample_one_at_a_time(space, spec, n, seed):
    """The sampler as a loop that norms each draw on its own, with a full
    sort for the quantile radius, keeping a draw when its norm is positive."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        center = int(rng.integers(space.natoms))
        quantile = rng.uniform(0.45, 0.55)
        radius = np.sort(space.distance_row(center))[int(quantile * (space.natoms - 1))]
        level = rng.standard_normal()
        f = FunctionOnSpace(space, np.where(space.ball_mask(center, radius), level, 0.0))
        norm = lorentz_norm(f, spec)
        if norm > 0:
            out.append(f * (1.0 / norm))
    return out


@pytest.mark.parametrize("spec", [SPEC, NormSpec(3, 1.5, "double-star"), NormSpec(1.5, math.inf)])
def test_sample_matches_the_one_at_a_time_loop(rng, spec):
    for _ in range(8):
        sp = random_space(rng)
        seed = int(rng.integers(2**32))
        got = sample_unit_sphere(sp, spec, 40, seed)
        want = sample_one_at_a_time(sp, spec, 40, seed)
        assert [f.values.tobytes() for f in got] == [f.values.tobytes() for f in want]


def test_sample_prefix_nesting():
    sp = MetricMeasureSpace.lattice(20)
    short = sample_unit_sphere(sp, SPEC, 30, 3)
    long = sample_unit_sphere(sp, SPEC, 60, 3)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(short, long))


def test_covering_trivials():
    sp = MetricMeasureSpace.lattice(10)
    f = FunctionOnSpace.indicator(sp, [3, 4])
    same = [f, f, f, f]
    assert covering_number(same, 0.5, SPEC).k == 1

    g = FunctionOnSpace(sp, 3.0 * np.ones(11))
    zero = FunctionOnSpace(sp, np.zeros(11))
    rep = covering_number([zero, g], 1.0, SPEC)
    assert rep.k == 2
    far_eps = covering_number([zero, g], norm_distance(zero, g, SPEC) + 1, SPEC)
    assert far_eps.k == 1


def test_covering_net_covers(rng):
    sp = random_space(rng, max_atoms=25)
    pts = sample_unit_sphere(sp, SPEC, 60, 13)
    eps = 0.4
    rep = covering_number(pts, eps, SPEC)
    assert rep.max_residual <= eps
    for f in pts:
        assert min(norm_distance(f, pts[j], SPEC) for j in rep.net_indices) <= eps
    for i, a in enumerate(rep.net_indices):
        for b in rep.net_indices[i + 1:]:
            assert norm_distance(pts[a], pts[b], SPEC) > eps


def _reference_covering(points, epsilon, spec):
    net, max_residual = [], 0.0
    for i, f in enumerate(points):
        dists = [norm_distance(f, points[j], spec) for j in net]
        if not dists or min(dists) > epsilon:
            net.append(i)
        else:
            max_residual = max(max_residual, min(dists))
    return net, max_residual


@settings(max_examples=60, deadline=None)
@given(matrix_cases(max_atoms=6), st.integers(0, 2**32 - 1), st.sampled_from([0.3, 1.0, 2.5]))
def test_covering_number_matches_reference_loop(case, seed, epsilon):
    sp = case[0]
    rng = np.random.default_rng(seed)
    points = [FunctionOnSpace(sp, np.round(rng.standard_normal(sp.natoms), 1))
              for _ in range(12)]
    rep = covering_number(points, epsilon, SPEC)
    net, max_residual = _reference_covering(points, epsilon, SPEC)
    assert rep.net_indices == net and rep.k == len(net)
    assert rep.max_residual == max_residual


def test_witness_lattice100():
    sp = MetricMeasureSpace.lattice(100)
    rep = witness_sequence(sp, 1.0, 5, SPEC)
    assert not rep.bounded_regime
    assert rep.centers == [0, 5, 10, 15, 20]
    assert rep.c_lower == pytest.approx(3 / 5, rel=1e-14)
    assert rep.min_pairwise >= rep.c_lower - 1e-12


def test_witness_bounded_regime():
    rep = witness_sequence(MetricMeasureSpace.lattice(3), 1.0, 4, SPEC)
    assert rep.bounded_regime
    assert rep.min_pairwise is None and rep.images == []


def test_witness_two_clusters():
    # two tight clusters far apart
    coords = [[0.0], [0.5], [1.0], [50.0], [50.5], [51.0]]
    sp = MetricMeasureSpace.from_cloud(coords, metric="l1")
    rep = witness_sequence(sp, 0.6, 2, NormSpec(3, 2))
    assert not rep.bounded_regime
    assert rep.min_pairwise >= rep.c_lower - 1e-12


def test_witness_images_match_kernel_apply(rng):
    # one matrix product for all images against a mat-vec per image
    checked = 0
    for _ in range(30):
        sp = random_space(rng, max_atoms=60)
        r = float(np.quantile(sp.dist[sp.dist > 0], 0.05))
        rep = witness_sequence(sp, r, sp.natoms, SPEC)
        kernel = AveragingKernel.build(sp, r)
        for f, image in zip(rep.functions, rep.images):
            np.testing.assert_allclose(image.values, kernel.apply(f).values,
                                       rtol=1e-14, atol=0)
            checked += 1
    assert checked > 100


def test_witness_support_disjointness():
    # the averaged bump at one center vanishes on the other's core ball
    sp = MetricMeasureSpace.lattice(100)
    rep = witness_sequence(sp, 1.0, 5, SPEC)
    for n, xn in enumerate(rep.centers):
        core = sp.ball_mask(xn, 1.0)
        for m, img in enumerate(rep.images):
            if m != n:
                assert np.all(img.values[core] == 0.0)


def test_witness_norm_cap(rng):
    # ||f_n|| = lambda * prefactor * (mu(B(x,2r))/mu(B(x,r)))^{1/p}
    #        <= lambda * prefactor * gamma^{1/p} with the tight gamma
    for spec in (SPEC, NormSpec(2, 1), NormSpec(3, math.inf),
                 NormSpec(2.5, 2, "double-star")):
        sp = MetricMeasureSpace.lattice(80)
        rep = witness_sequence(sp, 1.0, 6, spec)
        gamma = doubling_constant(sp, 1.0)
        lam = holder_constants(spec, 1.0).lam
        cap = lam * chi_norm_closed_form(1.0, spec) * gamma ** (1 / spec.p)
        for norm in rep.witness_norms:
            assert norm <= cap * (1 + 1e-12)


def test_simple_approximation_constant():
    sp = MetricMeasureSpace.lattice(30)
    g = FunctionOnSpace(sp, np.full(31, 1.25))
    rep = simple_approximation(sp, g, 0.5, SPEC)
    assert rep.centers == [0]
    assert rep.radii == [30.0]
    assert rep.error == 0.0


def test_simple_approximation_of_average(rng):
    sp = MetricMeasureSpace.lattice(50)
    f = random_function(rng, sp)
    g = average(sp, f, 1.0)
    eps = 0.5
    rep = simple_approximation(sp, g, eps, SPEC)
    assert rep.error <= eps * (1 + 1e-9)
    assert rep.remainder_norm <= eps / 2 * (1 + 1e-9)
    # kept balls disjoint, coefficients are g at the centers
    masks = [sp.ball_mask(c, r) for c, r in zip(rep.centers, rep.radii)]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert not (masks[i] & masks[j]).any()
    for c, a in zip(rep.centers, rep.coefficients):
        assert a == g.values[c]


def test_simple_approximation_honest_on_rough_input():
    sp = MetricMeasureSpace.lattice(20)
    alternating = FunctionOnSpace(sp, np.where(np.arange(21) % 2 == 0, 1.0, -1.0))
    rep = simple_approximation(sp, alternating, 0.5, SPEC)
    assert rep.error >= 0.0  # reported as achieved, no epsilon guarantee


def test_probe_rows_and_monotonicity():
    spaces = [MetricMeasureSpace.lattice(8)]
    rows = compactness_probe(spaces, 1.0, SPEC, 10.0, 30, 3)
    assert rows[0].k == 1  # epsilon above the image diameter

    sp = MetricMeasureSpace.lattice(20)
    from loravg import AveragingKernel
    kern = AveragingKernel.build(sp, 1.0)
    images = [kern.apply(f) for f in sample_unit_sphere(sp, SPEC, 120, 7)]
    ks = [covering_number(images, eps, SPEC).k
          for eps in (0.1, 0.2, 0.3, 0.5, 0.9, 1.5)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


def test_probe_labels_and_seeding():
    spaces = [MetricMeasureSpace.lattice(L) for L in (10, 20)]
    rows = compactness_probe(spaces, 1.0, SPEC, 0.3, 25, 7, labels=["10", "20"])
    assert [r.label for r in rows] == ["10", "20"]
    again = compactness_probe(spaces, 1.0, SPEC, 0.3, 25, 7, labels=["10", "20"])
    assert [(r.k, r.witness_count) for r in rows] == [
        (r.k, r.witness_count) for r in again]
    assert all(r.witness_min >= r.c_lower - 1e-12 for r in rows)
