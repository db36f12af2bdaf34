"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line, with every tolerance pinned to its stated value."""

import json
import math
import time

import numpy as np
import pytest

from loravg import (
    AveragingKernel,
    FunctionOnSpace,
    MetricMeasureSpace,
    NormSpec,
    average,
    chi_norm_closed_form,
    compactness_probe,
    covering_number,
    equicontinuity_modulus,
    extremal_pair_function,
    hardy_littlewood_check,
    holder_check,
    lebesgue_norm,
    lorentz_norm,
    norm_equivalence_check,
    sample_unit_sphere,
    verify_distribution_inequality,
    verify_operator_bound,
    verify_rearrangement_bound,
    vitali_subfamily,
    witness_sequence,
)
from loravg.averaging import threshold_sweep
from loravg.cli import dispatch
from conftest import random_function, random_radius, random_space

PS = [1.5, 2.0, 3.0, 10.0]
QS = [1.0, 2.0, 3.0, 3.5, math.inf]
VARIANTS = ["plain", "double-star"]


def report(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def pick(rng, items):
    return items[int(rng.integers(len(items)))]


@pytest.fixture(scope="module")
def instances():
    """The 200 shared (space, f, r) instances for criteria 5-7."""
    rng = np.random.default_rng(505)
    out = []
    for _ in range(200):
        sp = random_space(rng, max_atoms=40)
        out.append((sp, random_function(rng, sp), random_radius(rng, sp)))
    return out


def test_criterion_1_closed_form_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        sp = random_space(rng, max_atoms=30)
        size = int(rng.integers(1, sp.natoms + 1))
        atoms = rng.choice(sp.natoms, size=size, replace=False)
        chi = FunctionOnSpace.indicator(sp, atoms)
        mu = float(sp.weights[atoms].sum())
        spec = NormSpec(pick(rng, PS), pick(rng, QS), pick(rng, VARIANTS))
        got = lorentz_norm(chi, spec)
        want = chi_norm_closed_form(mu, spec)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    report(1, "closed-form oracle agreement",
           worst <= 1e-10 and elapsed < 10.0)


def test_criterion_2_lebesgue_diagonal():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(500):
        sp = random_space(rng, max_atoms=30)
        f = random_function(rng, sp)
        p = pick(rng, PS)
        got = lorentz_norm(f, NormSpec(p, p, "plain"))
        want = lebesgue_norm(f, p)
        worst = max(worst, abs(got - want) / want)
    report(2, "Lebesgue diagonal", worst <= 1e-10)


def test_criterion_3_norm_sandwich():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(500):
        sp = random_space(rng, max_atoms=30)
        f = random_function(rng, sp)
        p, q = pick(rng, PS), pick(rng, QS)
        plain, ds = norm_equivalence_check(f, p, q)
        ok &= plain <= ds * (1 + 1e-10)
        ok &= ds <= (p / (p - 1)) * plain * (1 + 1e-10)
    # upper edge attained on indicators at q = 1
    for p in PS:
        sp = MetricMeasureSpace.lattice(30)
        chi = FunctionOnSpace.indicator(sp, np.arange(7))
        plain, ds = norm_equivalence_check(chi, p, 1.0)
        ok &= abs(ds - (p / (p - 1)) * plain) <= 1e-10 * ds
    report(3, "norm sandwich", ok)


def test_criterion_4_hardy_littlewood_and_holder():
    rng = np.random.default_rng(104)
    violations = 0
    for _ in range(1000):
        sp = random_space(rng, max_atoms=30)
        f = random_function(rng, sp, allow_zero=True)
        g = random_function(rng, sp, allow_zero=True)
        size = int(rng.integers(1, sp.natoms + 1))
        atoms = rng.choice(sp.natoms, size=size, replace=False)
        p, q = pick(rng, PS), pick(rng, QS)
        lhs, rhs = hardy_littlewood_check(f, g)
        if lhs > rhs + 1e-12 * (1 + rhs):
            violations += 1
        lhs, rhs = holder_check(f, atoms, NormSpec(p, q))
        if lhs > rhs * (1 + 1e-12) + 1e-15:
            violations += 1
    report(4, "Hardy-Littlewood and Holder", violations == 0)


def test_criterion_5_maximal_type_inequality(instances):
    violations = 0
    for sp, f, r in instances:
        for t in threshold_sweep(f):
            if not verify_distribution_inequality(sp, f, r, float(t)).passed:
                violations += 1
    lat = MetricMeasureSpace.lattice(200)
    from loravg import distribution_constant
    c, _ = distribution_constant(lat, 1.0)
    exact_c = abs(c - 20 / 3) <= 4 * np.spacing(20 / 3)
    report(5, "maximal-type distribution inequality",
           violations == 0 and exact_c)


def test_criterion_6_rearrangement_bound(instances):
    violations = 0
    for sp, f, r in instances:
        if not verify_rearrangement_bound(sp, f, r).passed:
            violations += 1
    report(6, "rearrangement bound", violations == 0)


def test_criterion_7_operator_bound(instances):
    rng = np.random.default_rng(107)
    violations = 0
    for sp, f, r in instances:
        p, q = pick(rng, PS), pick(rng, QS)
        for variant in VARIANTS:
            if not verify_operator_bound(sp, f, r, NormSpec(p, q, variant)).passed:
                violations += 1
    report(7, "operator-norm bound", violations == 0)


def test_criterion_8_witness_separation():
    start = time.perf_counter()
    sp = MetricMeasureSpace.lattice(100)
    ok = True
    for p, q in [(2.0, 2.0), (2.0, 1.0), (3.0, math.inf)]:
        rep = witness_sequence(sp, 1.0, 5, NormSpec(p, q))
        ok &= not rep.bounded_regime
        ok &= rep.c_lower == pytest.approx(3 / 5, rel=1e-14)
        ok &= rep.min_pairwise >= rep.c_lower - 1e-12
    elapsed = time.perf_counter() - start
    report(8, "witness separation", ok and elapsed < 5.0)


def test_criterion_9_dichotomy_trend():
    start = time.perf_counter()
    spec = NormSpec(2, 2)
    sizes = list(range(10, 201, 10))
    spaces = [MetricMeasureSpace.lattice(L) for L in sizes]
    rows = compactness_probe(spaces, 1.0, spec, 0.3, 200, 7,
                             labels=[str(L) for L in sizes])
    counts = [row.witness_count for row in rows]
    trend_ok = all(a <= b for a, b in zip(counts, counts[1:])) and counts[-1] > 10
    sep_ok = all(row.witness_min > 0.3 for row in rows)

    sp20 = MetricMeasureSpace.lattice(20)
    kernel = AveragingKernel.build(sp20, 1.0)
    images = [kernel.apply(f) for f in sample_unit_sphere(sp20, spec, 400, 7)]
    k200 = covering_number(images[:200], 0.3, spec).k
    k400 = covering_number(images, 0.3, spec).k
    elapsed = time.perf_counter() - start
    report(9, "bounded/unbounded dichotomy trend",
           trend_ok and sep_ok and k200 == k400 and elapsed < 60.0)


def test_criterion_10_equicontinuity():
    sp = MetricMeasureSpace.lattice(100)
    spec = NormSpec(2, 2)
    r = 1.0
    kernel = AveragingKernel.build(sp, r)
    pairs = [(x, x + 1) for x in range(sp.natoms - 1)]
    moduli = [equicontinuity_modulus(sp, x, y, r, spec) for x, y in pairs]
    ok = all(exact <= bound * (1 + 1e-12) for bound, exact in moduli)
    for f in sample_unit_sphere(sp, spec, 100, 110):
        avg = kernel.apply(f).values
        for (x, y), (bound, _) in zip(pairs, moduli):
            if abs(avg[x] - avg[y]) > bound * (1 + 1e-9):
                ok = False
    for (x, y), (bound, exact) in zip(pairs, moduli):
        f = extremal_pair_function(sp, x, y, r, 2.0)
        avg = kernel.apply(f).values
        if abs(abs(avg[x] - avg[y]) - exact) > 1e-9:
            ok = False
    report(10, "equicontinuity modulus", ok)


def test_criterion_11_vitali_subfamily():
    rng = np.random.default_rng(111)
    failures = 0
    for _ in range(200):
        sp = random_space(rng, max_atoms=40)
        m = int(rng.integers(1, 15))
        if rng.uniform() < 0.5:
            radius = float(rng.uniform(0.1, sp.diameter / 2 + 0.1))
            balls = [(int(rng.integers(sp.natoms)), radius) for _ in range(m)]
        else:
            balls = [(int(rng.integers(sp.natoms)),
                      float(rng.uniform(0, sp.diameter / 2 + 0.1)))
                     for _ in range(m)]
        try:
            kept = vitali_subfamily(sp, balls)
        except RuntimeError:
            failures += 1
            continue
        masks = [sp.ball_mask(c, rad) for c, rad in kept]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                if (masks[i] & masks[j]).any():
                    failures += 1
        union_in = np.zeros(sp.natoms, bool)
        for c, rad in balls:
            union_in |= sp.ball_mask(c, rad)
        union_5 = np.zeros(sp.natoms, bool)
        for c, rad in kept:
            union_5 |= sp.ball_mask(c, 5 * rad)
        if (union_in & ~union_5).any():
            failures += 1
    report(11, "Vitali 5r subfamily", failures == 0)


def test_criterion_12_determinism(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"kind": "lattice", "L": 30}))
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"values": list(range(31))}))

    outputs = []
    for tag in ("a", "b"):
        verify_out = tmp_path / f"verify-{tag}.json"
        csv_out = tmp_path / f"probe-{tag}.csv"
        chart_out = tmp_path / f"probe-{tag}.svg"
        step_out = tmp_path / f"step-{tag}.svg"
        assert dispatch(["verify", "--lemma", "operator-bound", "--space",
                         str(space), "--r", "1", "--p", "2", "--q", "2",
                         "--seed", "7", "--out", str(verify_out)]) == 0
        assert dispatch(["probe", "--family", "lattice:10:20:10", "--r", "1",
                         "--p", "2", "--q", "2", "--epsilon", "0.3", "--n", "15",
                         "--seed", "7", "--out", str(csv_out),
                         "--svg", str(chart_out)]) == 0
        assert dispatch(["rearrange", "--space", str(space), "--fn", str(fn),
                         "--plot", str(step_out), "--out",
                         str(tmp_path / f"star-{tag}.json")]) == 0
        outputs.append((verify_out.read_bytes(), csv_out.read_bytes(),
                        chart_out.read_bytes(), step_out.read_bytes(),
                        (tmp_path / f"star-{tag}.json").read_bytes()))
    report(12, "byte-identical outputs under identical seeds",
           outputs[0] == outputs[1])
