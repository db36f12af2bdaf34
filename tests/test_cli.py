import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import loravg
from loravg.cli import (_build_parser, _cmd_build_space, _emit_json, _verify_equicontinuity,
                        dispatch)
from loravg.compactness import sample_unit_sphere

from conftest import fresh_env


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "lattice", "L": 9}))
    return str(path)


@pytest.fixture
def chi_file(tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"values": [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]}))
    return str(path)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


# Every subcommand's options, pinned: dest -> (option string, required,
# default, type, choices, action class).
_PARSER = {
    "build-space": {
        "space": ("--space", True, None, None, None, "_StoreAction"),
        "out": ("--out", False, None, None, None, "_StoreAction"),
    },
    "norm": {
        "space": ("--space", True, None, None, None, "_StoreAction"),
        "fn": ("--fn", True, None, None, None, "_StoreAction"),
        "p": ("--p", True, None, None, None, "_StoreAction"),
        "q": ("--q", True, None, None, None, "_StoreAction"),
        "variant": ("--variant", False, "plain", None, ("plain", "double-star"), "_StoreAction"),
        "out": ("--out", False, None, None, None, "_StoreAction"),
    },
    "rearrange": {
        "space": ("--space", True, None, None, None, "_StoreAction"),
        "fn": ("--fn", True, None, None, None, "_StoreAction"),
        "distribution": ("--distribution", False, False, None, None, "_StoreTrueAction"),
        "plot": ("--plot", False, None, None, None, "_StoreAction"),
        "out": ("--out", False, None, None, None, "_StoreAction"),
    },
    "avg": {
        "space": ("--space", True, None, None, None, "_StoreAction"),
        "fn": ("--fn", True, None, None, None, "_StoreAction"),
        "r": ("--r", True, None, "float", None, "_StoreAction"),
        "out": ("--out", False, None, None, None, "_StoreAction"),
    },
    "verify": {
        "lemma": ("--lemma", True, None, None,
                  ("distribution", "rearrange", "operator-bound", "equicontinuity"),
                  "_StoreAction"),
        "space": ("--space", True, None, None, None, "_StoreAction"),
        "r": ("--r", True, None, "float", None, "_StoreAction"),
        "p": ("--p", True, None, None, None, "_StoreAction"),
        "q": ("--q", True, None, None, None, "_StoreAction"),
        "variant": ("--variant", False, "plain", None, ("plain", "double-star"), "_StoreAction"),
        "fn": ("--fn", False, None, None, None, "_StoreAction"),
        "seed": ("--seed", False, None, "int", None, "_StoreAction"),
        "trials": ("--trials", False, 8, "int", None, "_StoreAction"),
        "out": ("--out", False, None, None, None, "_StoreAction"),
    },
    "witness": {
        "space": ("--space", True, None, None, None, "_StoreAction"),
        "r": ("--r", True, None, "float", None, "_StoreAction"),
        "k": ("--k", True, None, "int", None, "_StoreAction"),
        "p": ("--p", True, None, None, None, "_StoreAction"),
        "q": ("--q", True, None, None, None, "_StoreAction"),
        "variant": ("--variant", False, "plain", None, ("plain", "double-star"), "_StoreAction"),
        "out": ("--out", False, None, None, None, "_StoreAction"),
    },
    "probe": {
        "family": ("--family", True, None, None, None, "_StoreAction"),
        "r": ("--r", True, None, "float", None, "_StoreAction"),
        "p": ("--p", True, None, None, None, "_StoreAction"),
        "q": ("--q", True, None, None, None, "_StoreAction"),
        "variant": ("--variant", False, "plain", None, ("plain", "double-star"), "_StoreAction"),
        "epsilon": ("--epsilon", True, None, "float", None, "_StoreAction"),
        "n": ("--n", True, None, "int", None, "_StoreAction"),
        "seed": ("--seed", False, None, "int", None, "_StoreAction"),
        "out": ("--out", False, None, None, None, "_StoreAction"),
        "svg": ("--svg", False, None, None, None, "_StoreAction"),
    },
    "approx": {
        "space": ("--space", True, None, None, None, "_StoreAction"),
        "fn": ("--fn", True, None, None, None, "_StoreAction"),
        "epsilon": ("--epsilon", True, None, "float", None, "_StoreAction"),
        "p": ("--p", True, None, None, None, "_StoreAction"),
        "q": ("--q", True, None, None, None, "_StoreAction"),
        "variant": ("--variant", False, "plain", None, ("plain", "double-star"), "_StoreAction"),
        "out": ("--out", False, None, None, None, "_StoreAction"),
    },
}


def test_parser_declares_the_same_options():
    """Each subcommand takes the same options, with the same dest,
    requiredness, default, type, choices and action, and its handler."""
    sub, = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_PARSER)
    for name, parser in sub.choices.items():
        options = {a.dest: (a.option_strings[0] if len(a.option_strings) == 1
                            else tuple(a.option_strings), a.required, a.default,
                            None if a.type is None else a.type.__name__,
                            None if a.choices is None else tuple(a.choices), type(a).__name__)
                   for a in parser._actions}
        assert options.pop("help") == (("-h", "--help"), False, argparse.SUPPRESS, None, None,
                                       "_HelpAction")
        assert options == _PARSER[name], name
        assert parser.get_default("handler").__name__ == "_cmd_" + name.replace("-", "_")


def test_norm_subcommand(capsys, space_file, chi_file):
    code, out = run(capsys, "norm", "--space", space_file, "--fn", chi_file,
                    "--p", "2", "--q", "1", "--variant", "plain")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"value": 4.0, "normable": True}


def test_double_star_norm_subcommand_two_atom_regression(capsys, tmp_path):
    space = tmp_path / "s.json"
    space.write_text(json.dumps({"kind": "matrix", "dist": [[0, 1], [1, 0]],
                                 "weights": [1e-4, 1e4]}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"values": [1, 0.001]}))
    code, out = run(capsys, "norm", "--space", str(space), "--fn", str(fn),
                    "--variant", "double-star", "--p", "3", "--q", "1.5")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.11614274905696818, rel=1e-13)


_IMPORT_GUARD = """
import json, sys
from loravg.cli import main
space, fn = sys.argv[1:3]
common = ["--space", space, "--p", "3", "--q", "2"]
for argv in (["norm", "--fn", fn, "--variant", "double-star", "--space", space,
              "--p", "3", "--q", "1.5"],
             ["avg", "--fn", fn, "--space", space, "--r", "1"],
             ["verify", "--lemma", "operator-bound", "--fn", fn, "--r", "1"] + common,
             ["witness", "--r", "0.5", "--k", "4"] + common):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
heavy = ("scipy.integrate", "scipy.spatial", "scipy.sparse.csgraph", "numpy.polynomial")
print(json.dumps(sorted(m for m in heavy if m in sys.modules)), file=sys.stderr)
"""


def test_cloud_commands_import_no_heavy_scipy_modules(tmp_path):
    space = tmp_path / "cloud.json"
    space.write_text(json.dumps({"kind": "cloud", "metric": "l1",
                                 "coords": [[0.0], [0.7], [1.5], [3.1], [4.0], [6.2]],
                                 "weights": [1.0, 0.5, 2.0, 1.0, 0.3, 1.2]}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"values": [1.0, -0.5, 0.25, 2.0, 0.0, -1.5]}))
    res = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(space), str(fn)],
                         capture_output=True, text=True, timeout=120,
                         env=fresh_env())
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stderr.strip().splitlines()[-1]) == []


def test_build_space_round_trip(capsys, tmp_path, space_file):
    out1 = tmp_path / "canon1.json"
    out2 = tmp_path / "canon2.json"
    assert dispatch(["build-space", "--space", space_file, "--out", str(out1)]) == 0
    assert dispatch(["build-space", "--space", str(out1), "--out", str(out2)]) == 0
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert a["dist"] == b["dist"] and a["weights"] == b["weights"]
    assert out1.read_bytes() == out2.read_bytes()


def test_rearrange_subcommand(capsys, tmp_path):
    space = tmp_path / "s.json"
    space.write_text(json.dumps({
        "kind": "matrix", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        "weights": [1, 2, 1]}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"values": [3, 1, 2]}))
    svg = tmp_path / "star.svg"
    code, out = run(capsys, "rearrange", "--space", str(space), "--fn", str(fn),
                    "--plot", str(svg))
    assert code == 0
    payload = json.loads(out)
    assert payload["breakpoints"] == [0, 1, 2, 4]
    assert payload["levels"] == [3, 2, 1]
    content = svg.read_text()
    assert content.count("<line") >= 3 + 2  # three segments plus axes
    code, out = run(capsys, "rearrange", "--space", str(space), "--fn", str(fn),
                    "--distribution")
    assert json.loads(out)["levels"] == [4, 2, 1]


def test_avg_subcommand(capsys, tmp_path):
    space = tmp_path / "s.json"
    space.write_text(json.dumps({"kind": "lattice", "L": 4}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"values": [0, 0, 3, 0, 0]}))
    code, out = run(capsys, "avg", "--space", str(space), "--fn", str(fn), "--r", "1")
    assert code == 0
    assert json.loads(out)["values"] == [0, 1, 1, 1, 0]


def test_verify_operator_bound(capsys, tmp_path):
    space = tmp_path / "s.json"
    space.write_text(json.dumps({"kind": "lattice", "L": 200}))
    code, out = run(capsys, "verify", "--lemma", "operator-bound",
                    "--space", str(space), "--r", "1", "--p", "2", "--q", "2",
                    "--seed", "7", "--trials", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["constant_c"] == pytest.approx(20 / 3, rel=1e-12)
    assert payload["worst_ratio"] <= 1.0
    assert all(ch["pass"] for ch in payload["checks"])


def test_verify_all_lemmas_pass(capsys, tmp_path):
    space = tmp_path / "s.json"
    space.write_text(json.dumps({"kind": "lattice", "L": 40}))
    for lemma in ("distribution", "rearrange", "equicontinuity"):
        code, out = run(capsys, "verify", "--lemma", lemma, "--space", str(space),
                        "--r", "1", "--p", "2", "--q", "2", "--seed", "11",
                        "--trials", "3")
        assert code == 0, lemma
        assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("lemma", ["distribution", "rearrange", "operator-bound",
                                   "equicontinuity"])
def test_verify_worst_ratio_and_c_come_from_the_checks(capsys, tmp_path, lemma):
    """worst_ratio is the largest lhs / rhs over the checks (0 for 0/0, inf
    for a positive lhs over 0), and constant_c is the space's c, null for
    equicontinuity, whose checks carry no c."""
    from loravg.averaging import distribution_constant

    spec = {"kind": "cloud", "metric": "l1", "weights": [1, 2, 0.5, 1, 3, 1, 0.25],
            "coords": [[x] for x in (0, 0.4, 1.1, 1.5, 3, 3.2, 4)]}
    space = tmp_path / "s.json"
    space.write_text(json.dumps(spec))
    code, out = run(capsys, "verify", "--lemma", lemma, "--space", str(space), "--r", "1",
                    "--p", "2", "--q", "2", "--seed", "5", "--trials", "4")
    assert code == 0
    payload = json.loads(out)
    ratios = [ch["lhs"] / ch["rhs"] if ch["rhs"] > 0 else math.inf if ch["lhs"] > 0 else 0.0
              for ch in payload["checks"]]
    assert payload["worst_ratio"] == max(ratios) > 0
    c = distribution_constant(loravg.build_space(spec), 1.0)[0]
    assert payload["constant_c"] == (None if lemma == "equicontinuity" else c)


def test_cloud_and_matrix_forms_print_one_distribution_constant(tmp_path):
    """One 1-D space, given as a cloud (a line space) and as its distance
    matrix (a matrix space): `verify --lemma distribution` prints the same
    constant_c lines, and the two forms have the same ball measures and
    gammas (which the report does not print), as both sum the same exact
    weight limbs."""
    from loravg.averaging import distribution_constant

    rng = np.random.default_rng(3)
    cloud = {"kind": "cloud", "metric": "l1",
             "coords": rng.uniform(0.0, 100.0, (300, 1)).tolist(),
             "weights": rng.uniform(0.2, 3.0, 300).tolist()}
    line = loravg.build_space(cloud)
    matrix = {"kind": "matrix", "dist": line.dist.tolist(), "weights": cloud["weights"]}
    printed = []
    for spec in (cloud, matrix):
        code, _, out = _run_files(tmp_path, spec, None, [
            "verify", "--lemma", "distribution", "--r", "1", "--p", "2", "--q", "2",
            "--seed", "3", "--trials", "4"])
        assert code == 0
        printed.append([text for text in out.splitlines()
                        if '"c"' in text or "constant_c" in text])
    assert len(printed[0]) == 5 and printed[0] == printed[1]
    matrix_space = loravg.build_space(matrix)
    for r in (1.0, 2.0, 4.0, 8.0):
        assert line.ball_measures(r).tobytes() == matrix_space.ball_measures(r).tobytes()
    assert distribution_constant(line, 1.0) == distribution_constant(matrix_space, 1.0)


def test_equicontinuity_ties_go_to_the_first_pair_in_row_major_order(monkeypatch):
    """On singleton balls of equal weight every pair of distinct atoms has
    the same bound, so (0, 3) and (3, 0), of the largest |f(x) - f(y)|,
    tie.  With one row per pair block they sit in different blocks, and
    the earlier pair is reported."""
    from loravg import space as space_mod
    from loravg.averaging import equicontinuity_bound_matrix

    sp = loravg.build_space({"kind": "cloud", "metric": "l1", "coords": [[0], [1], [2], [3]]})
    f = loravg.FunctionOnSpace(sp, [1.0, 0.25, -0.5, -1.0])
    spec = loravg.NormSpec(3, 2)
    bound = equicontinuity_bound_matrix(sp, 0.5, spec)
    assert bound[0, 3] == bound[3, 0] > 0
    monkeypatch.setattr(space_mod, "_PAIR_BLOCK_ENTRIES", 1)
    assert len(sp.pair_blocks()) == 4
    check, = _verify_equicontinuity(sp, [f], 0.5, spec)
    assert check["name"] == "trial-0-pair-0-3"
    assert (check["lhs"], check["rhs"]) == (2.0, bound[0, 3])


@pytest.mark.parametrize("entries", [1, 40])
@pytest.mark.parametrize("form", ["matrix", "line"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_dual_norm_pair_checks_match_the_library(monkeypatch, p, form, entries):
    """Each dual-norm-pair-x-(x+1) check has, to the bit, the exact modulus
    of `equicontinuity_modulus` as lhs and the bound of
    `equicontinuity_bound_matrix` as rhs.  At 12 atoms the pair blocks are
    one row or three rows long, so pairs (x, x + 1) cross block
    boundaries."""
    from loravg import space as space_mod
    from loravg.averaging import equicontinuity_bound_matrix, equicontinuity_modulus

    monkeypatch.setattr(space_mod, "_PAIR_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(17)
    n, dim = 12, 2 if form == "matrix" else 1
    sp = loravg.MetricMeasureSpace.from_cloud(rng.uniform(0.0, 10.0, (n, dim)), metric="l1",
                                              weights=rng.uniform(0.2, 3.0, n))
    assert (sp.coords is None) == (form == "matrix")
    length = 3 if entries == 40 else 1
    assert {b.stop - b.start for b in sp.pair_blocks()} == {length}
    spec, r = loravg.NormSpec(p, p), 2.5
    fs = [loravg.FunctionOnSpace(sp, rng.standard_normal(n)) for _ in range(2)]
    bound = equicontinuity_bound_matrix(sp, r, spec)
    checks = _verify_equicontinuity(sp, fs, r, spec)[len(fs):]
    assert [ch["name"] for ch in checks] == [f"dual-norm-pair-{x}-{x + 1}" for x in range(n - 1)]
    for x, ch in enumerate(checks):
        assert ch["lhs"] == equicontinuity_modulus(sp, x, x + 1, r, spec)[1]
        assert ch["rhs"] == bound[x, x + 1]


def test_verify_missing_seed_is_usage_error(capsys, space_file):
    code, _ = run(capsys, "verify", "--lemma", "distribution", "--space", space_file,
                  "--r", "1", "--p", "2", "--q", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    *[["verify", "--lemma", lemma, "--space", "SPACE", "--r", "1", "--p", "2", "--q", "2"]
      for lemma in ("distribution", "rearrange", "operator-bound", "equicontinuity")],
    ["probe", "--family", "lattice:4", "--r", "1", "--p", "2", "--q", "2",
     "--epsilon", "0.5", "--n", "3"],
], ids=lambda argv: argv[2] if argv[0] == "verify" else argv[0])
def test_negative_seed_is_usage_error(space_file, argv):
    """numpy refuses a negative seed with a ValueError, which was a
    traceback and exit 1; it is a usage error, found before any draw."""
    argv = [space_file if arg == "SPACE" else arg for arg in argv]
    code, err = _dispatch_quietly([*argv, "--seed", "-1"])
    assert code == 2
    assert err.startswith("error: --seed must be nonnegative, not -1"), err


def test_verify_contract_failure_exits_one(capsys, tmp_path, monkeypatch, space_file):
    from loravg import averaging
    from loravg.averaging import OperatorBoundReport

    def broken(space, f, r, spec):
        return OperatorBoundReport(constant_c=2.0, factor=4.0, lhs=5.0, rhs=1.0,
                                   passed=False)

    monkeypatch.setattr(averaging, "verify_operator_bound", broken)
    code, out = run(capsys, "verify", "--lemma", "operator-bound",
                    "--space", space_file, "--r", "1", "--p", "2", "--q", "2",
                    "--seed", "1", "--trials", "1")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_malformed_json_reports_line_column(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "lattice", "L": }')
    code = dispatch(["build-space", "--space", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err and "column" in err


def test_metric_violation_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "matrix",
                               "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
    code = dispatch(["build-space", "--space", str(bad)])
    assert code == 2
    assert "triangle" in capsys.readouterr().err


def test_witness_subcommand(capsys, tmp_path):
    space = tmp_path / "s.json"
    space.write_text(json.dumps({"kind": "lattice", "L": 100}))
    code, out = run(capsys, "witness", "--space", str(space), "--r", "1",
                    "--k", "5", "--p", "2", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["checked_pairs"] == 10
    assert payload["centers"] == [0, 5, 10, 15, 20]
    assert payload["c_lower"] == pytest.approx(0.6)

    # no witness pair exists, so nothing was checked and nothing passed
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"kind": "lattice", "L": 3}))
    code, out = run(capsys, "witness", "--space", str(small), "--r", "1",
                    "--k", "5", "--p", "2", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["bounded_regime"] is True
    assert payload["pass"] is None
    assert payload["checked_pairs"] == 0


def test_probe_subcommand(capsys, tmp_path):
    csv_path = tmp_path / "trend.csv"
    svg_path = tmp_path / "trend.svg"
    code = dispatch(["probe", "--family", "lattice:10:30:10", "--r", "1",
                     "--p", "2", "--q", "2", "--epsilon", "0.3", "--n", "20",
                     "--seed", "7", "--out", str(csv_path), "--svg", str(svg_path)])
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "L,k,witness_count,witness_min,c_lower"
    assert len(lines) == 4
    assert svg_path.exists()
    code = dispatch(["probe", "--family", "lattice:10:30:10", "--r", "1",
                     "--p", "2", "--q", "2", "--epsilon", "0.3", "--n", "20"])
    assert code == 2  # seed mandatory


def test_probe_holds_one_family_space_at_a_time(capsys, monkeypatch):
    """probe builds each lattice of --family when its row is computed and
    keeps nothing of it, memos included, once the row is done; the CSV is
    the one that a list of the same spaces gives."""
    lattice, built, alive = loravg.MetricMeasureSpace.lattice, [], []

    def tracked(L, weights=None):
        alive.append(sum(ref() is not None for ref in built))
        space = lattice(L, weights)
        built.append(weakref.ref(space))
        return space

    monkeypatch.setattr(loravg.MetricMeasureSpace, "lattice", staticmethod(tracked))
    code, out = run(capsys, "probe", "--family", "lattice:10:40:10", "--r", "1", "--p", "2",
                    "--q", "2", "--epsilon", "0.3", "--n", "20", "--seed", "7")
    assert code == 0
    assert (len(built), alive) == (4, [0, 0, 0, 0])
    sizes = [10, 20, 30, 40]
    rows = loravg.compactness_probe([lattice(L) for L in sizes], 1.0, loravg.NormSpec(2, 2),
                                    0.3, 20, 7, labels=[str(L) for L in sizes])
    assert out.splitlines()[1:] == [
        f"{row.label},{row.k},{row.witness_count},{row.witness_min!r},{row.c_lower!r}"
        for row in rows]


def test_approx_subcommand(capsys, tmp_path):
    space = tmp_path / "s.json"
    space.write_text(json.dumps({"kind": "lattice", "L": 20}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"values": list(np.linspace(0, 1, 21))}))
    code, out = run(capsys, "approx", "--space", str(space), "--fn", str(fn),
                    "--epsilon", "0.6", "--p", "2", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["error"] <= 0.6
    assert len(payload["centers"]) == len(payload["radii"])


@pytest.mark.parametrize("lemma", ["distribution", "rearrange"])
def test_verify_zero_function_exits_two(capsys, tmp_path, space_file, lemma):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"values": [0] * 10}))
    code, out = run(capsys, "verify", "--lemma", lemma, "--space", space_file,
                    "--fn", str(zero), "--r", "1", "--p", "2", "--q", "2")
    assert code == 2 and out == ""


def test_verify_distribution_reports_each_trial(capsys, tmp_path):
    from loravg import FunctionOnSpace, MetricMeasureSpace, verify_distribution_inequality
    from loravg.averaging import threshold_sweep

    space = tmp_path / "s.json"
    space.write_text(json.dumps({"kind": "lattice", "L": 10}))
    code, out = run(capsys, "verify", "--lemma", "distribution", "--space", str(space),
                    "--r", "1", "--p", "2", "--q", "2", "--seed", "2", "--trials", "4")
    assert code == 0
    checks = json.loads(out)["checks"]
    sp = MetricMeasureSpace.lattice(10)
    rng = np.random.default_rng(2)
    for i, check in enumerate(checks):
        f = FunctionOnSpace(sp, rng.standard_normal(11))
        rep = verify_distribution_inequality(sp, f, 1.0, threshold_sweep(f))
        assert check["name"] == f"trial-{i}-t-{rep.t:g}"
        assert (check["lhs"], check["rhs"]) == (rep.lhs, rep.rhs)
    assert len(checks) == 4


@pytest.mark.parametrize("lemma", ["distribution", "rearrange", "operator-bound",
                                   "equicontinuity"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_needs_a_trial(capsys, space_file, lemma, trials):
    code, out = run(capsys, "verify", "--lemma", lemma, "--space", space_file,
                    "--r", "1", "--p", "2", "--q", "2", "--seed", "1", "--trials", trials)
    assert code == 2 and out == ""


def test_verify_distribution_near_dblmax_prints_no_warning(tmp_path):
    """c t above DBL_MAX means mu = 0, and twice the largest value stops at
    the largest float: the run says nothing on stderr but its wall time."""
    space = tmp_path / "s.json"
    space.write_text(json.dumps({"kind": "matrix", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                                 "weights": [1, 2, 1]}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"values": [1e308, 1, 0.5]}))
    res = subprocess.run([sys.executable, "-m", "loravg.cli", "verify", "--lemma",
                          "distribution", "--space", str(space), "--fn", str(fn), "--r", "1",
                          "--p", "2", "--q", "2"], capture_output=True, text=True,
                         timeout=120, env=fresh_env())
    assert res.returncode == 0
    assert res.stderr.startswith("wall_time_s=") and len(res.stderr.splitlines()) == 1
    report = json.loads(res.stdout)
    assert report["pass"] is True and [ch["pass"] for ch in report["checks"]] == [True]


def _run_files(tmp_path, space: dict, values: list | None, argv: list[str]):
    """(exit code, stderr lines, stdout) of the command argv on the space
    and, unless values is None, the function given, run in process, where
    a RuntimeWarning fails the test."""
    files = {"--space": space, "--fn": None if values is None else {"values": values}}
    for flag, payload in files.items():
        if payload is not None:
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(payload))
            argv = [*argv, flag, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, err.getvalue().splitlines(), out.getvalue()


_CLOUD3 = {"kind": "cloud", "metric": "l1", "coords": [[0], [1], [2]]}


@pytest.mark.parametrize("space", [
    {"kind": "matrix", "dist": [[0, 1], [1, 0]], "weights": [1e300, 1e-300]},
    {**_CLOUD3, "weights": [1e300, 1, 1e-300]},
])
def test_wide_weight_range_averages_single_atom_balls_exactly(tmp_path, space):
    """Every ball of radius 0.5 is one atom, so A_r f = f, though w_y over
    the measure of another atom's ball overflows."""
    values = [1.0, 2.0, 3.0][:len(space["weights"])]
    code, err, out = _run_files(tmp_path, space, values, ["avg", "--r", "0.5"])
    assert code == 0 and len(err) == 1 and err[0].startswith("wall_time_s=")
    assert json.loads(out)["values"] == values


@pytest.mark.parametrize("lemma", ["distribution", "rearrange", "operator-bound"])
def test_overflowing_constant_c_exits_two(tmp_path, lemma):
    """A doubling quotient of 1e200 / 1e-200 makes c infinite, and every
    check against it would pass whatever f is."""
    code, err, out = _run_files(tmp_path, {**_CLOUD3, "weights": [1e-200, 1, 1e200]},
                                [1, 2, 3], ["verify", "--lemma", lemma, "--r", "0.5",
                                            "--p", "2", "--q", "2"])
    assert code == 2 and out == ""
    assert len(err) == 2 and "constant c" in err[0] and err[0].startswith("error:")
    assert err[1].startswith("wall_time_s=")


_PATH3 = {"kind": "matrix", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}


@pytest.mark.parametrize("values, r, argv", [
    ([1, 2, 3], "0.5", ["--p", "2", "--q", "2"]),
    (None, "1", ["--seed", "1", "--trials", "2", "--p", "3", "--q", "2"]),
])
def test_overflowing_equicontinuity_bound_exits_two(tmp_path, values, r, argv):
    """1 / mu(B(x, r)) overflows at weights of 1e-320, so the bounds are not
    finite: the run says so instead of calling the balls one atom set."""
    code, err, out = _run_files(tmp_path, {**_PATH3, "weights": [1e-320] * 3}, values,
                                ["verify", "--lemma", "equicontinuity", "--r", r, *argv])
    assert code == 2 and out == ""
    assert err[0] == f"error: the equicontinuity bound at radius {r} overflows"
    assert len(err) == 2 and err[1].startswith("wall_time_s=")


@pytest.mark.parametrize("lemma", ["distribution", "rearrange"])
def test_overflowing_integral_of_f_exits_two(tmp_path, lemma):
    """Weights of 8e307 have a finite total, but the integral of |f| is
    2.4e308: f** and the integrals over the level sets read inf, and the
    checks passed, with lhs 0 or after numpy's overflow warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err, out = _run_files(tmp_path, {**_PATH3, "weights": [8e307, 8e307, 1]},
                                    [1, 2, 3], ["verify", "--lemma", lemma, "--r", "1",
                                                "--p", "2", "--q", "2"])
    assert [str(w.message) for w in caught] == []
    assert code == 2 and out == ""
    assert err[0] == "error: the integral of |f| overflows the floating-point range"
    assert len(err) == 2 and err[1].startswith("wall_time_s=")


def test_equicontinuity_on_balls_that_are_the_whole_space_exits_two(tmp_path):
    """At r >= diameter every bound is exactly 0, and the modulus with it."""
    code, err, _ = _run_files(tmp_path, {**_PATH3, "weights": [1, 2, 1]}, [1, 2, 3],
                              ["verify", "--lemma", "equicontinuity", "--r", "2", "--p", "2",
                               "--q", "2"])
    assert code == 2
    assert err[0] == ("error: every ball of radius 2 is the same atom set, so the modulus "
                      "is identically 0")


def test_verify_equicontinuity_skips_equal_balls(capsys, tmp_path):
    """Pairs of atoms with the same ball have a zero bound and no 0/0."""
    import warnings

    from loravg import NormSpec, build_space
    from loravg.averaging import equicontinuity_bound_matrix

    spec = {"kind": "cloud", "metric": "l1",
            "coords": [[x] for x in (0.0, 0.1, 5.0, 5.1, 5.2, 10.0, 10.4, 11.0)]}
    space = tmp_path / "s.json"
    space.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(capsys, "verify", "--lemma", "equicontinuity", "--space", str(space),
                        "--r", "1", "--p", "2", "--q", "2", "--seed", "3", "--trials", "6")
    assert code == 0
    bound = equicontinuity_bound_matrix(build_space(spec), 1.0, NormSpec(2, 2))
    trial_checks = [ch for ch in json.loads(out)["checks"] if ch["name"].startswith("trial-")]
    assert len(trial_checks) == 6
    for check in trial_checks:
        x, y = map(int, check["name"].split("-")[3:])
        assert bound[x, y] > 0 and check["rhs"] == bound[x, y]


def test_verify_equicontinuity_scales_explicit_function(capsys, tmp_path, space_file):
    """The modulus is a bound over the unit ball, so an explicit --fn is
    scaled to unit norm: every multiple of a function gets one verdict."""
    reports = []
    for scale in (100.0, 0.01, 0.0):
        fn = tmp_path / f"f{scale}.json"
        fn.write_text(json.dumps({"values": [scale] + [0.0] * 9}))
        code, out = run(capsys, "verify", "--lemma", "equicontinuity", "--space", space_file,
                        "--fn", str(fn), "--r", "1", "--p", "2", "--q", "2")
        reports.append((code, json.loads(out)["worst_ratio"] if out else None))
    assert reports[0] == reports[1] and reports[0][0] == 0
    assert reports[2] == (2, None)


def test_out_of_memory_exits_two(tmp_path):
    """A failed allocation is an input too large for the machine, not a
    failed contract.  The 20001 x 20001 distance matrix needs 3 GB; the
    address space is capped at 2 GiB."""
    resource = pytest.importorskip("resource")
    space = tmp_path / "big.json"
    space.write_text(json.dumps({"kind": "lattice", "L": 20000}))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    res = subprocess.run([sys.executable, "-m", "loravg.cli", "build-space", "--space",
                          str(space)], capture_output=True, text=True, timeout=120,
                         env=fresh_env(), preexec_fn=cap_memory)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


@pytest.mark.parametrize("command", [
    ["avg", "--fn", "FN", "--r", "2"],
    ["norm", "--fn", "FN", "--variant", "double-star", "--p", "3", "--q", "1.5"],
    ["verify", "--lemma", "operator-bound", "--fn", "FN", "--r", "2", "--p", "3", "--q", "2"],
    ["witness", "--r", "2", "--k", "10", "--p", "2", "--q", "2"],
    ["build-space"],
])
def test_line_space_commands_fit_without_a_distance_matrix(tmp_path, command):
    """A 1-D cloud of 20,000 atoms, whose distance matrix alone needs 3.2 GB,
    under a 1 GiB address-space cap: every command that only queries balls
    exits 0; build-space, which emits the full matrix, exits 2."""
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(11)
    n = 20000
    space = tmp_path / "line.json"
    space.write_text(json.dumps({"kind": "cloud", "metric": "l1",
                                 "coords": rng.uniform(0, 5000, (n, 1)).tolist(),
                                 "weights": rng.uniform(0.2, 3.0, n).tolist()}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"values": np.round(rng.standard_normal(n), 2).tolist()}))
    # BLAS thread pools reserve address space per thread; one thread keeps
    # the cap independent of the core count.
    env = fresh_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = [str(fn) if arg == "FN" else arg for arg in command]
    res = subprocess.run([sys.executable, "-m", "loravg.cli", argv[0], "--space", str(space),
                          *argv[1:]], capture_output=True, text=True, timeout=120, env=env,
                         preexec_fn=cap_memory)
    if command[0] == "build-space":
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    else:
        assert res.returncode == 0, res.stderr
        json.loads(res.stdout)


def test_probe_zero_step_exits_two(capsys):
    code = dispatch(["probe", "--family", "lattice:10:20:0", "--r", "1", "--p", "2",
                     "--q", "2", "--epsilon", "0.3", "--n", "5", "--seed", "1"])
    assert code == 2
    assert "step" in capsys.readouterr().err


def test_non_numeric_function_value_exits_two(capsys, tmp_path, space_file):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"values": [1, "x"] + [0] * 8}))
    code, out = run(capsys, "norm", "--space", space_file, "--fn", str(fn),
                    "--p", "2", "--q", "2")
    assert code == 2 and out == ""


def test_skip_validation_key_cannot_admit_a_non_metric(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "matrix", "skip_validation": True,
                               "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
    code = dispatch(["build-space", "--space", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "triangle" in captured.err


@pytest.fixture(scope="module")
def small_spaces(tmp_path_factory):
    """{form: (space file, function file)}: a 6-atom line space (a 1-D
    cloud) and a 6-atom matrix space (a 2-D cloud)."""
    root = tmp_path_factory.mktemp("forms")
    fn = root / "f.json"
    fn.write_text(json.dumps({"values": [1.0, -0.5, 0.25, 2.0, 0.0, -1.5]}))
    weights = [1.0, 0.5, 2.0, 1.0, 0.3, 1.2]
    coords = {"line": [[0.0], [0.7], [1.5], [3.1], [4.0], [6.2]],
              "matrix": [[0.0, 0.0], [0.7, 0.2], [1.5, 1.0], [3.1, 0.4], [4.0, 2.0],
                         [6.2, 0.5]]}
    out = {}
    for form, points in coords.items():
        space = root / f"{form}.json"
        space.write_text(json.dumps({"kind": "cloud", "metric": "l1", "coords": points,
                                     "weights": weights}))
        out[form] = (str(space), str(fn))
    return out


def _dispatch_quietly(argv):
    """(exit code, stderr) of one in-process run, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_malformed_validation_cap_exits_2(monkeypatch, tmp_path, raw):
    monkeypatch.setenv("LORAVG_MAX_ATOMS", raw)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"kind": "matrix", "dist": [[0, 1], [1, 0]]}))
    code, err = _dispatch_quietly(["build-space", "--space", str(space)])
    assert code == 2
    assert err.startswith(f"error: LORAVG_MAX_ATOMS must be a nonnegative integer, not {raw!r}")


@pytest.mark.parametrize("flag", ["--space", "--fn"])
def test_deeply_nested_json_exits_2(tmp_path, space_file, chi_file, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    files = {"--space": space_file, "--fn": chi_file, flag: str(deep)}
    code, err = _dispatch_quietly(["norm", "--space", files["--space"], "--fn", files["--fn"],
                                   "--p", "2", "--q", "2"])
    assert code == 2
    assert err.startswith(f"error: JSON in {deep} is nested too deeply")


@pytest.mark.parametrize("flag", ["--space", "--fn"])
@pytest.mark.parametrize("raw, error", [
    (b'{"values": [1, "\xff"]}',
     "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 16"),
    (b'\xef\xbb\xbf{"values": [1]}', "line 1 column 1: Unexpected UTF-8 BOM"),
], ids=["not-utf8", "bom"])
def test_input_files_are_read_as_utf8(tmp_path, space_file, chi_file, flag, raw, error):
    """A space or function file is read as UTF-8: a byte that is not UTF-8
    exits 2 with an error line, not a UnicodeDecodeError traceback, and a
    leading byte-order mark still exits 2 as malformed JSON."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    files = {"--space": space_file, "--fn": chi_file, flag: str(bad)}
    code, err = _dispatch_quietly(["norm", "--space", files["--space"], "--fn", files["--fn"],
                                   "--p", "2", "--q", "2"])
    assert code == 2
    assert err.startswith("error: ") and error in err.splitlines()[0]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("command", [
    ["rearrange", "--space", "SPACE", "--fn", "FN", "--plot", "SIDE"],
    ["probe", "--family", "lattice:4:6:2", "--r", "1", "--p", "2", "--q", "2",
     "--epsilon", "0.5", "--n", "3", "--seed", "1", "--svg", "SIDE"],
], ids=["rearrange-plot", "probe-svg"])
def test_side_file_that_cannot_be_written_leaves_no_artifact(tmp_path, space_file, chi_file,
                                                              command, to_file):
    """A plot is written before the artifact, so a plot path that cannot be
    written exits 2 with nothing on stdout and no --out file."""
    paths = {"SPACE": space_file, "FN": chi_file,
             "SIDE": str(tmp_path / "no-such-dir" / "side.svg")}
    argv = [paths.get(arg, arg) for arg in command]
    artifact = tmp_path / "artifact"
    if to_file:
        argv += ["--out", str(artifact)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code == 2
    assert out.getvalue() == "" and not artifact.exists()
    assert err.getvalue().startswith("error: ")


_PAIR = [[0, 1], [1, 0]]


@pytest.mark.parametrize("space, values, field", [
    ({"kind": "matrix", "dist": [[0, "1"], ["1", 0]]}, [2, 1], "dist"),
    ({"kind": "matrix", "dist": _PAIR, "weights": ["1", 1]}, [2, 1], "weights"),
    ({"kind": "cloud", "coords": [[0, "1"], [1, 0]]}, [2, 1], "coords"),
    ({"kind": "cloud", "coords": [[0], [1]], "weights": "12"}, [2, 1], "weights"),
    ({"kind": "graph", "n": 2, "edges": [[0, 1, "1.5"]]}, [2, 1], "edges"),
    ({"kind": "matrix", "dist": [[0, 2 ** 64], ["1", 0]]}, [2, 1], "dist"),
    ({"kind": "matrix", "dist": [[0, 10 ** 400], [10 ** 400, 0]]}, [2, 1], "dist"),
    ({"kind": "matrix", "dist": _PAIR}, ["2", 1], None),
    ({"kind": "matrix", "dist": _PAIR}, [2 ** 64, "1"], None),
    ({"kind": "matrix", "dist": _PAIR}, [10 ** 400, 1], None),
    ({"kind": "matrix", "dist": [[0, True], [1, 0]]}, [2, 1], "dist"),
    ({"kind": "matrix", "dist": _PAIR, "weights": [True, 2]}, [2, 1], "weights"),
    ({"kind": "cloud", "coords": [[0, False], [1, 0.5]]}, [2, 1], "coords"),
    ({"kind": "graph", "n": 2, "edges": [[0, 1, True]]}, [2, 1], "edges"),
    ({"kind": "matrix", "dist": _PAIR}, [True, 2], None),
    ({"kind": "matrix", "dist": _PAIR}, [True, False], None),
])
def test_strings_in_numeric_fields_exit_2(tmp_path, space, values, field):
    """numpy parses "1" and true as 1.0, and an integer past the float range
    raised OverflowError; each is a malformed input, as "3" is for a size.
    The space field, or else the function values, is named."""
    space_path, fn_path = tmp_path / "space.json", tmp_path / "fn.json"
    space_path.write_text(json.dumps(space))
    fn_path.write_text(json.dumps({"values": values}))
    code, err = _dispatch_quietly(["norm", "--space", str(space_path), "--fn", str(fn_path),
                                   "--p", "2", "--q", "2"])
    assert code == 2
    assert err.startswith(f"error: space field {field!r} is not numeric" if field
                          else f"error: function values in {fn_path} must be numbers"), err


_NAN_COMMANDS = [
    ["avg", "--fn", "FN", "--r", "nan"],
    *[["verify", "--lemma", lemma, "--r", "nan", "--p", "2", "--q", "2", "--seed", "1",
       "--trials", "2"]
      for lemma in ("distribution", "rearrange", "operator-bound", "equicontinuity")],
    ["witness", "--r", "nan", "--k", "3", "--p", "2", "--q", "2"],
    ["approx", "--fn", "FN", "--epsilon", "nan", "--p", "2", "--q", "2"],
]


@pytest.mark.parametrize("form", ["line", "matrix"])
@pytest.mark.parametrize("command", _NAN_COMMANDS, ids=lambda c: "-".join(c[:3]))
def test_nan_radius_or_epsilon_exits_two(small_spaces, form, command):
    space, fn = small_spaces[form]
    argv = [fn if arg == "FN" else arg for arg in command]
    code, err = _dispatch_quietly([argv[0], "--space", space, *argv[1:]])
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("form", ["line", "matrix"])
@pytest.mark.parametrize("variant", ["plain", "double-star"])
@pytest.mark.parametrize("p, q", [("1.5", "1e308"), ("1e308", "1e308")])
def test_overflowing_norm_exits_two(small_spaces, form, variant, p, q):
    """Huge indices overflow a power inside either norm variant, which
    would give inf or NaN for the finite norm."""
    space, fn = small_spaces[form]
    code, err = _dispatch_quietly(["norm", "--space", space, "--fn", fn, "--p", p,
                                   "--q", q, "--variant", variant])
    assert code == 2
    assert err.startswith("error:") and "overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("space, values, command", [
    ({"kind": "lattice", "L": 3}, [1e-200, 0, 0, 0], ["norm", "--p", "2", "--q", "2"]),
    ({"kind": "lattice", "L": 3}, [1e-200, 0, 0, 0],
     ["norm", "--p", "2", "--q", "3", "--variant", "double-star"]),
    ({"kind": "matrix", "dist": [[0]], "weights": [1e-320]}, [1.0],
     ["norm", "--p", "2", "--q", "3", "--variant", "double-star"]),
    ({"kind": "matrix", "dist": [[0]], "weights": [1e-320]}, [1.0],
     ["approx", "--epsilon", "0.5", "--p", "2", "--q", "3"]),
])
def test_underflowing_norm_exits_two(tmp_path, space, values, command):
    """A nonzero function whose norm underflows is bad input, not a norm of 0."""
    paths = {"space": tmp_path / "s.json", "fn": tmp_path / "f.json"}
    paths["space"].write_text(json.dumps(space))
    paths["fn"].write_text(json.dumps({"values": values}))
    code, err = _dispatch_quietly([command[0], "--space", str(paths["space"]),
                                   "--fn", str(paths["fn"]), *command[1:]])
    assert code == 2
    assert err.startswith("error:") and "underflows" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--r", "--epsilon"])
def test_probe_nan_exits_two(flag):
    """probe draws its spaces from a lattice family, so only line spaces."""
    argv = ["probe", "--family", "lattice:6", "--r", "1", "--epsilon", "0.3", "--p", "2",
            "--q", "2", "--n", "3", "--seed", "1"]
    argv[argv.index(flag) + 1] = "nan"
    code, err = _dispatch_quietly(argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e-300", "0.5", "1",
                            "1.5", "2", "3", "1e308"])
_COUNTS = st.sampled_from(["nan", "inf", "0", "-1", "1", "2", "3"])
# The numeric flags each command takes; the ones marked None are optional.
_FLAGS = {
    "avg": {"--r": _NUMBERS},
    "norm": {"--p": _NUMBERS, "--q": _NUMBERS},
    "witness": {"--r": _NUMBERS, "--k": _COUNTS, "--p": _NUMBERS, "--q": _NUMBERS},
    "approx": {"--epsilon": _NUMBERS, "--p": _NUMBERS, "--q": _NUMBERS},
    "probe": {"--r": _NUMBERS, "--epsilon": _NUMBERS, "--n": _COUNTS, "--p": _NUMBERS,
              "--q": _NUMBERS},
    "verify": {"--r": _NUMBERS, "--p": _NUMBERS, "--q": _NUMBERS, "--trials": _COUNTS},
}


@st.composite
def cli_runs(draw):
    """(space form, argv): a command with its numeric flags drawn from edge
    values, on a small space of either form.  Now and then a flag is
    left out, which argparse rejects with exit 2."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    form = draw(st.sampled_from(["line", "matrix"]))
    argv = [command]
    if command == "probe":
        argv += ["--family", "lattice:" + draw(st.sampled_from(["0", "1", "5", "2:8:3"])),
                 "--seed", "2"]
    else:
        argv += ["--space", "SPACE"]
    if command == "verify":
        argv += ["--lemma", draw(st.sampled_from(["distribution", "rearrange",
                                                  "operator-bound", "equicontinuity"])),
                 "--seed", "1"]
    if command in ("avg", "norm", "approx") or (command == "verify" and draw(st.booleans())):
        argv += ["--fn", "FN"]
    for flag, values in _FLAGS[command].items():
        if draw(st.integers(0, 19)):
            argv += [flag, draw(values)]
    if command != "avg" and draw(st.booleans()):
        argv += ["--variant", "double-star"]
    return form, argv


@settings(max_examples=300, deadline=None)
@given(cli_runs())
@example(run_spec=("line", ["witness", "--space", "SPACE", "--r", "1e-300", "--k", "2",
                            "--p", "2", "--q", "1e308"]))
def test_cli_fuzz_exits_zero_one_or_two(small_spaces, run_spec):
    form, argv = run_spec
    space, fn = small_spaces[form]
    argv = [{"SPACE": space, "FN": fn}.get(arg, arg) for arg in argv]
    code, err = _dispatch_quietly(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


_SCALARS = st.sampled_from([0, 1, 2, 3, -1, 0.5, 2.7, 3.0, 1e308, -1e308, 1e-320, math.inf,
                            -math.inf, math.nan, True, False, None, "x", 10 ** 30])
# Sizes are tiny or so large that no allocation is ever attempted in earnest.
_SIZES = st.one_of(st.integers(0, 5), st.sampled_from(
    [-3, 2.7, 3.0, True, math.inf, -math.inf, math.nan, 1e12, 1e20, 10 ** 30, "3", None, [3]]))
_ANY_NESTING = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
# True one time in ten, where st.integers would favour its bounds.
_RARELY = st.sampled_from([False] * 9 + [True])


def _array(draw, shape, entries):
    """A nested list of the given shape, or now and then of any nesting."""
    if draw(_RARELY):
        return draw(_ANY_NESTING)
    flat = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))

    def nest(flat, shape):
        size = math.prod(shape[1:])
        return flat if len(shape) == 1 else [nest(flat[i * size:(i + 1) * size], shape[1:])
                                             for i in range(shape[0])]
    return nest(flat, shape)


@st.composite
def json_inputs(draw):
    """(space JSON, function JSON) of every space kind, with fields that
    can be huge, negative, non-integral, boolean, NaN/inf, empty, wrongly
    nested or missing, and a value list as long as the space or not."""
    n = draw(st.integers(0, 5))
    entries = draw(st.sampled_from([st.sampled_from([0, 0.5, 1, 2.7]), _SCALARS]))
    kind = "nope" if draw(_RARELY) else draw(st.sampled_from(["matrix", "cloud", "lattice",
                                                               "graph"]))
    space = {"kind": kind}
    if kind == "matrix":
        space["dist"] = (_array(draw, (n, n), entries) if draw(st.booleans())
                         else [[abs(i - j) for j in range(n)] for i in range(n)])
    elif kind == "cloud":
        space["coords"] = _array(draw, (n, draw(st.integers(0, 3))), entries)
        space["metric"] = draw(st.sampled_from(["euclidean", "l1", "linf", "l7", 5]))
    elif kind == "lattice":
        space["L"] = draw(st.one_of(st.just(n - 1), _SIZES))
    elif kind == "graph":
        space["n"] = draw(st.one_of(st.just(n), _SIZES))
        space["edges"] = (_array(draw, (draw(st.integers(0, 4)), 3),
                                 st.one_of(st.integers(-1, 5), entries))
                          if draw(st.booleans()) else [[i, i + 1, 1.5] for i in range(n - 1)])
    if draw(st.booleans()):
        space["weights"] = _array(draw, (n,), entries)
    if draw(_RARELY):
        space.pop(draw(st.sampled_from(sorted(space))))
    if draw(_RARELY):
        space = [space]
    values = _array(draw, (draw(st.sampled_from([n, n, n + 1])),), entries)
    function = draw(st.sampled_from([{"values": values}] * 3 + [{"vals": values}, values]))
    return space, function


_JSON_COMMANDS = [
    ["build-space"],
    ["norm", "--fn", "FN", "--p", "2", "--q", "2"],
    ["rearrange", "--fn", "FN"],
    ["avg", "--fn", "FN", "--r", "1"],
    ["verify", "--lemma", "distribution", "--fn", "FN", "--r", "1", "--p", "2", "--q", "2"],
    ["verify", "--lemma", "equicontinuity", "--fn", "FN", "--r", "1", "--p", "2", "--q", "2"],
    ["verify", "--lemma", "rearrange", "--fn", "FN", "--r", "1", "--p", "2", "--q", "2"],
    ["verify", "--lemma", "operator-bound", "--fn", "FN", "--r", "1", "--p", "3", "--q", "2"],
    ["verify", "--lemma", "operator-bound", "--variant", "double-star", "--fn", "FN", "--r", "1",
     "--p", "3", "--q", "1.5"],
    ["witness", "--r", "1", "--k", "3", "--p", "2", "--q", "2"],
    ["approx", "--fn", "FN", "--epsilon", "0.5", "--p", "2", "--q", "3"],
]


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


@settings(max_examples=200, deadline=None)
@given(json_inputs(), st.sampled_from(_JSON_COMMANDS))
@example(({"kind": "lattice", "L": math.inf}, {}), ["build-space"])
@example(({"kind": "graph", "n": math.inf, "edges": []}, {}), ["build-space"])
@example(({"kind": "graph", "n": 1e20, "edges": []}, {}), ["build-space"])
@example(({"kind": "lattice", "L": 1e20}, {}), ["build-space"])
@example(({"kind": "graph", "n": -3, "edges": []}, {}), ["build-space"])
@example(({"kind": "lattice", "L": 2.7}, {}), ["build-space"])
@example(({"kind": "lattice", "L": True}, {}), ["build-space"])
@example(({"kind": "graph", "n": 2, "edges": [[0, 1.5, 1]]}, {}), ["build-space"])
@example(({"kind": "cloud", "coords": []}, {}), ["build-space"])
@example(({"kind": "cloud", "coords": [[]]}, {}), ["build-space"])
@example(({"kind": "cloud", "coords": [[0, -1e308], [0, 1e308]]}, {"values": [1, 2]}),
         ["avg", "--fn", "FN", "--r", "1"])
@example(({"kind": "matrix", "dist": [[0]], "weights": [1e-320]}, {"values": [0]}),
         _JSON_COMMANDS[-1])
@example(({"kind": "matrix", "dist": [[0, 1], [1, 0]], "weights": [1e308, 1e308]},
          {"values": [1, 2]}), ["avg", "--fn", "FN", "--r", "5"])
def test_cli_json_fuzz_exits_zero_one_or_two(json_dir, inputs, command):
    """Whatever the space and function files hold, a run ends in 0, 1 or 2,
    an exit 2 says why on an `error:` line, and nothing ends in a traceback."""
    paths = {"SPACE": json_dir / "space.json", "FN": json_dir / "fn.json"}
    for path, payload in zip(paths.values(), inputs):
        path.write_text(json.dumps(payload))
    argv = [command[0], "--space", "SPACE", *command[1:]]
    code, err = _dispatch_quietly([str(paths.get(arg, arg)) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert code != 2 or err.startswith("error:")


_JSON_TEXT = st.lists(st.one_of(st.sampled_from([", ", ",", "\n", '"', "\\", "é", "∞", "😀"]),
                                st.characters()), max_size=4).map("".join)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e-7, 1e16, 0.1, 1.0]),
    _JSON_TEXT)
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.lists(_JSON_SCALARS, max_size=5),
                            st.dictionaries(_JSON_TEXT, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_JSON_PAYLOADS)
def test_streamed_json_is_byte_identical_to_json_dumps(tmp_path_factory, obj):
    """The emitter writes exactly json.dumps(obj, indent=2, sort_keys=True)
    and a newline, to stdout and to --out alike."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(obj, None)
    assert out.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    path = tmp_path_factory.mktemp("emit") / "out.json"
    _emit_json(obj, str(path))
    assert path.read_bytes() == out.getvalue().encode()


def _traced_peak_mb(fn, *args) -> float:
    """Peak of the memory tracemalloc sees while fn(*args) runs, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _sweep_like_space(n=400):
    """A validated matrix space of n points in a 10 x 10 square."""
    coords = np.random.default_rng(5).uniform(0.0, 10.0, (n, 2))
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    dist = np.maximum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return loravg.build_space({"kind": "matrix", "dist": dist.tolist()})


def test_emit_json_streams_in_bounded_memory(tmp_path):
    """json.dumps with indent holds every piece of a 400 x 400 document
    (16 MB traced); the streamed emitter holds about one row."""
    payload = _sweep_like_space().to_json()
    with open(tmp_path / "out.json", "w") as sink, contextlib.redirect_stdout(sink):
        assert _traced_peak_mb(_emit_json, payload, None) < 1.0


def test_build_space_emits_the_matrix_a_row_at_a_time(tmp_path, monkeypatch):
    """Beyond the space it built, the build-space handler holds about one
    row of the 400 x 400 matrix as Python floats; the matrix's .tolist()
    alone took about 5 MB."""
    sp = _sweep_like_space()
    monkeypatch.setattr("loravg.cli._space_from_args", lambda args: sp)
    args = argparse.Namespace(space="unused", out=None)
    with open(tmp_path / "out.json", "w") as sink, contextlib.redirect_stdout(sink):
        assert _traced_peak_mb(_cmd_build_space, args) < 1.0


_ARRAY_FLOATS = st.one_of(st.floats(),
                          st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e16, 1e-7]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(0,), (2, 0), (3, 4)]).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_ARRAY_FLOATS)))
@example(np.array([[-0.0, math.nan, math.inf, -math.inf], [1e16, 1e-7, 0.1, 1.0],
                   [2.5, -3.0, 5e-324, 1.7976931348623157e308]]))
def test_streamed_arrays_are_byte_identical_to_their_lists(arr):
    """The emitter writes a numpy array, alone or inside a report, as
    json.dumps(..., indent=2, sort_keys=True) writes its .tolist()."""
    listed = arr.tolist()
    for obj, expected in ((arr, listed),
                          ({"b": [arr, 1.5], "a": arr}, {"b": [listed, 1.5], "a": listed})):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit_json(obj, None)
        assert out.getvalue() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_equicontinuity_check_runs_in_bounded_memory():
    """The bound in row blocks: 8 trials on 400 atoms stay under 3 MB
    traced, where the n x n bound and its n x n x n product took 6.3 MB."""
    sp = _sweep_like_space()
    spec = loravg.NormSpec(2, 2)
    fs = sample_unit_sphere(sp, spec, 8, 3)
    sp.ball_measures(1.0)  # memoized on the space, like its distance matrix
    assert _traced_peak_mb(_verify_equicontinuity, sp, fs, 1.0, spec) < 3.0


def test_witness_sequence_at_scale_runs_in_bounded_memory():
    """500 witnesses on lattice(20000) at r = 1 stay under 10 MB traced:
    bumps and images are kept on their supports, where dense bumps, images
    and their differences would hold 4 x 500 x 20,001 floats (320 MB)."""
    sp = loravg.MetricMeasureSpace.lattice(20000)
    spec = loravg.NormSpec(2, 2)
    reports = []
    peak = _traced_peak_mb(lambda: reports.append(loravg.witness_sequence(sp, 1.0, 500, spec)))
    rep, = reports
    assert len(rep.centers) == 500 and rep.distances.shape == (500, 500)
    assert rep.min_pairwise >= rep.c_lower
    assert peak < 10.0


def test_line_space_equicontinuity_fits_without_a_distance_matrix(tmp_path):
    """On a 1-D cloud of 8,000 atoms the dense bound needs more than 1.5 GB;
    in row blocks of run sums the check exits 0 under a 1 GiB cap."""
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(11)
    n = 8000
    space = tmp_path / "line.json"
    space.write_text(json.dumps({"kind": "cloud", "metric": "l1",
                                 "coords": rng.uniform(0, 2000, (n, 1)).tolist(),
                                 "weights": rng.uniform(0.2, 3.0, n).tolist()}))
    env = fresh_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    res = subprocess.run([sys.executable, "-m", "loravg.cli", "verify", "--lemma",
                          "equicontinuity", "--space", str(space), "--r", "5", "--p", "3",
                          "--q", "2", "--seed", "1", "--trials", "1"],
                         capture_output=True, text=True, timeout=120, env=env,
                         preexec_fn=cap_memory)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["pass"] is True and len(report["checks"]) == 1
