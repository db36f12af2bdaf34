import ast
import hashlib
import importlib
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loravg
from loravg import DomainError, FunctionOnSpace, MetricMeasureSpace, cli
from loravg.compactness import SupportRows

from conftest import fresh_env


def test_no_assert_statements_in_package():
    """Invariants are explicit errors, because `python -O` strips asserts."""
    offenders = []
    for path in sorted(Path(loravg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_one_json_writer_in_package():
    """Indented JSON comes only from the streaming emitter in cli.py:
    json.dump(s) with indent runs the pure-Python encoder on the whole
    document."""
    offenders = []
    for path in sorted(Path(loravg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "attr", getattr(node.func, "id", None))
                      in ("dump", "dumps")
                      and any(kw.arg == "indent" for kw in node.keywords)]
    assert offenders == []


def _module_at(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_span_table_names_resolve():
    """Every function and method that bench/spans.py wraps by string
    resolves as `Tracer.install` looks it up, getattr on the module and the
    class __dict__ for a method, so a rename or deletion in src/ fails
    here, not in `bench/run.py --trace 1`; and the wrappers it installs
    are all taken out again."""
    spans = _module_at(Path(__file__).resolve().parent.parent / "bench" / "spans.py",
                       "bench_spans")

    def resolved() -> dict:
        """Each name of the span table -> what it resolves to (None if nothing)."""
        out = {}
        for entries in spans.LAYERS.values():
            for module_name, functions, classes in entries:
                module = importlib.import_module(f"loravg.{module_name}")
                out.update({f"{module_name}.{name}": getattr(module, name, None)
                            for name in functions})
                for cls_name, methods in classes.items():
                    members = getattr(getattr(module, cls_name, None), "__dict__", {})
                    out.update({f"{module_name}.{cls_name}.{name}": members.get(name)
                                for name in methods})
        return out

    originals = resolved()
    assert [name for name, raw in originals.items() if raw is None] == []
    restore = spans.Tracer().install()
    assert [name for name, raw in resolved().items() if raw is originals[name]] == []
    restore()
    assert [name for name, raw in resolved().items() if raw is not originals[name]] == []


def test_benchmark_commands_pass_the_oracle(tmp_path, monkeypatch):
    """Every command of both benchmark workloads, at one seed, run as a
    fresh CLI process, passes bench/oracle.py's independent check: an
    output that the benchmark would count as incorrect fails here.  Each
    writes only its wall time on stderr, so a warning that only a fresh
    process prints (the test filter raises it in process) fails too."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    workloads = _module_at(bench / "workloads.py", "workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # oracle.py imports it by name
    oracle = _module_at(bench / "oracle.py", "bench_oracle")
    ran, problems = 0, []
    for name in sorted(workloads.WORKLOADS):
        files = workloads.generate(name, 3, tmp_path / name)
        expected = oracle.expected(name, files, 3)
        for argv in workloads.commands(name, files, 3):
            res = subprocess.run([sys.executable, "-m", "loravg.cli", *argv],
                                 capture_output=True, text=True, timeout=120,
                                 env=fresh_env())
            outcome = oracle.Outcome(argv, res.returncode, res.stdout, res.stderr)
            ran += 1
            problems += [(name, argv, p) for p in oracle.check(name, outcome, expected)]
            if not (res.stderr.startswith("wall_time_s=") and len(res.stderr.splitlines()) == 1):
                problems.append((name, argv, res.stderr))
    assert ran == 9 and problems == []


_LAZY_GUARD = """
import json, sys
import loravg

def loaded():
    return sorted(m for m in sys.modules if m.startswith("loravg."))

report = {"on_import": loaded()}
loravg.build_space({"kind": "matrix", "dist": [[0, 1], [1, 0]]})
report["after_build_space"] = loaded()
report["dataclasses"] = "dataclasses" in sys.modules
report["unresolved"] = [name for name in loravg.__all__ if not hasattr(loravg, name)]
report["not_in_dir"] = sorted(set(loravg.__all__) - set(dir(loravg)))
try:
    loravg.no_such_name
except AttributeError:
    report["unknown"] = "AttributeError"
print(json.dumps(report))
"""

# A fresh process runs one command, its artifact discarded, and reports on
# stderr its exit code, the package modules loaded, and whether OpenSSL's
# _hashlib, numpy.ma, dataclasses and numpy.random were.
_COMMAND_GUARD = """
import contextlib, io, json, sys
from loravg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m[7:] for m in sys.modules if m.startswith("loravg.")),
                  *(name in sys.modules
                    for name in ("_hashlib", "numpy.ma", "dataclasses", "numpy.random"))]),
      file=sys.stderr)
"""

# Every command below loads _records, cli, decode, errors and space; one that
# reads a function or a norm spec also loads norms and rearrange.
_CLI_MODULES = ["_records", "cli", "decode", "errors", "space"]
_NORMS = ["norms", "rearrange"]
_P2_Q2 = ["--p", "2", "--q", "2"]
# name -> (argv, the package modules it loads beyond _CLI_MODULES, whether
# it is seeded).  A seeded run draws from numpy.random, which imports
# hashlib; the command imports it with OpenSSL's _hashlib blocked, so no
# row loads OpenSSL, and the input digests take the built-in SHA-256.
_COMMAND_IMPORTS = {
    "build-space": (["build-space", "--space", "SPACE"], [], False),
    "avg": (["avg", "--space", "SPACE", "--fn", "FN", "--r", "1"], ["averaging", *_NORMS], False),
    "norm": (["norm", "--space", "SPACE", "--fn", "FN", *_P2_Q2], _NORMS, False),
    "witness": (["witness", "--space", "SPACE", "--r", "1", "--k", "3", *_P2_Q2],
                ["averaging", "compactness", *_NORMS], False),
    "approx": (["approx", "--space", "SPACE", "--fn", "FN", "--epsilon", "0.5", *_P2_Q2],
               ["averaging", "compactness", *_NORMS], False),
    "verify --fn": (["verify", "--lemma", "operator-bound", "--space", "SPACE", "--fn", "FN",
                     "--r", "1", *_P2_Q2], ["averaging", *_NORMS], False),
    "verify --seed": (["verify", "--lemma", "distribution", "--space", "SPACE", "--seed", "1",
                       "--trials", "1", "--r", "1", *_P2_Q2], ["averaging", *_NORMS], True),
    "verify rearrange": (["verify", "--lemma", "rearrange", "--space", "SPACE", "--seed", "1",
                          "--r", "1", *_P2_Q2], ["averaging", *_NORMS], True),
    "verify equicontinuity": (["verify", "--lemma", "equicontinuity", "--space", "SPACE",
                               "--seed", "1", "--r", "1", *_P2_Q2],
                              ["averaging", *_NORMS], True),
    "probe": (["probe", "--family", "lattice:4:6:2", "--r", "1", "--epsilon", "0.5", "--n", "3",
               "--seed", "1", *_P2_Q2], ["averaging", "compactness", "svgplot", *_NORMS], True),
}


def _run_fresh(code: str, *args) -> subprocess.CompletedProcess:
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         timeout=120, env=fresh_env())
    assert res.returncode == 0, res.stderr
    return res


def test_package_names_are_lazy():
    """`import loravg` loads no submodule and `build_space` only the four
    it needs, and not dataclasses; every public name still resolves, and an
    unknown one is an AttributeError."""
    report = json.loads(_run_fresh(_LAZY_GUARD).stdout)
    assert report == {"on_import": [],
                      "after_build_space": ["loravg._records", "loravg.decode", "loravg.errors",
                                            "loravg.space"],
                      "dataclasses": False,
                      "unresolved": [], "not_in_dir": [], "unknown": "AttributeError"}


def test_unit_sphere_sampler_resolves_from_the_package_and_compactness():
    """`sample_unit_sphere` lives in averaging, so that `verify --lemma
    equicontinuity` does not load compactness; the package name and
    compactness's name are the same function."""
    assert loravg.sample_unit_sphere.__module__ == "loravg.averaging"
    assert loravg.sample_unit_sphere is loravg.compactness.sample_unit_sphere


def test_commands_import_only_what_they_run(tmp_path):
    """Each command, in a fresh process, exits 0 having loaded the package
    modules of its row in _COMMAND_IMPORTS, numpy.random if and only if the
    row is seeded, and never OpenSSL, numpy.ma, which numpy 2.4's np.unique
    imports, or dataclasses; a mismatch is reported under the command's
    name."""
    files = {"SPACE": tmp_path / "space.json", "FN": tmp_path / "fn.json"}
    files["SPACE"].write_text(json.dumps({"kind": "cloud", "metric": "l1",
                                          "coords": [[float(x)] for x in range(12)]}))
    files["FN"].write_text(json.dumps({"values": [0.5, -1, 2, 0, 1, 1, 3, -2, 0.25, 1, 0, 2]}))
    seen, expected = {}, {}
    for name, (argv, modules, seeded) in _COMMAND_IMPORTS.items():
        argv = [str(files.get(arg, arg)) for arg in argv]
        res = _run_fresh(_COMMAND_GUARD, json.dumps(argv))
        seen[name] = json.loads(res.stderr.strip().splitlines()[-1])
        expected[name] = [0, sorted(_CLI_MODULES + modules), False, False, False, seeded]
    assert seen == expected


# A fresh process runs one command with the space file's reader wrapped, and
# reports on stderr its exit code and, per read, whether numpy was loaded
# once the file had been parsed and its float fields packed.
_DECODE_GUARD = """
import contextlib, io, json, sys
from loravg import cli
load_space, loaded = cli._load_space, []

def spy(path):
    spec = load_space(path)
    loaded.append("numpy" in sys.modules)
    return spec

cli._load_space = spy
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, loaded]), file=sys.stderr)
"""


def test_space_file_is_decoded_before_numpy_loads(tmp_path):
    """numpy's import reuses the memory of the parse only if it comes after
    the float fields are packed: each command reads its space file, a
    matrix here, with numpy not yet loaded."""
    space, fn = tmp_path / "space.json", tmp_path / "fn.json"
    space.write_text(json.dumps({"kind": "matrix", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                                 "weights": [1.0, 0.5, 2.0]}))
    fn.write_text(json.dumps({"values": [0.5, -1, 2]}))
    common = ["--space", str(space), "--r", "1", "--p", "2", "--q", "2"]
    commands = {"build-space": ["build-space", "--space", str(space)],
                "avg": ["avg", "--space", str(space), "--fn", str(fn), "--r", "1"],
                "verify": ["verify", "--lemma", "equicontinuity", "--seed", "1", *common],
                "witness": ["witness", "--k", "2", *common]}
    seen = {name: json.loads(_run_fresh(_DECODE_GUARD, json.dumps(argv))
                             .stderr.strip().splitlines()[-1])
            for name, argv in commands.items()}
    assert seen == {name: [0, [False]] for name in commands}


_DIGEST_SIZES = [0, 1, 65_535, 65_536, 65_537, 3_000_017]


@pytest.mark.parametrize("branch", ["built-in", "hashlib loaded", "fallback"])
def test_digest_is_sha256(tmp_path, monkeypatch, branch):
    """_digest gives hashlib's SHA-256 around its 64 KiB reads, whichever
    constructor it takes: the built-in one while hashlib is not loaded,
    hashlib's once it is, and hashlib's when no built-in module exists."""
    if branch != "hashlib loaded":
        monkeypatch.delitem(sys.modules, "hashlib")
    if branch == "fallback":
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
    sha256 = cli._sha256()
    if branch == "built-in":
        assert sha256.__module__ in ("_sha2", "_sha256") and "hashlib" not in sys.modules
    else:
        assert sha256 is sys.modules["hashlib"].sha256
    rng = random.Random(2401)
    path = tmp_path / "input"
    for size in _DIGEST_SIZES:
        data = rng.randbytes(size)
        path.write_bytes(data)
        assert cli._digest(str(path)) == "sha256:" + hashlib.sha256(data).hexdigest(), size


# Each record class -> its module, its fields in order with a value each, and
# another value of its last field that makes the record unequal (None where
# that comparison would compare arrays, whose == has no truth value).
# "SPACE", "VALUES", "FUNCTION" and "ROWS" stand for a 3-atom space, a
# read-only array of one value per atom, the function of VALUES and one row
# on that space, whose arrays are "ATOMS" and "ROW_VALUES".
_RECORDS = {
    "BoundednessReport": ("space", {"radius": 1.0, "diameter": 2.0, "total_measure": 3.0,
                                    "min_ball_measure": 1.0, "min_ball_ratio": 0.5,
                                    "doubling_r": 2.0, "doubling_2r": 2.0, "doubling_4r": 1.0},
                          3.0),
    "NormSpec": ("norms", {"p": 2.0, "q": 1.5, "variant": "double-star"}, "plain"),
    "HolderConstants": ("norms", {"lam": 1.0, "alpha": 2.0}, 3.0),
    "FunctionOnSpace": ("rearrange", {"space": "SPACE", "values": "VALUES"}, [1.0, 2.0, 3.0]),
    "StepFunction": ("rearrange", {"breakpoints": "VALUES", "levels": "VALUES"}, None),
    "MaximalProfile": ("rearrange", {"breakpoints": "VALUES", "node_values": "VALUES",
                                     "slopes": "VALUES"}, None),
    "AveragingKernel": ("averaging", {"space": "SPACE", "r": 1.0, "ball_measures": "VALUES"},
                        None),
    "DistributionInequalityReport": ("averaging", {"constant_c": 5.0, "gammas": (2.0, 2.0, 1.0),
                                                   "t": 0.5, "lhs": 1.0, "rhs": 2.0,
                                                   "ratio": 0.5, "passed": True}, False),
    "RearrangementBoundReport": ("averaging", {"constant_c": 5.0, "max_ratio": 0.5,
                                               "worst_t": 1.0, "passed": True}, False),
    "OperatorBoundReport": ("averaging", {"constant_c": 5.0, "factor": 10.0, "lhs": 1.0,
                                          "rhs": 2.0, "passed": True}, False),
    "CoveringReport": ("compactness", {"epsilon": 0.5, "n_points": 3, "k": 2,
                                       "net_indices": [0, 2], "max_residual": 0.25}, 0.5),
    "SupportRows": ("compactness", {"space": "SPACE", "atoms": "ATOMS", "values": "ROW_VALUES"},
                    None),
    "WitnessReport": ("compactness", {"centers": [0, 2], "bounded_regime": False,
                                      "c_lower": 0.5, "distances": None, "min_pairwise": 1.0,
                                      "witness_norms": [1.0, 1.0], "bumps": "ROWS",
                                      "image_rows": "ROWS"}, None),
    "SimpleApproximation": ("compactness", {"centers": [0], "radii": [1.0], "coefficients": [1.0],
                                            "function": "FUNCTION", "error": 0.5,
                                            "remainder_norm": 0.25}, 0.5),
    "ProbeRow": ("compactness", {"label": "3", "natoms": 3, "k": 1, "witness_count": 0,
                                 "witness_min": None, "c_lower": 0.5}, 1.0),
}
# Fields with a default, the class arguments __post_init__ refuses, and the
# cached properties that a record computes once.
_DEFAULTS = {"NormSpec": {"variant": "plain"},
             "WitnessReport": {"bumps": None, "image_rows": None}}
_REFUSED = {"NormSpec": [(2, 2, "bad")],
            "FunctionOnSpace": [("SPACE", [1.0, 2.0]), ("SPACE", [1.0, float("nan"), 0.0])]}
_CACHED = {"SupportRows": "_padded_weights", "WitnessReport": "images"}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_record_classes_are_immutable_values(name):
    """Every class the package builds with `_records.record` takes its
    fields by position or keyword in order, fills in its defaults, runs its
    __post_init__, refuses assignment and deletion, compares and hashes as
    its tuple of fields (FunctionOnSpace by its own __eq__), has the repr
    Name(field=value, ...) and keeps a cached property once computed."""
    module, fields, other = _RECORDS[name]
    cls = getattr(importlib.import_module(f"loravg.{module}"), name)
    space = MetricMeasureSpace.lattice(2)
    values = np.array([1.0, -2.0, 0.5])
    values.setflags(write=False)
    rows = SupportRows.pack(space, [np.array([0, 1])], [np.array([1.0, 2.0])])
    stand_ins = {"SPACE": space, "VALUES": values, "ROWS": rows, "ATOMS": rows.atoms,
                 "ROW_VALUES": rows.values, "FUNCTION": FunctionOnSpace(space, values)}

    def fill(value):
        return stand_ins.get(value, value) if isinstance(value, str) else value

    fields = {key: fill(value) for key, value in fields.items()}
    last = list(fields)[-1]

    first, second = cls(*fields.values()), cls(**fields)
    for record in first, second:
        assert [getattr(record, key) for key in fields] == list(fields.values())
        assert all(getattr(record, key) is value for key, value in fields.items())
    defaults = _DEFAULTS.get(name, {})
    required = {key: value for key, value in fields.items() if key not in defaults}
    assert {key: getattr(cls(**required), key) for key in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    for bad in ({**fields, "extra": None}, dict(list(fields.items())[1:])):
        with pytest.raises(TypeError):
            cls(**bad)
    for args in _REFUSED.get(name, []):
        with pytest.raises(DomainError):
            cls(*map(fill, args))

    for key in (last, "extra"):
        with pytest.raises(AttributeError):
            setattr(second, key, None)
        with pytest.raises(AttributeError):
            delattr(second, key)
    assert getattr(second, last) is fields[last] and not hasattr(second, "extra")

    assert first == second and not first != second
    if other is not None:
        assert first != cls(**{**fields, last: other})
    if name == "FunctionOnSpace":
        with pytest.raises(TypeError):
            hash(first)
    else:
        try:
            expected = hash(tuple(fields.values()))
        except TypeError:
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second) == expected
    assert repr(first) == f"{name}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"

    if name in _CACHED:
        cached = getattr(first, _CACHED[name])
        assert getattr(first, _CACHED[name]) is cached and vars(first)[_CACHED[name]] is cached
