import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import loravg


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


def test_bench_span_table_names_resolve():
    """Every name that bench/spans.py wraps by string still exists, so a
    rename or deletion in src/ fails here, not in `bench/run.py --trace 1`;
    and the wrappers it installs are all taken out again."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals, missing = {}, []
    for entries in spans.LAYERS.values():
        for module_name, functions, classes in entries:
            module = importlib.import_module(f"loravg.{module_name}")
            owners = {module_name: (module, functions)}
            owners.update({f"{module_name}.{cls}": (getattr(module, cls, None), methods)
                           for cls, methods in classes.items()})
            for label, (owner, names) in owners.items():
                for name in names:
                    if owner is None or name not in vars(owner):
                        missing.append(f"{label}.{name}")
                    else:
                        originals[f"{label}.{name}"] = (owner, name, vars(owner)[name])
    assert missing == []
    restore = spans.Tracer().install()
    restore()
    assert [q for q, (owner, name, raw) in originals.items()
            if vars(owner)[name] is not raw] == []


_LAZY_GUARD = """
import json, sys
import loravg

def loaded():
    return sorted(m for m in sys.modules if m.startswith("loravg."))

report = {"on_import": loaded()}
loravg.build_space({"kind": "matrix", "dist": [[0, 1], [1, 0]]})
report["after_build_space"] = loaded()
report["unresolved"] = [name for name in loravg.__all__ if not hasattr(loravg, name)]
report["not_in_dir"] = sorted(set(loravg.__all__) - set(dir(loravg)))
try:
    loravg.no_such_name
except AttributeError:
    report["unknown"] = "AttributeError"
print(json.dumps(report))
"""

_BUILD_SPACE_GUARD = """
import json, sys
from loravg.cli import main
code = main(["build-space", "--space", sys.argv[1]])
print(json.dumps([code, "hashlib" in sys.modules, "loravg.compactness" in sys.modules]),
      file=sys.stderr)
"""


def _run_fresh(code: str, *args) -> subprocess.CompletedProcess:
    src = str(Path(loravg.__file__).resolve().parent.parent)
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         timeout=120, env={"PYTHONPATH": src, "PATH": ""})
    assert res.returncode == 0, res.stderr
    return res


def test_package_names_are_lazy():
    """`import loravg` loads no submodule and `build_space` only the two it
    needs; every public name still resolves, and an unknown one is an
    AttributeError."""
    report = json.loads(_run_fresh(_LAZY_GUARD).stdout)
    assert report == {"on_import": [], "after_build_space": ["loravg.errors", "loravg.space"],
                      "unresolved": [], "not_in_dir": [], "unknown": "AttributeError"}


def test_build_space_imports_only_what_it_runs(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"kind": "matrix", "dist": [[0, 1], [1, 0]]}))
    res = _run_fresh(_BUILD_SPACE_GUARD, str(space))
    assert json.loads(res.stderr.strip().splitlines()[-1]) == [0, False, False]
