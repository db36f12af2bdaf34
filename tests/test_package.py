import ast
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
