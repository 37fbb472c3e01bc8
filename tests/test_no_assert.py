"""No library invariant rests on ``assert``, which ``python -O`` strips.

The ``python -O`` run of the suite sees only the asserts on paths the tests
take, and only where stripping one changes an outcome; this check reads
every module's syntax tree, so it covers every path.
"""

import ast
from pathlib import Path

import bcwitt


def test_no_module_uses_assert_or_debug():
    found = []
    for path in sorted(Path(bcwitt.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
