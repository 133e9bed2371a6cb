"""The README's API sketch runs as written: every name its import statement
lists comes from the package, and every value its comments state holds."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _api_sketch() -> str:
    section = README.read_text().split("## API sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _holds(value, comment: str, previous) -> bool:
    """A comment is a Python literal, a SchurVector repr, a dict literal ending
    in ", ...}" (the value has at least those items), or "the same" (the value
    equals the one on the line above). Any other comment fails to parse."""
    if comment.startswith("the same"):
        return value == previous
    if comment.startswith("s["):
        return repr(value) == comment
    if comment.endswith(", ...}"):
        return ast.literal_eval(comment[:-len(", ...}")] + "}").items() <= value.items()
    return value == ast.literal_eval(comment)


def test_api_sketch_runs():
    lines = _api_sketch().splitlines()
    checks = [line.split("  # ", 1) for line in lines if "  # " in line]
    setup = "\n".join(line for line in lines if "  # " not in line)
    imported = [alias.name for node in ast.walk(ast.parse(setup))
                if isinstance(node, ast.ImportFrom) and node.module == "coxtoric"
                for alias in node.names]
    assert len(imported) >= 10 and len(checks) >= 6

    namespace: dict = {}
    exec(setup, namespace)
    assert all(name in namespace for name in imported)
    previous = None
    for expr, comment in checks:
        value = eval(expr, namespace)
        assert _holds(value, comment.strip(), previous), (expr, value, comment)
        previous = value
