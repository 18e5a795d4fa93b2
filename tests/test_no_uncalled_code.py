"""Every function, class and method in src/frenet/ has a caller outside the tests.

A definition counts as called when its name is read somewhere in src/frenet/
outside its own body and outside the package's re-exports in __init__.py, or
anywhere in perfbench/, whose tracer also names the ops it wraps as strings.
Names are matched without their module or class, so a method shares its
callers with every other definition of the same name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays without a caller in src/frenet/ or perfbench/
ALLOWED: dict[str, str] = {}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and each class's non-dunder methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not item.name.startswith("__"):
                    yield item


def _reads(tree: ast.AST, strings: bool = False) -> Counter:
    """Names read in ``tree``: Name ids and Attribute attrs, and string constants if asked."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    reads = Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reads += _reads(_parse(path), strings=True)
    defined = []
    for path in sorted((ROOT / "src" / "frenet").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        reads += _reads(tree)
        defined += [(f"{path.stem}.{d.name}", d) for d in _definitions(tree)]
    uncalled = [q for q, d in defined if reads[d.name] == _reads(d)[d.name] and d.name not in ALLOWED]
    assert not uncalled, f"defined in src/frenet/, called only by tests or nothing: {uncalled}"
    stale = set(ALLOWED) - {d.name for _, d in defined}
    assert not stale, f"allowed but not defined: {sorted(stale)}"
