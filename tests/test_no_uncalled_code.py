"""Every function, class, method and instance attribute in src/frenet/ has a reader outside the tests.

A definition counts as called when its name is read somewhere in src/frenet/
outside its own body, or anywhere in perfbench/, whose tracer also names the
ops it wraps as strings.
An attribute that a class sets on ``self`` counts as read when an attribute
of its name is loaded somewhere in src/frenet/ or perfbench/, or a perfbench/
string names it. Names are matched without their module or class, so a
method or attribute shares its readers with every other of the same name.

The package's __init__.py is its docstring alone: a re-export would count as
a reader, and would give a name a second import path.
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
        tree = _parse(path)
        reads += _reads(tree)
        defined += [(f"{path.stem}.{d.name}", d) for d in _definitions(tree)]
    uncalled = [q for q, d in defined if reads[d.name] == _reads(d)[d.name] and d.name not in ALLOWED]
    assert not uncalled, f"defined in src/frenet/, called only by tests or nothing: {uncalled}"
    stale = set(ALLOWED) - {d.name for _, d in defined}
    assert not stale, f"allowed but not defined: {sorted(stale)}"


def test_the_package_init_is_its_docstring_alone():
    # `from .train import train` there made `frenet.train` the function, not the module
    tree = _parse(ROOT / "src" / "frenet" / "__init__.py")
    assert ast.get_docstring(tree, clean=False) is not None
    assert len(tree.body) == 1, [ast.unparse(node) for node in tree.body[1:]]


def _attribute_loads(tree: ast.AST, strings: bool = False) -> set[str]:
    """Attribute names loaded in ``tree``, and its string constants if asked."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _self_attributes(tree: ast.Module):
    """(class, attribute) for each ``self.<attribute> = ...`` in a method of a module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    yield cls.name, node.attr


def test_every_instance_attribute_is_read_outside_the_tests():
    reads: set[str] = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reads |= _attribute_loads(_parse(path), strings=True)
    set_on_self = set()
    for path in sorted((ROOT / "src" / "frenet").glob("*.py")):
        tree = _parse(path)
        reads |= _attribute_loads(tree)
        set_on_self |= {f"{path.stem}.{cls}.{attr}" for cls, attr in _self_attributes(tree)}
    unread = sorted(q for q in set_on_self if q.rsplit(".", 1)[1] not in reads)
    assert not unread, f"set on self in src/frenet/, read only by tests or nothing: {unread}"
