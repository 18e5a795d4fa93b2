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

A function that returns a fixed-length tuple has each position read by some
caller in src/frenet/, matched by name as above. Unpacking reads every
position not bound to ``_``, a subscript ``[k]`` reads position k, and any
other use, a bare reference or a property read among them, reads them all.
perfbench/ only hands restore_network's result back to the cli, so it is left out.

A parameter with a default is passed by some call in src/frenet/ or
perfbench/, by position, by keyword or through ``*``/``**`` unpacking;
functions and methods are matched by name as above, and an ``__init__`` by its
class's name. A bare reference to the name, or a perfbench/ string naming it,
passes every parameter.
"""

import ast
from collections import Counter, defaultdict
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _tuple_length(func: ast.FunctionDef) -> int | None:
    """n when every return of ``func``'s own body is an n-tuple display, else None."""
    lengths, stack = set(), list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            value = node.value
            fixed = isinstance(value, ast.Tuple) and not any(isinstance(e, ast.Starred) for e in value.elts)
            lengths.add(len(value.elts) if fixed else None)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return lengths.pop() if len(lengths) == 1 else None


def _positions_read(ref: ast.AST, parents: dict) -> set[int] | None:
    """The tuple positions a use of a function reads; None for every position."""
    call = parents[ref]
    if not (isinstance(call, ast.Call) and call.func is ref):
        return None
    use = parents[call]
    if (isinstance(use, ast.Assign) and len(use.targets) == 1 and isinstance(use.targets[0], (ast.Tuple, ast.List))
            and not any(isinstance(e, ast.Starred) for e in use.targets[0].elts)):
        return {i for i, e in enumerate(use.targets[0].elts) if not (isinstance(e, ast.Name) and e.id == "_")}
    if isinstance(use, ast.Subscript) and isinstance(use.slice, ast.Constant) and isinstance(use.slice.value, int):
        return {use.slice.value}
    return None


def test_every_returned_position_is_read():
    returns, reads = {}, defaultdict(list)
    trees = [(path, _parse(path)) for path in sorted((ROOT / "src" / "frenet").glob("*.py"))]
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__"):
                if (n := _tuple_length(node)) is not None:
                    returns[f"{path.stem}.{node.name}"] = node.name, n
    names = {name for name, _ in returns.values()}
    for _, tree in trees:
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in names and isinstance(node.ctx, ast.Load):
                reads[name].append(_positions_read(node, parents))
    unread = []
    for q, (name, n) in returns.items():
        read = set(range(n)) if None in reads[name] else {k % n for ks in reads[name] for k in ks}
        unread += [f"{q}[{k}]" for k in range(n) if k not in read]
    assert returns, "no function returning a tuple found"
    assert not unread, f"returned by a function in src/frenet/, read by no caller there: {unread}"


def _defaulted_parameters(tree: ast.Module):
    """(name its callers use, function, the parameters a call's positional arguments bind
    in order) for each module-level function and method but the dunders other than __init__."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, [*node.args.posonlyargs, *node.args.args]
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name.startswith("__") and item.name != "__init__":
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                positional = [*item.args.posonlyargs, *item.args.args][0 if static else 1 :]
                yield node.name if item.name == "__init__" else item.name, item, positional


def test_every_defaulted_parameter_is_passed():
    everything = object()
    passed: dict[str, set] = defaultdict(set)  # name -> positions and keywords passed, or everything
    for path in sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "src" / "frenet").glob("*.py")):
        tree = _parse(path)
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if path.parent.name == "perfbench" and isinstance(node, ast.Constant) and isinstance(node.value, str):
                passed[node.value].add(everything)
            if not (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)):
                continue
            name, call = node.id if isinstance(node, ast.Name) else node.attr, parents.get(node)
            if isinstance(call, (ast.Dict, ast.List, ast.Tuple, ast.Set)):
                continue  # a table of callables passes nothing: its calls are counted where made
            bare = not (isinstance(call, ast.Call) and call.func is node)
            if bare or any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                passed[name].add(everything)
            else:
                passed[name] |= set(range(len(call.args))) | {k.arg for k in call.keywords}
    unpassed = []
    for path in sorted((ROOT / "src" / "frenet").glob("*.py")):
        for name, func, positional in _defaulted_parameters(_parse(path)):
            args = func.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            got = passed[name]
            unpassed += [f"{path.stem}.{func.name}({arg})" for i, arg in defaulted
                         if everything not in got and i not in got and arg not in got]
    assert not unpassed, f"defaulted in src/frenet/, passed by no caller there or in perfbench/: {unpassed}"
