"""Layout checks over the source tree: every option pays for itself."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lamelab"
CALLER_DIRS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _defaulted_params(fn: ast.FunctionDef):
    """(positional index or None, name) of each parameter with a default."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    out = [(i, a.arg) for i, a in enumerate(pos) if i >= first]
    out += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _definitions(tree: ast.Module, module: str):
    """(label, name callers use, positional offset, defaulted params, node)
    per function definition with a defaulted parameter; a class's
    ``__init__`` is called by the class name, a method with its first
    parameter bound."""
    out = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                offset = 1 if owner and not static else 0
                name = owner if owner and node.name == "__init__" else node.name
                label = f"{module}.{owner + '.' if owner else ''}{node.name}"
                params = _defaulted_params(node)
                if params:
                    out.append((label, name, offset, params, node))
                visit(node.body, None)

    visit(tree.body, None)
    return out


def _calls(tree: ast.Module):
    """(callee name, call node, enclosing function nodes) for each call."""
    out = []

    def visit(node, enclosing):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is not None:
                out.append((name, node, enclosing))
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing + (node,)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, ())
    return out


def _passes(call: ast.Call, offset: int, index, param: str) -> bool:
    """Whether the call can set the parameter: by keyword, by position
    (``index`` counts a bound first parameter, ``offset``), or through
    ``*args`` / ``**kwargs``."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if index is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or index - offset < len(call.args))


def unset_options():
    """Every defaulted parameter in ``src/lamelab`` that no call in
    ``src/``, ``tests/`` or ``perfbench/`` passes.  A call matches every
    definition of its name (``f(...)``, ``x.f(...)``); a function calling
    itself does not count."""
    trees = {path: ast.parse(path.read_text())
             for d in CALLER_DIRS for path in sorted(d.rglob("*.py"))}
    defs = [d for path in sorted(SRC.glob("*.py")) for d in _definitions(trees[path], path.stem)]
    calls = [c for tree in trees.values() for c in _calls(tree)]
    unset = []
    for label, name, offset, params, node in defs:
        mine = [c for n, c, enclosing in calls if n == name and node not in enclosing]
        unset += [f"{label}({param})" for index, param in params
                  if not any(_passes(c, offset, index, param) for c in mine)]
    return unset


def test_every_option_is_set_by_some_caller():
    unset = unset_options()
    assert not unset, "no caller sets " + ", ".join(unset)
