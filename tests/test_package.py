"""Package-wide checks on the library source."""

import ast
from collections import defaultdict
from pathlib import Path

import padicfft

SRC = Path(padicfft.__file__).parent


def test_every_library_function_has_a_library_caller():
    # a module-level function that only tests call is dead library code
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = defaultdict(set)  # name -> ids of the Name/Attribute nodes that mention it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].add(id(node))
    unused = []
    for module, tree in trees.items():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name not in padicfft.__all__:
                own = {id(node) for node in ast.walk(fn)}  # recursion is not a caller
                if not refs[fn.name] - own:
                    unused.append(f"{module}:{fn.name}")
    assert unused == []
