"""Package-wide checks on the library source and the CI workflow that runs its tests."""

import ast
import re
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


def test_fft_uses_only_the_public_kernels():
    # the limb format and the tiling stay behind these names, so a change to either touches kernels alone
    public = {"mul_mod", "ring_mul_batch", "multiplication_maps", "power_table", "matmul_mod", "block_matmul_mod",
              "supports_modulus", "to_digits", "from_digits", "prepare"}
    tree = ast.parse((SRC / "fft.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "kernels"}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module and node.module.endswith("kernels")
                for alias in node.names}
    assert "block_matmul_mod" in used
    assert used | imported <= public


def test_workflow_names_existing_tests():
    # a step that names a test file or node id runs nothing, and fails only on the CI host, once it is renamed
    root = Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    named = re.findall(r"\b(tests/\w+\.py)(?:::(\w+))?", workflow)
    assert named
    missing = []
    for path, name in named:
        if not (root / path).is_file():
            missing.append(path)
            continue
        tree = ast.parse((root / path).read_text())
        if name and not any(isinstance(fn, ast.FunctionDef) and fn.name == name for fn in tree.body):
            missing.append(f"{path}::{name}")
    assert missing == []
