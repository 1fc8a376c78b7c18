"""The package imports in one direction: every esqpt import is at module level."""

import ast

from conftest import ROOT


def imports_esqpt(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "esqpt"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "esqpt" for alias in node.names)


def test_no_function_imports_an_esqpt_module():
    found = []
    for path in sorted((ROOT / "src" / "esqpt").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {func.name}"
                          for node in ast.walk(func) if imports_esqpt(node)]
    assert found == []
