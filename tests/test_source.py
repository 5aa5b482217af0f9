"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symilp"


def test_no_assert_statements_in_src():
    # result guards raise SymilpError; python -O would strip an assert
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def public_parameters():
    """(file:function, parameter name) for every public function in src."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            yield from ((f"{path.name}:{node.name}", p.arg) for p in params)


def test_public_functions_take_no_private_parameters():
    # a "_name" parameter on a public function is a back door around the
    # solve pipeline; stages report through ``trace`` instead
    found = [f"{where}({name})" for where, name in public_parameters() if name.startswith("_")]
    assert found == []


def test_public_functions_take_no_trust_switch():
    # an "assume..." parameter skips the symmetry certificate, and the scans
    # are exact only under the group it certifies
    found = [f"{where}({name})" for where, name in public_parameters() if name.startswith("assume")]
    assert found == []


def test_symmetry_does_not_import_symdetect():
    # symdetect builds on symmetry; detection is the layer scan's fallback,
    # never part of the generator certificate
    path = SRC / "symmetry.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        if any("symdetect" in name.split(".") for name in names):
            found.append(node.lineno)
    assert found == []


def test_layers_imports_nothing_private_from_lpcore():
    # the layer boxes solve their LPs through the public entry points
    path = SRC / "layers.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "lpcore":
            found += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "lpcore" and node.attr.startswith("_"):
                found.append(node.attr)
    assert found == []
