"""Checks on the package source itself."""

import ast
import re
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


def test_only_ratlin_imports_lcm():
    # denominators are cleared in one place, ratlin.clear_denominators
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        and any(a.name == "lcm" for a in node.names) and path.name != "ratlin.py"
    ]
    assert found == []


def test_src_reads_no_file_whole():
    # the readers stream their files line by line; a whole-file read holds
    # a second copy of every row while the rows are parsed
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("read", "readlines", "read_text", "read_bytes")
    ]
    assert found == []


TIER_NAMES = {"FULL_SYMMETRIC", "ALTERNATING", "TRANSITIVE_ONLY", "NONE"}
# the certificate names a tier, scan_plan turns it into what the scans may
# do, and the scan gate asks only whether any tier was certified
TIER_READERS = {
    "symmetry.py:verify_symmetric_group_invariance",
    "layers.py:scan_plan",
    "layers.py:scan_down",
}


def tier_reads(node, tiers, where=""):
    """(function, line) for every read of a tier name, and every comparison
    with a tier's string, below ``node``; ``where`` is the enclosing
    top-level function."""
    for child in ast.iter_child_nodes(node):
        inside = child.name if not where and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id in TIER_NAMES:
            yield inside, child.lineno
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load) and child.attr in TIER_NAMES:
            yield inside, child.lineno
        elif isinstance(child, ast.Compare):
            if any(isinstance(c, ast.Constant) and c.value in tiers for c in ast.walk(child)):
                yield inside, child.lineno
        yield from tier_reads(child, tiers, inside)


def test_tiers_are_read_only_by_the_certificate_and_the_scan_plan():
    from symilp import symmetry

    tiers = {getattr(symmetry, name) for name in TIER_NAMES}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for where, line in tier_reads(ast.parse(path.read_text(), filename=str(path)), tiers):
            if f"{path.name}:{where}" not in TIER_READERS:
                found.append(f"{path.name}:{line} ({where or 'module'})")
    assert found == []


def test_cli_names_no_refusal():
    # main reports every errors.Refused with exit 4; a subclass named in the
    # CLI would be a refusal special-cased there again
    from symilp import errors

    refusals = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.Refused) and cls is not errors.Refused
    }
    assert refusals
    path = SRC / "cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
        else:
            continue
        found += [f"cli.py:{node.lineno} {name}" for name in names if name in refusals]
    assert found == []


def perfbench_tracing():
    """perfbench/tracing.py, loaded once every symilp module is imported, so
    that its Tracer finds each boundary at every name it is looked up by."""
    import importlib
    import importlib.util

    for path in sorted(SRC.glob("*.py")):
        importlib.import_module("symilp" if path.stem == "__init__" else f"symilp.{path.stem}")
    tracing_py = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing_py)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_boundary_exists():
    # perfbench reads a boundary whose function is renamed or removed as
    # null, so a metric would silently drop out of the benchmark
    assert perfbench_tracing().Tracer().missing == set()


def test_every_counter_reads_its_boundary(tmp_path, ex61):
    # a counter that fails on its boundary's arguments or result also reads
    # null: call each counted boundary once, with the tracer installed
    from symilp import layers, model, reduction, symdetect
    from symilp.symmetry import GroupSpec, full_cycle

    tracing = perfbench_tracing()
    path = tmp_path / "ex61.ilp"
    model.write_instance(ex61, path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inst = model.read_instance(path)
        symdetect.build_full_graph(inst)
        symdetect.build_reduced_graph(inst)
        symdetect.detect(inst, "reduced")
        reduction.orbit_sum_rows(inst, GroupSpec(3, (full_cycle(3),)))
        layers.enumeration_oracle(layers.scan_plan(inst), 3)
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    assert set(tracing.COUNTERS) <= {name for name, *_ in tracer.spans}
    assert set().union(*tracer.counts) == {k for keys, _ in tracing.COUNTERS.values() for k in keys}


# what the scans share: the row classes, the certificate and the scan plan
SCAN_NAMES = {
    "row_classes",
    "_classes",
    "classes_admit",
    "scan_plan",
    "verify_symmetric_group_invariance",
    "layers",
    "corepoint",
    "symmetry",
    "symdetect",
}


def test_brute_force_shares_nothing_with_the_scans():
    # brute force is the oracle the scans are checked against, so it reads
    # only the box and the rows
    path = SRC / "model.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    oracle = {"brute_force_ilp", "explicit_box"}
    funcs = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in oracle]
    assert {f.name for f in funcs} == oracle
    found = []
    for func in funcs:
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [part for a in node.names for part in a.name.split(".")]
            else:
                continue
            found += [f"{func.name}:{node.lineno} {name}" for name in names if name in SCAN_NAMES]
    assert found == []


# speed bought from the interpreter instead of the code: a stopped or frozen
# cyclic collector (gc.disable, gc.freeze) or a lifted recursion limit; a
# word search also catches ``from gc import disable`` and aliased modules
INTERPRETER_SWITCHES = re.compile(r"\b(disable|freeze|setrecursionlimit)\b")


def test_src_leaves_the_collector_and_the_recursion_limit_alone():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    found = [
        f"{path.name}:{number}"
        for path in sources
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if INTERPRETER_SWITCHES.search(line)
    ]
    assert found == []


# a public name no reader needs yet, with the ROADMAP item that gives it one
EXPORTS_AWAITING_A_READER = {}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(tree, attributes=False):
    """Every name a tree reads: names, attributes, imported names, and the
    dotted parts of string constants (perfbench looks boundaries up by
    string).  With ``attributes``, only attributes and the parts of dotted
    strings, the ways a method is read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not attributes:
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and not attributes:
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 or not attributes:
                yield from parts


def reads_outside_own_definition(stmt, attributes=False):
    """The names a top-level statement reads, less each definition's reads
    of its own name: a function's or method's inside itself, a class's
    inside its body."""
    own = getattr(stmt, "name", None)
    if not isinstance(stmt, ast.ClassDef):
        yield from (name for name in names_read(stmt, attributes) if name != own)
        return
    for part in [*stmt.decorator_list, *stmt.bases, *stmt.keywords]:
        yield from names_read(part, attributes)
    for item in stmt.body:
        own_names = (own, getattr(item, "name", None))
        yield from (name for name in names_read(item, attributes) if name not in own_names)


def test_every_export_has_a_reader():
    # every public top-level function and class of src, every public method
    # of a public class, and every public method of a private class with no
    # base class (whose methods no base class calls) is read by name outside
    # its own definition: in src, in perfbench or in the acceptance tests.
    # A method is read only as an attribute.  A helper only the unit tests
    # call belongs in tests/testkit.py.
    root = SRC.parent.parent
    public, methods, read, attributes = set(), set(), set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_"):
                public.add(stmt.name)
            if isinstance(stmt, ast.ClassDef) and (not stmt.name.startswith("_") or not stmt.bases):
                methods.update(f"{stmt.name}.{item.name}" for item in stmt.body
                               if isinstance(item, DEFINITIONS) and not item.name.startswith("_"))
            if path.name == "__init__.py":  # re-exports are not reads
                continue
            read.update(reads_outside_own_definition(stmt))
            attributes.update(reads_outside_own_definition(stmt, attributes=True))
    for path in [*sorted((root / "perfbench").glob("*.py")), root / "tests" / "test_acceptance.py"]:
        tree = ast.parse(path.read_text(), filename=str(path))
        read.update(names_read(tree))
        attributes.update(names_read(tree, attributes=True))
    unread = {name for name in public if name not in read}
    unread |= {name for name in methods if name.rpartition(".")[2] not in attributes}
    assert unread == set(EXPORTS_AWAITING_A_READER)


# a default that every caller leaves, or every caller sets, is one more
# configuration for the tests to cover with no caller that needs it.
# ``trace`` is the per-stage report, which the CLI sets and the benchmark
# leaves; ``name`` is a label
DEFAULTS_EXEMPT = {"trace", "name"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defaulted_parameters():
    """(callee name, where, parameter, position) for every parameter with
    a default of a public function, public method or public class
    constructor in src; the position counts no self or cls, and is None
    for a keyword-only parameter.  A class without ``__init__`` (a
    dataclass or NamedTuple) takes its annotated fields."""
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, FUNCTIONS) and not stmt.name.startswith("_"):
                yield from signature_defaults(stmt.name, f"{path.name}:{stmt.name}", stmt)
            if not isinstance(stmt, ast.ClassDef):
                continue
            inits = [item for item in stmt.body if isinstance(item, FUNCTIONS) and item.name == "__init__"]
            if not stmt.name.startswith("_"):
                where = f"{path.name}:{stmt.name}"
                if inits:
                    yield from signature_defaults(stmt.name, where, inits[0], bound=True)
                else:
                    fields = [s for s in stmt.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    yield from (
                        (stmt.name, where, s.target.id, i) for i, s in enumerate(fields) if s.value is not None
                    )
            for item in stmt.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    where = f"{path.name}:{stmt.name}.{item.name}"
                    yield from signature_defaults(item.name, where, item, bound=not static)


def signature_defaults(callee, where, func, bound=False):
    a = func.args
    positional = (a.posonlyargs + a.args)[bound:]
    first = len(positional) - len(a.defaults)
    yield from ((callee, where, p.arg, i) for i, p in enumerate(positional[first:], first))
    yield from ((callee, where, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)


def calls_made(tree):
    """(callee name, positional argument count, keyword names) for every
    call below ``tree`` whose arguments can be counted; ``partial(f, ...)``
    is a call of f."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        callee = getattr(func, "id", getattr(func, "attr", None))
        if callee == "partial" and args:
            func, args = args[0], args[1:]
            callee = getattr(func, "id", getattr(func, "attr", None))
        if callee is None or any(isinstance(x, ast.Starred) for x in args):
            continue
        if any(k.arg is None for k in node.keywords):  # a ** mapping
            continue
        yield callee, len(args), {k.arg for k in node.keywords}


def test_every_default_is_left_and_set_by_callers():
    # some call in src, perfbench or the acceptance tests leaves each
    # default, and another sets it: otherwise the parameter is a constant
    # or a required argument.  The unit tests do not count as callers
    root = SRC.parent.parent
    paths = [*sorted(SRC.glob("*.py")), *sorted((root / "perfbench").glob("*.py"))]
    paths.append(root / "tests" / "test_acceptance.py")
    calls = [call for path in paths for call in calls_made(ast.parse(path.read_text(), filename=str(path)))]
    found = []
    for callee, where, param, position in defaulted_parameters():
        if param in DEFAULTS_EXEMPT:
            continue
        sets = [
            param in keywords or position is not None and position < count
            for name, count, keywords in calls
            if name == callee
        ]
        if not (any(sets) and not all(sets)):
            found.append(f"{where}({param})")
    assert found == []


def test_the_exact_kernels_use_no_true_division_or_float():
    # the simplex, the readers and checks, the layer boxes and the core
    # point scan compute in ints and Fractions only: a "/" on two ints or a
    # float would make a result inexact
    found = []
    for name in ("lpcore.py", "model.py", "layers.py", "corepoint.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Constant) and isinstance(node.value, float)
            ):
                found.append(f"{name}:{node.lineno}")
    assert found == []
