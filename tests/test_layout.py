"""The package holds only what a ``conewidth`` subcommand runs.

Code that only the tests use belongs in ``tests/`` (``tests/oracles.py`` for
reference computations and test-only helpers).  This check parses every
module of ``src/conewidth`` except ``__init__.py`` and requires each
top-level function and class, and each method that is not a dunder, to be
referenced somewhere in those modules outside its own definition: as a name,
an attribute or an import.  ``__init__.py`` holds only the package docstring,
the one-BLAS-thread pin and the version; a re-export there must not count, or
every exported helper would pass.

A second check keeps the form of a trial's data inside ``glm.py``: no other
module reads an instance's ``.design``.  A third keeps the cone kernels'
scratch arrays inside ``geometry.py``: no other module names
``BlockBuffers``.  A fourth holds ``tests/oracles.py`` to the first rule:
each of its top-level functions is referenced from a test module or from
another oracle.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "conewidth"

# cli.py's config writer: the sweep manifest planned in ROADMAP item 1 will
# record the config with it; until then only the config round-trip tests call it.
# solver.py's Frank-Wolfe: no sweep runs it, but acceptance criterion 4 and
# TestFrankWolfe use it as the reference solver, and perfbench/tracing.py wraps
# it by name until ROADMAP item 18 changes the tracer; item 5 then moves it to
# tests/oracles.py.
ALLOWED_UNUSED = {"cli.py:serialize_config", "solver.py:frank_wolfe"}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield member


def _references(tree: ast.Module):
    """``(name, line)`` of every name, attribute and import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_every_definition_in_src_is_used_in_src():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    del modules["__init__.py"]
    references = [
        (module, name, line) for module, tree in modules.items() for name, line in _references(tree)
    ]
    unused = set()
    for module, tree in modules.items():
        for node in _definitions(tree):
            if not any(
                name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
                for where, name, line in references
            ):
                unused.add(f"{module}:{node.name}")
    assert unused - ALLOWED_UNUSED == set(), "used only outside src/ (move to tests/ or delete)"
    # an entry goes once src/ uses the name, so the allowlist cannot go stale
    assert ALLOWED_UNUSED <= unused, "allowlisted but now used in src/"


def test_only_glm_reads_a_design():
    # the solvers and the probe take every oracle from glm, so they run
    # unchanged on a design instance and on a Gram instance
    readers = {
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "glm.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "design"
    }
    assert readers == set()


def test_only_geometry_names_block_buffers():
    # project_batch's projections live in the caller's buffers until its next
    # call, a rule that only geometry's own kernels need to keep
    namers = {
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "geometry.py"
        for name, line in _references(ast.parse(path.read_text(encoding="utf-8")))
        if name == "BlockBuffers"
    }
    assert namers == set()


def test_every_oracle_is_used():
    oracles = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    tests = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(TESTS.glob("test_*.py"))]
    used = {name for tree in tests for name, _ in _references(tree)}
    unused = set()
    for node in oracles.body:
        if isinstance(node, ast.FunctionDef) and node.name not in used and not any(
            name == node.name and not node.lineno <= line <= node.end_lineno for name, line in _references(oracles)
        ):
            unused.add(node.name)
    assert unused == set(), "no test or other oracle uses these (delete them)"
