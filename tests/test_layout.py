"""Guards on the shape of the package rather than on its numbers.

Every public module-level function and class in ``src/advlab``, and every
public method and property of a public class, must be used by the program:
referenced, as a name or an attribute, somewhere in ``src/advlab`` outside
its own definition, or by the benchmark harness in ``perfbench/``, or by
``pyproject.toml``. Code that only tests call belongs in the tests. The
exceptions are the oracles the tests check the program against. The
benchmark's traced names must also still resolve, so that a rename cannot
silently turn a pinned per-layer metric into "absent".
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "advlab"
PERFBENCH = ROOT / "perfbench"

# test oracles: simple reference versions the program's fast paths are checked against
ORACLES = {"nn.loss_batch"}
# traced by the benchmark, but gone before the benchmark was written
ABSENT_FROM_BENCHMARK = {"nn.per_example_grad_norms"}


def _used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name and attribute read in ``tree``, except inside ``skip``."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _public_definitions(module: str, tree: ast.Module):
    """(node, dotted name) of each public module-level function and class, and of
    each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, f"{module}.{node.name}"
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item, f"{module}.{node.name}.{item.name}"


def test_every_public_definition_is_used_by_the_program():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    used = {module: _used_names(tree) for module, tree in trees.items()}
    outside = set().union(*(_used_names(ast.parse(p.read_text(encoding="utf-8")))
                            for p in sorted(PERFBENCH.glob("*.py"))))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    unused = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(u for m, u in used.items() if m != module))
        for node, name in _public_definitions(module, tree):
            if not (node.name in elsewhere or node.name in _used_names(tree, skip=node)
                    or f":{node.name}" in pyproject or name in ORACLES):
                unused.append(name)
    assert unused == []


def test_public_definitions_cover_methods_and_properties_of_public_classes():
    tree = ast.parse(
        "def f(): pass\n"
        "def _g(): pass\n"
        "class A:\n"
        "    def m(self): pass\n"
        "    @property\n"
        "    def p(self): pass\n"
        "    def _h(self): pass\n"
        "    def __init__(self): pass\n"
        "class _B:\n"
        "    def n(self): pass\n")
    names = [name for _, name in _public_definitions("mod", tree)]
    assert names == ["mod.f", "mod.A", "mod.A.m", "mod.A.p"]


def _traced_names() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("name", [n for n in (*_traced_names(), "cli._run_job")
                                  if n not in ABSENT_FROM_BENCHMARK])
def test_benchmark_traced_name_resolves(name):
    module, *path = name.split(".")
    obj = importlib.import_module(f"advlab.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)
