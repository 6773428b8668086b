"""Guards on the shape of the package rather than on its numbers.

Every public module-level function and class in ``src/advlab`` must be used
by the program: referenced, as a name or an attribute, somewhere in
``src/advlab`` outside its own definition, or by the benchmark harness in
``perfbench/``, or by ``pyproject.toml``. Code that only tests call belongs
in the tests. The exceptions are the oracles the tests check the program
against. The benchmark's traced names must also still resolve, so that a
rename cannot silently turn a pinned per-layer metric into "absent".
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
ORACLES = {"nn.loss_batch", "attacks.mia_accuracy"}
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


def test_every_public_definition_is_used_by_the_program():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    used = {module: _used_names(tree) for module, tree in trees.items()}
    outside = set().union(*(_used_names(ast.parse(p.read_text(encoding="utf-8")))
                            for p in sorted(PERFBENCH.glob("*.py"))))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    unused = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(u for m, u in used.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = f"{module}.{node.name}"
            if not (node.name in elsewhere or node.name in _used_names(tree, skip=node)
                    or f":{node.name}" in pyproject or name in ORACLES):
                unused.append(name)
    assert unused == []


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
