"""Guards on the shape of the package rather than on its numbers.

Every public module-level function and class in ``src/advlab``, and every
public method and property of a public class, must be used by the program:
somewhere in ``src/advlab`` outside its own definition, by the benchmark
harness in ``perfbench/``, or by ``pyproject.toml``. A use is matched to the
definition's owner, not to its bare name: ``np.random`` is no use of
``DenseNet.random``. Code that only tests call belongs in the tests. The
exceptions are the oracles the tests check the program against. No object
is built by ``object.__new__``, past its class's checks. Only
``nn.check_finite`` may raise ``DivergenceError`` or
test finiteness, besides the input gates that check outside input. The
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


def _package_module(node: ast.ImportFrom) -> str | None:
    """The advlab module ``node`` imports from, "" for the package itself, None outside advlab."""
    if node.level == 1:
        return node.module or ""
    if node.module == "advlab":
        return ""
    if node.module and node.module.startswith("advlab."):
        return node.module.removeprefix("advlab.")
    return None


def _imported_modules(tree: ast.AST) -> dict[str, str]:
    """Local name -> module of each module ``tree`` imports: ``import numpy as np``
    binds ``np`` to numpy, and ``from . import nn`` binds ``nn`` to advlab's nn."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                modules[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and _package_module(node) == "":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names
                           if (SRC / f"{alias.name}.py").is_file())
    return modules


def _uses(tree: ast.AST, skip: ast.AST | None = None):
    """What ``tree`` reads, except inside ``skip``: (attribute names read off
    something other than an imported module, ``(module, name)`` pairs read as
    ``module.name`` or imported from ``module``, bare names)."""
    modules = _imported_modules(tree)
    attrs, qualified, names, stack = set(), set(), set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in modules:
                qualified.add((modules[owner.id], node.attr))
            else:
                attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (source := _package_module(node)):
            qualified.update((source, alias.name) for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return attrs, qualified, names


def _public_definitions(module: str, tree: ast.Module):
    """(node, dotted name) of each public module-level function and class, and of
    each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, f"{module}.{node.name}"
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item, f"{module}.{node.name}.{item.name}"


def _unused(trees: dict[str, ast.Module], outside: list[ast.AST], pyproject: str = "") -> list[str]:
    """Dotted names of the public definitions in ``trees`` (advlab modules by
    name) that neither the other modules, ``outside`` nor ``pyproject`` use.

    A method or property is used where it is read as an attribute of
    something other than an imported module. A module-level definition is
    used as ``<module>.<name>``, as a name imported from its module, or by
    name in its own module outside its definition.
    """
    uses = {module: _uses(tree) for module, tree in trees.items()}
    outside_uses = [_uses(tree) for tree in outside]
    unused = []
    for module, tree in trees.items():
        others = [u for m, u in uses.items() if m != module] + outside_uses
        attrs = set().union(*(u[0] for u in others))
        qualified = set().union(*(u[1] for u in others))
        for node, name in _public_definitions(module, tree):
            own_attrs, _, own_names = _uses(tree, skip=node)
            if name.count(".") == 2:  # a method or property
                used = node.name in attrs or node.name in own_attrs
            else:
                used = ((module, node.name) in qualified or node.name in own_names
                        or f"advlab.{module}:{node.name}" in pyproject)
            if not used:
                unused.append(name)
    return unused


def test_every_public_definition_is_used_by_the_program():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    outside = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PERFBENCH.glob("*.py"))]
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert [name for name in _unused(trees, outside, pyproject) if name not in ORACLES] == []


def test_a_name_counts_as_used_only_through_its_owner():
    # np.random is numpy's, not DenseNet.random; a local named stream is not rng.stream
    trees = {
        "nn": ast.parse("from .rng import stream\n"
                        "class DenseNet:\n"
                        "    def random(self): return stream()\n"
                        "    def flatten(self): pass\n"),
        "rng": ast.parse("import numpy as np\n"
                         "from . import nn\n"
                         "def stream(): return np.random, nn.DenseNet\n"
                         "def unused(): pass\n"),
        "cli": ast.parse("def main(net):\n"
                         "    unused = net.flatten()\n"
                         "    return unused\n"),
    }
    assert _unused(trees, [], "advlab = \"advlab.cli:main\"") == [
        "nn.DenseNet.random", "rng.unused"]


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


def test_no_parameter_default_is_a_call():
    # a default is evaluated once, where the function is defined, so a call
    # there is a second owner of a value the program already owns elsewhere
    found = [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(part, ast.Call)
                     for default in (*node.args.defaults, *node.args.kw_defaults) if default
                     for part in ast.walk(default))]
    assert found == []


def _sites(module: str, tree: ast.Module, matches) -> list[str]:
    """The dotted name of the innermost definition around each node of ``tree``
    for which ``matches(the modules tree imports, node)`` holds."""
    modules = _imported_modules(tree)
    found, stack = [], [(tree, module)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        elif matches(modules, node):
            found.append(owner)
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return sorted(found)


def _src_sites(matches) -> list[str]:
    """``_sites`` over every module of ``src/advlab``."""
    return [site for path in sorted(SRC.glob("*.py"))
            for site in _sites(path.stem, ast.parse(path.read_text(encoding="utf-8")), matches)]


def _is_object_new(modules: dict[str, str], node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_no_object_skips_its_constructor():
    # object.__new__ builds an object without its class's checks; every object,
    # SGD's stepped nets among them, is built, and validated, by its class
    assert _src_sites(_is_object_new) == []


# np.isfinite and kin, as (module, name) pairs
FINITENESS_TESTS = {("numpy", "isfinite"), ("numpy", "isnan"), ("numpy", "isinf"),
                    ("math", "isfinite"), ("math", "isnan"), ("math", "isinf")}
# the gates where input from outside the program is checked finite
INPUT_GATES = ["config.ExperimentConfig.__post_init__", "data.LabeledSet.__post_init__",
               "data.load_csv"]


def _is_finiteness_test(modules: dict[str, str], node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and (modules.get(node.value.id), node.attr) in FINITENESS_TESTS)


def _builds_divergence_error(modules: dict[str, str], node: ast.AST) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return ((isinstance(func, ast.Name) and func.id == "DivergenceError")
            or (isinstance(func, ast.Attribute) and func.attr == "DivergenceError"))


def test_one_check_finds_every_non_finite_model_number():
    # a diverged model is one DivergenceError from nn.check_finite, whichever
    # command meets it; only the input gates test finiteness for themselves
    assert _src_sites(_builds_divergence_error) == ["nn.check_finite"]
    assert sorted(set(_src_sites(_is_finiteness_test))) == sorted(
        INPUT_GATES + ["nn.check_finite"])


def test_finiteness_sites_resolve_the_module_a_name_is_read_from():
    tree = ast.parse("import math\n"
                     "import numpy as np\n"
                     "def f(x): return np.isfinite(x), math.isnan(x), x.isfinite\n"
                     "class A:\n"
                     "    def g(self): raise DivergenceError(np.isinf(1))\n"
                     "def h(errors): return errors.DivergenceError, nn.DivergenceError('x')\n")
    assert _sites("m", tree, _is_finiteness_test) == ["m.A.g", "m.f", "m.f"]
    assert _sites("m", tree, _builds_divergence_error) == ["m.A.g", "m.h"]


def test_object_new_sites_are_named_by_their_innermost_definition():
    tree = ast.parse("x = object.__new__(int)\n"
                     "class A:\n"
                     "    def f(self):\n"
                     "        def g(): return object.__new__(A)\n"
                     "        return g, object.__new__(A), object.__init__\n"
                     "def h(): return super().__new__(A)\n")
    assert _sites("m", tree, _is_object_new) == ["m", "m.A.f", "m.A.f.g"]


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
