"""The package holds what the commands run, and every name the benchmark harness
resolves in it stays importable."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bridgelab"
PERFBENCH = ROOT / "perfbench"


def _top_level_definitions(tree):
    """(label, name, node) of every top-level function, class and assigned name,
    and of every method of a top-level class but the dunders, which Python calls."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else (node.target,):
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_every_top_level_definition_is_used_inside_the_package():
    # a definition or method that nothing in src/ names is run by no command: it belongs in tests/
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    references = [(name, node) for tree in trees.values() for node in ast.walk(tree)
                  if (name := _referenced_name(node)) is not None]
    unused = []
    for filename, tree in trees.items():
        for label, name, definition in _top_level_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(ref == name and id(node) not in inside for ref, node in references):
                unused.append(f"{filename}:{definition.lineno} {label}")
    assert unused == []


def _tracer_hooks():
    """(module, attr) of every SPANS and COUNTERS entry of perfbench/tracer.py."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    hooks = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] in (["SPANS"], ["COUNTERS"]):
            hooks += [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    return hooks


def _perfbench_imports():
    """(module, name) of every `from bridgelab... import name` in perfbench/."""
    return [(node.module.removeprefix("bridgelab").lstrip("."), alias.name)
            for path in sorted(PERFBENCH.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bridgelab"
            for alias in node.names]


def test_perfbench_hooks_and_imports_resolve():
    # a deleted hook would otherwise surface only inside a traced benchmark run
    hooks = _tracer_hooks()
    imports = _perfbench_imports()
    assert ("contrast", "penalty_total") in hooks and ("solver", "scalar_prox_interval") in hooks
    assert {("model", "simulate_responses"), ("montecarlo", "replication_seed"), ("montecarlo", "design_seed"),
            ("model", "generate_design"), ("asymptotics", "v0_on_points"), ("util", "derive_seed"),
            ("contrast", "Contrast"), ("model", "Dataset"), ("solver", "minimize"),
            ("asymptotics", "limit_law"), ("asymptotics", "sample_limit_argmin")} <= set(imports)
    for module, attr in hooks + imports:
        if module:
            assert hasattr(importlib.import_module(f"bridgelab.{module}"), attr), f"bridgelab.{module}.{attr}"
        else:  # from bridgelab import <module>
            importlib.import_module(f"bridgelab.{attr}")
    from bridgelab.model import Dataset

    assert "truth" in Dataset.__dataclass_fields__

