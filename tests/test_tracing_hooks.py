"""The benchmark's tracing hooks resolve against the package.

``perfbench/spans.py`` wraps functions in the namespaces of the package's
modules and reads each one from its owner's ``__dict__``.  Some imports in
``src/`` exist only so that those names resolve; this test fails when one
of them is removed, and each carries ``# noqa: F401``; every other import
must have a reader.  The dependency runs one way: no package module
imports the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


def test_every_hook_target_resolves():
    missing = []
    for module_name, attr, _name, _layer in _hooks():
        owner = importlib.import_module(f"polyapprox.{module_name}")
        target = attr
        if "." in attr:
            cls_name, target = attr.split(".")
            owner = vars(owner).get(cls_name, {})
        if target not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"hook targets missing from the package: {missing}"


def test_package_never_imports_perfbench():
    # the benchmark traces the package from outside; no module of the
    # package may depend on it
    offenders = []
    for path in sorted((ROOT / "src" / "polyapprox").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "perfbench" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"package modules import perfbench: {offenders}"


def _unused_imports(source):
    """(line, name) for each name bound by an import in source and never
    read, skipping ``from __future__`` and lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_import_check_sees_each_form():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "from math import inf as INF\n"
              "from .logs import ln  # noqa: F401\n"
              "x = os.path.join(dataclass, INF)\n")
    assert _unused_imports(source) == [(2, "json"), (4, "field")]


def test_package_has_no_unused_imports():
    unused = []
    for path in sorted((ROOT / "src" / "polyapprox").glob("*.py")):
        unused += [f"{path.name}:{line} {name}"
                   for line, name in _unused_imports(path.read_text())]
    assert not unused, f"imports with no reader: {unused}"
