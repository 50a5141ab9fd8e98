"""The benchmark's tracing hooks resolve against the package.

``perfbench/spans.py`` wraps functions in the namespaces of the package's
modules and reads each one from its owner's ``__dict__``.  Some imports in
``src/`` exist only so that those names resolve; this test fails when one
of them is removed.  The dependency runs one way: no package module
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
