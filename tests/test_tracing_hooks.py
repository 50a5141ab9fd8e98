"""The benchmark's tracing hooks resolve against the package.

``perfbench/spans.py`` wraps functions in the namespaces of the package's
modules and reads each one from its owner's ``__dict__``.  Some imports in
``src/`` exist only so that those names resolve; this test fails when one
of them is removed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
