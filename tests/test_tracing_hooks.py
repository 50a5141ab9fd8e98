"""The benchmark's tracing hooks resolve against the package.

``perfbench/spans.py`` wraps functions in the namespaces of the package's
modules and reads each one from its owner's ``__dict__``.  Some imports in
``src/`` exist only so that those names resolve; this test fails when one
of them is removed, and each carries ``# noqa: F401``; every other import
in the package, the tests and the benchmark must have a reader, and so
must every definition in the package: a reader in the package or the
benchmark, as a test alone does not count, apart from the few
definitions named in KEPT_FOR_TESTS.  The dependency runs one way: no
package module imports the benchmark.
"""

import ast
import re
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


def _hook_only_imports(source):
    """(line, name) for each name bound by an import marked
    ``# noqa: F401``."""
    lines = source.splitlines()
    return [(node.lineno, alias.asname or alias.name.split(".")[0])
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "# noqa: F401" in lines[node.lineno - 1]
            for alias in node.names]


def test_hook_only_import_check_sees_each_form():
    source = ("import json  # noqa: F401\n"
              "from .logs import ln, ln_scaled as scaled  # noqa: F401\n"
              "from .numbers import refine\n")
    assert _hook_only_imports(source) == [(1, "json"), (2, "ln"),
                                          (2, "scaled")]


def test_hook_only_imports_are_hooked():
    # an import kept only for a tracing hook must name a hook of its own
    # module, so a hook-only import left behind by a dropped hook fails
    hooked = {(module, attr) for module, attr, _name, _layer in _hooks()}
    stale = []
    for path in sorted((ROOT / "src" / "polyapprox").glob("*.py")):
        stale += [f"{path.name}:{line} {name}"
                  for line, name in _hook_only_imports(path.read_text())
                  if (path.stem, name) not in hooked]
    assert not stale, f"hook-only imports with no hook: {stale}"


def test_package_has_no_unused_imports():
    # the tests' and the benchmark's own imports are held to the same rule
    unused = []
    for path in sorted([*(ROOT / "src" / "polyapprox").glob("*.py"),
                        *(ROOT / "tests").glob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for line, name in _unused_imports(path.read_text())]
    assert not unused, f"imports with no reader: {unused}"


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _definitions(source):
    """(line, name) for each module-level function, class and assigned
    name, and each method of a module-level class, dunders left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found += [(t.lineno, t.id) for target in targets
                      for t in ast.walk(target) if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def _reads(source):
    """Every name source reads: loaded names, attributes, imported names,
    and the segments of dotted strings such as "polyapprox.cli._chain"."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                read.update(alias.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            read.update(node.value.split("."))
    return read


def test_unread_definition_check_sees_each_form():
    source = ("import json\n"
              "LIMIT = 3\n"
              "SPARE: int = 4\n"
              "__all__ = []\n"
              "def helper():\n"
              "    return LIMIT\n"
              "def lonely():\n"
              "    pass\n"
              "class Box:\n"
              "    def __init__(self):\n"
              "        self.size = helper()\n"
              "    def used(self):\n"
              "        return json.dumps(self)\n"
              "    def unused(self):\n"
              "        return self.used()\n"
              "    def hooked(self):\n"
              "        pass\n")
    assert _definitions(source) == [
        (2, "LIMIT"), (3, "SPARE"), (5, "helper"), (7, "lonely"),
        (9, "Box"), (12, "used"), (14, "unused"), (16, "hooked")]
    reader = ("from pkg.mod import Box\n"
              "patch('pkg.mod.Box.hooked', None)\n")
    read = _reads(source) | _reads(reader)
    unread = [name for _, name in _definitions(source) if name not in read]
    assert unread == ["SPARE", "lonely", "unused"]


# The package definitions that no command reaches and only tests read,
# each with the reason it stays in the package: a check of the paper
# that a command is to read, or an interval helper that the tests use to
# check the integer kernels against.
KEPT_FOR_TESTS = {
    "crossing_points": "paper check: where two L* functions cross",
    "transfer_point": "paper check: the transfer identities at one q",
    "exponent_identity_residuals": "paper check: the transfer identities"
                                   " over a graph",
    "pair_span_check": "paper check: the rank bounds of a record pair",
    "height_growth_report": "paper check: the growth of record heights",
    "coprime_shift_rank": "paper check: the Sylvester rank of a coprime"
                          " pair",
    "is_point": "interval helper of the tests' reference checks",
    "intersects": "interval helper of the tests' reference checks",
    "strictly_below": "interval helper of the tests' reference checks",
    "eval_abs_interval": "interval helper of the tests' reference checks",
}


def test_package_has_no_unread_definitions():
    # only the package and the benchmark count as readers: a definition
    # that only tests read is listed in KEPT_FOR_TESTS with its reason
    readers = [*(ROOT / "src" / "polyapprox").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    read = set()
    for path in readers:
        read |= _reads(path.read_text())
    unread, names = [], set()
    for path in sorted((ROOT / "src" / "polyapprox").glob("*.py")):
        for line, name in _definitions(path.read_text()):
            names.add(name)
            if name not in read and name not in KEPT_FOR_TESTS:
                unread.append(f"{path.name}:{line} {name}")
    assert not unread, f"definitions with no reader: {unread}"
    stale = sorted(name for name in KEPT_FOR_TESTS
                   if name not in names or name in read)
    assert not stale, f"kept for tests, but gone or read: {stale}"
