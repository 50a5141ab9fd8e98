"""The README's recorded test count is the one in test_output.txt, and
every private name it cites is defined."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_count_matches_test_output():
    readme = (ROOT / "README.md").read_text()
    claimed = re.search(r"full-suite result: (\d+) passed", readme)
    last = (ROOT / "test_output.txt").read_text().strip().splitlines()[-1]
    recorded = re.search(r"(\d+) passed", last)
    assert claimed and recorded, (claimed, last)
    assert claimed.group(1) == recorded.group(1)


def _defined_names(paths):
    """Every function, class and assigned name the files define."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
    return names


def test_readme_private_names_are_defined():
    # a backticked name, call or dotted path in README.md, such as
    # `_Chain.offer` or `_improve(p)`: each private segment (a leading
    # underscore, dunders aside) is defined in the package or the tests
    readme = (ROOT / "README.md").read_text()
    spans = re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", readme)
    private = {part for span in spans for part in span.split(".")
               if part.startswith("_") and not part.endswith("__")}
    assert len(private) >= 8, sorted(private)
    defined = _defined_names([*(ROOT / "src" / "polyapprox").glob("*.py"),
                              *(ROOT / "tests").glob("*.py")])
    missing = sorted(private - defined)
    assert not missing, f"README names undefined private names: {missing}"
