"""The README's recorded test count is the one in test_output.txt."""

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
