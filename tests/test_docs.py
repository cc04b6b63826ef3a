"""Speed figures quoted in the README must come from a committed benchmark record.

Every `<n> ops/s` and `from <a> to <b> ops/s` in README.md has to equal a
rounded `ops_per_s` number of some `BENCH_*.json` at the repository root,
and both ends of a `from ... to ...` figure the same file, so a quoted
number cannot drift from the record it was measured in.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NUMBER = r"(\d{1,3}(?:,\d{3})+|\d+)"
FIGURE = re.compile(rf"from {NUMBER} to {NUMBER} ops/s|{NUMBER} ops/s")


def readme_figures() -> list[tuple[int, ...]]:
    """Each quoted figure as a tuple: (before, after) or (value,)."""
    text = " ".join((ROOT / "README.md").read_text().split())
    return [
        tuple(int(v.replace(",", "")) for v in groups if v)
        for groups in FIGURE.findall(text)
    ]


def recorded_ops_per_s() -> dict[int, set[str]]:
    """Every number under an `ops_per_s` key of a BENCH_*.json, rounded,
    with the files it appears in."""
    found: dict[int, set[str]] = {}

    def walk(node, under: bool, name: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, under or key == "ops_per_s", name)
        elif isinstance(node, list):
            for value in node:
                walk(value, under, name)
        elif under and isinstance(node, (int, float)) and not isinstance(node, bool):
            found.setdefault(round(node), set()).add(name)

    for path in sorted(ROOT.glob("BENCH_*.json")):
        walk(json.loads(path.read_text()), False, path.name)
    return found


FIGURES = readme_figures()
RECORDED = recorded_ops_per_s()


def test_readme_quotes_speed_figures():
    # a broken pattern would make the check below vacuous
    assert sum(map(len, FIGURES)) >= 10


@pytest.mark.parametrize("figure", FIGURES, ids=lambda f: "-".join(map(str, f)))
def test_readme_ops_per_s_figure_is_recorded(figure):
    files = [RECORDED.get(v, set()) for v in figure]
    for value, names in zip(figure, files):
        assert names, f"README quotes {value} ops/s, which no BENCH_*.json records"
    assert set.intersection(*files), f"README figure {figure} mixes records {files}"
