"""README.md may quote only what the repository holds.

Every `<n> ops/s` and `from <a> to <b> ops/s` in README.md has to equal a
rounded `ops_per_s` number of some `BENCH_*.json` at the repository root,
and both ends of a `from ... to ...` figure the same file, so a quoted
number cannot drift from the record it was measured in.

Every snake_case identifier inside a backticked span of README.md has to
occur in the Python sources under `src/` or `perfbench/`, or be the name of
a test under `tests/`, so the README cannot name a function, field or
config key that is gone. Spans that name a file are skipped.
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


SPAN = re.compile(r"`([^`\n]+)`")
FILE_SPAN = re.compile(r"/|\.(?:py|json|md|csv|txt|toml)\b")
SNAKE_CASE = re.compile(r"\b_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b")


def readme_identifiers() -> list[str]:
    """The distinct snake_case identifiers of README.md's backticked spans,
    leaving out spans that name a file."""
    found = set()
    for span in SPAN.findall((ROOT / "README.md").read_text()):
        if not FILE_SPAN.search(span):
            found.update(SNAKE_CASE.findall(span))
    return sorted(found)


def _words(paths) -> set[str]:
    return {w for path in paths for w in re.findall(r"\w+", path.read_text())}


FIGURES = readme_figures()
RECORDED = recorded_ops_per_s()
IDENTIFIERS = readme_identifiers()
SOURCE_WORDS = _words(p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py")))
TEST_NAMES = set(re.findall(r"def (test_\w+)", " ".join(
    p.read_text() for p in sorted((ROOT / "tests").glob("test_*.py"))
)))


def test_readme_quotes_speed_figures():
    # a broken pattern would make the check below vacuous
    assert sum(map(len, FIGURES)) >= 10


@pytest.mark.parametrize("figure", FIGURES, ids=lambda f: "-".join(map(str, f)))
def test_readme_ops_per_s_figure_is_recorded(figure):
    files = [RECORDED.get(v, set()) for v in figure]
    for value, names in zip(figure, files):
        assert names, f"README quotes {value} ops/s, which no BENCH_*.json records"
    assert set.intersection(*files), f"README figure {figure} mixes records {files}"


def test_readme_quotes_identifiers():
    # a broken pattern would make the check below vacuous
    assert len(IDENTIFIERS) >= 20


@pytest.mark.parametrize("name", IDENTIFIERS)
def test_readme_identifier_exists(name):
    assert name in SOURCE_WORDS or name in TEST_NAMES, (
        f"README names `{name}`, which occurs in neither src/ nor perfbench/ and names no test"
    )
