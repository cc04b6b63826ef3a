"""README.md may quote only what the repository holds.

Every `<n> ops/s` and `from <a> to <b> ops/s` in README.md has to equal a
rounded `ops_per_s` number of some `BENCH_*.json` at the repository root,
and both ends of a `from ... to ...` figure the same file, so a quoted
number cannot drift from the record it was measured in.

Every snake_case identifier inside a backticked span of README.md has to
occur in the Python sources under `src/` or `perfbench/`, or be the name of
a test under `tests/`, so the README cannot name a function, field or
config key that is gone. Spans that name a file are skipped.

Every `Owner.attr` in such a span whose owner is a `bcrsp` submodule, or a
class defined in one, has to name an attribute the owner has, so a removed
method is caught even when its name is one word.

The target cache's budget that README.md states equals
`protocol.TARGET_CACHE_BYTES`.

The in-process `bcrsp verify` time that README.md quotes equals, at the
precision quoted, the number of a `*_ms` key of the `BENCH_*.json` it
names.

Every `p50 <a> → <b> ms`, `p50 <a> to <b> ms` and `p50 of <x> ms` in
README.md equals, at the precision quoted, the median of an `op_p50_ms`
entry of a `BENCH_*.json`, both ends of a figure in the same file, as for
`ops/s`.
"""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import bcrsp
from bcrsp.protocol import TARGET_CACHE_BYTES

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


DOTTED = re.compile(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)\b")
MODULES = {
    info.name: importlib.import_module(f"bcrsp.{info.name}")
    for info in pkgutil.iter_modules(bcrsp.__path__)
}


def readme_spans() -> list[str]:
    """README.md's backticked spans, leaving out spans that name a file."""
    spans = SPAN.findall((ROOT / "README.md").read_text())
    return [span for span in spans if not FILE_SPAN.search(span)]


def readme_identifiers() -> list[str]:
    """The distinct snake_case identifiers of README.md's backticked spans."""
    return sorted({name for span in readme_spans() for name in SNAKE_CASE.findall(span)})


def owner_object(name: str):
    """The `bcrsp` submodule `name`, or the class `name` defined in one, else None."""
    if name in MODULES:
        return MODULES[name]
    for module in MODULES.values():
        value = getattr(module, name, None)
        if isinstance(value, type) and value.__module__ == module.__name__:
            return value
    return None


def readme_attributes() -> list[tuple[str, str]]:
    """The distinct (owner, attr) of each `Owner.attr` whose owner is in `bcrsp`."""
    return sorted({
        (owner, attr)
        for span in readme_spans()
        for owner, attr in DOTTED.findall(span)
        if owner_object(owner) is not None
    })


def _words(paths) -> set[str]:
    return {w for path in paths for w in re.findall(r"\w+", path.read_text())}


FIGURES = readme_figures()
RECORDED = recorded_ops_per_s()
IDENTIFIERS = readme_identifiers()
ATTRIBUTES = readme_attributes()
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


def test_readme_quotes_attributes():
    # a broken pattern would make the check below vacuous
    assert len(ATTRIBUTES) >= 10


@pytest.mark.parametrize("owner,attr", ATTRIBUTES, ids=[".".join(a) for a in ATTRIBUTES])
def test_readme_attribute_exists(owner, attr):
    target = owner_object(owner)
    # a dataclass field without a default is no class attribute
    assert hasattr(target, attr) or attr in getattr(target, "__dataclass_fields__", ()), (
        f"README names `{owner}.{attr}`, which {owner} does not have"
    )


def test_readme_states_the_target_cache_budget():
    text = " ".join((ROOT / "README.md").read_text().split())
    quoted = re.findall(r"budget of ([\d,]+) MiB", text)
    assert quoted, "README does not state the target cache's budget"
    assert [int(v.replace(",", "")) * 2**20 for v in quoted] == [TARGET_CACHE_BYTES] * len(quoted)


VERIFY_FIGURE = re.compile(
    r"`bcrsp verify` takes (\d+(?:\.\d+)?) ms in-process \(`(BENCH_\d+\.json)`\)"
)


def recorded_ms(name: str) -> list[float]:
    """Every number that is the value of a key ending in `_ms` in the file
    `name` at the root; numbers inside a list under such a key are runs,
    not recorded figures."""
    found: list[float] = []

    def collect(obj: dict) -> dict:
        found.extend(v for k, v in obj.items() if k.endswith("_ms") and type(v) in (int, float))
        return obj

    json.loads((ROOT / name).read_text(), object_hook=collect)
    return found


def test_readme_verify_figure_is_recorded():
    text = " ".join((ROOT / "README.md").read_text().split())
    quoted = VERIFY_FIGURE.findall(text)
    assert quoted, "README does not quote the in-process `bcrsp verify` time"
    for figure, name in quoted:
        places = len(figure.partition(".")[2])
        recorded = {round(v, places) for v in recorded_ms(name)}
        assert float(figure) in recorded, (
            f"README quotes `bcrsp verify` at {figure} ms, which {name} does not record"
        )


DECIMAL = r"(\d+\.\d+)"
P50_FIGURE = re.compile(rf"p50 (?:of )?{DECIMAL}(?: (?:→|to) {DECIMAL})? ms")


def readme_p50_figures() -> list[tuple[str, ...]]:
    """Each quoted p50 as its decimal strings: (before, after) or (value,)."""
    text = " ".join((ROOT / "README.md").read_text().split())
    return [tuple(v for v in groups if v) for groups in P50_FIGURE.findall(text)]


def recorded_p50_ms() -> list[tuple[float, float]]:
    """(parent median, change median) of every `op_p50_ms` entry of every
    BENCH_*.json."""
    found: list[tuple[float, float]] = []

    def collect(obj: dict) -> dict:
        entry = obj.get("op_p50_ms")
        if isinstance(entry, dict) and "parent" in entry and "change" in entry:
            found.append((entry["parent"]["median"], entry["change"]["median"]))
        return obj

    for path in sorted(ROOT.glob("BENCH_*.json")):
        json.loads(path.read_text(), object_hook=collect)
    return found


P50_FIGURES = readme_p50_figures()
RECORDED_P50 = recorded_p50_ms()


def test_readme_quotes_p50_figures():
    # a broken pattern would make the check below vacuous
    assert sum(map(len, P50_FIGURES)) >= 5


@pytest.mark.parametrize("figure", P50_FIGURES, ids="-".join)
def test_readme_p50_figure_is_recorded(figure):
    # a lone figure is a current cost, a change median; a pair is the parent
    # and change medians of one entry, so both ends come from one file
    places = [len(v.partition(".")[2]) for v in figure]
    quoted = tuple(map(float, figure))
    recorded = {
        tuple(round(v, p) for v, p in zip((parent, change)[-len(figure):], places))
        for parent, change in RECORDED_P50
    }
    assert quoted in recorded, (
        f"README quotes a p50 of {' -> '.join(figure)} ms, which no BENCH_*.json "
        "records as one op_p50_ms entry"
    )
