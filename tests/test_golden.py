"""Golden-file tests: CLI output must stay byte-for-byte equal to tests/golden/.

Each CLI case is a subcommand, its JSON config and the golden file its
output is compared with. The files pin `sweep` (csv and json, every noise
kind and both policies, N=3 on a random target and N=4 on the flat one),
one seeded trial `run` and two noisy `run`s. Each transcript case is a
seeded session whose `export_transcript` text is pinned: a completed N=3
and N=16 session and an aborted N=2 one. To regenerate them after a
deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which renders the named golden files, or all of them when no name is
given, rewrites only those that changed and prints one line per file:
`unchanged`, or the largest absolute change among the numbers parsed from
the old and the new file. Say in the change log which outputs moved, by how
much and why.
"""

import json
import sys
from pathlib import Path

import pytest

from bcrsp.cli import main
from bcrsp.protocol import PhaseVector
from bcrsp.session import export_transcript, import_transcript, new_session

GOLDEN = Path(__file__).resolve().parent / "golden"

KINDS = ("qudit-flip", "dephasing", "qudit-phase-flip")
POLICIES = ("averaged", "conditioned")
TARGETS = {
    "n3-random": {"dimension": 3, "alice_phases": [0.4, "2pi/3"], "bob_phases": [1.7, "pi/5"]},
    "n4-flat": {"dimension": 4},
}


def _cases() -> dict[str, tuple[list[str], dict]]:
    cases = {}
    for kind in KINDS:
        for policy in POLICIES:
            for target, base in TARGETS.items():
                cfg = {**base, "noise": {"kind": kind}, "policy": policy}
                for fmt in ("csv", "json"):
                    name = f"sweep-{kind}-{policy}-{target}.{fmt}"
                    cases[name] = (["sweep", "--format", fmt], cfg)
    cases["run-seeded-trials.json"] = (
        ["run"],
        {"dimension": 5, "alice_phases": [0.3, "pi/2", 2.2, "3pi/4"],
         "bob_phases": [1.1, 0.0, "pi", 5.9], "trials": 8, "seed": 11},
    )
    cases["run-noisy-averaged.json"] = (
        ["run"],
        {"dimension": 4, "alice_phases": ["pi/3", 0.9, 2.5], "bob_phases": [0.2, "pi", 4.0],
         "noise": {"kind": "qudit-phase-flip", "gamma": 0.37}, "policy": "averaged"},
    )
    cases["run-noisy-conditioned.json"] = (
        ["run"],
        {"dimension": 3, "alice_phases": [1.3, 0.6], "bob_phases": ["2pi/3", 0.1],
         "noise": {"kind": "dephasing", "gamma": 0.61}, "policy": "conditioned"},
    )
    return cases


CASES = _cases()

# name -> (dimension, alice phases, bob phases, Charlie consents, seed)
TRANSCRIPTS = {
    "transcript-completed-n3.json": (3, (0.4, 2.1), (1.7, 0.6), True, 31),
    "transcript-completed-n16.json": (
        16, tuple(0.37 * j for j in range(1, 16)), tuple(5.9 - 0.41 * j for j in range(1, 16)),
        True, 1616,
    ),
    "transcript-aborted-n2.json": (2, (0.9,), (2.8,), False, 6),
}


def _session(name: str):
    n, alice, bob, consents, seed = TRANSCRIPTS[name]
    ses = new_session(PhaseVector(n, alice), PhaseVector(n, bob), n, consents, seed=seed)
    ses.run_to_completion()
    return ses


def _render(argv: list[str], cfg: dict, workdir: Path) -> bytes:
    config = workdir / "config.json"
    out = workdir / "out.txt"
    config.write_text(json.dumps(cfg))
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, tmp_path):
    argv, cfg = CASES[name]
    assert _render(argv, cfg, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_transcript_matches_golden_file(name):
    ses = _session(name)
    text = export_transcript(ses)
    assert text.encode() == (GOLDEN / name).read_bytes()
    doc = import_transcript(text)
    assert (doc.dimension, doc.status) == (ses.n, ses.status)
    assert doc.messages == tuple(ses.transcript)
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def _render_case(name: str, workdir: Path) -> bytes:
    if name in TRANSCRIPTS:
        return export_transcript(_session(name)).encode()
    return _render(*CASES[name], workdir)


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*CASES, *TRANSCRIPTS])


def _leaves(doc) -> list:
    """The scalars of a parsed json document, in order."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [leaf for item in doc for leaf in _leaves(item)]
    return [doc]


def _numbers(text: bytes, name: str) -> list[float]:
    """Every number of a csv or json golden file, in order."""
    if name.endswith(".csv"):
        leaves = [c for line in text.decode().splitlines() for c in line.split(",")]
    else:
        leaves = _leaves(json.loads(text))
    numbers = []
    for leaf in leaves:
        try:
            numbers.append(float(leaf))
        except (TypeError, ValueError):
            pass
    return numbers


def _change(old: bytes, new: bytes, name: str) -> str:
    """How a golden file moves: `unchanged` or its largest numeric change."""
    if old == new:
        return "unchanged"
    a, b = _numbers(old, name), _numbers(new, name)
    if len(a) != len(b) or a == b:
        return "changed beyond its numbers"
    return f"largest change {max(abs(x - y) for x, y in zip(a, b)):.3g}"


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or [*CASES, *TRANSCRIPTS]
    unknown = sorted(set(names) - set(CASES) - set(TRANSCRIPTS))
    if unknown:
        sys.exit(f"error: no golden case named {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(names):
            path, new = GOLDEN / name, _render_case(name, Path(tmp))
            old = path.read_bytes() if path.exists() else None
            print(f"{name}: {'new' if old is None else _change(old, new, name)}")
            if new != old:
                path.write_bytes(new)
