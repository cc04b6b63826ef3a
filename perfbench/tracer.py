"""In-memory span tracer that wraps bcrsp's public functions from outside.

`install` replaces each listed function in every bcrsp module that holds
it (so `bcrsp.core.project` and `bcrsp.protocol.project` both record),
plus `Session.advance` and a constructor counter on `StateVector`. Nothing
under `src/` changes; `uninstall` puts the originals back. Spans are kept
in flat lists and reduced to per-layer numbers once the traced window ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

MODULES = (
    "bcrsp",
    "bcrsp.core",
    "bcrsp.protocol",
    "bcrsp.session",
    "bcrsp.noise",
    "bcrsp.optics",
    "bcrsp.cli",
)

# (layer module, public function); the span name is "<layer>.<function>"
FUNCTIONS = (
    ("core", "project"),
    ("core", "measure"),
    ("core", "apply_on"),
    ("core", "tensor"),
    ("core", "ensemble_from_density"),
    ("core", "fidelity_density"),
    ("protocol", "run_protocol"),
    ("protocol", "channel_state"),
    ("protocol", "verify_decomposition"),
    ("protocol", "outcome_probability"),
    ("session", "new_session"),
    ("session", "export_transcript"),
    ("session", "import_transcript"),
    ("noise", "noisy_protocol_run"),
    ("noise", "kraus_for"),
    ("optics", "reck_decompose"),
    ("optics", "compose_network"),
    ("optics", "ghz_via_cnot"),
    ("cli", "main"),
)

# lru caches whose hit ratio over the traced window is reported
CACHES = (("protocol", "channel_state"), ("protocol", "sender_basis"))

OP = "op"


class Tracer:
    """Span recorder; records only while `active` is true."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_tags: dict[int, str] = {}
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, tag: str) -> int:
        idx = self.begin(OP)
        self.op_tags[idx] = tag
        return idx

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        for layer, fname in CACHES:
            cached = getattr(importlib.import_module(f"bcrsp.{layer}"), fname)
            info = cached.cache_info()
            self._caches[f"{layer}.{fname}"] = cached
            self._cache_start[f"{layer}.{fname}"] = (info.hits, info.misses)

        modules = [importlib.import_module(m) for m in MODULES]
        for layer, fname in FUNCTIONS:
            orig = getattr(importlib.import_module(f"bcrsp.{layer}"), fname)
            on_result = None
            if (layer, fname) == ("noise", "noisy_protocol_run"):
                on_result = self._count_histories
            wrapped = self._span(f"{layer}.{fname}", orig, on_result)
            for mod in modules:
                if getattr(mod, fname, None) is orig:
                    self._patch(mod, fname, wrapped)

        from bcrsp.core import StateVector
        from bcrsp.session import Session

        advance = Session.advance

        @functools.wraps(advance)
        def traced_advance(session):
            if not self.active:
                return advance(session)
            idx = self.begin(f"session.advance.step{session.step + 1}")
            try:
                return advance(session)
            finally:
                self.end(idx)

        self._patch(Session, "advance", traced_advance)

        post_init = StateVector.__post_init__

        @functools.wraps(post_init)
        def counted_post_init(state):
            if self.active:
                self.counters["core.StateVector.calls"] += 1
            post_init(state)

        self._patch(StateVector, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _count_histories(self, run) -> None:
        self.counters["noise.kraus_histories"] += int(run.diagnostics["branch_count"])

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total self time, inclusive durations."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[i]
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for i, name in enumerate(self.names):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += durations[i] - child_time[i]
            entry["durations"].append(durations[i])
        return out

    def per_op_time(self, tag_filter, names) -> list[float]:
        """Inclusive time spent in `names` inside each op whose tag passes."""
        op_of = [-1] * len(self.names)
        per_op: dict[int, float] = {}
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            op_of[i] = i if name == OP else (op_of[parent] if parent >= 0 else -1)
            if name == OP and tag_filter(self.op_tags[i]):
                per_op[i] = 0.0
            elif name in names and op_of[i] in per_op:
                per_op[op_of[i]] += self.ends[i] - self.starts[i]
        return list(per_op.values())

    def hit_ratio(self, key: str) -> float:
        info = self._caches[key].cache_info()
        hits0, misses0 = self._cache_start[key]
        hits, misses = info.hits - hits0, info.misses - misses0
        return hits / (hits + misses) if hits + misses else 0.0


def p50_ms(durations) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0
