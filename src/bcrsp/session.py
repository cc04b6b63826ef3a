"""Three-party choreography with an auditable classical transcript.

Alice, Bob, and Charlie advance through the protocol as explicit steps of
a single deterministic event loop; every outcome announcement crosses a
simulated lossless ordered channel and lands in the transcript. Charlie
may decline to help, in which case the session aborts before any of his
measurements and the senders' leftover qudits carry no information about
the targets.

A session keeps only the outcomes drawn so far. It draws them as a
sampled engine run does, two per step from the Born CDFs on the targets'
records, and step 3 corrects the drawn tuple through the engine's forced
path, so equal seeds give bitwise-equal results. `Session.legs` rebuilds each
leg's tensor view from the outcomes on demand.

Each step's four announcements depend only on its two drawn outcomes,
so they are built once per (step, outcomes) and shared between sessions.
`export_transcript` writes `json.dumps(doc, indent=2)` byte for byte,
splicing each message's indented block, encoded once per message object,
into the header. An export is therefore a function of (dimension,
status, l, n, m, k), and `import_transcript` accepts exactly the
documents export can write, by one of two routes: a text equal to the
export of the values it reads is returned without parsing, and any other
text is decoded and read field by field, then imports if it equals an
export and is otherwise rejected, with one ValueError line, at its first
malformed field or first difference from an export.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from enum import Enum
from typing import Optional

import numpy as np

from .core import StateVector
from .protocol import (
    PROTOCOL_ORDER,
    OutcomeTuple,
    PhaseVector,
    ProtocolResult,
    _TARGETS,
    _check_dims,
    _draw_controller,
    _draw_senders,
    _drawn_result,
    _forced_legs,
    ghz_state,
    leg_state,
)

TRANSCRIPT_SCHEMA_VERSION = 1


class PartyId(Enum):
    ALICE = "alice"
    BOB = "bob"
    CHARLIE = "charlie"


class SessionStatus(Enum):
    RUNNING = "running"
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class ClassicalMessage:
    """One outcome announcement: which measurement, which result index."""

    sender: PartyId
    receiver: PartyId
    step: int
    kind: str
    basis_label: str
    outcome_index: int

    @cached_property
    def _json_fields(self) -> dict:
        """This message as an entry of an exported `messages` list, built once; never mutated."""
        values = (self.sender.value, self.receiver.value, self.step, self.kind,
                  self.basis_label, self.outcome_index)
        return dict(zip([key for key, _ in _MESSAGE_FIELDS], values))

    @cached_property
    def _json_block(self) -> str:
        """This message in an exported `messages` list, 4-space indented, encoded once."""
        return "    " + json.dumps(self._json_fields, indent=2).replace("\n", "\n    ")


_A, _B, _C = PartyId.ALICE, PartyId.BOB, PartyId.CHARLIE

# step -> its announcements in transcript order: (sender, receiver, basis
# label, which of the step's two drawn outcomes it announces)
# `_exported` relies on this order: l, n, m, k first appear in messages 0, 2, 4, 5
_ANNOUNCEMENTS = {
    1: ((_A, _B, "A2", 0), (_A, _C, "A2", 0), (_B, _A, "B1", 1), (_B, _C, "B1", 1)),
    2: ((_C, _A, "C1", 0), (_C, _A, "C2", 1), (_C, _B, "C1", 0), (_C, _B, "C2", 1)),
}


@lru_cache(maxsize=4096, typed=True)
def _announcements(step: int, *drawn: int) -> tuple[ClassicalMessage, ...]:
    """Step `step`'s four announcements of its two drawn outcomes, built once and shared."""
    return tuple(
        ClassicalMessage(sender, receiver, step, "outcome", label, drawn[slot])
        for sender, receiver, label, slot in _ANNOUNCEMENTS[step]
    )


class Session:
    """One protocol execution driven by repeated advance() calls.

    Step 1 performs the senders' measurements and four announcements,
    step 2 the controller's measurements and four announcements (or the
    abort), step 3 the local corrections. The same measurement and
    correction steps as the bare engine are used, so equal seeds give
    bitwise-equal states.
    """

    def __init__(
        self,
        alice: PhaseVector,
        bob: PhaseVector,
        n: int,
        charlie_consents: bool,
        seed=None,
    ):
        _check_dims(alice, bob, n, "session")
        self.n = n
        self.alice = alice
        self.bob = bob
        self.charlie_consents = bool(charlie_consents)
        self._rng = np.random.default_rng(seed)
        self.status = SessionStatus.RUNNING
        self.step = 0
        self.transcript: list[ClassicalMessage] = []
        self.outcomes: dict[str, int] = {}
        self._result: Optional[ProtocolResult] = None

    @property
    def legs(self) -> list[StateVector]:
        """The current [A1·B1·C1, B2·A2·C2] legs, kept qudit first.

        A leg with k qudits still unmeasured has dims (N,)*k; it is rebuilt
        from the outcomes drawn so far.
        """
        if len(self.outcomes) == len(PROTOCOL_ORDER):
            _, kept = _forced_legs(self.alice, self.bob, self.outcome_tuple())
            return [leg_state(v, 1) for v in kept]
        if self.outcomes:
            # each leg's sender-projected row: B1's n on leg 0, A2's l on leg 1
            records = _TARGETS[self.bob], _TARGETS[self.alice]
            return [leg_state(r.leg[1][self.outcomes[s]], 2) for r, s in zip(records, "nl")]
        return [ghz_state(self.n) for _ in range(2)]

    def advance(self) -> SessionStatus:
        """Execute the next protocol step; raises on a terminal session."""
        if self.status is not SessionStatus.RUNNING:
            raise RuntimeError(f"session is already {self.status.value}")
        self.step += 1
        if self.step == 1:
            # serialized A2-then-B1; the two act on different legs so the order
            # is unobservable
            l, nn = _draw_senders(self.alice, self.bob, self._rng)
            self.outcomes.update(l=l, n=nn)
            self.transcript.extend(_announcements(1, l, nn))
        elif self.step == 2 and not self.charlie_consents:
            self.status = SessionStatus.ABORTED
        elif self.step == 2:
            m, k = _draw_controller(
                self.alice, self.bob, self.outcomes["l"], self.outcomes["n"], self._rng
            )
            self.outcomes.update(m=m, k=k)
            self.transcript.extend(_announcements(2, m, k))
        else:
            self._result = _drawn_result(self.alice, self.bob, self.outcome_tuple())
            self.status = SessionStatus.COMPLETED
        return self.status

    def run_to_completion(self) -> SessionStatus:
        while self.status is SessionStatus.RUNNING:
            self.advance()
        return self.status

    def outcome_tuple(self) -> OutcomeTuple:
        if len(self.outcomes) < len(PROTOCOL_ORDER):
            raise RuntimeError(
                f"session is {self.status.value}; only {sorted(self.outcomes)} were measured"
            )
        return OutcomeTuple(**self.outcomes)

    def result(self) -> ProtocolResult:
        """The completed session's result, shaped like a bare engine run."""
        if self._result is None:
            raise RuntimeError("session did not complete")
        return self._result


def new_session(
    alice: PhaseVector,
    bob: PhaseVector,
    n: int,
    charlie_consents: bool = True,
    seed=None,
) -> Session:
    return Session(alice, bob, n, charlie_consents, seed)


_DOCUMENT_KEYS = ("version", "dimension", "status", "messages")


@lru_cache(maxsize=256, typed=True)
def _transcript_head(dimension, status) -> str:
    """The exported document with an empty `messages` list."""
    return json.dumps(
        dict(zip(_DOCUMENT_KEYS, (TRANSCRIPT_SCHEMA_VERSION, dimension, status, []))), indent=2
    )


def _transcript_text(dimension, status: str, messages) -> str:
    """`json.dumps(doc, indent=2)` of a transcript, spliced from cached pieces.

    The header is encoded once per distinct value, each message block once
    per message object.
    """
    head = _transcript_head(dimension, status)
    blocks = ",\n".join([msg._json_block for msg in messages])
    # head ends with `"messages": []\n}`
    return f"{head[:-4]}[\n{blocks}\n  ]\n}}\n"


def export_transcript(session: Session) -> str:
    """Stable JSON serialization of a terminal session's transcript.

    The text is `json.dumps(doc, indent=2)` of the whole document.
    """
    if session.status is SessionStatus.RUNNING:
        raise RuntimeError("cannot export the transcript of a running session")
    return _transcript_text(session.n, session.status.value, session.transcript)


@dataclass(frozen=True)
class TranscriptDocument:
    version: int
    dimension: int
    status: SessionStatus
    messages: tuple[ClassicalMessage, ...]


_PARTIES = {party.value: party for party in PartyId}
_MESSAGE_COUNT = {SessionStatus.COMPLETED: 8, SessionStatus.ABORTED: 4}


def _json_object(value, where: str) -> dict:
    """A decoded JSON object; `where` names it in the error, such as "transcript document"."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    return value


def _json_integer(value, key: str, where: str) -> int:
    """Field `key` of the object `where`: an int or an integral float such as 3.0, never a bool."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{where} field {key!r} must be an integer, got {value!r}")


def _party(value, key: str, where: str) -> PartyId:
    # a dict lookup; calling the Enum costs several times more
    if type(value) is str and value in _PARTIES:
        return _PARTIES[value]
    raise ValueError(f"{where} field {key!r} names no party, got {value!r}")


def _string(value, key: str, where: str) -> str:
    if type(value) is str:
        return value
    raise ValueError(f"{where} field {key!r} must be a string, got {value!r}")


# a message's fields in document order, each with the check that reads it
_MESSAGE_FIELDS = (
    ("from", _party), ("to", _party), ("step", _json_integer),
    ("kind", _string), ("basis_label", _string), ("outcome_index", _json_integer),
)


def _outcome_index(i: int, raw, dimension: int) -> int:
    """The outcome index of transcript message `i`, once every decoded field reads.

    ValueError names the first field that is absent or malformed, a step
    below 1, or an outcome index outside [0, dimension).
    """
    where = f"transcript message {i}"
    raw = _json_object(raw, where)
    values = {}
    for key, read in _MESSAGE_FIELDS:
        if key not in raw:
            raise ValueError(f"{where} has no {key!r} field")
        values[key] = read(raw[key], key, where)
    step, index = values["step"], values["outcome_index"]
    if step < 1:
        raise ValueError(f"{where} step must be at least 1, got {step}")
    if not 0 <= index < dimension:
        raise ValueError(f"{where} outcome_index {index} is out of range for dimension {dimension}")
    return index


def _exported(status: SessionStatus, indices) -> tuple[ClassicalMessage, ...]:
    """The messages an export writes, read from its messages' outcome indices in order."""
    # l and n are first announced by messages 0 and 2, m and k by 4 and 5
    step1 = _announcements(1, indices[0], indices[2])
    if status is SessionStatus.ABORTED:
        return step1
    return step1 + _announcements(2, indices[4], indices[5])


# an export up to its first message, with the version inlined; then each
# message's last line. Past 9 digits a number takes the parsing path.
_EXPORT_HEAD = re.compile(
    rf'{{\n  "version": {TRANSCRIPT_SCHEMA_VERSION},\n  "dimension": ([0-9]{{1,9}}),\n'
    r'  "status": "(completed|aborted)",\n'
)
_OUTCOME_INDEX = re.compile(r'"outcome_index": ([0-9]{1,9})\n')


def import_transcript(serialized: str) -> TranscriptDocument:
    """Inverse of export_transcript: accepts exactly the documents it can write.

    An exported text is a function of (dimension, status, l, n, m, k), so
    the text is first read as one: the dimension, status and outcome
    indices are taken from the export layout without parsing, and if the
    text equals the export of those values, its document is returned
    without `json.loads`. The messages are the shared announcements a
    session holds.

    Any other text is decoded, and every field is read. ValueError names
    the first malformed field: a non-object document or message, a missing
    field, a non-list `messages`, a boolean or non-integral integer
    field, another version, a running or unknown
    status, an unknown party, a non-string `kind` or `basis_label`, a
    dimension below 2, a step below 1, or an outcome index outside
    [0, dimension). Then, reading l, n, m and k from
    messages 0, 2, 4 and 5, a document whose decoded JSON differs from the
    export of those outcomes is rejected with the reason: an extra key, a
    message count that is not 4 for `aborted` or 8 for `completed`, or a
    field (`kind`, `step`, route, label, outcome) other than the export's.
    Integral floats such as `3.0` read as ints, so a re-indented or compact
    `json.dumps` of an export imports, with the same shared messages.
    """
    head = _EXPORT_HEAD.match(serialized) if type(serialized) is str else None
    if head is not None:
        dimension, status = int(head[1]), SessionStatus(head[2])
        indices = [int(i) for i in _OUTCOME_INDEX.findall(serialized, head.end())]
        if dimension >= 2 and len(indices) == _MESSAGE_COUNT[status] and max(indices) < dimension:
            messages = _exported(status, indices)
            if serialized == _transcript_text(dimension, head[2], messages):
                return TranscriptDocument(TRANSCRIPT_SCHEMA_VERSION, dimension, status, messages)
    return _parse_transcript(serialized)


def _parse_transcript(serialized) -> TranscriptDocument:
    """import_transcript of a text that is not an export byte for byte."""
    where = "transcript document"
    doc = _json_object(json.loads(serialized), where)
    try:
        version = _json_integer(doc["version"], "version", where)
        if version != TRANSCRIPT_SCHEMA_VERSION:
            raise ValueError(f"unsupported transcript version {version!r}")
        dimension = _json_integer(doc["dimension"], "dimension", where)
        if dimension < 2:
            raise ValueError(f"transcript dimension must be at least 2, got {dimension}")
        status = SessionStatus(doc["status"])
        if status is SessionStatus.RUNNING:
            raise ValueError("transcript status is 'running'; only terminal sessions export")
        if not isinstance(doc["messages"], list):
            raise ValueError(f"transcript messages must be a JSON list, got {doc['messages']!r}")
    except KeyError as exc:
        raise ValueError(f"{where} has no {exc.args[0]!r} field") from None
    raw, count = doc["messages"], _MESSAGE_COUNT[status]
    indices = [_outcome_index(i, m, dimension) for i, m in enumerate(raw)]
    # every field is well formed; reject what an export could not have written
    for key in doc:
        if key not in _DOCUMENT_KEYS:
            raise ValueError(f"{where} has an extra key {key!r}")
    if len(indices) != count:
        raise ValueError(
            f"transcript status {status.value!r} has {len(indices)} messages;"
            f" an export writes {count}"
        )
    exported = _exported(status, indices)
    for i, (m, msg) in enumerate(zip(raw, exported)):
        fields = msg._json_fields
        for key in m:
            if key not in fields:
                raise ValueError(f"transcript message {i} has an extra key {key!r}")
        for key, value in fields.items():
            if m[key] != value:
                raise ValueError(
                    f"transcript message {i} field {key!r} is {m[key]!r}"
                    f" where an export writes {value!r}"
                )
    return TranscriptDocument(version, dimension, status, exported)
