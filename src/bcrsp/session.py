"""Three-party choreography with an auditable classical transcript.

Alice, Bob, and Charlie advance through the protocol as explicit steps of
a single deterministic event loop; every outcome announcement crosses a
simulated lossless ordered channel and lands in the transcript. Charlie
may decline to help, in which case the session aborts before any of his
measurements and the senders' leftover qudits carry no information about
the targets.

A session keeps only the outcomes drawn so far. It draws them as a
sampled engine run does, two per step from the targets' cached Born CDFs,
and step 3 corrects the drawn tuple through the engine's forced path, so
equal seeds give bitwise-equal results. `Session.legs` rebuilds each
leg's tensor view from the outcomes on demand.

Each step's four announcements depend only on its two drawn outcomes,
so they are built once per (step, outcomes) and shared between sessions.
`export_transcript` writes `json.dumps(doc, indent=2)` byte for byte,
splicing each message's indented block, encoded once per message object,
into the header. `import_transcript` checks each distinct raw message
once and rejects, with ValueError, a field that is missing or of the
wrong type or range; see its docstring for what it does not check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from enum import Enum
from typing import Optional

import numpy as np

from .core import StateVector, _json_integer, _json_object
from .protocol import (
    PROTOCOL_ORDER,
    OutcomeTuple,
    PhaseVector,
    ProtocolResult,
    _check_dims,
    _draw_controller,
    _draw_senders,
    _drawn_result,
    _forced_legs,
    _leg_table,
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
    def _json_block(self) -> str:
        """This message in an exported `messages` list, 4-space indented, encoded once."""
        values = (self.sender.value, self.receiver.value, self.step, self.kind,
                  self.basis_label, self.outcome_index)
        block = json.dumps(dict(zip([key for key, _ in _MESSAGE_FIELDS], values)), indent=2)
        return "    " + block.replace("\n", "\n    ")


_A, _B, _C = PartyId.ALICE, PartyId.BOB, PartyId.CHARLIE

# step -> its announcements in transcript order: (sender, receiver, basis
# label, which of the step's two drawn outcomes it announces)
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
            tables = _leg_table(self.bob), _leg_table(self.alice)
            return [leg_state(t.after[self.outcomes[s]], 2) for t, s in zip(tables, "nl")]
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


@lru_cache(maxsize=256, typed=True)
def _transcript_head(dimension, status) -> str:
    """The exported document with an empty `messages` list."""
    return json.dumps(
        {
            "version": TRANSCRIPT_SCHEMA_VERSION,
            "dimension": dimension,
            "status": status,
            "messages": [],
        },
        indent=2,
    )


def export_transcript(session: Session) -> str:
    """Stable JSON serialization of a terminal session's transcript.

    The text is `json.dumps(doc, indent=2)` of the whole document. The
    header is encoded once per distinct value and cached, each message
    block once per message object; the blocks are spliced into the
    header's empty `messages` list.
    """
    if session.status is SessionStatus.RUNNING:
        raise RuntimeError("cannot export the transcript of a running session")
    head = _transcript_head(session.n, session.status.value)
    # a terminal session has announced at least step 1's four messages
    blocks = ",\n".join([msg._json_block for msg in session.transcript])
    # head ends with `"messages": []\n}`
    return f"{head[:-4]}[\n{blocks}\n  ]\n}}\n"


@dataclass(frozen=True)
class TranscriptDocument:
    version: int
    dimension: int
    status: SessionStatus
    messages: tuple[ClassicalMessage, ...]


_PARTIES = {party.value: party for party in PartyId}


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
_NO_FIELD = object()


def _message(i: int, *fields) -> ClassicalMessage:
    """Transcript message `i` from its raw fields in `_MESSAGE_FIELDS` order.

    ValueError names the first field that is `_NO_FIELD` (absent) or malformed, or a step below 1.
    """
    where = f"transcript message {i}"
    values = []
    for (key, read), value in zip(_MESSAGE_FIELDS, fields):
        if value is _NO_FIELD:
            raise ValueError(f"{where} has no {key!r} field")
        values.append(read(value, key, where))
    msg = ClassicalMessage(*values)
    if msg.step < 1:
        raise ValueError(f"{where} step must be at least 1, got {msg.step}")
    return msg


# `typed=True` keeps `true`, `1` and `1.0` apart: only the first is rejected
_cached_message = lru_cache(maxsize=4096, typed=True)(_message)


def import_transcript(serialized: str) -> TranscriptDocument:
    """Inverse of export_transcript; round-trips field by field.

    Raises ValueError on a non-object document or message, a missing
    field, a non-list `messages`, a boolean or non-integral integer field,
    another version, a running or unknown status, an unknown party, a
    non-string `kind` or `basis_label`, a dimension below 2, a step below
    1, or an outcome index outside [0, dimension). It checks nothing else:
    extra keys, any `kind`, any step, a message to its own sender and any
    message count for the status all import.
    """
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
    messages = []
    for i, m in enumerate(doc["messages"]):
        m = _json_object(m, f"transcript message {i}")
        fields = [m.get(key, _NO_FIELD) for key, _ in _MESSAGE_FIELDS]
        try:
            msg = _cached_message(i, *fields)
        except TypeError:  # an unhashable field value, such as a list
            msg = _message(i, *fields)
        if not 0 <= msg.outcome_index < dimension:
            raise ValueError(
                f"transcript message {i} outcome_index {msg.outcome_index} is out of range"
                f" for dimension {dimension}"
            )
        messages.append(msg)
    return TranscriptDocument(version, dimension, status, tuple(messages))
