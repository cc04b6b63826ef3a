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

`export_transcript` writes `json.dumps(doc, indent=2)` byte for byte, but
encodes each distinct message once: a run announces few distinct messages
(eight routes times N outcome indices), so their indented blocks are
cached and spliced into the header. `import_transcript` rejects, with
ValueError, any document whose shape the exporter cannot produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
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


_A, _B, _C = PartyId.ALICE, PartyId.BOB, PartyId.CHARLIE

# step -> its announcements in transcript order: (sender, receiver, basis
# label, slot of the announced outcome)
_ANNOUNCEMENTS = {
    1: ((_A, _B, "A2", "l"), (_A, _C, "A2", "l"), (_B, _A, "B1", "n"), (_B, _C, "B1", "n")),
    2: ((_C, _A, "C1", "m"), (_C, _A, "C2", "k"), (_C, _B, "C1", "m"), (_C, _B, "C2", "k")),
}


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

    # -- step bodies --------------------------------------------------

    def _announce(self):
        """Append this step's announcements of the outcomes just drawn."""
        self.transcript.extend(
            ClassicalMessage(sender, receiver, self.step, "outcome", label, self.outcomes[slot])
            for sender, receiver, label, slot in _ANNOUNCEMENTS[self.step]
        )

    def _step_senders(self):
        # serialized A2-then-B1; the two act on different legs so the order
        # is unobservable
        l, nn = _draw_senders(self.alice, self.bob, self._rng)
        self.outcomes.update(l=l, n=nn)
        self._announce()

    def _step_controller(self):
        if not self.charlie_consents:
            self.status = SessionStatus.ABORTED
            return
        m, k = _draw_controller(
            self.alice, self.bob, self.outcomes["l"], self.outcomes["n"], self._rng
        )
        self.outcomes.update(m=m, k=k)
        self._announce()

    def _step_corrections(self):
        self._result = _drawn_result(self.alice, self.bob, self.outcome_tuple())
        self.status = SessionStatus.COMPLETED

    # -- public surface -----------------------------------------------

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
            self._step_senders()
        elif self.step == 2:
            self._step_controller()
        elif self.step == 3:
            self._step_corrections()
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


@lru_cache(maxsize=4096, typed=True)
def _message_block(sender, receiver, step, kind, basis_label, outcome_index) -> str:
    """One message as it sits in the exported `messages` list, 4-space indented.

    `typed=True` keeps values that compare equal but encode differently,
    such as `True` and `1`, in separate entries.
    """
    block = json.dumps(
        {
            "from": sender,
            "to": receiver,
            "step": step,
            "kind": kind,
            "basis_label": basis_label,
            "outcome_index": outcome_index,
        },
        indent=2,
    )
    return "    " + block.replace("\n", "\n    ")


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
    header and each message block are encoded once per distinct value and
    cached; the blocks are spliced into the header's empty `messages` list.
    """
    if session.status is SessionStatus.RUNNING:
        raise RuntimeError("cannot export the transcript of a running session")
    head = _transcript_head(session.n, session.status.value)
    # a terminal session has announced at least step 1's four messages
    blocks = ",\n".join(
        _message_block(
            msg.sender.value,
            msg.receiver.value,
            msg.step,
            msg.kind,
            msg.basis_label,
            msg.outcome_index,
        )
        for msg in session.transcript
    )
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


def import_transcript(serialized: str) -> TranscriptDocument:
    """Inverse of export_transcript; round-trips field by field.

    Raises ValueError on any document whose shape export_transcript cannot
    produce: a non-object document or message, a missing field, a non-list
    `messages`, a boolean or non-integral integer field, a running status,
    a non-string `kind` or `basis_label`, a dimension below 2, a step below
    1, or an outcome index outside [0, dimension).
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
        messages = []
        for i, m in enumerate(doc["messages"]):
            where = f"transcript message {i}"
            m = _json_object(m, where)
            msg = ClassicalMessage(
                sender=_party(m["from"], "from", where),
                receiver=_party(m["to"], "to", where),
                step=_json_integer(m["step"], "step", where),
                kind=_string(m["kind"], "kind", where),
                basis_label=_string(m["basis_label"], "basis_label", where),
                outcome_index=_json_integer(m["outcome_index"], "outcome_index", where),
            )
            if msg.step < 1:
                raise ValueError(f"{where} step must be at least 1, got {msg.step}")
            if not 0 <= msg.outcome_index < dimension:
                raise ValueError(
                    f"{where} outcome_index {msg.outcome_index} is out of range"
                    f" for dimension {dimension}"
                )
            messages.append(msg)
    except KeyError as exc:
        raise ValueError(f"{where} has no {exc.args[0]!r} field") from None
    return TranscriptDocument(version, dimension, status, tuple(messages))
