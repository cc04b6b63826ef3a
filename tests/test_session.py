import dataclasses
import json

import numpy as np
import pytest

from bcrsp import session as session_module
from bcrsp.core import (
    fidelity_density,
    project,
    reduced_density,
    tensor,
)
from bcrsp.protocol import PhaseVector, equatorial_state, ghz_state, run_protocol, sender_basis
from bcrsp.session import (
    ClassicalMessage,
    PartyId,
    SessionStatus,
    TranscriptDocument,
    _json_integer,
    _json_object,
    _party,
    _string,
    export_transcript,
    import_transcript,
    new_session,
)
from conftest import random_phase_vector


@pytest.fixture
def qutrit_pair():
    rng = np.random.default_rng(404)
    return random_phase_vector(3, rng), random_phase_vector(3, rng)


class TestLifecycle:
    def test_three_advances_complete(self, qutrit_pair):
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=True, seed=5)
        assert ses.advance() is SessionStatus.RUNNING
        assert ses.advance() is SessionStatus.RUNNING
        assert ses.advance() is SessionStatus.COMPLETED
        assert ses.result().recovered == (True, True)

    def test_matches_bare_engine_bitwise(self, qutrit_pair):
        alice, bob = qutrit_pair
        for seed in (0, 1, 17, 123456):
            ses = new_session(alice, bob, 3, charlie_consents=True, seed=seed)
            ses.run_to_completion()
            res = run_protocol(alice, bob, 3, rng=seed)
            assert ses.outcome_tuple() == res.outcome
            assert ses.result().corrections == res.corrections
            np.testing.assert_array_equal(
                ses.result().alice_final.amplitudes, res.alice_final.amplitudes
            )
            np.testing.assert_array_equal(
                ses.result().bob_final.amplitudes, res.bob_final.amplitudes
            )

    def test_four_level_session(self):
        rng = np.random.default_rng(77)
        alice, bob = random_phase_vector(4, rng), random_phase_vector(4, rng)
        ses = new_session(alice, bob, 4, charlie_consents=True, seed=9)
        ses.run_to_completion()
        assert ses.result().recovered == (True, True)

    def test_sixteen_level_session(self):
        # two three-qudit legs keep N=16 cheap; a six-qudit register would
        # hold 16^6 amplitudes
        rng = np.random.default_rng(1616)
        alice, bob = random_phase_vector(16, rng), random_phase_vector(16, rng)
        ses = new_session(alice, bob, 16, charlie_consents=True, seed=16)
        ses.run_to_completion()
        assert ses.result().recovered == (True, True)

    def test_degenerate_dimension_rejected(self):
        with pytest.raises(ValueError):
            new_session(PhaseVector(1, ()), PhaseVector(1, ()), 1, True)

    def test_dimension_mismatch_rejected(self, qutrit_pair):
        alice, _ = qutrit_pair
        with pytest.raises(ValueError, match="session dim"):
            new_session(alice, PhaseVector.zero(4), 4, True)

    def test_advancing_terminal_session_raises(self, qutrit_pair):
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=True, seed=2)
        ses.run_to_completion()
        with pytest.raises(RuntimeError, match="already completed"):
            ses.advance()


def _set(key, value, message=None):
    """Edit of an exported document: set a document or message field."""
    def edit(doc):
        (doc if message is None else doc["messages"][message])[key] = value
        return doc
    return edit


def _drop(key, message=None):
    """Edit of an exported document: delete a document or message field."""
    def edit(doc):
        del (doc if message is None else doc["messages"][message])[key]
        return doc
    return edit


# (edit, pattern of the ValueError it causes) for documents import_transcript rejects
MALFORMED = [
    (lambda doc: [], "JSON object"),
    (lambda doc: 5, "JSON object"),
    (lambda doc: {"version": 1}, "'dimension'"),
    (_drop("status"), "'status'"),
    (_drop("messages"), "'messages'"),
    (_set("messages", 5), "JSON list"),
    (_set("messages", {}), "JSON list"),
    (lambda doc: {**doc, "messages": [{}]}, "'from'"),
    (lambda doc: {**doc, "messages": [5]}, "JSON object"),
    (_drop("outcome_index", message=3), "'outcome_index'"),
    (_set("version", True), "'version'"),
    (_set("dimension", True), "'dimension'"),
    (_set("dimension", 2.5), "'dimension'"),
    (_set("step", 1.7, message=0), "'step'"),
    (_set("step", "1", message=0), "'step'"),
    (_set("outcome_index", True, message=2), "'outcome_index'"),
    (_set("outcome_index", 0.5, message=7), "'outcome_index'"),
    (_set("status", "running"), "'running'"),
    (_set("kind", 5, message=1), "'kind' must be a string"),
    (_set("basis_label", None, message=6), "'basis_label' must be a string"),
    (_set("outcome_index", 99, message=0), "out of range for dimension 3"),
    (_set("outcome_index", 3, message=5), "out of range for dimension 3"),
    (_set("outcome_index", -1, message=4), "out of range for dimension 3"),
    # the export announces n = k = 2 consistently, so only the range check rejects it
    (_set("dimension", 2), "message 2 outcome_index 2 is out of range for dimension 2"),
    (_set("dimension", -4), "at least 2"),
    (_set("dimension", 1), "at least 2"),
    (_set("step", -2, message=3), "at least 1"),
    (_set("step", 0, message=0), "at least 1"),
]
MALFORMED_IDS = [
    "list-document", "number-document", "missing-dimension", "missing-status",
    "missing-messages", "number-messages", "object-messages", "empty-message",
    "number-message", "missing-outcome-index", "boolean-version",
    "boolean-dimension", "fractional-dimension", "fractional-step", "string-step",
    "boolean-outcome-index", "fractional-outcome-index", "running-status",
    "number-kind", "null-basis-label", "outcome-index-99", "outcome-index-at-dimension",
    "negative-outcome-index", "outcomes-past-dimension-2", "negative-dimension",
    "dimension-1", "negative-step", "zero-step",
]

NON_PARTIES = ["eve", "Alice", ["alice"], None, 1]
# each exported message in order: (from, to, step, basis_label, the outcome it announces)
EXPORT_ROUTES = (
    ("alice", "bob", 1, "A2", "l"), ("alice", "charlie", 1, "A2", "l"),
    ("bob", "alice", 1, "B1", "n"), ("bob", "charlie", 1, "B1", "n"),
    ("charlie", "alice", 2, "C1", "m"), ("charlie", "alice", 2, "C2", "k"),
    ("charlie", "bob", 2, "C1", "m"), ("charlie", "bob", 2, "C2", "k"),
)
# the same cases with every non-party name in message 4's `from` and `to`
ALL_REJECTED = MALFORMED + [
    (_set(key, value, message=4), f"message 4 field '{key}' names no party")
    for key in ("from", "to")
    for value in NON_PARTIES
]
ALL_REJECTED_IDS = MALFORMED_IDS + [
    f"{key}-{value}" for key in ("from", "to") for value in NON_PARTIES
]


def _swap(i, j):
    """Edit of an exported document: swap messages i and j."""
    def edit(doc):
        msgs = doc["messages"]
        msgs[i], msgs[j] = msgs[j], msgs[i]
        return doc
    return edit


# (edit, the one-line ValueError) for well-formed documents export cannot write; the
# completed N=3 export they edit announces l, n, m, k = 0, 2, 0, 2
NOT_EXPORTS = {
    "extra-document-key": (_set("note", "x"), "transcript document has an extra key 'note'"),
    "extra-message-key": (
        _set("note", 1, message=3), "transcript message 3 has an extra key 'note'"
    ),
    "bogus-kind": (
        _set("kind", "bogus", message=2),
        "transcript message 2 field 'kind' is 'bogus' where an export writes 'outcome'",
    ),
    "step-9": (
        _set("step", 9, message=6),
        "transcript message 6 field 'step' is 9 where an export writes 2",
    ),
    "step-2-label-on-step-1": (
        _set("basis_label", "C1", message=1),
        "transcript message 1 field 'basis_label' is 'C1' where an export writes 'A2'",
    ),
    "to-own-sender": (
        _set("to", "alice", message=0),
        "transcript message 0 field 'to' is 'alice' where an export writes 'bob'",
    ),
    "swapped-messages": (
        _swap(2, 5),
        "transcript message 2 field 'from' is 'charlie' where an export writes 'bob'",
    ),
    "outcome-announced-twice-differently": (
        _set("outcome_index", 1, message=1),
        "transcript message 1 field 'outcome_index' is 1 where an export writes 0",
    ),
    "aborted-with-8": (
        _set("status", "aborted"),
        "transcript status 'aborted' has 8 messages; an export writes 4",
    ),
    "completed-with-4": (
        lambda doc: {**doc, "messages": doc["messages"][:4]},
        "transcript status 'completed' has 4 messages; an export writes 8",
    ),
}


class TestTranscript:
    def test_completed_has_eight_announcements_in_step_order(self, qutrit_pair):
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=True, seed=3)
        ses.run_to_completion()
        assert len(ses.transcript) == 8
        steps = [m.step for m in ses.transcript]
        assert steps == sorted(steps)
        assert all(m.kind == "outcome" for m in ses.transcript)
        routes = [(m.sender, m.receiver) for m in ses.transcript]
        assert routes == [
            (PartyId.ALICE, PartyId.BOB),
            (PartyId.ALICE, PartyId.CHARLIE),
            (PartyId.BOB, PartyId.ALICE),
            (PartyId.BOB, PartyId.CHARLIE),
            (PartyId.CHARLIE, PartyId.ALICE),
            (PartyId.CHARLIE, PartyId.ALICE),
            (PartyId.CHARLIE, PartyId.BOB),
            (PartyId.CHARLIE, PartyId.BOB),
        ]

    def test_steps_non_decreasing_per_sender(self, qutrit_pair):
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=True, seed=4)
        ses.run_to_completion()
        by_sender = {}
        for m in ses.transcript:
            assert m.step >= by_sender.get(m.sender, 0)
            by_sender[m.sender] = m.step

    def test_outcome_indices_in_range(self, qutrit_pair):
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=True, seed=6)
        ses.run_to_completion()
        assert all(0 <= m.outcome_index < 3 for m in ses.transcript)

    def test_export_schema_and_roundtrip(self, qutrit_pair):
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=True, seed=8)
        ses.run_to_completion()
        text = export_transcript(ses)
        doc = json.loads(text)
        assert doc["version"] == 1
        assert doc["dimension"] == 3
        assert doc["status"] == "completed"
        assert list(doc["messages"][0]) == [
            "from", "to", "step", "kind", "basis_label", "outcome_index",
        ]
        restored = import_transcript(text)
        assert restored.status is SessionStatus.COMPLETED
        assert restored.messages == tuple(ses.transcript)

    def test_aborted_export(self, qutrit_pair):
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=False, seed=8)
        ses.advance()
        ses.advance()
        doc = json.loads(export_transcript(ses))
        assert doc["status"] == "aborted"
        assert len(doc["messages"]) == 4

    def test_export_of_running_session_raises(self, qutrit_pair):
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=True, seed=8)
        ses.advance()
        with pytest.raises(RuntimeError, match="running"):
            export_transcript(ses)

    @staticmethod
    def _exported(qutrit_pair) -> dict:
        ses = new_session(*qutrit_pair, 3, charlie_consents=True, seed=8)
        ses.run_to_completion()
        return json.loads(export_transcript(ses))

    @pytest.mark.parametrize("edit, match", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_import_raises_value_error(self, qutrit_pair, edit, match):
        text = json.dumps(edit(self._exported(qutrit_pair)))
        with pytest.raises(ValueError, match=match):
            import_transcript(text)

    @pytest.mark.parametrize("key", ["from", "to"])
    @pytest.mark.parametrize("value", NON_PARTIES)
    def test_import_rejects_unknown_parties(self, qutrit_pair, key, value):
        text = json.dumps(_set(key, value, message=4)(self._exported(qutrit_pair)))
        with pytest.raises(ValueError, match=f"message 4 field '{key}' names no party"):
            import_transcript(text)

    def test_import_reads_integral_floats_as_ints(self, qutrit_pair):
        doc = self._exported(qutrit_pair)
        doc["dimension"], doc["messages"][0]["step"] = 3.0, 1.0
        restored = import_transcript(json.dumps(doc))
        assert type(restored.dimension) is int and type(restored.messages[0].step) is int
        assert restored == import_transcript(json.dumps(self._exported(qutrit_pair)))

    @staticmethod
    def _uncached_import(serialized: str) -> TranscriptDocument:
        # the former import_transcript body, every field of every message checked on each
        # read, then the rejection of anything export_transcript cannot write
        where = "transcript document"
        doc = _json_object(json.loads(serialized), where)
        try:
            version = _json_integer(doc["version"], "version", where)
            if version != 1:
                raise ValueError(f"unsupported transcript version {version!r}")
            dimension = _json_integer(doc["dimension"], "dimension", where)
            if dimension < 2:
                raise ValueError(f"transcript dimension must be at least 2, got {dimension}")
            status = SessionStatus(doc["status"])
            if status is SessionStatus.RUNNING:
                raise ValueError("transcript status is 'running'; only terminal sessions export")
            if not isinstance(doc["messages"], list):
                raise ValueError(
                    f"transcript messages must be a JSON list, got {doc['messages']!r}"
                )
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
            for key in doc:
                if key not in ("version", "dimension", "status", "messages"):
                    raise ValueError(f"transcript document has an extra key {key!r}")
            count = 4 if status is SessionStatus.ABORTED else 8
            if len(messages) != count:
                raise ValueError(
                    f"transcript status {status.value!r} has {len(messages)} messages;"
                    f" an export writes {count}"
                )
            drawn = {}  # each outcome as its first announcement gives it
            for msg, route in zip(messages, EXPORT_ROUTES):
                drawn.setdefault(route[-1], msg.outcome_index)
            for i, (m, (sender, receiver, step, label, slot)) in enumerate(
                zip(doc["messages"], EXPORT_ROUTES)
            ):
                want = {"from": sender, "to": receiver, "step": step, "kind": "outcome",
                        "basis_label": label, "outcome_index": drawn[slot]}
                for key in m:
                    if key not in want:
                        raise ValueError(f"transcript message {i} has an extra key {key!r}")
                for key, value in want.items():
                    if m[key] != value:
                        raise ValueError(
                            f"transcript message {i} field {key!r} is {m[key]!r}"
                            f" where an export writes {value!r}"
                        )
        except KeyError as exc:
            raise ValueError(f"{where} has no {exc.args[0]!r} field") from None
        return TranscriptDocument(version, dimension, status, tuple(messages))

    @classmethod
    def _outcome(cls, read, text: str) -> str:
        """repr of what `read` returns for `text`, or its exception's type and message."""
        try:
            return repr(read(text))
        except Exception as exc:  # compared, not handled: any type must match
            return f"{type(exc).__name__}: {exc}"

    @pytest.mark.parametrize("edit, match", ALL_REJECTED, ids=ALL_REJECTED_IDS)
    def test_warm_cache_keeps_each_error_message(self, qutrit_pair, edit, match):
        # a valid import first: nothing it leaves behind may change an error message
        import_transcript(json.dumps(self._exported(qutrit_pair)))
        text = json.dumps(edit(self._exported(qutrit_pair)))
        with pytest.raises(ValueError, match=match) as caught:
            import_transcript(text)
        assert f"ValueError: {caught.value}" == self._outcome(self._uncached_import, text)

    def test_import_equals_uncached_reader_on_random_edits(self, qutrit_pair):
        # several fields per document set to values that compare or hash alike, or
        # cannot be hashed, or deleted: the first bad field in order must be named
        base = self._exported(qutrit_pair)
        values = [True, False, 1, 1.0, 0, 0.0, -1, 2.5, 99, "1", "alice", "bob", "eve",
                  "outcome", "A2", None, ["alice"], {}, []]
        keys = ["from", "to", "step", "kind", "basis_label", "outcome_index"]
        rng = np.random.default_rng(24)
        for _ in range(600):
            doc = json.loads(json.dumps(base))
            for _ in range(int(rng.integers(1, 4))):
                msg = doc["messages"][int(rng.integers(8))]
                key = keys[int(rng.integers(6))]
                if rng.random() < 0.2:
                    msg.pop(key, None)
                else:
                    msg[key] = values[int(rng.integers(len(values)))]
            text = json.dumps(doc)
            assert self._outcome(import_transcript, text) == self._outcome(
                self._uncached_import, text
            )

    def test_cached_one_keeps_true_rejected_and_float_read_as_int(self, qutrit_pair):
        import_transcript(json.dumps(self._exported(qutrit_pair)))
        for key in ("step", "outcome_index"):
            doc = self._exported(qutrit_pair)
            # messages 0 and 1 are both step 1 and both announce l, so setting the
            # two together keeps the document one that export can write
            pair = doc["messages"][:2]
            for msg in pair:
                msg[key] = 1
            assert getattr(import_transcript(json.dumps(doc)).messages[0], key) == 1
            for msg in pair:
                msg[key] = True
            with pytest.raises(ValueError, match=f"message 0 field '{key}' must be an integer"):
                import_transcript(json.dumps(doc))
            for msg in pair:
                msg[key] = 1.0
            restored = import_transcript(json.dumps(doc)).messages[0]
            assert type(getattr(restored, key)) is int and getattr(restored, key) == 1

    @pytest.mark.parametrize("value", [["alice"], {}])
    @pytest.mark.parametrize(
        "key", ["from", "to", "step", "kind", "basis_label", "outcome_index"]
    )
    def test_unhashable_field_raises_value_error(self, qutrit_pair, key, value):
        text = json.dumps(_set(key, value, message=2)(self._exported(qutrit_pair)))
        with pytest.raises(ValueError, match=f"message 2 field '{key}'"):
            import_transcript(text)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_import_of_an_export_returns_its_messages(self, n):
        rng = np.random.default_rng(2600 + n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        for seed in range(20):
            for consents in (True, False):
                ses = new_session(alice, bob, n, charlie_consents=consents, seed=seed)
                ses.run_to_completion()
                doc = import_transcript(export_transcript(ses))
                assert (doc.version, doc.dimension, doc.status) == (1, n, ses.status)
                assert len(doc.messages) == len(ses.transcript) == (8 if consents else 4)
                assert all(a is b for a, b in zip(doc.messages, ses.transcript))

    def test_an_export_imports_without_json_loads(self, qutrit_pair, monkeypatch):
        sessions = [new_session(*qutrit_pair, 3, c, seed=8) for c in (True, False)]
        texts = []
        for ses in sessions:
            ses.run_to_completion()
            texts.append(export_transcript(ses))
        compact = json.dumps(json.loads(texts[0]))

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads was called")

        monkeypatch.setattr(session_module.json, "loads", refuse)
        for ses, text in zip(sessions, texts):
            assert import_transcript(text).messages == tuple(ses.transcript)
        with pytest.raises(AssertionError, match="json.loads was called"):
            import_transcript(compact)  # any other text is parsed

    @pytest.mark.parametrize(
        "options",
        [{}, {"indent": 4}, {"separators": (",", ":")}, {"indent": "\t", "sort_keys": True}],
        ids=["default", "indent-4", "compact", "tabs-sorted-keys"],
    )
    def test_reencoded_export_imports(self, qutrit_pair, options):
        for consents in (True, False):
            ses = new_session(*qutrit_pair, 3, charlie_consents=consents, seed=8)
            ses.run_to_completion()
            text = export_transcript(ses)
            restored = import_transcript(json.dumps(json.loads(text), **options))
            assert restored == import_transcript(text)
            assert restored.messages == tuple(ses.transcript)
        assert import_transcript(text.encode()) == import_transcript(text)

    def test_reencoded_export_reads_every_message(self, qutrit_pair, monkeypatch):
        ses = new_session(*qutrit_pair, 3, seed=8)
        ses.run_to_completion()
        doc = json.loads(export_transcript(ses))
        calls = []
        read = session_module._outcome_index
        monkeypatch.setattr(
            session_module, "_outcome_index", lambda *args: calls.append(args) or read(*args)
        )
        restored = import_transcript(json.dumps(doc))
        assert [args[0] for args in calls] == list(range(8))
        assert all(a is b for a, b in zip(restored.messages, ses.transcript, strict=True))
        doc["messages"][3]["step"] = 1.0  # an integral float reads as an int
        assert import_transcript(json.dumps(doc)) == restored
        assert len(calls) == 16

    @pytest.mark.parametrize("indent", [None, 2], ids=["compact", "export-layout"])
    @pytest.mark.parametrize("name", sorted(NOT_EXPORTS))
    def test_import_rejects_what_export_cannot_write(self, qutrit_pair, name, indent):
        edit, message = NOT_EXPORTS[name]
        text = json.dumps(edit(self._exported(qutrit_pair)), indent=indent) + "\n"
        with pytest.raises(ValueError) as caught:
            import_transcript(text)
        assert str(caught.value) == message
        assert f"ValueError: {message}" == self._outcome(self._uncached_import, text)

    def test_equal_announcements_are_one_object(self, qutrit_pair):
        first, second = (new_session(*qutrit_pair, 3, seed=8) for _ in range(2))
        first.run_to_completion()
        second.run_to_completion()
        assert len(first.transcript) == 8
        assert all(a is b for a, b in zip(first.transcript, second.transcript))

    @staticmethod
    def _uncached_export(session) -> str:
        # the former export_transcript body: one json.dumps of the whole document
        doc = {
            "version": 1,
            "dimension": session.n,
            "status": session.status.value,
            "messages": [
                {
                    "from": msg.sender.value,
                    "to": msg.receiver.value,
                    "step": msg.step,
                    "kind": msg.kind,
                    "basis_label": msg.basis_label,
                    "outcome_index": msg.outcome_index,
                }
                for msg in session.transcript
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def test_export_matches_uncached_encoder(self):
        rng = np.random.default_rng(55)
        for n in range(2, 17):
            alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
            for seed in range(20):
                ses = new_session(alice, bob, n, charlie_consents=seed % 4 != 0, seed=seed)
                ses.run_to_completion()
                assert export_transcript(ses) == self._uncached_export(ses)

    def test_export_keeps_equal_values_of_other_types_apart(self, qutrit_pair):
        # True == 1 == 1.0 and they hash alike, but json writes true, 1 and 1.0
        ses = new_session(*qutrit_pair, 3, charlie_consents=True, seed=8)
        ses.run_to_completion()
        first = ses.transcript[0]
        for value in (1, True, 1.0, 1, np.True_):
            ses.transcript[0] = dataclasses.replace(first, step=value, outcome_index=value)
            if value is np.True_:
                with pytest.raises(TypeError):
                    export_transcript(ses)
            else:
                assert export_transcript(ses) == self._uncached_export(ses)
        ses.transcript[0] = first
        ses.n = 3.0
        assert export_transcript(ses) == self._uncached_export(ses)


class TestDecline:
    def test_abort_at_step_two(self, qutrit_pair):
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=False, seed=21)
        assert ses.advance() is SessionStatus.RUNNING
        assert ses.advance() is SessionStatus.ABORTED
        assert len(ses.transcript) == 4
        with pytest.raises(RuntimeError, match="did not complete"):
            ses.result()

    def test_abort_draws_nothing(self, qutrit_pair):
        # the consent check comes before the controller's draws
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=False, seed=23)
        fresh = ses._rng.bit_generator.state
        ses.advance()
        after_senders = ses._rng.bit_generator.state
        assert after_senders != fresh
        assert ses.advance() is SessionStatus.ABORTED
        assert ses._rng.bit_generator.state == after_senders

    def test_aborted_outcome_tuple_raises(self, qutrit_pair):
        # m and k were never measured, so no outcome tuple exists
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=False, seed=21)
        ses.run_to_completion()
        with pytest.raises(RuntimeError, match="aborted"):
            ses.outcome_tuple()

    def test_leftover_qudit_is_maximally_mixed(self, qutrit_pair):
        # without the controller's help the reduced state at A1 averages to
        # the flat mixture, so every pure target scores exactly 1/sqrt(N)
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=False, seed=22)
        ses.advance()
        ses.advance()
        rho_a1 = reduced_density(ses.legs[0], 0)
        np.testing.assert_allclose(rho_a1, np.eye(3) / 3, atol=1e-10)
        for target in (equatorial_state(bob), equatorial_state(alice)):
            assert fidelity_density(target, rho_a1) == pytest.approx(
                1 / np.sqrt(3), abs=1e-10
            )

    def test_leftover_b2_also_mixed(self, qutrit_pair):
        alice, bob = qutrit_pair
        ses = new_session(alice, bob, 3, charlie_consents=False, seed=23)
        ses.advance()
        ses.advance()
        # legs after step 1 are (A1, C1) and (B2, C2)
        rho_b2 = reduced_density(ses.legs[1], 0)
        np.testing.assert_allclose(rho_b2, np.eye(3) / 3, atol=1e-10)


class TestMeasurementOrder:
    def test_sender_measurements_commute(self, qutrit_pair):
        # serializing A2-then-B1 or B1-then-A2 leaves the same joint state
        alice, bob = qutrit_pair
        channel = tensor(ghz_state(3), ghz_state(3))
        va = sender_basis(alice).vectors[2]
        vb = sender_basis(bob).vectors[1]
        p1, s1 = project(channel, va, 3)
        p2, s1 = project(s1, vb, 1)
        q1, s2 = project(channel, vb, 1)
        q2, s2 = project(s2, va, 2)  # A2 shifts left once B1 is removed
        assert p1 * p2 == pytest.approx(q1 * q2, abs=1e-12)
        np.testing.assert_allclose(s1.amplitudes, s2.amplitudes, atol=1e-12)
