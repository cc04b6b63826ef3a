"""Bidirectional controlled remote state preparation over two GHZ channels.

Two parties each hold one qudit of two three-party GHZ states; after four
projective measurements (two by the senders, two by the controller) the
leftover qudits collapse onto phase-shifted copies of the target states,
fixed up by diagonal feed-forward unitaries chosen from the broadcast
outcomes.

The two GHZ states never interact, so the engine runs them as two legs:
A1·B1·C1 carries Bob's state to A1 and B2·A2·C2 carries Alice's state to
B2. A leg sum_a v[a] |a...a> keeps that form when any of its qudits is
measured in any basis: projecting on the bra b leaves sum_a b[a] v[a]
|a...a>. So each leg is carried as its diagonal v, a length-N vector
starting at 1/sqrt(N); a projected slot is one elementwise product, and
the leg ends as the kept qudit's amplitudes.

A leg's outcome is the pair (s, t) of its sender's and controller's
indices, (n, m) on A1's leg and (l, k) on B2's, and the leg's result
depends on its target and (s, t) alone: the N^4 outcome tuples hold 2N^2
leg results per target pair. What is precomputed for a target lives on
its `_TargetRecord`, one per target in `_TARGETS`, a cache bounded by
TARGET_CACHE_BYTES. The sender's slot acts on a fresh GHZ leg, so the
record's `leg` projects it for every s once; the record's `outcomes` keeps
the controller's half, entry by entry on first use: for (s, t), the
controller's probability, the kept diagonal, the corrected output and the
recovered flag, each computed once and read-only. Every run (forced,
sampled, a session's corrections) and `outcome_probability` on the zero
target read one entry per leg (`_legs`) and project nothing once the
entries exist. A sampled run first draws its outcome tuple from the
record's `born` CDFs: one `rng.random()` and one O(log N) search per slot,
in protocol order. A `ProtocolResult` keeps its entries' raw arrays and
builds each validated `StateVector` view only when it is first read. The
bras are read-only rows of `phase_table`, conjugated and, for a sender,
shifted by the target's phases; `sender_basis` and `fourier_basis` are
their validated views, which no run, session or check builds. The
six-qudit order (A1, B1, C1, A2, B2, C2) is used only by `channel_state`,
which keeps nothing.
"""

from __future__ import annotations

import functools
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import (
    _PRUNE_EPS,
    ATOL,
    MeasurementBasis,
    Operator,
    StateVector,
    _invert_cdf,
    born_cdf,
    same_ray,
    tensor,
)

# The four measurements in protocol order, each with the leg it acts on:
# leg 0 is A1·B1·C1 and leg 1 is B2·A2·C2, both as (kept, sender, controller).
PROTOCOL_ORDER = (("l", 1), ("n", 0), ("m", 0), ("k", 1))


def _check_dimension(n: int) -> None:
    """Reject a qudit dimension below 2."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")


@dataclass(frozen=True)
class PhaseVector:
    """The N-1 free phases of an equal-amplitude qudit state (phase 0 on |0>)."""

    dim: int
    phases: tuple[float, ...]

    def __post_init__(self):
        phases = tuple(float(p) for p in self.phases)
        _check_dimension(self.dim)
        if len(phases) != self.dim - 1:
            raise ValueError(
                f"need {self.dim - 1} phases for dimension {self.dim}, got {len(phases)}"
            )
        if not all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        object.__setattr__(self, "phases", phases)
        # the caches keyed by a target hash it several times per run; hash the phases once
        object.__setattr__(self, "_hash", hash((self.dim, phases)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so the stored hash is recomputed, never pickled
        return PhaseVector, (self.dim, self.phases)

    def full(self) -> np.ndarray:
        """All N phases including the implicit leading zero."""
        return np.concatenate(([0.0], self.phases))

    @staticmethod
    def zero(dim: int) -> "PhaseVector":
        return PhaseVector(dim, (0.0,) * (dim - 1))


@dataclass(frozen=True)
class OutcomeTuple:
    """Outcome indices: l on A2, n on B1, m on C1, k on C2."""

    l: int
    n: int
    m: int
    k: int

    def validate(self, dim: int) -> None:
        for name, v in (("l", self.l), ("n", self.n), ("m", self.m), ("k", self.k)):
            # a bool would index the outcome tables as a mask
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"outcome index {name}={v!r} is not an integer")
            if not 0 <= v < dim:
                raise ValueError(f"outcome index {name}={v} out of range for dim {dim}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.l, self.n, self.m, self.k)


@dataclass(frozen=True)
class CorrectionRule:
    """Feed-forward indices: U_{a1_index} on A1 and U_{b2_index} on B2."""

    a1_index: int
    b2_index: int


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """One run: the outcome tuple, its probability, the corrections and whether
    both targets were recovered.

    The one-qudit remainders of A1 and B2 before correction and the
    corrected outputs are kept as raw read-only amplitude arrays (the `_amps`
    fields), the ones the targets' outcome entries hold. `a1_before`,
    `b2_before`, `alice_final` and `bob_final` are their `StateVector` views,
    validated and built on first read and then kept
    (`functools.cached_property`), so a run whose caller reads only
    `recovered` builds none.
    """

    outcome: OutcomeTuple
    probability: float
    corrections: CorrectionRule
    a1_before_amps: np.ndarray
    b2_before_amps: np.ndarray
    alice_final_amps: np.ndarray
    bob_final_amps: np.ndarray
    recovered: tuple[bool, bool]

    @functools.cached_property
    def a1_before(self) -> StateVector:
        return StateVector(self.a1_before_amps.shape, self.a1_before_amps)

    @functools.cached_property
    def b2_before(self) -> StateVector:
        return StateVector(self.b2_before_amps.shape, self.b2_before_amps)

    @functools.cached_property
    def alice_final(self) -> StateVector:
        return StateVector(self.alice_final_amps.shape, self.alice_final_amps)

    @functools.cached_property
    def bob_final(self) -> StateVector:
        return StateVector(self.bob_final_amps.shape, self.bob_final_amps)


def correction_indices(l: int, n: int, m: int, k: int, dim: int) -> tuple[int, int]:
    """The feed-forward rule of outcome (l, n, m, k): U_{m+n} on A1 (C1 with
    B1) and U_{k+l} on B2 (C2 with A2), indices mod `dim`.

    The one body of the rule: runs, sessions, `correction_rows` and
    `build_correction_table` all read it.
    """
    return (m + n) % dim, (k + l) % dim


def _check_dims(alice: PhaseVector, bob: PhaseVector, n: int, owner: str = "protocol") -> None:
    """Reject targets whose dimension is not the run's `n`; `owner` names the run."""
    if alice.dim != n or bob.dim != n:
        raise ValueError(f"phase vectors have dims {alice.dim}/{bob.dim}, {owner} dim is {n}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=64)
def phase_table(n: int) -> np.ndarray:
    """Read-only u[p, j] = e^{i 2 pi j p / N}, with the angle reduced mod 2 pi.

    Row p is the diagonal of U_p and sqrt(N) times the Fourier vector tau-bar_p.
    """
    j = np.arange(n)
    return _read_only(np.exp(2j * np.pi * (np.outer(j, j) % n) / n))


def equatorial_state(p: PhaseVector) -> StateVector:
    """(1/sqrt(N)) sum_j e^{i theta_j} |j>; the target record's frozen, read-only `state`."""
    return _TARGETS[p].state


def _diagonal_tensor(diagonal: np.ndarray, slots: int) -> np.ndarray:
    """Amplitudes of sum_a diagonal[a] |a...a> on `slots` qudits, shape (N,)*slots."""
    n = len(diagonal)
    amps = np.zeros(n**slots, dtype=complex)
    # |a...a> sits at a * (1 + N + ... + N^(slots-1))
    amps[np.arange(n) * ((n**slots - 1) // (n - 1))] = diagonal
    return amps.reshape((n,) * slots)


@functools.lru_cache(maxsize=64)
def _ghz_diagonal(n: int) -> np.ndarray:
    """Read-only diagonal of a fresh GHZ leg: 1/sqrt(N) on every |aaa>."""
    return _read_only(np.full(n, 1.0 / np.sqrt(n), dtype=complex))


def leg_state(diagonal: np.ndarray, slots: int) -> StateVector:
    """A leg carried as its diagonal, as a state of its `slots` remaining qudits."""
    n = len(diagonal)
    return StateVector((n,) * slots, _diagonal_tensor(diagonal, slots).reshape(-1))


def ghz_state(n: int) -> StateVector:
    """(1/sqrt(N)) sum_j |jjj> on three qudits."""
    _check_dimension(n)
    return leg_state(_ghz_diagonal(n), 3)


@functools.lru_cache(maxsize=64)
def _fourier_bras(n: int) -> np.ndarray:
    """Read-only conjugated rows of fourier_basis(n)."""
    _check_dimension(n)
    return _read_only(np.conj(phase_table(n) / np.sqrt(n)))


def _basis(bras: np.ndarray) -> MeasurementBasis:
    """The validated basis whose vectors are the conjugated `bras`."""
    n = len(bras)
    return MeasurementBasis(n, tuple(StateVector((n,), ket) for ket in bras.conj()))


# a cached basis holds 16 N^2 bytes of amplitudes and under 512 N of
# StateVector objects, so 15 bases at N = 1024 fit TARGET_CACHE_BYTES
@functools.lru_cache(maxsize=15)
def sender_basis(p: PhaseVector) -> MeasurementBasis:
    """Measurement family tau_l = (1/sqrt(N)) sum_j e^{i 2pi jl/N} e^{-i theta_j} |j>."""
    return _basis(_TARGETS[p].bras)


@functools.lru_cache(maxsize=64)
def fourier_basis(n: int) -> MeasurementBasis:
    """tau-bar_k = (1/sqrt(N)) sum_j e^{i 2pi jk/N} |j> (the controller's basis)."""
    return _basis(_fourier_bras(n))


def correction_unitary(k: int, n: int) -> Operator:
    """Diagonal U_k = sum_j e^{i 2pi jk/N} |j><j|."""
    _check_dimension(n)
    if not 0 <= k < n:
        raise ValueError(f"correction index {k} out of range for dim {n}")
    return Operator(np.diag(phase_table(n)[k]), unitary=True)


def _collapsed_rows(p: PhaseVector) -> np.ndarray:
    """Row idx: the post-measurement remainder with e^{-i 2pi j idx/N} alongside
    the target phases.

    The exponent sign is the one that makes correction_unitary(idx) map row
    idx back onto equatorial_state(p). The rows equal the record's `bras` bit
    for bit, but the decomposition check derives them here on its own: read
    against the conjugate of the matrix it expands in, a sign error in the
    target phases would cancel out of the check.
    """
    return np.conj(phase_table(p.dim)) * np.exp(1j * p.full()) / np.sqrt(p.dim)


@functools.lru_cache(maxsize=0)
def channel_state(n: int) -> StateVector:
    """The full resource: GHZ on (A1,B1,C1) tensor GHZ on (A2,B2,C2).

    Built anew on every call and never kept: it holds N^6 amplitudes (268 MB
    at N = 16) and no engine path reads it. The zero-size `lru_cache` stays
    only because `perfbench/tracer.py` reads its `cache_info()`.
    """
    return tensor(ghz_state(n), ghz_state(n))


def _project_leg(diagonal: np.ndarray, bra: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
    """Measure one slot of a leg onto `bra`: (probability, renormalized diagonal).

    The diagonal is None when the probability vanishes.
    """
    remainder = bra * diagonal
    prob = float(np.vdot(remainder, remainder).real)
    if prob <= _PRUNE_EPS:
        return 0.0, None
    return prob, remainder / np.sqrt(prob)


TARGET_CACHE_BYTES = 256 * 2**20  # three records at N = 1024, the CLI's ceiling


def _record_charge(n: int) -> int:
    """Worst-case bytes of a record without outcome entries: 72 N^2 + 32 N of
    arrays with every part built, 32 N of its key's phases and 2 KiB of other
    Python objects."""
    return 72 * n * n + 64 * n + 2048


def _entry_charge(n: int) -> int:
    """Worst-case bytes of one outcome entry: its two N-vectors, 32 N, and
    512 bytes of Python objects (the entry and key tuples, the probability,
    the array headers, two int keys above 256 and its share of the dict);
    the dict's first table is within the record's 2 KiB."""
    return 32 * n + 512


class _TargetRecord:
    """Everything precomputed for one target, each part built on first read and
    read-only. `bras` are the conjugated rows of sender_basis(target); `leg`
    and `born` hold the sender half of the outcome table of a leg whose sender
    holds the target, and `outcomes` its controller half, entry by entry."""

    def __init__(self, target: PhaseVector):
        self.target = target
        # (s, t) -> (p_t, kept, corrected, recovered); see `outcome`
        self.outcomes: dict[tuple[int, int], tuple] = {}

    def charge(self) -> int:
        n = self.target.dim
        return _record_charge(n) + len(self.outcomes) * _entry_charge(n)

    def outcome(self, s: int, t: int, u: int) -> tuple[float, np.ndarray, np.ndarray, bool]:
        """Entry (s, t) of the leg: the controller's probability p_t after the
        sender's s, the kept diagonal, the output corrected by U_u and whether
        it is the target's ray. `u` is the leg's correction index of (s, t),
        read only when the entry is built.

        Each entry is built once, by one `_project_leg` call, the product
        with row u of `phase_table` and one `same_ray` check, so its floats
        are those of the leg projected and corrected slot by slot, bit for
        bit; it is then read-only and kept while `_TARGETS` holds the record.
        """
        entry = self.outcomes.get((s, t))
        if entry is None:
            n = self.target.dim
            p_t, kept = _project_leg(self.leg[1][s], _fourier_bras(n)[t])
            corrected = phase_table(n)[u] * kept
            recovered = same_ray(corrected, self.state.amplitudes)
            entry = (p_t, _read_only(kept), _read_only(corrected), recovered)
            _TARGETS.keep(self, (int(s), int(t)), entry)
        return entry

    @functools.cached_property
    def state(self) -> StateVector:
        p = self.target
        return StateVector((p.dim,), np.exp(1j * p.full()) / np.sqrt(p.dim))

    @functools.cached_property
    def bras(self) -> np.ndarray:
        p = self.target
        return _read_only(np.conj(phase_table(p.dim) * np.exp(-1j * p.full()) / np.sqrt(p.dim)))

    @functools.cached_property
    def leg(self) -> tuple[np.ndarray, np.ndarray]:
        """(sender_probs (N,), after (N, N)): the fresh GHZ diagonal projected on
        the sender's bra s, by the `_project_leg` call a slot-by-slot run
        makes, is after[s] with probability sender_probs[s], bit for bit.
        Every bra has entries of modulus 1/sqrt(N), so none vanishes."""
        n = self.target.dim
        ghz = _ghz_diagonal(n)
        sender_probs = np.empty(n)
        after = np.empty((n, n), dtype=complex)
        for s, bra in enumerate(self.bras):
            sender_probs[s], after[s] = _project_leg(ghz, bra)
        return _read_only(sender_probs), _read_only(after)

    @functools.cached_property
    def born(self) -> tuple[np.ndarray, np.ndarray]:
        """(sender_cdf (N,), controller_cdf (N, N)): the sender's slot on the
        fresh GHZ leg, and in row s the controller's on `leg`'s after[s]. Each
        row is the matvec |bras|^2 @ |v|^2 a per-draw Born draw computes, so
        the CDFs hold the floats `born_draw` would invert, bit for bit; the
        controller's rows are one matmul against a stack of N column vectors,
        which numpy runs as N matvecs (one (N, N) product rounds differently)."""
        n = self.target.dim
        # row 0 is the sender's slot, row 1 + s the controller's after s
        probs = np.empty((n + 1, n))
        probs[0] = np.abs(self.bras) ** 2 @ np.abs(_ghz_diagonal(n)) ** 2
        columns = (np.abs(self.leg[1]) ** 2)[:, :, None]
        np.matmul(np.abs(_fourier_bras(n)) ** 2, columns, out=probs[1:, :, None])
        cdfs = _read_only(born_cdf(probs))
        return cdfs[0], cdfs[1:]

    @functools.cached_property
    def pieces(self) -> np.ndarray:
        """(rho_t, circ(rho_t)) of amplitudes x: rho_t = x x+ and
        circ(rho_t)[a, q] = c[q-a], with c[d] = sum_j x[j] conj(x[j+d])."""
        p = self.target
        x = self.state.amplitudes
        wrap = -np.subtract.outer(np.arange(p.dim), np.arange(p.dim)) % p.dim  # (q-a) mod N
        c = (x @ x.conj()[wrap.T])[wrap[:, 0]]
        pieces = np.stack((np.outer(x, x.conj()), c[wrap]))
        # a fused multiply-add can leave A+ an ulp from A; the mean is exactly Hermitian
        return _read_only((pieces + pieces.conj().transpose(0, 2, 1)) / 2)


class _TargetCache(OrderedDict):
    """PhaseVector -> `_TargetRecord`. A hit is one dict read and reorders
    nothing. A miss charges the new record `_record_charge(N)`, and a new
    outcome entry `_entry_charge(N)`; then the oldest records are evicted,
    never the newest, until `held` <= TARGET_CACHE_BYTES, and if the newest
    alone is over, its entries are dropped."""

    held = 0

    def __missing__(self, target: PhaseVector) -> _TargetRecord:
        record = self[target] = _TargetRecord(target)
        self.held += _record_charge(target.dim)
        self._evict()
        return record

    def keep(self, record: _TargetRecord, key: tuple[int, int], entry: tuple) -> None:
        """Store a new outcome entry on `record` if the cache still holds it."""
        if self.get(record.target) is record:
            record.outcomes[key] = entry
            self.held += _entry_charge(record.target.dim)
            self._evict()

    def _evict(self) -> None:
        while self.held > TARGET_CACHE_BYTES and len(self) > 1:
            _, oldest = self.popitem(last=False)
            self.held -= oldest.charge()
        if self.held > TARGET_CACHE_BYTES and self:
            newest = next(reversed(self.values()))
            self.held -= newest.charge() - _record_charge(newest.target.dim)
            newest.outcomes.clear()

    def clear(self) -> None:
        super().clear()
        self.held = 0


_TARGETS = _TargetCache()


def _draw_senders(
    alice: PhaseVector, bob: PhaseVector, rng: np.random.Generator
) -> tuple[int, int]:
    """Born-draw the senders' (l, n), Alice's A2 then Bob's B1, from the cached CDFs."""
    return _invert_cdf(_TARGETS[alice].born[0], rng), _invert_cdf(_TARGETS[bob].born[0], rng)


def _draw_controller(
    alice: PhaseVector, bob: PhaseVector, l: int, n: int, rng: np.random.Generator
) -> tuple[int, int]:
    """Born-draw the controller's (m, k) after (l, n): C1 on Bob's leg, then C2 on Alice's."""
    return _invert_cdf(_TARGETS[bob].born[1][n], rng), _invert_cdf(_TARGETS[alice].born[1][l], rng)


def _legs(
    alice: PhaseVector, bob: PhaseVector, outcome: OutcomeTuple
) -> tuple[float, tuple[int, int], tuple, tuple]:
    """Joint probability, correction indices and the A1 and B2 outcome entries
    of an outcome tuple: the one path of every run, session and probability.

    A1's leg is indexed by (n, m) and carries Bob's target, B2's by (l, k)
    and Alice's; U_{m+n} corrects A1 and U_{k+l} B2. p_l p_n p_m p_k is
    multiplied in protocol order, so the probability and every array equal
    the four slots projected one by one and then corrected.
    """
    l, n, m, k = outcome.l, outcome.n, outcome.m, outcome.k
    rule = correction_indices(l, n, m, k, alice.dim)
    bob_record, alice_record = _TARGETS[bob], _TARGETS[alice]
    a1 = bob_record.outcome(n, m, rule[0])
    b2 = alice_record.outcome(l, k, rule[1])
    p_l, p_n = float(alice_record.leg[0][l]), float(bob_record.leg[0][n])
    return p_l * p_n * a1[0] * b2[0], rule, a1, b2


def _result(
    alice: PhaseVector,
    bob: PhaseVector,
    outcome: OutcomeTuple,
    probability: Optional[float] = None,
) -> ProtocolResult:
    """The run of `outcome`, read from its two outcome entries; `probability`
    replaces the tuple's joint probability when given. The result's arrays
    are the entries' own read-only N-vectors; no `StateVector` is built."""
    joint, rule, a1, b2 = _legs(alice, bob, outcome)
    return ProtocolResult(
        outcome,
        joint if probability is None else probability,
        CorrectionRule(*rule),
        a1[1],
        b2[1],
        a1[2],
        b2[2],
        (a1[3], b2[3]),
    )


def _drawn_result(alice: PhaseVector, bob: PhaseVector, outcome: OutcomeTuple) -> ProtocolResult:
    """The result of a Born-drawn tuple; every tuple has probability 1/N^4."""
    return _result(alice, bob, outcome, 1.0 / alice.dim**4)


def run_protocol(
    alice: PhaseVector,
    bob: PhaseVector,
    n: int,
    outcome: Optional[OutcomeTuple] = None,
    rng: np.random.Generator | int | None = None,
) -> ProtocolResult:
    """One noiseless protocol run with a forced or Born-sampled outcome tuple.

    Alice's target appears on B2, Bob's on A1; both recovered flags must come
    back true in the noiseless channel.
    """
    _check_dims(alice, bob, n)
    if outcome is None:
        rng = np.random.default_rng(rng)
        senders = _draw_senders(alice, bob, rng)
        controller = _draw_controller(alice, bob, *senders, rng)
        return _drawn_result(alice, bob, OutcomeTuple(*senders, *controller))
    outcome.validate(n)
    return _result(alice, bob, outcome)


def outcome_probability(n: int, outcome: OutcomeTuple) -> float:
    """Joint Born probability of the four measurements in the noiseless run.

    Phases cancel in the probabilities, so any phase choice gives the same
    value; the zero vector is used for both legs.
    """
    outcome.validate(n)
    zero = _zero_target(n)
    return _legs(zero, zero, outcome)[0]


@functools.lru_cache(maxsize=64)
def _zero_target(n: int) -> PhaseVector:
    """PhaseVector.zero(n), validated once per N."""
    return PhaseVector.zero(n)


def all_outcomes(n: int) -> Iterable[OutcomeTuple]:
    return itertools.starmap(OutcomeTuple, itertools.product(range(n), repeat=4))


def correction_rows(n: int) -> list[tuple[int, int, int, int, int, int]]:
    """All N^4 rows (l, n, m, k, a1_index, b2_index) of the feed-forward
    table, in `all_outcomes` order, as plain integers.

    A1 is corrected by U_{m (+) n} (controller's C1 with Bob's B1) and B2 by
    U_{k (+) l} (controller's C2 with Alice's A2).
    """
    _check_dimension(n)
    return [
        (l, b, m, k, *correction_indices(l, b, m, k, n))
        for l, b, m, k in itertools.product(range(n), repeat=4)
    ]


def build_correction_table(n: int) -> dict[OutcomeTuple, CorrectionRule]:
    """All N^4 outcome tuples mapped to their feed-forward rule (`correction_rows`)."""
    return {OutcomeTuple(*row[:4]): CorrectionRule(*row[4:]) for row in correction_rows(n)}


@dataclass(frozen=True)
class DecompositionCheck:
    ok: bool
    max_deviation: float

    def __bool__(self) -> bool:
        return self.ok


def _leg_deviation(target: PhaseVector, n: int) -> float:
    """max |(1/N) sum_{s,t} z~_{s+t} (x) tau_s (x) tau-bar_t - GHZ| on one leg.

    The leg is in (kept, sender, controller) order: s is the sender's outcome
    in sender_basis(target), t the controller's in fourier_basis(n).
    """
    s = np.arange(n)
    kept = _collapsed_rows(target)[(s[:, None] + s[None, :]) % n]
    acc = np.einsum(
        "sta,sb,tc->abc", kept, _TARGETS[target].bras.conj(), _fourier_bras(n).conj()
    ) / n
    return float(np.max(np.abs(acc - _diagonal_tensor(_ghz_diagonal(n), 3))))


def verify_decomposition(alice: PhaseVector, bob: PhaseVector, n: int) -> DecompositionCheck:
    """Check the four-basis expansion of the channel, one GHZ leg at a time.

    The six-qudit identity GHZ (x) GHZ = (1/N^2) sum over all N^4 tuples of
    tau-bar_k (x) tau_l (x) tau-bar_m (x) tau~_n (x) z~_{m+n} (x) z_{k+l}
    factors exactly into one N^2-term identity per leg,
    GHZ = (1/N) sum_{s,t} z~_{s+t} (x) tau_s (x) tau-bar_t: (s, t) = (n, m)
    with Bob's phases on A1·B1·C1 and (l, k) with Alice's on B2·A2·C2.
    Each leg is one einsum against ghz_state(n); max_deviation is the larger
    of the two legs' entrywise deviations, and ok means it is at most ATOL.
    No N^6 array is built.
    """
    _check_dims(alice, bob, n)
    dev = max(_leg_deviation(bob, n), _leg_deviation(alice, n))
    return DecompositionCheck(dev <= ATOL, dev)
