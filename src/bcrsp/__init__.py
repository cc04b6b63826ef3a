"""Simulator and verification suite for bidirectional controlled remote
state preparation of equatorial qudit states in arbitrary dimension."""

from .core import (
    ATOL,
    BranchEnsemble,
    KrausSet,
    MeasurementBasis,
    Operator,
    StateVector,
    apply_on,
    fidelity_density,
    measure,
    project,
    reduced_density,
    tensor,
)
from .noise import (
    NoiseKind,
    OutcomePolicy,
    compare_paper_vs_exact,
    kraus_for,
    noisy_protocol_run,
    paper_fidelity_dephasing,
    paper_fidelity_phaseflip_equatorial,
    run_fidelities,
)
from .optics import (
    BeamSplitter,
    InterferometerNetwork,
    PhaseShifter,
    compose_network,
    correction_circuit,
    ghz_via_cnot,
    paper_network_4d,
    reck_decompose,
    sender_network,
)
from .protocol import (
    CorrectionRule,
    OutcomeTuple,
    PhaseVector,
    ProtocolResult,
    build_correction_table,
    correction_unitary,
    equatorial_state,
    fourier_basis,
    ghz_state,
    outcome_probability,
    run_protocol,
    sender_basis,
    verify_decomposition,
)
from .session import (
    ClassicalMessage,
    PartyId,
    Session,
    SessionStatus,
    export_transcript,
    import_transcript,
    new_session,
)

__version__ = "0.1.0"
