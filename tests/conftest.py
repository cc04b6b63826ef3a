"""Shared fixtures; the expensive noise sweeps are computed once per run.

Hypothesis draws the same examples on every run (the `derandomized`
profile loaded here), so two runs execute the same tests and a failure
reproduces. `pytest --hypothesis-profile=default` draws new examples
instead.
"""

import numpy as np
import pytest
from hypothesis import settings

from bcrsp.noise import NoiseKind, noisy_protocol_run, run_fidelities
from bcrsp.protocol import PhaseVector

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

GAMMA_GRID = tuple(np.linspace(0.0, 1.0, 11))


def random_phase_vector(n: int, rng: np.random.Generator) -> PhaseVector:
    return PhaseVector(n, tuple(rng.uniform(0.0, 2.0 * np.pi, n - 1)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def _sweep(kind: NoiseKind) -> dict[float, tuple[float, float]]:
    zero = PhaseVector.zero(4)
    return {
        g: run_fidelities(noisy_protocol_run(zero, zero, 4, kind, g), zero, zero)
        for g in GAMMA_GRID
    }


@pytest.fixture(scope="session")
def quditflip_sweep():
    """Exact (A1, B2) fidelities, zero-phase target, 11-point gamma grid."""
    return _sweep(NoiseKind.QUDIT_FLIP)


@pytest.fixture(scope="session")
def dephasing_sweep():
    return _sweep(NoiseKind.DEPHASING)


@pytest.fixture(scope="session")
def phaseflip_sweep():
    """The shift-and-phase channel, exact over its 10^4 Kraus histories."""
    return _sweep(NoiseKind.QUDIT_PHASE_FLIP)
