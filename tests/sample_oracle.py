"""Per-draw posterior sampling: the oracle for ``posterior_sample``.

``swag_sample`` forms sigma afresh and draws one SWAG vector per call, and
``sample_list`` builds the draws of every state kind as a Python list, one
vector per draw, with the per-kind default count. The library computes each
Gaussian's ``(loc, std)`` once and fills the rows of one preallocated
matrix; the tests compare the two bit for bit, stream state included.
"""

from __future__ import annotations

import numpy as np

from uqkit.posterior import (
    _LOG_STD_FLOOR,
    AdviState,
    EnsembleState,
    LaplaceState,
    MapState,
    SwagState,
)

MC_SAMPLES = 30


def swag_sample(state: SwagState, rng) -> np.ndarray:
    """One draw mean + sigma/sqrt(2) * z1 + D z2 / sqrt(2 (rank - 1)), z1
    of length P before z2 of length rank; rank 1 drops the low-rank term."""
    p = state.mean.size
    raw_var = np.maximum(state.diag_second_moment - state.mean**2, 0.0)
    sigma = np.sqrt(raw_var)
    z1 = rng.normals(p)
    theta = state.mean + sigma * z1 / np.sqrt(2.0)
    if state.rank >= 2:
        z2 = rng.normals(state.rank)
        theta = theta + (state.deviations @ z2) / np.sqrt(2.0 * (state.rank - 1))
    return theta


def sample_list(state, rng, n_samples=None) -> list[np.ndarray]:
    """The draws as a list, one vector per draw, in stream order."""
    if n_samples is None:
        if isinstance(state, MapState):
            n_samples = 1
        elif isinstance(state, EnsembleState):
            n_samples = len(state.members)
        else:
            n_samples = MC_SAMPLES
    if isinstance(state, MapState):
        return [state.theta.copy() for _ in range(n_samples)]
    if isinstance(state, EnsembleState):
        m = len(state.members)
        return [state.members[i % m].copy() for i in range(n_samples)]
    if isinstance(state, SwagState):
        return [swag_sample(state, rng) for _ in range(n_samples)]
    if isinstance(state, LaplaceState):
        std = 1.0 / np.sqrt(state.diag_precision)
        return [state.mode + std * rng.normals(state.mode.size) for _ in range(n_samples)]
    if isinstance(state, AdviState):
        std = np.exp(np.maximum(state.log_std, _LOG_STD_FLOOR))
        return [state.mean + std * rng.normals(state.mean.size) for _ in range(n_samples)]
    raise TypeError(f"unknown posterior state {type(state).__name__}")
