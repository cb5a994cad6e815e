"""Monte Carlo estimation of thinned-spectrum gap probabilities for the
Gaussian ensemble.

Matrices are drawn from the density proportional to e^{-2n tr M^2}. Writing
tr M^2 = sum_i M_ii^2 + 2 sum_{i<j} |M_ij|^2 gives independent Gaussian
entries with Var(M_ii) = 1/(4n) and Var(Re M_ij) = Var(Im M_ij) = 1/(8n).
Eigenvalues are thinned independently per sector and the gap event (no
surviving eigenvalue in any thinned sector) is recorded; batches draw their
RNG streams from a spawned seed sequence so results are reproducible
regardless of how batches are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .singularities import ThinningSpec

_BATCH = 20_000
MAX_N = 50


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


def _sample_gue_eigenvalues(rng, n, batch):
    """Eigenvalues of `batch` matrices drawn from e^{-2 n tr M^2}.

    Only the strict upper triangle is drawn (symmetrising a full random
    matrix would double the off-diagonal variance).
    """
    diag_sd = np.sqrt(1.0 / (4.0 * n))
    off_sd = np.sqrt(1.0 / (8.0 * n))
    rows, cols = np.triu_indices(n, k=1)
    m = np.zeros((batch, n, n), dtype=complex)
    m[:, rows, cols] = rng.normal(
        0.0, off_sd, size=(batch, rows.size)
    ) + 1j * rng.normal(0.0, off_sd, size=(batch, rows.size))
    m += m.conj().transpose(0, 2, 1)
    idx = np.arange(n)
    m[:, idx, idx] = rng.normal(0.0, diag_sd, size=(batch, n))
    return np.linalg.eigvalsh(m)


def mc_gap_probability(spec: ThinningSpec, n, samples, seed):
    """Estimate P(no surviving eigenvalue in the thinned sectors).

    Each eigenvalue falling in a thinned sector k survives thinning with
    probability 1 - s_k and destroys the gap. Returns the sample mean of the
    gap indicator and its binomial standard error. With no hit at all the
    error is the one-sigma Wilson score bound 1/(samples + 1): the gap
    probability is never exactly 0, since every s_k > 0. The same bound
    applies when every sample hits while some s_k < 1, since the gap
    probability is then below 1; only with every s_k = 1 is 1.0 exact.
    """
    if n > MAX_N:
        raise DomainError(f"Monte Carlo sampler supports n <= {MAX_N}, got {n}")
    if n < 1:
        raise DomainError("need n >= 1")
    if samples < 10_000:
        raise DomainError("need at least 10^4 samples for a meaningful estimate")
    if not spec.kept:
        return McEstimate(estimate=1.0, stderr=0.0, samples=samples, seed=seed)

    sectors = [(k, spec.sector_bounds(k), spec.s[k]) for k in sorted(spec.kept)]
    n_batches = (samples + _BATCH - 1) // _BATCH
    streams = np.random.SeedSequence(seed).spawn(n_batches)
    hits = 0
    done = 0
    for batch_idx in range(n_batches):
        rng = np.random.default_rng(streams[batch_idx])
        batch = min(_BATCH, samples - done)
        eigs = _sample_gue_eigenvalues(rng, n, batch)
        u = rng.random(eigs.shape)
        survivor = np.zeros(batch, dtype=bool)
        for _, (lo, hi), s_k in sectors:
            in_sector = (eigs > lo) & (eigs < hi)
            survivor |= (in_sector & (u >= s_k)).any(axis=1)
        hits += int((~survivor).sum())
        done += batch
    p_hat = hits / samples
    if hits == 0 or (hits == samples and any(s_k < 1.0 for *_, s_k in sectors)):
        stderr = 1.0 / (samples + 1)
    else:
        stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / samples))
    return McEstimate(estimate=float(p_hat), stderr=stderr, samples=samples, seed=seed)
