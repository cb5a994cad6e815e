"""Monte Carlo gap probabilities of thinned spectra of the Gaussian ensemble.

Matrices follow e^{-2n tr M^2} through the beta = 2 tridiagonal model of
Dumitriu and Edelman (J. Math. Phys. 43, 2002): diagonal N(0, 1/(4n)),
squared off-diagonal chi^2_{2k}/(8n) for k = n-1, ..., 1. No eigenvalue is
computed: the count N_k in sector k is a difference of Sturm counts, the
negative LDL^T pivots of T - x at the sector ends, vectorised over the
batch. Given the counts the gap (no survivor in any thinned sector) has
probability prod_k s_k^{N_k}; its sample mean is the conditional
(Rao-Blackwell) form of the gap indicator's mean, unbiased, of lower
variance, and nonzero however rare the gap. Batches draw their RNG streams
from a spawned seed sequence, so results do not depend on batch scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DomainError
from .singularities import ThinningSpec

MIN_SAMPLES = 10_000  # below this the estimate means little
_BATCH = 20_000  # samples per RNG stream, fewer past n = 100: 2e6 entries at most


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


def _sample_tridiagonal(rng, n, batch):
    """Diagonals (n, batch) and squared off-diagonals (n - 1, batch) of
    `batch` tridiagonal matrices with the eigenvalue law of e^{-2n tr M^2}."""
    diag = rng.normal(0.0, np.sqrt(1.0 / (4.0 * n)), size=(n, batch))
    dof = 2.0 * np.arange(n - 1, 0, -1)
    off_sq = rng.chisquare(dof[:, None], size=(n - 1, batch)) / (8.0 * n)
    return diag, off_sq


def _count_below(diag, off_sq, x):
    """Eigenvalues below each x (+-inf allowed), per matrix: (len(x), batch).

    Counts the negative pivots of T - x = L D L^T. A pivot below pivmin in
    magnitude becomes +pivmin, as in LAPACK's dstebz, so no division
    overflows and an eigenvalue equal to x counts as not below it."""
    pivmin = np.finfo(float).tiny * max(1.0, off_sq.max(initial=0.0))
    x = np.asarray(x, dtype=float)[:, None]
    below = np.zeros((x.shape[0], diag.shape[1]), dtype=int)
    for i in range(diag.shape[0]):
        d = diag[i] - x - (off_sq[i - 1] / d if i else 0.0)
        d[np.abs(d) < pivmin] = pivmin
        below += d < 0
    return below


def mc_gap_probability(spec: ThinningSpec, n, samples, seed):
    """Estimate P(no surviving eigenvalue in the thinned sectors).

    Samples the tridiagonal model of e^{-2n tr M^2}, counts each matrix's
    eigenvalues per sector by Sturm sequences, and returns the sample mean
    of prod_k s_k^{N_k} with its sample standard error. That error is 0 only
    where the estimate is exact: no thinned sector, or every s_k = 1. If
    some s_k < 1 yet every sample gives the same product (all 1, or all
    underflowing to 0), the one-sigma bound 1/(samples + 1) stands in for
    the zero sample variance.
    """
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise DomainError(f"need an integer n >= 1, got {n!r}")
    if samples < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples for a meaningful estimate")
    log_s = np.log(spec.s_tilde())
    ends = [-np.inf, *spec.boundaries, np.inf]
    size = max(1, min(_BATCH, 2_000_000 // n))
    streams = np.random.SeedSequence(seed).spawn((samples + size - 1) // size)
    products = []
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        diag, off_sq = _sample_tridiagonal(rng, n, min(size, samples - i * size))
        counts = np.diff(_count_below(diag, off_sq, ends), axis=0)
        products.append(np.exp(log_s @ counts))
    products = np.concatenate(products)
    if products.min() == products.max() and log_s.any():
        stderr = 1.0 / (samples + 1)
    else:
        stderr = float(products.std(ddof=1) / np.sqrt(samples))
    return McEstimate(estimate=float(products.mean()), stderr=stderr,
                      samples=samples, seed=seed)
