"""Monte Carlo gap probabilities of thinned spectra of the Gaussian ensemble.

Matrices follow e^{-2n tr M^2} through the beta = 2 tridiagonal model of
Dumitriu and Edelman (J. Math. Phys. 43, 2002): diagonal N(0, 1/(4n)),
squared off-diagonal chi^2_{2k}/(8n) for k = n-1, ..., 1. No eigenvalue is
computed: the count N_k in sector k is a difference of Sturm counts, the
negative LDL^T pivots of T - x, vectorised over the batch. They run at the
interior sector boundaries only; the outer ends -inf and +inf give 0 and n
without a pass, so a spec with no boundary takes none. Given the counts
the gap (no survivor in any thinned sector) has probability
prod_k s_k^{N_k}; its sample mean is the conditional (Rao-Blackwell) form
of the gap indicator's mean, unbiased, of lower variance, and nonzero
however rare the gap. Batches draw their RNG streams from a spawned seed
sequence, so results do not depend on batch scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .singularities import ThinningSpec, as_integer

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
    `batch` tridiagonal matrices with the eigenvalue law of e^{-2n tr M^2}.

    Filled in place with the draws, in the order, of rng.normal(0, sigma)
    and rng.chisquare(2k) over rows k = n-1, ..., 1; numpy computes those
    as sigma * standard_normal and 2 * standard_gamma(k)."""
    diag = np.empty((n, batch))
    rng.standard_normal(out=diag)
    diag *= np.sqrt(1.0 / (4.0 * n))
    off_sq = np.empty((n - 1, batch))
    for row, k in zip(off_sq, range(n - 1, 0, -1)):
        rng.standard_gamma(k, out=row)
    off_sq *= 2.0
    off_sq /= 8.0 * n
    return diag, off_sq


def _count_below(diag, off_sq, x):
    """Eigenvalues below each x (+-inf allowed), per matrix: (len(x), batch).

    Counts the negative pivots of T - x = L D L^T. The recurrence updates
    one pivot buffer, one quotient buffer and one mask, allocated once; an
    empty x takes no pass. A pivot below pivmin in magnitude becomes +pivmin, as in
    LAPACK's dstebz, so no division overflows and an eigenvalue equal to x
    counts as not below it. mc_gap_probability calls this at the interior
    sector boundaries only: below -inf there is no eigenvalue, below +inf
    there are n."""
    x = np.asarray(x, dtype=float)[:, None]
    shape = (x.shape[0], diag.shape[1])
    below = np.zeros(shape, dtype=int)
    if not x.size:
        return below
    pivmin = np.finfo(float).tiny * max(1.0, off_sq.max(initial=0.0))
    d, q = np.empty(shape), np.empty(shape)
    mask = np.empty(shape, dtype=bool)
    for i in range(diag.shape[0]):
        if i:
            np.divide(off_sq[i - 1], d, out=q)
            np.subtract(diag[i], x, out=d)
            d -= q
        else:
            np.subtract(diag[0], x, out=d)
        np.less(np.abs(d, out=q), pivmin, out=mask)
        d[mask] = pivmin
        below += np.less(d, 0.0, out=mask)
    return below


def _sector_counts(diag, off_sq, boundaries):
    """Eigenvalues per sector, per matrix: (len(boundaries) + 1, batch), the
    differences of the Sturm counts at the boundaries with 0 and n at the
    outer ends."""
    below = _count_below(diag, off_sq, boundaries)
    return np.diff(below, axis=0, prepend=0, append=diag.shape[0])


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
    n = as_integer(n)
    samples = as_integer(samples, "samples", MIN_SAMPLES)
    seed = as_integer(seed, "seed", 0)
    log_s = np.log(spec.s_tilde())
    size = max(1, min(_BATCH, 2_000_000 // n))
    streams = np.random.SeedSequence(seed).spawn((samples + size - 1) // size)
    products = []
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        diag, off_sq = _sample_tridiagonal(rng, n, min(size, samples - i * size))
        counts = _sector_counts(diag, off_sq, spec.boundaries)
        products.append(np.exp(log_s @ counts))
    products = np.concatenate(products)
    if products.min() == products.max() and log_s.any():
        stderr = 1.0 / (samples + 1)
    else:
        stderr = float(products.std(ddof=1) / np.sqrt(samples))
    return McEstimate(estimate=float(products.mean()), stderr=stderr,
                      samples=samples, seed=seed)
