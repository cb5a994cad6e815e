"""Fisher-Hartwig singularity data and thinning specifications.

A singularity at t contributes the weight factor |x-t|^alpha together with a
phase jump e^{i pi beta} (x < t) / e^{-i pi beta} (x > t). The expansion
hypotheses restrict Re(alpha) > -1 and Re(beta) in (-1/4, 1/4), with the
locations strictly inside (-1, 1) and separated from each other and from the
endpoints.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .chebyshev import ChebSeries
from .errors import DomainError, HypothesisError, SeparationError

BETA_RE_BOUND = 0.25


@dataclass(frozen=True)
class Singularity:
    """One Fisher-Hartwig pair (root exponent alpha, jump exponent beta)."""

    t: float
    alpha: complex = 0.0
    beta: complex = 0.0

    def __post_init__(self):
        for name, value in (("t", self.t), ("alpha", self.alpha), ("beta", self.beta)):
            if not cmath.isfinite(value):
                raise HypothesisError(f"singularity {name} must be finite, got {value}")
        if not -1.0 < self.t < 1.0:
            raise HypothesisError(f"singularity location {self.t} not in (-1, 1)")
        if complex(self.alpha).real <= -1.0:
            raise HypothesisError(
                f"Re(alpha) must exceed -1, got {complex(self.alpha)}"
            )
        b = complex(self.beta).real
        if not -BETA_RE_BOUND < b < BETA_RE_BOUND:
            raise HypothesisError(
                f"Re(beta) must lie in (-1/4, 1/4), got {complex(self.beta)}"
            )
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))


@dataclass(frozen=True)
class SingularityConfig:
    """An ordered collection of singularities at strictly increasing locations."""

    singularities: tuple = ()

    def __post_init__(self):
        sings = tuple(self.singularities)
        if any(a.t >= b.t for a, b in zip(sings, sings[1:])):
            raise SeparationError("singularity locations must strictly increase")
        object.__setattr__(self, "singularities", sings)

    def __len__(self):
        return len(self.singularities)

    def __iter__(self):
        return iter(self.singularities)

    @property
    def alphas(self):
        return np.array([s.alpha for s in self.singularities], dtype=complex)

    @property
    def alpha_sum(self):
        return complex(self.alphas.sum()) if len(self) else 0.0 + 0.0j

    def alpha_signed_partial(self, j):
        """sum_{l<j} alpha_l - sum_{l>j} alpha_l (0-based j)."""
        a = self.alphas
        return complex(a[:j].sum() - a[j + 1:].sum())

    @property
    def beta_max(self):
        if not len(self):
            return 0.0
        return float(max(abs(s.beta.real) for s in self.singularities))

    def with_betas(self, betas):
        """A copy with the jump exponents replaced."""
        if len(betas) != len(self):
            raise DomainError("beta vector length mismatch")
        return SingularityConfig(
            tuple(
                Singularity(s.t, s.alpha, b)
                for s, b in zip(self.singularities, betas)
            )
        )


def as_field(W) -> ChebSeries:
    """Coerce a field argument to a real ChebSeries (None means zero)."""
    if W is None:
        return ChebSeries.zero()
    if not isinstance(W, ChebSeries):
        W = ChebSeries(W)
    if np.iscomplexobj(W.coeffs):
        if np.max(np.abs(W.coeffs.imag)) > 0:
            raise DomainError("the field W must be real-valued on [-1, 1]")
        W = ChebSeries(W.coeffs.real)
    return W


@dataclass(frozen=True)
class ThinningSpec:
    """Piecewise-constant thinning of a spectrum.

    ``boundaries`` t_1 < ... < t_m split the line into m+1 sectors
    (t_{k-1}, t_k), with t_0 = -inf and t_{m+1} = +inf. For each sector index
    k in ``kept`` (a subset of 1..m+1) every eigenvalue in that sector is
    removed independently with probability s_k in (0, 1].
    """

    boundaries: tuple
    s: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        bs = tuple(float(b) for b in self.boundaries)
        if any(bs[i] >= bs[i + 1] for i in range(len(bs) - 1)):
            raise DomainError("thinning boundaries must strictly increase")
        if any(not -1.0 < b < 1.0 for b in bs):
            raise DomainError("thinning boundaries must lie in (-1, 1)")
        m = len(bs)
        s = {int(k): float(v) for k, v in dict(self.s).items()}
        for k, v in s.items():
            if not 1 <= k <= m + 1:
                raise DomainError(f"sector index {k} outside 1..{m + 1}")
            if not 0.0 < v <= 1.0:
                raise DomainError(f"removal probability s_{k}={v} outside (0, 1]")
        object.__setattr__(self, "boundaries", bs)
        object.__setattr__(self, "s", s)

    @property
    def m(self):
        return len(self.boundaries)

    @property
    def kept(self):
        """Sector indices subject to thinning."""
        return frozenset(self.s)

    def s_tilde(self):
        """Effective removal probabilities: s_k on thinned sectors, 1 elsewhere."""
        return np.array(
            [self.s.get(k, 1.0) for k in range(1, self.m + 2)], dtype=float
        )
