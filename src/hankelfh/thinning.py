"""Thinning and conditioning applications of the determinant expansion.

Piecewise-constant thinning removes every eigenvalue in sector k with
probability s_k. The per-eigenvalue factor {s_k on sector k, 1 elsewhere}
factors through the jump weights as

    prod_k {s_k or 1} = sqrt(s~_1 * s~_{m+1}) * prod_j omega_{beta~_j}(x),
    2 pi i beta~_j = log(s~_j / s~_{j+1}),

with s~_j = s_j on thinned sectors and 1 otherwise. The prefactor involves
only the two unbounded sectors: telescoping the beta~ phases across an
interior sector reproduces its s_k exactly, so interior sectors contribute
no prefactor. Over n eigenvalues the gap probability becomes

    P(gap) = (s~_1 s~_{m+1})^{n/2} * D_n(0, beta~, V, 0) / D_n(0, 0, V, 0),

which reduces to the classical single-jump identity when m = 1. All beta~
are purely imaginary, so the ratio is real and the expansion applies with
beta_max = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import predict_log_hankel
from .errors import HypothesisError
from .singularities import Singularity, SingularityConfig, ThinningSpec

TWO_PI_I = 2j * np.pi


@dataclass(frozen=True)
class ThinningMap:
    """Jump exponents and per-eigenvalue log-prefactor of a thinning."""

    betas: tuple
    log_prefactor: float


@dataclass(frozen=True)
class GapPrediction:
    value: float
    error_scale: float


@dataclass(frozen=True)
class CorrelationPrediction:
    value: complex
    error_scale: float


def thinning_to_betas(spec: ThinningSpec) -> ThinningMap:
    """Map removal probabilities to jump exponents.

    beta~_j = log(s~_j / s~_{j+1}) / (2 pi i) is purely imaginary for
    s in (0, 1]; log_prefactor = (1/2) log(s~_1 * s~_{m+1}) is the
    per-eigenvalue prefactor (multiply by n for the n-point process).
    """
    st = spec.s_tilde()
    betas = tuple(
        complex(np.log(st[j] / st[j + 1]) / TWO_PI_I) for j in range(spec.m)
    )
    log_prefactor = 0.5 * float(np.log(st[0]) + np.log(st[-1]))
    return ThinningMap(betas=betas, log_prefactor=log_prefactor)


def _thinning_configs(spec):
    tmap = thinning_to_betas(spec)
    base = SingularityConfig(
        tuple(Singularity(t, 0.0, 0.0) for t in spec.boundaries)
    )
    thinned = base.with_betas(tmap.betas)
    return tmap, base, thinned


def gap_probability_log(V, measure, spec, n) -> GapPrediction:
    """Asymptotic log of the thinned gap probability at matrix size n.

    log P = [log D_n(beta~) - log D_n(0)] + n * log_prefactor, evaluated
    through the expansion. The result is real (purely imaginary beta~) and
    non-positive up to the reported error scale.
    """
    tmap, base, thinned = _thinning_configs(spec)
    if not spec.kept:
        return GapPrediction(value=0.0, error_scale=0.0)
    pred_b = predict_log_hankel(V, measure, None, thinned, n)
    pred_0 = predict_log_hankel(V, measure, None, base, n)
    value = pred_b.value - pred_0.value + n * tmap.log_prefactor
    return GapPrediction(value=float(value.real), error_scale=pred_b.error_scale)


def gap_probability_log_exact(V, spec, n, precision_bits=None):
    """Finite-n log gap probability from exact Hankel determinants."""
    from .oracle import WeightSpec, log_det_ratio

    tmap, base, thinned = _thinning_configs(spec)
    if not spec.kept:
        return 0.0
    ratio = log_det_ratio(
        WeightSpec(V, None, thinned, n),
        WeightSpec(V, None, base, n),
        precision_bits,
    )
    return float(ratio.real) + n * tmap.log_prefactor


def correlation_log(V, measure, W, cfg, base_betas, n) -> CorrelationPrediction:
    """Conditional characteristic-polynomial correlations.

    With conditioning exponents beta_* (from an observed thinning event),

    log E = log D_n(alpha, beta + beta_*, V, W)
          - log D_n(0, beta_*, V, 0) - i pi sum_k beta_k,

    where the beta_k are the correlation exponents of cfg. base_betas = 0
    reduces to plain correlations of the characteristic polynomial, and
    additionally beta = 0 gives the root-type moment ratio.
    """
    base_betas = tuple(complex(b) for b in base_betas)
    if len(base_betas) != len(cfg):
        raise HypothesisError("base_betas length must match the config")
    combined = [s.beta + b for s, b in zip(cfg, base_betas)]
    cfg_num = cfg.with_betas(combined)  # revalidates Re(beta) in (-1/4, 1/4)
    cfg_den = SingularityConfig(
        tuple(Singularity(s.t, 0.0, b) for s, b in zip(cfg, base_betas))
    )
    pred_num = predict_log_hankel(V, measure, W, cfg_num, n)
    pred_den = predict_log_hankel(V, measure, None, cfg_den, n)
    phase = -1j * np.pi * sum(s.beta for s in cfg)
    value = pred_num.value - pred_den.value + phase
    scale = max(pred_num.error_scale, pred_den.error_scale)
    return CorrelationPrediction(value=complex(value), error_scale=float(scale))

