"""Entropy and mutual-information measures for binary hazard beliefs.

Everything is computed in nats with natural logs. The behavioral variants
pass each probability through the Prelec weighting function

    w(p) = exp(-beta * (-ln p)^alpha),   beta = exp((1 - alpha) * ln(ln M)),

where M is the support size of the distribution at hand, so that the
uniform distribution is a fixed point of w for every alpha > 0. alpha < 1
exaggerates rare events (conservative), alpha = 1 is the identity
(Shannon), alpha > 1 flattens rare events and sharpens ambiguity near the
uniform (aggressive).

All functions broadcast over numpy arrays; scalars in give scalars out.
Each public function checks its arguments once and hands the checked
arrays to private kernels, which do no further validation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DistributionError, ParameterError

__all__ = [
    "BehaviorParams",
    "BinaryChannel",
    "MiForm",
    "MAX_ALPHA",
    "AlphaSearchResult",
    "DeltaMiTerms",
    "prelec_weight",
    "shannon_entropy",
    "behavioral_entropy",
    "binary_entropy",
    "binary_behavioral_entropy",
    "mi_bgs",
    "mi_behavioral",
    "delta_mi",
    "find_informative_alpha",
]

_SUM_TOL = 1e-9

# the largest valid alpha. Prelec's weight is defined for every alpha > 0,
# but in float64 its exponent beta * (-ln p) ** alpha overflows from about
# alpha = 107 at the smallest p; up to here every measure is finite for
# every p in [0, 1]
MAX_ALPHA = 100.0


@dataclass(frozen=True)
class BehaviorParams:
    """Risk-sensitivity knob alpha plus the support size M that fixes beta."""

    alpha: float
    support_size: int = 2
    beta: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.alpha, (int, float)):
            raise ParameterError(f"alpha must be a number, got {self.alpha!r}")
        _check_alpha(self.alpha)
        if self.support_size < 2:
            raise ParameterError(f"support size must be >= 2, got {self.support_size}")
        beta = math.exp((1.0 - self.alpha) * math.log(math.log(self.support_size)))
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class BinaryChannel:
    """Binary survivability observation model.

    tpr: P(Z=1 | X=1), the hazard lethality acting as true-positive rate.
    fpr: P(Z=1 | X=0), the nominal malfunction rate acting as false-positive rate.

    Endpoints 0 and 1 are accepted so degenerate channels can be simulated;
    only 0 < fpr < tpr < 1 makes the channel informative.
    """

    tpr: float
    fpr: float

    def __post_init__(self):
        for name, v in (("tpr", self.tpr), ("fpr", self.fpr)):
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must be in [0, 1], got {v!r}")

    @property
    def is_informative(self) -> bool:
        return 0.0 < self.fpr < self.tpr < 1.0


class MiForm(enum.Enum):
    """Which decomposition of behavioral mutual information to evaluate."""

    POSTERIOR = "posterior"
    CHANNEL = "channel"


class DeltaMiTerms(NamedTuple):
    """Behavioral-minus-Shannon MI gain and its two exact summands."""

    total: float
    weighted_term: float
    delta_h_obs: float


class AlphaSearchResult(NamedTuple):
    alpha: float
    delta_i: float
    informative: bool


def _as_prob(p, name="p"):
    arr = np.asarray(p, dtype=float)
    # one pass: NaN and +-inf fail it too; the message is picked on failure only
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        if not np.all(np.isfinite(arr)):
            raise ParameterError(f"{name} must be finite")
        raise ParameterError(f"{name} must be in [0, 1]")
    return arr


def _check_alpha(alpha):
    """alpha as a float array; a ParameterError unless every entry is in (0, MAX_ALPHA]."""
    arr = np.asarray(alpha, dtype=float)
    bad = ~((arr > 0.0) & (arr <= MAX_ALPHA))  # NaN fails both comparisons
    if np.any(bad):
        raise ParameterError(f"alpha must be in (0, {MAX_ALPHA:g}], got {float(arr[bad].flat[0])}")
    return arr


def _pow(x, alpha):
    """x ** alpha, where each element of an alpha array gets the bits of a 0-d exponent.

    numpy's ** takes np.square for a 0-d exponent of 2.0 and np.sqrt for 0.5,
    but np.power for an array of exponents, and the two can differ in the
    last bit. The planner evaluates a whole alpha sweep in one call, and
    each of its rows must equal the one-alpha call.
    """
    out = x ** alpha
    if np.ndim(alpha):
        for exponent, fast in ((2.0, np.square), (0.5, np.sqrt)):
            hit = alpha == exponent
            if hit.any():
                np.copyto(out, fast(x), where=hit)
    return out


def _prelec(p, alpha, beta):
    """w(p) on arrays already validated, with w(0)=0 and w(1)=1."""
    p = np.asarray(p, dtype=float)
    # the log sees interior entries only; an endpoint passes -ln 1 = -0.0,
    # whose finite weight the bool p >= 1 (w(0) = 0, w(1) = 1) replaces
    inner = (p > 0.0) & (p < 1.0)
    w = np.exp(-np.asarray(beta, dtype=float)
               * _pow(-np.log(np.where(inner, p, 1.0)), np.asarray(alpha, dtype=float)))
    return np.where(inner, w, p >= 1.0)


def prelec_weight(p, params: BehaviorParams):
    """Prelec weight of probability p under the given behavior parameters."""
    arr = _as_prob(p)
    out = _prelec(arr, params.alpha, params.beta)
    return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out


def _xlogx(x):
    """x * ln(x) with the 0 * ln(0) = 0 convention."""
    x = np.asarray(x, dtype=float)
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _validate_distribution(probs) -> np.ndarray:
    arr = np.asarray(probs, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DistributionError("distribution needs at least 2 outcomes")
    if not np.all(np.isfinite(arr)):
        raise DistributionError("distribution entries must be finite")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DistributionError("distribution entries must be in [0, 1]")
    if abs(float(arr.sum()) - 1.0) > _SUM_TOL:
        raise DistributionError(f"distribution sums to {arr.sum()!r}, not 1")
    return arr


def shannon_entropy(probs: Sequence[float]) -> float:
    """Shannon entropy -sum p ln p of a validated distribution, in nats."""
    arr = _validate_distribution(probs)
    return float(-_xlogx(arr).sum())


def behavioral_entropy(probs: Sequence[float], alpha: float) -> float:
    """Behavioral entropy -sum w(p) ln w(p) in nats.

    The support size M is the length of the distribution, which pins beta so
    the uniform distribution keeps entropy ln M for every alpha.
    """
    arr = _validate_distribution(probs)
    params = BehaviorParams(alpha=float(alpha), support_size=arr.size)
    w = _prelec(arr, params.alpha, params.beta)
    return float(-_xlogx(w).sum())


def _binary_beta(alpha):
    """beta of the binary (M = 2) Prelec weight for a checked alpha array."""
    return np.exp((1.0 - alpha) * math.log(math.log(2.0)))


def _binary_h(p):
    """Binary entropy in nats of checked probabilities."""
    return -(_xlogx(p) + _xlogx(1.0 - p))


def _binary_behavioral_h(p, alpha):
    """Binary behavioral entropy in nats of checked probabilities and alpha."""
    # p and 1 - p stacked on a new leading axis that alpha does not reach:
    # one elementwise pass gives each entry the bits of its own pass
    p = np.asarray(p, dtype=float)
    p = p.reshape((1,) * (np.ndim(alpha) - p.ndim) + p.shape)
    terms = _xlogx(_prelec(np.stack((p, 1.0 - p)), alpha, _binary_beta(alpha)))
    return -(terms[0] + terms[1])


def _perceived_obs_marginal(p, alpha, tpr, fpr):
    """Perceived P(Z=1) = w(p)*tpr + (1-w(p))*fpr, and w(p), on checked arguments."""
    w = _prelec(p, alpha, _binary_beta(alpha))
    return w * tpr + (1.0 - w) * fpr, w


def binary_entropy(p, base: float = math.e):
    """Entropy of a (p, 1-p) coin; pass base=2 for bits."""
    h = _binary_h(_as_prob(p)) / math.log(base)
    return float(h) if np.ndim(p) == 0 else h


def binary_behavioral_entropy(p, alpha):
    """Behavioral entropy of a (p, 1-p) coin in nats, vectorized over p."""
    h = _binary_behavioral_h(_as_prob(p), _check_alpha(alpha))
    return float(h) if np.ndim(p) == 0 and np.ndim(alpha) == 0 else h


def mi_bgs(prior, channel: BinaryChannel):
    """Shannon mutual information I(X; Z) of the binary joint, in nats.

    Evaluated by summing P(x,z) ln(P(x,z) / (P(x) P(z))) over the four joint
    outcomes, which is symmetric in the two H(.) - H(.|.) decompositions.
    """
    p = _as_prob(prior, "prior")
    lam, gam = channel.tpr, channel.fpr
    pz1 = p * lam + (1.0 - p) * gam
    pz0 = 1.0 - pz1
    total = np.zeros_like(p, dtype=float)
    # (P(x,z), P(x), P(z)) of the outcomes (1,1), (1,0), (0,1) and (0,0)
    for pxz, px, pz in ((p * lam, p, pz1), (p * (1.0 - lam), p, pz0),
                        ((1.0 - p) * gam, 1.0 - p, pz1), ((1.0 - p) * (1.0 - gam), 1.0 - p, pz0)):
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(
                pxz > 0.0,
                pxz * np.log(np.where(pxz > 0.0, pxz, 1.0) / np.where(pxz > 0.0, px * pz, 1.0)),
                0.0,
            )
        total = total + term
    total = np.maximum(total, 0.0)  # clip float dust on uninformative channels
    return float(total) if np.ndim(prior) == 0 else total


def mi_behavioral(prior, channel: BinaryChannel, alpha, form: MiForm = MiForm.POSTERIOR):
    """Behavioral mutual information of the binary joint, in nats.

    POSTERIOR form: prior behavioral entropy minus the expected behavioral
    entropy of the exact Bayes posterior of X under the true Z marginal.

    CHANNEL form: behavioral entropy of the perceived Z marginal
    w(p)*tpr + (1-w(p))*fpr, minus w(p)*H(tpr) + (1-w(p))*H(fpr). Both
    forms reduce to mi_bgs at alpha = 1. Values can be negative for
    alpha != 1; priors 0 and 1 yield 0 by continuity.
    """
    p = _as_prob(prior, "prior")
    alpha = _check_alpha(alpha)
    lam, gam = channel.tpr, channel.fpr
    if form is MiForm.CHANNEL:
        perceived, w = _perceived_obs_marginal(p, alpha, lam, gam)
        h_lam, h_gam = _binary_h(np.array([lam, gam]))
        out = _binary_behavioral_h(perceived, alpha) - (w * h_lam + (1.0 - w) * h_gam)
    elif form is MiForm.POSTERIOR:
        pz1 = p * lam + (1.0 - p) * gam
        pz0 = 1.0 - pz1
        # a zero marginal only keeps its division finite: its numerator need
        # not be 0 in floats (fpr = 1 and a tiny p round pz1 to 1), but its
        # posterior's entropy is weighted by that zero in h_cond
        post1 = np.clip(p * lam / np.where(pz1 > 0.0, pz1, 1.0), 0.0, 1.0)
        post0 = np.clip(p * (1.0 - lam) / np.where(pz0 > 0.0, pz0, 1.0), 0.0, 1.0)
        h_cond = pz1 * _binary_behavioral_h(post1, alpha) + pz0 * _binary_behavioral_h(post0, alpha)
        out = _binary_behavioral_h(p, alpha) - h_cond
    else:
        raise ParameterError(f"unknown MI form {form!r}")
    return float(out) if np.ndim(prior) == 0 and np.ndim(alpha) == 0 else out


def _delta_mi(p, tpr, fpr, alpha) -> DeltaMiTerms:
    """delta_mi on checked, broadcastable arguments; returns arrays."""
    perceived, w = _perceived_obs_marginal(p, alpha, tpr, fpr)
    true_marginal = p * tpr + (1.0 - p) * fpr
    delta_h_obs = _binary_behavioral_h(perceived, alpha) - _binary_h(true_marginal)
    weighted = (_binary_h(fpr) - _binary_h(tpr)) * (w - p)
    return DeltaMiTerms(weighted + delta_h_obs, weighted, delta_h_obs)


def delta_mi(prior, tpr, fpr, alpha) -> DeltaMiTerms:
    """Channel-form behavioral MI minus Shannon MI, with its exact split.

    total = (H(fpr) - H(tpr)) * (w(p) - p)  +  delta_h_obs,
    where delta_h_obs is the behavioral-vs-Shannon entropy shift of the
    observation marginal. The identity holds to rounding. Every argument
    broadcasts (for parameter sweeps); all-scalar inputs give floats.
    """
    terms = _delta_mi(_as_prob(prior, "prior"), _as_prob(tpr, "tpr"), _as_prob(fpr, "fpr"),
                      _check_alpha(alpha))
    if all(np.ndim(x) == 0 for x in (prior, tpr, fpr, alpha)):
        return DeltaMiTerms(*(float(t) for t in terms))
    return terms


def find_informative_alpha(prior: float, channel: BinaryChannel, alpha_grid) -> AlphaSearchResult:
    """Grid-search alpha maximizing delta_mi; ties go to the smallest alpha.

    Requires an informative channel (0 < fpr < tpr < 1) and an interior
    prior. The informative flag reports whether the best gain is >= 0,
    which is guaranteed whenever 1.0 is on the grid.
    """
    grid = np.asarray(list(alpha_grid), dtype=float)
    if grid.size == 0:
        raise ParameterError("alpha grid is empty")
    grid = _check_alpha(grid)
    if not channel.is_informative:
        raise ParameterError("channel must satisfy 0 < fpr < tpr < 1")
    if not 0.0 < prior < 1.0:
        raise ParameterError(f"prior must be in (0, 1), got {prior}")
    gains = _delta_mi(np.asarray(prior, dtype=float), channel.tpr, channel.fpr, grid).total
    best = int(np.argmax(gains))
    # argmax returns the first maximum; make the tie-break explicit on alpha
    top = np.flatnonzero(gains == gains[best])
    best = int(top[np.argmin(grid[top])])
    return AlphaSearchResult(float(grid[best]), float(gains[best]), bool(gains[best] >= 0.0))
