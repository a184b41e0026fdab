"""Robust loss family for range/bearing residuals.

Three families share one interface:

* ``ONE_SIDED`` -- quadratic for residuals below a threshold, linear above
  it, and quadratic for *all* negative residuals. This is the closed form
  obtained by minimizing out a non-negative, exponentially distributed
  range bias: measured range can only be inflated by multipath, never
  shortened, so only large positive residuals are down-weighted.
* ``SYMMETRIC`` -- the classical Huber loss, quadratic inside ``|r| <= tau``
  and linear outside; treats both signs alike.
* ``QUADRATIC`` -- plain least squares, no threshold.

Losses are normalized: the 1/sigma^2 factor lives inside the loss. A spec
stores one threshold ``tau``, built as ``lam * sigma^2`` one-sided (from the
bias rate ``lam``) and ``k * sigma`` symmetric; they meet at ``k = lam * sigma``.
The families differ only in which residuals saturate: those outside the
interval ``[lo, hi]`` each spec sets once, ``(-inf, tau]`` one-sided,
``[-tau, tau]`` symmetric, ``(-inf, inf)`` quadratic; a NaN never does
(:meth:`LossSpec.saturates`). At equal ``tau`` the symmetric loss is the
one-sided loss with the bias's non-negativity constraint relaxed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence


class LossFamily(Enum):
    ONE_SIDED = "one_sided"
    SYMMETRIC = "symmetric"
    QUADRATIC = "quadratic"


class WrongLossFamilyError(ValueError):
    """Operation defined only for a specific loss family."""


class NoNlosEvidenceError(ValueError):
    """A bias-rate update was requested from an all-zero bias window."""


def k_from_lambda(lam: float, sigma: float) -> float:
    """Translate an inverse-mean-bias rate into the unitless tuning constant.

    ``k = lam * sigma``: the two threshold conventions ``lam * sigma^2``
    (physical) and ``k * sigma`` (normalized-residual) coincide.
    """
    if not (0.0 < lam < math.inf and 0.0 < sigma < math.inf):
        raise ValueError(f"lam and sigma must be positive and finite, got lam={lam}, sigma={sigma}")
    return lam * sigma


def lambda_from_k(k: float, sigma: float) -> float:
    """Inverse of :func:`k_from_lambda`: ``lam = k / sigma``."""
    if not (0.0 < k < math.inf and 0.0 < sigma < math.inf):
        raise ValueError(f"k and sigma must be positive and finite, got k={k}, sigma={sigma}")
    return k / sigma


@dataclass(frozen=True)
class LossSpec:
    """Loss family, the residual's noise scale ``sigma`` (meters or radians)
    and the saturation threshold ``tau`` (``None`` for quadratic), each
    positive and finite; ``[lo, hi]`` holds the residuals that do not saturate.

    Prefer the ``one_sided`` / ``symmetric`` / ``quadratic`` constructors:
    they derive ``tau`` from the bias rate ``lam`` or the constant ``k``.
    """

    family: LossFamily
    sigma: float
    tau: Optional[float] = None
    lo: float = field(init=False, repr=False, compare=False)
    hi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        quadratic = self.family is LossFamily.QUADRATIC
        if quadratic != (self.tau is None):
            raise ValueError(f"a {self.family.value} spec takes {'no' if quadratic else 'a'} tau")
        for name in ("sigma",) if quadratic else ("sigma", "tau"):
            # plain floats, so the filter's float arithmetic never runs on
            # numpy scalars (same bits, several times the cost per operation)
            value = float(getattr(self, name))
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
            object.__setattr__(self, name, value)
        hi = math.inf if quadratic else self.tau
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo", -math.inf if self.family is LossFamily.ONE_SIDED else -hi)

    def saturates(self, r: float) -> bool:
        """The one saturation rule: ``r`` lies outside ``[lo, hi]``."""
        return r > self.hi or r < self.lo

    @property
    def slope(self) -> float:
        """Gradient magnitude on the saturated branch, ``tau / sigma^2``:
        ``lam`` for one-sided, ``k / sigma`` for symmetric."""
        return self.tau / self.sigma**2

    @classmethod
    def one_sided(cls, sigma: float, lam: Optional[float] = None,
                  k: Optional[float] = None) -> "LossSpec":
        """``tau = lam * sigma^2``; pass ``lam`` or ``k`` (``lam = k / sigma``)."""
        if (lam is None) == (k is None):
            raise ValueError("one-sided spec takes exactly one of lam, k")
        sigma = float(sigma)
        if lam is None:
            lam = lambda_from_k(float(k), sigma)
        return cls(LossFamily.ONE_SIDED, sigma, float(lam) * sigma**2)

    @classmethod
    def symmetric(cls, sigma: float, k: float) -> "LossSpec":
        return cls(LossFamily.SYMMETRIC, sigma, float(k) * float(sigma))

    @classmethod
    def quadratic(cls, sigma: float) -> "LossSpec":
        return cls(LossFamily.QUADRATIC, sigma)


def soft_threshold_bias(r: float, spec: LossSpec) -> float:
    """Most plausible non-negative range bias explaining residual ``r``.

    Closed-form minimizer of ``(r - b)^2 / (2 sigma^2) + lam * b`` over
    ``b >= 0``: the one-sided soft-thresholding ``max(0, r - tau)``.
    """
    if spec.family is not LossFamily.ONE_SIDED:
        raise WrongLossFamilyError(f"bias solution requires a one-sided spec, got {spec.family}")
    return max(0.0, r - spec.tau)


def loss(r: float, spec: LossSpec) -> float:
    """Evaluate the loss at residual ``r``: quadratic, or on the saturated
    branch linear with slope :attr:`LossSpec.slope`, meeting the quadratic
    at the threshold."""
    if spec.saturates(r):
        return spec.slope * (abs(r) - 0.5 * spec.tau)
    return r * r / (2.0 * spec.sigma**2)


def loss_grad(r: float, spec: LossSpec) -> float:
    """First derivative of :func:`loss`; continuous across the threshold."""
    if spec.saturates(r):
        return math.copysign(spec.slope, r)
    return r / spec.sigma**2


def loss_curvature(r: float, spec: LossSpec) -> float:
    """Second derivative of :func:`loss`.

    ``1/sigma^2`` in the quadratic region, 0 in the saturated region. At
    the exact kink (measure-zero) the left limit ``1/sigma^2`` is returned:
    the threshold itself does not saturate (:meth:`LossSpec.saturates`).
    """
    return 0.0 if spec.saturates(r) else 1.0 / spec.sigma**2


def irls_weight(r: float, spec: LossSpec) -> float:
    """M-estimation weight ``w = sigma^2 * loss_grad(r) / r``, in (0, 1].

    Used to inflate the effective measurement noise to ``sigma^2 / w``:
    weight 1 means full trust, smaller weights down-weight saturated
    residuals. One-sided specs keep full trust on every negative residual.
    """
    return spec.tau / abs(r) if spec.saturates(r) else 1.0


def em_update_lambda(bias_estimates: Sequence[float]) -> float:
    """Re-estimate the bias rate as the inverse sample mean of solved biases.

    Zero-valued estimates stay in the mean (they are genuine solutions of
    the bias subproblem). An all-zero window carries no bias evidence and
    raises instead of producing an infinite rate.
    """
    if len(bias_estimates) == 0:
        raise ValueError("need at least one bias estimate")
    if not all(0.0 <= b < math.inf for b in bias_estimates):
        raise ValueError("bias estimates must be non-negative and finite")
    mean = sum(bias_estimates) / len(bias_estimates)
    if mean <= 0.0:
        raise NoNlosEvidenceError("no NLOS evidence: all bias estimates are zero")
    return 1.0 / mean
