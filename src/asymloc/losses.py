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

Losses are normalized: the 1/sigma^2 factor lives inside the loss, so the
one-sided threshold is ``tau = lam * sigma^2`` while the symmetric one is
``tau = k * sigma``. The two parameterizations meet at ``k = lam * sigma``.
The families differ only in which residuals saturate
(:meth:`LossSpec.saturates`): at equal ``tau`` the symmetric loss is the
one-sided loss with the bias's non-negativity constraint relaxed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    if lam <= 0.0 or sigma <= 0.0:
        raise ValueError(f"lam and sigma must be positive, got lam={lam}, sigma={sigma}")
    return lam * sigma


def lambda_from_k(k: float, sigma: float) -> float:
    """Inverse of :func:`k_from_lambda`: ``lam = k / sigma``."""
    if k <= 0.0 or sigma <= 0.0:
        raise ValueError(f"k and sigma must be positive, got k={k}, sigma={sigma}")
    return k / sigma


@dataclass(frozen=True)
class LossSpec:
    """Loss family plus its scale parameters.

    ``sigma`` is the nominal noise scale of the residual (meters or
    radians). One-sided specs carry the bias rate ``lam`` (1/meters) and
    the equivalent ``k = lam * sigma``; symmetric specs carry ``k`` only.
    ``tau`` is the derived saturation threshold (``None`` for quadratic).

    Prefer the ``one_sided`` / ``symmetric`` / ``quadratic`` constructors.
    """

    family: LossFamily
    sigma: float
    lam: Optional[float] = None
    k: Optional[float] = None
    tau: Optional[float] = None

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        # plain floats, so the filter's float arithmetic never runs on numpy
        # scalars (same bits, several times the cost per operation)
        for name in ("sigma", "lam", "k"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))
        if self.family is LossFamily.ONE_SIDED:
            if (self.lam is None) == (self.k is None):
                raise ValueError("one-sided spec takes exactly one of lam, k")
            if self.lam is None:
                object.__setattr__(self, "lam", lambda_from_k(self.k, self.sigma))
            else:
                if self.lam <= 0.0:
                    raise ValueError(f"lam must be positive, got {self.lam}")
                object.__setattr__(self, "k", k_from_lambda(self.lam, self.sigma))
            object.__setattr__(self, "tau", self.lam * self.sigma**2)
        elif self.family is LossFamily.SYMMETRIC:
            if self.k is None or self.lam is not None:
                raise ValueError("symmetric spec takes k only")
            if self.k <= 0.0:
                raise ValueError(f"k must be positive, got {self.k}")
            object.__setattr__(self, "tau", self.k * self.sigma)
        else:
            if self.lam is not None or self.k is not None:
                raise ValueError("quadratic spec takes no threshold parameter")

    def saturates(self, r: float) -> bool:
        """The family's one saturation rule: ``r > tau`` for one-sided,
        ``|r| > tau`` for symmetric, never for quadratic."""
        if self.family is LossFamily.ONE_SIDED:
            return r > self.tau
        return self.family is LossFamily.SYMMETRIC and abs(r) > self.tau

    @property
    def slope(self) -> float:
        """Gradient magnitude on the saturated branch: ``lam`` for one-sided,
        ``k / sigma`` for symmetric (both equal ``tau / sigma^2``)."""
        return self.lam if self.family is LossFamily.ONE_SIDED else self.k / self.sigma

    @classmethod
    def one_sided(cls, sigma: float, lam: Optional[float] = None,
                  k: Optional[float] = None) -> "LossSpec":
        return cls(LossFamily.ONE_SIDED, sigma, lam=lam, k=k)

    @classmethod
    def symmetric(cls, sigma: float, k: float) -> "LossSpec":
        return cls(LossFamily.SYMMETRIC, sigma, k=k)

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
    the exact kink (measure-zero) the left limit ``1/sigma^2`` is returned;
    use :func:`at_curvature_kink` to detect that case.
    """
    return 0.0 if spec.saturates(r) else 1.0 / spec.sigma**2


def at_curvature_kink(r: float, spec: LossSpec) -> bool:
    """True when ``r`` sits exactly on the loss threshold: unsaturated, but
    the next float farther from zero is saturated."""
    return not spec.saturates(r) and spec.saturates(math.nextafter(r, math.copysign(math.inf, r)))


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
    if any(b < 0.0 for b in bias_estimates):
        raise ValueError("bias estimates must be non-negative")
    mean = sum(bias_estimates) / len(bias_estimates)
    if mean <= 0.0:
        raise NoNlosEvidenceError("no NLOS evidence: all bias estimates are zero")
    return 1.0 / mean
