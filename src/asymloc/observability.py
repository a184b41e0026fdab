"""Observability diagnostics built from robust-loss curvature.

Each measurement contributes a rank-one term ``w * J J^T`` to a 2x2
curvature matrix over the position, where ``w`` is the loss's second
derivative at the residual and ``J`` the position Jacobian. Saturated
residuals carry zero curvature, so the matrix tracks exactly the geometric
information the robust objective can still "see": its minimum eigenvalue
is the diagnostic for estimator stagnation, and a sample set is *bilateral*
when that eigenvalue clears a threshold (the Jacobians of non-saturated
samples span the plane).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import math

import numpy as np

from .losses import LossSpec, loss_curvature


class CurvatureSample(NamedTuple):
    """One measurement's curvature contribution: position Jacobian (any
    2-sequence: a float pair or an array), second derivative weight, and
    whether the residual was saturated."""

    jacobian: Sequence[float]
    weight: float
    saturated: bool
    step: int = 0


@dataclass(frozen=True)
class CurvatureReport:
    """Accumulated 2x2 curvature matrix ``[[a, b], [b, c]]``, held as its
    entries ``(a, b, c)``, with its spectrum and bookkeeping."""

    entries: tuple[float, float, float]
    lambda_min: float
    lambda_max: float
    bilateral: bool
    n_saturated: int
    n_active: int

    @property
    def matrix(self) -> np.ndarray:
        a, b, c = self.entries
        return np.array([[a, b], [b, c]])


def eig_sym(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues (min, max) of the symmetric matrix ``[[a, b], [b, c]]``."""
    half_trace = 0.5 * (a + c)
    radius = math.hypot(0.5 * (a - c), b)
    return half_trace - radius, half_trace + radius


def classify_residual(r: float, spec: LossSpec, jacobian: Sequence[float],
                      step: int = 0) -> CurvatureSample:
    """Turn a residual into a curvature sample: weight is the loss's second
    derivative at ``r``; zero weight marks the sample saturated."""
    w = loss_curvature(r, spec)
    return CurvatureSample(jacobian=jacobian, weight=w, saturated=(w == 0.0), step=step)


def _report_from(a: float, b: float, c: float, n_saturated: int, n_active: int,
                 mu_threshold: float) -> CurvatureReport:
    """Report on the curvature matrix ``[[a, b], [b, c]]``."""
    lmin, lmax = eig_sym(a, b, c)
    lmin = max(lmin, 0.0)  # PSD by construction; clip fp dust
    lmax = max(lmax, 0.0)
    return CurvatureReport(entries=(a, b, c), lambda_min=lmin, lambda_max=lmax,
                           bilateral=lmin > mu_threshold,
                           n_saturated=n_saturated, n_active=n_active)


def _curvature_term(sample: CurvatureSample) -> Optional[tuple[float, float, float]]:
    """The entries ``(xx, xy, yy)`` of the sample's rank-one term
    ``w * J J^T``, or ``None`` when it carries no curvature (saturated or
    zero weight)."""
    if sample.saturated or sample.weight == 0.0:
        return None
    j0, j1 = sample.jacobian
    w = sample.weight
    return w * (j0 * j0), w * (j0 * j1), w * (j1 * j1)


def accumulate(samples: Iterable[CurvatureSample],
               mu_threshold: float = 0.0) -> CurvatureReport:
    """Sum ``w * J J^T`` over samples and report the spectrum.

    An empty or all-saturated sample set yields the zero matrix with
    ``lambda_min = 0``: no usable curvature anywhere in the plane.
    """
    terms = [_curvature_term(s) for s in samples]
    active = [term for term in terms if term is not None]
    a = b = c = 0.0
    for ta, tb, tc in active:
        a, b, c = a + ta, b + tb, c + tc
    return _report_from(a, b, c, len(terms) - len(active), len(active), mu_threshold)


def crossing_improves(before: CurvatureReport, new_sample: CurvatureSample,
                      mu_threshold: float = 0.0) -> tuple[CurvatureReport, float]:
    """Fold one new sample into a report and return the minimum-eigenvalue
    gain, which is never negative (eigenvalues of a sum of PSD matrices
    dominate the smaller summand's).

    The gain is strictly positive exactly when the sample carries curvature
    (non-saturated) and its Jacobian has a component along the previous
    minimum eigenvector -- the geometric payoff of a crossing maneuver.
    """
    a, b, c = before.entries
    term = _curvature_term(new_sample)
    if term is not None:
        a += term[0]
        b += term[1]
        c += term[2]
    after = _report_from(a, b, c, before.n_saturated + (term is None),
                         before.n_active + (term is not None), mu_threshold)
    return after, after.lambda_min - before.lambda_min


class SlidingCurvatureTracker:
    """Windowed curvature accumulator for per-step diagnostics.

    A full-history matrix masks recent degeneracy, so the per-step
    ``lambda_min`` series is computed over the trailing ``window`` samples.
    The running matrix is maintained incrementally (add new / subtract
    expired outer products); the window keeps each sample's term, so an
    expired term is subtracted exactly as it was added.
    """

    def __init__(self, window: int = 30, mu_threshold: float = 0.0):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.mu_threshold = mu_threshold
        self._terms: deque[Optional[tuple[float, float, float]]] = deque()
        self._a = self._b = self._c = 0.0  # running [[a, b], [b, c]]
        self._n_sat = 0

    def add(self, sample: CurvatureSample) -> None:
        term = _curvature_term(sample)
        self._terms.append(term)
        if term is None:
            self._n_sat += 1
        else:
            self._a += term[0]
            self._b += term[1]
            self._c += term[2]
        if len(self._terms) > self.window:
            old = self._terms.popleft()
            if old is None:
                self._n_sat -= 1
            else:
                self._a -= old[0]
                self._b -= old[1]
                self._c -= old[2]

    def report(self) -> CurvatureReport:
        n_act = len(self._terms) - self._n_sat
        return _report_from(self._a, self._b, self._c, self._n_sat, n_act, self.mu_threshold)

    def lambda_min(self) -> float:
        lmin, _ = eig_sym(self._a, self._b, self._c)
        return max(lmin, 0.0)
