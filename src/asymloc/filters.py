"""Sequential robust estimators over the augmented state.

The state is ``[x, y, delta_r, delta_theta]``: target position plus one
time-invariant systematic offset per modality (range offset in meters,
bearing offset in radians). Measurements arrive one at a time and are
folded in by an iterated EKF update whose effective measurement noise is
inflated by the loss's M-estimation weight (``R_eff = sigma^2 / w``), so
the filter realizes the robust loss's influence function: saturated
residuals contribute an almost-zero gain while trusted residuals get the
textbook update.

Three stock configurations are provided: ``proposed`` (one-sided range
loss + symmetric bearing loss), ``huber`` (symmetric on both), and ``ekf``
(plain quadratic, single update iteration -- the textbook filter).

The belief is held as Python floats (:class:`EstimatorState`), so
:func:`predict` and :func:`update` build no arrays.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .geometry import CoincidentPointsError, Modality, linearize, wrap_angle
from .knobs import check, knob
from .losses import LossFamily, LossSpec, NoNlosEvidenceError, em_update_lambda, irls_weight, soft_threshold_bias

FILTER_KINDS = ("proposed", "huber", "ekf")

# bearing linearization is invalid when the estimate sits on the agent
# (Jacobian blows up as 1/d); below this predicted range the AoA update
# is skipped like a coincident measurement
MIN_AOA_RANGE = 1.0


class Measurement(NamedTuple):
    """One timestamped observation from a known agent position ``(x, y)``."""

    modality: Modality
    value: float
    agent: tuple[float, float]
    step: int = 0


class EstimatorState(NamedTuple):
    """Gaussian belief over the augmented state as two float tuples: ``m``,
    the 4 mean entries, and ``p``, the 10 distinct covariance entries row by
    row from the diagonal (``p00, p01, p02, p03, p11, ..., p33``)."""

    m: tuple[float, float, float, float]
    p: tuple[float, ...]


@dataclass(frozen=True)
class FilterParams:
    """Filter knobs that are not part of the scenario (the noise scales
    come from the scenario so filter and world stay matched).

    ``k_rtt`` / ``k_aoa`` are the Huber thresholds the losses are built
    with. ``sigma_delta_r`` / ``sigma_delta_theta_deg`` are the standard
    deviations of the zero-mean Gaussian priors on the systematic offsets;
    they enter only through the initial covariance. ``process_noise`` is
    the per-step variance added to every state to keep the static-target
    filter responsive to drift.
    """

    k_rtt: float = knob(1.5, "filter", gt=0.0)
    k_aoa: float = knob(1.345, "filter", gt=0.0)
    sigma_delta_r: float = knob(2.0, "filter", gt=0.0)
    sigma_delta_theta_deg: float = knob(5.0, "filter", gt=0.0)
    init_position_std: float = knob(40.0, "filter", gt=0.0)
    irls_iterations: int = knob(3, "filter", ge=1, le=10)
    process_noise: float = knob(1e-4, "filter", ge=0.0)
    em_enabled: bool = knob(False, "filter")
    em_window: int = knob(50, "filter", ge=1)

    def __post_init__(self):
        check(self)

    @property
    def sigma_delta_theta_rad(self) -> float:
        return math.radians(self.sigma_delta_theta_deg)


@dataclass(frozen=True)
class FilterConfig:
    """One filter instance: its two losses and the params it runs with.

    ``params.k_rtt`` / ``params.k_aoa`` are the inputs the losses were
    built from; :func:`update` reads only the losses, and EM replaces only
    ``rtt_loss``.
    """

    rtt_loss: LossSpec
    aoa_loss: LossSpec
    params: FilterParams = field(default_factory=FilterParams)


class UpdateDiagnostics(NamedTuple):
    """What a single measurement update did.

    ``residual``, ``weight`` and the position Jacobian ``jacobian_pos`` (a
    float pair) are those of the final linearization point. ``implied_bias``
    is the solved non-negative range bias for one-sided RTT updates,
    ``None`` otherwise. ``skipped`` marks measurements dropped because
    agent and estimate coincide.
    """

    modality: Modality
    residual: float = 0.0
    weight: float = 1.0
    saturated: bool = False
    implied_bias: Optional[float] = None
    jacobian_pos: Optional[tuple[float, float]] = None
    skipped: bool = False


def make_filter_config(kind: str, sigma_r: float, sigma_theta: float,
                       params: FilterParams = FilterParams()) -> FilterConfig:
    """Build the config for one of the stock filter kinds.

    The ``ekf`` kind forces a single update iteration: with a quadratic
    loss the reweighting is a no-op and one iteration is exactly the
    textbook EKF update.
    """
    if kind == "proposed":
        rtt = LossSpec.one_sided(sigma_r, k=params.k_rtt)
        aoa = LossSpec.symmetric(sigma_theta, k=params.k_aoa)
    elif kind == "huber":
        rtt = LossSpec.symmetric(sigma_r, k=params.k_rtt)
        aoa = LossSpec.symmetric(sigma_theta, k=params.k_aoa)
    elif kind == "ekf":
        rtt = LossSpec.quadratic(sigma_r)
        aoa = LossSpec.quadratic(sigma_theta)
        params = dataclasses.replace(params, irls_iterations=1)
    else:
        raise ValueError(f"unknown filter kind {kind!r}; expected one of {FILTER_KINDS}")
    return FilterConfig(rtt_loss=rtt, aoa_loss=aoa, params=params)


def init_state(config: FilterConfig, initial_guess) -> EstimatorState:
    """Initial belief: guessed position, zero offsets, diagonal covariance
    carrying the position spread and the offset priors."""
    x, y = float(initial_guess[0]), float(initial_guess[1])
    p = config.params
    var = p.init_position_std**2
    return EstimatorState((x, y, 0.0, 0.0), (var, 0.0, 0.0, 0.0, var, 0.0, 0.0,
                                             p.sigma_delta_r**2, 0.0, p.sigma_delta_theta_rad**2))


def predict(state: EstimatorState, process_noise: float) -> EstimatorState:
    """Time update for the static-target model: mean unchanged, covariance
    grows by ``process_noise * I``."""
    q, p = process_noise, state.p
    return EstimatorState(state.m, (p[0] + q, p[1], p[2], p[3], p[4] + q, p[5], p[6], p[7] + q,
                                    p[8], p[9] + q))


class FilterDivergenceError(ArithmeticError):
    """An update produced a non-finite mean or covariance, or a covariance
    with a non-positive diagonal entry."""


def update(state: EstimatorState, z: Measurement,
           config: FilterConfig) -> tuple[EstimatorState, UpdateDiagnostics]:
    """Fold one measurement into the belief (iterated, reweighted update).

    Each round re-linearizes the observation at the current iterate,
    recomputes the residual and its M-estimation weight, and applies the
    gain computed from the predicted covariance with the inflated noise
    ``sigma^2 / w``. Covariance is updated once, from the final round, in
    Joseph form, exactly symmetric.

    The observation row ``H`` has the position Jacobian ``(j0, j1)`` in its
    first two entries and a 1 at the modality's offset, so the rank-one
    update runs on named Python floats: the prior covariance entries
    ``p00``..``p33`` with ``c0``..``c3`` the column of the modality's offset,
    the prior mean ``m0``..``m3`` and the iterate ``e0``..``e3``,
    ``PH = P H`` as ``h0``..``h3``, ``S = H^T P H + R_eff`` and
    ``K = PH / S`` as ``k0``..``k3``. The Joseph form
    ``(I - K H^T) P (I - K H^T)^T + R_eff K K^T`` is expanded as
    ``P - K PH^T - PH K^T + S K K^T`` into the ten upper entries
    ``n00``..``n33``, which are the posterior's ``p``.

    A measurement taken with the estimate coincident with the agent is
    skipped (state returned unchanged) since the observation model is
    singular there. A posterior with a non-finite entry or a non-positive
    variance raises :class:`FilterDivergenceError`.
    """
    modality, value, agent = z.modality, z.value, z.agent
    is_aoa = modality is Modality.AOA
    spec = config.aoa_loss if is_aoa else config.rtt_loss
    sigma2 = spec.sigma**2
    m0, m1, m2, m3 = state.m
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = state.p
    if is_aoa:
        md, c0, c1, c2, c3 = m3, p03, p13, p23, p33
    else:
        md, c0, c1, c2, c3 = m2, p02, p12, p22, p23

    e0, e1, e2, e3 = m0, m1, m2, m3
    for _ in range(config.params.irls_iterations):
        try:
            pred, dist, j0, j1 = linearize((e0, e1), agent, is_aoa)
        except CoincidentPointsError:
            return state, UpdateDiagnostics(modality, skipped=True)
        if is_aoa and dist < MIN_AOA_RANGE:
            return state, UpdateDiagnostics(modality, skipped=True)
        ed = e3 if is_aoa else e2
        r = value - pred - ed
        if is_aoa:
            r = wrap_angle(r)
        w = irls_weight(r, spec)
        h0 = p00 * j0 + p01 * j1 + c0
        h1 = p01 * j0 + p11 * j1 + c1
        h2 = p02 * j0 + p12 * j1 + c2
        h3 = p03 * j0 + p13 * j1 + c3
        S = j0 * h0 + j1 * h1 + (h3 if is_aoa else h2) + sigma2 / w
        k0, k1, k2, k3 = h0 / S, h1 / S, h2 / S, h3 / S
        # relinearized innovation keeps the update anchored at the prior mean
        innov = r + (j0 * (e0 - m0) + j1 * (e1 - m1) + (ed - md))
        e0, e1, e2, e3 = m0 + k0 * innov, m1 + k1 * innov, m2 + k2 * innov, m3 + k3 * innov

    # the final round's S = H^T P H + R_eff is the Joseph form's K K^T factor
    n00 = p00 - k0 * h0 - h0 * k0 + S * k0 * k0
    n01 = p01 - k0 * h1 - h0 * k1 + S * k0 * k1
    n02 = p02 - k0 * h2 - h0 * k2 + S * k0 * k2
    n03 = p03 - k0 * h3 - h0 * k3 + S * k0 * k3
    n11 = p11 - k1 * h1 - h1 * k1 + S * k1 * k1
    n12 = p12 - k1 * h2 - h1 * k2 + S * k1 * k2
    n13 = p13 - k1 * h3 - h1 * k3 + S * k1 * k3
    n22 = p22 - k2 * h2 - h2 * k2 + S * k2 * k2
    n23 = p23 - k2 * h3 - h2 * k3 + S * k2 * k3
    n33 = p33 - k3 * h3 - h3 * k3 + S * k3 * k3
    if not (all(map(math.isfinite, (e0, e1, e2, e3, n00, n01, n02, n03, n11, n12, n13,
                                    n22, n23, n33)))
            and min(n00, n11, n22, n33) > 0.0):
        raise FilterDivergenceError(
            f"{modality.value} update at step {z.step} gave mean {[e0, e1, e2, e3]} "
            f"and variances {[n00, n11, n22, n33]}")
    new_state = EstimatorState((e0, e1, e2, e3), (n00, n01, n02, n03, n11, n12, n13, n22, n23, n33))

    # diagnostics carry the final round's residual, weight and Jacobian: the
    # ones that produced the applied gain; built positionally, in field order
    implied = None
    if not is_aoa and spec.family is LossFamily.ONE_SIDED:
        implied = soft_threshold_bias(r, spec)
    return new_state, tuple.__new__(UpdateDiagnostics,
                                    (modality, r, w, w < 1.0, implied, (j0, j1), False))


class RobustEkf:
    """Stateful wrapper around the pure filter functions.

    One instance per simulation run. When ``params.em_enabled`` is set,
    the rate parameter of a one-sided RTT loss is refreshed every
    ``params.em_window`` range updates from the window's solved biases
    (inverse sample mean); an all-zero window keeps the current rate.
    """

    def __init__(self, config: FilterConfig, initial_guess):
        self.config = config
        self.state = init_state(config, initial_guess)
        self._em_enabled = config.params.em_enabled
        self._bias_window: list[float] = []

    def predict(self) -> None:
        self.state = predict(self.state, self.config.params.process_noise)

    def update(self, z: Measurement) -> UpdateDiagnostics:
        self.state, diag = update(self.state, z, self.config)
        # only an applied one-sided range update solves an implied bias
        if self._em_enabled and diag.implied_bias is not None:
            self._bias_window.append(diag.implied_bias)
            if len(self._bias_window) >= self.config.params.em_window:
                self._refresh_rtt_rate()
                self._bias_window.clear()
        return diag

    def _refresh_rtt_rate(self) -> None:
        try:
            lam_new = em_update_lambda(self._bias_window)
        except NoNlosEvidenceError:
            return
        new_loss = LossSpec.one_sided(self.config.rtt_loss.sigma, lam=lam_new)
        self.config = dataclasses.replace(self.config, rtt_loss=new_loss)
