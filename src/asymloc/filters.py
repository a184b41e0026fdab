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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import CoincidentPointsError, Modality, Pose2, h_aoa, h_rtt, jacobian, wrap_angle
from .knobs import check, knob
from .losses import LossFamily, LossSpec, NoNlosEvidenceError, em_update_lambda, irls_weight, soft_threshold_bias

# state vector layout
IX, IY, IDR, IDT = 0, 1, 2, 3
STATE_DIM = 4

FILTER_KINDS = ("proposed", "huber", "ekf")

_DELTA_INDEX = {Modality.RTT: IDR, Modality.AOA: IDT}


@dataclass(frozen=True)
class Measurement:
    """One timestamped observation from a known agent pose."""

    modality: Modality
    value: float
    agent: Pose2
    step: int = 0


@dataclass
class EstimatorState:
    """Gaussian belief over the augmented state: mean (4,) and covariance (4, 4)."""

    mean: np.ndarray
    cov: np.ndarray

    def copy(self) -> "EstimatorState":
        return EstimatorState(self.mean.copy(), self.cov.copy())

    @property
    def position(self) -> np.ndarray:
        return self.mean[:2].copy()


@dataclass(frozen=True)
class FilterConfig:
    """Loss choices and prior scales for one filter instance.

    ``sigma_delta_r`` / ``sigma_delta_theta`` are the standard deviations
    of the zero-mean Gaussian priors on the systematic offsets; they enter
    only through the initial covariance. ``process_noise`` is the per-step
    variance added to every state to keep the static-target filter
    responsive to drift.
    """

    rtt_loss: LossSpec
    aoa_loss: LossSpec
    sigma_delta_r: float = knob(2.0, gt=0.0)
    sigma_delta_theta: float = knob(np.deg2rad(5.0), kind="float", gt=0.0)
    init_position_std: float = knob(40.0, gt=0.0)
    irls_iterations: int = knob(3, ge=1, le=10)
    process_noise: float = knob(1e-4, ge=0.0)
    em_enabled: bool = False
    em_window: int = knob(50, ge=1)
    # bearing linearization is invalid when the estimate sits on the agent
    # (Jacobian blows up as 1/d); below this predicted range the AoA update
    # is skipped like a coincident measurement
    min_aoa_range: float = 1.0

    def __post_init__(self):
        check(self)

    def loss_for(self, modality: Modality) -> LossSpec:
        return self.rtt_loss if modality is Modality.RTT else self.aoa_loss


@dataclass(frozen=True)
class UpdateDiagnostics:
    """What a single measurement update did.

    ``residual`` and ``weight`` are evaluated at the posterior mean (the
    final linearization point). ``implied_bias`` is the solved non-negative
    range bias for one-sided RTT updates, ``None`` otherwise. ``skipped``
    marks measurements dropped because agent and estimate coincide.
    """

    modality: Modality
    residual: float = 0.0
    weight: float = 1.0
    saturated: bool = False
    implied_bias: Optional[float] = None
    jacobian_pos: Optional[np.ndarray] = None
    skipped: bool = False


def make_filter_config(kind: str, sigma_r: float, sigma_theta: float, *,
                       k_rtt: float = 1.5, k_aoa: float = 1.345, **fields) -> FilterConfig:
    """Build the config for one of the stock filter kinds; ``fields`` are
    the other :class:`FilterConfig` fields (its defaults otherwise).

    The ``ekf`` kind forces a single update iteration: with a quadratic
    loss the reweighting is a no-op and one iteration is exactly the
    textbook EKF update.
    """
    if kind == "proposed":
        rtt = LossSpec.one_sided(sigma_r, k=k_rtt)
        aoa = LossSpec.symmetric(sigma_theta, k=k_aoa)
    elif kind == "huber":
        rtt = LossSpec.symmetric(sigma_r, k=k_rtt)
        aoa = LossSpec.symmetric(sigma_theta, k=k_aoa)
    elif kind == "ekf":
        rtt = LossSpec.quadratic(sigma_r)
        aoa = LossSpec.quadratic(sigma_theta)
        fields["irls_iterations"] = 1
    else:
        raise ValueError(f"unknown filter kind {kind!r}; expected one of {FILTER_KINDS}")
    return FilterConfig(rtt_loss=rtt, aoa_loss=aoa, **fields)


def init_state(config: FilterConfig, initial_guess) -> EstimatorState:
    """Initial belief: guessed position, zero offsets, diagonal covariance
    carrying the position spread and the offset priors."""
    guess = np.asarray(initial_guess, dtype=float)
    mean = np.array([guess[0], guess[1], 0.0, 0.0])
    cov = np.diag([config.init_position_std**2, config.init_position_std**2,
                   config.sigma_delta_r**2, config.sigma_delta_theta**2])
    return EstimatorState(mean, cov)


def predict(state: EstimatorState, process_noise: float) -> EstimatorState:
    """Time update for the static-target model: mean unchanged, covariance
    grows by ``process_noise * I``."""
    cov = state.cov.copy()
    if process_noise > 0.0:
        cov[np.diag_indices_from(cov)] += process_noise
    return EstimatorState(state.mean.copy(), cov)


def _observation(modality: Modality, position: np.ndarray, agent: Pose2) -> float:
    if modality is Modality.RTT:
        return h_rtt(position, agent)
    return h_aoa(position, agent)


def update(state: EstimatorState, z: Measurement,
           config: FilterConfig) -> tuple[EstimatorState, UpdateDiagnostics]:
    """Fold one measurement into the belief (iterated, reweighted update).

    Each round re-linearizes the observation at the current iterate,
    recomputes the residual and its M-estimation weight, and applies the
    gain computed from the predicted covariance with the inflated noise
    ``sigma^2 / w``. Covariance is updated once, from the final round, in
    Joseph form, and symmetrized.

    A measurement taken with the estimate coincident with the agent is
    skipped (state returned unchanged) since the observation model is
    singular there.
    """
    spec = config.loss_for(z.modality)
    d_idx = _DELTA_INDEX[z.modality]
    x0 = state.mean
    P = state.cov

    H = np.zeros(STATE_DIM)
    H[d_idx] = 1.0
    xi = x0
    K = None
    sigma2 = spec.sigma**2
    for _ in range(config.irls_iterations):
        try:
            if (z.modality is Modality.AOA
                    and h_rtt(xi[:2], z.agent) < config.min_aoa_range):
                return state, UpdateDiagnostics(z.modality, skipped=True)
            pred = _observation(z.modality, xi[:2], z.agent)
            J = jacobian(z.modality, xi[:2], z.agent)
        except CoincidentPointsError:
            return state, UpdateDiagnostics(z.modality, skipped=True)
        r = z.value - pred - xi[d_idx]
        if z.modality is Modality.AOA:
            r = wrap_angle(r)
        w = irls_weight(r, spec)
        H[IX], H[IY] = J[0], J[1]
        PH = P @ H
        S = float(H @ PH) + sigma2 / w
        K = PH / S
        # relinearized innovation keeps the update anchored at the prior mean
        xi = x0 + K * (r + float(H @ (xi - x0)))

    R_eff = sigma2 / w
    IKH = np.eye(STATE_DIM) - np.outer(K, H)
    cov = IKH @ P @ IKH.T + np.outer(K, K) * R_eff
    cov = 0.5 * (cov + cov.T)
    new_state = EstimatorState(xi, cov)

    # diagnostics carry the final round's residual and weight: the pair that
    # produced the applied gain
    implied = None
    if z.modality is Modality.RTT and spec.family is LossFamily.ONE_SIDED:
        implied = soft_threshold_bias(r, spec)
    return new_state, UpdateDiagnostics(z.modality, residual=r, weight=w,
                                        saturated=w < 1.0, implied_bias=implied,
                                        jacobian_pos=H[:2].copy())


def learned_bias(state: EstimatorState, modality: Modality) -> float:
    """Current estimate of the systematic offset for a modality."""
    return float(state.mean[_DELTA_INDEX[modality]])


class RobustEkf:
    """Stateful wrapper around the pure filter functions.

    One instance per simulation run. When ``em_enabled`` is set, the rate
    parameter of a one-sided RTT loss is refreshed every ``em_window``
    range updates from the window's solved biases (inverse sample mean);
    an all-zero window keeps the current rate.
    """

    def __init__(self, config: FilterConfig, initial_guess):
        self.config = config
        self.state = init_state(config, initial_guess)
        self._bias_window: list[float] = []

    def predict(self) -> None:
        self.state = predict(self.state, self.config.process_noise)

    def update(self, z: Measurement) -> UpdateDiagnostics:
        self.state, diag = update(self.state, z, self.config)
        if (self.config.em_enabled and z.modality is Modality.RTT
                and diag.implied_bias is not None and not diag.skipped):
            self._bias_window.append(diag.implied_bias)
            if len(self._bias_window) >= self.config.em_window:
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

    def learned_bias(self, modality: Modality) -> float:
        return learned_bias(self.state, modality)

    @property
    def position_estimate(self) -> np.ndarray:
        return self.state.position
