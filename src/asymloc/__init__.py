"""Asymmetric robust localization: one-sided range filtering, observability
diagnostics, and active search planners, with a seeded Monte Carlo harness."""

from .geometry import CoincidentPointsError, Measurement, Modality, linearize, wrap_angle
from .losses import (LossFamily, LossSpec, NoNlosEvidenceError, WrongLossFamilyError,
                     em_update_lambda, irls_weight, k_from_lambda, lambda_from_k,
                     loss, loss_curvature, loss_grad, soft_threshold_bias)
from .filters import (FILTER_KINDS, EstimatorState, FilterConfig, FilterDivergenceError,
                      FilterParams, RobustEkf, UpdateDiagnostics, init_state,
                      make_filter_config, predict, update)
from .observability import (CurvatureReport, CurvatureSample, SlidingCurvatureTracker,
                            accumulate, classify_residual, crossing_improves, eig_sym)
from .planners import (PLANNER_KINDS, FimPlanner, LawnmowerPlanner, PlannerConfig,
                       ReactiveCrossingPlanner, fim, fim_e_optimal, make_planner,
                       reactive_crossing)
from .sim_env import (PRESETS, ChannelDraw, Scenario, channel_draws, observe_with_draw,
                      segment_intersects_rect)
from .experiment import (GridSpec, RunMetrics, RunResult, SweepRow, aggregate, run_grid,
                         run_single, sweep)
from .config import ConfigError, ExperimentConfig, dump_config, parse_config

__version__ = "0.1.0"
