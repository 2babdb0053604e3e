"""Photon-transmission modeling for heralded-photon QKD over noisy fiber.

Quantifies when a heralded photon source beats a weak coherent source on
a noise-corrupted channel: closed-form link analytics, a cross-validating
Monte Carlo time-slot simulator, source calibration from measurable count
rates, and WDM channel-plan aggregation.
"""

from .calibration import (CalibrationError, CalibrationResult, InfeasibleError,
                          MeasuredCounts, SaturationError, beta_mu_from_rate,
                          calibrate_source, mu_from_g2, solve_channel_loss)
from .core import (DEFAULT_REPORTING_LOSS, SPEED_OF_LIGHT_M_S, ChannelSpec,
                   DetectorSpec, LinkMetrics, SourceSpec, Transmittance,
                   UndefinedConditionalError, db_to_linear, frequency_to_wavelength,
                   g2_predicted, linear_to_db, link_metrics, psnr_gain, psnr_gain_approx,
                   qber_exact, qber_from_psnr, rate_penalty, wavelength_to_frequency)
from .montecarlo import (Comparison, Estimate, MetricsEstimate, RunCounts, SimConfig,
                         analytic_predictions, analytic_std_errs, compare,
                         derive_seed, estimate_metrics, simulate)
from .scenario import Scenario, ScenarioError, build_scenario, load_scenario
from .wdm import (ChannelMetrics, ChannelPlan, NoiseScanRow, WdmAggregate,
                  WdmChannel, aggregate, channel_wavelength, load_noise_scan,
                  p_noise_from_scan)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "SPEED_OF_LIGHT_M_S", "DEFAULT_REPORTING_LOSS", "Transmittance", "SourceSpec",
    "ChannelSpec", "DetectorSpec", "LinkMetrics", "UndefinedConditionalError",
    "db_to_linear", "linear_to_db", "wavelength_to_frequency",
    "frequency_to_wavelength", "psnr_gain", "psnr_gain_approx", "rate_penalty",
    "qber_exact", "qber_from_psnr", "g2_predicted", "link_metrics",
    # calibration
    "MeasuredCounts", "CalibrationResult", "SaturationError", "CalibrationError",
    "InfeasibleError", "beta_mu_from_rate", "mu_from_g2", "calibrate_source",
    "solve_channel_loss",
    # montecarlo
    "SimConfig", "RunCounts", "Estimate", "MetricsEstimate", "derive_seed",
    "simulate", "estimate_metrics", "analytic_predictions", "analytic_std_errs",
    "Comparison", "compare",
    # scenario
    "Scenario", "ScenarioError", "load_scenario", "build_scenario",
    # wdm
    "WdmChannel", "ChannelPlan", "NoiseScanRow", "ChannelMetrics", "WdmAggregate",
    "channel_wavelength", "p_noise_from_scan", "load_noise_scan", "aggregate",
]
