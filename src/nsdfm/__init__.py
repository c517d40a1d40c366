"""Quasi-ML estimation of large non-stationary dynamic factor models.

The package estimates factor models whose common factors are cointegrated
I(1) processes, with optional random-walk idiosyncratic components, local
levels and local linear trends, by an EM algorithm built on a Kalman
smoother.  A simulation module generates the benchmark data-generating
process and three principal-components competitors provide reference
estimates of the common component.
"""

from .model import (
    ModelSpec,
    Panel,
    Params,
    StateSpace,
    build_state_space,
    common_component_path,
)
from .kalman import FilterOutput, SmootherOutput, kf_filter, ks_smooth, steady_state_diagnostics
from .pre_estimate import PreEstimate, pre_estimate
from .em import EMOptions, EMResult, fit
from .simulate import MCConfig, SimulatedPanel, simulate_panel
from .competitors import pc_levels, pc_diff_cumulate, pc_diff_corrected
from .metrics import mse_common

__version__ = "0.1.0"

__all__ = [
    "ModelSpec",
    "Panel",
    "Params",
    "StateSpace",
    "build_state_space",
    "common_component_path",
    "FilterOutput",
    "SmootherOutput",
    "kf_filter",
    "ks_smooth",
    "steady_state_diagnostics",
    "PreEstimate",
    "pre_estimate",
    "EMOptions",
    "EMResult",
    "fit",
    "MCConfig",
    "SimulatedPanel",
    "simulate_panel",
    "pc_levels",
    "pc_diff_cumulate",
    "pc_diff_corrected",
    "mse_common",
    "__version__",
]
