"""Directed-information rate estimation and capacity estimation for
continuous channels with memory."""

from .baselines import (awgn_capacity, gaussian_di_oracle, ma1_fb_capacity,
                        ma1_ff_capacity)
from .capest import (EstimateReport, TrainConfig, estimate_capacity,
                     monte_carlo_eval)
from .channels import ChannelSpec, rollout
from .dine import DineModel, dine_estimate, dine_train, fit_reference
from .ndt import NdtModel, power_normalize
from .nn import Adam, Dense, LstmCell, Rng

__all__ = [
    "Adam", "ChannelSpec", "Dense", "DineModel", "EstimateReport",
    "LstmCell", "NdtModel", "Rng", "TrainConfig", "awgn_capacity",
    "dine_estimate", "dine_train", "estimate_capacity", "fit_reference",
    "gaussian_di_oracle", "ma1_fb_capacity", "ma1_ff_capacity",
    "monte_carlo_eval", "power_normalize", "rollout",
]

__version__ = "0.1.0"
