"""quenchsim: quantum quench dynamics under linear, geodesic, and
kicked-geodesic driving, for two-level sweeps and free-fermion spin chains."""

__version__ = "0.1.0"

from .analysis import ScalingFit, fit_power_law
from .freefermion import (
    ChainConfig,
    DefectResult,
    Regime,
    defect_density,
    evolve_modes,
    excitation_prob,
    momentum_grid,
    run_chain,
)
from .landau_zener import LZConfig, Trajectory, evolve_lz
from .schedules import KickTrain, Strategy, kick_train, xy_geodesic_schedule

__all__ = [
    "__version__",
    "ChainConfig", "DefectResult", "KickTrain", "LZConfig",
    "Regime", "ScalingFit", "Strategy", "Trajectory",
    "defect_density", "evolve_lz", "evolve_modes", "excitation_prob",
    "fit_power_law", "kick_train", "momentum_grid", "run_chain", "xy_geodesic_schedule",
]
