"""quenchsim: quantum quench dynamics under linear, geodesic, and
kicked-geodesic driving, for two-level sweeps and free-fermion spin chains."""

__version__ = "0.1.0"

from .analysis import (
    ScalingFit,
    fit_power_law,
    kick_pk_leading_order,
    kz_exponent,
    phi_y_amplitude,
    plateau_asymptotic,
)
from .freefermion import (
    ChainConfig,
    DefectResult,
    KMode,
    Regime,
    defect_density,
    evolve_mode_kicks_exact,
    evolve_mode_stepwise,
    evolve_modes,
    excitation_prob,
    ground_excited,
    kmode,
    kmode_hamiltonian,
    momentum_grid,
    run_chain,
)
from .landau_zener import LZConfig, Trajectory, adiabatic_error, evolve_lz, lz_hamiltonian
from .schedules import (
    Control,
    KickTrain,
    Schedule,
    Strategy,
    fs_metric_gamma,
    kick_train,
    lz_geodesic_schedule,
    xy_geodesic_schedule,
)
from .su2 import Herm2, eig2, expm_herm2, fidelity, su2_rotation

__all__ = [
    "__version__",
    "ChainConfig", "Control", "DefectResult", "Herm2", "KMode", "KickTrain",
    "LZConfig", "Regime", "ScalingFit", "Schedule", "Strategy",
    "Trajectory", "adiabatic_error", "defect_density", "eig2",
    "evolve_lz", "evolve_mode_kicks_exact", "evolve_mode_stepwise",
    "evolve_modes", "excitation_prob", "expm_herm2", "fidelity",
    "fit_power_law", "fs_metric_gamma", "ground_excited", "kick_pk_leading_order",
    "kick_train", "kmode", "kmode_hamiltonian", "kz_exponent",
    "lz_geodesic_schedule", "lz_hamiltonian", "momentum_grid",
    "phi_y_amplitude", "plateau_asymptotic", "run_chain", "su2_rotation",
    "xy_geodesic_schedule",
]
