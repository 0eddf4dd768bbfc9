"""Qutrit-pair decoherence toolkit: Kraus-channel evolution, entanglement
negativity, and geometric-discord bounds with an independent brute-force
oracle, plus sweep presets and a CLI."""

from ._version import __version__
from .linalg import (DensityMatrix, ValidationError, hermitian_eigenvalues,
                     make_bell_state, partial_trace, partial_transpose,
                     random_density_matrix, random_unitary, su_generators, tensor,
                     trace_norm, validate_density_matrix)
from .channels import (CHANNEL_FAMILIES, IncompleteKrausError, KrausChannel,
                       KrausDiagnostics, apply_channel, apply_local_channels,
                       clock_matrix, dephasing_kraus, depolarizing_kraus, evolve,
                       gamma_of, identity_kraus, kraus_for_family, shift_matrix,
                       trit_flip_kraus, trit_flip_kraus_unnormalized,
                       trit_phase_flip_kraus, validate_kraus)
from .measures import (BlochDecomposition, GdConvention, PAPER_CONVENTION,
                       RAW_CONVENTION, bloch_decomposition, bloch_synthesis,
                       gd_lower_bound, isotropic_family, negativity)
from .oracle import (OracleResult, analytic_gd_isotropic,
                     analytic_negativity_dephasing,
                     analytic_negativity_depolarizing, gd_exact,
                     project_measurement)
from .sweeps import (ConfigError, DEFAULT_RATE_RANGE, DEFAULT_TIME_RANGE,
                     ExperimentConfig, PRESET_CHANNELS, PRESET_FIXED_RATE,
                     PRESET_FIXED_TIME, PRESET_NAMES, RobustnessReport,
                     SweepDataset, SweepRange, infer_sweep_mode, preset_configs,
                     rate_grid, robustness_report, run_preset, run_sweep, time_sweep)
from .validation import CheckResult, run_validation

__all__ = [
    "__version__",
    "DensityMatrix", "ValidationError", "hermitian_eigenvalues",
    "make_bell_state", "partial_trace", "partial_transpose", "random_density_matrix",
    "random_unitary", "su_generators", "tensor", "trace_norm", "validate_density_matrix",
    "CHANNEL_FAMILIES", "IncompleteKrausError", "KrausChannel", "KrausDiagnostics",
    "apply_channel", "apply_local_channels", "clock_matrix", "dephasing_kraus",
    "depolarizing_kraus", "evolve", "gamma_of", "identity_kraus", "kraus_for_family",
    "shift_matrix", "trit_flip_kraus", "trit_flip_kraus_unnormalized",
    "trit_phase_flip_kraus", "validate_kraus",
    "BlochDecomposition", "GdConvention", "PAPER_CONVENTION", "RAW_CONVENTION",
    "bloch_decomposition", "bloch_synthesis", "gd_lower_bound", "isotropic_family",
    "negativity",
    "OracleResult", "analytic_gd_isotropic", "analytic_negativity_dephasing",
    "analytic_negativity_depolarizing", "gd_exact", "project_measurement",
    "ConfigError", "DEFAULT_RATE_RANGE", "DEFAULT_TIME_RANGE", "ExperimentConfig",
    "PRESET_CHANNELS", "PRESET_FIXED_RATE", "PRESET_FIXED_TIME", "PRESET_NAMES",
    "RobustnessReport", "SweepDataset", "SweepRange", "infer_sweep_mode",
    "preset_configs", "rate_grid", "robustness_report", "run_preset", "run_sweep", "time_sweep",
    "CheckResult", "run_validation",
]
