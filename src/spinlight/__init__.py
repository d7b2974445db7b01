"""Desk-scale simulator of QND-probed entanglement between two atomic spin
ensembles: exact Gaussian engine, physical calibration, stochastic lock-in
time domain, Monte Carlo measurement cycles, and CV protocols."""

from .gaussian import (
    GaussianState,
    apply_beta_decay,
    apply_qnd,
    coherent_fidelity,
    displace,
    duan_sum,
    measure_x,
    two_mode_squeeze,
    vacuum_state,
)
from .physics import (
    Calibration,
    PhysicalParams,
    beta_from_t2,
    calibrate,
    coupling_a,
    css_variance,
    faraday_theta,
    kappa2_experimental,
    kappa2_theory,
)
from .experiment import (
    CycleStats,
    density_sweep,
    duan_spin_check,
    stream_cycle_stats,
    theory_curves,
)
from .timedomain import (
    LockInResult,
    PulseTrace,
    shot_noise_scaling,
    simulate_pulse,
)
from .protocols import (
    ProtocolResult,
    entanglement_swap,
    quantum_memory,
    teleport_spin_state,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianState", "vacuum_state", "displace",
    "apply_qnd", "measure_x", "apply_beta_decay", "duan_sum",
    "two_mode_squeeze", "coherent_fidelity",
    "PhysicalParams", "Calibration", "calibrate", "coupling_a",
    "faraday_theta", "kappa2_theory", "kappa2_experimental", "css_variance",
    "beta_from_t2",
    "CycleStats", "theory_curves",
    "stream_cycle_stats", "duan_spin_check", "density_sweep",
    "PulseTrace", "LockInResult", "simulate_pulse", "shot_noise_scaling",
    "ProtocolResult", "teleport_spin_state", "entanglement_swap",
    "quantum_memory",
]
