"""Laboratory calibration layer: lab parameters -> dimensionless coupling.

All unit-carrying formulas live here; every other module works in canonical
units (vacuum variance 1/2).  Inputs are SI-flavored lab units (nm, MHz, mW,
ms, cm^2); internally lengths go to meters and areas to m^2 once, at the
boundary.  The detuning sign convention is blue-positive, which makes the
coupling constant ``a`` negative for blue detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

# Exact SI defining constants (2019 redefinition).
PLANCK_J_S = 6.62607015e-34
LIGHT_SPEED_M_S = 299792458.0

#: Lumped prefactor of the practical coupling formula
#: kappa^2 = 18.6 * P[mW] * T[ms] * theta[deg] / Delta[MHz].
KAPPA2_PRACTICAL_COEFF = 18.6

#: Slope of the measured projection-noise line, kappa^2 per degree of
#: DC Faraday rotation.
KAPPA2_EXP_SLOPE = 0.10


@dataclass(frozen=True)
class PhysicalParams:
    """Probe-laser and vapour-cell parameters.

    theta, when known from a DC Faraday measurement, can stand in for the
    atom number; otherwise n_atoms fixes the macroscopic spin.
    """

    wavelength_nm: float = 852.0
    linewidth_MHz: float = 5.0
    detuning_MHz: float = 700.0  # blue positive
    power_mW: float = 4.5
    pulse_ms: float = 2.0
    area_eff_cm2: float = 6.0
    n_atoms: float = 1.0e11  # F=4 population per cell

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("wavelength_nm", "linewidth_MHz", "power_mW", "pulse_ms",
                     "area_eff_cm2", "n_atoms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.detuning_MHz == 0:
            raise ValueError("detuning must be nonzero")


@dataclass(frozen=True)
class Calibration:
    """Derived operating point: coupling constant, spins, flux, kappa."""

    a_coupling: float
    j_x: float
    s_x: float  # photons per second / 2
    kappa: float
    theta_deg: float

    @property
    def kappa2(self) -> float:
        return self.kappa**2


def coupling_a(p: PhysicalParams) -> float:
    """Dimensionless single-pass coupling a = -gamma lambda^2 / (8 pi A_eff Delta).

    gamma and Delta enter as a ratio so any common frequency unit works; the
    effective cell cross section A_eff is used throughout because thermal
    atoms sample the whole cell volume during a pulse.
    """
    lam_m = p.wavelength_nm * 1e-9
    area_m2 = p.area_eff_cm2 * 1e-4
    return -(p.linewidth_MHz * lam_m**2) / (8.0 * math.pi * area_m2 * p.detuning_MHz)


def macroscopic_spin(n_atoms: float) -> float:
    """J_x for a fully pumped F=4 ensemble: 4 per atom."""
    if n_atoms <= 0:
        raise ValueError("n_atoms must be positive")
    return 4.0 * n_atoms


def photon_flux(power_mW: float, wavelength_nm: float) -> float:
    """Photons per second delivered at the given power."""
    energy = PLANCK_J_S * LIGHT_SPEED_M_S / (wavelength_nm * 1e-9)
    return power_mW * 1e-3 / energy


def stokes_sx(power_mW: float, wavelength_nm: float) -> float:
    """Classical S_x of a strongly x-polarized beam: half the photon flux."""
    return 0.5 * photon_flux(power_mW, wavelength_nm)


def css_variance(n_atoms: float) -> float:
    """Transverse spin variance J_x/2 = 2 N of the coherent spin state.

    The linear growth with atom number is the projection-noise fingerprint.
    """
    if n_atoms <= 0:
        raise ValueError("n_atoms must be positive")
    return 2.0 * n_atoms


def faraday_theta(j_x: float, p: PhysicalParams) -> float:
    """DC Faraday rotation angle theta = a J_x / 2, returned in degrees.

    Signed: blue detuning (positive input) gives a < 0 and hence theta < 0;
    lab reports quote the magnitude.
    """
    if j_x < 0:
        raise ValueError("j_x must be >= 0")
    return math.degrees(coupling_a(p) * j_x / 2.0)


def j_x_from_theta(theta_deg: float, p: PhysicalParams) -> float:
    """Exact algebraic inverse of faraday_theta."""
    return 2.0 * math.radians(theta_deg) / coupling_a(p)


def kappa_from_params(p: PhysicalParams, j_x: float | None = None) -> float:
    """kappa = |a| sqrt(J_x S_x T) from first principles."""
    if j_x is None:
        j_x = macroscopic_spin(p.n_atoms)
    s_x = stokes_sx(p.power_mW, p.wavelength_nm)
    t_s = p.pulse_ms * 1e-3
    return abs(coupling_a(p)) * math.sqrt(j_x * s_x * t_s)


def calibrate(p: PhysicalParams, theta_deg: float | None = None) -> Calibration:
    """Derive the operating point; theta_deg (magnitude) overrides n_atoms.

    Raises ValueError where theta_deg, j_x, s_x, kappa or kappa^2 is not finite.
    """
    a = coupling_a(p)
    if theta_deg is None:
        j_x = macroscopic_spin(p.n_atoms)
        theta_deg = abs(faraday_theta(j_x, p))
    else:
        if theta_deg < 0:
            raise ValueError("theta_deg must be >= 0")
        j_x = abs(j_x_from_theta(theta_deg, p))
    cal = Calibration(
        a_coupling=a,
        j_x=j_x,
        s_x=stokes_sx(p.power_mW, p.wavelength_nm),
        kappa=kappa_from_params(p, j_x),
        theta_deg=theta_deg,
    )
    # kappa * kappa, not kappa**2: a Python float power raises OverflowError
    for name, value in (("theta_deg", theta_deg), ("j_x", j_x), ("s_x", cal.s_x),
                        ("kappa", cal.kappa), ("kappa2", cal.kappa * cal.kappa)):
        if not math.isfinite(value):
            raise ValueError(f"the operating point's {name} is not finite")
    return cal


def kappa2_theory(power_mW: float, pulse_ms: float, theta_deg: float,
                  detuning_MHz: float) -> float:
    """Practical coupling prediction 18.6 * P * T * theta / |Delta|.

    The lumped 18.6 prefactor is kept as published; it sits a few percent
    above what the rounded gamma = 5 MHz reproduces (see kappa2_first_principles).
    """
    if min(power_mW, pulse_ms, theta_deg) < 0 or detuning_MHz == 0:
        raise ValueError("power, pulse and theta must be non-negative, detuning nonzero")
    return KAPPA2_PRACTICAL_COEFF * power_mW * pulse_ms * theta_deg / abs(detuning_MHz)


def kappa2_first_principles(power_mW: float, pulse_ms: float, theta_deg: float,
                            detuning_MHz: float, p: PhysicalParams | None = None) -> float:
    """Same functional form as kappa2_theory, composed from coupling_a and S_x.

    kappa^2 = a^2 J_x S_x T with J_x eliminated through the Faraday angle,
    i.e. 2 |a| theta[rad] S_x T.  Used to cross-check the formula graph.
    """
    if p is None:
        p = PhysicalParams()
    p = replace(p, detuning_MHz=detuning_MHz, power_mW=power_mW, pulse_ms=pulse_ms)
    s_x = stokes_sx(power_mW, p.wavelength_nm)
    return 2.0 * abs(coupling_a(p)) * math.radians(theta_deg) * s_x * pulse_ms * 1e-3


def kappa2_experimental(theta_deg: float) -> float:
    """Measured projection-noise slope: kappa^2 = 0.10 * theta[deg]."""
    if theta_deg < 0:
        raise ValueError("theta_deg must be >= 0")
    return KAPPA2_EXP_SLOPE * theta_deg


def beta_from_t2(t2_ms: float, gap_ms: float) -> float:
    """Survival amplitude exp(-gap/T2) of the transverse spin between pulses."""
    if t2_ms <= 0:
        raise ValueError("t2_ms must be positive")
    if gap_ms < 0:
        raise ValueError("gap_ms must be >= 0")
    return math.exp(-gap_ms / t2_ms)


def mean_sy_small_angle(s_x: float, theta_rad: float) -> float:
    """Mean S_y of an x-polarized beam rotated by a small angle: 2 S_x theta."""
    return 2.0 * s_x * theta_rad
