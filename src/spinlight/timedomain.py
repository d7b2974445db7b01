"""Stochastic time-domain engine: rotating-frame spin dynamics under
delta-correlated light noise, and lock-in demodulation of the Faraday signal.

This module deliberately avoids the Gaussian covariance engine: it integrates
the two-cell rotating-frame equations step by step (Euler-Maruyama) and
extracts the canonical light operators by multiplying the simulated
photocurrent with cos/sin of the Larmor phase.  It therefore serves as an
independent cross-check of the symplectic engine.

Scaled units: atomic quadratures are canonical (vacuum variance 1/2); the
per-step integrated Stokes noise has variance (S_x/2) dt, which reduces to
dimensionless dt/(2T) blocks once the demodulation normalization is applied.
Within the linearized dynamics the spin-driving noise (S_z) is independent of
the read-out noise (S_y), so the Euler scheme carries no Ito/Stratonovich
ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chunks import chunk_map
from .output import write_csv

#: Default Larmor cycles per pulse: 325 kHz * 2 ms.
DEFAULT_OMEGA_T = 2.0 * np.pi * 650.0
#: Minimum time steps per Larmor cycle demanded of callers.
STEPS_PER_CYCLE = 100
#: Pulse length T.  Lock-in outputs and moments depend only on omega_T and
#: n_steps; T sets only the time axis (dt_ms, the trace's t_ms column).
PULSE_MS = 2.0


@dataclass(frozen=True)
class PulseTrace:
    """Discretized record of one probe pulse.

    sy_samples are the per-step integrated S_y^out in units where the
    cos/sin-weighted sums reproduce the lock-in outputs when an integer
    number of Larmor cycles fits the pulse.  Spin trajectories are stored as
    canonical-normalized sums and differences of the two cells' transverse
    components (J'_{y,z} divided by sqrt(2 J_x)).
    """

    dt_ms: float
    n_steps: int
    sy_samples: np.ndarray
    spin_sums: np.ndarray   # (n_steps, 2): (jy1+jy2, jz1+jz2)
    spin_diffs: np.ndarray  # (n_steps, 2): (jy1-jy2, jz1-jz2)


@dataclass(frozen=True)
class LockInResult:
    """Demodulated canonical light quadratures of one pulse."""

    x_l1: float  # cos channel
    x_l2: float  # sin channel


@dataclass(frozen=True)
class PulseMoments:
    """Exact second moments of the discretized model (no Monte Carlo)."""

    var_xl1: float
    var_xl2: float
    cov_xl1_xl2: float
    kappa_eff_1: float
    kappa_eff_2: float


def _check_resolution(omega_T: float, n_steps: int) -> None:
    cycles = omega_T / (2.0 * np.pi)
    if n_steps < STEPS_PER_CYCLE * cycles:
        raise ValueError(
            f"n_steps={n_steps} under-resolves the Larmor precession; "
            f"need >= {STEPS_PER_CYCLE} steps per cycle ({cycles:.1f} cycles)")


def _weights(omega_T: float, n_steps: int):
    """Midpoint cos/sin samples and the exact discrete demodulation norms."""
    dt = PULSE_MS / n_steps
    t = (np.arange(n_steps) + 0.5) * dt
    phase = (omega_T / PULSE_MS) * t
    c, s = np.cos(phase), np.sin(phase)
    norm_c = float(np.sum(c * c) * dt)
    norm_s = float(np.sum(s * s) * dt)
    return dt, c, s, norm_c, norm_s


def simulate_pulse(kappa: float, omega_T: float, n_steps: int,
                   atoms_in: tuple[float, float, float, float],
                   rng: np.random.Generator) -> tuple[PulseTrace, LockInResult]:
    """Integrate one probe pulse through two oppositely oriented cells.

    atoms_in are realizations of the canonical pair quadratures
    (X_A1, P_A1, X_A2, P_A2).  Returns the full trace (for conservation and
    dump purposes) plus the demodulated light outputs.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    _check_resolution(omega_T, n_steps)
    dt, c, s, norm_c, norm_s = _weights(omega_T, n_steps)
    xa1, pa1, xa2, pa2 = (float(v) for v in atoms_in)

    # Per-cell canonical-normalized transverse components.
    jy1_0, jy2_0 = 0.5 * (pa2 + xa1), 0.5 * (pa2 - xa1)
    jz1_0, jz2_0 = 0.5 * (pa1 - xa2), 0.5 * (pa1 + xa2)

    xi = rng.standard_normal(n_steps)    # integrated S_y^in noise
    zeta = rng.standard_normal(n_steps)  # integrated S_z^in noise

    # Spin drive: d j_{y,z}(cell) = +-(kappa/2) sqrt(dt/T) zeta * (cos, sin).
    drive = 0.5 * kappa * np.sqrt(dt / PULSE_MS) * zeta
    cum_y = np.cumsum(drive * c)
    cum_z = np.cumsum(drive * s)
    jy1, jy2 = jy1_0 + cum_y, jy2_0 - cum_y
    jz1, jz2 = jz1_0 + cum_z, jz2_0 - cum_z
    spin_sums = np.column_stack([jy1 + jy2, jz1 + jz2])
    spin_diffs = np.column_stack([jy1 - jy2, jz1 - jz2])

    # Integrated S_y^out per step: shot noise plus the Larmor-encoded sums.
    atomic = np.sqrt(2.0) * (kappa / np.sqrt(PULSE_MS)) * dt * (
        spin_sums[:, 1] * c + spin_sums[:, 0] * s)
    w = np.sqrt(0.5 * dt) * xi + atomic

    x_l1 = float(np.dot(w, c) / np.sqrt(norm_c))
    x_l2 = float(np.dot(w, s) / np.sqrt(norm_s))
    trace = PulseTrace(dt_ms=dt, n_steps=n_steps,
                       sy_samples=w / np.sqrt(0.5 * PULSE_MS),
                       spin_sums=spin_sums, spin_diffs=spin_diffs)
    return trace, LockInResult(x_l1=x_l1, x_l2=x_l2)


def final_atoms(trace: PulseTrace) -> tuple[float, float, float, float]:
    """Canonical pair quadratures (X_A1, P_A1, X_A2, P_A2) after the pulse."""
    jy_sum, jz_sum = trace.spin_sums[-1]
    jy_diff, jz_diff = trace.spin_diffs[-1]
    return float(jy_diff), float(jz_sum), float(-jz_diff), float(jy_sum)


_ENSEMBLE_CHUNK = 256
#: Runs whose noise is drawn and demodulated at once, continuing the chunk's stream.
_ROW_BLOCK = 8


def pulse_ensemble(kappa: float, omega_T: float, n_steps: int, n_runs: int,
                   seed: int) -> np.ndarray:
    """Monte Carlo over pulses with vacuum atomic input.

    Returns an array of shape (n_runs, 6) with columns
    (x_l1, x_l2, X_A1_out, P_A1, X_A2_out, P_A2), drawn in the seeded
    chunks of spinlight.chunks, serially.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    _check_resolution(omega_T, n_steps)
    dt, c, s, norm_c, norm_s = _weights(omega_T, n_steps)
    sum_cc = norm_c / dt
    sum_ss = norm_s / dt
    sum_cs = float(np.sum(c * s))

    atomic_scale = np.sqrt(2.0) * kappa / np.sqrt(PULSE_MS) * dt
    drive_scale = kappa * np.sqrt(dt / PULSE_MS)

    def chunk(rng: np.random.Generator, start: int, m: int) -> np.ndarray:
        atoms = np.sqrt(0.5) * rng.standard_normal((m, 4))  # xa1 pa1 xa2 pa2
        sums = np.empty((4, m))  # xi @ c, xi @ s, then zeta @ c, zeta @ s
        for noise in (sums[:2], sums[2:]):
            for row in range(0, m, _ROW_BLOCK):
                block = rng.standard_normal((min(_ROW_BLOCK, m - row), n_steps))
                noise[:, row:row + len(block)] = block @ c, block @ s

        shot_c, shot_s = np.sqrt(0.5 * dt) * sums[:2]
        # spin sums are constant, so the demodulated atomic terms close over
        # the exact discrete sums
        atom_c = atomic_scale * (atoms[:, 1] * sum_cc + atoms[:, 3] * sum_cs)
        atom_s = atomic_scale * (atoms[:, 1] * sum_cs + atoms[:, 3] * sum_ss)
        return np.column_stack([(shot_c + atom_c) / np.sqrt(norm_c),
                                (shot_s + atom_s) / np.sqrt(norm_s),
                                atoms[:, 0] + drive_scale * sums[2], atoms[:, 1],
                                atoms[:, 2] - drive_scale * sums[3], atoms[:, 3]])

    return np.concatenate(list(chunk_map(chunk, n_runs, _ENSEMBLE_CHUNK, seed)))


def discrete_moments(kappa: float, omega_T: float, n_steps: int) -> PulseMoments:
    """Closed-form lock-in moments of the discretized model (vacuum atoms).

    Used to quantify pure discretization effects without Monte Carlo error:
    for an integer number of Larmor cycles the moments are exactly
    (1 + kappa^2)/2 with zero cross term at any resolution.
    """
    dt, c, s, norm_c, norm_s = _weights(omega_T, n_steps)
    m_cs = float(np.sum(c * s) * dt)
    t = PULSE_MS
    var1 = 0.5 + kappa**2 * (norm_c**2 + m_cs**2) / (t * norm_c)
    var2 = 0.5 + kappa**2 * (norm_s**2 + m_cs**2) / (t * norm_s)
    cov = (0.5 * m_cs + kappa**2 * m_cs * (norm_c + norm_s) / t) / np.sqrt(norm_c * norm_s)
    k1 = kappa * np.sqrt(2.0 * norm_c / t)
    k2 = kappa * np.sqrt(2.0 * norm_s / t)
    return PulseMoments(var_xl1=float(var1), var_xl2=float(var2),
                        cov_xl1_xl2=float(cov), kappa_eff_1=float(k1),
                        kappa_eff_2=float(k2))


def shot_noise_scaling(n_ph_list: list[float], rng: np.random.Generator,
                       n_runs: int = 10_000, n_steps: int = 64) -> list[float]:
    """Simulated variance of the time-integrated S_y of coherent pulses.

    For each photon number the pulse is built from independent per-step
    Gaussian increments of variance (S_x/2) dt; the integrated variance
    comes out as n_ph/4 (the shot-noise level), linear in photon number.
    """
    if not n_ph_list:
        raise ValueError("n_ph_list must be nonempty")
    variances = []
    for n_ph in n_ph_list:
        if n_ph <= 0:
            raise ValueError("photon numbers must be positive")
        steps = rng.standard_normal((n_runs, n_steps)) * np.sqrt(n_ph / (4.0 * n_steps))
        variances.append(float(np.var(steps.sum(axis=1), ddof=1)))
    return variances


def diff_noise_growth(kappa: float, rng: np.random.Generator,
                      n_runs: int = 5000, omega_T: float = 2.0 * np.pi * 100,
                      n_steps: int = 10_000) -> float:
    """Monte Carlo var(X_A1^out) for vacuum input; expected (1 + kappa^2)/2.

    The back-action of the S_z noise piles up in the difference components
    while the sums stay QND-protected.
    """
    seed = int(rng.integers(0, 2**63 - 1))
    ens = pulse_ensemble(kappa, omega_T, n_steps, n_runs, seed)
    return float(np.var(ens[:, 2], ddof=1))


def write_trace_csv(trace: PulseTrace, path: str) -> None:
    """Dump one pulse trace: step, t_ms, sy_sample, jy_sum, jz_sum, jy_diff, jz_diff."""
    steps = np.arange(trace.n_steps)
    write_csv(path, ("step", "t_ms", "sy_sample", "jy_sum", "jz_sum", "jy_diff", "jz_diff"),
              [(steps, (steps + 0.5) * trace.dt_ms, trace.sy_samples,
                *trace.spin_sums.T, *trace.spin_diffs.T)])
