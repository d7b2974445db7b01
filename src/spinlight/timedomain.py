"""Stochastic time-domain engine: rotating-frame spin dynamics under
delta-correlated light noise, and lock-in demodulation of the Faraday signal.

This module deliberately avoids the Gaussian covariance engine.  Only
simulate_pulse integrates the two-cell rotating-frame equations step by step
(Euler-Maruyama) and extracts the canonical light operators by multiplying
the simulated photocurrent with cos/sin of the Larmor phase.  pulse_ensemble
integrates nothing: its rows are z F^T for z ~ N(0, I_8), F the square-root
factor of the pulse's law (_pulse_map), and F F^T is pulse_covariance; its
chunk j of runs draws z from child (j,) of SeedSequence(seed).  The
tests close the chain: the Euler integrator equals pulse_covariance to
round-off at any resolution, and pulse_covariance equals the symplectic
engine's at whole cycle counts.

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

from .output import write_csv

#: Default Larmor cycles per pulse: 325 kHz * 2 ms.
DEFAULT_OMEGA_T = 2.0 * np.pi * 650.0
#: Minimum time steps per Larmor cycle demanded of callers.
STEPS_PER_CYCLE = 100
#: Pulse length T.  Lock-in outputs and moments depend only on omega_T and
#: n_steps; T sets only the time axis (the trace's t_ms column).
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

    sy_samples: np.ndarray
    spin_sums: np.ndarray   # (n_steps, 2): (jy1+jy2, jz1+jz2)
    spin_diffs: np.ndarray  # (n_steps, 2): (jy1-jy2, jz1-jz2)


@dataclass(frozen=True)
class LockInResult:
    """Demodulated canonical light quadratures of one pulse."""

    x_l1: float  # cos channel
    x_l2: float  # sin channel


def _pulse(kappa: float, omega_T: float, n_steps: int):
    """The set-up every kernel goes through: refuse what the scheme cannot integrate
    or demodulate, then the grid: dt, the midpoint cos/sin samples and their exact norms."""
    if not 0 <= kappa < np.inf:
        raise ValueError("kappa must be >= 0 and finite")
    cycles = omega_T / (2.0 * np.pi)
    # 2 pi k / (2 pi) can round an ulp above the whole count k: allow 4 ulps
    if n_steps < STEPS_PER_CYCLE * cycles * (1.0 - 4.0 * np.finfo(float).eps):
        raise ValueError(
            f"n_steps={n_steps} under-resolves the Larmor precession; "
            f"need >= {STEPS_PER_CYCLE} steps per cycle ({cycles:.1f} cycles)")
    dt = PULSE_MS / n_steps
    t = (np.arange(n_steps) + 0.5) * dt
    phase = (omega_T / PULSE_MS) * t
    c, s = np.cos(phase), np.sin(phase)
    norm_c = float(np.sum(c * c) * dt)
    norm_s = float(np.sum(s * s) * dt)
    if not (norm_c > 0 and norm_s > 0):
        raise ValueError(f"omega_T={omega_T} leaves a lock-in channel with no weight")
    return dt, c, s, norm_c, norm_s


def _pulse_map(kappa: float, omega_T: float, n_steps: int) -> np.ndarray:
    """F, the pulse's linear map M from its inputs to a row, times the inputs' root:
    a row is z F^T for z ~ N(0, I_8), and F F^T is the rows' covariance."""
    dt, c, s, norm_c, norm_s = _pulse(kappa, omega_T, n_steps)
    sum_cc, sum_ss, sum_cs = norm_c / dt, norm_s / dt, float(np.sum(c * s))
    atomic_scale = np.sqrt(2.0) * kappa / np.sqrt(PULSE_MS) * dt  # read-out of the spin sums
    drive_scale = kappa * np.sqrt(dt / PULSE_MS)  # back-action on the spin differences
    gram = np.array([[sum_cc, sum_cs], [sum_cs, sum_ss]])
    m = np.zeros((6, 8))  # inputs: xa1 pa1 xa2 pa2, xi.c xi.s, zeta.c zeta.s
    # spin sums are constant, so the demodulated atomic terms close over
    # the exact discrete sums
    m[:2, [1, 3]] = atomic_scale * gram
    m[:2, 4:6] = np.sqrt(0.5 * dt) * np.eye(2)
    m[:2] /= np.sqrt([[norm_c], [norm_s]])
    m[2:, :4] = np.eye(4)
    m[2, 6], m[4, 7] = drive_scale, -drive_scale
    # vacuum atoms have variance 1/2; each noise pair is N(0, gram), gram = L L^T
    l11, l21 = np.sqrt(sum_cc), sum_cs / np.sqrt(sum_cc)
    root = np.array([[l11, 0.0], [l21, np.sqrt(max(sum_ss - l21**2, 0.0))]])  # singular at 1 step
    m[:, :4] *= np.sqrt(0.5)
    m[:, 4:] = m[:, 4:] @ np.kron(np.eye(2), root)
    return m


def simulate_pulse(kappa: float, omega_T: float, n_steps: int,
                   atoms_in: tuple[float, float, float, float],
                   rng: np.random.Generator) -> tuple[PulseTrace, LockInResult]:
    """Integrate one probe pulse through two oppositely oriented cells.

    atoms_in are realizations of the canonical pair quadratures
    (X_A1, P_A1, X_A2, P_A2).  Returns the full trace (for conservation and
    dump purposes) plus the demodulated light outputs.
    """
    dt, c, s, norm_c, norm_s = _pulse(kappa, omega_T, n_steps)
    xa1, pa1, xa2, pa2 = (float(v) for v in atoms_in)

    # Per-cell canonical-normalized transverse components.
    jy1_0, jy2_0 = 0.5 * (pa2 + xa1), 0.5 * (pa2 - xa1)
    jz1_0, jz2_0 = 0.5 * (pa1 - xa2), 0.5 * (pa1 + xa2)

    xi = rng.standard_normal(n_steps)    # integrated S_y^in noise
    zeta = rng.standard_normal(n_steps)  # integrated S_z^in noise

    # Temporaries reuse xi, zeta and two buffers; each element keeps its operations.
    # Spin drive: d j_{y,z}(cell) = +-(kappa/2) sqrt(dt/T) zeta * (cos, sin).
    drive = np.multiply(0.5 * kappa * np.sqrt(dt / PULSE_MS), zeta, out=zeta)
    spin_sums, spin_diffs = np.empty((n_steps, 2)), np.empty((n_steps, 2))
    cum, j1 = np.empty(n_steps), np.empty(n_steps)
    for col, weight, (j1_0, j2_0) in ((0, c, (jy1_0, jy2_0)), (1, s, (jz1_0, jz2_0))):
        np.cumsum(np.multiply(drive, weight, out=cum), out=cum)
        np.add(j1_0, cum, out=j1)                # jy1, then jz1
        j2 = np.subtract(j2_0, cum, out=cum)     # jy2, then jz2
        np.add(j1, j2, out=spin_sums[:, col])
        np.subtract(j1, j2, out=spin_diffs[:, col])

    # Integrated S_y^out per step: shot noise plus the Larmor-encoded sums.
    atomic = np.add(np.multiply(spin_sums[:, 1], c, out=cum),
                    np.multiply(spin_sums[:, 0], s, out=j1), out=cum)
    np.multiply(np.sqrt(2.0) * (kappa / np.sqrt(PULSE_MS)) * dt, atomic, out=atomic)
    w = np.add(np.multiply(np.sqrt(0.5 * dt), xi, out=xi), atomic, out=xi)

    x_l1 = float(np.dot(w, c) / np.sqrt(norm_c))
    x_l2 = float(np.dot(w, s) / np.sqrt(norm_s))
    trace = PulseTrace(sy_samples=np.divide(w, np.sqrt(0.5 * PULSE_MS), out=w),
                       spin_sums=spin_sums, spin_diffs=spin_diffs)
    return trace, LockInResult(x_l1=x_l1, x_l2=x_l2)


def final_atoms(trace: PulseTrace) -> tuple[float, float, float, float]:
    """Canonical pair quadratures (X_A1, P_A1, X_A2, P_A2) after the pulse."""
    jy_sum, jz_sum = trace.spin_sums[-1]
    jy_diff, jz_diff = trace.spin_diffs[-1]
    return float(jy_diff), float(jz_sum), float(-jz_diff), float(jy_sum)


_ENSEMBLE_CHUNK = 256


def pulse_ensemble(kappa: float, omega_T: float, n_steps: int, n_runs: int,
                   seed: int) -> np.ndarray:
    """Monte Carlo over pulses with vacuum atomic input.

    Returns an array of shape (n_runs, 6) with columns
    (x_l1, x_l2, X_A1_out, P_A1, X_A2_out, P_A2), filled in 256-run chunks,
    chunk j drawn from child (j,) of SeedSequence(seed).  Each row is z F^T
    for z ~ N(0, I_8), F F^T = pulse_covariance: O(1) cost per run.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    f = _pulse_map(kappa, omega_T, n_steps)
    rows = np.empty((n_runs, 6))
    root = np.random.SeedSequence(seed)
    for start in range(0, n_runs, _ENSEMBLE_CHUNK):
        rng = np.random.default_rng(root.spawn(1)[0])
        count = min(_ENSEMBLE_CHUNK, n_runs - start)
        atoms = rng.standard_normal((count, 4))  # xa1 pa1 xa2 pa2
        noise = rng.standard_normal((4, count))  # xi.c xi.s, zeta.c zeta.s
        rows[start:start + count] = np.hstack([atoms, noise.T]) @ f.T
    return rows


def pulse_covariance(kappa: float, omega_T: float, n_steps: int) -> np.ndarray:
    """Exact covariance of pulse_ensemble's rows, with no Monte Carlo.

    Each row is linear in the vacuum atomic quadratures (variance 1/2) and
    the noise projections xi.c, xi.s, zeta.c, zeta.s, whose covariance is the
    Gram matrix of (c, s); so the covariance is F F^T, F their map times
    their root.  For a whole number of Larmor cycles it equals the symplectic
    engine's to round-off at any resolution; otherwise the difference is
    discretization alone.
    """
    f = _pulse_map(kappa, omega_T, n_steps)
    return f @ f.T


def shot_noise_scaling(n_ph_list: list[float], rng: np.random.Generator,
                       n_runs: int = 10_000, n_steps: int = 64) -> list[float]:
    """Simulated variance of the time-integrated S_y of coherent pulses.

    For each photon number the pulse is built from independent per-step
    Gaussian increments of variance (S_x/2) dt; the integrated variance
    comes out as n_ph/4 (the shot-noise level), linear in photon number.
    """
    if not n_ph_list:
        raise ValueError("n_ph_list must be nonempty")
    if n_runs < 2:  # a sample variance needs two runs
        raise ValueError("n_runs must be >= 2")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    variances = []
    for n_ph in n_ph_list:
        if n_ph <= 0:
            raise ValueError("photon numbers must be positive")
        steps = rng.standard_normal((n_runs, n_steps)) * np.sqrt(n_ph / (4.0 * n_steps))
        variances.append(float(np.var(steps.sum(axis=1), ddof=1)))
    return variances


def write_trace_csv(trace: PulseTrace, path: str) -> None:
    """Dump one pulse trace: step, t_ms, sy_sample, jy_sum, jz_sum, jy_diff, jz_diff."""
    steps = np.arange(len(trace.sy_samples))
    write_csv(path, ("step", "t_ms", "sy_sample", "jy_sum", "jz_sum", "jy_diff", "jz_diff"),
              [(steps, (steps + 0.5) * (PULSE_MS / len(steps)), trace.sy_samples,
                *trace.spin_sums.T, *trace.spin_diffs.T)])
