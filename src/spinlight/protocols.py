"""Quantum-information protocols built on the Gaussian engine.

All three protocols track individual vapour cells as canonical modes.  A
probe pulse through two oppositely oriented cells couples two decoupled
light channels (cos/sin lock-in components) to the pair combinations

    cos channel: reads (p_i - p_j)/sqrt2, back-acts on x_i - x_j,
    sin channel: reads (x_i + x_j)/sqrt2, back-acts on p_i + p_j,

which is the same interaction the two-cell experiment uses, expressed in
per-cell variables.  Feedback displacements are classical: they move means
and never covariances.

A protocol runs as one batched state (one mean row per run) from one
``np.random.default_rng(seed)``, drawing all runs' outcomes measurement by measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    add_vacuum_modes,
    apply_qnd,
    apply_symplectic,
    coherent_fidelity,
    displace,
    measure_x,
    rotate,
    two_mode_squeeze,
    vacuum_state,
)


@dataclass(frozen=True)
class ProtocolResult:
    """Diagnostics of a protocol ensemble run.

    ``runs`` maps each per-run column name (outcomes, applied displacements,
    fidelities) to its array of n_runs values, in output order.
    """

    n_runs: int
    runs: dict[str, np.ndarray]
    mean_fidelity: float | None = None
    duan_sum_out: float | None = None
    mean_displacement_error: tuple[float, float] = (0.0, 0.0)


def _pair_pulse_matrix(kappa: float) -> np.ndarray:
    """Symplectic map of one pulse through an oppositely oriented cell pair.

    Quadrature order: (x_+, p_+, x_-, p_-, X_cos, P_cos, X_sin, P_sin).
    """
    g = kappa / np.sqrt(2.0)
    smat = np.eye(8)
    smat[4, 1] += g   # X_cos <- p_+
    smat[4, 3] -= g   # X_cos <- -p_-
    smat[0, 5] += g   # x_+ <- P_cos
    smat[2, 5] -= g   # x_- <- -P_cos
    smat[6, 0] += g   # X_sin <- x_+
    smat[6, 2] += g   # X_sin <- x_-
    smat[1, 7] -= g   # p_+ <- -P_sin
    smat[3, 7] -= g   # p_- <- -P_sin
    return smat


def entangling_pulse(state: GaussianState, cell_plus: str, cell_minus: str,
                     kappa: float, rng: np.random.Generator) -> tuple:
    """Send one pulse through a cell pair and homodyne both lock-in channels.

    Returns the cos- and sin-channel outcomes (per-run arrays for a batch);
    the light modes are consumed by the measurement.
    """
    state = add_vacuum_modes(state, ["_pulse_cos", "_pulse_sin"])
    state = apply_symplectic(state, _pair_pulse_matrix(kappa),
                             [cell_plus, cell_minus, "_pulse_cos", "_pulse_sin"])
    out_cos, state = measure_x(state, "_pulse_cos", rng)
    out_sin, state = measure_x(state, "_pulse_sin", rng)
    return out_cos, out_sin, state


def _pair_sum_variances(state: GaussianState, cell_plus: str, cell_minus: str) -> float:
    """var((p_+ - p_-)/sqrt2) + var((x_+ + x_-)/sqrt2) for an opposite pair."""
    cov = state.cov
    xp, pp = state.x_index(cell_plus), state.p_index(cell_plus)
    xm, pm = state.x_index(cell_minus), state.p_index(cell_minus)
    var_p = 0.5 * (cov[pp, pp] + cov[pm, pm] - 2.0 * cov[pp, pm])
    var_x = 0.5 * (cov[xp, xp] + cov[xm, xm] + 2.0 * cov[xp, xm])
    return float(var_p + var_x)


def _ensemble_result(n_runs: int, runs: dict, err_x, err_p, **diagnostics) -> ProtocolResult:
    """Result of a batched run from per-run columns and displacement errors."""
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range
        error = (float(np.mean(err_x)), float(np.mean(err_p)))
    if not np.isfinite(error).all():
        raise ValueError("the mean displacement error is not finite")
    return ProtocolResult(n_runs, runs, mean_displacement_error=error, **diagnostics)


def teleport_spin_state(input_disp: tuple[float, float], kappa2: float,
                        gain: float = 1.0, n_runs: int = 400,
                        seed: int = 0) -> ProtocolResult:
    """Teleport a displaced-vacuum spin state from cell 3 onto cell 2.

    Cells 1 and 2 are entangled by a first pulse (outcomes A1, B1); a second
    pulse through cells 1 and 3 reads the unknown state (A2, B2); cell 2 is
    then displaced by gain * sqrt2/kappa * (A1 - A2) on p and
    gain * sqrt2/kappa * (B2 - B1) on x.  At unity gain the input mean
    transfers exactly for every kappa and the added noise shrinks as 2/kappa^2.
    """
    if kappa2 < 0 or gain < 0:
        raise ValueError("kappa2 and gain must be >= 0")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    dx, dp = float(input_disp[0]), float(input_disp[1])
    kappa = float(np.sqrt(kappa2))

    rng = np.random.default_rng(seed)
    state = vacuum_state(3, ["cell1", "cell2", "cell3"], batch=(n_runs,))
    state = displace(state, "cell3", dx, dp)
    a1, b1, state = entangling_pulse(state, "cell1", "cell2", kappa, rng)
    a2, b2, state = entangling_pulse(state, "cell1", "cell3", kappa, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # displace refuses what overflows
        coeff = gain * np.sqrt(2.0) / kappa if kappa > 0 else 0.0
        disp_x, disp_p = coeff * (b2 - b1), coeff * (a1 - a2)
    state = displace(state, "cell2", disp_x, disp_p)
    fidelities = coherent_fidelity(state, "cell2", dx, dp)
    mx, mp = state.mode_mean("cell2")
    return _ensemble_result(
        n_runs,
        dict(a1=a1, b1=b1, a2=a2, b2=b2, disp_x=disp_x, disp_p=disp_p, fidelity=fidelities),
        mx - dx, mp - dp, mean_fidelity=float(fidelities.mean()))


def entanglement_swap(kappa2: float, n_runs: int = 100, seed: int = 0) -> ProtocolResult:
    """Entangle cells 2 and 4, which never interact, via cells 1 and 3.

    Pairs (1,2) and (3,4) are entangled first; a pulse through Alice's cells
    (1,3) plus a displacement of cell 2 computed from all outcomes leaves the
    (2,4) pair two-mode squeezed.  duan_sum_out is read off the conditioned
    covariance and is therefore outcome-independent; entangled iff < 1.
    """
    if kappa2 < 0:
        raise ValueError("kappa2 must be >= 0")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    kappa = float(np.sqrt(kappa2))
    coeff = np.sqrt(2.0) / kappa if kappa > 0 else 0.0

    rng = np.random.default_rng(seed)
    state = vacuum_state(4, ["cell1", "cell2", "cell3", "cell4"], batch=(n_runs,))
    a1, b1, state = entangling_pulse(state, "cell1", "cell2", kappa, rng)
    a1p, b1p, state = entangling_pulse(state, "cell4", "cell3", kappa, rng)
    a2, b2, state = entangling_pulse(state, "cell1", "cell3", kappa, rng)
    disp_x, disp_p = coeff * (b2 - b1 - b1p), -coeff * (a2 - a1 - a1p)
    state = displace(state, "cell2", disp_x, disp_p)
    # the certified pair combinations (x4 + x2)/sqrt2 and (p4 - p2)/sqrt2
    (x4, p4), (x2, p2) = state.mode_mean("cell4"), state.mode_mean("cell2")
    return _ensemble_result(
        n_runs,
        dict(a1=a1, b1=b1, a1_prime=a1p, b1_prime=b1p, a2=a2, b2=b2,
             disp_x=disp_x, disp_p=disp_p),
        (x4 + x2) / np.sqrt(2.0), (p4 - p2) / np.sqrt(2.0),
        duan_sum_out=_pair_sum_variances(state, "cell4", "cell2"))


def quantum_memory(light_disp: tuple[float, float], resource_squeeze_r: float,
                   kappa2_readout: float, n_runs: int = 400,
                   seed: int = 0) -> ProtocolResult:
    """Store an unknown light state in an atomic pair via an EPR resource.

    The resource is a two-mode squeezed pair (squeezing r) approximating the
    ideal zero-sum spin state.  The input pulse writes its X onto the atoms
    through a unit-coupling probe + homodyne + feedback; after a 90 degree
    rotation of cell 1's transverse spins, a strong readout pulse
    (kappa2_readout) + feedback stores the light's P.  With an ideal resource
    the atomic contributions cancel and the stored mean equals the input mean.
    """
    if resource_squeeze_r < 0 or kappa2_readout < 0:
        raise ValueError("squeeze parameter and readout coupling must be >= 0")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    lx, lp = float(light_disp[0]), float(light_disp[1])
    kappa_r = float(np.sqrt(kappa2_readout))
    read_gain = -1.0 / kappa_r if kappa_r > 0 else 0.0

    rng = np.random.default_rng(seed)
    state = vacuum_state(3, ["light", "mem1", "mem2"], batch=(n_runs,))
    state = displace(state, "light", lx, lp)
    state = two_mode_squeeze(state, "mem1", "mem2", resource_squeeze_r)

    # write: the input pulse probes cell 1, X-homodyne, feedback onto p2
    state = apply_qnd(state, "mem1", "light", 1.0)
    m1, state = measure_x(state, "light", rng)
    state = displace(state, "mem2", 0.0, -m1)

    # move the stored P_light component into the readout quadrature
    state = rotate(state, "mem1", np.pi / 2.0)
    state = add_vacuum_modes(state, ["readout"])
    state = apply_qnd(state, "mem1", "readout", kappa_r)
    m2, state = measure_x(state, "readout", rng)
    state = displace(state, "mem2", read_gain * m2, 0.0)

    # the logical stored mode is (-p2, x2): undo the quadrature exchange
    state = rotate(state, "mem2", -np.pi / 2.0)
    fidelities = coherent_fidelity(state, "mem2", lx, lp)
    mx, mp = state.mode_mean("mem2")
    return _ensemble_result(
        n_runs,
        dict(m_write=m1, m_readout=m2, disp_p_write=-m1, disp_x_read=read_gain * m2,
             fidelity=fidelities),
        mx - lx, mp - lp, mean_fidelity=float(fidelities.mean()))
