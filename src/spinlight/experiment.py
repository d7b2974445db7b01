"""Monte Carlo measurement cycles and entanglement statistics.

One cycle: prepare both canonical atomic pair modes in vacuum, probe each
with a fresh light mode (QND coupling sqrt(kappa2) followed by an X homodyne,
outcomes a1/b1), decohere the atoms with survival amplitude beta, probe again
(a2/b2).  The sampler exploits that the whole cycle is linear-Gaussian:

    a1 = l1 + kappa p,      a2 = l2 + kappa (beta p + sqrt(1-beta^2) w),

with l1, l2, p, w independent N(0, 1/2) per channel, which is exactly the
joint outcome distribution produced by sequential Gaussian conditioning.
The symplectic engine provides the independent deterministic route for the
same quantities (see engine_conditioned_duan); the two are cross-checked in
the test suite rather than sharing code.  cross_engine_rows holds the
time-domain engine's pulse moments against the symplectic engine.

Cycles are simulated in the seeded chunks of spinlight.chunks, so any
degree of parallelism produces byte-identical results.  The statistics need
only the 4x4 Gram matrix of the outcomes, summed in chunk order, so
stream_cycle_stats keeps no cycles; it writes the cycles CSV chunk by chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import gaussian, timedomain
from .chunks import chunk_map
from .output import _fmt, write_csv
from .physics import kappa2_experimental

#: Cycles simulated per RNG stream; fixed so parallel scheduling cannot
#: change the output.
CYCLE_CHUNK = 4096


class CalibrationError(RuntimeError):
    """The data cannot support a verdict: first-pulse noise is inconsistent
    with shot + projection noise, or the light carries no atomic information."""


class CycleSet:
    """Column store of cycle outcomes (canonical units), one array per channel."""

    __slots__ = ("a1", "b1", "a2", "b2")

    def __init__(self, a1: np.ndarray, b1: np.ndarray, a2: np.ndarray, b2: np.ndarray):
        self.a1, self.b1, self.a2, self.b2 = (np.asarray(v, float) for v in (a1, b1, a2, b2))

    def __len__(self) -> int:
        return self.a1.size


@dataclass(frozen=True)
class CycleStats:
    """Summary statistics and the entanglement verdict of a cycle ensemble."""

    n: int
    var1: float
    var2: float
    alpha_star: float
    cond_var: float
    atomic_var_inferred: float
    entangled: bool | None  # None at kappa2 = 0: undetermined
    kappa2: float
    beta: float
    calibration_ok: bool


@dataclass(frozen=True)
class SweepRow:
    """One atomic-density point of a projection-noise / entanglement sweep.

    Noise columns are shot-subtracted and shot-normalized; theory columns are
    given in the same presentation (conditional variance minus the shot
    unit).  The *_ideal columns are the no-decoherence (beta = 1) overlay.
    """

    theta_deg: float
    kappa2: float
    pn1: float
    pn2: float
    cond_var_minus_shot: float
    alpha_star: float
    theory_cond: float
    theory_alpha: float
    theory_cond_ideal: float
    theory_alpha_ideal: float


def _cycles(kappa2: float, beta: float, n_cycles: int, seed: int, parallel: int,
            electronics_std: float):
    """(start, rows, rows.T @ rows) of each chunk in chunk order, where rows
    is the chunk's (count, 4) array of (a1, b1, a2, b2) outcomes."""
    if kappa2 < 0:
        raise ValueError("kappa2 must be >= 0")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if n_cycles < 1:
        raise ValueError("n_cycles must be positive")
    kappa = np.sqrt(kappa2)

    def chunk(rng: np.random.Generator, start: int, count: int):
        z = np.sqrt(0.5) * rng.standard_normal((count, 8))
        p, l1, w, l2 = z[:, 0:2], z[:, 2:4], z[:, 4:6], z[:, 6:8]  # (channel a, channel b)
        rows = np.empty((count, 4))
        rows[:, 0:2] = l1 + kappa * p
        rows[:, 2:4] = l2 + kappa * (beta * p + np.sqrt(1.0 - beta**2) * w)
        if electronics_std > 0.0:  # drawn after z, so skipping them changes no cycle
            rows += electronics_std * rng.standard_normal((count, 4))
        # the caller refuses sums that are not finite; errstate is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            return start, rows, rows.T @ rows

    return chunk_map(chunk, n_cycles, CYCLE_CHUNK, seed, parallel)


def run_cycles(kappa2: float, beta: float, n_cycles: int, seed: int,
               parallel: int = 1, electronics_std: float = 0.0) -> CycleSet:
    """Simulate the two-pulse measurement cycle n_cycles times.

    Deterministic for a given seed at every parallelism level: each chunk
    draws from its own generator.
    """
    data = np.concatenate([rows for _, rows, _ in _cycles(
        kappa2, beta, n_cycles, seed, parallel, electronics_std)])
    return CycleSet(*data.T)


def conditional_variance(records: CycleSet, alpha: float) -> float:
    """(1/(N-1)) sum((a2 - alpha a1)^2 + (b2 - alpha b1)^2)."""
    n = len(records)
    if n < 2:
        raise ValueError("need at least two cycles")
    res_a = records.a2 - alpha * records.a1
    res_b = records.b2 - alpha * records.b1
    return float((np.dot(res_a, res_a) + np.dot(res_b, res_b)) / (n - 1))


def theory_curves(kappa2: float, beta: float) -> tuple[float, float]:
    """Model conditional variance and weight for given coupling and decay.

    cond_var = 1 + kappa^2 (1 + (1 - beta^2) kappa^2) / (1 + kappa^2),
    alpha    = beta kappa^2 / (1 + kappa^2); beta = 1 recovers the ideal case.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    cond = 1.0 + kappa2 * (1.0 + (1.0 - beta**2) * kappa2) / (1.0 + kappa2)
    alpha = beta * kappa2 / (1.0 + kappa2)
    return cond, alpha


def _stats(gram: np.ndarray, n: int, kappa2: float, beta: float) -> CycleStats:
    """Variances, the optimal weight and the entanglement verdict from the
    summed Gram matrix of the (a1, b1, a2, b2) rows.

    alpha* = sum(a1 a2 + b1 b2) / sum(a1^2 + b1^2) minimizes the pooled
    conditional variance: one weight shared by both lock-in channels.  Pulse
    variances are raw second moments over N-1: outcomes have zero mean by
    construction and this matches the conditional-variance normalization,
    so cond_var <= var2 + var1 alpha*^2 holds identically.
    """
    if n < 2:
        raise ValueError("need at least two cycles")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below when not finite
        first, second = gram[0, 0] + gram[1, 1], gram[2, 2] + gram[3, 3]
        cross = gram[0, 2] + gram[1, 3]
        alpha = float(cross) / float(first)
        var1, var2 = float(first / (n - 1)), float(second / (n - 1))
        cond = float((second - 2.0 * alpha * cross + alpha**2 * first) / (n - 1))
    bound = 1.0 + kappa2
    atomic = (cond - 1.0) / kappa2 if kappa2 > 0 else float("nan")
    # first pulse must look quantum-noise limited: var1 = 1 + kappa^2 to 5 sigma
    width = 5.0 * bound / np.sqrt(n - 1)
    # atomic is nan at kappa2 = 0 and left unprinted; at subnormal kappa2 it overflows
    if not np.isfinite([var1, var2, cond, width, atomic if kappa2 > 0 else 0.0]).all():
        raise ValueError(f"the statistics at kappa2 = {_fmt(kappa2)} are not finite")
    calibration_ok = bool(abs(var1 - bound) <= width)
    return CycleStats(n=n, var1=var1, var2=var2, alpha_star=alpha,
                      cond_var=cond, atomic_var_inferred=atomic,
                      entangled=bool(cond < bound) if kappa2 > 0 else None,
                      kappa2=kappa2, beta=beta, calibration_ok=calibration_ok)


def stream_cycle_stats(kappa2: float, beta: float, n_cycles: int, seed: int,
                       parallel: int = 1, electronics_std: float = 0.0,
                       out: str | None = None) -> CycleStats:
    """CycleStats of the cycles run_cycles(...) draws, without keeping them.

    With `out`, each chunk's rows also go to a cycle_index, a1, b1, a2, b2
    CSV as they arrive.  Raises ValueError when the outcome sums or the
    statistics are not finite; for sums that overflow in the first chunk,
    before `out` is opened.
    """
    gram = 0

    def blocks():
        nonlocal gram
        for start, rows, chunk_gram in _cycles(kappa2, beta, n_cycles, seed, parallel,
                                               electronics_std):
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                gram = gram + chunk_gram
            if not np.isfinite(gram).all():
                raise ValueError(f"the outcome sums at kappa2 = {_fmt(kappa2)} are not finite")
            yield np.arange(start, start + len(rows)), *rows.T

    if out is None:
        for _ in blocks():
            pass
    else:
        write_csv(out, ("cycle_index", "a1", "b1", "a2", "b2"), blocks())
    return _stats(gram, n_cycles, kappa2, beta)


def entanglement_verdict(stats: CycleStats) -> bool:
    """True iff the conditional variance beats the separable bound 1 + kappa^2.

    Refuses to rule when the first-pulse noise fails the projection-noise
    calibration check (the bound is only meaningful for quantum-noise-limited
    input pulses), and at kappa2 = 0, where the outcomes hold no atomic
    information and cond_var < 1 is a coin flip.
    """
    if stats.entangled is None:
        raise CalibrationError("kappa2 = 0: the light carries no atomic information")
    if not stats.calibration_ok:
        raise CalibrationError(
            f"var1 = {stats.var1:.4f} deviates from 1 + kappa^2 = "
            f"{1.0 + stats.kappa2:.4f} by more than 5 standard errors")
    return stats.entangled


def duan_spin_check(varsum_y: float, varsum_z: float, j_x: float) -> bool:
    """Spin-unit entanglement check: Var(Jy1+Jy2) + Var(Jz1+Jz2) < 2 Jx."""
    if j_x <= 0:
        raise ValueError("j_x must be positive")
    return bool(varsum_y + varsum_z < 2.0 * j_x)


def engine_conditioned_duan(kappa2: float, beta: float) -> float:
    """Deterministic route to the post-measurement atomic variance sum.

    Runs the measurement cycle through the symplectic engine (probe, homodyne,
    decay) and reads duan_sum off the conditioned covariance, which does not
    depend on the sampled outcomes.
    """
    rng = np.random.default_rng(0)  # outcomes do not affect the covariance
    kappa = float(np.sqrt(kappa2))
    state = gaussian.vacuum_state(2, ["pair_a", "pair_b"])
    for mode in ("pair_a", "pair_b"):
        state = gaussian.add_vacuum_modes(state, ["probe"])
        state = gaussian.apply_qnd(state, mode, "probe", kappa)
        _, state = gaussian.measure_x(state, "probe", rng)
        state = gaussian.apply_beta_decay(state, mode, beta)
    return gaussian.duan_sum(state, "pair_a", "pair_b")


#: Moments compared between the stochastic and symplectic engines, as
#: (label, row index, col index) into (x_l1, x_l2, X_A1, P_A1, X_A2, P_A2).
_MOMENT_CHECKS = (
    ("var(x_l1)", 0, 0), ("var(x_l2)", 1, 1), ("cov(x_l1,x_l2)", 0, 1),
    ("var(X_A1)", 2, 2), ("var(P_A1)", 3, 3), ("var(X_A2)", 4, 4),
    ("var(P_A2)", 5, 5), ("cov(x_l1,P_A1)", 0, 3), ("cov(x_l2,P_A2)", 1, 5),
    ("cov(X_A1,P_A1)", 2, 3), ("cov(x_l1,X_A1)", 0, 2),
)


def engine_pulse_covariance(kappa: float) -> np.ndarray:
    """Symplectic-engine covariance of (x_l1, x_l2, X_A1, P_A1, X_A2, P_A2)."""
    state = gaussian.vacuum_state(4, ["pair_a", "pair_b", "light1", "light2"])
    state = gaussian.apply_qnd(state, "pair_a", "light1", kappa)
    state = gaussian.apply_qnd(state, "pair_b", "light2", kappa)
    order = [state.x_index("light1"), state.x_index("light2"),
             state.x_index("pair_a"), state.p_index("pair_a"),
             state.x_index("pair_b"), state.p_index("pair_b")]
    return state.cov[np.ix_(order, order)]


def cross_engine_rows(kappa: float, n_runs: int, omega_T: float, n_steps: int,
                      seed: int) -> list[tuple[str, float, float, bool]]:
    """Compare Monte Carlo moments against the engine's exact prediction.

    Entries are held to |mc - exact| <= 0.03 * max(|exact|, 1/2); signs
    of the X_A back-action differ between the raw rotating-frame equations
    and the canonical pair map, so only magnitude-symmetric entries are
    compared (variances and the cross terms that vanish or match).  Sample
    means are checked against the engine's zero means at 5 standard errors.
    """
    ensemble = timedomain.pulse_ensemble(kappa, omega_T, n_steps, n_runs, seed)
    mc_cov = np.cov(ensemble, rowvar=False)
    exact = engine_pulse_covariance(kappa)
    rows = []
    names = ("x_l1", "x_l2", "X_A1", "P_A1", "X_A2", "P_A2")
    for i, name in enumerate(names):
        got = float(ensemble[:, i].mean())
        bound = 5.0 * np.sqrt(exact[i, i] / n_runs)
        rows.append((f"mean({name})", got, 0.0, abs(got) <= bound))
    for label, i, j in _MOMENT_CHECKS:
        want = float(exact[i, j])
        got = float(mc_cov[i, j])
        ok = abs(got - want) <= 0.03 * max(abs(want), 0.5)
        rows.append((label, got, want, ok))
    return rows


def density_sweep(theta_list: Sequence[float], beta: float, n_cycles: int,
                  seed: int, parallel: int = 1,
                  electronics_std: float = 0.0) -> list[SweepRow]:
    """Scan atomic density via the Faraday angle; kappa^2 = 0.10 theta per point.

    Emits shot-subtracted noise columns plus the decoherence-model and ideal
    overlays.  Electronics noise, when enabled, is subtracted as the same
    kappa = 0 floor that a measurement would see.
    """
    if len(theta_list) == 0:
        raise ValueError("theta grid must be nonempty")
    if any(theta < 0 for theta in theta_list):
        raise ValueError("theta values must be >= 0")
    row_seeds = np.random.SeedSequence(seed).generate_state(len(theta_list), np.uint64)
    floor = 1.0 + 2.0 * electronics_std**2
    rows = []
    for theta, row_seed in zip(theta_list, row_seeds):
        kappa2 = kappa2_experimental(theta)
        stats = stream_cycle_stats(kappa2, beta, n_cycles, int(row_seed),
                                   parallel=parallel, electronics_std=electronics_std)
        cond_model, alpha_model = theory_curves(kappa2, beta)
        cond_ideal, alpha_ideal = theory_curves(kappa2, 1.0)
        rows.append(SweepRow(
            theta_deg=float(theta), kappa2=kappa2,
            pn1=stats.var1 - floor, pn2=stats.var2 - floor,
            cond_var_minus_shot=stats.cond_var - floor,
            alpha_star=stats.alpha_star,
            theory_cond=cond_model - 1.0, theory_alpha=alpha_model,
            theory_cond_ideal=cond_ideal - 1.0, theory_alpha_ideal=alpha_ideal))
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], path: str) -> None:
    """SweepRow columns in declared order."""
    names = [f.name for f in fields(SweepRow)]
    write_csv(path, names, [np.array([[getattr(row, name) for row in rows] for name in names])])


def summary_text(stats: CycleStats) -> str:
    """Flat key-value block describing one run; no verdict without calibration."""
    undetermined = stats.entangled is None or not stats.calibration_ok
    verdict = "undetermined" if undetermined else str(stats.entangled).lower()
    lines = [
        f"n = {stats.n}",
        f"kappa2 = {_fmt(stats.kappa2)}",
        f"beta = {_fmt(stats.beta)}",
        f"var1 = {_fmt(stats.var1)}",
        f"var2 = {_fmt(stats.var2)}",
        f"alpha_star = {_fmt(stats.alpha_star)}",
        f"cond_var = {_fmt(stats.cond_var)}",
        *([f"atomic_var = {_fmt(stats.atomic_var_inferred)}"] if stats.kappa2 > 0 else []),
        f"calibration = {'ok' if stats.calibration_ok else 'failed'}",
        f"entangled = {verdict}",
    ]
    return "\n".join(lines) + "\n"
