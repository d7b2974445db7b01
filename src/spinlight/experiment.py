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
the test suite rather than sharing code.

Cycles are simulated in fixed-size chunks whose generators derive from the
master seed and the chunk index, so any degree of parallelism produces
byte-identical results.  The statistics need only the 4x4 Gram matrix of the
outcomes, summed in chunk order, so stream_cycle_stats keeps no cycles.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import gaussian
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


def _simulate_chunk(kappa2: float, beta: float, seed: int, chunk: int,
                    out: np.ndarray, electronics_std: float) -> None:
    """Fill `out`, shape (count, 4), with the cycles of chunk index `chunk`."""
    count = len(out)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
    kappa = np.sqrt(kappa2)
    z = np.sqrt(0.5) * rng.standard_normal((count, 8))
    p, l1, w, l2 = z[:, 0:2], z[:, 2:4], z[:, 4:6], z[:, 6:8]  # (channel a, channel b)
    out[:, 0:2] = l1 + kappa * p
    out[:, 2:4] = l2 + kappa * (beta * p + np.sqrt(1.0 - beta**2) * w)
    if electronics_std > 0.0:  # drawn after z, so skipping them changes no cycle
        out += electronics_std * rng.standard_normal((count, 4))


def _simulate(kappa2: float, beta: float, n_cycles: int, seed: int, parallel: int,
              electronics_std: float, keep: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Gram matrix of the (a1, b1, a2, b2) rows summed over the chunks in chunk
    order, and the (n_cycles, 4) rows themselves if `keep`.

    numpy's generators release the GIL while drawing, so threads scale; the
    pool starts no thread at parallel 1, where the builtin map runs inline.
    """
    if kappa2 < 0:
        raise ValueError("kappa2 must be >= 0")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if n_cycles < 1:
        raise ValueError("n_cycles must be positive")
    data = np.empty((n_cycles, 4)) if keep else None

    def chunk_gram(chunk: int) -> np.ndarray:
        rows = slice(chunk * CYCLE_CHUNK, min(n_cycles, (chunk + 1) * CYCLE_CHUNK))
        block = data[rows] if keep else np.empty((rows.stop - rows.start, 4))
        _simulate_chunk(kappa2, beta, seed, chunk, block, electronics_std)
        return block.T @ block

    chunks = range(-(-n_cycles // CYCLE_CHUNK))
    window = 64 * parallel  # chunks handed to the pool at once, so few results wait
    with ThreadPoolExecutor(max_workers=parallel) as pool:
        chunk_map = map if parallel == 1 else pool.map
        return sum(gram for first in range(0, len(chunks), window)
                   for gram in chunk_map(chunk_gram, chunks[first:first + window])), data


def run_cycles(kappa2: float, beta: float, n_cycles: int, seed: int,
               parallel: int = 1, electronics_std: float = 0.0) -> CycleSet:
    """Simulate the two-pulse measurement cycle n_cycles times.

    Deterministic for a given seed at every parallelism level: each chunk
    draws from its own generator into its own rows of one output array.
    """
    _, data = _simulate(kappa2, beta, n_cycles, seed, parallel, electronics_std, keep=True)
    return CycleSet(data[:, 0], data[:, 1], data[:, 2], data[:, 3])


def _weight(num: float, denom: float) -> float:
    """num / denom, or 0 with a warning when the first-pulse outcomes are all zero."""
    if denom == 0.0:
        warnings.warn("degenerate cycle data: first-pulse outcomes are all zero",
                      RuntimeWarning, stacklevel=3)
        return 0.0
    return num / denom


def optimal_alpha(records: CycleSet) -> float:
    """Closed-form minimizer of the pooled conditional variance.

    alpha* = sum(a1 a2 + b1 b2) / sum(a1^2 + b1^2): one weight shared by both
    lock-in channels.  Degenerate data (all first-pulse outcomes zero) gives
    0 with a warning.  Equal, bit for bit, to cycle_stats(records, ...).alpha_star.
    """
    return cycle_stats(records, 0.0, 1.0).alpha_star  # kappa2 and beta do not enter it


def per_channel_alphas(records: CycleSet) -> tuple[float, float]:
    """Diagnostic per-channel weights (the production path pools channels).

    A channel whose first-pulse outcomes are all zero gets 0 with a warning.
    """
    a1, b1, a2, b2 = records.a1, records.b1, records.a2, records.b2
    return (_weight(float(np.dot(a1, a2)), float(np.dot(a1, a1))),
            _weight(float(np.dot(b1, b2)), float(np.dot(b1, b1))))


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
    """cycle_stats from the summed Gram matrix of the (a1, b1, a2, b2) rows."""
    if n < 2:
        raise ValueError("need at least two cycles")
    first, second = gram[0, 0] + gram[1, 1], gram[2, 2] + gram[3, 3]
    cross = gram[0, 2] + gram[1, 3]
    alpha = _weight(float(cross), float(first))
    var1 = float(first / (n - 1))
    cond = float((second - 2.0 * alpha * cross + alpha**2 * first) / (n - 1))
    bound = 1.0 + kappa2
    atomic = (cond - 1.0) / kappa2 if kappa2 > 0 else float("nan")
    # first pulse must look quantum-noise limited: var1 = 1 + kappa^2 to 5 sigma
    calibration_ok = bool(abs(var1 - bound) <= 5.0 * bound / np.sqrt(n - 1))
    return CycleStats(n=n, var1=var1, var2=float(second / (n - 1)), alpha_star=alpha,
                      cond_var=cond, atomic_var_inferred=atomic,
                      entangled=bool(cond < bound) if kappa2 > 0 else None,
                      kappa2=kappa2, beta=beta, calibration_ok=calibration_ok)


def cycle_stats(records: CycleSet, kappa2: float, beta: float) -> CycleStats:
    """Estimate variances, the optimal weight, and the entanglement verdict.

    Pulse variances are raw second moments over N-1: outcomes have zero mean
    by construction and this matches the conditional-variance normalization,
    so cond_var <= var2 + var1 alpha*^2 holds identically.  The sums are the
    Gram matrices of CYCLE_CHUNK-row blocks added in order, as in
    stream_cycle_stats, so both give the same bits for the same cycles.
    """
    cols = (records.a1, records.b1, records.a2, records.b2)
    blocks = (np.column_stack([v[start:start + CYCLE_CHUNK] for v in cols])
              for start in range(0, len(records), CYCLE_CHUNK))
    return _stats(sum(block.T @ block for block in blocks), len(records), kappa2, beta)


def stream_cycle_stats(kappa2: float, beta: float, n_cycles: int, seed: int,
                       parallel: int = 1, electronics_std: float = 0.0) -> CycleStats:
    """cycle_stats(run_cycles(...)), bit for bit, without keeping the cycles."""
    gram, _ = _simulate(kappa2, beta, n_cycles, seed, parallel, electronics_std, keep=False)
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
    row_seeds = np.random.SeedSequence(seed).generate_state(len(theta_list), np.uint64)
    floor = 1.0 + 2.0 * electronics_std**2
    rows = []
    for theta, row_seed in zip(theta_list, row_seeds):
        if theta < 0:
            raise ValueError("theta values must be >= 0")
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


def write_cycles_csv(records: CycleSet, path: str) -> None:
    """cycle_index, a1, b1, a2, b2 with round-trip-exact reals."""
    write_csv(path, ("cycle_index", "a1", "b1", "a2", "b2"),
              (np.arange(len(records)), records.a1, records.b1, records.a2, records.b2))


def write_sweep_csv(rows: Sequence[SweepRow], path: str) -> None:
    """SweepRow columns in declared order."""
    names = [f.name for f in fields(SweepRow)]
    write_csv(path, names, np.array([[getattr(row, name) for row in rows] for name in names]))


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
