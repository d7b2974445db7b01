"""Monte Carlo measurement cycles and entanglement statistics.

One cycle: prepare both canonical atomic pair modes in vacuum, probe each
with a fresh light mode (QND coupling sqrt(kappa2) followed by an X homodyne,
outcomes a1/b1), decohere the atoms with survival amplitude beta, probe again
(a2/b2).  The whole cycle is linear-Gaussian:

    a1 = l1 + kappa p,      a2 = l2 + kappa (beta p + sqrt(1-beta^2) w),

with l1, l2, p, w independent N(0, 1/2) per channel, which is exactly the
joint outcome distribution produced by sequential Gaussian conditioning.
The symplectic engine provides the independent deterministic route for the
same quantities (see engine_conditioned_duan); the two are cross-checked in
the test suite rather than sharing code.  cross_engine_rows is the whole
timedomain check of the time-domain engine against the symplectic engine.

The statistics need only the 2x2 Gram matrix of both channels' (a1, a2)
pairs, which run and sweep draw from its Wishart law (_gram_draw).  run's
CSV holds cycles with that Gram matrix (_cycle_rows), drawn in chunks that
each draw from a child of SeedSequence(seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gaussian, timedomain
from .output import _fmt, write_csv
from .physics import kappa2_experimental

#: Cycles simulated per RNG stream; fixed because the chunk index keys each
#: stream, so another size would draw other numbers.  8192 cycles draw 32768
#: normals, as 4096 did at 8 per cycle; at 4096, glibc trimmed and regrew the
#: heap between CSV blocks.
CYCLE_CHUNK = 8192


@dataclass(frozen=True)
class CycleStats:
    """Summary statistics and the entanglement verdict of a cycle ensemble."""

    n: int
    var1: float
    var2: float
    alpha_star: float
    cond_var: float
    atomic_var_inferred: float
    entangled: bool | None  # None where calibration failed or 1 + kappa2 rounds to 1
    kappa2: float
    beta: float
    calibration_ok: bool


def _gram_draw(kappa2: float, beta: float, n_cycles: int, seed: int) -> np.ndarray:
    """The pooled Gram matrix W that _stats reads, of all n_cycles cycles,
    drawn from its law without drawing the cycles.  Refuses a law that does
    not exist, a count numpy cannot draw and a W that is not finite.

    Each channel's (a1, a2) pair is N(0, S), S = [[h, g], [g, h]] with h =
    (1 + kappa2)/2 and g = kappa2 beta / 2, iid over both channels and all
    cycles, so the pooled matrix is Wishart(S, 2 n_cycles).  The Bartlett
    decomposition draws it as L A A^T L^T: L is S's Cholesky factor, A lower
    triangular with A_ii = sqrt(chi2(2 n_cycles - i)) and one N(0, 1) below
    the diagonal, drawn from SeedSequence(seed)'s first child, key (0,).
    """
    if kappa2 < 0:
        raise ValueError("kappa2 must be >= 0")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if n_cycles < 1:
        raise ValueError("n_cycles must be positive")
    if n_cycles >= 2**63:  # numpy draws and counts in int64
        raise ValueError("n_cycles must be below 2**63")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    h, g = (1.0 + kappa2) / 2.0, kappa2 * beta / 2.0
    r00, r01, r11 = _root(h, g, h)  # R^T = [[r00, 0], [r01, r11]], S's Cholesky factor
    # float dof: 2 * n_cycles overflows int64 from n_cycles = 2**62
    (a00, a11), a10 = np.sqrt(rng.chisquare(2.0 * n_cycles - np.arange(2))), rng.standard_normal()
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        # W = (R^T A)(R^T A)^T in scalars: a BLAS kernel would choose the rounding
        h00, h10, h11 = r00 * a00, r01 * a00 + r11 * a10, r11 * a11
        gram = np.array([[h00 * h00, h00 * h10], [h00 * h10, h10 * h10 + h11 * h11]])
    if not np.isfinite(gram).all():
        raise ValueError(f"the outcome sums at kappa2 = {_fmt(kappa2)} are not finite")
    return gram


def _root(g00, g01, g11):
    """(r00, r01, r11) of the upper triangular R with R^T R = [[g00, g01], [g01, g11]]."""
    r00 = np.sqrt(g00)
    # g01 * g01 overflows where g01 * (g01 / g00) does not
    return r00, g01 / r00, np.sqrt(g11 - g01 * (g01 / g00))


def _whiten(x: np.ndarray, u) -> None:
    """Maps the pairs (x, x') = (x[0:2], x[2:4]) in place by T = R^-1 U, R^T R
    their Gram matrix, U = (u00, u01, u11): x = t00 x, x' = t01 x + t11 x'.
    Twice, first with U = I (CholeskyQR2): once leaves errors of eps cond(R^T R).
    x[4:6] is scratch.  Elementwise products and numpy sums, not BLAS."""
    first, second, tmp = x[0:2], x[2:4], x[4:6]
    for v in ((1.0, 0.0, 1.0), u):
        r = _root(np.square(first, out=tmp).sum(), np.multiply(first, second, out=tmp).sum(),
                  np.square(second, out=tmp).sum())
        t00, t01, t11 = v[0] / r[0], (v[1] - r[1] * (v[2] / r[2])) / r[0], v[2] / r[2]
        np.add(np.multiply(t11, second, out=second), np.multiply(t01, first, out=tmp), out=second)
        first *= t00


def _cycle_rows(gram: np.ndarray, n_cycles: int, seed: int):
    """Blocks (cycle_index, a1, b1, a2, b2) of n_cycles cycles, iid N(0, S)
    per channel, whose pooled Gram matrix is W = gram up to round-off.

    Each chunk's Gram matrix G_j ~ Wishart(I, 2 count) is drawn up front as a
    Bartlett factor A_j (child (2,) of SeedSequence(seed)); with R_X the upper
    root of X, M = R_G^-1 R_W maps G = sum G_j to W.  Chunk j draws X_j, N(0, 1)
    pairs (x, x') per cycle and channel with Gram matrix H_j (child (1, j)), and
    writes rows X_j R_H^-1 A_j^T M, N(0, S) with Gram matrix W: X_j R_H^-1 is
    Haar on the Stiefel manifold and independent of H_j (Muirhead 1982, ch. 2-3).
    """
    _, cycles, factors = np.random.SeedSequence(seed).spawn(3)
    rng = np.random.default_rng(factors)
    counts = np.minimum(CYCLE_CHUNK, n_cycles - np.arange(0, n_cycles, CYCLE_CHUNK))
    a = np.zeros((6, len(counts)))  # the A_j^T stacked: (a00, 0) over (a10, a11)
    a[[0, 3]] = np.sqrt(rng.chisquare(2.0 * counts - np.arange(2)[:, None]))
    a[2] = rng.standard_normal(len(counts))
    _whiten(a, _root(gram[0, 0], gram[0, 1], gram[1, 1]))  # to the A_j^T M
    for j, count in enumerate(counts):
        x = np.empty((6, count))  # x of channels a and b, then their x', then scratch
        np.random.default_rng(cycles.spawn(1)[0]).standard_normal(out=x[:4])
        _whiten(x, a[[0, 2, 3], j])
        start = j * CYCLE_CHUNK
        yield np.arange(start, start + count), *x[:4]


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
    pooled Gram matrix W of n cycles: W11 = sum(a1^2 + b1^2), W12 =
    sum(a1 a2 + b1 b2) and W22 = sum(a2^2 + b2^2).

    alpha* = sum(a1 a2 + b1 b2) / sum(a1^2 + b1^2) minimizes the pooled
    conditional variance: one weight shared by both lock-in channels.  Pulse
    variances are raw second moments over N-1: outcomes have zero mean by
    construction and this matches the conditional-variance normalization,
    so cond_var <= var2 + var1 alpha*^2 holds identically.

    The verdict, entangled, is cond_var < 1 + kappa^2, or None where the first
    pulse fails calibration (the bound's premise) or 1 + kappa2 rounds to 1.

    cond_var is refused when it does not exceed its rounding bound, 3 eps
    (var2 + 3 alpha^2 var1), 3 eps (W22 + |2 alpha W12| + alpha^2 W11) / (n - 1):
    2 eps for the four roundings of eps/2 per term of its evaluation from W,
    eps for W's entries' own, one rounding each in W11 and W12 and two in W22
    (_gram_draw's h10^2 + h11^2: the two squares, both >= 0, round as one).
    cond_var is evaluated halved, which moves no bit: alpha W12 <= W22, so
    neither it nor its bound overflows where var1 and var2 do not, and a
    refusal names lost digits or an overflow, whichever it is.
    """
    if n < 2:
        raise ValueError("need at least two cycles")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below when not finite
        first, cross, second = gram[0, 0], gram[0, 1], gram[1, 1]
        alpha = float(cross) / float(first)
        var1, var2 = float(first / (n - 1)), float(second / (n - 1))
        cond = 2.0 * float((second / 2.0 - alpha * cross + alpha**2 * (first / 2.0)) / (n - 1))
        eps = np.finfo(float).eps  # scales each term first: no overflow where var2 has none
        rounding = 3.0 * eps * var2 + 9.0 * eps * alpha**2 * var1
    bound = 1.0 + kappa2
    atomic = (cond - 1.0) / kappa2 if kappa2 > 0 else float("nan")
    # first pulse must look quantum-noise limited: var1 = 1 + kappa^2 to 5 sigma
    width = 5.0 * bound / np.sqrt(n - 1)
    # atomic is nan at kappa2 = 0 and left unprinted; at subnormal kappa2 it overflows
    if not np.isfinite([var1, var2, cond, width, atomic if kappa2 > 0 else 0.0]).all():
        raise ValueError(f"the statistics at kappa2 = {_fmt(kappa2)} are not finite")
    if not rounding < cond:
        raise ValueError(f"cond_var at kappa2 = {_fmt(kappa2)} has no correct digit: "
                         f"its rounding bound {rounding:.3g} is not below cond_var = {cond:.3g}")
    calibration_ok = bool(abs(var1 - bound) <= width)
    return CycleStats(n=n, var1=var1, var2=var2, alpha_star=alpha,
                      cond_var=cond, atomic_var_inferred=atomic,
                      entangled=bool(cond < bound) if bound > 1.0 and calibration_ok else None,
                      kappa2=kappa2, beta=beta, calibration_ok=calibration_ok)


def stream_cycle_stats(kappa2: float, beta: float, n_cycles: int, seed: int,
                       out: str | None = None) -> CycleStats:
    """CycleStats of n_cycles measurement cycles, from the pooled Gram matrix
    W that _gram_draw draws: O(1) at any n_cycles; density_sweep calls it per point.

    With `out`, the cycles of _cycle_rows, whose pooled Gram matrix is W, go
    to a cycle_index, a1, b1, a2, b2 CSV in one pass.  Raises ValueError when
    _gram_draw or _stats refuses W or the statistics, before `out` is opened.
    """
    gram = _gram_draw(kappa2, beta, n_cycles, seed)
    stats = _stats(gram, n_cycles, kappa2, beta)
    if out is not None:
        write_csv(out, ("cycle_index", "a1", "b1", "a2", "b2"),
                  _cycle_rows(gram, n_cycles, seed))
    return stats


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


def cross_engine_rows(kappa2: float, n_runs: int, seed: int
                      ) -> tuple[list[tuple[str, float, float, bool]], timedomain.PulseTrace]:
    """Rows of Monte Carlo moments against the engine's exact prediction, then
    the spin-sum drift of one vacuum-input pulse (held to 1e-10), and its trace.

    Entries are held to |mc - exact| <= 0.03 * max(|exact|, 1/2).  At a whole
    number of Larmor cycles timedomain.pulse_covariance equals the engine's
    covariance in all 36 entries, signs included; the 11 compared are the
    variances, cov(x_li, P_Ai) and three of the 13 distinct entries that
    vanish.  Sample means are checked against the engine's zero means at 5
    standard errors.  Raises ValueError when the sample moments are not finite.
    """
    if n_runs < 2:  # a sample covariance needs two runs
        raise ValueError("n_runs must be >= 2")
    kappa = float(np.sqrt(kappa2))
    omega_T = timedomain.DEFAULT_OMEGA_T
    n_steps = round(timedomain.STEPS_PER_CYCLE * omega_T / (2.0 * np.pi))
    ensemble = timedomain.pulse_ensemble(kappa, omega_T, n_steps, n_runs, seed)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        mc_cov = np.cov(ensemble, rowvar=False)
    if not np.isfinite(mc_cov).all():  # so is it wherever a sample mean is not
        raise ValueError(f"the sample moments at kappa2 = {kappa2:.15g} are not finite")
    exact = engine_pulse_covariance(kappa)
    rows = []
    names = ("x_l1", "x_l2", "X_A1", "P_A1", "X_A2", "P_A2")
    for i, name in enumerate(names):
        got = float(ensemble[:, i].mean())
        bound = 5.0 * np.sqrt(exact[i, i] / n_runs)
        rows.append((f"mean({name})", got, 0.0, abs(got) <= bound))
    del ensemble  # so the pulse below adds nothing to the peak memory
    for label, i, j in _MOMENT_CHECKS:
        want = float(exact[i, j])
        got = float(mc_cov[i, j])
        ok = abs(got - want) <= 0.03 * max(abs(want), 0.5)
        rows.append((label, got, want, ok))
    trace, _ = timedomain.simulate_pulse(kappa, omega_T, n_steps, (0.0, 0.0, 0.0, 0.0),
                                         np.random.default_rng(seed))
    drift = float(np.max(np.abs(trace.spin_sums - trace.spin_sums[0])))
    rows.append(("spin-sum drift", drift, 0.0, drift <= 1e-10))
    return rows, trace


def density_sweep(theta_list: Sequence[float], beta: float, n_cycles: int,
                  seed: int) -> dict[str, np.ndarray]:
    """The sweep CSV's columns, in CSV order: one row per Faraday angle theta,
    kappa^2 = 0.10 theta, with the statistics of stream_cycle_stats at that
    point, seeded by the point's entry of SeedSequence(seed).generate_state.

    Noise columns are shot-subtracted and shot-normalized; theory columns are
    given in the same presentation (conditional variance minus the shot
    unit).  The *_ideal columns are the no-decoherence (beta = 1) overlay.
    """
    if len(theta_list) == 0:
        raise ValueError("theta grid must be nonempty")
    if any(theta < 0 for theta in theta_list):
        raise ValueError("theta values must be >= 0")
    row_seeds = np.random.SeedSequence(seed).generate_state(len(theta_list), np.uint64)
    rows = []
    for theta, row_seed in zip(theta_list, row_seeds):
        kappa2 = kappa2_experimental(theta)
        stats = stream_cycle_stats(kappa2, beta, n_cycles, int(row_seed))
        cond_model, alpha_model = theory_curves(kappa2, beta)
        cond_ideal, alpha_ideal = theory_curves(kappa2, 1.0)
        rows.append((theta, kappa2, stats.var1 - 1.0, stats.var2 - 1.0, stats.cond_var - 1.0,
                     stats.alpha_star, cond_model - 1.0, alpha_model,
                     cond_ideal - 1.0, alpha_ideal))
        if not np.isfinite(rows[-1]).all():  # theory_cond overflows past kappa2 ~ 1e154, beta < 1
            raise ValueError(f"the sweep columns at kappa2 = {_fmt(kappa2)} are not finite")
    names = ("theta_deg", "kappa2", "pn1", "pn2", "cond_var_minus_shot", "alpha_star",
             "theory_cond", "theory_alpha", "theory_cond_ideal", "theory_alpha_ideal")
    return dict(zip(names, np.array(rows, dtype=float).T))


def summary_text(stats: CycleStats) -> str:
    """Flat key-value block describing one run; no verdict without calibration."""
    verdict = "undetermined" if stats.entangled is None else str(stats.entangled).lower()
    lines = [
        f"n = {stats.n}",
        f"kappa2 = {_fmt(stats.kappa2)}",
        f"beta = {_fmt(stats.beta)}",
        f"var1 = {_fmt(stats.var1)}",
        f"var2 = {_fmt(stats.var2)}",
        f"alpha_star = {_fmt(stats.alpha_star)}",
        f"cond_var = {_fmt(stats.cond_var)}",
        *([f"atomic_var = {_fmt(stats.atomic_var_inferred)}"]
          if 1.0 + stats.kappa2 > 1.0 else []),
        f"calibration = {'ok' if stats.calibration_ok else 'failed'}",
        f"entangled = {verdict}",
    ]
    return "\n".join(lines) + "\n"
