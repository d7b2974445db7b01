"""Exact Gaussian-state engine over labeled quadrature modes.

States are value objects: every operation returns a new state and never
mutates its input, so one state can feed any number of operations
freely.  Conventions: mode-major quadrature ordering (X0, P0, X1, P1, ...),
[X, P] = i, vacuum variance 1/2 on every quadrature.

A state may carry a batch of means, shape (..., 2n), over one shared
covariance; every operation acts on the last axis of the mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

ModeRef = Union[int, str]

#: Variance of each quadrature of the vacuum state.
VACUUM_VAR = 0.5


class InvariantViolation(RuntimeError):
    """A state failed a physicality check (symmetry / uncertainty relation)."""


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix over an ordered list of modes.

    Attributes:
        labels: mode identifiers; mode k owns quadratures (2k, 2k+1) = (X, P).
        mean:   real array of shape (..., 2n); leading axes index runs.
        cov:    real symmetric (2n, 2n) matrix.
    """

    labels: tuple[str, ...]
    mean: np.ndarray = field(repr=False)
    cov: np.ndarray = field(repr=False)

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    def index(self, mode: ModeRef) -> int:
        """Resolve a mode given either its position or its label."""
        if isinstance(mode, str):
            try:
                return self.labels.index(mode)
            except ValueError:
                raise ValueError(f"unknown mode label {mode!r}") from None
        idx = int(mode)
        if not 0 <= idx < self.n_modes:
            raise ValueError(f"mode index {idx} out of range for {self.n_modes} modes")
        return idx

    def x_index(self, mode: ModeRef) -> int:
        return 2 * self.index(mode)

    def p_index(self, mode: ModeRef) -> int:
        return 2 * self.index(mode) + 1

    def mode_mean(self, mode: ModeRef) -> tuple:
        """(x, p) mean of one mode: floats, or arrays over the batch axes."""
        i = self.x_index(mode)
        x, p = np.moveaxis(self.mean[..., i:i + 2], -1, 0)
        return x, p

    def mode_cov(self, mode: ModeRef) -> np.ndarray:
        i = self.x_index(mode)
        return self.cov[i:i + 2, i:i + 2].copy()

    def variance(self, mode: ModeRef, quadrature: str) -> float:
        if quadrature.lower() not in ("x", "p"):
            raise ValueError(f"quadrature must be 'x' or 'p', not {quadrature!r}")
        q = self.x_index(mode) if quadrature.lower() == "x" else self.p_index(mode)
        return float(self.cov[q, q])


def _new_state(labels: Sequence[str], mean: np.ndarray, cov: np.ndarray) -> GaussianState:
    """The state every operation returns; refused where it is not finite."""
    mean = np.asarray(mean, float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        cov = 0.5 * (cov + cov.T)  # keep exactly symmetric after every update
    if not (np.isfinite(cov).all() and np.isfinite(mean).all()):
        raise ValueError("the state's mean or covariance is not finite")
    return GaussianState(tuple(labels), mean, cov)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal form Omega with [[0, 1], [-1, 0]] per mode."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def vacuum_state(n_modes: int, labels: Sequence[str] | None = None,
                 batch: tuple[int, ...] = ()) -> GaussianState:
    """n-mode vacuum: zero mean of shape batch + (2n,), covariance (1/2) * identity."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if labels is None:
        labels = [f"m{k}" for k in range(n_modes)]
    elif len(labels) != n_modes:
        raise ValueError("labels length must equal n_modes")
    return _new_state(labels, np.zeros(tuple(batch) + (2 * n_modes,)),
                      VACUUM_VAR * np.eye(2 * n_modes))


def add_vacuum_modes(state: GaussianState, labels: Sequence[str]) -> GaussianState:
    """Tensor fresh vacuum modes onto the state (appended at the end)."""
    k = len(labels)
    n = state.n_modes
    mean = np.zeros(state.mean.shape[:-1] + (2 * (n + k),))
    mean[..., : 2 * n] = state.mean
    cov = VACUUM_VAR * np.eye(2 * (n + k))
    cov[: 2 * n, : 2 * n] = state.cov
    return _new_state(list(state.labels) + list(labels), mean, cov)


def displace(state: GaussianState, mode: ModeRef, dx, dp) -> GaussianState:
    """Shift the mode mean by (dx, dp), scalars or per-run arrays; cov is unchanged."""
    i = state.x_index(mode)
    batch = np.broadcast_shapes(state.mean.shape[:-1], np.shape(dx), np.shape(dp))
    mean = np.array(np.broadcast_to(state.mean, batch + state.mean.shape[-1:]))
    mean[..., i] += dx
    mean[..., i + 1] += dp
    return _new_state(state.labels, mean, state.cov.copy())


def _linear_map(state: GaussianState, block: np.ndarray, modes: Sequence[ModeRef],
                noise: np.ndarray | None = None) -> GaussianState:
    """mean -> X mean, cov -> X cov X^T (+ noise on the block of ``modes``), where X is
    ``block`` on the (X, P) pairs of ``modes``, in order, and the identity elsewhere."""
    idx = []
    for m in modes:
        i = state.x_index(m)
        idx.extend((i, i + 1))
    full = np.eye(2 * state.n_modes)
    full[np.ix_(idx, idx)] = block
    # one (runs, 2n) x (2n, 2n) product beats gathering the touched columns
    with np.errstate(over="ignore", invalid="ignore"):  # _new_state refuses what overflows
        mean = state.mean @ full.T
        cov = full @ state.cov @ full.T
    if noise is not None:
        cov[np.ix_(idx, idx)] += noise
    return _new_state(state.labels, mean, cov)


def apply_symplectic(state: GaussianState, smat: np.ndarray,
                     modes: Sequence[ModeRef]) -> GaussianState:
    """Apply a symplectic matrix to the quadratures of the listed modes.

    ``smat`` is (2k, 2k) acting on the concatenated (X, P) pairs of ``modes``
    in the given order.  Raises if the matrix is not symplectic to 1e-10.
    """
    k = len(modes)
    smat = np.asarray(smat, float)
    if smat.shape != (2 * k, 2 * k):
        raise ValueError("symplectic matrix shape does not match mode count")
    omega = symplectic_form(k)
    # tolerance scales with ||S||^2: that is the size of the rounding noise
    # in S Omega S^T for strongly squeezing maps
    size = np.abs(smat).max()
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        scale, error = size**2, np.abs(smat @ omega @ smat.T - omega).max()
    if not np.isfinite([scale, error]).all():
        raise ValueError(f"matrix entries up to {size:.3g} overflow the symplectic check")
    if not error <= 1e-10 * max(1.0, scale):
        raise ValueError("matrix is not symplectic")
    return _linear_map(state, smat, modes)


def apply_qnd(state: GaussianState, atom: ModeRef, light: ModeRef,
              kappa: float) -> GaussianState:
    """QND coupling: X_light += kappa * P_atom and X_atom += kappa * P_light.

    Both P quadratures are conserved; the map is symplectic for any kappa.
    """
    ia, il = state.index(atom), state.index(light)
    if ia == il:
        raise ValueError("atom and light must be distinct modes")
    smat = np.eye(4)
    # order (X_a, P_a, X_l, P_l)
    smat[0, 3] = kappa  # X_a += kappa P_l
    smat[2, 1] = kappa  # X_l += kappa P_a
    return apply_symplectic(state, smat, [ia, il])


def measure_x(state: GaussianState, mode: ModeRef,
              rng: np.random.Generator) -> tuple[float | np.ndarray, GaussianState]:
    """Homodyne the X quadrature of a mode; return (outcome, state without the mode).

    The outcome is drawn from the Gaussian marginal; the remaining modes are
    conditioned with the standard linear-update / Schur-complement rule, so
    the post-measurement covariance depends only on the prior covariance.
    A marginal var(X) that is not > 0 raises InvariantViolation (a physical
    state has var(X) var(P) >= 1/4).  A batch of means draws one outcome per
    run, in row order, from one ``rng.normal`` call.
    """
    im = state.index(mode)
    xq = 2 * im
    keep = [q for q in range(2 * state.n_modes) if q not in (xq, xq + 1)]
    var_m = float(state.cov[xq, xq])
    if not var_m > 0:
        raise InvariantViolation(f"marginal variance {var_m:.3g} of the measured X is not > 0")
    mu_m = state.mean[..., xq]
    value = rng.normal(mu_m, np.sqrt(var_m))
    gain = state.cov[keep, xq] / var_m
    mean = np.take(state.mean, keep, axis=-1)
    mean += np.multiply.outer(value - mu_m, gain)
    cov = state.cov[np.ix_(keep, keep)] - np.outer(gain, state.cov[xq, keep])
    labels = [lab for k, lab in enumerate(state.labels) if k != im]
    return value, _new_state(labels, mean, cov)


def apply_beta_decay(state: GaussianState, mode: ModeRef, beta: float) -> GaussianState:
    """Partial decay of one mode toward vacuum with survival amplitude beta.

    The linear map beta * I on both quadratures of the mode, with the vacuum
    admixture (1 - beta^2) * I / 2 added to its block: cross-covariances scale
    by beta, beta = 1 is a no-op and beta = 0 resets the mode to vacuum.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return _linear_map(state, beta * np.eye(2), [mode], (1.0 - beta**2) * VACUUM_VAR * np.eye(2))


def rotate(state: GaussianState, mode: ModeRef, phi: float) -> GaussianState:
    """Phase-space rotation: X' = X cos(phi) + P sin(phi), P' = -X sin(phi) + P cos(phi)."""
    c, s = np.cos(phi), np.sin(phi)
    return apply_symplectic(state, np.array([[c, s], [-s, c]]), [mode])


def two_mode_squeeze(state: GaussianState, mode_a: ModeRef, mode_b: ModeRef,
                     r: float) -> GaussianState:
    """Two-mode squeezing by r: (P_a - P_b) and (X_a + X_b) shrink by e^-r.

    The conjugate combinations (P_a + P_b) and (X_a - X_b) stretch by e^r,
    so the map is symplectic and the output is pure for pure input.
    """
    with np.errstate(over="ignore"):  # apply_symplectic refuses entries that overflow
        ch, sh = np.cosh(r), np.sinh(r)
    smat = np.array([
        [ch, 0.0, -sh, 0.0],
        [0.0, ch, 0.0, sh],
        [-sh, 0.0, ch, 0.0],
        [0.0, sh, 0.0, ch],
    ])
    return apply_symplectic(state, smat, [mode_a, mode_b])


def duan_sum(state: GaussianState, mode_a: ModeRef, mode_b: ModeRef) -> float:
    """var(P_a) + var(P_b); below 1 certifies two-mode entanglement."""
    ia, ib = state.index(mode_a), state.index(mode_b)
    if ia == ib:
        raise ValueError("modes must be distinct")
    return float(state.cov[2 * ia + 1, 2 * ia + 1] + state.cov[2 * ib + 1, 2 * ib + 1])


def coherent_fidelity(state: GaussianState, mode: ModeRef, target_x, target_p):
    """Overlap of one reduced mode with the pure coherent state at (x, p).

    F = det(Sigma + I/2)^(-1/2) * exp(-delta^T (Sigma + I/2)^(-1) delta / 2);
    equals 1 iff the mode is exactly that coherent state.  A float, or an
    array over the batch axes of the mean.  Every physical Sigma gives
    det(Sigma + I/2) >= 1, so F <= 1; a det below 1 beyond round-off (1e-9)
    raises InvariantViolation.
    """
    sigma = state.mode_cov(mode) + VACUUM_VAR * np.eye(2)
    mx, mp = state.mode_mean(mode)
    delta = np.stack(np.broadcast_arrays(mx - target_x, mp - target_p), axis=-1)
    det = float(np.linalg.det(sigma))
    if det < 1.0 - 1e-9:
        raise InvariantViolation(f"unphysical reduced covariance: det(Sigma + I/2) = {det:.3g} < 1")
    with np.errstate(over="ignore"):  # quad = inf only where exp(-quad / 2) is 0 anyway
        quad = np.sum(delta * (delta @ np.linalg.inv(sigma)), axis=-1)
    return np.exp(-0.5 * quad) / np.sqrt(det)


def validate(state: GaussianState) -> None:
    """Assert symmetry and the uncertainty relation sigma + i Omega / 2 >= 0.

    Raises InvariantViolation, also for a NaN or infinite entry.  By Weyl's inequality, rounding sigma moves the
    Hermitian spectrum by about eps 2n max|sigma| at most, so the lowest
    eigenvalue is refused only below -4 times that.  This is a diagnostic
    hook: operations never auto-correct a failing state.
    """
    scale = float(np.max(np.abs(state.cov)))
    if not np.isfinite(scale):
        raise InvariantViolation(f"covariance is not finite: max|sigma| = {scale}")
    asym = np.max(np.abs(state.cov - state.cov.T))
    if asym > 1e-12 * max(1.0, scale):
        raise InvariantViolation(f"covariance asymmetry {asym:.3e}")
    n = state.n_modes
    lowest = float(np.linalg.eigvalsh(state.cov + 0.5j * symplectic_form(n))[0])
    if lowest < -4 * np.finfo(float).eps * 2 * n * scale:
        raise InvariantViolation(f"sigma + i Omega / 2 has eigenvalue {lowest:.3e} < 0")
