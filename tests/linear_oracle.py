"""Brute-force linear-Gaussian oracle used by the tests.

Every protocol and measurement sequence in the package is linear in a set of
independent vacuum variables (variance 1/2 each).  These helpers express
expected values directly from coefficient vectors with plain numpy, without
touching the package's Gaussian engine, so they stay independent of the code
paths they check.
"""

from __future__ import annotations

import numpy as np

VAC = 0.5


def cov_of(rows: np.ndarray) -> np.ndarray:
    """Covariance of linear combinations of iid N(0, 1/2) variables."""
    rows = np.atleast_2d(np.asarray(rows, float))
    return VAC * rows @ rows.T


def conditional_cov(targets: np.ndarray, measurements: np.ndarray) -> np.ndarray:
    """Schur complement: cov of targets given exact measurement values."""
    targets = np.atleast_2d(np.asarray(targets, float))
    measurements = np.atleast_2d(np.asarray(measurements, float))
    ctt = VAC * targets @ targets.T
    ctm = VAC * targets @ measurements.T
    cmm = VAC * measurements @ measurements.T
    return ctt - ctm @ np.linalg.solve(cmm, ctm.T)


def swap_duan_sum(kappa: float) -> float:
    """Conditional Duan sum of the never-interacting pair after a swap.

    p-sector variables: p1 p2 p3 p4, sin-channel P of pulses 1 and 2,
    cos-channel X of pulses 1, 2, 3.  The x-sector mirrors it exactly, so the
    Duan sum equals the conditional variance of p4 - p2.
    Closed form: (3 k^4 + 4 k^2 + 2) / (k^6 + 2 k^4 + 4 k^2 + 2).
    """
    k = float(kappa)
    if k == 0.0:
        return 1.0
    n = 9
    p1, p2, p3, p4, s1, s2, c1, c2, c3 = range(n)
    rt2 = np.sqrt(2.0)

    def row(**coeffs):
        r = np.zeros(n)
        for name, v in coeffs.items():
            r[dict(p1=p1, p2=p2, p3=p3, p4=p4, s1=s1, s2=s2,
                   c1=c1, c2=c2, c3=c3)[name]] = v
        return r

    meas = np.vstack([
        row(c1=1, p1=k / rt2, p2=-k / rt2),
        row(c2=1, p4=k / rt2, p3=-k / rt2),
        row(c3=1, p1=k / rt2, p3=-k / rt2, s1=-k**2 / 2, s2=k**2 / 2),
    ])
    target = row(p4=1, p2=-1, s1=k / rt2, s2=-k / rt2)
    return float(conditional_cov(target, meas)[0, 0])


def teleport_mean_fidelity(kappa2: float) -> float:
    """Run-averaged teleportation fidelity at unity gain: kappa^2/(kappa^2+2).

    Derived from the total output covariance (1/2 + 2/kappa^2) per quadrature
    and the determinant identity E[F] = det(Sigma_tot + I/2)^(-1/2); the input
    mean transfers exactly at unity gain so no mean penalty appears.
    """
    k = np.sqrt(float(kappa2))
    if k == 0.0:
        raise ValueError("undefined at kappa = 0 (feedback coefficient diverges)")
    n = 6
    p1, p2, p3, s1, c1, c2 = range(n)
    rt2 = np.sqrt(2.0)
    a1 = np.zeros(n); a1[c1] = 1; a1[p1] = k / rt2; a1[p2] = -k / rt2
    a2 = np.zeros(n); a2[c2] = 1; a2[p1] = k / rt2; a2[p3] = -k / rt2; a2[s1] = -k**2 / 2
    out = np.zeros(n); out[p2] = 1; out[s1] = -k / rt2
    out = out + (rt2 / k) * (a1 - a2)
    var_tot = float(cov_of(out)[0, 0])
    return 1.0 / (var_tot + VAC)


def teleport_conditional_var(kappa: float, gain: float = 1.0) -> float:
    """Per-quadrature conditional variance of the teleported mode.

    x-sector model (p-sector mirrors it): variables x1, x2, x3, the cos-mode
    P back-action of pulse 1, and the sin-mode X shot of both pulses.  The
    output after feedback is conditioned on the two sin-channel outcomes; the
    cos-channel outcomes live in the other sector and carry no information
    about x2.
    """
    k = float(kappa)
    n = 6
    x1, x2, x3, z1, s1, s2 = range(n)
    rt2 = np.sqrt(2.0)
    b1 = np.zeros(n); b1[s1] = 1; b1[x1] = k / rt2; b1[x2] = k / rt2
    b2 = np.zeros(n); b2[s2] = 1; b2[x1] = k / rt2; b2[x3] = k / rt2
    b2[z1] = k**2 / 2
    out = np.zeros(n); out[x2] = 1; out[z1] = -k / rt2
    out = out + (gain * rt2 / k) * (b2 - b1)
    return float(conditional_cov(out, np.vstack([b1, b2]))[0, 0])


def memory_mean_fidelity(r: float, kappa2_readout: float) -> float:
    """Run-averaged storage fidelity of the EPR-resource quantum memory.

    Stored logical quadratures: X = X_L + eps, P = P_L + delta - X_R/kappa_r,
    eps and delta the squeezed pair combinations of variance e^(-2r).
    """
    k = np.sqrt(float(kappa2_readout))
    if k == 0.0:
        raise ValueError("undefined at zero readout coupling")
    n = 8
    xl, pl, x1, p1, e, d, xr, pr = range(n)
    ce = np.sqrt(2.0) * np.exp(-r)  # unit-variance carrier scaled to var e^-2r
    out_x = np.zeros(n); out_x[xl] = 1; out_x[e] = ce
    out_p = np.zeros(n); out_p[pl] = 1; out_p[d] = ce; out_p[xr] = -1.0 / k
    tot = cov_of(np.vstack([out_x, out_p]))
    return float(1.0 / np.sqrt(np.linalg.det(tot + VAC * np.eye(2))))


def qnd_output_cov(kappa: float) -> np.ndarray:
    """4x4 covariance after the QND map on two vacuum modes.

    Quadrature order (X_a, P_a, X_l, P_l); built from the explicit map
    X_l += kappa P_a, X_a += kappa P_l applied to (1/2) I.
    """
    smat = np.eye(4)
    smat[2, 1] = kappa
    smat[0, 3] = kappa
    return VAC * smat @ smat.T


def conditioned_atom_cov(kappa: float) -> np.ndarray:
    """Atom covariance after the QND probe and an exact X_l homodyne."""
    cov = qnd_output_cov(kappa)
    atom = [0, 1]
    xl = 2
    gain = cov[atom, xl] / cov[xl, xl]
    return cov[np.ix_(atom, atom)] - np.outer(gain, cov[xl, atom])


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Sorted symplectic spectrum of a covariance; all 1/2 for a pure state.

    The moduli of the eigenvalues of i Omega cov, each kept once.  The
    nonsymmetric solver loses digits with cov's condition number, so this
    is for the small squeezing of the tests.
    """
    cov = np.asarray(cov, float)
    omega = np.kron(np.eye(len(cov) // 2), [[0.0, 1.0], [-1.0, 0.0]])
    return np.sort(np.abs(np.linalg.eigvals(1j * omega @ cov)))[::2]


def cycle_stat_laws(kappa2: float, beta: float, n: int) -> dict[str, tuple[float, float]]:
    """Exact (mean, variance) of var1, cond_var and alpha_star over n cycles.

    Per channel and cycle, the outcomes (a1, a2) are N(0, [[h, g], [g, h]])
    with h = (1 + kappa2)/2 and g = kappa2 beta / 2, iid over the 2n
    pooled pairs.  With r = h - g^2/h, the variance of a2 given a1:
        (n - 1) var1     ~ h chi2(2n),
        (n - 1) cond_var ~ r chi2(2n - 1)  (residuals of a fit through 0),
        alpha_star | a1  ~ N(g/h, r / sum a1^2), and E[1/chi2(2n)] = 1/(2n - 2).
    2 r is the model conditional variance
    1 + kappa2 (1 + (1 - beta^2) kappa2) / (1 + kappa2).
    """
    h = (1.0 + kappa2) / 2.0
    g = kappa2 * beta / 2.0
    r = h - g * g / h
    m = n - 1
    return {
        "var1": (h * 2 * n / m, h**2 * 4 * n / m**2),
        "cond_var": (r * (2 * n - 1) / m, r**2 * 2 * (2 * n - 1) / m**2),
        "alpha_star": (g / h, r / (h * (2 * n - 2))),
    }


def conditional_variance(rows: np.ndarray, alpha: float) -> float:
    """The paper's estimator over (n, 4) cycle rows (a1, b1, a2, b2), summed
    directly: (1/(n-1)) sum((a2 - alpha a1)^2 + (b2 - alpha b1)^2)."""
    a1, b1, a2, b2 = np.asarray(rows, float).T
    n = a1.size
    if n < 2:
        raise ValueError("need at least two cycles")
    res_a, res_b = a2 - alpha * a1, b2 - alpha * b1
    return float((np.dot(res_a, res_a) + np.dot(res_b, res_b)) / (n - 1))
